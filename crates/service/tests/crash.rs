//! Crash anywhere: whatever byte of its durable state a dying daemon
//! reached, the next one reports only whole, marker-covered records,
//! a client that resends from that report converges, and everything
//! then served — finals, matrix cells, the whole trail — is
//! bit-identical to a daemon that never stopped. A `ck` an earlier build
//! wrote, slabs and all, recovers to the frames that build served. And a
//! checkpoint touches only the tenants that changed.

mod common;

use std::fs;
use std::net::TcpStream;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

use choir_core::metrics::stream::{read_section, write_section, CHECKPOINT_FORMAT};
use choir_core::metrics::{Observation, PairAnalyzer, Trial};
use choir_packet::PacketId;
use choir_service::wire::{read_frame, write_frame};
use choir_service::{Client, Daemon, DaemonConfig, DaemonError, Response, OBS_BYTES};
use common::{copy_dir, served_bits, synth, tmp_dir};

const T: &str = "acme";
const STREAMS: [&str; 3] = ["base", "r1", "r2"];

/// One `Ingest`: records `lo..hi` of a stream.
type Op = (usize, usize, usize);

fn config(dir: &Path) -> DaemonConfig {
    let mut cfg = DaemonConfig::new(dir);
    // Two of three trials fit: replay and catch-up reload evicted logs.
    cfg.default_budget_bytes = 2 * 150 * OBS_BYTES;
    // Checkpoints only where the test asks for one.
    cfg.checkpoint_every_records = 0;
    cfg.snapshot_every = 16;
    cfg
}

/// Interleaved chunks of uneven size over the three streams.
fn schedule(data: &[Vec<Observation>]) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut sent = [0usize; 3];
    let mut step = 0;
    while (0..3).any(|s| sent[s] < data[s].len()) {
        let s = step % 3;
        let hi = (sent[s] + [7, 11, 5, 13][step % 4]).min(data[s].len());
        if sent[s] < hi {
            ops.push((s, sent[s], hi));
            sent[s] = hi;
        }
        step += 1;
    }
    ops
}

fn open_tenant(c: &mut Client) {
    c.create_tenant(T, 0).expect("create tenant");
    for s in STREAMS {
        c.open_stream(T, s).expect("open stream");
    }
}

/// Send each op's records the way a resuming client does: ask what the
/// stream holds, send from there.
fn play(c: &mut Client, data: &[Vec<Observation>], ops: &[Op]) {
    for &(s, _, hi) in ops {
        let (have, ..) = c.stream_status(T, STREAMS[s]).expect("status");
        if (have as usize) < hi {
            let total = c
                .ingest(T, STREAMS[s], have, &data[s][have as usize..hi])
                .expect("ingest");
            assert_eq!(total, hi as u64);
        }
    }
}

fn finish_and_collect(c: &mut Client) -> Vec<u64> {
    for s in STREAMS {
        c.finish_stream(T, s).expect("finish");
    }
    served_bits(c, T, &STREAMS[1..])
}

fn tenant_dir(data_dir: &Path) -> PathBuf {
    data_dir.join("tenants").join(T)
}

fn size(p: &Path) -> u64 {
    fs::metadata(p).map_or(0, |m| m.len())
}

fn cut(p: &Path, len: u64) {
    fs::OpenOptions::new()
        .write(true)
        .open(p)
        .and_then(|f| f.set_len(len))
        .expect("truncate");
}

/// A data directory killed right after op `k`, with the sizes of the
/// files that op appended to, before and after it.
struct Killed {
    dir: PathBuf,
    data: Vec<Vec<Observation>>,
    ops: Vec<Op>,
    k: usize,
    log: (u64, u64),
    journal: (u64, u64),
    /// What an uninterrupted daemon serves after the whole schedule.
    reference: Vec<u64>,
}

fn streams() -> Vec<Vec<Observation>> {
    (0..3).map(|s| synth(3, s, 150)).collect()
}

fn killed_after_op(name: &str, k: usize) -> Killed {
    let data = streams();
    let ops = schedule(&data);
    assert!(k < ops.len());

    let straight = tmp_dir(&format!("{name}-straight"));
    let d = Daemon::spawn(config(&straight), "127.0.0.1:0").expect("spawn");
    let mut c = Client::connect(d.addr()).expect("connect");
    open_tenant(&mut c);
    play(&mut c, &data, &ops);
    let reference = finish_and_collect(&mut c);
    drop(c);
    d.kill();
    let _ = fs::remove_dir_all(&straight);

    let dir = tmp_dir(name);
    let d = Daemon::spawn(config(&dir), "127.0.0.1:0").expect("spawn");
    let mut c = Client::connect(d.addr()).expect("connect");
    open_tenant(&mut c);
    // A checkpoint a third of the way in, so recovery is a checkpoint
    // with live engines plus a journal tail of markers.
    play(&mut c, &data, &ops[..k / 3]);
    c.checkpoint().expect("checkpoint");
    play(&mut c, &data, &ops[k / 3..k]);
    let log_path = tenant_dir(&dir).join(format!("{}.log", STREAMS[ops[k].0]));
    let journal_path = tenant_dir(&dir).join("journal");
    let before = (size(&log_path), size(&journal_path));
    play(&mut c, &data, &ops[k..=k]);
    let after = (size(&log_path), size(&journal_path));
    drop(c);
    d.kill();
    assert_eq!(after.0 - before.0, (ops[k].2 - ops[k].1) as u64 * OBS_BYTES);
    assert!(after.1 > before.1, "op {k} left a marker");
    Killed {
        dir,
        data,
        ops,
        k,
        log: (before.0, after.0),
        journal: (before.1, after.1),
        reference,
    }
}

impl Killed {
    /// Respawn on a copy of the directory after `damage` has been done
    /// to the tenant's files; require op `k`'s stream to report `have`
    /// records and every other stream what it was sent; resend; require
    /// the reference.
    fn recovers(&self, what: &str, have: usize, damage: impl Fn(&Path)) {
        let work = self.dir.with_extension("work");
        copy_dir(&self.dir, &work);
        damage(&tenant_dir(&work));
        let d = Daemon::spawn(config(&work), "127.0.0.1:0")
            .unwrap_or_else(|e| panic!("{what}: respawn failed: {e}"));
        let mut c = Client::connect(d.addr()).expect("connect");
        for (s, stream) in STREAMS.iter().enumerate() {
            let sent = self.ops[..self.k]
                .iter()
                .filter(|op| op.0 == s)
                .map(|op| op.2)
                .max()
                .unwrap_or(0);
            let want = if s == self.ops[self.k].0 { have } else { sent };
            let (got, finished, _) = c.stream_status(T, stream).expect("status");
            assert_eq!(got as usize, want, "{what}: records of {stream}");
            assert!(!finished);
        }
        play(&mut c, &self.data, &self.ops[self.k..]);
        assert_eq!(finish_and_collect(&mut c), self.reference, "{what}");
        drop(c);
        d.kill();
        let _ = fs::remove_dir_all(&work);
    }

    fn refuses(&self, what: &str, damage: impl Fn(&Path)) -> DaemonError {
        refused(&self.dir, config, what, damage)
    }
}

/// Spawn on a copy of `dir` after `damage` has been done to it; the error
/// the daemon refused with.
fn refused(
    dir: &Path,
    config: fn(&Path) -> DaemonConfig,
    what: &str,
    damage: impl Fn(&Path),
) -> DaemonError {
    let work = tmp_dir(&format!(
        "work-{}",
        dir.file_name().expect("named").to_string_lossy()
    ));
    copy_dir(dir, &work);
    damage(&work);
    let err = match Daemon::spawn(config(&work), "127.0.0.1:0") {
        Ok(d) => {
            d.kill();
            panic!("{what}: a daemon came up on damaged state");
        }
        Err(e) => e,
    };
    let _ = fs::remove_dir_all(&work);
    err
}

/// Rewrite the JSON head of the `ck` at `path` through `edit`, with a
/// checksum that matches, leaving whatever follows it alone.
fn edit_head(path: &Path, edit: impl Fn(&str) -> String) {
    let raw = fs::read(path).expect("read ck");
    let mut r = &raw[..];
    let head = String::from_utf8(read_section(&mut r, "tenant").expect("head")).expect("JSON");
    let edited = edit(&head);
    assert_ne!(edited, head, "the edit changes the head");
    let mut out = Vec::new();
    write_section(&mut out, edited.as_bytes()).expect("write");
    out.extend_from_slice(r);
    fs::write(path, out).expect("write ck");
}

/// The schedule's last op that feeds an engine several records.
fn last_engine_op(name: &str) -> Killed {
    let k = schedule(&streams())
        .iter()
        .rposition(|op| op.0 > 0 && op.2 - op.1 >= 5)
        .expect("an op on a comparison stream");
    killed_after_op(name, k)
}

#[test]
fn a_crash_at_any_byte_of_the_last_log_append_converges() {
    let f = last_engine_op("logbyte");
    let (s, lo, hi) = f.ops[f.k];
    let log = format!("{}.log", STREAMS[s]);

    // Died inside the log append (or right after it): no marker yet.
    for at in f.log.0..=f.log.1 {
        f.recovers(&format!("log cut at {at}"), lo, |t| {
            cut(&t.join(&log), at);
            cut(&t.join("journal"), f.journal.0);
        });
    }
    // Died after both appends: the op counts, acknowledged or not.
    f.recovers("nothing cut", hi, |_| {});
    let _ = fs::remove_dir_all(&f.dir);
}

#[test]
fn a_crash_at_any_byte_of_the_last_marker_converges() {
    let f = last_engine_op("markerbyte");
    let lo = f.ops[f.k].1;

    // Died inside the marker append: the log is whole, the line is not.
    for at in f.journal.0..f.journal.1 {
        f.recovers(&format!("marker cut at {at}"), lo, |t| {
            cut(&t.join("journal"), at)
        });
    }
    let _ = fs::remove_dir_all(&f.dir);
}

#[test]
fn an_interrupted_checkpoint_leaves_nothing_behind() {
    let f = killed_after_op("midcheckpoint", 20);
    let hi = f.ops[f.k].2;

    // Died writing the temp file: a short `ck.tmp` beside the old `ck`.
    for keep in [0, 1, 2] {
        f.recovers(&format!("ck.tmp at {keep}/2"), hi, |t| {
            let ck = fs::read(t.join("ck")).expect("read ck");
            fs::write(t.join("ck.tmp"), &ck[..ck.len() * keep / 2]).expect("write ck.tmp");
        });
    }

    // Died between the rename and emptying the journal: a new `ck` beside
    // the lines it already covers. Each must be applied exactly once.
    let stale = fs::read(tenant_dir(&f.dir).join("journal")).expect("read journal");
    let d = Daemon::spawn(config(&f.dir), "127.0.0.1:0").expect("respawn");
    let mut c = Client::connect(d.addr()).expect("connect");
    c.checkpoint().expect("checkpoint");
    drop(c);
    d.kill();
    assert_eq!(size(&tenant_dir(&f.dir).join("journal")), 0);
    f.recovers("stale journal", hi, |t| {
        fs::write(t.join("journal"), &stale).expect("write journal")
    });
    let _ = fs::remove_dir_all(&f.dir);
}

#[test]
fn damaged_durable_state_is_refused_with_a_typed_error() {
    let f = killed_after_op("damaged", 20);
    let (s, ..) = f.ops[f.k];
    let in_tenant = |p: &str| Path::new("tenants").join(T).join(p);

    // A marker whose records are gone: acknowledged data was lost, and
    // no crash of the process can do that.
    let log = in_tenant(&format!("{}.log", STREAMS[s]));
    let err = f.refuses("short log", |d| cut(&d.join(&log), f.log.1 - 1));
    assert!(matches!(err, DaemonError::Store(_)), "{err}");

    // Any one bit of the checkpoint.
    let ck = in_tenant("ck");
    let bits = size(&f.dir.join(&ck)) * 8;
    let mut seed = 0xC0FFEE;
    for _ in 0..64 {
        let bit = common::lcg(&mut seed) % bits;
        let err = f.refuses(&format!("ck bit {bit}"), |d| {
            let mut raw = fs::read(d.join(&ck)).expect("read ck");
            raw[(bit / 8) as usize] ^= 1 << (bit % 8);
            fs::write(d.join(&ck), raw).expect("write ck");
        });
        assert!(matches!(err, DaemonError::Recovery(_)), "bit {bit}: {err}");
    }

    // A live engine's cursor that claims more than the logs hold: more
    // baseline records than the baseline has, or other than its own
    // stream's count. Trusted, later records would be pushed at the
    // wrong positions; sliced, the engine would be built from records it
    // never consumed.
    let ck_at = |d: &Path| d.join(&ck);
    let len_of = |head: &str, side: &str| {
        let key = format!("\"{side}\":{{\"len\":");
        let at = head.find(&key).expect("a live engine") + key.len();
        let digits = head[at..].find(',').expect("more fields");
        (at, head[at..at + digits].parse::<u64>().expect("a count"))
    };
    let with_len = |head: &str, side: &str, to: &dyn Fn(u64) -> u64| {
        let (at, n) = len_of(head, side);
        format!(
            "{}{}{}",
            &head[..at],
            to(n),
            &head[at + n.to_string().len()..]
        )
    };
    let head = {
        let raw = fs::read(f.dir.join(&ck)).expect("read ck");
        String::from_utf8(read_section(&mut &raw[..], "tenant").expect("head")).expect("JSON")
    };
    let (_, seen_b) = len_of(&head, "side_b");
    for (side, to, said) in [
        (
            "side_a",
            &(|_| 10_000u64) as &dyn Fn(u64) -> u64,
            "side A consumed 10000 records, its baseline holds".to_string(),
        ),
        (
            "side_b",
            &|n| n - 1,
            format!(
                "side B consumed {} records, its stream holds {seen_b}",
                seen_b - 1
            ),
        ),
        (
            "side_b",
            &|n| n + 1,
            format!(
                "side B consumed {} records, its stream holds {seen_b}",
                seen_b + 1
            ),
        ),
    ] {
        let err = f.refuses(side, |d| edit_head(&ck_at(d), |h| with_len(h, side, to)));
        let msg = err.to_string();
        assert!(
            matches!(err, DaemonError::Recovery(_))
                && msg.contains(&format!("tenant `{T}`: engine `r1`: {said}")),
            "{msg}"
        );
    }

    // A journal that skips a line.
    let err = f.refuses("journal gap", |d| {
        let raw = fs::read_to_string(d.join(in_tenant("journal"))).expect("read journal");
        let rest: String = raw.split_inclusive('\n').skip(1).collect();
        fs::write(d.join(in_tenant("journal")), rest).expect("write journal");
    });
    assert!(matches!(err, DaemonError::Recovery(_)), "{err}");

    // The layout this one replaced is not migrated.
    let err = f.refuses("old layout", |d| {
        fs::write(d.join("state.json"), "{}").expect("write")
    });
    assert!(matches!(err, DaemonError::Recovery(_)), "{err}");
    let _ = fs::remove_dir_all(&f.dir);
}

/// A data directory `choir-serve` wrote at 2b8b051, whose `ck` holds each
/// live engine's matched pairs and pending records as slabs (format 2):
/// tenant `fixture`, a 600-record baseline `base` and a finished stream
/// `done`, both finished; a live stream `live` with a swapped block and
/// two identities the baseline never sent, checkpointed at 420 records
/// and killed at 505, so its journal holds two markers the `ck` does not
/// cover. Written with `--checkpoint-every 0 --snapshot-every 64`.
fn slab_fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/slab-ck")
}

fn slab_config(dir: &Path) -> DaemonConfig {
    let mut cfg = DaemonConfig::new(dir);
    cfg.checkpoint_every_records = 0;
    cfg.snapshot_every = 64;
    cfg
}

/// Requests and the response frames the daemon at 2b8b051 served for
/// them, recovered from [`slab_fixture`].
const SLAB_FIXTURE_FRAMES: [(&str, &str); 7] = [
    (
        r#"{"StreamStatus":{"tenant":"fixture","stream":"base"}}"#,
        r#"{"Status":{"ingested":600,"finished":true,"baseline":true}}"#,
    ),
    (
        r#"{"StreamStatus":{"tenant":"fixture","stream":"done"}}"#,
        r#"{"Status":{"ingested":591,"finished":true,"baseline":false}}"#,
    ),
    (
        r#"{"StreamStatus":{"tenant":"fixture","stream":"live"}}"#,
        r#"{"Status":{"ingested":505,"finished":false,"baseline":false}}"#,
    ),
    (
        r#"{"Snapshot":{"tenant":"fixture","stream":"done"}}"#,
        r#"{"Snapshot":{"seen_a":600,"seen_b":591,"common":591,"running":{"kappa":0.987317457929925,"kappa_bits":4607068184616535607,"u":0.007556675062972307,"o":0.0,"l":8.068232855668511e-5,"i":0.02421317091566918}}}"#,
    ),
    (
        r#"{"Snapshot":{"tenant":"fixture","stream":"live"}}"#,
        r#"{"Snapshot":{"seen_a":600,"seen_b":505,"common":503,"running":{"kappa":0.9408470598289205,"kappa_bits":4606649616481392722,"u":0.08959276018099549,"o":0.001136040897472309,"l":0.00011198576857952925,"i":0.0772535793148173}}}"#,
    ),
    (
        r#"{"Trail":{"tenant":"fixture","stream":"done"}}"#,
        r#"{"Trail":{"points":[{"seen_a":50,"seen_b":14,"common":14,"running":{"kappa":0.7187190424936748,"kappa_bits":4604648865169193603,"u":0.5625,"o":0.0,"l":0.0007658690977750312,"i":0.008310936603386044}},{"seen_a":67,"seen_b":61,"common":61,"running":{"kappa":0.9748738234924397,"kappa_bits":4606956102321704020,"u":0.046875,"o":0.0,"l":0.0006408529643641064,"i":0.018100349887070287}},{"seen_a":94,"seen_b":98,"common":93,"running":{"kappa":0.9806559490087627,"kappa_bits":4607008183078345464,"u":0.03125,"o":0.0,"l":0.00048233038791632363,"i":0.0228029404332695}},{"seen_a":155,"seen_b":101,"common":101,"running":{"kappa":0.8941270976008104,"kappa_bits":4606228800472430162,"u":0.2109375,"o":0.0,"l":0.00030838348505307254,"i":0.01848139180606849}},{"seen_a":172,"seen_b":148,"common":148,"running":{"kappa":0.9608421920769715,"kappa_bits":4606829716621675815,"u":0.07499999999999996,"o":0.0,"l":0.0002714253382637172,"i":0.022544667077447244}},{"seen_a":192,"seen_b":192,"common":189,"running":{"kappa":0.9851235985155959,"kappa_bits":4607048424087653856,"u":0.015625,"o":0.0,"l":0.0002465496079631221,"i":0.025318528250898163}},{"seen_a":242,"seen_b":206,"common":206,"running":{"kappa":0.9582362300164148,"kappa_bits":4606806244202146085,"u":0.0803571428571429,"o":0.0,"l":0.00019971220784690261,"i":0.022793412202608363}},{"seen_a":259,"seen_b":253,"common":253,"running":{"kappa":0.9853164068415219,"kappa_bits":4607050160750663444,"u":0.01171875,"o":0.0,"l":0.00018327751694706808,"i":0.026927104188235677}},{"seen_a":286,"seen_b":290,"common":281,"running":{"kappa":0.9823446162512597,"kappa_bits":4607023393240673588,"u":0.02430555555555558,"o":0.0,"l":0.0001612613363582915,"i":0.02561375148583934}},{"seen_a":347,"seen_b":293,"common":293,"running":{"kappa":0.956192084019489,"kappa_bits":4606787832171845993,"u":0.08437499999999998,"o":0.0,"l":0.00013628213313089386,"i":0.023608786762607394}},{"seen_a":364,"seen_b":340,"common":340,"running":{"kappa":0.9787686698747702,"kappa_bits":4606991183979136278,"u":0.03409090909090906,"o":0.0,"l":0.00013168908292023634,"i":0.02531541212160661}},{"seen_a":384,"seen_b":384,"common":377,"running":{"kappa":0.9840692244217086,"kappa_bits":4607038927130101176,"u":0.01822916666666663,"o":0.0,"l":0.00012323993171379274,"i":0.026131221491955927}},{"seen_a":434,"seen_b":398,"common":398,"running":{"kappa":0.9750819125682697,"kappa_bits":4606957976621472756,"u":0.043269230769230727,"o":0.0,"l":0.0001113728526157174,"i":0.024726617029997774}},{"seen_a":451,"seen_b":445,"common":444,"running":{"kappa":0.9869053333805331,"kappa_bits":4607064472528601464,"u":0.008928571428571397,"o":0.0,"l":0.00010721752397250818,"i":0.024620119661516157}},{"seen_a":478,"seen_b":482,"common":471,"running":{"kappa":0.9847783485775043,"kappa_bits":4607045314352668778,"u":0.018750000000000044,"o":0.0,"l":9.912123671754769e-5,"i":0.023983793759376135}},{"seen_a":539,"seen_b":485,"common":485,"running":{"kappa":0.9712279895620191,"kappa_bits":4606923263569043026,"u":0.052734375,"o":0.0,"l":8.999063599585881e-5,"i":0.023030239547558718}},{"seen_a":556,"seen_b":532,"common":532,"running":{"kappa":0.9840570971680453,"kappa_bits":4607038817897511018,"u":0.022058823529411797,"o":0.0,"l":8.695941343277431e-5,"i":0.023024016708543142}},{"seen_a":576,"seen_b":576,"common":567,"running":{"kappa":0.9855536691860235,"kappa_bits":4607052297819876017,"u":0.015625,"o":0.0,"l":8.292453390883557e-5,"i":0.024303053192326764}}]}}"#,
    ),
    (
        r#"{"Trail":{"tenant":"fixture","stream":"live"}}"#,
        r#"{"Trail":{"points":[{"seen_a":50,"seen_b":14,"common":14,"running":{"kappa":0.718044019314381,"kappa_bits":4604642785100916135,"u":0.5625,"o":0.0,"l":0.0006975176499370473,"i":0.039874348228963054}},{"seen_a":91,"seen_b":37,"common":37,"running":{"kappa":0.7878705326964521,"kappa_bits":4605271726420212288,"u":0.421875,"o":0.0,"l":0.0006233137297872111,"i":0.044908122304791596}},{"seen_a":105,"seen_b":87,"common":87,"running":{"kappa":0.9478967768576596,"kappa_bits":4606713114687360116,"u":0.09375,"o":0.0,"l":0.0006779136714908882,"i":0.04549133302439133}},{"seen_a":155,"seen_b":101,"common":101,"running":{"kappa":0.8868359770513958,"kappa_bits":4606163127896851248,"u":0.2109375,"o":0.0,"l":0.000451599699000932,"i":0.08203384369338503}},{"seen_a":189,"seen_b":131,"common":131,"running":{"kappa":0.8696634267839647,"kappa_bits":4606008451314880440,"u":0.18125000000000002,"o":0.016655100624566273,"l":0.00036866320770556177,"i":0.18660492619815938}},{"seen_a":192,"seen_b":192,"common":188,"running":{"kappa":0.9175323123640053,"kappa_bits":4606439615905402264,"u":0.02083333333333337,"o":0.008105369807497468,"l":0.0003521875008470182,"i":0.16341306307202647}},{"seen_a":242,"seen_b":206,"common":205,"running":{"kappa":0.9169103147032601,"kappa_bits":4606434013448535949,"u":0.0848214285714286,"o":0.006819796353303339,"l":0.0002897089209329983,"i":0.1427386244587909}},{"seen_a":283,"seen_b":229,"common":228,"running":{"kappa":0.9162154897129728,"kappa_bits":4606427755021401258,"u":0.109375,"o":0.005515973339462192,"l":0.0002460027605297452,"i":0.12683059391135873}},{"seen_a":297,"seen_b":279,"common":278,"running":{"kappa":0.9377066462849211,"kappa_bits":4606621330150859632,"u":0.03472222222222221,"o":0.0037131585054537017,"l":0.00023022096392899018,"i":0.11959253490272514}},{"seen_a":347,"seen_b":293,"common":292,"running":{"kappa":0.9302266803290087,"kappa_bits":4606553956607076050,"u":0.08750000000000002,"o":0.0033662162793959513,"l":0.00019354611559435213,"i":0.10865378815072599}},{"seen_a":381,"seen_b":323,"common":322,"running":{"kappa":0.9333889397554934,"kappa_bits":4606582439707825581,"u":0.08522727272727271,"o":0.0027690710151337425,"l":0.00017751331964355036,"i":0.10235597738185455}},{"seen_a":384,"seen_b":384,"common":378,"running":{"kappa":0.9505557035217139,"kappa_bits":4606737064169626997,"u":0.015625,"o":0.00201030280185953,"l":0.0001745541001451366,"i":0.09762551615966789}},{"seen_a":434,"seen_b":398,"common":396,"running":{"kappa":0.9482779092565579,"kappa_bits":4606716547622819430,"u":0.04807692307692313,"o":0.0018319212273872224,"l":0.00015653854475467855,"i":0.0915747110901678}},{"seen_a":476,"seen_b":420,"common":418,"running":{"kappa":0.9453602291650178,"kappa_bits":4606690267496873338,"u":0.0669642857142857,"o":0.0016443799888090807,"l":0.00014313226095449832,"i":0.08634279468479858}},{"seen_a":540,"seen_b":420,"common":418,"running":{"kappa":0.9238630430651928,"kappa_bits":4606496638058255966,"u":0.12916666666666665,"o":0.0016443799888090807,"l":0.00012621168867726136,"i":0.08062628078024543}},{"seen_a":600,"seen_b":424,"common":422,"running":{"kappa":0.9040974830474054,"kappa_bits":4606318605720794213,"u":0.17578125,"o":0.0016133911465160836,"l":0.00011382927655359666,"i":0.07673009312983017}},{"seen_a":600,"seen_b":488,"common":486,"running":{"kappa":0.9341893458947169,"kappa_bits":4606589649125406285,"u":0.10661764705882348,"o":0.0012168225720587116,"l":0.00011223424789073895,"i":0.07717093272082924}}]}}"#,
    ),
];

/// A stream's log, as records.
fn log_records(path: &Path) -> Vec<Observation> {
    fs::read(path)
        .expect("read log")
        .chunks_exact(OBS_BYTES as usize)
        .map(|b| Observation {
            id: PacketId::from_u128(u128::from_le_bytes(b[..16].try_into().expect("16 bytes"))),
            t_ps: u64::from_le_bytes(b[16..].try_into().expect("8 bytes")),
        })
        .collect()
}

/// Send each request as a raw frame; require the recorded response
/// frame, byte for byte.
fn serves_the_recorded_frames(daemon: &choir_service::DaemonHandle, when: &str) {
    let mut sock = TcpStream::connect(daemon.addr()).expect("connect");
    for (req, want) in SLAB_FIXTURE_FRAMES {
        write_frame(&mut sock, req.as_bytes()).expect("send");
        let got = read_frame(&mut sock).expect("receive").expect("a response");
        assert!(
            got == want.as_bytes(),
            "{when}: {req}\n got {}\nwant {want}",
            String::from_utf8_lossy(&got)
        );
    }
}

#[test]
fn a_ck_with_slabs_recovers_to_the_frames_its_writer_served() {
    let dir = tmp_dir("slab-ck");
    copy_dir(&slab_fixture(), &dir);
    let d = Daemon::spawn(slab_config(&dir), "127.0.0.1:0").expect("recovers");
    serves_the_recorded_frames(&d, "recovered from slabs");
    // Rewritten by this build, killed, recovered again.
    let mut c = Client::connect(d.addr()).expect("connect");
    c.checkpoint().expect("checkpoint");
    drop(c);
    d.kill();
    let d = Daemon::spawn(slab_config(&dir), "127.0.0.1:0").expect("recovers");
    serves_the_recorded_frames(&d, "recovered from cursors");

    // Finished now, each stream scores what batch analysis of its log
    // against the baseline's scores.
    let logs = dir.join("tenants").join("fixture");
    let base = Trial::from_observations(&log_records(&logs.join("base.log")));
    let batch = |stream: &str| {
        let b = Trial::from_observations(&log_records(&logs.join(format!("{stream}.log"))));
        PairAnalyzer::new(&base, &b)
            .analyze()
            .metrics
            .kappa
            .to_bits()
    };
    let mut c = Client::connect(d.addr()).expect("connect");
    let Response::Snapshot { running, .. } = c.snapshot("fixture", "done").expect("snapshot")
    else {
        panic!("snapshot variant");
    };
    assert_eq!(running.kappa_bits, batch("done"));
    let live = c.finish_stream("fixture", "live").expect("finish");
    assert_eq!(live.map(|f| f.score.kappa_bits), Some(batch("live")));
    drop(c);
    d.kill();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_ck_with_slabs_in_a_format_no_build_wrote_is_refused_by_name() {
    // Engine checkpoints that do not name a slab layout this build reads
    // — what every file written before they named one reads as. The
    // slabs are positional, so this is refused by name, not parsed.
    let ck = Path::new("tenants/fixture/ck");
    for (format, found) in [("\"format\":0,", 0), ("", 0), ("\"format\":7,", 7)] {
        let err = refused(&slab_fixture(), slab_config, format, |d| {
            edit_head(&d.join(ck), |head| {
                head.replace(&format!("\"format\":{CHECKPOINT_FORMAT},"), format)
            })
        });
        let said = err.to_string();
        assert!(
            matches!(err, DaemonError::Recovery(_))
                && said.contains("tenant `fixture`: engine `live`")
                && said.contains(&format!(
                    "format {found}, this build reads format {CHECKPOINT_FORMAT}"
                )),
            "{said}"
        );
    }
}

#[test]
fn a_checkpoint_leaves_clean_tenants_alone() {
    let dir = tmp_dir("clean");
    let mut cfg = DaemonConfig::new(&dir);
    cfg.checkpoint_every_records = 64;
    cfg.snapshot_every = 16;
    let data: Vec<Vec<Observation>> = (0..2).map(|s| synth(5, s, 300)).collect();
    let kappa_of = |c: &mut Client, tenant: &str| {
        let Response::Snapshot { running, .. } = c.snapshot(tenant, "r1").expect("snapshot") else {
            panic!("snapshot variant");
        };
        running.kappa_bits
    };
    let batch = |n: usize| {
        PairAnalyzer::new(
            &Trial::from_observations(&data[0][..n]),
            &Trial::from_observations(&data[1][..n]),
        )
        .analyze()
        .metrics
        .kappa
        .to_bits()
    };

    let d = Daemon::spawn(cfg.clone(), "127.0.0.1:0").expect("spawn");
    let mut c = Client::connect(d.addr()).expect("connect");
    for tenant in ["a", "b"] {
        c.create_tenant(tenant, 0).expect("create");
        c.open_stream(tenant, "base").expect("open");
        c.open_stream(tenant, "r1").expect("open");
    }
    c.ingest("a", "base", 0, &data[0][..200]).expect("ingest");
    c.ingest("a", "r1", 0, &data[1][..200]).expect("ingest");
    c.checkpoint().expect("checkpoint");

    let state_of_a = || {
        let mut files: Vec<_> = fs::read_dir(dir.join("tenants").join("a"))
            .expect("read tenant a")
            .map(|e| e.expect("entry").path())
            .collect();
        files.sort();
        files
            .iter()
            .map(|p| {
                let m = fs::metadata(p).expect("metadata");
                (
                    p.clone(),
                    m.ino(),
                    m.modified().expect("mtime"),
                    fs::read(p).expect("read"),
                )
            })
            .collect::<Vec<_>>()
    };
    let before = state_of_a();
    assert!(before.iter().any(|f| f.0.ends_with("ck")));

    // Tenant b alone crosses the cadence several times over, and an
    // explicit checkpoint follows.
    for lo in (0..250).step_by(50) {
        c.ingest("b", "base", lo as u64, &data[0][lo..lo + 50])
            .expect("ingest");
        c.ingest("b", "r1", lo as u64, &data[1][lo..lo + 50])
            .expect("ingest");
    }
    c.checkpoint().expect("checkpoint");
    assert!(
        before == state_of_a(),
        "tenant a's files changed under tenant b's checkpoints"
    );

    assert_eq!(kappa_of(&mut c, "a"), batch(200));
    assert_eq!(kappa_of(&mut c, "b"), batch(250));
    drop(c);
    d.kill();
    let d = Daemon::spawn(cfg, "127.0.0.1:0").expect("respawn");
    let mut c = Client::connect(d.addr()).expect("reconnect");
    assert_eq!(kappa_of(&mut c, "a"), batch(200));
    assert_eq!(kappa_of(&mut c, "b"), batch(250));
    drop(c);
    d.kill();
    let _ = fs::remove_dir_all(&dir);
}
