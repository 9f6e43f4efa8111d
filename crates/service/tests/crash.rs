//! Crash anywhere: whatever byte of its durable state a dying daemon
//! reached, the next one reports only whole, marker-covered records,
//! a client that resends from that report converges, and everything
//! then served — finals, matrix cells, the whole trail — is
//! bit-identical to a daemon that never stopped. A `ck` in a layout this
//! build does not write is refused by name. A checkpoint touches only
//! the tenants that changed. A failed append or an unreadable `ck` costs
//! nothing that was acknowledged, and a power cut serves no κ that batch
//! analysis of the surviving records does not give.
//!
//! Every case runs on a `ScriptDisk` image: the daemon that dies writes
//! to one, and each case recovers from a clone of it, killed before or
//! inside one call, cut by power, or edited through the `Disk` calls.
//! `tests/disk.rs` holds `ScriptDisk` to the bytes `RealDisk` writes.

mod common;

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use choir_core::metrics::stream::{read_section, write_section};
use choir_core::metrics::{Observation, PairAnalyzer, Trial};
use choir_service::disk::{Disk, Fault, Op, ScriptDisk};
use choir_service::{
    Client, Daemon, DaemonConfig, DaemonError, DaemonHandle, Response, StoreError, WireKappa,
    OBS_BYTES,
};
use common::{kappa_bits, served_bits, synth};

const T: &str = "acme";
const STREAMS: [&str; 3] = ["base", "r1", "r2"];

/// One `Ingest`: records `lo..hi` of a stream.
type Chunk = (usize, usize, usize);

fn config() -> DaemonConfig {
    let mut cfg = DaemonConfig::new("d");
    // Two of three trials fit: replay and catch-up reload evicted logs.
    cfg.default_budget_bytes = 2 * 150 * OBS_BYTES;
    // Checkpoints only where the test asks for one.
    cfg.checkpoint_every_records = 0;
    cfg.snapshot_every = 16;
    cfg
}

fn in_tenant(tenant: &str, file: &str) -> PathBuf {
    Path::new("d/tenants").join(tenant).join(file)
}

fn spawn(disk: &Arc<ScriptDisk>, cfg: DaemonConfig) -> Result<DaemonHandle, DaemonError> {
    Daemon::spawn_on(disk.clone(), cfg, "127.0.0.1:0")
}

/// Interleaved chunks of uneven size over the three streams.
fn schedule(data: &[Vec<Observation>]) -> Vec<Chunk> {
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
fn play(c: &mut Client, data: &[Vec<Observation>], ops: &[Chunk]) {
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

/// Finish every stream, then what the tenant serves. Each comparison
/// stream's final is its `(base, stream)` matrix cell, bit for bit.
fn finish_and_collect(c: &mut Client) -> Vec<u64> {
    let finals = STREAMS.map(|s| c.finish_stream(T, s).expect("finish"));
    let Response::Matrix { labels, cells } = c.matrix(T).expect("matrix") else {
        panic!("matrix variant");
    };
    assert_eq!(labels, STREAMS);
    for (j, fin) in finals.iter().enumerate().skip(1) {
        let fin = fin.as_ref().expect("a comparison stream's final");
        let cell = (cells.iter())
            .find(|cell| (cell.i, cell.j) == (0, j as u64))
            .expect("the cell");
        assert_eq!(
            (kappa_bits(&fin.score), fin.common, fin.missing, fin.extra),
            (
                kappa_bits(&cell.score),
                cell.common,
                cell.missing,
                cell.extra
            ),
            "the final of `{}` is its matrix cell",
            STREAMS[j]
        );
    }
    served_bits(c, T, &STREAMS[1..])
}

/// The first call from `from` on that makes `op` on `path`.
fn call_of(disk: &ScriptDisk, from: usize, op: Op, path: &Path) -> (usize, usize) {
    let calls = disk.calls();
    let at = (from..calls.len())
        .find(|&i| calls[i].op == op && calls[i].path == path)
        .unwrap_or_else(|| panic!("no {op:?} on {}", path.display()));
    (at, calls[at].bytes)
}

/// Replace a file's bytes on an image by `edit` of them.
fn edit(img: &ScriptDisk, path: &Path, edit: impl FnOnce(Vec<u8>) -> Vec<u8>) {
    let raw = img.read(path).expect("read");
    img.write_file(path, &edit(raw)).expect("write");
}

/// A daemon killed right after op `k`, on the disk it wrote, with the
/// calls of op `k`'s log append and marker.
struct Killed {
    disk: Arc<ScriptDisk>,
    data: Vec<Vec<Observation>>,
    ops: Vec<Chunk>,
    k: usize,
    /// Index and length of op `k`'s log append, then of its marker.
    log: (usize, usize),
    marker: (usize, usize),
    /// What an uninterrupted daemon serves after the whole schedule.
    reference: Vec<u64>,
}

fn streams() -> Vec<Vec<Observation>> {
    (0..3).map(|s| synth(3, s, 150)).collect()
}

fn killed_after_op(k: usize) -> Killed {
    let data = streams();
    let ops = schedule(&data);
    assert!(k < ops.len());

    let straight = Arc::new(ScriptDisk::new());
    let d = spawn(&straight, config()).expect("spawn");
    let mut c = Client::connect(d.addr()).expect("connect");
    open_tenant(&mut c);
    play(&mut c, &data, &ops);
    let reference = finish_and_collect(&mut c);
    drop(c);
    d.kill();

    let disk = Arc::new(ScriptDisk::new());
    let d = spawn(&disk, config()).expect("spawn");
    let mut c = Client::connect(d.addr()).expect("connect");
    open_tenant(&mut c);
    // A checkpoint a third of the way in, so recovery is a checkpoint
    // with live engines plus a journal tail of markers.
    play(&mut c, &data, &ops[..k / 3]);
    c.checkpoint().expect("checkpoint");
    play(&mut c, &data, &ops[k / 3..k]);
    let mark = disk.calls().len();
    play(&mut c, &data, &ops[k..=k]);
    drop(c);
    d.kill();
    let log_path = in_tenant(T, &format!("{}.log", STREAMS[ops[k].0]));
    let log = call_of(&disk, mark, Op::WriteAt, &log_path);
    let marker = call_of(&disk, log.0, Op::WriteAt, &in_tenant(T, "journal"));
    assert_eq!(log.1 as u64, (ops[k].2 - ops[k].1) as u64 * OBS_BYTES);
    assert!(marker.1 > 0, "op {k} left a marker");
    Killed {
        disk,
        data,
        ops,
        k,
        log,
        marker,
        reference,
    }
}

impl Killed {
    /// Respawn on `img`; require op `k`'s stream to report `have`
    /// records and every other stream what it was sent; resend; require
    /// the reference.
    fn recovers(&self, what: &str, have: usize, img: ScriptDisk) {
        let d = spawn(&Arc::new(img), config())
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
    }

    /// Spawn on the killed disk after `damage` has been done to a clone
    /// of it; the error the daemon refused with.
    fn refuses(&self, what: &str, damage: impl Fn(&ScriptDisk)) -> DaemonError {
        let img = self.disk.kill();
        damage(&img);
        match spawn(&Arc::new(img), config()) {
            Ok(d) => {
                d.kill();
                panic!("{what}: a daemon came up on damaged state");
            }
            Err(e) => e,
        }
    }
}

/// The JSON head of the `ck` in `raw`.
fn head_of(raw: &[u8]) -> String {
    String::from_utf8(read_section(&mut &raw[..], "tenant").expect("head")).expect("JSON")
}

/// Rewrite the JSON head of the `ck` at `path` through `edit`, with a
/// checksum that matches, leaving whatever follows it alone.
fn edit_head(img: &ScriptDisk, path: &Path, edit_json: impl Fn(&str) -> String) {
    edit(img, path, |raw| {
        let mut r = &raw[..];
        let head = String::from_utf8(read_section(&mut r, "tenant").expect("head")).expect("JSON");
        let edited = edit_json(&head);
        assert_ne!(edited, head, "the edit changes the head");
        let mut out = Vec::new();
        write_section(&mut out, edited.as_bytes()).expect("write");
        out.extend_from_slice(r);
        out
    });
}

/// The schedule's last op that feeds an engine several records.
fn last_engine_op() -> Killed {
    let k = schedule(&streams())
        .iter()
        .rposition(|op| op.0 > 0 && op.2 - op.1 >= 5)
        .expect("an op on a comparison stream");
    killed_after_op(k)
}

#[test]
fn a_crash_at_any_byte_of_the_last_log_append_converges() {
    let f = last_engine_op();
    let (_, lo, hi) = f.ops[f.k];

    // Died inside the log append (or right after it): no marker yet.
    for at in 0..=f.log.1 {
        f.recovers(&format!("log cut at {at}"), lo, f.disk.kill_at(f.log.0, at));
    }
    // Died after both appends: the op counts, acknowledged or not.
    f.recovers("nothing cut", hi, f.disk.kill());
}

#[test]
fn a_crash_at_any_byte_of_the_last_marker_converges() {
    let f = last_engine_op();
    let lo = f.ops[f.k].1;

    // Died inside the marker append: the log is whole, the line is not.
    for at in 0..f.marker.1 {
        let img = f.disk.kill_at(f.marker.0, at);
        f.recovers(&format!("marker cut at {at}"), lo, img);
    }
}

#[test]
fn an_interrupted_checkpoint_leaves_nothing_behind() {
    let f = killed_after_op(20);
    let hi = f.ops[f.k].2;

    // A daemon recovers, then checkpoints: write `ck.tmp`, rename it over
    // `ck`, empty the journal.
    let disk = Arc::new(f.disk.kill());
    let d = spawn(&disk, config()).expect("respawn");
    let mut c = Client::connect(d.addr()).expect("connect");
    let mark = disk.calls().len();
    c.checkpoint().expect("checkpoint");
    drop(c);
    d.kill();
    let tmp = call_of(&disk, mark, Op::WriteFile, &in_tenant(T, "ck.tmp"));
    let emptied = call_of(&disk, tmp.0, Op::WriteFile, &in_tenant(T, "journal"));
    assert_eq!(disk.read(&in_tenant(T, "journal")).expect("journal"), b"");

    // Died writing the temp file: a short `ck.tmp` beside the old `ck`.
    for keep in [0, 1, 2] {
        let img = disk.kill_at(tmp.0, tmp.1 * keep / 2);
        f.recovers(&format!("ck.tmp at {keep}/2"), hi, img);
    }
    // Died between the rename and emptying the journal: a new `ck` beside
    // the lines it already covers. Each must be applied exactly once.
    f.recovers("stale journal", hi, disk.kill_before(emptied.0));
    f.recovers("checkpointed", hi, disk.kill());
}

#[test]
fn damaged_durable_state_is_refused_with_a_typed_error() {
    let f = killed_after_op(20);
    let (s, ..) = f.ops[f.k];

    // A marker whose records are gone: acknowledged data was lost, and
    // no crash of the process can do that.
    let log = in_tenant(T, &format!("{}.log", STREAMS[s]));
    let err = f.refuses("short log", |img| {
        edit(img, &log, |mut raw| {
            raw.pop();
            raw
        })
    });
    assert!(matches!(err, DaemonError::Store(_)), "{err}");

    // Any one bit of the checkpoint.
    let ck = in_tenant(T, "ck");
    let raw_ck = f.disk.kill().read(&ck).expect("read ck");
    let bits = raw_ck.len() as u64 * 8;
    let mut seed = 0xC0FFEE;
    for _ in 0..64 {
        let bit = common::lcg(&mut seed) % bits;
        let err = f.refuses(&format!("ck bit {bit}"), |img| {
            edit(img, &ck, |mut raw| {
                raw[(bit / 8) as usize] ^= 1 << (bit % 8);
                raw
            })
        });
        assert!(matches!(err, DaemonError::Recovery(_)), "bit {bit}: {err}");
    }

    // A live engine's cursor that claims more than the logs hold: more
    // baseline records than the baseline has, or other than its own
    // stream's count. Trusted, later records would be pushed at the
    // wrong positions; sliced, the engine would be built from records it
    // never consumed.
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
    let (_, seen_b) = len_of(&head_of(&raw_ck), "side_b");
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
        let err = f.refuses(side, |img| edit_head(img, &ck, |h| with_len(h, side, to)));
        let msg = err.to_string();
        assert!(
            matches!(err, DaemonError::Recovery(_))
                && msg.contains(&format!("tenant `{T}`: engine `r1`: {said}")),
            "{msg}"
        );
    }

    // A journal that skips a line.
    let journal = in_tenant(T, "journal");
    let err = f.refuses("journal gap", |img| {
        edit(img, &journal, |raw| {
            let at = raw.iter().position(|&b| b == b'\n').expect("a line");
            raw[at + 1..].to_vec()
        })
    });
    assert!(matches!(err, DaemonError::Recovery(_)), "{err}");

    // A whole line that is not an entry: no crash writes one, since a
    // crash tears only the last append, which then has no newline. Cut
    // there, the acknowledged entries after it would be lost.
    let lines = String::from_utf8(f.disk.kill().read(&journal).expect("journal")).expect("text");
    let first = lines.lines().next().expect("a journal line");
    let n = &first["{\"n\":".len()..first.find(',').expect("more fields")];
    let err = f.refuses("garbled journal line", |img| {
        let (one, rest) = lines.split_once('\n').expect("two lines");
        let rest = rest.replacen("\"op\"", "\"oq\"", 1);
        img.write_file(&journal, format!("{one}\n{rest}").as_bytes())
            .expect("write journal");
    });
    let said = err.to_string();
    assert!(
        matches!(err, DaemonError::Recovery(_))
            && said.contains("journal")
            && said.contains(&format!("line 2 (after entry {n})")),
        "{said}"
    );

    // The layout this one replaced is not migrated.
    let err = f.refuses("old layout", |img| {
        img.write_file(Path::new("d/state.json"), b"{}")
            .expect("write")
    });
    assert!(matches!(err, DaemonError::Recovery(_)), "{err}");
}

#[test]
fn a_ck_names_its_layout_and_another_is_refused_by_name() {
    let f = killed_after_op(20);
    let hi = f.ops[f.k].2;
    let ck = in_tenant(T, "ck");
    let head = head_of(&f.disk.kill().read(&ck).expect("read ck"));
    assert!(head.starts_with("{\"layout\":0,"), "{head}");

    // Written before the layout was named: the same layout, read as 0.
    let img = f.disk.kill();
    edit_head(&img, &ck, |h| h.replacen("\"layout\":0,", "", 1));
    f.recovers("unnamed layout", hi, img);

    // Engine slabs after the head: a `ck` from before cursors.
    let err = f.refuses("slabs after the head", |img| {
        edit(img, &ck, |mut raw| {
            write_section(&mut raw, &[0; 32]).expect("append a section");
            raw
        })
    });
    let said = err.to_string();
    assert!(
        matches!(err, DaemonError::Recovery(_))
            && said.contains(&format!("tenant `{T}`"))
            && said.contains("/ck`")
            && said.contains("before cursors"),
        "{said}"
    );

    // A layout this build does not write.
    let err = f.refuses("layout 1", |img| {
        edit_head(img, &ck, |h| h.replacen("\"layout\":0", "\"layout\":1", 1))
    });
    let said = err.to_string();
    assert!(
        matches!(err, DaemonError::Recovery(_))
            && said.contains(&format!("tenant `{T}`"))
            && said.contains("/ck`: layout 1;"),
        "{said}"
    );
}

fn kappa_of(c: &mut Client, tenant: &str) -> u64 {
    let Response::Snapshot { running, .. } = c.snapshot(tenant, "r1").expect("snapshot") else {
        panic!("snapshot variant");
    };
    running.kappa_bits
}

fn batch_kappa(base: &[Observation], run: &[Observation]) -> u64 {
    (PairAnalyzer::new(
        &Trial::from_observations(base),
        &Trial::from_observations(run),
    ))
    .analyze()
    .metrics
    .kappa
    .to_bits()
}

#[test]
fn a_checkpoint_leaves_clean_tenants_alone() {
    let mut cfg = DaemonConfig::new("d");
    cfg.checkpoint_every_records = 64;
    cfg.snapshot_every = 16;
    let data: Vec<Vec<Observation>> = (0..2).map(|s| synth(5, s, 300)).collect();
    let batch = |n: usize| batch_kappa(&data[0][..n], &data[1][..n]);

    let disk = Arc::new(ScriptDisk::new());
    let d = spawn(&disk, cfg.clone()).expect("spawn");
    let mut c = Client::connect(d.addr()).expect("connect");
    for tenant in ["a", "b"] {
        c.create_tenant(tenant, 0).expect("create");
        c.open_stream(tenant, "base").expect("open");
        c.open_stream(tenant, "r1").expect("open");
    }
    c.ingest("a", "base", 0, &data[0][..200]).expect("ingest");
    c.ingest("a", "r1", 0, &data[1][..200]).expect("ingest");
    c.checkpoint().expect("checkpoint");
    let mark = disk.calls().len();

    // Tenant b alone crosses the cadence several times over, and an
    // explicit checkpoint follows.
    for lo in (0..250).step_by(50) {
        c.ingest("b", "base", lo as u64, &data[0][lo..lo + 50])
            .expect("ingest");
        c.ingest("b", "r1", lo as u64, &data[1][lo..lo + 50])
            .expect("ingest");
    }
    c.checkpoint().expect("checkpoint");
    let calls = disk.calls();
    let under = |t: &str| {
        let dir = Path::new("d/tenants").join(t);
        (calls[mark..].iter())
            .filter(|c| c.paths().any(|p| p.starts_with(&dir)))
            .count()
    };
    assert!(under("b") > 0, "tenant b was written");
    assert_eq!(
        under("a"),
        0,
        "tenant b's checkpoints named tenant a's files"
    );

    assert_eq!(kappa_of(&mut c, "a"), batch(200));
    assert_eq!(kappa_of(&mut c, "b"), batch(250));
    drop(c);
    d.kill();
    let d = spawn(&Arc::new(disk.kill()), cfg).expect("respawn");
    let mut c = Client::connect(d.addr()).expect("reconnect");
    assert_eq!(kappa_of(&mut c, "a"), batch(200));
    assert_eq!(kappa_of(&mut c, "b"), batch(250));
    drop(c);
    d.kill();
}

/// Create, open, ingest on `disk`; the client and the daemon.
fn opened(disk: &Arc<ScriptDisk>, data: &[Vec<Observation>], n: usize) -> (DaemonHandle, Client) {
    let d = spawn(disk, config()).expect("spawn");
    let mut c = Client::connect(d.addr()).expect("connect");
    open_tenant(&mut c);
    for (s, stream) in STREAMS.iter().enumerate() {
        c.ingest(T, stream, 0, &data[s][..n]).expect("ingest");
    }
    (d, c)
}

#[test]
fn a_failed_journal_append_costs_nothing_acknowledged() {
    // The marker of an ingest is cut short by a full disk. Appended where
    // the journal's whole lines end, the next line overwrites the
    // fragment; appended at the file's end, it would be glued to it, and
    // recovery would refuse the glued line.
    let data = streams();
    let disk = Arc::new(ScriptDisk::new());
    let (d, mut c) = opened(&disk, &data, 40);
    c.ingest(T, "r2", 40, &data[2][40..45]).expect("ingest");
    for keep in [0, 9, 50] {
        disk.fail(Op::WriteAt, in_tenant(T, "journal"), Fault::Short(keep));
        let failed = c.ingest(T, "r1", 40, &data[1][40..60]);
        assert!(failed.is_err(), "short marker at {keep}: {failed:?}");
    }
    // The next op is accepted. Its line is shorter than the last
    // fragment, whose unterminated rest stays past it.
    c.finish_stream(T, "base")
        .expect("finish after a failed append");
    drop(c);
    d.kill();

    let recovered = spawn(&Arc::new(disk.kill()), config()).expect("recovers");
    let mut c = Client::connect(recovered.addr()).expect("connect");
    let got = served_bits(&mut c, T, &STREAMS[1..]);
    assert_eq!(c.stream_status(T, "r1").expect("status").0, 40);
    drop(c);
    recovered.kill();

    // A daemon that never received the failed op.
    let never = Arc::new(ScriptDisk::new());
    let (d, mut c) = opened(&never, &data, 40);
    c.ingest(T, "r2", 40, &data[2][40..45]).expect("ingest");
    c.finish_stream(T, "base").expect("finish");
    assert_eq!(got, served_bits(&mut c, T, &STREAMS[1..]));
    drop(c);
    d.kill();
}

#[test]
fn a_ck_that_cannot_be_stat_ed_stops_recovery_and_deletes_nothing() {
    let data = streams();
    let disk = Arc::new(ScriptDisk::new());
    let (d, c) = opened(&disk, &data, 40);
    drop(c);
    d.kill();
    // A stat error other than `NotFound` (a symlink loop, a permission)
    // on the `ck` that says a tenant exists, or on a log that a journal
    // marker makes recovery adopt.
    for (file, kind) in [
        ("ck", io::ErrorKind::PermissionDenied),
        ("base.log", io::ErrorKind::PermissionDenied),
    ] {
        let img = Arc::new(disk.kill());
        let before = img.files();
        img.fail(Op::Len, in_tenant(T, file), Fault::Fail(kind));
        let err = match spawn(&img, config()) {
            Ok(d) => {
                d.kill();
                panic!("{file}: a daemon came up past a stat error");
            }
            Err(e) => e,
        };
        let io_err = match &err {
            DaemonError::Io(e) => Some(e.kind()),
            DaemonError::Store(choir_service::StoreError::Io(e)) => Some(e.kind()),
            _ => None,
        };
        assert_eq!(io_err, Some(kind), "{file}: {err}");
        assert!(img.files() == before, "{file}: recovery changed the disk");
    }
}

/// Everything the tenant serves, each κ checked against batch analysis
/// of `data`'s prefixes: the live snapshot and every trail point of each
/// comparison stream over the prefixes they report, and every matrix
/// cell over the streams' whole counts. The number of κ checked; `None`
/// if a stream, or the tenant, was lost.
fn served_kappas_are_batch(c: &mut Client, data: &[Vec<Observation>], what: &str) -> Option<usize> {
    // Stream `a`'s first `n` records against stream `b`'s first `m`.
    let batch = |(a, n): (usize, u64), (b, m): (usize, u64)| {
        let trial = |s: usize, k: u64| Trial::from_observations(&data[s][..k as usize]);
        let metrics = PairAnalyzer::new(&trial(a, n), &trial(b, m))
            .analyze()
            .metrics;
        kappa_bits(&WireKappa::from(&metrics))
    };
    let counts = (STREAMS.iter())
        .map(|s| c.stream_status(T, s).ok().map(|st| st.0))
        .collect::<Option<Vec<u64>>>()?;
    let mut checked = 0;
    for (s, stream) in STREAMS.iter().enumerate().skip(1) {
        let Ok(Response::Snapshot {
            seen_a,
            seen_b,
            running,
            ..
        }) = c.snapshot(T, stream)
        else {
            panic!("{what}: no snapshot of {stream}");
        };
        assert_eq!(seen_b, counts[s], "{what}: {stream}");
        assert_eq!(seen_a, counts[0], "{what}: {stream}");
        let Ok(Response::Trail { points }) = c.trail(T, stream) else {
            panic!("{what}: no trail of {stream}");
        };
        let trail = points.iter().map(|p| (p.seen_a, p.seen_b, &p.running));
        for (a, b, k) in trail.chain([(seen_a, seen_b, &running)]) {
            let want = batch((0, a), (s, b));
            assert_eq!(kappa_bits(k), want, "{what}: {stream} at {a}/{b}");
            checked += 1;
        }
    }
    // A tenant whose store tracks fewer than two streams is refused a
    // matrix: no κ served.
    let Ok(Response::Matrix { labels, cells }) = c.matrix(T) else {
        return Some(checked);
    };
    let of = |i: u64| (STREAMS.iter().position(|s| *s == labels[i as usize])).expect("a stream");
    for cell in &cells {
        let (a, b) = (of(cell.i), of(cell.j));
        let want = batch((a, counts[a]), (b, counts[b]));
        assert_eq!(kappa_bits(&cell.score), want, "{what}: cell {a},{b}");
        checked += 1;
    }
    Some(checked)
}

/// Today's power-cut contract. Nothing is synced, so a power cut can
/// lose acknowledged records, whole tenants included. What it may not do
/// is make recovery panic or serve a κ that batch analysis of the
/// records that survived does not give: recovery succeeds or refuses
/// with a typed `DaemonError`, and every κ then served — snapshot, trail
/// and matrix — is `bits()`-equal to batch analysis of the prefixes the
/// daemon reports. The images are seeded `ScriptDisk::power_cut`s taken
/// after each op of the crash schedule, with everything before that op
/// written back (the kernel's writeback) or only the tenant's creation.
/// ROADMAP 2(d)'s `fsync` barrier tightens this to "no acknowledged
/// record is lost".
#[test]
fn a_power_cut_after_any_op_recovers_or_refuses_and_serves_only_batch_kappa() {
    const SEEDS: u64 = 3;
    let data = streams();
    let ops = schedule(&data);
    let start = |disk: &Arc<ScriptDisk>| {
        let d = spawn(disk, config()).expect("spawn");
        let mut c = Client::connect(d.addr()).expect("connect");
        open_tenant(&mut c);
        disk.write_back();
        (d, c)
    };
    let (early, recent) = (Arc::new(ScriptDisk::new()), Arc::new(ScriptDisk::new()));
    let (d_early, mut c_early) = start(&early);
    let (d_recent, mut c_recent) = start(&recent);
    let (mut recovered, mut lost, mut kappas) = (0, 0, 0);
    // Refusals by reason, in the order printed.
    let mut refused = [
        ("a marker or `ck` count past its log", 0),
        ("a journal gap", 0),
        ("an unreadable `ck`", 0),
        ("other", 0),
    ];
    for (k, op) in ops.iter().enumerate() {
        recent.write_back();
        for c in [&mut c_early, &mut c_recent] {
            play(c, &data, std::slice::from_ref(op));
            if k == ops.len() / 2 {
                c.checkpoint().expect("checkpoint");
            }
        }
        for (disk, seed) in [&early, &recent]
            .into_iter()
            .flat_map(|d| (0..SEEDS).map(move |s| (d, s)))
        {
            let what = format!("power cut after op {k}, seed {seed}");
            let img = Arc::new(disk.power_cut(seed ^ ((k as u64) << 8)));
            let d = match spawn(&img, config()) {
                Ok(d) => d,
                Err(e) => {
                    let said = e.to_string();
                    let reason = match e {
                        DaemonError::Store(StoreError::Corrupt { .. }) => 0,
                        _ if said.contains(": follows entry ") => 1,
                        _ if said.contains("`: checkpoint: ") => 2,
                        _ => 3,
                    };
                    refused[reason].1 += 1;
                    continue;
                }
            };
            let mut c = Client::connect(d.addr()).expect("connect");
            match served_kappas_are_batch(&mut c, &data, &what) {
                Some(n) => (recovered, kappas) = (recovered + 1, kappas + n),
                None => lost += 1,
            }
            drop(c);
            d.kill();
        }
    }
    let tally = refused.map(|(why, n)| format!("{n} {why}")).join(", ");
    let refused: usize = refused.iter().map(|r| r.1).sum();
    println!(
        "{} power-cut images: {recovered} recovered ({kappas} κ checked against batch), \
         {refused} refused ({tally}), {lost} with a stream or the tenant lost",
        recovered + refused + lost
    );
    assert!(recovered > 0 && kappas > 0, "no image served a κ");
    drop((c_early, c_recent));
    d_early.kill();
    d_recent.kill();
}

/// A tenant `base` with 50 records and `r1` opened after them, on a
/// fresh disk: the daemon and its client.
fn base_then_r1(disk: &Arc<ScriptDisk>, data: &[Vec<Observation>]) -> (DaemonHandle, Client) {
    let d = spawn(disk, config()).expect("spawn");
    let mut c = Client::connect(d.addr()).expect("connect");
    c.create_tenant(T, 0).expect("create");
    c.open_stream(T, "base").expect("open");
    c.ingest(T, "base", 0, &data[0][..50]).expect("ingest");
    c.open_stream(T, "r1").expect("open");
    (d, c)
}

#[test]
fn a_replayed_op_whose_read_fails_stops_recovery_naming_it() {
    // Journal: 1 open base, 2 its marker, checkpoint, 3 open r1, 4 and 5
    // its markers. Replaying entry 4 reads its records from `r1.log`
    // before it is applied, and that read fails: skipped, entry 5 alone
    // would feed the engine, and r1 would serve κ over 20 of its 50
    // records.
    let data = streams();
    let disk = Arc::new(ScriptDisk::new());
    let (d, mut c) = base_then_r1(&disk, &data);
    c.checkpoint().expect("checkpoint");
    c.ingest(T, "r1", 0, &data[1][..30]).expect("ingest");
    c.ingest(T, "r1", 30, &data[1][30..50]).expect("ingest");
    let live = kappa_of(&mut c, T);
    drop(c);
    d.kill();

    let img = Arc::new(disk.kill());
    let log = in_tenant(T, "r1.log");
    img.fail(Op::ReadAt, &log, Fault::Fail(io::ErrorKind::Other));
    let err = match spawn(&img, config()) {
        Ok(d) => {
            d.kill();
            panic!("a daemon came up past an op it could not read");
        }
        Err(e) => e,
    };
    let said = err.to_string();
    assert!(
        matches!(err, DaemonError::Recovery(_))
            && said.contains("entry 4")
            && said.contains("`r1.log`"),
        "{said}"
    );

    // The same image without the fault recovers to what was served live.
    let d = spawn(&Arc::new(disk.kill()), config()).expect("recovers");
    let mut c = Client::connect(d.addr()).expect("connect");
    let Response::Snapshot { seen_b, .. } = c.snapshot(T, "r1").expect("snapshot") else {
        panic!("snapshot variant");
    };
    assert_eq!((seen_b, kappa_of(&mut c, T)), (50, live));
    assert_eq!(live, batch_kappa(&data[0][..50], &data[1][..50]));
    drop(c);
    d.kill();
}

#[test]
fn the_matrix_served_live_is_served_after_a_restart() {
    // `r1` is open and empty. The matrix labels are the tenant's streams,
    // so the live daemon and the recovered one serve the same matrix,
    // over both streams.
    let data = streams();
    let disk = Arc::new(ScriptDisk::new());
    let (d, mut c) = base_then_r1(&disk, &data);
    let labels = |c: &mut Client| match c.matrix(T).expect("matrix") {
        Response::Matrix { labels, .. } => labels,
        other => panic!("{other:?}"),
    };
    assert_eq!(labels(&mut c), ["base", "r1"]);
    let live = served_bits(&mut c, T, &["r1"]);
    let journal_only = disk.kill();
    c.checkpoint().expect("checkpoint");
    drop(c);
    d.kill();

    for (what, img) in [
        ("checkpointed", disk.kill()),
        ("journal only", journal_only),
    ] {
        let d = spawn(&Arc::new(img), config()).expect("recovers");
        let mut c = Client::connect(d.addr()).expect("connect");
        assert_eq!(labels(&mut c), ["base", "r1"], "{what}");
        assert_eq!(served_bits(&mut c, T, &["r1"]), live, "{what}");
        drop(c);
        d.kill();
    }
}

#[test]
fn refusals_an_earlier_build_journaled_replay_as_nothing() {
    // A build that checked ops only after journaling them wrote a line
    // for each refusal. Recovery skips them and numbers on after them.
    let data = streams();
    let refused = [
        r#"{"OpenStream":{"stream":"r1"}}"#,
        r#"{"Finish":{"stream":"nope"}}"#,
        r#"{"Finish":{"stream":"r1"}}"#,
    ];
    let (older, never) = (Arc::new(ScriptDisk::new()), Arc::new(ScriptDisk::new()));
    for disk in [&older, &never] {
        let (d, c) = opened(disk, &data, 40);
        drop(c);
        d.kill();
    }
    let journal = in_tenant(T, "journal");
    let img = Arc::new(older.kill());
    edit(&img, &journal, |mut raw| {
        let n = raw.iter().filter(|&&b| b == b'\n').count();
        for (k, op) in refused.iter().enumerate() {
            raw.extend(format!("{{\"n\":{},\"op\":{op}}}\n", n + 1 + k).bytes());
        }
        raw
    });
    let mut served = Vec::new();
    for disk in [img, Arc::new(never.kill())] {
        let d = spawn(&disk, config()).expect("recovers");
        let mut c = Client::connect(d.addr()).expect("connect");
        let mut bits = served_bits(&mut c, T, &STREAMS[1..]);
        // The next entry follows the skipped ones, and replays.
        c.ingest(T, "r1", 40, &data[1][40..60]).expect("ingest");
        drop(c);
        d.kill();
        let d = spawn(&Arc::new(disk.kill()), config()).expect("recovers again");
        let mut c = Client::connect(d.addr()).expect("connect");
        bits.extend(finish_and_collect(&mut c));
        served.push(bits);
        drop(c);
        d.kill();
    }
    assert_eq!(served[0], served[1]);
}

/// The byte range of the value of `key` in the `ck` head's stream
/// `stream`: `null`, or an object (no string in a head holds a brace).
fn value_in(head: &str, stream: &str, key: &str) -> std::ops::Range<usize> {
    let at = head
        .find(&format!("{{\"name\":\"{stream}\""))
        .expect("the stream");
    let at = at + head[at..].find(&format!("\"{key}\":")).expect("the key") + key.len() + 3;
    if head[at..].starts_with("null") {
        return at..at + 4;
    }
    let mut depth = 0;
    for (i, b) in head[at..].bytes().enumerate() {
        depth += (b == b'{') as i32 - (b == b'}') as i32;
        if depth == 0 {
            return at..at + i + 1;
        }
    }
    panic!("an unclosed object");
}

#[test]
fn a_ck_with_streams_no_build_writes_is_refused_by_name() {
    // `base` and `r1` finished, `r2` live: the three states a stream is
    // in, then three combinations of them no build writes.
    let data = streams();
    let disk = Arc::new(ScriptDisk::new());
    let (d, mut c) = opened(&disk, &data, 40);
    c.finish_stream(T, "base").expect("finish");
    c.finish_stream(T, "r1").expect("finish");
    c.create_tenant("empty", 0).expect("create");
    c.checkpoint().expect("checkpoint");
    drop(c);
    d.kill();
    let ck = in_tenant(T, "ck");
    let head = head_of(&disk.kill().read(&ck).expect("read ck"));
    let empty = in_tenant("empty", "ck");
    let empty_head = head_of(&disk.kill().read(&empty).expect("read ck"));
    let replaced = |stream: &str, key: &str, by: &str| {
        let at = value_in(&head, stream, key);
        format!("{}{by}{}", &head[..at.start], &head[at.end..])
    };
    let r2_engine = &head[value_in(&head, "r2", "engine")];
    for (what, ck, edited, said) in [
        (
            "engine and summary",
            &ck,
            replaced("r1", "engine", r2_engine),
            format!("{T}`: stream `r1`: engine true, summary true"),
        ),
        (
            "a second baseline",
            &ck,
            replaced("r2", "engine", "null"),
            format!("{T}`: stream `r2`: engine false, summary false"),
        ),
        (
            "a baseline that names a comparison",
            &ck,
            head.replacen("\"baseline\":\"base\"", "\"baseline\":\"r2\"", 1),
            format!("{T}`: stream `base`: engine false, summary false"),
        ),
        (
            "a baseline without a stream",
            &empty,
            empty_head.replacen("\"baseline\":null", "\"baseline\":\"x\"", 1),
            "empty`: checkpoint: `baseline` is Some(\"x\") over 0 stream(s)".to_string(),
        ),
    ] {
        let img = disk.kill();
        edit_head(&img, ck, |_| edited.clone());
        let err = match spawn(&Arc::new(img), config()) {
            Ok(d) => {
                d.kill();
                panic!("{what}: a daemon came up on it");
            }
            Err(e) => e,
        };
        let msg = err.to_string();
        assert!(
            matches!(err, DaemonError::Recovery(_))
                && msg.contains(&format!("tenant `{said}"))
                && msg.contains("no build writes this"),
            "{what}: {msg}"
        );
    }
}
