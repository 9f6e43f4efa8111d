//! Crash anywhere: whatever byte of its durable state a dying daemon
//! reached, the next one reports only whole, marker-covered records,
//! a client that resends from that report converges, and everything
//! then served — finals, matrix cells, the whole trail — is
//! bit-identical to a daemon that never stopped. A `ck` in a layout this
//! build does not write is refused by name. And a checkpoint touches only
//! the tenants that changed.

mod common;

use std::fs;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

use choir_core::metrics::stream::{read_section, write_section};
use choir_core::metrics::{Observation, PairAnalyzer, Trial};
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

    /// Spawn on a copy of the directory after `damage` has been done to
    /// it; the error the daemon refused with.
    fn refuses(&self, what: &str, damage: impl Fn(&Path)) -> DaemonError {
        let work = tmp_dir(&format!(
            "work-{}",
            self.dir.file_name().expect("named").to_string_lossy()
        ));
        copy_dir(&self.dir, &work);
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

    // A whole line that is not an entry: no crash writes one, since a
    // crash tears only the last append, which then has no newline. Cut
    // there, the acknowledged entries after it would be lost.
    let journal = fs::read_to_string(f.dir.join(in_tenant("journal"))).expect("read journal");
    let first = journal.lines().next().expect("a journal line");
    let n = &first["{\"n\":".len()..first.find(',').expect("more fields")];
    let err = f.refuses("garbled journal line", |d| {
        let (one, rest) = journal.split_once('\n').expect("two lines");
        let rest = rest.replacen("\"op\"", "\"oq\"", 1);
        fs::write(d.join(in_tenant("journal")), format!("{one}\n{rest}")).expect("write journal");
    });
    let said = err.to_string();
    assert!(
        matches!(err, DaemonError::Recovery(_))
            && said.contains("journal")
            && said.contains(&format!("line 2 (after entry {n})")),
        "{said}"
    );

    // The layout this one replaced is not migrated.
    let err = f.refuses("old layout", |d| {
        fs::write(d.join("state.json"), "{}").expect("write")
    });
    assert!(matches!(err, DaemonError::Recovery(_)), "{err}");
    let _ = fs::remove_dir_all(&f.dir);
}

#[test]
fn a_ck_names_its_layout_and_another_is_refused_by_name() {
    let f = killed_after_op("layout", 20);
    let hi = f.ops[f.k].2;
    let ck = Path::new("tenants").join(T).join("ck");
    let head = {
        let raw = fs::read(f.dir.join(&ck)).expect("read ck");
        String::from_utf8(read_section(&mut &raw[..], "tenant").expect("head")).expect("JSON")
    };
    assert!(head.starts_with("{\"layout\":0,"), "{head}");

    // Written before the layout was named: the same layout, read as 0.
    f.recovers("unnamed layout", hi, |t| {
        edit_head(&t.join("ck"), |h| h.replacen("\"layout\":0,", "", 1))
    });

    // Engine slabs after the head: a `ck` from before cursors.
    let err = f.refuses("slabs after the head", |d| {
        let mut raw = fs::read(d.join(&ck)).expect("read ck");
        write_section(&mut raw, &[0; 32]).expect("append a section");
        fs::write(d.join(&ck), raw).expect("write ck");
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
    let err = f.refuses("layout 1", |d| {
        edit_head(&d.join(&ck), |h| h.replacen("\"layout\":0", "\"layout\":1", 1))
    });
    let said = err.to_string();
    assert!(
        matches!(err, DaemonError::Recovery(_))
            && said.contains(&format!("tenant `{T}`"))
            && said.contains("/ck`: layout 1;"),
        "{said}"
    );
    let _ = fs::remove_dir_all(&f.dir);
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
