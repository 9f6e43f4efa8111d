//! End-to-end daemon test: 3 tenants × 4 streams over real sockets,
//! hard-killed and restarted mid-ingest, with every served κ required
//! to be **bit-identical** (`f64::to_bits`) to a post-hoc batch
//! analysis of the same records — the service's load-bearing contract.

mod common;

use choir_core::metrics::{all_pairs_sharded, Observation, PairAnalyzer, Trial};
use choir_service::{Client, Daemon, DaemonConfig, Response};
use common::tmp_dir;

const TENANTS: usize = 3;
const STREAMS: [&str; 4] = ["base", "r1", "r2", "r3"];

fn synth(tenant: u64, stream: u64) -> Vec<Observation> {
    common::synth(tenant, stream, 600)
}

fn tenant_name(t: usize) -> String {
    format!("tenant-{t}")
}

#[test]
fn kill_restart_mid_ingest_serves_bit_identical_kappa() {
    let dir = tmp_dir("killrestart");
    let mut cfg = DaemonConfig::new(&dir);
    // Small budget (each 600-record trial is ~14.4 KB, four per tenant)
    // so evictions happen, and a short checkpoint cadence so the kill
    // lands between a checkpoint and journal tail.
    cfg.default_budget_bytes = 16_000;
    cfg.checkpoint_every_records = 700;
    cfg.snapshot_every = 128;

    let data: Vec<Vec<Vec<Observation>>> = (0..TENANTS)
        .map(|t| {
            (0..STREAMS.len())
                .map(|s| synth(t as u64, s as u64))
                .collect()
        })
        .collect();

    // ---- phase 1: ingest a bit over half of everything, interleaved.
    let handle = Daemon::spawn(cfg.clone(), "127.0.0.1:0").expect("spawn");
    let addr = handle.addr();
    let mut c = Client::connect(addr).expect("connect");
    c.ping().expect("ping");
    for t in 0..TENANTS {
        c.create_tenant(&tenant_name(t), 0).expect("create tenant");
        for s in STREAMS {
            c.open_stream(&tenant_name(t), s).expect("open stream");
        }
    }

    let mut sent = vec![vec![0usize; STREAMS.len()]; TENANTS];
    let chunk = 83usize;
    let rounds_phase1 = 4; // 4 * 83 = 332 of ≤600 records per stream
    for _ in 0..rounds_phase1 {
        for t in 0..TENANTS {
            for (si, s) in STREAMS.iter().enumerate() {
                let all = &data[t][si];
                let lo = sent[t][si];
                let hi = (lo + chunk).min(all.len());
                if lo < hi {
                    let total = c
                        .ingest(&tenant_name(t), s, lo as u64, &all[lo..hi])
                        .expect("ingest");
                    assert_eq!(total, hi as u64);
                    sent[t][si] = hi;
                }
            }
        }
    }

    // Live snapshot of a mid-flight stream must already be bit-identical
    // to batch analysis of the prefix fed so far.
    {
        let (t, si) = (0, 1);
        let Response::Snapshot { running, .. } = c
            .snapshot(&tenant_name(t), STREAMS[si])
            .expect("live snapshot")
        else {
            panic!("snapshot variant");
        };
        let a = Trial::from_observations(&data[t][0][..sent[t][0]]);
        let b = Trial::from_observations(&data[t][si][..sent[t][si]]);
        let batch = PairAnalyzer::new(&a, &b).analyze();
        assert_eq!(
            running.kappa_bits,
            batch.metrics.kappa.to_bits(),
            "live κ must equal batch κ on the ingested prefix"
        );
    }

    // ---- hard kill: no checkpoint, no goodbye.
    drop(c);
    handle.kill();

    // ---- restart: recover from checkpoint + journal, finish ingest.
    let handle = Daemon::spawn(cfg.clone(), "127.0.0.1:0").expect("respawn");
    let mut c = Client::connect(handle.addr()).expect("reconnect");
    for (t, sent_t) in sent.iter().enumerate() {
        for (si, s) in STREAMS.iter().enumerate() {
            let (ingested, finished, baseline) =
                c.stream_status(&tenant_name(t), s).expect("status");
            assert_eq!(
                ingested as usize,
                sent_t[si],
                "recovery must restore {}/{s} exactly",
                tenant_name(t)
            );
            assert!(!finished);
            assert_eq!(baseline, si == 0);
        }
    }
    for t in 0..TENANTS {
        for (si, s) in STREAMS.iter().enumerate() {
            let all = &data[t][si];
            // Deliberately resend a 25-record overlap: the daemon must
            // deduplicate (idempotent client resume after reconnect).
            let lo = sent[t][si].saturating_sub(25);
            let total = c
                .ingest(&tenant_name(t), s, lo as u64, &all[lo..])
                .expect("resume ingest");
            assert_eq!(total, all.len() as u64);
        }
    }

    // ---- finish everything; collect served finals.
    let mut served = vec![vec![None; STREAMS.len()]; TENANTS];
    for (t, served_t) in served.iter_mut().enumerate() {
        assert!(c
            .finish_stream(&tenant_name(t), "base")
            .expect("finish baseline")
            .is_none());
        for (si, s) in STREAMS.iter().enumerate().skip(1) {
            let f = c
                .finish_stream(&tenant_name(t), s)
                .expect("finish stream")
                .expect("comparison summary");
            served_t[si] = Some(f);
        }
    }

    // ---- the gate: every served κ equals uninterrupted batch, bit for
    // bit, across the kill/restart and any store evictions.
    for t in 0..TENANTS {
        let a = Trial::from_observations(&data[t][0]);
        for (si, _) in STREAMS.iter().enumerate().skip(1) {
            let b = Trial::from_observations(&data[t][si]);
            let batch = PairAnalyzer::new(&a, &b).analyze();
            let f = served[t][si].as_ref().expect("served final");
            assert_eq!(f.score.kappa_bits, batch.metrics.kappa.to_bits());
            assert_eq!(f.score.u.to_bits(), batch.metrics.u.to_bits());
            assert_eq!(f.score.o.to_bits(), batch.metrics.o.to_bits());
            assert_eq!(f.score.l.to_bits(), batch.metrics.l.to_bits());
            assert_eq!(f.score.i.to_bits(), batch.metrics.i.to_bits());
            assert_eq!(f.a_len as usize, a.len());
            assert_eq!(f.b_len as usize, b.len());

            // A post-finish snapshot serves the stored summary.
            let Response::Snapshot { running, .. } = c
                .snapshot(&tenant_name(t), STREAMS[si])
                .expect("final snapshot")
            else {
                panic!("snapshot variant");
            };
            assert_eq!(running.kappa_bits, batch.metrics.kappa.to_bits());
        }
    }

    // ---- matrix: bit-identical to the sharded all-pairs engine over
    // the same trials in the daemon's (sorted) label order.
    for (t, data_t) in data.iter().enumerate() {
        let Response::Matrix { labels, cells } = c.matrix(&tenant_name(t)).expect("matrix") else {
            panic!("matrix variant");
        };
        let mut order: Vec<&str> = STREAMS.to_vec();
        order.sort_unstable();
        assert_eq!(labels, order);
        let trials: Vec<Trial> = order
            .iter()
            .map(|s| {
                let si = STREAMS.iter().position(|x| x == s).expect("known stream");
                Trial::from_observations(&data_t[si])
            })
            .collect();
        let reference = all_pairs_sharded(&trials, 4).expect("all-pairs");
        assert_eq!(cells.len(), reference.pairs());
        for cell in &cells {
            let want = reference
                .get(cell.i as usize, cell.j as usize)
                .expect("reference cell");
            assert_eq!(cell.score.kappa_bits, want.metrics.kappa.to_bits());
            assert_eq!(cell.common as usize, want.common);
        }
    }

    // ---- the budget held: evictions happened, residency stayed under.
    let Response::Stats {
        store_resident_bytes,
        store_budget_bytes,
        store_evictions,
        store_reloads,
        records,
        ..
    } = c.stats().expect("stats")
    else {
        panic!("stats variant");
    };
    assert!(store_evictions > 0, "budget was sized to force evictions");
    assert!(
        store_reloads > 0,
        "matrix queries must have reloaded spills"
    );
    assert!(
        store_resident_bytes <= store_budget_bytes,
        "resident {store_resident_bytes} exceeds budget {store_budget_bytes}"
    );
    assert!(
        records > 0,
        "the restarted daemon accepted the tail records"
    );

    // ---- graceful shutdown checkpoints; a fresh daemon serves the
    // same finals from durable state alone.
    c.shutdown().expect("shutdown");
    handle.wait();
    let handle = Daemon::spawn(cfg, "127.0.0.1:0").expect("third spawn");
    let mut c = Client::connect(handle.addr()).expect("third connect");
    for (t, data_t) in data.iter().enumerate() {
        let a = Trial::from_observations(&data_t[0]);
        for (si, s) in STREAMS.iter().enumerate().skip(1) {
            let b = Trial::from_observations(&data_t[si]);
            let batch = PairAnalyzer::new(&a, &b).analyze();
            let Response::Snapshot { running, .. } = c
                .snapshot(&tenant_name(t), s)
                .expect("post-restart snapshot")
            else {
                panic!("snapshot variant");
            };
            assert_eq!(
                running.kappa_bits,
                batch.metrics.kappa.to_bits(),
                "finals must survive shutdown/restart bit-identically"
            );
        }
    }
    drop(c);
    handle.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A comparison stream opened *after* the baseline has already ingested
/// data must still converge on batch-identical κ: later baseline growth
/// may not push the fresh tail into its engine before the missed prefix
/// has been fed (records would arrive out of order and duplicated).
#[test]
fn late_opened_stream_is_bit_identical_to_batch() {
    let dir = tmp_dir("lateopen");
    let cfg = DaemonConfig::new(&dir);
    let handle = Daemon::spawn(cfg, "127.0.0.1:0").expect("spawn");
    let mut c = Client::connect(handle.addr()).expect("connect");

    let base = synth(4, 0);
    let ontime = synth(4, 1);
    let late = synth(4, 2);

    c.create_tenant("acme", 0).expect("create");
    c.open_stream("acme", "base").expect("open baseline");
    // `ontime` exists from the start and stays caught up throughout.
    c.open_stream("acme", "ontime").expect("open ontime");

    // Baseline ingests a prefix before `late` exists.
    c.ingest("acme", "base", 0, &base[..200])
        .expect("base prefix");
    c.open_stream("acme", "late").expect("open late");

    // Baseline grows again: `late`'s engine lags side A by 200 records
    // here, while `ontime`'s is exactly caught up — the growth path has
    // to handle both in the same loop.
    c.ingest("acme", "base", 200, &base[200..400])
        .expect("base growth");

    c.ingest("acme", "ontime", 0, &ontime)
        .expect("ontime records");
    c.ingest("acme", "late", 0, &late).expect("late records");

    // Live snapshots against the current baseline prefix.
    for (name, data) in [("ontime", &ontime), ("late", &late)] {
        let Response::Snapshot { running, .. } = c.snapshot("acme", name).expect("live snapshot")
        else {
            panic!("snapshot variant");
        };
        let a = Trial::from_observations(&base[..400]);
        let b = Trial::from_observations(data);
        let batch = PairAnalyzer::new(&a, &b).analyze();
        assert_eq!(
            running.kappa_bits,
            batch.metrics.kappa.to_bits(),
            "live κ of `{name}` must equal batch κ on the ingested prefix"
        );
    }

    // Drain the baseline and finish everything; finals must match an
    // uninterrupted batch analysis bit for bit.
    c.ingest("acme", "base", 400, &base[400..])
        .expect("base tail");
    assert!(c
        .finish_stream("acme", "base")
        .expect("finish base")
        .is_none());
    let a = Trial::from_observations(&base);
    for (name, data) in [("ontime", &ontime), ("late", &late)] {
        let f = c
            .finish_stream("acme", name)
            .expect("finish stream")
            .expect("comparison summary");
        let batch = PairAnalyzer::new(&a, &Trial::from_observations(data)).analyze();
        assert_eq!(
            f.score.kappa_bits,
            batch.metrics.kappa.to_bits(),
            "final κ of `{name}` must equal batch κ"
        );
        assert_eq!(f.a_len as usize, base.len());
        assert_eq!(f.b_len as usize, data.len());
    }

    drop(c);
    handle.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gap_and_foreign_requests_are_refused_not_fatal() {
    let dir = tmp_dir("refusals");
    let cfg = DaemonConfig::new(&dir);
    let handle = Daemon::spawn(cfg, "127.0.0.1:0").expect("spawn");
    let mut c = Client::connect(handle.addr()).expect("connect");

    assert!(c.open_stream("ghost", "s").is_err(), "no such tenant");
    c.create_tenant("acme", 0).expect("create");
    assert!(c.create_tenant("acme", 0).is_err(), "duplicate tenant");
    assert!(c.create_tenant("bad/name", 0).is_err(), "invalid name");

    // A tenant with no streams must refuse ingest/finish — not panic
    // the daemon (a panic here would also be journaled and replayed
    // into a restart crash loop).
    let obs = synth(9, 0);
    assert!(
        c.ingest("acme", "nosuch", 0, &obs[..5]).is_err(),
        "ingest into a streamless tenant"
    );
    assert!(
        c.finish_stream("acme", "nosuch").is_err(),
        "finish on a streamless tenant"
    );
    c.ping().expect("daemon survived streamless ingest/finish");
    c.open_stream("acme", "base").expect("open baseline");
    c.open_stream("acme", "b").expect("open comparison");

    // Gap: stream is empty but the batch claims to start at 10.
    assert!(c.ingest("acme", "b", 10, &obs[..20]).is_err(), "ingest gap");
    // Comparison streams cannot finish before the baseline does.
    c.ingest("acme", "b", 0, &obs[..20]).expect("ingest");
    assert!(c.finish_stream("acme", "b").is_err(), "baseline still live");
    // The connection survived every refusal.
    c.ping().expect("still alive");
    // The baseline has no κ of its own.
    assert!(c.snapshot("acme", "base").is_err(), "baseline snapshot");

    drop(c);
    handle.kill();
    let _ = std::fs::remove_dir_all(&dir);
}
