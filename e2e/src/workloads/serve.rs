//! `serve_bulk` and `serve_live`: the daemon over a real (loopback) TCP
//! socket, one synchronous client connection, closed loop.
//!
//! Both run against a daemon that has just recovered a 198 509-record
//! tenant from a hard kill, and that restart-to-ready is their shared
//! set-up step. `serve_bulk` drives the write path the way
//! `choir-ctl ingest-pcap` does, a whole session per op; `serve_live`
//! uses the same layers the other way round, small ingests with a live
//! snapshot after each round, against a tenant whose store evicts
//! throughout.

use std::time::Instant;

use choir_capture::{drain_available, PcapSource};
use choir_core::metrics::{Observation, PairAnalyzer};
use choir_service::{Client, Daemon, DaemonConfig, DaemonHandle, Response, OBS_BYTES};

use super::{OpResult, Prepared, Sizing, Workload};
use crate::fixtures::{
    live_schedule, serve_streams, to_observations, to_pcap, to_trial, LiveRound, LIVE_ROUND,
    SERVE_RECORDS,
};
use crate::host::{dir_bytes, Scratch};
use crate::report::Metrics;
use crate::spans::Tracer;
use crate::stats::{median, percentile_permille, supported_tail};

/// Set-up repeats; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Rounds `serve_live` runs before timing starts.
const LIVE_COLD_ROUNDS: usize = 8;

const STREAMS: [&str; 4] = ["s0", "s1", "s2", "s3"];
const RESIDENT: &str = "resident";

/// Batch kappa of two record lists, through the uncached pair pipeline.
fn kappa_of(a: &[Observation], b: &[Observation]) -> u64 {
    PairAnalyzer::new(&to_trial(a), &to_trial(b))
        .metrics()
        .kappa
        .to_bits()
}

/// `choir-ctl ingest-pcap`: drain the capture through `PcapSource`, hand
/// what came out to `Client::ingest`, until the capture is exhausted.
fn ingest_pcap(
    c: &mut Client,
    tenant: &str,
    stream: &str,
    pcap: &[u8],
    tr: &mut Tracer,
) -> Result<u64, String> {
    let mut src = PcapSource::new(pcap).map_err(|e| e.to_string())?;
    let mut batch: Vec<Observation> = Vec::new();
    let mut seq = 0;
    loop {
        batch.clear();
        let drain = tr.enter("capture.source_drain");
        let got = drain_available(&mut src, |o| batch.push(o)).map_err(|e| e.to_string())?;
        tr.exit(drain);
        if got == 0 {
            return Ok(seq);
        }
        let call = tr.enter("client.ingest");
        seq = c
            .ingest(tenant, stream, seq, &batch)
            .map_err(|e| e.to_string())?;
        tr.exit(call);
    }
}

/// The daemon both serve workloads talk to, recovered from a hard kill.
struct Served {
    client: Client,
    daemon: Option<DaemonHandle>,
    /// Holds the data directory; declared after the daemon so that it is
    /// removed only once the daemon has stopped.
    scratch: Scratch,
    /// Resident-tenant records, per stream.
    obs: Vec<Vec<Observation>>,
    pcaps: Vec<Vec<u8>>,
    setup_s: f64,
    recover_ms: Vec<f64>,
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(d) = self.daemon.take() {
            d.kill();
        }
    }
}

impl Served {
    /// Fixture: a tenant of four streams ingested into a fresh daemon,
    /// which is then hard-killed. Set-up: respawn on that data
    /// directory, connect, confirm every record is back - several times.
    fn recover(sizing: Sizing, tag: &str) -> Served {
        let scratch = Scratch::new(tag);
        let cfg = DaemonConfig::new(scratch.path().join("data"));
        let recs = serve_streams(sizing.scaled(SERVE_RECORDS), sizing.seed);
        let obs: Vec<Vec<Observation>> = recs.iter().map(|r| to_observations(r)).collect();
        let pcaps: Vec<Vec<u8>> = recs.iter().map(|r| to_pcap(r)).collect();

        let daemon = Daemon::spawn(cfg.clone(), "127.0.0.1:0").expect("daemon spawns");
        let mut client = Client::connect(daemon.addr()).expect("client connects");
        client
            .create_tenant(RESIDENT, 0)
            .expect("create resident tenant");
        let mut off = Tracer::new();
        for (name, pcap) in STREAMS.iter().zip(&pcaps) {
            client
                .open_stream(RESIDENT, name)
                .expect("open resident stream");
            ingest_pcap(&mut client, RESIDENT, name, pcap, &mut off).expect("resident ingest");
        }
        // Kill with the client still connected, as a crash would: were the
        // client to hang up first, its handler thread would exit on its
        // own, racing the kill, and which malloc arena the next daemon's
        // threads inherit (and with it peak RSS) would differ run to run.
        daemon.kill();
        drop(client);

        let mut setup = Vec::new();
        let mut recover_ms = Vec::new();
        let mut live: Option<(Client, DaemonHandle)> = None;
        for _ in 0..sizing.setup_repeats(SETUP_REPEATS) {
            if let Some((client, daemon)) = live.take() {
                daemon.kill();
                drop(client);
            }
            let t0 = Instant::now();
            let daemon = Daemon::spawn(cfg.clone(), "127.0.0.1:0").expect("daemon recovers");
            recover_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let mut client = Client::connect(daemon.addr()).expect("client connects");
            for (name, o) in STREAMS.iter().zip(&obs) {
                let (ingested, ..) = client.stream_status(RESIDENT, name).expect("status");
                assert_eq!(ingested, o.len() as u64, "recovery lost records of {name}");
            }
            setup.push(t0.elapsed().as_secs_f64());
            live = Some((client, daemon));
        }
        let (client, daemon) = live.expect("set-up ran");
        Served {
            client,
            daemon: Some(daemon),
            scratch,
            obs,
            pcaps,
            setup_s: median(&setup),
            recover_ms,
        }
    }

    fn records(&self) -> u64 {
        self.obs.iter().map(|o| o.len() as u64).sum()
    }
}

// --- serve_bulk -------------------------------------------------------

pub struct Bulk {
    served: Served,
    /// Expected final kappa bits of streams 1..=3 against stream 0.
    finals: Vec<u64>,
    /// Expected matrix cells `(i, j, kappa bits)`.
    cells: Vec<(u64, u64, u64)>,
    sessions: usize,
    journal_bytes_per_rec: Option<f64>,
}

pub fn prepare_bulk(sizing: Sizing) -> Prepared {
    let served = Served::recover(sizing, "bulk");
    let obs = &served.obs;
    let finals = (1..4).map(|k| kappa_of(&obs[0], &obs[k])).collect();
    let mut cells = Vec::new();
    for i in 0..4 {
        for j in i + 1..4 {
            cells.push((i as u64, j as u64, kappa_of(&obs[i], &obs[j])));
        }
    }
    Prepared {
        setup_s: served.setup_s,
        workload: Box::new(Bulk {
            served,
            finals,
            cells,
            sessions: 0,
            journal_bytes_per_rec: None,
        }),
    }
}

impl Bulk {
    /// One session: create tenant (default budget, so no eviction), open
    /// four streams, ingest each stream's capture, finish, matrix, drop.
    /// Returns the records acked.
    fn session(&mut self, tenant: &str, tr: &mut Tracer) -> Result<u64, String> {
        let Served {
            client: c,
            pcaps,
            obs,
            scratch,
            ..
        } = &mut self.served;
        let err = |e: choir_service::ClientError| e.to_string();
        let call = tr.enter("client.create_tenant");
        c.create_tenant(tenant, 0).map_err(err)?;
        tr.exit(call);
        for name in STREAMS {
            let call = tr.enter("client.open_stream");
            c.open_stream(tenant, name).map_err(err)?;
            tr.exit(call);
        }
        let before = tr.is_on().then(|| dir_bytes(scratch.path()));
        let mut acked = 0;
        for (k, name) in STREAMS.iter().enumerate() {
            let total = ingest_pcap(c, tenant, name, &pcaps[k], tr)?;
            if total != obs[k].len() as u64 {
                return Err(format!("{name}: acked {total} of {} records", obs[k].len()));
            }
            acked += total;
        }
        if let (Some(before), None) = (before, self.journal_bytes_per_rec) {
            let grown = dir_bytes(scratch.path()).saturating_sub(before);
            self.journal_bytes_per_rec = Some(grown as f64 / acked as f64);
        }
        for (k, name) in STREAMS.iter().enumerate() {
            let call = tr.enter("client.finish_stream");
            let summary = c.finish_stream(tenant, name).map_err(err)?;
            tr.exit(call);
            let bits = summary.map(|f| f.score.kappa_bits);
            let want = (k > 0).then(|| self.finals[k - 1]);
            if bits != want {
                return Err(format!(
                    "{name}: final kappa bits {bits:?}, batch says {want:?}"
                ));
            }
        }
        let call = tr.enter("client.matrix");
        let matrix = c.matrix(tenant).map_err(err)?;
        tr.exit(call);
        let Response::Matrix { labels, cells } = matrix else {
            return Err("matrix: unexpected response".into());
        };
        let got: Vec<(u64, u64, u64)> = cells
            .iter()
            .map(|c| (c.i, c.j, c.score.kappa_bits))
            .collect();
        if labels != STREAMS || got != self.cells {
            return Err(format!(
                "matrix over {labels:?} differs from batch analysis"
            ));
        }
        let call = tr.enter("client.drop_tenant");
        c.drop_tenant(tenant).map_err(err)?;
        tr.exit(call);
        Ok(acked)
    }
}

impl Workload for Bulk {
    fn op(&mut self, tr: &mut Tracer) -> OpResult {
        let tenant = format!("bulk-{}", self.sessions);
        self.sessions += 1;
        let t0 = Instant::now();
        let op = tr.enter("op");
        let result = self.session(&tenant, tr);
        tr.exit(op);
        let op_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = &result {
            eprintln!("serve_bulk: session {tenant} failed: {e}");
            let _ = self.served.client.drop_tenant(&tenant);
        }
        OpResult {
            packets: *result.as_ref().unwrap_or(&0),
            wall_ms: op_ms,
            op_ms,
            ok: result.is_ok(),
        }
    }

    fn layers(&self, tr: &Tracer, out: &mut Metrics) {
        let p50 = |out: &mut Metrics, metric: &str, span: &str| {
            let d = tr.durations_ms(span);
            out.put(metric, median(&d), d.len());
        };
        out.put(
            "service.client.source_drain_share",
            tr.total_ns("capture.source_drain") as f64 / tr.total_ns("op") as f64,
            tr.durations_ms("op").len(),
        );
        p50(out, "service.daemon.ingest_ms_p50.bulk", "client.ingest");
        p50(out, "service.daemon.finish_ms_p50", "client.finish_stream");
        p50(out, "service.daemon.matrix_ms_p50", "client.matrix");
        out.put(
            "service.daemon.journal_bytes_per_rec",
            self.journal_bytes_per_rec.unwrap_or(f64::NAN),
            1,
        );
        let recover = median(&self.served.recover_ms);
        let n = self.served.recover_ms.len();
        out.put("service.daemon.recover_ms_p50", recover, n);
        out.put(
            "service.daemon.recover_ns_per_rec",
            recover * 1e6 / self.served.records() as f64,
            n,
        );
    }
}

// --- serve_live -------------------------------------------------------

pub struct Live {
    served: Served,
    /// The live tenant's four streams, every one as long as the rounds.
    obs: Vec<Vec<Observation>>,
    schedule: Vec<LiveRound>,
    /// Expected snapshot kappa bits per round: batch analysis of exactly
    /// the records acked by then.
    reference: Vec<u64>,
    next: usize,
}

const LIVE: &str = "live";

pub fn prepare_live(sizing: Sizing, timed_rounds: usize) -> Prepared {
    let mut served = Served::recover(sizing, "live");
    let rounds = LIVE_COLD_ROUNDS + timed_rounds;
    let len = rounds * LIVE_ROUND;
    // Comparison streams lose ~1 % of the baseline; generate a little
    // more and cut every stream to the length the rounds consume.
    let recs = serve_streams(len + len / 50 + 16, sizing.seed ^ 0x11FE);
    let obs: Vec<Vec<Observation>> = recs.iter().map(|r| to_observations(&r[..len])).collect();
    let schedule = live_schedule(rounds);
    let reference = schedule
        .iter()
        .map(|r| kappa_of(&obs[0][..r.hi], &obs[r.snapshot][..r.hi]))
        .collect();

    // Budget of 1.5 trials for four: the store evicts throughout.
    let budget = len as u64 * OBS_BYTES * 3 / 2;
    served
        .client
        .create_tenant(LIVE, budget)
        .expect("create live tenant");
    for name in STREAMS {
        served
            .client
            .open_stream(LIVE, name)
            .expect("open live stream");
    }
    Prepared {
        setup_s: served.setup_s,
        workload: Box::new(Live {
            served,
            obs,
            schedule,
            reference,
            next: 0,
        }),
    }
}

impl Live {
    /// One round: the next 128 records to every stream, then a snapshot
    /// of one comparison stream. Returns the snapshot call's wall time.
    fn round(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        let r = *self
            .schedule
            .get(self.next)
            .ok_or("no rounds left in the fixture")?;
        let want = self.reference[self.next];
        self.next += 1;
        let c = &mut self.served.client;
        for (name, obs) in STREAMS.iter().zip(&self.obs) {
            let call = tr.enter("client.ingest");
            let total = c
                .ingest(LIVE, name, r.lo as u64, &obs[r.lo..r.hi])
                .map_err(|e| e.to_string())?;
            tr.exit(call);
            if total != r.hi as u64 {
                return Err(format!("{name}: acked {total}, sent {}", r.hi));
            }
        }
        let t0 = Instant::now();
        let call = tr.enter("client.snapshot");
        let snap = c
            .snapshot(LIVE, STREAMS[r.snapshot])
            .map_err(|e| e.to_string())?;
        tr.exit(call);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match snap {
            Response::Snapshot {
                seen_a,
                seen_b,
                running,
                ..
            } if (seen_a, seen_b, running.kappa_bits) == (r.hi as u64, r.hi as u64, want) => Ok(ms),
            other => Err(format!(
                "snapshot after {} records differs from batch: {other:?}",
                r.hi
            )),
        }
    }
}

impl Workload for Live {
    fn cold_ops(&self) -> usize {
        LIVE_COLD_ROUNDS
    }

    fn op(&mut self, tr: &mut Tracer) -> OpResult {
        let t0 = Instant::now();
        let op = tr.enter("op");
        let result = self.round(tr);
        tr.exit(op);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = &result {
            eprintln!("serve_live: round {} failed: {e}", self.next);
        }
        OpResult {
            packets: (STREAMS.len() * LIVE_ROUND) as u64,
            wall_ms,
            op_ms: *result.as_ref().unwrap_or(&f64::NAN),
            ok: result.is_ok(),
        }
    }

    fn layers(&self, tr: &Tracer, out: &mut Metrics) {
        for (span, p50, p90) in [
            (
                "client.ingest",
                "service.daemon.ingest_ms_p50.live",
                "service.daemon.ingest_ms_p90.live",
            ),
            (
                "client.snapshot",
                "service.daemon.snapshot_ms_p50",
                "service.daemon.snapshot_ms_p90",
            ),
        ] {
            let d = tr.durations_ms(span);
            if supported_tail(d.len()) < Some(900) {
                println!(
                    "note: {} `{span}` samples do not support a p90 (quick run)",
                    d.len()
                );
            }
            out.put(p50, median(&d), d.len());
            out.put(p90, percentile_permille(&d, 900), d.len());
        }
    }
}
