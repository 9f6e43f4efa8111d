//! Single-threaded drivers, a second or two each, that put one layer
//! under load on its own over the same fixtures the workloads use. They
//! measure what the workloads' spans cannot separate: a workload sees
//! `Experiment::run` or `Client::ingest` as one call.

use std::hint::black_box;
use std::time::Instant;

use choir_capture::{drain_available, PcapSource};
use choir_core::metrics::{
    IncrementalComparison, KappaConfig, Observation, Side, StreamConfig, Trial,
};
use choir_core::replay::engine::run_replay_spin;
use choir_core::replay::recording::Recording;
use choir_dpdk::loopback::RealClock;
use choir_dpdk::{Burst, Dataplane, Mbuf, Mempool, PortStats};
use choir_packet::pcap::parse_pcap;
use choir_packet::{ChoirTag, FrameBuilder, FrameSpec};
use choir_service::wire::{recv_request, send_request, Request, WireObs};
use choir_service::{Client, Daemon, DaemonConfig, TrialStore, OBS_BYTES};

use crate::fixtures::{
    baseline, serve_streams, to_observations, to_pcap, Rng, LIVE_ROUND, PAPER_PACKETS,
    SERVE_RECORDS,
};
use crate::host::{dir_bytes, Scratch};
use crate::report::{Metrics, RunResult};
use crate::stats::median;

/// `full` scaled down for a quick run, but never below `floor`.
fn scaled(full: usize, scale: f64, floor: usize) -> usize {
    ((full as f64 * scale) as usize).max(floor)
}

/// Median of `reps` timings of `f`, in ns.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

fn frames_and_mempool(scale: f64, out: &mut Metrics) {
    const REPS: usize = 5;
    let n = scaled(200_000, scale, 1000);
    let builder = FrameBuilder::new(1400, 1, 2);
    let build = median_ns(REPS, || {
        for seq in 0..n as u64 {
            black_box(builder.build_tagged_snap(ChoirTag::new(0, 0, seq)));
        }
    });
    out.put("packet.build_ns_per_frame", build / n as f64, REPS);

    let pool = Mempool::new("drivers", n);
    let mut held: Vec<Mbuf> = Vec::with_capacity(n);
    let mut samples = Vec::new();
    for _ in 0..REPS {
        let frames: Vec<_> = (0..n as u64)
            .map(|seq| builder.build_tagged_snap(ChoirTag::new(0, 0, seq)))
            .collect();
        let t0 = Instant::now();
        for f in frames {
            held.push(pool.alloc(f).expect("pool sized for the driver"));
        }
        samples.push(t0.elapsed().as_nanos() as f64 / n as f64);
        held.clear();
    }
    out.put("dpdk.mempool_alloc_ns", median(&samples), REPS);
}

/// A NIC stand-in for the real-time loop: accepts every packet, counts
/// it, frees the handle on the spot.
struct CountingSink {
    pool: Mempool,
    clock: RealClock,
    stats: PortStats,
}

impl CountingSink {
    fn new(pool: &Mempool) -> Self {
        CountingSink {
            pool: pool.clone(),
            clock: RealClock::new(),
            stats: PortStats::default(),
        }
    }
}

impl Dataplane for CountingSink {
    fn num_ports(&self) -> usize {
        1
    }
    fn mempool(&self) -> &Mempool {
        &self.pool
    }
    fn rx_burst(&mut self, _port: usize, out: &mut Burst) -> usize {
        out.clear();
        0
    }
    fn tx_burst(&mut self, _port: usize, burst: &mut Burst) -> usize {
        let n = burst.len();
        let bytes: u64 = burst.drain().map(|m| m.len() as u64).sum();
        self.stats.on_tx(n as u64, bytes);
        n
    }
    fn tsc(&self) -> u64 {
        self.clock.elapsed_ns()
    }
    fn tsc_hz(&self) -> u64 {
        1_000_000_000
    }
    fn wall_ns(&self) -> u64 {
        self.clock.elapsed_ns()
    }
    fn request_wake_at_tsc(&mut self, _tsc: u64) {}
    fn stats(&self, _port: usize) -> PortStats {
        self.stats
    }
}

/// The middlebox's record and replay loops, without the simulator: a
/// paper-sized recording of 64-packet bursts of 1400-byte frames at the
/// 100 Gbps cadence.
fn replay(scale: f64, out: &mut Metrics) {
    const BURST: usize = 64;
    const SPIN_PASSES: usize = 20;
    let packets = scaled(PAPER_PACKETS, scale, BURST);
    let pool = Mempool::new("replay", packets);
    let builder = FrameBuilder::new(1400, 1, 2);
    let gap_ns = FrameSpec::new(1400, 100_000_000_000).gap_ps() / 1000;

    let mut rec = Recording::new();
    let mut record_ns = 0;
    let mut seq = 0;
    while seq < packets {
        let n = BURST.min(packets - seq);
        let pkts: Vec<Mbuf> = (seq..seq + n)
            .map(|s| {
                let frame = builder.build_tagged_snap(ChoirTag::new(0, 0, s as u64));
                pool.alloc(frame).expect("pool sized for the recording")
            })
            .collect();
        let t0 = Instant::now();
        rec.push_burst(seq as u64 * gap_ns, pkts.iter());
        record_ns += t0.elapsed().as_nanos();
        seq += n;
    }
    out.put(
        "core.replay.record_ns_per_pkt",
        record_ns as f64 / packets as f64,
        1,
    );

    let spin: Vec<f64> = (0..SPIN_PASSES)
        .map(|_| {
            let report = run_replay_spin(&rec, &mut CountingSink::new(&pool), 0, u64::MAX);
            assert_eq!(report.stats.packets_sent, packets as u64);
            report.elapsed_ns as f64 / packets as f64
        })
        .collect();
    out.put("core.replay.spin_ns_per_pkt", median(&spin), SPIN_PASSES);

    let paced = run_replay_spin(&rec, &mut CountingSink::new(&pool), 0, 1);
    assert_eq!(paced.stats.packets_sent, packets as u64);
    let recorded_pps = 1e9 / gap_ns as f64;
    out.put("core.replay.paced_rate_ratio", paced.pps / recorded_pps, 1);
    // 1 GHz TSC: cycles are ns.
    out.put(
        "core.replay.paced_late_ns_max",
        paced.stats.max_lateness_cycles as f64,
        1,
    );
}

/// Reading a capture: record at a time through `PcapSource`, and as one
/// batch parse.
fn capture(seed: u64, scale: f64, out: &mut Metrics) {
    const REPS: usize = 3;
    let n = scaled(500_000, scale, 1000);
    let pcap = to_pcap(&baseline(n, &mut Rng::new(seed, 20)));
    let source = median_ns(REPS, || {
        let mut src = PcapSource::new(&pcap[..]).expect("fixture pcap opens");
        let mut t = Trial::new();
        drain_available(&mut src, |o| t.push(o.id, o.t_ps)).expect("fixture pcap parses");
        assert_eq!(black_box(t).len(), n);
    });
    out.put("capture.pcap_source_ns_per_rec", source / n as f64, REPS);
    let batch = median_ns(REPS, || {
        let t = Trial::from_pcap_records(&parse_pcap(&pcap).expect("fixture pcap parses"));
        assert_eq!(black_box(t).len(), n);
    });
    out.put("capture.pcap_batch_ns_per_rec", batch / n as f64, REPS);
}

/// The incremental engine as the daemon configures it, fed a serve
/// tenant's baseline and first comparison stream in lock step.
fn stream_engine(seed: u64, scale: f64, out: &mut Metrics) {
    const REPS: usize = 5;
    const STEP: usize = 256;
    let recs = serve_streams(scaled(SERVE_RECORDS, scale, STEP), seed);
    let (a, b) = (to_observations(&recs[0]), to_observations(&recs[1]));
    let total = (a.len() + b.len()) as f64;
    let cfg = StreamConfig {
        lookahead: None,
        snapshot_every: 512,
        kappa: KappaConfig::paper(),
    };
    let feed = |push: &dyn Fn(&mut IncrementalComparison, Side, &[Observation])| {
        let mut eng = IncrementalComparison::new(cfg);
        for (ca, cb) in a.chunks(STEP).zip(
            b.chunks(STEP)
                .chain(std::iter::repeat::<&[Observation]>(&[])),
        ) {
            push(&mut eng, Side::A, ca);
            push(&mut eng, Side::B, cb);
        }
        eng
    };

    let mut last = None;
    let burst = median_ns(REPS, || {
        last = Some(feed(&|e, side, chunk| e.push_burst(side, chunk)));
    });
    out.put(
        "core.metrics.stream.push_burst_ns_per_obs",
        burst / total,
        REPS,
    );
    let single = median_ns(REPS, || {
        black_box(feed(&|e, side, chunk| {
            for o in chunk {
                e.push(side, o.id, o.t_ps);
            }
        }));
    });
    out.put("core.metrics.stream.push_ns_per_obs", single / total, REPS);

    // The daemon's live-snapshot path: checkpoint, resume a clone,
    // finalize the clone.
    let eng = last.expect("engine fed");
    out.put(
        "core.metrics.stream.peak_resident",
        eng.peak_resident() as f64,
        1,
    );
    let (mut ck_ms, mut resume_ms, mut finalize_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t0 = Instant::now();
        let ck = eng.checkpoint();
        ck_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let clone = IncrementalComparison::resume(ck);
        resume_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        black_box(clone.finalize("driver"));
        finalize_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    out.put("core.metrics.stream.checkpoint_ms", median(&ck_ms), REPS);
    out.put("core.metrics.stream.resume_ms", median(&resume_ms), REPS);
    out.put(
        "core.metrics.stream.finalize_ms",
        median(&finalize_ms),
        REPS,
    );
    let json = serde_json::to_string(&eng.checkpoint()).expect("checkpoint serializes");
    out.put(
        "core.metrics.stream.checkpoint_bytes_per_obs",
        json.len() as f64 / total,
        1,
    );
}

/// The wire: framing a 4096-record `Ingest` into memory and back, and a
/// `Ping` round trip to a daemon over loopback TCP.
fn wire(seed: u64, scale: f64, out: &mut Metrics) {
    const REPS: usize = 30;
    const RECORDS: usize = 4096;
    let obs = to_observations(&baseline(RECORDS, &mut Rng::new(seed, 21)));
    let req = Request::Ingest {
        tenant: "resident".into(),
        stream: "s1".into(),
        seq: 0,
        records: obs.iter().map(|&o| WireObs::from(o)).collect(),
    };
    let mut buf = Vec::new();
    let encode = median_ns(REPS, || {
        buf.clear();
        send_request(&mut buf, &req).expect("encode into memory");
    });
    out.put(
        "service.wire.encode_ns_per_rec",
        encode / RECORDS as f64,
        REPS,
    );
    out.put(
        "service.wire.bytes_per_rec",
        buf.len() as f64 / RECORDS as f64,
        1,
    );
    let decode = median_ns(REPS, || {
        black_box(recv_request(&mut &buf[..]).expect("decode from memory"));
    });
    out.put(
        "service.wire.decode_ns_per_rec",
        decode / RECORDS as f64,
        REPS,
    );

    let pings = scaled(REPS, scale, 3);
    let scratch = Scratch::new("ping");
    let daemon = Daemon::spawn(
        DaemonConfig::new(scratch.path().join("data")),
        "127.0.0.1:0",
    )
    .expect("daemon spawns");
    let mut client = Client::connect(daemon.addr()).expect("client connects");
    for _ in 0..3 {
        client.ping().expect("ping");
    }
    let samples: Vec<f64> = (0..pings)
        .map(|_| {
            let t0 = Instant::now();
            client.ping().expect("ping");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    daemon.kill();
    drop(client);
    out.put("service.wire.ping_ms_p50", median(&samples), pings);
}

/// The trial store fed the way `serve_live` feeds it: four trials, 128
/// records at a time, once under a budget nothing reaches and once
/// under 1.5 trials.
fn store(seed: u64, scale: f64, out: &mut Metrics) {
    let recs = serve_streams(scaled(SERVE_RECORDS, scale, LIVE_ROUND), seed);
    let obs: Vec<Vec<Observation>> = recs.iter().map(|r| to_observations(r)).collect();
    let keys = ["s0", "s1", "s2", "s3"];
    let total: usize = obs.iter().map(Vec::len).sum();
    let scratch = Scratch::new("store");
    let fill = |dir: &str, budget: u64| {
        let mut st = TrialStore::open(scratch.path().join(dir), budget).expect("store opens");
        let t0 = Instant::now();
        for lo in (0..obs[0].len()).step_by(LIVE_ROUND) {
            for (key, o) in keys.iter().zip(&obs) {
                if lo < o.len() {
                    st.append(key, &o[lo..(lo + LIVE_ROUND).min(o.len())])
                        .expect("append");
                }
            }
        }
        (st, t0.elapsed().as_nanos() as f64 / total as f64)
    };

    let (roomy, append_ns) = fill("roomy", 1 << 40);
    assert_eq!(roomy.stats().evictions, 0);
    out.put("service.store.append_ns_per_rec", append_ns, 1);

    let budget = obs[0].len() as u64 * OBS_BYTES * 3 / 2;
    let (mut tight, evict_append_ns) = fill("tight", budget);
    out.put("service.store.evict_append_ns_per_rec", evict_append_ns, 1);
    out.put("service.store.evictions", tight.stats().evictions as f64, 1);
    out.put("service.store.reloads", tight.stats().reloads as f64, 1);

    // Read the trials round robin: with room for 1.5 of 4, most reads
    // find their trial evicted and rebuild it from its spill file.
    let mut reload_ms = Vec::new();
    for key in keys.iter().cycle().take(4 * keys.len()) {
        let before = tight.stats().reloads;
        let t0 = Instant::now();
        black_box(tight.get(key).expect("get").len());
        if tight.stats().reloads > before {
            reload_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    out.put(
        "service.store.reload_ms_p50",
        median(&reload_ms),
        reload_ms.len(),
    );
    tight.flush_all().expect("flush");
    let spilled = dir_bytes(&scratch.path().join("tight"));
    out.put(
        "service.store.spill_bytes_per_rec",
        spilled as f64 / total as f64,
        1,
    );
}

/// Every driver, in this process, one after the other.
pub fn drivers(seed: u64, scale: f64) -> RunResult {
    let mut m = Metrics::default();
    frames_and_mempool(scale, &mut m);
    replay(scale, &mut m);
    capture(seed, scale, &mut m);
    stream_engine(seed, scale, &mut m);
    wire(seed, scale, &mut m);
    store(seed, scale, &mut m);
    RunResult {
        correct: true,
        attempted: m.0.len() as u64,
        failed: 0,
        metrics: m.0,
    }
}
