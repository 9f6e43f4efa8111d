//! The experiment runner: builds the paper's topology in the simulator,
//! orchestrates record-then-replay-N-times, and produces the consistency
//! reports.
//!
//! Pipeline per environment (§6's test setup: "a generator, replayer, and
//! recorder, with traffic flowing from the generator through the replayer
//! to the recorder", all through one switch):
//!
//! 1. **Record.** The middlebox is told to record, then the generator
//!    streams `N` CBR packets through it. The middlebox stamps each
//!    forwarded packet with a unique trailer tag and holds the transmitted
//!    bursts in RAM with their TSC times.
//! 2. **Replay ×R.** Each replay is scheduled at a future wall-clock
//!    time. Before each run the between-run clock state is re-sampled
//!    (PTP resync; recorder timestamp-servo slope) — the minutes that
//!    separate real runs, compressed.
//! 3. **Compare.** The recorder's per-run captures become [`Trial`]s
//!    (re-zeroed to their own first arrival, as Eqs. 3–4 require). The
//!    sharded all-pairs engine computes the full κ matrix; its baseline
//!    row (everything vs run A) is what the paper's tables report, and
//!    the off-diagonal summary quantifies the run-to-run spread §7's run
//!    lists exhibit.

use std::cell::RefCell;
use std::rc::Rc;

use choir_capture::{PcapChunkReader, QueueSource, Recorder, RecorderConfig, Source};
use choir_core::metrics::allpairs::{all_pairs_sharded_with, KappaMatrix};
use choir_core::metrics::report::{RecoveryReport, RunReport, TrialComparison};
use choir_core::metrics::{
    trial_label, IncrementalComparison, KappaConfig, Observation, Side, StreamCheckpoint,
    StreamConfig, StreamOutcome, StreamReport, StreamRunTrail, Trial,
};
use choir_core::obs;
use choir_core::replay::middlebox::{ChoirMiddlebox, MiddleboxConfig};
use choir_dpdk::ControlMsg;
use choir_netsim::clock::{NodeClock, PtpModel};
use choir_netsim::nic::{NicRxModel, NicTxModel, SharedVfModel, UtilProcess};
use choir_netsim::rng::{DetRng, Jitter};
use choir_netsim::time::MS;
use choir_netsim::topology::TopologyBuilder;
use choir_netsim::{QueueKind, Sim, SimConfig, SimStats};
use choir_pktgen::{Generator, GeneratorConfig};

use crate::profiles::EnvProfile;

/// What to run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The environment.
    pub profile: EnvProfile,
    /// Fraction of the paper's full packet count (1.0 = ~1M packets at
    /// 40 Gbps; tests use much smaller scales).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Full-scale experiment with the default seed.
    pub fn full(profile: EnvProfile) -> Self {
        ExperimentConfig {
            profile,
            scale: 1.0,
            seed: 0x00C4_0112,
        }
    }

    /// Packets per recorded stream under this config.
    pub fn packet_count(&self) -> u64 {
        ((self.profile.full_packet_count() as f64 * self.scale) as u64).max(50)
    }
}

/// Simulator hot-path knobs, orthogonal to *what* runs ([`ExperimentConfig`]).
///
/// Defaults to the fast path (timing wheel + burst coalescing); the
/// per-packet `BinaryHeap` path stays available as the reference
/// baseline (`tests/pipeline.rs` pins both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimTuning {
    /// Coalesce contiguous wire bursts into single delivery events.
    pub coalesce: bool,
    /// Event-queue implementation.
    pub queue: QueueKind,
    /// Shard the engine across worker threads (multi-domain experiments
    /// only; the classic single-switch runner is indivisible and ignores
    /// this). `0` runs the serial engine in-process — the reference the
    /// determinism gates compare against; `n >= 1` runs a
    /// [`choir_netsim::ShardedSim`] with `n` workers, whose captures are
    /// byte-identical to serial at every shard count.
    pub shards: usize,
}

impl Default for SimTuning {
    fn default() -> Self {
        SimTuning {
            coalesce: true,
            queue: QueueKind::Wheel,
            shards: 0,
        }
    }
}

impl SimTuning {
    /// The reference hot path: per-packet delivery events on a
    /// `BinaryHeap`. Captures are NOT expected to be bit-identical to the
    /// coalesced path (different RNG interleaving), but the path is
    /// self-deterministic and statistically equivalent.
    pub fn per_packet() -> Self {
        SimTuning {
            coalesce: false,
            queue: QueueKind::Heap,
            shards: 0,
        }
    }
}

/// Everything an experiment produces.
#[derive(Debug)]
pub struct ExperimentOutput {
    /// Per-run comparisons against run A, plus the environment mean
    /// (a Table 2 row).
    pub report: RunReport,
    /// The full all-pairs κ matrix over every run (the report's `runs`
    /// are its baseline row).
    pub matrix: KappaMatrix,
    /// The raw re-zeroed trials (run A first).
    pub trials: Vec<Trial>,
    /// Packets held in the middlebox recording(s).
    pub recorded_packets: u64,
    /// Simulator events processed (diagnostics).
    pub events: u64,
    /// Event-queue and coalescing counters from the simulation.
    pub sim_stats: SimStats,
    /// Wall-clock time of the capture pipeline (generate → forward →
    /// record → replay → capture), excluding the all-pairs consistency
    /// analysis that follows it.
    pub capture_wall_ns: u64,
}

/// One experiment, composed instead of dispatched: what to run
/// ([`ExperimentConfig`]) plus every orthogonal axis — simulator tuning,
/// live streaming κ, crash supervision — as chainable builder steps,
/// mirroring the `PairAnalyzer` redesign (DESIGN.md §12).
///
/// ```no_run
/// use choir_testbed::{EnvKind, Experiment, ExperimentConfig, StreamingMode};
///
/// let cfg = ExperimentConfig::full(EnvKind::LocalSingle.profile());
/// let out = Experiment::new(cfg)
///     .streaming(StreamingMode { lookahead: None, snapshot_every: 500 })
///     .run();
/// assert!(out.report.stream.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    cfg: ExperimentConfig,
    tuning: SimTuning,
    streaming: Option<StreamingMode>,
    supervised: Option<SupervisorConfig>,
}

impl Experiment {
    /// An experiment with default tuning, no streaming engine, and no
    /// crash supervision.
    pub fn new(cfg: ExperimentConfig) -> Self {
        Experiment {
            cfg,
            tuning: SimTuning::default(),
            streaming: None,
            supervised: None,
        }
    }

    /// Explicit simulator hot-path tuning (default: the fast path).
    pub fn tuning(mut self, tuning: SimTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Tap a live streaming-κ engine into the recorder's rx path: from
    /// the second replay run onward, every admitted packet is scored
    /// against the baseline run *while the simulation executes*, and
    /// the per-run snapshot trails ride along in `report.stream`.
    pub fn streaming(mut self, mode: StreamingMode) -> Self {
        self.streaming = Some(mode);
        self
    }

    /// Run the streaming engine under a crash supervisor (checkpoint
    /// cadence, injected kills and tap panics, capture salvage) —
    /// meaningful together with [`Self::streaming`]; without it only
    /// the capture-salvage leg and the recovery accounting engage.
    pub fn supervised(mut self, sup: SupervisorConfig) -> Self {
        self.supervised = Some(sup);
        self
    }

    /// Run the experiment end to end.
    ///
    /// # Panics
    /// Panics, before simulating anything, if `profile.runs < 2`: run A
    /// is the baseline, so one run leaves nothing to compare. Callers
    /// that take the run count from outside validate it where it enters.
    /// Injected tap panics never escape the supervisor.
    pub fn run(self) -> ExperimentOutput {
        execute(&self.cfg, self.tuning, self.streaming, self.supervised)
    }
}

/// Streaming-κ configuration for [`Experiment::streaming`].
#[derive(Debug, Clone, Copy)]
pub struct StreamingMode {
    /// Reorder window for the incremental engine: `None` streams with
    /// full lookahead (exact, bit-identical to the batch analysis on
    /// time-ordered trials); `Some(w)` bounds resident packets at `w`.
    pub lookahead: Option<usize>,
    /// Emit a [`choir_core::metrics::KappaSnapshot`] every this many
    /// pushed packets (`0` disables automatic snapshots).
    pub snapshot_every: u64,
}

/// Fault schedule and recovery policy for
/// [`Experiment::supervised`]. The same philosophy as the
/// PR-1 replay supervision (bounded budgets, degrade-and-count, typed
/// accounting) applied to the streaming κ engine's lifetime: the
/// supervisor checkpoints on a cadence, injects process-death and
/// tap-panic faults on their own cadences, and recovers every one from
/// the last durable checkpoint plus its journal.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Serialize a durable checkpoint every this many tapped packets
    /// (`0` = only the initial pre-stream checkpoint).
    pub checkpoint_every: u64,
    /// Kill the streaming engine (simulated process death: the live
    /// state is discarded wholesale) every this many tapped packets.
    pub kill_every: Option<u64>,
    /// Throw a panic inside the rx tap every this many tapped packets.
    /// The supervisor catches it at the tap boundary (`catch_unwind`)
    /// and recovers exactly as for a kill.
    pub panic_every: Option<u64>,
    /// After the runs, export the retained capture to pcap bytes, cut
    /// them at a seeded offset ([`choir_dpdk::fault::truncate_stream`]),
    /// and salvage-read the damage, recording salvaged-vs-lost records.
    pub corrupt_capture_seed: Option<u64>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            checkpoint_every: 256,
            kill_every: None,
            panic_every: None,
            corrupt_capture_seed: None,
        }
    }
}

/// A live comparison between the baseline run (side A, fed from the
/// already-captured first trial) and the in-flight run (side B, pulled
/// from a [`choir_capture::Source`] that the recorder-port rx tap
/// pushes into). This is the same ingestion path the κ-as-a-service
/// daemon drives — the tap is just one producer behind a
/// [`QueueHandle`].
///
/// A is fed in lock step — one baseline observation per pulled packet —
/// so bounded-window mode keeps residency near the configured window
/// instead of buffering one whole side. Any baseline tail left when the
/// run ends is flushed in [`LiveStream::finish`]; in full-lookahead mode
/// feeding order cannot affect the result, so the flush preserves
/// exactness.
struct LiveStream {
    eng: IncrementalComparison,
    baseline: Vec<Observation>,
    fed_a: usize,
    src: QueueSource,
}

impl LiveStream {
    /// Drain everything the tap has pushed since the last pump.
    fn pump(&mut self) {
        while let Ok(Some(o)) = self.src.next_record() {
            if let Some(&a) = self.baseline.get(self.fed_a) {
                self.eng.push(Side::A, a.id, a.t_ps);
                self.fed_a += 1;
            }
            self.eng.push(Side::B, o.id, o.t_ps);
        }
    }

    fn finish(mut self, label: String) -> StreamOutcome {
        self.pump();
        while let Some(&o) = self.baseline.get(self.fed_a) {
            self.eng.push(Side::A, o.id, o.t_ps);
            self.fed_a += 1;
        }
        self.eng.finalize(label)
    }
}

/// A [`LiveStream`] under crash supervision: everything tapped since
/// the last durable checkpoint is journaled, so when an injected kill
/// discards the engine (or a tap panic is caught), the supervisor
/// parses the checkpoint back, resumes, and re-feeds the journal —
/// landing in a state bit-identical to never having crashed.
///
/// "Durable" here means the checkpoint is held only as serialized JSON
/// bytes, exactly what a real supervisor would have on disk: every
/// recovery round-trips the full parse path, not just a clone.
struct SupervisedStream {
    eng: IncrementalComparison,
    baseline: Vec<Observation>,
    fed_a: usize,
    sup: SupervisorConfig,
    /// The engine's config and identity, for the checked resume: a
    /// recovery must refuse a checkpoint that pairs with a different
    /// engine or config instead of silently computing a wrong κ.
    cfg: StreamConfig,
    engine_id: u64,
    /// Last durable checkpoint (serialized) and the A-side cursor at
    /// the moment it was taken.
    ck_json: String,
    ck_fed_a: usize,
    /// B-side arrivals since the last checkpoint, oldest first.
    journal: Vec<(choir_packet::PacketId, u64)>,
    /// Packets tapped so far (fault cadences count these).
    tapped: u64,
    rec: RecoveryReport,
    src: QueueSource,
}

impl SupervisedStream {
    fn new(
        cfg: StreamConfig,
        engine_id: u64,
        baseline: Vec<Observation>,
        sup: SupervisorConfig,
        src: QueueSource,
    ) -> Self {
        let eng = IncrementalComparison::new(cfg).with_engine_id(engine_id);
        let ck_json = serde_json::to_string(&eng.checkpoint()).expect("checkpoint serializes");
        let bytes = ck_json.len() as u64;
        SupervisedStream {
            eng,
            baseline,
            fed_a: 0,
            sup,
            cfg,
            engine_id,
            ck_json,
            ck_fed_a: 0,
            journal: Vec::new(),
            tapped: 0,
            rec: RecoveryReport {
                checkpoint_every: sup.checkpoint_every,
                checkpoints_taken: 1,
                checkpoint_bytes_last: bytes,
                checkpoint_bytes_peak: bytes,
                ..RecoveryReport::default()
            },
            src,
        }
    }

    /// Drain everything the tap has pushed, feeding each record under
    /// its own blast shield: an injected (or real) panic inside the
    /// engine never reaches the simulator, it becomes a recovery, and
    /// the drain continues with the next record.
    fn pump(&mut self) {
        while let Ok(Some(o)) = self.src.next_record() {
            let fed =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.feed(o.id, o.t_ps)));
            if fed.is_err() {
                self.recover_from_panic();
            }
        }
    }

    fn due(count: u64, every: Option<u64>) -> bool {
        matches!(every, Some(n) if n > 0 && count.is_multiple_of(n))
    }

    /// Feed one tapped packet, then run any fault or checkpoint due at
    /// this position. May panic at an injected fault point — the caller
    /// catches at the tap boundary and calls [`Self::recover_from_panic`].
    fn feed(&mut self, id: choir_packet::PacketId, t_ps: u64) {
        // Journal before anything can fail: a crash between here and
        // the engine push must not lose the packet.
        self.journal.push((id, t_ps));
        self.tapped += 1;
        if Self::due(self.tapped, self.sup.panic_every) {
            panic!("injected tap fault at packet {}", self.tapped);
        }
        self.push_pair(id, t_ps);
        if Self::due(self.tapped, self.sup.kill_every) {
            self.rec.kills_injected += 1;
            if obs::is_enabled() {
                obs::counter_inc("recover.kills");
                obs::event("recover.kill", self.tapped, self.journal.len() as u64);
            }
            self.recover();
            self.rec.kills_survived += 1;
        } else if Self::due(self.tapped, Some(self.sup.checkpoint_every)) {
            self.take_checkpoint();
        }
    }

    /// The lock-step A/B feeding of [`LiveStream::on_rx`].
    fn push_pair(&mut self, id: choir_packet::PacketId, t_ps: u64) {
        if let Some(&o) = self.baseline.get(self.fed_a) {
            self.eng.push(Side::A, o.id, o.t_ps);
            self.fed_a += 1;
        }
        self.eng.push(Side::B, id, t_ps);
    }

    fn take_checkpoint(&mut self) {
        let json = serde_json::to_string(&self.eng.checkpoint()).expect("checkpoint serializes");
        self.rec.checkpoints_taken += 1;
        self.rec.checkpoint_bytes_last = json.len() as u64;
        self.rec.checkpoint_bytes_peak = self.rec.checkpoint_bytes_peak.max(json.len() as u64);
        self.ck_json = json;
        self.ck_fed_a = self.fed_a;
        self.journal.clear();
    }

    /// Discard the live engine and rebuild it: parse the durable
    /// checkpoint, resume, re-feed the journal. The journal is kept —
    /// it only becomes durable at the next checkpoint, and a second
    /// crash before then must be able to replay it again.
    fn recover(&mut self) {
        let t = std::time::Instant::now();
        let ck: StreamCheckpoint =
            serde_json::from_str(&self.ck_json).expect("durable checkpoint parses");
        // The checked resume: a checkpoint that pairs with another
        // engine or config is a supervisor bug, not a recovery.
        self.eng = IncrementalComparison::resume_checked(ck, self.engine_id, &self.cfg)
            .expect("durable checkpoint pairs with this engine");
        self.fed_a = self.ck_fed_a;
        let n = self.journal.len();
        for i in 0..n {
            let (id, t_ps) = self.journal[i];
            self.push_pair(id, t_ps);
        }
        self.rec.records_replayed += n as u64;
        self.rec.resume_latency_ns_total += t.elapsed().as_nanos() as u64;
        if obs::is_enabled() {
            obs::counter_add("recover.records_replayed", n as u64);
        }
    }

    /// Entry point for the tap-boundary `catch_unwind` handler.
    fn recover_from_panic(&mut self) {
        self.rec.tap_panics_caught += 1;
        if obs::is_enabled() {
            obs::counter_inc("recover.tap_panics");
        }
        self.recover();
    }

    fn finish(mut self, label: String) -> (StreamOutcome, RecoveryReport) {
        self.pump();
        while let Some(&o) = self.baseline.get(self.fed_a) {
            self.eng.push(Side::A, o.id, o.t_ps);
            self.fed_a += 1;
        }
        (self.eng.finalize(label), self.rec)
    }
}

fn execute(
    cfg: &ExperimentConfig,
    tuning: SimTuning,
    streaming: Option<StreamingMode>,
    supervised: Option<SupervisorConfig>,
) -> ExperimentOutput {
    let t_capture = std::time::Instant::now();
    let p = &cfg.profile;
    assert!(
        p.runs >= 2,
        "profile.runs = {} but an experiment needs the baseline run plus at least one to compare",
        p.runs
    );
    let n_packets = cfg.packet_count();
    let label = p.kind.label();

    let mut sim = Sim::new(SimConfig {
        master_seed: cfg.seed,
        trial: 0,
        pool_slots: (n_packets as usize) * 2 + 65_536,
        queue: tuning.queue,
        coalesce: tuning.coalesce,
    });
    let mut rng = DetRng::derive(cfg.seed, &["runner", label]);

    // --- Nodes ------------------------------------------------------
    let clock = |rng: &mut DetRng, p: &EnvProfile| NodeClock {
        tsc_hz: p.tsc_hz,
        tsc_offset: rng.range_u64(0, 1 << 40),
        freq_error_ppb: rng.range_u64(0, 60) as i64 - 30,
        ptp: PtpModel::sampled(rng, p.ptp_offset_sigma_ns, p.ptp_drift_sigma),
    };

    let mut gen_cfg = GeneratorConfig::cbr(p.rate_bps, n_packets);
    gen_cfg.ports = (0..p.replayers).collect();
    let gen = sim.add_node(
        "generator",
        Generator::new(gen_cfg),
        clock(&mut rng, p),
        p.wake_jitter.clone(),
    );
    for _ in 0..p.replayers {
        sim.add_port(
            gen,
            NicTxModel {
                doorbell: p.doorbell.clone(),
                ..NicTxModel::ideal(p.link_rate_bps)
            },
            NicRxModel::ideal(),
        );
    }

    let mut mbs = Vec::new();
    for r in 0..p.replayers {
        let mb = sim.add_node(
            &format!("replayer{r}"),
            ChoirMiddlebox::new(MiddleboxConfig {
                rx_port: 0,
                tx_port: 1,
                replayer_id: r as u16,
                stamp_tags: true,
                in_band_control: false,
                tx_retries: 3,
                rolling_window: None,
                bridge_reverse: false,
                pool_reserve: 128,
            }),
            clock(&mut rng, p),
            p.wake_jitter.clone(),
        );
        // rx port: the poll loop sees arrivals after the profile's poll
        // visibility latency (this sets the recorded burst structure).
        sim.add_port(
            mb,
            NicTxModel::ideal(p.link_rate_bps),
            NicRxModel {
                ring_cap: 8192,
                deliver_latency: p.poll_latency.clone(),
                ..NicRxModel::ideal()
            },
        );
        // tx port: the environment's NIC behaviour lives here.
        let shared = p.shared_vf.as_ref().map(|s| SharedVfModel {
            util: UtilProcess::new(s.util_min, s.util_max, s.util_step, s.util_period_ps),
            noise_pkt_wire_bytes: 1538,
            burst_wait_mean_ps: s.burst_wait_mean_ps,
            pause: s.pause.clone(),
            pause_prob: s.pause_prob,
        });
        sim.add_port(
            mb,
            NicTxModel {
                line_rate_bps: p.link_rate_bps,
                ring_cap: 4096,
                doorbell: p.doorbell.clone(),
                batch: p.batch.clone(),
                rearm_latency: p.pull_rearm.clone(),
                pull_read_latency: p.pull_read.clone(),
                shared,
            },
            NicRxModel::ideal(),
        );
        mbs.push(mb);
    }

    // The salvage leg needs the raw frames back out as pcap bytes.
    let keep_frames = supervised.is_some_and(|s| s.corrupt_capture_seed.is_some());
    let rec = sim.add_node(
        "recorder",
        Recorder::new(RecorderConfig {
            keep_frames,
            ..RecorderConfig::default()
        }),
        clock(&mut rng, p),
        p.wake_jitter.clone(),
    );
    sim.add_port(
        rec,
        NicTxModel::ideal(p.link_rate_bps),
        NicRxModel {
            ring_cap: 1 << 14,
            timestamp: p.recorder_ts.clone(),
            drop_prob: p.recorder_drop_prob,
            deliver_latency: Jitter::Const(100_000), // 100 ns poll latency
            clock_slope_ppb: 0,
            slope_base_ps: 0,
        },
    );

    // --- Topology: everything through one switch ---------------------
    let mut topo = TopologyBuilder::with_switch(
        &mut sim,
        p.switch.clone(),
        4 * p.replayers,
        "switch0",
    );
    for (r, &mb) in mbs.iter().enumerate() {
        // The switch is sized to 4 ports per replayer above, so
        // exhaustion here is a wiring bug, not a runtime condition.
        topo.path(&mut sim, gen, r, mb, 0, 5_000)
            .expect("switch sized for all replayer paths");
        topo.path(&mut sim, mb, 1, rec, 0, 5_000)
            .expect("switch sized for all replayer paths");
    }

    // --- Phase 1: record the stream ----------------------------------
    let gap = p.gap_ps();
    let duration = n_packets * gap;
    let t_rec_start = MS;
    let t_gen_start = 2 * MS;
    let t_stop = t_gen_start + duration + 2 * MS;
    for &mb in &mbs {
        sim.send_control(mb, ControlMsg::StartRecord, t_rec_start);
        sim.send_control(mb, ControlMsg::StopRecord, t_stop);
    }
    sim.wake_app(gen, t_gen_start);
    sim.run_until(t_stop + MS);
    // Discard the recording-phase capture.
    sim.with_app::<Recorder, _>(rec, |r| {
        r.take_trials();
    });

    let recorded_packets: u64 = mbs
        .iter()
        .map(|&mb| sim.with_app::<ChoirMiddlebox, _>(mb, |m| m.recording().packets() as u64))
        .sum();

    // --- Phase 2: replays --------------------------------------------
    let mut resync = DetRng::derive(cfg.seed, &["resync", label]);
    let margin = 3 * MS;
    let mut raw_trials: Vec<Trial> = Vec::new();
    let mut stream_trails: Vec<StreamRunTrail> = Vec::new();
    let mut recovery_acc = RecoveryReport::default();
    enum TapStream {
        Plain(Rc<RefCell<Option<LiveStream>>>),
        Supervised(Rc<RefCell<Option<SupervisedStream>>>),
    }
    for run in 0..p.runs {
        // Between-run clock wander: PTP resync on every node, timestamp
        // servo re-steered on the recorder.
        for &node in mbs.iter().chain([gen, rec].iter()) {
            sim.set_ptp(
                node,
                PtpModel::sampled(&mut resync, p.ptp_offset_sigma_ns, p.ptp_drift_sigma),
            );
        }
        let slope = (p.ts_slope_sigma_ppb * resync.std_normal()) as i64;
        sim.set_rx_clock_slope(rec, 0, slope);

        // Streaming mode: from the second run onward, score this run
        // against the baseline capture live, via the recorder's rx tap.
        // The tap fires on exactly the admitted packets the Recorder
        // app later drains, with the same hardware timestamps, so the
        // engine sees the same stream the batch path analyzes.
        let live: Option<TapStream> = match (streaming, raw_trials.first()) {
            (Some(mode), Some(baseline)) if run >= 1 => {
                let stream_cfg = StreamConfig {
                    lookahead: mode.lookahead,
                    snapshot_every: mode.snapshot_every,
                    kappa: KappaConfig::paper(),
                };
                // The rx tap is just a producer behind the unified
                // Source API: it pushes into a QueueHandle, and the
                // stream pulls — the same ingestion path the
                // κ-as-a-service daemon drives (DESIGN.md §16).
                let (src, handle) = QueueSource::new();
                if let Some(sup) = supervised {
                    let ss = SupervisedStream::new(
                        stream_cfg,
                        run as u64 + 1,
                        baseline.observations().to_vec(),
                        sup,
                        src,
                    );
                    let cell = Rc::new(RefCell::new(Some(ss)));
                    let tap_cell = Rc::clone(&cell);
                    sim.set_rx_tap(
                        rec,
                        0,
                        Box::new(move |ts, m| {
                            handle.push(m.frame.packet_id(), ts);
                            if let Some(ss) = tap_cell.borrow_mut().as_mut() {
                                ss.pump();
                            }
                        }),
                    );
                    Some(TapStream::Supervised(cell))
                } else {
                    let ls = LiveStream {
                        eng: IncrementalComparison::new(stream_cfg),
                        baseline: baseline.observations().to_vec(),
                        fed_a: 0,
                        src,
                    };
                    let cell = Rc::new(RefCell::new(Some(ls)));
                    let tap_cell = Rc::clone(&cell);
                    sim.set_rx_tap(
                        rec,
                        0,
                        Box::new(move |ts, m| {
                            handle.push(m.frame.packet_id(), ts);
                            if let Some(ls) = tap_cell.borrow_mut().as_mut() {
                                ls.pump();
                            }
                        }),
                    );
                    Some(TapStream::Plain(cell))
                }
            }
            _ => None,
        };

        let start_wall_ns = (sim.now_ps() + margin) / 1_000;
        let mut max_skew_ps: u64 = 0;
        for &mb in &mbs {
            let skew_ns = p.replay_start_skew.sample(&mut resync) / 1_000;
            let start = (start_wall_ns as i64 + skew_ns).max(0) as u64;
            max_skew_ps = max_skew_ps.max(skew_ns.unsigned_abs() * 1_000);
            sim.send_control(
                mb,
                ControlMsg::ScheduleReplay {
                    start_wall_ns: start,
                },
                sim.now_ps(),
            );
        }
        let end = sim.now_ps() + margin + duration + margin + max_skew_ps;
        sim.run_until(end);
        if let Some(tap) = live {
            sim.clear_rx_tap(rec, 0);
            let run_label = trial_label(run);
            let out = match tap {
                TapStream::Plain(cell) => {
                    let ls = cell.borrow_mut().take().expect("live stream installed");
                    ls.finish(run_label.clone())
                }
                TapStream::Supervised(cell) => {
                    let ss = cell.borrow_mut().take().expect("supervised stream installed");
                    let (out, run_recovery) = ss.finish(run_label.clone());
                    recovery_acc.absorb(&run_recovery);
                    out
                }
            };
            stream_trails.push(StreamRunTrail {
                label: run_label,
                final_kappa: out.comparison.metrics.kappa,
                peak_resident: out.peak_resident,
                evicted: out.evicted,
                bounds: Some(out.bounds),
                missed_matches: out.missed_matches,
                snapshots: out.snapshots,
            });
        }
        // Harvest this run's capture immediately (cut + drain); the
        // streaming tap needs run A materialized before run B starts.
        let mut cut = sim.with_app::<Recorder, _>(rec, |r| r.take_trials());
        raw_trials.append(&mut cut);
    }

    let trials: Vec<Trial> = raw_trials.into_iter().map(|t| t.rezeroed()).collect();
    // The capture pipeline (generate → forward → record → replay →
    // capture) ends here; everything below is consistency analysis,
    // measured separately (`e2e`'s `matrix_paper`).
    let capture_wall_ns = t_capture.elapsed().as_nanos() as u64;

    // Post-processing hot spot at full scale: the all-pairs κ matrix via
    // the sharded engine — per-trial indexes built once, at most one
    // worker per available core (never a thread per pair).
    let shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (matrix, _engine) = all_pairs_sharded_with(&trials, shards, &KappaConfig::paper())
        .expect("captured trials fit the u32 index limit");
    // The paper's tables are the baseline row (runs B, C, … vs run A).
    let comparisons: Vec<TrialComparison> = matrix.baseline_row();

    // Every middlebox's graceful-degradation counters ride along with
    // the consistency numbers: a κ is only interpretable next to how
    // degraded the run that produced it was.
    let mut degradation = choir_core::replay::DegradationReport::default();
    for &mb in &mbs {
        let d = sim.with_app::<ChoirMiddlebox, _>(mb, |m| m.degradation_report());
        degradation.absorb(&d);
    }
    let sim_stats = sim.sim_stats();
    let mut report = RunReport::new(label, comparisons)
        .expect("profile.runs >= 2 checked on entry, one trial per run")
        .with_degradation(degradation)
        .with_sim_stats(sim_stats_report(&sim_stats));
    if let Some(summary) = matrix.summary() {
        report = report.with_matrix(summary);
    }
    if let Some(mode) = streaming {
        report = report.with_stream(StreamReport {
            lookahead: mode.lookahead,
            snapshot_every: mode.snapshot_every,
            runs: stream_trails,
        });
    }
    if let Some(sup) = supervised {
        // Salvage leg: export the retained capture, cut it at a seeded
        // offset, and count what the journaled chunk reader gets back.
        if let Some(seed) = sup.corrupt_capture_seed {
            let mut bytes = sim.with_app::<Recorder, _>(rec, |r| {
                let mut v = Vec::new();
                r.write_pcap(&mut v).expect("in-memory pcap export");
                v
            });
            let total = choir_packet::pcap::parse_pcap(&bytes)
                .map(|rs| rs.len() as u64)
                .unwrap_or(0);
            choir_dpdk::fault::truncate_stream(&mut bytes, seed, 24);
            let mut salvaged = 0u64;
            if let Ok(mut rd) = PcapChunkReader::new(&bytes[..], 256) {
                loop {
                    match rd.next_chunk() {
                        Ok(Some(chunk)) => salvaged += chunk.len() as u64,
                        Ok(None) => break,
                        // Salvage mode: the failed chunk's good prefix
                        // still counts; errors are terminal.
                        Err(e) => {
                            salvaged += e.salvaged.len() as u64;
                            break;
                        }
                    }
                }
            }
            recovery_acc.salvaged_records = salvaged;
            recovery_acc.lost_records = total - salvaged;
            if obs::is_enabled() {
                obs::counter_add("recover.salvaged_records", salvaged);
                obs::counter_add("recover.lost_records", total - salvaged);
            }
        }
        report = report.with_recovery(recovery_acc);
    }
    // `with_obs` drops empty snapshots, so this is a no-op unless the
    // caller configured the obs layer before running the experiment.
    report = report.with_obs(choir_core::obs::snapshot());

    ExperimentOutput {
        report,
        matrix,
        trials,
        recorded_packets,
        events: sim.events_processed(),
        sim_stats,
        capture_wall_ns,
    }
}

/// Mirror the simulator's counters into the report's serializable form.
/// `shards` and `sync_windows` stay 0 here; the multi-domain runner
/// overrides them for sharded fleets.
pub fn sim_stats_report(s: &SimStats) -> choir_core::metrics::SimStatsReport {
    choir_core::metrics::SimStatsReport {
        events_processed: s.events_processed,
        queue_depth_peak: s.queue_depth_peak,
        coalesced_events: s.coalesced_events,
        coalesced_packets: s.coalesced_packets,
        wire_events_elided: s.wire_events_elided,
        packets_per_event: s.packets_per_event(),
        remote_bursts: s.remote_bursts,
        remote_packets: s.remote_packets,
        shards: 0,
        sync_windows: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::EnvKind;

    fn quick(kind: EnvKind, scale: f64, seed: u64) -> ExperimentOutput {
        let mut profile = kind.profile();
        profile.runs = 3; // A + two comparisons is enough for tests
        Experiment::new(ExperimentConfig {
            profile,
            scale,
            seed,
        })
        .run()
    }

    #[test]
    fn local_single_pipeline_end_to_end() {
        let out = quick(EnvKind::LocalSingle, 0.003, 7);
        // ~3100 packets recorded and replayed intact.
        assert!(out.recorded_packets > 3_000, "{}", out.recorded_packets);
        assert_eq!(out.trials.len(), 3);
        for t in &out.trials {
            assert_eq!(t.len() as u64, out.recorded_packets, "no drops expected");
            assert!(t.is_time_ordered());
        }
        for run in &out.report.runs {
            assert_eq!(run.metrics.u, 0.0, "no uniqueness variation");
            assert_eq!(run.metrics.o, 0.0, "no reordering");
            assert!(run.metrics.kappa > 0.9, "kappa {}", run.metrics.kappa);
        }
        assert!(
            out.report.degradation.is_clean(),
            "a clean local run must report zero degradation: {:?}",
            out.report.degradation
        );
    }

    #[test]
    fn matrix_covers_all_pairs_and_matches_report() {
        let out = quick(EnvKind::LocalSingle, 0.001, 17);
        assert_eq!(out.matrix.trials(), out.trials.len());
        assert_eq!(out.matrix.pairs(), 3); // 3 trials -> 3 pairs
        // The report's runs are exactly the matrix's baseline row.
        assert_eq!(out.report.runs.len(), out.trials.len() - 1);
        for (j, run) in out.report.runs.iter().enumerate() {
            let cell = out.matrix.get(0, j + 1).unwrap();
            assert_eq!(run.metrics, cell.metrics);
            assert_eq!(run.common, cell.common);
        }
        // The off-diagonal summary rides along in the serialized report.
        let summary = out.report.matrix.expect("matrix summary attached");
        assert_eq!(summary.trials, out.trials.len());
        assert_eq!(summary.pairs, 3);
        assert!(summary.kappa_min <= summary.kappa_median);
        assert!(summary.kappa_median <= summary.kappa_max);
        // Legacy labels are preserved on the baseline row.
        assert_eq!(out.report.runs[0].label, "B");
        assert_eq!(out.report.runs[1].label, "C");
        // Stage timings were recorded for real work.
        assert!(out.matrix.total_timings().total_ns() > 0);
    }

    #[test]
    fn streaming_mode_matches_batch_kappa_bitwise() {
        let mut profile = EnvKind::LocalSingle.profile();
        profile.runs = 3;
        let cfg = ExperimentConfig {
            profile,
            scale: 0.001,
            seed: 7,
        };
        let out = Experiment::new(cfg.clone())
            .streaming(StreamingMode {
                lookahead: None,
                snapshot_every: 500,
            })
            .run();
        let stream = out.report.stream.as_ref().expect("stream trail attached");
        assert_eq!(stream.lookahead, None);
        assert_eq!(stream.snapshot_every, 500);
        assert_eq!(stream.runs.len(), out.report.runs.len());
        // Raw-timestamp streaming is bit-identical to the batch analysis
        // of the re-zeroed trials only when each trial is time-ordered
        // (the uniform first-arrival shift then cancels in every
        // component); LocalSingle captures are, and the batch runs come
        // rezeroed out of the pipeline, so the gate is exact.
        assert!(out.trials.iter().all(|t| t.is_time_ordered()));
        for (trail, run) in stream.runs.iter().zip(out.report.runs.iter()) {
            assert_eq!(trail.label, run.label);
            assert_eq!(
                trail.final_kappa.to_bits(),
                run.metrics.kappa.to_bits(),
                "streaming κ must match batch κ bitwise for run {}",
                run.label
            );
            assert!(!trail.snapshots.is_empty(), "cadence produced snapshots");
            assert_eq!(trail.evicted, 0, "full lookahead never evicts");
            assert!(trail.peak_resident > 0);
        }
        // Streaming is an observer: trials and batch report are
        // unchanged vs the plain tuned run.
        let plain = Experiment::new(cfg).run();
        assert_eq!(plain.trials, out.trials);
    }

    /// The crash-tolerance sweep: checkpoint cadence x kill density, tap
    /// panics throughout, the retained capture cut at a seeded offset.
    #[test]
    fn supervised_streaming_survives_kills_and_panics_bit_identically() {
        let mut profile = EnvKind::LocalSingle.profile();
        profile.runs = 3;
        let cfg = ExperimentConfig {
            profile,
            scale: 0.001,
            seed: 7,
        };
        let mode = StreamingMode {
            lookahead: None,
            snapshot_every: 137,
        };
        let unsupervised = Experiment::new(cfg.clone()).streaming(mode).run();
        let u = unsupervised.report.stream.as_ref().expect("stream trail");
        // Every admitted packet of runs B.. passes the tap once.
        let tapped: u64 = unsupervised.trials[1..].iter().map(|t| t.len() as u64).sum();
        let panic_every = 457;
        let mut export_total = None;

        for (ci, checkpoint_every) in [32u64, 128, 512].into_iter().enumerate() {
            for (ki, kill_every) in [None, Some(383u64), Some(101)].into_iter().enumerate() {
                let cell = format!("checkpoint every {checkpoint_every}, kill every {kill_every:?}");
                let sup = SupervisorConfig {
                    checkpoint_every,
                    kill_every,
                    panic_every: Some(panic_every),
                    corrupt_capture_seed: Some(cfg.seed ^ (ci * 3 + ki + 1) as u64),
                };
                let out = Experiment::new(cfg.clone()).streaming(mode).supervised(sup).run();

                // Every fault fired, was survived, and none escaped (an
                // escaped panic would have failed this test).
                let rec = out.report.recovery.expect("recovery report attached");
                assert_eq!(rec.kills_survived, rec.kills_injected, "{cell}: every kill survived");
                match kill_every {
                    None => assert_eq!(rec.kills_injected, 0, "{cell}"),
                    Some(k) => {
                        // A tap that panics unwinds before its own kill
                        // check, so each caught panic can absorb one
                        // scheduled kill, and each run's tap counter
                        // restarts from zero.
                        let floor = (tapped / k)
                            .saturating_sub(rec.tap_panics_caught + cfg.profile.runs as u64);
                        assert!(
                            rec.kills_injected >= floor.max(1),
                            "{cell}: {} kills over {tapped} taps (floor {floor})",
                            rec.kills_injected
                        );
                        assert!(rec.records_replayed > 0, "{cell}: recoveries replay the journal");
                    }
                }
                assert!(rec.tap_panics_caught > 0, "{cell}: panic cadence must have fired");
                assert!(rec.checkpoints_taken > 1, "{cell}: cadence checkpoints were taken");
                assert!(rec.checkpoint_bytes_peak >= rec.checkpoint_bytes_last);
                assert!(rec.checkpoint_bytes_last > 0);

                // The hard contract: kills, panics, and recoveries are
                // invisible in the measurement — final κ AND the whole
                // snapshot trail are bit-identical to the uninterrupted
                // streaming run.
                let s = out.report.stream.as_ref().expect("stream trail");
                assert_eq!(s.runs.len(), u.runs.len());
                for (a, b) in s.runs.iter().zip(u.runs.iter()) {
                    assert_eq!(a.label, b.label);
                    assert_eq!(
                        a.final_kappa.to_bits(),
                        b.final_kappa.to_bits(),
                        "{cell}: supervised κ must be bit-identical for run {}",
                        a.label
                    );
                    assert_eq!(a.peak_resident, b.peak_resident);
                    assert_eq!(a.evicted, b.evicted);
                    assert_eq!(a.snapshots.len(), b.snapshots.len(), "{cell}: trail length");
                    for (x, y) in a.snapshots.iter().zip(b.snapshots.iter()) {
                        assert_eq!((x.seen_a, x.seen_b, x.common), (y.seen_a, y.seen_b, y.common));
                        assert_eq!(x.running.kappa.to_bits(), y.running.kappa.to_bits(), "{cell}");
                        assert_eq!(
                            x.window.metrics.kappa.to_bits(),
                            y.window.metrics.kappa.to_bits()
                        );
                    }
                }
                // Trials themselves are untouched by supervision.
                assert_eq!(out.trials, unsupervised.trials, "{cell}");

                // Salvage leg: the corrupted capture still yielded its
                // prefix, out of the same export in every cell.
                assert!(rec.salvaged_records > 0, "{cell}: salvage recovered a prefix");
                let total = rec.salvaged_records + rec.lost_records;
                assert_eq!(*export_total.get_or_insert(total), total, "{cell}: export size");
            }
        }
    }

    #[test]
    fn supervisor_with_no_faults_is_accounting_only() {
        let mut profile = EnvKind::LocalSingle.profile();
        profile.runs = 2;
        let cfg = ExperimentConfig {
            profile,
            scale: 0.001,
            seed: 21,
        };
        let mode = StreamingMode {
            lookahead: Some(64),
            snapshot_every: 200,
        };
        let out = Experiment::new(cfg.clone())
            .streaming(mode)
            .supervised(SupervisorConfig {
                checkpoint_every: 128,
                ..SupervisorConfig::default()
            })
            .run();
        let rec = out.report.recovery.expect("recovery report attached");
        assert_eq!(rec.kills_injected, 0);
        assert_eq!(rec.tap_panics_caught, 0);
        assert_eq!(rec.records_replayed, 0);
        assert!(rec.checkpoints_taken > 1);
        // Bounded-mode streaming still matches the unsupervised run.
        let plain = Experiment::new(cfg).streaming(mode).run();
        let a = &out.report.stream.as_ref().unwrap().runs;
        let b = &plain.report.stream.as_ref().unwrap().runs;
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.final_kappa.to_bits(), y.final_kappa.to_bits());
        }
    }

    /// Full scale: were the check still after the simulation, this test
    /// would spend seconds simulating a million packets first.
    #[test]
    #[should_panic(expected = "profile.runs = 1")]
    fn a_single_run_is_refused_before_simulating() {
        let mut profile = EnvKind::LocalSingle.profile();
        profile.runs = 1;
        Experiment::new(ExperimentConfig::full(profile)).run();
    }

    #[test]
    fn experiment_is_deterministic() {
        let a = quick(EnvKind::LocalSingle, 0.001, 42);
        let b = quick(EnvKind::LocalSingle, 0.001, 42);
        assert_eq!(a.trials, b.trials, "same seed, same capture");
        let c = quick(EnvKind::LocalSingle, 0.001, 43);
        assert_ne!(a.trials, c.trials, "different seed differs");
    }

    #[test]
    fn replays_reproduce_identical_packet_sets() {
        let out = quick(EnvKind::LocalSingle, 0.001, 9);
        let ids: Vec<Vec<_>> = out
            .trials
            .iter()
            .map(|t| t.observations().iter().map(|o| o.id).collect())
            .collect();
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[1], ids[2]);
    }

    #[test]
    fn dual_replayer_tags_both_nodes_and_reorders() {
        let out = quick(EnvKind::LocalDual, 0.004, 11);
        let t = &out.trials[0];
        let mut replayers: Vec<u16> = t
            .observations()
            .iter()
            .filter_map(|o| o.id.tag_fields().map(|(r, _, _)| r))
            .collect();
        replayers.dedup();
        let distinct: std::collections::HashSet<u16> = replayers.iter().copied().collect();
        assert_eq!(distinct.len(), 2, "both replayers must contribute");
        // The §6.2 signature: ordering variation appears.
        let any_reorder = out.report.runs.iter().any(|r| r.metrics.o > 0.0);
        assert!(any_reorder, "dual replayer must reorder");
    }

    #[test]
    fn three_replayers_also_work() {
        // Fig. 1 shows a THREE-way split; the runner is generic in the
        // replayer count even though the paper's tables use 1 and 2.
        let mut profile = EnvKind::LocalDual.profile();
        profile.replayers = 3;
        profile.runs = 2;
        let out = Experiment::new(ExperimentConfig {
            profile,
            scale: 0.003,
            seed: 31,
        })
        .run();
        let replayer_ids: std::collections::HashSet<u16> = out.trials[0]
            .observations()
            .iter()
            .filter_map(|o| o.id.tag_fields().map(|(r, _, _)| r))
            .collect();
        assert_eq!(replayer_ids.len(), 3, "all three replayers contribute");
        assert_eq!(out.trials[0].len() as u64, out.recorded_packets);
    }

    #[test]
    fn noisy_shared_drops_packets() {
        let out = quick(EnvKind::FabricShared40Noisy, 0.004, 13);
        let missing: usize = out.report.runs.iter().map(|r| r.missing).sum();
        let extra: usize = out.report.runs.iter().map(|r| r.extra).sum();
        assert!(
            missing + extra > 0,
            "noisy shared environment must lose packets"
        );
        let any_u = out.report.runs.iter().any(|r| r.metrics.u > 0.0);
        assert!(any_u);
    }

    #[test]
    fn fabric_less_consistent_than_local() {
        let local = quick(EnvKind::LocalSingle, 0.002, 21);
        let fabric = quick(EnvKind::FabricDedicated40A, 0.002, 21);
        assert!(
            fabric.report.mean.i > local.report.mean.i * 3.0,
            "FABRIC I {} vs local {}",
            fabric.report.mean.i,
            local.report.mean.i
        );
        assert!(fabric.report.mean.kappa < local.report.mean.kappa);
    }
}
