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
//!    (re-zeroed to their own first arrival, as Eqs. 3–4 require), and
//!    the simulator, recording included, is freed. The
//!    sharded all-pairs engine computes the full κ matrix; its baseline
//!    row (everything vs run A) is what the paper's tables report, and
//!    the off-diagonal summary quantifies the run-to-run spread §7's run
//!    lists exhibit.

use choir_capture::{Recorder, RecorderConfig};
use choir_core::metrics::allpairs::{all_pairs_sharded, KappaMatrix};
use choir_core::metrics::report::{RunReport, TrialComparison};
use choir_core::metrics::Trial;
use choir_core::replay::middlebox::{ChoirMiddlebox, MiddleboxConfig};
use choir_dpdk::ControlMsg;
use choir_netsim::clock::{NodeClock, PtpModel};
use choir_netsim::nic::{NicRxModel, NicTxModel, SharedVfModel, UtilProcess};
use choir_netsim::rng::{DetRng, Jitter};
use choir_netsim::time::MS;
use choir_netsim::topology::TopologyBuilder;
use choir_netsim::{Sim, SimConfig, SimStats};
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

/// One experiment: what to run ([`ExperimentConfig`]), then [`run`](Self::run).
///
/// ```no_run
/// use choir_testbed::{EnvKind, Experiment, ExperimentConfig};
///
/// let cfg = ExperimentConfig::full(EnvKind::LocalSingle.profile());
/// let out = Experiment::new(cfg).run();
/// assert_eq!(out.report.runs.len(), out.trials.len() - 1);
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    cfg: ExperimentConfig,
}

impl Experiment {
    /// An experiment over `cfg`.
    pub fn new(cfg: ExperimentConfig) -> Self {
        Experiment { cfg }
    }

    /// Run the experiment end to end.
    ///
    /// # Panics
    /// Panics, before simulating anything, if `profile.runs < 2`: run A
    /// is the baseline, so one run leaves nothing to compare. Callers
    /// that take the run count from outside validate it where it enters.
    pub fn run(self) -> ExperimentOutput {
        execute(&self.cfg)
    }
}

fn execute(cfg: &ExperimentConfig) -> ExperimentOutput {
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
                in_band_control: false,
                tx_retries: 3,
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

    let rec = sim.add_node(
        "recorder",
        Recorder::new(RecorderConfig::default()),
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
    let mut topo =
        TopologyBuilder::with_switch(&mut sim, p.switch.clone(), 4 * p.replayers, "switch0");
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
    for _ in 0..p.runs {
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
        // Harvest this run's capture (cut + drain) before the next starts.
        let mut cut = sim.with_app::<Recorder, _>(rec, |r| r.take_trials());
        raw_trials.append(&mut cut);
    }

    let trials: Vec<Trial> = raw_trials.into_iter().map(Trial::rezeroed).collect();

    // Every middlebox's graceful-degradation counters ride along with
    // the consistency numbers: a κ is only interpretable next to how
    // degraded the run that produced it was.
    let mut degradation = choir_core::replay::DegradationReport::default();
    for &mb in &mbs {
        let d = sim.with_app::<ChoirMiddlebox, _>(mb, |m| m.degradation_report());
        degradation.absorb(&d);
    }
    let sim_stats = sim.sim_stats();
    let events = sim.events_processed();
    // The simulation has handed over everything the report needs; free
    // it (recording, mempool, event wheel, apps) before the analysis
    // allocates its indexes, so the two never share the peak.
    drop(sim);
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
    let matrix =
        all_pairs_sharded(&trials, shards).expect("captured trials fit the u32 index limit");
    // The paper's tables are the baseline row (runs B, C, … vs run A).
    let comparisons: Vec<TrialComparison> = matrix.baseline_row();
    let mut report = RunReport::new(label, comparisons)
        .expect("profile.runs >= 2 checked on entry, one trial per run")
        .with_degradation(degradation)
        .with_sim_stats(sim_stats_report(&sim_stats));
    if let Some(summary) = matrix.summary() {
        report = report.with_matrix(summary);
    }
    // `with_obs` drops empty snapshots, so this is a no-op unless the
    // caller configured the obs layer before running the experiment.
    report = report.with_obs(choir_core::obs::snapshot());

    ExperimentOutput {
        report,
        matrix,
        trials,
        recorded_packets,
        events,
        sim_stats,
        capture_wall_ns,
    }
}

/// Mirror the simulator's counters into the report's serializable form.
fn sim_stats_report(s: &SimStats) -> choir_core::metrics::SimStatsReport {
    choir_core::metrics::SimStatsReport {
        events_processed: s.events_processed,
        queue_depth_peak: s.queue_depth_peak,
        coalesced_events: s.coalesced_events,
        coalesced_packets: s.coalesced_packets,
        wire_events_elided: s.wire_events_elided,
        packets_per_event: s.packets_per_event(),
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
