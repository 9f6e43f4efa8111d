//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <target> [--scale F] [--seed N] [--runs N] [--json DIR] [--obs] [--epsilon F]
//!               [--shards N]
//!
//! targets:
//!   fig2 fig3          metric worst-case constructions (L and I reach 1)
//!   fig4               local single replayer histograms (IAT + latency)
//!   fig5               local dual replayer IAT histogram
//!   fig6 fig7 fig8     FABRIC 40 Gbps (dedicated-1 / shared / dedicated-2)
//!   fig9               FABRIC 80 Gbps (dedicated + shared IAT histograms)
//!   fig10              FABRIC shared 40 Gbps with noisy co-tenant
//!   noisy-dedicated    FABRIC dedicated 80 Gbps with noisy co-tenant
//!   table1             dual-replayer edit-script distance statistics
//!   table2             mean metrics for all nine environments
//!   matrix             all-pairs κ matrix + sharded-engine benchmark
//!                      (writes BENCH_matrix.json; default 16 runs)
//!   pipeline           end-to-end packets/sec, per-packet vs coalesced
//!                      hot path, with bit-identity gates; with
//!                      --shards N also runs the multi-domain fleet on
//!                      the sharded engine at 1..N shards, hard-gating
//!                      serial == sharded captures and κ bit-equality,
//!                      and records the speedup curve
//!                      (writes BENCH_pipeline.json)
//!   stream             streaming incremental-κ engine: full-lookahead
//!                      result gated bit-identical to the batch
//!                      analysis, bounded-window residency gated at the
//!                      configured window, bounded κ gated within
//!                      --epsilon of batch on drop-free pairs with its
//!                      error interval containing batch κ, window-size
//!                      convergence sweep, throughput in pkts/s
//!                      (writes BENCH_stream.json)
//!   recover            crash-tolerance sweep: kill-point density x
//!                      checkpoint cadence over the supervised streaming
//!                      engine, gated on the recovered κ and the whole
//!                      snapshot trail staying bit-identical to an
//!                      uninterrupted run, zero injected panics escaping
//!                      the supervisor, and salvage reading back exactly
//!                      the records preceding an injected truncation
//!                      (writes BENCH_recover.json)
//!   service            κ-as-a-service daemon: N tenants x M streams
//!                      driven over real sockets, hard-killed and
//!                      restarted mid-ingest, every served κ (live
//!                      snapshots, finals, matrix cells) hard-gated
//!                      bit-identical to post-hoc batch analysis, the
//!                      trial-store residency gated under its budget
//!                      while evictions churn, sustained-ingest curve
//!                      recorded (writes BENCH_service.json; --runs N
//!                      sets the tenant count)
//!
//! `--obs` (matrix / pipeline / stream / recover) additionally exercises the in-tree
//! observability layer: an obs-enabled pass must stay bit-identical to
//! the plain one, the disabled-path overhead is gated (pipeline), and
//! the span/counter profile is rendered and exported
//! (`OBS_snapshot.json`; see DESIGN.md §11).
//!   throughput         real-time replay engine rate (the 100 Gbps claim)
//!   chaos              fault-rate sweep: κ vs graceful degradation, seeded
//!   calibrate          compact paper-vs-measured sweep over all envs
//!   ablate             noise-mechanism ablation on the dedicated-NIC env
//!   dump-profile ENV   write an environment profile as editable JSON
//!   custom FILE        run a JSON environment profile (see dump-profile)
//!   ptp                IEEE 1588 servo convergence demo over the simulator
//!   all                everything above
//! ```
//!
//! `--scale` scales the per-trial packet count (1.0 = the paper's ~1M
//! packets at 40 Gbps). The default 0.25 keeps a full `repro all` in the
//! minutes range; metric values are scale-stable because they are
//! normalized (see EXPERIMENTS.md).

use std::io::Write;

use choir_bench::{fmt, paper, run_envs_parallel_with};
use choir_core::metrics::{PairAnalyzer, Trial};
use choir_core::replay::engine::run_replay_spin;
use choir_core::replay::recording::Recording;
use choir_dpdk::loopback::{LoopbackPort, RealClock, RealtimePlane};
use choir_dpdk::Mempool;
use choir_packet::{ChoirTag, FrameBuilder, FrameSpec};
use choir_testbed::{EnvKind, ExperimentOutput};

struct Opts {
    target: String,
    arg: Option<String>,
    scale: f64,
    seed: u64,
    runs: Option<usize>,
    json_dir: Option<String>,
    obs: bool,
    epsilon: f64,
    shards: usize,
}

fn parse_args() -> Opts {
    let mut args = std::env::args().skip(1);
    let mut opts = Opts {
        target: String::new(),
        arg: None,
        scale: 0.25,
        seed: 0x00C4_0112,
        runs: None,
        json_dir: None,
        obs: false,
        epsilon: 0.01,
        shards: 0,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--obs" => opts.obs = true,
            "--shards" => {
                opts.shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--shards needs an integer")
            }
            "--epsilon" => {
                opts.epsilon = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--epsilon needs a float")
            }
            "--scale" => {
                opts.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a float")
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer")
            }
            "--runs" => {
                opts.runs = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--runs needs an integer"),
                )
            }
            "--json" => opts.json_dir = args.next(),
            other if opts.target.is_empty() => opts.target = other.to_string(),
            other if opts.arg.is_none() => opts.arg = Some(other.to_string()),
            other => panic!("unexpected argument {other}"),
        }
    }
    if opts.target.is_empty() {
        opts.target = "all".into();
    }
    opts
}

fn main() {
    let opts = parse_args();
    match opts.target.as_str() {
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => figure_env(EnvKind::LocalSingle, "Figure 4", true, &opts),
        "fig5" => figure_env(EnvKind::LocalDual, "Figure 5", false, &opts),
        "fig6" => figure_env(EnvKind::FabricDedicated40A, "Figure 6", true, &opts),
        "fig7" => figure_env(EnvKind::FabricShared40, "Figure 7", true, &opts),
        "fig8" => figure_env(EnvKind::FabricDedicated40B, "Figure 8", true, &opts),
        "fig9" => {
            figure_env(EnvKind::FabricDedicated80, "Figure 9a", false, &opts);
            figure_env(EnvKind::FabricShared80, "Figure 9b", false, &opts);
        }
        "fig10" => figure_env(EnvKind::FabricShared40Noisy, "Figure 10", true, &opts),
        "noisy-dedicated" => {
            figure_env(EnvKind::FabricDedicated80Noisy, "Sec 7.1 (dedicated)", false, &opts)
        }
        "table1" => table1(&opts),
        "table2" => table2(&opts),
        "matrix" => matrix(&opts),
        "pipeline" => pipeline(&opts),
        "stream" => stream(&opts),
        "recover" => recover(&opts),
        "service" => service(&opts),
        "throughput" => throughput(),
        "chaos" => chaos(&opts),
        "calibrate" => calibrate(&opts),
        "ablate" => ablate(&opts),
        "demo-pcaps" => demo_pcaps(),
        "dump-profile" => dump_profile(&opts),
        "custom" => custom(&opts),
        "ptp" => ptp_demo(),
        "all" => {
            fig2();
            fig3();
            figure_env(EnvKind::LocalSingle, "Figure 4", true, &opts);
            figure_env(EnvKind::LocalDual, "Figure 5", false, &opts);
            table1(&opts);
            figure_env(EnvKind::FabricDedicated40A, "Figure 6", true, &opts);
            figure_env(EnvKind::FabricShared40, "Figure 7", true, &opts);
            figure_env(EnvKind::FabricDedicated40B, "Figure 8", true, &opts);
            figure_env(EnvKind::FabricDedicated80, "Figure 9a", false, &opts);
            figure_env(EnvKind::FabricShared80, "Figure 9b", false, &opts);
            figure_env(EnvKind::FabricDedicated80Noisy, "Sec 7.1 (dedicated)", false, &opts);
            figure_env(EnvKind::FabricShared40Noisy, "Figure 10", true, &opts);
            table2(&opts);
            throughput();
        }
        other => {
            eprintln!("unknown target {other}; see source header for the list");
            std::process::exit(2);
        }
    }
}

fn run(kind: EnvKind, opts: &Opts) -> ExperimentOutput {
    let mut profile = kind.profile();
    if let Some(r) = opts.runs {
        profile.runs = r;
    }
    let out = choir_testbed::Experiment::new(choir_testbed::ExperimentConfig {
        profile,
        scale: opts.scale,
        seed: opts.seed,
    })
    .run();
    write_json(kind, &out, opts);
    out
}

fn write_json(kind: EnvKind, out: &ExperimentOutput, opts: &Opts) {
    if let Some(dir) = &opts.json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        let path = format!("{dir}/{}.json", kind.label().replace([' ', '.'], "_"));
        let mut f = std::fs::File::create(&path).expect("create json");
        let body = serde_json::to_string_pretty(&out.report).expect("serialize report");
        f.write_all(body.as_bytes()).expect("write json");
        println!("  [wrote {path}]");
    }
}

/// Fig. 2: the maximum-L construction scores exactly L = 1.
fn fig2() {
    println!("== Figure 2: maximum possible L situation ==");
    let t_end = 1_000_000u64;
    let mut a = Trial::new();
    let mut b = Trial::new();
    for i in 0..5u64 {
        a.push_tagged(0, 0, i, 0);
    }
    a.push_tagged(9, 0, 0, t_end);
    b.push_tagged(9, 0, 1, 0);
    for i in 0..5u64 {
        b.push_tagged(0, 0, i, t_end);
    }
    let l = PairAnalyzer::new(&a, &b).metrics().l;
    println!("   common packets at opposite ends of A and B -> L = {l}");
    assert!((l - 1.0).abs() < 1e-12);
    println!("   normalization bound reached exactly (paper: max value used as denominator)\n");
}

/// Fig. 3: the maximum-I construction scores exactly I = 1.
fn fig3() {
    println!("== Figure 3: maximum possible I situation ==");
    let t = 1_000_000u64;
    let n = 6u64;
    let mut a = Trial::new();
    a.push_tagged(0, 0, 0, 0);
    for i in 1..n {
        a.push_tagged(0, 0, i, t);
    }
    let mut b = Trial::new();
    for i in 0..n - 1 {
        b.push_tagged(0, 0, i, 0);
    }
    b.push_tagged(0, 0, n - 1, t);
    let i_val = PairAnalyzer::new(&a, &b).metrics().i;
    println!("   first/last common packets at opposite extremes -> I = {i_val}");
    assert!((i_val - 1.0).abs() < 1e-12);
    println!("   normalization bound reached exactly\n");
}

/// Run one environment and print its histograms and per-run metrics.
fn figure_env(kind: EnvKind, title: &str, latency_hist: bool, opts: &Opts) {
    println!(
        "== {title}: {} (scale {}, seed {}) ==",
        kind.label(),
        opts.scale,
        opts.seed
    );
    let out = run(kind, opts);
    println!(
        "   {} packets per trial, {} runs, {} sim events",
        out.trials[0].len(),
        out.trials.len(),
        out.events
    );
    let row = paper::row_for(kind);
    print!("{}", fmt::run_summary(&out.report, &row));
    println!("-- IAT delta histogram (all runs vs run A) --");
    print!("{}", out.report.merged_iat_hist().render_ascii(48));
    if latency_hist {
        println!("-- latency delta histogram (all runs vs run A) --");
        print!("{}", out.report.merged_latency_hist().render_ascii(48));
    }
    println!();
}

/// Table 1: edit-script distance statistics for the dual-replayer runs.
fn table1(opts: &Opts) {
    println!("== Table 1: dual-replayer edit-script distances ==");
    let out = run(EnvKind::LocalDual, opts);
    println!(
        "{:<4} | {:>12} {:>12} | {:>12} {:>12} | {:>8} {:>8}   (paper values in parens)",
        "Run", "Mean", "(sigma)", "Abs.Mean", "(sigma)", "Min", "Max"
    );
    for (r, p) in out.report.runs.iter().zip(paper::table1().iter()) {
        let s = r.edit_stats;
        println!(
            "{:<4} | {:>12.2} {:>12.2} | {:>12.2} {:>12.2} | {:>8} {:>8}",
            r.label, s.mean, s.stddev, s.abs_mean, s.abs_stddev, s.min, s.max
        );
        println!(
            "     | ({:>10.2}) ({:>10.2}) | ({:>10.2}) ({:>10.2}) | ({:>6}) ({:>6})",
            p.1, p.2, p.3, p.4, p.5, p.6
        );
    }
    let total: usize = out.report.runs.iter().map(|r| r.moved).sum();
    let frac = out.report.runs.iter().map(|r| r.moved as f64 / r.common.max(1) as f64).sum::<f64>()
        / out.report.runs.len() as f64;
    println!(
        "moved packets total {total}; mean fraction of capture {:.1}% (paper: {} = {:.1}%)\n",
        frac * 100.0,
        paper::TABLE1_EDIT_SCRIPT_PACKETS,
        paper::TABLE1_EDIT_SCRIPT_FRACTION * 100.0
    );
}

/// Table 2: mean metrics for every environment (environments simulated
/// in parallel across the host's cores).
fn table2(opts: &Opts) {
    println!("== Table 2: mean consistency metrics per environment ==");
    print!("{}", fmt::table2_header());
    let kinds = EnvKind::all();
    let outs = run_envs_parallel_with(&kinds, opts.scale, opts.seed, opts.runs);
    for (kind, out) in kinds.iter().zip(outs) {
        write_json(*kind, &out, opts);
        let row = paper::row_for(*kind);
        print!("{}", fmt::table2_pair(*kind, &row.mean, &out.report.mean));
    }
    println!();
}

/// All-pairs κ matrix over one environment's runs, with the consistency
/// engine run both ways over the same trials:
///
/// - **sharded**: the production pipeline — the bounded worker pool over
///   shared `TrialIndex`es;
/// - **serial**: the reference pipeline, single-threaded.
///
/// The two must agree bit-for-bit; the timings and the per-stage
/// breakdown are written to `BENCH_matrix.json`.
fn matrix(opts: &Opts) {
    use choir_core::metrics::allpairs::{
        all_pairs_blocked_with, all_pairs_serial_with, all_pairs_sharded_with, pair_count,
    };
    use choir_core::metrics::KappaConfig;
    use std::time::Instant;

    let mut profile = EnvKind::LocalSingle.profile();
    profile.runs = opts.runs.unwrap_or(16);
    println!(
        "== matrix: all-pairs κ over {} runs of {} (scale {}, seed {}) ==",
        profile.runs,
        profile.kind.label(),
        opts.scale,
        opts.seed
    );
    let out = choir_testbed::Experiment::new(choir_testbed::ExperimentConfig {
        profile,
        scale: opts.scale,
        seed: opts.seed,
    })
    .run();
    let trials = &out.trials;
    let n = trials.len();
    let pairs = pair_count(n);
    let cfg = KappaConfig::paper();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "   {} trials x {} packets -> {} pairs; {} CPU(s), shards = {}",
        n,
        trials[0].len(),
        pairs,
        cpus,
        cpus
    );

    // The sharded engine: per-trial indexes built once, bounded pool.
    let t_sharded = Instant::now();
    let (m, engine) = all_pairs_sharded_with(trials, cpus, &cfg).expect("index bench trials");
    let sharded_ns = t_sharded.elapsed().as_nanos() as u64;

    // The single-thread reference pipeline — the ground truth.
    let t_serial = Instant::now();
    let serial = all_pairs_serial_with(trials, &cfg);
    let serial_ns = t_serial.elapsed().as_nanos() as u64;

    for (k, cell) in m.cells.iter().enumerate() {
        assert_eq!(
            cell.metrics.kappa.to_bits(),
            serial.cells[k].metrics.kappa.to_bits(),
            "sharded vs serial mismatch at {}",
            cell.label
        );
    }
    println!("   bit-identical κ across sharded / serial paths ({pairs} pairs)");

    // Block-size sweep gate: the cache-blocked scheduler must be
    // bit-identical to the serial reference at degenerate and typical
    // block sizes, serial and parallel alike.
    for &block in &[1usize, 2, n.max(1)] {
        for &shards in &[1usize, cpus] {
            let (mb, _) = all_pairs_blocked_with(trials, shards, block, &cfg)
                .expect("index bench trials");
            for (k, cell) in mb.cells.iter().enumerate() {
                assert_eq!(
                    cell.metrics.kappa.to_bits(),
                    serial.cells[k].metrics.kappa.to_bits(),
                    "blocked(block={block}, shards={shards}) vs serial mismatch at {}",
                    cell.label
                );
            }
        }
    }
    println!("   bit-identical κ across blocked schedules (blocks 1/2/{n}, shards 1/{cpus})");

    print!("{}", fmt::kappa_matrix(&m));
    let summary = m.summary().expect("two or more trials");
    println!(
        "   off-diagonal κ: min {:.4}  median {:.4}  max {:.4}  (baseline-row mean {:.4})",
        summary.kappa_min, summary.kappa_median, summary.kappa_max, out.report.mean.kappa
    );
    let totals = m.total_timings();
    print!("   {}", fmt::stage_timings(&totals, pairs));

    let speedup_serial = serial_ns as f64 / sharded_ns.max(1) as f64;
    let pairs_per_sec = pairs as f64 / (sharded_ns.max(1) as f64 / 1e9);
    println!(
        "   sharded {:.1} ms ({:.0} pairs/s, peak {} worker(s)) | serial {:.1} ms",
        sharded_ns as f64 / 1e6,
        pairs_per_sec,
        engine.peak_workers,
        serial_ns as f64 / 1e6,
    );
    println!(
        "   speedup vs serial {speedup_serial:.2}x  (index build {:.2} ms)",
        engine.index_build_ns as f64 / 1e6
    );

    // --obs: one extra sharded pass with the obs layer live, kept out of
    // the timed comparisons above so the benchmark numbers stay clean.
    // The instrumented engine must still match the serial reference
    // bit-for-bit.
    let obs_snap = if opts.obs {
        use choir_core::obs;
        obs::configure(&obs::ObsConfig {
            enabled: true,
            ring_capacity: 4096,
        });
        obs::reset();
        obs::set_enabled(true);
        let (m_obs, _) = all_pairs_sharded_with(trials, cpus, &cfg).expect("index bench trials");
        for (k, cell) in m_obs.cells.iter().enumerate() {
            assert_eq!(
                cell.metrics.kappa.to_bits(),
                serial.cells[k].metrics.kappa.to_bits(),
                "obs-enabled sharded engine must stay bit-identical at {}",
                cell.label
            );
        }
        let snap = obs::snapshot();
        obs::set_enabled(false);
        println!("   obs-enabled sharded pass bit-identical to serial ({pairs} pairs)");
        print!("{}", fmt::render_obs(&snap));
        Some(snap)
    } else {
        None
    };

    #[derive(serde::Serialize)]
    struct MatrixBench {
        trials: usize,
        pairs: usize,
        packets_per_trial: usize,
        cpus: usize,
        shards_used: usize,
        peak_workers: usize,
        block_size: usize,
        index_build_ns: u64,
        sharded_ns: u64,
        serial_ns: u64,
        speedup_vs_serial: f64,
        pairs_per_sec: f64,
        stage_totals: choir_core::metrics::StageTimings,
        summary: choir_core::metrics::MatrixSummary,
        obs: Option<choir_core::ObsSnapshot>,
    }
    let bench = MatrixBench {
        trials: n,
        pairs,
        packets_per_trial: trials[0].len(),
        cpus,
        shards_used: engine.shards_used,
        peak_workers: engine.peak_workers,
        block_size: engine.block_size,
        index_build_ns: engine.index_build_ns,
        sharded_ns,
        serial_ns,
        speedup_vs_serial: speedup_serial,
        pairs_per_sec,
        stage_totals: totals,
        summary,
        obs: obs_snap,
    };
    let body = serde_json::to_string_pretty(&bench).expect("serialize bench record");
    std::fs::write("BENCH_matrix.json", body).expect("write BENCH_matrix.json");
    println!("   [wrote BENCH_matrix.json]\n");
}

/// End-to-end hot-path benchmark: the full generate → forward → record →
/// replay → capture pipeline timed under the reference per-packet event
/// path (`BinaryHeap`, one `Ev::Deliver` per packet) and under the coalesced
/// timing-wheel path, reported as packets/sec. Correctness gates — the
/// CI smoke step fails ONLY on these, never on throughput:
///
/// - same seed ⇒ byte-identical captures within each path (every run is
///   executed twice and every observation compared), and κ = 1 between
///   the repeats;
/// - the timing wheel pops events in exactly the heap's `(time, seq)`
///   order, so wheel and heap captures are identical at equal coalescing
///   settings.
///
/// Writes `BENCH_pipeline.json`, seeding the end-to-end throughput
/// trajectory.
fn pipeline(opts: &Opts) {
    use choir_core::metrics::report::analyze_with;
    use choir_core::metrics::KappaConfig;
    use choir_netsim::QueueKind;
    use choir_testbed::{sim_stats_report, Experiment, SimTuning};
    use std::time::Instant;

    let mut profile = EnvKind::LocalSingle.profile();
    if let Some(r) = opts.runs {
        profile.runs = r;
    }
    let runs = profile.runs;
    let cfg = choir_testbed::ExperimentConfig {
        profile,
        scale: opts.scale,
        seed: opts.seed,
    };
    println!(
        "== pipeline: end-to-end hot path, per-packet vs coalesced (scale {}, seed {}, {} runs) ==",
        opts.scale, opts.seed, runs
    );

    let timed = |tuning: SimTuning| {
        let t = Instant::now();
        let out = Experiment::new(cfg.clone()).tuning(tuning).run();
        (t.elapsed().as_nanos() as u64, out)
    };

    // Each path runs REPS times: the repeats feed the bit-identity
    // gates, and the minimum capture time is the throughput estimate
    // (the noise-robust choice on a shared machine — any slower sample
    // is the same deterministic work plus interference). Reps alternate
    // old/new so both paths sample the same load windows.
    const REPS: usize = 3;
    let (old_total_ns, old) = timed(SimTuning::per_packet());
    let (new_total_ns, new) = timed(SimTuning::default());
    let mut old_reruns = Vec::new();
    let mut new_reruns = Vec::new();
    for _ in 1..REPS {
        old_reruns.push(timed(SimTuning::per_packet()).1);
        new_reruns.push(timed(SimTuning::default()).1);
    }
    // Same coalescing on the reference heap: isolates the wheel's order.
    let (_, heap_ref) = timed(SimTuning {
        queue: QueueKind::Heap,
        ..SimTuning::default()
    });
    // The benchmark proper is the capture pipeline; the all-pairs κ
    // analysis appended by Experiment::run is path-independent work that
    // `repro matrix` benchmarks on its own.
    let old_ns = old_reruns
        .iter()
        .map(|o| o.capture_wall_ns)
        .fold(old.capture_wall_ns, u64::min);
    let new_ns = new_reruns
        .iter()
        .map(|o| o.capture_wall_ns)
        .fold(new.capture_wall_ns, u64::min);

    // -- correctness gates (the only things that may fail this target) --
    for rerun in &old_reruns {
        assert_eq!(
            old.trials, rerun.trials,
            "per-packet path: same seed must produce byte-identical captures"
        );
    }
    for rerun in &new_reruns {
        assert_eq!(
            new.trials, rerun.trials,
            "coalesced path: same seed must produce byte-identical captures"
        );
    }
    assert_eq!(
        new.trials, heap_ref.trials,
        "timing wheel must pop events in exactly the heap's (time, seq) order"
    );
    let kcfg = KappaConfig::paper();
    for (i, (a, b)) in new.trials.iter().zip(&new_reruns[0].trials).enumerate() {
        let kappa = analyze_with(format!("repeat-{i}"), a, b, &kcfg).metrics.kappa;
        assert!(
            (kappa - 1.0).abs() < f64::EPSILON,
            "repeat of trial {i} must score kappa = 1, got {kappa}"
        );
    }
    println!(
        "   bit-identity: per-packet repeat OK, coalesced repeat OK (kappa = 1), wheel == heap OK"
    );

    let total_packets: u64 = new.trials.iter().map(|t| t.len() as u64).sum();
    let old_pps = total_packets as f64 / (old_ns.max(1) as f64 / 1e9);
    let new_pps = total_packets as f64 / (new_ns.max(1) as f64 / 1e9);
    let speedup = new_pps / old_pps.max(f64::MIN_POSITIVE);
    println!(
        "   per-packet path: {:>8.1} ms capture ({:>7.1} ms with analysis), {:>10.0} pps  ({} events, queue depth peak {})",
        old_ns as f64 / 1e6,
        old_total_ns as f64 / 1e6,
        old_pps,
        old.sim_stats.events_processed,
        old.sim_stats.queue_depth_peak,
    );
    println!(
        "   coalesced path:  {:>8.1} ms capture ({:>7.1} ms with analysis), {:>10.0} pps  ({} events, queue depth peak {})",
        new_ns as f64 / 1e6,
        new_total_ns as f64 / 1e6,
        new_pps,
        new.sim_stats.events_processed,
        new.sim_stats.queue_depth_peak,
    );
    println!(
        "   coalescing: {} burst events carried {} packets ({:.2} packets/event overall), {} wire events elided",
        new.sim_stats.coalesced_events,
        new.sim_stats.coalesced_packets,
        new.sim_stats.packets_per_event(),
        new.sim_stats.wire_events_elided,
    );
    println!(
        "   speedup: {speedup:.2}x{}",
        if speedup < 2.0 {
            "  (below the 2x target — informational, not a failure)"
        } else {
            ""
        }
    );

    // -- observability pass (--obs): overhead gate + bit-identity -------
    //
    // Every run above executed with the obs layer unconfigured, so
    // `new_ns` is the min-of-REPS *plain* capture time. Interleave
    // disabled and enabled reps (same load windows for both), gate the
    // disabled path at plain + 1% + a 5 ms noise floor, and report the
    // enabled overhead informationally. Both variants must reproduce the
    // plain captures byte-for-byte — instrumentation may not touch
    // simulated time or any RNG stream. Methodology: DESIGN.md §11.
    let obs_snap = if opts.obs {
        use choir_core::obs;
        obs::configure(&obs::ObsConfig {
            enabled: false,
            ring_capacity: 4096,
        });
        let mut disabled_ns = u64::MAX;
        let mut enabled_ns = u64::MAX;
        for _ in 0..REPS {
            obs::set_enabled(false);
            let (_, out) = timed(SimTuning::default());
            disabled_ns = disabled_ns.min(out.capture_wall_ns);
            assert_eq!(
                out.trials, new.trials,
                "obs-disabled run must be bit-identical to the plain run"
            );
            obs::reset();
            obs::set_enabled(true);
            let (_, out) = timed(SimTuning::default());
            enabled_ns = enabled_ns.min(out.capture_wall_ns);
            assert_eq!(
                out.trials, new.trials,
                "obs-enabled run must be bit-identical to the plain run"
            );
        }
        let snap = obs::snapshot();
        obs::set_enabled(false);
        let allowed_ns = new_ns + new_ns / 100 + 5_000_000;
        assert!(
            disabled_ns <= allowed_ns,
            "obs disabled-path overhead exceeds 1% (+5 ms floor): plain {new_ns} ns, disabled {disabled_ns} ns"
        );
        println!(
            "   obs: bit-identical with layer disabled and enabled; capture min plain {:.1} ms, disabled {:.1} ms, enabled {:.1} ms ({:+.1}%)",
            new_ns as f64 / 1e6,
            disabled_ns as f64 / 1e6,
            enabled_ns as f64 / 1e6,
            100.0 * (enabled_ns as f64 - new_ns as f64) / new_ns.max(1) as f64,
        );
        print!("{}", fmt::render_obs(&snap));
        let body = serde_json::to_string_pretty(&snap).expect("serialize obs snapshot");
        std::fs::write("OBS_snapshot.json", body).expect("write OBS_snapshot.json");
        println!("   [wrote OBS_snapshot.json]");
        Some(snap)
    } else {
        None
    };

    // -- multicore pass (--shards N): the sharded discrete-event engine --
    //
    // Runs the multi-domain ring fleet (2N sites, so every shard owns at
    // least two) on the serial engine and on 1..N shards. Hard gates —
    // the CI smoke step fails ONLY on these, never on speedup:
    //
    // - every sharded layout's merged fleet trials are byte-identical to
    //   the serial engine's, and every per-run κ matches bit for bit;
    // - every layout repeats bit-identically at a fixed seed;
    // - summing engine counters (events, remote packets) are exact
    //   across the partition.
    //
    // Wall-clock speedup is recorded with `host_cores` so the curve is
    // interpretable: on a single-core host the coordinated shards time-
    // slice one CPU and speedup < 1 is the expected, honest result.
    #[derive(serde::Serialize)]
    struct MulticorePoint {
        shards: usize,
        capture_ns: u64,
        speedup_vs_serial: f64,
        sync_windows: u64,
        cross_shard_packets: u64,
    }
    #[derive(serde::Serialize)]
    struct MulticoreBench {
        sites: usize,
        runs: usize,
        scale: f64,
        packets_per_trial: usize,
        host_cores: usize,
        serial_capture_ns: u64,
        deterministic: bool,
        curve: Vec<MulticorePoint>,
    }
    let multicore = if opts.shards > 0 {
        use choir_testbed::{run_multidomain, MultiDomainConfig, MultiDomainProfile};
        let sites = 2 * opts.shards.max(1);
        // The fleet multiplies the packet volume by `sites` and runs
        // 2 + 2N full experiments, so it gets a fraction of --scale;
        // every gate is scale-invariant.
        let mc_scale = (opts.scale * 0.1).max(0.0005);
        let mut profile = MultiDomainProfile::ring(sites);
        profile.runs = 2;
        let mc_runs = profile.runs;
        let mc_cfg = MultiDomainConfig {
            profile,
            scale: mc_scale,
            seed: opts.seed,
        };
        let host_cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        println!(
            "   multicore: {} sites x {} runs at scale {} on {} host core(s)",
            sites, mc_runs, mc_scale, host_cores
        );
        let md = |shards: usize| {
            run_multidomain(
                &mc_cfg,
                SimTuning {
                    shards,
                    ..SimTuning::default()
                },
            )
        };
        // Two serial executions: repeat-determinism gate + min-of-2 time.
        let serial = md(0);
        let serial_rep = md(0);
        assert_eq!(
            serial.trials, serial_rep.trials,
            "serial fleet must repeat byte-identically"
        );
        let serial_ns = serial.capture_wall_ns.min(serial_rep.capture_wall_ns);
        let mut curve = Vec::new();
        for shards in 1..=opts.shards {
            let a = md(shards);
            let b = md(shards);
            assert_eq!(
                a.trials, b.trials,
                "{shards}-shard fleet must repeat byte-identically"
            );
            assert_eq!(
                a.trials, serial.trials,
                "{shards}-shard fleet must match the serial engine byte for byte"
            );
            for (s, p) in serial.report.runs.iter().zip(&a.report.runs) {
                assert_eq!(
                    s.metrics.kappa.to_bits(),
                    p.metrics.kappa.to_bits(),
                    "κ must match the serial engine bit for bit at {shards} shards"
                );
            }
            assert_eq!(
                a.sim_stats.events_processed, serial.sim_stats.events_processed,
                "summed shard event counts must equal the serial engine's"
            );
            assert_eq!(
                a.sim_stats.remote_packets, serial.sim_stats.remote_packets,
                "summed cross-shard packet counts must equal the serial engine's"
            );
            let capture_ns = a.capture_wall_ns.min(b.capture_wall_ns);
            let speedup = serial_ns as f64 / capture_ns.max(1) as f64;
            println!(
                "   multicore {shards} shard(s): {:>8.1} ms capture, speedup {speedup:.2}x, {} sync windows, {} cross-shard packets",
                capture_ns as f64 / 1e6,
                a.sync.windows,
                a.sync.remote_packets,
            );
            curve.push(MulticorePoint {
                shards,
                capture_ns,
                speedup_vs_serial: speedup,
                sync_windows: a.sync.windows,
                cross_shard_packets: a.sync.remote_packets,
            });
        }
        println!(
            "   multicore determinism: serial == sharded captures and κ bit-equal at every layout"
        );
        Some(MulticoreBench {
            sites,
            runs: mc_runs,
            scale: mc_scale,
            packets_per_trial: serial.trials[0].len(),
            host_cores,
            serial_capture_ns: serial_ns,
            deterministic: true,
            curve,
        })
    } else {
        None
    };

    #[derive(serde::Serialize)]
    struct PipelineBench {
        scale: f64,
        seed: u64,
        runs: usize,
        packets_per_trial: usize,
        total_packets: u64,
        per_packet_ns: u64,
        coalesced_ns: u64,
        per_packet_pps: f64,
        coalesced_pps: f64,
        speedup: f64,
        bit_identical: bool,
        per_packet_sim: choir_core::metrics::SimStatsReport,
        coalesced_sim: choir_core::metrics::SimStatsReport,
        multicore: Option<MulticoreBench>,
        obs: Option<choir_core::ObsSnapshot>,
    }
    let bench = PipelineBench {
        scale: opts.scale,
        seed: opts.seed,
        runs,
        packets_per_trial: new.trials[0].len(),
        total_packets,
        per_packet_ns: old_ns,
        coalesced_ns: new_ns,
        per_packet_pps: old_pps,
        coalesced_pps: new_pps,
        speedup,
        bit_identical: true,
        per_packet_sim: sim_stats_report(&old.sim_stats),
        coalesced_sim: sim_stats_report(&new.sim_stats),
        multicore,
        obs: obs_snap,
    };
    let body = serde_json::to_string_pretty(&bench).expect("serialize bench record");
    std::fs::write("BENCH_pipeline.json", body).expect("write BENCH_pipeline.json");
    println!("   [wrote BENCH_pipeline.json]\n");
}

/// Streaming incremental-κ benchmark with two hard correctness gates
/// (the CI smoke step fails ONLY on these, never on throughput):
///
/// - **exactness**: with full lookahead, the streaming engine's final
///   result must be bit-identical to the batch arena analysis
///   on every generated pair, at every tested chunking (including
///   packet-at-a-time and whole-trial-at-once);
/// - **boundedness**: with a lookahead window `w` on a trial at least
///   10× larger, peak resident packets must never exceed `w` — even
///   under the worst feeding order (all of A before any of B).
///
/// Throughput (packets/s through `push` + `finalize`) and the peak
/// resident window are reported and written to `BENCH_stream.json`.
fn stream(opts: &Opts) {
    use choir_core::metrics::allpairs::{pair_count, TrialIndex};
    use choir_core::metrics::report::trial_label;
    use choir_core::metrics::{
        IncrementalComparison, KappaConfig, Side, StreamConfig, StreamOutcome,
    };
    use std::time::Instant;

    let mut profile = EnvKind::LocalSingle.profile();
    profile.runs = opts.runs.unwrap_or(4);
    println!(
        "== stream: incremental κ over {} runs of {} (scale {}, seed {}) ==",
        profile.runs,
        profile.kind.label(),
        opts.scale,
        opts.seed
    );
    let out = choir_testbed::Experiment::new(choir_testbed::ExperimentConfig {
        profile,
        scale: opts.scale,
        seed: opts.seed,
    })
    .run();
    let trials = &out.trials;
    let n = trials.len();
    let per_trial = trials[0].len();
    let pairs = pair_count(n);
    println!("   {n} trials x {per_trial} packets -> {pairs} pairs");

    // Feed a pair into a fresh engine, alternating sides chunk by chunk
    // (`chunk >= len` degenerates to whole-side bursts).
    let stream_pair = |a: &Trial, b: &Trial, cfg: StreamConfig, chunk: usize| -> StreamOutcome {
        let mut eng = IncrementalComparison::new(cfg);
        let (oa, ob) = (a.observations(), b.observations());
        let (mut ia, mut ib) = (0usize, 0usize);
        while ia < oa.len() || ib < ob.len() {
            let ea = (ia + chunk).min(oa.len());
            eng.push_burst(Side::A, &oa[ia..ea]);
            ia = ea;
            let eb = (ib + chunk).min(ob.len());
            eng.push_burst(Side::B, &ob[ib..eb]);
            ib = eb;
        }
        eng.finalize("stream")
    };
    let full_cfg = StreamConfig {
        lookahead: None,
        snapshot_every: 0,
        kappa: KappaConfig::paper(),
    };

    // -- gate 1: full lookahead == batch, bit for bit, on every pair ----
    let indexes: Vec<TrialIndex<'_>> = trials
        .iter()
        .map(TrialIndex::build)
        .collect::<Result<_, _>>()
        .expect("index bench trials");
    let chunk_sizes = [1usize, 64, per_trial.max(1)];
    let kcfg = KappaConfig::paper();
    let mut full_kappa = 1.0f64;
    let mut full_common = 0usize;
    // (i, j, label, batch κ, batch common, drop-free) for the ε-gate.
    let mut batch_pairs: Vec<(usize, usize, String, f64, usize, bool)> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let label = format!("{}-{}", trial_label(i), trial_label(j));
            let batch = PairAnalyzer::from_indexes(&indexes[i], &indexes[j])
                .label(label.clone())
                .config(kcfg)
                .analyze();
            for &chunk in &chunk_sizes {
                let live = stream_pair(&trials[i], &trials[j], full_cfg, chunk);
                for (name, got, want) in [
                    ("kappa", live.comparison.metrics.kappa, batch.metrics.kappa),
                    ("u", live.comparison.metrics.u, batch.metrics.u),
                    ("o", live.comparison.metrics.o, batch.metrics.o),
                    ("l", live.comparison.metrics.l, batch.metrics.l),
                    ("i", live.comparison.metrics.i, batch.metrics.i),
                    (
                        "iat_within_10ns",
                        live.comparison.iat_within_10ns,
                        batch.iat_within_10ns,
                    ),
                ] {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "streaming {name} diverged from batch at pair {label}, chunk {chunk}"
                    );
                }
                assert_eq!(live.comparison.common, batch.common, "common at {label}");
                assert_eq!(live.comparison.missing, batch.missing, "missing at {label}");
                assert_eq!(live.comparison.extra, batch.extra, "extra at {label}");
                assert_eq!(live.evicted, 0, "full lookahead never evicts");
            }
            if i == 0 && j == 1 {
                full_kappa = batch.metrics.kappa;
                full_common = batch.common;
            }
            batch_pairs.push((
                i,
                j,
                label,
                batch.metrics.kappa,
                batch.common,
                batch.missing == 0 && batch.extra == 0,
            ));
        }
    }
    println!(
        "   full lookahead bit-identical to batch analysis: {pairs} pairs x {:?} record chunks",
        chunk_sizes
    );

    // -- throughput: min-of-REPS packet-at-a-burst pass over pair A-B ---
    const REPS: usize = 3;
    let total_pushed = (trials[0].len() + trials[1].len()) as u64;
    let mut full_ns = u64::MAX;
    for _ in 0..REPS {
        let t = Instant::now();
        let live = stream_pair(&trials[0], &trials[1], full_cfg, 256);
        full_ns = full_ns.min(t.elapsed().as_nanos() as u64);
        assert_eq!(live.comparison.metrics.kappa.to_bits(), full_kappa.to_bits());
    }
    let full_pps = total_pushed as f64 / (full_ns.max(1) as f64 / 1e9);
    println!(
        "   full lookahead: {:>8.2} ms for {} packets ({:>10.0} pkts/s), peak resident {}",
        full_ns as f64 / 1e6,
        total_pushed,
        full_pps,
        stream_pair(&trials[0], &trials[1], full_cfg, 256).peak_resident,
    );

    // -- gate 2: bounded window caps residency on a >= 10x trial --------
    // Worst-case feeding order: all of A, then all of B — without
    // eviction the whole first side would sit resident.
    let window = (per_trial / 16).max(4);
    assert!(
        per_trial >= 10 * window,
        "trial ({per_trial} packets) must be >= 10x the window ({window})"
    );
    let bounded_cfg = StreamConfig {
        lookahead: Some(window),
        snapshot_every: 0,
        kappa: KappaConfig::paper(),
    };
    let mut bounded_ns = u64::MAX;
    let mut bounded: Option<StreamOutcome> = None;
    for _ in 0..REPS {
        let mut eng = IncrementalComparison::new(bounded_cfg);
        let t = Instant::now();
        eng.push_burst(Side::A, trials[0].observations());
        eng.push_burst(Side::B, trials[1].observations());
        let live = eng.finalize("stream-bounded");
        bounded_ns = bounded_ns.min(t.elapsed().as_nanos() as u64);
        bounded = Some(live);
    }
    let bounded = bounded.expect("REPS >= 1");
    assert!(
        bounded.peak_resident <= window,
        "bounded mode must cap resident packets at the window: peak {} > {window}",
        bounded.peak_resident
    );
    let bounded_pps = total_pushed as f64 / (bounded_ns.max(1) as f64 / 1e9);
    // Even the worst-case feeding order must produce a *valid* (if
    // wide) error interval, and the occurrence-debt accounting must
    // reproduce the batch match count exactly.
    assert!(
        bounded.bounds.contains(full_kappa),
        "bounded κ interval [{}, {}] must contain batch κ {full_kappa}",
        bounded.bounds.lo,
        bounded.bounds.hi
    );
    assert_eq!(
        bounded.comparison.common + bounded.missed_matches,
        full_common,
        "missed-match accounting must be exact"
    );
    println!(
        "   bounded window {window}: peak resident {} (<= window), {} evicted, {:>10.0} pkts/s, kappa {:.4} (full {:.4}), bounds [{:.4}, {:.4}]",
        bounded.peak_resident,
        bounded.evicted,
        bounded_pps,
        bounded.comparison.metrics.kappa,
        full_kappa,
        bounded.bounds.lo,
        bounded.bounds.hi,
    );

    // -- gate 3 (ε): bounded κ vs batch κ on drop-free pairs ------------
    // Fed in arrival order (lock-step, packet at a time) — the reading a
    // live tap actually sees — the bounded engine's κ must land within ε
    // of batch on every drop-free pair, and its error interval must
    // contain batch κ on *every* pair. The old segment-local estimator
    // failed this by up to 2× on O-heavy pairs.
    let epsilon = opts.epsilon;
    let mut dropfree_checked = 0usize;
    for (i, j, label, batch_kappa, batch_common, dropfree) in &batch_pairs {
        let live = stream_pair(&trials[*i], &trials[*j], bounded_cfg, 1);
        assert!(
            live.bounds.contains(*batch_kappa),
            "pair {label}: interval [{}, {}] must contain batch κ {batch_kappa}",
            live.bounds.lo,
            live.bounds.hi
        );
        assert_eq!(
            live.comparison.common + live.missed_matches,
            *batch_common,
            "pair {label}: missed-match accounting must be exact"
        );
        if *dropfree {
            dropfree_checked += 1;
            let err = (live.comparison.metrics.kappa - batch_kappa).abs();
            assert!(
                err <= epsilon,
                "pair {label}: bounded κ {} vs batch {batch_kappa} — error {err:.6} > ε {epsilon}",
                live.comparison.metrics.kappa
            );
        }
    }
    // A synthetic drop-free pair with genuine reordering keeps the ε
    // gate meaningful even if every experiment pair had drops: run A's
    // packets with adjacent arrivals swapped every 7th position.
    let synth_b: Trial = {
        let mut obs = trials[0].observations().to_vec();
        let mut k = 0;
        while k + 1 < obs.len() {
            obs.swap(k, k + 1);
            k += 7;
        }
        obs.iter().map(|o| (o.id, o.t_ps)).collect()
    };
    let synth_batch = PairAnalyzer::new(&trials[0], &synth_b).metrics();
    let synth_live = stream_pair(&trials[0], &synth_b, bounded_cfg, 1);
    assert!(synth_live.bounds.contains(synth_batch.kappa));
    let synth_err = (synth_live.comparison.metrics.kappa - synth_batch.kappa).abs();
    assert!(
        synth_err <= epsilon,
        "synthetic drop-free pair: bounded κ error {synth_err:.6} > ε {epsilon}"
    );
    dropfree_checked += 1;
    println!(
        "   ε-gate: {dropfree_checked} drop-free pairs within ε = {epsilon} of batch κ \
         (+ interval containment on all {} pairs)",
        batch_pairs.len()
    );

    // -- window-size convergence sweep ----------------------------------
    // Worst-case (A then B) feeding of pair A-B at growing windows: the
    // interval must contain batch κ at every size and collapse to an
    // exact, bit-identical result once the window covers the trial.
    #[derive(serde::Serialize)]
    struct SweepEntry {
        window: usize,
        kappa: f64,
        kappa_lo: f64,
        kappa_hi: f64,
        width: f64,
        evicted: usize,
        missed_matches: usize,
        seals: usize,
        forced_seals: usize,
    }
    let mut sweep_windows = vec![
        (window / 8).max(4),
        (window / 4).max(4),
        (window / 2).max(4),
        window,
        2 * window,
        4 * window,
        per_trial,
    ];
    sweep_windows.sort_unstable();
    sweep_windows.dedup();
    let mut window_sweep: Vec<SweepEntry> = Vec::new();
    for &w in &sweep_windows {
        let cfg = StreamConfig {
            lookahead: Some(w),
            snapshot_every: 0,
            kappa: KappaConfig::paper(),
        };
        let mut eng = IncrementalComparison::new(cfg);
        eng.push_burst(Side::A, trials[0].observations());
        eng.push_burst(Side::B, trials[1].observations());
        let live = eng.finalize("stream-sweep");
        assert!(
            live.bounds.contains(full_kappa),
            "window {w}: interval [{}, {}] must contain batch κ {full_kappa}",
            live.bounds.lo,
            live.bounds.hi
        );
        if w >= per_trial {
            assert_eq!(
                live.comparison.metrics.kappa.to_bits(),
                full_kappa.to_bits(),
                "full-trial window must finalize bit-identically to batch"
            );
            assert_eq!(live.bounds.width(), 0.0);
        }
        window_sweep.push(SweepEntry {
            window: w,
            kappa: live.comparison.metrics.kappa,
            kappa_lo: live.bounds.lo,
            kappa_hi: live.bounds.hi,
            width: live.bounds.width(),
            evicted: live.evicted,
            missed_matches: live.missed_matches,
            seals: live.seals,
            forced_seals: live.forced_seals,
        });
    }
    println!("   window sweep (A-then-B worst case, batch κ {full_kappa:.4}):");
    for e in &window_sweep {
        println!(
            "     w {:>6}: κ {:.4} ∈ [{:.4}, {:.4}] width {:.4}, evicted {}, missed {}, seals {}+{}f",
            e.window, e.kappa, e.kappa_lo, e.kappa_hi, e.width, e.evicted, e.missed_matches,
            e.seals, e.forced_seals
        );
    }

    // -- observability pass (--obs): the instrumented engine must stay
    // bit-identical, both per-mode counter namespaces must agree exactly
    // with the measured outcomes (cadenced snapshots included), and the
    // stream.* profile is rendered + exported.
    let obs_snap = if opts.obs {
        use choir_core::obs;
        obs::configure(&obs::ObsConfig {
            enabled: true,
            ring_capacity: 4096,
        });
        obs::reset();
        obs::set_enabled(true);
        let snap_cfg = StreamConfig {
            snapshot_every: 256,
            ..full_cfg
        };
        let live = stream_pair(&trials[0], &trials[1], snap_cfg, 256);
        assert_eq!(
            live.comparison.metrics.kappa.to_bits(),
            full_kappa.to_bits(),
            "obs-enabled streaming pass must stay bit-identical"
        );
        let bounded_snap_cfg = StreamConfig {
            snapshot_every: 256,
            ..bounded_cfg
        };
        let mut eng = IncrementalComparison::new(bounded_snap_cfg);
        eng.push_burst(Side::A, trials[0].observations());
        eng.push_burst(Side::B, trials[1].observations());
        let blive = eng.finalize("stream-bounded-obs");
        let snap = obs::snapshot();
        obs::set_enabled(false);
        // Per-mode namespaces: one bounded and one unbounded finalize
        // ran under this scope, so every counter must equal its
        // outcome's number exactly — no cross-mode bleed.
        for (name, want) in [
            ("stream.full.packets_in", total_pushed),
            ("stream.full.matched", live.comparison.common as u64),
            ("stream.full.snapshots", live.snapshots.len() as u64),
            ("stream.full.peak_resident", live.peak_resident as u64),
            ("stream.bounded.packets_in", total_pushed),
            ("stream.bounded.matched", blive.comparison.common as u64),
            ("stream.bounded.evicted", blive.evicted as u64),
            ("stream.bounded.snapshots", blive.snapshots.len() as u64),
            ("stream.bounded.missed_matches", blive.missed_matches as u64),
            ("stream.bounded.seals", blive.seals as u64),
            ("stream.bounded.forced_seals", blive.forced_seals as u64),
            ("stream.bounded.peak_resident", blive.peak_resident as u64),
        ] {
            assert_eq!(
                snap.counter(name),
                Some(want),
                "obs counter {name} must match the measured outcome"
            );
        }
        assert!(
            live.snapshots.len() as u64 > 0,
            "cadenced obs pass must record snapshots"
        );
        println!(
            "   obs-enabled passes bit-identical; {} full + {} bounded snapshots, \
             per-mode counters agree with outcomes",
            live.snapshots.len(),
            blive.snapshots.len()
        );
        print!("{}", fmt::render_obs(&snap));
        Some(snap)
    } else {
        None
    };

    #[derive(serde::Serialize)]
    struct StreamBench {
        scale: f64,
        seed: u64,
        trials: usize,
        pairs: usize,
        packets_per_trial: usize,
        chunk_sizes: Vec<usize>,
        bit_identical: bool,
        full_lookahead_ns: u64,
        full_lookahead_pps: f64,
        bounded_window: usize,
        bounded_peak_resident: usize,
        bounded_evicted: usize,
        bounded_ns: u64,
        bounded_pps: f64,
        bounded_kappa: f64,
        bounded_kappa_lo: f64,
        bounded_kappa_hi: f64,
        bounded_missed_matches: usize,
        bounded_seals: usize,
        bounded_forced_seals: usize,
        batch_kappa: f64,
        epsilon: f64,
        dropfree_pairs_checked: usize,
        window_sweep: Vec<SweepEntry>,
        obs: Option<choir_core::ObsSnapshot>,
    }
    let bench = StreamBench {
        scale: opts.scale,
        seed: opts.seed,
        trials: n,
        pairs,
        packets_per_trial: per_trial,
        chunk_sizes: chunk_sizes.to_vec(),
        bit_identical: true,
        full_lookahead_ns: full_ns,
        full_lookahead_pps: full_pps,
        bounded_window: window,
        bounded_peak_resident: bounded.peak_resident,
        bounded_evicted: bounded.evicted,
        bounded_ns,
        bounded_pps,
        bounded_kappa: bounded.comparison.metrics.kappa,
        bounded_kappa_lo: bounded.bounds.lo,
        bounded_kappa_hi: bounded.bounds.hi,
        bounded_missed_matches: bounded.missed_matches,
        bounded_seals: bounded.seals,
        bounded_forced_seals: bounded.forced_seals,
        batch_kappa: full_kappa,
        epsilon,
        dropfree_pairs_checked: dropfree_checked,
        window_sweep,
        obs: obs_snap,
    };
    let body = serde_json::to_string_pretty(&bench).expect("serialize bench record");
    std::fs::write("BENCH_stream.json", body).expect("write BENCH_stream.json");
    println!("   [wrote BENCH_stream.json]\n");
}

/// Crash-tolerance sweep over the supervised streaming-κ engine.
///
/// For every (kill-point density × checkpoint cadence) cell the full
/// record-then-replay pipeline runs under
/// a supervised streaming [`choir_testbed::Experiment`], with tap
/// panics injected on a fixed cadence and the retained capture corrupted
/// at a seeded offset afterwards. Three hard gates, all enforced with
/// `assert!` so a violation exits non-zero:
///
/// 1. the recovered final κ AND the whole snapshot trail of every run
///    are bit-identical (`f64::to_bits`) to the uninterrupted streaming
///    reference, and the trials themselves are untouched;
/// 2. every injected kill and tap panic is survived — nothing escapes
///    the supervisor (an escaped panic would abort the process);
/// 3. salvage-reading a randomly truncated capture yields *exactly* the
///    records preceding the cut, record for record.
///
/// Writes `BENCH_recover.json` with recovery latency and replay
/// amplification (journal records re-fed per tapped packet) per cell.
fn recover(opts: &Opts) {
    use choir_capture::PcapChunkReader;
    use choir_packet::pcap::{parse_pcap, PcapRecord, PcapWriter};
    use choir_testbed::{Experiment, StreamingMode, SupervisorConfig};

    // Injected tap panics are part of the experiment: silence their
    // default-hook backtrace spam but delegate anything unexpected.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("injected tap fault"));
        if !injected {
            prev_hook(info);
        }
    }));

    let mut profile = EnvKind::LocalSingle.profile();
    profile.runs = opts.runs.unwrap_or(3);
    let runs = profile.runs;
    // A dense cell serializes thousands of checkpoints whose size grows
    // with the engine's seen-packet state, so the sweep runs at a
    // fraction of the requested `--scale`: every gate is scale-invariant
    // (bit-identity, survival, exact salvage); only the cost curves in
    // BENCH_recover.json stretch with packet count.
    let scale = (opts.scale * 0.04).max(0.002);
    let cfg = choir_testbed::ExperimentConfig {
        profile,
        scale,
        seed: opts.seed,
    };
    let mode = StreamingMode {
        lookahead: None,
        snapshot_every: 137,
    };
    println!(
        "== recover: crash-tolerance sweep over {} runs of {} (scale {} -> {}, seed {}) ==",
        runs,
        EnvKind::LocalSingle.label(),
        opts.scale,
        scale,
        opts.seed
    );

    // The uninterrupted reference every swept cell must reproduce bitwise.
    let reference = Experiment::new(cfg.clone()).streaming(mode).run();
    let ref_stream = reference.report.stream.as_ref().expect("reference trail");
    let per_trial = reference.trials[0].len();
    // Packets tapped per sweep cell: every admitted packet of runs B..,
    // the denominator of replay amplification.
    let tapped_total: u64 = reference.trials[1..].iter().map(|t| t.len() as u64).sum();
    println!("   reference: {} packets/trial, {} tapped per cell", per_trial, tapped_total);

    let cadences = [32u64, 128, 512];
    let kill_densities: [Option<u64>; 3] = [None, Some(383), Some(101)];
    let panic_every = Some(457);

    #[derive(serde::Serialize)]
    struct RecoverCell {
        checkpoint_every: u64,
        kill_every: Option<u64>,
        panic_every: Option<u64>,
        kills_injected: u64,
        kills_survived: u64,
        tap_panics_caught: u64,
        checkpoints_taken: u64,
        checkpoint_bytes_last: u64,
        checkpoint_bytes_peak: u64,
        records_replayed: u64,
        replay_amplification: f64,
        resume_latency_ns_avg: u64,
        salvaged_records: u64,
        lost_records: u64,
        bit_identical: bool,
    }
    let mut cells: Vec<RecoverCell> = Vec::new();
    let mut export_total: Option<u64> = None;

    for (ci, &checkpoint_every) in cadences.iter().enumerate() {
        for (ki, &kill_every) in kill_densities.iter().enumerate() {
            let sup = SupervisorConfig {
                checkpoint_every,
                kill_every,
                panic_every,
                corrupt_capture_seed: Some(opts.seed ^ ((ci * 3 + ki) as u64 + 1)),
            };
            let out = Experiment::new(cfg.clone()).streaming(mode).supervised(sup).run();
            let rec = out.report.recovery.expect("supervised run attaches recovery");

            // -- gate 2: every fault survived, none escaped ------------
            assert_eq!(
                rec.kills_survived, rec.kills_injected,
                "cadence {checkpoint_every}, kills {kill_every:?}: unsurvived kill"
            );
            if let Some(k) = kill_every {
                // A tap that panics unwinds before its own kill check, so
                // each caught panic can absorb at most one scheduled kill,
                // and each run's tap counter restarts from zero.
                let floor = (tapped_total / k).saturating_sub(rec.tap_panics_caught + runs as u64);
                assert!(
                    rec.kills_injected >= floor,
                    "kill cadence {k} under-fired: {} kills over {tapped_total} taps (floor {floor})",
                    rec.kills_injected
                );
                assert!(rec.records_replayed > 0, "recoveries must replay the journal");
            }
            assert!(
                rec.tap_panics_caught > 0,
                "panic cadence {panic_every:?} never fired over {tapped_total} taps"
            );
            assert!(rec.checkpoints_taken > 1, "cadence checkpoints were taken");

            // -- gate 1: recovery is invisible in the measurement ------
            let s = out.report.stream.as_ref().expect("supervised trail");
            assert_eq!(s.runs.len(), ref_stream.runs.len());
            for (a, b) in s.runs.iter().zip(ref_stream.runs.iter()) {
                assert_eq!(
                    a.final_kappa.to_bits(),
                    b.final_kappa.to_bits(),
                    "cadence {checkpoint_every}, kills {kill_every:?}: recovered κ diverged on run {}",
                    a.label
                );
                assert_eq!(a.peak_resident, b.peak_resident);
                assert_eq!(a.evicted, b.evicted);
                assert_eq!(a.snapshots.len(), b.snapshots.len(), "snapshot trail length");
                for (x, y) in a.snapshots.iter().zip(b.snapshots.iter()) {
                    assert_eq!((x.seen_a, x.seen_b, x.common), (y.seen_a, y.seen_b, y.common));
                    assert_eq!(
                        x.running.kappa.to_bits(),
                        y.running.kappa.to_bits(),
                        "snapshot κ diverged under cadence {checkpoint_every}, kills {kill_every:?}"
                    );
                    assert_eq!(x.window.metrics.kappa.to_bits(), y.window.metrics.kappa.to_bits());
                }
            }
            assert_eq!(out.trials, reference.trials, "supervision must not touch trials");

            // -- salvage accounting: same export, seeded cut -----------
            let total = rec.salvaged_records + rec.lost_records;
            assert!(rec.salvaged_records > 0, "salvage recovered a prefix");
            match export_total {
                None => export_total = Some(total),
                Some(t) => assert_eq!(t, total, "capture export size must not vary across cells"),
            }

            let faults = rec.kills_survived + rec.tap_panics_caught;
            let cell = RecoverCell {
                checkpoint_every,
                kill_every,
                panic_every,
                kills_injected: rec.kills_injected,
                kills_survived: rec.kills_survived,
                tap_panics_caught: rec.tap_panics_caught,
                checkpoints_taken: rec.checkpoints_taken,
                checkpoint_bytes_last: rec.checkpoint_bytes_last,
                checkpoint_bytes_peak: rec.checkpoint_bytes_peak,
                records_replayed: rec.records_replayed,
                replay_amplification: rec.records_replayed as f64 / tapped_total.max(1) as f64,
                resume_latency_ns_avg: rec.resume_latency_ns_total / faults.max(1),
                salvaged_records: rec.salvaged_records,
                lost_records: rec.lost_records,
                bit_identical: true,
            };
            println!(
                "   ckpt {:>4} kill {:>9} | {:>3} kills {:>2} panics {:>4} ckpts | replayed {:>6} (amp {:>6.4}) | resume {:>7} ns avg | salvage {}/{} | bit-identical",
                cell.checkpoint_every,
                cell.kill_every.map_or("off".into(), |k| format!("every {k}")),
                cell.kills_injected,
                cell.tap_panics_caught,
                cell.checkpoints_taken,
                cell.records_replayed,
                cell.replay_amplification,
                cell.resume_latency_ns_avg,
                cell.salvaged_records,
                total,
            );
            cells.push(cell);
        }
    }

    // -- gate 3: salvage yields exactly the records preceding the cut --
    // Fixed-size records make the byte layout predictable: 24-byte
    // global header, then 16-byte record headers framing equal-length
    // frames, so the expected prefix length is arithmetic on the cut
    // offset — no parser in the loop to agree with itself.
    let builder = FrameBuilder::new(256, 1, 2);
    let mut writer = PcapWriter::new(Vec::new()).expect("pcap header");
    for i in 0..400u64 {
        let f = builder.build_tagged_snap(ChoirTag::new(0, 0, i));
        writer.write_record(i * 1_000, &f).expect("pcap record");
    }
    let mut bytes = writer.finish().expect("pcap bytes");
    let full = parse_pcap(&bytes).expect("intact capture parses");
    assert_eq!(full.len(), 400);
    // Identical frames mean identical on-disk records; recover the
    // per-record byte size from the file itself rather than assuming
    // the builder's wire format.
    assert_eq!((bytes.len() - 24) % 400, 0, "records must be uniform");
    let rec_size = (bytes.len() - 24) / 400;
    let mut exact = true;
    for round in 0..32u64 {
        let mut cut_bytes = bytes.clone();
        let cut = choir_dpdk::fault::truncate_stream(&mut cut_bytes, opts.seed ^ round, 24);
        let expected = (cut as usize - 24) / rec_size;
        let mut salvaged: Vec<PcapRecord> = Vec::new();
        let mut reader = PcapChunkReader::new(&cut_bytes[..], 64).expect("header survives");
        loop {
            match reader.next_chunk() {
                Ok(Some(recs)) => salvaged.extend(recs),
                Ok(None) => break,
                Err(e) => {
                    salvaged.extend(e.salvaged);
                    break;
                }
            }
        }
        assert_eq!(
            salvaged.len(),
            expected,
            "cut at byte {cut}: salvage must recover every whole record before it"
        );
        assert_eq!(
            salvaged[..],
            full[..expected],
            "cut at byte {cut}: salvaged records must equal the batch prefix"
        );
        exact &= salvaged[..] == full[..expected];
    }
    bytes.clear();
    println!("   salvage exact-prefix gate: 32 seeded cuts, salvaged == batch prefix every time");

    // -- observability pass (--obs): supervised recovery under obs must
    // stay bit-identical, and the recover.* profile is rendered.
    let obs_snap = if opts.obs {
        use choir_core::obs;
        obs::configure(&obs::ObsConfig {
            enabled: true,
            ring_capacity: 4096,
        });
        obs::reset();
        obs::set_enabled(true);
        let sup = SupervisorConfig {
            checkpoint_every: cadences[1],
            kill_every: kill_densities[2],
            panic_every,
            corrupt_capture_seed: Some(opts.seed),
        };
        let out = Experiment::new(cfg.clone()).streaming(mode).supervised(sup).run();
        let s = out.report.stream.as_ref().expect("supervised trail");
        for (a, b) in s.runs.iter().zip(ref_stream.runs.iter()) {
            assert_eq!(
                a.final_kappa.to_bits(),
                b.final_kappa.to_bits(),
                "obs-enabled supervised pass must stay bit-identical"
            );
        }
        let snap = obs::snapshot();
        obs::set_enabled(false);
        println!("   obs-enabled supervised pass bit-identical to plain");
        print!("{}", fmt::render_obs(&snap));
        Some(snap)
    } else {
        None
    };

    let _ = std::panic::take_hook(); // drop the filter; later targets get the default

    #[derive(serde::Serialize)]
    struct RecoverBench {
        requested_scale: f64,
        scale: f64,
        seed: u64,
        runs: usize,
        packets_per_trial: usize,
        tapped_per_cell: u64,
        export_records: u64,
        salvage_prefix_exact: bool,
        cells: Vec<RecoverCell>,
        obs: Option<choir_core::ObsSnapshot>,
    }
    let bench = RecoverBench {
        requested_scale: opts.scale,
        scale,
        seed: opts.seed,
        runs,
        packets_per_trial: per_trial,
        tapped_per_cell: tapped_total,
        export_records: export_total.unwrap_or(0),
        salvage_prefix_exact: exact,
        cells,
        obs: obs_snap,
    };
    let body = serde_json::to_string_pretty(&bench).expect("serialize bench record");
    std::fs::write("BENCH_recover.json", body).expect("write BENCH_recover.json");
    println!("   [wrote BENCH_recover.json]\n");
}

/// κ-as-a-service gate: drive a real daemon over TCP with N tenants ×
/// M streams, hard-kill it mid-ingest, restart, finish, and require
/// every κ it ever served — live snapshots, final summaries, matrix
/// cells — to be bit-identical (`f64::to_bits`) to a post-hoc batch
/// analysis of the exact records sent. The trial store runs under a
/// budget small enough to force evictions throughout, and residency is
/// hard-gated under that budget. The sustained-ingest curve (records/s
/// per round) goes to `BENCH_service.json`.
fn service(opts: &Opts) {
    use choir_core::metrics::{all_pairs_sharded_with, KappaConfig, Observation};
    use choir_packet::ident::PacketId;
    use choir_service::{Client, Daemon, DaemonConfig, Response};
    use std::time::Instant;

    let tenants = opts.runs.unwrap_or(3).max(1);
    let streams: Vec<String> = ["base", "r1", "r2", "r3"].iter().map(|s| s.to_string()).collect();
    let per_stream = ((4_000.0 * opts.scale) as u64).max(400);
    println!(
        "== service: {tenants} tenants x {} streams, ~{per_stream} records each ==",
        streams.len()
    );

    fn lcg(s: &mut u64) -> u64 {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *s >> 33
    }
    let synth = |tenant: u64, stream: u64| -> Vec<Observation> {
        let mut seed = opts.seed ^ (tenant << 40) ^ (stream << 8) ^ 0x5EED;
        let mut out = Vec::new();
        let mut now = 1_000_000u64;
        for seq in 0..per_stream {
            now += 280_000 + lcg(&mut seed) % 40_000;
            if stream > 0 && lcg(&mut seed).is_multiple_of(97) {
                continue; // this run dropped the packet
            }
            let jitter = if stream == 0 { 0 } else { lcg(&mut seed) % 30_000 };
            out.push(Observation {
                id: PacketId::from_tag(&ChoirTag::new(tenant as u16, 0, seq)),
                t_ps: now + jitter,
            });
        }
        out
    };
    let trial_of = |obs: &[Observation]| {
        let mut t = Trial::new();
        for o in obs {
            t.push(o.id, o.t_ps);
        }
        t
    };
    let data: Vec<Vec<Vec<Observation>>> = (0..tenants)
        .map(|t| (0..streams.len()).map(|s| synth(t as u64, s as u64)).collect())
        .collect();
    let tenant_name = |t: usize| format!("tenant-{t}");

    // Budget ~1.5 trials per tenant: four trials each, so the store is
    // evicting for the entire run while the gate must still hold.
    let budget = per_stream * 24 * 3 / 2;
    let data_dir = std::env::temp_dir().join(format!("choir-repro-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let mut cfg = DaemonConfig::new(&data_dir);
    cfg.default_budget_bytes = budget;
    cfg.checkpoint_every_records = (per_stream * tenants as u64) / 2;
    cfg.snapshot_every = 256;

    #[derive(serde::Serialize)]
    struct CurvePoint {
        round: usize,
        records_total: u64,
        elapsed_ns: u64,
        rate_pps: f64,
    }
    let mut curve: Vec<CurvePoint> = Vec::new();
    let mut records_sent = 0u64;
    let t0 = Instant::now();

    // ---- phase 1: interleaved ingest of roughly the first half.
    let handle = Daemon::spawn(cfg.clone(), "127.0.0.1:0").expect("daemon spawn");
    let mut c = Client::connect(handle.addr()).expect("client connect");
    for t in 0..tenants {
        c.create_tenant(&tenant_name(t), 0).expect("create tenant");
        for s in &streams {
            c.open_stream(&tenant_name(t), s).expect("open stream");
        }
    }
    let chunk = 256usize;
    let mut sent = vec![vec![0usize; streams.len()]; tenants];
    let rounds_phase1 = (per_stream as usize / 2).div_ceil(chunk).max(1);
    for round in 0..rounds_phase1 {
        for t in 0..tenants {
            for (si, s) in streams.iter().enumerate() {
                let all = &data[t][si];
                let lo = sent[t][si];
                let hi = (lo + chunk).min(all.len());
                if lo < hi {
                    c.ingest(&tenant_name(t), s, lo as u64, &all[lo..hi])
                        .expect("ingest");
                    records_sent += (hi - lo) as u64;
                    sent[t][si] = hi;
                }
            }
        }
        let elapsed = t0.elapsed().as_nanos() as u64;
        curve.push(CurvePoint {
            round,
            records_total: records_sent,
            elapsed_ns: elapsed,
            rate_pps: records_sent as f64 / (elapsed as f64 / 1e9),
        });
    }

    // Gate: a live mid-flight snapshot is already batch-identical.
    let mut live_checked = 0usize;
    for t in 0..tenants {
        let Response::Snapshot { running, .. } = c
            .snapshot(&tenant_name(t), &streams[1])
            .expect("live snapshot")
        else {
            panic!("snapshot variant");
        };
        let a = trial_of(&data[t][0][..sent[t][0]]);
        let b = trial_of(&data[t][1][..sent[t][1]]);
        let batch = PairAnalyzer::new(&a, &b).analyze();
        assert_eq!(
            running.kappa_bits,
            batch.metrics.kappa.to_bits(),
            "live κ of {}/{} diverged from batch on the ingested prefix",
            tenant_name(t),
            streams[1]
        );
        live_checked += 1;
    }
    println!("   {live_checked} live mid-ingest snapshots bit-identical to batch");

    // ---- hard kill (no checkpoint), restart, resume with overlap.
    drop(c);
    handle.kill();
    let kill_at = t0.elapsed();
    let handle = Daemon::spawn(cfg.clone(), "127.0.0.1:0").expect("daemon respawn");
    let recovery = t0.elapsed() - kill_at;
    let mut c = Client::connect(handle.addr()).expect("client reconnect");
    for (t, sent_t) in sent.iter().enumerate() {
        for (si, s) in streams.iter().enumerate() {
            let (ingested, finished, _) = c.stream_status(&tenant_name(t), s).expect("status");
            assert_eq!(
                ingested as usize, sent_t[si],
                "recovery lost records on {}/{s}",
                tenant_name(t)
            );
            assert!(!finished);
        }
    }
    println!(
        "   hard kill at {:.1} ms; journal+checkpoint recovery in {:.1} ms, zero records lost",
        kill_at.as_secs_f64() * 1e3,
        recovery.as_secs_f64() * 1e3
    );
    let round_base = curve.len();
    for t in 0..tenants {
        for (si, s) in streams.iter().enumerate() {
            let all = &data[t][si];
            let lo = sent[t][si].saturating_sub(chunk / 4); // deliberate resend overlap
            let total = c
                .ingest(&tenant_name(t), s, lo as u64, &all[lo..])
                .expect("resume ingest");
            assert_eq!(total, all.len() as u64, "resumed stream must complete");
            records_sent += (all.len() - sent[t][si]) as u64;
            sent[t][si] = all.len();
        }
        let elapsed = t0.elapsed().as_nanos() as u64;
        curve.push(CurvePoint {
            round: round_base + t,
            records_total: records_sent,
            elapsed_ns: elapsed,
            rate_pps: records_sent as f64 / (elapsed as f64 / 1e9),
        });
    }

    // ---- finish everything; gate finals + matrix bit-identity.
    let mut finals_checked = 0usize;
    for (t, data_t) in data.iter().enumerate() {
        c.finish_stream(&tenant_name(t), &streams[0]).expect("finish baseline");
        let a = trial_of(&data_t[0]);
        for (si, s) in streams.iter().enumerate().skip(1) {
            let f = c
                .finish_stream(&tenant_name(t), s)
                .expect("finish stream")
                .expect("comparison summary");
            let b = trial_of(&data_t[si]);
            let batch = PairAnalyzer::new(&a, &b).analyze();
            for (got, want, what) in [
                (f.score.kappa_bits, batch.metrics.kappa.to_bits(), "kappa"),
                (f.score.u.to_bits(), batch.metrics.u.to_bits(), "U"),
                (f.score.o.to_bits(), batch.metrics.o.to_bits(), "O"),
                (f.score.l.to_bits(), batch.metrics.l.to_bits(), "L"),
                (f.score.i.to_bits(), batch.metrics.i.to_bits(), "I"),
            ] {
                assert_eq!(
                    got, want,
                    "served {what} of {}/{s} diverged from batch across kill/restart",
                    tenant_name(t)
                );
            }
            finals_checked += 1;
        }
    }
    println!("   {finals_checked} final summaries bit-identical to batch across kill/restart");

    let mut cells_checked = 0usize;
    for (t, data_t) in data.iter().enumerate() {
        let Response::Matrix { labels, cells } = c.matrix(&tenant_name(t)).expect("matrix")
        else {
            panic!("matrix variant");
        };
        let trials: Vec<Trial> = labels
            .iter()
            .map(|s| {
                let si = streams.iter().position(|x| x == s).expect("known stream");
                trial_of(&data_t[si])
            })
            .collect();
        let (reference, _) =
            all_pairs_sharded_with(&trials, 4, &KappaConfig::paper()).expect("all-pairs");
        for cell in &cells {
            let want = reference
                .get(cell.i as usize, cell.j as usize)
                .expect("reference cell");
            assert_eq!(
                cell.score.kappa_bits,
                want.metrics.kappa.to_bits(),
                "matrix cell ({}, {}) of {} diverged from the sharded engine",
                cell.i,
                cell.j,
                tenant_name(t)
            );
            cells_checked += 1;
        }
    }
    println!("   {cells_checked} matrix cells bit-identical to the sharded all-pairs engine");

    // ---- store budget gate + RSS report.
    let Response::Stats {
        store_resident_bytes,
        store_budget_bytes,
        store_evictions,
        store_reloads,
        ..
    } = c.stats().expect("stats")
    else {
        panic!("stats variant");
    };
    assert!(
        store_evictions > 0,
        "budget {budget} was sized to force evictions; none happened"
    );
    assert!(
        store_resident_bytes <= store_budget_bytes,
        "trial store over budget: {store_resident_bytes} > {store_budget_bytes}"
    );
    let peak_rss_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace().nth(1).and_then(|v| v.parse::<u64>().ok())
            })
        })
        .unwrap_or(0);
    println!(
        "   store: {store_resident_bytes} / {store_budget_bytes} bytes resident, \
         {store_evictions} evictions, {store_reloads} reloads; peak RSS {peak_rss_kb} kB"
    );

    // ---- graceful shutdown, third spawn: finals survive durably.
    c.shutdown().expect("shutdown");
    drop(c);
    handle.wait();
    let handle = Daemon::spawn(cfg, "127.0.0.1:0").expect("third spawn");
    let mut c = Client::connect(handle.addr()).expect("third connect");
    for (t, data_t) in data.iter().enumerate() {
        let a = trial_of(&data_t[0]);
        for (si, s) in streams.iter().enumerate().skip(1) {
            let b = trial_of(&data_t[si]);
            let batch = PairAnalyzer::new(&a, &b).analyze();
            let Response::Snapshot { running, .. } =
                c.snapshot(&tenant_name(t), s).expect("post-restart snapshot")
            else {
                panic!("snapshot variant");
            };
            assert_eq!(
                running.kappa_bits,
                batch.metrics.kappa.to_bits(),
                "final of {}/{s} did not survive graceful restart",
                tenant_name(t)
            );
        }
    }
    drop(c);
    handle.kill();
    println!("   finals served bit-identically after graceful shutdown + restart");

    let final_rate = curve.last().map(|p| p.rate_pps).unwrap_or(0.0);
    println!(
        "   sustained ingest {} records in {:.2} s ({:.0}k records/s)",
        records_sent,
        t0.elapsed().as_secs_f64(),
        final_rate / 1e3
    );

    #[derive(serde::Serialize)]
    struct ServiceBench {
        requested_scale: f64,
        seed: u64,
        tenants: usize,
        streams_per_tenant: usize,
        records_per_stream: u64,
        records_sent: u64,
        budget_bytes: u64,
        store_resident_bytes: u64,
        store_evictions: u64,
        store_reloads: u64,
        live_snapshots_bit_identical: usize,
        finals_bit_identical: usize,
        matrix_cells_bit_identical: usize,
        kill_restart_exercised: bool,
        recovery_ms: f64,
        peak_rss_kb: u64,
        ingest_curve: Vec<CurvePoint>,
    }
    let bench = ServiceBench {
        requested_scale: opts.scale,
        seed: opts.seed,
        tenants,
        streams_per_tenant: streams.len(),
        records_per_stream: per_stream,
        records_sent,
        budget_bytes: budget,
        store_resident_bytes,
        store_evictions,
        store_reloads,
        live_snapshots_bit_identical: live_checked,
        finals_bit_identical: finals_checked,
        matrix_cells_bit_identical: cells_checked,
        kill_restart_exercised: true,
        recovery_ms: recovery.as_secs_f64() * 1e3,
        peak_rss_kb,
        ingest_curve: curve,
    };
    let body = serde_json::to_string_pretty(&bench).expect("serialize bench record");
    std::fs::write("BENCH_service.json", body).expect("write BENCH_service.json");
    println!("   [wrote BENCH_service.json]\n");
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// Chaos sweep: replay one recording through a fault-injecting dataplane
/// at increasing fault rates, printing the consistency metrics next to
/// the graceful-degradation counters for each rate. Everything — the
/// virtual clock, the fault scenario, the resulting κ — is a pure
/// function of `--seed`, so two invocations with the same seed print
/// bit-identical tables (the final digest line makes that checkable at
/// a glance).
fn chaos(opts: &Opts) {
    use choir_core::metrics::report::analyze_runs_parallel;
    use choir_core::replay::{EngineConfig, run_replay_supervised};
    use choir_dpdk::{Burst, Dataplane, FaultConfig, FaultyDataplane, PortStats};
    use std::cell::Cell;

    println!("== chaos: fault-rate sweep over the supervised replay engine (seed {}) ==", opts.seed);

    /// A deterministic stand-in for a NIC + clock: the "TSC" advances a
    /// fixed step on every read (so spin loops terminate identically on
    /// every host) and transmitted tags are logged with their send time.
    struct VirtualSink {
        pool: Mempool,
        now: Cell<u64>,
        log: Vec<(u64, ChoirTag)>,
    }
    /// Virtual nanoseconds per TSC read: each poll of the clock "costs"
    /// this much simulated time.
    const TSC_STEP_NS: u64 = 25;
    impl Dataplane for VirtualSink {
        fn num_ports(&self) -> usize {
            1
        }
        fn mempool(&self) -> &Mempool {
            &self.pool
        }
        fn rx_burst(&mut self, _p: usize, out: &mut Burst) -> usize {
            out.clear();
            0
        }
        fn tx_burst(&mut self, _p: usize, burst: &mut Burst) -> usize {
            let n = burst.len();
            let t = self.now.get();
            for m in burst.drain() {
                if let Some(tag) = m.frame.tag() {
                    self.log.push((t, tag));
                }
            }
            n
        }
        fn tsc(&self) -> u64 {
            let t = self.now.get() + TSC_STEP_NS;
            self.now.set(t);
            t
        }
        fn tsc_hz(&self) -> u64 {
            1_000_000_000
        }
        fn wall_ns(&self) -> u64 {
            self.now.get()
        }
        fn request_wake_at_tsc(&mut self, _t: u64) {}
        fn stats(&self, _p: usize) -> PortStats {
            PortStats::default()
        }
    }

    // One tagged recording, replayed under every fault rate.
    let pool = Mempool::new("chaos", 1 << 16);
    let builder = FrameBuilder::new(256, 1, 2);
    let bursts = 512usize;
    let per = 8usize;
    let mut rec = Recording::new();
    let mut seq = 0u64;
    for b in 0..bursts {
        let pkts: Vec<_> = (0..per)
            .map(|_| {
                let f = builder.build_tagged_snap(ChoirTag::new(0, 0, seq));
                seq += 1;
                pool.alloc(f).unwrap()
            })
            .collect();
        rec.push_burst(b as u64 * 4_000, pkts.iter());
    }
    let total_packets = (bursts * per) as u64;

    // A bounded-but-forgiving supervision envelope: enough retries that
    // transient faults heal, few enough that a wedged ring degrades into
    // abandoned bursts instead of a hang.
    let engine_cfg = EngineConfig {
        max_retries_per_burst: 6,
        backoff_start_cycles: 64,
        backoff_max_cycles: 1024,
        deadline_ns: Some(60 * 60 * 1_000_000_000), // virtual hour; never binds
        ..EngineConfig::default()
    };

    let rates = [0.0f64, 0.05, 0.1, 0.2, 0.4];
    let mut trials = Vec::new();
    let mut lines = Vec::new();
    for &rate in &rates {
        let sink = VirtualSink {
            pool: pool.clone(),
            now: Cell::new(0),
            log: Vec::new(),
        };
        let mut dp = FaultyDataplane::new(
            sink,
            FaultConfig {
                seed: opts.seed,
                tx_reject_rate: rate,
                tx_stall_rate: rate / 4.0,
                tx_stall_calls: 4,
                tsc_jump_rate: rate / 8.0,
                tsc_jump_cycles: 10_000,
                ..FaultConfig::quiet(opts.seed)
            },
        );
        let (stats, degradation) = match run_replay_supervised(&rec, &mut dp, 0, &engine_cfg) {
            Ok(report) => (report.stats, report.degradation),
            Err(e) => (e.stats, e.degradation),
        };
        let faults = dp.fault_stats();
        let sink = dp.into_inner();
        let mut trial = Trial::new();
        for &(t_ns, tag) in &sink.log {
            trial.push_tagged(tag.replayer, tag.stream, tag.seq, t_ns * 1_000);
        }
        trials.push(trial);
        lines.push((rate, stats, degradation, faults));
    }

    let comparisons = analyze_runs_parallel(&trials[0], &trials[1..]);
    println!(
        "{:>6} | {:>7} {:>9} {:>9} {:>9} {:>9} | {:>9} {:>8} {:>8} {:>9} | {:>9} {:>7}",
        "rate", "kappa", "U", "O", "I", "L", "pkts", "rejects", "retries", "abandoned", "injected", "stalls"
    );
    let mut digest = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    let mut fold = |v: u64| {
        digest ^= v;
        digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for (i, (rate, stats, deg, faults)) in lines.iter().enumerate() {
        // Rate 0 is the baseline run A; its metrics against itself are
        // trivially perfect, so print dashes there.
        let m = if i == 0 {
            None
        } else {
            Some(comparisons[i - 1].metrics)
        };
        println!(
            "{:>6} | {:>7} {:>9} {:>9} {:>9} {:>9} | {:>9} {:>8} {:>8} {:>9} | {:>9} {:>7}",
            format!("{rate:.2}"),
            m.map_or("  --  ".into(), |m| format!("{:.4}", m.kappa)),
            m.map_or("--".into(), |m| fmt::sci(m.u)),
            m.map_or("--".into(), |m| fmt::sci(m.o)),
            m.map_or("--".into(), |m| fmt::sci(m.i)),
            m.map_or("--".into(), |m| fmt::sci(m.l)),
            format!("{}/{}", stats.packets_sent, total_packets),
            deg.tx_rejections,
            deg.tx_retries,
            deg.packets_abandoned,
            faults.tx_packets_rejected,
            faults.tx_stalls_triggered,
        );
        fold(stats.packets_sent);
        fold(deg.tx_rejections);
        fold(deg.tx_retries);
        fold(deg.backoffs);
        fold(deg.packets_abandoned);
        fold(faults.total_events());
        if let Some(m) = m {
            fold(m.kappa.to_bits());
            fold(m.u.to_bits());
        }
    }
    println!(
        "\nsweep digest: {digest:016x}  (same seed => same digest, bit-for-bit)\n"
    );
}

/// Compact calibration sweep: one line per environment (parallel).
fn calibrate(opts: &Opts) {
    println!(
        "== calibration sweep (scale {}, seed {}) ==",
        opts.scale, opts.seed
    );
    println!(
        "{:<28} {:>7} {:>9} {:>9} {:>9} {:>7} || {:>7} {:>9} {:>9} {:>9} {:>7}",
        "env", "10ns%", "O", "I", "L", "kappa", "p10ns%", "pO", "pI", "pL", "pkappa"
    );
    let kinds = EnvKind::all();
    let outs = run_envs_parallel_with(&kinds, opts.scale, opts.seed, opts.runs);
    for (kind, out) in kinds.iter().zip(outs) {
        let kind = *kind;
        let row = paper::row_for(kind);
        let w10: f64 = out.report.runs.iter().map(|r| r.iat_within_10ns).sum::<f64>()
            / out.report.runs.len() as f64;
        let p10 = row.within_10ns.map(|(lo, hi)| (lo + hi) / 2.0).unwrap_or(f64::NAN);
        println!(
            "{:<28} {:>6.1}% {:>9} {:>9} {:>9} {:>7.4} || {:>6.1}% {:>9} {:>9} {:>9} {:>7.4}",
            kind.label(),
            w10 * 100.0,
            fmt::sci(out.report.mean.o),
            fmt::sci(out.report.mean.i),
            fmt::sci(out.report.mean.l),
            out.report.mean.kappa,
            p10 * 100.0,
            fmt::sci(row.mean.o),
            fmt::sci(row.mean.i),
            fmt::sci(row.mean.l),
            row.mean.kappa,
        );
    }
}

/// PTP convergence demo: a grandmaster disciplines a badly-offset client
/// over the simulated network (paper §2.2's substrate, implemented).
fn ptp_demo() {
    use choir_netsim::clock::{NodeClock, PtpModel};
    use choir_netsim::nic::{NicRxModel, NicTxModel};
    use choir_netsim::ptp::{PtpClient, PtpGrandmaster};
    use choir_netsim::rng::Jitter;
    use choir_netsim::time::{MS, NS, US};
    use choir_netsim::{Sim, SimConfig};

    println!("== PTP (IEEE 1588 two-step) servo convergence ==");
    let mut sim = Sim::new(SimConfig::default());
    let gm = sim.add_node(
        "gm",
        PtpGrandmaster::new(0, 500_000),
        NodeClock::ideal(1_000_000_000),
        Jitter::None,
    );
    let mut clk = NodeClock::ideal(1_000_000_000);
    clk.ptp = PtpModel {
        offset_ns: 100_000, // boots 100 us off true time
        drift_ns_per_s: 0.0,
    };
    let client = sim.add_node("client", PtpClient::new(0, 0.6), clk, Jitter::None);
    let gp = sim.add_port(gm, NicTxModel::ideal(100_000_000_000), NicRxModel::ideal());
    let cp = sim.add_port(
        client,
        NicTxModel::ideal(100_000_000_000),
        NicRxModel {
            deliver_latency: Jitter::Exp {
                mean: 200.0 * NS as f64,
            },
            ..NicRxModel::ideal()
        },
    );
    sim.connect_nodes(gm, gp, client, cp, 50 * NS);
    sim.wake_app(gm, US);
    println!("client boots 100000 ns off the grandmaster; sync every 0.5 ms:");
    for step in 1..=8u64 {
        sim.run_until(step * 2 * MS);
        let (off, rounds) = sim.with_app::<PtpClient, _>(client, |c| {
            (c.last_offset_ns().unwrap_or(i64::MAX), c.rounds_completed())
        });
        println!("  t = {:>2} ms: measured offset {:>8} ns after {:>2} rounds", step * 2, off, rounds);
    }
    println!("(residual sits at the software-stamping jitter floor — the");
    println!(" reason FABRIC uses NIC hardware stamping, paper SS2.2)\n");
}

/// Serialize one environment's calibrated profile as editable JSON.
fn dump_profile(opts: &Opts) {
    let name = opts.arg.as_deref().unwrap_or("LocalSingle");
    let kind = EnvKind::all()
        .into_iter()
        .find(|k| format!("{k:?}").eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            eprintln!(
                "unknown environment {name}; one of: {:?}",
                EnvKind::all().map(|k| format!("{k:?}"))
            );
            std::process::exit(2);
        });
    let json = serde_json::to_string_pretty(&kind.profile()).expect("serialize profile");
    let path = format!("{name}.profile.json");
    std::fs::write(&path, json).expect("write profile");
    println!("wrote {path}; edit it and run: repro custom {path}");
}

/// Run an environment profile loaded from JSON.
fn custom(opts: &Opts) {
    let Some(path) = opts.arg.as_deref() else {
        eprintln!("usage: repro custom <profile.json>");
        std::process::exit(2);
    };
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    let mut profile: choir_testbed::EnvProfile =
        serde_json::from_str(&body).unwrap_or_else(|e| {
            eprintln!("{path}: bad profile JSON: {e}");
            std::process::exit(1);
        });
    if let Some(r) = opts.runs {
        profile.runs = r;
    }
    println!(
        "== custom profile {path} (base {:?}, scale {}, seed {}) ==",
        profile.kind, opts.scale, opts.seed
    );
    let out = choir_testbed::Experiment::new(choir_testbed::ExperimentConfig {
        profile,
        scale: opts.scale,
        seed: opts.seed,
    })
    .run();
    for r in &out.report.runs {
        println!(
            "  run {}: {:5.2}% IAT +-10ns, U {}, O {}, I {}, L {}, kappa {:.4}",
            r.label,
            100.0 * r.iat_within_10ns,
            fmt::sci(r.metrics.u),
            fmt::sci(r.metrics.o),
            fmt::sci(r.metrics.i),
            fmt::sci(r.metrics.l),
            r.metrics.kappa
        );
    }
    println!(
        "  mean kappa {:.4} over {} packets/trial",
        out.report.mean.kappa,
        out.trials[0].len()
    );
    println!("-- IAT delta histogram --");
    print!("{}", out.report.merged_iat_hist().render_ascii(48));
}

/// Write a pair of demo captures (baseline + jittery run) as nanosecond
/// pcaps under ./demo-pcaps/, for exercising `choir-analyze`.
fn demo_pcaps() {
    use choir_packet::pcap::PcapWriter;
    std::fs::create_dir_all("demo-pcaps").expect("create demo-pcaps/");
    let builder = FrameBuilder::new(1400, 1, 2);
    let write = |name: &str, jitter: fn(u64) -> i64| {
        let path = format!("demo-pcaps/{name}");
        let mut w = PcapWriter::new(std::fs::File::create(&path).expect("create pcap")).unwrap();
        for i in 0..50_000u64 {
            let f = builder.build_tagged_snap(ChoirTag::new(0, 0, i));
            let t = (i as i64 * 285 + jitter(i)).max(0) as u64;
            w.write_record(t, &f).unwrap();
        }
        w.finish().unwrap();
        println!("wrote {path}");
    };
    write("baseline.pcap", |_| 0);
    write("run_b.pcap", |i| ((i % 13) as i64 - 6) * 3 + if i % 997 == 0 { 800 } else { 0 });
    println!("analyze with: choir-analyze demo-pcaps/baseline.pcap demo-pcaps/run_b.pcap --windows 10 --spacing 64");
}

/// Mechanism ablation: start from the FABRIC dedicated 40 Gbps profile
/// and switch off one hypothesized noise source at a time, showing which
/// component of the model drives which metric (the paper could not
/// perform this on real hardware, §8.1 — the simulator can).
fn ablate(opts: &Opts) {
    use choir_netsim::clock::TimestampModel;
    use choir_netsim::nic::BatchDist;
    use choir_netsim::rng::Jitter;

    println!(
        "== ablation: FABRIC Dedicated 40 Gbps, one mechanism removed at a time (scale {}) ==",
        opts.scale
    );
    println!(
        "{:<34} {:>7} {:>9} {:>9} {:>7}",
        "variant", "10ns%", "I", "L", "kappa"
    );

    let base = EnvKind::FabricDedicated40A.profile();
    type Mutator = Box<dyn Fn(&mut choir_testbed::EnvProfile)>;
    let variants: Vec<(&str, Mutator)> = vec![
        ("full model", Box::new(|_| {})),
        (
            "- descriptor-fetch pacing",
            Box::new(|p| {
                p.pull_read = Jitter::None;
                p.pull_rearm = Jitter::None;
                p.batch = BatchDist::One;
            }),
        ),
        (
            "- ConnectX timestamp noise",
            Box::new(|p| p.recorder_ts = TimestampModel::exact()),
        ),
        (
            "- VM wake jitter",
            Box::new(|p| p.wake_jitter = Jitter::None),
        ),
        (
            "- clock-servo slope",
            Box::new(|p| p.ts_slope_sigma_ppb = 0.0),
        ),
        (
            "- doorbell jitter",
            Box::new(|p| p.doorbell = Jitter::Const(700_000)),
        ),
    ];

    for (name, mutate) in variants {
        let mut profile = base.clone();
        profile.runs = opts.runs.unwrap_or(3);
        mutate(&mut profile);
        let out = choir_testbed::Experiment::new(choir_testbed::ExperimentConfig {
            profile,
            scale: opts.scale,
            seed: opts.seed,
        })
        .run();
        let w10 = out
            .report
            .runs
            .iter()
            .map(|r| r.iat_within_10ns)
            .sum::<f64>()
            / out.report.runs.len() as f64;
        println!(
            "{:<34} {:>6.1}% {:>9} {:>9} {:>7.4}",
            name,
            w10 * 100.0,
            fmt::sci(out.report.mean.i),
            fmt::sci(out.report.mean.l),
            out.report.mean.kappa
        );
    }
    println!("\n(each row removes exactly one mechanism from the calibrated model)\n");
}

/// The §10 throughput claim: drive the real replay engine flat out and
/// report sustained Mpps / wire-Gbps.
///
/// The primary measurement is single-threaded against a counting sink —
/// the claim is about the software loop (TSC spin, burst assembly, ring
/// hand-off); a real NIC consumes descriptors in hardware, not on a CPU
/// thread. A cross-thread loopback figure is printed as well, but on
/// single-CPU hosts it measures scheduler quanta, not the dataplane.
fn throughput() {
    use choir_dpdk::{Burst, Dataplane, PortStats};

    println!("== Throughput: real-time replay engine (paper: 100 Gbps / 8.9 Mpps) ==");
    // Room for two 512k-packet recordings at once (the 64-burst one the
    // paced and cross-thread legs share, plus one of the ceiling sweep).
    let pool = Mempool::new("tp", 1 << 21);
    let spec = FrameSpec::new(1400, 100_000_000_000);
    let builder = FrameBuilder::new(1400, 1, 2);
    const PACKETS: usize = 8192 * 64;
    let gap_ns = spec.gap_ps() / 1000;
    // 512k packets in `per`-packet bursts, recorded at the 100 Gbps cadence.
    let record = |per: usize| {
        let mut rec = Recording::new();
        for b in 0..PACKETS / per {
            let pkts: Vec<_> = (0..per)
                .map(|i| {
                    pool.alloc(builder.build_tagged_snap(ChoirTag::new(0, 0, (b * per + i) as u64)))
                        .unwrap()
                })
                .collect();
            rec.push_burst(b as u64 * gap_ns * per as u64, pkts.iter());
        }
        rec
    };
    let rec = record(64);

    /// A hardware-NIC stand-in: accepts every packet, counts, frees the
    /// handle on the spot (same core, no cross-thread cache traffic).
    struct CountingSink {
        pool: Mempool,
        clock: RealClock,
        stats: PortStats,
    }
    impl Dataplane for CountingSink {
        fn num_ports(&self) -> usize {
            1
        }
        fn mempool(&self) -> &Mempool {
            &self.pool
        }
        fn rx_burst(&mut self, _p: usize, out: &mut Burst) -> usize {
            out.clear();
            0
        }
        fn tx_burst(&mut self, _p: usize, burst: &mut Burst) -> usize {
            let n = burst.len();
            let mut bytes = 0u64;
            for m in burst.drain() {
                bytes += m.len() as u64;
            }
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
        fn request_wake_at_tsc(&mut self, _t: u64) {}
        fn stats(&self, _p: usize) -> PortStats {
            self.stats
        }
    }

    // Paced at the recorded 100 Gbps cadence: can the loop keep up?
    let mut sink = CountingSink {
        pool: pool.clone(),
        clock: RealClock::new(),
        stats: PortStats::default(),
    };
    let report = run_replay_spin(&rec, &mut sink, 0, 1);
    println!(
        "   paced replay (single-thread):  {:.2} Gbps wire-equivalent, {:.2} Mpps, worst burst lateness {} ns",
        report.wire_bps / 1e9,
        report.pps / 1e6,
        report.stats.max_lateness_cycles // 1 GHz TSC: cycles == ns
    );

    // Back-to-back: the loop ceiling, by burst size — the paper's §5
    // point that larger bursts reach line rate with fewer resources.
    for per in [8usize, 32, 64] {
        let rec = record(per);
        let mut sink = CountingSink {
            pool: pool.clone(),
            clock: RealClock::new(),
            stats: PortStats::default(),
        };
        let ceiling = run_replay_spin(&rec, &mut sink, 0, u64::MAX);
        println!(
            "   loop ceiling  (single-thread, {per:>2}-packet bursts):  {:.2} Gbps wire-equivalent, {:.2} Mpps",
            ceiling.wire_bps / 1e9,
            ceiling.pps / 1e6
        );
    }

    // Cross-thread loopback hand-off, for reference.
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let (port, mut drain) = LoopbackPort::sink(1 << 14);
    let mut plane = RealtimePlane::new(pool.clone(), RealClock::new());
    let pid = plane.add_port(port);
    let total = PACKETS as u64;
    let consumer = std::thread::spawn(move || {
        let mut held = Vec::with_capacity(total as usize);
        while held.len() < total as usize {
            if let Some(m) = drain.pop() {
                held.push(m);
            } else {
                std::hint::spin_loop();
            }
        }
        held
    });
    let xthread = run_replay_spin(&rec, &mut plane, pid, u64::MAX);
    drop(consumer.join().unwrap());
    println!(
        "   cross-thread ring hand-off:     {:.2} Gbps wire-equivalent, {:.2} Mpps  ({} CPU(s) on this host{})",
        xthread.wire_bps / 1e9,
        xthread.pps / 1e6,
        cpus,
        if cpus <= 1 {
            "; single-CPU: this measures scheduler quanta, not the loop"
        } else {
            ""
        }
    );
    println!(
        "   paper headline: {:.0} Gbps / {:.1} Mpps\n",
        paper::HEADLINE_GBPS,
        paper::HEADLINE_MPPS
    );
}

