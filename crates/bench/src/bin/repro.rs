//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <target> [ARG] [--scale F] [--seed N] [--runs N] [--json DIR]
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
//!   throughput         real-time replay engine rate (the 100 Gbps claim)
//!   all                everything above, in paper order (the default)
//!   ablate             noise-mechanism ablation on the dedicated-NIC env
//!
//! tools:
//!   chaos              fault-rate sweep: κ vs graceful degradation, seeded
//!   calibrate          compact paper-vs-measured sweep over all envs
//!   dump-profile ENV   write an environment profile as editable JSON
//!   custom FILE        run a JSON environment profile (see dump-profile)
//!   demo-pcaps         write a baseline/jittery pcap pair for `choir-analyze`
//! ```
//!
//! `--scale` scales the per-trial packet count (1.0 = the paper's ~1M
//! packets at 40 Gbps). The default 0.25 keeps a full `repro all` in the
//! minutes range; metric values are scale-stable because they are
//! normalized (see EXPERIMENTS.md). `--runs` overrides an environment's
//! run count and must be at least 2: run A is the baseline every other
//! run is compared against.
//!
//! The bit-identity gates of the engine (sharded == serial, streaming ==
//! batch, recovery, the daemon) are tests, not targets: `cargo test
//! --workspace`. Measurements are the `e2e/` harness.

use std::io::Write;

use choir_bench::{fmt, paper, run_envs_parallel_with};
use choir_core::metrics::{compare, Trial};
use choir_core::replay::engine::run_replay_spin;
use choir_core::replay::recording::Recording;
use choir_dpdk::loopback::{LoopbackPort, RealClock, RealtimePlane};
use choir_dpdk::Mempool;
use choir_packet::{ChoirTag, FrameBuilder, FrameSpec};
use choir_testbed::{EnvKind, ExperimentOutput};

const USAGE: &str =
    "usage: repro <target> [ARG] [--scale F] [--seed N] [--runs N] [--json DIR]  (targets: see source header)";
/// Why a run count below 2 is refused, wherever it comes from.
const TWO_RUNS: &str = "must be at least 2 (baseline run A plus one run to compare)";

#[derive(Debug)]
struct Opts {
    target: String,
    arg: Option<String>,
    scale: f64,
    seed: u64,
    runs: Option<usize>,
    json_dir: Option<String>,
}

/// Parse the command line (without the program name). Everything here is
/// outside input: a bad value or an unknown flag is an `Err` for `main`
/// to print with the usage line, never a panic.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    fn value<T: std::str::FromStr>(
        args: &mut impl Iterator<Item = String>,
        flag: &str,
        what: &str,
    ) -> Result<T, String> {
        let v = args.next().ok_or_else(|| format!("{flag} needs {what}"))?;
        v.parse().map_err(|_| format!("{flag} needs {what}, got {v:?}"))
    }
    let mut opts = Opts {
        target: String::new(),
        arg: None,
        scale: 0.25,
        seed: 0x00C4_0112,
        runs: None,
        json_dir: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let scale: f64 = value(&mut args, "--scale", "a float")?;
                if !(scale.is_finite() && scale > 0.0) {
                    return Err(format!("--scale needs a finite float above 0, got {scale}"));
                }
                opts.scale = scale;
            }
            "--seed" => opts.seed = value(&mut args, "--seed", "an integer")?,
            "--runs" => {
                let runs: usize = value(&mut args, "--runs", "an integer")?;
                if runs < 2 {
                    return Err(format!("--runs {TWO_RUNS}, got {runs}"));
                }
                opts.runs = Some(runs);
            }
            "--json" => opts.json_dir = Some(value(&mut args, "--json", "a directory")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ if opts.target.is_empty() => opts.target = a,
            _ if opts.arg.is_none() => opts.arg = Some(a),
            _ => return Err(format!("unexpected argument {a}")),
        }
    }
    if opts.target.is_empty() {
        opts.target = "all".into();
    }
    if opts.target == "custom" && opts.arg.is_none() {
        return Err("custom needs a profile: repro custom <profile.json>".into());
    }
    Ok(opts)
}

fn main() {
    let opts = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
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
        "throughput" => throughput(),
        "chaos" => chaos(&opts),
        "calibrate" => calibrate(&opts),
        "ablate" => ablate(&opts),
        "demo-pcaps" => demo_pcaps(),
        "dump-profile" => dump_profile(&opts),
        "custom" => custom(&opts),
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
    let l = compare(&a, &b).l;
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
    let i_val = compare(&a, &b).i;
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

/// Chaos sweep: replay one recording through a fault-injecting dataplane
/// at increasing fault rates, printing the consistency metrics next to
/// the graceful-degradation counters for each rate. Everything — the
/// virtual clock, the fault scenario, the resulting κ — is a pure
/// function of `--seed`, so two invocations with the same seed print
/// bit-identical tables (the final digest line makes that checkable at
/// a glance).
fn chaos(opts: &Opts) {
    use choir_core::metrics::report::{analyze, trial_label};
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

    // Run A (rate 0) is the baseline; runs start at "B".
    let comparisons: Vec<_> = (1..trials.len())
        .map(|i| analyze(trial_label(i), &trials[0], &trials[i]))
        .collect();
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
    let path = opts.arg.as_deref().expect("parse_args requires a path for custom");
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
    if let Err(e) = check_profile(&profile) {
        eprintln!("{path}: {e}\n{USAGE}");
        std::process::exit(2);
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

/// Refuse the profile values no experiment can run with, naming the
/// field: a run count below 2, and each zero that would otherwise divide
/// by zero or trip an assertion mid-run (or, for `tsc_hz`, run on a TSC
/// that never advances).
fn check_profile(p: &choir_testbed::EnvProfile) -> Result<(), String> {
    use choir_netsim::clock::TimestampModel;
    if p.runs < 2 {
        return Err(format!(
            "\"runs\" {TWO_RUNS}, got {}; edit the profile or pass --runs N",
            p.runs
        ));
    }
    let no_wander_period = matches!(
        p.recorder_ts,
        TimestampModel::HwClockConverted {
            wander_period_ps: 0,
            ..
        }
    );
    let zero = [
        ("rate_bps", p.rate_bps == 0),
        ("frame_len", p.frame_len == 0),
        ("replayers", p.replayers == 0),
        ("link_rate_bps", p.link_rate_bps == 0),
        ("tsc_hz", p.tsc_hz == 0),
        (
            "recorder_ts.HwClockConverted.wander_period_ps",
            no_wander_period,
        ),
    ];
    match zero.iter().find(|&&(_, is_zero)| is_zero) {
        Some((field, _)) => Err(format!(
            "\"{field}\" must be above 0, got 0; edit the profile"
        )),
        None => Ok(()),
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_known_flags_parse() {
        let o = parse(&[]).unwrap();
        assert_eq!((o.target.as_str(), o.scale, o.runs), ("all", 0.25, None));
        let o = parse(&["table2", "--scale", "0.5", "--runs", "2", "--json", "out", "--seed", "7"]).unwrap();
        assert_eq!((o.target.as_str(), o.scale, o.seed, o.runs), ("table2", 0.5, 7, Some(2)));
        assert_eq!(o.json_dir.as_deref(), Some("out"));
        let o = parse(&["custom", "p.json"]).unwrap();
        assert_eq!(o.arg.as_deref(), Some("p.json"));
    }

    #[test]
    fn fewer_than_two_runs_is_refused_where_it_enters() {
        for n in ["0", "1"] {
            let e = parse(&["table2", "--runs", n]).unwrap_err();
            assert!(e.contains("--runs") && e.contains("at least 2"), "{e}");
        }
    }

    #[test]
    fn malformed_values_are_errors_not_panics() {
        let e = parse(&["table2", "--runs", "abc"]).unwrap_err();
        assert!(e.contains("--runs") && e.contains("abc"), "{e}");
        let e = parse(&["table2", "--scale"]).unwrap_err();
        assert!(e.contains("--scale"), "{e}");
        // A scale that parses as a float but sizes no experiment.
        for v in ["nan", "-1", "0", "inf"] {
            let e = parse(&["fig4", "--scale", v]).unwrap_err();
            assert!(e.contains("--scale") && e.contains("above 0"), "{v}: {e}");
        }
    }

    #[test]
    fn unknown_flags_are_named_not_swallowed() {
        // `obs` was a flag until the bench targets left; like any other
        // unknown flag it must fail loudly, not be filed as ARG.
        for name in ["bogus", "obs", "scal"] {
            let flag = format!("--{name}");
            let e = parse(&["table2", &flag, "0.5"]).unwrap_err();
            assert!(e.contains("unknown flag") && e.contains(&flag), "{e}");
        }
    }

    #[test]
    fn custom_without_a_path_is_refused() {
        let e = parse(&["custom", "--runs", "3"]).unwrap_err();
        assert!(e.contains("custom <profile.json>"), "{e}");
    }

    #[test]
    fn out_of_range_profile_values_are_refused_by_name() {
        use choir_netsim::clock::TimestampModel;
        use choir_testbed::EnvProfile;
        for kind in EnvKind::all() {
            assert_eq!(check_profile(&kind.profile()), Ok(()), "{kind:?}");
        }
        type Edit = fn(&mut EnvProfile);
        let cases: [(&str, Edit); 7] = [
            ("runs", |p| p.runs = 1),
            ("rate_bps", |p| p.rate_bps = 0),
            ("frame_len", |p| p.frame_len = 0),
            ("replayers", |p| p.replayers = 0),
            ("link_rate_bps", |p| p.link_rate_bps = 0),
            ("tsc_hz", |p| p.tsc_hz = 0),
            ("wander_period_ps", |p| {
                let TimestampModel::HwClockConverted {
                    wander_period_ps, ..
                } = &mut p.recorder_ts
                else {
                    panic!("a FABRIC profile stamps with the converted clock");
                };
                *wander_period_ps = 0;
            }),
        ];
        for (field, edit) in cases {
            let mut p = EnvKind::FabricShared40Noisy.profile();
            edit(&mut p);
            let e = check_profile(&p).unwrap_err();
            assert!(e.contains(field), "{field}: {e}");
        }
    }

    #[test]
    fn every_profile_round_trips_through_json() {
        for kind in EnvKind::all() {
            let json = serde_json::to_string_pretty(&kind.profile()).unwrap();
            let back: choir_testbed::EnvProfile = serde_json::from_str(&json).unwrap();
            assert_eq!(
                serde_json::to_string_pretty(&back).unwrap(),
                json,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn a_profile_dumped_by_an_earlier_build_still_parses() {
        // Earlier builds wrote a store-and-forward flag into every switch
        // profile; the field is gone, and a file they dumped must still
        // run.
        let json = serde_json::to_string_pretty(&EnvKind::FabricShared40Noisy.profile()).unwrap();
        let flag = ["store", "and", "forward"].join("_");
        let old = json.replacen(
            "\"queue_cap\"",
            &format!("\"{flag}\": true, \"queue_cap\""),
            1,
        );
        assert_ne!(old, json);
        let back: choir_testbed::EnvProfile = serde_json::from_str(&old).unwrap();
        assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
    }
}
