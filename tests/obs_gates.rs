//! The observability layer's two contracts (DESIGN.md §11): it is
//! invisible in every result — captures, all-pairs κ and streaming κ
//! are bit-identical with the layer off and enabled — and with the
//! switch off it costs nothing measurable. This lives in its own
//! integration-test binary because the obs registry and its switch are
//! process globals; the two tests here take one lock for the same reason.

use std::sync::{Mutex, MutexGuard};

use choir::core::obs;
use choir::metrics::stream::{IncrementalComparison, Side, StreamConfig, StreamOutcome};
use choir::testbed::{EnvKind, Experiment, ExperimentConfig, ExperimentOutput};

/// Hold the process-global layer exclusively, starting switched off and
/// empty whatever a previous (possibly failed) holder left behind.
fn obs_exclusive() -> MutexGuard<'static, ()> {
    static OBS: Mutex<()> = Mutex::new(());
    let guard = OBS.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    obs::set_enabled(false);
    obs::reset();
    guard
}

fn local_single(runs: usize, scale: f64) -> ExperimentConfig {
    let mut profile = EnvKind::LocalSingle.profile();
    profile.runs = runs;
    ExperimentConfig {
        profile,
        scale,
        seed: 7,
    }
}

/// Run A against each later run through the streaming engine, fed in
/// lock step (one baseline observation per arrival).
fn stream_runs(out: &ExperimentOutput) -> Vec<StreamOutcome> {
    let cfg = StreamConfig {
        snapshot_every: 137,
        ..Default::default()
    };
    let a = out.trials[0].observations();
    out.trials[1..]
        .iter()
        .map(|t| {
            let b = t.observations();
            let mut eng = IncrementalComparison::new(cfg);
            for i in 0..a.len().max(b.len()) {
                if let Some(o) = a.get(i) {
                    eng.push(Side::A, o.id, o.t_ps);
                }
                if let Some(o) = b.get(i) {
                    eng.push(Side::B, o.id, o.t_ps);
                }
            }
            eng.finalize("stream")
        })
        .collect()
}

/// One experiment and the streaming comparison of its trials, both under
/// whatever state the obs layer is in.
fn run_and_stream(cfg: &ExperimentConfig) -> (ExperimentOutput, Vec<StreamOutcome>) {
    let out = Experiment::new(cfg.clone()).run();
    let streams = stream_runs(&out);
    (out, streams)
}

/// Everything obs could conceivably perturb: the captures byte for byte,
/// every cell of the sharded all-pairs matrix, and the streaming
/// engine's final κ and snapshot trail.
fn assert_same_results(
    (got, s): &(ExperimentOutput, Vec<StreamOutcome>),
    (plain, u): &(ExperimentOutput, Vec<StreamOutcome>),
    what: &str,
) {
    assert_eq!(got.trials, plain.trials, "{what}: captures");
    assert_eq!(got.matrix.cells.len(), plain.matrix.cells.len());
    for (x, y) in got.matrix.cells.iter().zip(&plain.matrix.cells) {
        assert_eq!(x.bits(), y.bits(), "{what}: all-pairs cell {}", x.label);
    }
    assert_eq!(s.len(), u.len());
    for (run, (a, b)) in s.iter().zip(u).enumerate() {
        assert_eq!(
            a.comparison.metrics.kappa.to_bits(),
            b.comparison.metrics.kappa.to_bits(),
            "{what}: streaming κ of run {run}"
        );
        assert!(!a.snapshots.is_empty(), "cadence produced snapshots");
        assert_eq!(a.snapshots.len(), b.snapshots.len(), "{what}: trail length");
        for (x, y) in a.snapshots.iter().zip(&b.snapshots) {
            assert_eq!(
                x.running.kappa.to_bits(),
                y.running.kappa.to_bits(),
                "{what}: snapshot κ of run {run}"
            );
        }
    }
}

#[test]
fn obs_never_changes_a_result() {
    let _obs = obs_exclusive();
    let cfg = local_single(3, 0.001);
    let plain = run_and_stream(&cfg);

    obs::set_enabled(true);
    let enabled = run_and_stream(&cfg);
    let snap = obs::snapshot();
    obs::set_enabled(false);
    assert_same_results(&enabled, &plain, "obs enabled");

    // The enabled pass really ran instrumented: each path under test
    // left its counters behind.
    for name in ["allpairs.pairs_analyzed", "stream.full.packets_in"] {
        assert!(
            snap.counter(name).is_some_and(|v| v > 0),
            "{name} never counted"
        );
    }
    // The registry was empty until the enabled pass, so the streaming
    // engine's counters are that pass's outcomes, summed over its runs
    // (the high-water gauge: their maximum).
    let (trials, streamed) = (&enabled.0.trials, &enabled.1);
    let pushed: usize = trials[1..].iter().map(|t| trials[0].len() + t.len()).sum();
    for (name, want) in [
        ("stream.full.packets_in", pushed),
        (
            "stream.full.matched",
            streamed.iter().map(|o| o.comparison.common).sum(),
        ),
        (
            "stream.full.snapshots",
            streamed.iter().map(|o| o.snapshots.len()).sum(),
        ),
        (
            "stream.full.peak_resident",
            streamed
                .iter()
                .map(|o| o.peak_resident)
                .max()
                .expect("runs"),
        ),
    ] {
        assert_eq!(
            snap.counter(name),
            Some(want as u64),
            "{name} vs the outcomes"
        );
    }
}

/// Min-of-3 capture time with the switch off must stay within 1 % (+ a
/// 5 ms noise floor) of the min-of-3 before the layer was ever
/// switched on; disabled and enabled reps are interleaved so both sample
/// the same load windows. The minimum is the noise-robust estimate on a
/// shared machine: any slower sample is the same deterministic work plus
/// interference. A 1 % bound means nothing in an unoptimised build.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run with --release")]
fn disabled_obs_costs_at_most_one_percent() {
    const REPS: usize = 3;
    let _obs = obs_exclusive();
    let cfg = local_single(2, 0.02);
    let capture = || Experiment::new(cfg.clone()).run();

    let plain = capture();
    let mut plain_ns = plain.capture_wall_ns;
    for _ in 1..REPS {
        plain_ns = plain_ns.min(capture().capture_wall_ns);
    }

    let (mut disabled_ns, mut enabled_ns) = (u64::MAX, u64::MAX);
    for _ in 0..REPS {
        obs::set_enabled(false);
        let out = capture();
        disabled_ns = disabled_ns.min(out.capture_wall_ns);
        assert_eq!(out.trials, plain.trials, "obs-disabled run vs plain");
        obs::reset();
        obs::set_enabled(true);
        let out = capture();
        enabled_ns = enabled_ns.min(out.capture_wall_ns);
        assert_eq!(out.trials, plain.trials, "obs-enabled run vs plain");
    }
    obs::set_enabled(false);

    let allowed_ns = plain_ns + plain_ns / 100 + 5_000_000;
    assert!(
        disabled_ns <= allowed_ns,
        "obs disabled-path overhead exceeds 1% (+5 ms floor): plain {plain_ns} ns, disabled {disabled_ns} ns"
    );
    println!(
        "capture min plain {:.1} ms, disabled {:.1} ms, enabled {:.1} ms ({:+.1}%)",
        plain_ns as f64 / 1e6,
        disabled_ns as f64 / 1e6,
        enabled_ns as f64 / 1e6,
        100.0 * (enabled_ns as f64 - plain_ns as f64) / plain_ns.max(1) as f64,
    );
}
