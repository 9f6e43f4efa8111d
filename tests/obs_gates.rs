//! The observability layer's two contracts (DESIGN.md §11): it is
//! invisible in every result — captures, all-pairs κ, streaming κ and
//! supervised recovery are bit-identical with the layer off, configured
//! but disabled, and enabled — and with the switch off it costs nothing
//! measurable. This lives in its own integration-test binary because
//! the obs registry and its switch are process globals; the two tests
//! here take one lock for the same reason.

use std::sync::{Mutex, MutexGuard};

use choir::core::obs;
use choir::testbed::{
    EnvKind, Experiment, ExperimentConfig, ExperimentOutput, StreamingMode, SupervisorConfig,
};

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

/// Everything an experiment reports that obs could conceivably perturb:
/// the captures byte for byte, every cell of the sharded all-pairs
/// matrix, and the streaming engine's final κ and snapshot trail.
fn assert_same_results(got: &ExperimentOutput, plain: &ExperimentOutput, what: &str) {
    assert_eq!(got.trials, plain.trials, "{what}: captures");
    assert_eq!(got.matrix.cells.len(), plain.matrix.cells.len());
    for (x, y) in got.matrix.cells.iter().zip(&plain.matrix.cells) {
        for (g, p) in [
            (x.metrics.kappa, y.metrics.kappa),
            (x.metrics.u, y.metrics.u),
            (x.metrics.o, y.metrics.o),
            (x.metrics.l, y.metrics.l),
            (x.metrics.i, y.metrics.i),
        ] {
            assert_eq!(
                g.to_bits(),
                p.to_bits(),
                "{what}: all-pairs cell {}",
                x.label
            );
        }
    }
    let (s, u) = (
        got.report.stream.as_ref().expect("stream trail"),
        plain.report.stream.as_ref().expect("stream trail"),
    );
    assert_eq!(s.runs.len(), u.runs.len());
    for (a, b) in s.runs.iter().zip(&u.runs) {
        assert_eq!(
            a.final_kappa.to_bits(),
            b.final_kappa.to_bits(),
            "{what}: streaming κ of run {}",
            a.label
        );
        assert_eq!(a.snapshots.len(), b.snapshots.len(), "{what}: trail length");
        for (x, y) in a.snapshots.iter().zip(&b.snapshots) {
            assert_eq!(
                x.running.kappa.to_bits(),
                y.running.kappa.to_bits(),
                "{what}: snapshot κ of run {}",
                a.label
            );
        }
    }
}

#[test]
fn obs_never_changes_a_result() {
    let _obs = obs_exclusive();
    let cfg = local_single(3, 0.001);
    let mode = StreamingMode {
        lookahead: None,
        snapshot_every: 137,
    };
    let streamed = || Experiment::new(cfg.clone()).streaming(mode);
    let plain = streamed().run();

    obs::configure(&obs::ObsConfig {
        enabled: false,
        ring_capacity: 4096,
    });
    assert_same_results(&streamed().run(), &plain, "obs disabled");

    obs::set_enabled(true);
    assert_same_results(&streamed().run(), &plain, "obs enabled");
    let supervised = streamed()
        .supervised(SupervisorConfig {
            checkpoint_every: 128,
            kill_every: Some(101),
            panic_every: Some(457),
            corrupt_capture_seed: Some(cfg.seed),
        })
        .run();
    assert_same_results(&supervised, &plain, "obs enabled, supervised recovery");
    let snap = obs::snapshot();
    obs::set_enabled(false);

    // The enabled passes really ran instrumented: each path under test
    // left its counters behind.
    for name in [
        "allpairs.pairs_analyzed",
        "stream.full.packets_in",
        "recover.kills",
    ] {
        assert!(
            snap.counter(name).is_some_and(|v| v > 0),
            "{name} never counted"
        );
    }
}

/// Min-of-3 capture time with the switch off must stay within 1 % (+ a
/// 5 ms noise floor) of the min-of-3 before the layer was ever
/// configured; disabled and enabled reps are interleaved so both sample
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

    obs::configure(&obs::ObsConfig {
        enabled: false,
        ring_capacity: 4096,
    });
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
