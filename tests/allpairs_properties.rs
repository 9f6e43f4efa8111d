//! Property-based tests of the sharded all-pairs consistency engine:
//! the sharded matrix must be bit-identical to the serial reference at
//! every shard count, and the `TrialIndex`-cached metric paths must
//! reproduce the uncached ones exactly, over randomized trials — and,
//! for the matrix-level properties, over simulated-testbed captures too.

mod common;

use choir::metrics::allpairs::{all_pairs_serial, all_pairs_sharded, KappaMatrix, TrialIndex};
use choir::metrics::matching::Matching;
use choir::metrics::report::TrialComparison;
use choir::metrics::{compare, ConsistencyMetrics, PairAnalyzer, Trial, MAX_TIMESTAMP_PS};
use choir::testbed::{EnvKind, Experiment, ExperimentConfig};
use common::{arb_shape, baseline, matrix_shapes, replay, to_trial, Rng};
use proptest::prelude::*;

/// A random trial: a subset of sequence numbers 0..n (possibly shuffled,
/// possibly with duplicates) with non-decreasing timestamps.
fn arb_trial(max_len: usize) -> impl Strategy<Value = Trial> {
    (
        proptest::collection::vec(0u64..64, 0..max_len),
        proptest::collection::vec(0u64..5_000, 0..max_len),
    )
        .prop_map(|(seqs, mut gaps)| {
            gaps.resize(seqs.len(), 100);
            let mut t = Trial::new();
            let mut now = 0u64;
            for (s, g) in seqs.iter().zip(gaps) {
                now += g;
                t.push_tagged(0, 0, *s, now);
            }
            t
        })
}

/// A random *set* of trials for matrix-level properties.
fn arb_trials(max_trials: usize, max_len: usize) -> impl Strategy<Value = Vec<Trial>> {
    proptest::collection::vec(arb_trial(max_len), 2..max_trials)
}

fn metrics_bit_identical(x: &ConsistencyMetrics, y: &ConsistencyMetrics) -> bool {
    x.u.to_bits() == y.u.to_bits()
        && x.o.to_bits() == y.o.to_bits()
        && x.l.to_bits() == y.l.to_bits()
        && x.i.to_bits() == y.i.to_bits()
        && x.kappa.to_bits() == y.kappa.to_bits()
}

/// Bit-level equality of everything the engine computes, excluding the
/// wall-clock timings (which legitimately differ between runs).
fn cells_bit_identical(x: &TrialComparison, y: &TrialComparison) -> bool {
    x.label == y.label
        && metrics_bit_identical(&x.metrics, &y.metrics)
        && (x.a_len, x.b_len, x.common, x.missing, x.extra, x.moved)
            == (y.a_len, y.b_len, y.common, y.missing, y.extra, y.moved)
        && x.iat_within_10ns.to_bits() == y.iat_within_10ns.to_bits()
        && x.iat_abs_percentiles_ns == y.iat_abs_percentiles_ns
        && x.latency_abs_percentiles_ns == y.latency_abs_percentiles_ns
        && x.edit_stats == y.edit_stats
        && x.iat_hist == y.iat_hist
        && x.latency_hist == y.latency_hist
}

/// The production and reference pipelines agree on `metrics()` and on
/// every field of `analyze()`.
fn pipelines_bit_identical(a: &Trial, b: &Trial) -> bool {
    let (ia, ib) = (TrialIndex::build(a).unwrap(), TrialIndex::build(b).unwrap());
    let production = || PairAnalyzer::from_indexes(&ia, &ib);
    let reference = || PairAnalyzer::new(a, b);
    metrics_bit_identical(&production().metrics(), &reference().metrics())
        && cells_bit_identical(&production().analyze(), &reference().analyze())
}

/// `m` carries the serial reference's labels and cells, bit for bit.
fn assert_matrix_matches_serial(m: &KappaMatrix, reference: &KappaMatrix, schedule: &str) {
    assert_eq!(m.labels, reference.labels);
    assert_eq!(m.cells.len(), reference.cells.len());
    for (x, y) in m.cells.iter().zip(&reference.cells) {
        assert!(
            cells_bit_identical(x, y),
            "{schedule}: cell {:?} != serial {:?}",
            x.label,
            y.label
        );
    }
}

fn assert_sharded_matches_serial(trials: &[Trial], reference: &KappaMatrix, shards: usize) {
    let m = all_pairs_sharded(trials, shards).unwrap();
    assert_matrix_matches_serial(&m, reference, &format!("shards={shards}"));
}

/// The same gate on what the engine is for: eight simulated-testbed
/// captures (2 106 packets each), at one worker, two, and one per core.
#[test]
fn testbed_captures_sharded_and_blocked_match_serial() {
    let mut profile = EnvKind::LocalSingle.profile();
    profile.runs = 8;
    let trials = Experiment::new(ExperimentConfig {
        profile,
        scale: 0.002,
        seed: 0x00C4_0112,
    })
    .run()
    .trials;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reference = all_pairs_serial(&trials);
    for shards in [1, 2, cpus] {
        assert_sharded_matches_serial(&trials, &reference, shards);
    }
}

/// The benchmark's own matrix (`matrix_paper`: six shapes at 1 053 370
/// packets, one shard) against the serial reference, cell by cell. Peak
/// RSS 365 MB and about 11 s in release, so it runs only when asked for.
#[test]
#[ignore = "paper scale: cargo test --release -p choir --test allpairs_properties -- --ignored"]
fn paper_scale_matrix_matches_serial_cell_by_cell() {
    let trials = matrix_shapes(1_053_370, 3);
    let reference = all_pairs_serial(&trials);
    let m = all_pairs_sharded(&trials, 1).unwrap();
    assert_matrix_matches_serial(&m, &reference, "paper scale, shards=1");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sharded_matrix_of_replay_shapes_is_bit_identical_to_serial(
        n in 2usize..80,
        seed in any::<u64>(),
        shapes in proptest::collection::vec(arb_shape(), 5..6),
    ) {
        // A baseline and five replays of it: the order-preserving pairs
        // take the kernels' early returns, the rest the full kernels, all
        // through each worker's one reused scratch.
        let base = baseline(n, &mut Rng(seed));
        let mut trials = vec![to_trial(&base)];
        for (k, &shape) in (1u64..).zip(&shapes) {
            trials.push(to_trial(&replay(&base, shape, &mut Rng(seed ^ k))));
        }
        let reference = all_pairs_serial(&trials);
        for shards in [1, 2, 8] {
            assert_sharded_matches_serial(&trials, &reference, shards);
        }
    }

    #[test]
    fn sharded_matrix_is_bit_identical_to_serial(
        trials in arb_trials(7, 30),
    ) {
        let reference = all_pairs_serial(&trials);
        for shards in [1, 2, 8] {
            assert_sharded_matches_serial(&trials, &reference, shards);
        }
    }

    #[test]
    fn indexed_matching_equals_reference(a in arb_trial(40), b in arb_trial(40)) {
        let ia = TrialIndex::build(&a).unwrap();
        let ib = TrialIndex::build(&b).unwrap();
        let reference = Matching::build(&a, &b);
        let mut analyzer = PairAnalyzer::from_indexes(&ia, &ib);
        let indexed = analyzer.matching();
        prop_assert_eq!(indexed.a_len, reference.a_len);
        prop_assert_eq!(indexed.b_len, reference.b_len);
        prop_assert_eq!(&indexed.pairs, &reference.pairs);
    }

    // The per-delta form of this property (arena `deltas_ns` against the
    // reference series) needs the crate-private kernels and lives in
    // `metrics::allpairs`'s own tests.
    #[test]
    fn indexed_metrics_equal_uncached(a in arb_trial(40), b in arb_trial(40)) {
        prop_assert!(pipelines_bit_identical(&a, &b));
    }

    #[test]
    fn arena_latency_fallback_is_bit_identical_past_the_fast_path_gate(
        a in arb_trial(40),
        b in arb_trial(40),
        lead in 1u64..20_000,
    ) {
        // Shift both trials so their stamps straddle MAX_TIMESTAMP_PS: the
        // arena latency kernel must leave its 64-bit lanes for the exact
        // i128 path and still reproduce the reference bit for bit.
        let shift = |t: &Trial| -> Trial {
            t.observations().iter().map(|o| (o.id, o.t_ps + MAX_TIMESTAMP_PS - lead)).collect()
        };
        let (a, b) = (shift(&a), shift(&b));
        prop_assert!(pipelines_bit_identical(&a, &b));
    }

    #[test]
    fn matrix_summary_brackets_every_cell(trials in arb_trials(6, 30)) {
        let m = all_pairs_sharded(&trials, 4).unwrap();
        if let Some(s) = m.summary() {
            prop_assert_eq!(s.trials, trials.len());
            prop_assert_eq!(s.pairs, m.cells.len());
            for c in &m.cells {
                prop_assert!(s.kappa_min <= c.metrics.kappa);
                prop_assert!(c.metrics.kappa <= s.kappa_max);
            }
            prop_assert!(s.kappa_min <= s.kappa_median && s.kappa_median <= s.kappa_max);
        }
    }

    #[test]
    fn degenerate_trials_never_produce_nan(a in arb_trial(3), b in arb_trial(3)) {
        // ≤1 common packet or a zero span must yield exactly 0 for the
        // timing metrics, never NaN (paper Eq. 5 needs finite inputs).
        let m = compare(&a, &b);
        prop_assert!(!m.i.is_nan() && !m.l.is_nan());
        prop_assert!(!m.kappa.is_nan());
        let pair = [a, b];
        let matrix = all_pairs_sharded(&pair, 2).unwrap();
        prop_assert!(!matrix.kappa(0, 1).is_nan());
    }
}
