//! Property tests of the arena-backed metric kernels: the flat-arena
//! `TrialIndex` pair path (`PairAnalyzer::from_indexes`, streamed by the
//! vectorizable kernels) must be bit-identical to the uncached reference
//! path (`PairAnalyzer::new`) over randomized trials with duplicates,
//! reorders, drops, and empty trials — the same ground-truth contract the
//! sharded engine is held to, stated at the pair level.

mod common;

use std::cell::RefCell;

use choir::metrics::allpairs::TrialIndex;
use choir::metrics::report::TrialComparison;
use choir::metrics::{DeltaHistogram, PairAnalyzer, PairScratch, Trial};
use common::{arb_shape, baseline, replay, to_trial, Rng};
use proptest::prelude::*;

/// A random trial: sequence numbers drawn with duplicates and drops from
/// a small space (forcing deep occurrence chains), shuffled arbitrarily,
/// with non-decreasing timestamps. `max_len == 0` yields empty trials.
fn arb_trial(max_len: usize) -> impl Strategy<Value = Trial> {
    (
        proptest::collection::vec(0u64..48, 0..max_len + 1),
        proptest::collection::vec(0u64..5_000, 0..max_len + 1),
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

/// Bit-level equality of everything a pair analysis computes — every
/// field of the report but its wall-clock `timings`.
fn comparisons_bit_identical(x: &TrialComparison, y: &TrialComparison) -> bool {
    let bits = |(p50, p90, p99): (f64, f64, f64)| [p50.to_bits(), p90.to_bits(), p99.to_bits()];
    x.label == y.label
        && x.metrics.u.to_bits() == y.metrics.u.to_bits()
        && x.metrics.o.to_bits() == y.metrics.o.to_bits()
        && x.metrics.l.to_bits() == y.metrics.l.to_bits()
        && x.metrics.i.to_bits() == y.metrics.i.to_bits()
        && x.metrics.kappa.to_bits() == y.metrics.kappa.to_bits()
        && (x.a_len, x.b_len, x.common, x.missing, x.extra, x.moved)
            == (y.a_len, y.b_len, y.common, y.missing, y.extra, y.moved)
        && x.iat_within_10ns.to_bits() == y.iat_within_10ns.to_bits()
        && bits(x.iat_abs_percentiles_ns) == bits(y.iat_abs_percentiles_ns)
        && bits(x.latency_abs_percentiles_ns) == bits(y.latency_abs_percentiles_ns)
        && x.edit_stats == y.edit_stats
        && x.iat_hist.to_csv() == y.iat_hist.to_csv()
        && x.latency_hist.to_csv() == y.latency_hist.to_csv()
        && x.iat_hist.clamped() == y.iat_hist.clamped()
        && x.latency_hist.clamped() == y.latency_hist.clamped()
}

thread_local! {
    /// One workspace for every case of `replay_shapes_…`, so a pair list,
    /// delta series or key buffer left over from the previous case would
    /// show in the next.
    static SCRATCH: RefCell<PairScratch> = RefCell::new(PairScratch::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arena_pair_path_is_bit_identical_to_uncached(
        a in arb_trial(48),
        b in arb_trial(48),
    ) {
        let reference = PairAnalyzer::new(&a, &b).analyze();
        let ia = TrialIndex::build(&a).unwrap();
        let ib = TrialIndex::build(&b).unwrap();
        let arena = PairAnalyzer::from_indexes(&ia, &ib).analyze();
        prop_assert!(
            comparisons_bit_identical(&arena, &reference),
            "arena {:?} != uncached {:?}",
            arena.metrics,
            reference.metrics
        );
    }

    #[test]
    fn replay_shapes_are_bit_identical_to_uncached_through_one_scratch(
        n in 0usize..96,
        seed in any::<u64>(),
        shape_a in arb_shape(),
        shape_b in arb_shape(),
    ) {
        // Both sides replay one baseline, so most pairs keep their order
        // (the probe-free, sort-free path) and the rest leave it at a
        // duplicate, a block boundary, a late packet or everywhere.
        let base = baseline(n, &mut Rng(seed));
        let a = to_trial(&replay(&base, shape_a, &mut Rng(seed ^ 1)));
        let b = to_trial(&replay(&base, shape_b, &mut Rng(seed ^ 2)));
        let reference = PairAnalyzer::new(&a, &b).analyze();
        let ia = TrialIndex::build(&a).unwrap();
        let ib = TrialIndex::build(&b).unwrap();
        let arena = SCRATCH.with(|s| {
            PairAnalyzer::from_indexes(&ia, &ib).analyze_with_scratch(&mut s.borrow_mut())
        });
        prop_assert!(
            comparisons_bit_identical(&arena, &reference),
            "arena {:?} != uncached {:?}",
            arena,
            reference
        );
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_random_pairs(
        trials in proptest::collection::vec(arb_trial(32), 2..5),
    ) {
        // One scratch threaded through every pair (the engine's worker
        // pattern) must match fresh-scratch analyses: no state leaks
        // between pairs of very different sizes.
        let indexes: Vec<TrialIndex<'_>> = trials
            .iter()
            .map(TrialIndex::build)
            .collect::<Result<_, _>>()
            .unwrap();
        let mut scratch = PairScratch::new();
        for i in 0..indexes.len() {
            for j in (i + 1)..indexes.len() {
                let reused = PairAnalyzer::from_indexes(&indexes[i], &indexes[j])
                    .analyze_with_scratch(&mut scratch);
                let fresh = PairAnalyzer::from_indexes(&indexes[i], &indexes[j]).analyze();
                prop_assert!(
                    comparisons_bit_identical(&reused, &fresh),
                    "scratch reuse diverged at pair ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn empty_vs_nonempty_trials_agree(b in arb_trial(32)) {
        let a = Trial::new();
        let reference = PairAnalyzer::new(&a, &b).analyze();
        let ia = TrialIndex::build(&a).unwrap();
        let ib = TrialIndex::build(&b).unwrap();
        let arena = PairAnalyzer::from_indexes(&ia, &ib).analyze();
        prop_assert!(comparisons_bit_identical(&arena, &reference));
    }

    #[test]
    fn record_slice_matches_scalar_add(
        deltas in proptest::collection::vec(
            prop_oneof![
                // Magnitudes across the bucket decades, both signs,
                // including sub-ns and clamp-range values.
                -1e10f64..1e10,
                -1.0f64..1.0,
                Just(0.0f64),
            ],
            0..200,
        ),
    ) {
        let mut scalar = DeltaHistogram::new();
        for &d in &deltas {
            scalar.add(d);
        }
        let mut sliced = DeltaHistogram::new();
        sliced.record_slice(&deltas);
        prop_assert_eq!(sliced.total(), scalar.total());
        prop_assert_eq!(sliced.clamped(), scalar.clamped());
        prop_assert_eq!(sliced.to_csv(), scalar.to_csv());
    }
}
