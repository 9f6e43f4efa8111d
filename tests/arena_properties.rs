//! Property tests of the arena-backed metric kernels: the flat-arena
//! `TrialIndex` pair path (`PairAnalyzer::from_indexes`, streamed by the
//! vectorizable kernels) must be bit-identical to the uncached reference
//! path (`PairAnalyzer::new`) over randomized trials with duplicates,
//! reorders, drops, and empty trials — the same ground-truth contract the
//! sharded engine is held to, stated at the pair level.

mod common;

use std::cell::RefCell;

use choir::metrics::allpairs::TrialIndex;
use choir::metrics::histogram::SliceScratch;
use choir::metrics::{stats, DeltaHistogram, PairAnalyzer, PairScratch, Trial};
use common::{arb_shape, arb_trial, baseline, replay, to_trial, Rng};
use proptest::prelude::*;

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
        prop_assert_eq!(arena.bits(), reference.bits());
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
        prop_assert_eq!(arena.bits(), reference.bits());
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
                prop_assert_eq!(
                    reused.bits(),
                    fresh.bits(),
                    "scratch reuse diverged at pair ({}, {})",
                    i,
                    j
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
        prop_assert_eq!(arena.bits(), reference.bits());
    }

    /// `record_slice` against its oracle, bit for bit: `add` per sample,
    /// `stats::fraction_within` at 10 ns, and p50/p90/p99 of the sorted
    /// |Δ| by `stats::percentile_sorted`.
    #[test]
    fn record_slice_matches_scalar_add(
        deltas in proptest::collection::vec(
            prop_oneof![
                // Magnitudes across the bucket decades, both signs,
                // including sub-ns and clamp-range values, and many
                // samples sharing a value or a key counter.
                -1e10f64..1e10,
                -20.0f64..20.0,
                -1.0f64..1.0,
                (-120i32..120).prop_map(f64::from),
                Just(0.0f64),
                Just(-0.0f64),
                Just(10.0f64),
                Just(-10.0f64),
            ],
            0..300,
        ),
    ) {
        let mut scalar = DeltaHistogram::new();
        for &d in &deltas {
            scalar.add(d);
        }
        let mut sliced = DeltaHistogram::new();
        let got = sliced.record_slice(&deltas, &mut SliceScratch::default());
        prop_assert_eq!(sliced, scalar);
        let within = stats::fraction_within(deltas.iter().copied(), 10.0);
        prop_assert_eq!(got.within_10ns.to_bits(), within.to_bits());
        let (p50, p90, p99) = got.abs_percentiles_ns;
        let mut abs: Vec<f64> = deltas.iter().map(|d| d.abs()).collect();
        abs.sort_by(f64::total_cmp);
        for (p, v) in [(50.0, p50), (90.0, p90), (99.0, p99)] {
            let want = if abs.is_empty() { 0.0 } else { stats::percentile_sorted(&abs, p) };
            prop_assert_eq!(v.to_bits(), want.to_bits(), "p{}", p);
        }
    }
}
