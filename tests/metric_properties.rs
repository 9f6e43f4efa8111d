//! Property-based tests of the consistency metric suite (paper §3):
//! symmetry, normalization, invariances, and agreement with reference
//! implementations, over randomized trials.

use choir::metrics::matching::Matching;
use choir::metrics::{compare, PairAnalyzer, Trial};
use proptest::prelude::*;

/// A random trial with *arbitrary* (possibly non-monotonic) timestamps —
/// what pathological hardware stamping could produce.
fn arb_unsorted_trial(max_len: usize) -> impl Strategy<Value = Trial> {
    proptest::collection::vec((0u64..64, 0u64..1_000_000), 0..max_len).prop_map(|obs| {
        let mut t = Trial::new();
        for (s, ts) in obs {
            t.push_tagged(0, 0, s, ts);
        }
        t
    })
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn all_metrics_are_symmetric(a in arb_trial(40), b in arb_trial(40)) {
        let mab = compare(&a, &b);
        let mba = compare(&b, &a);
        prop_assert!((mab.u - mba.u).abs() < 1e-12);
        prop_assert!((mab.o - mba.o).abs() < 1e-9);
        prop_assert!((mab.l - mba.l).abs() < 1e-12);
        prop_assert!((mab.i - mba.i).abs() < 1e-12);
        prop_assert!((mab.kappa - mba.kappa).abs() < 1e-9);
    }

    #[test]
    fn all_metrics_are_normalized(a in arb_trial(40), b in arb_trial(40)) {
        let m = compare(&a, &b);
        prop_assert!((0.0..=1.0).contains(&m.u), "U = {}", m.u);
        prop_assert!((0.0..=1.0).contains(&m.o), "O = {}", m.o);
        prop_assert!((0.0..=1.0).contains(&m.l), "L = {}", m.l);
        prop_assert!((0.0..=1.0).contains(&m.i), "I = {}", m.i);
        prop_assert!((0.0..=1.0).contains(&m.kappa), "kappa = {}", m.kappa);
        prop_assert!(m.magnitude() <= 2.0 + 1e-12);
    }

    #[test]
    fn metrics_stay_normalized_even_for_disordered_stamps(
        a in arb_unsorted_trial(40),
        b in arb_unsorted_trial(40),
    ) {
        // Hardware stamp noise can hand the analyzer captures whose
        // timestamps are not monotone; every metric must stay in [0, 1]
        // regardless (no u64 wraparound, no denominator undershoot).
        let m = compare(&a, &b);
        prop_assert!((0.0..=1.0).contains(&m.u), "U = {}", m.u);
        prop_assert!((0.0..=1.0).contains(&m.o), "O = {}", m.o);
        prop_assert!((0.0..=1.0).contains(&m.l), "L = {}", m.l);
        prop_assert!((0.0..=1.0).contains(&m.i), "I = {}", m.i);
        prop_assert!((0.0..=1.0).contains(&m.kappa), "kappa = {}", m.kappa);
        // And rezeroing such a capture never explodes.
        let z = a.rezeroed();
        prop_assert!(z.minmax_span_ps() <= a.minmax_span_ps());
    }

    #[test]
    fn self_comparison_is_perfect(a in arb_trial(40)) {
        let m = compare(&a, &a.clone());
        prop_assert_eq!(m.u, 0.0);
        prop_assert_eq!(m.o, 0.0);
        prop_assert_eq!(m.l, 0.0);
        prop_assert_eq!(m.i, 0.0);
        prop_assert_eq!(m.kappa, 1.0);
    }

    #[test]
    fn uniqueness_ignores_order_and_time(
        seqs in proptest::collection::vec(0u64..64, 1..40),
        shuffle_seed in any::<u64>(),
    ) {
        let mut a = Trial::new();
        for (i, &s) in seqs.iter().enumerate() {
            a.push_tagged(0, 0, s, i as u64 * 100);
        }
        // Deterministic shuffle of the same multiset.
        let mut shuffled = seqs.clone();
        let mut state = shuffle_seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let mut b = Trial::new();
        for (i, &s) in shuffled.iter().enumerate() {
            b.push_tagged(0, 0, s, i as u64 * 777);
        }
        prop_assert!(compare(&a, &b).u.abs() < 1e-12);
    }

    #[test]
    fn uniqueness_counts_missing_packets_exactly(
        n in 2usize..50,
        k in 1usize..10,
    ) {
        let k = k.min(n - 1);
        let mut a = Trial::new();
        for i in 0..n as u64 {
            a.push_tagged(0, 0, i, i * 100);
        }
        let mut b = Trial::new();
        for i in 0..(n - k) as u64 {
            b.push_tagged(0, 0, i, i * 100);
        }
        let expected = 1.0 - (2.0 * (n - k) as f64) / ((n + n - k) as f64);
        prop_assert!((compare(&a, &b).u - expected).abs() < 1e-12);
    }

    #[test]
    fn lis_ordering_matches_quadratic_reference(perm in proptest::collection::vec(0u32..1000, 1..60)) {
        // Build a permutation of distinct values by deduplicating.
        let mut vals: Vec<u32> = perm;
        vals.sort_unstable();
        vals.dedup();
        let n = vals.len();
        // Derive a deterministic permutation from the values themselves.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| vals[i].wrapping_mul(2654435761) ^ i as u32);

        let mut a = Trial::new();
        let mut b = Trial::new();
        for (i, &o) in order.iter().enumerate() {
            a.push_tagged(0, 0, i as u64, i as u64 * 100);
            b.push_tagged(0, 0, o as u64, i as u64 * 100);
        }
        let cmp = PairAnalyzer::new(&a, &b).analyze();
        // Reference: O(n^2) LIS length over B's a-ranks.
        let seq: Vec<usize> = order.clone();
        let mut best = vec![1usize; n];
        let mut lis = 0;
        for i in 0..n {
            for j in 0..i {
                if seq[j] < seq[i] {
                    best[i] = best[i].max(best[j] + 1);
                }
            }
            lis = lis.max(best[i]);
        }
        prop_assert_eq!(cmp.common - cmp.moved, lis);
        prop_assert_eq!(cmp.moved, n - lis);
    }

    #[test]
    fn uniform_time_shift_changes_nothing(a in arb_trial(40), shift in 0u64..1_000_000) {
        // Latency and IAT are defined relative to each trial's own
        // timeline, so shifting a whole trial must not change any metric.
        let shifted: Trial = a
            .observations()
            .iter()
            .map(|o| (o.id, o.t_ps + shift))
            .collect();
        let m0 = compare(&a, &a.clone());
        let m1 = compare(&a, &shifted);
        prop_assert!((m0.l - m1.l).abs() < 1e-12);
        prop_assert!((m0.i - m1.i).abs() < 1e-12);
        prop_assert!((m0.kappa - m1.kappa).abs() < 1e-12);
    }

    #[test]
    fn matching_counts_are_consistent(a in arb_trial(40), b in arb_trial(40)) {
        let m = Matching::build(&a, &b);
        prop_assert_eq!(m.common() + m.missing_in_b(), m.a_len);
        prop_assert_eq!(m.common() + m.extra_in_b(), m.b_len);
        prop_assert!(m.common() <= m.a_len.min(m.b_len));
        // Pairs are ordered by B index and use valid indices.
        for w in m.pairs.windows(2) {
            prop_assert!(w[0].b_idx < w[1].b_idx);
        }
        for p in &m.pairs {
            prop_assert_eq!(a.id(p.a_idx), b.id(p.b_idx));
        }
    }

    #[test]
    fn kappa_decreases_with_added_drops(n in 10usize..60, drops in 1usize..5) {
        let drops = drops.min(n - 2);
        let mut a = Trial::new();
        for i in 0..n as u64 {
            a.push_tagged(0, 0, i, i * 1_000);
        }
        let mut fewer = Trial::new();
        for i in drops as u64..n as u64 {
            fewer.push_tagged(0, 0, i, i * 1_000);
        }
        let perfect = compare(&a, &a.clone());
        let dropped = compare(&a, &fewer);
        prop_assert!(dropped.kappa < perfect.kappa);
        prop_assert!(dropped.u > 0.0);
    }
}

#[test]
fn histogram_mass_is_conserved_under_merge() {
    use choir::metrics::DeltaHistogram;
    let mut h1 = DeltaHistogram::of((0..500).map(|i| (i as f64 - 250.0) * 3.3));
    let h2 = DeltaHistogram::of((0..300).map(|i| i as f64 * 11.1));
    h1.merge(&h2);
    assert_eq!(h1.total(), 800);
    let sum: u64 = h1.buckets().iter().map(|&(_, _, c, _)| c).sum();
    assert_eq!(sum, 800);
}
