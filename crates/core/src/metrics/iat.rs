//! `I` — variation in inter-arrival time (paper Eq. 4).
//!
//! For a common packet, `g_Xi` is the gap between it and its immediate
//! predecessor *in that trial* (`g_X0 = 0` for a trial's first packet, via
//! the paper's base case `t_X0 = t_X(−1)`). The metric sums `|g_Ai − g_Bi|`
//! over the overlap and normalizes by the proven maximum — the Fig. 3
//! construction — whose value is the sum of the two trials' spans:
//!
//! ```text
//! I_AB = Σ |g_Ai − g_Bi| / ((t_B|B| − t_B0) + (t_A|A| − t_A0))
//! ```
//!
//! The numerator is GapReplay's "IAT deviation"; the denominator is this
//! paper's normalization contribution.

use super::allpairs::TrialIndex;
use super::matching::Matching;
use super::trial::Trial;

/// IAT analysis output.
#[derive(Debug, Clone)]
pub(crate) struct IatResult {
    /// The normalized IAT metric in `[0, 1]`.
    pub i: f64,
    /// Per-common-packet IAT deltas `g_Ai − g_Bi` in nanoseconds, in B
    /// arrival order — the series behind the figures' histograms.
    pub deltas_ns: Vec<f64>,
}

/// Eq. 4's normalizer and degenerate-case rule, stated once: the
/// reference kernel, the arena kernel and the streaming engine all call
/// it with their own exact `Σ|g_Ai − g_Bi|` (picoseconds).
///
/// Min/max spans keep the bound valid when hardware stamp noise inverts
/// a few arrivals; the clamp covers residual pathology.
///
/// Degenerate cases are pinned to exactly 0.0 rather than left to the
/// clamp: with ≤1 common packet there is no *pair* of common arrivals
/// to take an inter-arrival time between (the lone gap is measured
/// against a non-common predecessor, or is the g_X0 = 0 base case),
/// and a zero joint span would divide by zero. Both say "nothing
/// measurable deviated", and 0.0 — never NaN — is what flows into κ.
pub(crate) fn normalize_i(num_ps: u128, mc: usize, span_a_ps: u64, span_b_ps: u64) -> f64 {
    let denom = span_a_ps as u128 + span_b_ps as u128;
    if mc <= 1 || denom == 0 {
        0.0
    } else {
        (num_ps as f64 / denom as f64).min(1.0)
    }
}

/// The reference IAT kernel, behind [`super::pair::PairAnalyzer::new`]:
/// gaps straight from the trials, one `u128` accumulator.
pub(crate) fn iat_full_core(a: &Trial, b: &Trial, m: &Matching) -> IatResult {
    let mc = m.common();
    if mc == 0 {
        return IatResult {
            i: 0.0,
            deltas_ns: Vec::new(),
        };
    }
    let mut num: u128 = 0;
    let mut deltas_ns = Vec::with_capacity(mc);
    for p in &m.pairs {
        let ga = a.gap_ps(p.a_idx);
        let gb = b.gap_ps(p.b_idx);
        let d = ga - gb;
        num += d.unsigned_abs() as u128;
        deltas_ns.push(d as f64 / 1000.0);
    }
    let i = normalize_i(num, mc, a.minmax_span_ps(), b.minmax_span_ps());
    IatResult { i, deltas_ns }
}

/// The production IAT kernel, behind
/// [`super::pair::PairAnalyzer::from_indexes`] — bit-identical to
/// [`iat_full_core`], taking the same gaps from [`Trial::gap_ps`] into a
/// caller-owned scratch vector.
///
/// The reference accumulates `Σ|d|` in a `u128`, which the compiler will
/// not vectorize. Here each `|d| < 2^64` is split into its low and high
/// 32-bit halves and both are summed in independent `u64` lanes — exact,
/// because `mc ≤ u32::MAX` terms of at most `2^32 − 1` each cannot
/// overflow a `u64` — and recombined into the identical `u128` total
/// after the loop. Same values, same order, autovectorizable shape.
pub(crate) fn iat_arena(
    a: &TrialIndex<'_>,
    b: &TrialIndex<'_>,
    m: &Matching,
    deltas_ns: &mut Vec<f64>,
) -> f64 {
    deltas_ns.clear();
    let mc = m.common();
    if mc == 0 {
        return 0.0;
    }
    deltas_ns.reserve(mc);
    let (ta, tb) = (a.trial(), b.trial());
    let (mut lo, mut hi) = (0u64, 0u64);
    for p in &m.pairs {
        let d = ta.gap_ps(p.a_idx) - tb.gap_ps(p.b_idx);
        let ad = d.unsigned_abs();
        lo += ad & 0xFFFF_FFFF;
        hi += ad >> 32;
        deltas_ns.push(d as f64 / 1000.0);
    }
    let num = ((hi as u128) << 32) + lo as u128;
    normalize_i(num, mc, a.minmax_span_ps(), b.minmax_span_ps())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i_of(a: &Trial, b: &Trial) -> IatResult {
        iat_full_core(a, b, &Matching::build(a, b))
    }

    #[test]
    fn identical_trials_zero() {
        let mut a = Trial::new();
        for i in 0..100u64 {
            a.push_tagged(0, 0, i, i * 284_800);
        }
        let r = i_of(&a, &a.clone());
        assert_eq!(r.i, 0.0);
        assert!(r.deltas_ns.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn first_packet_base_case() {
        // Both trials' first packets have g = 0 regardless of times.
        let mut a = Trial::new();
        a.push_tagged(0, 0, 0, 12345);
        a.push_tagged(0, 0, 1, 20000);
        let mut b = Trial::new();
        b.push_tagged(0, 0, 0, 0);
        b.push_tagged(0, 0, 1, 7655);
        let r = i_of(&a, &b);
        assert_eq!(r.deltas_ns[0], 0.0);
    }

    #[test]
    fn uniform_shift_of_gap() {
        // B stretches each 1 us gap by 10 ns: each delta = -10 ns.
        let n = 11u64;
        let mut a = Trial::new();
        let mut b = Trial::new();
        for i in 0..n {
            a.push_tagged(0, 0, i, i * 1_000_000);
            b.push_tagged(0, 0, i, i * 1_010_000);
        }
        let r = i_of(&a, &b);
        for &d in &r.deltas_ns[1..] {
            assert!((d + 10.0).abs() < 1e-9, "delta {d}");
        }
        // num = (n-1)*10ns; denom = spanA + spanB = 10us + 10.1us.
        let expected = (10.0 * 10_000.0) / (10_000_000.0 + 10_100_000.0);
        assert!((r.i - expected).abs() < 1e-12, "got {}", r.i);
    }

    #[test]
    fn figure3_maximum_situation_reaches_one() {
        // Fig. 3: in A the first common packet at t_A0 and all others at
        // t_A|A|; in B all at t_B0 except the last common packet at t_B|B|.
        let t = 1_000_000u64;
        let n = 6u64; // > 2 common packets, per the paper's caveat
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
        let r = i_of(&a, &b);
        assert!((r.i - 1.0).abs() < 1e-12, "got {}", r.i);
    }

    #[test]
    fn symmetric() {
        let mut a = Trial::new();
        let mut b = Trial::new();
        for i in 0..30u64 {
            a.push_tagged(0, 0, i, i * 100 + (i % 5) * 3);
            b.push_tagged(0, 0, i, i * 100 + (i % 7) * 2);
        }
        let iab = i_of(&a, &b).i;
        let iba = i_of(&b, &a).i;
        assert!((iab - iba).abs() < 1e-15);
    }

    #[test]
    fn gaps_use_trial_local_predecessor() {
        // §3's example: common packet is 5th in A and 4th in B; gaps are
        // measured against each trial's own preceding packet, common or
        // not.
        let mut a = Trial::new();
        for i in 0..4u64 {
            a.push_tagged(7, 0, i, i * 100); // non-common filler
        }
        a.push_tagged(0, 0, 0, 450); // the common packet, gap 150
        let mut b = Trial::new();
        for i in 0..3u64 {
            b.push_tagged(8, 0, i, i * 100);
        }
        b.push_tagged(0, 0, 0, 230); // gap 30
        let r = i_of(&a, &b);
        assert_eq!(r.deltas_ns.len(), 1);
        assert!((r.deltas_ns[0] - 0.120).abs() < 1e-12); // 120 ps = 0.12 ns
    }

    #[test]
    fn no_overlap_is_zero() {
        let mut a = Trial::new();
        a.push_tagged(0, 0, 1, 0);
        let mut b = Trial::new();
        b.push_tagged(1, 0, 1, 0);
        assert_eq!(i_of(&a, &b).i, 0.0);
    }

    #[test]
    fn zero_span_degenerate() {
        let mut a = Trial::new();
        a.push_tagged(0, 0, 0, 5);
        a.push_tagged(0, 0, 1, 5);
        let r = i_of(&a, &a.clone());
        assert_eq!(r.i, 0.0);
        assert!(!r.i.is_nan());
    }

    #[test]
    fn single_common_packet_is_exactly_zero() {
        // One common packet carries no inter-arrival information (its
        // only gap is the base case g_X0 = 0): I is defined as exactly
        // 0.0 even when the trials have non-zero spans.
        let mut a = Trial::new();
        a.push_tagged(0, 0, 0, 0);
        a.push_tagged(7, 0, 0, 1_000_000);
        let mut b = Trial::new();
        b.push_tagged(8, 0, 0, 0);
        b.push_tagged(0, 0, 0, 500_000);
        let r = i_of(&a, &b);
        assert_eq!(r.deltas_ns.len(), 1);
        assert_eq!(r.i, 0.0);
        assert!(!r.i.is_nan());
    }

    #[test]
    fn bounded_by_one_under_stress() {
        // Extreme but valid constructions stay within [0, 1].
        let mut a = Trial::new();
        let mut b = Trial::new();
        a.push_tagged(0, 0, 0, 0);
        a.push_tagged(0, 0, 1, 1_000_000_000);
        a.push_tagged(0, 0, 2, 1_000_000_001);
        b.push_tagged(0, 0, 0, 0);
        b.push_tagged(0, 0, 1, 1);
        b.push_tagged(0, 0, 2, 1_000_000_001);
        let r = i_of(&a, &b);
        assert!(r.i >= 0.0 && r.i <= 1.0, "got {}", r.i);
    }
}
