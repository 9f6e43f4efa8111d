//! `L` — variation in latency (paper Eq. 3).
//!
//! For each common packet, its latency within a trial is its arrival time
//! relative to the trial's first arrival: `l_Ai = t_Aj − t_A0`. The metric
//! sums `|l_Ai − l_Bi|` over the overlap and normalizes by the paper's
//! proven maximum — all common packets at one end of A and the opposite
//! end of B (Fig. 2):
//!
//! ```text
//! L_AB = Σ |l_Ai − l_Bi| / (|A∩B| · max(t_B|B| − t_A0, t_A|A| − t_B0))
//! ```
//!
//! The numerator is GapReplay's "cumulative latency"; the denominator is
//! this paper's normalization contribution.
//!
//! Because `l` is anchored on each trial's *first* packet, a timing
//! excursion on that one packet shifts every delta by the same amount —
//! producing the single-spike histograms the paper observes ("either one
//! spike far to one side or two spikes symmetrically across 0", §7). The
//! tests pin that behaviour.

use super::allpairs::TrialIndex;
use super::matching::Matching;
use super::trial::{Trial, MAX_TIMESTAMP_PS};

/// Latency analysis output.
#[derive(Debug, Clone)]
pub(crate) struct LatencyResult {
    /// The normalized latency metric in `[0, 1]`.
    pub l: f64,
    /// Per-common-packet latency deltas `l_Ai − l_Bi` in nanoseconds, in
    /// B arrival order — the series behind the figures' histograms.
    pub deltas_ns: Vec<f64>,
}

/// Eq. 3's normalizer and degenerate-case rule, stated once: the
/// reference kernel, the arena kernel and the streaming engine all call
/// it with their own exact `Σ|l_Ai − l_Bi|` (picoseconds).
///
/// The paper writes the normalizer as max(t_B|B| − t_A0, t_A|A| − t_B0),
/// which assumes both captures are expressed from a common origin
/// (theirs are re-zeroed). For arbitrary time bases that expression can
/// under-estimate and push L past 1; the convention-independent
/// equivalent is max(span_A, span_B) — identical whenever t_A0 = t_B0,
/// and a provable bound for any time-ordered capture (l_Xi ∈
/// [0, span_X]). Spans are the min/max extent so mildly inverted
/// hardware stamps keep the bound tight; the final clamp covers the
/// residual pathological case.
///
/// Degenerate cases are pinned to exactly 0.0: with a single common
/// packet the normalizer's worst-case construction (Fig. 2) needs at
/// least two packets to move relative to each other, so no meaningful
/// ratio exists; a zero reach would divide by zero. Both resolve to "no
/// measurable latency variation" — 0.0, never NaN, flows into κ.
pub(crate) fn normalize_l(num_ps: u128, mc: usize, span_a_ps: u64, span_b_ps: u64) -> f64 {
    let reach = (span_a_ps as i128).max(span_b_ps as i128);
    let denom = mc as i128 * reach;
    if mc <= 1 || denom <= 0 {
        0.0
    } else {
        (num_ps as f64 / denom as f64).min(1.0)
    }
}

/// The reference latency kernel, behind
/// [`super::pair::PairAnalyzer::new`]: every subtraction in `i128`,
/// straight from the trials. The per-packet deltas are reported even
/// when `L` is degenerate.
pub(crate) fn latency_full_core(a: &Trial, b: &Trial, m: &Matching) -> LatencyResult {
    let mc = m.common();
    if mc == 0 {
        return LatencyResult {
            l: 0.0,
            deltas_ns: Vec::new(),
        };
    }
    let ta0 = a.start_ps() as i128;
    let tb0 = b.start_ps() as i128;
    let mut num: u128 = 0;
    let mut deltas_ns = Vec::with_capacity(mc);
    for p in &m.pairs {
        let la = a.time(p.a_idx) as i128 - ta0;
        let lb = b.time(p.b_idx) as i128 - tb0;
        let d = la - lb;
        num += d.unsigned_abs();
        deltas_ns.push(d as f64 / 1000.0);
    }
    let l = normalize_l(num, mc, a.minmax_span_ps(), b.minmax_span_ps());
    LatencyResult { l, deltas_ns }
}

/// The production latency kernel, behind
/// [`super::pair::PairAnalyzer::from_indexes`] — bit-identical to
/// [`latency_full_core`], reading each matched observation's `t_ps` off
/// the indexed trials into a caller-owned scratch vector.
///
/// The reference does every subtraction in `i128`. When both trials'
/// timestamps sit below [`MAX_TIMESTAMP_PS`] (every realistic capture:
/// that is ~53 days in picoseconds) each latency `l = t − t0` fits `i64`,
/// the difference of two such fits `i64`, and `d as f64` rounds
/// identically from `i64` and `i128` — so the fast path runs the whole
/// loop in native 64-bit lanes with the same split-lane `u64`
/// accumulation as the IAT kernel. Trials beyond the gate fall back to
/// the exact `i128` arithmetic of the reference.
pub(crate) fn latency_arena(
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
    let (oa, ob) = (ta.observations(), tb.observations());
    let num: u128 = if a.max_time_ps() < MAX_TIMESTAMP_PS && b.max_time_ps() < MAX_TIMESTAMP_PS {
        let ta0 = ta.start_ps() as i64;
        let tb0 = tb.start_ps() as i64;
        let (mut lo, mut hi) = (0u64, 0u64);
        for p in &m.pairs {
            let la = oa[p.a_idx].t_ps as i64 - ta0;
            let lb = ob[p.b_idx].t_ps as i64 - tb0;
            let d = la - lb;
            let ad = d.unsigned_abs();
            lo += ad & 0xFFFF_FFFF;
            hi += ad >> 32;
            deltas_ns.push(d as f64 / 1000.0);
        }
        ((hi as u128) << 32) + lo as u128
    } else {
        let ta0 = ta.start_ps() as i128;
        let tb0 = tb.start_ps() as i128;
        let mut num: u128 = 0;
        for p in &m.pairs {
            let la = oa[p.a_idx].t_ps as i128 - ta0;
            let lb = ob[p.b_idx].t_ps as i128 - tb0;
            let d = la - lb;
            num += d.unsigned_abs();
            deltas_ns.push(d as f64 / 1000.0);
        }
        num
    };
    normalize_l(num, mc, a.minmax_span_ps(), b.minmax_span_ps())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_of(a: &Trial, b: &Trial) -> LatencyResult {
        latency_full_core(a, b, &Matching::build(a, b))
    }

    #[test]
    fn identical_trials_zero() {
        let mut a = Trial::new();
        for i in 0..50u64 {
            a.push_tagged(0, 0, i, i * 1000);
        }
        let r = l_of(&a, &a.clone());
        assert_eq!(r.l, 0.0);
        assert!(r.deltas_ns.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn paper_example_nine_vs_eight_ns() {
        // §3: packet arrives 9 ns after start of A and 8 ns after start of
        // B -> l_An = 9, l_Bn = 8 (delta 1 ns).
        let mut a = Trial::new();
        a.push_tagged(0, 0, 0, 0);
        a.push_tagged(0, 0, 1, 9_000); // 9 ns in ps
        let mut b = Trial::new();
        b.push_tagged(0, 0, 0, 0);
        b.push_tagged(0, 0, 1, 8_000);
        let r = l_of(&a, &b);
        assert_eq!(r.deltas_ns[1], 1.0);
        // num = 1 ns; denom = 2 * max(8, 9) ns.
        assert!((r.l - 1_000.0 / (2.0 * 9_000.0)).abs() < 1e-12);
    }

    #[test]
    fn figure2_maximum_situation_reaches_one() {
        // Fig. 2: all common packets at one end of A, the opposite end of
        // B. L must reach exactly 1.
        let t_end = 1_000_000u64;
        let mut a = Trial::new();
        let mut b = Trial::new();
        // A: 5 common packets at t=0, then a non-common packet at t_end.
        for i in 0..5u64 {
            a.push_tagged(0, 0, i, 0);
        }
        a.push_tagged(9, 0, 0, t_end);
        // B: a non-common packet at 0, then the common packets at t_end.
        b.push_tagged(9, 0, 1, 0);
        for i in 0..5u64 {
            b.push_tagged(0, 0, i, t_end);
        }
        let r = l_of(&a, &b);
        assert!((r.l - 1.0).abs() < 1e-12, "got {}", r.l);
    }

    #[test]
    fn symmetric() {
        let mut a = Trial::new();
        let mut b = Trial::new();
        for i in 0..20u64 {
            a.push_tagged(0, 0, i, i * 100);
            b.push_tagged(0, 0, i, i * 100 + (i % 3) * 7);
        }
        let lab = l_of(&a, &b).l;
        let lba = l_of(&b, &a).l;
        assert!((lab - lba).abs() < 1e-15);
    }

    #[test]
    fn first_packet_excursion_shifts_all_deltas() {
        // The spike phenomenon: if B's first packet is late by 5 us, every
        // delta shifts by +5 us even though later packets are punctual.
        let n = 10u64;
        let gap = 1_000_000u64; // 1 us
        let mut a = Trial::new();
        let mut b = Trial::new();
        for i in 0..n {
            a.push_tagged(0, 0, i, i * gap);
            // B identical except packet 0 arrives 5 us late... which makes
            // it arrive *after* packet 1; keep order by shifting only the
            // recorded time base: first packet late but still first.
            let t = if i == 0 { 500_000 } else { i * gap };
            b.push_tagged(0, 0, i, t);
        }
        let r = l_of(&a, &b);
        // All deltas after the first equal +0.5 us (B's origin moved).
        for &d in &r.deltas_ns[1..] {
            assert!((d - 500.0).abs() < 1e-9, "delta {d}");
        }
        assert_eq!(r.deltas_ns[0], 0.0);
    }

    #[test]
    fn no_overlap_is_zero() {
        let mut a = Trial::new();
        a.push_tagged(0, 0, 1, 0);
        let mut b = Trial::new();
        b.push_tagged(1, 0, 1, 0);
        assert_eq!(l_of(&a, &b).l, 0.0);
    }

    #[test]
    fn single_common_packet_zero() {
        // One common packet: the Fig. 2 worst-case normalizer is
        // meaningless for an overlap of one, so L is defined as exactly
        // 0.0 — but the per-packet delta series is still reported.
        let mut a = Trial::new();
        a.push_tagged(0, 0, 1, 0);
        a.push_tagged(0, 0, 2, 500);
        let mut b = Trial::new();
        b.push_tagged(0, 0, 2, 0);
        let r = l_of(&a, &b);
        // Common packet: a_idx 1 (l_A = 500), b_idx 0 (l_B = 0).
        assert_eq!(r.deltas_ns, vec![0.5]);
        assert_eq!(r.l, 0.0);
        assert!(!r.l.is_nan());
    }

    #[test]
    fn coincident_trials_degenerate_denominator() {
        // All packets at one instant in both trials: reach = 0; L = 0.
        let mut a = Trial::new();
        a.push_tagged(0, 0, 0, 0);
        let r = l_of(&a, &a.clone());
        assert_eq!(r.l, 0.0);
    }

    #[test]
    fn zero_span_many_common_packets_is_exactly_zero() {
        // Several common packets, all coincident: mc > 1 but reach = 0.
        // L must be exactly 0.0, never NaN from 0/0.
        let mut a = Trial::new();
        for i in 0..5u64 {
            a.push_tagged(0, 0, i, 7_000);
        }
        let r = l_of(&a, &a.clone());
        assert_eq!(r.l, 0.0);
        assert!(!r.l.is_nan());
        assert_eq!(r.deltas_ns.len(), 5);
    }
}
