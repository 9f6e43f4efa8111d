//! GapReplay's raw (unnormalized) accuracy metrics.
//!
//! The paper's L and I numerators are "identical to the 'cumulative
//! latency'" and "'IAT deviation' metrics used in the GapReplay paper;
//! our denominator normalizes this metric so it is comparable between
//! trials" (§3). This module exposes the *raw* GapReplay quantities so
//! results can be compared against literature that reports them
//! unnormalized, and so the normalization itself can be inspected.
//! The sums run over the pair's matching, so a tool that reports κ too
//! matches the pair once ([`super::PairAnalyzer::matching`]).

use super::matching::Matching;
use super::trial::Trial;

/// GapReplay-style raw accuracy numbers for a run pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapReplayMetrics {
    /// Σ |l_Ai − l_Bi| over common packets, in nanoseconds ("cumulative
    /// latency").
    pub cumulative_latency_ns: f64,
    /// Σ |g_Ai − g_Bi| over common packets, in nanoseconds ("IAT
    /// deviation").
    pub iat_deviation_ns: f64,
    /// Mean |l_Ai − l_Bi| per common packet, ns.
    pub mean_latency_delta_ns: f64,
    /// Mean |g_Ai − g_Bi| per common packet, ns.
    pub mean_iat_delta_ns: f64,
    /// Common packets the sums run over.
    pub common: usize,
}

/// The raw GapReplay metrics of `b` against `a` over their matching `m`.
pub fn gapreplay_metrics(a: &Trial, b: &Trial, m: &Matching) -> GapReplayMetrics {
    let mc = m.common();
    if mc == 0 {
        return GapReplayMetrics {
            cumulative_latency_ns: 0.0,
            iat_deviation_ns: 0.0,
            mean_latency_delta_ns: 0.0,
            mean_iat_delta_ns: 0.0,
            common: 0,
        };
    }
    let ta0 = a.start_ps() as i128;
    let tb0 = b.start_ps() as i128;
    let mut lat: u128 = 0;
    let mut iat: u128 = 0;
    for p in &m.pairs {
        let la = a.time(p.a_idx) as i128 - ta0;
        let lb = b.time(p.b_idx) as i128 - tb0;
        lat += (la - lb).unsigned_abs();
        let ga = a.gap_ps(p.a_idx);
        let gb = b.gap_ps(p.b_idx);
        iat += (ga - gb).unsigned_abs() as u128;
    }
    let cumulative_latency_ns = lat as f64 / 1_000.0;
    let iat_deviation_ns = iat as f64 / 1_000.0;
    GapReplayMetrics {
        cumulative_latency_ns,
        iat_deviation_ns,
        mean_latency_delta_ns: cumulative_latency_ns / mc as f64,
        mean_iat_delta_ns: iat_deviation_ns / mc as f64,
        common: mc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::pair::PairAnalyzer;

    fn cbr(n: u64, gap: u64, shift: u64) -> Trial {
        let mut t = Trial::new();
        for i in 0..n {
            t.push_tagged(0, 0, i, i * gap + if i > 0 { shift } else { 0 });
        }
        t
    }

    #[test]
    fn raw_sums_match_hand_computation() {
        // B shifts every non-first packet 5 ns late: latency delta 5 ns
        // for n-1 packets; IAT delta 5 ns for exactly one packet (the
        // second — later gaps are unchanged).
        let a = cbr(10, 1_000_000, 0);
        let b = cbr(10, 1_000_000, 5_000);
        let g = gapreplay_metrics(&a, &b, &Matching::build(&a, &b));
        assert_eq!(g.common, 10);
        assert!((g.cumulative_latency_ns - 45.0).abs() < 1e-9);
        assert!((g.iat_deviation_ns - 5.0).abs() < 1e-9);
        assert!((g.mean_latency_delta_ns - 4.5).abs() < 1e-9);
    }

    #[test]
    fn normalized_metrics_are_raw_over_paper_denominators() {
        // The paper's claim: same numerator, new denominator. Verify the
        // relationship numerically.
        let mut a = Trial::new();
        let mut b = Trial::new();
        for i in 0..50u64 {
            a.push_tagged(0, 0, i, i * 1_000 + (i % 3) * 17);
            b.push_tagged(0, 0, i, i * 1_000 + (i % 5) * 11);
        }
        let g = gapreplay_metrics(&a, &b, &Matching::build(&a, &b));
        let m = PairAnalyzer::new(&a, &b).metrics();
        let (l, i) = (m.l, m.i);

        let reach = (b.end_ps() as f64).max(a.end_ps() as f64) / 1_000.0; // both start at 0
        let l_expected = g.cumulative_latency_ns / (g.common as f64 * reach);
        assert!((l - l_expected).abs() < 1e-12, "{l} vs {l_expected}");

        let denom = (a.span_ps() + b.span_ps()) as f64 / 1_000.0;
        let i_expected = g.iat_deviation_ns / denom;
        assert!((i - i_expected).abs() < 1e-12, "{i} vs {i_expected}");
    }

    #[test]
    fn empty_overlap_is_zero() {
        let mut a = Trial::new();
        a.push_tagged(0, 0, 1, 0);
        let mut b = Trial::new();
        b.push_tagged(9, 0, 1, 0);
        let g = gapreplay_metrics(&a, &b, &Matching::build(&a, &b));
        assert_eq!(g.common, 0);
        assert_eq!(g.cumulative_latency_ns, 0.0);
    }
}
