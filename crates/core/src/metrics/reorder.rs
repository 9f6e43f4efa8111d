//! Reordering probability as a function of packet spacing — the
//! Bellardo–Savage-style view the paper's related-work section points at
//! (§9: "their metric shows reordering (as a probability) as a function
//! of inter-packet spacing... Our metrics capture the distance of
//! reordering, and could also be shown as a function of spacing").
//!
//! For each spacing `k`, we sample all pairs of common packets that are
//! `k` apart in trial B and report the probability that their relative
//! order differs from trial A. This complements `O`: `O` weights *how
//! far* packets moved; this profile shows *at what spacings* inversions
//! occur (e.g. §6.2's burst-offset reordering shows up as inversions
//! concentrated at spacings up to one burst length).

use super::matching::Matching;

/// Reordering probability per spacing.
#[derive(Debug, Clone)]
pub struct ReorderProfile {
    /// `prob[k-1]` = probability that two common packets `k` apart in B
    /// are inverted relative to A.
    pub prob: Vec<f64>,
    /// Number of pairs sampled per spacing.
    pub samples: Vec<u64>,
}

impl ReorderProfile {
    /// Probability of inversion at spacing `k` (1-based), if measured.
    pub fn at(&self, k: usize) -> Option<f64> {
        self.prob.get(k.checked_sub(1)?).copied()
    }

    /// The largest spacing with a non-zero inversion probability.
    pub fn max_inverted_spacing(&self) -> Option<usize> {
        self.prob.iter().rposition(|&p| p > 0.0).map(|idx| idx + 1)
    }
}

/// Compute the inversion-probability profile up to spacing `max_k`.
///
/// Runs in O(m · max_k) over the m common packets.
pub fn reorder_profile(m: &Matching, max_k: usize) -> ReorderProfile {
    // a_rank of each common packet, in B order (same ranking as `ordering`).
    let mc = m.common();
    let mut order: Vec<u32> = (0..mc as u32).collect();
    order.sort_unstable_by_key(|&k| m.pairs[k as usize].a_idx);
    let mut seq = vec![0u32; mc];
    for (a_rank, &k) in order.iter().enumerate() {
        seq[k as usize] = a_rank as u32;
    }

    let kmax = max_k.min(mc.saturating_sub(1));
    let mut inverted = vec![0u64; kmax];
    let mut samples = vec![0u64; kmax];
    for k in 1..=kmax {
        for i in 0..mc - k {
            samples[k - 1] += 1;
            if seq[i] > seq[i + k] {
                inverted[k - 1] += 1;
            }
        }
    }
    let prob = inverted
        .iter()
        .zip(&samples)
        .map(|(&inv, &s)| if s == 0 { 0.0 } else { inv as f64 / s as f64 })
        .collect();
    ReorderProfile { prob, samples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::trial::Trial;

    fn trial(seqs: &[u64]) -> Trial {
        let mut t = Trial::new();
        for (i, &s) in seqs.iter().enumerate() {
            t.push_tagged(0, 0, s, i as u64 * 100);
        }
        t
    }

    fn profile(a: &[u64], b: &[u64], k: usize) -> ReorderProfile {
        reorder_profile(&Matching::build(&trial(a), &trial(b)), k)
    }

    #[test]
    fn in_order_has_zero_probability() {
        let p = profile(&[0, 1, 2, 3, 4], &[0, 1, 2, 3, 4], 4);
        assert!(p.prob.iter().all(|&x| x == 0.0));
        assert_eq!(p.max_inverted_spacing(), None);
    }

    #[test]
    fn adjacent_swap_shows_at_spacing_one() {
        let p = profile(&[0, 1, 2, 3], &[1, 0, 2, 3], 3);
        // One inverted pair of 3 at spacing 1.
        assert!((p.at(1).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.at(2).unwrap(), 0.0);
        assert_eq!(p.max_inverted_spacing(), Some(1));
    }

    #[test]
    fn full_reversal_inverts_everything() {
        let p = profile(&[0, 1, 2, 3, 4], &[4, 3, 2, 1, 0], 4);
        for k in 1..=4 {
            assert_eq!(p.at(k).unwrap(), 1.0, "spacing {k}");
        }
    }

    #[test]
    fn burst_swap_concentrates_at_short_spacings() {
        // Two 4-packet bursts swapped: at spacing 8-1.. the profile decays.
        let a: Vec<u64> = (0..8).collect();
        let b: Vec<u64> = vec![4, 5, 6, 7, 0, 1, 2, 3];
        let p = profile(&a, &b, 7);
        // Spacing 4 compares i and i+4: all 4 pairs inverted.
        assert_eq!(p.at(4).unwrap(), 1.0);
        // Spacing 1: ordered within bursts, inverted only at the boundary
        // (pair 7,0) -> 1 of 7.
        assert!((p.at(1).unwrap() - 1.0 / 7.0).abs() < 1e-12);
        // Spacing 7: pair (4, 3): inverted.
        assert_eq!(p.at(7).unwrap(), 1.0);
    }

    #[test]
    fn spacing_capped_by_length() {
        let p = profile(&[0, 1], &[0, 1], 100);
        assert_eq!(p.prob.len(), 1);
        assert_eq!(p.samples[0], 1);
    }

    #[test]
    fn empty_matching() {
        let p = profile(&[], &[], 5);
        assert!(p.prob.is_empty());
    }
}
