//! Windowed consistency analysis — *where in time* did two runs diverge?
//!
//! κ is a single number per run pair; when it drops, the next question is
//! whether the inconsistency is uniform (clock wander), concentrated in a
//! burst (a scheduler pause, a noise microburst), or grows over the run
//! (queue buildup). [`windowed_kappa`] splits the common packets into
//! equal-population windows by baseline position and scores each window
//! independently, turning κ into a time series. This is a natural
//! companion to the paper's debugging use case ("non-deterministic
//! failures can be misinterpreted as bugs", §1): it localizes the
//! inconsistency a failing replay saw.

use serde::{Deserialize, Serialize};

use super::kappa::ConsistencyMetrics;
use super::matching::Matching;
use super::pair;
use super::trial::Trial;

/// One window's verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WindowScore {
    /// Window index.
    pub index: usize,
    /// Range of baseline (trial A) packet positions covered.
    pub a_range: (usize, usize),
    /// Metrics computed over just this window's packets.
    pub metrics: ConsistencyMetrics,
    /// Common packets in the window.
    pub common: usize,
}

/// κ per window of the baseline trial.
///
/// Windows partition trial A's positions into `windows` equal spans; each
/// window is scored as a standalone pair of sub-trials (so every window's
/// metrics are normalized to its own span, and a globally-bad run shows
/// *which* windows carry the damage). `m` is the pair's matching (as
/// [`super::reorder::reorder_profile`] takes it): it puts each B packet in
/// the window of its partner in A. Each window's sub-trials are indexed
/// and scored through the production pipeline.
///
/// `windows == 0` is clamped to 1 (a single whole-trial window): callers
/// deriving a window count from a duration or rate can round down to zero
/// without poisoning a whole report run. At most `a.len()` windows are
/// non-empty; only those are built, and nothing is reserved for the rest.
///
/// # Panics
///
/// If a window holds more than [`super::MAX_TRIAL_LEN`] packets, which
/// only a trial A past that bound can.
pub fn windowed_kappa(a: &Trial, b: &Trial, m: &Matching, windows: usize) -> Vec<WindowScore> {
    // b_idx -> a_idx for matched packets (for slicing B per window).
    let mut b_to_a = vec![usize::MAX; b.len()];
    for p in &m.pairs {
        b_to_a[p.b_idx] = p.a_idx;
    }
    let per = a.len().div_ceil(windows.max(1)).max(1);
    (0..a.len())
        .step_by(per)
        .enumerate()
        .map(|(index, lo)| {
            let hi = (lo + per).min(a.len());
            // Sub-trial A: positions lo..hi. Sub-trial B: its packets whose
            // match lies in the window, in B order (B's unmatched packets
            // belong to no window).
            let sub_a: Trial = a.observations()[lo..hi]
                .iter()
                .map(|o| (o.id, o.t_ps))
                .collect();
            let sub_b: Trial = b
                .observations()
                .iter()
                .zip(&b_to_a)
                .filter(|(_, ai)| (lo..hi).contains(*ai))
                .map(|(o, _)| (o.id, o.t_ps))
                .collect();
            let (metrics, common) =
                pair::indexed(&sub_a.rezeroed(), &sub_b.rezeroed(), |mut pa| {
                    (pa.metrics(), pa.common())
                });
            WindowScore {
                index,
                a_range: (lo, hi),
                metrics,
                common,
            }
        })
        .collect()
}

/// The window with the worst κ, if any.
///
/// Uses [`f64::total_cmp`]: the engine never produces NaN, but
/// `WindowScore` is fully public, so a hand-constructed or deserialized
/// NaN cell must degrade deterministically (NaN orders above every real
/// κ, so it is never picked while a real window exists) instead of
/// panicking the whole report.
pub fn worst_window(scores: &[WindowScore]) -> Option<&WindowScore> {
    scores
        .iter()
        .min_by(|x, y| x.metrics.kappa.total_cmp(&y.metrics.kappa))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{PairAnalyzer, TrialIndex};

    /// Windows of a pair over its reference matching.
    fn windows_of(a: &Trial, b: &Trial, windows: usize) -> Vec<WindowScore> {
        windowed_kappa(a, b, &Matching::build(a, b), windows)
    }

    fn cbr(n: u64, gap: u64) -> Trial {
        let mut t = Trial::new();
        for i in 0..n {
            t.push_tagged(0, 0, i, i * gap);
        }
        t
    }

    #[test]
    fn identical_runs_score_one_everywhere() {
        let a = cbr(1_000, 1_000);
        let scores = windows_of(&a, &a.clone(), 10);
        assert_eq!(scores.len(), 10);
        for s in &scores {
            assert_eq!(s.metrics.kappa, 1.0, "window {}", s.index);
            assert_eq!(s.common, 100);
        }
    }

    #[test]
    fn worst_window_tolerates_nan_scores() {
        // WindowScore is fully public: a hand-built (or deserialized) NaN
        // κ used to panic worst_window via partial_cmp. It must now pick
        // the worst *real* window deterministically, and only surface a
        // NaN when no finite window exists.
        let score = |index: usize, kappa: f64| {
            let mut metrics = crate::metrics::kappa_from_components(0.0, 0.0, 0.0, 0.0);
            metrics.kappa = kappa;
            WindowScore {
                index,
                a_range: (0, 0),
                metrics,
                common: 0,
            }
        };
        let scores = vec![score(0, 0.9), score(1, f64::NAN), score(2, 0.4)];
        assert_eq!(worst_window(&scores).unwrap().index, 2);
        let all_nan = vec![score(0, f64::NAN), score(1, f64::NAN)];
        assert!(worst_window(&all_nan).unwrap().metrics.kappa.is_nan());
        assert!(worst_window(&[]).is_none());
    }

    #[test]
    fn localized_damage_shows_in_its_window_only() {
        let a = cbr(1_000, 1_000);
        // Run B: packets 500..600 arrive with wild jitter.
        let mut b = Trial::new();
        for i in 0..1_000u64 {
            let j = if (500..600).contains(&i) {
                (i % 7) * 400 // up to 2.4 ns of gap violence in a 1 ns cadence
            } else {
                0
            };
            b.push_tagged(0, 0, i, i * 1_000 + j);
        }
        let scores = windows_of(&a, &b, 10);
        let worst = worst_window(&scores).unwrap();
        assert_eq!(worst.index, 5, "damage must localize to window 5");
        // Other windows stay near-perfect.
        for s in &scores {
            if s.index != 5 {
                assert!(
                    s.metrics.kappa > 0.99,
                    "window {} kappa {}",
                    s.index,
                    s.metrics.kappa
                );
            }
        }
        assert!(worst.metrics.kappa < 0.95);
    }

    #[test]
    fn drops_accrue_to_the_window_that_lost_them() {
        let a = cbr(400, 1_000);
        // B loses packets 100..120 (window 1 of 4).
        let mut b = Trial::new();
        for i in 0..400u64 {
            if !(100..120).contains(&i) {
                b.push_tagged(0, 0, i, i * 1_000);
            }
        }
        let scores = windows_of(&a, &b, 4);
        assert!(scores[1].metrics.u > 0.0);
        assert_eq!(scores[0].metrics.u, 0.0);
        assert_eq!(scores[2].metrics.u, 0.0);
        assert_eq!(scores[1].common, 80);
    }

    #[test]
    fn window_count_edge_cases() {
        let a = cbr(5, 10);
        // More windows than packets: one packet per window, no panic.
        let scores = windows_of(&a, &a.clone(), 10);
        assert_eq!(scores.len(), 5);
        // Single window == global metrics.
        let one = windows_of(&a, &a.clone(), 1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].a_range, (0, 5));
    }

    #[test]
    fn empty_trials() {
        assert!(windows_of(&Trial::new(), &Trial::new(), 4).is_empty());
        assert!(worst_window(&[]).is_none());
    }

    #[test]
    fn zero_windows_clamps_to_one() {
        let a = cbr(3, 1);
        let zero = windows_of(&a, &a.clone(), 0);
        let one = windows_of(&a, &a.clone(), 1);
        assert_eq!(zero.len(), 1);
        assert_eq!(zero[0].a_range, one[0].a_range);
        assert_eq!(
            zero[0].metrics.kappa.to_bits(),
            one[0].metrics.kappa.to_bits()
        );
    }

    #[test]
    fn a_window_count_past_the_trial_reserves_no_more_than_the_trial() {
        // One window per packet, whatever was asked: the count used to be
        // reserved up front, and `usize::MAX` overflowed the capacity.
        let (a, b) = (cbr(50, 1_000), cbr(50, 1_001));
        let scores = windows_of(&a, &b, usize::MAX);
        assert_eq!(scores.len(), 50);
        for (w, s) in scores.iter().enumerate() {
            assert_eq!((s.index, s.a_range, s.common), (w, (w, w + 1), 1));
        }
    }

    /// A against B with a duplicate, drops, an extra and a swapped block.
    fn damaged_pairs() -> Vec<(Trial, Trial)> {
        let a = cbr(120, 1_000);
        let mut dup_a = a.clone();
        dup_a.push_tagged(0, 0, 7, 121_000);
        let mut b = Trial::new();
        for i in 0..120u64 {
            // Positions 40..50 and 50..60 swap as blocks; 13 and 90 drop.
            let seq = match i {
                40..50 => i + 10,
                50..60 => i - 10,
                _ => i,
            };
            if seq != 13 && seq != 90 {
                b.push_tagged(0, 0, seq, i * 1_000 + (i % 7) * 31);
            }
            if i == 70 {
                b.push_tagged(0, 0, 7, i * 1_000 + 500); // B-side duplicate
                b.push_tagged(5, 0, 1, i * 1_000 + 700); // absent from A
            }
        }
        vec![(a.clone(), b.clone()), (dup_a, b.clone()), (b, a)]
    }

    #[test]
    fn every_window_is_the_reference_on_its_sub_trials() {
        for (a, b) in damaged_pairs() {
            let (ia, ib) = (
                TrialIndex::build(&a).unwrap(),
                TrialIndex::build(&b).unwrap(),
            );
            let m = PairAnalyzer::from_indexes(&ia, &ib).matching().clone();
            let reference = Matching::build(&a, &b);
            for windows in [1, 3, a.len(), a.len() + 5] {
                let scores = windowed_kappa(&a, &b, &m, windows);
                for s in &scores {
                    // The window's sub-trials, rebuilt from the reference
                    // matching: A's span, and the B packets paired into it.
                    let (lo, hi) = s.a_range;
                    let sub_a: Trial = a.observations()[lo..hi]
                        .iter()
                        .map(|o| (o.id, o.t_ps))
                        .collect();
                    let mut in_window: Vec<usize> = reference
                        .pairs
                        .iter()
                        .filter(|p| (lo..hi).contains(&p.a_idx))
                        .map(|p| p.b_idx)
                        .collect();
                    in_window.sort_unstable();
                    let sub_b: Trial = in_window
                        .iter()
                        .map(|&j| (b.observations()[j].id, b.observations()[j].t_ps))
                        .collect();
                    let (sub_a, sub_b) = (sub_a.rezeroed(), sub_b.rezeroed());
                    let mut oracle = PairAnalyzer::new(&sub_a, &sub_b);
                    let want = oracle.metrics();
                    let at = format!("{windows} windows, window {}", s.index);
                    assert_eq!(s.common, oracle.common(), "{at}");
                    for (got, want) in [
                        (s.metrics.u, want.u),
                        (s.metrics.o, want.o),
                        (s.metrics.l, want.l),
                        (s.metrics.i, want.i),
                        (s.metrics.kappa, want.kappa),
                    ] {
                        assert_eq!(got.to_bits(), want.to_bits(), "{at}");
                    }
                }
                // The windows tile A.
                assert_eq!(scores[0].a_range.0, 0);
                assert_eq!(scores[scores.len() - 1].a_range.1, a.len());
                assert!(scores.windows(2).all(|w| w[0].a_range.1 == w[1].a_range.0));
            }
        }
    }
}
