//! The consistency metric suite (paper §3).
//!
//! "A consistent network is *deterministic*, and therefore running the same
//! trial multiple times produces identical results across the network."
//! Four normalized variation metrics quantify how close to identical two
//! trials are; all lie in `[0, 1]` with 0 = perfectly consistent:
//!
//! | metric | meaning | module |
//! |---|---|---|
//! | `U` | missing/extra packets | [`uniqueness`] |
//! | `O` | reordering (edit-script move distance) | [`ordering`] |
//! | `L` | latency variation (jitter) | [`latency`] |
//! | `I` | inter-arrival-time variation | [`iat`] |
//!
//! [`kappa`] combines them into the compound score κ (Eq. 5). All metrics
//! are symmetric: `M(A,B) = M(B,A)`, a property the test suite checks both
//! with exact cases and property tests.

pub mod allpairs;
pub mod gapreplay;
pub mod histogram;
pub mod iat;
pub mod kappa;
pub mod latency;
pub mod matching;
pub mod ordering;
pub mod pair;
pub mod reorder;
pub mod report;
pub mod stats;
pub mod stream;
pub mod trial;
pub mod uniqueness;
pub mod windowed;

pub use allpairs::{
    all_pairs_serial, all_pairs_sharded, all_pairs_sharded_with, EngineStats, IndexError,
    KappaMatrix, MatrixSummary, TrialIndex,
};
pub use gapreplay::{gapreplay_metrics, GapReplayMetrics};
pub use histogram::DeltaHistogram;
pub use kappa::{kappa_from_components, ConsistencyMetrics, KappaConfig};
pub use matching::Matching;
pub use ordering::EditScriptStats;
pub use pair::{PairAnalyzer, PairScratch};
pub use report::{
    trial_label, ReportError, RunReport, SimStatsReport, StageTimings, TrialComparison,
};
pub use stream::{
    CheckpointError, IncrementalComparison, KappaSnapshot, ResumeMismatch, Side, StreamCheckpoint,
    StreamConfig, StreamCursor, StreamOutcome,
};
pub use trial::{Observation, Trial, MAX_TIMESTAMP_PS, MAX_TRIAL_LEN};
pub use windowed::{windowed_kappa, worst_window, WindowScore};

/// Compute all four metrics plus κ between two trials, each side indexed
/// once and scored through the production pipeline. Build a
/// [`PairAnalyzer`] directly when you need intermediate artifacts (the
/// matching, the edit script, the full [`TrialComparison`], …).
///
/// # Panics
///
/// If either trial holds more than [`MAX_TRIAL_LEN`] packets.
pub fn compare(a: &Trial, b: &Trial) -> ConsistencyMetrics {
    pair::indexed(a, b, |mut pa| pa.metrics())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_trials_are_perfectly_consistent() {
        let mut a = Trial::new();
        for i in 0..100u64 {
            a.push_tagged(0, 0, i, i * 284_800);
        }
        let m = compare(&a, &a.clone());
        assert_eq!(m.u, 0.0);
        assert_eq!(m.o, 0.0);
        assert_eq!(m.l, 0.0);
        assert_eq!(m.i, 0.0);
        assert_eq!(m.kappa, 1.0);
    }

    #[test]
    fn empty_trials_are_consistent() {
        let m = compare(&Trial::new(), &Trial::new());
        assert_eq!(m.kappa, 1.0);
    }

    #[test]
    fn disjoint_trials_have_u_one() {
        let mut a = Trial::new();
        let mut b = Trial::new();
        for i in 0..10u64 {
            a.push_tagged(0, 0, i, i * 1000);
            b.push_tagged(1, 0, i, i * 1000);
        }
        let m = compare(&a, &b);
        assert_eq!(m.u, 1.0);
        // No overlap: the other components are vacuously zero.
        assert_eq!(m.o, 0.0);
        assert_eq!(m.l, 0.0);
        assert_eq!(m.i, 0.0);
        assert!((m.kappa - 0.5).abs() < 1e-12);
    }
}
