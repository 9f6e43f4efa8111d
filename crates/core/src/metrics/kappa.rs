//! κ — the compound consistency score (paper Eq. 5).
//!
//! The four normalized metrics form a vector `v = ⟨U, O, L, I⟩ ∈ R⁴` whose
//! magnitude lies in `[0, 2]`; the paper scales this to
//!
//! ```text
//! κ_AB = 1 − |v| / 2
//! ```
//!
//! with 1 = complete consistency. §8.2 and §10 leave weightings and
//! non-linear scalings to future work; κ here is the published formula
//! and nothing else, so any two κ values are comparable.

use serde::{Deserialize, Serialize};

/// All four component metrics plus the compound score for one comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConsistencyMetrics {
    /// Uniqueness variation (Eq. 1).
    pub u: f64,
    /// Ordering variation (Eq. 2).
    pub o: f64,
    /// Latency variation (Eq. 3).
    pub l: f64,
    /// IAT variation (Eq. 4).
    pub i: f64,
    /// Compound score κ (Eq. 5), 1 = perfectly consistent.
    pub kappa: f64,
}

impl ConsistencyMetrics {
    /// `[U, O, L, I, κ]` as bits: two scores are the same score exactly
    /// when these are equal.
    pub fn bits(&self) -> [u64; 5] {
        [self.u, self.o, self.l, self.i, self.kappa].map(f64::to_bits)
    }

    /// The vector magnitude `|⟨U,O,L,I⟩|`.
    pub fn magnitude(&self) -> f64 {
        (self.u * self.u + self.o * self.o + self.l * self.l + self.i * self.i).sqrt()
    }

    /// Mean of several comparisons, component-wise — how Table 2 reports
    /// each environment. Returns `None` for an empty run set (e.g. a
    /// chaos sweep where every replay failed) instead of panicking.
    pub fn mean_of(runs: &[ConsistencyMetrics]) -> Option<ConsistencyMetrics> {
        if runs.is_empty() {
            return None;
        }
        let n = runs.len() as f64;
        let mut u = 0.0;
        let mut o = 0.0;
        let mut l = 0.0;
        let mut i = 0.0;
        let mut k = 0.0;
        for r in runs {
            u += r.u;
            o += r.o;
            l += r.l;
            i += r.i;
            k += r.kappa;
        }
        Some(ConsistencyMetrics {
            u: u / n,
            o: o / n,
            l: l / n,
            i: i / n,
            kappa: k / n,
        })
    }
}

/// Combine the four components into κ (Eq. 5): `1 − |⟨U,O,L,I⟩| / 2`.
/// The one formula every pipeline — the batch kernels, the streaming
/// engine, the windowed scorer — scores through.
pub fn kappa_from_components(u: f64, o: f64, l: f64, i: f64) -> ConsistencyMetrics {
    debug_assert!(
        [u, o, l, i].iter().all(|x| (0.0..=1.0).contains(x)),
        "metric out of range: {u} {o} {l} {i}"
    );
    let mut m = ConsistencyMetrics {
        u,
        o,
        l,
        i,
        kappa: 0.0,
    };
    m.kappa = 1.0 - m.magnitude() / 2.0;
    m
}

/// Not an option: κ is Eq. 5 and has no settings. This field-less type
/// is here because the frozen benchmark harness names it
/// (`e2e/src/layers.rs`, `e2e/src/workloads/matrix.rs`), and it leaves
/// with ROADMAP item 1(c), like [`super::stream::StreamConfig::lookahead`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KappaConfig;

impl KappaConfig {
    /// The paper's formula — the only one.
    pub fn paper() -> Self {
        KappaConfig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_formula_extremes() {
        let perfect = kappa_from_components(0.0, 0.0, 0.0, 0.0);
        assert_eq!(perfect.kappa, 1.0);
        let worst = kappa_from_components(1.0, 1.0, 1.0, 1.0);
        assert!((worst.kappa - 0.0).abs() < 1e-12);
    }

    #[test]
    fn paper_formula_matches_published_runs() {
        // §6.1 run B: U=O=0, I=0.0290, L=2.62e-6 -> kappa 0.9855.
        let m = kappa_from_components(0.0, 0.0, 2.62e-6, 0.0290);
        assert!((m.kappa - 0.9855).abs() < 1e-4, "got {}", m.kappa);
        // §7 third FABRIC test run B: I=0.514, L=4.49e-4 -> kappa 0.7431.
        let m2 = kappa_from_components(0.0, 0.0, 4.49e-4, 0.514);
        assert!((m2.kappa - 0.7431).abs() < 1e-3, "got {}", m2.kappa);
        // §7 80 Gbps dedicated run C: I=0.106, L=3.83e-6 -> kappa 0.9469.
        let m3 = kappa_from_components(0.0, 0.0, 3.83e-6, 0.106);
        assert!((m3.kappa - 0.9469).abs() < 1e-3, "got {}", m3.kappa);
        // Note: a few of the paper's other published kappa values (the
        // first FABRIC dedicated test, the dual-replayer per-run list) are
        // not internally consistent with Eq. 5 applied to their own U/O/L/I
        // values; we pin only the self-consistent rows here.
    }

    #[test]
    fn magnitude_bounds() {
        let m = kappa_from_components(1.0, 1.0, 1.0, 1.0);
        assert!((m.magnitude() - 2.0).abs() < 1e-12);
        let m0 = kappa_from_components(0.0, 0.0, 0.0, 0.0);
        assert_eq!(m0.magnitude(), 0.0);
    }

    #[test]
    fn single_axis_value() {
        // Only I non-zero: kappa = 1 - I/2.
        let m = kappa_from_components(0.0, 0.0, 0.0, 0.5);
        assert!((m.kappa - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mean_of_runs() {
        let runs = vec![
            kappa_from_components(0.0, 0.0, 0.0, 0.2),
            kappa_from_components(0.0, 0.0, 0.0, 0.4),
        ];
        let mean = ConsistencyMetrics::mean_of(&runs).unwrap();
        assert!((mean.i - 0.3).abs() < 1e-12);
        assert!((mean.kappa - (runs[0].kappa + runs[1].kappa) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_of_empty_is_none() {
        // Regression: this used to `assert!` and abort the caller.
        assert!(ConsistencyMetrics::mean_of(&[]).is_none());
    }
}
