//! κ — the compound consistency score (paper Eq. 5) and its configurable
//! extensions.
//!
//! The four normalized metrics form a vector `v = ⟨U, O, L, I⟩ ∈ R⁴` whose
//! magnitude lies in `[0, 2]`; the paper scales this to
//!
//! ```text
//! κ_AB = 1 − |v| / 2
//! ```
//!
//! with 1 = complete consistency. §8.2 and §10 note that linear components
//! let a large `I` "overpower" a tiny `L`, and that drops or reordering
//! might deserve non-linear emphasis; they leave weightings and non-linear
//! scalings to future work. [`KappaConfig`] implements that future work:
//! per-component weights and the scaling families the paper suggests
//! (square-root and presence emphasis among them).

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

/// Build the compound metrics from the four components using the paper's
/// default (unweighted, linear) formula.
pub fn kappa_from_components(u: f64, o: f64, l: f64, i: f64) -> ConsistencyMetrics {
    KappaConfig::paper().combine(u, o, l, i)
}

/// Non-linear scaling families for a component (paper §8.2/§10 future
/// work).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Scaling {
    /// Identity: the paper's published formula.
    Linear,
    /// `sqrt(x)` — amplifies small inconsistencies (a metric of 0.01 scores
    /// 0.1), addressing "L varies within 1e−5 while I varies within 1e−1".
    Sqrt,
    /// `x^p` for arbitrary `p > 0` (p < 1 amplifies small values, p > 1
    /// suppresses them).
    Power(f64),
    /// Presence emphasis: 0 stays 0, any positive value scores at least
    /// `floor` — "non-linear scalings that would make the presence of any
    /// drops more heavily impact the score" (§8.2).
    Presence {
        /// Minimum score assigned to any non-zero input.
        floor: f64,
    },
}

impl Scaling {
    /// Apply the scaling to a normalized metric value.
    pub fn apply(&self, x: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&x), "metric out of range: {x}");
        match *self {
            Scaling::Linear => x,
            Scaling::Sqrt => x.sqrt(),
            Scaling::Power(p) => x.powf(p),
            Scaling::Presence { floor } => {
                if x > 0.0 {
                    x.max(floor)
                } else {
                    0.0
                }
            }
        }
    }
}

/// A κ variant: per-component weights and scalings.
///
/// κ is always normalized so that all-components-at-1 yields 0 and
/// all-at-0 yields 1, whatever the weights.
///
/// ```
/// use choir_core::metrics::KappaConfig;
///
/// // The published formula...
/// let paper = KappaConfig::paper().combine(0.0, 0.0, 2.62e-6, 0.0290);
/// assert!((paper.kappa - 0.9855).abs() < 1e-4);
/// // ...and a drop-sensitive variant (§8.2's suggested refinement).
/// let strict = KappaConfig::drop_sensitive().combine(1.1e-4, 0.0, 0.0, 0.0);
/// assert!(strict.kappa < 0.88);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KappaConfig {
    /// Weight of `U`.
    pub w_u: f64,
    /// Weight of `O`.
    pub w_o: f64,
    /// Weight of `L`.
    pub w_l: f64,
    /// Weight of `I`.
    pub w_i: f64,
    /// Scaling applied to `U`.
    pub s_u: Scaling,
    /// Scaling applied to `O`.
    pub s_o: Scaling,
    /// Scaling applied to `L`.
    pub s_l: Scaling,
    /// Scaling applied to `I`.
    pub s_i: Scaling,
}

impl KappaConfig {
    /// The paper's published formula: unit weights, linear scalings.
    pub fn paper() -> Self {
        KappaConfig {
            w_u: 1.0,
            w_o: 1.0,
            w_l: 1.0,
            w_i: 1.0,
            s_u: Scaling::Linear,
            s_o: Scaling::Linear,
            s_l: Scaling::Linear,
            s_i: Scaling::Linear,
        }
    }

    /// A drop-sensitive variant: any missing packet costs at least 0.25 on
    /// the U axis (one of the paper's suggested refinements).
    pub fn drop_sensitive() -> Self {
        KappaConfig {
            s_u: Scaling::Presence { floor: 0.25 },
            ..Self::paper()
        }
    }

    /// A variant that square-roots L and I so microsecond-scale jitter is
    /// not drowned out by IAT deviation (§8.2's observed imbalance).
    pub fn balanced_timing() -> Self {
        KappaConfig {
            s_l: Scaling::Sqrt,
            s_i: Scaling::Sqrt,
            ..Self::paper()
        }
    }

    /// Combine components under this configuration.
    ///
    /// # Panics
    /// Panics if all weights are zero or any weight is negative.
    pub fn combine(&self, u: f64, o: f64, l: f64, i: f64) -> ConsistencyMetrics {
        assert!(
            self.w_u >= 0.0 && self.w_o >= 0.0 && self.w_l >= 0.0 && self.w_i >= 0.0,
            "negative weight"
        );
        let norm =
            (self.w_u * self.w_u + self.w_o * self.w_o + self.w_l * self.w_l + self.w_i * self.w_i)
                .sqrt();
        assert!(norm > 0.0, "all weights zero");
        let su = self.w_u * self.s_u.apply(u);
        let so = self.w_o * self.s_o.apply(o);
        let sl = self.w_l * self.s_l.apply(l);
        let si = self.w_i * self.s_i.apply(i);
        let mag = (su * su + so * so + sl * sl + si * si).sqrt();
        ConsistencyMetrics {
            u,
            o,
            l,
            i,
            kappa: 1.0 - mag / norm,
        }
    }
}

impl Default for KappaConfig {
    fn default() -> Self {
        Self::paper()
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

    #[test]
    fn weighted_kappa_still_normalized() {
        let cfg = KappaConfig {
            w_u: 4.0,
            w_o: 1.0,
            w_l: 0.5,
            w_i: 2.0,
            ..KappaConfig::paper()
        };
        assert_eq!(cfg.combine(0.0, 0.0, 0.0, 0.0).kappa, 1.0);
        assert!((cfg.combine(1.0, 1.0, 1.0, 1.0).kappa).abs() < 1e-12);
        // U dominates under these weights.
        let drop_heavy = cfg.combine(0.5, 0.0, 0.0, 0.0);
        let iat_heavy = cfg.combine(0.0, 0.0, 0.0, 0.5);
        assert!(drop_heavy.kappa < iat_heavy.kappa);
    }

    #[test]
    fn presence_scaling_punishes_any_drop() {
        let cfg = KappaConfig::drop_sensitive();
        // Paper §7.1: 238 drops in ~1.05M packets gave U=1.13e-4 with
        // negligible kappa impact. With presence scaling it now matters.
        let linear = KappaConfig::paper().combine(1.13e-4, 0.0, 0.0, 0.0);
        let scaled = cfg.combine(1.13e-4, 0.0, 0.0, 0.0);
        assert!(linear.kappa > 0.9999);
        assert!(scaled.kappa < 0.88);
        // Zero drops stays perfect.
        assert_eq!(cfg.combine(0.0, 0.0, 0.0, 0.0).kappa, 1.0);
    }

    #[test]
    fn sqrt_scaling_amplifies_small_latency() {
        let cfg = KappaConfig::balanced_timing();
        let linear = KappaConfig::paper().combine(0.0, 0.0, 1e-4, 0.0);
        let scaled = cfg.combine(0.0, 0.0, 1e-4, 0.0);
        assert!(scaled.kappa < linear.kappa);
    }

    #[test]
    fn power_scaling_identity_at_one() {
        for s in [Scaling::Linear, Scaling::Sqrt, Scaling::Power(2.0)] {
            assert!((s.apply(1.0) - 1.0).abs() < 1e-12);
            assert_eq!(s.apply(0.0), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "all weights zero")]
    fn zero_weights_panic() {
        let cfg = KappaConfig {
            w_u: 0.0,
            w_o: 0.0,
            w_l: 0.0,
            w_i: 0.0,
            ..KappaConfig::paper()
        };
        cfg.combine(0.1, 0.1, 0.1, 0.1);
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = KappaConfig::drop_sensitive();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: KappaConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
