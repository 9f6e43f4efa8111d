//! Traffic shapes: the paper's CBR stream and the on-off co-tenant.
//!
//! - [`Pattern::Cbr`] — fixed spacing (the paper's workload);
//! - [`Pattern::OnOff`] — bursts of back-to-back packets separated by
//!   idle periods: the microbursting neighbour of the structural-noise
//!   experiment (`tests/structural_noise.rs`).
//!
//! Both are deterministic, so a recording of patterned traffic stays
//! comparable across runs.

use choir_packet::FrameSpec;

/// Deterministic inter-packet gap generator. Every packet of a pattern
/// has its spec's frame length.
#[derive(Debug, Clone)]
pub enum Pattern {
    /// Constant bit rate: every gap identical.
    Cbr(FrameSpec),
    /// `burst` back-to-back packets (at line-rate spacing), then an idle
    /// gap sized so the long-run average matches the spec's rate.
    OnOff {
        /// Frame/rate description for the long-run average.
        spec: FrameSpec,
        /// Packets per burst.
        burst: u32,
        /// Line rate used for intra-burst spacing, bits/s.
        line_rate_bps: u64,
    },
}

impl Pattern {
    /// The gap (ps) to wait *before* packet `i`; a function of `(self, i)`
    /// alone.
    pub fn next(&self, i: u64) -> u64 {
        if i == 0 {
            return 0;
        }
        match *self {
            Pattern::Cbr(spec) => spec.gap_ps(),
            Pattern::OnOff {
                spec,
                burst,
                line_rate_bps,
            } => {
                let within = i % burst as u64;
                if within != 0 {
                    // Intra-burst: line-rate spacing.
                    spec.serialization_ps(line_rate_bps)
                } else {
                    // Idle gap sized so the average rate holds:
                    // burst packets per (burst * mean_gap) of wall time.
                    let mean = spec.gap_ps();
                    let ser = spec.serialization_ps(line_rate_bps);
                    (mean * burst as u64).saturating_sub(ser * (burst as u64 - 1))
                }
            }
        }
    }

    /// The frame/rate description every packet of the pattern follows.
    pub(crate) fn spec(&self) -> FrameSpec {
        match *self {
            Pattern::Cbr(spec) | Pattern::OnOff { spec, .. } => spec,
        }
    }

    /// The mean packet rate this pattern aims for, packets/second.
    pub fn mean_pps(&self) -> f64 {
        self.spec().pps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec40g() -> FrameSpec {
        FrameSpec::new(1400, 40_000_000_000)
    }

    fn onoff() -> Pattern {
        Pattern::OnOff {
            spec: spec40g(),
            burst: 16,
            line_rate_bps: 100_000_000_000,
        }
    }

    fn total_time(p: &Pattern, n: u64) -> u64 {
        (0..n).map(|i| p.next(i)).sum()
    }

    #[test]
    fn cbr_is_exact() {
        let p = Pattern::Cbr(spec40g());
        assert_eq!(total_time(&p, 1_001), 1_000 * 284_800);
        assert_eq!(p.spec().frame_len, 1400);
    }

    #[test]
    fn onoff_preserves_average_rate_with_bursts() {
        let p = onoff();
        let n = 16 * 1_000u64;
        let t = total_time(&p, n + 1);
        let expected = n * 284_800;
        let ratio = t as f64 / expected as f64;
        assert!((ratio - 1.0).abs() < 0.01, "ratio {ratio}");
        // Intra-burst gaps are serialization-spaced.
        let g = p.next(1);
        assert_eq!(g, spec40g().serialization_ps(100_000_000_000));
        // Burst boundary gap is much larger.
        let idle = p.next(16);
        assert!(idle > 10 * g, "idle {idle} vs intra {g}");
    }

    #[test]
    fn patterns_are_deterministic() {
        for p in [Pattern::Cbr(spec40g()), onoff()] {
            let gaps = |p: &Pattern| (0..1_000).map(|i| p.next(i)).collect::<Vec<_>>();
            assert_eq!(gaps(&p), gaps(&p.clone()));
        }
    }

    #[test]
    fn mean_pps_sane() {
        assert!((Pattern::Cbr(spec40g()).mean_pps() / 1e6 - 3.51).abs() < 0.05);
        // On-off keeps the long-run rate of its spec.
        assert_eq!(onoff().mean_pps(), Pattern::Cbr(spec40g()).mean_pps());
    }
}
