//! The paper's published numbers, for paper-vs-measured reporting.
//!
//! Sources: Table 2 (mean metrics per environment), the per-section
//! "within 10 ns" ranges, Table 1 (edit-script distances), and the §10
//! throughput claim.

use choir_core::metrics::ConsistencyMetrics;
use choir_testbed::EnvKind;

/// One Table 2 row as published.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// Environment.
    pub kind: EnvKind,
    /// Mean metrics (κ recomputed by the paper as the mean of per-run κ).
    pub mean: ConsistencyMetrics,
    /// Published range of the per-run "% of IAT deltas within ±10 ns"
    /// statistic, as fractions (lo, hi). `None` where the paper gives no
    /// figure (dual-replayer reports it only in passing).
    pub within_10ns: Option<(f64, f64)>,
}

/// Table 2 of the paper, row by row.
pub fn table2() -> Vec<PaperRow> {
    let m = |u: f64, o: f64, i: f64, l: f64, kappa: f64| ConsistencyMetrics { u, o, l, i, kappa };
    vec![
        PaperRow {
            kind: EnvKind::LocalSingle,
            mean: m(0.0, 0.0, 0.0294, 4.27e-6, 0.9853),
            within_10ns: Some((0.9223, 0.9251)),
        },
        PaperRow {
            kind: EnvKind::LocalDual,
            mean: m(0.0, 0.0259, 0.2022, 9.68e-3, 0.9282),
            within_10ns: Some((0.9275, 0.9290)),
        },
        PaperRow {
            kind: EnvKind::FabricDedicated40A,
            mean: m(0.0, 0.0, 0.4996, 3.07e-5, 0.7426),
            within_10ns: Some((0.3064, 0.4844)),
        },
        PaperRow {
            kind: EnvKind::FabricShared40,
            mean: m(0.0, 0.0, 0.0662, 2.24e-5, 0.9669),
            within_10ns: Some((0.2644, 0.2915)),
        },
        PaperRow {
            kind: EnvKind::FabricDedicated40B,
            mean: m(0.0, 0.0, 0.4998, 4.20e-4, 0.7502),
            within_10ns: Some((0.2401, 0.2718)),
        },
        PaperRow {
            kind: EnvKind::FabricDedicated80,
            mean: m(0.0, 0.0, 0.1073, 8.20e-6, 0.9463),
            within_10ns: Some((0.3011, 0.3019)),
        },
        PaperRow {
            kind: EnvKind::FabricShared80,
            mean: m(0.0, 0.0, 0.1105, 2.26e-5, 0.9448),
            within_10ns: Some((0.3012, 0.3020)),
        },
        PaperRow {
            kind: EnvKind::FabricDedicated80Noisy,
            mean: m(0.0, 0.0, 0.1085, 1.37e-5, 0.9458),
            within_10ns: Some((0.3015, 0.3216)),
        },
        PaperRow {
            kind: EnvKind::FabricShared40Noisy,
            mean: m(1.99e-4, 0.0, 0.5024, 2.04e-5, 0.7488),
            within_10ns: Some((0.0931, 0.1381)),
        },
    ]
}

/// The published row for one environment.
pub fn row_for(kind: EnvKind) -> PaperRow {
    table2()
        .into_iter()
        .find(|r| r.kind == kind)
        .expect("every environment has a Table 2 row")
}

/// Table 1 as published: per-run edit-script distance statistics for the
/// local dual-replayer runs (mean, sigma, abs-mean, abs-sigma, min, max).
pub fn table1() -> [(&'static str, f64, f64, f64, f64, i64, i64); 4] {
    [
        ("B", 1790.54, 8111.16, 7240.23, 4071.35, -5632, 16573),
        ("C", 3487.95, 16011.25, 14277.30, 8042.66, -11072, 32925),
        ("D", 3873.69, 17843.43, 15908.56, 8961.64, -12352, 36735),
        ("E", 4179.75, 19305.66, 17209.84, 9695.35, -13378, 39809),
    ]
}

/// §6.2: packets in each run's edit script, and the fraction of captured
/// packets they represent.
pub const TABLE1_EDIT_SCRIPT_PACKETS: u64 = 525_824;
/// §6.2: the edit script covered 49.8% of captured packets.
pub const TABLE1_EDIT_SCRIPT_FRACTION: f64 = 0.498;

/// §10: Choir sustains 100 Gbps == 8.9 Mpps.
pub const HEADLINE_GBPS: f64 = 100.0;
/// §10's packet-rate form of the throughput claim.
pub const HEADLINE_MPPS: f64 = 8.9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_env_has_a_row() {
        for kind in EnvKind::all() {
            let r = row_for(kind);
            assert_eq!(r.kind, kind);
            assert!(r.mean.kappa > 0.5 && r.mean.kappa < 1.0);
        }
    }

    #[test]
    fn published_kappas_descend_from_local() {
        let local = row_for(EnvKind::LocalSingle).mean.kappa;
        for kind in EnvKind::all() {
            assert!(row_for(kind).mean.kappa <= local);
        }
    }

    #[test]
    fn table1_rows_are_ordered_b_to_e() {
        let t = table1();
        assert_eq!(t[0].0, "B");
        assert_eq!(t[3].0, "E");
        // Distances grow run over run in the published data.
        assert!(t[0].1 < t[3].1);
    }
}
