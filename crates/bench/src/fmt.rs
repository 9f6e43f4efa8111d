//! Plain-text rendering of the paper's tables and figures.

use choir_core::metrics::report::RunReport;
use choir_core::metrics::ConsistencyMetrics;
use choir_core::obs::ObsSnapshot;
use choir_testbed::EnvKind;

use crate::paper::PaperRow;

/// Scientific-ish compact float formatting matching the paper's style.
pub fn sci(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 0.01 {
        format!("{v:.4}")
    } else {
        format!("{v:.2e}")
    }
}

/// Render a Table-2-style row pair: paper vs measured.
pub fn table2_pair(kind: EnvKind, paper: &ConsistencyMetrics, ours: &ConsistencyMetrics) -> String {
    format!(
        "{:<28} | {:>9} {:>9} {:>9} {:>9} {:>7} | {:>9} {:>9} {:>9} {:>9} {:>7}\n",
        kind.label(),
        sci(paper.u),
        sci(paper.o),
        sci(paper.i),
        sci(paper.l),
        format!("{:.4}", paper.kappa),
        sci(ours.u),
        sci(ours.o),
        sci(ours.i),
        sci(ours.l),
        format!("{:.4}", ours.kappa),
    )
}

/// Header for the Table 2 rendering.
pub fn table2_header() -> String {
    format!(
        "{:<28} | {:^49} | {:^49}\n{:<28} | {:>9} {:>9} {:>9} {:>9} {:>7} | {:>9} {:>9} {:>9} {:>9} {:>7}\n{}\n",
        "Environment",
        "paper (Table 2)",
        "measured (this run)",
        "",
        "U",
        "O",
        "I",
        "L",
        "kappa",
        "U",
        "O",
        "I",
        "L",
        "kappa",
        "-".repeat(130),
    )
}

/// One environment's per-run summary in the style of the paper's
/// evaluation prose: per run within-10ns%, I, L, κ.
pub fn run_summary(report: &RunReport, paper: &PaperRow) -> String {
    let mut s = String::new();
    s.push_str(&format!("Environment: {}\n", report.environment));
    for r in &report.runs {
        s.push_str(&format!(
            "  run {}: {:5.2}% IAT +-10ns, U {}, O {}, I {}, L {}, kappa {:.4}  (moved {}, missing {}, extra {})\n",
            r.label,
            100.0 * r.iat_within_10ns,
            sci(r.metrics.u),
            sci(r.metrics.o),
            sci(r.metrics.i),
            sci(r.metrics.l),
            r.metrics.kappa,
            r.moved,
            r.missing,
            r.extra,
        ));
    }
    s.push_str(&format!(
        "  mean: U {}, O {}, I {}, L {}, kappa {:.4}\n",
        sci(report.mean.u),
        sci(report.mean.o),
        sci(report.mean.i),
        sci(report.mean.l),
        report.mean.kappa
    ));
    s.push_str(&format!(
        "  paper: U {}, O {}, I {}, L {}, kappa {:.4}",
        sci(paper.mean.u),
        sci(paper.mean.o),
        sci(paper.mean.i),
        sci(paper.mean.l),
        paper.mean.kappa
    ));
    if let Some((lo, hi)) = paper.within_10ns {
        s.push_str(&format!(
            ", within-10ns {:.2}%..{:.2}%",
            lo * 100.0,
            hi * 100.0
        ));
    }
    s.push('\n');
    s
}

/// Human duration for a nanosecond count.
fn dur_ns(v: u64) -> String {
    if v >= 1_000_000_000 {
        format!("{:.2} s", v as f64 / 1e9)
    } else if v >= 1_000_000 {
        format!("{:.2} ms", v as f64 / 1e6)
    } else if v >= 1_000 {
        format!("{:.2} us", v as f64 / 1e3)
    } else {
        format!("{v} ns")
    }
}

/// Render an [`ObsSnapshot`] as a span tree, a counter table, and the
/// tail of the event ring (DESIGN.md §11 explains how to read it).
///
/// Span paths are `/`-joined (`allpairs/pairs`); since the snapshot
/// lists them in lexicographic order, indenting each leaf by its depth
/// reproduces the nesting without any explicit tree structure.
pub fn render_obs(snap: &ObsSnapshot) -> String {
    let mut s = String::new();
    if !snap.enabled {
        s.push_str("obs profile: disabled\n");
        return s;
    }
    s.push_str("obs profile:\n");
    if !snap.spans.is_empty() {
        s.push_str("  spans:\n");
        for sp in &snap.spans {
            let depth = sp.path.matches('/').count();
            let leaf = sp.path.rsplit('/').next().unwrap_or(&sp.path);
            let mut line = format!(
                "  {}{:<w$} {:>6}x {:>12}",
                "  ".repeat(depth + 1),
                leaf,
                sp.count,
                dur_ns(sp.total_ns),
                w = 32usize.saturating_sub(2 * depth),
            );
            if sp.count > 1 {
                line.push_str(&format!(
                    "  (min {}, max {})",
                    dur_ns(sp.min_ns),
                    dur_ns(sp.max_ns)
                ));
            }
            line.push('\n');
            s.push_str(&line);
        }
    }
    if !snap.counters.is_empty() {
        s.push_str("  counters:\n");
        for c in &snap.counters {
            s.push_str(&format!("    {:<40} {:>14}\n", c.name, c.value));
        }
    }
    s.push_str(&format!(
        "  events: {} emitted, {} dropped, {} retained\n",
        snap.events_emitted,
        snap.events_dropped,
        snap.events.len()
    ));
    const EVENT_TAIL: usize = 8;
    for e in snap.events.iter().rev().take(EVENT_TAIL).rev() {
        s.push_str(&format!(
            "    [{:>6}] {} a={} b={}\n",
            e.seq, e.kind, e.a, e.b
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_formatting() {
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(0.0294), "0.0294");
        assert_eq!(sci(4.27e-6), "4.27e-6");
    }

    #[test]
    fn header_and_row_render() {
        let h = table2_header();
        assert!(h.contains("kappa"));
        let m = ConsistencyMetrics {
            u: 0.0,
            o: 0.0,
            l: 1e-5,
            i: 0.03,
            kappa: 0.985,
        };
        let row = table2_pair(EnvKind::LocalSingle, &m, &m);
        assert!(row.contains("Local Single-Replayer"));
    }

    #[test]
    fn obs_snapshot_renders_tree_counters_and_events() {
        use choir_core::obs::{CounterSnap, EventSnap, SpanSnap};
        let snap = ObsSnapshot {
            enabled: true,
            counters: vec![CounterSnap {
                name: "allpairs.pairs_analyzed".to_string(),
                value: 28,
            }],
            spans: vec![
                SpanSnap {
                    path: "allpairs".to_string(),
                    count: 1,
                    total_ns: 12_340_000,
                    min_ns: 12_340_000,
                    max_ns: 12_340_000,
                },
                SpanSnap {
                    path: "allpairs/pairs".to_string(),
                    count: 2,
                    total_ns: 11_020_000,
                    min_ns: 5_000_000,
                    max_ns: 6_020_000,
                },
            ],
            events: vec![EventSnap {
                seq: 7,
                kind: "sim.burst_delivered".to_string(),
                a: 32,
                b: 99,
            }],
            events_emitted: 1,
            events_dropped: 0,
        };
        let s = render_obs(&snap);
        assert!(s.contains("allpairs "), "{s}");
        assert!(s.contains("    pairs"), "indented child: {s}");
        assert!(s.contains("(min 5.00 ms, max 6.02 ms)"), "{s}");
        assert!(s.contains("allpairs.pairs_analyzed"), "{s}");
        assert!(s.contains("sim.burst_delivered a=32 b=99"), "{s}");

        let off = render_obs(&ObsSnapshot::default());
        assert!(off.contains("disabled"), "{off}");
    }
}
