//! Metric definitions and the one-line result format.
//!
//! The tables here are the single source for metric names, units and
//! directions; `BENCHMARK.json` repeats them and a unit test keeps the
//! two in step.

use serde::{Content, DeError, Deserialize};

/// `(name, unit, higher is better)`.
pub type Def = (&'static str, &'static str, bool);

pub const END_TO_END: [Def; 4] = [
    ("packets_per_s", "pkt/s", true),
    ("op_ms_p50", "ms", false),
    ("setup_s", "s", false),
    ("peak_rss_mb", "MB", false),
];

/// Regression bound of each end-to-end metric, in `END_TO_END` order: the
/// share of the parent's median by which it may get worse. Each is sized
/// from the widest spread the metric showed between runs of the same
/// binary on the shared 2-vCPU host (README, "How well it repeats"): the
/// fastest op's rate spreads up to 7.5 % and gets nearly three times
/// that; the medians of wall time follow the host's slow episodes,
/// spread up to 16 % (`setup_s` 20 %) and get the widest bound a
/// benchmark may declare; peak RSS hardly moves.
pub const BOUNDS: [f64; 4] = [0.20, 0.25, 0.25, 0.10];

pub const WORKLOADS: [&str; 4] = ["chain_paper", "matrix_paper", "serve_bulk", "serve_live"];

/// Every per-layer metric a traced run reports, grouped by the pass
/// that measures it.
pub const PER_LAYER: [Def; 61] = [
    // chain_paper pass
    ("testbed.capture_ns_per_pkt", "ns", false),
    ("testbed.analysis_ns_per_pkt", "ns", false),
    ("testbed.capture_share", "ratio", false),
    ("chain_paper.cold_op_ms", "ms", false),
    ("netsim.events_per_pkt", "count", false),
    ("netsim.ns_per_event", "ns", false),
    ("netsim.pkts_per_coalesced_event", "count", true),
    ("netsim.wire_events_elided_per_pkt", "count", true),
    ("netsim.queue_depth_peak", "count", false),
    ("bench.trace_overhead.chain_paper", "ratio", false),
    // matrix_paper pass
    ("core.metrics.index_build_ns_per_pkt", "ns", false),
    ("core.metrics.pair_ms_p50", "ms", false),
    ("core.metrics.match_ns_per_pkt", "ns", false),
    ("core.metrics.order_ns_per_pkt", "ns", false),
    ("core.metrics.latency_ns_per_pkt", "ns", false),
    ("core.metrics.iat_ns_per_pkt", "ns", false),
    ("core.metrics.histogram_ns_per_pkt", "ns", false),
    ("core.metrics.unattributed_share", "ratio", false),
    ("core.metrics.shard2_speedup", "ratio", true),
    ("matrix_paper.cold_op_ms", "ms", false),
    ("bench.trace_overhead.matrix_paper", "ratio", false),
    // serve_bulk pass
    ("service.client.source_drain_share", "ratio", false),
    ("service.daemon.ingest_ms_p50.bulk", "ms", false),
    ("service.daemon.finish_ms_p50", "ms", false),
    ("service.daemon.matrix_ms_p50", "ms", false),
    ("service.daemon.journal_bytes_per_rec", "B", false),
    ("service.daemon.recover_ms_p50", "ms", false),
    ("service.daemon.recover_ns_per_rec", "ns", false),
    ("serve_bulk.cold_op_ms", "ms", false),
    ("bench.trace_overhead.serve_bulk", "ratio", false),
    // serve_live pass
    ("service.daemon.ingest_ms_p50.live", "ms", false),
    ("service.daemon.ingest_ms_p90.live", "ms", false),
    ("service.daemon.snapshot_ms_p50", "ms", false),
    ("service.daemon.snapshot_ms_p90", "ms", false),
    ("serve_live.cold_op_ms", "ms", false),
    ("bench.trace_overhead.serve_live", "ratio", false),
    // single-threaded layer drivers
    ("packet.build_ns_per_frame", "ns", false),
    ("dpdk.mempool_alloc_ns", "ns", false),
    ("core.replay.record_ns_per_pkt", "ns", false),
    ("core.replay.spin_ns_per_pkt", "ns", false),
    ("core.replay.paced_rate_ratio", "ratio", true),
    ("core.replay.paced_late_ns_max", "ns", false),
    ("capture.pcap_source_ns_per_rec", "ns", false),
    ("capture.pcap_batch_ns_per_rec", "ns", false),
    ("core.metrics.stream.push_burst_ns_per_obs", "ns", false),
    ("core.metrics.stream.push_ns_per_obs", "ns", false),
    ("core.metrics.stream.finalize_ms", "ms", false),
    ("core.metrics.stream.checkpoint_ms", "ms", false),
    ("core.metrics.stream.checkpoint_bytes_per_obs", "B", false),
    ("core.metrics.stream.resume_ms", "ms", false),
    ("core.metrics.stream.peak_resident", "count", false),
    ("service.wire.ping_ms_p50", "ms", false),
    ("service.wire.encode_ns_per_rec", "ns", false),
    ("service.wire.decode_ns_per_rec", "ns", false),
    ("service.wire.bytes_per_rec", "B", false),
    ("service.store.append_ns_per_rec", "ns", false),
    ("service.store.evict_append_ns_per_rec", "ns", false),
    ("service.store.evictions", "count", false),
    ("service.store.reloads", "count", false),
    ("service.store.reload_ms_p50", "ms", false),
    ("service.store.spill_bytes_per_rec", "B", false),
];

/// One measured value. `n` is the number of samples behind it and is
/// printed for people; the result line carries value and unit only.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub n: usize,
}

/// Collects a pass's metrics, taking each unit from the tables above so
/// a name that is not declared there cannot be reported.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, n: usize) {
        let (_, unit, _) = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|d| d.0 == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in report.rs"));
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            n,
        });
    }
}

/// Every metric by name, with its unit and the samples behind it.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<48} {:>16.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.n
        );
    }
}

/// Marks the result line of a `--quick` process, so that it can never be
/// mistaken for a result in the benchmark contract's format.
const QUICK_MARK: &str = "QUICK-NOT-COMPARABLE ";

/// What one benchmark process reports on the last line of its output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result as one JSON object on one line.
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric `{}` is not a number", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Print the result line; a quick run's is marked non-comparable.
    pub fn print(&self, quick: bool) {
        println!("{}{}", if quick { QUICK_MARK } else { "" }, self.to_line());
    }

    /// Parse a result line, marked or not.
    pub fn parse(line: &str) -> Result<Self, String> {
        serde_json::from_str(line.strip_prefix(QUICK_MARK).unwrap_or(line))
            .map_err(|e| format!("not a result line: {e}"))
    }
}

impl Deserialize for RunResult {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let map = c
            .as_map()
            .ok_or_else(|| DeError::custom("result is not an object"))?;
        let metrics = serde::field(map, "metrics")?
            .as_map()
            .ok_or_else(|| DeError::custom("`metrics` is not an object"))?
            .iter()
            .map(|(name, m)| {
                let m = m
                    .as_map()
                    .ok_or_else(|| DeError::custom("metric is not an object"))?;
                Ok(Metric {
                    name: name.clone(),
                    value: f64::from_content(serde::field(m, "value")?)?,
                    unit: String::from_content(serde::field(m, "unit")?)?,
                    n: 0,
                })
            })
            .collect::<Result<_, DeError>>()?;
        Ok(RunResult {
            correct: bool::from_content(serde::field(map, "correct")?)?,
            attempted: u64::from_content(serde::field(map, "attempted")?)?,
            failed: u64::from_content(serde::field(map, "failed")?)?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_roundtrips_with_all_digits() {
        let mut m = Metrics::default();
        m.put("op_ms_p50", 2891.123456789012, 10);
        m.put("setup_s", 0.4127, 5);
        let r = RunResult {
            correct: true,
            attempted: 11,
            failed: 0,
            metrics: m.0,
        };
        let line = r.to_line();
        assert!(!line.contains('\n'));
        let back = RunResult::parse(&line).unwrap();
        assert_eq!(back.get("op_ms_p50"), Some(2891.123456789012));
        assert_eq!((back.correct, back.attempted, back.failed), (true, 11, 0));
        assert_eq!(back.metrics[1].unit, "s");
    }

    /// `BENCHMARK.json` at the repo root must declare exactly the
    /// workloads and metrics this binary reports.
    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        struct Raw(Content);
        impl Deserialize for Raw {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                Ok(Raw(c.clone()))
            }
        }
        let doc: Raw = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let top = doc.0.as_map().unwrap();
        let list = |key: &str| serde::field(top, key).unwrap().as_seq().unwrap().to_vec();
        let text_of = |c: &Content, key: &str| {
            String::from_content(serde::field(c.as_map().unwrap(), key).unwrap()).unwrap()
        };

        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let declared = |key: &str| -> Vec<(String, String, bool)> {
            list(key)
                .iter()
                .map(|m| {
                    (
                        text_of(m, "name"),
                        text_of(m, "unit"),
                        text_of(m, "better") == "higher",
                    )
                })
                .collect()
        };
        let want = |defs: &[Def]| -> Vec<(String, String, bool)> {
            defs.iter()
                .map(|d| (d.0.to_string(), d.1.to_string(), d.2))
                .collect()
        };
        assert_eq!(declared("end_to_end"), want(&END_TO_END));
        assert_eq!(declared("per_layer"), want(&PER_LAYER));
        let bounds: Vec<f64> = list("end_to_end")
            .iter()
            .map(|m| f64::from_content(serde::field(m.as_map().unwrap(), "bound").unwrap()).unwrap())
            .collect();
        assert_eq!(bounds, BOUNDS);
    }
}
