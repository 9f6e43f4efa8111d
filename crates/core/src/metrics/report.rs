//! Full per-run analysis bundles — everything the paper reports about one
//! run-vs-baseline comparison, computed in a single pass over the
//! matching, plus the multi-run aggregation used by Table 2.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use super::allpairs::MatrixSummary;
use super::histogram::DeltaHistogram;
use super::kappa::ConsistencyMetrics;
use super::ordering::EditScriptStats;
use super::trial::Trial;

/// Wall-clock nanoseconds spent in each analysis stage of one comparison.
///
/// Populated by [`analyze`] and the all-pairs engine
/// ([`super::allpairs`]); defaults to all-zero when deserializing reports
/// produced before timings existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTimings {
    /// Occurrence-wise packet matching.
    pub match_ns: u64,
    /// Uniqueness + ordering (LIS / edit script).
    pub order_ns: u64,
    /// Latency deltas and `L`.
    pub latency_ns: u64,
    /// Inter-arrival deltas and `I`.
    pub iat_ns: u64,
    /// Histograms, percentiles, and κ assembly.
    pub histogram_ns: u64,
}

impl StageTimings {
    /// The five stage durations between six consecutive clock readings,
    /// in field order.
    pub(crate) fn from_marks(t: [Instant; 6]) -> Self {
        let ns = |k: usize| (t[k + 1] - t[k]).as_nanos() as u64;
        StageTimings {
            match_ns: ns(0),
            order_ns: ns(1),
            latency_ns: ns(2),
            iat_ns: ns(3),
            histogram_ns: ns(4),
        }
    }

    /// Accumulate another comparison's timings into this one.
    pub fn add(&mut self, other: &StageTimings) {
        self.match_ns += other.match_ns;
        self.order_ns += other.order_ns;
        self.latency_ns += other.latency_ns;
        self.iat_ns += other.iat_ns;
        self.histogram_ns += other.histogram_ns;
    }

    /// Total wall-clock across all stages.
    pub fn total_ns(&self) -> u64 {
        self.match_ns + self.order_ns + self.latency_ns + self.iat_ns + self.histogram_ns
    }
}

/// The complete analysis of one run against the baseline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialComparison {
    /// Run label ("B", "C", …).
    pub label: String,
    /// The four metrics and κ.
    pub metrics: ConsistencyMetrics,
    /// Packets in the baseline trial.
    pub a_len: usize,
    /// Packets in this run's trial.
    pub b_len: usize,
    /// `|A ∩ B|`.
    pub common: usize,
    /// Packets of the baseline missing from this run (drops).
    pub missing: usize,
    /// Packets of this run not present in the baseline.
    pub extra: usize,
    /// Packets moved by the edit script (reordered).
    pub moved: usize,
    /// Fraction of common packets with |ΔIAT| ≤ 10 ns — the paper's
    /// headline per-run statistic.
    pub iat_within_10ns: f64,
    /// Percentiles (p50, p90, p99) of |ΔIAT| in nanoseconds.
    pub iat_abs_percentiles_ns: (f64, f64, f64),
    /// Percentiles (p50, p90, p99) of |Δlatency| in nanoseconds.
    pub latency_abs_percentiles_ns: (f64, f64, f64),
    /// Edit-script distance statistics (Table 1).
    pub edit_stats: EditScriptStats,
    /// Figure-style IAT delta histogram.
    pub iat_hist: DeltaHistogram,
    /// Figure-style latency delta histogram.
    pub latency_hist: DeltaHistogram,
    /// Per-stage wall-clock timing of this comparison (all-zero when read
    /// from a report written before timings existed).
    #[serde(default)]
    pub timings: StageTimings,
}

/// The bit-identity key of a [`TrialComparison`]: every field but its
/// `label` and wall-clock `timings`, each `f64` as its bits. Two
/// pipelines agree on a pair exactly when their keys are equal.
#[derive(Debug, PartialEq)]
pub struct ComparisonBits<'a> {
    metrics: [u64; 5],
    /// `a_len, b_len, common, missing, extra, moved`.
    counts: [usize; 6],
    iat_within_10ns: u64,
    iat_abs_percentiles_ns: [u64; 3],
    latency_abs_percentiles_ns: [u64; 3],
    /// `count`, then `mean, stddev, abs_mean, abs_stddev`, then `min, max`.
    edit_stats: (usize, [u64; 4], [i64; 2]),
    iat_hist: &'a DeltaHistogram,
    latency_hist: &'a DeltaHistogram,
}

impl TrialComparison {
    /// This comparison's [`ComparisonBits`]. A caller that also pins the
    /// label compares it beside the key.
    pub fn bits(&self) -> ComparisonBits<'_> {
        let triple = |(p50, p90, p99): (f64, f64, f64)| [p50, p90, p99].map(f64::to_bits);
        let e = &self.edit_stats;
        ComparisonBits {
            metrics: self.metrics.bits(),
            counts: [
                self.a_len,
                self.b_len,
                self.common,
                self.missing,
                self.extra,
                self.moved,
            ],
            iat_within_10ns: self.iat_within_10ns.to_bits(),
            iat_abs_percentiles_ns: triple(self.iat_abs_percentiles_ns),
            latency_abs_percentiles_ns: triple(self.latency_abs_percentiles_ns),
            edit_stats: (
                e.count,
                [e.mean, e.stddev, e.abs_mean, e.abs_stddev].map(f64::to_bits),
                [e.min, e.max],
            ),
            iat_hist: &self.iat_hist,
            latency_hist: &self.latency_hist,
        }
    }
}

/// Sorted-absolute (p50, p90, p99) of a delta series, in nanoseconds.
pub(crate) fn abs_percentiles_ns(deltas: &[f64]) -> (f64, f64, f64) {
    if deltas.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut abs: Vec<f64> = deltas.iter().map(|d| d.abs()).collect();
    abs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN deltas"));
    (
        super::stats::percentile_sorted(&abs, 50.0),
        super::stats::percentile_sorted(&abs, 90.0),
        super::stats::percentile_sorted(&abs, 99.0),
    )
}

/// Positional trial label in spreadsheet style: 0 → "A", 25 → "Z",
/// 26 → "AA", 27 → "AB", … — unbounded, unlike the fixed table it
/// replaces (which fell back to a duplicate `"?"` past its last entry).
pub fn trial_label(i: usize) -> String {
    let mut bytes = Vec::new();
    let mut i = i;
    loop {
        bytes.push(b'A' + (i % 26) as u8);
        i /= 26;
        if i == 0 {
            break;
        }
        i -= 1;
    }
    bytes.reverse();
    String::from_utf8(bytes).expect("ASCII label")
}

/// Analyze run `b` against baseline `a`, each side indexed once and
/// scored through the production pipeline: the one-call entry point.
///
/// # Panics
///
/// If either trial holds more than [`super::MAX_TRIAL_LEN`] packets.
pub fn analyze(label: impl Into<String>, a: &Trial, b: &Trial) -> TrialComparison {
    super::pair::indexed(a, b, |pa| pa.label(label).analyze())
}

/// Structured failure modes of report assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportError {
    /// No per-run comparisons to aggregate — e.g. a chaos sweep at a fault
    /// rate high enough that every replay failed. Previously this tripped
    /// an `assert!` deep in `ConsistencyMetrics::mean_of` and aborted the
    /// whole report.
    EmptyRunSet,
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::EmptyRunSet => {
                write!(f, "no runs to aggregate (every run failed or was filtered)")
            }
        }
    }
}

impl std::error::Error for ReportError {}

/// All runs of one environment compared against run A — one evaluation
/// "row" of the paper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Environment name ("Local Single-Replayer", …).
    pub environment: String,
    /// Comparisons of runs B, C, D, E… against run A.
    pub runs: Vec<TrialComparison>,
    /// Component-wise mean across runs (a Table 2 row).
    pub mean: ConsistencyMetrics,
    /// Sample standard deviation of κ across runs — the run-to-run spread
    /// the paper's per-section run lists exhibit (its FABRIC dedicated κ
    /// varied from 0.65 to 0.82 within one test, §7).
    pub kappa_stddev: f64,
    /// Graceful-degradation events aggregated across the experiment's
    /// middleboxes and replay engines (all-zero for a clean run), so a
    /// κ value is always read next to how degraded the run that
    /// produced it was.
    pub degradation: crate::replay::DegradationReport,
    /// Off-diagonal κ summary when the full all-pairs matrix was computed
    /// (`None` for baseline-only reports and reports written before the
    /// matrix engine existed).
    #[serde(default)]
    pub matrix: Option<MatrixSummary>,
    /// Simulator event-queue statistics from the run that produced the
    /// trials (`None` for reports written before the coalesced hot path
    /// existed, or assembled outside a simulation).
    #[serde(default)]
    pub sim: Option<SimStatsReport>,
    /// Observability snapshot (span tree, counters, event-ring tail)
    /// captured from the run that produced this report. `None` when
    /// observability was not enabled, and for reports written before the
    /// obs layer existed.
    #[serde(default)]
    pub obs: Option<choir_obs::ObsSnapshot>,
}

/// Event-queue observability counters for the simulation behind a report
/// — a serialization mirror of the simulator's `SimStats` (this crate
/// does not depend on the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimStatsReport {
    /// Total events dispatched.
    pub events_processed: u64,
    /// Event-queue depth high-water mark.
    pub queue_depth_peak: u64,
    /// Wire deliveries that rode a coalesced burst event.
    pub coalesced_events: u64,
    /// Packets carried by those coalesced events.
    pub coalesced_packets: u64,
    /// Wire crossings that needed no arrival event (single-feeder
    /// cut-through enqueues at transmit time).
    #[serde(default)]
    pub wire_events_elided: u64,
    /// Mean packets per delivery event (1.0 = fully per-packet).
    pub packets_per_event: f64,
}

impl RunReport {
    /// Assemble a report from per-run comparisons.
    ///
    /// Returns [`ReportError::EmptyRunSet`] when there is nothing to
    /// aggregate, instead of panicking inside the mean computation.
    pub fn new(
        environment: impl Into<String>,
        runs: Vec<TrialComparison>,
    ) -> Result<Self, ReportError> {
        let mean = ConsistencyMetrics::mean_of(&runs.iter().map(|r| r.metrics).collect::<Vec<_>>())
            .ok_or(ReportError::EmptyRunSet)?;
        let kappa_stddev = super::stats::Summary::of(runs.iter().map(|r| r.metrics.kappa)).stddev;
        Ok(RunReport {
            environment: environment.into(),
            runs,
            mean,
            kappa_stddev,
            degradation: crate::replay::DegradationReport::default(),
            matrix: None,
            sim: None,
            obs: None,
        })
    }

    /// Attach the experiment's aggregated degradation counters.
    pub fn with_degradation(mut self, degradation: crate::replay::DegradationReport) -> Self {
        self.degradation = degradation;
        self
    }

    /// Attach the all-pairs κ-matrix summary.
    pub fn with_matrix(mut self, matrix: MatrixSummary) -> Self {
        self.matrix = Some(matrix);
        self
    }

    /// Attach the simulator's event-queue statistics.
    pub fn with_sim_stats(mut self, sim: SimStatsReport) -> Self {
        self.sim = Some(sim);
        self
    }

    /// Attach an observability snapshot (non-empty snapshots only: an
    /// all-default snapshot carries no information worth serializing).
    pub fn with_obs(mut self, obs: choir_obs::ObsSnapshot) -> Self {
        if !obs.is_empty() {
            self.obs = Some(obs);
        }
        self
    }

    /// A merged IAT histogram across all runs (used when rendering a
    /// single figure for the environment).
    pub fn merged_iat_hist(&self) -> DeltaHistogram {
        let mut h = DeltaHistogram::new();
        for r in &self.runs {
            h.merge(&r.iat_hist);
        }
        h
    }

    /// A merged latency histogram across all runs.
    pub fn merged_latency_hist(&self) -> DeltaHistogram {
        let mut h = DeltaHistogram::new();
        for r in &self.runs {
            h.merge(&r.latency_hist);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::allpairs::all_pairs_sharded;

    fn cbr_trial(n: u64, gap: u64, jitter: impl Fn(u64) -> i64) -> Trial {
        let mut t = Trial::new();
        for i in 0..n {
            let base = (i * gap) as i64;
            t.push_tagged(0, 0, i, (base + jitter(i)).max(0) as u64);
        }
        t
    }

    #[test]
    fn analyze_consistent_pair() {
        let a = cbr_trial(1000, 284_800, |_| 0);
        let b = cbr_trial(1000, 284_800, |i| ((i % 7) as i64 - 3) * 1000); // ±3 ns
        let c = analyze("B", &a, &b);
        assert_eq!(c.metrics.u, 0.0);
        assert_eq!(c.metrics.o, 0.0);
        assert_eq!(c.missing, 0);
        assert!(c.iat_within_10ns > 0.99);
        assert!(c.metrics.kappa > 0.95);
        assert_eq!(c.iat_hist.total(), 1000);
        assert_eq!(c.latency_hist.total(), 1000);
        // Percentiles are ordered and bounded by the jitter we injected.
        let (p50, p90, p99) = c.iat_abs_percentiles_ns;
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p99 <= 12.0, "p99 {p99}");
    }

    #[test]
    fn analyze_with_drops() {
        let a = cbr_trial(100, 1000, |_| 0);
        let mut b = Trial::new();
        for i in 0..100u64 {
            if i != 50 && i != 51 {
                b.push_tagged(0, 0, i, i * 1000);
            }
        }
        let c = analyze("B", &a, &b);
        assert_eq!(c.missing, 2);
        assert_eq!(c.common, 98);
        assert!(c.metrics.u > 0.0);
    }

    #[test]
    fn report_mean_matches_components() {
        let a = cbr_trial(100, 1000, |_| 0);
        let b = cbr_trial(100, 1000, |i| (i % 2) as i64 * 100);
        let c = cbr_trial(100, 1000, |i| (i % 3) as i64 * 100);
        let rb = analyze("B", &a, &b);
        let rc = analyze("C", &a, &c);
        let expect_i = (rb.metrics.i + rc.metrics.i) / 2.0;
        let report = RunReport::new("test-env", vec![rb, rc]).unwrap();
        assert!((report.mean.i - expect_i).abs() < 1e-15);
        assert!(report.kappa_stddev >= 0.0);
        assert_eq!(report.runs.len(), 2);
        assert_eq!(report.merged_iat_hist().total(), 200);
        assert_eq!(report.merged_latency_hist().total(), 200);
    }

    #[test]
    fn report_serializes() {
        let a = cbr_trial(10, 1000, |_| 0);
        let r = RunReport::new("env", vec![analyze("B", &a, &a.clone())]).unwrap();
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.environment, "env");
        assert_eq!(back.runs[0].metrics.kappa, 1.0);
        assert_eq!(back.matrix, None);
    }

    #[test]
    fn empty_run_set_is_a_structured_error() {
        // Regression: used to trip `assert!(!runs.is_empty())` deep inside
        // the mean computation and abort the caller.
        let err = RunReport::new("env", Vec::new()).unwrap_err();
        assert_eq!(err, ReportError::EmptyRunSet);
        assert!(err.to_string().contains("no runs"));
    }

    #[test]
    fn trial_labels_are_unbounded_and_unique() {
        assert_eq!(trial_label(0), "A");
        assert_eq!(trial_label(1), "B");
        assert_eq!(trial_label(25), "Z");
        assert_eq!(trial_label(26), "AA");
        assert_eq!(trial_label(27), "AB");
        assert_eq!(trial_label(51), "AZ");
        assert_eq!(trial_label(52), "BA");
        assert_eq!(trial_label(702), "AAA");
        let labels: Vec<String> = (0..1000).map(trial_label).collect();
        let unique: std::collections::HashSet<&String> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len(), "labels must never collide");
    }

    #[test]
    fn thirty_run_sweep_has_no_duplicate_labels() {
        // Regression: runs past the fixed label table used to all get "?".
        let trials: Vec<Trial> = (0..31u64)
            .map(|k| cbr_trial(20, 1000, move |i| ((i + k) % 3) as i64))
            .collect();
        let row = all_pairs_sharded(&trials, 2).unwrap().baseline_row();
        assert_eq!(row.len(), 30);
        assert_eq!(row[0].label, "B");
        assert_eq!(row[24].label, "Z");
        assert_eq!(row[25].label, "AA");
        assert_eq!(row[29].label, "AE");
        let unique: std::collections::HashSet<&str> =
            row.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(unique.len(), 30);
        assert!(!row.iter().any(|c| c.label == "?"));
    }

    #[test]
    fn timings_default_for_old_reports() {
        // Reports serialized before stage timing existed must still load.
        let a = cbr_trial(10, 1000, |_| 0);
        let c = analyze("B", &a, &a.clone());
        let json = serde_json::to_string(&c).unwrap();
        let idx = json
            .rfind(",\"timings\":")
            .expect("timings serialized last");
        let old = format!("{}}}", &json[..idx]);
        let back: TrialComparison = serde_json::from_str(&old).unwrap();
        assert_eq!(back.timings, StageTimings::default());
        assert_eq!(back.metrics.kappa, 1.0);
    }

    #[test]
    fn report_roundtrips_with_and_without_obs_snapshot() {
        let a = cbr_trial(10, 1000, |_| 0);
        let base = RunReport::new("env", vec![analyze("B", &a, &a.clone())]).unwrap();

        // Without: the field serializes as null and round-trips to None.
        let json = serde_json::to_string(&base).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert!(back.obs.is_none());

        // A report written before the obs field existed (no "obs" key at
        // all) still loads, defaulting to None.
        let idx = json.rfind(",\"obs\":").expect("obs serialized last");
        let old = format!("{}}}", &json[..idx]);
        let back: RunReport = serde_json::from_str(&old).unwrap();
        assert!(back.obs.is_none());
        assert_eq!(back.runs[0].metrics.kappa, 1.0);

        // With: a populated snapshot survives the round trip intact.
        let snap = choir_obs::ObsSnapshot {
            enabled: true,
            counters: vec![choir_obs::CounterSnap {
                name: "sim.events_processed".into(),
                value: 42,
            }],
            spans: vec![choir_obs::SpanSnap {
                path: "matrix/pairs".into(),
                count: 3,
                total_ns: 900,
                min_ns: 100,
                max_ns: 500,
            }],
            events: vec![choir_obs::EventSnap {
                seq: 0,
                kind: "replay.retry".into(),
                a: 1,
                b: 2,
            }],
            events_emitted: 1,
            events_dropped: 0,
        };
        let with = base.clone().with_obs(snap.clone());
        let json = serde_json::to_string(&with).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.obs, Some(snap));

        // Empty snapshots are not attached.
        let none = base.with_obs(choir_obs::ObsSnapshot::default());
        assert!(none.obs.is_none());
    }
}
