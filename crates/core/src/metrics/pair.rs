//! The pair-analysis entry point: one builder, two pipelines.
//!
//! [`PairAnalyzer`] owns the [`Matching`] of one trial pair (built
//! lazily, built once) and runs exactly one of two pipelines end to end,
//! chosen by how it was constructed:
//!
//! - [`PairAnalyzer::from_indexes`] — the **production** pipeline over
//!   prebuilt [`TrialIndex`] arenas and a reusable [`PairScratch`]: every
//!   κ the program reports, from [`super::compare`] to the κ daemon.
//! - [`PairAnalyzer::new`] — the **reference** pipeline, straight from
//!   the two trials: `HashMap` matching, `i128`/`u128` arithmetic, a
//!   fresh allocation per stage: the specification `all_pairs_serial`
//!   and the bit-identity tests hold production to.
//!
//! Both share the normalizers of Eqs. 1–4 (one function per metric, in
//! the metric's module) and produce `f64::to_bits`-identical output.
//!
//! ```
//! use choir_core::metrics::{PairAnalyzer, Trial, TrialIndex};
//!
//! let mut a = Trial::new();
//! let mut b = Trial::new();
//! for i in 0..10u64 {
//!     a.push_tagged(0, 0, i, i * 1000);
//!     b.push_tagged(0, 0, i, i * 1000 + (i % 3) * 7);
//! }
//! let (ia, ib) = (TrialIndex::build(&a).unwrap(), TrialIndex::build(&b).unwrap());
//! // Quick look: just the metrics.
//! let m = PairAnalyzer::from_indexes(&ia, &ib).metrics();
//! assert_eq!(m.u, 0.0);
//! // Full report: histograms, percentiles, edit script, timings.
//! let cmp = PairAnalyzer::from_indexes(&ia, &ib).label("B").analyze();
//! assert_eq!(cmp.common, 10);
//! ```

use std::time::Instant;

use super::allpairs::TrialIndex;
use super::histogram::{DeltaHistogram, SliceScratch};
use super::iat::{iat_arena, iat_full_core};
use super::kappa::{kappa_from_components, ConsistencyMetrics};
use super::latency::{latency_arena, latency_full_core};
use super::matching::{matching_arena, MatchedPair, Matching};
use super::ordering::{ordering_arena, ordering_core, OrderScratch, OrderingResult};
use super::report::{abs_percentiles_ns, StageTimings, TrialComparison};
use super::trial::Trial;
use super::uniqueness::uniqueness_core;

/// Reusable per-worker workspace for the arena analysis path: the
/// matching's pair list, the delta series, the histogram pass's
/// workspace, and the ordering kernel's scratch. One `PairScratch`
/// per worker thread means zero steady-state heap allocation per pair
/// beyond the returned report itself.
#[derive(Debug, Default)]
pub struct PairScratch {
    pub(crate) pairs: Vec<MatchedPair>,
    pub(crate) iat_deltas: Vec<f64>,
    pub(crate) latency_deltas: Vec<f64>,
    series: SliceScratch,
    pub(crate) order: OrderScratch,
}

impl PairScratch {
    /// An empty workspace; buffers grow to the largest pair analyzed.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Run `f` on the production analyzer of `a` against `b`, each side
/// indexed here. Panics past [`super::MAX_TRIAL_LEN`] packets a side, the
/// bound every production path holds.
pub(crate) fn indexed<R>(a: &Trial, b: &Trial, f: impl FnOnce(PairAnalyzer<'_>) -> R) -> R {
    let ia = TrialIndex::build(a).expect("trial A within MAX_TRIAL_LEN packets");
    let ib = TrialIndex::build(b).expect("trial B within MAX_TRIAL_LEN packets");
    f(PairAnalyzer::from_indexes(&ia, &ib))
}

/// Where a pair's observations come from, and with it which pipeline
/// runs: borrowed trials (reference) or prebuilt [`TrialIndex`]es
/// (production).
#[derive(Clone, Copy)]
enum Source<'t> {
    Trials { a: &'t Trial, b: &'t Trial },
    Indexed { a: &'t TrialIndex<'t>, b: &'t TrialIndex<'t> },
}

/// Builder-style analyzer for one trial pair.
///
/// Owns the [`Matching`] cache: the first accessor that needs it builds
/// it, every later call (including [`PairAnalyzer::analyze`]) reuses it.
pub struct PairAnalyzer<'t> {
    source: Source<'t>,
    label: String,
    matching: Option<Matching>,
}

impl<'t> PairAnalyzer<'t> {
    /// Analyze a pair of plain trials through the reference pipeline.
    pub fn new(a: &'t Trial, b: &'t Trial) -> Self {
        PairAnalyzer {
            source: Source::Trials { a, b },
            label: "B".to_string(),
            matching: None,
        }
    }

    /// Analyze a pair through prebuilt per-trial indexes — the production
    /// arena pipeline.
    pub fn from_indexes(a: &'t TrialIndex<'t>, b: &'t TrialIndex<'t>) -> Self {
        PairAnalyzer {
            source: Source::Indexed { a, b },
            label: "B".to_string(),
            matching: None,
        }
    }

    /// Set the run label carried into the [`TrialComparison`] (default
    /// `"B"`, the paper's first non-baseline run).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The occurrence-wise matching, built on first access and cached.
    pub fn matching(&mut self) -> &Matching {
        let source = self.source;
        self.matching.get_or_insert_with(|| match source {
            Source::Trials { a, b } => Matching::build(a, b),
            Source::Indexed { a, b } => matching_arena(a, b, Vec::new()),
        })
    }

    /// `|A ∩ B|` — the number of common packets.
    pub fn common(&mut self) -> usize {
        self.matching().common()
    }

    /// Just the four component metrics plus κ — the light-weight path
    /// (no histograms, no percentiles) behind [`super::compare`] and the
    /// windowed scorer. Runs the same pipeline as
    /// [`PairAnalyzer::analyze`] would for this source.
    pub fn metrics(&mut self) -> ConsistencyMetrics {
        let source = self.source;
        let m = self.matching();
        let u = uniqueness_core(m);
        let (o, l, i) = match source {
            Source::Trials { a, b } => (
                ordering_core(m).o,
                latency_full_core(a, b, m).l,
                iat_full_core(a, b, m).i,
            ),
            Source::Indexed { a, b } => {
                let mut s = PairScratch::new();
                (
                    ordering_arena(m, &mut s.order).o,
                    latency_arena(a, b, m, &mut s.latency_deltas),
                    iat_arena(a, b, m, &mut s.iat_deltas),
                )
            }
        };
        kappa_from_components(u, o, l, i)
    }

    /// The complete comparison: metrics, drop/extra/moved counts,
    /// histograms, percentiles, edit-script statistics, stage timings.
    ///
    /// Indexed sources run the arena kernels (through a one-shot
    /// [`PairScratch`]); plain-trial sources run the reference pipeline.
    /// Both produce bit-identical metric output.
    pub fn analyze(self) -> TrialComparison {
        self.analyze_with_scratch(&mut PairScratch::new())
    }

    /// [`PairAnalyzer::analyze`] reusing a caller-owned workspace — the
    /// sharded engine's hot path, where each worker keeps one scratch for
    /// its whole run.
    pub fn analyze_with_scratch(self, scratch: &mut PairScratch) -> TrialComparison {
        match self.source {
            Source::Trials { a, b } => self.analyze_reference(a, b),
            Source::Indexed { a, b } => self.analyze_arena(a, b, scratch),
        }
    }

    /// The reference pipeline, kept as it was before the arena existed:
    /// the bit-identity ground truth.
    fn analyze_reference(mut self, a: &Trial, b: &Trial) -> TrialComparison {
        // One span per pair comparison; inside the sharded engine each
        // worker thread roots its own "pair" spans, so the aggregate
        // count doubles as a pairs-analyzed tally in the span tree.
        let _span = crate::obs::span("pair");
        let t0 = Instant::now();
        let m = match self.matching.take() {
            Some(m) => m,
            None => Matching::build(a, b),
        };
        let t1 = Instant::now();
        let u = uniqueness_core(&m);
        let ord = ordering_core(&m);
        let t2 = Instant::now();
        let lat = latency_full_core(a, b, &m);
        let t3 = Instant::now();
        let ia = iat_full_core(a, b, &m);
        let t4 = Instant::now();
        let metrics = kappa_from_components(u, ord.o, lat.l, ia.i);

        let iat_hist = DeltaHistogram::of(ia.deltas_ns.iter().copied());
        let latency_hist = DeltaHistogram::of(lat.deltas_ns.iter().copied());
        let within = super::stats::fraction_within(ia.deltas_ns.iter().copied(), 10.0);
        let iat_abs_percentiles_ns = abs_percentiles_ns(&ia.deltas_ns);
        let latency_abs_percentiles_ns = abs_percentiles_ns(&lat.deltas_ns);
        let t5 = Instant::now();

        TrialComparison {
            label: self.label,
            metrics,
            a_len: m.a_len,
            b_len: m.b_len,
            common: m.common(),
            missing: m.missing_in_b(),
            extra: m.extra_in_b(),
            moved: ord.moved(),
            iat_within_10ns: within,
            iat_abs_percentiles_ns,
            latency_abs_percentiles_ns,
            edit_stats: ord.stats(),
            iat_hist,
            latency_hist,
            timings: StageTimings::from_marks([t0, t1, t2, t3, t4, t5]),
        }
    }

    /// The arena pipeline: same stages in the same order as
    /// [`PairAnalyzer::analyze_reference`], every kernel swapped for its
    /// bit-identical arena/scratch counterpart — index-driven matching,
    /// scratch-backed LIS, split-lane latency/IAT accumulation, and one
    /// table-driven pass per delta series for its histogram, ±10 ns share
    /// and percentiles.
    fn analyze_arena(
        mut self,
        a: &TrialIndex<'_>,
        b: &TrialIndex<'_>,
        s: &mut PairScratch,
    ) -> TrialComparison {
        let _span = crate::obs::span("pair");
        let t0 = Instant::now();
        let m = match self.matching.take() {
            Some(m) => m,
            None => matching_arena(a, b, std::mem::take(&mut s.pairs)),
        };
        let t1 = Instant::now();
        let u = uniqueness_core(&m);
        let ord = ordering_arena(&m, &mut s.order);
        let t2 = Instant::now();
        let l = latency_arena(a, b, &m, &mut s.latency_deltas);
        let t3 = Instant::now();
        let i = iat_arena(a, b, &m, &mut s.iat_deltas);
        let t4 = Instant::now();
        let metrics = kappa_from_components(u, ord.o, l, i);
        let cmp = report_stage(self.label, metrics, &m, &ord, s, [t0, t1, t2, t3, t4]);
        // The pair list goes back to the workspace for the next pair.
        s.pairs = m.pairs;
        cmp
    }
}

/// The last stage of the arena pipeline, and of the streaming engine's
/// `finalize`: both delta histograms, the ±10 ns share and the
/// percentiles from the delta series in `s` (one
/// [`DeltaHistogram::record_slice`] pass per series), assembled with the
/// rest into the report. `marks` are the stage boundaries so far; the
/// last one is taken here, before the report is assembled.
pub(crate) fn report_stage(
    label: String,
    metrics: ConsistencyMetrics,
    m: &Matching,
    ord: &OrderingResult,
    s: &mut PairScratch,
    marks: [Instant; 5],
) -> TrialComparison {
    let mut iat_hist = DeltaHistogram::new();
    let iat = iat_hist.record_slice(&s.iat_deltas, &mut s.series);
    let mut latency_hist = DeltaHistogram::new();
    let latency = latency_hist.record_slice(&s.latency_deltas, &mut s.series);
    let [t0, t1, t2, t3, t4] = marks;
    let t5 = Instant::now();

    TrialComparison {
        label,
        metrics,
        a_len: m.a_len,
        b_len: m.b_len,
        common: m.common(),
        missing: m.missing_in_b(),
        extra: m.extra_in_b(),
        moved: ord.moved(),
        iat_within_10ns: iat.within_10ns,
        iat_abs_percentiles_ns: iat.abs_percentiles_ns,
        latency_abs_percentiles_ns: latency.abs_percentiles_ns,
        edit_stats: ord.stats(),
        iat_hist,
        latency_hist,
        timings: StageTimings::from_marks([t0, t1, t2, t3, t4, t5]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::report::analyze;

    fn jittered_pair(n: u64) -> (Trial, Trial) {
        let mut a = Trial::new();
        let mut b = Trial::new();
        for i in 0..n {
            a.push_tagged(0, 0, i, i * 1000);
            // Jitter plus one local swap and one drop to touch every
            // metric component.
            if i != 17 {
                let j = if i % 11 == 3 { i ^ 1 } else { i };
                b.push_tagged(0, 0, j, i * 1000 + (i % 5) * 37);
            }
        }
        (a, b)
    }

    #[test]
    fn metrics_match_analyze_on_both_pipelines() {
        let (a, b) = jittered_pair(200);
        let (ia, ib) = (
            TrialIndex::build(&a).unwrap(),
            TrialIndex::build(&b).unwrap(),
        );
        let full = PairAnalyzer::new(&a, &b).analyze().metrics;
        for got in [
            PairAnalyzer::new(&a, &b).metrics(),
            PairAnalyzer::from_indexes(&ia, &ib).metrics(),
        ] {
            assert_eq!(got.u.to_bits(), full.u.to_bits());
            assert_eq!(got.o.to_bits(), full.o.to_bits());
            assert_eq!(got.l.to_bits(), full.l.to_bits());
            assert_eq!(got.i.to_bits(), full.i.to_bits());
            assert_eq!(got.kappa.to_bits(), full.kappa.to_bits());
        }
    }

    #[test]
    fn analyzer_matches_report_analyze_bitwise() {
        let (a, b) = jittered_pair(300);
        let new = PairAnalyzer::new(&a, &b).label("B").analyze();
        // `analyze` is the production pipeline: this holds it to the
        // reference, report field by report field.
        let old = analyze("B", &a, &b);
        assert_eq!(new.metrics.kappa.to_bits(), old.metrics.kappa.to_bits());
        assert_eq!(new.iat_within_10ns.to_bits(), old.iat_within_10ns.to_bits());
        assert_eq!(new.iat_abs_percentiles_ns, old.iat_abs_percentiles_ns);
        assert_eq!(new.latency_abs_percentiles_ns, old.latency_abs_percentiles_ns);
        assert_eq!(new.iat_hist, old.iat_hist);
        assert_eq!(new.latency_hist, old.latency_hist);
        assert_eq!(new.edit_stats, old.edit_stats);
        assert_eq!(
            (new.a_len, new.b_len, new.common, new.missing, new.extra, new.moved),
            (old.a_len, old.b_len, old.common, old.missing, old.extra, old.moved)
        );
    }

    #[test]
    fn indexed_source_matches_trial_source_bitwise() {
        let (a, b) = jittered_pair(250);
        let (ia, ib) = (
            TrialIndex::build(&a).unwrap(),
            TrialIndex::build(&b).unwrap(),
        );
        let direct = PairAnalyzer::new(&a, &b).analyze();
        let indexed = PairAnalyzer::from_indexes(&ia, &ib).analyze();
        assert_eq!(direct.metrics.kappa.to_bits(), indexed.metrics.kappa.to_bits());
        assert_eq!(direct.metrics.o.to_bits(), indexed.metrics.o.to_bits());
        assert_eq!(direct.iat_within_10ns.to_bits(), indexed.iat_within_10ns.to_bits());
        assert_eq!(direct.edit_stats, indexed.edit_stats);
    }

    #[test]
    fn scratch_reuse_across_pairs_stays_bit_identical() {
        // A dirty scratch (sized by a big pair, then fed a small one, then
        // an empty one) must never leak state between analyses.
        let (a, b) = jittered_pair(300);
        let (c, d) = jittered_pair(40);
        let empty = Trial::new();
        let idx: Vec<TrialIndex> = [&a, &b, &c, &d, &empty]
            .into_iter()
            .map(|t| TrialIndex::build(t).unwrap())
            .collect();
        let mut scratch = PairScratch::new();
        for (x, y) in [(0, 1), (2, 3), (0, 4), (4, 4), (1, 2)] {
            let fresh = PairAnalyzer::from_indexes(&idx[x], &idx[y]).analyze();
            let reused =
                PairAnalyzer::from_indexes(&idx[x], &idx[y]).analyze_with_scratch(&mut scratch);
            assert_eq!(fresh.metrics.kappa.to_bits(), reused.metrics.kappa.to_bits());
            assert_eq!(fresh.iat_abs_percentiles_ns, reused.iat_abs_percentiles_ns);
            assert_eq!(fresh.latency_abs_percentiles_ns, reused.latency_abs_percentiles_ns);
            assert_eq!(fresh.edit_stats, reused.edit_stats);
            assert_eq!(fresh.iat_hist, reused.iat_hist);
            assert_eq!(fresh.latency_hist, reused.latency_hist);
        }
    }

    #[test]
    fn matching_is_built_once_and_cached() {
        let (a, b) = jittered_pair(50);
        let mut pa = PairAnalyzer::new(&a, &b);
        let common = pa.common();
        let first = pa.matching() as *const Matching;
        let second = pa.matching() as *const Matching;
        assert_eq!(first, second, "second access must reuse the cache");
        // And the cache feeds analyze() without a rebuild changing results.
        let cmp = pa.analyze();
        assert_eq!(cmp.common, common);
    }

    #[test]
    fn default_label_is_b() {
        let (a, b) = jittered_pair(10);
        assert_eq!(PairAnalyzer::new(&a, &b).analyze().label, "B");
        assert_eq!(PairAnalyzer::new(&a, &b).label("A-C").analyze().label, "A-C");
    }
}
