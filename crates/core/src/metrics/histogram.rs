//! Signed logarithmic delta histograms, in the style of the paper's
//! figures.
//!
//! Every evaluation figure (Figs. 4–10) is a histogram of "the percentage
//! of packets with a given IAT delta" (or latency delta) on a symmetric
//! log-ish axis spanning roughly ±10⁸ ns. [`DeltaHistogram`] reproduces
//! that: a zero bucket for |Δ| < 1 ns, then logarithmic buckets (a fixed
//! number per decade) out to ±10⁹ ns, mirrored for negative deltas.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

/// Sub-buckets per decade.
const SUBS: usize = 5;
/// Number of decades covered (1 ns .. 10^DECADES ns).
const DECADES: usize = 9;
/// Buckets per sign: decades × subs.
const PER_SIGN: usize = SUBS * DECADES;

/// Bucket-edge bit patterns plus a per-binade index for O(1) binning.
///
/// `edges[k]` (for `k ≤ PER_SIGN`) is the smallest positive-f64 bit
/// pattern whose [`DeltaHistogram::add`] position is `≥ k` — computed by
/// bisecting the bit space against the *same* `log10`-based expression
/// the scalar path uses, so the table-driven binning in
/// [`DeltaHistogram::record_slice`] reproduces the scalar bucket for
/// every finite input (for positive finite doubles the bit pattern
/// orders exactly like the value). `base[e]` is the bucket count at the
/// smallest pattern of biased exponent `e`; one binade spans
/// `log10(2) * SUBS ≈ 1.5` positions, so at most two edges fall inside
/// it and the per-sample refinement is exactly two integer compares. The
/// two `u64::MAX` pads past `edges[PER_SIGN]` keep those probes in
/// bounds without a branch.
struct EdgeTable {
    edges: [u64; PER_SIGN + 3],
    base: [u8; 2048],
}

fn edge_table() -> &'static EdgeTable {
    static TABLE: OnceLock<EdgeTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let raw_pos = |mag: f64| (mag.log10() * SUBS as f64).floor() as isize;
        let mut edges = [u64::MAX; PER_SIGN + 3];
        for (k, e) in edges.iter_mut().enumerate().take(PER_SIGN + 1) {
            let (mut lo, mut hi) = (1.0f64.to_bits(), f64::MAX.to_bits());
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if raw_pos(f64::from_bits(mid)) >= k as isize {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            // The scalar path must agree at both sides of the boundary.
            assert!(raw_pos(f64::from_bits(lo)) >= k as isize);
            assert!(k == 0 || raw_pos(f64::from_bits(lo - 1)) < k as isize);
            *e = lo;
        }
        let count_le =
            |mb: u64| edges[1..=PER_SIGN].iter().filter(|&&e| e <= mb).count();
        let mut base = [0u8; 2048];
        for (e, b) in base.iter_mut().enumerate() {
            let min = (e as u64) << 52;
            let max = min | ((1u64 << 52) - 1);
            let at_min = count_le(min);
            // The two-probe refinement in `record_slice` relies on this.
            assert!(count_le(max) - at_min <= 2, "binade {e} crosses > 2 edges");
            *b = at_min as u8;
        }
        EdgeTable { edges, base }
    })
}

/// A symmetric signed log histogram of deltas in nanoseconds.
///
/// ```
/// use choir_core::metrics::DeltaHistogram;
///
/// let h = DeltaHistogram::of([0.2, -3.0, 5.5, 180.0]);
/// assert_eq!(h.total(), 4);
/// assert!((h.fraction_within(10.0) - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeltaHistogram {
    /// Counts indexed `0..2*PER_SIGN+1`; the middle index is the zero
    /// bucket, lower indices negative deltas, higher positive.
    counts: Vec<u64>,
    total: u64,
    /// Values below −10⁹ ns or above +10⁹ ns (clamped into the end
    /// buckets but tallied separately for diagnostics).
    clamped: u64,
}

impl DeltaHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        DeltaHistogram {
            counts: vec![0; 2 * PER_SIGN + 1],
            total: 0,
            clamped: 0,
        }
    }

    /// Histogram of a delta series.
    pub fn of<I: IntoIterator<Item = f64>>(deltas_ns: I) -> Self {
        let mut h = Self::new();
        for d in deltas_ns {
            h.add(d);
        }
        h
    }

    fn signed_index(&mut self, delta_ns: f64) -> usize {
        let mag = delta_ns.abs();
        if mag < 1.0 {
            return PER_SIGN; // zero bucket
        }
        let mut pos = (mag.log10() * SUBS as f64).floor() as isize;
        if pos >= PER_SIGN as isize {
            pos = PER_SIGN as isize - 1;
            self.clamped += 1;
        }
        if delta_ns > 0.0 {
            PER_SIGN + 1 + pos as usize
        } else {
            PER_SIGN - 1 - pos as usize
        }
    }

    /// Add one delta (in nanoseconds).
    pub fn add(&mut self, delta_ns: f64) {
        let idx = self.signed_index(delta_ns);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Record a whole delta series — bucket-identical to calling
    /// [`DeltaHistogram::add`] per element for every *finite* input (the
    /// metric kernels only ever produce finite deltas).
    ///
    /// The scalar path takes a `log10` per sample; here the f64 exponent
    /// indexes a per-binade bucket base and two branch-free integer
    /// compares refine within the binade (see `EdgeTable`) — no libm
    /// calls and no per-sample search.
    pub fn record_slice(&mut self, deltas_ns: &[f64]) {
        let t = edge_table();
        for &d in deltas_ns {
            let mag = d.abs();
            let idx = if mag < 1.0 {
                PER_SIGN // zero bucket
            } else {
                let mb = mag.to_bits();
                let b = t.base[(mb >> 52) as usize] as usize;
                let mut pos = b
                    + usize::from(t.edges[b + 1] <= mb)
                    + usize::from(t.edges[b + 2] <= mb);
                if pos >= PER_SIGN {
                    pos = PER_SIGN - 1;
                    self.clamped += 1;
                }
                if d > 0.0 {
                    PER_SIGN + 1 + pos
                } else {
                    PER_SIGN - 1 - pos
                }
            };
            self.counts[idx] += 1;
        }
        self.total += deltas_ns.len() as u64;
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples that fell outside ±10⁹ ns and were clamped.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// The bucket boundaries and mass, as `(lo_ns, hi_ns, count, percent)`
    /// from the most negative bucket to the most positive. The zero bucket
    /// is `(-1, 1)`.
    pub fn buckets(&self) -> Vec<(f64, f64, u64, f64)> {
        let edge = |k: usize| 10f64.powf(k as f64 / SUBS as f64);
        let mut out = Vec::with_capacity(self.counts.len());
        for (i, &c) in self.counts.iter().enumerate() {
            let (lo, hi) = if i == PER_SIGN {
                (-1.0, 1.0)
            } else if i > PER_SIGN {
                let k = i - PER_SIGN - 1;
                (edge(k), edge(k + 1))
            } else {
                let k = PER_SIGN - 1 - i;
                (-edge(k + 1), -edge(k))
            };
            let pct = if self.total == 0 {
                0.0
            } else {
                100.0 * c as f64 / self.total as f64
            };
            out.push((lo, hi, c, pct));
        }
        out
    }

    /// Fraction (0–1) of samples with |Δ| ≤ `bound_ns`, computed from the
    /// raw counts of fully-contained buckets (conservative: a partially
    /// overlapping bucket is excluded).
    ///
    /// For the paper's headline "within 10 ns" statistic the bucket edges
    /// align exactly, so nothing is lost.
    pub fn fraction_within(&self, bound_ns: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut within = 0u64;
        for (lo, hi, c, _) in self.buckets() {
            if lo >= -bound_ns && hi <= bound_ns {
                within += c;
            }
        }
        within as f64 / self.total as f64
    }

    /// Merge another histogram into this one.
    ///
    /// Both histograms must share the same bucket geometry. Today that is
    /// guaranteed (`SUBS`/`DECADES` are compile-time constants), but a
    /// deserialized histogram from an older or foreign build could carry a
    /// different bucket count — zipping those would silently drop mass.
    pub fn merge(&mut self, other: &DeltaHistogram) {
        debug_assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "merging histograms with different bucket geometries"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.clamped += other.clamped;
    }

    /// CSV rows `lo_ns,hi_ns,count,percent` (no header), skipping empty
    /// leading/trailing buckets. An all-zero histogram yields an explicit
    /// comment marker instead of a spurious bucket-0 row.
    pub fn to_csv(&self) -> String {
        if self.total == 0 {
            return "# no samples\n".to_string();
        }
        let b = self.buckets();
        let first = b.iter().position(|&(_, _, c, _)| c > 0).expect("non-zero total");
        let last = b.iter().rposition(|&(_, _, c, _)| c > 0).expect("non-zero total");
        let mut s = String::new();
        for &(lo, hi, c, pct) in &b[first..=last] {
            s.push_str(&format!("{lo:.3},{hi:.3},{c},{pct:.4}\n"));
        }
        s
    }

    /// A terminal rendering in the style of the paper's figures: one bar
    /// per non-empty bucket, percent-scaled to `width` characters. An
    /// all-zero histogram renders an explicit empty marker instead of
    /// presenting bucket 0 as populated.
    pub fn render_ascii(&self, width: usize) -> String {
        if self.total == 0 {
            return "(no samples)\n".to_string();
        }
        let b = self.buckets();
        let first = b.iter().position(|&(_, _, c, _)| c > 0).expect("non-zero total");
        let last = b.iter().rposition(|&(_, _, c, _)| c > 0).expect("non-zero total");
        let maxpct = b
            .iter()
            .map(|&(_, _, _, p)| p)
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let mut s = String::new();
        for &(lo, hi, c, pct) in &b[first..=last] {
            if c == 0 && !(lo <= 0.0 && hi >= 0.0) {
                continue;
            }
            let bar = "#".repeat(((pct / maxpct) * width as f64).round() as usize);
            s.push_str(&format!("{:>12.1} .. {:>12.1} ns |{:6.2}% {}\n", lo, hi, pct, bar));
        }
        s
    }
}

impl Default for DeltaHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bucket_catches_subnanosecond() {
        let h = DeltaHistogram::of([0.0, 0.5, -0.9, 0.99]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.fraction_within(1.0), 1.0);
    }

    #[test]
    fn within_ten_ns_statistic() {
        // 8 samples within ±10 ns, 2 outside.
        let h = DeltaHistogram::of([0.0, 1.0, -2.0, 3.0, 5.0, -7.0, 9.0, 9.9, 50.0, -800.0]);
        assert!((h.fraction_within(10.0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn sign_symmetry() {
        let mut h = DeltaHistogram::new();
        h.add(123.0);
        h.add(-123.0);
        let b = h.buckets();
        let pos: Vec<_> = b.iter().filter(|&&(lo, _, c, _)| lo > 0.0 && c > 0).collect();
        let neg: Vec<_> = b.iter().filter(|&&(_, hi, c, _)| hi < 0.0 && c > 0).collect();
        assert_eq!(pos.len(), 1);
        assert_eq!(neg.len(), 1);
        assert!((pos[0].0 + neg[0].1).abs() < 1e-9, "mirrored edges");
    }

    #[test]
    fn bucket_mass_conservation() {
        let mut h = DeltaHistogram::new();
        for i in 0..1000 {
            h.add((i as f64 - 500.0) * 17.3);
        }
        let sum: u64 = h.buckets().iter().map(|&(_, _, c, _)| c).sum();
        assert_eq!(sum, h.total());
        let pct: f64 = h.buckets().iter().map(|&(_, _, _, p)| p).sum();
        assert!((pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn huge_values_clamp() {
        let mut h = DeltaHistogram::new();
        h.add(1e12);
        h.add(-2e15);
        assert_eq!(h.total(), 2);
        assert_eq!(h.clamped(), 2);
        let sum: u64 = h.buckets().iter().map(|&(_, _, c, _)| c).sum();
        assert_eq!(sum, 2);
    }

    #[test]
    fn merge_adds() {
        let mut a = DeltaHistogram::of([5.0, 10.0]);
        let b = DeltaHistogram::of([-5.0]);
        a.merge(&b);
        assert_eq!(a.total(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different bucket geometries")]
    fn merge_rejects_mismatched_geometry() {
        // A foreign/older build could serialize a different bucket count;
        // merging it must trip the debug assertion instead of silently
        // dropping mass.
        let mut a = DeltaHistogram::new();
        let b: DeltaHistogram =
            serde_json::from_str(r#"{"counts":[1,2,3],"total":6,"clamped":0}"#).unwrap();
        a.merge(&b);
    }

    #[test]
    fn empty_histogram_renders() {
        let h = DeltaHistogram::new();
        assert_eq!(h.fraction_within(10.0), 0.0);
        let _ = h.render_ascii(40);
        let _ = h.to_csv();
    }

    #[test]
    fn empty_histogram_renders_explicit_marker() {
        // The old render picked bucket 0 via unwrap_or(0) and printed it
        // as if populated; an all-zero histogram must say so instead.
        let h = DeltaHistogram::new();
        assert_eq!(h.render_ascii(40), "(no samples)\n");
        assert_eq!(h.to_csv(), "# no samples\n");
        assert!(!h.render_ascii(40).contains(".."), "no bucket rows");
        // One sample and the rows come back.
        let h = DeltaHistogram::of([5.0]);
        assert!(h.render_ascii(40).contains(".."));
        assert!(h.to_csv().contains(','));
    }

    #[test]
    fn record_slice_matches_scalar_add() {
        // Sweep magnitudes across every decade, both signs, sub-ns and
        // clamped extremes.
        let mut deltas = vec![0.0, 0.25, -0.999, 1e12, -2e15];
        let mut x = 1.0f64;
        while x < 5e9 {
            deltas.push(x);
            deltas.push(-x);
            deltas.push(x * 1.37);
            x *= 1.9;
        }
        let mut scalar = DeltaHistogram::new();
        for &d in &deltas {
            scalar.add(d);
        }
        let mut bulk = DeltaHistogram::new();
        bulk.record_slice(&deltas);
        assert_eq!(scalar.counts, bulk.counts);
        assert_eq!(scalar.total, bulk.total);
        assert_eq!(scalar.clamped, bulk.clamped);
    }

    #[test]
    fn record_slice_agrees_at_every_edge_neighborhood() {
        // The exact bucket boundaries are where a table rebuilt from a
        // different expression would drift: check both sides of all 46
        // edges, positive and negative.
        let mut deltas = Vec::new();
        for &e in &edge_table().edges[..PER_SIGN + 1] {
            for bits in [e - 1, e, e + 1] {
                let v = f64::from_bits(bits);
                deltas.push(v);
                deltas.push(-v);
            }
        }
        let mut scalar = DeltaHistogram::new();
        for &d in &deltas {
            scalar.add(d);
        }
        let mut bulk = DeltaHistogram::new();
        bulk.record_slice(&deltas);
        assert_eq!(scalar.counts, bulk.counts);
        assert_eq!(scalar.clamped, bulk.clamped);
    }

    #[test]
    fn csv_has_rows_for_data() {
        let h = DeltaHistogram::of([3.0, 3.5, -100.0]);
        let csv = h.to_csv();
        assert!(csv.lines().count() >= 2);
        assert!(csv.contains(','));
    }

    #[test]
    fn decade_boundaries_land_in_correct_bucket() {
        let mut h = DeltaHistogram::new();
        h.add(10.0); // exactly 10 ns: belongs to the [10, ...) bucket
        let b = h.buckets();
        let hit = b.iter().find(|&&(_, _, c, _)| c > 0).unwrap();
        assert!((hit.0 - 10.0).abs() < 1e-9, "lo = {}", hit.0);
    }

    #[test]
    fn serde_roundtrip() {
        let h = DeltaHistogram::of([1.0, -20.0, 300.0]);
        let json = serde_json::to_string(&h).unwrap();
        let back: DeltaHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back.total(), 3);
        assert_eq!(back.fraction_within(10.0), h.fraction_within(10.0));
    }
}
