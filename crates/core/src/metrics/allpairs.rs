//! The sharded all-pairs consistency engine.
//!
//! The paper reports κ per environment by comparing every run against
//! baseline A (Tables 1–2), but its §7 run lists show κ varying 0.65–0.82
//! *within one test* — understanding that spread needs the full N×N
//! upper-triangular κ matrix, not just the baseline column. Rebuilt
//! naively that is `N(N−1)/2` independent [`analyze_with`] calls, each of
//! which re-hashes both trials and re-derives their gap/span statistics
//! from scratch.
//!
//! This module scales that computation three ways:
//!
//! - **[`TrialIndex`]** — a flat per-trial arena built **once per trial**
//!   and shared immutably across every pair that trial participates in.
//!   One contiguous `u32` allocation holds the occurrence positions
//!   (grouped by identity), per-position occurrence ranks, group extents,
//!   and an open-addressed identity table; dense sidecar arrays hold the
//!   gap series, the timestamp series, and the identity keys. No
//!   `HashMap`, no per-identity `Vec`s, no pointer chasing on the pair
//!   hot path (see DESIGN.md §15 for the layout).
//! - **Arena kernels** — the matching/latency/IAT/ordering/histogram
//!   stages stream the arena with autovectorization-friendly inner loops
//!   (split-lane `u64` accumulation instead of `u128` adds, branchless
//!   histogram binning, bit-pattern percentile selection), and leave early
//!   on a pair that kept its order (DESIGN.md §15.5). Every kernel is
//!   bit-identical to the uncached reference implementations — same
//!   arithmetic values in the same order.
//! - **A bounded worker pool** — at most `shards` worker threads steal
//!   pairs, in row-major order, from a shared atomic cursor, so an
//!   expensive pair (heavy reordering → long LIS stage) doesn't stall
//!   the pool behind a static partition.
//!
//! Invariants (enforced by unit tests here and the property tests in
//! `tests/allpairs_properties.rs` / `tests/arena_properties.rs`):
//!
//! 1. `all_pairs_sharded(trials, s)` is bit-identical to
//!    [`all_pairs_serial`] — the unchanged, uncached serial reference —
//!    for every shard count `s ≥ 1`.
//! 2. No more than `shards` workers are ever alive at once
//!    ([`EngineStats::peak_workers`] observes this).
//! 3. A [`TrialIndex`] is immutable after construction; pairs only read.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::obs;
use choir_packet::ident::PacketId;

use super::kappa::KappaConfig;
use super::pair::{PairAnalyzer, PairScratch};
use super::report::{analyze_with, trial_label, StageTimings, TrialComparison};
use super::stats;
use super::trial::Trial;

/// Sentinel for an unoccupied identity-table slot. Safe because a group
/// id is an index into `ids`, and `ids.len() ≤ n ≤ u32::MAX` means a real
/// group id never equals `u32::MAX` (that trial would have failed
/// [`TrialIndex::build`] with [`IndexError::TrialTooLarge`]).
const EMPTY_SLOT: u32 = u32::MAX;

/// Typed failure from [`TrialIndex::build`] — the arena indexes positions
/// with `u32`, so a trial beyond `u32::MAX` packets cannot be indexed.
/// Propagated through the all-pairs engine instead of aborting a whole
/// matrix run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexError {
    /// The trial at `trial` (its position in the run set) holds `len`
    /// packets, more than the `u32` position space can address.
    TrialTooLarge {
        /// Position of the offending trial in the run set (0 when indexed
        /// standalone).
        trial: usize,
        /// Its packet count.
        len: usize,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::TrialTooLarge { trial, len } => write!(
                f,
                "trial {trial} holds {len} packets, beyond the u32 index limit ({})",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for IndexError {}

/// Per-trial precomputation cache: everything a pairwise comparison needs
/// from one side that does not depend on the other side, laid out as one
/// flat arena.
///
/// Built once per trial in O(n), then shared immutably (`&TrialIndex`)
/// across all N−1 pairs the trial participates in, instead of being
/// rebuilt inside every `Matching::build` / `iat` / `latency` call.
///
/// # Arena layout
///
/// The `u32` arena packs four regions back to back:
///
/// ```text
/// [ positions(n) | occ(n) | group_start(≤ n+1) | table(cap) ]
/// ```
///
/// - `positions` — observation indices grouped by identity, each group's
///   occurrences in arrival order;
/// - `occ` — the occurrence rank of each position within its identity;
/// - `group_start` — prefix offsets into `positions` (group `g` owns
///   `positions[group_start[g]..group_start[g+1]]`);
/// - `table` — an open-addressed (linear-probe, power-of-two, ≤ 0.5 load)
///   map from identity hash to group id.
///
/// Dense sidecars carry the identity keys (`ids`, indexed by group id),
/// the gap series, and the timestamp series, so the metric kernels
/// stream plain slices instead of chasing `HashMap` buckets.
#[derive(Debug)]
pub struct TrialIndex<'t> {
    trial: &'t Trial,
    arena: Box<[u32]>,
    /// Identity key per group id (probe confirmation).
    ids: Box<[PacketId]>,
    /// `gap_ps(i)` for every position (0 for the first packet).
    gaps_ps: Box<[i64]>,
    /// `time(i)` for every position (dense copy — `Observation` has u128
    /// alignment, so streaming times through it wastes half the cache
    /// line).
    times_ps: Box<[u64]>,
    n: usize,
    groups: usize,
    table_mask: usize,
    /// First-arrival offset `t_X0` (0 for an empty trial).
    start_ps: u64,
    /// Min/max timestamp span (the IAT/latency denominators).
    minmax_span_ps: u64,
    /// Largest raw timestamp — gates the latency kernel's i64 fast path.
    max_time_ps: u64,
}

/// SplitMix64-style finalizer over the folded 128-bit identity. The table
/// only needs good low-bit diffusion for its power-of-two mask.
#[inline]
fn hash_id(id: PacketId) -> u64 {
    let mut z = (id.0 as u64) ^ ((id.0 >> 64) as u64);
    z = z.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 29;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 32;
    z
}

impl<'t> TrialIndex<'t> {
    /// Index a trial. O(n) time, O(n) memory, one arena allocation plus
    /// three dense sidecars.
    pub fn build(trial: &'t Trial) -> Result<Self, IndexError> {
        Self::build_at(trial, 0)
    }

    /// [`TrialIndex::build`] carrying the trial's position in its run set
    /// so [`IndexError`] can name the offending trial.
    pub(crate) fn build_at(trial: &'t Trial, at: usize) -> Result<Self, IndexError> {
        let n = trial.len();
        if n > u32::MAX as usize {
            return Err(IndexError::TrialTooLarge { trial: at, len: n });
        }
        let cap = (n * 2).max(4).next_power_of_two();
        let table_mask = cap - 1;
        let table_off = 3 * n + 1;
        let mut arena = vec![0u32; table_off + cap].into_boxed_slice();
        arena[table_off..].fill(EMPTY_SLOT);

        // Pass 1: assign group ids through the open-addressed table,
        // record each position's occurrence rank and group.
        let mut ids: Vec<PacketId> = Vec::with_capacity(n);
        let mut counts: Vec<u32> = Vec::with_capacity(n);
        let mut group_of: Vec<u32> = Vec::with_capacity(n);
        for (i, o) in trial.observations().iter().enumerate() {
            let mut slot = hash_id(o.id) as usize & table_mask;
            let g = loop {
                let v = arena[table_off + slot];
                if v == EMPTY_SLOT {
                    let g = ids.len() as u32;
                    arena[table_off + slot] = g;
                    ids.push(o.id);
                    counts.push(0);
                    break g;
                }
                if ids[v as usize] == o.id {
                    break v;
                }
                slot = (slot + 1) & table_mask;
            };
            arena[n + i] = counts[g as usize];
            counts[g as usize] += 1;
            group_of.push(g);
        }
        let groups = ids.len();

        // Pass 2: prefix-sum the group counts into group_start, reusing
        // `counts` as the scatter cursors.
        let mut acc = 0u32;
        for (g, c) in counts.iter_mut().enumerate() {
            arena[2 * n + g] = acc;
            let start = acc;
            acc += *c;
            *c = start;
        }
        arena[2 * n + groups] = acc;

        // Pass 3: scatter positions into their group extents.
        for (i, &g) in group_of.iter().enumerate() {
            let cur = counts[g as usize];
            arena[cur as usize] = i as u32;
            counts[g as usize] = cur + 1;
        }

        let mut gaps_ps = Vec::with_capacity(n);
        let mut times_ps = Vec::with_capacity(n);
        let mut max_time_ps = 0u64;
        for i in 0..n {
            gaps_ps.push(trial.gap_ps(i));
            let t = trial.time(i);
            max_time_ps = max_time_ps.max(t);
            times_ps.push(t);
        }

        Ok(TrialIndex {
            trial,
            arena,
            ids: ids.into_boxed_slice(),
            gaps_ps: gaps_ps.into_boxed_slice(),
            times_ps: times_ps.into_boxed_slice(),
            n,
            groups,
            table_mask,
            start_ps: trial.start_ps(),
            minmax_span_ps: trial.minmax_span_ps(),
            max_time_ps,
        })
    }

    /// Number of packets in the indexed trial.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the indexed trial holds no packets.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The indexed trial.
    pub fn trial(&self) -> &'t Trial {
        self.trial
    }

    /// Number of distinct identities.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Observation indices grouped by identity (see the layout doc).
    #[inline]
    pub(crate) fn positions(&self) -> &[u32] {
        &self.arena[..self.n]
    }

    /// Occurrence rank of each position within its identity.
    #[inline]
    pub(crate) fn occ(&self) -> &[u32] {
        &self.arena[self.n..2 * self.n]
    }

    /// Prefix offsets into [`TrialIndex::positions`], one per group plus
    /// the terminating total.
    #[inline]
    pub(crate) fn group_start(&self) -> &[u32] {
        &self.arena[2 * self.n..2 * self.n + self.groups + 1]
    }

    /// Group id of `id`, or `None` when the trial never saw it.
    #[inline]
    pub(crate) fn find(&self, id: PacketId) -> Option<u32> {
        let table = &self.arena[3 * self.n + 1..];
        let mut slot = hash_id(id) as usize & self.table_mask;
        loop {
            let v = table[slot];
            if v == EMPTY_SLOT {
                return None;
            }
            if self.ids[v as usize] == id {
                return Some(v);
            }
            slot = (slot + 1) & self.table_mask;
        }
    }

    /// The dense gap series.
    #[inline]
    pub(crate) fn gaps(&self) -> &[i64] {
        &self.gaps_ps
    }

    /// The dense timestamp series.
    #[inline]
    pub(crate) fn times(&self) -> &[u64] {
        &self.times_ps
    }

    /// First-arrival offset `t_X0`.
    #[inline]
    pub(crate) fn start_ps(&self) -> u64 {
        self.start_ps
    }

    /// Min/max timestamp span.
    #[inline]
    pub(crate) fn minmax_span_ps(&self) -> u64 {
        self.minmax_span_ps
    }

    /// Largest raw timestamp.
    #[inline]
    pub(crate) fn max_time_ps(&self) -> u64 {
        self.max_time_ps
    }
}

/// Summary statistics of the off-diagonal κ values — the "how unstable is
/// this environment run-to-run" number the per-baseline view hides.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatrixSummary {
    /// Number of trials (N).
    pub trials: usize,
    /// Number of off-diagonal pairs (N(N−1)/2).
    pub pairs: usize,
    /// Smallest off-diagonal κ.
    pub kappa_min: f64,
    /// Median off-diagonal κ.
    pub kappa_median: f64,
    /// Largest off-diagonal κ.
    pub kappa_max: f64,
}

/// The full upper-triangular κ matrix over N trials.
///
/// Cell `(i, j)` with `i < j` holds the complete [`TrialComparison`] of
/// trial `j` against trial `i`; the diagonal is implicit (κ = 1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KappaMatrix {
    /// Per-trial labels ("A", "B", … "Z", "AA", …).
    pub labels: Vec<String>,
    /// Upper-triangular cells in row-major `(i, j), i < j` order.
    pub cells: Vec<TrialComparison>,
}

impl KappaMatrix {
    /// Number of trials.
    pub fn trials(&self) -> usize {
        self.labels.len()
    }

    /// Number of off-diagonal pairs.
    pub fn pairs(&self) -> usize {
        self.cells.len()
    }

    fn offset(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.labels.len());
        let n = self.labels.len();
        i * n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// The comparison for `(i, j)` (either order); `None` on the diagonal
    /// or out of range.
    pub fn get(&self, i: usize, j: usize) -> Option<&TrialComparison> {
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        if i == j || j >= self.labels.len() {
            return None;
        }
        self.cells.get(self.offset(i, j))
    }

    /// κ of `(i, j)`; 1.0 on the diagonal.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    pub fn kappa(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.labels.len() && j < self.labels.len(), "index out of range");
        if i == j {
            1.0
        } else {
            self.get(i, j).expect("in-range off-diagonal cell").metrics.kappa
        }
    }

    /// The baseline row (everything vs trial 0), relabelled per run — a
    /// drop-in for the paper's B-vs-A, C-vs-A, … comparisons.
    pub fn baseline_row(&self) -> Vec<TrialComparison> {
        (1..self.trials())
            .map(|j| {
                let mut c = self.get(0, j).expect("baseline cell").clone();
                c.label = self.labels[j].clone();
                c
            })
            .collect()
    }

    /// Min/median/max of the off-diagonal κ values; `None` for fewer than
    /// two trials.
    pub fn summary(&self) -> Option<MatrixSummary> {
        if self.cells.is_empty() {
            return None;
        }
        let mut kappas: Vec<f64> = self.cells.iter().map(|c| c.metrics.kappa).collect();
        // κ = 1 − x can never be −0.0 and the engine never emits NaN, so
        // total_cmp orders exactly like partial_cmp here — without the
        // panic path a hand-deserialized NaN cell used to hit.
        kappas.sort_by(f64::total_cmp);
        Some(MatrixSummary {
            trials: self.trials(),
            pairs: self.pairs(),
            kappa_min: kappas[0],
            kappa_median: stats::percentile_sorted(&kappas, 50.0),
            kappa_max: *kappas.last().expect("non-empty"),
        })
    }

    /// Sum of every cell's per-stage wall-clock timings.
    pub fn total_timings(&self) -> StageTimings {
        let mut t = StageTimings::default();
        for c in &self.cells {
            t.add(&c.timings);
        }
        t
    }
}

/// Diagnostics from one sharded run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Worker threads actually used (min of `shards` and the pair count).
    pub shards_used: usize,
    /// Peak number of workers observed alive at once (≤ `shards`).
    pub peak_workers: usize,
    /// Wall-clock spent building the per-trial indexes, ns.
    pub index_build_ns: u64,
    /// Wall-clock of the pair computation (pool start to last join), ns.
    pub pair_wall_ns: u64,
}

/// Serial reference: the full matrix via the original uncached
/// [`analyze_with`] path, one pair at a time. This is the ground truth the
/// sharded engine must reproduce bit-for-bit.
pub fn all_pairs_serial(trials: &[Trial]) -> KappaMatrix {
    all_pairs_serial_with(trials, &KappaConfig::paper())
}

/// [`all_pairs_serial`] with a custom κ configuration.
pub fn all_pairs_serial_with(trials: &[Trial], cfg: &KappaConfig) -> KappaMatrix {
    let labels: Vec<String> = (0..trials.len()).map(trial_label).collect();
    let mut cells = Vec::with_capacity(pair_count(trials.len()));
    for i in 0..trials.len() {
        for j in i + 1..trials.len() {
            let label = format!("{}-{}", labels[i], labels[j]);
            cells.push(analyze_with(label, &trials[i], &trials[j], cfg));
        }
    }
    KappaMatrix { labels, cells }
}

/// Sharded all-pairs analysis with the paper's κ configuration.
pub fn all_pairs_sharded(trials: &[Trial], shards: usize) -> Result<KappaMatrix, IndexError> {
    Ok(all_pairs_sharded_with(trials, shards, &KappaConfig::paper())?.0)
}

/// Sharded all-pairs analysis: build every [`TrialIndex`] once, then let a
/// bounded pool of at most `shards` workers steal pairs, in row-major
/// `(i, j), i < j` order, from a shared cursor. Each cell's arithmetic is
/// independent and cells land at their row-major offsets, so the output
/// is bit-identical to [`all_pairs_serial_with`] for any `shards ≥ 1`.
pub fn all_pairs_sharded_with(
    trials: &[Trial],
    shards: usize,
    cfg: &KappaConfig,
) -> Result<(KappaMatrix, EngineStats), IndexError> {
    let n = trials.len();
    let labels: Vec<String> = (0..n).map(trial_label).collect();
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .collect();

    let _span = obs::span("allpairs");
    let t_index = Instant::now();
    let indexes: Vec<TrialIndex<'_>> = {
        let _s = obs::span("index_build");
        trials
            .iter()
            .enumerate()
            .map(|(i, t)| TrialIndex::build_at(t, i))
            .collect::<Result<_, _>>()?
    };
    let index_build_ns = t_index.elapsed().as_nanos() as u64;

    let workers = shards.max(1).min(pairs.len().max(1));
    let t_pairs = Instant::now();
    let cursor = AtomicUsize::new(0);
    let live = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let mut slots: Vec<Option<TrialComparison>> = Vec::new();
    slots.resize_with(pairs.len(), || None);
    let slots = Mutex::new(slots);
    // One worker's whole life; a pool of one runs it on the caller's
    // thread, with no thread machinery at all.
    let work = |widx: usize| {
        let alive = live.fetch_add(1, AtomicOrdering::SeqCst) + 1;
        peak.fetch_max(alive, AtomicOrdering::SeqCst);
        let mut scratch = PairScratch::new();
        let mut stolen = 0u64;
        loop {
            let k = cursor.fetch_add(1, AtomicOrdering::Relaxed);
            let Some(&(i, j)) = pairs.get(k) else {
                break;
            };
            obs::event("allpairs.steal", widx as u64, k as u64);
            let cell = PairAnalyzer::from_indexes(&indexes[i], &indexes[j])
                .label(String::new())
                .config(*cfg)
                .analyze_with_scratch(&mut scratch);
            slots.lock().expect("cell slots")[k] = Some(cell);
            stolen += 1;
        }
        if stolen > 0 {
            obs::counter_add("allpairs.pairs_analyzed", stolen);
            obs::gauge_max("allpairs.worker_pairs_peak", stolen);
        }
        live.fetch_sub(1, AtomicOrdering::SeqCst);
    };
    {
        let _s = obs::span("pairs");
        if workers <= 1 {
            work(0);
        } else {
            std::thread::scope(|s| {
                for widx in 0..workers {
                    let work = &work;
                    s.spawn(move || work(widx));
                }
            });
        }
    }
    let mut cells: Vec<TrialComparison> = slots
        .into_inner()
        .expect("cell slots")
        .into_iter()
        .map(|c| c.expect("every pair computed"))
        .collect();
    // Cells come back unlabelled and are named here, by the caller. A
    // label written by a worker is a few bytes from that worker's malloc
    // arena which the caller frees: the caller's next small `Vec` starts
    // in that chunk, and whatever it grows to is then held by the arena
    // of a thread that has exited (seen: a daemon's 9.6 MB checkpoint
    // buffer, peak RSS ± 18 MB from one session to the next).
    for (cell, &(i, j)) in cells.iter_mut().zip(&pairs) {
        cell.label = format!("{}-{}", labels[i], labels[j]);
    }
    let stats = EngineStats {
        shards_used: workers,
        peak_workers: peak.load(AtomicOrdering::SeqCst),
        index_build_ns,
        pair_wall_ns: t_pairs.elapsed().as_nanos() as u64,
    };

    let matrix = KappaMatrix { labels, cells };
    if obs::is_enabled() {
        obs::gauge_max("allpairs.shards_used", stats.shards_used as u64);
        obs::gauge_max("allpairs.peak_workers", stats.peak_workers as u64);
        obs::counter_add("allpairs.index_build_ns", stats.index_build_ns);
        obs::counter_add("allpairs.pair_wall_ns", stats.pair_wall_ns);
        // Mirror the per-cell StageTimings so the span tree and the
        // existing per-stage accounting tell one coherent story.
        let t = matrix.total_timings();
        obs::counter_add("allpairs.stage.match_ns", t.match_ns);
        obs::counter_add("allpairs.stage.order_ns", t.order_ns);
        obs::counter_add("allpairs.stage.latency_ns", t.latency_ns);
        obs::counter_add("allpairs.stage.iat_ns", t.iat_ns);
        obs::counter_add("allpairs.stage.histogram_ns", t.histogram_ns);
    }
    Ok((matrix, stats))
}

/// Number of off-diagonal pairs for `n` trials (0 for an empty set).
pub fn pair_count(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::iat::{iat_arena, iat_full_core};
    use crate::metrics::latency::{latency_arena, latency_full_core};
    use crate::metrics::matching::{matching_arena, Matching};
    use crate::metrics::report::analyze;
    use proptest::prelude::*;

    fn cbr_trial(n: u64, gap: u64, jitter: impl Fn(u64) -> i64) -> Trial {
        let mut t = Trial::new();
        for i in 0..n {
            let base = (i * gap) as i64;
            t.push_tagged(0, 0, i, (base + jitter(i)).max(0) as u64);
        }
        t
    }

    fn jittered_set(n_trials: u64, n_packets: u64) -> Vec<Trial> {
        (0..n_trials)
            .map(|k| cbr_trial(n_packets, 1000, move |i| ((i % (k + 2)) * 31) as i64))
            .collect()
    }

    fn assert_cells_equal(x: &TrialComparison, y: &TrialComparison) {
        assert_eq!(x.label, y.label);
        assert_eq!(x.metrics.kappa.to_bits(), y.metrics.kappa.to_bits());
        assert_eq!(x.metrics.u.to_bits(), y.metrics.u.to_bits());
        assert_eq!(x.metrics.o.to_bits(), y.metrics.o.to_bits());
        assert_eq!(x.metrics.l.to_bits(), y.metrics.l.to_bits());
        assert_eq!(x.metrics.i.to_bits(), y.metrics.i.to_bits());
        assert_eq!(
            (x.a_len, x.b_len, x.common, x.missing, x.extra, x.moved),
            (y.a_len, y.b_len, y.common, y.missing, y.extra, y.moved)
        );
        assert_eq!(x.iat_within_10ns.to_bits(), y.iat_within_10ns.to_bits());
        assert_eq!(x.iat_abs_percentiles_ns, y.iat_abs_percentiles_ns);
        assert_eq!(x.latency_abs_percentiles_ns, y.latency_abs_percentiles_ns);
        assert_eq!(x.edit_stats, y.edit_stats);
        assert_eq!(x.iat_hist.total(), y.iat_hist.total());
        assert_eq!(x.latency_hist.total(), y.latency_hist.total());
    }

    #[test]
    fn indexed_matching_matches_reference() {
        let mut a = Trial::new();
        let mut b = Trial::new();
        // Duplicates, drops, extras, reordering all at once.
        for (s, t) in [(5u64, 0u64), (5, 100), (6, 200), (7, 300)] {
            a.push_tagged(0, 0, s, t);
        }
        for (s, t) in [(6u64, 0u64), (5, 100), (9, 150), (5, 200)] {
            b.push_tagged(0, 0, s, t);
        }
        assert_kernels_agree(&a, &b);
    }

    /// Kernel by kernel, the arena matching, L and I stages reproduce the
    /// reference value and every per-packet delta bit for bit.
    fn assert_kernels_agree(a: &Trial, b: &Trial) {
        let (ia, ib) = (TrialIndex::build(a).unwrap(), TrialIndex::build(b).unwrap());
        let m = Matching::build(a, b);
        let arena = matching_arena(&ia, &ib, Vec::new());
        assert_eq!((&arena.pairs, arena.a_len, arena.b_len), (&m.pairs, m.a_len, m.b_len));
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        let mut deltas = Vec::new();

        let iat_ref = iat_full_core(a, b, &m);
        let i = iat_arena(&ia, &ib, &m, &mut deltas);
        assert_eq!(i.to_bits(), iat_ref.i.to_bits());
        assert_eq!(bits(&deltas), bits(&iat_ref.deltas_ns));

        let lat_ref = latency_full_core(a, b, &m);
        let l = latency_arena(&ia, &ib, &m, &mut deltas);
        assert_eq!(l.to_bits(), lat_ref.l.to_bits());
        assert_eq!(bits(&deltas), bits(&lat_ref.deltas_ns));
    }

    #[test]
    fn indexed_metrics_bit_identical_to_uncached() {
        let trials = jittered_set(4, 300);
        for a in &trials {
            for b in &trials {
                assert_kernels_agree(a, b);
            }
        }
    }

    /// A random trial: sequence numbers drawn with repeats, timestamps
    /// non-decreasing.
    fn arb_trial(max_len: usize) -> impl Strategy<Value = Trial> {
        proptest::collection::vec((0u64..64, 0u64..5_000), 0..max_len).prop_map(|obs| {
            let mut t = Trial::new();
            let mut now = 0u64;
            for (s, g) in obs {
                now += g;
                t.push_tagged(0, 0, s, now);
            }
            t
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arena_kernels_equal_reference_delta_for_delta(a in arb_trial(40), b in arb_trial(40)) {
            assert_kernels_agree(&a, &b);
        }
    }

    #[test]
    fn arena_groups_and_extents_are_consistent() {
        let mut a = Trial::new();
        for s in [3u64, 1, 3, 2, 3, 1] {
            a.push_tagged(0, 0, s, 0);
        }
        let ia = TrialIndex::build(&a).unwrap();
        assert_eq!(ia.len(), 6);
        assert_eq!(ia.groups(), 3);
        let starts = ia.group_start();
        assert_eq!(starts.first(), Some(&0));
        assert_eq!(*starts.last().unwrap() as usize, ia.len());
        // Every position appears exactly once across the group extents,
        // each group's occurrences in arrival order with matching ranks.
        let mut seen = vec![false; ia.len()];
        for g in 0..ia.groups() {
            let (s, e) = (starts[g] as usize, starts[g + 1] as usize);
            let ext = &ia.positions()[s..e];
            assert!(ext.windows(2).all(|w| w[0] < w[1]));
            for (k, &p) in ext.iter().enumerate() {
                assert!(!std::mem::replace(&mut seen[p as usize], true));
                assert_eq!(ia.occ()[p as usize] as usize, k);
                assert_eq!(ia.find(a.id(p as usize)), Some(g as u32));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn index_error_names_the_trial() {
        let e = IndexError::TrialTooLarge { trial: 7, len: 5_000_000_000 };
        let msg = e.to_string();
        assert!(msg.contains("trial 7"), "{msg}");
        assert!(msg.contains("5000000000"), "{msg}");
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(boxed.downcast_ref::<IndexError>().is_some());
    }

    #[test]
    fn sharded_matrix_bit_identical_to_serial_reference() {
        let trials = jittered_set(5, 400);
        let serial = all_pairs_serial(&trials);
        for shards in [1usize, 2, 8] {
            let (sharded, stats) =
                all_pairs_sharded_with(&trials, shards, &KappaConfig::paper()).unwrap();
            assert_eq!(sharded.labels, serial.labels);
            assert_eq!(sharded.cells.len(), serial.cells.len());
            for (x, y) in sharded.cells.iter().zip(&serial.cells) {
                assert_cells_equal(x, y);
            }
            assert!(stats.peak_workers <= shards, "pool exceeded shard bound");
        }
    }

    #[test]
    fn bounded_pool_never_exceeds_shards() {
        let trials = jittered_set(6, 50); // 15 pairs
        for shards in [1usize, 2, 3, 4] {
            let (_, stats) =
                all_pairs_sharded_with(&trials, shards, &KappaConfig::paper()).unwrap();
            assert!(
                stats.peak_workers <= shards,
                "shards {shards}: peak {}",
                stats.peak_workers
            );
            assert_eq!(stats.shards_used, shards.min(15));
        }
    }

    #[test]
    fn matrix_indexing_and_summary() {
        let trials = jittered_set(4, 200);
        let m = all_pairs_sharded(&trials, 2).unwrap();
        assert_eq!(m.trials(), 4);
        assert_eq!(m.pairs(), 6);
        assert_eq!(m.labels, ["A", "B", "C", "D"]);
        // Symmetric accessor, implicit diagonal.
        assert_eq!(m.kappa(0, 0), 1.0);
        assert_eq!(m.kappa(1, 3).to_bits(), m.kappa(3, 1).to_bits());
        assert!(m.get(2, 2).is_none());
        // Every off-diagonal cell is reachable and labelled i-j.
        assert_eq!(m.get(0, 1).unwrap().label, "A-B");
        assert_eq!(m.get(2, 3).unwrap().label, "C-D");
        let s = m.summary().unwrap();
        assert_eq!((s.trials, s.pairs), (4, 6));
        assert!(s.kappa_min <= s.kappa_median && s.kappa_median <= s.kappa_max);
        let all: Vec<f64> = m.cells.iter().map(|c| c.metrics.kappa).collect();
        assert_eq!(s.kappa_min, all.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(s.kappa_max, all.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn baseline_row_matches_legacy_analysis() {
        let trials = jittered_set(4, 300);
        let m = all_pairs_sharded(&trials, 3).unwrap();
        let row = m.baseline_row();
        assert_eq!(row.len(), 3);
        for (j, c) in row.iter().enumerate() {
            let legacy = analyze(c.label.clone(), &trials[0], &trials[j + 1]);
            assert_cells_equal(c, &legacy);
        }
        assert_eq!(row[0].label, "B");
        assert_eq!(row[2].label, "D");
    }

    #[test]
    fn degenerate_matrices() {
        // Zero or one trial: no pairs, no summary, no panic.
        let none = all_pairs_sharded(&[], 4).unwrap();
        assert_eq!(none.pairs(), 0);
        assert!(none.summary().is_none());
        let one = all_pairs_sharded(&[Trial::new()], 4).unwrap();
        assert_eq!(one.pairs(), 0);
        assert!(one.summary().is_none());
        // Empty trials still compare (κ = 1: two empty captures agree).
        let two = all_pairs_sharded(&[Trial::new(), Trial::new()], 4).unwrap();
        assert_eq!(two.pairs(), 1);
        assert_eq!(two.kappa(0, 1), 1.0);
    }

    #[test]
    fn stage_timings_populated_and_summable() {
        let trials = jittered_set(3, 2_000);
        let m = all_pairs_sharded(&trials, 2).unwrap();
        let t = m.total_timings();
        // Wall-clock is noisy, but the match stage walks 2000 packets per
        // pair — it cannot be literally zero across all three pairs.
        assert!(t.match_ns > 0, "{t:?}");
        assert_eq!(
            t.total_ns(),
            t.match_ns + t.order_ns + t.latency_ns + t.iat_ns + t.histogram_ns
        );
    }

    #[test]
    fn matrix_serializes() {
        let trials = jittered_set(3, 50);
        let m = all_pairs_sharded(&trials, 2).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: KappaMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back.labels, m.labels);
        assert_eq!(back.pairs(), m.pairs());
        assert_eq!(
            back.kappa(0, 2).to_bits(),
            m.kappa(0, 2).to_bits()
        );
    }
}
