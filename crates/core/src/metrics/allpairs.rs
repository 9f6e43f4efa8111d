//! The sharded all-pairs consistency engine.
//!
//! The paper reports κ per environment by comparing every run against
//! baseline A (Tables 1–2), but its §7 run lists show κ varying 0.65–0.82
//! *within one test* — understanding that spread needs the full N×N
//! upper-triangular κ matrix, not just the baseline column. Rebuilt
//! naively that is `N(N−1)/2` independent reference analyses
//! ([`PairAnalyzer::new`]), each of which re-hashes both trials and re-derives their gap/span statistics
//! from scratch.
//!
//! This module scales that computation three ways:
//!
//! - **[`TrialIndex`]** — built **once per trial** and shared immutably
//!   across every pair that trial participates in. A trial whose
//!   identities strictly increase needs nothing beyond itself: it is
//!   searched in place. Any other trial gets one contiguous `u32` arena
//!   holding the occurrence positions (grouped by identity), per-position
//!   occurrence ranks, group extents, and an open-addressed identity
//!   table. Identities and timestamps are read from the borrowed trial
//!   itself, so the index copies nothing of it. No `HashMap`, no
//!   per-identity `Vec`s, no pointer chasing on the pair hot path (see
//!   DESIGN.md §15 for the layout).
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

use std::borrow::Borrow;
use std::cmp::Ordering as CmpOrdering;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::obs;
use choir_packet::ident::PacketId;

use super::kappa::KappaConfig;
use super::pair::{PairAnalyzer, PairScratch};
use super::report::{trial_label, StageTimings, TrialComparison};
use super::stats;
use super::trial::{Observation, Trial, MAX_TRIAL_LEN};

/// Sentinel for an unoccupied identity-table slot. Safe because a group
/// id is below the group count, and `groups ≤ n ≤ MAX_TRIAL_LEN =
/// u32::MAX` means a real group id never equals `u32::MAX` (that trial
/// would have failed [`TrialIndex::build`] with
/// [`IndexError::TrialTooLarge`]).
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
                "trial {trial} holds {len} packets, beyond the u32 index limit ({MAX_TRIAL_LEN})"
            ),
        }
    }
}

impl std::error::Error for IndexError {}

/// Per-trial precomputation cache: what a pairwise comparison needs from
/// one side that the borrowed trial cannot answer in O(1).
///
/// Built once per trial in O(n), then shared immutably (`&TrialIndex`)
/// across all N−1 pairs the trial participates in, instead of being
/// rebuilt inside every `Matching::build` / `iat` / `latency` call.
///
/// # Layout
///
/// The trial picks one of two representations: `build` scans its
/// identities once for whether they strictly increase.
///
/// - **Identities strictly increase** (a replay that kept its order, a
///   single-replayer capture): no heap at all. Every identity is its own
///   group of one position, every occurrence rank is 0, and
///   `TrialIndex::occurrence` is a galloping search of the trial's own
///   observations outward from the caller's hint.
/// - **Anything else**: one `u32` arena packing four regions back to back:
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
/// - `table` — an open-addressed (linear-probe, power-of-two, load
///   < 0.75) map from identity hash to group id.
///
/// Everything else is read off the borrowed trial: a probe confirms an
/// identity against the trial's observation at its group's first
/// position, and the latency and IAT kernels read `Observation::t_ps` at
/// its 24-byte stride, the gaps through [`Trial::gap_ps`]. With distinct
/// identities the arena is 12 B per packet plus 4 B per table slot, and
/// from two packets up there are between 4/3 and 8/3 slots per packet.
#[derive(Debug)]
pub struct TrialIndex<'t> {
    trial: &'t Trial,
    /// The hashed arena; `None` when the trial's identities strictly
    /// increase.
    table: Option<IdentityTable>,
    /// Min/max timestamp span (the IAT/latency denominators).
    minmax_span_ps: u64,
    /// Largest raw timestamp — gates the latency kernel's i64 fast path.
    max_time_ps: u64,
}

/// The arena of a trial whose identities do not strictly increase (see
/// [`TrialIndex`]'s layout block).
#[derive(Debug)]
struct IdentityTable {
    arena: Box<[u32]>,
    groups: usize,
    mask: usize,
}

/// Identity-table slots for `n` packets: the smallest power of two that
/// keeps the load below 0.75 (and at least 4).
fn table_cap(n: usize) -> usize {
    (n + n / 3 + 1).max(4).next_power_of_two()
}

/// Keyed mix of both identity halves: a folded 64 × 64 → 128-bit multiply
/// (the product's high and low words xored), so identities that agree on
/// `hi ^ lo` — every `hi == lo`, or two replayers' tags whose sequence
/// numbers differ in bit 16 — still get unrelated home slots. The key is
/// drawn once per process from the standard library's randomly seeded
/// hasher, so input cannot be chosen to share one probe chain. No result
/// depends on it: group ids follow first arrival, not the table.
#[inline]
pub(super) fn hash_id(id: PacketId) -> u64 {
    static KEY: OnceLock<[u64; 2]> = OnceLock::new();
    let [k0, k1] = *KEY.get_or_init(|| {
        let s = RandomState::new();
        [s.hash_one(0u64), s.hash_one(1u64)]
    });
    let v = id.as_u128();
    let p = ((v >> 64) as u64 ^ k0) as u128 * ((v as u64 ^ k1) as u128);
    (p as u64) ^ ((p >> 64) as u64)
}

/// [`hash_id`] behind the standard `Hasher` interface, for the streaming
/// engine's identity map: a `PacketId` hashes as its `u128` value, one
/// `write_u128`, so the map's hash is `hash_id`'s with no second mix.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.0 = hash_id(PacketId::from_u128(v));
    }

    /// Unreached: an identity map's key is a `PacketId`, which hashes as
    /// one `write_u128`.
    fn write(&mut self, _: &[u8]) {
        unreachable!("IdHasher hashes PacketId keys only")
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Linear probe for `id` from its home slot: `Ok(group)` at the occupied
/// slot whose group `same` confirms, `Err(slot)` at the first empty one.
#[inline]
fn probe(
    table: &[u32],
    mask: usize,
    id: PacketId,
    same: impl Fn(u32) -> bool,
) -> Result<u32, usize> {
    let mut slot = hash_id(id) as usize & mask;
    loop {
        match table[slot] {
            EMPTY_SLOT => return Err(slot),
            g if same(g) => return Ok(g),
            _ => slot = (slot + 1) & mask,
        }
    }
}

/// How far [`gallop`] steps out from its hint, in positions, before it
/// searches the whole trial instead.
const GALLOP_REACH: usize = 64;

/// Position of `id` among `obs`, whose identities (`key` of each)
/// strictly increase, or `Err` with where it would go: steps of 1, 2, 4,
/// … outward from `hint` bracket it, and a binary search inside the
/// bracket settles it. A target `d`
/// positions from the hint costs O(log d) compares: O(1) for the next
/// packet of a replay that kept its order or for the previous one of a
/// reversed replay. Past [`GALLOP_REACH`] the bracket becomes the whole
/// slice, so a packet from anywhere costs one binary search of it, whose
/// first probes are the same for every search and stay in cache. The
/// streaming engine searches its increasing pending runs with it too.
pub(super) fn gallop<T>(
    obs: &[T],
    key: impl Fn(&T) -> PacketId,
    id: PacketId,
    hint: usize,
) -> Result<usize, usize> {
    let Some(last) = obs.len().checked_sub(1) else {
        return Err(0);
    };
    let h = hint.min(last);
    let (lo, hi) = match key(&obs[h]).cmp(&id) {
        CmpOrdering::Equal => return Ok(h),
        // Right of `h`; everything below `lo` is smaller than `id`.
        CmpOrdering::Less => {
            let (mut lo, mut step) = (h + 1, 1);
            loop {
                let at = h + step;
                if at >= obs.len() {
                    break (lo, obs.len());
                }
                if key(&obs[at]) >= id {
                    break (lo, at + 1);
                }
                if step == GALLOP_REACH {
                    break (0, obs.len());
                }
                lo = at + 1;
                step *= 2;
            }
        }
        // Left of `h`; everything from `hi` up is larger than `id`.
        CmpOrdering::Greater => {
            let (mut hi, mut step) = (h, 1);
            loop {
                if step > h {
                    break (0, hi);
                }
                let at = h - step;
                if key(&obs[at]) <= id {
                    break (at, hi);
                }
                if step == GALLOP_REACH {
                    break (0, obs.len());
                }
                hi = at;
                step *= 2;
            }
        }
    };
    match obs[lo..hi].binary_search_by(|o| key(o).cmp(&id)) {
        Ok(i) => Ok(lo + i),
        Err(i) => Err(lo + i),
    }
}

impl IdentityTable {
    /// Build the arena: three passes (probe and assign, prefix sums,
    /// scatter).
    fn build(obs: &[Observation]) -> Self {
        let n = obs.len();
        let cap = table_cap(n);
        let mask = cap - 1;
        let mut arena = vec![0u32; 3 * n + 1 + cap].into_boxed_slice();
        let (head, table) = arena.split_at_mut(3 * n + 1);
        table.fill(EMPTY_SLOT);
        let (positions, rest) = head.split_at_mut(n);
        let (occ, group_start) = rest.split_at_mut(n);

        // Pass 1: assign group ids through the open-addressed table,
        // record each position's occurrence rank and group. Until pass 2
        // overwrites them, `group_start`'s slots hold each group's first
        // position: the observation a probe compares identities against.
        let mut counts: Vec<u32> = Vec::with_capacity(n);
        let mut group_of: Vec<u32> = Vec::with_capacity(n);
        for (i, o) in obs.iter().enumerate() {
            let same = |g: u32| obs[group_start[g as usize] as usize].id == o.id;
            let g = match probe(table, mask, o.id, same) {
                Ok(g) => g,
                Err(slot) => {
                    let g = counts.len() as u32;
                    table[slot] = g;
                    group_start[g as usize] = i as u32;
                    counts.push(0);
                    g
                }
            };
            occ[i] = counts[g as usize];
            counts[g as usize] += 1;
            group_of.push(g);
        }
        let groups = counts.len();

        // Pass 2: prefix-sum the group counts into group_start, reusing
        // `counts` as the scatter cursors.
        let mut acc = 0u32;
        for (g, c) in counts.iter_mut().enumerate() {
            group_start[g] = acc;
            let start = acc;
            acc += *c;
            *c = start;
        }
        group_start[groups] = acc;

        // Pass 3: scatter positions into their group extents.
        for (i, &g) in group_of.iter().enumerate() {
            let cur = counts[g as usize];
            positions[cur as usize] = i as u32;
            counts[g as usize] = cur + 1;
        }

        IdentityTable {
            arena,
            groups,
            mask,
        }
    }

    /// Observation indices grouped by identity (see the layout doc).
    #[inline]
    fn positions(&self, n: usize) -> &[u32] {
        &self.arena[..n]
    }

    /// Occurrence rank of each position within its identity.
    #[inline]
    fn occ(&self, n: usize) -> &[u32] {
        &self.arena[n..2 * n]
    }

    /// Prefix offsets into `positions`, one per group plus the
    /// terminating total.
    #[inline]
    fn group_start(&self, n: usize) -> &[u32] {
        &self.arena[2 * n..2 * n + self.groups + 1]
    }

    /// The open-addressed identity table: a group id per occupied slot.
    #[inline]
    fn slots(&self, n: usize) -> &[u32] {
        &self.arena[3 * n + 1..]
    }

    /// Group id of `id`, or `None` when the trial never saw it.
    #[inline]
    fn find(&self, obs: &[Observation], id: PacketId) -> Option<u32> {
        let n = obs.len();
        let (positions, starts) = (self.positions(n), self.group_start(n));
        let same = |g: u32| obs[positions[starts[g as usize] as usize] as usize].id == id;
        probe(self.slots(n), self.mask, id, same).ok()
    }
}

impl<'t> TrialIndex<'t> {
    /// Index a trial. O(n) time; at most one allocation (none when the
    /// trial's identities strictly increase).
    pub fn build(trial: &'t Trial) -> Result<Self, IndexError> {
        Self::build_at(trial, 0)
    }

    /// [`TrialIndex::build`] carrying the trial's position in its run set
    /// so [`IndexError`] can name the offending trial.
    pub(crate) fn build_at(trial: &'t Trial, at: usize) -> Result<Self, IndexError> {
        let n = trial.len();
        if n > MAX_TRIAL_LEN {
            return Err(IndexError::TrialTooLarge { trial: at, len: n });
        }
        let obs = trial.observations();
        let (lo, hi) = trial.stamp_bounds_ps().unwrap_or((0, 0));
        let increasing = obs.windows(2).all(|w| w[0].id < w[1].id);
        obs::counter_add(
            if increasing {
                "allpairs.index.increasing"
            } else {
                "allpairs.index.hashed"
            },
            1,
        );
        Ok(TrialIndex {
            trial,
            table: (!increasing).then(|| IdentityTable::build(obs)),
            minmax_span_ps: hi - lo,
            max_time_ps: hi,
        })
    }

    /// Number of packets in the indexed trial.
    pub fn len(&self) -> usize {
        self.trial.len()
    }

    /// True when the indexed trial holds no packets.
    pub fn is_empty(&self) -> bool {
        self.trial.is_empty()
    }

    /// The indexed trial.
    pub fn trial(&self) -> &'t Trial {
        self.trial
    }

    /// Number of distinct identities.
    pub fn groups(&self) -> usize {
        self.table.as_ref().map_or(self.len(), |t| t.groups)
    }

    /// Occurrence rank of observation `j` among the trial's observations
    /// of its identity: 0 for the first, 1 for the second, and so on.
    #[inline]
    pub(crate) fn occ(&self, j: usize) -> u32 {
        self.table.as_ref().map_or(0, |t| t.occ(self.len())[j])
    }

    /// Position of the `k`-th occurrence of `id`, or `None` when the trial
    /// holds fewer than `k + 1` of them. `hint` is where the caller
    /// expects it; only a trial without an arena searches from there.
    #[inline]
    pub(crate) fn occurrence(&self, id: PacketId, k: u32, hint: usize) -> Option<usize> {
        let obs = self.trial.observations();
        let Some(t) = &self.table else {
            return if k == 0 {
                gallop(obs, |o| o.id, id, hint).ok()
            } else {
                None
            };
        };
        let g = t.find(obs, id)? as usize;
        let starts = t.group_start(obs.len());
        let (s, e) = (starts[g] as usize, starts[g + 1] as usize);
        let k = k as usize;
        (k < e - s).then(|| t.positions(obs.len())[s + k] as usize)
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
        assert!(
            i < self.labels.len() && j < self.labels.len(),
            "index out of range"
        );
        if i == j {
            1.0
        } else {
            self.get(i, j)
                .expect("in-range off-diagonal cell")
                .metrics
                .kappa
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

/// Serial reference: the full matrix through the uncached reference
/// pipeline ([`PairAnalyzer::new`]), one pair at a time. This is the
/// ground truth the sharded engine must reproduce bit-for-bit.
pub fn all_pairs_serial(trials: &[Trial]) -> KappaMatrix {
    let labels: Vec<String> = (0..trials.len()).map(trial_label).collect();
    let mut cells = Vec::with_capacity(pair_count(trials.len()));
    for i in 0..trials.len() {
        for j in i + 1..trials.len() {
            let label = format!("{}-{}", labels[i], labels[j]);
            cells.push(
                PairAnalyzer::new(&trials[i], &trials[j])
                    .label(label)
                    .analyze(),
            );
        }
    }
    KappaMatrix { labels, cells }
}

/// Sharded all-pairs analysis, without the engine statistics.
pub fn all_pairs_sharded<T: Borrow<Trial>>(
    trials: &[T],
    shards: usize,
) -> Result<KappaMatrix, IndexError> {
    Ok(all_pairs_sharded_with(trials, shards, &KappaConfig::paper())?.0)
}

/// Sharded all-pairs analysis: build every [`TrialIndex`] once, then let a
/// bounded pool of at most `shards` workers steal pairs, in row-major
/// `(i, j), i < j` order, from a shared cursor. Each cell's arithmetic is
/// independent and cells land at their row-major offsets, so the output
/// is bit-identical to [`all_pairs_serial`] for any `shards ≥ 1`. The
/// trials are borrowed where they lie: owned (`&[Trial]`) or each behind
/// its own reference (`&[&Trial]`, a store's resident trials).
///
/// The third argument selects nothing ([`KappaConfig`] has one value); it
/// is kept because the frozen benchmark harness passes it, and it leaves
/// with ROADMAP item 1(c).
pub fn all_pairs_sharded_with<T: Borrow<Trial>>(
    trials: &[T],
    shards: usize,
    _kappa: &KappaConfig,
) -> Result<(KappaMatrix, EngineStats), IndexError> {
    // One body for every `T`, compiled once, in this crate.
    let trials: Vec<&Trial> = trials.iter().map(Borrow::borrow).collect();
    sharded(&trials, shards)
}

fn sharded(trials: &[&Trial], shards: usize) -> Result<(KappaMatrix, EngineStats), IndexError> {
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
    use choir_packet::ChoirTag;
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
        assert_eq!(
            (&arena.pairs, arena.a_len, arena.b_len),
            (&m.pairs, m.a_len, m.b_len)
        );
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

    /// How the B side of [`arb_increasing_pair`] rearranges what it kept.
    #[derive(Debug, Clone, Copy)]
    enum Rearrange {
        Kept,
        BlockSwap(usize),
        Reversed,
    }

    /// A trial whose identities strictly increase (A), and a B derived
    /// from it packet by packet: kept, dropped, duplicated, or followed
    /// by an identity A never saw — between two of A's or past all of
    /// them — then kept in order, block-swapped or reversed. A's
    /// sequence numbers are even and start at 2, so every odd one and 0
    /// fall between, or before, identities A holds.
    fn arb_increasing_pair(max_len: usize) -> impl Strategy<Value = (Trial, Trial)> {
        (
            proptest::collection::vec((1u64..3, 0u8..10), 0..max_len),
            prop_oneof![
                Just(Rearrange::Kept),
                (1usize..6).prop_map(Rearrange::BlockSwap),
                Just(Rearrange::Reversed),
            ],
        )
            .prop_map(|(steps, rearrange)| {
                let mut seqs = Vec::with_capacity(steps.len());
                let mut b_seqs = Vec::new();
                let mut seq = 0u64;
                for (i, &(step, fate)) in steps.iter().enumerate() {
                    seq += 2 * step;
                    seqs.push(seq);
                    match fate {
                        0 => {}
                        1 => b_seqs.extend([seq, seq]),
                        2 => b_seqs.extend([seq, seq + 1]),
                        3 => b_seqs.extend([seq, 1_000_000 + i as u64]),
                        4 => b_seqs.extend([0, seq]),
                        _ => b_seqs.push(seq),
                    }
                }
                match rearrange {
                    Rearrange::Kept => {}
                    Rearrange::BlockSwap(k) => {
                        for pair in b_seqs.chunks_exact_mut(2 * k).step_by(2) {
                            pair.rotate_left(k);
                        }
                    }
                    Rearrange::Reversed => b_seqs.reverse(),
                }
                let trial = |seqs: &[u64], jitter: u64| {
                    let mut t = Trial::new();
                    for (i, &s) in seqs.iter().enumerate() {
                        t.push_tagged(0, 0, s, i as u64 * 300 + (s * jitter) % 97);
                    }
                    t
                };
                (trial(&seqs, 7), trial(&b_seqs, 13))
            })
    }

    /// The production pipeline's whole report equals the reference's.
    fn assert_reports_agree(a: &Trial, b: &Trial) {
        let (ia, ib) = (TrialIndex::build(a).unwrap(), TrialIndex::build(b).unwrap());
        let production = PairAnalyzer::from_indexes(&ia, &ib).analyze();
        assert_eq!(production.bits(), PairAnalyzer::new(a, b).analyze().bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arena_kernels_equal_reference_delta_for_delta(a in arb_trial(40), b in arb_trial(40)) {
            assert_kernels_agree(&a, &b);
        }

        #[test]
        fn increasing_side_agrees_with_reference_either_way_round(
            (a, b) in arb_increasing_pair(64),
        ) {
            prop_assert!(TrialIndex::build(&a).unwrap().table.is_none());
            assert_kernels_agree(&a, &b);
            assert_reports_agree(&a, &b);
            // The mirror: B (hashed unless it kept every packet once and
            // in order) as the baseline, the increasing trial as the run.
            assert_kernels_agree(&b, &a);
            assert_reports_agree(&b, &a);
        }
    }

    /// The arena of an index built with one; panics on a trial whose
    /// identities strictly increase.
    fn arena<'a>(ix: &'a TrialIndex<'_>) -> &'a IdentityTable {
        ix.table
            .as_ref()
            .expect("a trial whose identities do not increase")
    }

    /// `t` with the identities of each adjacent pair of packets traded and
    /// the time slots kept: the same identities, in an order that does
    /// not increase.
    fn pairs_swapped(t: &Trial) -> Trial {
        let mut obs = t.observations().to_vec();
        for pair in obs.chunks_exact_mut(2) {
            let (x, y) = (pair[0].id, pair[1].id);
            (pair[0].id, pair[1].id) = (y, x);
        }
        Trial::from_observations(&obs)
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
        let (t, n, obs) = (arena(&ia), ia.len(), a.observations());
        let starts = t.group_start(n);
        assert_eq!(starts.first(), Some(&0));
        assert_eq!(*starts.last().unwrap() as usize, ia.len());
        // Every position appears exactly once across the group extents,
        // each group's occurrences in arrival order with matching ranks.
        let mut seen = vec![false; ia.len()];
        for g in 0..ia.groups() {
            let (s, e) = (starts[g] as usize, starts[g + 1] as usize);
            let ext = &t.positions(n)[s..e];
            assert!(ext.windows(2).all(|w| w[0] < w[1]));
            for (k, &p) in ext.iter().enumerate() {
                assert!(!std::mem::replace(&mut seen[p as usize], true));
                assert_eq!(ia.occ(p as usize) as usize, k);
                assert_eq!(t.find(obs, a.id(p as usize)), Some(g as u32));
                assert_eq!(
                    ia.occurrence(a.id(p as usize), k as u32, 0),
                    Some(p as usize)
                );
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn increasing_identities_are_searched_in_place() {
        // Every other sequence number, so each gap between two of A's
        // identities holds one that A never saw.
        let a = cbr_trial(200, 1000, |_| 0);
        let a: Trial = a
            .observations()
            .iter()
            .step_by(2)
            .map(|o| (o.id, o.t_ps))
            .collect();
        let ia = TrialIndex::build(&a).unwrap();
        assert!(ia.table.is_none());
        assert_eq!(ia.groups(), 100);
        let seq = |s: u64| PacketId::from_tag(&ChoirTag::new(0, 0, s));
        for hint in [0, 1, 37, 99, 100, 5_000] {
            for (i, o) in a.observations().iter().enumerate() {
                assert_eq!(ia.occ(i), 0);
                assert_eq!(ia.occurrence(o.id, 0, hint), Some(i), "hint {hint}");
                assert_eq!(ia.occurrence(o.id, 1, hint), None);
            }
            for s in (1..200).step_by(2).chain([200, 1_000_000]) {
                assert_eq!(ia.occurrence(seq(s), 0, hint), None, "seq {s}, hint {hint}");
            }
            assert_eq!(ia.occurrence(PacketId::from_u128(0), 0, hint), None);
        }
        let empty = Trial::new();
        let ie = TrialIndex::build(&empty).unwrap();
        assert!(ie.table.is_none());
        assert_eq!(ie.occurrence(seq(0), 0, 0), None);
    }

    /// Heap bytes a built index holds: the arena, its only heap buffer,
    /// when it has one.
    fn heap_bytes(ix: &TrialIndex<'_>) -> usize {
        ix.table
            .as_ref()
            .map_or(0, |t| std::mem::size_of_val(&*t.arena))
    }

    #[test]
    fn index_heap_is_the_arena_alone_at_most_20_bytes_per_packet() {
        // The trial reference, the arena with its group count and table
        // mask (`None` in the arena pointer's niche), and the two stamps:
        // a sidecar put back would show here.
        assert_eq!(std::mem::size_of::<TrialIndex<'_>>(), 8 + 16 + 4 * 8);
        // 1 053 370 is the paper-scale trial length; 2^20 + 1 is the
        // shortest trial given the same 2^21-slot table, so the most
        // slots per packet at that table size.
        for n in [1_053_370u64, (1 << 20) + 1] {
            let increasing = cbr_trial(n, 1000, |_| 0);
            assert_eq!(heap_bytes(&TrialIndex::build(&increasing).unwrap()), 0);
            // One swapped adjacent pair brings the arena back.
            let mut obs = increasing.observations().to_vec();
            let m = n as usize / 2;
            let (x, y) = (obs[m].id, obs[m + 1].id);
            (obs[m].id, obs[m + 1].id) = (y, x);
            let one_swap = Trial::from_observations(&obs);
            assert!(heap_bytes(&TrialIndex::build(&one_swap).unwrap()) > 0);

            let t = pairs_swapped(&increasing);
            let ix = TrialIndex::build(&t).unwrap();
            assert_eq!(ix.groups(), n as usize);
            let per_packet = heap_bytes(&ix) as f64 / n as f64;
            assert!(per_packet <= 20.0, "n = {n}: {per_packet:.2} B/packet");
        }
    }

    /// Probe steps past the home slot, summed over every identity: what
    /// finding each of them once costs beyond its first slot.
    fn probe_displacement(ix: &TrialIndex<'_>) -> usize {
        let (t, n, obs) = (arena(ix), ix.len(), ix.trial().observations());
        let (positions, starts) = (t.positions(n), t.group_start(n));
        t.slots(n)
            .iter()
            .enumerate()
            .filter(|&(_, &g)| g != EMPTY_SLOT)
            .map(|(slot, &g)| {
                let id = obs[positions[starts[g as usize] as usize] as usize].id;
                slot.wrapping_sub(hash_id(id) as usize) & t.mask
            })
            .sum()
    }

    #[test]
    fn structured_identities_probe_in_linear_total() {
        let n = 1u64 << 16;
        // `hi == lo` for every identity: one home slot for all of them
        // when the hash folds the halves before it mixes. Adjacent pairs
        // swapped, so the trial is hashed rather than searched in place.
        let same_halves: Trial = (0..n)
            .map(|k| (PacketId::from_u128((k as u128) << 64 | k as u128), k * 1000))
            .collect();
        let same_halves = pairs_swapped(&same_halves);
        // Two replayers: replayer 0's seq k and replayer 1's seq
        // k ^ 0x1_0000 agree on `hi ^ lo`.
        let mut dual = Trial::new();
        for k in 0..n / 2 {
            dual.push_tagged(0, 0, k, 2 * k * 1000);
            dual.push_tagged(1, 0, k ^ 0x1_0000, (2 * k + 1) * 1000);
        }
        for t in [&same_halves, &dual] {
            let ix = TrialIndex::build(t).unwrap();
            assert_eq!(ix.groups(), n as usize);
            let d = probe_displacement(&ix);
            assert!(d <= 4 * n as usize, "{d} probe steps for {n} identities");
        }
    }

    #[test]
    fn probes_resolve_at_the_largest_table_load() {
        // The largest n whose table is 2^21 slots: load 0.7499995, the
        // highest `table_cap` ever allows.
        let n = 3 * (1u64 << 19) - 1;
        assert_eq!(table_cap(n as usize), 1 << 21);
        assert_eq!(table_cap(n as usize + 1), 1 << 22);
        let t = pairs_swapped(&cbr_trial(n, 1000, |_| 0));
        let ix = TrialIndex::build(&t).unwrap();
        let (table, obs) = (arena(&ix), t.observations());
        for (i, o) in obs.iter().enumerate() {
            assert_eq!(table.find(obs, o.id), Some(i as u32));
        }
        for s in n..n + 100_000 {
            assert_eq!(
                table.find(obs, PacketId::from_tag(&ChoirTag::new(0, 0, s))),
                None
            );
        }
    }

    #[test]
    fn duplicate_heavy_trial_at_full_load_agrees_with_reference() {
        // 383 packets fill 512 slots to the largest load table_cap
        // allows: one side all distinct and reordered, the other 13
        // identities, each about 30 times.
        let n = 383u64;
        assert_eq!(table_cap(n as usize), 512);
        let mut a = Trial::new();
        let mut b = Trial::new();
        for i in 0..n {
            a.push_tagged(0, 0, (i * 7) % n, i * 1000);
            b.push_tagged(0, 0, (i * 5) % 13, i * 1003 + (i % 5) * 11);
        }
        assert_kernels_agree(&a, &b);
        assert_kernels_agree(&b, &a);
    }

    #[test]
    fn index_error_names_the_trial() {
        let e = IndexError::TrialTooLarge {
            trial: 7,
            len: 5_000_000_000,
        };
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
                assert_eq!((&x.label, x.bits()), (&y.label, y.bits()));
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
        assert_eq!(
            s.kappa_min,
            all.iter().copied().fold(f64::INFINITY, f64::min)
        );
        assert_eq!(
            s.kappa_max,
            all.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        );
    }

    #[test]
    fn baseline_row_matches_legacy_analysis() {
        let trials = jittered_set(4, 300);
        let m = all_pairs_sharded(&trials, 3).unwrap();
        let row = m.baseline_row();
        assert_eq!(row.len(), 3);
        for (j, c) in row.iter().enumerate() {
            let reference = PairAnalyzer::new(&trials[0], &trials[j + 1])
                .label(c.label.clone())
                .analyze();
            assert_eq!((&c.label, c.bits()), (&reference.label, reference.bits()));
        }
        assert_eq!(row[0].label, "B");
        assert_eq!(row[2].label, "D");
    }

    #[test]
    fn degenerate_matrices() {
        // Zero or one trial: no pairs, no summary, no panic.
        let none = all_pairs_sharded::<Trial>(&[], 4).unwrap();
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
        assert_eq!(back.kappa(0, 2).to_bits(), m.kappa(0, 2).to_bits());
    }
}
