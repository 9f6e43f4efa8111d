//! The streaming incremental-κ engine.
//!
//! The paper computes κ post-hoc over complete capture pairs; this module
//! scores consistency *while packets arrive*. [`IncrementalComparison`]
//! consumes observations (or bursts) from two trials as they stream in,
//! maintains an online occurrence-wise matching plus the exact L and I
//! numerators, and emits periodic [`KappaSnapshot`]s of the running κ.
//! `finalize` returns the same [`TrialComparison`] type as the batch
//! analyzers.
//!
//! ## Exactness contract
//!
//! The finalized comparison is **bit-identical** to the batch pipeline
//! ([`super::pair::PairAnalyzer`], either source) on the same
//! observations, for any interleaving and any chunking of the
//! two input streams. This works without buffering the raw trials:
//!
//! - U, drop/extra counts: totals and the matched count are
//!   order-independent.
//! - L and I numerators: integer deltas are computed at match time and
//!   accumulated into `u128` sums — exact and commutative, so the match
//!   order (which differs from B's arrival order whenever A lags) is
//!   irrelevant.
//! - The denominators need only per-side first-arrival offsets and
//!   min/max spans, tracked incrementally.
//! - Everything else is derived at finalize from the matched pairs, each
//!   stored with its exact integer deltas: sorted into B arrival order —
//!   the identical permutation the batch path sees — they go through the
//!   production LIS kernel (`ordering_arena`) for O and the edit script,
//!   and through the arena pipeline's own report stage for the
//!   histograms, the ±10 ns share and the percentiles.
//!
//! So the engine keeps only what a stream alone can know: per-side
//! cursors, the pending occurrences of each unmatched identity (all on
//! the one side it is waiting on: the oldest in that side's run while
//! its identities arrive increasing, else in a map, and a duplicate's
//! later ones out of line), the matched pairs, the two `u128` sums and
//! the snapshot trail. An unmatched observation stays resident until its
//! counterpart arrives or the stream ends; nothing is evicted. Residency
//! therefore follows the skew between the two feeds plus the packets one
//! side lost, not the stream length (measured at paper scale in
//! DESIGN.md §12.3).
//!
//! ## Cursor / rebuild, checkpoint / resume
//!
//! Everything but the trail, `peak_resident` and the snapshot cadence's
//! last tick is a pure function of the two prefixes consumed: the k-th
//! occurrence of an identity on one side meets the k-th on the other
//! whatever the interleaving, and the sums are exact integers. So an
//! engine whose records are kept elsewhere (the κ daemon's stream logs)
//! needs only a [`StreamCursor`] — records consumed per side, the side
//! statistics and sums to check a re-feed against, the order-dependent
//! scalars and the trail — and [`IncrementalComparison::rebuild`] turns
//! the cursor plus the two prefixes it names back into a live engine.
//!
//! [`IncrementalComparison::checkpoint`] captures the *entire* state in a
//! [`StreamCheckpoint`] instead, pairs and pending queues included,
//! encoded straight into two binary slabs, and
//! [`IncrementalComparison::resume`] decodes them straight back.
//!
//! The hard contract (tested exhaustively, DESIGN.md §13): feeding
//! records `0..k`, checkpointing, reviving, and feeding `k..n` is
//! bit-identical (`f64::to_bits`) to an uninterrupted run — at **every**
//! cut point `k`, through a `serde_json` round trip of the checkpoint and
//! through a rebuild from the engine's cursor — and a resumed engine
//! checkpoints to the same bytes. A rebuilt engine may hold its matched
//! pairs in another order than the live one did (nothing it serves reads
//! that order), so its own checkpoint bytes may differ.

use std::collections::hash_map::{Entry, OccupiedEntry};
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::io::{Read, Write};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::obs;
use choir_packet::ident::PacketId;

use super::allpairs::{gallop, IdHasher};
use super::iat::normalize_i;
use super::kappa::{kappa_from_components, ConsistencyMetrics, KappaConfig};
use super::latency::normalize_l;
use super::matching::{MatchedPair, Matching};
use super::ordering::{normalize_o, ordering_arena, OrderScratch};
use super::pair::{report_stage, PairScratch};
use super::report::TrialComparison;
use super::trial::{Observation, MAX_TRIAL_LEN};
use super::uniqueness::normalize_u;

/// Which of the two streams an observation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Side {
    /// The baseline stream (trial A).
    A,
    /// The run under comparison (trial B).
    B,
}

impl Side {
    fn index(self) -> usize {
        match self {
            Side::A => 0,
            Side::B => 1,
        }
    }
}

/// A cursor refused by [`IncrementalComparison::rebuild`]: the caller
/// paired it with the wrong engine, the wrong configuration or the wrong
/// records. Unchecked, engine 7's cursor fed engine 12's logs would score
/// a garbage κ with full confidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeMismatch {
    /// The checkpoint was taken by a different engine than the caller is
    /// resuming.
    EngineId {
        /// Engine id the caller expected to resume.
        expected: u64,
        /// Engine id recorded in the checkpoint.
        found: u64,
    },
    /// The checkpoint's configuration differs from the one the caller is
    /// resuming under (a hash of the snapshot cadence, see
    /// [`StreamConfig::fingerprint`]).
    Config {
        /// [`StreamConfig::fingerprint`] of the caller's configuration.
        expected: u64,
        /// Fingerprint recorded in (or recomputed from) the checkpoint.
        found: u64,
    },
    /// A prefix handed to the rebuild is not as long as the cursor says
    /// its side was.
    Prefix {
        /// The side whose prefix it is.
        side: Side,
        /// Records the cursor consumed on that side.
        expected: usize,
        /// Records in the prefix.
        found: usize,
    },
    /// The prefixes are as long as the cursor says, but re-feeding them
    /// does not reproduce the side statistics or the sums it recorded:
    /// the records changed under the cursor.
    Diverged {
        /// What differs.
        what: &'static str,
    },
}

impl std::fmt::Display for ResumeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeMismatch::EngineId { expected, found } => write!(
                f,
                "checkpoint belongs to engine {found}, not engine {expected}"
            ),
            ResumeMismatch::Config { expected, found } => write!(
                f,
                "checkpoint was taken under config {found:#018x}, caller expects {expected:#018x}"
            ),
            ResumeMismatch::Prefix {
                side,
                expected,
                found,
            } => write!(
                f,
                "side {side:?} prefix holds {found} records, the cursor consumed {expected}"
            ),
            ResumeMismatch::Diverged { what } => {
                write!(f, "re-fed records do not reproduce the cursor's {what}")
            }
        }
    }
}

impl std::error::Error for ResumeMismatch {}

/// Configuration of one incremental comparison. The default is no
/// automatic snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamConfig {
    /// Not an option: `None` is the only value this field has, and
    /// `Some` does not type-check. It is here because the frozen
    /// benchmark harness spells the config as a literal that names it
    /// (`e2e/src/layers.rs`), and it leaves with ROADMAP item 1(c).
    /// Build configs with `..Default::default()`.
    ///
    /// ```compile_fail
    /// use choir_core::metrics::stream::StreamConfig;
    /// let _ = StreamConfig { lookahead: Some(1), ..Default::default() };
    /// ```
    pub lookahead: Option<std::convert::Infallible>,
    /// Take a [`KappaSnapshot`] automatically every this many pushed
    /// observations (both sides counted). 0 = no snapshots.
    pub snapshot_every: u64,
    /// Not an option either: [`KappaConfig`] has one value, κ is Eq. 5.
    /// Named by the same harness literal as `lookahead`, and leaves with
    /// it.
    pub kappa: KappaConfig,
}

impl StreamConfig {
    /// A 64-bit fingerprint of everything that shapes the measurement —
    /// the snapshot cadence. Recorded in every [`StreamCheckpoint`] and
    /// [`StreamCursor`], and verified by [`IncrementalComparison::rebuild`].
    ///
    /// After the cadence it folds in the paper formula's four unit
    /// weights (by `f64` bit pattern) and four linear-scaling tags, as
    /// every build did while κ had weights and scalings, so state written
    /// then still resumes under the same value.
    pub fn fingerprint(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            // SplitMix64 step over the running hash xor the value.
            let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        const UNIT_WEIGHT: u64 = 0x3ff0_0000_0000_0000; // 1.0f64
        const LINEAR: u64 = 1;
        let mut h = mix(0, self.snapshot_every);
        for v in [UNIT_WEIGHT; 4].into_iter().chain([LINEAR; 4]) {
            h = mix(h, v);
        }
        h
    }
}

/// A periodic progress report: running totals and the running κ over
/// everything seen so far — bit-identical to batch analysis of the two
/// prefixes. (A κ per window of a finished pair is
/// [`super::windowed::windowed_kappa`].)
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KappaSnapshot {
    /// Observations pushed on side A so far.
    pub seen_a: usize,
    /// Observations pushed on side B so far.
    pub seen_b: usize,
    /// Matched pairs so far.
    pub common: usize,
    /// Unmatched observations currently resident.
    pub resident: usize,
    /// Running κ and components over everything seen so far.
    pub running: ConsistencyMetrics,
}

/// Everything `finalize` hands back.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// The finished comparison — bit-identical to the batch analyzers.
    pub comparison: TrialComparison,
    /// The snapshot trail taken while streaming.
    pub snapshots: Vec<KappaSnapshot>,
    /// High-water mark of resident unmatched observations.
    pub peak_resident: usize,
}

// ---------------------------------------------------------------------
// Cursor / rebuild, checkpoint / resume
//
// The vendored serde data model carries at most 64-bit integers, so the
// two u128 accumulators travel as (hi, lo) halves. The bulk — matched
// pairs and pending observations — never meets serde as records: a
// checkpoint holds it as slab bytes, a cursor not at all.
// ---------------------------------------------------------------------

fn split_u128(v: u128) -> (u64, u64) {
    ((v >> 64) as u64, v as u64)
}

fn join_u128(hi: u64, lo: u64) -> u128 {
    ((hi as u128) << 64) | lo as u128
}

/// What an engine needs besides the two prefixes it consumed:
/// [`IncrementalComparison::rebuild`] re-feeds them, checks the re-fed
/// state against this, and restores the order-dependent rest. Small —
/// a few scalars and the trail — and serializable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamCursor {
    /// Caller-assigned identity of the engine (0 when never set).
    engine_id: u64,
    /// [`StreamConfig::fingerprint`] of the engine's configuration.
    config_hash: u64,
    side_a: SideState,
    side_b: SideState,
    peak_resident: u64,
    lat_num: (u64, u64),
    iat_num: (u64, u64),
    last_snapshot_tick: u64,
    snapshots: Vec<KappaSnapshot>,
}

impl StreamCursor {
    /// Records consumed on side A: the length of the prefix a rebuild
    /// takes.
    pub fn seen_a(&self) -> usize {
        self.side_a.len
    }

    /// Records consumed on side B.
    pub fn seen_b(&self) -> usize {
        self.side_b.len
    }
}

/// A complete, serializable snapshot of an [`IncrementalComparison`]'s
/// algorithmic state. Opaque by design: produce one with
/// [`IncrementalComparison::checkpoint`] and turn it back into a live
/// engine with [`IncrementalComparison::resume`]. The bulk — matched
/// pairs and pending observations — is held already encoded, as two
/// slabs; the scalars and the trail are plain fields. Ship it whole
/// through serde, the slabs then as JSON arrays of bytes; the round trip
/// is bit-exact (see the module docs). Wall-clock timings are *not* part
/// of a checkpoint — a resumed run re-measures its own stage timings —
/// and neither is anything `finalize` derives from the matched pairs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamCheckpoint {
    /// Caller-assigned identity of the engine that took this checkpoint
    /// (0 when never set).
    #[serde(default)]
    engine_id: u64,
    /// [`StreamConfig::fingerprint`] at checkpoint time.
    #[serde(default)]
    config_hash: u64,
    snapshot_every: u64,
    side_a: SideState,
    side_b: SideState,
    /// The `pending` slab: every unmatched observation, [`PENDING_BYTES`]
    /// each, identities ascending, one identity's records adjacent and
    /// oldest first.
    pending: Vec<u8>,
    peak_resident: u64,
    lat_num: (u64, u64),
    iat_num: (u64, u64),
    /// The `all_pairs` slab: every matched pair, [`PAIR_BYTES`] each, in
    /// match order.
    all_pairs: Vec<u8>,
    last_snapshot_tick: u64,
    snapshots: Vec<KappaSnapshot>,
}

impl StreamCheckpoint {
    /// Unmatched observations resident in the checkpoint.
    pub fn resident(&self) -> usize {
        self.pending.len() / PENDING_BYTES
    }
}

/// Bytes of one matched pair in a slab: `a_pos`, `b_pos` (u32), the
/// latency delta sign-extended to 128 bits as `hi` (i64) and `lo` (u64),
/// `d_iat_ps` (i64). The slab keeps the 16-byte field the delta had as an
/// `i128`, so a checkpoint's bytes did not move when it became an `i64`.
const PAIR_BYTES: usize = 32;
/// Bytes of one pending observation in a slab: identity (u128), `pos`
/// and side (u32 each), `t_ps` (u64), `gap_ps` (i64).
const PENDING_BYTES: usize = 40;

// The slab codec: the two records above, little-endian, written by
// `checkpoint` and read by `resume`.

fn encode_pair(p: &PairRec, out: &mut Vec<u8>) {
    out.extend_from_slice(&p.a_pos.to_le_bytes());
    out.extend_from_slice(&p.b_pos.to_le_bytes());
    out.extend_from_slice(&(p.d_lat_ps >> 63).to_le_bytes());
    out.extend_from_slice(&(p.d_lat_ps as u64).to_le_bytes());
    out.extend_from_slice(&p.d_iat_ps.to_le_bytes());
}

/// Decode an `all_pairs` slab, refusing one that no engine writes:
/// ragged, or a latency delta outside `i64` (its high word is not the
/// sign extension of its low one).
fn decode_pairs(raw: &[u8]) -> Result<Vec<PairRec>, CheckpointError> {
    record_count::<PAIR_BYTES>(raw, "all_pairs")?;
    let lat = |b: &[u8]| (i64::from_le_bytes(le(b, 8)), u64::from_le_bytes(le(b, 16)));
    let records = raw.chunks_exact(PAIR_BYTES);
    if let Some((k, (hi, lo))) =
        (records.clone().map(lat).enumerate()).find(|&(_, (hi, lo))| hi != (lo as i64) >> 63)
    {
        let d = ((hi as i128) << 64) | lo as i128;
        return Err(CheckpointError::Corrupt {
            section: "all_pairs",
            detail: format!("pair {k}: latency delta {d} ps is outside i64"),
        });
    }
    Ok(records
        .map(|b| PairRec {
            a_pos: u32::from_le_bytes(le(b, 0)),
            b_pos: u32::from_le_bytes(le(b, 4)),
            d_lat_ps: lat(b).1 as i64,
            d_iat_ps: i64::from_le_bytes(le(b, 24)),
        })
        .collect())
}

fn encode_pending(id: PacketId, o: &PendingObs, out: &mut Vec<u8>) {
    out.extend_from_slice(&id.as_u128().to_le_bytes());
    out.extend_from_slice(&o.pos.to_le_bytes());
    out.extend_from_slice(&(o.side.index() as u32).to_le_bytes());
    out.extend_from_slice(&o.t_ps.to_le_bytes());
    out.extend_from_slice(&o.gap_ps.to_le_bytes());
}

/// Walk a `pending` slab in order, handing each record to `each`, and
/// refuse one that no engine writes: ragged, a side that is neither A
/// (0) nor B (1), an identity below its predecessor (which is also how
/// one identity split into two runs shows), or one identity pending on
/// both sides (the two would have matched). [`IncrementalComparison::resume`]
/// builds with it. Returns the number of records.
fn decode_pending(
    raw: &[u8],
    mut each: impl FnMut(PacketId, PendingObs),
) -> Result<usize, CheckpointError> {
    let corrupt = |detail| CheckpointError::Corrupt {
        section: "pending",
        detail,
    };
    let n = record_count::<PENDING_BYTES>(raw, "pending")?;
    let mut last: Option<(u128, Side)> = None;
    for (k, b) in raw.chunks_exact(PENDING_BYTES).enumerate() {
        let id = u128::from_le_bytes(le(b, 0));
        let side = match u32::from_le_bytes(le(b, 20)) {
            0 => Side::A,
            1 => Side::B,
            s => return Err(corrupt(format!("side {s} is neither A (0) nor B (1)"))),
        };
        if last.is_some_and(|(p, s)| p > id || (p == id && s != side)) {
            return Err(corrupt(format!(
                "record {k}: identity {id:#x} is out of order, in a second run or on both sides"
            )));
        }
        last = Some((id, side));
        each(
            PacketId::from_u128(id),
            PendingObs {
                pos: u32::from_le_bytes(le(b, 16)),
                side,
                queued: false,
                taken: false,
                t_ps: u64::from_le_bytes(le(b, 24)),
                gap_ps: i64::from_le_bytes(le(b, 32)),
            },
        );
    }
    Ok(n)
}

/// A checkpoint section or slab that cannot be read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// The reader failed.
    Io(std::io::Error),
    /// The input ended inside the named section.
    Truncated {
        /// Which section.
        section: &'static str,
    },
    /// The section is all there but is not what the writer produced:
    /// checksum mismatch, a slab that is not a whole number of records,
    /// a field out of range.
    Corrupt {
        /// Which section.
        section: &'static str,
        /// What is wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint read failed: {e}"),
            CheckpointError::Truncated { section } => {
                write!(f, "checkpoint input ends inside section `{section}`")
            }
            CheckpointError::Corrupt { section, detail } => {
                write!(f, "checkpoint section `{section}` is corrupt: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Checksum of one section: xor, odd multiply and rotate a word at a
/// time. Every step is a bijection of the running value, so any change
/// confined to one 8-byte word changes the result.
fn section_sum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    let mut mix = |w: u64| h = (h ^ w).wrapping_mul(0x100_0000_01b3).rotate_left(29);
    for w in &mut words {
        mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    mix(u64::from_le_bytes(tail));
    h
}

/// Write one checkpoint section: 8-byte LE length, the bytes, 8-byte LE
/// `section_sum`. The κ daemon's `ck` is one of these.
pub fn write_section(w: &mut impl Write, bytes: &[u8]) -> std::io::Result<()> {
    w.write_all(&(bytes.len() as u64).to_le_bytes())?;
    w.write_all(bytes)?;
    w.write_all(&section_sum(bytes).to_le_bytes())
}

/// Read one section written by [`write_section`]. The buffer grows with
/// the bytes actually read, never with the declared length, so garbage
/// cannot make the reader allocate more than the input holds.
pub fn read_section(r: &mut impl Read, section: &'static str) -> Result<Vec<u8>, CheckpointError> {
    let len = read_u64(r, section)?;
    let mut bytes = Vec::new();
    r.by_ref().take(len).read_to_end(&mut bytes)?;
    if bytes.len() as u64 != len {
        return Err(CheckpointError::Truncated { section });
    }
    if read_u64(r, section)? != section_sum(&bytes) {
        return Err(CheckpointError::Corrupt {
            section,
            detail: "checksum mismatch".into(),
        });
    }
    Ok(bytes)
}

fn read_u64(r: &mut impl Read, section: &'static str) -> Result<u64, CheckpointError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => CheckpointError::Truncated { section },
        _ => CheckpointError::Io(e),
    })?;
    Ok(u64::from_le_bytes(b))
}

/// The number of `N`-byte records in a slab, or `Corrupt` if it is
/// ragged.
fn record_count<const N: usize>(
    raw: &[u8],
    section: &'static str,
) -> Result<usize, CheckpointError> {
    if !raw.len().is_multiple_of(N) {
        return Err(CheckpointError::Corrupt {
            section,
            detail: format!(
                "{} bytes is not a whole number of {N}-byte records",
                raw.len()
            ),
        });
    }
    Ok(raw.len() / N)
}

/// `N` bytes of a record starting at `at`.
fn le<const N: usize>(b: &[u8], at: usize) -> [u8; N] {
    b[at..at + N]
        .try_into()
        .expect("field lies inside its record")
}

/// Per-side incremental statistics (the streaming mirror of what
/// `Trial::start_ps`/`minmax_span_ps`/`gap_ps` provide in batch). A
/// checkpoint carries it as it is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct SideState {
    len: usize,
    first_t_ps: u64,
    prev_t_ps: u64,
    min_t_ps: u64,
    max_t_ps: u64,
}

impl SideState {
    fn start_ps(&self) -> u64 {
        if self.len == 0 {
            0
        } else {
            self.first_t_ps
        }
    }

    fn minmax_span_ps(&self) -> u64 {
        if self.len == 0 {
            0
        } else {
            self.max_t_ps - self.min_t_ps
        }
    }
}

/// An observation waiting for its counterpart on the other side. The
/// side it is on, whether later occurrences of its identity queue
/// behind it and whether a run entry has met its counterpart sit in the
/// padding after `pos`: 24 bytes.
#[derive(Debug, Clone, Copy)]
struct PendingObs {
    pos: u32,
    side: Side,
    /// The engine's `queued` map holds this identity's later
    /// occurrences. Only the oldest pending occurrence says so.
    queued: bool,
    /// A [`Run`] entry that has met its counterpart and is no longer
    /// pending; the run's next compaction drops it. Never set elsewhere.
    taken: bool,
    t_ps: u64,
    gap_ps: i64,
}

/// Whether a run or map with room for `capacity` entries, holding
/// `live`, gives room back: past 4 096 entries and eight times what it
/// holds. It shrinks to twice `live`, so it grows again only after
/// `live` has doubled, and shrinks again only after it has quartered: a
/// feed that keeps a few hundred identities waiting never reallocates in
/// a loop, and a map that drains rehashes a small fraction of what it
/// held.
fn oversized(capacity: usize, live: usize) -> bool {
    capacity > 4_096 && capacity > 8 * live
}

/// One side's pending identities while they arrive strictly increasing:
/// the oldest pending occurrence of each, in identity order, where the
/// other side finds it by [`gallop`] from `hint`, with no hash and no
/// table. It is the batch index's increasing layout (`TrialIndex`),
/// chosen online. Every side of a replay that kept its order, and the
/// side fed first of a whole-side feed, keeps its run. The first entry
/// of a side that is not above its run's last moves the run into the
/// engine's map, and the side stays hashed from then on.
#[derive(Debug, Default)]
struct Run {
    /// Identities strictly increasing, matched ones marked `taken`.
    entries: Vec<(PacketId, PendingObs)>,
    /// Where the other side's last search landed: the next identity of a
    /// replay that kept its order is one step on, a reversed one's one
    /// step back.
    hint: usize,
    /// Entries marked `taken`; once they outnumber the live ones,
    /// [`Run::compact`] drops them.
    taken: usize,
    /// The side's identities stopped increasing: its pending ones are in
    /// the map, and `entries` stays empty.
    hashed: bool,
}

impl Run {
    /// Where the live entry of `id` is, if the run holds one. The search
    /// starts at the last one's place, and moves the hint to where it
    /// lands, found or not.
    fn find(&mut self, id: PacketId) -> Option<usize> {
        let found = gallop(&self.entries, |e| e.0, id, self.hint);
        let (Ok(i) | Err(i)) = found;
        self.hint = i;
        found.ok().filter(|&i| !self.entries[i].1.taken)
    }

    /// Mark entry `i` matched, and compact the run once taken entries
    /// outnumber live ones.
    fn take(&mut self, i: usize) {
        self.entries[i].1.taken = true;
        self.taken += 1;
        if 2 * self.taken > self.entries.len() {
            self.compact();
        }
    }

    /// Drop the taken entries, in order; the hint follows its entry to
    /// where the live ones before it end. A run that drained gives back
    /// room ([`oversized`]).
    fn compact(&mut self) {
        let (hint, mut at, mut before) = (self.hint, 0, 0);
        self.entries.retain(|(_, o)| {
            before += usize::from(!o.taken && at < hint);
            at += 1;
            !o.taken
        });
        self.hint = before;
        self.taken = 0;
        let live = self.entries.len();
        if oversized(self.entries.capacity(), live) {
            self.entries.shrink_to(2 * live);
        }
    }
}

/// Hand over `head`, the oldest pending occurrence of `id`, and put the
/// next one queued behind it in its place.
fn promote(
    queued: &mut IdMap<VecDeque<PendingObs>>,
    id: PacketId,
    head: &mut PendingObs,
) -> PendingObs {
    let rest = queued.get_mut(&id).expect("a queued head has a queue");
    let mut next = rest.pop_front().expect("a queue is never empty");
    next.queued = !rest.is_empty();
    if !next.queued {
        queued.remove(&id);
    }
    std::mem::replace(head, next)
}

/// Hand over the map's `head`, the oldest pending occurrence of its
/// identity: the next one queued behind it takes its place, or the entry
/// goes.
fn hand_over(
    queued: &mut IdMap<VecDeque<PendingObs>>,
    mut head: OccupiedEntry<'_, PacketId, PendingObs>,
) -> PendingObs {
    if head.get().queued {
        let id = *head.key();
        promote(queued, id, head.get_mut())
    } else {
        head.remove()
    }
}

/// `me` waits in the map, at its identity's `entry`: as the oldest
/// pending occurrence, or queued behind it.
fn wait_in_map(
    queued: &mut IdMap<VecDeque<PendingObs>>,
    entry: Entry<'_, PacketId, PendingObs>,
    me: PendingObs,
) {
    match entry {
        Entry::Vacant(v) => {
            v.insert(me);
            count_hashed(1);
        }
        Entry::Occupied(mut head) => {
            let id = *head.key();
            enqueue(queued, id, head.get_mut(), me)
        }
    }
}

/// Queue `later` behind `head`, the oldest pending occurrence of `id`.
fn enqueue(
    queued: &mut IdMap<VecDeque<PendingObs>>,
    id: PacketId,
    head: &mut PendingObs,
    later: PendingObs,
) {
    head.queued = true;
    queued.entry(id).or_default().push_back(later);
}

/// The engine's per-identity maps hash with `hash_id`, the batch index's
/// keyed folded multiply (`TrialIndex`), and nothing else: one multiply a
/// probe where SipHash took a dozen rounds. Its key is drawn once per
/// process, so a client that chooses the identities it sends cannot
/// choose them to share a probe chain (with a public key, every identity
/// whose high word equals the key's first word hashes alike). No result
/// reads a map's order (checkpoints sort), and no allocation follows it:
/// a pending entry owns no heap chunk (only a duplicated identity's
/// queue does, in a map of its own), so walking and dropping the entries
/// in another order each run frees the same blocks.
type IdMap<V> = HashMap<PacketId, V, BuildHasherDefault<IdHasher>>;

/// One matched pair as recorded at match time (global positions plus the
/// exact integer deltas): 24 bytes. The latency delta fits `i64` under
/// the stamp contract the engine relies on
/// ([`MAX_TIMESTAMP_PS`](super::trial::MAX_TIMESTAMP_PS): two
/// latencies built from stamps below it differ by less than `i64::MAX`),
/// and `as f64` rounds it as it rounded the `i128` it was.
#[derive(Debug, Clone, Copy)]
struct PairRec {
    a_pos: u32,
    b_pos: u32,
    d_lat_ps: i64,
    d_iat_ps: i64,
}

const _: () = assert!(std::mem::size_of::<PairRec>() == 24);
const _: () = assert!(std::mem::size_of::<PendingObs>() == 24);
const _: () = assert!(std::mem::size_of::<(PacketId, PendingObs)>() == 40);

/// True when a run of matched pairs, taken as recorded (match order), is
/// strictly increasing in both coordinates. B order is then the order
/// given and the A ranks along it are the identity permutation, so the
/// run's edit script is empty — what the LIS kernel would conclude after
/// a copy, a sort and a Fenwick pass. The engine keeps this as a flag,
/// one comparison per match; `resume` computes it once from the pairs
/// it decodes.
fn order_preserving(pairs: &[PairRec]) -> bool {
    pairs
        .windows(2)
        .all(|w| w[0].a_pos < w[1].a_pos && w[0].b_pos < w[1].b_pos)
}

/// Sort matched pairs into B arrival order (`b_pos` is unique, so the
/// sort is deterministic) and dress them as the [`Matching`] the batch
/// kernels would have built from the two streams so far. `finalize` and
/// a reordered stream's running O both score this.
fn matching_in_b_order(pairs: &mut [PairRec], sides: &[SideState; 2]) -> Matching {
    pairs.sort_unstable_by_key(|p| p.b_pos);
    Matching {
        pairs: pairs
            .iter()
            .map(|p| MatchedPair {
                a_idx: p.a_pos as usize,
                b_idx: p.b_pos as usize,
            })
            .collect(),
        a_len: sides[0].len,
        b_len: sides[1].len,
    }
}

/// The streaming incremental-κ engine. See the module docs for the
/// exactness contract.
///
/// Feed each side's observations **in that side's arrival order** (the
/// order a capture or live tap naturally produces); the interleaving
/// *between* the sides is arbitrary.
///
/// ```
/// use choir_core::metrics::stream::{IncrementalComparison, Side, StreamConfig};
/// use choir_core::metrics::Trial;
///
/// let mut a = Trial::new();
/// let mut b = Trial::new();
/// for i in 0..100u64 {
///     a.push_tagged(0, 0, i, i * 1000);
///     b.push_tagged(0, 0, i, i * 1000 + (i % 3) * 7);
/// }
/// let mut eng = IncrementalComparison::new(StreamConfig::default());
/// eng.push_burst(Side::A, a.observations());
/// eng.push_burst(Side::B, b.observations());
/// let out = eng.finalize("B");
/// assert_eq!(out.comparison.common, 100);
/// ```
#[derive(Debug)]
pub struct IncrementalComparison {
    cfg: StreamConfig,
    sides: [SideState; 2],
    /// Each side's run: the oldest pending occurrence of each of its
    /// unmatched identities while they arrive increasing.
    runs: [Run; 2],
    /// The oldest pending occurrence of each unmatched identity of a
    /// hashed side. Every pending occurrence of one identity is on one
    /// side, and its oldest is in one place, a run or this map: an
    /// occurrence on the other side matches the oldest instead of
    /// queueing. The oldest is held inline, so an identity waiting alone
    /// — nearly every one in a lock-step feed — allocates nothing (a heap
    /// queue per identity was three fifths of a rebuild's time), and an
    /// entry is 40 bytes with its key where a queue inline made it 80.
    /// Empty, and never probed, while both sides keep their runs.
    pending: IdMap<PendingObs>,
    /// The later pending occurrences of a duplicated identity, oldest
    /// first; its head, in a run or `pending`, is marked `queued`.
    queued: IdMap<VecDeque<PendingObs>>,
    resident: usize,
    peak_resident: usize,
    lat_num: u128,
    iat_num: u128,
    /// Every matched pair, in match order, for running O and finalize.
    all_pairs: Vec<PairRec>,
    /// [`order_preserving`] of `all_pairs`, kept up to date by every
    /// match: while it holds, running O needs no pair.
    in_order: bool,
    last_snapshot_tick: u64,
    snapshots: Vec<KappaSnapshot>,
    /// Caller-assigned identity recorded into every cursor so that
    /// [`IncrementalComparison::rebuild`] can refuse one that belongs to
    /// a different engine. `0` means "unassigned".
    engine_id: u64,
}

/// Count `n` identities put in an engine's map: the
/// `stream.pending.hashed` counter, which a feed whose sides keep their
/// identities increasing leaves at 0.
fn count_hashed(n: usize) {
    if obs::is_enabled() {
        obs::counter_add("stream.pending.hashed", n as u64);
    }
}

impl IncrementalComparison {
    /// A fresh engine.
    pub fn new(cfg: StreamConfig) -> Self {
        IncrementalComparison {
            cfg,
            sides: [SideState::default(), SideState::default()],
            runs: Default::default(),
            pending: IdMap::default(),
            queued: IdMap::default(),
            resident: 0,
            peak_resident: 0,
            lat_num: 0,
            iat_num: 0,
            all_pairs: Vec::new(),
            in_order: true,
            last_snapshot_tick: 0,
            snapshots: Vec::new(),
            engine_id: 0,
        }
    }

    /// Tag this engine with a caller-assigned identity. The id is
    /// recorded in every cursor and checkpoint; [`Self::rebuild`] refuses
    /// a cursor whose id differs from the one the caller expects.
    pub fn with_engine_id(mut self, id: u64) -> Self {
        self.engine_id = id;
        self
    }

    /// The caller-assigned engine identity (`0` when unassigned).
    pub fn engine_id(&self) -> u64 {
        self.engine_id
    }

    /// Observations pushed on side A so far.
    pub fn seen_a(&self) -> usize {
        self.sides[0].len
    }

    /// Observations pushed on side B so far.
    pub fn seen_b(&self) -> usize {
        self.sides[1].len
    }

    /// Matched pairs so far.
    pub fn matched(&self) -> usize {
        self.all_pairs.len()
    }

    /// Observations pushed across both sides so far.
    fn tick(&self) -> u64 {
        (self.sides[0].len + self.sides[1].len) as u64
    }

    /// Unmatched observations currently resident.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// High-water mark of resident unmatched observations.
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// Snapshots taken so far.
    pub fn snapshots(&self) -> &[KappaSnapshot] {
        &self.snapshots
    }

    /// Serialize the engine's complete algorithmic state. Non-consuming:
    /// the live engine continues unperturbed, so a supervisor can
    /// checkpoint on a cadence while streaming. The matched pairs and the
    /// pending observations are encoded straight into the two slabs, each
    /// reserved at its exact size; pending identities go in `PacketId`
    /// order, so identical states produce byte-identical checkpoints
    /// regardless of hash-map iteration order.
    pub fn checkpoint(&self) -> StreamCheckpoint {
        let _span = obs::span("recover.checkpoint");
        let mut all_pairs = Vec::with_capacity(self.all_pairs.len() * PAIR_BYTES);
        for p in &self.all_pairs {
            encode_pair(p, &mut all_pairs);
        }
        let in_runs = (self.runs.iter().flat_map(|r| &r.entries)).filter(|(_, o)| !o.taken);
        let mut ids: Vec<_> = (self.pending.iter().map(|(&id, o)| (id, o)))
            .chain(in_runs.map(|(id, o)| (*id, o)))
            .collect();
        ids.sort_unstable_by_key(|&(id, _)| id);
        let mut pending = Vec::with_capacity(self.resident * PENDING_BYTES);
        for (id, head) in ids {
            encode_pending(id, head, &mut pending);
            if head.queued {
                for o in &self.queued[&id] {
                    encode_pending(id, o, &mut pending);
                }
            }
        }
        if obs::is_enabled() {
            obs::counter_inc("recover.checkpoints");
        }
        StreamCheckpoint {
            engine_id: self.engine_id,
            config_hash: self.cfg.fingerprint(),
            snapshot_every: self.cfg.snapshot_every,
            side_a: self.sides[0],
            side_b: self.sides[1],
            pending,
            peak_resident: self.peak_resident as u64,
            lat_num: split_u128(self.lat_num),
            iat_num: split_u128(self.iat_num),
            all_pairs,
            last_snapshot_tick: self.last_snapshot_tick,
            snapshots: self.snapshots.clone(),
        }
    }

    /// Rebuild a live engine from a [`StreamCheckpoint`]; every
    /// downstream bit is what the uninterrupted run would have produced
    /// (the module-docs contract). The slabs are decoded straight into
    /// the matched pairs and the two sides' runs: the slab holds each
    /// side's identities increasing.
    ///
    /// # Panics
    ///
    /// Where [`Self::try_resume`] refuses the checkpoint.
    pub fn resume(ck: StreamCheckpoint) -> Self {
        Self::try_resume(ck).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::resume`], refusing with [`CheckpointError::Corrupt`], and
    /// building no engine, slabs that no engine writes: ragged, a pending
    /// side other than A or B, one identity out of order, in two runs or
    /// pending on both sides, or a latency delta outside `i64`. Only a
    /// checkpoint edited in transit holds one.
    pub fn try_resume(ck: StreamCheckpoint) -> Result<Self, CheckpointError> {
        let _span = obs::span("recover.resume");
        let cfg = StreamConfig {
            snapshot_every: ck.snapshot_every,
            ..Default::default()
        };
        let all_pairs = decode_pairs(&ck.all_pairs)?;
        let mut runs: [Run; 2] = Default::default();
        let mut queued = IdMap::<VecDeque<_>>::default();
        let resident = decode_pending(&ck.pending, |id, o| {
            let run = &mut runs[o.side.index()].entries;
            match run.last_mut() {
                Some((last, head)) if *last == id => enqueue(&mut queued, id, head, o),
                _ => run.push((id, o)),
            }
        })?;
        if obs::is_enabled() {
            obs::counter_inc("recover.resumes");
        }
        Ok(IncrementalComparison {
            cfg,
            sides: [ck.side_a, ck.side_b],
            runs,
            pending: IdMap::default(),
            queued,
            resident,
            peak_resident: ck.peak_resident as usize,
            lat_num: join_u128(ck.lat_num.0, ck.lat_num.1),
            iat_num: join_u128(ck.iat_num.0, ck.iat_num.1),
            in_order: order_preserving(&all_pairs),
            all_pairs,
            last_snapshot_tick: ck.last_snapshot_tick,
            engine_id: ck.engine_id,
            snapshots: ck.snapshots,
        })
    }

    /// What [`Self::rebuild`] needs besides the two prefixes this engine
    /// has consumed: a few scalars and the trail, whatever the stream
    /// length.
    pub fn cursor(&self) -> StreamCursor {
        StreamCursor {
            engine_id: self.engine_id,
            config_hash: self.cfg.fingerprint(),
            side_a: self.sides[0],
            side_b: self.sides[1],
            peak_resident: self.peak_resident as u64,
            lat_num: split_u128(self.lat_num),
            iat_num: split_u128(self.iat_num),
            last_snapshot_tick: self.last_snapshot_tick,
            snapshots: self.snapshots.clone(),
        }
    }

    /// Rebuild the engine `cursor` was taken from out of the two prefixes
    /// it consumed, `a` and `b`: every downstream bit is what the
    /// uninterrupted run would have produced (the module-docs contract).
    ///
    /// Refuses, before feeding anything, a cursor of another engine
    /// (`engine_id`) or configuration (`cfg`'s fingerprint) and a prefix
    /// of another length than the cursor consumed. Then re-pushes the
    /// prefixes in lock-step runs with snapshots suppressed, refuses a
    /// re-fed state whose side statistics or sums differ from the
    /// cursor's — records that changed under it — and restores the
    /// order-dependent rest: `peak_resident`, the cadence's last tick and
    /// the trail.
    pub fn rebuild(
        cursor: StreamCursor,
        engine_id: u64,
        cfg: &StreamConfig,
        a: &[Observation],
        b: &[Observation],
    ) -> Result<Self, ResumeMismatch> {
        /// Records fed per side before switching to the other. The
        /// engine holds what one side has that the other has not yet
        /// matched, so short runs keep that small: three 50 000-record
        /// engines rebuilt in 9 ms at 256 (32 to 512 alike), 14 ms at
        /// 1 024 to 4 096 and 26 ms a whole side at a time, on a 2-vCPU
        /// x86-64 guest.
        const RUN: usize = 256;
        let _span = obs::span("recover.rebuild");
        if cursor.engine_id != engine_id {
            return Err(ResumeMismatch::EngineId {
                expected: engine_id,
                found: cursor.engine_id,
            });
        }
        let expected = cfg.fingerprint();
        if cursor.config_hash != expected {
            return Err(ResumeMismatch::Config {
                expected,
                found: cursor.config_hash,
            });
        }
        for (side, prefix, seen) in [(Side::A, a, cursor.seen_a()), (Side::B, b, cursor.seen_b())] {
            if prefix.len() != seen {
                return Err(ResumeMismatch::Prefix {
                    side,
                    expected: seen,
                    found: prefix.len(),
                });
            }
        }
        let quiet = StreamConfig {
            snapshot_every: 0,
            ..*cfg
        };
        let mut eng = Self::new(quiet).with_engine_id(engine_id);
        for at in (0..a.len().max(b.len())).step_by(RUN) {
            for (side, prefix) in [(Side::A, a), (Side::B, b)] {
                let run = &prefix[at.min(prefix.len())..(at + RUN).min(prefix.len())];
                eng.push_burst(side, run);
            }
        }
        for (what, same) in [
            ("side A statistics", eng.sides[0] == cursor.side_a),
            ("side B statistics", eng.sides[1] == cursor.side_b),
            ("latency sum", split_u128(eng.lat_num) == cursor.lat_num),
            ("IAT sum", split_u128(eng.iat_num) == cursor.iat_num),
        ] {
            if !same {
                return Err(ResumeMismatch::Diverged { what });
            }
        }
        eng.cfg = *cfg;
        eng.peak_resident = cursor.peak_resident as usize;
        eng.last_snapshot_tick = cursor.last_snapshot_tick;
        eng.snapshots = cursor.snapshots;
        if obs::is_enabled() {
            obs::counter_inc("recover.rebuilds");
        }
        Ok(eng)
    }

    /// Feed one observation.
    pub fn push(&mut self, side: Side, id: PacketId, t_ps: u64) {
        let s = &mut self.sides[side.index()];
        assert!(
            s.len < MAX_TRIAL_LEN,
            "stream past MAX_TRIAL_LEN observations"
        );
        let pos = s.len as u32;
        let gap_ps = if s.len == 0 {
            0
        } else {
            t_ps as i64 - s.prev_t_ps as i64
        };
        if s.len == 0 {
            s.first_t_ps = t_ps;
            s.min_t_ps = t_ps;
            s.max_t_ps = t_ps;
        } else {
            s.min_t_ps = s.min_t_ps.min(t_ps);
            s.max_t_ps = s.max_t_ps.max(t_ps);
        }
        s.prev_t_ps = t_ps;
        s.len += 1;

        let me = PendingObs {
            pos,
            side,
            queued: false,
            taken: false,
            t_ps,
            gap_ps,
        };
        // The k-th occurrence of an identity on one side meets the k-th
        // on the other — the same occurrence-wise rule as
        // `Matching::build`, for any interleaving: the oldest goes, and
        // the next in its queue, if any, takes its place.
        let (mine, theirs) = (side.index(), 1 - side.index());
        let other = if self.runs[theirs].hashed && self.runs[mine].hashed {
            self.meet_in_map(id, me)
        } else {
            let found = if self.runs[theirs].hashed {
                self.take_from_map(id)
            } else {
                self.take_from_run(theirs, id)
            };
            if found.is_none() {
                self.wait(mine, id, me);
            }
            found
        };
        match other {
            None => self.resident += 1,
            Some(other) => {
                self.resident -= 1;
                let (ap, bp) = match side {
                    Side::A => (me, other),
                    Side::B => (other, me),
                };
                self.record_match(ap, bp);
            }
        }
        self.peak_resident = self.peak_resident.max(self.resident);

        if self.cfg.snapshot_every > 0
            && self.tick() - self.last_snapshot_tick >= self.cfg.snapshot_every
        {
            self.snapshot();
        }
    }

    /// The oldest pending occurrence of `id` in side `s`'s run, handed
    /// over.
    fn take_from_run(&mut self, s: usize, id: PacketId) -> Option<PendingObs> {
        let run = &mut self.runs[s];
        let i = run.find(id)?;
        let head = &mut run.entries[i].1;
        if head.queued {
            return Some(promote(&mut self.queued, id, head));
        }
        let out = *head;
        run.take(i);
        Some(out)
    }

    /// The oldest pending occurrence of `id` in the map, handed over:
    /// the other side's, since this side keeps its run.
    fn take_from_map(&mut self, id: PacketId) -> Option<PendingObs> {
        if self.pending.is_empty() {
            return None;
        }
        match self.pending.entry(id) {
            Entry::Occupied(head) => Some(hand_over(&mut self.queued, head)),
            Entry::Vacant(_) => None,
        }
    }

    /// Both sides hashed: one probe of the map matches `me` or makes it
    /// wait.
    fn meet_in_map(&mut self, id: PacketId, me: PendingObs) -> Option<PendingObs> {
        match self.pending.entry(id) {
            Entry::Occupied(head) if head.get().side != me.side => {
                Some(hand_over(&mut self.queued, head))
            }
            entry => {
                wait_in_map(&mut self.queued, entry, me);
                None
            }
        }
    }

    /// `me`, unmatched, waits on side `s`: behind the oldest pending
    /// occurrence of its identity there, if there is one, else as the
    /// oldest — at the end of the run if it is above the run's last
    /// identity, else in the map, where the run moves first.
    fn wait(&mut self, s: usize, id: PacketId, me: PendingObs) {
        let run = &mut self.runs[s];
        if run.hashed {
            return wait_in_map(&mut self.queued, self.pending.entry(id), me);
        }
        if run.entries.last().is_none_or(|&(last, _)| last < id) {
            run.entries.push((id, me));
            return;
        }
        // Not above the run's last: a later occurrence of an identity
        // waiting here (searched for from the run's end, where a recent
        // one is), or the end of the side's increasing identities.
        let own = gallop(&run.entries, |e| e.0, id, run.entries.len() - 1);
        if let Some(i) = own.ok().filter(|&i| !run.entries[i].1.taken) {
            enqueue(&mut self.queued, id, &mut run.entries[i].1, me);
            return;
        }
        self.hash_side(s);
        let displaced = self.pending.insert(id, me);
        debug_assert!(
            displaced.is_none(),
            "the run search missed a pending occurrence of this identity"
        );
        count_hashed(1);
    }

    /// Move side `s`'s run into the map, for good.
    fn hash_side(&mut self, s: usize) {
        let run = std::mem::replace(
            &mut self.runs[s],
            Run {
                hashed: true,
                ..Run::default()
            },
        );
        let live = run.entries.len() - run.taken;
        self.pending.reserve(live);
        (self.pending).extend(run.entries.into_iter().filter(|(_, o)| !o.taken));
        count_hashed(live);
    }

    /// Give back the map's room once it has drained ([`oversized`]): at
    /// the end of a burst, not on every match.
    fn give_back_map(&mut self) {
        let live = self.pending.len();
        if oversized(self.pending.capacity(), live) {
            self.pending.shrink_to(2 * live);
        }
    }

    /// Feed a burst of observations from one side (one `Ingest` frame's
    /// records, a whole trial). Of its records, at least as many as
    /// exceed the other side's pending count find no counterpart. When
    /// the side's run lacks room for them and the burst's identities
    /// start out increasing, the room is made at once, not by doubling.
    pub fn push_burst(&mut self, side: Side, observations: &[Observation]) {
        let waiting = self.sides[1 - side.index()].len - self.all_pairs.len();
        let room = observations.len().saturating_sub(waiting);
        let run = &mut self.runs[side.index()];
        if !run.hashed
            && run.entries.capacity() - run.entries.len() < room
            && (observations.windows(2).take(63)).all(|w| w[0].id < w[1].id)
        {
            run.entries.reserve(room);
        }
        for o in observations {
            self.push(side, o.id, o.t_ps);
        }
        self.give_back_map();
    }

    fn record_match(&mut self, ap: PendingObs, bp: PendingObs) {
        // Both sides have pushed at least once by now, so the per-side
        // origins are final (a side's first push fixes them forever) —
        // identical operands to the batch kernels.
        // Stamps below `MAX_TIMESTAMP_PS` keep every term inside `i64`.
        let ta0 = self.sides[0].start_ps() as i64;
        let tb0 = self.sides[1].start_ps() as i64;
        let d_lat = (ap.t_ps as i64 - ta0) - (bp.t_ps as i64 - tb0);
        let d_iat = ap.gap_ps - bp.gap_ps;
        self.lat_num += d_lat.unsigned_abs() as u128;
        self.iat_num += d_iat.unsigned_abs() as u128;
        if let Some(last) = self.all_pairs.last() {
            self.in_order &= last.a_pos < ap.pos && last.b_pos < bp.pos;
        }
        self.all_pairs.push(PairRec {
            a_pos: ap.pos,
            b_pos: bp.pos,
            d_lat_ps: d_lat,
            d_iat_ps: d_iat,
        });
    }

    /// L and I over the exact numerators and the running whole-stream
    /// spans — the batch normalizers on the streamed operands.
    fn running_li(&self) -> (f64, f64) {
        let mc = self.all_pairs.len();
        let span_a = self.sides[0].minmax_span_ps();
        let span_b = self.sides[1].minmax_span_ps();
        (
            normalize_l(self.lat_num, mc, span_a, span_b),
            normalize_i(self.iat_num, mc, span_a, span_b),
        )
    }

    /// O over the pairs matched so far: read off the order flag for a
    /// stream that kept its order, else `finalize`'s kernel on a copy of
    /// the pairs in B order — the pairs it reads are counted in
    /// `stream.running_o.pairs_read`.
    fn running_o(&self) -> f64 {
        if self.in_order {
            return normalize_o(0, self.all_pairs.len());
        }
        if obs::is_enabled() {
            obs::counter_add("stream.running_o.pairs_read", self.all_pairs.len() as u64);
        }
        let m = matching_in_b_order(&mut self.all_pairs.clone(), &self.sides);
        ordering_arena(&m, &mut OrderScratch::default()).o
    }

    /// Running κ and components over everything seen so far.
    pub fn running_metrics(&self) -> ConsistencyMetrics {
        let u = normalize_u(self.all_pairs.len(), self.sides[0].len + self.sides[1].len);
        let o = self.running_o();
        let (l, i) = self.running_li();
        kappa_from_components(u, o, l, i)
    }

    /// Add a snapshot to the trail, on the `snapshot_every` cadence,
    /// which counts from the latest one.
    fn snapshot(&mut self) {
        let snap = KappaSnapshot {
            seen_a: self.sides[0].len,
            seen_b: self.sides[1].len,
            common: self.all_pairs.len(),
            resident: self.resident,
            running: self.running_metrics(),
        };
        self.last_snapshot_tick = self.tick();
        self.snapshots.push(snap);
    }

    /// Finish the comparison: the exact batch result (see the module
    /// docs).
    pub fn finalize(mut self, label: impl Into<String>) -> StreamOutcome {
        let _span = obs::span("stream.finalize");
        let t0 = Instant::now();
        let m = matching_in_b_order(&mut self.all_pairs, &self.sides);
        let t1 = Instant::now();
        // From here on, the stages `PairAnalyzer::analyze_arena` runs, on
        // operands the stream accumulated instead of an index.
        let mut s = PairScratch::new();
        let u = normalize_u(m.common(), m.a_len + m.b_len);
        let ord = ordering_arena(&m, &mut s.order);
        let t2 = Instant::now();
        let (l, i) = self.running_li();
        let pairs = &self.all_pairs;
        s.latency_deltas
            .extend(pairs.iter().map(|p| p.d_lat_ps as f64 / 1000.0));
        let t3 = Instant::now();
        s.iat_deltas
            .extend(pairs.iter().map(|p| p.d_iat_ps as f64 / 1000.0));
        let t4 = Instant::now();
        let metrics = kappa_from_components(u, ord.o, l, i);
        let comparison = report_stage(
            label.into(),
            metrics,
            &m,
            &ord,
            &mut s,
            [t0, t1, t2, t3, t4],
        );

        if obs::is_enabled() {
            obs::counter_add("stream.full.packets_in", self.tick());
            obs::counter_add("stream.full.matched", pairs.len() as u64);
            obs::counter_add("stream.full.snapshots", self.snapshots.len() as u64);
            obs::gauge_max("stream.full.peak_resident", self.peak_resident as u64);
        }
        StreamOutcome {
            comparison,
            snapshots: self.snapshots,
            peak_resident: self.peak_resident,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::pair::PairAnalyzer;
    use crate::metrics::trial::Trial;

    fn jittered_pair(n: u64) -> (Trial, Trial) {
        let mut a = Trial::new();
        let mut b = Trial::new();
        for i in 0..n {
            a.push_tagged(0, 0, i, i * 1000);
            // Jitter, one local swap region, one drop, one extra.
            if i != 23 {
                let j = if i % 13 == 5 { i ^ 1 } else { i };
                b.push_tagged(0, 0, j, i * 1000 + (i % 7) * 41);
            }
        }
        b.push_tagged(9, 0, 0, n * 1000);
        (a, b)
    }

    fn stream_in_chunks(a: &Trial, b: &Trial, chunk: usize, cfg: StreamConfig) -> StreamOutcome {
        let mut eng = IncrementalComparison::new(cfg);
        let (oa, ob) = (a.observations(), b.observations());
        let (mut ia, mut ib) = (0usize, 0usize);
        while ia < oa.len() || ib < ob.len() {
            let hi = (ia + chunk).min(oa.len());
            eng.push_burst(Side::A, &oa[ia..hi]);
            ia = hi;
            let hi = (ib + chunk).min(ob.len());
            eng.push_burst(Side::B, &ob[ib..hi]);
            ib = hi;
        }
        eng.finalize("B")
    }

    #[test]
    fn bit_identical_to_batch_across_chunkings() {
        let (a, b) = jittered_pair(400);
        let batch = PairAnalyzer::new(&a, &b).label("B").analyze();
        for chunk in [1usize, 7, 64, 10_000] {
            let out = stream_in_chunks(&a, &b, chunk, StreamConfig::default()).comparison;
            assert_eq!((&out.label, out.bits()), (&batch.label, batch.bits()));
        }
    }

    #[test]
    fn sequential_sides_bit_identical() {
        // A fully first, then B — the maximal-residency interleave.
        let (a, b) = jittered_pair(300);
        let batch = PairAnalyzer::new(&a, &b).label("B").analyze();
        let mut eng = IncrementalComparison::new(StreamConfig::default());
        eng.push_burst(Side::A, a.observations());
        eng.push_burst(Side::B, b.observations());
        assert_eq!(eng.seen_a(), 300);
        let out = eng.finalize("B");
        assert_eq!(out.comparison.bits(), batch.bits());
        assert_eq!(out.peak_resident, 300, "all of A pending before B starts");
    }

    #[test]
    fn empty_streams_finalize_to_kappa_one() {
        let out = IncrementalComparison::new(StreamConfig::default()).finalize("B");
        assert_eq!(out.comparison.metrics.kappa, 1.0);
        assert_eq!(out.comparison.common, 0);
        assert_eq!(out.peak_resident, 0);
    }

    #[test]
    fn snapshot_cadence_and_trail() {
        let (a, b) = jittered_pair(500);
        let cfg = StreamConfig {
            snapshot_every: 100,
            ..StreamConfig::default()
        };
        let out = stream_in_chunks(&a, &b, 25, cfg);
        // ~1000 pushes at one snapshot per 100 → 9–10 snapshots.
        assert!(
            out.snapshots.len() >= 9,
            "expected ≥9 snapshots, got {}",
            out.snapshots.len()
        );
        // Trails are monotone in seen totals and in matches.
        for (k, s) in out.snapshots.iter().enumerate() {
            let kappa = s.running.kappa;
            assert!((0.0..=1.0).contains(&kappa), "snapshot {k} kappa {kappa}");
            if k > 0 {
                let prev = &out.snapshots[k - 1];
                assert!(s.seen_a + s.seen_b > prev.seen_a + prev.seen_b);
                assert!(s.common >= prev.common);
            }
        }
        // The last snapshot's running κ is the κ over everything seen at
        // that point — close to (not necessarily equal to) the final.
        let last = out.snapshots.last().expect("non-empty trail");
        assert!((last.running.kappa - out.comparison.metrics.kappa).abs() < 0.05);
    }

    #[test]
    fn manual_snapshots_join_the_trail_and_restart_the_cadence() {
        let mut a = Trial::new();
        let mut b = Trial::new();
        for i in 0..100u64 {
            a.push_tagged(0, 0, i, i * 1000);
            b.push_tagged(0, 0, i, i * 1000);
        }
        let cfg = StreamConfig {
            snapshot_every: 60,
            ..StreamConfig::default()
        };
        let mut eng = IncrementalComparison::new(cfg);
        eng.push_burst(Side::A, &a.observations()[..50]);
        eng.push_burst(Side::B, &b.observations()[..40]);
        // The cadence fired once, at push 60 (A's 50, then B's 10th).
        assert_eq!(eng.snapshots().len(), 1);
        eng.snapshot();
        let manual = eng.snapshots().last().expect("the manual snapshot").clone();
        assert_eq!((manual.seen_a, manual.seen_b, manual.common), (50, 40, 40));
        assert_eq!(manual.resident, 10);
        assert_eq!(
            manual.running.kappa.to_bits(),
            eng.running_metrics().kappa.to_bits()
        );
        // The cadence counts from the manual snapshot: nothing 59 pushes
        // later, a snapshot at the 60th.
        eng.push_burst(Side::B, &b.observations()[40..99]);
        assert_eq!(eng.snapshots().len(), 2);
        eng.push_burst(Side::B, &b.observations()[99..]);
        let trail = eng.snapshots();
        assert_eq!(trail.len(), 3);
        assert_eq!((trail[1].seen_a, trail[1].seen_b), (50, 40));
        assert_eq!(
            (trail[2].seen_a, trail[2].seen_b, trail[2].common),
            (50, 100, 50)
        );
    }

    #[test]
    fn running_metrics_are_sane_mid_stream() {
        let (a, b) = jittered_pair(200);
        let mut eng = IncrementalComparison::new(StreamConfig::default());
        eng.push_burst(Side::A, &a.observations()[..100]);
        eng.push_burst(Side::B, &b.observations()[..100]);
        let m = eng.running_metrics();
        assert!((0.0..=1.0).contains(&m.kappa));
        assert!(m.u >= 0.0 && m.o >= 0.0 && m.l >= 0.0 && m.i >= 0.0);
    }

    #[test]
    fn duplicates_match_occurrence_wise_like_batch() {
        // Same identity several times on each side, asymmetric counts.
        let mut a = Trial::new();
        let mut b = Trial::new();
        for k in 0..5u64 {
            a.push_tagged(0, 0, 7, k * 100);
        }
        for k in 0..3u64 {
            b.push_tagged(0, 0, 7, k * 110);
        }
        let batch = PairAnalyzer::new(&a, &b).label("B").analyze();
        let out = stream_in_chunks(&a, &b, 2, StreamConfig::default());
        assert_eq!(out.comparison.bits(), batch.bits());
        assert_eq!(out.comparison.common, 3);
        assert_eq!(out.comparison.missing, 2);
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let (a, b) = jittered_pair(120);
        let cfg = StreamConfig {
            snapshot_every: 50,
            ..StreamConfig::default()
        };
        let out = stream_in_chunks(&a, &b, 10, cfg);
        let snap = out.snapshots.first().expect("has snapshots");
        let json = serde_json::to_string(snap).unwrap();
        let back: KappaSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.seen_a, snap.seen_a);
        assert_eq!(back.running.kappa.to_bits(), snap.running.kappa.to_bits());
        assert_eq!(back.common, snap.common);
    }

    /// Flatten a chunked interleave into a single event sequence so a
    /// checkpoint cut can land at *any* global position.
    fn interleave(a: &Trial, b: &Trial, chunk: usize) -> Vec<(Side, Observation)> {
        let (oa, ob) = (a.observations(), b.observations());
        let (mut ia, mut ib) = (0usize, 0usize);
        let mut ev = Vec::with_capacity(oa.len() + ob.len());
        while ia < oa.len() || ib < ob.len() {
            let hi = (ia + chunk).min(oa.len());
            ev.extend(oa[ia..hi].iter().map(|o| (Side::A, *o)));
            ia = hi;
            let hi = (ib + chunk).min(ob.len());
            ev.extend(ob[ib..hi].iter().map(|o| (Side::B, *o)));
            ib = hi;
        }
        ev
    }

    fn feed(eng: &mut IncrementalComparison, events: &[(Side, Observation)]) {
        for (side, o) in events {
            eng.push(*side, o.id, o.t_ps);
        }
    }

    fn assert_snapshots_identical(x: &[KappaSnapshot], y: &[KappaSnapshot]) {
        assert_eq!(x.len(), y.len(), "snapshot trail lengths differ");
        for (k, (s, t)) in x.iter().zip(y).enumerate() {
            assert_eq!(
                (s.seen_a, s.seen_b, s.common, s.resident),
                (t.seen_a, t.seen_b, t.common, t.resident),
                "snapshot {k} counters diverged"
            );
            for (name, a, b) in [
                ("kappa", s.running.kappa, t.running.kappa),
                ("u", s.running.u, t.running.u),
                ("o", s.running.o, t.running.o),
                ("l", s.running.l, t.running.l),
                ("i", s.running.i, t.running.i),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "snapshot {k} {name} diverged");
            }
        }
    }

    /// The side's observations among the first `k` events: the prefix of
    /// its log a rebuild at cut `k` reads.
    fn side_prefix(events: &[(Side, Observation)], side: Side) -> Vec<Observation> {
        events
            .iter()
            .filter(|(s, _)| *s == side)
            .map(|&(_, o)| o)
            .collect()
    }

    /// An engine rebuilt at cut `k` from `cursor` and the two prefixes.
    fn rebuilt_at(
        cursor: StreamCursor,
        id: u64,
        cfg: &StreamConfig,
        events: &[(Side, Observation)],
    ) -> Result<IncrementalComparison, ResumeMismatch> {
        let (a, b) = (side_prefix(events, Side::A), side_prefix(events, Side::B));
        IncrementalComparison::rebuild(cursor, id, cfg, &a, &b)
    }

    /// The recovery contract: cut at every k, checkpoint, resume, finish
    /// — bit-identical result *and* snapshot trail, with a JSON round
    /// trip of the checkpoint in the loop and a rebuild from the cursor
    /// and the prefixes. Encoding and decoding are inverses: each resumed
    /// engine checkpoints to the bytes of the checkpoint taken at the cut.
    fn check_every_cut(cfg: StreamConfig, n: u64, chunk: usize) {
        let (a, b) = jittered_pair(n);
        let events = interleave(&a, &b, chunk);
        let mut whole = IncrementalComparison::new(cfg);
        feed(&mut whole, &events);
        let want = whole.finalize("B");
        for k in 0..=events.len() {
            let mut head = IncrementalComparison::new(cfg);
            feed(&mut head, &events[..k]);
            // Round-trip through JSON at every cut: the serialized form
            // must carry the full state, not just the in-memory mirror.
            let json = serde_json::to_string(&head.checkpoint()).unwrap();
            let mut tail = IncrementalComparison::resume(serde_json::from_str(&json).unwrap());
            assert!(
                serde_json::to_string(&tail.checkpoint()).unwrap() == json,
                "cut {k}"
            );
            feed(&mut tail, &events[k..]);
            let got = tail.finalize("B");
            assert_eq!(got.comparison.bits(), want.comparison.bits());
            assert_eq!(got.peak_resident, want.peak_resident, "cut {k}");
            assert_snapshots_identical(&got.snapshots, &want.snapshots);

            let mut tail = rebuilt_at(head.cursor(), 0, &cfg, &events[..k]).unwrap();
            assert_eq!(tail.resident(), head.resident(), "cut {k}");
            feed(&mut tail, &events[k..]);
            let got = tail.finalize("B");
            assert_eq!(got.comparison.bits(), want.comparison.bits());
            assert_eq!(got.peak_resident, want.peak_resident, "cut {k}");
            assert_snapshots_identical(&got.snapshots, &want.snapshots);
        }
    }

    #[test]
    fn checkpoint_resume_bit_identical_at_every_cut() {
        let cfg = StreamConfig {
            snapshot_every: 17,
            ..StreamConfig::default()
        };
        check_every_cut(cfg, 60, 5);
    }

    #[test]
    fn checkpoint_is_non_destructive() {
        // The checkpointed engine keeps running and still matches the
        // uninterrupted result — cadence checkpointing must be free.
        let (a, b) = jittered_pair(120);
        let events = interleave(&a, &b, 7);
        let mut plain = IncrementalComparison::new(StreamConfig::default());
        feed(&mut plain, &events);
        let want = plain.finalize("B");
        let mut eng = IncrementalComparison::new(StreamConfig::default());
        for (k, (side, o)) in events.iter().enumerate() {
            if k % 11 == 0 {
                let _ = eng.checkpoint();
            }
            eng.push(*side, o.id, o.t_ps);
        }
        let got = eng.finalize("B");
        assert_eq!(got.comparison.bits(), want.comparison.bits());
    }

    #[test]
    fn checkpoint_bytes_are_deterministic() {
        // Two engines fed identically must serialize byte-identically
        // (pending identities are emitted in sorted order, not hash
        // order) — a supervisor may diff checkpoints to detect drift.
        let (a, b) = jittered_pair(80);
        let events = interleave(&a, &b, 4);
        let mk = || {
            let mut e = IncrementalComparison::new(StreamConfig::default());
            feed(&mut e, &events[..events.len() / 2]);
            serde_json::to_string(&e.checkpoint()).unwrap()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn resume_refuses_slabs_no_engine_writes() {
        // A sound mid-stream checkpoint, both slabs non-empty, shipped
        // whole through serde with one slab edited in transit: a ragged
        // `all_pairs`, a pending side that is neither A nor B, one
        // identity in two runs (its first run would be lost, `resident`
        // over-counted), one identity pending on both sides (its next
        // match would break occurrence order), and a latency delta
        // outside `i64` (no stamps below `MAX_TIMESTAMP_PS` make one).
        // `try_resume` refuses each with `Corrupt`, and `resume` panics,
        // both naming the slab, rather than build an engine from any.
        let (a, b) = jittered_pair(60);
        let mut eng = IncrementalComparison::new(StreamConfig::default());
        feed(&mut eng, &interleave(&a, &b, 9)[..70]);
        let ck = eng.checkpoint();
        assert!(ck.resident() > 0 && !ck.all_pairs.is_empty());
        let rec = |id: u128, side: u32| {
            let mut r = id.to_le_bytes().to_vec();
            r.extend_from_slice(&[1, 0, 0, 0]);
            r.extend_from_slice(&side.to_le_bytes());
            r.extend_from_slice(&[0; 16]);
            r
        };
        let with_pending = |recs: &[Vec<u8>]| StreamCheckpoint {
            pending: recs.concat(),
            ..ck.clone()
        };
        let mut ragged = ck.clone();
        ragged.all_pairs.push(0);
        // Pair 0's latency: high word 1 over its low word, 2^64 ps more.
        let mut wide = ck.clone();
        wide.all_pairs[8..16].copy_from_slice(&1i64.to_le_bytes());
        for (what, section, bad) in [
            ("ragged", "all_pairs", ragged),
            ("latency outside i64", "all_pairs", wide),
            ("side 7", "pending", with_pending(&[rec(5, 7)])),
            (
                "two runs",
                "pending",
                with_pending(&[rec(5, 0), rec(6, 0), rec(5, 0)]),
            ),
            (
                "both sides",
                "pending",
                with_pending(&[rec(5, 0), rec(5, 1), rec(6, 1)]),
            ),
        ] {
            let json = serde_json::to_string(&bad).unwrap();
            let shipped: StreamCheckpoint = serde_json::from_str(&json).unwrap();
            match IncrementalComparison::try_resume(shipped.clone()) {
                Err(CheckpointError::Corrupt { section: s, detail }) => {
                    assert_eq!(s, section, "{what}: {detail}")
                }
                other => panic!("{what}: {other:?}"),
            }
            let err = std::panic::catch_unwind(|| IncrementalComparison::resume(shipped))
                .expect_err(what);
            let said = err.downcast_ref::<String>().expect("a formatted panic");
            assert!(
                said.contains(&format!("section `{section}`")),
                "{what}: {said}"
            );
        }
        let sound: StreamCheckpoint =
            serde_json::from_str(&serde_json::to_string(&ck).unwrap()).unwrap();
        assert_eq!(
            IncrementalComparison::resume(sound).resident(),
            eng.resident()
        );
    }

    #[test]
    fn the_pending_map_hashes_an_identity_with_hash_id_alone() {
        // One keyed multiply a probe, the batch index's: the map's hash of
        // an identity is `hash_id`'s, with no second mix and no fixed key.
        use std::hash::BuildHasher;
        let map: IdMap<()> = IdMap::default();
        let tag = |seq: u64| PacketId::from_tag(&choir_packet::tag::ChoirTag::new(0, 1, seq));
        for id in [
            PacketId::from_u128(0),
            PacketId::from_u128(u128::MAX),
            PacketId::from_u128(7 << 64 | 7),
            tag(3),
            tag(3 | 1 << 16),
        ] {
            assert_eq!(
                map.hasher().hash_one(id),
                super::super::allpairs::hash_id(id)
            );
        }
    }

    #[test]
    fn rebuild_refuses_foreign_engine_id() {
        let (a, b) = jittered_pair(30);
        let events = interleave(&a, &b, 3);
        let cfg = StreamConfig::default();
        let mut eng = IncrementalComparison::new(cfg).with_engine_id(7);
        feed(&mut eng, &events[..15]);
        match rebuilt_at(eng.cursor(), 9, &cfg, &events[..15]) {
            Err(ResumeMismatch::EngineId { expected, found }) => {
                assert_eq!((expected, found), (9, 7));
            }
            other => panic!("expected EngineId mismatch, got {other:?}"),
        }
    }

    #[test]
    fn default_fingerprint_is_pinned_across_commits() {
        // Cursors and checkpoints record it and `rebuild` compares it, so it
        // moves only on purpose. Read at 59c7aac, when it also hashed
        // κ's then-configurable weights and scalings.
        assert_eq!(StreamConfig::default().fingerprint(), 0x0951_ca9b_37e1_e6e1);
    }

    #[test]
    fn rebuild_refuses_foreign_config() {
        let (a, b) = jittered_pair(30);
        let events = interleave(&a, &b, 3);
        let cfg = StreamConfig::default();
        let mut eng = IncrementalComparison::new(cfg).with_engine_id(7);
        feed(&mut eng, &events[..15]);
        let other_cfg = StreamConfig {
            snapshot_every: 8,
            ..cfg
        };
        assert_ne!(cfg.fingerprint(), other_cfg.fingerprint());
        match rebuilt_at(eng.cursor(), 7, &other_cfg, &events[..15]) {
            Err(ResumeMismatch::Config { expected, found }) => {
                assert_eq!(expected, other_cfg.fingerprint());
                assert_eq!(found, cfg.fingerprint());
            }
            other => panic!("expected Config mismatch, got {other:?}"),
        }
    }

    #[test]
    fn rebuild_accepts_matching_pair_bit_identically() {
        let (a, b) = jittered_pair(60);
        let events = interleave(&a, &b, 5);
        let cfg = StreamConfig {
            snapshot_every: 17,
            ..StreamConfig::default()
        };
        let mut whole = IncrementalComparison::new(cfg).with_engine_id(42);
        feed(&mut whole, &events);
        let want = whole.finalize("B");
        let mut head = IncrementalComparison::new(cfg).with_engine_id(42);
        feed(&mut head, &events[..31]);
        let json = serde_json::to_string(&head.cursor()).unwrap();
        let cursor: StreamCursor = serde_json::from_str(&json).unwrap();
        let mut tail = rebuilt_at(cursor, 42, &cfg, &events[..31]).expect("matching pair rebuilds");
        assert_eq!(tail.engine_id(), 42);
        feed(&mut tail, &events[31..]);
        let got = tail.finalize("B");
        assert_eq!(got.comparison.bits(), want.comparison.bits());
        assert_snapshots_identical(&got.snapshots, &want.snapshots);
    }

    #[test]
    fn rebuild_refuses_a_prefix_of_another_length() {
        let (a, b) = jittered_pair(60);
        let events = interleave(&a, &b, 5);
        let cfg = StreamConfig::default();
        let mut eng = IncrementalComparison::new(cfg);
        feed(&mut eng, &events[..40]);
        let (pa, pb) = (
            side_prefix(&events[..40], Side::A),
            side_prefix(&events[..40], Side::B),
        );
        for (side, a, b) in [
            (Side::A, &pa[..pa.len() - 1], &pb[..]),
            (Side::B, &pa[..], &b.observations()[..pb.len() + 1]),
        ] {
            let got = IncrementalComparison::rebuild(eng.cursor(), 0, &cfg, a, b);
            let (expected, found) = match side {
                Side::A => (pa.len(), pa.len() - 1),
                Side::B => (pb.len(), pb.len() + 1),
            };
            assert_eq!(
                got.map(|_| ()),
                Err(ResumeMismatch::Prefix {
                    side,
                    expected,
                    found
                })
            );
        }
    }

    /// Feed `(side, identity)` pushes one at a time, and check every run
    /// compaction: the search that took the entry left the hint on it, and
    /// after the compaction the hint indexes the first live entry at or
    /// after that one, or the run's end if none is left. Returns how many
    /// compactions there were.
    fn hint_follows_its_entry_across_compactions(pushes: &[(Side, u64)]) -> usize {
        let mut eng = IncrementalComparison::new(StreamConfig::default());
        let mut compactions = 0;
        for (k, &(side, i)) in pushes.iter().enumerate() {
            let (id, run) = (PacketId::from_u128(i.into()), &eng.runs[1 - side.index()]);
            // Only a push that takes the entry past half the run compacts.
            let before: Option<Vec<(PacketId, bool)>> = (2 * (run.taken + 1) > run.entries.len())
                .then(|| run.entries.iter().map(|(id, o)| (*id, o.taken)).collect());
            eng.push(side, id, k as u64 * 1_000);
            let run = &eng.runs[1 - side.index()];
            assert!(!run.hashed, "push {k}: the feed's identities increase");
            let Some(before) = before.filter(|b| run.entries.len() < b.len()) else {
                continue;
            };
            compactions += 1;
            let at = (before.iter()).position(|e| e.0 == id).expect("taken here");
            let next = (before[at + 1..].iter()).find(|e| !e.1).map(|e| e.0);
            let want = next.map_or(run.entries.len(), |next| {
                (run.entries.iter())
                    .position(|e| e.0 == next)
                    .expect("kept")
            });
            assert_eq!(run.hint, want, "push {k}: compaction after taking {i}");
        }
        compactions
    }

    #[test]
    fn a_runs_hint_follows_its_entry_across_every_compaction() {
        const N: u64 = 4_096;
        let side = |side: Side, ids: &mut dyn Iterator<Item = u64>| -> Vec<(Side, u64)> {
            ids.map(|i| (side, i)).collect()
        };
        let whole = [side(Side::A, &mut (0..N)), side(Side::B, &mut (0..N))].concat();
        let lock_step: Vec<(Side, u64)> = (0..N / 128)
            .flat_map(|c| {
                let ids = c * 128..(c + 1) * 128;
                [
                    side(Side::A, &mut ids.clone()),
                    side(Side::B, &mut ids.clone()),
                ]
                .concat()
            })
            .collect();
        let reversed = [side(Side::A, &mut (0..N)), side(Side::B, &mut (0..N).rev())].concat();
        for (feed, pushes) in [
            ("whole side", whole),
            ("128-record lock step", lock_step),
            ("reversed", reversed),
        ] {
            let compactions = hint_follows_its_entry_across_compactions(&pushes);
            assert!(compactions > 0, "{feed}: no run compacted");
        }
    }

    #[test]
    fn rebuild_refuses_records_that_changed_under_the_cursor() {
        // One stamp moved by 1 ps, on either side, anywhere in the
        // prefix: the lengths match, the re-fed state does not.
        let (a, b) = jittered_pair(60);
        let events = interleave(&a, &b, 5);
        let cfg = StreamConfig::default();
        let mut eng = IncrementalComparison::new(cfg);
        feed(&mut eng, &events[..70]);
        let prefixes = [Side::A, Side::B].map(|side| side_prefix(&events[..70], side));
        for (s, side) in prefixes.iter().enumerate() {
            for at in 0..side.len() {
                let mut moved = prefixes.clone();
                moved[s][at].t_ps += 1;
                let got =
                    IncrementalComparison::rebuild(eng.cursor(), 0, &cfg, &moved[0], &moved[1]);
                assert!(
                    matches!(got, Err(ResumeMismatch::Diverged { .. })),
                    "side {s} record {at}: {:?}",
                    got.map(|_| ())
                );
            }
        }
    }
}
