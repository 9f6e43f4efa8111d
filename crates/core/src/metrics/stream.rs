//! The streaming incremental-κ engine.
//!
//! The paper computes κ post-hoc over complete capture pairs; this module
//! scores consistency *while packets arrive*. [`IncrementalComparison`]
//! consumes observations (or bursts) from two trials as they stream in,
//! maintains an online occurrence-wise matching plus running U/O/L/I
//! accumulators, and emits periodic [`KappaSnapshot`]s. `finalize`
//! returns the same [`TrialComparison`] type as the batch analyzers.
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
//! - Histograms and the within-10 ns count are multiset functions of the
//!   deltas.
//! - Only O and the edit-script statistics are order-sensitive; they are
//!   produced at finalize by running the production LIS kernel
//!   (`ordering_arena`) over the matched pairs sorted into B arrival
//!   order — the identical permutation the batch path sees.
//!
//! An unmatched observation stays resident until its counterpart arrives
//! or the stream ends; nothing is evicted. Residency therefore follows
//! the skew between the two feeds plus the packets one side lost, not
//! the stream length (measured at paper scale in DESIGN.md §12.3).
//!
//! ## Checkpoint / resume
//!
//! [`IncrementalComparison::checkpoint`] serializes the engine's *entire*
//! algorithmic state — FIFO matching cursors, 128-bit accumulators,
//! matched pairs, slice, and snapshot trail — into a
//! [`StreamCheckpoint`], and [`IncrementalComparison::resume`] rebuilds a
//! live engine from one. The hard contract (tested exhaustively,
//! DESIGN.md §13): feeding records `0..k`, checkpointing, resuming, and
//! feeding `k..n` is bit-identical (`f64::to_bits`) to an uninterrupted
//! run — at **every** cut point `k`, including through a `serde_json`
//! round trip of the checkpoint itself.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::io::{Read, Write};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::obs;
use choir_packet::ident::PacketId;

use super::histogram::DeltaHistogram;
use super::iat::normalize_i;
use super::kappa::{ConsistencyMetrics, KappaConfig};
use super::latency::normalize_l;
use super::matching::{MatchedPair, Matching};
use super::ordering::{block_move_distance, normalize_o, ordering_arena};
use super::pair::PairScratch;
use super::report::{abs_percentiles_ns_bits, StageTimings, TrialComparison};
use super::trial::Observation;
use super::uniqueness::normalize_u;
use super::windowed::WindowScore;

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

/// A checkpoint refused by [`IncrementalComparison::resume_checked`]:
/// the caller paired a checkpoint with the wrong engine or the wrong
/// configuration. Before this error existed the engine would silently
/// resume under whatever `KappaConfig` the checkpoint carried — which is
/// exactly what a supervisor juggling many tenants' checkpoints gets
/// wrong first (engine 7's checkpoint fed engine 12's journal scores a
/// garbage κ with full confidence).
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
    /// resuming under (hashes of snapshot cadence and every κ
    /// weight/scaling).
    Config {
        /// [`StreamConfig::fingerprint`] of the caller's configuration.
        expected: u64,
        /// Fingerprint recorded in (or recomputed from) the checkpoint.
        found: u64,
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
        }
    }
}

impl std::error::Error for ResumeMismatch {}

/// Configuration of one incremental comparison. The default is no
/// automatic snapshots and the paper's κ weights
/// (`KappaConfig::default()` == `KappaConfig::paper()`).
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
    /// observations (both sides counted). 0 = only explicit
    /// [`IncrementalComparison::snapshot_now`] calls.
    pub snapshot_every: u64,
    /// κ configuration applied to running and final scores.
    pub kappa: KappaConfig,
}

impl StreamConfig {
    /// A 64-bit fingerprint of everything that shapes the measurement:
    /// the snapshot cadence and every κ weight and
    /// scaling (by exact `f64` bit pattern — two configs that differ in
    /// the last ulp are different measurements). Recorded in every
    /// [`StreamCheckpoint`] and verified by
    /// [`IncrementalComparison::resume_checked`].
    pub fn fingerprint(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            // SplitMix64 step over the running hash xor the value.
            let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn mix_scaling(h: u64, s: &super::kappa::Scaling) -> u64 {
            use super::kappa::Scaling;
            match s {
                Scaling::Linear => mix(h, 1),
                Scaling::Sqrt => mix(h, 2),
                Scaling::Power(p) => mix(mix(h, 3), p.to_bits()),
                Scaling::Presence { floor } => mix(mix(h, 4), floor.to_bits()),
            }
        }
        let mut h = mix(0, self.snapshot_every);
        let k = &self.kappa;
        for w in [k.w_u, k.w_o, k.w_l, k.w_i] {
            h = mix(h, w.to_bits());
        }
        for s in [&k.s_u, &k.s_o, &k.s_l, &k.s_i] {
            h = mix_scaling(h, s);
        }
        h
    }
}

/// A periodic progress report: running totals, the running κ, and a
/// [`WindowScore`] over the slice since the previous snapshot (the same
/// shape [`super::windowed`] emits, so snapshot trails and windowed
/// series render through the same tooling).
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
    /// Score of just the slice since the previous snapshot.
    pub window: WindowScore,
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
// Checkpoint / resume
//
// The vendored serde data model carries at most 64-bit integers, so the
// engine's u128/i128 accumulators and `PacketId(u128)` identities are
// split into (hi, lo) halves; everything else mirrors the live state
// field-for-field.
// ---------------------------------------------------------------------

fn split_u128(v: u128) -> (u64, u64) {
    ((v >> 64) as u64, v as u64)
}

fn join_u128(hi: u64, lo: u64) -> u128 {
    ((hi as u128) << 64) | lo as u128
}

fn split_i128(v: i128) -> (i64, u64) {
    ((v >> 64) as i64, v as u64)
}

fn join_i128(hi: i64, lo: u64) -> i128 {
    ((hi as i128) << 64) | lo as i128
}

/// Serialized mirror of [`SideState`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SideCk {
    len: u64,
    first_t_ps: u64,
    prev_t_ps: u64,
    min_t_ps: u64,
    max_t_ps: u64,
}

/// Serialized mirror of [`PendingObs`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ObsCk {
    pos: u32,
    t_ps: u64,
    gap_ps: i64,
}

/// One identity's pending FIFO queues, with the `PacketId(u128)` split
/// into 64-bit halves.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PendingIdCk {
    id_hi: u64,
    id_lo: u64,
    a: Vec<ObsCk>,
    b: Vec<ObsCk>,
}

/// Serialized mirror of [`PairRec`] (`d_lat_ps: i128` split).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PairCk {
    a_pos: u32,
    b_pos: u32,
    d_lat_hi: i64,
    d_lat_lo: u64,
    d_iat_ps: i64,
}

/// Serialized mirror of [`SliceState`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SliceCk {
    a_pushed: u64,
    b_pushed: u64,
    pairs: Vec<PairCk>,
    lat_num: (u64, u64),
    iat_num: (u64, u64),
    a_lo: u32,
    a_hi: u32,
}

/// A complete, serializable snapshot of an [`IncrementalComparison`]'s
/// algorithmic state. Opaque by design: produce one with
/// [`IncrementalComparison::checkpoint`], turn it back into a live
/// engine with [`IncrementalComparison::resume`], and ship it across a
/// crash boundary the way the κ daemon does: bulk vectors as binary
/// slabs ([`StreamCheckpoint::write_to`] / [`StreamCheckpoint::read_from`]),
/// the remainder through its serde form (both round trips are bit-exact;
/// see the module docs). Wall-clock timings are *not* part of a
/// checkpoint — a resumed run re-measures its own stage timings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamCheckpoint {
    /// [`CHECKPOINT_FORMAT`] of the writer. Absent — so 0 — in every
    /// file written before the field existed; [`Self::read_from`]
    /// refuses any other value than its own before it reads a slab.
    #[serde(default)]
    format: u32,
    /// Caller-assigned identity of the engine that took this checkpoint
    /// (0 when never set). Verified by
    /// [`IncrementalComparison::resume_checked`].
    #[serde(default)]
    engine_id: u64,
    /// [`StreamConfig::fingerprint`] at checkpoint time.
    #[serde(default)]
    config_hash: u64,
    snapshot_every: u64,
    kappa: KappaConfig,
    side_a: SideCk,
    side_b: SideCk,
    pending: Vec<PendingIdCk>,
    tick: u64,
    peak_resident: u64,
    matched: u64,
    lat_num: (u64, u64),
    iat_num: (u64, u64),
    within_10ns: u64,
    iat_hist: DeltaHistogram,
    lat_hist: DeltaHistogram,
    all_pairs: Vec<PairCk>,
    slice: SliceCk,
    last_snapshot_tick: u64,
    snapshots: Vec<KappaSnapshot>,
}

impl StreamCheckpoint {
    /// Global push counter at checkpoint time (observations consumed
    /// across both sides) — the replay cursor a supervisor needs to know
    /// where to re-feed from.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Caller-assigned engine identity recorded at checkpoint time (0
    /// when the engine was never tagged).
    pub fn engine_id(&self) -> u64 {
        self.engine_id
    }

    /// Configuration fingerprint recorded at checkpoint time.
    pub fn config_hash(&self) -> u64 {
        self.config_hash
    }

    /// Observations pushed on side A at checkpoint time.
    pub fn seen_a(&self) -> usize {
        self.side_a.len as usize
    }

    /// Observations pushed on side B at checkpoint time.
    pub fn seen_b(&self) -> usize {
        self.side_b.len as usize
    }

    /// Unmatched observations resident in the checkpoint.
    pub fn resident(&self) -> usize {
        self.pending.iter().map(|p| p.a.len() + p.b.len()).sum()
    }

    /// Move the bulk vectors (matched pairs, slice pairs, pending
    /// observations) out of the checkpoint into `w` as three
    /// checksummed little-endian slabs ([`write_section`]), and
    /// return what is left: every scalar, histogram and the trail, small
    /// enough to serialize through serde as before. A checkpoint's size
    /// is its bulk — 32 bytes per matched pair here against ~90 as JSON
    /// through the `Content` tree. [`Self::read_from`] is the inverse.
    pub fn write_to(mut self, w: &mut impl Write) -> std::io::Result<Self> {
        let mut raw = Vec::new();
        for pairs in [&self.all_pairs, &self.slice.pairs] {
            raw.clear();
            raw.reserve(pairs.len() * PAIR_BYTES);
            for p in pairs {
                raw.extend_from_slice(&p.a_pos.to_le_bytes());
                raw.extend_from_slice(&p.b_pos.to_le_bytes());
                raw.extend_from_slice(&p.d_lat_hi.to_le_bytes());
                raw.extend_from_slice(&p.d_lat_lo.to_le_bytes());
                raw.extend_from_slice(&p.d_iat_ps.to_le_bytes());
            }
            write_section(w, &raw)?;
        }
        raw.clear();
        raw.reserve(self.resident() * PENDING_BYTES);
        for e in &self.pending {
            let id = join_u128(e.id_hi, e.id_lo).to_le_bytes();
            for (side, q) in [(0u32, &e.a), (1u32, &e.b)] {
                for o in q {
                    raw.extend_from_slice(&id);
                    raw.extend_from_slice(&o.pos.to_le_bytes());
                    raw.extend_from_slice(&side.to_le_bytes());
                    raw.extend_from_slice(&o.t_ps.to_le_bytes());
                    raw.extend_from_slice(&o.gap_ps.to_le_bytes());
                }
            }
        }
        write_section(w, &raw)?;
        self.all_pairs = Vec::new();
        self.slice.pairs = Vec::new();
        self.pending = Vec::new();
        Ok(self)
    }

    /// Re-attach the bulk vectors [`Self::write_to`] moved out. `self`
    /// is the remainder `write_to` returned (possibly after a serde
    /// round trip). The slabs are positional, so a remainder that does
    /// not name this layout ([`CHECKPOINT_FORMAT`]) is refused before a
    /// byte of `r` is read. Truncated, ragged or bit-flipped input is a
    /// typed error; nothing is allocated for bytes the input does not
    /// hold.
    pub fn read_from(mut self, r: &mut impl Read) -> Result<Self, CheckpointError> {
        if self.format != CHECKPOINT_FORMAT {
            return Err(CheckpointError::Format {
                found: self.format,
                expected: CHECKPOINT_FORMAT,
            });
        }
        let mut pairs = |section| -> Result<Vec<PairCk>, CheckpointError> {
            let raw = read_section(r, section)?;
            let recs = records::<PAIR_BYTES>(&raw, section)?;
            Ok(recs
                .map(|b| PairCk {
                    a_pos: u32::from_le_bytes(le(b, 0)),
                    b_pos: u32::from_le_bytes(le(b, 4)),
                    d_lat_hi: i64::from_le_bytes(le(b, 8)),
                    d_lat_lo: u64::from_le_bytes(le(b, 16)),
                    d_iat_ps: i64::from_le_bytes(le(b, 24)),
                })
                .collect())
        };
        self.all_pairs = pairs("all_pairs")?;
        self.slice.pairs = pairs("slice.pairs")?;
        let raw = read_section(r, "pending")?;
        // Records of one identity are adjacent (side A's queue, then
        // side B's), identities ascending, as `checkpoint` emits them.
        for b in records::<PENDING_BYTES>(&raw, "pending")? {
            let (id_hi, id_lo) = split_u128(u128::from_le_bytes(le(b, 0)));
            let o = ObsCk {
                pos: u32::from_le_bytes(le(b, 16)),
                t_ps: u64::from_le_bytes(le(b, 24)),
                gap_ps: i64::from_le_bytes(le(b, 32)),
            };
            if self
                .pending
                .last()
                .is_none_or(|e| (e.id_hi, e.id_lo) != (id_hi, id_lo))
            {
                self.pending.push(PendingIdCk {
                    id_hi,
                    id_lo,
                    a: Vec::new(),
                    b: Vec::new(),
                });
            }
            let e = self.pending.last_mut().expect("pushed above");
            match u32::from_le_bytes(le(b, 20)) {
                0 => e.a.push(o),
                1 => e.b.push(o),
                side => {
                    return Err(CheckpointError::Corrupt {
                        section: "pending",
                        detail: format!("side {side} is neither A (0) nor B (1)"),
                    })
                }
            }
        }
        Ok(self)
    }
}

/// Bytes of one [`PairCk`] in a slab: `a_pos`, `b_pos` (u32), the i128
/// latency delta as `hi` (i64) and `lo` (u64), `d_iat_ps` (i64).
const PAIR_BYTES: usize = 32;
/// Bytes of one pending observation in a slab: identity (u128), `pos`
/// and side (u32 each), `t_ps` (u64), `gap_ps` (i64).
const PENDING_BYTES: usize = 40;

/// The checkpoint layout this build writes and reads: which slabs follow
/// the serde remainder, in what order, at what record size. 0 is every
/// file written before checkpoints named their format (four slabs,
/// 48-byte pending records).
pub const CHECKPOINT_FORMAT: u32 = 1;

/// A binary checkpoint that cannot be read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// The reader failed.
    Io(std::io::Error),
    /// The remainder was written under a different slab layout.
    Format {
        /// Format the remainder names (0 if it names none).
        found: u32,
        /// [`CHECKPOINT_FORMAT`] of this build.
        expected: u32,
    },
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
            CheckpointError::Format { found, expected } => write!(
                f,
                "checkpoint is in format {found}, this build reads format {expected}"
            ),
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
/// `section_sum`. Every part of a checkpoint file — a slab here, the
/// daemon's JSON metadata — is one of these.
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

/// A slab's fixed-size records, or `Corrupt` if it is ragged.
fn records<'a, const N: usize>(
    raw: &'a [u8],
    section: &'static str,
) -> Result<impl Iterator<Item = &'a [u8; N]>, CheckpointError> {
    if !raw.len().is_multiple_of(N) {
        return Err(CheckpointError::Corrupt {
            section,
            detail: format!(
                "{} bytes is not a whole number of {N}-byte records",
                raw.len()
            ),
        });
    }
    Ok(raw
        .chunks_exact(N)
        .map(|c| c.try_into().expect("chunks_exact yields N bytes")))
}

/// `N` bytes of a record starting at `at`.
fn le<const N: usize>(b: &[u8], at: usize) -> [u8; N] {
    b[at..at + N]
        .try_into()
        .expect("field lies inside its record")
}

impl SideCk {
    fn of(s: &SideState) -> Self {
        SideCk {
            len: s.len as u64,
            first_t_ps: s.first_t_ps,
            prev_t_ps: s.prev_t_ps,
            min_t_ps: s.min_t_ps,
            max_t_ps: s.max_t_ps,
        }
    }

    fn restore(&self) -> SideState {
        SideState {
            len: self.len as usize,
            first_t_ps: self.first_t_ps,
            prev_t_ps: self.prev_t_ps,
            min_t_ps: self.min_t_ps,
            max_t_ps: self.max_t_ps,
        }
    }
}

impl ObsCk {
    fn of(o: &PendingObs) -> Self {
        ObsCk {
            pos: o.pos,
            t_ps: o.t_ps,
            gap_ps: o.gap_ps,
        }
    }

    fn restore(&self) -> PendingObs {
        PendingObs {
            pos: self.pos,
            t_ps: self.t_ps,
            gap_ps: self.gap_ps,
        }
    }
}

impl PairCk {
    fn of(p: &PairRec) -> Self {
        let (d_lat_hi, d_lat_lo) = split_i128(p.d_lat_ps);
        PairCk {
            a_pos: p.a_pos,
            b_pos: p.b_pos,
            d_lat_hi,
            d_lat_lo,
            d_iat_ps: p.d_iat_ps,
        }
    }

    fn restore(&self) -> PairRec {
        PairRec {
            a_pos: self.a_pos,
            b_pos: self.b_pos,
            d_lat_ps: join_i128(self.d_lat_hi, self.d_lat_lo),
            d_iat_ps: self.d_iat_ps,
        }
    }
}

/// Per-side incremental statistics (the streaming mirror of what
/// `Trial::start_ps`/`minmax_span_ps`/`gap_ps` provide in batch).
#[derive(Debug, Clone, Copy, Default)]
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

/// An observation waiting for its counterpart on the other side.
#[derive(Debug, Clone, Copy)]
struct PendingObs {
    pos: u32,
    t_ps: u64,
    gap_ps: i64,
}

/// FIFO queues of pending occurrences of one identity, one per side. At
/// most one side is non-empty at any time (two non-empty sides would
/// have matched).
#[derive(Debug, Default)]
struct IdQueues {
    a: VecDeque<PendingObs>,
    b: VecDeque<PendingObs>,
}

/// The engine's per-identity maps hash with fixed keys. No result reads
/// their iteration order (checkpoints sort), but the heap does: with
/// `RandomState` every process walks, checkpoints and drops the same
/// 50 000 identities in a different order, and what the allocator keeps
/// afterwards differed by ± 13 MB of peak RSS between two runs of one
/// daemon session. Identities are hashed with a fixed function on the
/// batch side already (`TrialIndex`).
type IdMap<V> = HashMap<PacketId, V, BuildHasherDefault<DefaultHasher>>;

/// One matched pair as recorded at match time (global positions plus the
/// exact integer deltas).
#[derive(Debug, Clone, Copy)]
struct PairRec {
    a_pos: u32,
    b_pos: u32,
    d_lat_ps: i128,
    d_iat_ps: i64,
}

/// Accumulators for the slice between two snapshots.
#[derive(Debug)]
struct SliceState {
    a_pushed: usize,
    b_pushed: usize,
    pairs: Vec<PairRec>,
    lat_num: u128,
    iat_num: u128,
    a_lo: u32,
    a_hi: u32,
}

impl SliceState {
    fn new() -> Self {
        SliceState {
            a_pushed: 0,
            b_pushed: 0,
            pairs: Vec::new(),
            lat_num: 0,
            iat_num: 0,
            a_lo: u32::MAX,
            a_hi: 0,
        }
    }
}

/// True when a run of matched pairs, taken as recorded (match order), is
/// strictly increasing in both coordinates. B order is then the order
/// given and the A ranks along it are the identity permutation, so the
/// run's edit script is empty — what the LIS kernel would conclude after
/// a copy, a sort and a Fenwick pass. A stream that kept its order
/// matches in that order, so every snapshot of one stops here; the scan
/// ends at the first pair that breaks it.
fn order_preserving(pairs: &[PairRec]) -> bool {
    pairs
        .windows(2)
        .all(|w| w[0].a_pos < w[1].a_pos && w[0].b_pos < w[1].b_pos)
}

/// Total edit-script move distance of a run of matched pairs.
fn segment_move_distance(pairs: &[PairRec]) -> u128 {
    if order_preserving(pairs) {
        return 0;
    }
    block_move_distance(pairs.iter().map(|p| (p.a_pos, p.b_pos)).collect())
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
    pending: IdMap<IdQueues>,
    tick: u64,
    resident: usize,
    peak_resident: usize,
    matched: usize,
    lat_num: u128,
    iat_num: u128,
    within_10ns: usize,
    iat_hist: DeltaHistogram,
    lat_hist: DeltaHistogram,
    /// Every matched pair, in match order, for running O and finalize.
    all_pairs: Vec<PairRec>,
    slice: SliceState,
    last_snapshot_tick: u64,
    snapshots: Vec<KappaSnapshot>,
    /// Caller-assigned identity recorded into every checkpoint so that
    /// [`IncrementalComparison::resume_checked`] can refuse a checkpoint
    /// that belongs to a different engine. `0` means "unassigned".
    engine_id: u64,
}

impl IncrementalComparison {
    /// A fresh engine.
    pub fn new(cfg: StreamConfig) -> Self {
        IncrementalComparison {
            cfg,
            sides: [SideState::default(), SideState::default()],
            pending: IdMap::default(),
            tick: 0,
            resident: 0,
            peak_resident: 0,
            matched: 0,
            lat_num: 0,
            iat_num: 0,
            within_10ns: 0,
            iat_hist: DeltaHistogram::new(),
            lat_hist: DeltaHistogram::new(),
            all_pairs: Vec::new(),
            slice: SliceState::new(),
            last_snapshot_tick: 0,
            snapshots: Vec::new(),
            engine_id: 0,
        }
    }

    /// Tag this engine with a caller-assigned identity. The id is
    /// recorded in every checkpoint; [`Self::resume_checked`] refuses a
    /// checkpoint whose id differs from the one the caller expects.
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
        self.matched
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
    /// checkpoint on a cadence while streaming. Pending identities are
    /// emitted in `PacketId` order, so identical states produce
    /// byte-identical checkpoints regardless of hash-map iteration order.
    pub fn checkpoint(&self) -> StreamCheckpoint {
        let _span = obs::span("recover.checkpoint");
        let mut pending: Vec<PendingIdCk> = self
            .pending
            .iter()
            .map(|(id, q)| {
                let (id_hi, id_lo) = split_u128(id.0);
                PendingIdCk {
                    id_hi,
                    id_lo,
                    a: q.a.iter().map(ObsCk::of).collect(),
                    b: q.b.iter().map(ObsCk::of).collect(),
                }
            })
            .collect();
        pending.sort_unstable_by_key(|p| (p.id_hi, p.id_lo));
        if obs::is_enabled() {
            obs::counter_inc("recover.checkpoints");
        }
        StreamCheckpoint {
            format: CHECKPOINT_FORMAT,
            engine_id: self.engine_id,
            config_hash: self.cfg.fingerprint(),
            snapshot_every: self.cfg.snapshot_every,
            kappa: self.cfg.kappa,
            side_a: SideCk::of(&self.sides[0]),
            side_b: SideCk::of(&self.sides[1]),
            pending,
            tick: self.tick,
            peak_resident: self.peak_resident as u64,
            matched: self.matched as u64,
            lat_num: split_u128(self.lat_num),
            iat_num: split_u128(self.iat_num),
            within_10ns: self.within_10ns as u64,
            iat_hist: self.iat_hist.clone(),
            lat_hist: self.lat_hist.clone(),
            all_pairs: self.all_pairs.iter().map(PairCk::of).collect(),
            slice: SliceCk {
                a_pushed: self.slice.a_pushed as u64,
                b_pushed: self.slice.b_pushed as u64,
                pairs: self.slice.pairs.iter().map(PairCk::of).collect(),
                lat_num: split_u128(self.slice.lat_num),
                iat_num: split_u128(self.slice.iat_num),
                a_lo: self.slice.a_lo,
                a_hi: self.slice.a_hi,
            },
            last_snapshot_tick: self.last_snapshot_tick,
            snapshots: self.snapshots.clone(),
        }
    }

    /// Rebuild a live engine from a [`StreamCheckpoint`]; every
    /// downstream bit is what the uninterrupted run would have produced
    /// (the module-docs contract).
    pub fn resume(ck: StreamCheckpoint) -> Self {
        let _span = obs::span("recover.resume");
        let cfg = StreamConfig {
            snapshot_every: ck.snapshot_every,
            kappa: ck.kappa,
            ..Default::default()
        };
        let mut pending = IdMap::with_capacity_and_hasher(ck.pending.len(), Default::default());
        let mut resident = 0usize;
        for e in &ck.pending {
            let q = IdQueues {
                a: e.a.iter().map(ObsCk::restore).collect(),
                b: e.b.iter().map(ObsCk::restore).collect(),
            };
            resident += q.a.len() + q.b.len();
            pending.insert(PacketId(join_u128(e.id_hi, e.id_lo)), q);
        }
        if obs::is_enabled() {
            obs::counter_inc("recover.resumes");
        }
        IncrementalComparison {
            cfg,
            sides: [ck.side_a.restore(), ck.side_b.restore()],
            pending,
            tick: ck.tick,
            resident,
            peak_resident: ck.peak_resident as usize,
            matched: ck.matched as usize,
            lat_num: join_u128(ck.lat_num.0, ck.lat_num.1),
            iat_num: join_u128(ck.iat_num.0, ck.iat_num.1),
            within_10ns: ck.within_10ns as usize,
            iat_hist: ck.iat_hist,
            lat_hist: ck.lat_hist,
            all_pairs: ck.all_pairs.iter().map(PairCk::restore).collect(),
            slice: SliceState {
                a_pushed: ck.slice.a_pushed as usize,
                b_pushed: ck.slice.b_pushed as usize,
                pairs: ck.slice.pairs.iter().map(PairCk::restore).collect(),
                lat_num: join_u128(ck.slice.lat_num.0, ck.slice.lat_num.1),
                iat_num: join_u128(ck.slice.iat_num.0, ck.slice.iat_num.1),
                a_lo: ck.slice.a_lo,
                a_hi: ck.slice.a_hi,
            },
            last_snapshot_tick: ck.last_snapshot_tick,
            engine_id: ck.engine_id,
            snapshots: ck.snapshots,
        }
    }

    /// [`Self::resume`] with the pairing verified instead of trusted:
    /// refuses a checkpoint that was taken by a different engine
    /// (`engine_id` mismatch) or under a different [`StreamConfig`]
    /// (fingerprint mismatch), instead of silently resuming with the
    /// wrong `KappaConfig`.
    pub fn resume_checked(
        ck: StreamCheckpoint,
        engine_id: u64,
        cfg: &StreamConfig,
    ) -> Result<Self, ResumeMismatch> {
        if ck.engine_id != engine_id {
            return Err(ResumeMismatch::EngineId {
                expected: engine_id,
                found: ck.engine_id,
            });
        }
        let expected = cfg.fingerprint();
        if ck.config_hash != expected {
            return Err(ResumeMismatch::Config {
                expected,
                found: ck.config_hash,
            });
        }
        Ok(Self::resume(ck))
    }

    /// Feed one observation.
    pub fn push(&mut self, side: Side, id: PacketId, t_ps: u64) {
        let s = &mut self.sides[side.index()];
        assert!(s.len < u32::MAX as usize, "stream too large");
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
        self.tick += 1;
        match side {
            Side::A => self.slice.a_pushed += 1,
            Side::B => self.slice.b_pushed += 1,
        }

        let me = PendingObs { pos, t_ps, gap_ps };
        let q = self.pending.entry(id).or_default();
        let counterpart = match side {
            Side::A => q.b.pop_front(),
            Side::B => q.a.pop_front(),
        };
        match counterpart {
            Some(other) => {
                // The k-th occurrence of an identity on one side meets
                // the k-th on the other — the same occurrence-wise rule
                // as `Matching::build`, for any interleaving.
                if q.a.is_empty() && q.b.is_empty() {
                    self.pending.remove(&id);
                }
                self.resident -= 1;
                let (ap, bp) = match side {
                    Side::A => (me, other),
                    Side::B => (other, me),
                };
                self.record_match(ap, bp);
            }
            None => {
                match side {
                    Side::A => q.a.push_back(me),
                    Side::B => q.b.push_back(me),
                }
                self.resident += 1;
            }
        }
        self.peak_resident = self.peak_resident.max(self.resident);

        if self.cfg.snapshot_every > 0
            && self.tick - self.last_snapshot_tick >= self.cfg.snapshot_every
        {
            self.snapshot_now();
        }
    }

    /// Feed a burst of observations from one side (one `Ingest` frame's
    /// records, a whole trial).
    pub fn push_burst(&mut self, side: Side, observations: &[Observation]) {
        for o in observations {
            self.push(side, o.id, o.t_ps);
        }
    }

    fn record_match(&mut self, ap: PendingObs, bp: PendingObs) {
        // Both sides have pushed at least once by now, so the per-side
        // origins are final (a side's first push fixes them forever) —
        // identical operands to the batch kernels.
        let ta0 = self.sides[0].start_ps() as i128;
        let tb0 = self.sides[1].start_ps() as i128;
        let d_lat = (ap.t_ps as i128 - ta0) - (bp.t_ps as i128 - tb0);
        let d_iat = ap.gap_ps - bp.gap_ps;
        self.lat_num += d_lat.unsigned_abs();
        self.iat_num += d_iat.unsigned_abs() as u128;
        let d_iat_ns = d_iat as f64 / 1000.0;
        if d_iat_ns.abs() <= 10.0 {
            self.within_10ns += 1;
        }
        self.iat_hist.add(d_iat_ns);
        self.lat_hist.add(d_lat as f64 / 1000.0);
        self.matched += 1;

        let rec = PairRec {
            a_pos: ap.pos,
            b_pos: bp.pos,
            d_lat_ps: d_lat,
            d_iat_ps: d_iat,
        };
        self.slice.pairs.push(rec);
        self.slice.lat_num += d_lat.unsigned_abs();
        self.slice.iat_num += d_iat.unsigned_abs() as u128;
        self.slice.a_lo = self.slice.a_lo.min(ap.pos);
        self.slice.a_hi = self.slice.a_hi.max(ap.pos);

        self.all_pairs.push(rec);
    }

    /// L and I of `mc` matches with the given exact numerators, over the
    /// running whole-stream spans — the batch normalizers on the
    /// streamed operands.
    fn li_over_stream_spans(&self, mc: usize, lat_num: u128, iat_num: u128) -> (f64, f64) {
        let span_a = self.sides[0].minmax_span_ps();
        let span_b = self.sides[1].minmax_span_ps();
        (
            normalize_l(lat_num, mc, span_a, span_b),
            normalize_i(iat_num, mc, span_a, span_b),
        )
    }

    fn running_li(&self) -> (f64, f64) {
        self.li_over_stream_spans(self.matched, self.lat_num, self.iat_num)
    }

    fn running_o(&self) -> f64 {
        normalize_o(segment_move_distance(&self.all_pairs), self.matched)
    }

    /// Running κ and components over everything seen so far.
    pub fn running_metrics(&self) -> ConsistencyMetrics {
        let u = normalize_u(self.matched, self.sides[0].len + self.sides[1].len);
        let o = self.running_o();
        let (l, i) = self.running_li();
        self.cfg.kappa.combine(u, o, l, i)
    }

    fn slice_window_score(&self) -> WindowScore {
        let s = &self.slice;
        let mc = s.pairs.len();
        let total = s.a_pushed + s.b_pushed;
        // A slice's pairs may involve observations pushed before the
        // slice began (a pending A matched by a fresh B), so 2·mc can
        // exceed the slice's own push count — clamp at 0.
        let u = normalize_u(mc, total).max(0.0);
        let dist = segment_move_distance(&s.pairs);
        let o = normalize_o(dist, mc);
        // L/I numerators are slice-local but normalized by the running
        // whole-stream spans (a slice carries no self-contained origin):
        // each window scores its *contribution* to the global metrics,
        // unlike `windowed_kappa`'s re-zeroed sub-trials.
        let (l, i) = self.li_over_stream_spans(mc, s.lat_num, s.iat_num);
        WindowScore {
            index: self.snapshots.len(),
            a_range: if s.a_lo == u32::MAX {
                (0, 0)
            } else {
                (s.a_lo as usize, s.a_hi as usize + 1)
            },
            metrics: self.cfg.kappa.combine(u, o, l, i),
            common: mc,
        }
    }

    /// Take a snapshot now (also called automatically on the
    /// `snapshot_every` cadence). Resets the per-slice window.
    pub fn snapshot_now(&mut self) -> KappaSnapshot {
        let snap = KappaSnapshot {
            seen_a: self.sides[0].len,
            seen_b: self.sides[1].len,
            common: self.matched,
            resident: self.resident,
            running: self.running_metrics(),
            window: self.slice_window_score(),
        };
        self.slice = SliceState::new();
        self.last_snapshot_tick = self.tick;
        self.snapshots.push(snap.clone());
        snap
    }

    /// Finish the comparison: the exact batch result (see the module
    /// docs).
    pub fn finalize(mut self, label: impl Into<String>) -> StreamOutcome {
        let _span = obs::span("stream.finalize");
        let t0 = Instant::now();
        // Pairs were recorded in match order; restore B arrival order
        // (b_pos is unique, so the sort is deterministic) and dress them
        // as the synthetic Matching the batch kernels would have built.
        let mut pairs = std::mem::take(&mut self.all_pairs);
        pairs.sort_unstable_by_key(|p| p.b_pos);
        let m = Matching {
            pairs: pairs
                .iter()
                .map(|p| MatchedPair {
                    a_idx: p.a_pos as usize,
                    b_idx: p.b_pos as usize,
                })
                .collect(),
            a_len: self.sides[0].len,
            b_len: self.sides[1].len,
        };
        let t1 = Instant::now();
        // From here on, the stages `PairAnalyzer::analyze_arena` runs, on
        // operands the stream accumulated instead of an index.
        let mut s = PairScratch::new();
        let mc = m.common();
        let u = normalize_u(mc, m.a_len + m.b_len);
        let ord = ordering_arena(&m, &mut s.order);
        let t2 = Instant::now();
        let (l, i) = self.running_li();
        s.latency_deltas.extend(pairs.iter().map(|p| p.d_lat_ps as f64 / 1000.0));
        let t3 = Instant::now();
        s.iat_deltas.extend(pairs.iter().map(|p| p.d_iat_ps as f64 / 1000.0));
        let t4 = Instant::now();
        let metrics = self.cfg.kappa.combine(u, ord.o, l, i);
        let within = if mc == 0 {
            0.0
        } else {
            self.within_10ns as f64 / mc as f64
        };
        let iat_abs_percentiles_ns = abs_percentiles_ns_bits(&s.iat_deltas, &mut s.abs_bits);
        let latency_abs_percentiles_ns =
            abs_percentiles_ns_bits(&s.latency_deltas, &mut s.abs_bits);
        let t5 = Instant::now();

        if obs::is_enabled() {
            obs::counter_add("stream.full.packets_in", self.tick);
            obs::counter_add("stream.full.matched", self.matched as u64);
            obs::counter_add("stream.full.snapshots", self.snapshots.len() as u64);
            obs::gauge_max("stream.full.peak_resident", self.peak_resident as u64);
        }
        let comparison = TrialComparison {
            label: label.into(),
            metrics,
            a_len: m.a_len,
            b_len: m.b_len,
            common: mc,
            missing: m.missing_in_b(),
            extra: m.extra_in_b(),
            moved: ord.moved(),
            iat_within_10ns: within,
            iat_abs_percentiles_ns,
            latency_abs_percentiles_ns,
            edit_stats: ord.stats(),
            iat_hist: std::mem::take(&mut self.iat_hist),
            latency_hist: std::mem::take(&mut self.lat_hist),
            timings: StageTimings::from_marks([t0, t1, t2, t3, t4, t5]),
        };
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

    fn assert_bit_identical(x: &TrialComparison, y: &TrialComparison) {
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
            let out = stream_in_chunks(&a, &b, chunk, StreamConfig::default());
            assert_bit_identical(&out.comparison, &batch);
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
        assert_bit_identical(&out.comparison, &batch);
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
        // Trails are monotone in seen totals and windows index in order.
        for (k, s) in out.snapshots.iter().enumerate() {
            assert_eq!(s.window.index, k);
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
    fn manual_snapshot_resets_slice_window() {
        let mut a = Trial::new();
        let mut b = Trial::new();
        for i in 0..100u64 {
            a.push_tagged(0, 0, i, i * 1000);
            b.push_tagged(0, 0, i, i * 1000);
        }
        let mut eng = IncrementalComparison::new(StreamConfig::default());
        eng.push_burst(Side::A, &a.observations()[..50]);
        eng.push_burst(Side::B, &b.observations()[..50]);
        let s1 = eng.snapshot_now();
        assert_eq!(s1.window.common, 50);
        assert_eq!(s1.window.a_range, (0, 50));
        eng.push_burst(Side::A, &a.observations()[50..]);
        eng.push_burst(Side::B, &b.observations()[50..]);
        let s2 = eng.snapshot_now();
        assert_eq!(s2.window.common, 50, "slice must cover only the new half");
        assert_eq!(s2.window.a_range, (50, 100));
        assert_eq!(s2.window.index, 1);
        assert_eq!(eng.snapshots().len(), 2);
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
        assert_bit_identical(&out.comparison, &batch);
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
        assert_eq!(back.window.common, snap.window.common);
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
                ("w.kappa", s.window.metrics.kappa, t.window.metrics.kappa),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "snapshot {k} {name} diverged");
            }
            assert_eq!(s.window.index, t.window.index);
            assert_eq!(s.window.a_range, t.window.a_range);
            assert_eq!(s.window.common, t.window.common);
        }
    }

    /// The recovery contract: cut at every k, checkpoint, resume, finish
    /// — bit-identical result *and* snapshot trail, with a JSON round
    /// trip of the checkpoint in the loop.
    fn check_every_cut(cfg: StreamConfig, n: u64, chunk: usize) {
        let (a, b) = jittered_pair(n);
        let events = interleave(&a, &b, chunk);
        let mut whole = IncrementalComparison::new(cfg);
        feed(&mut whole, &events);
        let want = whole.finalize("B");
        for k in 0..=events.len() {
            let mut head = IncrementalComparison::new(cfg);
            feed(&mut head, &events[..k]);
            let ck = head.checkpoint();
            // Round-trip through JSON at every cut: the serialized form
            // must carry the full state, not just the in-memory mirror.
            let json = serde_json::to_string(&ck).unwrap();
            let ck: StreamCheckpoint = serde_json::from_str(&json).unwrap();
            let mut tail = IncrementalComparison::resume(ck);
            feed(&mut tail, &events[k..]);
            let got = tail.finalize("B");
            assert_bit_identical(&got.comparison, &want.comparison);
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
        assert_bit_identical(&got.comparison, &want.comparison);
    }

    #[test]
    fn checkpoint_exposes_replay_cursor() {
        let (a, b) = jittered_pair(40);
        let events = interleave(&a, &b, 3);
        let mut eng = IncrementalComparison::new(StreamConfig::default());
        feed(&mut eng, &events[..25]);
        let ck = eng.checkpoint();
        assert_eq!(ck.tick(), 25);
        assert_eq!(ck.seen_a() + ck.seen_b(), 25);
        assert_eq!(ck.resident(), eng.resident());
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
    fn slabs_round_trip_and_refuse_truncation_and_bit_flips() {
        // Mid-stream, mid-slice: all three slabs are non-empty.
        let cfg = StreamConfig {
            snapshot_every: 13,
            ..StreamConfig::default()
        };
        let (a, b) = jittered_pair(60);
        let events = interleave(&a, &b, 9);
        let mut eng = IncrementalComparison::new(cfg);
        feed(&mut eng, &events[..70]);
        let ck = eng.checkpoint();
        assert!(ck.resident() > 0 && !ck.all_pairs.is_empty() && !ck.slice.pairs.is_empty());
        let want = serde_json::to_string(&ck).unwrap();
        let mut slabs = Vec::new();
        let rest = ck.write_to(&mut slabs).unwrap();
        assert_eq!(rest.resident() + rest.all_pairs.len() + rest.slice.pairs.len(), 0);
        let back = rest.clone().read_from(&mut &slabs[..]).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), want);

        for cut in 0..slabs.len() {
            let err = rest.clone().read_from(&mut &slabs[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Truncated { .. }),
                "cut {cut}: {err}"
            );
        }
        for bit in 0..slabs.len() * 8 {
            let mut bad = slabs.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let err = rest.clone().read_from(&mut &bad[..]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::Corrupt { .. }
                ),
                "bit {bit}: {err}"
            );
        }
        // A section that checks out but is not whole records, and a
        // pending record with an impossible side.
        let mut ragged = Vec::new();
        write_section(&mut ragged, &[0u8; PAIR_BYTES + 1]).unwrap();
        let err = rest.clone().read_from(&mut &ragged[..]).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Corrupt {
                    section: "all_pairs",
                    ..
                }
            ),
            "{err}"
        );
        let mut sided = Vec::new();
        for _ in 0..2 {
            write_section(&mut sided, &[]).unwrap();
        }
        write_section(&mut sided, &[7u8; PENDING_BYTES]).unwrap();
        let err = rest.read_from(&mut &sided[..]).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Corrupt {
                    section: "pending",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn resume_checked_refuses_foreign_engine_id() {
        let (a, b) = jittered_pair(30);
        let events = interleave(&a, &b, 3);
        let cfg = StreamConfig::default();
        let mut eng = IncrementalComparison::new(cfg).with_engine_id(7);
        feed(&mut eng, &events[..15]);
        let ck = eng.checkpoint();
        assert_eq!(ck.engine_id(), 7);
        match IncrementalComparison::resume_checked(ck, 9, &cfg) {
            Err(ResumeMismatch::EngineId { expected, found }) => {
                assert_eq!((expected, found), (9, 7));
            }
            other => panic!("expected EngineId mismatch, got {other:?}"),
        }
    }

    #[test]
    fn resume_checked_refuses_foreign_config() {
        let (a, b) = jittered_pair(30);
        let events = interleave(&a, &b, 3);
        let cfg = StreamConfig::default();
        let mut eng = IncrementalComparison::new(cfg).with_engine_id(7);
        feed(&mut eng, &events[..15]);
        let ck = eng.checkpoint();
        let other_cfg = StreamConfig {
            snapshot_every: 8,
            ..cfg
        };
        assert_ne!(cfg.fingerprint(), other_cfg.fingerprint());
        match IncrementalComparison::resume_checked(ck, 7, &other_cfg) {
            Err(ResumeMismatch::Config { expected, found }) => {
                assert_eq!(expected, other_cfg.fingerprint());
                assert_eq!(found, cfg.fingerprint());
            }
            other => panic!("expected Config mismatch, got {other:?}"),
        }
    }

    #[test]
    fn resume_checked_accepts_matching_pair_bit_identically() {
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
        let json = serde_json::to_string(&head.checkpoint()).unwrap();
        let ck: StreamCheckpoint = serde_json::from_str(&json).unwrap();
        let mut tail =
            IncrementalComparison::resume_checked(ck, 42, &cfg).expect("matching pair resumes");
        assert_eq!(tail.engine_id(), 42);
        feed(&mut tail, &events[31..]);
        let got = tail.finalize("B");
        assert_bit_identical(&got.comparison, &want.comparison);
    }

    #[test]
    fn a_remainder_that_does_not_name_this_format_is_refused_before_any_slab() {
        let (a, b) = jittered_pair(60);
        let mut eng = IncrementalComparison::new(StreamConfig::default());
        feed(&mut eng, &interleave(&a, &b, 9)[..70]);
        let mut slabs = Vec::new();
        let rest = eng.checkpoint().write_to(&mut slabs).unwrap();
        let json = serde_json::to_string(&rest).unwrap();
        let named = format!("\"format\":{CHECKPOINT_FORMAT},");
        assert!(json.contains(&named), "{json}");
        // What a file written before the field existed looks like, and
        // one from some other layout.
        for (other, found) in [("", 0), ("\"format\":7,", 7)] {
            let old: StreamCheckpoint = serde_json::from_str(&json.replace(&named, other)).unwrap();
            let mut r = &slabs[..];
            let err = old.read_from(&mut r).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Format { found: f, expected: CHECKPOINT_FORMAT } if f == found
                ),
                "{err}"
            );
            assert_eq!(r.len(), slabs.len(), "no slab byte may be consumed");
        }
        let mut r = &slabs[..];
        rest.read_from(&mut r).expect("the format this build writes");
        assert!(r.is_empty());
    }
}
