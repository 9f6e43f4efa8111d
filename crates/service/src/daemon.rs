//! The κ-as-a-service daemon: a long-running, multi-tenant streaming
//! consistency monitor.
//!
//! Each tenant owns a map of named capture streams, the only record of
//! them, and a stream is in one of three states: the **baseline** (the
//! first stream opened, live or finished), a **live** comparison stream
//! with its own [`IncrementalComparison`] against the baseline, or a
//! **done** one holding its final summary. The engine's finalize is
//! bit-identical to the batch pipeline *for any interleaving of the two
//! sides*, so although observations arrive in whatever order the network
//! delivers them, the served κ is exactly the κ a post-hoc batch analysis
//! of the same records produces, bit for bit (`tests/daemon.rs`). Every
//! op is checked against the map before anything is written: a refused op
//! writes no byte. One that passes is journaled, then applied, and
//! applying it can fail only on store I/O.
//!
//! # Durability
//!
//! Tenants share nothing; each keeps its state in `tenants/<name>/`:
//!
//! * `<stream>.log` — the stream's records, 24 bytes each, append-only
//!   ([`TrialStore`]). An ingest appends its records here first;
//! * `journal` — one numbered JSON line per accepted mutating op. An
//!   ingest's line is a *marker* (`stream`, `seq`, `count`) written after
//!   the log append and before the op is applied or acknowledged;
//! * `ck` — the tenant's checkpoint, one checksummed JSON section: the
//!   layout, stream metadata, final summaries, the last journal line it
//!   covers, and each live engine's [`StreamCursor`] (records consumed per
//!   side, a few scalars and the trail, never a pair or a pending record).
//!   A tenant exists iff its `ck` does. A checkpoint (explicit, cadence,
//!   or graceful shutdown) rewrites `ck` (temp, then rename) and empties
//!   `journal` for the tenants touched since the last one, and no others.
//!
//! The logs are the only durable home of the records. Recovery loads each
//! `ck`, refusing by name one in another layout (bytes after the head are
//! the engine slabs of a `ck` from before cursors) or with a stream in a
//! state no build writes. It rebuilds every live engine from its cursor
//! and the two log prefixes it names through
//! [`IncrementalComparison::rebuild`], refusing a cursor that claims more
//! records than the logs hold. Then it replays the journal lines the `ck`
//! does not cover through the *same* check and apply the wire handlers
//! use. An `OpenStream` or `Finish` the check refuses was journaled by an
//! earlier build that refused it live, and is skipped; a marker it
//! refuses, an op that cannot be applied and a whole line that is not an
//! entry are refused by name. Only a final line without its newline, as a
//! crash mid-append leaves it, is dropped. Recovery writes nothing: logs
//! and journal are appended at the end their owner accounts for
//! ([`Disk`]'s one append rule), so whatever lies past it is overwritten
//! by the next append. Nothing is `fsync`ed: a hard kill loses nothing
//! acknowledged, a power cut can.
//!
//! # Memory
//!
//! Trial bytes live in a per-tenant [`TrialStore`] with an LRU budget;
//! engines hold only unmatched residents. `Stats` exposes resident bytes
//! so operators (and the bench's RSS gate) can watch the budget hold.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use choir_core::metrics::stream::{read_section, write_section};
use choir_core::metrics::{
    all_pairs_sharded, IncrementalComparison, KappaSnapshot, Observation, Side, StreamConfig,
    StreamCursor, Trial, TrialComparison, MAX_TIMESTAMP_PS, MAX_TRIAL_LEN,
};
use choir_core::obs;
use serde::{Deserialize, Serialize};

use crate::disk::{Disk, RealDisk};
use crate::store::{StoreError, TrialStore};
use crate::wire::{
    recv_request, send_json, Request, Response, WireCell, WireFinal, WireKappa, WireObs,
    WireTrailPoint,
};

/// Daemon construction parameters.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Root for all durable state: one directory per tenant under
    /// `tenants/`.
    pub data_dir: PathBuf,
    /// Store budget for tenants created with `budget_bytes == 0`.
    pub default_budget_bytes: u64,
    /// Take a durable checkpoint every this many accepted records
    /// across all tenants (0 = only explicit `Checkpoint` requests and
    /// graceful shutdown).
    pub checkpoint_every_records: u64,
    /// Engine snapshot cadence (observations between trail points).
    /// Part of the measurement config — changing it between runs makes
    /// old engine checkpoints unresumable, by design.
    pub snapshot_every: u64,
}

impl DaemonConfig {
    /// Defaults: 64 MiB tenant budget, checkpoint every 8192 records,
    /// trail point every 512 observations.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            data_dir: data_dir.into(),
            default_budget_bytes: 64 << 20,
            checkpoint_every_records: 8192,
            snapshot_every: 512,
        }
    }

    fn stream_config(&self) -> StreamConfig {
        StreamConfig {
            snapshot_every: self.snapshot_every,
            ..Default::default()
        }
    }

    fn tenant_dir(&self, tenant: &str) -> PathBuf {
        self.data_dir.join("tenants").join(tenant)
    }
}

/// Engine identity for a tenant/stream pair: FNV-1a over the key,
/// finished with a SplitMix64 step, forced nonzero (0 means "untagged").
fn engine_id_for(tenant: &str, stream: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.bytes().chain([b'/']).chain(stream.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// A finished comparison stream's durable result.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FinishedStream {
    comparison: TrialComparison,
    snapshots: Vec<KappaSnapshot>,
}

/// One stream of a tenant, in the only states a stream occurs in. Its
/// records, and how many it holds, are the store's.
enum Stream {
    /// The tenant's first stream: side A of every comparison.
    Baseline { finished: bool },
    /// A comparison stream being fed.
    Live(Box<IncrementalComparison>),
    /// A finished comparison stream's durable result.
    Done(Box<FinishedStream>),
}

impl Stream {
    fn finished(&self) -> bool {
        matches!(self, Stream::Baseline { finished: true } | Stream::Done(_))
    }
}

/// The tenant's baseline, the map's one `Baseline` entry: its name and
/// whether it is finished.
fn baseline_of(streams: &BTreeMap<String, Stream>) -> Option<(&str, bool)> {
    streams.iter().find_map(|(name, s)| match s {
        Stream::Baseline { finished } => Some((name.as_str(), *finished)),
        _ => None,
    })
}

/// One mutating op on a tenant's streams, as its journal records it.
/// `Ingest` is a marker: the records themselves are in the stream's log,
/// at `seq .. seq + count`.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum JournalOp {
    OpenStream {
        stream: String,
    },
    Ingest {
        stream: String,
        seq: u64,
        count: u64,
    },
    Finish {
        stream: String,
    },
}

/// One journal line, `{"n":..,"op":..}`. `n` counts a tenant's ops from
/// 1 and keeps counting across checkpoints; a checkpoint records the last
/// `n` it covers, so replay applies each op exactly once whichever side
/// of a checkpoint's rename and journal truncation a crash lands on.
#[derive(Debug, Deserialize)]
struct JournalEntry {
    n: u64,
    op: JournalOp,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct StreamCk {
    name: String,
    ingested: u64,
    finished: bool,
    /// The live engine's cursor.
    engine: Option<StreamCursor>,
    done: Option<FinishedStream>,
}

/// The on-disk layout of a tenant's directory this build reads and
/// writes: `ck` one section holding a [`TenantCk`], records in the logs,
/// engines as cursors. Its `ck` names it; the logs and the journal are
/// read only once the `ck` has been accepted.
const LAYOUT: u32 = 0;

/// The last commit that reads a `ck` written before cursors, whose live
/// engines' slabs follow the head section.
const LAST_SLAB_READER: &str = "8d2051f";

#[derive(Debug, Clone, Serialize, Deserialize)]
struct TenantCk {
    /// [`LAYOUT`]; absent, so 0, in a `ck` written before it was named.
    #[serde(default)]
    layout: u32,
    budget_bytes: u64,
    baseline: Option<String>,
    applied: u64,
    streams: Vec<StreamCk>,
}

struct Tenant {
    name: String,
    dir: PathBuf,
    store: TrialStore,
    /// Every stream of the tenant, and the only record of them.
    streams: BTreeMap<String, Stream>,
    /// Number of the last journal entry applied.
    applied: u64,
    /// Bytes of whole journal lines: where the next one is written.
    journal_len: u64,
    /// Changed since `ck` was last written.
    dirty: bool,
}

/// A daemon failure surfaced to the caller of [`Daemon::spawn`].
#[derive(Debug)]
pub enum DaemonError {
    /// Filesystem or socket failure.
    Io(std::io::Error),
    /// Trial store failure.
    Store(StoreError),
    /// Durable state exists but cannot be loaded (old layout, corrupt
    /// checkpoint, engine/config mismatch, a marker without its records).
    Recovery(String),
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::Io(e) => write!(f, "daemon I/O failed: {e}"),
            DaemonError::Store(e) => write!(f, "daemon trial store failed: {e}"),
            DaemonError::Recovery(m) => write!(f, "daemon recovery failed: {m}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<std::io::Error> for DaemonError {
    fn from(e: std::io::Error) -> Self {
        DaemonError::Io(e)
    }
}

impl From<StoreError> for DaemonError {
    fn from(e: StoreError) -> Self {
        DaemonError::Store(e)
    }
}

/// A stream's records, borrowed from the store; a failure names its log.
fn records<'s>(store: &'s mut TrialStore, stream: &str) -> Result<&'s [Observation], String> {
    (store.get(stream)).map_err(|e| format!("reading `{stream}.log`: {e}"))
}

/// Feed `eng` the baseline records it has not seen yet, borrowed from
/// the store.
fn catch_up(
    eng: &mut IncrementalComparison,
    store: &mut TrialStore,
    baseline: Option<&str>,
) -> Result<(), String> {
    let fed = eng.seen_a();
    if let Some(base) = baseline.filter(|b| (fed as u64) < store.len(b)) {
        eng.push_burst(Side::A, &records(store, base)?[fed..]);
    }
    Ok(())
}

impl Tenant {
    /// A tenant that has applied no journal entry and has nothing to
    /// checkpoint.
    fn new(name: &str, dir: PathBuf, store: TrialStore, streams: BTreeMap<String, Stream>) -> Self {
        Tenant {
            name: name.to_string(),
            dir,
            store,
            streams,
            applied: 0,
            journal_len: 0,
            dirty: false,
        }
    }

    /// A new, empty tenant: its directory and its first checkpoint.
    fn create(st: &ServiceState, name: &str, budget_bytes: u64) -> Result<Self, String> {
        let dir = st.cfg.tenant_dir(name);
        // Only a creation that crashed before its first checkpoint can
        // have left this behind.
        let _ = st.disk.remove_dir_all(&dir);
        let store =
            TrialStore::open_on(st.disk.clone(), &dir, budget_bytes).map_err(|e| e.to_string())?;
        let mut t = Tenant::new(name, dir, store, BTreeMap::new());
        t.checkpoint()?;
        Ok(t)
    }

    /// Load `ck`, rebuild its live engines from their cursors and the
    /// logs, then replay the journal entries it does not cover.
    fn recover(st: &ServiceState, name: &str) -> Result<Self, DaemonError> {
        let bad = |what: &str, e: &dyn std::fmt::Display| {
            DaemonError::Recovery(format!("tenant `{name}`: {what}: {e}"))
        };
        let (cfg, disk) = (&st.cfg, &st.disk);
        let dir = cfg.tenant_dir(name);
        let _ = disk.remove_file(&dir.join("ck.tmp"));
        let path = dir.join("ck");
        let raw = disk.read(&path)?;
        let mut r = &raw[..];
        let head = read_section(&mut r, "tenant").map_err(|e| bad("checkpoint", &e))?;
        let head = std::str::from_utf8(&head).map_err(|e| bad("checkpoint", &e))?;
        let ck: TenantCk = serde_json::from_str(head).map_err(|e| bad("checkpoint", &e))?;
        let slabs = !r.is_empty();
        if slabs || ck.layout != LAYOUT {
            let found = if slabs {
                format!("bytes follow its head section, as engine slabs did in the layout before cursors, last read at {LAST_SLAB_READER}")
            } else {
                format!("layout {}", ck.layout)
            };
            let said = format!("{found}; this build reads layout {LAYOUT} only");
            return Err(bad(&format!("`{}`", path.display()), &said));
        }
        let mut store = TrialStore::open_on(disk.clone(), &dir, ck.budget_bytes)?;
        for sck in &ck.streams {
            store.adopt(&sck.name, sck.ingested)?;
        }
        // The baseline's records, read once for every engine's side A.
        let (baseline, mut base) = (ck.baseline.as_deref(), Vec::new());
        if let (Some(b), true) = (baseline, ck.streams.iter().any(|s| s.engine.is_some())) {
            base = store.get(b)?.to_vec();
        }
        let mut streams = BTreeMap::new();
        for sck in ck.streams {
            // A stream's state must agree with whether `baseline` names it.
            let named = baseline == Some(sck.name.as_str());
            let stream = match (sck.engine, sck.done, sck.finished) {
                (None, None, finished) if named => Stream::Baseline { finished },
                (None, Some(done), true) if !named => Stream::Done(Box::new(done)),
                (Some(cursor), None, false) if !named => {
                    let what = format!("engine `{}`", sck.name);
                    let (seen_a, seen_b, holds) = (cursor.seen_a(), cursor.seen_b(), base.len());
                    if seen_a > holds {
                        let e =
                            format!("side A consumed {seen_a} records, its baseline holds {holds}");
                        return Err(bad(&what, &e));
                    }
                    let holds = sck.ingested;
                    if seen_b as u64 != holds {
                        let e =
                            format!("side B consumed {seen_b} records, its stream holds {holds}");
                        return Err(bad(&what, &e));
                    }
                    let (id, sc) = (engine_id_for(name, &sck.name), cfg.stream_config());
                    let b = store.get(&sck.name)?;
                    let eng = IncrementalComparison::rebuild(cursor, id, &sc, &base[..seen_a], b);
                    Stream::Live(Box::new(eng.map_err(|e| bad(&what, &e))?))
                }
                (engine, done, finished) => {
                    let (e, d) = (engine.is_some(), done.is_some());
                    let e = format!("engine {e}, summary {d}, finished {finished}, the baseline {named}; no build writes this");
                    return Err(bad(&format!("stream `{}`", sck.name), &e));
                }
            };
            // Non-resident again, as every trial starts.
            store.adopt(&sck.name, sck.ingested)?;
            streams.insert(sck.name, stream);
        }
        // A tenant with any stream has a baseline, and `baseline` names
        // nothing else (a stream it names is a baseline or refused above).
        if baseline_of(&streams).is_none() && (baseline.is_some() || !streams.is_empty()) {
            let n = streams.len();
            let e = format!("`baseline` is {baseline:?} over {n} stream(s), none of them a baseline; no build writes this");
            return Err(bad("checkpoint", &e));
        }
        let mut t = Tenant::new(name, dir, store, streams);
        t.applied = ck.applied;
        t.replay(cfg.stream_config())?;
        Ok(t)
    }

    fn replay(&mut self, cfg: StreamConfig) -> Result<(), DaemonError> {
        let path = self.dir.join("journal");
        let raw = match self.store.disk.read(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let (mut good, mut prev) = (0, None);
        for (k, line) in raw.split_inclusive(|&b| b == b'\n').enumerate() {
            // A crash can cut only the final append, mid-line: everything
            // before it is intact, and the op was never acknowledged.
            let Some(text) = line.strip_suffix(b"\n") else {
                break;
            };
            let entry = std::str::from_utf8(text)
                .map_err(|e| e.to_string())
                .and_then(|l| serde_json::from_str::<JournalEntry>(l).map_err(|e| e.to_string()))
                .map_err(|e| {
                    let after = prev.map_or("first line".into(), |n| format!("after entry {n}"));
                    DaemonError::Recovery(format!(
                        "journal of `{}`, line {} ({after}): not an entry: {e}",
                        path.display(),
                        k + 1
                    ))
                })?;
            prev = Some(entry.n);
            good += line.len();
            if entry.n <= self.applied {
                continue; // the checkpoint already covers it
            }
            let (p, n) = (path.display(), entry.n);
            let lost =
                |e: String| DaemonError::Recovery(format!("journal of `{p}`, entry {n}: {e}"));
            if entry.n != self.applied + 1 {
                return Err(lost(format!("follows entry {}", self.applied)));
            }
            match (self.check(&entry.op), &entry.op) {
                (Err(e), JournalOp::Ingest { .. }) => return Err(lost(e)),
                // An earlier build journaled this op while it refused it.
                (Err(_), _) => {}
                (Ok(()), op) => {
                    if let JournalOp::Ingest { stream, seq, count } = op {
                        self.store.adopt(stream, seq + count)?;
                    }
                    self.apply(cfg, entry.op).map_err(lost)?;
                }
            }
            self.applied = entry.n;
            self.dirty = true;
        }
        self.journal_len = good as u64;
        Ok(())
    }

    /// Append `op` to the journal as the tenant's next entry.
    fn journal(&mut self, op: &JournalOp) -> Result<(), String> {
        let n = self.applied + 1;
        let op = serde_json::to_string(op).map_err(|e| format!("journal encode: {e}"))?;
        let line = format!("{{\"n\":{n},\"op\":{op}}}\n");
        (self.store.disk)
            .write_at(&self.dir.join("journal"), self.journal_len, line.as_bytes())
            .map_err(|e| format!("journal append: {e}"))?;
        self.journal_len += line.len() as u64;
        self.applied = n;
        self.dirty = true;
        Ok(())
    }

    /// The wire path of an `Ingest`: validate, append the fresh records
    /// to the stream's log, journal the marker, apply.
    fn ingest(
        &mut self,
        cfg: StreamConfig,
        stream: String,
        seq: u64,
        records: &[WireObs],
    ) -> Result<(Response, u64), String> {
        let name = &self.name;
        let s = self
            .streams
            .get(&stream)
            .ok_or_else(|| format!("no stream `{name}/{stream}`"))?;
        if s.finished() {
            return Err(format!("stream `{name}/{stream}` is finished"));
        }
        let have = self.store.len(&stream);
        if seq > have {
            return Err(format!(
                "ingest gap on `{name}/{stream}`: batch starts at {seq}, stream has {have}"
            ));
        }
        // Idempotent resend: skip records the stream already has.
        let skip = (have - seq) as usize;
        if skip >= records.len() {
            return Ok((Response::Ingested { total: have }, 0));
        }
        // The engines' and kernels' positions and gap arithmetic hold only
        // below these bounds. Past one, a batch would be logged and
        // journaled, then panic inside `apply` — with the service lock
        // held — and again on every replay.
        let fresh_count = (records.len() - skip) as u64;
        if have + fresh_count > MAX_TRIAL_LEN as u64 {
            return Err(format!(
                "`{name}/{stream}` holds {have} records; {fresh_count} more would pass the {MAX_TRIAL_LEN}-record bound"
            ));
        }
        let late = |w: &WireObs| w.t_ps >= MAX_TIMESTAMP_PS;
        if let Some(i) = records[skip..].iter().position(late) {
            return Err(format!(
                "record {} of `{name}/{stream}` is stamped {} ps, at or past the {MAX_TIMESTAMP_PS} ps bound",
                have + i as u64,
                records[skip + i].t_ps
            ));
        }
        let fresh: Vec<Observation> = records[skip..].iter().map(|&w| w.into()).collect();
        (self.store.append(&stream, &fresh)).map_err(|e| e.to_string())?;
        let marker = JournalOp::Ingest {
            stream: stream.clone(),
            seq: have,
            count: fresh.len() as u64,
        };
        if let Err(e) = self.journal(&marker) {
            // No marker, no records: back to what the journal covers.
            let _ = self.store.adopt(&stream, have);
            return Err(e);
        }
        let resp = self.apply(cfg, marker)?;
        Ok((resp, fresh.len() as u64))
    }

    /// The refusal `op` gets from the tenant's streams, if any. Every op
    /// passes it before anything is written: live before its journal
    /// line (an `Ingest` through the checks of [`ingest`](Self::ingest)),
    /// replayed before it is applied.
    fn check(&self, op: &JournalOp) -> Result<(), String> {
        use JournalOp::*;
        let (OpenStream { stream } | Ingest { stream, .. } | Finish { stream }) = op;
        let (name, at) = (&self.name, format!("`{}/{stream}`", self.name));
        let refusal = match (op, self.streams.get(stream)) {
            (OpenStream { .. }, None) => return Ok(()),
            (OpenStream { .. }, Some(_)) => format!("stream {at} already open"),
            (_, None) => format!("no stream {at}"),
            (Ingest { .. }, Some(s)) if s.finished() => format!("stream {at} is finished"),
            (Ingest { seq, .. }, _) if *seq != self.store.len(stream) => {
                format!("marker at {seq} does not continue `{stream}`")
            }
            (Finish { .. }, Some(s)) if s.finished() => format!("stream {at} already finished"),
            (Finish { .. }, Some(Stream::Live(_))) => match baseline_of(&self.streams) {
                Some((base, false)) => {
                    format!("finish baseline `{name}/{base}` before its comparison streams")
                }
                _ => return Ok(()),
            },
            _ => return Ok(()),
        };
        Err(refusal)
    }

    /// Apply one op that passed [`check`](Self::check). Shared by the
    /// wire handlers (after journaling) and recovery replay — the single
    /// path that keeps replayed state bit-identical to the uninterrupted
    /// run. An `Ingest` marker's records are read back from the store,
    /// where they already are; reading them is the one way it fails.
    fn apply(&mut self, cfg: StreamConfig, op: JournalOp) -> Result<Response, String> {
        let (name, store, streams) = (&self.name, &mut self.store, &mut self.streams);
        let baseline = baseline_of(streams).map(|(base, _)| base.to_owned());
        match op {
            JournalOp::OpenStream { stream } => {
                let s = if streams.is_empty() {
                    Stream::Baseline { finished: false }
                } else {
                    let id = engine_id_for(name, &stream);
                    Stream::Live(Box::new(IncrementalComparison::new(cfg).with_engine_id(id)))
                };
                streams.insert(stream, s);
                obs::counter_inc("service.streams.opened");
                Ok(Response::Ok)
            }
            JournalOp::Ingest { stream, seq, .. } => {
                if let Some(Stream::Live(eng)) = streams.get_mut(&stream) {
                    // Comparison stream: feed side B, then catch side A
                    // up to the baseline's current length (covers
                    // streams opened after the baseline had data).
                    eng.push_burst(Side::B, &records(store, &stream)?[seq as usize..]);
                    catch_up(eng, store, baseline.as_deref())?;
                } else if streams.values().any(|s| matches!(s, Stream::Live(_))) {
                    // Baseline grew: advance side A of every live engine
                    // from wherever it stands. An engine opened after the
                    // baseline already had data may lag; it gets the
                    // prefix it missed and the fresh tail in one slice,
                    // in order.
                    let base = records(store, &stream)?;
                    for s in streams.values_mut() {
                        if let Stream::Live(eng) = s {
                            eng.push_burst(Side::A, &base[eng.seen_a()..]);
                        }
                    }
                }
                Ok(Response::Ingested {
                    total: store.len(&stream),
                })
            }
            JournalOp::Finish { stream } => {
                // Flush a comparison stream's side-A tail first: if that
                // read fails, nothing has changed.
                if let Some(Stream::Live(eng)) = streams.get_mut(&stream) {
                    catch_up(eng, store, baseline.as_deref())?;
                }
                let (s, summary) = match streams.remove(&stream) {
                    // `finalize` consumes the engine: the stream is taken
                    // out live and put back done.
                    Some(Stream::Live(eng)) => {
                        let out = eng.finalize(stream.as_str());
                        let summary = Some(WireFinal::from(&out.comparison));
                        obs::counter_inc("service.streams.finished");
                        let done = FinishedStream {
                            comparison: out.comparison,
                            snapshots: out.snapshots,
                        };
                        (Stream::Done(Box::new(done)), summary)
                    }
                    // The baseline: `check` admits no other stream here.
                    _ => (Stream::Baseline { finished: true }, None),
                };
                streams.insert(stream, s);
                Ok(Response::Finished { summary })
            }
        }
    }

    /// Write `ck` (temp + rename), then empty the journal it now covers.
    fn checkpoint(&mut self) -> Result<(), String> {
        let streams = (self.streams.iter())
            .map(|(name, s)| {
                let (engine, done) = match s {
                    Stream::Baseline { .. } => (None, None),
                    Stream::Live(eng) => (Some(eng.cursor()), None),
                    Stream::Done(done) => (None, Some((**done).clone())),
                };
                StreamCk {
                    name: name.clone(),
                    ingested: self.store.len(name),
                    finished: s.finished(),
                    engine,
                    done,
                }
            })
            .collect();
        let head = serde_json::to_string(&TenantCk {
            layout: LAYOUT,
            budget_bytes: self.store.stats().budget_bytes,
            baseline: baseline_of(&self.streams).map(|(base, _)| base.to_owned()),
            applied: self.applied,
            streams,
        })
        .map_err(|e| format!("checkpoint encode: {e}"))?;
        let (tmp, ck) = (self.dir.join("ck.tmp"), self.dir.join("ck"));
        let mut raw = Vec::with_capacity(head.len() + 16);
        write_section(&mut raw, head.as_bytes())
            .and_then(|()| self.store.disk.write_file(&tmp, &raw))
            .and_then(|()| self.store.disk.rename(&tmp, &ck))
            .and_then(|()| self.store.disk.write_file(&self.dir.join("journal"), b""))
            .map_err(|e| format!("checkpoint of `{}`: {e}", self.name))?;
        self.journal_len = 0;
        self.dirty = false;
        Ok(())
    }
}

struct ServiceState {
    cfg: DaemonConfig,
    disk: Arc<dyn Disk>,
    tenants: BTreeMap<String, Tenant>,
    records_since_ck: u64,
    ingests: u64,
    records_total: u64,
}

impl ServiceState {
    /// Recover every tenant under `data_dir`, or start empty.
    fn open(disk: Arc<dyn Disk>, cfg: DaemonConfig) -> Result<Self, DaemonError> {
        for old in ["state.json", "journal.jsonl"] {
            if disk.len(&cfg.data_dir.join(old))?.is_some() {
                return Err(DaemonError::Recovery(format!(
                    "`{old}` in {}: a data directory in the old single-file layout is not migrated",
                    cfg.data_dir.display()
                )));
            }
        }
        let root = cfg.data_dir.join("tenants");
        let mut st = ServiceState {
            cfg,
            disk,
            tenants: BTreeMap::new(),
            records_since_ck: 0,
            ingests: 0,
            records_total: 0,
        };
        st.disk.create_dir_all(&root)?;
        for path in st.disk.read_dir(&root)? {
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            // Only a `ck` that is not there (not one that cannot be
            // stat'ed) makes this a tenant dropped, or created, halfway.
            if valid_name(&name) && st.disk.len(&path.join("ck"))?.is_some() {
                let t = Tenant::recover(&st, &name)?;
                st.tenants.insert(name.into_owned(), t);
            } else {
                let _ = st.disk.remove_dir_all(&path);
            }
        }
        Ok(st)
    }

    fn tenant(&mut self, tenant: &str) -> Result<&mut Tenant, String> {
        (self.tenants.get_mut(tenant)).ok_or_else(|| format!("no tenant `{tenant}`"))
    }

    fn stream(&self, tenant: &str, stream: &str) -> Result<(&Tenant, &Stream), String> {
        let t = (self.tenants.get(tenant)).ok_or_else(|| format!("no tenant `{tenant}`"))?;
        let s = (t.streams.get(stream)).ok_or_else(|| format!("no stream `{tenant}/{stream}`"))?;
        Ok((t, s))
    }

    fn create_tenant(&mut self, tenant: String, budget_bytes: u64) -> Result<Response, String> {
        if self.tenants.contains_key(&tenant) {
            return Err(format!("tenant `{tenant}` already exists"));
        }
        let budget = if budget_bytes == 0 {
            self.cfg.default_budget_bytes
        } else {
            budget_bytes
        };
        let t = Tenant::create(self, &tenant, budget)?;
        self.tenants.insert(tenant, t);
        obs::counter_inc("service.tenants.created");
        obs::gauge_set("service.tenants", self.tenants.len() as u64);
        Ok(Response::Ok)
    }

    fn drop_tenant(&mut self, tenant: &str) -> Result<Response, String> {
        // A tenant exists iff its `ck` does: gone in that one step, then
        // deleted; recovery finishes a deletion that does not complete.
        let ck = self.tenant(tenant)?.dir.join("ck");
        (self.disk.remove_file(&ck)).map_err(|e| format!("drop of `{tenant}`: {e}"))?;
        let t = self.tenants.remove(tenant).expect("looked up above");
        let _ = self.disk.remove_dir_all(&t.dir);
        obs::counter_inc("service.tenants.dropped");
        obs::gauge_set("service.tenants", self.tenants.len() as u64);
        Ok(Response::Ok)
    }

    /// Check, journal, apply a stream op of one tenant. A refused op
    /// writes nothing and leaves the tenant clean.
    fn mutate(&mut self, tenant: &str, op: JournalOp) -> Result<Response, String> {
        let cfg = self.cfg.stream_config();
        let t = self.tenant(tenant)?;
        t.check(&op)?;
        t.journal(&op)?;
        t.apply(cfg, op)
    }

    fn ingest(
        &mut self,
        tenant: &str,
        stream: String,
        seq: u64,
        records: &[WireObs],
    ) -> Result<Response, String> {
        let cfg = self.cfg.stream_config();
        let (resp, fresh) = self.tenant(tenant)?.ingest(cfg, stream, seq, records)?;
        if fresh > 0 {
            self.ingests += 1;
            self.records_total += fresh;
            self.records_since_ck += fresh;
            obs::counter_inc("service.ingest.requests");
            obs::counter_add("service.ingest.records", fresh);
        }
        if self.cfg.checkpoint_every_records > 0
            && self.records_since_ck >= self.cfg.checkpoint_every_records
        {
            // The ingest itself is logged, journaled and applied; a
            // failed cadence checkpoint must not make the client believe
            // it failed. Durability is unharmed — the journals still
            // cover everything since the last good checkpoint — so
            // surface the failure out of band and retry next cadence.
            if let Err(m) = self.checkpoint() {
                eprintln!("choir-serve: cadence checkpoint failed: {m}");
                obs::counter_inc("service.checkpoint.failures");
            }
        }
        Ok(resp)
    }

    /// Durable checkpoint of every tenant touched since the last one.
    /// Clean tenants cost nothing: their files are not opened.
    fn checkpoint(&mut self) -> Result<(), String> {
        let _span = obs::span("service.checkpoint");
        for t in self.tenants.values_mut().filter(|t| t.dirty) {
            t.checkpoint()?;
        }
        self.records_since_ck = 0;
        obs::counter_inc("service.checkpoints");
        Ok(())
    }

    fn snapshot_of(&self, tenant: &str, stream: &str) -> Result<Response, String> {
        match self.stream(tenant, stream)? {
            (_, Stream::Done(done)) => {
                let c = &done.comparison;
                Ok(Response::Snapshot {
                    seen_a: c.a_len as u64,
                    seen_b: c.b_len as u64,
                    common: c.common as u64,
                    running: WireKappa::from(&c.metrics),
                })
            }
            // The live engine scores its own prefix (`&self`,
            // bit-identical to batch analysis of the same records).
            (_, Stream::Live(eng)) => Ok(Response::Snapshot {
                seen_a: eng.seen_a() as u64,
                seen_b: eng.seen_b() as u64,
                common: eng.matched() as u64,
                running: WireKappa::from(&eng.running_metrics()),
            }),
            (_, Stream::Baseline { .. }) => Err(format!(
                "`{tenant}/{stream}` is the baseline; it has no score"
            )),
        }
    }

    fn trail_of(&self, tenant: &str, stream: &str) -> Result<Response, String> {
        let snaps: &[KappaSnapshot] = match self.stream(tenant, stream)? {
            (_, Stream::Done(done)) => &done.snapshots,
            (_, Stream::Live(eng)) => eng.snapshots(),
            (_, Stream::Baseline { .. }) => {
                return Err(format!(
                    "`{tenant}/{stream}` is the baseline; it has no trail"
                ))
            }
        };
        Ok(Response::Trail {
            points: snaps.iter().map(WireTrailPoint::from).collect(),
        })
    }

    fn matrix_of(&mut self, tenant: &str) -> Result<Response, String> {
        let shards = thread::available_parallelism().map_or(1, |n| n.get());
        let t = self.tenant(tenant)?;
        let labels: Vec<String> = t.streams.keys().cloned().collect();
        if labels.len() < 2 {
            return Err(format!(
                "tenant `{tenant}` has {} stream(s); a matrix needs at least 2",
                labels.len()
            ));
        }
        let trials = labels
            .iter()
            .map(|name| t.store.trial(name))
            .collect::<Result<Vec<Trial>, _>>()
            .map_err(|e| e.to_string())?;
        let matrix = all_pairs_sharded(&trials, shards)
            .map_err(|e| format!("all-pairs analysis failed: {e:?}"))?;
        let mut cells = Vec::with_capacity(matrix.pairs());
        let n = labels.len();
        for i in 0..n {
            for j in i + 1..n {
                let c = matrix.get(i, j).expect("in-range off-diagonal cell");
                cells.push(WireCell {
                    i: i as u64,
                    j: j as u64,
                    score: WireKappa::from(&c.metrics),
                    common: c.common as u64,
                    missing: c.missing as u64,
                    extra: c.extra as u64,
                });
            }
        }
        obs::counter_inc("service.matrix.computed");
        Ok(Response::Matrix { labels, cells })
    }

    fn stats(&self) -> Response {
        let stores: Vec<_> = self.tenants.values().map(|t| t.store.stats()).collect();
        Response::Stats {
            tenants: self.tenants.len() as u64,
            streams: self.tenants.values().map(|t| t.streams.len() as u64).sum(),
            store_resident_bytes: stores.iter().map(|s| s.resident_bytes).sum(),
            store_budget_bytes: stores.iter().map(|s| s.budget_bytes).sum(),
            store_evictions: stores.iter().map(|s| s.evictions).sum(),
            store_reloads: stores.iter().map(|s| s.reloads).sum(),
            ingests: self.ingests,
            records: self.records_total,
        }
    }

    /// Handle one request. The bool asks the serve loop to stop.
    fn handle(&mut self, req: Request) -> (Response, bool) {
        let stop = matches!(req, Request::Shutdown);
        let result = match req {
            Request::Ping => Ok(Response::Ok),
            Request::CreateTenant { tenant: name, .. }
            | Request::OpenStream { stream: name, .. }
                if !valid_name(&name) =>
            {
                Err(format!(
                    "`{name}` is not a valid name (1-64 chars of [A-Za-z0-9_-])"
                ))
            }
            Request::CreateTenant {
                tenant,
                budget_bytes,
            } => self.create_tenant(tenant, budget_bytes),
            Request::DropTenant { tenant } => self.drop_tenant(&tenant),
            Request::OpenStream { tenant, stream } => {
                self.mutate(&tenant, JournalOp::OpenStream { stream })
            }
            Request::Ingest {
                tenant,
                stream,
                seq,
                records,
            } => self.ingest(&tenant, stream, seq, &records),
            Request::FinishStream { tenant, stream } => {
                self.mutate(&tenant, JournalOp::Finish { stream })
            }
            Request::Snapshot { tenant, stream } => self.snapshot_of(&tenant, &stream),
            Request::Trail { tenant, stream } => self.trail_of(&tenant, &stream),
            Request::Matrix { tenant } => self.matrix_of(&tenant),
            Request::StreamStatus { tenant, stream } => {
                self.stream(&tenant, &stream)
                    .map(|(t, s)| Response::Status {
                        ingested: t.store.len(&stream),
                        finished: s.finished(),
                        baseline: matches!(s, Stream::Baseline { .. }),
                    })
            }
            Request::Stats => Ok(self.stats()),
            Request::Checkpoint | Request::Shutdown => self.checkpoint().map(|()| Response::Ok),
        };
        (
            result.unwrap_or_else(|message| Response::Error { message }),
            stop,
        )
    }
}

/// Spawner for the TCP serve loop.
pub struct Daemon;

/// Live per-connection handler threads, with a socket clone each so a
/// stopping daemon can unblock handlers parked in `recv_request`.
/// Finished entries are pruned on every accept; the rest are shut down
/// and joined by [`DaemonHandle::kill`]/[`DaemonHandle::shutdown`]/
/// [`DaemonHandle::wait`], so no handler can still be writing after
/// those return.
type ConnRegistry = Mutex<Vec<(Option<TcpStream>, thread::JoinHandle<()>)>>;

/// A running daemon. Dropping the handle does **not** stop the daemon;
/// call [`DaemonHandle::shutdown`] (graceful, checkpoints) or
/// [`DaemonHandle::kill`] (hard stop, no checkpoint — the crash the
/// recovery path is built for).
pub struct DaemonHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
    state: Arc<Mutex<ServiceState>>,
    conns: Arc<ConnRegistry>,
}

impl Daemon {
    /// Recover (or initialize) durable state under `cfg.data_dir`, bind
    /// `addr` (use port 0 for an ephemeral port), and serve connections
    /// on a background thread, one handler thread per connection.
    pub fn spawn(cfg: DaemonConfig, addr: &str) -> Result<DaemonHandle, DaemonError> {
        Self::spawn_on(Arc::new(RealDisk), cfg, addr)
    }

    /// [`spawn`](Self::spawn), with every file on `disk`.
    pub fn spawn_on(
        disk: Arc<dyn Disk>,
        cfg: DaemonConfig,
        addr: &str,
    ) -> Result<DaemonHandle, DaemonError> {
        let state = Arc::new(Mutex::new(ServiceState::open(disk, cfg)?));
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<ConnRegistry> = Arc::new(Mutex::new(Vec::new()));
        let accept_state = Arc::clone(&state);
        let accept_stop = Arc::clone(&stop);
        let accept_conns = Arc::clone(&conns);
        let thread = thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(conn) = conn else { continue };
                let st = Arc::clone(&accept_state);
                let stop = Arc::clone(&accept_stop);
                let sock = conn.try_clone().ok();
                let handler = thread::spawn(move || serve_connection(conn, st, stop, local));
                let mut reg = accept_conns.lock().expect("conn registry lock");
                reg.retain(|(_, h)| !h.is_finished());
                reg.push((sock, handler));
            }
        });
        Ok(DaemonHandle {
            addr: local,
            stop,
            thread: Some(thread),
            state,
            conns,
        })
    }
}

fn serve_connection(
    conn: TcpStream,
    state: Arc<Mutex<ServiceState>>,
    stop: Arc<AtomicBool>,
    local: SocketAddr,
) {
    // Every response leaves in one write. With Nagle on, a response sent
    // before the client acknowledged the last one — a client that sends
    // its next request before reading an answer — would still wait out
    // the client's delayed ACK (`tests/call_latency.rs`).
    conn.set_nodelay(true).ok();
    let mut reader = match conn.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = conn;
    // The response frame under construction, kept across responses.
    let mut frame = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let req = match recv_request(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => return, // peer hung up cleanly
            Err(e) => {
                let _ = send_json(
                    &mut writer,
                    &Response::Error {
                        message: e.to_string(),
                    },
                    &mut frame,
                );
                // The registry holds a clone of this socket: close the
                // connection itself, not just this handle to it.
                let _ = writer.shutdown(std::net::Shutdown::Both);
                return;
            }
        };
        let (resp, shutdown) = {
            let mut st = state.lock().expect("service state lock");
            st.handle(req)
        };
        let _ = send_json(&mut writer, &resp, &mut frame);
        if shutdown {
            stop.store(true, Ordering::SeqCst);
            // The accept loop is blocked in accept(); poke it so it
            // observes the flag and exits.
            let _ = TcpStream::connect(local);
            return;
        }
    }
}

impl DaemonHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the serve loop exits (a client sent `Shutdown`,
    /// which checkpoints before stopping), then reap every handler
    /// thread. For `choir-serve`'s foreground mode.
    pub fn wait(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.join_connections();
    }

    /// Graceful stop: checkpoint durable state, then stop accepting.
    pub fn shutdown(mut self) -> Result<(), DaemonError> {
        {
            let mut st = self.state.lock().expect("service state lock");
            st.checkpoint().map_err(DaemonError::Recovery)?;
        }
        self.stop_and_join();
        Ok(())
    }

    /// Hard stop without a checkpoint — simulates a crash. Everything
    /// since the last checkpoint survives only in the logs and journals,
    /// which is exactly what the recovery path replays.
    pub fn kill(mut self) {
        self.stop_and_join();
    }

    /// Handlers first, the listener last: threads end in the reverse of
    /// the order they started in, whoever hung up first. A daemon
    /// respawned in the same process (tests, the benchmark) then gets its
    /// threads' malloc arenas back in that order too, and the next
    /// handler reuses what the last handler's arena still holds; the
    /// other way round the idle listener inherited it, 11 to 26 MB that
    /// nothing touched again.
    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.join_connections();
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        // A connection accepted while the first pass ran.
        self.join_connections();
    }

    /// Shut down every live connection socket (unblocking handlers
    /// parked in `recv_request`) and join their threads, so that no
    /// handler can still touch `data_dir` after the daemon stops — a
    /// re-spawn on the same directory must never race a leftover
    /// handler for the journal.
    fn join_connections(&self) {
        let drained: Vec<_> = {
            let mut reg = self.conns.lock().expect("conn registry lock");
            reg.drain(..).collect()
        };
        for (sock, handler) in drained {
            if let Some(s) = sock {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            let _ = handler.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::fs;

    use super::*;
    use crate::disk::ScriptDisk;

    #[test]
    fn engine_ids_are_nonzero_and_distinct_per_stream() {
        let a = engine_id_for("acme", "run-b");
        let b = engine_id_for("acme", "run-c");
        let c = engine_id_for("acme2", "run-b");
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, engine_id_for("acme", "run-b"));
    }

    #[test]
    fn engine_config_fingerprint_is_pinned_across_commits() {
        // Every engine cursor under `tenants/` records this value and
        // `rebuild` refuses any other: if it moves, a data
        // directory written by an earlier build stops recovering. Read at
        // 59c7aac; moves only on purpose.
        let cfg = DaemonConfig::new("unused").stream_config();
        assert_eq!(cfg.fingerprint(), 0x5c9c_cfc0_ac07_13ef);
    }

    #[test]
    fn a_batch_past_the_record_bound_is_refused_before_the_log_and_the_journal() {
        let disk = Arc::new(ScriptDisk::new());
        let mut st = ServiceState::open(disk.clone(), DaemonConfig::new("d")).expect("empty disk");
        let (t, run) = (String::from("t"), String::from("run"));
        let ingest = |stream: &str, seq: u64, n: u64| Request::Ingest {
            tenant: t.clone(),
            stream: stream.into(),
            seq,
            records: (0..n)
                .map(|i| WireObs {
                    id_hi: 0,
                    id_lo: i,
                    t_ps: i * 1_000,
                })
                .collect(),
        };
        st.handle(Request::CreateTenant {
            tenant: t.clone(),
            budget_bytes: 0,
        });
        for stream in ["base", "run"] {
            st.handle(Request::OpenStream {
                tenant: t.clone(),
                stream: stream.into(),
            });
        }
        let (resp, _) = st.handle(ingest("run", 0, 3));
        assert!(matches!(resp, Response::Ingested { total: 3 }), "{resp:?}");

        // Four billion records are out of reach for a test; the count is
        // what the check reads, so put the stream at the bound.
        let bound = MAX_TRIAL_LEN as u64;
        let tenant = st.tenants.get_mut(&t).expect("created above");
        tenant.store.set_len(&run, bound);
        let before = disk.files();

        let (resp, _) = st.handle(ingest("run", bound, 1));
        let Response::Error { message } = resp else {
            panic!("accepted: {resp:?}")
        };
        assert!(
            message.contains(&format!("{bound}-record bound")),
            "{message}"
        );
        assert_eq!(disk.files(), before, "a refusal writes nothing");
        // A resend of what the stream already holds is still answered.
        let (resp, _) = st.handle(ingest("run", bound - 1, 1));
        assert!(
            matches!(resp, Response::Ingested { total } if total == bound),
            "{resp:?}"
        );
        // The next valid ops are served.
        let (resp, _) = st.handle(ingest("base", 0, 2));
        assert!(matches!(resp, Response::Ingested { total: 2 }), "{resp:?}");
        let (resp, _) = st.handle(Request::Snapshot {
            tenant: t,
            stream: run,
        });
        assert!(
            matches!(resp, Response::Snapshot { common: 2, .. }),
            "{resp:?}"
        );
    }

    #[test]
    fn a_refused_op_writes_nothing_and_leaves_its_tenant_clean() {
        let disk = Arc::new(ScriptDisk::new());
        let mut st = ServiceState::open(disk.clone(), DaemonConfig::new("d")).expect("empty disk");
        let t = || String::from("t");
        let open = |stream: &str| Request::OpenStream {
            tenant: t(),
            stream: stream.into(),
        };
        let finish = |stream: &str| Request::FinishStream {
            tenant: t(),
            stream: stream.into(),
        };
        let ingest = |stream: &str, seq: u64| Request::Ingest {
            tenant: t(),
            stream: stream.into(),
            seq,
            records: (0..3)
                .map(|i| WireObs {
                    id_hi: 0,
                    id_lo: i,
                    t_ps: i * 1_000,
                })
                .collect(),
        };
        let ok = |(r, _): (Response, bool)| assert!(!matches!(r, Response::Error { .. }), "{r:?}");
        ok(st.handle(Request::CreateTenant {
            tenant: t(),
            budget_bytes: 0,
        }));
        for req in [open("base"), open("r1"), ingest("base", 0), ingest("r1", 0)] {
            ok(st.handle(req));
        }
        // Each refusal makes no `Disk` call, and the checkpoint after it
        // finds the tenant clean: its `ck` is not rewritten.
        let refused_then_clean = |st: &mut ServiceState, reqs: Vec<(Request, &str)>| {
            ok(st.handle(Request::Checkpoint));
            let (files, calls) = (disk.files(), disk.calls().len());
            for (req, said) in reqs {
                let (resp, _) = st.handle(req);
                let Response::Error { message } = resp else {
                    panic!("accepted: {resp:?}")
                };
                assert!(message.contains(said), "{message}");
            }
            ok(st.handle(Request::Checkpoint));
            assert_eq!(disk.calls()[calls..], [], "a refusal touched the disk");
            assert!(disk.files() == files);
        };
        refused_then_clean(
            &mut st,
            vec![
                (open("r1"), "already open"),
                (finish("nope"), "no stream"),
                (finish("r1"), "finish baseline `t/base` before"),
                (ingest("nope", 0), "no stream"),
                (ingest("r1", 5), "ingest gap"),
            ],
        );
        ok(st.handle(finish("base")));
        refused_then_clean(
            &mut st,
            vec![
                (finish("base"), "already finished"),
                (ingest("base", 3), "is finished"),
            ],
        );
        // The tenant still serves: the comparison finishes.
        ok(st.handle(finish("r1")));
    }

    /// Three streams of `n` records: a baseline; a lossy run that
    /// loses one packet in 97 and sends as many identities the baseline
    /// never did; a run with 48-record blocks swapped every 4 096
    /// records. Stamps jitter by up to 30 ns.
    fn paper_streams(n: u64) -> [Vec<WireObs>; 3] {
        let mut seed = 0x5EED_u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            seed >> 33
        };
        let obs = |seq: u64, t_ps: u64| WireObs {
            id_hi: 0xC401,
            id_lo: seq,
            t_ps,
        };
        let (mut base, mut lossy, mut swapped) = (Vec::new(), Vec::new(), Vec::new());
        let (mut seq, mut t) = (0, 1_000_000);
        while swapped.len() < n as usize {
            t += 280_000 + rnd() % 40_000;
            if seq < n {
                base.push(obs(seq, t));
                swapped.push(obs(seq, t + rnd() % 30_000));
            }
            if seq % 97 != 5 {
                lossy.push(obs(seq, t + rnd() % 30_000));
            }
            seq += 1;
        }
        lossy.truncate(n as usize);
        for block in swapped.chunks_exact_mut(4_096) {
            let (x, y) = block[1_000..1_096].split_at_mut(48);
            x.swap_with_slice(y);
        }
        [base, lossy, swapped]
    }

    #[test]
    #[ignore = "paper scale, 0.44 GB: cargo test --release -p choir-service --lib -- --ignored"]
    fn recovery_at_paper_scale_serves_what_an_uninterrupted_state_does() {
        // A tenant at the paper's trial length, ingested in 4096-record
        // batches round-robin over its streams, checkpointed most of the
        // way through, fed further, then dropped without a checkpoint and
        // reopened: every frame it serves, before and after the rest of
        // its records and after finishing, must be the one a state that
        // never stopped serves. Snapshots every 65 536 observations: at
        // the daemon's 512, a reordered stream's running O re-sorts every
        // pair per snapshot (ROADMAP 2(b)) and the feed, not recovery,
        // would be the test.
        const N: u64 = 1_053_370;
        const BATCH: usize = 4_096;
        let names = ["base", "lossy", "swapped"];
        let streams = paper_streams(N);
        let mut batches = Vec::new();
        for k in 0..(N as usize).div_ceil(BATCH) {
            for (name, recs) in names.iter().zip(&streams) {
                let lo = (k * BATCH).min(recs.len());
                let hi = (lo + BATCH).min(recs.len());
                if lo < hi {
                    batches.push((*name, lo as u64, &recs[lo..hi]));
                }
            }
        }
        let dir = |tag: &str| {
            let d = std::env::temp_dir()
                .join(format!("choir-daemon-paper-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&d);
            d
        };
        let cfg = |d: &PathBuf| DaemonConfig {
            checkpoint_every_records: 0,
            snapshot_every: 1 << 16,
            ..DaemonConfig::new(d)
        };
        let (straight_dir, crashed_dir) = (dir("straight"), dir("crashed"));
        let open = |d: &PathBuf| {
            let mut st =
                ServiceState::open(Arc::new(RealDisk), cfg(d)).expect("fresh data directory");
            let ok = |(r, _): (Response, bool)| assert!(matches!(r, Response::Ok), "{r:?}");
            ok(st.handle(Request::CreateTenant {
                tenant: "t".into(),
                budget_bytes: 0,
            }));
            for name in names {
                ok(st.handle(Request::OpenStream {
                    tenant: "t".into(),
                    stream: name.into(),
                }));
            }
            st
        };
        let feed = |st: &mut ServiceState, batches: &[(&str, u64, &[WireObs])]| {
            for &(stream, seq, recs) in batches {
                let (r, _) = st.handle(Request::Ingest {
                    tenant: "t".into(),
                    stream: stream.into(),
                    seq,
                    records: recs.to_vec(),
                });
                assert!(matches!(r, Response::Ingested { .. }), "{r:?}");
            }
        };
        let served = |st: &mut ServiceState| {
            let mut frames = Vec::new();
            for stream in &names[1..] {
                for req in [
                    Request::Snapshot {
                        tenant: "t".into(),
                        stream: stream.to_string(),
                    },
                    Request::Trail {
                        tenant: "t".into(),
                        stream: stream.to_string(),
                    },
                ] {
                    frames.push(serde_json::to_string(&st.handle(req).0).expect("encodes"));
                }
            }
            frames
        };
        let (ck_at, cut_at) = (batches.len() * 95 / 100, batches.len() * 97 / 100);

        let mut straight = open(&straight_dir);
        feed(&mut straight, &batches[..cut_at]);
        let mut crashed = open(&crashed_dir);
        feed(&mut crashed, &batches[..ck_at]);
        let (r, _) = crashed.handle(Request::Checkpoint);
        assert!(matches!(r, Response::Ok), "{r:?}");
        let ck_bytes = fs::metadata(crashed_dir.join("tenants/t/ck"))
            .expect("ck")
            .len();
        feed(&mut crashed, &batches[ck_at..cut_at]);
        drop(crashed);

        let t0 = std::time::Instant::now();
        let mut crashed =
            ServiceState::open(Arc::new(RealDisk), cfg(&crashed_dir)).expect("recovers");
        let recovery = t0.elapsed();
        println!(
            "recovered 3 x {N} records, {} in the journal, from a {ck_bytes}-byte ck in {:.1} ms",
            batches[ck_at..cut_at]
                .iter()
                .map(|b| b.2.len())
                .sum::<usize>(),
            recovery.as_secs_f64() * 1e3
        );
        for (got, want) in served(&mut crashed).iter().zip(&served(&mut straight)) {
            assert!(got == want, "after recovery:\n got {got}\nwant {want}");
        }
        // Again from a ck that covers everything: the engines' rebuild
        // alone, no journal to replay.
        let (r, _) = crashed.handle(Request::Checkpoint);
        assert!(matches!(r, Response::Ok), "{r:?}");
        drop(crashed);
        let t0 = std::time::Instant::now();
        let mut crashed =
            ServiceState::open(Arc::new(RealDisk), cfg(&crashed_dir)).expect("recovers");
        println!(
            "recovered from a ck covering every record in {:.1} ms",
            t0.elapsed().as_secs_f64() * 1e3
        );
        assert_eq!(served(&mut crashed), served(&mut straight), "no journal");
        for st in [&mut straight, &mut crashed] {
            feed(st, &batches[cut_at..]);
        }
        assert_eq!(
            served(&mut crashed),
            served(&mut straight),
            "fed to the end"
        );
        let finals = |st: &mut ServiceState| {
            names.map(|stream| {
                let req = Request::FinishStream {
                    tenant: "t".into(),
                    stream: stream.into(),
                };
                serde_json::to_string(&st.handle(req).0).expect("encodes")
            })
        };
        let want = finals(&mut straight);
        assert!(
            want[1..].iter().all(|f| f.contains("kappa_bits")),
            "{want:?}"
        );
        assert_eq!(finals(&mut crashed), want);
        assert_eq!(served(&mut crashed), served(&mut straight), "finished");
        drop((straight, crashed));
        for d in [straight_dir, crashed_dir] {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("tenant-1_A"));
        assert!(!valid_name(""));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
