//! The κ-as-a-service daemon: a long-running, multi-tenant streaming
//! consistency monitor.
//!
//! Each tenant owns a set of named capture streams. The first stream a
//! tenant opens is its **baseline**; every later stream gets its own
//! [`IncrementalComparison`] engine against that baseline — the engine
//! whose finalize is bit-identical to the batch pipeline *for any
//! interleaving of the two sides*. That interleaving-independence is what makes the daemon's
//! numbers trustworthy: observations arrive over sockets in whatever
//! order the network delivers them, and the served κ is still exactly
//! the κ a post-hoc batch analysis of the same records produces,
//! bit for bit. `tests/daemon.rs` gates on this.
//!
//! # Durability
//!
//! Tenants share nothing, so each keeps its durable state to itself, in
//! `tenants/<name>/`:
//!
//! * `<stream>.log` — the stream's records, 24 bytes each, append-only
//!   ([`TrialStore`]). An ingest appends its records here first;
//! * `journal` — one JSON line per mutating op, numbered, in order. An
//!   ingest's line is a *marker* (`stream`, `seq`, `count`) written
//!   after the log append and before the op is applied or acknowledged;
//! * `ck` — the tenant's checkpoint, one checksummed JSON section: the
//!   layout it is in, stream metadata, final summaries, the number of
//!   the last journal line it covers, and each live engine's
//!   [`StreamCursor`] — records consumed per side, a few scalars and the
//!   trail, never a pair or a pending record. A tenant exists iff its
//!   `ck` does. A checkpoint (explicit, cadence, or graceful shutdown)
//!   rewrites `ck` (write-temp, then rename) and empties `journal` for
//!   the tenants touched since the last one, and for no others.
//!
//! The logs are the only durable home of the records. Recovery loads
//! each `ck`, and refuses by name one in another layout than this
//! build's — bytes after the head section are the engine slabs of a
//! `ck` from before cursors, which this build does not read. It rebuilds
//! every live engine from its cursor and the two log prefixes it names —
//! the baseline's first `seen_a` records and the stream's whole log —
//! through [`IncrementalComparison::rebuild`], which refuses a cursor of
//! the wrong engine or config and records that do not re-feed to the
//! state the cursor recorded. A cursor that claims more baseline records
//! than the log holds, or other than its stream's count, is refused by
//! name. Then it replays the journal lines the checkpoint does not cover
//! through the *same* apply path the wire handlers use, reading each
//! marker's records back from the log, and leaves every trial
//! non-resident. Only a final line without its newline is dropped, as a
//! crash mid-append leaves it; a whole line that is not an entry is
//! refused by name. Log bytes past the last marker — a crash between the
//! two appends, never acknowledged — are ignored and cut off by the
//! stream's next append.
//!
//! Every append reaches the OS before the op is acknowledged, so a hard
//! kill between checkpoints loses nothing. Nothing is `fsync`ed: a
//! power cut can lose acknowledged records.
//!
//! # Memory
//!
//! Trial bytes live in a per-tenant [`TrialStore`] with an LRU
//! budget; engines hold only unmatched residents. The `Stats` response
//! exposes resident bytes so operators (and the bench's RSS gate) can
//! watch the budget hold.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead, BufReader, Write};
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

/// A stream's records, and how many it holds, are the store's.
struct StreamState {
    finished: bool,
    /// `None` for the tenant baseline; comparison streams carry an
    /// engine while live and a summary once finished.
    engine: Option<IncrementalComparison>,
    done: Option<FinishedStream>,
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
    baseline: Option<String>,
    streams: BTreeMap<String, StreamState>,
    /// Number of the last journal entry applied.
    applied: u64,
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

/// Feed `eng` the baseline records it has not seen yet, borrowed from
/// the store.
fn catch_up(
    eng: &mut IncrementalComparison,
    store: &mut TrialStore,
    baseline: &str,
) -> Result<(), String> {
    let fed = eng.seen_a();
    if (fed as u64) < store.len(baseline) {
        let base = store.get(baseline).map_err(|e| e.to_string())?;
        eng.push_burst(Side::A, &base[fed..]);
    }
    Ok(())
}

impl Tenant {
    /// A new, empty tenant: its directory and its first checkpoint.
    fn create(cfg: &DaemonConfig, name: &str, budget_bytes: u64) -> Result<Self, String> {
        let dir = cfg.tenant_dir(name);
        // Only a creation that crashed before its first checkpoint can
        // have left this behind.
        let _ = fs::remove_dir_all(&dir);
        let mut t = Tenant {
            name: name.to_string(),
            store: TrialStore::open(&dir, budget_bytes).map_err(|e| e.to_string())?,
            dir,
            baseline: None,
            streams: BTreeMap::new(),
            applied: 0,
            dirty: true,
        };
        t.checkpoint()?;
        Ok(t)
    }

    /// Load `ck`, rebuild its live engines from their cursors and the
    /// logs, then replay the journal entries it does not cover.
    fn recover(cfg: &DaemonConfig, name: &str) -> Result<Self, DaemonError> {
        let bad = |what: &str, e: &dyn std::fmt::Display| {
            DaemonError::Recovery(format!("tenant `{name}`: {what}: {e}"))
        };
        let dir = cfg.tenant_dir(name);
        let _ = fs::remove_file(dir.join("ck.tmp"));
        let path = dir.join("ck");
        let mut r = BufReader::new(fs::File::open(&path)?);
        let head = read_section(&mut r, "tenant").map_err(|e| bad("checkpoint", &e))?;
        let head = std::str::from_utf8(&head).map_err(|e| bad("checkpoint", &e))?;
        let ck: TenantCk = serde_json::from_str(head).map_err(|e| bad("checkpoint", &e))?;
        let slabs = !r.fill_buf()?.is_empty();
        if slabs || ck.layout != LAYOUT {
            let found = if slabs {
                format!("bytes follow its head section, as engine slabs did in the layout before cursors, last read at {LAST_SLAB_READER}")
            } else {
                format!("layout {}", ck.layout)
            };
            let what = format!("`{}`", path.display());
            return Err(bad(
                &what,
                &format!("{found}; this build reads layout {LAYOUT} only"),
            ));
        }
        let mut store = TrialStore::open(&dir, ck.budget_bytes)?;
        for sck in &ck.streams {
            store.adopt(&sck.name, sck.ingested)?;
        }
        // The baseline's records, read once for every engine's side A.
        let mut base = Vec::new();
        if ck.streams.iter().any(|s| s.engine.is_some()) {
            let baseline = (ck.baseline.as_deref())
                .ok_or_else(|| bad("checkpoint", &"live engines but no baseline"))?;
            base = store.get(baseline)?.to_vec();
        }
        let mut streams = BTreeMap::new();
        for sck in ck.streams {
            let engine = match sck.engine {
                None => None,
                Some(cursor) => {
                    let what = format!("engine `{}`", sck.name);
                    let (seen_a, seen_b) = (cursor.seen_a(), cursor.seen_b());
                    let holds = base.len();
                    if seen_a > holds {
                        let e = format!("side A consumed {seen_a} records, its baseline holds {holds}");
                        return Err(bad(&what, &e));
                    }
                    if seen_b as u64 != sck.ingested {
                        let e = format!(
                            "side B consumed {seen_b} records, its stream holds {}",
                            sck.ingested
                        );
                        return Err(bad(&what, &e));
                    }
                    let id = engine_id_for(name, &sck.name);
                    let b = store.get(&sck.name)?;
                    let eng = IncrementalComparison::rebuild(
                        cursor,
                        id,
                        &cfg.stream_config(),
                        &base[..seen_a],
                        b,
                    )
                    .map_err(|e| bad(&what, &e))?;
                    Some(eng)
                }
            };
            // Non-resident again, as every trial starts.
            store.adopt(&sck.name, sck.ingested)?;
            streams.insert(
                sck.name,
                StreamState {
                    finished: sck.finished,
                    engine,
                    done: sck.done,
                },
            );
        }
        let mut t = Tenant {
            name: name.to_string(),
            dir,
            store,
            baseline: ck.baseline,
            streams,
            applied: ck.applied,
            dirty: false,
        };
        t.replay(cfg.stream_config())?;
        Ok(t)
    }

    fn replay(&mut self, cfg: StreamConfig) -> Result<(), DaemonError> {
        let path = self.dir.join("journal");
        let raw = match fs::read(&path) {
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
            let lost = |what: String| {
                DaemonError::Recovery(format!(
                    "journal of `{}`, entry {}: {what}",
                    path.display(),
                    entry.n
                ))
            };
            if entry.n != self.applied + 1 {
                return Err(lost(format!("follows entry {}", self.applied)));
            }
            if let JournalOp::Ingest { stream, seq, count } = &entry.op {
                let live = self.streams.get(stream).is_some_and(|s| !s.finished);
                if !live || self.store.len(stream) != *seq {
                    return Err(lost(format!(
                        "marker at {seq} does not continue `{stream}`"
                    )));
                }
                self.store.adopt(stream, seq + count)?;
            }
            // A refusal replays as the same refusal.
            let _ = self.apply(cfg, entry.op);
            self.applied = entry.n;
            self.dirty = true;
        }
        if good < raw.len() {
            fs::OpenOptions::new()
                .write(true)
                .open(&path)?
                .set_len(good as u64)?;
        }
        Ok(())
    }

    /// Append `op` to the journal as the tenant's next entry.
    fn journal(&mut self, op: &JournalOp) -> Result<(), String> {
        let n = self.applied + 1;
        let op = serde_json::to_string(op).map_err(|e| format!("journal encode: {e}"))?;
        fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join("journal"))
            .and_then(|mut f| f.write_all(format!("{{\"n\":{n},\"op\":{op}}}\n").as_bytes()))
            .map_err(|e| format!("journal append: {e}"))?;
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
        if s.finished {
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
        if let Some(i) = records[skip..].iter().position(|w| w.t_ps >= MAX_TIMESTAMP_PS) {
            return Err(format!(
                "record {} of `{name}/{stream}` is stamped {} ps, at or past the {MAX_TIMESTAMP_PS} ps bound",
                have + i as u64,
                records[skip + i].t_ps
            ));
        }
        let fresh: Vec<Observation> = records[skip..].iter().map(|&w| w.into()).collect();
        self.store
            .append(&stream, &fresh)
            .map_err(|e| e.to_string())?;
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

    /// Apply one op. Shared by the wire handlers (after journaling) and
    /// recovery replay — the single path that keeps replayed state
    /// bit-identical to the uninterrupted run. An `Ingest` marker's
    /// records are read back from the store, where they already are.
    fn apply(&mut self, cfg: StreamConfig, op: JournalOp) -> Result<Response, String> {
        let Tenant {
            name,
            store,
            baseline,
            streams,
            ..
        } = self;
        match op {
            JournalOp::OpenStream { stream } => {
                if streams.contains_key(&stream) {
                    return Err(format!("stream `{name}/{stream}` already open"));
                }
                let engine = if baseline.is_none() {
                    *baseline = Some(stream.clone());
                    None
                } else {
                    Some(
                        IncrementalComparison::new(cfg)
                            .with_engine_id(engine_id_for(name, &stream)),
                    )
                };
                streams.insert(
                    stream,
                    StreamState {
                        finished: false,
                        engine,
                        done: None,
                    },
                );
                obs::counter_inc("service.streams.opened");
                Ok(Response::Ok)
            }
            JournalOp::Ingest { stream, seq, .. } => {
                let baseline = baseline
                    .as_deref()
                    .expect("a stream is open, so a baseline is");
                if stream == baseline {
                    // Baseline grew: advance side A of every live engine
                    // from wherever it stands. An engine opened after the
                    // baseline already had data may lag; it gets the
                    // prefix it missed and the fresh tail in one slice,
                    // in order.
                    if streams.values().any(|o| o.engine.is_some()) {
                        let base = store.get(&stream).map_err(|e| e.to_string())?;
                        for eng in streams.values_mut().filter_map(|o| o.engine.as_mut()) {
                            let fed = eng.seen_a();
                            eng.push_burst(Side::A, &base[fed..]);
                        }
                    }
                } else {
                    // Comparison stream: feed side B, then catch side A
                    // up to the baseline's current length (covers
                    // streams opened after the baseline had data).
                    let eng = (streams.get_mut(&stream))
                        .and_then(|s| s.engine.as_mut())
                        .expect("live comparison stream");
                    let fresh = store.get(&stream).map_err(|e| e.to_string())?;
                    eng.push_burst(Side::B, &fresh[seq as usize..]);
                    catch_up(eng, store, baseline)?;
                }
                Ok(Response::Ingested {
                    total: store.len(&stream),
                })
            }
            JournalOp::Finish { stream } => {
                let s = streams
                    .get_mut(&stream)
                    .ok_or_else(|| format!("no stream `{name}/{stream}`"))?;
                if s.finished {
                    return Err(format!("stream `{name}/{stream}` already finished"));
                }
                if s.engine.is_none() {
                    // Live and engineless: the baseline.
                    s.finished = true;
                    return Ok(Response::Finished { summary: None });
                }
                let baseline = baseline
                    .as_deref()
                    .expect("a stream is open, so a baseline is");
                if !streams[baseline].finished {
                    return Err(format!(
                        "finish baseline `{name}/{baseline}` before its comparison streams"
                    ));
                }
                // Flush the side-A tail, then finalize the engine.
                let s = streams.get_mut(&stream).expect("looked up above");
                catch_up(
                    s.engine.as_mut().expect("live comparison stream"),
                    store,
                    baseline,
                )?;
                let out = s
                    .engine
                    .take()
                    .expect("live comparison stream")
                    .finalize(stream);
                let done = FinishedStream {
                    comparison: out.comparison,
                    snapshots: out.snapshots,
                };
                let resp = Response::Finished {
                    summary: Some(WireFinal::from(&done.comparison)),
                };
                s.finished = true;
                s.done = Some(done);
                obs::counter_inc("service.streams.finished");
                Ok(resp)
            }
        }
    }

    /// Write `ck` (temp + rename), then empty the journal it now covers.
    fn checkpoint(&mut self) -> Result<(), String> {
        let streams = (self.streams.iter())
            .map(|(name, s)| StreamCk {
                name: name.clone(),
                ingested: self.store.len(name),
                finished: s.finished,
                engine: s.engine.as_ref().map(IncrementalComparison::cursor),
                done: s.done.clone(),
            })
            .collect();
        let head = serde_json::to_string(&TenantCk {
            layout: LAYOUT,
            budget_bytes: self.store.stats().budget_bytes,
            baseline: self.baseline.clone(),
            applied: self.applied,
            streams,
        })
        .map_err(|e| format!("checkpoint encode: {e}"))?;
        let (tmp, ck) = (self.dir.join("ck.tmp"), self.dir.join("ck"));
        fs::File::create(&tmp)
            .and_then(|mut f| write_section(&mut f, head.as_bytes()))
            .and_then(|()| fs::rename(&tmp, &ck))
            .and_then(|()| fs::File::create(self.dir.join("journal")).map(drop))
            .map_err(|e| format!("checkpoint of `{}`: {e}", self.name))?;
        self.dirty = false;
        Ok(())
    }
}

struct ServiceState {
    cfg: DaemonConfig,
    tenants: BTreeMap<String, Tenant>,
    records_since_ck: u64,
    ingests: u64,
    records_total: u64,
}

impl ServiceState {
    /// Recover every tenant under `data_dir`, or start empty.
    fn open(cfg: DaemonConfig) -> Result<Self, DaemonError> {
        for old in ["state.json", "journal.jsonl"] {
            if cfg.data_dir.join(old).exists() {
                return Err(DaemonError::Recovery(format!(
                    "`{old}` in {}: a data directory in the old single-file layout is not migrated",
                    cfg.data_dir.display()
                )));
            }
        }
        let root = cfg.data_dir.join("tenants");
        fs::create_dir_all(&root)?;
        let mut tenants = BTreeMap::new();
        for entry in fs::read_dir(&root)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if valid_name(&name) && entry.path().join("ck").exists() {
                tenants.insert(name.clone(), Tenant::recover(&cfg, &name)?);
            } else {
                // A tenant dropped, or created, only halfway.
                let _ = fs::remove_dir_all(entry.path());
            }
        }
        Ok(ServiceState {
            cfg,
            tenants,
            records_since_ck: 0,
            ingests: 0,
            records_total: 0,
        })
    }

    fn tenant(&mut self, tenant: &str) -> Result<&mut Tenant, String> {
        self.tenants
            .get_mut(tenant)
            .ok_or_else(|| format!("no tenant `{tenant}`"))
    }

    fn stream(&self, tenant: &str, stream: &str) -> Result<(&Tenant, &StreamState), String> {
        let t = self
            .tenants
            .get(tenant)
            .ok_or_else(|| format!("no tenant `{tenant}`"))?;
        let s = t
            .streams
            .get(stream)
            .ok_or_else(|| format!("no stream `{tenant}/{stream}`"))?;
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
        let t = Tenant::create(&self.cfg, &tenant, budget)?;
        self.tenants.insert(tenant, t);
        obs::counter_inc("service.tenants.created");
        obs::gauge_set("service.tenants", self.tenants.len() as u64);
        Ok(Response::Ok)
    }

    fn drop_tenant(&mut self, tenant: &str) -> Result<Response, String> {
        // A tenant exists iff its `ck` does: gone in that one step, then
        // deleted; recovery finishes a deletion that does not complete.
        let ck = self.tenant(tenant)?.dir.join("ck");
        fs::remove_file(ck).map_err(|e| format!("drop of `{tenant}`: {e}"))?;
        let t = self.tenants.remove(tenant).expect("looked up above");
        let _ = fs::remove_dir_all(&t.dir);
        obs::counter_inc("service.tenants.dropped");
        obs::gauge_set("service.tenants", self.tenants.len() as u64);
        Ok(Response::Ok)
    }

    /// Journal + apply a stream op of one tenant.
    fn mutate(&mut self, tenant: &str, op: JournalOp) -> Result<Response, String> {
        let cfg = self.cfg.stream_config();
        let t = self.tenant(tenant)?;
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
        let (_, s) = self.stream(tenant, stream)?;
        if let Some(done) = &s.done {
            let c = &done.comparison;
            return Ok(Response::Snapshot {
                seen_a: c.a_len as u64,
                seen_b: c.b_len as u64,
                common: c.common as u64,
                running: WireKappa::from(&c.metrics),
            });
        }
        let Some(eng) = &s.engine else {
            return Err(format!(
                "`{tenant}/{stream}` is the baseline; it has no score"
            ));
        };
        // The live engine scores its own prefix (`&self`, bit-identical
        // to batch analysis of the same records).
        Ok(Response::Snapshot {
            seen_a: eng.seen_a() as u64,
            seen_b: eng.seen_b() as u64,
            common: eng.matched() as u64,
            running: WireKappa::from(&eng.running_metrics()),
        })
    }

    fn trail_of(&self, tenant: &str, stream: &str) -> Result<Response, String> {
        let (_, s) = self.stream(tenant, stream)?;
        let snaps: &[KappaSnapshot] = if let Some(done) = &s.done {
            &done.snapshots
        } else if let Some(eng) = &s.engine {
            eng.snapshots()
        } else {
            return Err(format!(
                "`{tenant}/{stream}` is the baseline; it has no trail"
            ));
        };
        Ok(Response::Trail {
            points: snaps.iter().map(WireTrailPoint::from).collect(),
        })
    }

    fn matrix_of(&mut self, tenant: &str) -> Result<Response, String> {
        let shards = thread::available_parallelism().map_or(1, |n| n.get());
        let t = self.tenant(tenant)?;
        let labels = t.store.keys();
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
                        finished: s.finished,
                        baseline: Some(&stream) == t.baseline.as_ref(),
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
        let state = Arc::new(Mutex::new(ServiceState::open(cfg)?));
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
    use super::*;

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
        let dir = std::env::temp_dir().join(format!("choir-daemon-bound-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut st = ServiceState::open(DaemonConfig::new(&dir)).expect("fresh data directory");
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
        let files = |t: &Tenant| ["journal", "run.log"].map(|f| fs::read(t.dir.join(f)).expect(f));
        let before = files(tenant);

        let (resp, _) = st.handle(ingest("run", bound, 1));
        let Response::Error { message } = resp else {
            panic!("accepted: {resp:?}")
        };
        assert!(
            message.contains(&format!("{bound}-record bound")),
            "{message}"
        );
        assert_eq!(files(&st.tenants[&t]), before, "a refusal writes nothing");
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
        let _ = fs::remove_dir_all(&dir);
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
            let mut st = ServiceState::open(cfg(d)).expect("fresh data directory");
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
        let mut crashed = ServiceState::open(cfg(&crashed_dir)).expect("recovers");
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
        let mut crashed = ServiceState::open(cfg(&crashed_dir)).expect("recovers");
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
