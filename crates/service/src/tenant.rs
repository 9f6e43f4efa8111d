//! One tenant: its streams, its files and the reads it serves.
//!
//! A tenant owns a map of named capture streams, the only record of them,
//! and a stream is in one of three states: the **baseline** (the first
//! stream opened, live or finished), a **live** comparison stream whose
//! own [`IncrementalComparison`] serves its running score, or a **done**
//! one holding its final: the baseline's and the stream's logs scored by
//! [`report::analyze`], as their matrix cell is, so a final is a function
//! of two durable logs (`tests/crash.rs`). Every journaled op is checked
//! against the map, then reads from the logs what applying it needs, so
//! a refused op or a failed read writes no byte. It is then logged (an
//! ingest's records), journaled and applied, which cannot fail. Between
//! ops every live engine has consumed its whole baseline: it is fed the
//! baseline so far as its stream opens, then only what each ingest brings.
//!
//! A [`Tenant`] is built from a [`Disk`], its directory, its name and the
//! [`StreamConfig`] of its engines, and knows nothing of the registry that
//! holds it, of sockets or of other tenants.
//!
//! # Durability
//!
//! Each tenant keeps its state in its own directory, `tenants/<name>/`:
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
//! records than the logs hold, and feeding side A what of the baseline a
//! cursor an earlier build wrote had not consumed. Then it replays the
//! journal lines the `ck` does not cover through the *same* check, read
//! and apply the wire handlers use. An `OpenStream` or `Finish` the check
//! refuses was journaled by an earlier build that refused it live, and is
//! skipped; a marker it refuses, an op whose read fails and a whole line
//! that is not an entry are refused by name. Only a final line without its
//! newline, as a crash mid-append leaves it, is dropped. Recovery writes
//! no log or journal byte (it removes only a leftover `ck.tmp`): logs and
//! journal are appended at the end their owner accounts for ([`Disk`]'s
//! one append rule), so whatever lies past it is overwritten by the next
//! append. Nothing is `fsync`ed: a hard kill loses nothing acknowledged, a
//! power cut can.
//!
//! # Memory
//!
//! Trial bytes live in a per-tenant [`TrialStore`] with an LRU budget;
//! engines hold only unmatched residents. `Stats` exposes resident bytes
//! so operators (and the bench's RSS gate) can watch the budget hold.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;

use choir_core::metrics::stream::{read_section, write_section};
use choir_core::metrics::{
    all_pairs_sharded, report, IncrementalComparison, KappaSnapshot, Observation, ResumeMismatch,
    Side, StageTimings, StreamConfig, StreamCursor, Trial, TrialComparison, MAX_TIMESTAMP_PS,
    MAX_TRIAL_LEN,
};
use choir_core::obs;
use serde::{Deserialize, Serialize};

use crate::daemon::DaemonError;
use crate::disk::Disk;
use crate::store::{StoreStats, TrialStore};
use crate::wire::{Response, WireCell, WireFinal, WireKappa, WireTrailPoint};

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

/// A finished comparison stream's durable result: its final, without
/// wall-clock `timings` so one op schedule writes one `ck`, and its trail.
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
pub(crate) enum JournalOp {
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

/// One tenant: its streams, its store and its files.
pub(crate) struct Tenant {
    name: String,
    dir: PathBuf,
    /// The measurement config of every engine the tenant builds.
    cfg: StreamConfig,
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

/// A stream's records, borrowed from the store; a failure names its log.
fn records<'s>(store: &'s mut TrialStore, stream: &str) -> Result<&'s [Observation], String> {
    (store.get(stream).map(Trial::observations)).map_err(|e| format!("reading `{stream}.log`: {e}"))
}

/// `f` over streams' trials, lent together by the store where they lie; a
/// failure names the log it could not read.
fn scored<R>(
    store: &mut TrialStore,
    streams: &[&str],
    f: impl FnOnce(&[&Trial]) -> R,
) -> Result<R, String> {
    (store.with_trials(streams, f)).map_err(|(stream, e)| format!("reading `{stream}.log`: {e}"))
}

/// What [`Tenant::read`] reads for an op, from the logs.
enum Read {
    /// An op that needs nothing from the logs.
    Nothing,
    /// A comparison `OpenStream`'s engine, fed the baseline so far.
    Engine(Box<IncrementalComparison>),
    /// A comparison `Finish`'s final: the baseline's and the stream's
    /// trials scored where the store holds them.
    Final(Box<TrialComparison>),
}

impl Tenant {
    /// A tenant that has applied no journal entry and has nothing to
    /// checkpoint.
    fn new(
        name: &str,
        dir: PathBuf,
        cfg: StreamConfig,
        store: TrialStore,
        streams: BTreeMap<String, Stream>,
    ) -> Self {
        Tenant {
            name: name.to_string(),
            dir,
            cfg,
            store,
            streams,
            applied: 0,
            journal_len: 0,
            dirty: false,
        }
    }

    /// Whether `dir` holds a tenant: a `ck` that is not there (not one
    /// that cannot be stat'ed) makes it a tenant dropped, or created,
    /// halfway.
    pub(crate) fn exists(disk: &dyn Disk, dir: &Path) -> std::io::Result<bool> {
        Ok(disk.len(&dir.join("ck"))?.is_some())
    }

    /// A new, empty tenant in `dir`: the directory and its first
    /// checkpoint.
    pub(crate) fn create(
        disk: Arc<dyn Disk>,
        dir: PathBuf,
        name: &str,
        cfg: StreamConfig,
        budget_bytes: u64,
    ) -> Result<Self, String> {
        // Only a creation that crashed before its first checkpoint can
        // have left this behind.
        let _ = disk.remove_dir_all(&dir);
        let store = TrialStore::open_on(disk, &dir, budget_bytes).map_err(|e| e.to_string())?;
        let mut t = Tenant::new(name, dir, cfg, store, BTreeMap::new());
        // It has no `ck` yet.
        t.dirty = true;
        t.checkpoint()?;
        Ok(t)
    }

    /// The tenant in `dir`: load `ck`, rebuild its live engines from their
    /// cursors and the logs, each caught up with its baseline, then replay
    /// the journal entries it does not cover.
    pub(crate) fn recover(
        disk: Arc<dyn Disk>,
        dir: PathBuf,
        name: &str,
        cfg: StreamConfig,
    ) -> Result<Self, DaemonError> {
        let bad = |what: &str, e: &dyn std::fmt::Display| {
            DaemonError::Recovery(format!("tenant `{name}`: {what}: {e}"))
        };
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
        let mut store = TrialStore::open_on(disk, &dir, ck.budget_bytes)?;
        for sck in &ck.streams {
            store.adopt(&sck.name, sck.ingested)?;
        }
        let baseline = ck.baseline.as_deref();
        let mut streams = BTreeMap::new();
        for sck in ck.streams {
            // A stream's state must agree with whether `baseline` names it.
            let named = baseline == Some(sck.name.as_str());
            let stream = match (sck.engine, sck.done, sck.finished, baseline) {
                (None, None, finished, _) if named => Stream::Baseline { finished },
                (None, Some(done), true, _) if !named => Stream::Done(Box::new(done)),
                (Some(cursor), None, false, Some(base)) if !named => {
                    let what = format!("engine `{}`", sck.name);
                    let (seen_a, seen_b, holds) =
                        (cursor.seen_a(), cursor.seen_b(), store.len(base) as usize);
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
                    let id = engine_id_for(name, &sck.name);
                    // The baseline and the stream, lent together.
                    let rebuilt = store.with_trials(&[base, &sck.name], |t| {
                        let (base, b) = (t[0].observations(), t[1].observations());
                        let mut eng =
                            IncrementalComparison::rebuild(cursor, id, &cfg, &base[..seen_a], b)?;
                        // An earlier build's cursor may not cover the baseline.
                        eng.push_burst(Side::A, &base[seen_a..]);
                        Ok::<_, ResumeMismatch>(eng)
                    });
                    let eng = rebuilt.map_err(|(_, e)| e)?.map_err(|e| bad(&what, &e))?;
                    Stream::Live(Box::new(eng))
                }
                (engine, done, finished, _) => {
                    let (e, d) = (engine.is_some(), done.is_some());
                    let e = format!("engine {e}, summary {d}, finished {finished}, the baseline {named}; no build writes this");
                    return Err(bad(&format!("stream `{}`", sck.name), &e));
                }
            };
            streams.insert(sck.name, stream);
        }
        // A tenant with any stream has a baseline, and `baseline` names
        // nothing else (a stream it names is a baseline or refused above).
        if baseline_of(&streams).is_none() && (baseline.is_some() || !streams.is_empty()) {
            let n = streams.len();
            let e = format!("`baseline` is {baseline:?} over {n} stream(s), none of them a baseline; no build writes this");
            return Err(bad("checkpoint", &e));
        }
        let mut t = Tenant::new(name, dir, cfg, store, streams);
        t.applied = ck.applied;
        t.replay()?;
        Ok(t)
    }

    fn replay(&mut self) -> Result<(), DaemonError> {
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
                    let read = self.read(op).map_err(lost)?;
                    // A marker's records, borrowed from its log if they feed an engine.
                    let mut recs: &[Observation] = &[];
                    if let JournalOp::Ingest { stream, seq, count } = op {
                        self.store.adopt(stream, seq + count)?;
                        if self.streams.values().any(|s| matches!(s, Stream::Live(_))) {
                            let log = records(&mut self.store, stream).map_err(lost)?;
                            recs = &log[*seq as usize..];
                        }
                    }
                    apply(&mut self.streams, entry.op, read, recs);
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

    /// The one path of every journaled op: check, read, write, apply. An
    /// `Ingest`'s `fresh` records (none for another op) are logged before
    /// its marker and fed after it. An op refused, or whose read fails,
    /// writes nothing and leaves the tenant clean; applying cannot fail.
    pub(crate) fn mutate(
        &mut self,
        op: JournalOp,
        fresh: &[Observation],
    ) -> Result<Response, String> {
        self.check(&op)?;
        let read = self.read(&op)?;
        if let JournalOp::Ingest { stream, .. } = &op {
            (self.store.append(stream, fresh)).map_err(|e| e.to_string())?;
        }
        if let Err(e) = self.journal(&op) {
            if let JournalOp::Ingest { stream, seq, .. } = &op {
                // No marker, no records: back to what the journal covers.
                let _ = self.store.adopt(stream, *seq);
            }
            return Err(e);
        }
        Ok(apply(&mut self.streams, op, read, fresh))
    }

    /// Everything applying `op` needs, read before its journal line. An
    /// `Ingest` needs nothing: its records are the request's, or its log's.
    /// A `Finish` is scored here, on the two trials the store holds.
    fn read(&mut self, op: &JournalOp) -> Result<Read, String> {
        let (store, streams) = (&mut self.store, &self.streams);
        let live = |s: &str| matches!(streams.get(s), Some(Stream::Live(_)));
        match (op, baseline_of(streams)) {
            (JournalOp::OpenStream { stream }, Some((base, _))) => {
                let id = engine_id_for(&self.name, stream);
                let mut eng = IncrementalComparison::new(self.cfg).with_engine_id(id);
                if store.len(base) > 0 {
                    eng.push_burst(Side::A, records(store, base)?);
                }
                Ok(Read::Engine(Box::new(eng)))
            }
            (JournalOp::Finish { stream }, Some((base, _))) if live(stream) => {
                // Its matrix cell, without wall-clock time.
                let comparison = scored(store, &[base, stream], |t| TrialComparison {
                    timings: StageTimings::default(),
                    ..report::analyze(stream, t[0], t[1])
                })?;
                Ok(Read::Final(Box::new(comparison)))
            }
            _ => Ok(Read::Nothing),
        }
    }

    /// The wire path of an `Ingest`: refuse what its marker's check
    /// refuses, skip what a resend repeats, bound what is fresh, then
    /// [`mutate`](Self::mutate). Answers the response and the fresh count.
    pub(crate) fn ingest(
        &mut self,
        stream: String,
        seq: u64,
        records: &[Observation],
    ) -> Result<(Response, u64), String> {
        // Idempotent resend: skip records the stream already has.
        let have = self.store.len(&stream);
        let skip = have.saturating_sub(seq) as usize;
        let count = records.len().saturating_sub(skip) as u64;
        let marker = JournalOp::Ingest {
            stream: stream.clone(),
            seq: have,
            count,
        };
        self.check(&marker)?;
        let name = &self.name;
        if seq > have {
            return Err(format!(
                "ingest gap on `{name}/{stream}`: batch starts at {seq}, stream has {have}"
            ));
        }
        if count == 0 {
            return Ok((Response::Ingested { total: have }, 0));
        }
        // The engines' and kernels' positions and gap arithmetic hold only
        // below these bounds. Past one, a batch would be logged and
        // journaled, then panic inside `apply` — with the service lock
        // held — and again on every replay.
        if have + count > MAX_TRIAL_LEN as u64 {
            return Err(format!(
                "`{name}/{stream}` holds {have} records; {count} more would pass the {MAX_TRIAL_LEN}-record bound"
            ));
        }
        let late = |o: &Observation| o.t_ps >= MAX_TIMESTAMP_PS;
        if let Some(i) = records[skip..].iter().position(late) {
            return Err(format!(
                "record {} of `{name}/{stream}` is stamped {} ps, at or past the {MAX_TIMESTAMP_PS} ps bound",
                have + i as u64,
                records[skip + i].t_ps
            ));
        }
        Ok((self.mutate(marker, &records[skip..])?, count))
    }

    /// The refusal `op` gets from the tenant's streams, if any. Every op
    /// passes it before anything is written: live before its journal line
    /// (an `Ingest` before its log append), replayed before it is applied.
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

    /// If the tenant changed since its last checkpoint, write `ck` (temp +
    /// rename), then empty the journal it now covers. A clean tenant's
    /// files are not opened.
    pub(crate) fn checkpoint(&mut self) -> Result<(), String> {
        if !self.dirty {
            return Ok(());
        }
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

    /// Delete the tenant's files. It exists iff its `ck` does: gone in
    /// that one step, then the directory; recovery finishes a deletion
    /// that does not complete.
    pub(crate) fn remove(&self) -> Result<(), String> {
        let disk = &self.store.disk;
        (disk.remove_file(&self.dir.join("ck")))
            .map_err(|e| format!("drop of `{}`: {e}", self.name))?;
        let _ = disk.remove_dir_all(&self.dir);
        Ok(())
    }

    fn stream(&self, stream: &str) -> Result<&Stream, String> {
        (self.streams.get(stream)).ok_or_else(|| format!("no stream `{}/{stream}`", self.name))
    }

    /// A stream's running score: a live engine's over its prefix, a
    /// finished one's final.
    pub(crate) fn snapshot(&self, stream: &str) -> Result<Response, String> {
        match self.stream(stream)? {
            Stream::Done(done) => {
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
            Stream::Live(eng) => Ok(Response::Snapshot {
                seen_a: eng.seen_a() as u64,
                seen_b: eng.seen_b() as u64,
                common: eng.matched() as u64,
                running: WireKappa::from(&eng.running_metrics()),
            }),
            Stream::Baseline { .. } => Err(format!(
                "`{}/{stream}` is the baseline; it has no score",
                self.name
            )),
        }
    }

    /// A stream's snapshot trail.
    pub(crate) fn trail(&self, stream: &str) -> Result<Response, String> {
        let snaps: &[KappaSnapshot] = match self.stream(stream)? {
            Stream::Done(done) => &done.snapshots,
            Stream::Live(eng) => eng.snapshots(),
            Stream::Baseline { .. } => {
                return Err(format!(
                    "`{}/{stream}` is the baseline; it has no trail",
                    self.name
                ))
            }
        };
        Ok(Response::Trail {
            points: snaps.iter().map(WireTrailPoint::from).collect(),
        })
    }

    /// A stream's record count and state.
    pub(crate) fn status(&self, stream: &str) -> Result<Response, String> {
        let s = self.stream(stream)?;
        Ok(Response::Status {
            ingested: self.store.len(stream),
            finished: s.finished(),
            baseline: matches!(s, Stream::Baseline { .. }),
        })
    }

    /// All-pairs κ over every stream of the tenant, the empty ones
    /// included.
    pub(crate) fn matrix(&mut self) -> Result<Response, String> {
        let shards = thread::available_parallelism().map_or(1, |n| n.get());
        let labels: Vec<String> = self.streams.keys().cloned().collect();
        if labels.len() < 2 {
            return Err(format!(
                "tenant `{}` has {} stream(s); a matrix needs at least 2",
                self.name,
                labels.len()
            ));
        }
        let keys: Vec<&str> = labels.iter().map(String::as_str).collect();
        let matrix = scored(&mut self.store, &keys, |t| all_pairs_sharded(t, shards))?
            .map_err(|e| format!("all-pairs analysis failed: {e:?}"))?;
        let n = labels.len() as u64;
        let pairs = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
        let cells = (pairs.zip(&matrix.cells))
            .map(|((i, j), c)| WireCell {
                i,
                j,
                score: WireKappa::from(&c.metrics),
                common: c.common as u64,
                missing: c.missing as u64,
                extra: c.extra as u64,
            })
            .collect();
        obs::counter_inc("service.matrix.computed");
        Ok(Response::Matrix { labels, cells })
    }

    /// The tenant's stream count and its store's accounting.
    pub(crate) fn stats(&self) -> (u64, StoreStats) {
        (self.streams.len() as u64, self.store.stats())
    }
}

/// Apply one journaled op to a tenant's streams with what [`Tenant::read`]
/// read for it and an `Ingest`'s records: the single path of the wire
/// handlers and replay. It touches no store and cannot fail.
fn apply(
    streams: &mut BTreeMap<String, Stream>,
    op: JournalOp,
    read: Read,
    records: &[Observation],
) -> Response {
    match op {
        JournalOp::OpenStream { stream } => {
            let s = match read {
                Read::Engine(eng) => Stream::Live(eng),
                _ => Stream::Baseline { finished: false },
            };
            streams.insert(stream, s);
            obs::counter_inc("service.streams.opened");
            Response::Ok
        }
        JournalOp::Ingest { stream, seq, count } => {
            if let Some(Stream::Live(eng)) = streams.get_mut(&stream) {
                // A comparison stream: its engine's side B.
                eng.push_burst(Side::B, records);
            } else {
                // The baseline: every engine's side A.
                for s in streams.values_mut() {
                    if let Stream::Live(eng) = s {
                        eng.push_burst(Side::A, records);
                    }
                }
            }
            Response::Ingested { total: seq + count }
        }
        JournalOp::Finish { stream } => {
            let s = streams.get_mut(&stream).expect("a stream `check` admitted");
            // The baseline: `check` admits no other stream that is not
            // live, and `read` scored a live one.
            let (Stream::Live(eng), Read::Final(comparison)) = (&*s, read) else {
                *s = Stream::Baseline { finished: true };
                return Response::Finished { summary: None };
            };
            let summary = Some(WireFinal::from(&*comparison));
            *s = Stream::Done(Box::new(FinishedStream {
                comparison: *comparison,
                snapshots: eng.snapshots().to_vec(),
            }));
            obs::counter_inc("service.streams.finished");
            Response::Finished { summary }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    use crate::disk::{Fault, Op, ScriptDisk};
    use choir_packet::PacketId;

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

    /// The engines' config of a daemon with its default snapshot cadence.
    fn cfg() -> StreamConfig {
        StreamConfig {
            snapshot_every: 512,
            ..Default::default()
        }
    }

    fn dir() -> PathBuf {
        PathBuf::from("d/tenants/t")
    }

    /// Tenant `t` on `disk`, as a daemon on data directory `d` with its
    /// default budget creates it.
    fn tenant(disk: &Arc<ScriptDisk>) -> Tenant {
        Tenant::create(disk.clone(), dir(), "t", cfg(), 64 << 20).expect("empty disk")
    }

    /// `op` served as the daemon serves it, a refusal as its error frame.
    /// An `Ingest` goes the wire path with `count` records, identities
    /// from `seq`.
    fn serve(t: &mut Tenant, op: JournalOp) -> Response {
        let resp = match op {
            JournalOp::Ingest { stream, seq, count } => {
                let records: Vec<Observation> = (seq..seq + count)
                    .map(|i| Observation {
                        id: PacketId::from_u128(i.into()),
                        t_ps: i * 1_000,
                    })
                    .collect();
                t.ingest(stream, seq, &records).map(|(resp, _)| resp)
            }
            op => t.mutate(op, &[]),
        };
        resp.unwrap_or_else(|message| Response::Error { message })
    }

    fn open(stream: &str) -> JournalOp {
        JournalOp::OpenStream {
            stream: stream.into(),
        }
    }

    fn finish(stream: &str) -> JournalOp {
        JournalOp::Finish {
            stream: stream.into(),
        }
    }

    fn ingest(stream: &str, seq: u64, count: u64) -> JournalOp {
        JournalOp::Ingest {
            stream: stream.into(),
            seq,
            count,
        }
    }

    #[test]
    fn a_batch_past_the_record_bound_is_refused_before_the_log_and_the_journal() {
        let disk = Arc::new(ScriptDisk::new());
        let mut t = tenant(&disk);
        let run = String::from("run");
        for stream in ["base", "run"] {
            serve(&mut t, open(stream));
        }
        let resp = serve(&mut t, ingest("run", 0, 3));
        assert!(matches!(resp, Response::Ingested { total: 3 }), "{resp:?}");

        // Four billion records are out of reach for a test; the count is
        // what the check reads, so put the stream at the bound.
        let bound = MAX_TRIAL_LEN as u64;
        t.store.set_len(&run, bound);
        let before = disk.files();

        let resp = serve(&mut t, ingest("run", bound, 1));
        let Response::Error { message } = resp else {
            panic!("accepted: {resp:?}")
        };
        assert!(
            message.contains(&format!("{bound}-record bound")),
            "{message}"
        );
        assert_eq!(disk.files(), before, "a refusal writes nothing");
        // A resend of what the stream already holds is still answered.
        let resp = serve(&mut t, ingest("run", bound - 1, 1));
        assert!(
            matches!(resp, Response::Ingested { total } if total == bound),
            "{resp:?}"
        );
        // The next valid ops are served.
        let resp = serve(&mut t, ingest("base", 0, 2));
        assert!(matches!(resp, Response::Ingested { total: 2 }), "{resp:?}");
        let resp = t
            .snapshot(&run)
            .unwrap_or_else(|message| Response::Error { message });
        assert!(
            matches!(resp, Response::Snapshot { common: 2, .. }),
            "{resp:?}"
        );
    }

    #[test]
    fn a_refused_op_writes_nothing_and_leaves_its_tenant_clean() {
        let disk = Arc::new(ScriptDisk::new());
        let mut t = tenant(&disk);
        let ok = |r: Response| assert!(!matches!(r, Response::Error { .. }), "{r:?}");
        for op in [
            open("base"),
            open("r1"),
            ingest("base", 0, 3),
            ingest("r1", 0, 3),
        ] {
            ok(serve(&mut t, op));
        }
        // Each refusal makes no `Disk` call, and the checkpoint after it
        // finds the tenant clean: its `ck` is not rewritten.
        let refused_then_clean = |t: &mut Tenant, ops: Vec<(JournalOp, &str)>| {
            t.checkpoint().expect("checkpoint");
            let (files, calls) = (disk.files(), disk.calls().len());
            for (op, said) in ops {
                let resp = serve(t, op);
                let Response::Error { message } = resp else {
                    panic!("accepted: {resp:?}")
                };
                assert!(message.contains(said), "{message}");
            }
            t.checkpoint().expect("checkpoint");
            assert_eq!(disk.calls()[calls..], [], "a refusal touched the disk");
            assert!(disk.files() == files);
        };
        refused_then_clean(
            &mut t,
            vec![
                (open("r1"), "already open"),
                (finish("nope"), "no stream"),
                (finish("r1"), "finish baseline `t/base` before"),
                (ingest("nope", 0, 3), "no stream"),
                (ingest("r1", 5, 3), "ingest gap"),
            ],
        );
        ok(serve(&mut t, finish("base")));
        refused_then_clean(
            &mut t,
            vec![
                (finish("base"), "already finished"),
                (ingest("base", 3, 3), "is finished"),
            ],
        );
        // The tenant still serves: the comparison finishes.
        ok(serve(&mut t, finish("r1")));
    }

    #[test]
    fn a_finish_whose_read_fails_writes_nothing() {
        // Four records fit the budget, so `base` is out of memory when
        // `r1` finishes, and its log is read then.
        let disk = Arc::new(ScriptDisk::new());
        let mut t = Tenant::create(disk.clone(), dir(), "t", cfg(), 96).expect("empty disk");
        let ok = |r: Response| assert!(!matches!(r, Response::Error { .. }), "{r:?}");
        for op in [
            open("base"),
            ingest("base", 0, 10),
            open("r1"),
            open("r2"),
            ingest("r2", 0, 10),
            ingest("r2", 10, 5),
            finish("base"),
        ] {
            ok(serve(&mut t, op));
        }
        disk.fail(
            Op::ReadAt,
            dir().join("base.log"),
            Fault::Fail(io::ErrorKind::Other),
        );
        let (files, calls) = (disk.files(), disk.calls().len());
        let resp = serve(&mut t, finish("r1"));
        let Response::Error { message } = resp else {
            panic!("accepted: {resp:?}")
        };
        assert!(message.starts_with("reading `base.log`: "), "{message}");
        let writes = (disk.calls()[calls..].iter())
            .filter(|c| !matches!(c.op, Op::Read | Op::ReadAt | Op::Len))
            .count();
        let unchanged = disk.files() == files;
        let live = |t: &Tenant| matches!(t.streams.get("r1"), Some(Stream::Live(_)));
        assert!(live(&t));
        ok(serve(&mut t, ingest("r1", 0, 5)));

        // A kill now recovers to what the live tenant serves: the refused
        // `Finish` was never journaled.
        let mut back = Tenant::recover(Arc::new(disk.kill()), dir(), "t", cfg())
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(live(&back));
        let served = |t: &mut Tenant| {
            let mut frames = Vec::new();
            for s in ["r1", "r2"] {
                frames.extend([t.snapshot(s), t.trail(s)]);
            }
            frames.extend(["r1", "r2"].map(|s| t.mutate(finish(s), &[])));
            (frames.into_iter())
                .map(|r| serde_json::to_string(&r.expect("served")).expect("encodes"))
                .collect::<Vec<_>>()
        };
        assert_eq!(served(&mut back), served(&mut t));
        assert_eq!(writes, 0, "the refused finish wrote");
        assert!(unchanged, "the refused finish changed a file");
    }

    /// Each stream's `Snapshot` and `Trail` frames, as the wire encodes
    /// them.
    fn served(t: &Tenant, streams: &[&str]) -> Vec<String> {
        (streams.iter())
            .flat_map(|s| [t.snapshot(s), t.trail(s)])
            .map(|r| serde_json::to_string(&r.expect("served")).expect("encodes"))
            .collect()
    }

    /// The engines' config with a trail point every 4 records, which
    /// shows the order side A and side B were fed in.
    fn cfg4() -> StreamConfig {
        StreamConfig {
            snapshot_every: 4,
            ..cfg()
        }
    }

    #[test]
    fn an_open_whose_read_fails_writes_nothing() {
        // Four records fit the budget, so `r2`'s ingest evicts `base`. `r1`
        // is opened after `base` has records: its open reads them from
        // `base.log`.
        let disk = Arc::new(ScriptDisk::new());
        let mut t = Tenant::create(disk.clone(), dir(), "t", cfg4(), 96).expect("empty disk");
        let ok = |r: Response| assert!(!matches!(r, Response::Error { .. }), "{r:?}");
        for op in [
            open("base"),
            open("r2"),
            ingest("base", 0, 10),
            ingest("r2", 0, 10),
        ] {
            ok(serve(&mut t, op));
        }
        disk.fail(
            Op::ReadAt,
            dir().join("base.log"),
            Fault::Fail(io::ErrorKind::Other),
        );
        let (files, calls) = (disk.files(), disk.calls().len());
        let resp = serve(&mut t, open("r1"));
        let Response::Error { message } = resp else {
            panic!("accepted: {resp:?}")
        };
        assert!(message.starts_with("reading `base.log`: "), "{message}");
        let writes = (disk.calls()[calls..].iter())
            .filter(|c| !matches!(c.op, Op::Read | Op::ReadAt | Op::Len))
            .count();
        assert_eq!(writes, 0, "the refused open wrote");
        assert!(disk.files() == files, "the refused open changed a file");

        // The retried open is applied: its engine has seen the whole
        // baseline before it sees a record of its own.
        ok(serve(&mut t, open("r1")));
        let resp = t.snapshot("r1").expect("live");
        assert!(
            matches!(
                resp,
                Response::Snapshot {
                    seen_a: 10,
                    seen_b: 0,
                    ..
                }
            ),
            "{resp:?}"
        );
        // So every ingest is one log append and one journal line, and
        // reads nothing: the first one too.
        for seq in [0, 5] {
            let calls = disk.calls().len();
            ok(serve(&mut t, ingest("r1", seq, 5)));
            let io: Vec<_> = (disk.calls()[calls..].iter())
                .filter(|c| matches!(c.op, Op::Read | Op::ReadAt | Op::WriteAt))
                .map(|c| (c.op, c.path.clone()))
                .collect();
            let written = ["r1.log", "journal"].map(|f| (Op::WriteAt, dir().join(f)));
            assert_eq!(io, written, "ingest r1 at {seq}");
        }

        // A kill now recovers to what the live tenant serves, trail
        // points included.
        let back = Tenant::recover(Arc::new(disk.kill()), dir(), "t", cfg4())
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(served(&back, &["r1", "r2"]), served(&t, &["r1", "r2"]));
    }

    #[test]
    fn replaying_k_markers_of_a_stream_reads_each_of_its_log_bytes_at_most_once() {
        // Five markers on each stream, none under a checkpoint. Replay
        // adopts a stream at each marker: the first read of a log takes
        // the records the markers so far cover, and each later marker
        // extends that copy from the log's tail instead of reloading it.
        let disk = Arc::new(ScriptDisk::new());
        let mut t = Tenant::create(disk.clone(), dir(), "t", cfg4(), 64 << 20).expect("empty disk");
        let ok = |r: Response| assert!(!matches!(r, Response::Error { .. }), "{r:?}");
        ok(serve(&mut t, open("base")));
        for seq in (0..20).step_by(4) {
            ok(serve(&mut t, ingest("base", seq, 4)));
        }
        ok(serve(&mut t, open("r1")));
        for seq in (0..20).step_by(4) {
            ok(serve(&mut t, ingest("r1", seq, 4)));
        }

        let img = Arc::new(disk.kill());
        let calls = img.calls().len();
        let back =
            Tenant::recover(img.clone(), dir(), "t", cfg4()).unwrap_or_else(|e| panic!("{e}"));
        for log in ["base.log", "r1.log"].map(|f| dir().join(f)) {
            let read: usize = (img.calls()[calls..].iter())
                .filter(|c| c.path == log && matches!(c.op, Op::Read | Op::ReadAt))
                .map(|c| c.bytes)
                .sum();
            let size = img.files()[&log].len();
            assert!(
                read > 0 && read <= size,
                "{}: read {read} of {size} bytes",
                log.display()
            );
        }
        assert_eq!(served(&back, &["r1"]), served(&t, &["r1"]));
    }

    #[test]
    fn four_streams_fed_round_robin_under_one_and_a_half_streams_of_budget_reload_nothing() {
        // A baseline and three comparison streams, all opened before any
        // record, fed 128 records at a time in turn under a budget of one
        // and a half streams' records: the appends evict, and none
        // reloads, since an append writes only its log's end and the
        // engines are fed from the request's records.
        const N: u64 = 1_024;
        let streams = ["base", "r1", "r2", "r3"];
        let fed = |budget: u64| {
            let disk = Arc::new(ScriptDisk::new());
            let mut t = Tenant::create(disk, dir(), "t", cfg4(), budget).expect("empty disk");
            for s in streams {
                serve(&mut t, open(s));
            }
            for seq in (0..N).step_by(128) {
                for s in streams {
                    let resp = serve(&mut t, ingest(s, seq, 128));
                    assert!(matches!(resp, Response::Ingested { .. }), "{resp:?}");
                }
            }
            t
        };
        let t = fed(N * 3 / 2 * crate::store::OBS_BYTES);
        let stats = t.store.stats();
        assert!(stats.evictions > 0, "{stats:?}");
        assert_eq!(stats.reloads, 0, "{stats:?}");
        // What the streams serve is what they serve with a budget nothing
        // reaches.
        let all = fed(64 << 20);
        assert_eq!(all.store.stats().evictions, 0);
        assert_eq!(served(&t, &streams[1..]), served(&all, &streams[1..]));
    }

    #[test]
    fn a_ck_whose_engine_lags_its_baseline_recovers_caught_up() {
        let disk = Arc::new(ScriptDisk::new());
        let mut t = Tenant::create(disk.clone(), dir(), "t", cfg4(), 64 << 20).expect("empty disk");
        for op in [open("base"), ingest("base", 0, 10), open("r1")] {
            serve(&mut t, op);
        }
        t.checkpoint().expect("checkpoint");

        // An earlier build checkpointed `r1` as it was opened: an engine
        // that has consumed nothing.
        let path = dir().join("ck");
        let raw = disk.read(&path).expect("a ck");
        let head = read_section(&mut &raw[..], "tenant").expect("one section");
        let head = std::str::from_utf8(&head).expect("UTF-8");
        let mut ck: TenantCk = serde_json::from_str(head).expect("a ck head");
        let fresh = IncrementalComparison::new(cfg4()).with_engine_id(engine_id_for("t", "r1"));
        let r1 = (ck.streams.iter_mut().find(|s| s.name == "r1")).expect("r1 checkpointed");
        r1.engine = Some(fresh.cursor());
        let mut raw = Vec::new();
        let head = serde_json::to_string(&ck).expect("encodes");
        write_section(&mut raw, head.as_bytes()).expect("in memory");
        disk.write_file(&path, &raw).expect("ck written");

        let back = Tenant::recover(Arc::new(disk.kill()), dir(), "t", cfg4())
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(served(&back, &["r1"]), served(&t, &["r1"]));
    }

    #[test]
    fn the_read_verbs_refuse_by_name_and_touch_no_file() {
        let disk = Arc::new(ScriptDisk::new());
        let mut t = tenant(&disk);
        serve(&mut t, open("base"));
        let resp = serve(&mut t, ingest("base", 0, 3));
        assert!(matches!(resp, Response::Ingested { total: 3 }), "{resp:?}");
        let (files, calls) = (disk.files(), disk.calls().len());
        let refusals = [
            (
                t.snapshot("base"),
                "`t/base` is the baseline; it has no score",
            ),
            (t.trail("base"), "`t/base` is the baseline; it has no trail"),
            (t.status("nope"), "no stream `t/nope`"),
            (
                t.matrix(),
                "tenant `t` has 1 stream(s); a matrix needs at least 2",
            ),
        ];
        for (resp, said) in refusals {
            assert_eq!(resp.err().as_deref(), Some(said));
        }
        assert_eq!(disk.calls()[calls..], [], "a read touched the disk");
        assert!(disk.files() == files);
    }
}
