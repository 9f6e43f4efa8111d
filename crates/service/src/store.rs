//! The evictable trial store: the TrialIndex cache generalized for a
//! long-running daemon, over one append-only record log per trial.
//!
//! The all-pairs engine's per-trial `TrialIndex` cache assumes every
//! trial lives in memory for the run's duration — fine for a one-shot
//! analysis, impossible for a daemon holding thousands of streams
//! across tenants. [`TrialStore`] keeps each stream's observation
//! vector under a per-store memory budget, and every [`append`] also
//! writes its records to the end of the trial's log file (24 bytes per
//! observation, little-endian: 16-byte identity, 8-byte timestamp)
//! before it returns. The log is journal, spill file and durable trial
//! state at once: the bytes are written exactly once, *evicting* a
//! least-recently-used trial just drops its in-memory copy, and a
//! trial is *rebuilt on demand* from its log when next touched.
//! Eviction is invisible to every consumer — a reloaded trial is
//! byte-identical to the evicted one, which the service proptests gate
//! on.
//!
//! The store's record count per trial is authoritative. After a crash
//! the daemon [`adopt`]s each log at the count its checkpoint and
//! journal markers cover; bytes beyond that (an append that was never
//! acknowledged) are ignored by reloads and cut off by the next append.
//!
//! Appends reach the OS before they return, which survives a process
//! kill; nothing here calls `fsync`, so a power cut can lose them.
//!
//! [`append`]: TrialStore::append
//! [`adopt`]: TrialStore::adopt

use std::collections::BTreeMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use choir_core::metrics::{Observation, Trial};
use choir_core::obs;
use choir_packet::PacketId;

/// In-memory footprint of one observation: a 16-byte identity plus an
/// 8-byte timestamp. The budget arithmetic uses this, not allocator
/// truth — it is deterministic and platform-independent.
pub const OBS_BYTES: u64 = 24;

/// A store failure: log-dir I/O or a short log file.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure under the log directory.
    Io(std::io::Error),
    /// A log file holds fewer records than the store's accounting (or
    /// the caller of [`TrialStore::adopt`]) says it must.
    Corrupt { key: String, detail: String },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "trial store I/O failed: {e}"),
            StoreError::Corrupt { key, detail } => {
                write!(f, "trial store log for `{key}` is corrupt: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Aggregate store accounting, served over the wire for the RSS gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Observation bytes currently resident (the budgeted quantity).
    pub resident_bytes: u64,
    /// Configured budget.
    pub budget_bytes: u64,
    /// Trials evicted from memory since the store was opened.
    pub evictions: u64,
    /// Trials rebuilt from their log since the store was opened.
    pub reloads: u64,
    /// Trials currently tracked (resident or not).
    pub trials: u64,
    /// Trials currently held only by their log.
    pub spilled: u64,
}

struct Slot {
    /// Resident observations, `None` while evicted.
    obs: Option<Vec<Observation>>,
    /// Authoritative record count (resident or not); the log holds at
    /// least this many records.
    len: u64,
    /// LRU clock value at last touch.
    used: u64,
}

/// The evictable trial store. Keys are stream names; the daemon
/// validates name characters before they reach here, so keys map to log
/// file names without escaping.
pub struct TrialStore {
    budget: u64,
    dir: PathBuf,
    /// Ordered, so that trials are walked and dropped in the same order
    /// in every process (a `HashMap`'s differs run to run, and with it
    /// what the allocator gives back).
    slots: BTreeMap<String, Slot>,
    clock: u64,
    resident_bytes: u64,
    evictions: u64,
    reloads: u64,
}

/// Append records in the one bulk layout — log file and `Ingest` frame
/// alike: identity as u128 LE, then `t_ps` as u64 LE.
pub(crate) fn encode_records(out: &mut Vec<u8>, recs: impl Iterator<Item = Observation>) {
    for o in recs {
        out.extend_from_slice(&o.id.0.to_le_bytes());
        out.extend_from_slice(&o.t_ps.to_le_bytes());
    }
}

/// The records of a slab in that layout; a ragged tail is not yielded.
pub(crate) fn decode_records(raw: &[u8]) -> impl Iterator<Item = Observation> + '_ {
    raw.chunks_exact(OBS_BYTES as usize).map(|b| Observation {
        id: PacketId(u128::from_le_bytes(b[..16].try_into().expect("16-byte id"))),
        t_ps: u64::from_le_bytes(b[16..].try_into().expect("8-byte ts")),
    })
}

fn log_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{}.log", key.replace('/', "__")))
}

impl TrialStore {
    /// Open a store over `dir` (created if missing) with the given
    /// resident-byte budget. `budget_bytes == 0` means "everything is
    /// evicted as soon as it is not in use" and still works.
    pub fn open(dir: impl Into<PathBuf>, budget_bytes: u64) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(TrialStore {
            budget: budget_bytes,
            dir,
            slots: BTreeMap::new(),
            clock: 0,
            resident_bytes: 0,
            evictions: 0,
            reloads: 0,
        })
    }

    /// Observation bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Aggregate accounting.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            resident_bytes: self.resident_bytes,
            budget_bytes: self.budget,
            evictions: self.evictions,
            reloads: self.reloads,
            trials: self.slots.len() as u64,
            spilled: self.slots.values().filter(|s| s.obs.is_none()).count() as u64,
        }
    }

    /// Authoritative record count for a key (0 if unknown).
    pub fn len(&self, key: &str) -> u64 {
        self.slots.get(key).map_or(0, |s| s.len)
    }

    /// Every tracked key, sorted (deterministic iteration for matrix
    /// labels).
    pub fn keys(&self) -> Vec<String> {
        self.slots.keys().cloned().collect()
    }

    fn touch(slot: &mut Slot, clock: &mut u64) {
        *clock += 1;
        slot.used = *clock;
    }

    /// Append observations to a trial, creating it on first touch: to
    /// the end of its log first, then to the resident copy (rebuilt from
    /// the log if evicted). The budget is re-enforced afterwards —
    /// possibly evicting *other* trials, never the one just appended to.
    pub fn append(&mut self, key: &str, recs: &[Observation]) -> Result<(), StoreError> {
        self.ensure_resident(key)?;
        let slot = self.slots.get_mut(key).expect("ensured resident");
        let mut raw = Vec::with_capacity(recs.len() * OBS_BYTES as usize);
        encode_records(&mut raw, recs.iter().copied());
        let mut log = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(log_path(&self.dir, key))?;
        // A crash can leave records nobody was told about past the
        // accounted end; they go before anything is written after them.
        log.set_len(slot.len * OBS_BYTES)?;
        log.seek(SeekFrom::End(0))?;
        log.write_all(&raw)?;
        slot.obs
            .as_mut()
            .expect("ensured resident")
            .extend_from_slice(recs);
        slot.len += recs.len() as u64;
        Self::touch(slot, &mut self.clock);
        self.resident_bytes += recs.len() as u64 * OBS_BYTES;
        self.enforce_budget(key);
        Ok(())
    }

    /// Borrow a trial's observations, rebuilding from its log on demand.
    /// Other trials may be evicted to make room for the reload.
    pub fn get(&mut self, key: &str) -> Result<&[Observation], StoreError> {
        self.ensure_resident(key)?;
        self.enforce_budget(key);
        let slot = self.slots.get_mut(key).expect("ensured resident");
        Self::touch(slot, &mut self.clock);
        Ok(slot.obs.as_deref().expect("ensured resident"))
    }

    /// Materialize a trial as a [`Trial`] for the all-pairs engine.
    pub fn trial(&mut self, key: &str) -> Result<Trial, StoreError> {
        Ok(Trial::from_observations(self.get(key)?))
    }

    /// Every append is already in its log when it returns; there is
    /// nothing left to write. Kept as the barrier callers place before
    /// they measure or snapshot the directory.
    pub fn flush_all(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    /// Take a trial's log at `count` records without loading it: the
    /// trial becomes non-resident at exactly that length, whatever the
    /// store held for it before. Recovery uses it to set each trial to
    /// what its checkpoint and journal markers cover.
    pub fn adopt(&mut self, key: &str, count: u64) -> Result<(), StoreError> {
        let on_disk = fs::metadata(log_path(&self.dir, key)).map_or(0, |m| m.len());
        Self::check_log(key, on_disk, count)?;
        let slot = Slot {
            // An empty trial may have no log file at all yet.
            obs: (count == 0).then(Vec::new),
            len: count,
            used: self.clock,
        };
        if let Some(Slot { obs: Some(old), .. }) = self.slots.insert(key.to_string(), slot) {
            self.resident_bytes -= old.len() as u64 * OBS_BYTES;
        }
        Ok(())
    }

    /// `Corrupt` unless a log of `bytes` bytes holds `want` records.
    fn check_log(key: &str, bytes: u64, want: u64) -> Result<(), StoreError> {
        if bytes / OBS_BYTES >= want {
            return Ok(());
        }
        Err(StoreError::Corrupt {
            key: key.to_string(),
            detail: format!("log holds {bytes} bytes, {want} records are accounted for"),
        })
    }

    fn ensure_resident(&mut self, key: &str) -> Result<(), StoreError> {
        match self.slots.get(key) {
            None => self.adopt(key, 0),
            Some(s) if s.obs.is_some() => Ok(()),
            Some(_) => self.reload(key),
        }
    }

    fn reload(&mut self, key: &str) -> Result<(), StoreError> {
        let want = self.slots[key].len;
        let mut raw = Vec::new();
        fs::File::open(log_path(&self.dir, key))?
            .take(want * OBS_BYTES)
            .read_to_end(&mut raw)?;
        Self::check_log(key, raw.len() as u64, want)?;
        let slot = self.slots.get_mut(key).expect("caller checked");
        slot.obs = Some(decode_records(&raw).collect());
        self.resident_bytes += want * OBS_BYTES;
        self.reloads += 1;
        obs::counter_inc("service.store.reloads");
        Ok(())
    }

    /// Evict least-recently-used trials until resident bytes fit the
    /// budget. `keep` (the trial the caller is actively using) is never
    /// evicted, so a single over-budget trial stays resident — the
    /// budget bounds everything evictable.
    fn enforce_budget(&mut self, keep: &str) {
        while self.resident_bytes > self.budget {
            let victim = self
                .slots
                .iter_mut()
                .filter(|(k, s)| s.obs.is_some() && k.as_str() != keep)
                .min_by_key(|(_, s)| s.used);
            let Some((_, slot)) = victim else { break };
            // The log already holds every record: eviction writes nothing.
            let obs = slot.obs.take().expect("filtered on resident");
            self.resident_bytes -= obs.len() as u64 * OBS_BYTES;
            self.evictions += 1;
            obs::counter_inc("service.store.evictions");
            obs::gauge_set("service.store.resident_bytes", self.resident_bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("choir-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn obs_seq(base: u64, n: u64) -> Vec<Observation> {
        (0..n)
            .map(|i| Observation {
                id: PacketId(((base + i) as u128) << 32 | 7),
                t_ps: base * 1_000 + i * 37,
            })
            .collect()
    }

    #[test]
    fn append_get_roundtrip_without_eviction() {
        let mut st = TrialStore::open(tmp("plain"), 1 << 20).unwrap();
        let a = obs_seq(0, 100);
        st.append("t0/a", &a[..60]).unwrap();
        st.append("t0/a", &a[60..]).unwrap();
        assert_eq!(st.get("t0/a").unwrap(), &a[..]);
        assert_eq!(st.len("t0/a"), 100);
        assert_eq!(st.resident_bytes(), 100 * OBS_BYTES);
        assert_eq!(st.stats().evictions, 0);
    }

    #[test]
    fn eviction_and_reload_are_invisible() {
        // Budget fits ~one trial: the second append evicts the first.
        let mut st = TrialStore::open(tmp("evict"), 150 * OBS_BYTES).unwrap();
        let a = obs_seq(0, 100);
        let b = obs_seq(1_000, 100);
        st.append("t0/a", &a).unwrap();
        st.append("t0/b", &b).unwrap();
        let s = st.stats();
        assert!(s.evictions >= 1, "budget must have forced an eviction");
        assert!(s.resident_bytes <= s.budget_bytes);
        // Reload is byte-identical.
        assert_eq!(st.get("t0/a").unwrap(), &a[..]);
        assert_eq!(st.get("t0/b").unwrap(), &b[..]);
        assert!(st.stats().reloads >= 1);
    }

    #[test]
    fn append_after_eviction_appends_to_reloaded_trial() {
        let mut st = TrialStore::open(tmp("appendback"), 80 * OBS_BYTES).unwrap();
        let a = obs_seq(0, 60);
        let b = obs_seq(500, 60);
        st.append("t0/a", &a).unwrap();
        st.append("t0/b", &b).unwrap(); // evicts a
        let a2 = obs_seq(9_000, 10);
        st.append("t0/a", &a2).unwrap(); // reloads a, appends
        let mut want = a.clone();
        want.extend_from_slice(&a2);
        assert_eq!(st.get("t0/a").unwrap(), &want[..]);
    }

    #[test]
    fn over_budget_single_trial_stays_resident() {
        let mut st = TrialStore::open(tmp("big"), 10 * OBS_BYTES).unwrap();
        let a = obs_seq(0, 100);
        st.append("t0/a", &a).unwrap();
        // Nothing else to evict: the active trial is kept.
        assert_eq!(st.get("t0/a").unwrap(), &a[..]);
        assert_eq!(st.stats().spilled, 0);
    }

    #[test]
    fn log_adopt_recovery_cycle() {
        let dir = tmp("recover");
        let a = obs_seq(0, 90);
        {
            let mut st = TrialStore::open(&dir, 1 << 20).unwrap();
            st.append("t0/a", &a[..50]).unwrap();
            st.append("t0/a", &a[50..]).unwrap();
        }
        // Restart: markers cover 50 records; the log holds 90.
        let mut st = TrialStore::open(&dir, 1 << 20).unwrap();
        st.adopt("t0/a", 50).unwrap();
        assert_eq!(st.get("t0/a").unwrap(), &a[..50]);
        // A later marker covers the rest: adopt again, nothing rewritten.
        st.adopt("t0/a", 90).unwrap();
        assert_eq!(st.resident_bytes(), 0, "adopt drops the resident copy");
        assert_eq!(st.get("t0/a").unwrap(), &a[..]);
    }

    #[test]
    fn append_cuts_an_unaccounted_tail() {
        let dir = tmp("tail");
        let a = obs_seq(0, 30);
        let mut st = TrialStore::open(&dir, 1 << 20).unwrap();
        st.append("t0/a", &a).unwrap();
        drop(st);
        // Only 12 records were ever acknowledged, plus half a record of
        // a torn append.
        let p = log_path(&dir, "t0/a");
        fs::OpenOptions::new()
            .write(true)
            .open(&p)
            .unwrap()
            .set_len(30 * OBS_BYTES - 11)
            .unwrap();
        let mut st = TrialStore::open(&dir, 1 << 20).unwrap();
        st.adopt("t0/a", 12).unwrap();
        let tail = obs_seq(700, 5);
        st.append("t0/a", &tail).unwrap();
        assert_eq!(fs::metadata(&p).unwrap().len(), 17 * OBS_BYTES);
        let want: Vec<Observation> = a[..12].iter().chain(&tail).copied().collect();
        st.adopt("t0/a", 17).unwrap();
        assert_eq!(st.get("t0/a").unwrap(), &want[..]);
    }

    #[test]
    fn adopt_refuses_short_log() {
        let dir = tmp("short");
        let mut st = TrialStore::open(&dir, 1 << 20).unwrap();
        st.append("t0/a", &obs_seq(0, 5)).unwrap();
        drop(st);
        let mut st = TrialStore::open(&dir, 1 << 20).unwrap();
        let err = st.adopt("t0/a", 9).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn eviction_writes_nothing() {
        let dir = tmp("evictfree");
        let mut st = TrialStore::open(&dir, 10 * OBS_BYTES).unwrap();
        st.append("t0/a", &obs_seq(0, 8)).unwrap();
        let before = fs::metadata(log_path(&dir, "t0/a"))
            .unwrap()
            .modified()
            .unwrap();
        st.append("t0/b", &obs_seq(50, 8)).unwrap(); // evicts a
        assert_eq!(st.stats().evictions, 1);
        assert_eq!(
            fs::metadata(log_path(&dir, "t0/a"))
                .unwrap()
                .modified()
                .unwrap(),
            before
        );
        assert_eq!(
            fs::metadata(log_path(&dir, "t0/a")).unwrap().len(),
            8 * OBS_BYTES
        );
    }
}
