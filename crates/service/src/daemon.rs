//! The κ-as-a-service daemon: a long-running, multi-tenant streaming
//! consistency monitor.
//!
//! The daemon is a registry of tenants and a TCP server in front of it.
//! A tenant — its streams, its engines, its files and its recovery — is
//! the `tenant` module's; the registry holds every tenant by name, the
//! ingest counters and the checkpoint cadence behind one lock that every
//! request takes, and dispatches each request to the tenant it names.
//! Every κ served is exactly the κ a post-hoc batch analysis of the same
//! records produces, bit for bit, whatever order the network delivered
//! them in (`tests/daemon.rs`).
//!
//! A data directory holds one directory per tenant under `tenants/`;
//! anything else there is a tenant dropped or created halfway, and
//! [`Daemon::spawn`] deletes it. A directory in the single-file layout
//! that came before tenants is refused, not migrated.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use choir_core::metrics::{Observation, StreamConfig};
use choir_core::obs;

use crate::disk::{Disk, RealDisk};
use crate::store::StoreError;
use crate::tenant::{JournalOp, Tenant};
use crate::wire::{recv_request, send_json, Request, Response};

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

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
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

/// The registry: every tenant, the ingest counters and the checkpoint
/// cadence. One lock holds it, and every request takes that lock.
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
            if valid_name(&name) && Tenant::exists(&*st.disk, &path)? {
                let (dir, sc) = (st.cfg.tenant_dir(&name), st.cfg.stream_config());
                let t = Tenant::recover(st.disk.clone(), dir, &name, sc)?;
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

    fn create_tenant(&mut self, tenant: String, budget_bytes: u64) -> Result<Response, String> {
        if self.tenants.contains_key(&tenant) {
            return Err(format!("tenant `{tenant}` already exists"));
        }
        let budget = if budget_bytes == 0 {
            self.cfg.default_budget_bytes
        } else {
            budget_bytes
        };
        let (dir, sc) = (self.cfg.tenant_dir(&tenant), self.cfg.stream_config());
        let t = Tenant::create(self.disk.clone(), dir, &tenant, sc, budget)?;
        self.tenants.insert(tenant, t);
        obs::counter_inc("service.tenants.created");
        obs::gauge_set("service.tenants", self.tenants.len() as u64);
        Ok(Response::Ok)
    }

    fn drop_tenant(&mut self, tenant: &str) -> Result<Response, String> {
        self.tenant(tenant)?.remove()?;
        self.tenants.remove(tenant);
        obs::counter_inc("service.tenants.dropped");
        obs::gauge_set("service.tenants", self.tenants.len() as u64);
        Ok(Response::Ok)
    }

    fn ingest(
        &mut self,
        tenant: &str,
        stream: String,
        seq: u64,
        records: &[Observation],
    ) -> Result<Response, String> {
        let (resp, fresh) = self.tenant(tenant)?.ingest(stream, seq, records)?;
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
        for t in self.tenants.values_mut() {
            t.checkpoint()?;
        }
        self.records_since_ck = 0;
        obs::counter_inc("service.checkpoints");
        Ok(())
    }

    fn stats(&self) -> Response {
        let (streams, stores): (Vec<u64>, Vec<_>) =
            self.tenants.values().map(Tenant::stats).unzip();
        Response::Stats {
            tenants: self.tenants.len() as u64,
            streams: streams.iter().sum(),
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
                (self.tenant(&tenant)).and_then(|t| t.mutate(JournalOp::OpenStream { stream }, &[]))
            }
            Request::Ingest {
                tenant,
                stream,
                seq,
                records,
            } => self.ingest(&tenant, stream, seq, &records),
            Request::FinishStream { tenant, stream } => {
                (self.tenant(&tenant)).and_then(|t| t.mutate(JournalOp::Finish { stream }, &[]))
            }
            Request::Snapshot { tenant, stream } => {
                self.tenant(&tenant).and_then(|t| t.snapshot(&stream))
            }
            Request::Trail { tenant, stream } => {
                self.tenant(&tenant).and_then(|t| t.trail(&stream))
            }
            Request::Matrix { tenant } => self.tenant(&tenant).and_then(|t| t.matrix()),
            Request::StreamStatus { tenant, stream } => {
                self.tenant(&tenant).and_then(|t| t.status(&stream))
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
    use choir_packet::PacketId;

    #[test]
    fn engine_config_fingerprint_is_pinned_across_commits() {
        // Every engine cursor under `tenants/` records this value and
        // `rebuild` refuses any other: if it moves, a data
        // directory written by an earlier build stops recovering. Read at
        // 59c7aac; moves only on purpose.
        let cfg = DaemonConfig::new("unused").stream_config();
        assert_eq!(cfg.fingerprint(), 0x5c9c_cfc0_ac07_13ef);
    }

    /// Three streams of `n` records: a baseline; a lossy run that
    /// loses one packet in 97 and sends as many identities the baseline
    /// never did; a run with 48-record blocks swapped every 4 096
    /// records. Stamps jitter by up to 30 ns.
    fn paper_streams(n: u64) -> [Vec<Observation>; 3] {
        let mut seed = 0x5EED_u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            seed >> 33
        };
        let obs = |seq: u64, t_ps: u64| Observation {
            id: PacketId::from_u128(0xC401 << 64 | u128::from(seq)),
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
        let feed = |st: &mut ServiceState, batches: &[(&str, u64, &[Observation])]| {
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
                let t0 = std::time::Instant::now();
                let resp = st.handle(req).0;
                if stream != names[0] {
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    println!("finished `{stream}` against {N} baseline records in {ms:.1} ms");
                }
                serde_json::to_string(&resp).expect("encodes")
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
