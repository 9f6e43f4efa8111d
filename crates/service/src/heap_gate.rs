//! Count gate: heap bytes per record on the daemon's data path, the
//! socket to the score (ROADMAP items 18 and 29).
//!
//! A record arrives in an `Ingest` frame, is decoded once into the
//! [`Observation`]s a tenant logs, keeps resident and feeds its engines,
//! and is scored by `Finish` and `Matrix` where the store holds it. With
//! identities that increase, the indexes that score it take no heap, so
//! what the gate counts beyond the frame and the resident copy is copies.
//!
//! The count is per thread: a counting global allocator adds the bytes
//! each allocation asks for (`realloc` its new size) to a thread-local
//! total, so the worker threads of an all-pairs pool and a daemon's
//! handlers are not in it. The numbers do not depend on the build
//! profile; CI runs the gate in release:
//! `cargo test --release -p choir-service --lib heap_gate -- --nocapture`
//! prints them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use choir_core::metrics::{all_pairs_sharded, report, Observation, StreamConfig, Trial};
use choir_packet::PacketId;

use crate::disk::{Disk, RealDisk};
use crate::tenant::{JournalOp, Tenant};
use crate::wire::{recv_request, send_request, Request, Response};
use crate::{Client, Daemon, DaemonConfig};

thread_local! {
    /// Bytes asked for by `alloc`, `alloc_zeroed` and `realloc` on this
    /// thread so far.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count(bytes: usize) {
    // `try_with`: an allocation during thread teardown must never panic.
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Records per frame: one `Client::ingest` chunk.
const N: usize = crate::client::INGEST_CHUNK;

/// Heap bytes `f` asks for on this thread, and what it returns.
fn heap<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

/// `n` records of increasing identities, one in `lose` (if any) left
/// out; stamps 300 ns apart plus `skew` ps.
fn records(n: usize, lose: u64, skew: u64) -> Vec<Observation> {
    (0..)
        .filter(|i| lose == 0 || i % lose != lose / 2)
        .take(n)
        .map(|i| Observation {
            id: PacketId::from_u128(0xC401 << 64 | u128::from(i)),
            t_ps: i * 300_000 + skew,
        })
        .collect()
}

fn scratch_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("choir-heap-gate-{name}-{}", std::process::id()));
    let _ = RealDisk.remove_dir_all(&p);
    p
}

/// A tenant on the real disk, with the daemon's default budget and
/// snapshot cadence, and `streams` open.
fn tenant(dir: &Path, streams: &[&str]) -> Tenant {
    let cfg = StreamConfig {
        snapshot_every: 512,
        ..Default::default()
    };
    let mut t = Tenant::create(Arc::new(RealDisk), dir.to_path_buf(), "t", cfg, 64 << 20)
        .expect("a fresh directory");
    for s in streams {
        let op = JournalOp::OpenStream {
            stream: s.to_string(),
        };
        t.mutate(op, &[]).expect("open");
    }
    t
}

fn ingest(t: &mut Tenant, stream: &str, seq: u64, recs: &[Observation]) {
    let (resp, _) = t.ingest(stream.into(), seq, recs).expect("ingest");
    assert!(matches!(resp, Response::Ingested { .. }), "{resp:?}");
}

#[test]
fn heap_gate_the_data_path_allocates_a_record_once_and_scores_it_in_place() {
    let per_rec = |bytes: u64, recs: usize| bytes as f64 / recs as f64;

    // The decode: the frame's buffer (its first megabyte, then the rest)
    // and one `Vec<Observation>`.
    let req = Request::Ingest {
        tenant: "t".into(),
        stream: "base".into(),
        seq: 0,
        records: records(N, 0, 0),
    };
    let mut wire = Vec::new();
    send_request(&mut wire, &req).expect("encode");
    let (bytes, got) = heap(|| recv_request(&mut &wire[..]));
    assert!(matches!(got, Ok(Some(Request::Ingest { .. }))));
    let decode = per_rec(bytes, N);

    // A lone baseline: the log append's encode buffer and the resident
    // copy's growth (exact on the first frame, doubling on the second).
    let dir = scratch_dir("ingest");
    let mut t = tenant(&dir, &["base"]);
    let recs = records(2 * N, 0, 0);
    let (first, ()) = heap(|| ingest(&mut t, "base", 0, &recs[..N]));
    let (second, ()) = heap(|| ingest(&mut t, "base", N as u64, &recs[N..]));
    let (first, second) = (per_rec(first, N), per_rec(second, N));
    drop(t);

    // A comparison `Finish`: what `report::analyze` of the two trials
    // allocates, and no copy of either.
    let dir_finish = scratch_dir("finish");
    let mut t = tenant(&dir_finish, &["base", "r1"]);
    let (base, run) = (records(N, 0, 0), records(N, 100, 7_000));
    ingest(&mut t, "base", 0, &base);
    ingest(&mut t, "r1", 0, &run);
    t.mutate(
        JournalOp::Finish {
            stream: "base".into(),
        },
        &[],
    )
    .expect("finish the baseline");
    let finish = JournalOp::Finish {
        stream: "r1".into(),
    };
    let (bytes, resp) = heap(|| t.mutate(finish, &[]));
    assert!(matches!(resp, Ok(Response::Finished { summary: Some(_) })));
    let finish = per_rec(bytes, N);
    let (a, b) = (
        Trial::from_observations(&base),
        Trial::from_observations(&run),
    );
    let (bytes, _) = heap(|| report::analyze("r1", &a, &b));
    let analyze = per_rec(bytes, N);
    drop(t);

    // A four-stream `Matrix`: the all-pairs engine on the store's trials,
    // beside the engine alone on the same trials.
    let dir_matrix = scratch_dir("matrix");
    let streams = ["base", "r1", "r2", "r3"];
    let mut t = tenant(&dir_matrix, &streams);
    let data: Vec<Vec<Observation>> = (0..4).map(|k| records(N, 50 + k, k * 1_000)).collect();
    for (s, recs) in streams.iter().zip(&data) {
        ingest(&mut t, s, 0, recs);
    }
    let (bytes, resp) = heap(|| t.matrix());
    assert!(matches!(resp, Ok(Response::Matrix { .. })), "{resp:?}");
    let matrix = per_rec(bytes, 4 * N);
    let trials: Vec<Trial> = data.iter().map(|d| Trial::from_observations(d)).collect();
    let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (bytes, _) = heap(|| all_pairs_sharded(&trials, shards));
    let all_pairs = per_rec(bytes, 4 * N);
    drop(t);

    // `Client::ingest`: after its first chunk has sized the kept frame,
    // a chunk costs the response it reads, not a copy of its records.
    let dir_client = scratch_dir("client");
    let d = Daemon::spawn(DaemonConfig::new(&dir_client), "127.0.0.1:0").expect("spawn");
    let mut c = Client::connect(d.addr()).expect("connect");
    c.create_tenant("t", 0).expect("create");
    c.open_stream("t", "base").expect("open");
    let recs = records(3 * N, 0, 0);
    c.ingest("t", "base", 0, &recs[..N]).expect("first chunk");
    let (bytes, total) = heap(|| c.ingest("t", "base", N as u64, &recs[N..]));
    assert_eq!(total.expect("two chunks"), 3 * N as u64);
    let per_chunk = bytes as f64 / 2.0;
    drop(c);
    d.kill();

    println!(
        "heap per record: recv_request {decode:.2} B; lone-baseline ingest {first:.2} / {second:.2} B \
         (frames 1 / 2); Finish {finish:.2} B per baseline record (report::analyze alone {analyze:.2}); \
         4-stream Matrix {matrix:.3} B (all_pairs_sharded alone {all_pairs:.3}); \
         Client::ingest {per_chunk:.0} B a {N}-record chunk beyond its kept frame"
    );
    for dir in [dir, dir_finish, dir_matrix, dir_client] {
        let _ = RealDisk.remove_dir_all(&dir);
    }
    // Pinned at this build's values. A frame's fixed costs (names, the
    // journal line, paths) are under a tenth of a byte a record at 50 000
    // records. The matrix is held to the engine alone: on one core the
    // engine's pair scratch is on this thread, which is not a copy.
    assert!(decode <= 69.0, "recv_request: {decode:.2} B/rec");
    assert!(first <= 48.1, "ingest, frame 1: {first:.2} B/rec");
    assert!(second <= 72.1, "ingest, frame 2: {second:.2} B/rec");
    assert!(finish <= 45.0, "Finish: {finish:.2} B/rec");
    assert!(
        matrix <= all_pairs + 1.0,
        "Matrix: {matrix:.3} B/rec, the engine alone {all_pairs:.3}"
    );
    assert!(
        per_chunk <= 1024.0,
        "Client::ingest: {per_chunk:.0} B a chunk"
    );
}
