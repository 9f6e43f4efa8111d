//! The capture chain's allocation budget (DESIGN.md §10): a packet that
//! is generated, forwarded, recorded, replayed and captured costs at most
//! one heap allocation per captured copy. The frame is one allocation
//! (its bytes inline beside the refcount), the simulator's per-hop
//! vectors and doorbell lists are recycled, and a replay refills one
//! burst. Four allocations per captured packet was the cost before.
//!
//! The count is per thread: a counting global allocator bumps a
//! thread-local counter, so the all-pairs analysis workers and the test
//! harness's other threads stay out of it. This lives in its own
//! integration-test binary because the global allocator is per process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use choir::testbed::{EnvKind, Experiment, ExperimentConfig};

thread_local! {
    /// Heap allocations (`alloc`, `alloc_zeroed`, `realloc`) made by
    /// this thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    // `try_with`: a const-initialised `Cell` has no destructor, but an
    // allocation during thread teardown must never panic.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations on the calling thread per captured packet, over one
/// `Experiment::run` (record, two replays, capture, analysis).
fn allocations_per_captured_packet(kind: EnvKind) -> f64 {
    let mut profile = kind.profile();
    profile.runs = 2;
    let cfg = ExperimentConfig {
        profile,
        scale: 0.01,
        seed: 7,
    };
    let before = ALLOCS.with(Cell::get);
    let out = Experiment::new(cfg).run();
    let allocs = ALLOCS.with(Cell::get) - before;
    let captured: u64 = out.trials.iter().map(|t| t.len() as u64).sum();
    assert!(captured > 10_000, "{kind:?} captured {captured} packets");
    allocs as f64 / captured as f64
}

#[test]
fn capture_chain_allocates_at_most_once_per_captured_packet() {
    for kind in [EnvKind::FabricShared40, EnvKind::LocalDual] {
        let per_packet = allocations_per_captured_packet(kind);
        println!("{kind:?}: {per_packet:.3} allocations per captured packet");
        assert!(
            per_packet <= 1.0,
            "{kind:?}: {per_packet:.3} allocations per captured packet (budget 1.0)"
        );
    }
}
