//! What a frame header can make a reader allocate: a peer that sends a
//! 4-byte header claiming the 16 MiB cap and then hangs up must cost at
//! most a megabyte, not the size it claimed.
//!
//! The count is per thread: a counting global allocator adds the bytes
//! each allocation asks for to a thread-local total. This lives in its
//! own integration-test binary because the global allocator is per
//! process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Cursor, Read};

use choir_service::wire::{read_frame, write_frame, MAX_FRAME_BYTES};
use choir_service::WireError;

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

#[test]
fn a_header_then_eof_allocates_at_most_a_megabyte() {
    let header = MAX_FRAME_BYTES.to_le_bytes();
    let before = BYTES.with(Cell::get);
    let err = read_frame(&mut Cursor::new(header)).unwrap_err();
    let allocated = BYTES.with(Cell::get) - before;

    // The error a short read has always given: `read_exact`'s own.
    let want = Cursor::new([]).read_exact(&mut [0u8]).unwrap_err();
    let WireError::Io(got) = err else {
        panic!("not an I/O error: {err}")
    };
    assert_eq!(got.kind(), io::ErrorKind::UnexpectedEof);
    assert_eq!(got.to_string(), want.to_string());
    assert!(
        allocated <= (1 << 20) + 4096,
        "a bare {MAX_FRAME_BYTES}-byte header allocated {allocated} bytes"
    );
}

#[test]
fn a_frame_longer_than_the_first_reservation_reads_back_whole() {
    let payload: Vec<u8> = (0..(2 << 20) + 5).map(|i| (i % 251) as u8).collect();
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    let mut r = Cursor::new(wire);
    assert_eq!(read_frame(&mut r).unwrap(), Some(payload));
    assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF after it");

    // Cut one byte short: the same short-read error.
    let mut cut = Vec::new();
    write_frame(&mut cut, &[7u8; (1 << 20) + 3]).unwrap();
    cut.pop();
    let err = read_frame(&mut Cursor::new(cut)).unwrap_err();
    assert!(
        matches!(&err, WireError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
        "{err}"
    );
}
