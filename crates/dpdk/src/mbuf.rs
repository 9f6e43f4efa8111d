//! Message buffers and fixed-capacity pools.
//!
//! DPDK stores packets in mbufs allocated from hugepage-backed mempools;
//! the pool size is what bounds how deep a Choir recording can be (paper
//! §5: "The primary restriction is RAM, which only controls how large the
//! replay buffer is"). This module reproduces that accounting: a
//! [`Mempool`] has a fixed slot count, every live [`Mbuf`] (and every
//! recording that retains one) occupies a slot, and allocation fails —
//! never blocks, never grows — when the pool is exhausted, exactly like
//! `rte_pktmbuf_alloc` returning NULL.
//!
//! Packet bytes themselves live in [`choir_packet::Frame`]'s refcounted
//! storage, so retaining a transmitted packet for a recording is a
//! refcount bump, not a copy.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::StorageHook;
use choir_packet::Frame;

/// Error returned when a [`Mempool`] has no free slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolExhausted;

impl fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mempool exhausted")
    }
}

impl std::error::Error for PoolExhausted {}

struct PoolInner {
    name: String,
    capacity: usize,
    in_use: AtomicUsize,
    /// High-water mark of simultaneous live mbufs, for diagnostics.
    peak: AtomicUsize,
    failed_allocs: AtomicUsize,
}

/// A fixed-capacity message-buffer pool.
///
/// ```
/// use choir_dpdk::Mempool;
/// use choir_packet::Frame;
/// use bytes::Bytes;
///
/// let pool = Mempool::new("demo", 2);
/// let a = pool.alloc(Frame::new(Bytes::from_static(b"pkt"))).unwrap();
/// let b = a.clone();            // recording-style retain: same slot
/// assert_eq!(pool.in_use(), 1);
/// drop((a, b));
/// assert_eq!(pool.in_use(), 0);
/// ```
///
/// Cheap to clone (handle semantics); all clones share the same slots.
#[derive(Clone)]
pub struct Mempool {
    inner: Arc<PoolInner>,
}

impl Mempool {
    /// A pool named `name` with `capacity` mbuf slots.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "mempool capacity must be positive");
        Mempool {
            inner: Arc::new(PoolInner {
                name: name.into(),
                capacity,
                in_use: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                failed_allocs: AtomicUsize::new(0),
            }),
        }
    }

    /// A pool sized like the paper's minimum deployment: 1 GB of RAM at
    /// 2 KB per mbuf slot (the conventional DPDK dataroom for 1500-byte
    /// frames).
    pub fn one_gigabyte(name: impl Into<String>) -> Self {
        Self::new(name, (1 << 30) / 2048)
    }

    /// Wrap `frame` in an [`Mbuf`], taking one pool slot.
    ///
    /// On the hot path this allocates nothing: the slot's release hook
    /// is folded into the frame's existing refcounted storage (the
    /// pool's own `Arc` is the hook, so attaching is a refcount bump).
    /// Frames over static or already-hooked storage fall back to a
    /// dedicated guard allocation with identical accounting.
    pub fn alloc(&self, frame: Frame) -> Result<Mbuf, PoolExhausted> {
        // Optimistically take a slot, back out on overflow. Relaxed is
        // sufficient: the counter is a quota, not a synchronization edge.
        let prev = self.inner.in_use.fetch_add(1, Ordering::Relaxed);
        if prev >= self.inner.capacity {
            self.inner.in_use.fetch_sub(1, Ordering::Relaxed);
            self.inner.failed_allocs.fetch_add(1, Ordering::Relaxed);
            return Err(PoolExhausted);
        }
        self.inner.peak.fetch_max(prev + 1, Ordering::Relaxed);
        let hook: Arc<dyn StorageHook> = Arc::clone(&self.inner) as Arc<dyn StorageHook>;
        let slot = if frame.data.try_attach_hook(hook) {
            SlotRef::Storage
        } else {
            SlotRef::Guard(Arc::new(Slot {
                pool: Arc::clone(&self.inner),
            }))
        };
        Ok(Mbuf {
            frame,
            rx_ts_ps: None,
            slot,
        })
    }

    /// Pool name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Currently-occupied slots.
    pub fn in_use(&self) -> usize {
        self.inner.in_use.load(Ordering::Relaxed)
    }

    /// Free slots remaining.
    pub fn available(&self) -> usize {
        self.capacity().saturating_sub(self.in_use())
    }

    /// High-water mark of simultaneous live mbufs.
    pub fn peak(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// How many allocations have failed due to exhaustion.
    pub fn failed_allocs(&self) -> usize {
        self.inner.failed_allocs.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Mempool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mempool")
            .field("name", &self.inner.name)
            .field("capacity", &self.inner.capacity)
            .field("in_use", &self.in_use())
            .finish()
    }
}

/// The pool itself acts as the storage release hook: when the last
/// handle to an mbuf's frame storage drops, the slot returns. This is
/// the slot's drop path for [`SlotRef::Storage`] mbufs.
impl StorageHook for PoolInner {
    fn on_storage_release(&self) {
        self.in_use.fetch_sub(1, Ordering::Relaxed);
    }
}

/// RAII slot guard; returns the slot when the last clone drops.
/// Fallback for frames whose storage cannot carry the pool hook.
struct Slot {
    pool: Arc<PoolInner>,
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.pool.in_use.fetch_sub(1, Ordering::Relaxed);
    }
}

/// How an [`Mbuf`] tracks its pool slot.
#[derive(Clone)]
enum SlotRef {
    /// Accounting rides the frame's own storage refcount (no per-mbuf
    /// allocation); the slot returns when the storage is released.
    Storage,
    /// Dedicated guard (static or already-hooked frame storage).
    Guard(Arc<Slot>),
}

/// A message buffer: a frame plus its pool bookkeeping.
///
/// Clones share the slot (refcounted), mirroring DPDK's
/// `rte_mbuf_refcnt_update` pattern that Choir's no-copy recording relies
/// on.
#[derive(Clone)]
pub struct Mbuf {
    /// The packet data.
    pub frame: Frame,
    /// Hardware receive timestamp in picoseconds since the capture epoch,
    /// stamped by the NIC model on delivery (like DPDK's mbuf timestamp
    /// dynamic field). `None` for locally-originated packets.
    pub rx_ts_ps: Option<u64>,
    slot: SlotRef,
}

impl Mbuf {
    /// An mbuf not associated with any pool (for tests and synthetic
    /// traffic where accounting does not matter).
    pub fn unpooled(frame: Frame) -> Self {
        // A throwaway one-slot pool keeps the type uniform.
        static UNPOOLED: std::sync::OnceLock<Mempool> = std::sync::OnceLock::new();
        let pool = UNPOOLED.get_or_init(|| Mempool::new("unpooled", usize::MAX >> 1));
        pool.alloc(frame).expect("unpooled pool cannot exhaust")
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.frame.len()
    }

    /// True when the frame holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.frame.is_empty()
    }

    /// How many owners (clones) share this mbuf's slot.
    pub fn refcount(&self) -> usize {
        match &self.slot {
            SlotRef::Storage => self.frame.data.storage_refcount(),
            SlotRef::Guard(g) => Arc::strong_count(g),
        }
    }
}

impl fmt::Debug for Mbuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mbuf")
            .field("len", &self.len())
            .field("refcount", &self.refcount())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn frame(n: usize) -> Frame {
        Frame::new(Bytes::from(vec![0u8; n]))
    }

    #[test]
    fn alloc_and_drop_returns_slot() {
        let pool = Mempool::new("t", 2);
        let a = pool.alloc(frame(10)).unwrap();
        assert_eq!(pool.in_use(), 1);
        let b = pool.alloc(frame(10)).unwrap();
        assert_eq!(pool.in_use(), 2);
        assert_eq!(pool.available(), 0);
        drop(a);
        assert_eq!(pool.in_use(), 1);
        drop(b);
        assert_eq!(pool.in_use(), 0);
        assert_eq!(pool.peak(), 2);
    }

    #[test]
    fn exhaustion_fails_cleanly() {
        let pool = Mempool::new("t", 1);
        let _a = pool.alloc(frame(1)).unwrap();
        assert!(matches!(pool.alloc(frame(1)), Err(PoolExhausted)));
        assert_eq!(pool.failed_allocs(), 1);
        // Failed alloc must not leak a slot.
        assert_eq!(pool.in_use(), 1);
    }

    #[test]
    fn clone_shares_slot() {
        let pool = Mempool::new("t", 1);
        let a = pool.alloc(frame(4)).unwrap();
        let b = a.clone();
        // Two handles, one slot: this is the no-copy recording property.
        assert_eq!(pool.in_use(), 1);
        assert_eq!(a.refcount(), 2);
        drop(a);
        assert_eq!(pool.in_use(), 1);
        drop(b);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn clone_shares_frame_bytes() {
        let pool = Mempool::new("t", 4);
        let a = pool.alloc(frame(100)).unwrap();
        let b = a.clone();
        assert_eq!(a.frame.data.as_ptr(), b.frame.data.as_ptr());
    }

    #[test]
    fn slot_rides_frame_storage_refcount() {
        // Hot path: the slot is folded into the frame's storage, so a
        // surviving view of the bytes (a recording's retain) keeps the
        // slot occupied even after every Mbuf handle is gone.
        let pool = Mempool::new("t", 2);
        let a = pool.alloc(frame(16)).unwrap();
        let view = a.frame.data.clone();
        drop(a);
        assert_eq!(pool.in_use(), 1);
        drop(view);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn static_frames_fall_back_to_guard_accounting() {
        let pool = Mempool::new("t", 2);
        let a = pool
            .alloc(Frame::new(Bytes::from_static(b"static pkt")))
            .unwrap();
        assert_eq!(pool.in_use(), 1);
        let b = a.clone();
        assert_eq!(a.refcount(), 2);
        assert_eq!(pool.in_use(), 1);
        drop((a, b));
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn already_hooked_storage_falls_back_to_guard() {
        // Two mbufs over the same storage: the second alloc cannot
        // attach a second hook and must guard its own slot; each slot
        // still returns exactly once.
        let pool = Mempool::new("t", 4);
        let a = pool.alloc(frame(8)).unwrap();
        let b = pool.alloc(a.frame.clone()).unwrap();
        assert_eq!(pool.in_use(), 2);
        drop(b);
        assert_eq!(pool.in_use(), 1);
        drop(a);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn one_gigabyte_sizing() {
        let pool = Mempool::one_gigabyte("gig");
        assert_eq!(pool.capacity(), 524_288);
    }

    #[test]
    fn concurrent_alloc_free_respects_capacity() {
        let pool = Mempool::new("mt", 64);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = pool.clone();
                s.spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..1000 {
                        if let Ok(m) = pool.alloc(frame(8)) {
                            held.push(m);
                        }
                        if i % 3 == 0 {
                            held.pop();
                        }
                        // The raw counter may transiently overshoot
                        // capacity while racing allocs back out of their
                        // optimistic fetch_add; only successful allocs
                        // (held mbufs, and the peak below) are bounded.
                        assert!(held.len() <= pool.capacity());
                    }
                });
            }
        });
        assert_eq!(pool.in_use(), 0);
        assert!(pool.peak() <= 64);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        Mempool::new("z", 0);
    }

    #[test]
    fn unpooled_mbuf_works() {
        let m = Mbuf::unpooled(frame(3));
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }
}
