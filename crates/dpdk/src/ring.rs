//! A lock-free single-producer/single-consumer ring.
//!
//! This is the descriptor-ring analogue of DPDK's `rte_ring` in its
//! SP/SC mode: a fixed power-of-two capacity, producer and consumer
//! cursors, and release/acquire publication of slots. It carries packets
//! between the application thread and the simulated-NIC thread in the
//! real-time backend, where the replay hot loop must never take a lock.
//!
//! The implementation follows the classic bounded SPSC design (see *Rust
//! Atomics and Locks*, ch. 5): `head` is written only by the consumer,
//! `tail` only by the producer; each side reads the other's cursor with
//! `Acquire` and publishes its own with `Release`, which is exactly the
//! happens-before edge needed for the payload to be visible.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct RingInner<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the producer will write (only producer stores).
    tail: AtomicUsize,
    /// Next slot the consumer will read (only consumer stores).
    head: AtomicUsize,
}

// SAFETY: the producer/consumer split (enforced by the two handle types
// below, which are !Clone and own their side) guarantees each slot is
// accessed by at most one thread at a time, with Acquire/Release ordering
// establishing visibility of the payload.
unsafe impl<T: Send> Send for RingInner<T> {}
unsafe impl<T: Send> Sync for RingInner<T> {}

/// Producer handle of an SPSC ring.
pub struct Producer<T> {
    inner: Arc<RingInner<T>>,
    /// Cached copy of `head` to avoid a shared load on every push.
    cached_head: usize,
}

/// Consumer handle of an SPSC ring.
pub struct Consumer<T> {
    inner: Arc<RingInner<T>>,
    /// Cached copy of `tail` to avoid a shared load on every pop.
    cached_tail: usize,
}

/// A bounded single-producer/single-consumer ring. Construct with
/// [`SpscRing::with_capacity`], then split into handles.
///
/// ```
/// use choir_dpdk::SpscRing;
///
/// let (mut tx, mut rx) = SpscRing::with_capacity::<u32>(4);
/// tx.push(7).unwrap();
/// tx.push(8).unwrap();
/// assert_eq!(rx.pop(), Some(7));
/// assert_eq!(rx.pop(), Some(8));
/// assert_eq!(rx.pop(), None);
/// ```
pub struct SpscRing;

impl SpscRing {
    /// Create a ring holding up to `capacity` items (rounded up to a power
    /// of two) and split it into its two endpoint handles.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_capacity<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
        assert!(capacity > 0, "ring capacity must be positive");
        let cap = capacity.next_power_of_two();
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let inner = Arc::new(RingInner {
            slots,
            mask: cap - 1,
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
        });
        (
            Producer {
                inner: Arc::clone(&inner),
                cached_head: 0,
            },
            Consumer {
                inner,
                cached_tail: 0,
            },
        )
    }
}

impl<T> Producer<T> {
    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// Attempt to enqueue; returns the value back when the ring is full.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let tail = self.inner.tail.load(Ordering::Relaxed);
        if tail.wrapping_sub(self.cached_head) == self.capacity() {
            // Refresh the consumer cursor; it may have advanced.
            self.cached_head = self.inner.head.load(Ordering::Acquire);
            if tail.wrapping_sub(self.cached_head) == self.capacity() {
                return Err(value);
            }
        }
        let idx = tail & self.inner.mask;
        // SAFETY: slot `tail` is beyond the consumer's reach (checked above)
        // and only this producer writes slots.
        unsafe {
            (*self.inner.slots[idx].get()).write(value);
        }
        self.inner
            .tail
            .store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Enqueue as many items from `iter` as fit; returns how many were
    /// accepted.
    pub fn push_bulk<I: IntoIterator<Item = T>>(&mut self, iter: I) -> (usize, Option<T>) {
        let mut n = 0;
        for v in iter {
            match self.push(v) {
                Ok(()) => n += 1,
                Err(v) => return (n, Some(v)),
            }
        }
        (n, None)
    }

    /// Number of items currently queued (approximate under concurrency).
    pub fn len(&self) -> usize {
        let tail = self.inner.tail.load(Ordering::Relaxed);
        let head = self.inner.head.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// True when no items are queued (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Consumer<T> {
    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// Attempt to dequeue one item.
    pub fn pop(&mut self) -> Option<T> {
        let head = self.inner.head.load(Ordering::Relaxed);
        if head == self.cached_tail {
            self.cached_tail = self.inner.tail.load(Ordering::Acquire);
            if head == self.cached_tail {
                return None;
            }
        }
        let idx = head & self.inner.mask;
        // SAFETY: the producer published this slot with Release; we observed
        // its tail with Acquire, so the write happens-before this read, and
        // the producer will not touch the slot again until we advance head.
        let value = unsafe { (*self.inner.slots[idx].get()).assume_init_read() };
        self.inner
            .head
            .store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Pop up to `max` items into `out`; returns how many were taken.
    pub fn pop_bulk(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.pop() {
                Some(v) => {
                    out.push(v);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Number of items currently queued (approximate under concurrency).
    pub fn len(&self) -> usize {
        let tail = self.inner.tail.load(Ordering::Acquire);
        let head = self.inner.head.load(Ordering::Relaxed);
        tail.wrapping_sub(head)
    }

    /// True when no items are queued (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for RingInner<T> {
    fn drop(&mut self) {
        // Drain any remaining initialized slots. We have exclusive access.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        let mut i = head;
        while i != tail {
            let idx = i & self.mask;
            // SAFETY: slots in [head, tail) hold initialized values that
            // were never popped.
            unsafe {
                (*self.slots[idx].get()).assume_init_drop();
            }
            i = i.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_single_thread() {
        let (mut p, mut c) = SpscRing::with_capacity::<u32>(8);
        for i in 0..8 {
            p.push(i).unwrap();
        }
        assert!(p.push(99).is_err());
        for i in 0..8 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (p, _c) = SpscRing::with_capacity::<u8>(5);
        assert_eq!(p.capacity(), 8);
    }

    #[test]
    fn wraparound_many_times() {
        let (mut p, mut c) = SpscRing::with_capacity::<usize>(4);
        for i in 0..1000 {
            p.push(i).unwrap();
            assert_eq!(c.pop(), Some(i));
        }
        assert!(c.is_empty());
    }

    #[test]
    fn push_bulk_partial() {
        let (mut p, mut c) = SpscRing::with_capacity::<u32>(4);
        let (n, rejected) = p.push_bulk(0..10);
        assert_eq!(n, 4);
        assert_eq!(rejected, Some(4));
        let mut out = Vec::new();
        assert_eq!(c.pop_bulk(&mut out, 10), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn len_tracks_occupancy() {
        let (mut p, mut c) = SpscRing::with_capacity::<u8>(8);
        assert!(p.is_empty());
        p.push(1).unwrap();
        p.push(2).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(c.len(), 2);
        c.pop();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn drop_releases_queued_items() {
        let item = Arc::new(());
        let (mut p, c) = SpscRing::with_capacity::<Arc<()>>(4);
        p.push(Arc::clone(&item)).unwrap();
        p.push(Arc::clone(&item)).unwrap();
        assert_eq!(Arc::strong_count(&item), 3);
        drop(p);
        drop(c);
        assert_eq!(Arc::strong_count(&item), 1);
    }

    #[test]
    fn cross_thread_transfer_preserves_order_and_count() {
        const N: usize = 200_000;
        let (mut p, mut c) = SpscRing::with_capacity::<usize>(1024);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                loop {
                    match p.push(i) {
                        Ok(()) => break,
                        Err(_) => std::hint::spin_loop(),
                    }
                }
            }
        });
        let mut expected = 0usize;
        while expected < N {
            if let Some(v) = c.pop() {
                assert_eq!(v, expected, "out-of-order item");
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert_eq!(c.pop(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SpscRing::with_capacity::<u8>(0);
    }
}
