//! The event queue behind [`crate::Sim`]: a hierarchical timing wheel.
//!
//! The simulator's determinism contract is that events pop in exactly
//! `(time, insertion sequence)` order. A global `BinaryHeap` satisfies
//! that trivially but pays `O(log n)` pointer-chasing per packet event;
//! the wheel replaces it with `O(1)` bucket pushes for the near future
//! (where virtually every wire event lands) while far-future events
//! (replay schedules, PTP resyncs) overflow into a small heap that is
//! drained into the wheel as the horizon advances. The order contract is
//! checked two ways: [`TimingWheel::pop_due`] `debug_assert!`s that every
//! pop's `(t, seq)` is strictly greater than the one before it, in every
//! debug run of every simulation, and this module's proptests hold the
//! wheel to a plain `BinaryHeap` — which lives in the test module, as an
//! oracle, and nowhere else — on random and simulator-shaped schedules.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of the bucket width in picoseconds (65.536 ns per bucket: about
/// half a 1400-byte serialization at 100 Gbps, so back-to-back wire
/// events map to distinct or adjacent buckets).
const BUCKET_BITS: u32 = 16;
/// Bucket width in ps.
const BUCKET_WIDTH: u64 = 1 << BUCKET_BITS;
/// Buckets in the wheel (power of two). Horizon = width × buckets ≈ 67 µs.
const NUM_BUCKETS: usize = 1024;
/// Span of simulated time the wheel covers before events overflow.
const HORIZON: u64 = BUCKET_WIDTH * NUM_BUCKETS as u64;

struct Entry<T> {
    t: u64,
    seq: u64,
    item: T,
}

/// Heap entry ordered earliest-first (reversed, since `BinaryHeap` is a
/// max-heap).
struct HeapEntry<T>(Entry<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.t == other.0.t && self.0.seq == other.0.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0.t, other.0.seq).cmp(&(self.0.t, self.0.seq))
    }
}

/// A hierarchical timing wheel preserving exact `(time, seq)` pop order.
///
/// Near-future events (within `HORIZON` of the cursor) live in
/// fixed-width buckets; everything further out waits in an overflow heap
/// and is migrated into buckets as the cursor sweeps forward. Buckets
/// cover disjoint time spans, so the global minimum is always the
/// `(t, seq)`-minimum of the first non-empty bucket.
///
/// Non-cursor buckets are unsorted append-only deques (`O(1)` push).
/// When the cursor enters a bucket it is sorted once; from then on pops
/// are `O(1)` front removals and new same-span pushes keep order by
/// sorted insertion — which is nearly always a tail append, because new
/// events carry a later `(t, seq)` than everything already queued. This
/// matters when simulated event spacing is much finer than the bucket
/// width: the whole working set then lives in the cursor bucket, and a
/// min-scan per pop would degenerate to `O(depth)`.
pub struct TimingWheel<T> {
    /// Start time (inclusive) of the cursor bucket's span; aligned to
    /// `BUCKET_WIDTH`.
    start: u64,
    cursor: usize,
    buckets: Vec<VecDeque<Entry<T>>>,
    /// The cursor bucket is currently in sorted order (pops may take the
    /// front; pushes into it must insert in order).
    cursor_sorted: bool,
    /// Entries at `t >= start + HORIZON`.
    overflow: BinaryHeap<HeapEntry<T>>,
    /// Entries in buckets (excludes overflow).
    in_wheel: usize,
    len: usize,
    depth_peak: usize,
    /// Pushes that landed past the horizon and spilled to the heap.
    overflow_spills: u64,
    /// `(t, seq)` of the last pop: the order contract's witness.
    #[cfg(debug_assertions)]
    last_popped: Option<(u64, u64)>,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    /// An empty wheel starting at t = 0.
    pub fn new() -> Self {
        TimingWheel {
            start: 0,
            cursor: 0,
            buckets: (0..NUM_BUCKETS).map(|_| VecDeque::new()).collect(),
            cursor_sorted: false,
            overflow: BinaryHeap::new(),
            in_wheel: 0,
            len: 0,
            depth_peak: 0,
            overflow_spills: 0,
            #[cfg(debug_assertions)]
            last_popped: None,
        }
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of queued events (diagnostics).
    pub fn depth_peak(&self) -> usize {
        self.depth_peak
    }

    /// Pushes that fell past the horizon into the overflow heap
    /// (diagnostics; each one costs a heap op now and a migration later).
    pub fn overflow_spills(&self) -> u64 {
        self.overflow_spills
    }

    fn bucket_of(t: u64) -> usize {
        ((t >> BUCKET_BITS) as usize) & (NUM_BUCKETS - 1)
    }

    /// Queue `item` at `(t, seq)`. The caller must not push at or below
    /// the `(t, seq)` of an event it has already popped: times earlier
    /// than the cursor's span are clamped into the cursor bucket, and
    /// [`pop_due`](Self::pop_due) asserts in debug builds that pops stay
    /// strictly increasing.
    pub fn push(&mut self, t: u64, seq: u64, item: T) {
        if t >= self.start + HORIZON {
            self.overflow_spills += 1;
            choir_obs::event("wheel.overflow_spill", t, seq);
            self.overflow.push(HeapEntry(Entry { t, seq, item }));
        } else {
            let idx = if t < self.start {
                self.cursor
            } else {
                Self::bucket_of(t)
            };
            let b = &mut self.buckets[idx];
            if idx == self.cursor && self.cursor_sorted {
                // Keep the sorted bucket sorted. New events almost always
                // carry the largest (t, seq) so far, so the binary search
                // lands at the back and this is a plain append.
                let pos = b.partition_point(|e| (e.t, e.seq) < (t, seq));
                if pos == b.len() {
                    b.push_back(Entry { t, seq, item });
                } else {
                    b.insert(pos, Entry { t, seq, item });
                }
            } else {
                b.push_back(Entry { t, seq, item });
            }
            self.in_wheel += 1;
        }
        self.len += 1;
        self.depth_peak = self.depth_peak.max(self.len);
    }

    /// Advance the cursor one bucket and migrate any overflow entries
    /// that the new horizon now covers.
    fn advance(&mut self) {
        self.start += BUCKET_WIDTH;
        self.cursor = (self.cursor + 1) & (NUM_BUCKETS - 1);
        self.cursor_sorted = false;
        let horizon_end = self.start + HORIZON;
        while let Some(top) = self.overflow.peek() {
            if top.0.t >= horizon_end {
                break;
            }
            let HeapEntry(e) = self.overflow.pop().expect("peeked");
            self.buckets[Self::bucket_of(e.t)].push_back(e);
            self.in_wheel += 1;
        }
    }

    /// Jump the cursor directly to the span containing `t` (only valid
    /// while every bucket is empty).
    fn fast_forward_to(&mut self, t: u64) {
        debug_assert_eq!(self.in_wheel, 0);
        self.start = t & !(BUCKET_WIDTH - 1);
        self.cursor = Self::bucket_of(t);
        self.cursor_sorted = false;
        let horizon_end = self.start + HORIZON;
        while let Some(top) = self.overflow.peek() {
            if top.0.t >= horizon_end {
                break;
            }
            let HeapEntry(e) = self.overflow.pop().expect("peeked");
            self.buckets[Self::bucket_of(e.t)].push_back(e);
            self.in_wheel += 1;
        }
    }

    /// Move the cursor to the first non-empty bucket and sort it so the
    /// front entry is the global `(t, seq)` minimum. Caller guarantees
    /// `len > 0`.
    fn seek(&mut self) {
        if self.in_wheel == 0 {
            let t = self.overflow.peek().expect("len > 0").0.t;
            self.fast_forward_to(t);
        }
        while self.buckets[self.cursor].is_empty() {
            self.advance();
        }
        if !self.cursor_sorted {
            self.buckets[self.cursor]
                .make_contiguous()
                .sort_unstable_by_key(|e| (e.t, e.seq));
            self.cursor_sorted = true;
        }
    }

    /// Remove and return the next event if its time is `<= deadline`.
    ///
    /// Pops come out in strictly increasing `(t, seq)` order — the
    /// simulator's determinism contract, asserted here in debug builds.
    pub fn pop_due(&mut self, deadline: u64) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        self.seek();
        let b = &mut self.buckets[self.cursor];
        if b.front().expect("seek: non-empty").t > deadline {
            return None;
        }
        let e = b.pop_front().expect("checked front");
        self.in_wheel -= 1;
        self.len -= 1;
        #[cfg(debug_assertions)]
        {
            let popped = (e.t, e.seq);
            debug_assert!(
                self.last_popped < Some(popped),
                "event order broken: popped {popped:?} after {:?}",
                self.last_popped
            );
            self.last_popped = Some(popped);
        }
        Some((e.t, e.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    /// The oracle: a plain `BinaryHeap` of `(t, seq)` keys, earliest
    /// first. Every test below queues `seq` as the wheel's item, so a
    /// wheel pop `(t, item)` and an oracle pop `(t, seq)` compare whole.
    type Heap = BinaryHeap<Reverse<(u64, u64)>>;

    fn pop(heap: &mut Heap) -> Option<(u64, u64)> {
        heap.pop().map(|Reverse(key)| key)
    }

    /// Drain both queues fully and assert identical pop order.
    fn assert_same_order(pushes: &[(u64, u64)]) {
        let mut wheel = TimingWheel::new();
        let mut heap = Heap::new();
        for &(t, seq) in pushes {
            wheel.push(t, seq, seq);
            heap.push(Reverse((t, seq)));
        }
        loop {
            let a = wheel.pop_due(u64::MAX);
            let b = pop(&mut heap);
            assert_eq!(a, b, "wheel and heap disagree");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        assert!(w.pop_due(u64::MAX).is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn fifo_within_same_time() {
        let mut w = TimingWheel::new();
        for seq in 0..10u64 {
            w.push(500, seq, seq);
        }
        for seq in 0..10 {
            assert_eq!(w.pop_due(u64::MAX), Some((500, seq)));
        }
    }

    #[test]
    fn deadline_is_respected() {
        let mut w = TimingWheel::new();
        w.push(100, 0, 'a');
        w.push(200, 1, 'b');
        assert_eq!(w.pop_due(150), Some((100, 'a')));
        assert!(w.pop_due(150).is_none());
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_due(200), Some((200, 'b')));
    }

    #[test]
    fn far_future_overflow_round_trips() {
        let mut w = TimingWheel::new();
        // Beyond the horizon in several rotations' worth of spread.
        let times = [
            5 * HORIZON + 3,
            HORIZON,
            2,
            HORIZON - 1,
            3 * HORIZON + BUCKET_WIDTH,
            HORIZON + BUCKET_WIDTH / 2,
        ];
        for (seq, &t) in times.iter().enumerate() {
            w.push(t, seq as u64, t);
        }
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        let mut popped = Vec::new();
        while let Some((t, _)) = w.pop_due(u64::MAX) {
            popped.push(t);
        }
        assert_eq!(popped, sorted);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        // Pops advance the cursor; later pushes at the current time must
        // still come out after earlier same-time entries (seq order).
        let mut w = TimingWheel::new();
        w.push(1_000, 0, 0u64);
        w.push(2_000_000, 1, 1);
        assert_eq!(w.pop_due(u64::MAX), Some((1_000, 0)));
        // Now at t=1000; push same-time and future entries.
        w.push(1_000, 2, 2);
        w.push(1_500, 3, 3);
        assert_eq!(w.pop_due(u64::MAX), Some((1_000, 2)));
        assert_eq!(w.pop_due(u64::MAX), Some((1_500, 3)));
        assert_eq!(w.pop_due(u64::MAX), Some((2_000_000, 1)));
    }

    /// The order contract is the caller's too: scheduling below what has
    /// already popped is caught at the next pop, in any debug build.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "event order broken")]
    fn push_below_the_last_pop_trips_the_order_assertion() {
        let mut w = TimingWheel::new();
        w.push(1_000, 0, 0u64);
        assert_eq!(w.pop_due(u64::MAX), Some((1_000, 0)));
        w.push(999, 1, 1);
        w.pop_due(u64::MAX);
    }

    #[test]
    fn depth_peak_tracks_high_water() {
        let mut w = TimingWheel::new();
        for i in 0..5u64 {
            w.push(i, i, i);
        }
        w.pop_due(u64::MAX);
        w.push(10, 5, 5);
        assert_eq!(w.depth_peak(), 5);
    }

    proptest! {
        /// The wheel pops random schedules in exactly the order the
        /// BinaryHeap reference does.
        #[test]
        fn wheel_matches_heap_on_random_schedules(
            times in proptest::collection::vec(0u64..(4 * HORIZON), 1..200)
        ) {
            let pushes: Vec<(u64, u64)> = times
                .into_iter()
                .enumerate()
                .map(|(i, t)| (t, i as u64))
                .collect();
            assert_same_order(&pushes);
        }

        /// Same, with monotonically-scheduled interleaved push/pop the
        /// way the simulator drives its queue (every push at or after the
        /// last popped time).
        #[test]
        fn wheel_matches_heap_under_simulation_discipline(
            rounds in proptest::collection::vec(
                (proptest::collection::vec(0u64..(2 * HORIZON), 0..8), 1usize..6),
                1..40,
            )
        ) {
            let mut wheel = TimingWheel::new();
            let mut heap = Heap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for (deltas, pops) in rounds {
                for d in deltas {
                    let t = now + d;
                    wheel.push(t, seq, seq);
                    heap.push(Reverse((t, seq)));
                    seq += 1;
                }
                for _ in 0..pops {
                    let a = wheel.pop_due(u64::MAX);
                    let b = pop(&mut heap);
                    prop_assert_eq!(&a, &b);
                    if let Some((t, _)) = a {
                        now = t;
                    } else {
                        break;
                    }
                }
            }
            // Drain what remains.
            loop {
                let a = wheel.pop_due(u64::MAX);
                let b = pop(&mut heap);
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
