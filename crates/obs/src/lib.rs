//! # choir-obs
//!
//! Dependency-free, hermetic observability for the Choir workspace:
//!
//! - **Span timers** — monotonic ([`std::time::Instant`]) wall-clock
//!   spans with parent/child nesting via a per-thread span stack. A
//!   span's full path (`"pipeline/capture/engine"`) is the join of every
//!   enclosing span on the same thread, so the aggregate table
//!   reconstructs the call tree.
//! - **Named counters and gauges** — `u64` atomics in a global but
//!   resettable registry. Counters accumulate (`add`), gauges record a
//!   last-write or high-water value (`set` / `max`).
//! - **Event ring** — a fixed-capacity, lock-free ring of hot-path
//!   breadcrumbs (burst delivered, retry fired, worker stole a pair,
//!   wheel overflow-spill). Writers claim a slot with one `fetch_add`
//!   and never block; when the ring wraps, the oldest breadcrumbs are
//!   overwritten (the drop count is reported in the snapshot).
//!
//! Everything is gated once, at runtime, by [`set_enabled`] (off by
//! default). Disabled, each call is one relaxed atomic load and a
//! predictable branch.
//!
//! Instrumentation must never perturb what it observes: nothing here
//! draws from the deterministic RNGs, touches simulated time, or
//! allocates on a caller's hot path while disabled. Wall-clock reads
//! (`Instant`) are invisible to the simulation, exactly like the stage
//! timings the κ engine already records.
//!
//! The aggregate state exports as a serializable [`ObsSnapshot`] that
//! `RunReport` embeds (`#[serde(default)]`, so reports written before
//! the obs layer existed still load).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// One counter or gauge in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnap {
    /// Registry name, e.g. `"sim.events_processed"`.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// Aggregate statistics of one span path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanSnap {
    /// Full nesting path, `'/'`-separated (`"matrix/pairs"`).
    pub path: String,
    /// Completed spans on this path.
    pub count: u64,
    /// Total wall-clock across them, ns.
    pub total_ns: u64,
    /// Shortest single span, ns.
    pub min_ns: u64,
    /// Longest single span, ns.
    pub max_ns: u64,
}

/// One breadcrumb from the event ring.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventSnap {
    /// Global emission index (monotone across the run).
    pub seq: u64,
    /// Event kind, e.g. `"replay.retry"`.
    pub kind: String,
    /// First payload word (site-defined).
    pub a: u64,
    /// Second payload word (site-defined).
    pub b: u64,
}

/// Serializable export of the whole registry: counters, span aggregates
/// and the surviving tail of the event ring.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// Whether observability was enabled when the snapshot was taken.
    pub enabled: bool,
    /// Counters and gauges, sorted by name.
    pub counters: Vec<CounterSnap>,
    /// Span aggregates, sorted by path.
    pub spans: Vec<SpanSnap>,
    /// Ring contents, oldest surviving breadcrumb first.
    pub events: Vec<EventSnap>,
    /// Breadcrumbs emitted over the run (≥ `events.len()`).
    pub events_emitted: u64,
    /// Breadcrumbs overwritten by ring wrap-around.
    pub events_dropped: u64,
}

impl ObsSnapshot {
    /// Value of a counter/gauge by name, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Aggregate for a span path, if recorded.
    pub fn span(&self, path: &str) -> Option<&SpanSnap> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.spans.is_empty() && self.events.is_empty()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Event-ring capacity (breadcrumb slots).
const RING_CAPACITY: usize = 4096;

struct SpanStat {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanStat>,
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Registry::default()))
}

// --- event ring ----------------------------------------------------

/// One ring slot. `seq` holds `index + 1` of the last completed write
/// (0 = never written); readers re-check it to discard slots a
/// wrapping writer was mid-update on. Payload words are plain relaxed
/// atomics — a torn read is caught by the `seq` re-check.
struct Slot {
    seq: AtomicU64,
    kind_ptr: AtomicU64,
    kind_len: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

struct Ring {
    slots: Box<[Slot]>,
    /// Total breadcrumbs claimed; slot index = head % capacity.
    head: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        let mut slots = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            slots.push(Slot {
                seq: AtomicU64::new(0),
                kind_ptr: AtomicU64::new(0),
                kind_len: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
            });
        }
        Ring {
            slots: slots.into_boxed_slice(),
            head: AtomicU64::new(0),
        }
    }

    fn push(&self, kind: &'static str, a: u64, b: u64) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx % self.slots.len() as u64) as usize];
        // 0 marks the slot in-flight; readers seeing anything but
        // `idx + 1` (before AND after reading the payload) discard it.
        slot.seq.store(0, Ordering::Release);
        slot.kind_ptr.store(kind.as_ptr() as u64, Ordering::Relaxed);
        slot.kind_len.store(kind.len() as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(idx + 1, Ordering::Release);
    }

    fn drain_into(&self, out: &mut Vec<EventSnap>) -> (u64, u64) {
        let emitted = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let kept = emitted.min(cap);
        let first = emitted - kept;
        for idx in first..emitted {
            let slot = &self.slots[(idx % cap) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq != idx + 1 {
                // Overwritten or mid-write; skip the breadcrumb.
                continue;
            }
            let ptr = slot.kind_ptr.load(Ordering::Relaxed);
            let len = slot.kind_len.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != idx + 1 {
                continue;
            }
            // SAFETY: `ptr`/`len` were produced from a `&'static str`
            // in `push` and revalidated by the seq re-check; 'static
            // string data is never deallocated.
            let kind = unsafe {
                std::str::from_utf8_unchecked(std::slice::from_raw_parts(
                    ptr as *const u8,
                    len as usize,
                ))
            };
            out.push(EventSnap {
                seq: idx,
                kind: kind.to_string(),
                a,
                b,
            });
        }
        (emitted, emitted - kept)
    }

    fn clear(&self) {
        // Readers tolerate any seq mismatch, so ordering here is
        // cosmetic; reset() is only called between runs.
        self.head.store(0, Ordering::Release);
        for s in self.slots.iter() {
            s.seq.store(0, Ordering::Release);
        }
    }
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring::new(RING_CAPACITY))
}

// --- public API ----------------------------------------------------------

/// True when observability is runtime-enabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Flip the master switch without touching recorded state.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Zero every counter, drop every span aggregate, clear the ring.
/// The enabled flag is left as-is.
pub fn reset() {
    let mut reg = registry().lock().expect("obs registry");
    reg.counters.clear();
    reg.spans.clear();
    drop(reg);
    ring().clear();
}

/// Update a counter/gauge slot, allocating its name only on first
/// touch.
fn update_counter(name: &str, f: impl FnOnce(&mut u64)) {
    let mut reg = registry().lock().expect("obs registry");
    if let Some(v) = reg.counters.get_mut(name) {
        f(v);
    } else {
        let mut v = 0;
        f(&mut v);
        reg.counters.insert(name.to_string(), v);
    }
}

/// Add `n` to the named counter (registered on first touch).
pub fn counter_add(name: &str, n: u64) {
    if !is_enabled() {
        return;
    }
    update_counter(name, |v| *v += n);
}

/// Increment the named counter by one.
#[inline]
pub fn counter_inc(name: &str) {
    counter_add(name, 1);
}

/// Record a last-write gauge value.
pub fn gauge_set(name: &str, v: u64) {
    if !is_enabled() {
        return;
    }
    update_counter(name, |slot| *slot = v);
}

/// Record a high-water gauge value.
pub fn gauge_max(name: &str, v: u64) {
    if !is_enabled() {
        return;
    }
    update_counter(name, |slot| *slot = (*slot).max(v));
}

/// Emit a breadcrumb into the event ring.
#[inline]
pub fn event(kind: &'static str, a: u64, b: u64) {
    if !is_enabled() {
        return;
    }
    ring().push(kind, a, b);
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII span: records wall-clock from construction to drop under the
/// current thread's span path. Inert when obs is disabled.
pub struct SpanGuard {
    start: Option<Instant>,
    name: &'static str,
}

/// Open a span named `name`, nested under any span already open on
/// this thread.
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { start: None, name };
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard {
        start: Some(Instant::now()),
        name,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let dt = start.elapsed().as_nanos() as u64;
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop back to this span's frame even if an inner guard
            // leaked (e.g. mem::forget): truncate at the deepest
            // occurrence of our name.
            if let Some(pos) = stack.iter().rposition(|n| *n == self.name) {
                let path = stack[..=pos].join("/");
                stack.truncate(pos);
                path
            } else {
                self.name.to_string()
            }
        });
        let mut reg = registry().lock().expect("obs registry");
        match reg.spans.get_mut(&path) {
            Some(st) => {
                st.count += 1;
                st.total_ns += dt;
                st.min_ns = st.min_ns.min(dt);
                st.max_ns = st.max_ns.max(dt);
            }
            None => {
                reg.spans.insert(
                    path,
                    SpanStat {
                        count: 1,
                        total_ns: dt,
                        min_ns: dt,
                        max_ns: dt,
                    },
                );
            }
        }
    }
}

/// Export the registry as a serializable snapshot. Counters and spans
/// come out name-sorted (BTreeMap order), so snapshots of identical
/// runs are deterministic.
pub fn snapshot() -> ObsSnapshot {
    let reg = registry().lock().expect("obs registry");
    let counters = reg
        .counters
        .iter()
        .map(|(name, &value)| CounterSnap {
            name: name.clone(),
            value,
        })
        .collect();
    let spans = reg
        .spans
        .iter()
        .map(|(path, st)| SpanSnap {
            path: path.clone(),
            count: st.count,
            total_ns: st.total_ns,
            min_ns: st.min_ns,
            max_ns: st.max_ns,
        })
        .collect();
    drop(reg);
    let mut events = Vec::new();
    let (emitted, dropped) = ring().drain_into(&mut events);
    ObsSnapshot {
        enabled: is_enabled(),
        counters,
        spans,
        events,
        events_emitted: emitted,
        events_dropped: dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global, so tests share one lock to avoid
    /// interleaving resets.
    fn serialized<T>(f: impl FnOnce() -> T) -> T {
        use std::sync::{Mutex, OnceLock};
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        let _g = GUARD
            .get_or_init(|| Mutex::new(()))
            .lock()
            .expect("test guard");
        reset();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        reset();
        out
    }

    #[test]
    fn disabled_records_nothing() {
        serialized(|| {
            set_enabled(false);
            counter_add("x", 3);
            event("k", 1, 2);
            {
                let _s = span("root");
            }
            let snap = snapshot();
            assert!(snap.is_empty(), "{snap:?}");
            assert!(!snap.enabled);
        });
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        serialized(|| {
            counter_add("a.count", 2);
            counter_inc("a.count");
            gauge_set("g.last", 7);
            gauge_set("g.last", 5);
            gauge_max("g.peak", 3);
            gauge_max("g.peak", 9);
            gauge_max("g.peak", 4);
            let snap = snapshot();
            assert_eq!(snap.counter("a.count"), Some(3));
            assert_eq!(snap.counter("g.last"), Some(5));
            assert_eq!(snap.counter("g.peak"), Some(9));
            // Name-sorted.
            let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
            let mut sorted = names.clone();
            sorted.sort();
            assert_eq!(names, sorted);
        });
    }

    #[test]
    fn spans_nest_into_paths() {
        serialized(|| {
            {
                let _outer = span("outer");
                {
                    let _inner = span("inner");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                {
                    let _inner = span("inner");
                }
            }
            {
                let _solo = span("inner");
            }
            let snap = snapshot();
            let nested = snap.span("outer/inner").expect("nested path");
            assert_eq!(nested.count, 2);
            assert!(nested.total_ns >= 1_000_000, "{nested:?}");
            assert!(nested.min_ns <= nested.max_ns);
            assert_eq!(snap.span("outer").expect("outer").count, 1);
            assert_eq!(snap.span("inner").expect("root inner").count, 1);
        });
    }

    #[test]
    fn event_ring_keeps_order_and_reports_drops() {
        serialized(|| {
            for i in 0..10u64 {
                event("tick", i, i * 2);
            }
            let snap = snapshot();
            assert_eq!(snap.events_emitted, 10);
            assert_eq!(snap.events_dropped, 0);
            assert_eq!(snap.events.len(), 10);
            for (i, e) in snap.events.iter().enumerate() {
                assert_eq!(e.seq, i as u64);
                assert_eq!(e.kind, "tick");
                assert_eq!(e.a, i as u64);
                assert_eq!(e.b, i as u64 * 2);
            }
        });
    }

    #[test]
    fn event_ring_wraps_and_counts_dropped() {
        serialized(|| {
            // Overrun the ring's 4096 slots.
            for i in 0..5000u64 {
                event("w", i, 0);
            }
            let snap = snapshot();
            assert_eq!(snap.events_emitted, 5000);
            assert_eq!(snap.events_dropped, 5000 - 4096);
            assert_eq!(snap.events.len(), 4096);
            assert_eq!(snap.events.first().expect("tail").a, 5000 - 4096);
            assert_eq!(snap.events.last().expect("tail").a, 4999);
        });
    }

    #[test]
    fn reset_clears_everything() {
        serialized(|| {
            counter_add("c", 1);
            event("e", 0, 0);
            {
                let _s = span("s");
            }
            reset();
            let snap = snapshot();
            assert!(snap.is_empty(), "{snap:?}");
            assert_eq!(snap.events_emitted, 0);
        });
    }

    #[test]
    fn concurrent_writers_are_safe() {
        serialized(|| {
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    s.spawn(move || {
                        for i in 0..200u64 {
                            counter_add("mt.count", 1);
                            event("mt", t, i);
                        }
                    });
                }
            });
            let snap = snapshot();
            assert_eq!(snap.counter("mt.count"), Some(800));
            assert_eq!(snap.events_emitted, 800);
            // Ring holds the newest ≤ 4096, every survivor well-formed.
            assert!(snap.events.len() <= 800);
            assert!(snap.events.iter().all(|e| e.kind == "mt" && e.a < 4));
        });
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        serialized(|| {
            counter_add("json.c", 42);
            {
                let _s = span("json_span");
            }
            event("json.e", 7, 8);
            let snap = snapshot();
            let json = serde_json::to_string(&snap).expect("serialize");
            let back: ObsSnapshot = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, snap);
        });
    }
}
