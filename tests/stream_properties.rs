//! Property-based tests of the streaming incremental-κ engine
//! (`metrics::stream`): with full lookahead the engine is bit-identical
//! to the batch analyzer on every randomized trial pair, at every
//! chunking of the input (including packet-at-a-time and
//! whole-trial-at-once), with any snapshot cadence; with a bounded
//! window it must respect its residency cap and report an error
//! interval `[kappa_lo, kappa_hi]` that contains the batch κ on
//! drop-free pairs, tightens as the window doubles, and collapses to a
//! bit-identical batch result once the window covers the whole feed.
//! Simulated-testbed captures go through the same checks, plus the one
//! gate only realistic trials make meaningful: bounded κ within ε of
//! batch when fed in arrival order.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use choir::capture::{drain_available, PcapSource};
use choir::metrics::pair::PairAnalyzer;
use choir::metrics::report::TrialComparison;
use choir::metrics::stream::{
    IncrementalComparison, Side, StreamCheckpoint, StreamConfig, StreamOutcome,
};
use choir::metrics::{KappaConfig, Trial};
use choir::packet::pcap::{parse_pcap, PCAP_NS_MAGIC};
use choir::packet::PacketId;
use choir::testbed::{EnvKind, Experiment, ExperimentConfig};
use proptest::prelude::*;

thread_local! {
    /// Heap allocations made by this thread (each test runs on its own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls per thread, so that one test can
/// show a call allocates nothing while the others run beside it.
struct CountingAllocator;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it neither
// allocates nor runs after thread teardown (`try_with` covers the rest).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations `f` makes on this thread.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A random trial: a subset of sequence numbers 0..n (possibly shuffled,
/// possibly with duplicates) with non-decreasing timestamps.
fn arb_trial(max_len: usize) -> impl Strategy<Value = Trial> {
    (
        proptest::collection::vec(0u64..64, 0..max_len),
        proptest::collection::vec(0u64..5_000, 0..max_len),
    )
        .prop_map(|(seqs, mut gaps)| {
            gaps.resize(seqs.len(), 100);
            let mut t = Trial::new();
            let mut now = 0u64;
            for (s, g) in seqs.iter().zip(gaps) {
                now += g;
                t.push_tagged(0, 0, *s, now);
            }
            t
        })
}

/// Feed a pair into a fresh engine, alternating sides `chunk` records at
/// a time (`chunk >= len` degenerates to whole-side bursts).
fn stream_pair(a: &Trial, b: &Trial, cfg: StreamConfig, chunk: usize) -> StreamOutcome {
    let mut eng = IncrementalComparison::new(cfg);
    let (oa, ob) = (a.observations(), b.observations());
    let (mut ia, mut ib) = (0usize, 0usize);
    while ia < oa.len() || ib < ob.len() {
        let ea = (ia + chunk).min(oa.len());
        eng.push_burst(Side::A, &oa[ia..ea]);
        ia = ea;
        let eb = (ib + chunk).min(ob.len());
        eng.push_burst(Side::B, &ob[ib..eb]);
        ib = eb;
    }
    eng.finalize("stream")
}

/// `StreamCheckpoint`'s serde form: the whole checkpoint as JSON.
fn ship_json(ck: StreamCheckpoint) -> StreamCheckpoint {
    let json = serde_json::to_string(&ck).expect("checkpoint serializes");
    serde_json::from_str(&json).expect("checkpoint parses")
}

/// The crash boundary the daemon crosses: bulk vectors as binary slabs,
/// the remainder as JSON.
fn ship_slabs(ck: StreamCheckpoint) -> StreamCheckpoint {
    let mut slabs = Vec::new();
    let rest = ck.write_to(&mut slabs).expect("slabs write to memory");
    let mut r = &slabs[..];
    let ck = ship_json(rest).read_from(&mut r).expect("slabs read back");
    assert!(
        r.is_empty(),
        "read_from consumes exactly what write_to wrote"
    );
    ck
}

/// Like [`stream_pair`], but at burst boundary `cut` the engine is
/// checkpointed and replaced by whatever `revive` brings back from the
/// checkpoint (shipped across a crash boundary, then resumed) to finish
/// the feed. Returns the outcome plus the resident-unmatched count inside
/// the checkpoint, so callers can see whether the cut landed inside a
/// bounded-mode reorder window.
fn stream_pair_cut(
    a: &Trial,
    b: &Trial,
    cfg: StreamConfig,
    chunk: usize,
    cut: usize,
    revive: impl Fn(StreamCheckpoint) -> IncrementalComparison,
) -> (StreamOutcome, usize) {
    let (oa, ob) = (a.observations(), b.observations());
    let mut schedule: Vec<(Side, usize, usize)> = Vec::new();
    let (mut ia, mut ib) = (0usize, 0usize);
    while ia < oa.len() || ib < ob.len() {
        let ea = (ia + chunk).min(oa.len());
        if ea > ia {
            schedule.push((Side::A, ia, ea));
        }
        ia = ea;
        let eb = (ib + chunk).min(ob.len());
        if eb > ib {
            schedule.push((Side::B, ib, eb));
        }
        ib = eb;
    }
    let cut = cut % (schedule.len() + 1);
    let mut eng = IncrementalComparison::new(cfg);
    let mut resident_at_cut = 0usize;
    for (i, &(side, lo, hi)) in schedule.iter().enumerate() {
        if i == cut {
            eng = revive(eng.checkpoint());
            resident_at_cut = eng.resident();
        }
        let obs = if side == Side::A { oa } else { ob };
        eng.push_burst(side, &obs[lo..hi]);
    }
    if cut == schedule.len() {
        eng = revive(eng.checkpoint());
        resident_at_cut = eng.resident();
    }
    (eng.finalize("stream"), resident_at_cut)
}

/// Bit-level equality of everything both paths compute, excluding labels
/// and wall-clock timings.
fn assert_bit_identical(live: &TrialComparison, batch: &TrialComparison) {
    for (name, got, want) in [
        ("u", live.metrics.u, batch.metrics.u),
        ("o", live.metrics.o, batch.metrics.o),
        ("l", live.metrics.l, batch.metrics.l),
        ("i", live.metrics.i, batch.metrics.i),
        ("kappa", live.metrics.kappa, batch.metrics.kappa),
        ("iat_within_10ns", live.iat_within_10ns, batch.iat_within_10ns),
    ] {
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} diverged", name);
    }
    prop_assert_eq!(
        (live.a_len, live.b_len, live.common, live.missing, live.extra, live.moved),
        (batch.a_len, batch.b_len, batch.common, batch.missing, batch.extra, batch.moved)
    );
    prop_assert_eq!(live.iat_abs_percentiles_ns, batch.iat_abs_percentiles_ns);
    prop_assert_eq!(live.latency_abs_percentiles_ns, batch.latency_abs_percentiles_ns);
    prop_assert_eq!(live.edit_stats, batch.edit_stats);
    prop_assert_eq!(live.iat_hist.total(), batch.iat_hist.total());
    prop_assert_eq!(live.latency_hist.total(), batch.latency_hist.total());
}

/// Bounded mode against `batch` under one feeding order: residency
/// capped at the window, a well-formed interval containing batch κ, and
/// the occurrence-debt ledger accounting for every match batch makes.
fn assert_bounded_brackets_batch(live: &StreamOutcome, batch: &TrialComparison, window: usize) {
    assert!(
        live.peak_resident <= window,
        "peak resident {} exceeds window {window}",
        live.peak_resident
    );
    assert!(
        live.bounds.contains(batch.metrics.kappa),
        "interval [{}, {}] misses batch kappa {}",
        live.bounds.lo,
        live.bounds.hi,
        batch.metrics.kappa
    );
    assert_eq!(
        live.comparison.common + live.missed_matches,
        batch.common,
        "missed-match accounting must be exact"
    );
}

/// Four simulated-testbed captures (2 106 packets each, window 1/16 of a
/// trial) through the exactness check at packet-at-a-time, 64-record and
/// whole-trial chunking, then through bounded mode both ways: all of A
/// before any of B (the worst case for residency) and lock step, the
/// order a live tap sees. Lock step carries the ε-gate — bounded κ within
/// 0.01 of batch on every drop-free pair, the reading a segment-local
/// estimator missed by up to 2x on O-heavy pairs — and a synthetic pair
/// with every 7th adjacent arrival swapped keeps that gate armed with
/// genuine reordering whatever the experiment produced.
#[test]
fn testbed_captures_stream_exactly_and_bounded_kappa_stays_within_epsilon() {
    const EPSILON: f64 = 0.01;
    let mut profile = EnvKind::LocalSingle.profile();
    profile.runs = 4;
    let mut trials = Experiment::new(ExperimentConfig {
        profile,
        scale: 0.002,
        seed: 0x00C4_0112,
    })
    .run()
    .trials;
    let mut swapped = trials[0].observations().to_vec();
    for k in (0..swapped.len() - 1).step_by(7) {
        swapped.swap(k, k + 1);
    }
    trials.push(swapped.iter().map(|o| (o.id, o.t_ps)).collect());

    let per_trial = trials[0].len();
    let window = per_trial / 16;
    assert!(window >= 4 && per_trial >= 10 * window, "{per_trial} packets, window {window}");
    let full = StreamConfig {
        lookahead: None,
        snapshot_every: 0,
        kappa: KappaConfig::paper(),
    };
    let bounded = StreamConfig {
        lookahead: Some(window),
        ..full
    };
    let mut dropfree = 0;
    for (i, a) in trials.iter().enumerate() {
        for b in &trials[i + 1..] {
            let batch = PairAnalyzer::new(a, b).analyze();
            for chunk in [1, 64, per_trial] {
                let live = stream_pair(a, b, full, chunk);
                assert_bit_identical(&live.comparison, &batch);
                assert_eq!(live.evicted, 0, "full lookahead never evicts");
            }
            assert_bounded_brackets_batch(&stream_pair(a, b, bounded, per_trial), &batch, window);
            let lockstep = stream_pair(a, b, bounded, 1);
            assert_bounded_brackets_batch(&lockstep, &batch, window);
            if batch.missing == 0 && batch.extra == 0 {
                dropfree += 1;
                let err = (lockstep.comparison.metrics.kappa - batch.metrics.kappa).abs();
                assert!(
                    err <= EPSILON,
                    "bounded kappa {} vs batch {}: error {err:.6} > {EPSILON}",
                    lockstep.comparison.metrics.kappa,
                    batch.metrics.kappa
                );
            }
        }
    }
    assert_eq!(dropfree, 10, "LocalSingle drops nothing, so every pair arms the ε-gate");
}

/// A: `n` packets in sequence. B: the same packets, in A's order for the
/// first `k`, then with every `stride`-th adjacent arrival swapped — a
/// replay that kept its order until pair `k` and lost it from `k + 1`.
fn ordered_then_swapped(n: usize, k: usize, stride: usize) -> (Trial, Trial) {
    let mut a = Trial::new();
    let mut order: Vec<u64> = (0..n as u64).collect();
    for i in 0..n as u64 {
        a.push_tagged(0, 0, i, i * 1_000 + (i % 7) * 13);
    }
    for i in (k..n - 1).step_by(stride) {
        order.swap(i, i + 1);
    }
    let mut b = Trial::new();
    for (i, &seq) in order.iter().enumerate() {
        b.push_tagged(0, 0, seq, i as u64 * 1_000 + (seq % 5) * 29);
    }
    (a, b)
}

#[test]
fn running_metrics_of_a_stream_that_kept_its_order_allocate_nothing() {
    let cfg = StreamConfig {
        lookahead: None,
        snapshot_every: 0,
        kappa: KappaConfig::paper(),
    };
    let feed = |a: &Trial, b: &Trial| {
        let mut eng = IncrementalComparison::new(cfg);
        eng.push_burst(Side::A, a.observations());
        eng.push_burst(Side::B, b.observations());
        eng
    };
    // Ordered throughout (k = n): the move distance of 4 096 matched
    // pairs is read off one scan of the pair list.
    let (a, b) = ordered_then_swapped(4_096, 4_096, 2);
    let eng = feed(&a, &b);
    let (running, allocations) = allocations_during(|| eng.running_metrics());
    assert_eq!(running.o, 0.0);
    assert_eq!(allocations, 0, "an order-preserving snapshot must not touch the heap");
    // The counter is live: the same call on a reordered stream runs the
    // LIS kernel, which allocates its working set.
    let (a, b) = ordered_then_swapped(4_096, 2_048, 2);
    let eng = feed(&a, &b);
    let (running, allocations) = allocations_during(|| eng.running_metrics());
    assert!(running.o > 0.0);
    assert!(allocations > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshots_equal_batch_on_the_prefix_on_both_sides_of_the_first_reordered_pair(
        k in 40usize..90,
        tail in 40usize..90,
        stride in 2usize..6,
        chunk in 1usize..4,
        cut_before in 0usize..10_000,
        cut_after in 0usize..10_000,
    ) {
        // The order-preserving early return must hold up to pair k and
        // switch off at exactly pair k + 1, in running O, in the slice
        // score and in bounded mode's seals: a snapshot after every push
        // is compared with batch analysis of what had been pushed by
        // then. The same through a checkpoint shipped as slabs and
        // resumed with the pairing checked, cut once before the first
        // swap and once after it.
        let n = k + tail;
        let (a, b) = ordered_then_swapped(n, k, stride);
        for lookahead in [None, Some(4)] {
            let cfg = StreamConfig {
                lookahead,
                snapshot_every: 1,
                kappa: KappaConfig::paper(),
            };
            let straight = stream_pair(&a, &b, cfg, chunk);
            prop_assert_eq!(straight.snapshots.len(), 2 * n);
            prop_assert_eq!(straight.evicted, 0);
            if lookahead.is_some() {
                // Small enough to seal on both sides of k, and every seal
                // at a breakpoint: the estimate is exact.
                prop_assert!(straight.seals >= 2, "{} seals", straight.seals);
                prop_assert_eq!(straight.forced_seals, 0);
            }
            let mut saw = [false; 2];
            for snap in &straight.snapshots {
                let prefix = |t: &Trial, seen: usize| -> Trial {
                    t.observations()[..seen].iter().map(|o| (o.id, o.t_ps)).collect()
                };
                let batch = PairAnalyzer::new(&prefix(&a, snap.seen_a), &prefix(&b, snap.seen_b))
                    .metrics();
                prop_assert_eq!(
                    snap.running.kappa.to_bits(), batch.kappa.to_bits(),
                    "running kappa at A {} / B {} (k = {}, lookahead {:?})",
                    snap.seen_a, snap.seen_b, k, lookahead
                );
                prop_assert_eq!(snap.running.o.to_bits(), batch.o.to_bits());
                saw[usize::from(batch.o > 0.0)] = true;
            }
            prop_assert!(saw[0] && saw[1], "snapshots on both sides of k");

            // Burst boundaries before and after the first swap reaches
            // either side.
            let bursts_before = 2 * (k / chunk);
            let total_bursts = 2 * n.div_ceil(chunk);
            for cut in [
                cut_before % bursts_before,
                bursts_before + 2 + cut_after % (total_bursts - bursts_before - 2),
            ] {
                let (resumed, _) = stream_pair_cut(&a, &b, cfg, chunk, cut, |ck| {
                    IncrementalComparison::resume_checked(ship_slabs(ck), 0, &cfg)
                        .expect("same engine, same config")
                });
                prop_assert_eq!(resumed.snapshots.len(), straight.snapshots.len());
                for (x, y) in resumed.snapshots.iter().zip(&straight.snapshots) {
                    prop_assert_eq!((x.seen_a, x.seen_b), (y.seen_a, y.seen_b));
                    prop_assert_eq!(x.running.kappa.to_bits(), y.running.kappa.to_bits());
                    prop_assert_eq!(
                        x.window.metrics.kappa.to_bits(),
                        y.window.metrics.kappa.to_bits()
                    );
                }
                assert_bit_identical(&resumed.comparison, &straight.comparison);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn full_lookahead_is_bit_identical_to_batch_at_any_chunking(
        a in arb_trial(40),
        b in arb_trial(40),
        chunk in 1usize..16,
        snapshot_every in 0u64..20,
    ) {
        let batch = PairAnalyzer::new(&a, &b).analyze();
        let cfg = StreamConfig {
            lookahead: None,
            snapshot_every,
            kappa: KappaConfig::paper(),
        };
        // Packet-at-a-time, whole-trial-at-once, and a random chunking
        // in between must all land on the same bits — and the snapshot
        // cadence must never perturb the final result.
        let whole = a.len().max(b.len()).max(1);
        for c in [1usize, chunk, whole] {
            let live = stream_pair(&a, &b, cfg, c);
            assert_bit_identical(&live.comparison, &batch);
            prop_assert_eq!(live.evicted, 0, "full lookahead never evicts");
        }
    }

    #[test]
    fn bounded_window_caps_residency_on_random_pairs(
        a in arb_trial(40),
        b in arb_trial(40),
        window in 1usize..48,
        chunk in 1usize..16,
    ) {
        let cfg = StreamConfig {
            lookahead: Some(window),
            snapshot_every: 0,
            kappa: KappaConfig::paper(),
        };
        let live = stream_pair(&a, &b, cfg, chunk);
        prop_assert!(
            live.peak_resident <= window,
            "peak resident {} exceeds window {}",
            live.peak_resident,
            window
        );
        let m = &live.comparison.metrics;
        for (name, v) in [("u", m.u), ("o", m.o), ("l", m.l), ("i", m.i), ("kappa", m.kappa)] {
            prop_assert!((0.0..=1.0).contains(&v), "{} = {} out of range", name, v);
        }
    }

    #[test]
    fn batch_kappa_lies_inside_the_bounded_interval_on_dropfree_pairs(
        n in 4usize..60,
        swaps in proptest::collection::vec((0usize..64, 0usize..64), 0..24),
        jitter in proptest::collection::vec(0u64..40, 0..60),
        window in 1usize..80,
        chunk in 1usize..8,
    ) {
        // Drop-free pair: B carries exactly A's packets in arbitrarily
        // permuted order with bounded timestamp jitter. At *every*
        // window size — including ones far smaller than the
        // displacement, where unmatched evictions are routine — the
        // reported interval must be well-formed, contain the batch κ,
        // and the occurrence-debt ledger must account for every missed
        // match exactly (batch matches all n packets, so common +
        // missed must equal n).
        let mut a = Trial::new();
        for i in 0..n as u64 {
            a.push_tagged(0, 0, i, i * 1_000);
        }
        let mut order: Vec<u64> = (0..n as u64).collect();
        for &(s, t) in &swaps {
            order.swap(s % n, t % n);
        }
        let mut b = Trial::new();
        for (i, &seq) in order.iter().enumerate() {
            let j = jitter.get(i).copied().unwrap_or(0);
            b.push_tagged(0, 0, seq, i as u64 * 1_000 + j);
        }
        let batch = PairAnalyzer::new(&a, &b).metrics();
        let cfg = StreamConfig {
            lookahead: Some(window),
            snapshot_every: 0,
            kappa: KappaConfig::paper(),
        };
        let live = stream_pair(&a, &b, cfg, chunk);
        prop_assert!(live.peak_resident <= window);
        prop_assert!(live.bounds.lo <= live.bounds.hi);
        prop_assert!(live.bounds.lo >= 0.0 && live.bounds.hi <= 1.0);
        prop_assert!(
            live.bounds.contains(batch.kappa),
            "interval [{}, {}] misses batch kappa {} (window {}, chunk {})",
            live.bounds.lo, live.bounds.hi, batch.kappa, window, chunk
        );
        prop_assert_eq!(
            live.comparison.common + live.missed_matches, n,
            "missed-match accounting must be exact (window {})", window
        );
    }

    #[test]
    fn bound_width_never_widens_as_the_window_doubles(
        n in 8usize..60,
        swaps in proptest::collection::vec((0usize..64, 0usize..64), 0..24),
        base in 1usize..12,
    ) {
        // The error-bound ladder: doubling the lookahead window can only
        // tighten (never widen) the reported interval, and a window
        // covering the whole feed collapses it to zero width. Lock-step
        // feeding so every window size sees the same arrival order.
        let mut a = Trial::new();
        for i in 0..n as u64 {
            a.push_tagged(0, 0, i, i * 1_000);
        }
        let mut order: Vec<u64> = (0..n as u64).collect();
        for &(s, t) in &swaps {
            order.swap(s % n, t % n);
        }
        let mut b = Trial::new();
        for (i, &seq) in order.iter().enumerate() {
            b.push_tagged(0, 0, seq, i as u64 * 1_000);
        }
        let mut widths = Vec::new();
        let mut w = base;
        loop {
            let cfg = StreamConfig {
                lookahead: Some(w),
                snapshot_every: 0,
                kappa: KappaConfig::paper(),
            };
            let live = stream_pair(&a, &b, cfg, 1);
            widths.push((w, live.bounds.width()));
            if w >= 2 * n {
                prop_assert_eq!(
                    live.bounds.width(), 0.0,
                    "a window covering the feed must collapse the interval"
                );
                break;
            }
            w *= 2;
        }
        for pair in widths.windows(2) {
            let ((w0, wid0), (w1, wid1)) = (pair[0], pair[1]);
            prop_assert!(
                wid1 <= wid0 + 1e-12,
                "width widened from {} (w {}) to {} (w {})",
                wid0, w0, wid1, w1
            );
        }
    }

    #[test]
    fn full_window_bounded_finalize_is_bit_identical_to_batch(
        a in arb_trial(40),
        b in arb_trial(40),
        chunk in 1usize..16,
    ) {
        // A bounded engine whose window covers the entire feed never
        // evicts or seals, so its finalize must delegate to the exact
        // path: every bit — metrics, percentiles, histograms — equal to
        // batch, with the interval collapsed onto the final κ.
        let batch = PairAnalyzer::new(&a, &b).analyze();
        let cfg = StreamConfig {
            lookahead: Some(a.len() + b.len() + 1),
            snapshot_every: 0,
            kappa: KappaConfig::paper(),
        };
        let live = stream_pair(&a, &b, cfg, chunk);
        prop_assert!(live.bounded);
        prop_assert_eq!(live.evicted, 0);
        prop_assert_eq!(live.missed_matches, 0);
        assert_bit_identical(&live.comparison, &batch);
        prop_assert_eq!(live.bounds.width(), 0.0);
        prop_assert_eq!(
            live.bounds.lo.to_bits(),
            live.comparison.metrics.kappa.to_bits()
        );
        prop_assert_eq!(
            live.bounds.hi.to_bits(),
            live.comparison.metrics.kappa.to_bits()
        );
    }

    #[test]
    fn checkpoint_resume_at_any_cut_is_bit_identical(
        a in arb_trial(40),
        b in arb_trial(40),
        cut_sel in 0usize..10_000,
        window in 2usize..12,
        snapshot_every in 0u64..20,
        id_hi in any::<u64>(),
    ) {
        // The recovery contract (DESIGN.md §13): feed 0..k, checkpoint
        // through the JSON wire format, resume, feed k..n — every
        // downstream bit must equal the uninterrupted run's, at every
        // cut point, in both lookahead modes. The small bounded window
        // routinely places the cut inside a resident reorder window, the
        // regime where a lossy checkpoint would show first. The daemon's
        // slab format (§16.4) is held to the same contract, with every
        // bit of the identity's high half in play.
        let widen = |t: &Trial| {
            let mut wide = Trial::new();
            for o in t.observations() {
                wide.push(PacketId(o.id.0 | (id_hi as u128) << 64), o.t_ps);
            }
            wide
        };
        let (a, b) = (widen(&a), widen(&b));
        for (lookahead, ship) in [
            (None, ship_json as fn(_) -> _),
            (Some(window), ship_json),
            (None, ship_slabs),
            (Some(window), ship_slabs),
        ] {
            let cfg = StreamConfig {
                lookahead,
                snapshot_every,
                kappa: KappaConfig::paper(),
            };
            let whole = a.len().max(b.len()).max(1);
            for chunk in [1usize, 7, whole] {
                let straight = stream_pair(&a, &b, cfg, chunk);
                let (resumed, _resident) = stream_pair_cut(&a, &b, cfg, chunk, cut_sel, |ck| {
                    IncrementalComparison::resume(ship(ck))
                });
                assert_bit_identical(&resumed.comparison, &straight.comparison);
                prop_assert_eq!(resumed.peak_resident, straight.peak_resident);
                prop_assert_eq!(resumed.evicted, straight.evicted);
                prop_assert_eq!(resumed.bounded, straight.bounded);
                // The error interval and its bookkeeping (occurrence
                // debt, seal counters) must survive a cut landing inside
                // a partially-merged window bit for bit.
                prop_assert_eq!(resumed.bounds.lo.to_bits(), straight.bounds.lo.to_bits());
                prop_assert_eq!(resumed.bounds.hi.to_bits(), straight.bounds.hi.to_bits());
                prop_assert_eq!(resumed.missed_matches, straight.missed_matches);
                prop_assert_eq!(
                    (resumed.seals, resumed.forced_seals),
                    (straight.seals, straight.forced_seals)
                );
                prop_assert_eq!(resumed.snapshots.len(), straight.snapshots.len());
                for (x, y) in resumed.snapshots.iter().zip(straight.snapshots.iter()) {
                    prop_assert_eq!(
                        (x.seen_a, x.seen_b, x.common, x.resident, x.evicted),
                        (y.seen_a, y.seen_b, y.common, y.resident, y.evicted)
                    );
                    prop_assert_eq!(x.running.kappa.to_bits(), y.running.kappa.to_bits());
                    prop_assert_eq!(x.window.metrics.kappa.to_bits(), y.window.metrics.kappa.to_bits());
                    prop_assert_eq!(
                        x.bounds.map(|v| (v.lo.to_bits(), v.hi.to_bits())),
                        y.bounds.map(|v| (v.lo.to_bits(), v.hi.to_bits()))
                    );
                }
            }
        }
    }

    #[test]
    fn salvage_reads_exactly_the_records_preceding_a_truncation(
        recs in proptest::collection::vec(
            (0u64..10_000_000_000, proptest::collection::vec(any::<u8>(), 1..120)),
            1..24,
        ),
        cut_sel in any::<usize>(),
    ) {
        // A valid nanosecond pcap cut at an arbitrary byte offset past
        // the global header: reading record at a time must deliver
        // exactly the records a batch parse of the intact capture puts
        // before the cut — no record lost, none invented, none mangled —
        // and then say where it broke.
        let bytes = ns_pcap(&recs);
        let full = parse_pcap(&bytes).expect("intact capture parses");
        prop_assert_eq!(full.len(), recs.len());
        let cut = 25 + cut_sel % (bytes.len() - 25);

        // Expected salvage: whole records lying entirely before the cut,
        // counted from the known record sizes (never from a parser).
        let mut expected = 0usize;
        let mut off_expected = 24usize;
        for (_, data) in &recs {
            if off_expected + 16 + data.len() > cut {
                break;
            }
            off_expected += 16 + data.len();
            expected += 1;
        }

        let mut salvaged = Trial::new();
        let mut src = PcapSource::new(&bytes[..cut]).expect("header intact");
        let end = drain_available(&mut src, |o| salvaged.push(o.id, o.t_ps));
        prop_assert_eq!(
            salvaged.len(), expected,
            "cut at byte {} of {}", cut, bytes.len()
        );
        prop_assert_eq!(salvaged, Trial::from_pcap_records(&full[..expected]));
        // A cut on a record boundary is a clean (shorter) capture; any
        // other cut is reported at the start of the record it fell in.
        let broke_at = format!("record {expected} (byte offset {off_expected})");
        prop_assert_eq!(
            end.as_ref().err().map(|e| e.to_string().contains(&broke_at)),
            (cut != off_expected).then_some(true),
            "{:?}", end
        );
    }
}

/// Assemble a little-endian nanosecond-resolution pcap byte stream from
/// `(ts_ns, frame bytes)` pairs — the layout `parse_pcap` and
/// `PcapSource` both consume.
fn ns_pcap(recs: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + recs.iter().map(|(_, d)| 16 + d.len()).sum::<usize>());
    let w32 = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
    let w16 = |out: &mut Vec<u8>, v: u16| out.extend_from_slice(&v.to_le_bytes());
    w32(&mut out, PCAP_NS_MAGIC);
    w16(&mut out, 2);
    w16(&mut out, 4);
    w32(&mut out, 0); // thiszone
    w32(&mut out, 0); // sigfigs
    w32(&mut out, 65_535); // snaplen
    w32(&mut out, 1); // LINKTYPE_ETHERNET
    for (ts_ns, data) in recs {
        w32(&mut out, (ts_ns / 1_000_000_000) as u32);
        w32(&mut out, (ts_ns % 1_000_000_000) as u32);
        w32(&mut out, data.len() as u32);
        w32(&mut out, data.len() as u32);
        out.extend_from_slice(data);
    }
    out
}
