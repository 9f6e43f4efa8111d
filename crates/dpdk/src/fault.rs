//! Deterministic fault injection for any [`Dataplane`].
//!
//! [`FaultyDataplane`] wraps a backend and perturbs its observable
//! behaviour the way real testbeds do when they misbehave: NIC descriptor
//! rings refusing bursts, transient transmit stalls, receive-side drops
//! and duplicates, lost or corrupted in-band control frames, forward TSC
//! steps (a VM migration or SMI), and mempool exhaustion. Every decision
//! is drawn from a seeded [`StdRng`], so a fault scenario is a pure
//! function of `(seed, call sequence)` — replaying the same workload with
//! the same seed reproduces the same faults bit-for-bit, which is what
//! lets `repro chaos` publish reproducible degradation sweeps.
//!
//! Two invariants the wrapper maintains:
//!
//! - **All-zero rates are transparent.** With every rate at `0.0` the
//!   wrapper never consults the RNG and forwards every call unchanged, so
//!   it is observation-identical to the bare backend (property-tested in
//!   `tests/fault_properties.rs`).
//! - **No conjured packets.** Injected faults only reorder, duplicate
//!   (by refcount clone), drop, or reject packets the backend produced;
//!   pool accounting stays exact because ballast mbufs are allocated from
//!   the real pool and released on schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bytes::Bytes;
use choir_obs as obs;
use choir_packet::{EtherType, EthernetHeader, Frame};

use crate::burst::Burst;
use crate::mbuf::{Mbuf, Mempool};
use crate::plane::{Dataplane, PortId};
use crate::stats::PortStats;

/// Ballast allocation is skipped for pools larger than this — exhausting
/// an effectively unbounded pool (e.g. [`Mbuf::unpooled`]'s shared pool)
/// would allocate forever.
const MAX_BALLAST: usize = 1 << 20;

/// Rates and schedules for each fault class. All rates are probabilities
/// in `[0, 1]` evaluated per opportunity (per call or per packet).
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the fault RNG; the whole scenario is deterministic in it.
    pub seed: u64,
    /// Probability per `tx_burst` call that the NIC rejects the entire
    /// burst (accepts zero packets). The caller sees the same thing a full
    /// descriptor ring produces.
    pub tx_reject_rate: f64,
    /// Probability per `tx_burst` call of entering a stall: this call and
    /// the next [`FaultConfig::tx_stall_calls`] calls accept nothing.
    pub tx_stall_rate: f64,
    /// Length of an injected stall, in subsequent `tx_burst` calls. The
    /// stall is bounded by construction — it always ends.
    pub tx_stall_calls: u32,
    /// Probability per received data packet of being dropped before the
    /// app sees it.
    pub rx_drop_rate: f64,
    /// Probability per received data packet of being duplicated (the copy
    /// is a refcount clone delivered immediately after the original).
    pub rx_dup_rate: f64,
    /// Probability per received *control* frame of being dropped.
    pub control_drop_rate: f64,
    /// Probability per received *control* frame of having one payload
    /// byte flipped (the frame still carries the control EtherType).
    pub control_corrupt_rate: f64,
    /// Probability per dataplane call of the TSC stepping forward by
    /// [`FaultConfig::tsc_jump_cycles`]. Jumps are forward-only; the TSC
    /// stays monotonic.
    pub tsc_jump_rate: f64,
    /// Size of an injected TSC step, in cycles.
    pub tsc_jump_cycles: u64,
    /// Probability per dataplane call of forcing the mempool to
    /// exhaustion by allocating ballast mbufs.
    pub pool_exhaust_rate: f64,
    /// How many dataplane calls the ballast is held before release.
    pub pool_exhaust_calls: u32,
    /// Restrict injection to a half-open window `[start, end)` of
    /// dataplane calls (rx + tx). `None` means always active. This is the
    /// scheduling hook: e.g. `(1000, 2000)` injects a mid-run incident.
    pub window: Option<(u64, u64)>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            tx_reject_rate: 0.0,
            tx_stall_rate: 0.0,
            tx_stall_calls: 16,
            rx_drop_rate: 0.0,
            rx_dup_rate: 0.0,
            control_drop_rate: 0.0,
            control_corrupt_rate: 0.0,
            tsc_jump_rate: 0.0,
            tsc_jump_cycles: 0,
            pool_exhaust_rate: 0.0,
            pool_exhaust_calls: 32,
            window: None,
        }
    }
}

impl FaultConfig {
    /// A configuration injecting nothing (all rates zero).
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            ..FaultConfig::default()
        }
    }

    /// True when every fault rate is zero — the wrapper is a passthrough.
    pub fn is_quiet(&self) -> bool {
        self.tx_reject_rate == 0.0
            && self.tx_stall_rate == 0.0
            && self.rx_drop_rate == 0.0
            && self.rx_dup_rate == 0.0
            && self.control_drop_rate == 0.0
            && self.control_corrupt_rate == 0.0
            && self.tsc_jump_rate == 0.0
            && self.pool_exhaust_rate == 0.0
    }
}

/// Counters of every fault actually injected. The supervision layer
/// reconciles these against the replay engine's degradation report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// `tx_burst` calls where the whole burst was rejected.
    pub tx_bursts_rejected: u64,
    /// Packets present in rejected bursts (they stay with the caller).
    pub tx_packets_rejected: u64,
    /// Stalls entered.
    pub tx_stalls_triggered: u64,
    /// Individual `tx_burst` calls swallowed by a stall.
    pub tx_calls_stalled: u64,
    /// Data packets dropped on receive.
    pub rx_packets_dropped: u64,
    /// Data packets duplicated on receive.
    pub rx_packets_duplicated: u64,
    /// Control frames dropped on receive.
    pub control_frames_dropped: u64,
    /// Control frames with a flipped payload byte.
    pub control_frames_corrupted: u64,
    /// Forward TSC steps injected.
    pub tsc_jumps: u64,
    /// Total cycles of injected TSC steps.
    pub tsc_cycles_jumped: u64,
    /// Times the pool was forced to exhaustion.
    pub pool_exhaustions: u64,
}

impl FaultStats {
    /// Total injected fault events, for quick "did anything fire" checks.
    pub fn total_events(&self) -> u64 {
        self.tx_bursts_rejected
            + self.tx_stalls_triggered
            + self.rx_packets_dropped
            + self.rx_packets_duplicated
            + self.control_frames_dropped
            + self.control_frames_corrupted
            + self.tsc_jumps
            + self.pool_exhaustions
    }
}

/// A [`Dataplane`] decorator injecting seeded, reproducible faults.
///
/// ```
/// use choir_dpdk::fault::{FaultConfig, FaultyDataplane};
/// use choir_dpdk::loopback::RealtimePlane;
///
/// let plane = RealtimePlane::self_loop(64);
/// let cfg = FaultConfig { seed: 7, tx_reject_rate: 0.5, ..FaultConfig::default() };
/// let mut faulty = FaultyDataplane::new(plane, cfg);
/// // `faulty` implements Dataplane; apps run on it unmodified.
/// # use choir_dpdk::Dataplane;
/// # let _ = faulty.tsc();
/// ```
pub struct FaultyDataplane<D: Dataplane> {
    inner: D,
    cfg: FaultConfig,
    rng: StdRng,
    stats: FaultStats,
    /// Forward-only TSC displacement accumulated from injected jumps.
    tsc_offset: u64,
    /// Remaining `tx_burst` calls swallowed by the active stall.
    stall_remaining: u32,
    /// Mbufs held to keep the pool exhausted.
    ballast: Vec<Mbuf>,
    /// Dataplane calls until the ballast is released.
    ballast_remaining: u32,
    /// Total rx+tx calls seen, for window scheduling.
    calls: u64,
}

impl<D: Dataplane> FaultyDataplane<D> {
    /// Wrap `inner`, injecting faults per `cfg`.
    pub fn new(inner: D, cfg: FaultConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        FaultyDataplane {
            inner,
            cfg,
            rng,
            stats: FaultStats::default(),
            tsc_offset: 0,
            stall_remaining: 0,
            ballast: Vec::new(),
            ballast_remaining: 0,
            calls: 0,
        }
    }

    /// Counters of faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.stats.clone()
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Mutable access to the wrapped backend.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Unwrap, releasing any held ballast.
    pub fn into_inner(mut self) -> D {
        self.ballast.clear();
        self.inner
    }

    /// Force the pool to exhaustion now, regardless of rates. Ballast is
    /// held until [`FaultyDataplane::release_pool`] or the configured
    /// call count elapses.
    pub fn force_pool_exhaustion(&mut self) {
        self.exhaust_pool();
        self.ballast_remaining = self.cfg.pool_exhaust_calls.max(1);
    }

    /// Release all ballast mbufs back to the pool immediately.
    pub fn release_pool(&mut self) {
        self.ballast.clear();
        self.ballast_remaining = 0;
    }

    /// Bernoulli trial that never touches the RNG for rate 0 (transparency)
    /// or rate ≥ 1 (so "always" faults don't depend on draw order).
    fn roll(&mut self, rate: f64) -> bool {
        if rate <= 0.0 {
            false
        } else if rate >= 1.0 {
            true
        } else {
            self.rng.gen_bool(rate)
        }
    }

    /// Per-call faults shared by rx and tx paths: window accounting,
    /// ballast expiry, TSC jumps, pool exhaustion. Returns whether the
    /// injection window covers this call (indices are zero-based, so the
    /// very first dataplane call is call 0).
    fn on_call(&mut self) -> bool {
        let idx = self.calls;
        self.calls += 1;
        if self.ballast_remaining > 0 {
            self.ballast_remaining -= 1;
            if self.ballast_remaining == 0 {
                self.ballast.clear();
            }
        }
        let active = match self.cfg.window {
            Some((start, end)) => idx >= start && idx < end,
            None => true,
        };
        if !active {
            return false;
        }
        if self.cfg.tsc_jump_cycles > 0 && self.roll(self.cfg.tsc_jump_rate) {
            self.tsc_offset += self.cfg.tsc_jump_cycles;
            self.stats.tsc_jumps += 1;
            self.stats.tsc_cycles_jumped += self.cfg.tsc_jump_cycles;
            obs::event("fault.tsc_jump", idx, self.cfg.tsc_jump_cycles);
            obs::counter_inc("fault.tsc_jumps");
        }
        if self.ballast.is_empty() && self.roll(self.cfg.pool_exhaust_rate) {
            self.exhaust_pool();
            self.ballast_remaining = self.cfg.pool_exhaust_calls.max(1);
            obs::event("fault.pool_exhaustion", idx, self.ballast_remaining as u64);
            obs::counter_inc("fault.pool_exhaustions");
        }
        true
    }

    fn exhaust_pool(&mut self) {
        let pool = self.inner.mempool().clone();
        if pool.available() > MAX_BALLAST {
            return;
        }
        while let Ok(m) = pool.alloc(Frame::new(Bytes::new())) {
            self.ballast.push(m);
            if self.ballast.len() > MAX_BALLAST {
                break;
            }
        }
        self.stats.pool_exhaustions += 1;
    }

    fn is_control(m: &Mbuf) -> bool {
        EthernetHeader::parse(&m.frame.data)
            .map(|h| h.ethertype == EtherType::ChoirControl as u16)
            .unwrap_or(false)
    }

    /// Flip one random payload byte (past the Ethernet header) in place.
    fn corrupt(&mut self, m: &mut Mbuf) {
        let mut bytes = m.frame.data.to_vec();
        if bytes.len() <= EthernetHeader::LEN {
            return;
        }
        let span = (bytes.len() - EthernetHeader::LEN) as u64;
        let idx = EthernetHeader::LEN + self.rng.gen_range(0..span) as usize;
        let mask = self.rng.gen_range(1..=255u64) as u8;
        bytes[idx] ^= mask;
        m.frame = Frame::new(Bytes::from(bytes));
        self.stats.control_frames_corrupted += 1;
    }
}

impl<D: Dataplane> Dataplane for FaultyDataplane<D> {
    fn num_ports(&self) -> usize {
        self.inner.num_ports()
    }

    fn mempool(&self) -> &Mempool {
        self.inner.mempool()
    }

    fn rx_burst(&mut self, port: PortId, out: &mut Burst) -> usize {
        let active = self.on_call();
        let n = self.inner.rx_burst(port, out);
        if n == 0 || !active {
            return out.len();
        }
        let no_rx_faults = self.cfg.rx_drop_rate == 0.0
            && self.cfg.rx_dup_rate == 0.0
            && self.cfg.control_drop_rate == 0.0
            && self.cfg.control_corrupt_rate == 0.0;
        if no_rx_faults {
            return out.len();
        }
        let mut kept = Burst::new();
        while let Some(mut m) = out.pop_front() {
            if Self::is_control(&m) {
                if self.roll(self.cfg.control_drop_rate) {
                    self.stats.control_frames_dropped += 1;
                    obs::event("fault.control_dropped", port as u64, 1);
                    obs::counter_inc("fault.control_frames_dropped");
                    continue;
                }
                if self.roll(self.cfg.control_corrupt_rate) {
                    self.corrupt(&mut m);
                }
                if kept.push(m).is_err() {
                    self.stats.rx_packets_dropped += 1;
                }
            } else {
                if self.roll(self.cfg.rx_drop_rate) {
                    self.stats.rx_packets_dropped += 1;
                    obs::counter_inc("fault.rx_packets_dropped");
                    continue;
                }
                let duplicate = if self.roll(self.cfg.rx_dup_rate) {
                    Some(m.clone())
                } else {
                    None
                };
                if kept.push(m).is_err() {
                    self.stats.rx_packets_dropped += 1;
                }
                if let Some(d) = duplicate {
                    if kept.push(d).is_ok() {
                        self.stats.rx_packets_duplicated += 1;
                        obs::counter_inc("fault.rx_packets_duplicated");
                    }
                }
            }
        }
        *out = kept;
        out.len()
    }

    fn tx_burst(&mut self, port: PortId, burst: &mut Burst) -> usize {
        let active = self.on_call();
        if !active || burst.is_empty() {
            return self.inner.tx_burst(port, burst);
        }
        if self.stall_remaining > 0 {
            self.stall_remaining -= 1;
            self.stats.tx_calls_stalled += 1;
            return 0;
        }
        if self.roll(self.cfg.tx_stall_rate) {
            self.stats.tx_stalls_triggered += 1;
            self.stats.tx_calls_stalled += 1;
            self.stall_remaining = self.cfg.tx_stall_calls;
            obs::event("fault.tx_stall", port as u64, self.cfg.tx_stall_calls as u64);
            obs::counter_inc("fault.tx_stalls_triggered");
            return 0;
        }
        if self.roll(self.cfg.tx_reject_rate) {
            self.stats.tx_bursts_rejected += 1;
            self.stats.tx_packets_rejected += burst.len() as u64;
            obs::event("fault.tx_reject", port as u64, burst.len() as u64);
            obs::counter_inc("fault.tx_bursts_rejected");
            obs::counter_add("fault.tx_packets_rejected", burst.len() as u64);
            return 0;
        }
        self.inner.tx_burst(port, burst)
    }

    fn tsc(&self) -> u64 {
        self.inner.tsc() + self.tsc_offset
    }

    fn tsc_hz(&self) -> u64 {
        self.inner.tsc_hz()
    }

    fn wall_ns(&self) -> u64 {
        self.inner.wall_ns()
    }

    fn request_wake_at_tsc(&mut self, tsc: u64) {
        // The app computed the target from the displaced TSC; translate
        // back so the backend wakes at the equivalent real instant.
        self.inner
            .request_wake_at_tsc(tsc.saturating_sub(self.tsc_offset));
    }

    fn stats(&self, port: PortId) -> PortStats {
        self.inner.stats(port)
    }

    fn adjust_wall_clock(&mut self, delta_ns: i64) {
        self.inner.adjust_wall_clock(delta_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::RealtimePlane;

    fn data_burst(pool: &Mempool, n: usize) -> Burst {
        let b = choir_packet::FrameBuilder::new(128, 1, 2);
        Burst::from_iter_checked((0..n).map(|_| pool.alloc(b.build_plain()).unwrap()))
    }

    #[test]
    fn quiet_config_is_passthrough() {
        let plane = RealtimePlane::self_loop(256);
        let mut faulty = FaultyDataplane::new(plane, FaultConfig::quiet(9));
        let pool = faulty.mempool().clone();
        let mut b = data_burst(&pool, 8);
        assert_eq!(faulty.tx_burst(0, &mut b), 8);
        let mut out = Burst::new();
        assert_eq!(faulty.rx_burst(0, &mut out), 8);
        assert_eq!(faulty.fault_stats(), FaultStats::default());
        assert_eq!(faulty.fault_stats().total_events(), 0);
    }

    #[test]
    fn certain_tx_rejection_rejects_everything() {
        let plane = RealtimePlane::self_loop(256);
        let cfg = FaultConfig {
            tx_reject_rate: 1.0,
            ..FaultConfig::quiet(1)
        };
        let mut faulty = FaultyDataplane::new(plane, cfg);
        let pool = faulty.mempool().clone();
        let mut b = data_burst(&pool, 4);
        for _ in 0..5 {
            assert_eq!(faulty.tx_burst(0, &mut b), 0);
            assert_eq!(b.len(), 4, "rejected packets stay with the caller");
        }
        let s = faulty.fault_stats();
        assert_eq!(s.tx_bursts_rejected, 5);
        assert_eq!(s.tx_packets_rejected, 20);
    }

    #[test]
    fn stalls_are_bounded() {
        let plane = RealtimePlane::self_loop(256);
        let cfg = FaultConfig {
            tx_stall_rate: 1.0,
            tx_stall_calls: 3,
            ..FaultConfig::quiet(2)
        };
        let mut faulty = FaultyDataplane::new(plane, cfg);
        let pool = faulty.mempool().clone();
        let mut b = data_burst(&pool, 2);
        // Trigger, then 3 stalled calls, then the next trigger, forever —
        // but each stall individually ends.
        assert_eq!(faulty.tx_burst(0, &mut b), 0); // trigger
        for _ in 0..3 {
            assert_eq!(faulty.tx_burst(0, &mut b), 0); // stalled
        }
        let s = faulty.fault_stats();
        assert_eq!(s.tx_stalls_triggered, 1);
        assert_eq!(s.tx_calls_stalled, 4);
    }

    #[test]
    fn rx_drop_and_duplicate_account_exactly() {
        let plane = RealtimePlane::self_loop(4096);
        let cfg = FaultConfig {
            rx_drop_rate: 0.3,
            rx_dup_rate: 0.3,
            ..FaultConfig::quiet(3)
        };
        let mut faulty = FaultyDataplane::new(plane, cfg);
        let pool = faulty.mempool().clone();
        let mut delivered = 0usize;
        let mut sent = 0usize;
        for _ in 0..40 {
            let mut b = data_burst(&pool, 16);
            sent += 16;
            faulty.tx_burst(0, &mut b);
            let mut out = Burst::new();
            delivered += faulty.rx_burst(0, &mut out);
        }
        let s = faulty.fault_stats();
        assert!(s.rx_packets_dropped > 0, "{s:?}");
        assert!(s.rx_packets_duplicated > 0, "{s:?}");
        assert_eq!(
            delivered as u64,
            sent as u64 - s.rx_packets_dropped + s.rx_packets_duplicated
        );
    }

    #[test]
    fn tsc_jumps_are_forward_only_and_wake_compensated() {
        let plane = RealtimePlane::self_loop(64);
        let cfg = FaultConfig {
            tsc_jump_rate: 1.0,
            tsc_jump_cycles: 1_000_000,
            ..FaultConfig::quiet(4)
        };
        let mut faulty = FaultyDataplane::new(plane, cfg);
        let pool = faulty.mempool().clone();
        let before = faulty.tsc();
        let mut b = data_burst(&pool, 1);
        faulty.tx_burst(0, &mut b);
        let after = faulty.tsc();
        assert!(after >= before + 1_000_000, "{before} -> {after}");
        assert_eq!(faulty.fault_stats().tsc_jumps, 1);
        // Wake requests remain meaningful (no panic, no u64 underflow).
        faulty.request_wake_at_tsc(after + 10);
        faulty.request_wake_at_tsc(0);
    }

    #[test]
    fn pool_exhaustion_is_forced_and_released() {
        let plane = RealtimePlane::self_loop(64);
        let mut faulty = FaultyDataplane::new(plane, FaultConfig::quiet(5));
        let pool = faulty.mempool().clone();
        assert!(pool.available() > 0);
        faulty.force_pool_exhaustion();
        assert_eq!(pool.available(), 0, "ballast filled the pool");
        assert!(pool
            .alloc(Frame::new(Bytes::from_static(b"x")))
            .is_err());
        faulty.release_pool();
        assert_eq!(pool.in_use(), 0);
        assert_eq!(faulty.fault_stats().pool_exhaustions, 1);
    }

    #[test]
    fn scheduled_exhaustion_expires_by_call_count() {
        let plane = RealtimePlane::self_loop(64);
        let cfg = FaultConfig {
            pool_exhaust_rate: 1.0,
            pool_exhaust_calls: 2,
            window: Some((0, 1)), // only the first call may trigger
            ..FaultConfig::quiet(6)
        };
        let mut faulty = FaultyDataplane::new(plane, cfg);
        let pool = faulty.mempool().clone();
        let mut out = Burst::new();
        faulty.rx_burst(0, &mut out); // call 0: exhausts
        assert_eq!(pool.available(), 0);
        faulty.rx_burst(0, &mut out); // call 1: hold expires after this
        faulty.rx_burst(0, &mut out); // call 2: released
        assert_eq!(pool.in_use(), 0, "ballast released on schedule");
    }

    #[test]
    fn window_gates_injection() {
        let plane = RealtimePlane::self_loop(256);
        let cfg = FaultConfig {
            tx_reject_rate: 1.0,
            window: Some((2, 4)),
            ..FaultConfig::quiet(7)
        };
        let mut faulty = FaultyDataplane::new(plane, cfg);
        let pool = faulty.mempool().clone();
        let mut b = data_burst(&pool, 1);
        assert_eq!(faulty.tx_burst(0, &mut b), 1); // call 0: before window
        let mut b = data_burst(&pool, 1);
        assert_eq!(faulty.tx_burst(0, &mut b), 1); // call 1
        let mut b = data_burst(&pool, 1);
        assert_eq!(faulty.tx_burst(0, &mut b), 0); // call 2: inside
        assert_eq!(faulty.tx_burst(0, &mut b), 0); // call 3: inside
        assert_eq!(faulty.tx_burst(0, &mut b), 1); // call 4: after window
    }

    #[test]
    fn same_seed_same_faults() {
        let run = |seed: u64| -> (FaultStats, Vec<usize>) {
            let plane = RealtimePlane::self_loop(4096);
            let cfg = FaultConfig {
                tx_reject_rate: 0.25,
                rx_drop_rate: 0.2,
                rx_dup_rate: 0.1,
                ..FaultConfig::quiet(seed)
            };
            let mut faulty = FaultyDataplane::new(plane, cfg);
            let pool = faulty.mempool().clone();
            let mut accepted = Vec::new();
            for _ in 0..30 {
                let mut b = data_burst(&pool, 8);
                accepted.push(faulty.tx_burst(0, &mut b));
                let mut out = Burst::new();
                accepted.push(faulty.rx_burst(0, &mut out));
            }
            (faulty.fault_stats(), accepted)
        };
        let (s1, a1) = run(42);
        let (s2, a2) = run(42);
        let (s3, a3) = run(43);
        assert_eq!(s1, s2);
        assert_eq!(a1, a2);
        assert!(s1 != s3 || a1 != a3, "different seeds should diverge");
    }
}
