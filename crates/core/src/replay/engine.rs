//! Real-time replay driver — the busy-spin loop behind the paper's
//! throughput claim ("Choir … can sustain peak speeds of 100 Gbps
//! (8.9 Mpps)", §10).
//!
//! Unlike the simulator (which *schedules* wake-ups through
//! [`ReplayScheduler::pump`]), this driver runs the paper's actual loop
//! shape on a real CPU:
//!
//! ```text
//! for each recorded burst:
//!     while tsc() < burst.tsc + delta: spin
//!     tx_burst(port, burst)
//! ```
//!
//! The loop body is [`ReplayScheduler`]'s, the one the simulated
//! middlebox pumps; this driver adds the spin and the supervision: the
//! deadline, the retry budget and its backoff, rejections, abandonment
//! and wire bytes. The loop allocates nothing: bursts are rebuilt from
//! shared mbuf handles and the spin is a bare TSC read. `choir-bench`
//! drives it over the loopback backend to measure sustained Mpps; the
//! quickstart example uses it end-to-end.

use choir_dpdk::{Dataplane, PortId};

use crate::obs;

use super::degrade::{DegradationReport, ReplayError, ReplayErrorKind};
use super::recording::Recording;
use super::scheduler::{ReplayScheduler, ReplayStats};

/// Outcome of a real-time replay run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineReport {
    /// Transmit counters.
    pub stats: ReplayStats,
    /// Graceful-degradation counters (all zero on a healthy backend).
    pub degradation: DegradationReport,
    /// Wall time the replay took, in nanoseconds.
    pub elapsed_ns: u64,
    /// Achieved packet rate over the active replay window.
    pub pps: f64,
    /// Achieved wire-equivalent bit rate (includes Ethernet overhead), in
    /// bits per second.
    pub wire_bps: f64,
}

/// Supervision limits for [`run_replay_supervised`]: how hard to push a
/// misbehaving NIC before degrading, and how long the whole replay may
/// take before aborting with a partial result.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Divides the recorded inter-burst gaps (1 = as recorded;
    /// `u64::MAX` effectively back-to-back).
    pub speedup: u64,
    /// Transmit retries allowed per burst before its remaining packets
    /// are abandoned: dropped, counted, and the replay continues.
    pub max_retries_per_burst: u32,
    /// First retry backoff, in cycles; doubled per retry.
    pub backoff_start_cycles: u64,
    /// Backoff ceiling, in cycles.
    pub backoff_max_cycles: u64,
    /// Wall-clock budget for the whole replay, in nanoseconds. `None`
    /// removes the deadline (and its per-spin check from the hot loop).
    pub deadline_ns: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            speedup: 1,
            max_retries_per_burst: 256,
            backoff_start_cycles: 64,
            backoff_max_cycles: 1 << 16,
            deadline_ns: None,
        }
    }
}

impl EngineConfig {
    /// The unsupervised configuration [`run_replay_spin`] uses: retry
    /// forever, no deadline — the paper's original loop.
    pub fn unbounded(speedup: u64) -> Self {
        EngineConfig {
            speedup,
            max_retries_per_burst: u32::MAX,
            deadline_ns: None,
            ..EngineConfig::default()
        }
    }

    /// A supervised configuration with a wall-clock budget.
    pub fn with_deadline(deadline_ns: u64) -> Self {
        EngineConfig {
            deadline_ns: Some(deadline_ns),
            ..EngineConfig::default()
        }
    }
}

/// Replay `recording` on `port`, spinning on the TSC for each burst's
/// release time. `speedup` divides the recorded inter-burst gaps (1 = as
/// recorded; `u64::MAX` effectively back-to-back), letting benches probe
/// the loop's ceiling beyond the recorded rate.
///
/// Returns once every burst is transmitted. Packets the NIC rejects are
/// retried in an unbounded spin (order preservation), so `packets_sent`
/// always equals the recording's packet count on return — a wedged NIC
/// hangs this loop forever. Use [`run_replay_supervised`] when the
/// backend is not trusted to drain.
pub fn run_replay_spin<D: Dataplane>(
    recording: &Recording,
    dp: &mut D,
    port: PortId,
    speedup: u64,
) -> EngineReport {
    run_replay_supervised(recording, dp, port, &EngineConfig::unbounded(speedup))
        .expect("unbounded replay cannot abort")
}

/// [`run_replay_spin`] with bounded patience: per-burst transmit retries
/// with exponential backoff, and an optional wall-clock deadline. When a
/// burst exhausts its retry budget it is abandoned (counted in
/// [`DegradationReport`]) and the replay continues. A deadline abort
/// returns a typed [`ReplayError`] carrying the partial [`ReplayStats`]
/// accumulated so far — a retry is counted only once it is sent — and
/// under a persistently rejecting NIC this function still terminates
/// within the deadline (plus one backoff).
pub fn run_replay_supervised<D: Dataplane>(
    recording: &Recording,
    dp: &mut D,
    port: PortId,
    cfg: &EngineConfig,
) -> Result<EngineReport, Box<ReplayError>> {
    assert!(cfg.speedup >= 1, "speedup must be >= 1");
    // The span reads the host monotonic clock only — it cannot perturb
    // `dp`'s TSC/wall time (simulated or real) or any RNG draw.
    let _span = obs::span("replay.supervised");
    let mut degradation = DegradationReport::default();
    if recording.is_empty() {
        return Ok(EngineReport {
            stats: ReplayStats::default(),
            degradation,
            elapsed_ns: 0,
            pps: 0.0,
            wire_bps: 0.0,
        });
    }

    let start_tsc = dp.tsc();
    let start_wall = dp.wall_ns();
    let deadline_wall = cfg.deadline_ns.map(|d| start_wall.saturating_add(d));
    let mut sch = ReplayScheduler::paced(recording, port, start_tsc, cfg.speedup);
    let mut wire_bytes: u64 = 0;

    let abort = |sch: &ReplayScheduler, degradation: DegradationReport, dp: &D| {
        Err(Box::new(ReplayError {
            kind: ReplayErrorKind::DeadlineExceeded {
                deadline_ns: cfg.deadline_ns.unwrap_or(0),
            },
            stats: sch.stats(),
            degradation,
            elapsed_ns: dp.wall_ns().saturating_sub(start_wall),
            aborted_at_burst: sch.position(),
        }))
    };

    while let Some(release) = sch.next_release(recording) {
        let bi = sch.position();
        if !spin_until(dp, release, deadline_wall) {
            return abort(&sch, degradation, dp);
        }
        let sent_before = sch.stats().packets_sent;
        let mut accepted = sch.release(recording, dp, release);
        let mut retries = 0u32;
        let mut backoff = cfg.backoff_start_cycles.max(1);
        while sch.in_flight() > 0 {
            if accepted == 0 {
                degradation.tx_rejections += 1;
            }
            if retries >= cfg.max_retries_per_burst {
                let left = sch.abandon() as u64;
                degradation.bursts_abandoned += 1;
                degradation.packets_abandoned += left;
                obs::event("replay.burst_abandoned", bi as u64, left);
                break;
            }
            // Exponential backoff: give a backed-up ring time to drain
            // instead of hammering the doorbell.
            let resume = dp.tsc().saturating_add(backoff);
            spin_until(dp, resume, None);
            if deadline_wall.is_some_and(|dl| dp.wall_ns() >= dl) {
                return abort(&sch, degradation, dp);
            }
            retries += 1;
            degradation.tx_retries += 1;
            degradation.backoffs += 1;
            degradation.backoff_cycles += backoff;
            obs::event("replay.retry", bi as u64, retries as u64);
            backoff = backoff.saturating_mul(2).min(cfg.backoff_max_cycles.max(1));
            accepted = sch.retry(dp);
        }
        // Bursts drain from the front, so the first `sent` packets are
        // the transmitted ones.
        let sent = (sch.stats().packets_sent - sent_before) as usize;
        for m in &recording.burst(bi).pkts[..sent] {
            wire_bytes += m.frame.wire_len() as u64;
        }
    }

    let stats = sch.stats();
    let elapsed_cycles = dp.tsc() - start_tsc;
    let elapsed_ns = dp.cycles_to_ns(elapsed_cycles).max(1);
    let secs = elapsed_ns as f64 / 1e9;
    if obs::is_enabled() {
        obs::counter_add("replay.packets_sent", stats.packets_sent);
        obs::counter_add("replay.bursts_sent", stats.bursts_sent);
        obs::counter_add("replay.late_bursts", stats.late_bursts);
        obs::counter_add("replay.tx_retries", degradation.tx_retries);
        obs::counter_add("replay.tx_rejections", degradation.tx_rejections);
        obs::counter_add("replay.backoff_cycles", degradation.backoff_cycles);
        obs::counter_add("replay.bursts_abandoned", degradation.bursts_abandoned);
        obs::counter_add("replay.packets_abandoned", degradation.packets_abandoned);
    }
    Ok(EngineReport {
        stats,
        degradation,
        elapsed_ns,
        pps: stats.packets_sent as f64 / secs,
        wire_bps: wire_bytes as f64 * 8.0 / secs,
    })
}

/// The paper's spin: loop over a TSC read until it reaches `until`.
/// Without a deadline each pass is a bare TSC read (the hot path the
/// throughput claim measures); with one, each pass also reads the wall
/// clock, and the spin gives up — `false` — once it reaches
/// `deadline_wall`.
#[inline]
fn spin_until<D: Dataplane>(dp: &D, until: u64, deadline_wall: Option<u64>) -> bool {
    while dp.tsc() < until {
        if deadline_wall.is_some_and(|dl| dp.wall_ns() >= dl) {
            return false;
        }
        std::hint::spin_loop();
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use choir_dpdk::loopback::{LoopbackPort, RealClock, RealtimePlane};
    use choir_dpdk::{Mempool, ScriptPlane};
    use choir_packet::Frame;
    use std::thread;

    fn recording_of(pool: &Mempool, bursts: usize, per_burst: usize, gap_cycles: u64) -> Recording {
        let mut rec = Recording::new();
        for b in 0..bursts {
            let pkts: Vec<_> = (0..per_burst)
                .map(|i| {
                    pool.alloc(Frame::truncated(
                        Bytes::from(vec![(b * per_burst + i) as u8; 60]),
                        1400,
                    ))
                    .unwrap()
                })
                .collect();
            rec.push_burst(1_000 + b as u64 * gap_cycles, pkts.iter());
        }
        rec
    }

    #[test]
    fn replays_everything_through_a_drained_sink() {
        let pool = Mempool::new("e", 1 << 14);
        let (port, mut drain) = LoopbackPort::sink(1 << 12);
        let mut plane = RealtimePlane::new(pool.clone(), RealClock::new());
        let pid = plane.add_port(port);
        let rec = recording_of(&pool, 50, 8, 10_000); // 10 us apart

        let consumer = thread::spawn(move || {
            let mut got = 0usize;
            while got < 400 {
                if drain.pop().is_some() {
                    got += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
            got
        });

        let report = run_replay_spin(&rec, &mut plane, pid, 1);
        assert_eq!(report.stats.packets_sent, 400);
        assert_eq!(report.stats.bursts_sent, 50);
        assert_eq!(consumer.join().unwrap(), 400);
        assert!(report.pps > 0.0);
        assert!(report.wire_bps > 0.0);
    }

    #[test]
    fn speedup_compresses_duration() {
        let pool = Mempool::new("e", 1 << 12);
        // Two runs of the same recording; the sped-up one must be faster.
        let rec = recording_of(&pool, 40, 4, 100_000); // 100 us gaps

        let run = |speedup: u64| {
            // Ring is larger than the whole recording: no consumer needed.
            let (port, _drain) = LoopbackPort::sink(1 << 12);
            let mut plane = RealtimePlane::new(pool.clone(), RealClock::new());
            let pid = plane.add_port(port);
            run_replay_spin(&rec, &mut plane, pid, speedup)
        };
        let slow = run(1);
        let fast = run(100);
        assert!(
            fast.elapsed_ns < slow.elapsed_ns / 2,
            "fast {} vs slow {}",
            fast.elapsed_ns,
            slow.elapsed_ns
        );
    }

    #[test]
    fn empty_recording_returns_zero_report() {
        let pool = Mempool::new("e", 16);
        let (port, _drain) = LoopbackPort::sink(16);
        let mut plane = RealtimePlane::new(pool, RealClock::new());
        let pid = plane.add_port(port);
        let r = run_replay_spin(&Recording::new(), &mut plane, pid, 1);
        assert_eq!(r.stats.packets_sent, 0);
        assert_eq!(r.pps, 0.0);
    }

    #[test]
    #[should_panic(expected = "speedup")]
    fn zero_speedup_panics() {
        let pool = Mempool::new("e", 16);
        let (port, _drain) = LoopbackPort::sink(16);
        let mut plane = RealtimePlane::new(pool, RealClock::new());
        let pid = plane.add_port(port);
        run_replay_spin(&Recording::new(), &mut plane, pid, 0);
    }

    /// A wedged NIC: every transmit is rejected, forever, under a virtual
    /// clock that advances 25 ns per TSC read.
    fn rejecting_plane(pool: Mempool) -> ScriptPlane {
        let mut dp = ScriptPlane::new(1, pool);
        dp.accept = vec![0];
        dp.tsc_step = 25;
        dp
    }

    #[test]
    fn persistent_rejection_aborts_at_deadline_with_partial_stats() {
        let pool = Mempool::new("e", 1 << 10);
        let rec = recording_of(&pool, 4, 8, 1_000);
        let mut dp = rejecting_plane(pool.clone());
        let deadline_ns = 20_000_000; // 20 virtual ms
        let cfg = EngineConfig {
            max_retries_per_burst: u32::MAX, // only the deadline can stop it
            ..EngineConfig::with_deadline(deadline_ns)
        };
        let err = run_replay_supervised(&rec, &mut dp, 0, &cfg).unwrap_err();
        assert_eq!(
            err.kind,
            ReplayErrorKind::DeadlineExceeded { deadline_ns },
            "{err}"
        );
        // Stops at the first deadline check past the budget: within one
        // backoff of it, nowhere near a hang.
        assert!(err.elapsed_ns >= deadline_ns);
        assert!(
            err.elapsed_ns < deadline_ns + cfg.backoff_max_cycles,
            "{}",
            err.elapsed_ns
        );
        assert_eq!(err.aborted_at_burst, 0, "first burst never went out");
        // Partial stats are consistent: nothing was ever accepted, every
        // tx call was a rejection, and each retry took one backoff.
        assert_eq!(err.stats.packets_sent, 0);
        assert_eq!(err.stats.bursts_sent, 0);
        assert!(err.degradation.tx_rejections > 0);
        assert_eq!(err.degradation.tx_rejections, dp.calls.len() as u64);
        // Every counted retry was sent: the first call plus one per retry.
        assert_eq!(dp.calls.len() as u64, err.degradation.tx_retries + 1);
        assert_eq!(err.degradation.tx_retries, err.degradation.backoffs);
        assert_eq!(err.stats.tx_retries, err.degradation.tx_retries);
        assert!(err.degradation.backoff_cycles > 0);
    }

    #[test]
    fn retry_budget_abandons_bursts_and_finishes() {
        let pool = Mempool::new("e", 1 << 10);
        let rec = recording_of(&pool, 4, 8, 1_000);
        let mut dp = rejecting_plane(pool.clone());
        let cfg = EngineConfig {
            max_retries_per_burst: 3,
            backoff_start_cycles: 16,
            ..EngineConfig::default()
        };
        let report = run_replay_supervised(&rec, &mut dp, 0, &cfg).unwrap();
        assert_eq!(report.stats.packets_sent, 0);
        assert_eq!(report.degradation.bursts_abandoned, 4);
        assert_eq!(report.degradation.packets_abandoned, 32);
        assert_eq!(report.degradation.tx_retries, 4 * 3);
        assert_eq!(report.wire_bps, 0.0, "no wire bytes for unsent packets");
    }

    #[test]
    fn supervised_clean_run_reports_no_degradation() {
        let pool = Mempool::new("e", 1 << 12);
        let (port, _drain) = LoopbackPort::sink(1 << 12);
        let mut plane = RealtimePlane::new(pool.clone(), RealClock::new());
        let pid = plane.add_port(port);
        let rec = recording_of(&pool, 10, 4, 1_000);
        let report = run_replay_supervised(
            &rec,
            &mut plane,
            pid,
            &EngineConfig::with_deadline(5_000_000_000),
        )
        .unwrap();
        assert_eq!(report.stats.packets_sent, 40);
        assert!(report.degradation.is_clean(), "{:?}", report.degradation);
    }
}
