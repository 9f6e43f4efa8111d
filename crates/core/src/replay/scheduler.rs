//! TSC-delta replay scheduling (paper §4).
//!
//! "The user command to run a replay specifies a future time to start the
//! replay. With this future time and the start time of the replay, a TSC
//! delta can be calculated using the CPU frequency. The replay is then run
//! by looping over a TSC read, transmitting each packet burst in the
//! replay when the TSC read is greater than or equal to the burst's stored
//! TSC time plus the delta."
//!
//! [`ReplayScheduler`] is the one body of that loop: the release TSC
//! `start + (recorded − first) / speedup`, the lateness read at release,
//! the refill and `tx_burst` of the burst in flight, the per-burst counts
//! and abandoning a burst. Its two drivers only wait between those steps:
//! [`ReplayScheduler::pump`] asks a backend that wakes apps at a TSC (the
//! simulator) to come back when the next burst is due, and
//! [`run_replay_supervised`](super::engine::run_replay_supervised)
//! busy-spins on a real CPU's TSC under a deadline and a retry budget.

use choir_dpdk::{Burst, Dataplane, PortId};

use super::recording::Recording;

/// Counters describing a replay's execution quality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Bursts fully transmitted.
    pub bursts_sent: u64,
    /// Packets transmitted.
    pub packets_sent: u64,
    /// Bursts whose release TSC read came later than their target TSC (by
    /// any amount): the loop arrived late.
    pub late_bursts: u64,
    /// Worst observed lateness, in cycles.
    pub max_lateness_cycles: u64,
    /// Transmits of the rest of a burst the NIC took only part of.
    pub tx_retries: u64,
}

/// Scheduler lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerState {
    /// Waiting for the start time or for more due bursts.
    InProgress,
    /// Every burst has been transmitted.
    Done,
}

/// Drives one replay of a [`Recording`].
#[derive(Debug)]
pub struct ReplayScheduler {
    /// Release TSC of the recording's first burst.
    start: u64,
    /// The recording's first TSC: burst offsets are taken from it.
    first: u64,
    /// Divides the recorded offsets (1 = as recorded).
    speedup: u64,
    next: usize,
    /// The burst in flight, refilled from the recording for every
    /// recorded burst. Non-empty between steps only when the NIC took
    /// part of it: the rest must go first.
    burst: Burst,
    stats: ReplayStats,
    port: PortId,
}

impl ReplayScheduler {
    /// Plan a replay of `recording` on `port`, starting at wall-clock time
    /// `start_wall_ns` (which should be in the future; a past time replays
    /// immediately, late).
    pub fn new(
        recording: &Recording,
        port: PortId,
        start_wall_ns: u64,
        dp: &dyn Dataplane,
    ) -> Self {
        let wait_cycles = dp.ns_to_cycles(start_wall_ns.saturating_sub(dp.wall_ns()));
        Self::paced(recording, port, dp.tsc() + wait_cycles, 1)
    }

    /// Plan a replay whose first burst is released at TSC `start`, with
    /// the recorded gaps divided by `speedup`.
    pub(crate) fn paced(recording: &Recording, port: PortId, start: u64, speedup: u64) -> Self {
        ReplayScheduler {
            start,
            first: recording.first_tsc().unwrap_or(0),
            speedup,
            next: 0,
            burst: Burst::new(),
            stats: ReplayStats::default(),
            port,
        }
    }

    /// Release TSC of the next burst, `None` once every burst is out.
    #[inline]
    pub(crate) fn next_release(&self, recording: &Recording) -> Option<u64> {
        let recorded = recording.bursts().get(self.next)?.tsc;
        Some(self.start + (recorded - self.first) / self.speedup)
    }

    /// Release the next burst, due at `release`: read the TSC once for
    /// its lateness, refill the burst in flight and transmit it. Returns
    /// the packets the NIC took.
    pub(crate) fn release<D: Dataplane + ?Sized>(
        &mut self,
        recording: &Recording,
        dp: &mut D,
        release: u64,
    ) -> usize {
        let late = dp.tsc().saturating_sub(release);
        if late > 0 {
            self.stats.late_bursts += 1;
            self.stats.max_lateness_cycles = self.stats.max_lateness_cycles.max(late);
        }
        recording.burst(self.next).refill(&mut self.burst);
        self.transmit(dp)
    }

    /// Transmit the rest of the burst in flight: one retry.
    pub(crate) fn retry<D: Dataplane + ?Sized>(&mut self, dp: &mut D) -> usize {
        self.stats.tx_retries += 1;
        self.transmit(dp)
    }

    fn transmit<D: Dataplane + ?Sized>(&mut self, dp: &mut D) -> usize {
        let sent = dp.tx_burst(self.port, &mut self.burst);
        self.stats.packets_sent += sent as u64;
        if self.burst.is_empty() {
            self.stats.bursts_sent += 1;
            self.next += 1;
        }
        sent
    }

    /// Packets of the burst in flight the NIC has not taken yet.
    #[inline]
    pub(crate) fn in_flight(&self) -> usize {
        self.burst.len()
    }

    /// Drop the rest of the burst in flight and move on to the next
    /// burst. Returns the packets dropped.
    pub(crate) fn abandon(&mut self) -> usize {
        let left = self.burst.len();
        self.burst.clear();
        self.next += 1;
        left
    }

    /// Transmit every due burst; request a wake-up for the next one.
    ///
    /// Call repeatedly (on every wake) until [`SchedulerState::Done`].
    pub fn pump(&mut self, recording: &Recording, dp: &mut dyn Dataplane) -> SchedulerState {
        // The rest of a partly sent burst goes first: order is preserved.
        if self.in_flight() > 0 {
            self.retry(dp);
        }
        while self.in_flight() == 0 {
            let Some(release) = self.next_release(recording) else {
                return SchedulerState::Done;
            };
            if dp.tsc() < release {
                dp.request_wake_at_tsc(release);
                return SchedulerState::InProgress;
            }
            self.release(recording, dp, release);
        }
        // The NIC is backed up; ask to be woken immediately-ish.
        let now = dp.tsc();
        dp.request_wake_at_tsc(now + 1);
        SchedulerState::InProgress
    }

    /// Counters so far. Once `Done`, `packets_sent` equals the
    /// recording's packet count.
    pub fn stats(&self) -> ReplayStats {
        self.stats
    }

    /// Index of the next burst to transmit.
    pub fn position(&self) -> usize {
        self.next
    }

    /// True when every burst has been transmitted.
    pub fn is_done(&self, recording: &Recording) -> bool {
        self.next >= recording.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use choir_dpdk::{App, Mempool, ScriptPlane};
    use choir_packet::Frame;

    use crate::replay::engine::{run_replay_supervised, EngineConfig};

    /// One port, a manual clock, and a NIC taking at most
    /// `accept_per_call` packets a call.
    fn test_plane(accept_per_call: usize) -> ScriptPlane {
        let mut dp = ScriptPlane::new(1, Mempool::new("t", 1024));
        dp.accept = vec![accept_per_call];
        dp
    }

    /// The scheduler as an app: pumped on every wake, as the simulated
    /// middlebox pumps it, until it is done and requests no more.
    struct Pumped<'r>(ReplayScheduler, &'r Recording);

    impl App for Pumped<'_> {
        fn on_wake(&mut self, dp: &mut dyn Dataplane) {
            self.0.pump(self.1, dp);
        }
    }

    /// `(tsc, accepted)` of every transmit call.
    fn calls(dp: &ScriptPlane) -> Vec<(u64, usize)> {
        dp.calls.iter().map(|&(_, t, n)| (t, n)).collect()
    }

    fn recording(pool: &Mempool, tscs: &[u64], per_burst: usize) -> Recording {
        let mut r = Recording::new();
        for &t in tscs {
            let pkts: Vec<_> = (0..per_burst)
                .map(|i| {
                    pool.alloc(Frame::new(Bytes::from(vec![i as u8; 60])))
                        .unwrap()
                })
                .collect();
            r.push_burst(t, pkts.iter());
        }
        r
    }

    #[test]
    fn bursts_release_at_recorded_offsets() {
        let mut dp = test_plane(64);
        let rec = recording(&dp.mempool().clone(), &[1000, 1500, 2700], 2);
        // Start the replay at wall 10_000: delta = 10_000 - 1000 = 9000.
        let mut sch = ReplayScheduler::new(&rec, 0, 10_000, &dp);
        assert_eq!(sch.pump(&rec, &mut dp), SchedulerState::InProgress);
        assert_eq!(dp.wake, Some(10_000));
        dp.now = 10_000;
        dp.wake = None;
        sch.pump(&rec, &mut dp);
        assert_eq!(dp.calls.len(), 1);
        assert_eq!(dp.wake, Some(10_500));
        dp.now = 10_500;
        sch.pump(&rec, &mut dp);
        dp.now = 11_700;
        let st = sch.pump(&rec, &mut dp);
        assert_eq!(st, SchedulerState::Done);
        assert_eq!(calls(&dp), vec![(10_000, 2), (10_500, 2), (11_700, 2)]);
        assert_eq!(sch.stats().packets_sent, 6);
        assert_eq!(sch.stats().bursts_sent, 3);
        assert!(sch.is_done(&rec));
    }

    #[test]
    fn late_wake_transmits_all_due_bursts_and_counts_lateness() {
        let mut dp = test_plane(64);
        let rec = recording(&dp.mempool().clone(), &[0, 100, 200], 1);
        let mut sch = ReplayScheduler::new(&rec, 0, 1_000, &dp);
        // Sleep through everything: wake at 5000.
        dp.now = 5_000;
        let st = sch.pump(&rec, &mut dp);
        assert_eq!(st, SchedulerState::Done);
        assert_eq!(dp.calls.len(), 3);
        let s = sch.stats();
        assert_eq!(s.late_bursts, 3);
        assert!(s.max_lateness_cycles >= 3_800);
    }

    #[test]
    fn partial_tx_preserves_order_and_retries() {
        let mut dp = test_plane(3); // NIC accepts 3 packets per call
        let rec = recording(&dp.mempool().clone(), &[0], 8);
        let mut app = Pumped(ReplayScheduler::new(&rec, 0, 0, &dp), &rec);
        // A backed-up NIC: each pump asks to come back one cycle later.
        dp.run(&mut app, 100);
        let sch = app.0;
        let total: usize = dp.calls.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(total, 8);
        assert!(sch.stats().tx_retries >= 2);
        assert_eq!(sch.stats().bursts_sent, 1);
    }

    #[test]
    fn past_start_time_replays_immediately() {
        let mut dp = test_plane(64);
        dp.now = 50_000;
        let rec = recording(&dp.mempool().clone(), &[7_000], 4);
        let mut sch = ReplayScheduler::new(&rec, 0, 10, &dp); // in the past
        let st = sch.pump(&rec, &mut dp);
        assert_eq!(st, SchedulerState::Done);
        assert_eq!(sch.stats().packets_sent, 4);
    }

    #[test]
    fn empty_recording_is_immediately_done() {
        let mut dp = test_plane(64);
        let rec = Recording::new();
        let mut sch = ReplayScheduler::new(&rec, 0, 100, &dp);
        assert_eq!(sch.pump(&rec, &mut dp), SchedulerState::Done);
        assert_eq!(sch.stats(), ReplayStats::default());
    }

    #[test]
    fn relative_spacing_preserved_under_exact_wakes() {
        // The core fidelity property: replayed inter-burst spacing equals
        // recorded spacing when wakes are exact.
        let mut dp = test_plane(64);
        let tscs: Vec<u64> = (0..20).map(|i| 1_000 + i * 285).collect();
        let rec = recording(&dp.mempool().clone(), &tscs, 1);
        let mut app = Pumped(ReplayScheduler::new(&rec, 0, 100_000, &dp), &rec);
        dp.run(&mut app, 100);
        let sch = app.0;
        let times: Vec<u64> = dp.calls.iter().map(|&(_, t, _)| t).collect();
        for w in times.windows(2) {
            assert_eq!(w[1] - w[0], 285);
        }
        assert_eq!(sch.stats().late_bursts, 0);
    }

    #[test]
    fn both_drivers_release_the_same_bursts() {
        // Bursts of 1 to 7 packets, the first byte of each packet its
        // number, through a NIC that takes 3 packets per call: most
        // bursts need retries, and both drivers must send them alike.
        let pool = Mempool::new("t", 1024);
        let mut rec = Recording::new();
        let mut burst_of = Vec::new();
        for b in 0..24u64 {
            let pkts: Vec<_> = (0..1 + b as usize % 7)
                .map(|_| {
                    burst_of.push(b as usize);
                    let id = (burst_of.len() - 1) as u8;
                    pool.alloc(Frame::new(Bytes::from(vec![id; 60]))).unwrap()
                })
                .collect();
            rec.push_burst(5_000 + b * 40 + b % 3 * 11, pkts.iter());
        }
        let first = rec.first_tsc().unwrap();
        let check = |dp: &ScriptPlane, start: u64| {
            for &(_, t, ref m) in &dp.sent {
                let id = m.frame.data[0];
                let release = start + rec.burst(burst_of[id as usize]).tsc - first;
                assert!(
                    t >= release,
                    "packet {id} sent at {t}, released at {release}"
                );
            }
        };

        // Wake-driven: exact wakes, a TSC that stands still between them.
        let mut woken = test_plane(3);
        let mut app = Pumped(ReplayScheduler::new(&rec, 0, 10_000, &woken), &rec);
        woken.run(&mut app, 1_000);
        check(&woken, 10_000);

        // Spinning: every TSC read costs a cycle; the first read is the
        // start.
        let mut spun = test_plane(3);
        spun.tsc_step = 1;
        let report =
            run_replay_supervised(&rec, &mut spun, 0, &EngineConfig::unbounded(1)).unwrap();
        check(&spun, 1);

        let ids = |dp: &ScriptPlane| {
            dp.sent
                .iter()
                .map(|(_, _, m)| m.frame.data[0])
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&woken), (0..burst_of.len() as u8).collect::<Vec<_>>());
        assert_eq!(ids(&spun), ids(&woken));
        let accepted = |dp: &ScriptPlane| dp.calls.iter().map(|&(_, _, n)| n).collect::<Vec<_>>();
        assert_eq!(accepted(&spun), accepted(&woken));
        let (w, s) = (app.0.stats(), report.stats);
        assert_eq!(w.packets_sent, burst_of.len() as u64);
        assert!(w.tx_retries > 0);
        assert_eq!(
            (s.packets_sent, s.bursts_sent, s.tx_retries),
            (w.packets_sent, w.bursts_sent, w.tx_retries)
        );
    }
}
