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
    use choir_dpdk::{Mempool, PortStats};
    use choir_packet::Frame;
    use std::cell::Cell;

    use crate::replay::engine::{run_replay_supervised, EngineConfig};

    /// A test dataplane with a manually-advanced TSC and a capacity-bounded
    /// sink that records (tsc, packets) per tx_burst call, and (tsc, first
    /// byte) per packet taken. With `step` > 0 every TSC read also advances
    /// the clock by `step` cycles, as a spinning CPU's does.
    struct TestPlane {
        pool: Mempool,
        now: u64,
        step: u64,
        ticks: Cell<u64>,
        wake: Option<u64>,
        accept_per_call: usize,
        sent: Vec<(u64, usize)>,
        taken: Vec<(u64, u8)>,
    }

    impl TestPlane {
        fn new(accept_per_call: usize) -> Self {
            TestPlane {
                pool: Mempool::new("t", 1024),
                now: 0,
                step: 0,
                ticks: Cell::new(0),
                wake: None,
                accept_per_call,
                sent: Vec::new(),
                taken: Vec::new(),
            }
        }

        fn clock(&self) -> u64 {
            self.now + self.ticks.get()
        }
    }

    impl Dataplane for TestPlane {
        fn num_ports(&self) -> usize {
            1
        }
        fn mempool(&self) -> &Mempool {
            &self.pool
        }
        fn rx_burst(&mut self, _p: PortId, out: &mut Burst) -> usize {
            out.clear();
            0
        }
        fn tx_burst(&mut self, _p: PortId, burst: &mut Burst) -> usize {
            let n = burst.len().min(self.accept_per_call);
            let t = self.clock();
            for m in burst.drain_front(n) {
                self.taken.push((t, m.frame.data[0]));
            }
            self.sent.push((t, n));
            n
        }
        fn tsc(&self) -> u64 {
            self.ticks.set(self.ticks.get() + self.step);
            self.clock()
        }
        fn tsc_hz(&self) -> u64 {
            1_000_000_000
        }
        fn wall_ns(&self) -> u64 {
            self.clock()
        }
        fn request_wake_at_tsc(&mut self, tsc: u64) {
            self.wake = Some(self.wake.map_or(tsc, |w| w.min(tsc)));
        }
        fn stats(&self, _p: PortId) -> PortStats {
            PortStats::default()
        }
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
        let mut dp = TestPlane::new(64);
        let rec = recording(&dp.pool.clone(), &[1000, 1500, 2700], 2);
        // Start the replay at wall 10_000: delta = 10_000 - 1000 = 9000.
        let mut sch = ReplayScheduler::new(&rec, 0, 10_000, &dp);
        assert_eq!(sch.pump(&rec, &mut dp), SchedulerState::InProgress);
        assert_eq!(dp.wake, Some(10_000));
        dp.now = 10_000;
        dp.wake = None;
        sch.pump(&rec, &mut dp);
        assert_eq!(dp.sent.len(), 1);
        assert_eq!(dp.wake, Some(10_500));
        dp.now = 10_500;
        sch.pump(&rec, &mut dp);
        dp.now = 11_700;
        let st = sch.pump(&rec, &mut dp);
        assert_eq!(st, SchedulerState::Done);
        assert_eq!(dp.sent, vec![(10_000, 2), (10_500, 2), (11_700, 2)]);
        assert_eq!(sch.stats().packets_sent, 6);
        assert_eq!(sch.stats().bursts_sent, 3);
        assert!(sch.is_done(&rec));
    }

    #[test]
    fn late_wake_transmits_all_due_bursts_and_counts_lateness() {
        let mut dp = TestPlane::new(64);
        let rec = recording(&dp.pool.clone(), &[0, 100, 200], 1);
        let mut sch = ReplayScheduler::new(&rec, 0, 1_000, &dp);
        // Sleep through everything: wake at 5000.
        dp.now = 5_000;
        let st = sch.pump(&rec, &mut dp);
        assert_eq!(st, SchedulerState::Done);
        assert_eq!(dp.sent.len(), 3);
        let s = sch.stats();
        assert_eq!(s.late_bursts, 3);
        assert!(s.max_lateness_cycles >= 3_800);
    }

    #[test]
    fn partial_tx_preserves_order_and_retries() {
        let mut dp = TestPlane::new(3); // NIC accepts 3 packets per call
        let rec = recording(&dp.pool.clone(), &[0], 8);
        let mut sch = ReplayScheduler::new(&rec, 0, 0, &dp);
        let mut guard = 0;
        loop {
            match sch.pump(&rec, &mut dp) {
                SchedulerState::Done => break,
                SchedulerState::InProgress => {
                    dp.now += 1;
                    guard += 1;
                    assert!(guard < 100, "scheduler wedged");
                }
            }
        }
        let total: usize = dp.sent.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 8);
        assert!(sch.stats().tx_retries >= 2);
        assert_eq!(sch.stats().bursts_sent, 1);
    }

    #[test]
    fn past_start_time_replays_immediately() {
        let mut dp = TestPlane::new(64);
        dp.now = 50_000;
        let rec = recording(&dp.pool.clone(), &[7_000], 4);
        let mut sch = ReplayScheduler::new(&rec, 0, 10, &dp); // in the past
        let st = sch.pump(&rec, &mut dp);
        assert_eq!(st, SchedulerState::Done);
        assert_eq!(sch.stats().packets_sent, 4);
    }

    #[test]
    fn empty_recording_is_immediately_done() {
        let mut dp = TestPlane::new(64);
        let rec = Recording::new();
        let mut sch = ReplayScheduler::new(&rec, 0, 100, &dp);
        assert_eq!(sch.pump(&rec, &mut dp), SchedulerState::Done);
        assert_eq!(sch.stats(), ReplayStats::default());
    }

    #[test]
    fn relative_spacing_preserved_under_exact_wakes() {
        // The core fidelity property: replayed inter-burst spacing equals
        // recorded spacing when wakes are exact.
        let mut dp = TestPlane::new(64);
        let tscs: Vec<u64> = (0..20).map(|i| 1_000 + i * 285).collect();
        let rec = recording(&dp.pool.clone(), &tscs, 1);
        let mut sch = ReplayScheduler::new(&rec, 0, 100_000, &dp);
        loop {
            match sch.pump(&rec, &mut dp) {
                SchedulerState::Done => break,
                SchedulerState::InProgress => {
                    dp.now = dp.wake.take().expect("wake requested");
                }
            }
        }
        let times: Vec<u64> = dp.sent.iter().map(|&(t, _)| t).collect();
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
        let check = |dp: &TestPlane, start: u64| {
            for &(t, id) in &dp.taken {
                let release = start + rec.burst(burst_of[id as usize]).tsc - first;
                assert!(
                    t >= release,
                    "packet {id} sent at {t}, released at {release}"
                );
            }
        };

        // Wake-driven: exact wakes, a TSC that stands still between them.
        let mut woken = TestPlane::new(3);
        let mut sch = ReplayScheduler::new(&rec, 0, 10_000, &woken);
        while sch.pump(&rec, &mut woken) == SchedulerState::InProgress {
            woken.now = woken.wake.take().expect("wake requested");
        }
        check(&woken, 10_000);

        // Spinning: every TSC read costs a cycle; the first read is the
        // start.
        let mut spun = TestPlane::new(3);
        spun.step = 1;
        let report =
            run_replay_supervised(&rec, &mut spun, 0, &EngineConfig::unbounded(1)).unwrap();
        check(&spun, 1);

        let ids = |dp: &TestPlane| dp.taken.iter().map(|&(_, id)| id).collect::<Vec<_>>();
        assert_eq!(ids(&woken), (0..burst_of.len() as u8).collect::<Vec<_>>());
        assert_eq!(ids(&spun), ids(&woken));
        let calls = |dp: &TestPlane| dp.sent.iter().map(|&(_, n)| n).collect::<Vec<_>>();
        assert_eq!(calls(&spun), calls(&woken));
        let (w, s) = (sch.stats(), report.stats);
        assert_eq!(w.packets_sent, burst_of.len() as u64);
        assert!(w.tx_retries > 0);
        assert_eq!(
            (s.packets_sent, s.bursts_sent, s.tx_retries),
            (w.packets_sent, w.bursts_sent, w.tx_retries)
        );
    }
}
