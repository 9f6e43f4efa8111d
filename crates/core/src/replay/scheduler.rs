//! TSC-delta replay scheduling (paper §4).
//!
//! "The user command to run a replay specifies a future time to start the
//! replay. With this future time and the start time of the replay, a TSC
//! delta can be calculated using the CPU frequency. The replay is then run
//! by looping over a TSC read, transmitting each packet burst in the
//! replay when the TSC read is greater than or equal to the burst's stored
//! TSC time plus the delta."
//!
//! [`ReplayScheduler`] encodes exactly that loop body. The *driver* of the
//! loop differs by backend: the simulator wakes the app at the requested
//! TSC; the real-time engine busy-spins. Either way, each call to
//! [`ReplayScheduler::pump`] transmits every burst that is due and reports
//! when to come back.

use choir_dpdk::{Burst, Dataplane, PortId};

use super::recording::Recording;

/// Counters describing a replay's execution quality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Bursts fully transmitted.
    pub bursts_sent: u64,
    /// Packets transmitted.
    pub packets_sent: u64,
    /// Bursts that were released later than their target TSC (by any
    /// amount) because the loop arrived late or the NIC pushed back.
    pub late_bursts: u64,
    /// Worst observed lateness, in cycles.
    pub max_lateness_cycles: u64,
    /// Times a burst was only partially accepted by the NIC and had to be
    /// retried.
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
    /// Added to each recorded TSC to get its release TSC.
    delta: i128,
    next: usize,
    /// A burst that was partially accepted and must finish first.
    pending: Option<Burst>,
    pending_release: u64,
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
        let now_ns = dp.wall_ns();
        let now_tsc = dp.tsc();
        let wait_cycles = dp.ns_to_cycles(start_wall_ns.saturating_sub(now_ns));
        let start_tsc = now_tsc + wait_cycles;
        let first = recording.first_tsc().unwrap_or(start_tsc);
        let delta = start_tsc as i128 - first as i128;
        ReplayScheduler {
            delta,
            next: 0,
            pending: None,
            pending_release: 0,
            stats: ReplayStats::default(),
            port,
        }
    }

    /// Release TSC of burst `i`.
    fn release_tsc(&self, recording: &Recording, i: usize) -> u64 {
        (recording.burst(i).tsc as i128 + self.delta).max(0) as u64
    }

    /// Transmit every due burst; request a wake-up for the next one.
    ///
    /// Call repeatedly (on every wake) until [`SchedulerState::Done`].
    pub fn pump(&mut self, recording: &Recording, dp: &mut dyn Dataplane) -> SchedulerState {
        // Finish a partially-sent burst first: order must be preserved.
        if let Some(mut burst) = self.pending.take() {
            dp.tx_burst(self.port, &mut burst);
            if burst.is_empty() {
                self.finish_burst(dp.tsc());
            } else {
                self.stats.tx_retries += 1;
                self.pending = Some(burst);
                // NIC is backed up; ask to be woken immediately-ish.
                let now = dp.tsc();
                dp.request_wake_at_tsc(now + 1);
                return SchedulerState::InProgress;
            }
        }

        while self.next < recording.len() {
            let release = self.release_tsc(recording, self.next);
            let now = dp.tsc();
            if now < release {
                dp.request_wake_at_tsc(release);
                return SchedulerState::InProgress;
            }
            let mut burst = recording.burst(self.next).to_burst();
            let total = burst.len() as u64;
            let sent = dp.tx_burst(self.port, &mut burst) as u64;
            self.stats.packets_sent += sent;
            self.pending_release = release;
            if sent < total {
                self.stats.tx_retries += 1;
                self.pending = Some(burst);
                let now = dp.tsc();
                dp.request_wake_at_tsc(now + 1);
                return SchedulerState::InProgress;
            }
            self.finish_burst(dp.tsc());
        }
        SchedulerState::Done
    }

    fn finish_burst(&mut self, now_tsc: u64) {
        self.stats.bursts_sent += 1;
        let lateness = now_tsc.saturating_sub(self.pending_release);
        if lateness > 0 {
            self.stats.late_bursts += 1;
            self.stats.max_lateness_cycles = self.stats.max_lateness_cycles.max(lateness);
        }
        self.next += 1;
    }

    /// Packets counted so far. Once `Done`, equals the recording's total.
    pub fn stats(&self) -> ReplayStats {
        self.stats
    }

    /// Index of the next burst to transmit.
    pub fn position(&self) -> usize {
        self.next
    }

    /// True when every burst has been transmitted.
    pub fn is_done(&self, recording: &Recording) -> bool {
        self.pending.is_none() && self.next >= recording.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use choir_dpdk::{Mempool, PortStats};
    use choir_packet::Frame;

    /// A test dataplane with a manually-advanced TSC and a capacity-bounded
    /// sink that records (tsc, packets) per tx_burst call.
    struct TestPlane {
        pool: Mempool,
        now: u64,
        wake: Option<u64>,
        accept_per_call: usize,
        sent: Vec<(u64, usize)>,
    }

    impl TestPlane {
        fn new(accept_per_call: usize) -> Self {
            TestPlane {
                pool: Mempool::new("t", 1024),
                now: 0,
                wake: None,
                accept_per_call,
                sent: Vec::new(),
            }
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
            burst.drain_front(n).for_each(drop);
            self.sent.push((self.now, n));
            n
        }
        fn tsc(&self) -> u64 {
            self.now
        }
        fn tsc_hz(&self) -> u64 {
            1_000_000_000
        }
        fn wall_ns(&self) -> u64 {
            self.now
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
}
