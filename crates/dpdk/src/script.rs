//! A deterministic, scripted [`Dataplane`] for tests and reproducible
//! sweeps.
//!
//! [`ScriptPlane`] is the environment of the paper's replayer (§4) — TSC
//! reads, burst rx/tx, wake-ups — with every input written down in
//! advance and every output logged:
//!
//! - **Virtual clock.** `tsc()` and `wall_ns()` read
//!   `now + reads × tsc_step`, where `reads` counts `tsc()` calls. Only a
//!   `tsc()` read advances the clock, so a spin loop terminates after the
//!   same number of reads on every host. Step 0 is a manual clock that
//!   moves only when the test (or [`ScriptPlane::run`]) sets `now`.
//! - **Receive.** One queue per port, filled with [`ScriptPlane::arrive`];
//!   `rx_burst` pops at most [`MAX_BURST`] packets a call.
//! - **Transmit.** Each `tx_burst` call accepts at most the next entry of
//!   a repeating acceptance schedule, drained from the front of the burst:
//!   `[usize::MAX]` accepts everything, `[0]` is a wedged NIC, `[3]` caps
//!   each call, `[1, 0, 0]` takes one packet every third call.
//! - **Logs.** Every accepted packet as `(port, tsc, mbuf)` in
//!   [`ScriptPlane::sent`], every call as `(port, tsc, accepted)` in
//!   [`ScriptPlane::calls`].
//! - **Wake-ups.** The earliest requested wake is kept in
//!   [`ScriptPlane::wake`]; [`ScriptPlane::run`] drives an [`App`] from
//!   one wake to the next.
//!
//! ```
//! use choir_dpdk::{Dataplane, Mempool, ScriptPlane};
//!
//! let mut dp = ScriptPlane::new(1, Mempool::new("doc", 16));
//! dp.tsc_step = 25;
//! assert_eq!((dp.tsc(), dp.tsc(), dp.wall_ns()), (25, 50, 50));
//! dp.now = 1_000;
//! assert_eq!(dp.wall_ns(), 1_050);
//! ```

use std::cell::Cell;
use std::collections::VecDeque;

use crate::burst::{Burst, MAX_BURST};
use crate::mbuf::{Mbuf, Mempool};
use crate::plane::{App, Dataplane, PortId};
use crate::stats::PortStats;

/// A deterministic [`Dataplane`] whose clock, arrivals and transmit
/// acceptance are scripted (see the [module docs](self)).
pub struct ScriptPlane {
    /// Base of the virtual clock; the clock reads
    /// `now + reads × tsc_step`.
    pub now: u64,
    /// Cycles each `tsc()` read advances the clock (0: manual clock).
    pub tsc_step: u64,
    /// Reported TSC frequency (default 1 GHz: one cycle per nanosecond).
    pub tsc_hz: u64,
    /// Per-call transmit acceptance, repeating; must not be empty.
    pub accept: Vec<usize>,
    /// Earliest wake requested and not yet taken.
    pub wake: Option<u64>,
    /// Every accepted packet: `(port, tsc at the call, mbuf)`.
    pub sent: Vec<(PortId, u64, Mbuf)>,
    /// Every `tx_burst` call: `(port, tsc at the call, accepted)`.
    pub calls: Vec<(PortId, u64, usize)>,
    pool: Mempool,
    rx: Vec<VecDeque<Mbuf>>,
    reads: Cell<u64>,
}

impl ScriptPlane {
    /// A plane with `ports` ports over `pool`: clock at 0 and manual,
    /// 1 GHz, every transmit accepted, nothing queued.
    pub fn new(ports: usize, pool: Mempool) -> Self {
        ScriptPlane {
            now: 0,
            tsc_step: 0,
            tsc_hz: 1_000_000_000,
            accept: vec![usize::MAX],
            wake: None,
            sent: Vec::new(),
            calls: Vec::new(),
            pool,
            rx: (0..ports).map(|_| VecDeque::new()).collect(),
            reads: Cell::new(0),
        }
    }

    /// The clock's current reading, without advancing it.
    fn clock(&self) -> u64 {
        self.now + self.reads.get() * self.tsc_step
    }

    /// Queue `m` for a later `rx_burst` on `port`.
    pub fn arrive(&mut self, port: PortId, m: Mbuf) {
        self.rx[port].push_back(m);
    }

    /// Drive `app`: wake it, move `now` to the wake it requested, and
    /// repeat until it requests none.
    ///
    /// # Panics
    ///
    /// If `app` still requests a wake-up on its `max_wakes`-th call.
    pub fn run<A: App + ?Sized>(&mut self, app: &mut A, max_wakes: usize) {
        for _ in 0..max_wakes {
            app.on_wake(self);
            let Some(t) = self.wake.take() else {
                return;
            };
            self.now = self.now.max(t);
        }
        panic!("{} never finished", app.name());
    }
}

impl Dataplane for ScriptPlane {
    fn num_ports(&self) -> usize {
        self.rx.len()
    }

    fn mempool(&self) -> &Mempool {
        &self.pool
    }

    fn rx_burst(&mut self, port: PortId, out: &mut Burst) -> usize {
        out.clear();
        let q = &mut self.rx[port];
        let n = q.len().min(MAX_BURST);
        for m in q.drain(..n) {
            out.push(m).expect("at most MAX_BURST");
        }
        n
    }

    fn tx_burst(&mut self, port: PortId, burst: &mut Burst) -> usize {
        assert!(
            port < self.rx.len(),
            "tx on port {port} of {}",
            self.rx.len()
        );
        let n = burst
            .len()
            .min(self.accept[self.calls.len() % self.accept.len()]);
        let t = self.clock();
        self.sent.extend(burst.drain_front(n).map(|m| (port, t, m)));
        self.calls.push((port, t, n));
        n
    }

    fn tsc(&self) -> u64 {
        self.reads.set(self.reads.get() + 1);
        self.clock()
    }

    fn tsc_hz(&self) -> u64 {
        self.tsc_hz
    }

    fn wall_ns(&self) -> u64 {
        self.clock()
    }

    fn request_wake_at_tsc(&mut self, tsc: u64) {
        self.wake = Some(self.wake.map_or(tsc, |w| w.min(tsc)));
    }

    fn stats(&self, _port: PortId) -> PortStats {
        PortStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use choir_packet::Frame;

    fn pkts(dp: &ScriptPlane, n: usize) -> Burst {
        let mut b = Burst::new();
        for i in 0..n {
            let m = dp
                .mempool()
                .alloc(Frame::new(Bytes::from(vec![i as u8; 60])));
            b.push(m.unwrap()).unwrap();
        }
        b
    }

    #[test]
    fn only_tsc_reads_advance_the_clock() {
        let mut dp = ScriptPlane::new(1, Mempool::new("s", 8));
        dp.tsc_step = 7;
        assert_eq!(dp.wall_ns(), 0);
        assert_eq!(dp.tsc(), 7);
        assert_eq!(dp.tsc(), 14);
        dp.tx_burst(0, &mut pkts(&dp, 2));
        dp.rx_burst(0, &mut Burst::new());
        assert_eq!(dp.wall_ns(), 14);
        dp.now = 100;
        assert_eq!(dp.tsc(), 121);
        assert_eq!(dp.calls, vec![(0, 14, 2)]);
    }

    #[test]
    fn acceptance_schedule_repeats_and_drains_the_front() {
        let mut dp = ScriptPlane::new(2, Mempool::new("s", 64));
        dp.accept = vec![1, 0, 0];
        let mut b = pkts(&dp, 5);
        let taken: Vec<usize> = (0..6).map(|_| dp.tx_burst(1, &mut b)).collect();
        assert_eq!(taken, vec![1, 0, 0, 1, 0, 0]);
        assert_eq!(b.len(), 3);
        let first: Vec<u8> = dp.sent.iter().map(|(_, _, m)| m.frame.data[0]).collect();
        assert_eq!(first, vec![0, 1]);
        assert_eq!(b.get(0).unwrap().frame.data[0], 2);
    }

    #[test]
    fn rx_pops_at_most_one_burst_per_call() {
        let mut dp = ScriptPlane::new(2, Mempool::new("s", 256));
        for m in pkts(&dp, 64).into_iter().chain(pkts(&dp, 6)) {
            dp.arrive(1, m);
        }
        let mut out = Burst::new();
        assert_eq!(dp.rx_burst(0, &mut out), 0);
        assert_eq!(dp.rx_burst(1, &mut out), MAX_BURST);
        assert_eq!(dp.rx_burst(1, &mut out), 6);
        assert_eq!(dp.rx_burst(1, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn run_moves_the_clock_to_each_earliest_wake() {
        struct Ticker(Vec<u64>);
        impl App for Ticker {
            fn on_wake(&mut self, dp: &mut dyn Dataplane) {
                self.0.push(dp.tsc());
                if self.0.len() < 4 {
                    dp.request_wake_at_tsc(dp.tsc() + 50);
                    dp.request_wake_at_tsc(dp.tsc() + 10);
                }
            }
        }
        let mut dp = ScriptPlane::new(0, Mempool::new("s", 1));
        let mut app = Ticker(Vec::new());
        dp.run(&mut app, 4);
        assert_eq!(app.0, vec![0, 10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "never finished")]
    fn run_panics_past_its_wake_budget() {
        struct Forever;
        impl App for Forever {
            fn on_wake(&mut self, dp: &mut dyn Dataplane) {
                dp.request_wake_at_tsc(dp.tsc() + 1);
            }
        }
        ScriptPlane::new(0, Mempool::new("s", 1)).run(&mut Forever, 5);
    }
}
