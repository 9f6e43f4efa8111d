//! Conservative parallel discrete-event execution: one [`Sim`] per
//! shard, one worker thread per sim, synchronized by time-window
//! barriers with link propagation delay as lookahead.
//!
//! ## Protocol
//!
//! The topology is partitioned by domain (site / switch cluster); every
//! inter-domain wire becomes a *remote link* (see
//! [`Sim::connect_remote_out`] / [`Sim::connect_remote_in`]) whose
//! propagation delay is at least the fleet lookahead `L`. The
//! coordinator repeats:
//!
//! 1. **Probe** every shard for its next event time; let `t` be the
//!    minimum.
//! 2. **Run** every shard to the horizon `t + L - 1`. Any event a shard
//!    processes in this window can only influence another shard through
//!    a remote link, and such a burst arrives no earlier than
//!    `t + L > horizon` — so executing the window in parallel, with no
//!    mid-window communication, is causally safe (this is the classic
//!    null-message bound collapsed into a window barrier).
//! 3. **Route** the bursts each shard parked in its outbox to the shard
//!    hosting the link's acceptor, and inject them.
//!
//! ## Determinism contract
//!
//! A sharded run is a pure function of `(topology, seed)` — independent
//! of shard count and thread scheduling — because cross-shard admission
//! never consumes the destination sim's `seq` counter. Instead each
//! admitted event is keyed in a reserved queue band by
//! `(arrival time, link id, per-link message count)`: every component of
//! the key is a layout invariant (the count increments in link-message
//! order, which equals origin emission order, which is deterministic
//! within the origin shard by induction). The serial engine routes
//! inter-domain links through the *same* admission path, short-circuited
//! locally — so a `shards = 1` fleet and a serial sim produce
//! byte-identical captures, and so does every other shard count.
//!
//! Threading: [`choir_dpdk::App`]s are not `Send`, so each worker thread
//! *builds* its own sim from a `Send` closure; only commands, packet
//! bursts ([`choir_dpdk::Mbuf`] is `Send`) and `Any + Send` call results cross
//! threads.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use choir_obs as obs;

use crate::engine::{RemoteBurst, Sim, SimConfig, SimStats};

/// Builds one shard's sim on its worker thread.
pub type SimBuilder = Box<dyn FnOnce(&mut Sim) + Send + 'static>;

type SimCall = Box<dyn FnOnce(&mut Sim) -> Box<dyn Any + Send> + Send + 'static>;

enum Cmd {
    /// Reply with the shard's next event time.
    Probe,
    /// Run to the given horizon and reply with the drained outbox.
    Run(u64),
    /// Admit routed bursts, then acknowledge.
    Inject(Vec<RemoteBurst>),
    /// Run an arbitrary closure against the sim and reply with its value.
    Call(SimCall),
    Shutdown,
}

enum Reply {
    Time(Option<u64>),
    Ran(Vec<RemoteBurst>),
    Injected,
    Value(Box<dyn Any + Send>),
}

struct Worker {
    cmd: Sender<Cmd>,
    reply: Receiver<Reply>,
    handle: Option<JoinHandle<()>>,
}

fn worker_loop(cfg: SimConfig, build: SimBuilder, cmds: Receiver<Cmd>, replies: Sender<Reply>) {
    let mut sim = Sim::new(cfg);
    build(&mut sim);
    while let Ok(cmd) = cmds.recv() {
        let reply = match cmd {
            Cmd::Probe => Reply::Time(sim.next_event_time()),
            Cmd::Run(horizon) => {
                sim.run_until(horizon);
                Reply::Ran(sim.take_outbox())
            }
            Cmd::Inject(bursts) => {
                for rb in bursts {
                    sim.inject_remote(rb.link, rb.pkts);
                }
                Reply::Injected
            }
            Cmd::Call(f) => Reply::Value(f(&mut sim)),
            Cmd::Shutdown => break,
        };
        if replies.send(reply).is_err() {
            break;
        }
    }
}

/// Synchronization-overhead counters of a sharded run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Time-window barriers executed.
    pub windows: u64,
    /// Cross-shard bursts routed through the coordinator.
    pub remote_bursts: u64,
    /// Packets inside those bursts.
    pub remote_packets: u64,
}

/// A fleet of [`Sim`] shards advanced in lockstep windows.
pub struct ShardedSim {
    workers: Vec<Worker>,
    /// Which shard accepts each remote link.
    link_home: BTreeMap<u32, usize>,
    lookahead_ps: u64,
    now: u64,
    sync: SyncStats,
}

impl ShardedSim {
    /// Spawn one worker per builder. `lookahead_ps` must be a lower bound
    /// on the propagation delay of every link that crosses shards (links
    /// internal to a shard are unconstrained).
    pub fn new(cfg: SimConfig, lookahead_ps: u64, builders: Vec<SimBuilder>) -> Self {
        assert!(!builders.is_empty(), "at least one shard");
        assert!(lookahead_ps >= 1, "lookahead must be positive");
        let workers: Vec<Worker> = builders
            .into_iter()
            .enumerate()
            .map(|(i, build)| {
                let (cmd_tx, cmd_rx) = channel();
                let (reply_tx, reply_rx) = channel();
                let wcfg = cfg.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("sim-shard-{i}"))
                    .spawn(move || worker_loop(wcfg, build, cmd_rx, reply_tx))
                    .expect("spawn shard worker");
                Worker {
                    cmd: cmd_tx,
                    reply: reply_rx,
                    handle: Some(handle),
                }
            })
            .collect();
        let mut fleet = ShardedSim {
            workers,
            link_home: BTreeMap::new(),
            lookahead_ps,
            now: 0,
            sync: SyncStats::default(),
        };
        for i in 0..fleet.workers.len() {
            for link in fleet.with_sim(i, |sim| sim.accepted_remote_links()) {
                let prev = fleet.link_home.insert(link, i);
                assert!(prev.is_none(), "remote link {link} accepted by two shards");
            }
        }
        fleet
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Coordinator clock: the deadline of the last completed run.
    pub fn now_ps(&self) -> u64 {
        self.now
    }

    /// Synchronization-overhead counters so far.
    pub fn sync_stats(&self) -> SyncStats {
        self.sync
    }

    fn send(&self, shard: usize, cmd: Cmd) {
        self.workers[shard].cmd.send(cmd).expect("shard worker alive");
    }

    fn recv(&self, shard: usize) -> Reply {
        self.workers[shard].reply.recv().expect("shard worker alive")
    }

    /// Run a closure against one shard's sim (blocking round-trip).
    pub fn with_sim<R, F>(&mut self, shard: usize, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut Sim) -> R + Send + 'static,
    {
        self.send(
            shard,
            Cmd::Call(Box::new(move |sim| Box::new(f(sim)) as Box<dyn Any + Send>)),
        );
        match self.recv(shard) {
            Reply::Value(v) => *v.downcast::<R>().expect("call result type"),
            _ => unreachable!("call replies with a value"),
        }
    }

    /// Minimum next-event time across shards (`None` when the fleet is
    /// idle).
    fn probe_min(&mut self) -> Option<u64> {
        for i in 0..self.workers.len() {
            self.send(i, Cmd::Probe);
        }
        let mut min_t: Option<u64> = None;
        for i in 0..self.workers.len() {
            let Reply::Time(t) = self.recv(i) else {
                unreachable!("probe replies with a time")
            };
            if let Some(t) = t {
                min_t = Some(min_t.map_or(t, |m: u64| m.min(t)));
            }
        }
        min_t
    }

    /// Execute one window: run every shard to `horizon` in parallel, then
    /// route and inject the cross-shard bursts.
    fn run_window(&mut self, horizon: u64) {
        for i in 0..self.workers.len() {
            self.send(i, Cmd::Run(horizon));
        }
        let n = self.workers.len();
        let mut routed: Vec<Vec<RemoteBurst>> = (0..n).map(|_| Vec::new()).collect();
        for i in 0..n {
            let Reply::Ran(outbox) = self.recv(i) else {
                unreachable!("run replies with an outbox")
            };
            for rb in outbox {
                let home = *self
                    .link_home
                    .get(&rb.link)
                    .unwrap_or_else(|| panic!("remote link {} has no acceptor", rb.link));
                self.sync.remote_bursts += 1;
                self.sync.remote_packets += rb.pkts.len() as u64;
                routed[home].push(rb);
            }
        }
        let mut pending = Vec::new();
        for (i, bursts) in routed.into_iter().enumerate() {
            if !bursts.is_empty() {
                self.send(i, Cmd::Inject(bursts));
                pending.push(i);
            }
        }
        for i in pending {
            let Reply::Injected = self.recv(i) else {
                unreachable!("inject replies with an ack")
            };
        }
    }

    /// Advance the fleet to `deadline_ps` (every shard's clock ends at
    /// the deadline, exactly like the serial engine's `run_until`).
    /// Returns the time the run stopped at.
    pub fn run_until(&mut self, deadline_ps: u64) -> u64 {
        while let Some(t) = self.probe_min() {
            if t > deadline_ps {
                break;
            }
            let horizon = t
                .saturating_add(self.lookahead_ps - 1)
                .min(deadline_ps);
            self.sync.windows += 1;
            self.run_window(horizon);
        }
        if deadline_ps == u64::MAX {
            // Fleet drained; settle on the latest shard clock.
            let mut latest = self.now;
            for i in 0..self.workers.len() {
                latest = latest.max(self.with_sim(i, |sim| sim.now_ps()));
            }
            self.now = latest;
        } else {
            // Final sync so phase-boundary reads (now_ps, control
            // scheduling) see the same clock a serial run would.
            self.run_window(deadline_ps);
            self.now = self.now.max(deadline_ps);
        }
        if obs::is_enabled() {
            obs::gauge_set("sim.shard.count", self.workers.len() as u64);
            obs::gauge_set("sim.shard.windows", self.sync.windows);
            obs::gauge_set("sim.shard.remote_bursts", self.sync.remote_bursts);
            obs::gauge_set("sim.shard.remote_packets", self.sync.remote_packets);
        }
        self.now
    }

    /// Run until every shard is idle.
    pub fn run_to_idle(&mut self) -> u64 {
        self.run_until(u64::MAX)
    }

    /// Merged engine counters across shards (see [`SimStats::merge`]).
    pub fn sim_stats(&mut self) -> SimStats {
        let mut total = SimStats::default();
        for i in 0..self.workers.len() {
            let s = self.with_sim(i, |sim| sim.sim_stats());
            total.merge(&s);
        }
        total
    }
}

impl Drop for ShardedSim {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.cmd.send(Cmd::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// Assign `domains` domain indices to `shards` shards round-robin — the
/// default partitioning pass. More shards than domains leaves the excess
/// shards empty (they simply report idle every window).
pub fn partition_round_robin(domains: usize, shards: usize) -> Vec<Vec<usize>> {
    assert!(shards >= 1, "at least one shard");
    let mut parts: Vec<Vec<usize>> = (0..shards).map(|_| Vec::new()).collect();
    for d in 0..domains {
        parts[d % shards].push(d);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::NodeClock;
    use crate::engine::{Endpoint, NodeId};
    use crate::nic::{NicRxModel, NicTxModel};
    use crate::rng::Jitter;
    use crate::time::NS;
    use choir_dpdk::{App, Burst, Dataplane};
    use choir_packet::{ChoirTag, FrameBuilder};

    /// Emits `count` tagged packets at a fixed cycle gap.
    struct Pinger {
        builder: FrameBuilder,
        gap_cycles: u64,
        count: u64,
        sent: u64,
        start_tsc: Option<u64>,
    }

    impl Pinger {
        fn new(count: u64, gap_cycles: u64) -> Self {
            Pinger {
                builder: FrameBuilder::new(1400, 1, 2),
                gap_cycles,
                count,
                sent: 0,
                start_tsc: None,
            }
        }
    }

    impl App for Pinger {
        fn on_wake(&mut self, dp: &mut dyn Dataplane) {
            if self.sent >= self.count {
                return;
            }
            let now = dp.tsc();
            let start = *self.start_tsc.get_or_insert(now);
            let due = start + self.sent * self.gap_cycles;
            if now < due {
                dp.request_wake_at_tsc(due);
                return;
            }
            let frame = self
                .builder
                .build_tagged_snap(ChoirTag::new(1, 0, self.sent));
            let m = dp.mempool().alloc(frame).expect("pool");
            let mut b = Burst::new();
            b.push(m).unwrap();
            dp.tx_burst(0, &mut b);
            self.sent += 1;
            if self.sent < self.count {
                dp.request_wake_at_tsc(start + self.sent * self.gap_cycles);
            }
        }
    }

    /// Collects (seq, rx timestamp) of everything it receives.
    struct Collector {
        got: Vec<(u64, u64)>,
    }

    impl App for Collector {
        fn on_wake(&mut self, dp: &mut dyn Dataplane) {
            let mut b = Burst::new();
            while dp.rx_burst(0, &mut b) > 0 {
                for m in b.drain() {
                    let seq = m.frame.tag().map(|t| t.seq).unwrap_or(u64::MAX);
                    self.got.push((seq, m.rx_ts_ps.expect("stamped")));
                }
            }
        }
    }

    fn clock() -> NodeClock {
        NodeClock::ideal(1_000_000_000)
    }

    const PROP: u64 = 5_000 * NS; // 5 µs inter-domain propagation

    fn build_pinger(sim: &mut Sim, link: u32) -> NodeId {
        let s = sim.add_node("pinger", Pinger::new(20, 1_000), clock(), Jitter::None);
        let sp = sim.add_port(s, NicTxModel::ideal(100_000_000_000), NicRxModel::ideal());
        sim.connect_remote_out(s, sp, link, PROP);
        s
    }

    fn build_collector(sim: &mut Sim, link: u32) -> NodeId {
        let k = sim.add_node("collector", Collector { got: Vec::new() }, clock(), Jitter::None);
        let kp = sim.add_port(k, NicTxModel::ideal(100_000_000_000), NicRxModel::ideal());
        sim.connect_remote_in(link, Endpoint::NodePort(k, kp));
        k
    }

    /// The serial reference: both domains in one sim, the remote link
    /// short-circuiting locally.
    fn serial_run() -> (Vec<(u64, u64)>, SimStats) {
        let mut sim = Sim::new(SimConfig::default());
        let s = build_pinger(&mut sim, 7);
        let k = build_collector(&mut sim, 7);
        sim.wake_app(s, 0);
        sim.run_to_idle();
        let got = sim.with_app::<Collector, _>(k, |a| a.got.clone());
        (got, sim.sim_stats())
    }

    fn sharded_run(shards: usize) -> (Vec<(u64, u64)>, SimStats, SyncStats) {
        // Domain 0 (pinger) and domain 1 (collector) assigned round-robin.
        let parts = partition_round_robin(2, shards);
        let builders: Vec<SimBuilder> = parts
            .iter()
            .map(|doms| {
                let doms = doms.clone();
                Box::new(move |sim: &mut Sim| {
                    for d in doms {
                        match d {
                            0 => {
                                let s = build_pinger(sim, 7);
                                sim.wake_app(s, 0);
                            }
                            1 => {
                                build_collector(sim, 7);
                            }
                            _ => unreachable!(),
                        }
                    }
                }) as SimBuilder
            })
            .collect();
        let mut fleet = ShardedSim::new(SimConfig::default(), PROP, builders);
        fleet.run_to_idle();
        // The collector's shard is where domain 1 landed.
        let home = parts.iter().position(|p| p.contains(&1)).expect("domain 1");
        // Node index within the shard: domain 1 is built after domain 0
        // when co-located, so the collector is the last node added.
        let k = if parts[home].len() == 2 { 1 } else { 0 };
        let got = fleet.with_sim(home, move |sim| {
            sim.with_app::<Collector, _>(k, |a| a.got.clone())
        });
        let stats = fleet.sim_stats();
        (got, stats, fleet.sync_stats())
    }

    #[test]
    fn sharded_capture_is_byte_identical_to_serial() {
        let (serial, serial_stats) = serial_run();
        assert_eq!(serial.len(), 20, "all packets arrive");
        for shards in 1..=3 {
            let (sharded, stats, sync) = sharded_run(shards);
            assert_eq!(sharded, serial, "capture diverged at {shards} shards");
            // Every summing counter matches the serial engine exactly.
            assert_eq!(stats.events_processed, serial_stats.events_processed);
            assert_eq!(stats.coalesced_events, serial_stats.coalesced_events);
            assert_eq!(stats.coalesced_packets, serial_stats.coalesced_packets);
            assert_eq!(stats.wire_events_elided, serial_stats.wire_events_elided);
            assert_eq!(stats.remote_bursts, serial_stats.remote_bursts);
            assert_eq!(stats.remote_packets, serial_stats.remote_packets);
            if shards >= 2 {
                assert!(sync.windows > 0, "cross-shard run uses barriers");
                assert_eq!(sync.remote_packets, 20, "every packet crossed shards");
            }
        }
    }

    #[test]
    fn sharded_runs_repeat_bit_identically() {
        let (a, _, _) = sharded_run(2);
        let (b, _, _) = sharded_run(2);
        assert_eq!(a, b);
    }

    #[test]
    fn round_robin_partition_covers_all_domains() {
        let parts = partition_round_robin(5, 2);
        assert_eq!(parts, vec![vec![0, 2, 4], vec![1, 3]]);
        let parts = partition_round_robin(2, 4);
        assert_eq!(parts, vec![vec![0], vec![1], vec![], vec![]]);
    }

    #[test]
    fn merge_sums_counters_and_maxes_peak() {
        let a = SimStats {
            events_processed: 10,
            queue_depth_peak: 4,
            coalesced_events: 2,
            coalesced_packets: 8,
            wire_events_elided: 1,
            remote_bursts: 3,
            remote_packets: 9,
        };
        let b = SimStats {
            events_processed: 5,
            queue_depth_peak: 7,
            coalesced_events: 1,
            coalesced_packets: 2,
            wire_events_elided: 0,
            remote_bursts: 1,
            remote_packets: 4,
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.events_processed, 15);
        assert_eq!(m.queue_depth_peak, 7);
        assert_eq!(m.coalesced_events, 3);
        assert_eq!(m.coalesced_packets, 10);
        assert_eq!(m.wire_events_elided, 1);
        assert_eq!(m.remote_bursts, 4);
        assert_eq!(m.remote_packets, 13);
    }
}
