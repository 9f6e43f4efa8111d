//! The discrete-event engine: nodes hosting [`App`]s, NIC ports, switches
//! and links, advanced by a picosecond-resolution event queue.
//!
//! Determinism: the queue orders events by `(time, insertion sequence)`,
//! every random draw comes from a component-labeled [`DetRng`] stream, and
//! apps run single-threaded — so a simulation is a pure function of
//! `(topology, seed, trial index)`. The integration tests assert this by
//! comparing whole captures (κ = 1 between same-seed runs).

use std::any::Any;
use std::collections::VecDeque;

use choir_dpdk::{App, Burst, ControlMsg, Dataplane, Mbuf, Mempool, PortId, PortStats, MAX_BURST};

use choir_obs as obs;

use crate::clock::NodeClock;
use crate::nic::{NicRxModel, NicTxModel};
use crate::rng::{DetRng, Jitter};
use crate::switchdev::Switch;
use crate::wheel::TimingWheel;

/// Index of a node in the simulation.
pub type NodeId = usize;

/// Where a wire terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    /// A node's NIC port.
    NodePort(NodeId, PortId),
    /// A switch's port.
    SwitchPort(usize, usize),
    /// Nothing attached; packets are dropped.
    Unconnected,
}

/// Global simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; all component streams derive from it.
    pub master_seed: u64,
    /// Trial index: processes that physically differ between replay runs
    /// (clock sync, jitter draws) re-roll per trial.
    pub trial: u64,
    /// Packet-buffer pool slots shared by all nodes.
    pub pool_slots: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            master_seed: 0x00C4_0112,
            trial: 0,
            pool_slots: 1 << 22,
        }
    }
}

/// Event-engine counters, surfaced next to experiment results so the
/// cost of a simulation (and how well burst coalescing worked) is
/// visible alongside what it measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events dispatched.
    pub events_processed: u64,
    /// High-water mark of the event-queue depth.
    pub queue_depth_peak: u64,
    /// Delivery events that carried a whole burst.
    pub coalesced_events: u64,
    /// Packets carried inside coalesced events.
    pub coalesced_packets: u64,
    /// Wire crossings that needed no arrival event at all: transmits
    /// into a single-feeder switch ingress enqueue on the egress queue
    /// eagerly at tx time (identical departure times, one event less
    /// per packet).
    pub wire_events_elided: u64,
}

impl SimStats {
    /// Mean packets per coalesced delivery event (0 when none fired).
    pub fn packets_per_event(&self) -> f64 {
        if self.coalesced_events == 0 {
            0.0
        } else {
            self.coalesced_packets as f64 / self.coalesced_events as f64
        }
    }
}

/// [`App`] plus downcasting, so experiments can reach into their apps
/// after (or during) a run.
pub trait AppAny: App {
    /// `&mut self` as `Any` for downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: App + Any> AppAny for T {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

enum Ev {
    AppWake(NodeId),
    AppControl(NodeId, ControlMsg),
    TxPull(NodeId, PortId),
    /// Wire arrival of a burst of one.
    Deliver(Endpoint, Mbuf),
    /// A contiguous wire burst arriving as ONE event: each packet keeps
    /// its own last-bit arrival time, and per-packet fates (drops,
    /// timestamps, RNG draws) are decided inside the event in arrival
    /// order.
    DeliverBurst(Endpoint, Vec<(u64, Mbuf)>),
    SwitchEgress(usize, usize),
}

/// One NIC port's runtime state.
struct PortRuntime {
    tx_model: NicTxModel,
    rx_model: NicRxModel,
    tx_queue: VecDeque<Mbuf>,
    /// A TxPull chain is armed (doorbells need not schedule another).
    tx_armed: bool,
    /// Wire occupied until this time (serializations may not overlap).
    wire_free_at: u64,
    rx_queue: VecDeque<Mbuf>,
    peer: Endpoint,
    prop_ps: u64,
    stats: PortStats,
    tx_rng: DetRng,
    rx_rng: DetRng,
}

struct NodeRuntime {
    name: String,
    app: Option<Box<dyn AppAny>>,
    clock: NodeClock,
    ports: Vec<PortRuntime>,
    /// Earliest already-scheduled wake (dedup); cleared when it fires.
    wake_pending_at: Option<u64>,
    /// Extra wake-delivery delay (VM preemption model).
    wake_jitter: Jitter,
    wake_rng: DetRng,
}

struct SwitchRuntime {
    sw: Switch,
    /// Peer and propagation delay per switch port.
    peers: Vec<(Endpoint, u64)>,
    rng: DetRng,
    /// Per-ingress cache of [`Switch::single_feeder`], maintained by the
    /// topology mutators: when true, transmits into that ingress enqueue
    /// on its egress queue eagerly at tx time and the wire-arrival event
    /// is elided entirely.
    eager: Vec<bool>,
}

/// The simulator.
pub struct Sim {
    cfg: SimConfig,
    now: u64,
    seq: u64,
    queue: TimingWheel<Ev>,
    nodes: Vec<NodeRuntime>,
    switches: Vec<SwitchRuntime>,
    pool: Mempool,
    /// Emptied wire-burst vectors kept for reuse: `tx_pull` and
    /// `switch_egress` take theirs from here, and the hop that consumes
    /// one hands it back, so no hop allocates.
    burst_vecs: Vec<Vec<(u64, Mbuf)>>,
    /// The doorbell list of [`CtxEffects`], reused across polls.
    doorbells: Vec<PortId>,
    events_processed: u64,
    coalesced_events: u64,
    coalesced_packets: u64,
    wire_events_elided: u64,
}

impl Sim {
    /// A new, empty simulation.
    pub fn new(cfg: SimConfig) -> Self {
        let pool = Mempool::new("sim-pool", cfg.pool_slots);
        Sim {
            cfg,
            now: 0,
            seq: 0,
            queue: TimingWheel::new(),
            nodes: Vec::new(),
            switches: Vec::new(),
            pool,
            burst_vecs: Vec::new(),
            doorbells: Vec::new(),
            events_processed: 0,
            coalesced_events: 0,
            coalesced_packets: 0,
            wire_events_elided: 0,
        }
    }

    /// Current simulation time in ps.
    pub fn now_ps(&self) -> u64 {
        self.now
    }

    /// The shared packet pool.
    pub fn pool(&self) -> &Mempool {
        &self.pool
    }

    /// Events handled so far (diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Event-engine counters (queue depth high-water mark, coalescing
    /// effectiveness).
    pub fn sim_stats(&self) -> SimStats {
        SimStats {
            events_processed: self.events_processed,
            queue_depth_peak: self.queue.depth_peak() as u64,
            coalesced_events: self.coalesced_events,
            coalesced_packets: self.coalesced_packets,
            wire_events_elided: self.wire_events_elided,
        }
    }

    /// Add a node hosting `app`. `wake_jitter` models delivery lateness of
    /// wake-ups (VM preemption; use [`Jitter::None`] for bare metal).
    pub fn add_node(
        &mut self,
        name: &str,
        app: impl AppAny + 'static,
        clock: NodeClock,
        wake_jitter: Jitter,
    ) -> NodeId {
        let id = self.nodes.len();
        let wake_rng = DetRng::derive_indexed(
            self.cfg.master_seed,
            &["node", name, "wake"],
            self.cfg.trial,
        );
        self.nodes.push(NodeRuntime {
            name: name.to_string(),
            app: Some(Box::new(app)),
            clock,
            ports: Vec::new(),
            wake_pending_at: None,
            wake_jitter,
            wake_rng,
        });
        id
    }

    /// Attach a NIC port to `node`; returns its [`PortId`].
    pub fn add_port(&mut self, node: NodeId, tx: NicTxModel, rx: NicRxModel) -> PortId {
        let name = self.nodes[node].name.clone();
        let pid = self.nodes[node].ports.len();
        let plabel = format!("port{pid}");
        let tx_rng = DetRng::derive_indexed(
            self.cfg.master_seed,
            &["node", &name, &plabel, "tx"],
            self.cfg.trial,
        );
        let rx_rng = DetRng::derive_indexed(
            self.cfg.master_seed,
            &["node", &name, &plabel, "rx"],
            self.cfg.trial,
        );
        self.nodes[node].ports.push(PortRuntime {
            tx_model: tx,
            rx_model: rx,
            tx_queue: VecDeque::new(),
            tx_armed: false,
            wire_free_at: 0,
            rx_queue: VecDeque::new(),
            peer: Endpoint::Unconnected,
            prop_ps: 0,
            stats: PortStats::default(),
            tx_rng,
            rx_rng,
        });
        pid
    }

    /// Add a switch; returns its index.
    pub fn add_switch(&mut self, sw: Switch, name: &str) -> usize {
        let ports = sw.ports();
        let rng = DetRng::derive_indexed(self.cfg.master_seed, &["switch", name], self.cfg.trial);
        self.switches.push(SwitchRuntime {
            sw,
            peers: vec![(Endpoint::Unconnected, 0); ports],
            rng,
            eager: vec![true; ports],
        });
        self.switches.len() - 1
    }

    /// Connect a node port and a switch port with a link of `prop_ps`
    /// propagation delay (both directions).
    pub fn connect_node_switch(
        &mut self,
        node: NodeId,
        port: PortId,
        sw: usize,
        sport: usize,
        prop_ps: u64,
    ) {
        self.nodes[node].ports[port].peer = Endpoint::SwitchPort(sw, sport);
        self.nodes[node].ports[port].prop_ps = prop_ps;
        self.switches[sw].peers[sport] = (Endpoint::NodePort(node, port), prop_ps);
    }

    /// Connect two node ports directly (a cable).
    pub fn connect_nodes(&mut self, a: NodeId, ap: PortId, b: NodeId, bp: PortId, prop_ps: u64) {
        self.nodes[a].ports[ap].peer = Endpoint::NodePort(b, bp);
        self.nodes[a].ports[ap].prop_ps = prop_ps;
        self.nodes[b].ports[bp].peer = Endpoint::NodePort(a, ap);
        self.nodes[b].ports[bp].prop_ps = prop_ps;
    }

    /// Install a forwarding entry on a switch.
    pub fn switch_map(&mut self, sw: usize, ingress: usize, egress: usize) {
        self.switches[sw].sw.map(ingress, egress);
        self.recompute_eager(sw);
    }

    /// Refresh the per-ingress single-feeder cache after a topology edit.
    fn recompute_eager(&mut self, sw: usize) {
        let s = &mut self.switches[sw];
        for i in 0..s.eager.len() {
            s.eager[i] = s.sw.single_feeder(i);
        }
    }

    /// Deliver an out-of-band control message to a node's app at `at_ps`.
    pub fn send_control(&mut self, node: NodeId, msg: ControlMsg, at_ps: u64) {
        self.schedule(at_ps, Ev::AppControl(node, msg));
    }

    /// Schedule an app wake at `at_ps` (e.g. to start a generator).
    pub fn wake_app(&mut self, node: NodeId, at_ps: u64) {
        self.schedule(at_ps, Ev::AppWake(node));
    }

    /// Port counters.
    pub fn port_stats(&self, node: NodeId, port: PortId) -> PortStats {
        self.nodes[node].ports[port].stats
    }

    /// Egress drop/forward counters of a switch port.
    pub fn switch_egress_stats(&self, sw: usize, port: usize) -> (u64, u64) {
        let e = &self.switches[sw].sw.egress[port];
        (e.forwarded, e.dropped)
    }

    /// Replace a node's PTP synchronization state — the between-run
    /// resync an experiment applies to model servo wander over the
    /// minutes separating replay runs.
    pub fn set_ptp(&mut self, node: NodeId, ptp: crate::clock::PtpModel) {
        self.nodes[node].clock.ptp = ptp;
    }

    /// Re-steer a receive port's timestamp clock: set its residual rate
    /// error and anchor the error at the current simulation time.
    pub fn set_rx_clock_slope(&mut self, node: NodeId, port: PortId, slope_ppb: i64) {
        let p = &mut self.nodes[node].ports[port];
        p.rx_model.clock_slope_ppb = slope_ppb;
        p.rx_model.slope_base_ps = self.now;
    }

    /// Borrow a node's app, downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if the app is not of type `T`.
    pub fn with_app<T: App + 'static, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        let app = self.nodes[node].app.as_mut().expect("app in place");
        let t = app
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("app type mismatch");
        f(t)
    }

    fn schedule(&mut self, t: u64, ev: Ev) {
        let t = t.max(self.now);
        self.queue.push(t, self.seq, ev);
        self.seq += 1;
    }

    /// Run until the queue is empty or `deadline_ps` is reached. Returns
    /// the time the run stopped at.
    pub fn run_until(&mut self, deadline_ps: u64) -> u64 {
        while let Some((t, ev)) = self.queue.pop_due(deadline_ps) {
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.events_processed += 1;
            self.dispatch(ev);
        }
        if deadline_ps != u64::MAX {
            self.now = self.now.max(deadline_ps);
        }
        // Mirror the engine's plain counters into the obs registry once
        // per run, outside the pop loop: the hot path stays untouched and
        // simulated time / RNG streams cannot be perturbed. gauge_set is
        // idempotent, so step-driven callers that re-enter run_until
        // publish the same totals, not doubled ones.
        if obs::is_enabled() {
            obs::gauge_set("sim.events_processed", self.events_processed);
            obs::gauge_set("sim.queue_depth_peak", self.queue.depth_peak() as u64);
            obs::gauge_set("sim.coalesced_events", self.coalesced_events);
            obs::gauge_set("sim.coalesced_packets", self.coalesced_packets);
            obs::gauge_set("sim.wire_events_elided", self.wire_events_elided);
            obs::gauge_set("sim.wheel_overflow_spills", self.queue.overflow_spills());
        }
        self.now
    }

    /// Run until no events remain.
    pub fn run_to_idle(&mut self) -> u64 {
        self.run_until(u64::MAX)
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::AppWake(n) => {
                self.nodes[n].wake_pending_at = None;
                self.poll_app(n, None);
            }
            Ev::AppControl(n, msg) => {
                self.poll_app(n, Some(msg));
            }
            Ev::TxPull(n, p) => self.tx_pull(n, p),
            Ev::Deliver(ep, mbuf) => self.deliver_one(ep, mbuf),
            Ev::DeliverBurst(ep, pkts) => self.deliver_burst(ep, pkts),
            Ev::SwitchEgress(s, p) => self.switch_egress(s, p),
        }
    }

    /// Run the app with a [`Dataplane`] view of its node, then apply the
    /// side effects (doorbells, wake requests).
    fn poll_app(&mut self, n: NodeId, control: Option<ControlMsg>) {
        let mut app = self.nodes[n].app.take().expect("app in place");
        let mut effects = CtxEffects {
            doorbells: std::mem::take(&mut self.doorbells),
            wake_at: None,
        };
        {
            let node = &mut self.nodes[n];
            let mut ctx = NodeCtx {
                now: self.now,
                clock: &node.clock,
                ports: &mut node.ports,
                pool: &self.pool,
                effects: &mut effects,
            };
            match control {
                Some(msg) => app.on_control(&msg, &mut ctx),
                None => app.on_wake(&mut ctx),
            }
        }
        self.nodes[n].app = Some(app);
        self.apply_effects(n, &effects);
        effects.doorbells.clear();
        self.doorbells = effects.doorbells;
    }

    fn apply_effects(&mut self, n: NodeId, effects: &CtxEffects) {
        for &p in &effects.doorbells {
            // Arm the pull chain if this port is idle. Re-arming pays the
            // doorbell latency plus the pull engine's re-arm latency.
            let port = &mut self.nodes[n].ports[p];
            if !port.tx_armed && !port.tx_queue.is_empty() {
                port.tx_armed = true;
                let delay = port.tx_model.doorbell.sample_delay(&mut port.tx_rng)
                    + port.tx_model.rearm_latency.sample_delay(&mut port.tx_rng)
                    + port
                        .tx_model
                        .pull_read_latency
                        .sample_delay(&mut port.tx_rng);
                let at = self.now + delay;
                self.schedule(at, Ev::TxPull(n, p));
            }
        }
        if let Some(t) = effects.wake_at {
            let node = &mut self.nodes[n];
            let jitter = node.wake_jitter.sample_delay(&mut node.wake_rng);
            self.schedule_wake(n, t.max(self.now) + jitter);
        }
    }

    /// Emit a contiguous wire burst toward `ep`. Each packet carries its
    /// own last-bit arrival time; times are non-decreasing.
    ///
    /// Coalescing rules (DESIGN.md §10): a multi-packet burst becomes one
    /// [`Ev::DeliverBurst`], a burst of one an [`Ev::Deliver`] at its own
    /// arrival. Switch-bound bursts fire at the FIRST
    /// arrival (cut-through into the egress pipeline, per-packet ready
    /// times preserved); node-bound bursts fire at the LAST arrival (NIC
    /// interrupt coalescing — packets become visible to the app together,
    /// while their hardware rx timestamps keep per-packet arrival times).
    fn emit_wire(&mut self, ep: Endpoint, mut pkts: Vec<(u64, Mbuf)>) {
        if pkts.len() > 1 {
            let at = match ep {
                Endpoint::SwitchPort(..) => pkts.first().expect("non-empty").0,
                _ => pkts.last().expect("non-empty").0,
            };
            self.coalesced_events += 1;
            self.coalesced_packets += pkts.len() as u64;
            self.schedule(at, Ev::DeliverBurst(ep, pkts));
        } else {
            for (at, m) in pkts.drain(..) {
                self.schedule(at, Ev::Deliver(ep, m));
            }
            self.burst_vecs.push(pkts);
        }
    }

    /// An empty wire-burst vector, recycled when one is free.
    fn take_burst_vec(&mut self) -> Vec<(u64, Mbuf)> {
        self.burst_vecs.pop().unwrap_or_default()
    }

    /// One DMA pull: take a batch of descriptors and serialize them onto
    /// the wire back-to-back.
    fn tx_pull(&mut self, n: NodeId, p: PortId) {
        let port = &mut self.nodes[n].ports[p];
        if port.tx_queue.is_empty() {
            port.tx_armed = false;
            return;
        }
        // Collect scheduling decisions first, then emit events.
        let mut deliveries = self.take_burst_vec();
        let peer;
        let next_pull;
        {
            let port = &mut self.nodes[n].ports[p];
            // Under backlog the engine fetches a full cap's worth of
            // descriptors per read; at light occupancy the sampled pull
            // pattern applies. (A TxPull event fires when a descriptor
            // read *completes*; the next read is issued immediately,
            // pipelined with serialization.)
            let cap = port.tx_model.batch.cap();
            let sampled = port.tx_model.batch.sample(&mut port.tx_rng).max(1);
            let batch = if port.tx_queue.len() >= cap {
                cap
            } else {
                sampled
            };
            let mut t = self.now.max(port.wire_free_at);
            if let Some(shared) = port.tx_model.shared.as_mut() {
                t += shared.contention_wait_ps(
                    self.now,
                    port.tx_model.line_rate_bps,
                    &mut port.tx_rng,
                );
            }
            peer = port.peer;
            let prop = port.prop_ps;
            for _ in 0..batch {
                let Some(m) = port.tx_queue.pop_front() else {
                    break;
                };
                let ser = port.tx_model.serialization_ps(m.frame.wire_len());
                t += ser;
                port.stats.on_tx(1, m.len() as u64);
                deliveries.push((t + prop, m));
            }
            port.wire_free_at = t;
            if port.tx_queue.is_empty() {
                port.tx_armed = false;
                next_pull = None;
            } else {
                // The next descriptor read is issued now and completes
                // after the read latency, concurrently with the wire
                // draining this pull's packets. Only idle re-arms pay the
                // doorbell/re-arm latency (see apply_effects).
                let read = port
                    .tx_model
                    .pull_read_latency
                    .sample_delay(&mut port.tx_rng);
                next_pull = Some(self.now + read);
            }
        }
        // Cut-through into a single-feeder switch ingress: the egress
        // queues see exactly the entries, order and `ready` times an
        // arrival event would have produced, so skip the event.
        let eager = match peer {
            Endpoint::SwitchPort(sw, ing) if self.switches[sw].eager[ing] => Some((sw, ing)),
            _ => None,
        };
        if let Some((sw, ing)) = eager {
            self.wire_events_elided += deliveries.len() as u64;
            self.switch_ingress(sw, ing, deliveries.drain(..));
            self.burst_vecs.push(deliveries);
        } else {
            self.emit_wire(peer, deliveries);
        }
        if let Some(at) = next_pull {
            self.schedule(at, Ev::TxPull(n, p));
        }
    }

    /// Frames enter a switch at `ingress`, each at its own arrival time.
    /// An ingress with no forwarding entry drops, like a real blank
    /// program. Per-packet pipeline latency draws and queue pushes stay in
    /// arrival order.
    fn switch_ingress(
        &mut self,
        s: usize,
        ingress: usize,
        pkts: impl IntoIterator<Item = (u64, Mbuf)>,
    ) {
        let Some(egress) = self.switches[s].sw.fwd[ingress] else {
            return;
        };
        for (at, m) in pkts {
            self.enqueue_switch_egress(s, egress, m, at);
        }
    }

    /// NIC receive admission of one frame whose last bit arrived at `at`:
    /// drop draw, ring check, then the hardware rx timestamp — which
    /// reflects the true per-packet wire arrival even when software
    /// visibility is coalesced to the end of a burst. Returns whether the
    /// frame reached the rx ring.
    fn nic_admit(port: &mut PortRuntime, mut m: Mbuf, at: u64) -> bool {
        if port.rx_model.drop_prob > 0.0 && port.rx_rng.chance(port.rx_model.drop_prob) {
            port.stats.on_rx_drop(1);
            return false;
        }
        if port.rx_queue.len() >= port.rx_model.ring_cap {
            port.stats.on_rx_drop(1);
            return false;
        }
        let t_eff = port.rx_model.slope_adjusted_ps(at);
        m.rx_ts_ps = Some(port.rx_model.timestamp.stamp(t_eff, &mut port.rx_rng));
        port.rx_queue.push_back(m);
        true
    }

    /// Wake node `n`'s app at `wake_at` unless an earlier wake is pending.
    fn schedule_wake(&mut self, n: NodeId, wake_at: u64) {
        let node = &mut self.nodes[n];
        let redundant = node.wake_pending_at.is_some_and(|w| w <= wake_at);
        if !redundant {
            node.wake_pending_at = Some(wake_at);
            self.schedule(wake_at, Ev::AppWake(n));
        }
    }

    /// A coalesced wire burst arrives at an endpoint. Per-packet fates
    /// (drops, timestamps, switch pipeline latencies) are decided inside
    /// this one event, in arrival order.
    ///
    /// Node-bound bursts model NIC interrupt coalescing faithfully: every
    /// packet keeps its own hardware rx timestamp and ring-drop fate, but
    /// the burst raises ONE interrupt — a single delivery-latency draw
    /// anchored at the first arrival, drawn whatever was admitted, and one
    /// wake if anything was.
    fn deliver_burst(&mut self, ep: Endpoint, mut pkts: Vec<(u64, Mbuf)>) {
        obs::event("sim.burst_delivered", pkts.len() as u64, self.now);
        match ep {
            Endpoint::Unconnected => pkts.clear(), // black hole
            Endpoint::SwitchPort(s, ingress) => self.switch_ingress(s, ingress, pkts.drain(..)),
            Endpoint::NodePort(n, p) => {
                let first_arrival = pkts.first().map_or(self.now, |&(at, _)| at);
                let port = &mut self.nodes[n].ports[p];
                let mut delivered = false;
                for (at, m) in pkts.drain(..) {
                    delivered |= Self::nic_admit(port, m, at);
                }
                let wake_at = (first_arrival
                    + port.rx_model.deliver_latency.sample_delay(&mut port.rx_rng))
                .max(self.now);
                if delivered {
                    self.schedule_wake(n, wake_at);
                }
            }
        }
        self.burst_vecs.push(pkts);
    }

    /// A burst of one: the packet's last bit arrives at an endpoint now.
    /// Unlike a coalesced burst, the delivery latency is drawn only if
    /// the packet was admitted.
    fn deliver_one(&mut self, ep: Endpoint, mbuf: Mbuf) {
        match ep {
            Endpoint::Unconnected => { /* black hole */ }
            Endpoint::SwitchPort(s, ingress) => {
                self.switch_ingress(s, ingress, [(self.now, mbuf)]);
            }
            Endpoint::NodePort(n, p) => {
                let port = &mut self.nodes[n].ports[p];
                if !Self::nic_admit(port, mbuf, self.now) {
                    return;
                }
                let wake_at =
                    self.now + port.rx_model.deliver_latency.sample_delay(&mut port.rx_rng);
                self.schedule_wake(n, wake_at);
            }
        }
    }

    /// Queue a frame on a switch egress port (paying its own pipeline
    /// latency from its `arrival` time) and arm service if needed.
    fn enqueue_switch_egress(&mut self, s: usize, egress: usize, mbuf: Mbuf, arrival: u64) {
        let swr = &mut self.switches[s];
        // Every frame pays its own pipeline latency; serialization order
        // is FIFO from the egress queue.
        let lat = swr.sw.profile.latency.sample_delay(&mut swr.rng);
        let eq = &mut swr.sw.egress[egress];
        if eq.queue.len() >= swr.sw.profile.queue_cap {
            eq.dropped += 1;
            return;
        }
        let ready = arrival + lat;
        eq.queue.push_back((ready, mbuf));
        if !eq.service_armed {
            eq.service_armed = true;
            let at = ready.max(eq.busy_until_ps);
            self.schedule(at, Ev::SwitchEgress(s, egress));
        }
    }

    /// Serve frames from a switch egress queue, up to [`MAX_BURST`] of
    /// them in one event. The FIFO recurrence `start = max(now,
    /// busy_until, ready)` yields departure times identical to
    /// one-frame-per-event serving — frames enqueued after this event
    /// would join behind and see the same `busy_until` either way, and
    /// egress serving draws no RNG (pipeline latency is drawn at
    /// enqueue), so draw order is unaffected.
    fn switch_egress(&mut self, s: usize, p: usize) {
        let eq = &mut self.switches[s].sw.egress[p];
        let Some(&(ready, _)) = eq.queue.front() else {
            eq.service_armed = false;
            return;
        };
        // The head frame's pipeline latency may not have elapsed yet;
        // come back when it has.
        let head_start = self.now.max(eq.busy_until_ps).max(ready);
        if head_start > self.now {
            self.schedule(head_start, Ev::SwitchEgress(s, p));
            return;
        }
        let mut out = self.take_burst_vec();
        let peer;
        let next_service;
        {
            let swr = &mut self.switches[s];
            let rate = swr.sw.profile.line_rate_bps;
            let eq = &mut swr.sw.egress[p];
            let prop;
            (peer, prop) = swr.peers[p];
            while out.len() < MAX_BURST {
                let Some(&(ready, _)) = eq.queue.front() else {
                    break;
                };
                let start = self.now.max(eq.busy_until_ps).max(ready);
                let (_, m) = eq.queue.pop_front().expect("peeked");
                let ser = crate::nic::serialization_ps(m.frame.wire_len(), rate);
                let depart = start + ser;
                eq.busy_until_ps = depart;
                eq.forwarded += 1;
                out.push((depart + prop, m));
            }
            next_service = eq.queue.front().map(|&(r, _)| eq.busy_until_ps.max(r));
            eq.service_armed = next_service.is_some();
        }
        self.emit_wire(peer, out);
        if let Some(at) = next_service {
            self.schedule(at, Ev::SwitchEgress(s, p));
        }
    }
}

/// Side effects an app produces during one poll.
struct CtxEffects {
    /// Ports whose tx ring received packets (doorbell rang).
    doorbells: Vec<PortId>,
    /// Earliest requested wake time (sim ps).
    wake_at: Option<u64>,
}

/// The [`Dataplane`] view an app sees while being polled.
struct NodeCtx<'a> {
    now: u64,
    clock: &'a NodeClock,
    ports: &'a mut [PortRuntime],
    pool: &'a Mempool,
    effects: &'a mut CtxEffects,
}

impl Dataplane for NodeCtx<'_> {
    fn num_ports(&self) -> usize {
        self.ports.len()
    }

    fn mempool(&self) -> &Mempool {
        self.pool
    }

    fn rx_burst(&mut self, port: PortId, out: &mut Burst) -> usize {
        out.clear();
        let p = &mut self.ports[port];
        let mut n = 0;
        while n < MAX_BURST {
            match p.rx_queue.pop_front() {
                Some(m) => {
                    p.stats.on_rx(1, m.len() as u64);
                    out.push(m).expect("burst capacity");
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    fn tx_burst(&mut self, port: PortId, burst: &mut Burst) -> usize {
        let p = &mut self.ports[port];
        let room = p.tx_model.ring_cap.saturating_sub(p.tx_queue.len());
        let take = room.min(burst.len());
        for m in burst.drain_front(take) {
            p.tx_queue.push_back(m);
        }
        if take > 0 && !self.effects.doorbells.contains(&port) {
            self.effects.doorbells.push(port);
        }
        // Packets that did not fit remain in `burst`; the caller retries
        // or drops them, exactly like a full DPDK descriptor ring.
        take
    }

    fn tsc(&self) -> u64 {
        self.clock.tsc_at(self.now)
    }

    fn tsc_hz(&self) -> u64 {
        self.clock.tsc_hz
    }

    fn wall_ns(&self) -> u64 {
        self.clock.wall_ns_at(self.now)
    }

    fn request_wake_at_tsc(&mut self, tsc: u64) {
        let t = self.clock.time_of_tsc(tsc);
        self.effects.wake_at = Some(match self.effects.wake_at {
            Some(w) => w.min(t),
            None => t,
        });
    }

    fn stats(&self, port: PortId) -> PortStats {
        self.ports[port].stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TimestampModel;
    use crate::nic::BatchDist;
    use crate::switchdev::SwitchProfile;
    use crate::time::{NS, US};
    use choir_packet::{ChoirTag, FrameBuilder};

    /// Emits `count` tagged packets at a fixed gap, one per wake.
    struct Sender {
        builder: FrameBuilder,
        gap_cycles: u64,
        count: u64,
        sent: u64,
        start_tsc: Option<u64>,
        port: PortId,
    }

    impl Sender {
        fn new(count: u64, gap_cycles: u64) -> Self {
            Sender {
                builder: FrameBuilder::new(1400, 1, 2),
                gap_cycles,
                count,
                sent: 0,
                start_tsc: None,
                port: 0,
            }
        }
    }

    impl App for Sender {
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
            dp.tx_burst(self.port, &mut b);
            self.sent += 1;
            if self.sent < self.count {
                dp.request_wake_at_tsc(start + self.sent * self.gap_cycles);
            }
        }
    }

    /// Collects (seq, rx timestamp) of everything it receives.
    struct Sink {
        got: Vec<(u64, u64)>,
        buf: Burst,
    }

    impl Sink {
        fn new() -> Self {
            Sink {
                got: Vec::new(),
                buf: Burst::new(),
            }
        }
    }

    impl App for Sink {
        fn on_wake(&mut self, dp: &mut dyn Dataplane) {
            loop {
                let mut buf = std::mem::take(&mut self.buf);
                let n = dp.rx_burst(0, &mut buf);
                for m in buf.drain() {
                    let seq = m.frame.tag().map(|t| t.seq).unwrap_or(u64::MAX);
                    self.got.push((seq, m.rx_ts_ps.expect("stamped")));
                }
                self.buf = buf;
                if n == 0 {
                    break;
                }
            }
        }
    }

    fn ideal_clock() -> NodeClock {
        NodeClock::ideal(1_000_000_000) // 1 GHz: 1 cycle = 1 ns
    }

    fn direct_pair(sim: &mut Sim, tx: NicTxModel, rx: NicRxModel) -> (NodeId, NodeId) {
        let s = sim.add_node(
            "sender",
            Sender::new(10, 1_000),
            ideal_clock(),
            Jitter::None,
        );
        let k = sim.add_node("sink", Sink::new(), ideal_clock(), Jitter::None);
        let sp = sim.add_port(s, tx, NicRxModel::ideal());
        let kp = sim.add_port(k, NicTxModel::ideal(100_000_000_000), rx);
        sim.connect_nodes(s, sp, k, kp, 5 * NS);
        (s, k)
    }

    #[test]
    fn direct_link_delivers_everything_in_order() {
        let mut sim = Sim::new(SimConfig::default());
        let (s, k) = direct_pair(
            &mut sim,
            NicTxModel::ideal(100_000_000_000),
            NicRxModel::ideal(),
        );
        sim.wake_app(s, 0);
        sim.run_to_idle();
        let got = sim.with_app::<Sink, _>(k, |a| a.got.clone());
        assert_eq!(got.len(), 10);
        let seqs: Vec<u64> = got.iter().map(|&(s, _)| s).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
        // Timestamps strictly increasing.
        assert!(got.windows(2).all(|w| w[0].1 < w[1].1));
        assert_eq!(sim.port_stats(s, 0).tx_packets, 10);
        assert_eq!(sim.port_stats(k, 0).rx_packets, 10);
    }

    #[test]
    fn cbr_gaps_are_exact_with_ideal_models() {
        let mut sim = Sim::new(SimConfig::default());
        let (s, k) = direct_pair(
            &mut sim,
            NicTxModel::ideal(100_000_000_000),
            NicRxModel::ideal(),
        );
        sim.wake_app(s, 0);
        sim.run_to_idle();
        let got = sim.with_app::<Sink, _>(k, |a| a.got.clone());
        // 1 us spacing at the sender; ideal NICs preserve it exactly
        // (timestamps quantized to ns).
        let gaps: Vec<u64> = got.windows(2).map(|w| w[1].1 - w[0].1).collect();
        assert!(gaps.iter().all(|&g| g == US), "gaps {gaps:?}");
        let _ = s;
    }

    /// Enqueues `count` packets in a single tx_burst on its first wake.
    struct BulkSender {
        builder: FrameBuilder,
        count: u64,
        done: bool,
    }

    impl App for BulkSender {
        fn on_wake(&mut self, dp: &mut dyn Dataplane) {
            if self.done {
                return;
            }
            self.done = true;
            let mut b = Burst::new();
            for i in 0..self.count {
                let m = dp
                    .mempool()
                    .alloc(self.builder.build_tagged_snap(ChoirTag::new(1, 0, i)))
                    .unwrap();
                b.push(m).unwrap();
            }
            dp.tx_burst(0, &mut b);
            assert!(b.is_empty(), "ring must accept the whole burst");
        }
    }

    #[test]
    fn chained_pulls_bunch_packets_back_to_back() {
        let mut sim = Sim::new(SimConfig::default());
        // All 10 descriptors are enqueued at once; the pull engine pays
        // its re-arm latency once, then chained pulls emit everything
        // back-to-back at line rate.
        let s = sim.add_node(
            "sender",
            BulkSender {
                builder: FrameBuilder::new(1400, 1, 2),
                count: 10,
                done: false,
            },
            ideal_clock(),
            Jitter::None,
        );
        let k = sim.add_node("sink", Sink::new(), ideal_clock(), Jitter::None);
        let tx = NicTxModel {
            batch: BatchDist::Fixed(5),
            rearm_latency: Jitter::Const(2 * US as i64),
            ..NicTxModel::ideal(100_000_000_000)
        };
        let sp = sim.add_port(s, tx, NicRxModel::ideal());
        let kp = sim.add_port(k, NicTxModel::ideal(100_000_000_000), NicRxModel::ideal());
        sim.connect_nodes(s, sp, k, kp, 0);
        sim.wake_app(s, 0);
        sim.run_to_idle();
        let got = sim.with_app::<Sink, _>(k, |a| a.got.clone());
        assert_eq!(got.len(), 10);
        // The re-arm latency delays the first packet...
        assert!(got[0].1 >= 2 * US, "first arrival {}", got[0].1);
        // ...and every gap is plain serialization spacing (113.92 ns,
        // ns-quantized) because chained pulls run back-to-back.
        let ser = 114 * NS;
        let gaps: Vec<u64> = got.windows(2).map(|w| w[1].1 - w[0].1).collect();
        for (i, &g) in gaps.iter().enumerate() {
            assert!(g <= ser + NS && g >= ser - 2 * NS, "gap {i}: {g}");
        }
    }

    #[test]
    fn switch_path_forwards_with_latency() {
        let mut sim = Sim::new(SimConfig::default());
        let s = sim.add_node("sender", Sender::new(5, 1_000), ideal_clock(), Jitter::None);
        let k = sim.add_node("sink", Sink::new(), ideal_clock(), Jitter::None);
        let sp = sim.add_port(s, NicTxModel::ideal(100_000_000_000), NicRxModel::ideal());
        let kp = sim.add_port(k, NicTxModel::ideal(100_000_000_000), NicRxModel::ideal());
        let sw = sim.add_switch(
            Switch::new(2, SwitchProfile::tofino2(100_000_000_000)),
            "sw0",
        );
        sim.connect_node_switch(s, sp, sw, 0, 5 * NS);
        sim.connect_node_switch(k, kp, sw, 1, 5 * NS);
        sim.switch_map(sw, 0, 1);
        sim.wake_app(s, 0);
        sim.run_to_idle();
        let got = sim.with_app::<Sink, _>(k, |a| a.got.clone());
        assert_eq!(got.len(), 5);
        assert_eq!(sim.switch_egress_stats(sw, 1), (5, 0));
        // First arrival: sender serialization (113.92ns) + 5ns prop +
        // 400ns switch latency + egress serialization + 5ns prop.
        let expect = 113_920 + 5 * NS + 400 * NS + 113_920 + 5 * NS;
        let t0 = got[0].1;
        assert!(
            t0 >= expect - 2 * NS && t0 <= expect + 2 * NS,
            "t0 = {t0}, expect ~{expect}"
        );
    }

    #[test]
    fn rx_ring_overflow_drops() {
        let mut sim = Sim::new(SimConfig::default());
        // Sink never woken before all packets arrive? It is woken per
        // delivery, which drains the queue — so instead use a tiny ring
        // and deliver a burst while the app cannot run: achieve this by
        // setting deliver_latency large so wakes arrive after all
        // deliveries.
        let rx = NicRxModel {
            ring_cap: 4,
            deliver_latency: Jitter::Const(1_000_000_000), // 1 ms
            ..NicRxModel::ideal()
        };
        let (s, k) = direct_pair(&mut sim, NicTxModel::ideal(100_000_000_000), rx);
        sim.wake_app(s, 0);
        sim.run_to_idle();
        let got = sim.with_app::<Sink, _>(k, |a| a.got.clone());
        assert_eq!(got.len(), 4);
        assert_eq!(sim.port_stats(k, 0).rx_dropped, 6);
        let _ = s;
    }

    #[test]
    fn probabilistic_rx_drops() {
        let mut sim = Sim::new(SimConfig::default());
        let rx = NicRxModel {
            drop_prob: 1.0,
            ..NicRxModel::ideal()
        };
        let (s, k) = direct_pair(&mut sim, NicTxModel::ideal(100_000_000_000), rx);
        sim.wake_app(s, 0);
        sim.run_to_idle();
        assert_eq!(sim.with_app::<Sink, _>(k, |a| a.got.len()), 0);
        assert_eq!(sim.port_stats(k, 0).rx_dropped, 10);
        let _ = s;
    }

    #[test]
    fn same_seed_same_capture_different_trial_differs() {
        let run = |trial: u64| {
            let mut sim = Sim::new(SimConfig {
                trial,
                ..SimConfig::default()
            });
            let tx = NicTxModel {
                doorbell: Jitter::Normal {
                    mean: 300_000.0,
                    sigma: 30_000.0,
                },
                ..NicTxModel::ideal(100_000_000_000)
            };
            let rx = NicRxModel {
                timestamp: TimestampModel::HwRealtime {
                    noise: Jitter::Normal {
                        mean: 0.0,
                        sigma: 4_000.0,
                    },
                },
                ..NicRxModel::ideal()
            };
            let (s, k) = direct_pair(&mut sim, tx, rx);
            sim.wake_app(s, 0);
            sim.run_to_idle();
            sim.with_app::<Sink, _>(k, |a| a.got.clone())
        };
        let a1 = run(0);
        let a2 = run(0);
        let b = run(1);
        assert_eq!(a1, a2, "same trial must be bit-identical");
        assert_ne!(a1, b, "different trials must re-roll jitter");
    }

    #[test]
    fn wake_jitter_delays_delivery() {
        let mut sim = Sim::new(SimConfig::default());
        let s = sim.add_node(
            "sender",
            Sender::new(1, 1_000),
            ideal_clock(),
            Jitter::Const(7 * US as i64), // every wake 7 us late
        );
        let k = sim.add_node("sink", Sink::new(), ideal_clock(), Jitter::None);
        let sp = sim.add_port(s, NicTxModel::ideal(100_000_000_000), NicRxModel::ideal());
        let kp = sim.add_port(k, NicTxModel::ideal(100_000_000_000), NicRxModel::ideal());
        sim.connect_nodes(s, sp, k, kp, 0);
        // The explicit wake_app is not jittered (it is an external kick),
        // but the sender immediately sends on first wake, so use the
        // requested-wake path: ask for a wake first.
        sim.wake_app(s, 0);
        sim.run_to_idle();
        let got = sim.with_app::<Sink, _>(k, |a| a.got.clone());
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn unconnected_port_blackholes() {
        let mut sim = Sim::new(SimConfig::default());
        let s = sim.add_node("sender", Sender::new(3, 1_000), ideal_clock(), Jitter::None);
        let _sp = sim.add_port(s, NicTxModel::ideal(100_000_000_000), NicRxModel::ideal());
        sim.wake_app(s, 0);
        sim.run_to_idle();
        assert_eq!(sim.port_stats(s, 0).tx_packets, 3);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new(SimConfig::default());
        let (s, k) = direct_pair(
            &mut sim,
            NicTxModel::ideal(100_000_000_000),
            NicRxModel::ideal(),
        );
        sim.wake_app(s, 0);
        // 10 packets at 1 us spacing: stop after ~3.5 us.
        sim.run_until(3_500_000);
        let early = sim.with_app::<Sink, _>(k, |a| a.got.len());
        assert!(early < 10, "got {early}");
        assert_eq!(sim.now_ps(), 3_500_000);
        sim.run_to_idle();
        assert_eq!(sim.with_app::<Sink, _>(k, |a| a.got.len()), 10);
    }

    #[test]
    fn control_messages_reach_apps() {
        struct CtrlSpy {
            got: Vec<ControlMsg>,
        }
        impl App for CtrlSpy {
            fn on_wake(&mut self, _dp: &mut dyn Dataplane) {}
            fn on_control(&mut self, msg: &ControlMsg, _dp: &mut dyn Dataplane) {
                self.got.push(*msg);
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        let n = sim.add_node(
            "spy",
            CtrlSpy { got: Vec::new() },
            ideal_clock(),
            Jitter::None,
        );
        sim.send_control(n, ControlMsg::StartRecord, 1_000);
        sim.send_control(n, ControlMsg::StopRecord, 2_000);
        sim.run_to_idle();
        let got = sim.with_app::<CtrlSpy, _>(n, |a| a.got.clone());
        assert_eq!(got, vec![ControlMsg::StartRecord, ControlMsg::StopRecord]);
    }
}
