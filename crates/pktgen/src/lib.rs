//! # choir-pktgen
//!
//! A Pktgen-DPDK-style constant-bit-rate traffic generator, written as a
//! [`choir_dpdk::App`] so it runs on the simulator or the real-time
//! backend. The paper's evaluations use exactly this workload: "the
//! generator created a 40 Gbps stream of 1,400-byte packets" (§6), split
//! across one port per replayer in the parallel topology ("the generator
//! sent traffic out of one port each to two replayers", §6.2).
//!
//! Emission is paced in the TSC domain with exact integer arithmetic: the
//! i-th packet is due at `start_tsc + i·gap·hz/10¹²`, so no rounding error
//! accumulates across a million packets. CBR is the only shape: every
//! gap is the spec's.

use choir_dpdk::{App, Burst, Dataplane, PortId};
use choir_packet::{ChoirTag, FrameBuilder, FrameSpec};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Frame size and aggregate rate (across all ports).
    pub spec: FrameSpec,
    /// Total packets to emit.
    pub count: u64,
    /// Ports to emit on, round-robin. One port = the single-replayer
    /// topology; two = §6.2's parallel topology (each port then carries
    /// half the aggregate rate).
    pub ports: Vec<PortId>,
    /// Source node id baked into headers.
    pub src_node: u32,
    /// Destination node id baked into headers.
    pub dst_node: u32,
    /// Store only headers+trailer per frame, declaring the full length
    /// (memory-frugal; timing-exact). See `choir_packet::Frame::truncated`.
    pub snap_frames: bool,
}

impl GeneratorConfig {
    /// The paper's default workload: `count` packets of 1400 bytes at
    /// `rate_bps` on one port.
    pub fn cbr(rate_bps: u64, count: u64) -> Self {
        GeneratorConfig {
            spec: FrameSpec::new(1400, rate_bps),
            count,
            ports: vec![0],
            src_node: 1,
            dst_node: 2,
            snap_frames: true,
        }
    }
}

/// The generator application.
pub struct Generator {
    cfg: GeneratorConfig,
    builder: FrameBuilder,
    /// Cumulative offset of the pending packet from the start, in ps.
    offset_ps: u128,
    /// Due TSC of the next packet, computed lazily.
    pending: Option<u64>,
    sent: u64,
    start_tsc: Option<u64>,
    tx_buf: Burst,
    /// Packets that could not be enqueued (tx ring full at emission time).
    overruns: u64,
}

impl Generator {
    /// A generator ready to start on its first wake.
    pub fn new(cfg: GeneratorConfig) -> Self {
        assert!(!cfg.ports.is_empty(), "generator needs at least one port");
        let builder = FrameBuilder::new(cfg.spec.frame_len, cfg.src_node, cfg.dst_node);
        Generator {
            builder,
            offset_ps: 0,
            pending: None,
            cfg,
            sent: 0,
            start_tsc: None,
            tx_buf: Burst::new(),
            overruns: 0,
        }
    }

    /// Packets emitted so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// True once every packet has been emitted.
    pub fn done(&self) -> bool {
        self.sent >= self.cfg.count
    }

    /// Emissions rejected by a full transmit ring.
    pub fn overruns(&self) -> u64 {
        self.overruns
    }

    /// Compute (once) the pending packet's due TSC.
    fn ensure_pending(&mut self, start: u64, hz: u64) -> u64 {
        if let Some(due) = self.pending {
            return due;
        }
        if self.sent > 0 {
            self.offset_ps += self.cfg.spec.gap_ps() as u128;
        }
        let due = start + ((self.offset_ps * hz as u128) / 1_000_000_000_000u128) as u64;
        self.pending = Some(due);
        due
    }

    fn build_frame(&self, i: u64) -> choir_packet::Frame {
        if self.cfg.snap_frames {
            // Untagged traffic (the paper's tags are stamped by the
            // replayer), snap-stored. A placeholder trailer keeps frame
            // identities distinct per packet, mirroring real traffic
            // where payloads differ; the replayer overwrites it with the
            // canonical Choir tag while recording.
            self.builder
                .build_tagged_snap(ChoirTag::new(u16::MAX, u16::MAX, i))
        } else {
            self.builder.build_plain()
        }
    }
}

impl App for Generator {
    fn on_wake(&mut self, dp: &mut dyn Dataplane) {
        if self.done() {
            return;
        }
        let hz = dp.tsc_hz();
        let now = dp.tsc();
        let start = *self.start_tsc.get_or_insert(now);
        // Emit everything due; a late wake emits a small catch-up batch,
        // like a real CBR generator loop would.
        while !self.done() {
            let due = self.ensure_pending(start, hz);
            if dp.tsc() < due {
                dp.request_wake_at_tsc(due);
                return;
            }
            self.pending = None;
            let port = self.cfg.ports[(self.sent % self.cfg.ports.len() as u64) as usize];
            let frame = self.build_frame(self.sent);
            match dp.mempool().alloc(frame) {
                Ok(m) => {
                    self.tx_buf.clear();
                    self.tx_buf.push(m).expect("empty burst has room");
                    let sent = dp.tx_burst(port, &mut self.tx_buf);
                    if sent == 0 {
                        self.overruns += 1;
                        self.tx_buf.clear();
                    }
                }
                Err(_) => {
                    self.overruns += 1;
                }
            }
            self.sent += 1;
        }
    }

    fn name(&self) -> &str {
        "choir-pktgen"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choir_dpdk::{Mbuf, Mempool, PortStats};

    /// Minimal manual-time plane recording (port, tsc) of transmissions.
    struct GenPlane {
        pool: Mempool,
        now: u64,
        wake: Option<u64>,
        sent: Vec<(PortId, u64, Mbuf)>,
        reject: bool,
    }

    impl GenPlane {
        fn new() -> Self {
            GenPlane {
                pool: Mempool::new("g", 1 << 16),
                now: 0,
                wake: None,
                sent: Vec::new(),
                reject: false,
            }
        }
        fn run(&mut self, g: &mut Generator, max_iters: usize) {
            let mut iters = 0;
            loop {
                g.on_wake(self);
                match self.wake.take() {
                    Some(t) => self.now = t,
                    None => break,
                }
                iters += 1;
                assert!(iters < max_iters, "generator never finished");
            }
        }
    }

    impl Dataplane for GenPlane {
        fn num_ports(&self) -> usize {
            4
        }
        fn mempool(&self) -> &Mempool {
            &self.pool
        }
        fn rx_burst(&mut self, _p: PortId, out: &mut Burst) -> usize {
            out.clear();
            0
        }
        fn tx_burst(&mut self, p: PortId, burst: &mut Burst) -> usize {
            if self.reject {
                return 0;
            }
            let mut n = 0;
            let now = self.now;
            for m in burst.drain() {
                self.sent.push((p, now, m));
                n += 1;
            }
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
        fn request_wake_at_tsc(&mut self, t: u64) {
            self.wake = Some(self.wake.map_or(t, |w| w.min(t)));
        }
        fn stats(&self, _p: PortId) -> PortStats {
            PortStats::default()
        }
    }

    #[test]
    fn emits_exact_count_at_exact_spacing() {
        let mut dp = GenPlane::new();
        let mut g = Generator::new(GeneratorConfig::cbr(40_000_000_000, 100));
        dp.run(&mut g, 1000);
        assert!(g.done());
        assert_eq!(g.sent(), 100);
        assert_eq!(dp.sent.len(), 100);
        // 40G of 1424 wire bytes: 284.8 ns gap; at 1 GHz TSC the due
        // times alternate 284/285 cycles with zero cumulative drift.
        let times: Vec<u64> = dp.sent.iter().map(|&(_, t, _)| t).collect();
        let total = times.last().unwrap() - times[0];
        assert_eq!(total, (99u128 * 284_800 / 1000) as u64);
        for w in times.windows(2) {
            let gap = w[1] - w[0];
            assert!((284..=285).contains(&gap), "gap {gap}");
        }
    }

    #[test]
    fn round_robin_across_ports() {
        let mut dp = GenPlane::new();
        let mut cfg = GeneratorConfig::cbr(40_000_000_000, 10);
        cfg.ports = vec![0, 2];
        let mut g = Generator::new(cfg);
        dp.run(&mut g, 100);
        let ports: Vec<PortId> = dp.sent.iter().map(|&(p, _, _)| p).collect();
        assert_eq!(ports, vec![0, 2, 0, 2, 0, 2, 0, 2, 0, 2]);
        // Per-port spacing is twice the aggregate spacing (20G each).
        let p0: Vec<u64> = dp
            .sent
            .iter()
            .filter(|&&(p, _, _)| p == 0)
            .map(|&(_, t, _)| t)
            .collect();
        for w in p0.windows(2) {
            let gap = w[1] - w[0];
            assert!((569..=570).contains(&gap), "gap {gap}");
        }
    }

    #[test]
    fn frames_have_declared_full_size() {
        let mut dp = GenPlane::new();
        let mut g = Generator::new(GeneratorConfig::cbr(40_000_000_000, 3));
        dp.run(&mut g, 50);
        for (_, _, m) in &dp.sent {
            assert_eq!(m.frame.orig_len(), 1400);
            assert_eq!(m.frame.wire_len(), 1424);
            assert!(m.frame.len() < 100, "snap frames stay small");
        }
    }

    #[test]
    fn full_frames_when_snap_disabled() {
        let mut dp = GenPlane::new();
        let mut cfg = GeneratorConfig::cbr(40_000_000_000, 2);
        cfg.snap_frames = false;
        let mut g = Generator::new(cfg);
        dp.run(&mut g, 50);
        assert_eq!(dp.sent[0].2.frame.len(), 1400);
    }

    #[test]
    fn overruns_counted_when_ring_rejects() {
        let mut dp = GenPlane::new();
        dp.reject = true;
        let mut g = Generator::new(GeneratorConfig::cbr(40_000_000_000, 5));
        dp.run(&mut g, 50);
        assert_eq!(g.overruns(), 5);
        assert!(g.done());
    }

    #[test]
    fn late_wake_catches_up_without_losing_count() {
        let mut dp = GenPlane::new();
        let mut g = Generator::new(GeneratorConfig::cbr(40_000_000_000, 50));
        g.on_wake(&mut dp);
        dp.wake = None;
        dp.now = 1_000_000; // 1 ms later
        g.on_wake(&mut dp);
        assert!(g.done());
        assert_eq!(dp.sent.len(), 50);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn empty_ports_panics() {
        let mut cfg = GeneratorConfig::cbr(1_000, 1);
        cfg.ports.clear();
        Generator::new(cfg);
    }

    #[test]
    fn paper_rates_packet_counts() {
        // 0.3 s at 40 Gbps -> ~1.053M packets (paper: 1,052,268-1,055,648
        // across trials). Sanity-check the config arithmetic end to end.
        let cfg = GeneratorConfig::cbr(40_000_000_000, 0);
        let pkts = cfg.spec.packets_in(300_000_000_000);
        assert!((1_045_000..1_060_000).contains(&pkts), "{pkts}");
    }
}
