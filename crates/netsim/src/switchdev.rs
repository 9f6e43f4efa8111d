//! Switch models.
//!
//! Both evaluation topologies put a single switch between every pair of
//! nodes: locally "a AS9516-32D Tofino2 switch running a simple ingress to
//! egress port forwarding program" (§6), on FABRIC a Cisco 5700 behind the
//! L2Bridge service (§7, §8.1). The model is accordingly simple and
//! faithful: a static ingress→egress port map, per-egress FIFO queues
//! drained at line rate, and a profile-dependent pipeline latency and
//! queue depth — ~400 ns for the Tofino, ~800 ns with a few ns of jitter
//! and deeper buffering for the Cisco. Every frame reaches the switch at
//! its last bit (the engine emits last-bit arrival times), so no profile
//! models cut-through forwarding.

use std::collections::VecDeque;

use choir_dpdk::Mbuf;

use crate::nic::serialization_ps;
use crate::rng::Jitter;

/// Latency/buffering profile of a switch.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SwitchProfile {
    /// Port line rate in bits per second.
    pub line_rate_bps: u64,
    /// Ingress-to-egress processing latency.
    pub latency: Jitter,
    /// Egress queue depth, in packets.
    pub queue_cap: usize,
}

impl SwitchProfile {
    /// A Tofino2-like profile: ~400 ns pipeline.
    pub fn tofino2(line_rate_bps: u64) -> Self {
        SwitchProfile {
            line_rate_bps,
            latency: Jitter::Const(400_000), // 400 ns in ps
            queue_cap: 4096,
        }
    }

    /// A Cisco-5700-like profile: ~800 ns with a few ns of pipeline
    /// jitter, and a deeper egress queue.
    pub fn cisco5700(line_rate_bps: u64) -> Self {
        SwitchProfile {
            line_rate_bps,
            latency: Jitter::Normal {
                mean: 800_000.0,
                sigma: 4_000.0,
            },
            queue_cap: 16384,
        }
    }
}

/// One egress port's state.
#[derive(Debug, Default)]
pub struct EgressPort {
    /// Queued frames awaiting serialization, each with the time its
    /// pipeline (ingress-to-egress) latency elapses.
    pub queue: VecDeque<(u64, Mbuf)>,
    /// Time the port finishes its current transmission (0 = idle).
    pub busy_until_ps: u64,
    /// A service event is scheduled (the engine arms exactly one at a
    /// time; without this flag an arrival landing while the port is
    /// draining its last frame would never be served).
    pub service_armed: bool,
    /// Frames dropped to a full queue.
    pub dropped: u64,
    /// Frames forwarded.
    pub forwarded: u64,
}

/// A switch: static port map plus per-egress queues.
#[derive(Debug)]
pub struct Switch {
    /// Behavioural profile.
    pub profile: SwitchProfile,
    /// `fwd[ingress] = Some(egress)`.
    pub fwd: Vec<Option<usize>>,
    /// Egress state, indexed by port.
    pub egress: Vec<EgressPort>,
}

impl Switch {
    /// A switch with `ports` ports and no forwarding entries.
    pub fn new(ports: usize, profile: SwitchProfile) -> Self {
        Switch {
            profile,
            fwd: vec![None; ports],
            egress: (0..ports).map(|_| EgressPort::default()).collect(),
        }
    }

    /// Install `ingress -> egress` (the paper's port-forwarding program).
    pub fn map(&mut self, ingress: usize, egress: usize) {
        assert!(ingress < self.fwd.len() && egress < self.egress.len());
        self.fwd[ingress] = Some(egress);
    }

    /// Egress serialization time of a frame.
    pub fn serialization_ps(&self, wire_bytes: usize) -> u64 {
        serialization_ps(wire_bytes, self.profile.line_rate_bps)
    }

    /// True when the egress this ingress forwards to is fed by NO other
    /// ingress. Under this single-feeder condition a wire crossing into
    /// `ingress` may be enqueued on its egress queue eagerly at
    /// *transmit* time instead of waiting for a propagation-delay arrival
    /// event: queue order, per-packet `ready` times and thus departure
    /// times are provably unchanged, because no other traffic can
    /// interleave into that queue between transmit and arrival.
    pub fn single_feeder(&self, ingress: usize) -> bool {
        let Some(egress) = self.fwd[ingress] else {
            return true;
        };
        (0..self.fwd.len()).all(|j| j == ingress || self.fwd[j] != Some(egress))
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.fwd.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ_as_documented() {
        let t = SwitchProfile::tofino2(100_000_000_000);
        let c = SwitchProfile::cisco5700(100_000_000_000);
        assert_eq!(t.latency, Jitter::Const(400_000));
        assert!(matches!(c.latency, Jitter::Normal { mean, .. } if mean == 800_000.0));
        assert!(c.queue_cap > t.queue_cap);
    }

    #[test]
    fn forwarding_map() {
        let mut s = Switch::new(4, SwitchProfile::tofino2(100_000_000_000));
        s.map(0, 2);
        s.map(1, 3);
        assert_eq!(s.fwd[0], Some(2));
        assert_eq!(s.fwd[1], Some(3));
        assert_eq!(s.fwd[2], None);
        assert_eq!(s.ports(), 4);
    }

    #[test]
    #[should_panic]
    fn map_out_of_range_panics() {
        let mut s = Switch::new(2, SwitchProfile::tofino2(1));
        s.map(0, 5);
    }

    #[test]
    fn serialization_uses_profile_rate() {
        let s = Switch::new(2, SwitchProfile::tofino2(40_000_000_000));
        assert_eq!(s.serialization_ps(1424), 284_800);
    }
}
