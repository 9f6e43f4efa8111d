//! Topology construction helpers.
//!
//! Both of the paper's testbeds are "everything plugged into one switch"
//! topologies (§6: "All elements were connected through a AS9516-32D
//! Tofino2 switch running a simple ingress to egress port forwarding
//! program"). [`TopologyBuilder`] wraps [`Sim`] with switch-port
//! bookkeeping so an experiment can declare unidirectional paths
//! (`a.port -> switch -> b.port`) without hand-allocating switch ports.

use std::fmt;

use choir_dpdk::PortId;

use crate::engine::{NodeId, Sim};
use crate::switchdev::{Switch, SwitchProfile};

/// Topology construction failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// The switch has no free ports for the requested path.
    OutOfPorts {
        /// Total ports on the switch (all in use).
        capacity: usize,
        /// Ports the rejected request needed.
        requested: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::OutOfPorts {
                capacity,
                requested,
            } => write!(
                f,
                "switch out of ports: {requested} requested, {capacity} total all in use"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Allocates switch ports and wires unidirectional paths.
pub struct TopologyBuilder {
    sw: usize,
    next_port: usize,
    capacity: usize,
}

impl TopologyBuilder {
    /// Create a switch with `ports` ports in `sim`.
    pub fn with_switch(sim: &mut Sim, profile: SwitchProfile, ports: usize, name: &str) -> Self {
        let sw = sim.add_switch(Switch::new(ports, profile), name);
        TopologyBuilder {
            sw,
            next_port: 0,
            capacity: ports,
        }
    }

    /// The switch index in the simulation.
    pub fn switch(&self) -> usize {
        self.sw
    }

    /// Wire a unidirectional path `(a, ap) -> switch -> (b, bp)` using two
    /// fresh switch ports, with `prop_ps` propagation per hop.
    ///
    /// Returns the (ingress, egress) switch ports used, or
    /// [`TopologyError::OutOfPorts`] when the switch cannot supply both —
    /// in which case nothing is wired and no port is consumed.
    pub fn path(
        &mut self,
        sim: &mut Sim,
        a: NodeId,
        ap: PortId,
        b: NodeId,
        bp: PortId,
        prop_ps: u64,
    ) -> Result<(usize, usize), TopologyError> {
        if self.next_port + 2 > self.capacity {
            return Err(TopologyError::OutOfPorts {
                capacity: self.capacity,
                requested: 2,
            });
        }
        let ingress = self.alloc().expect("checked capacity");
        let egress = self.alloc().expect("checked capacity");
        sim.connect_node_switch(a, ap, self.sw, ingress, prop_ps);
        sim.connect_node_switch(b, bp, self.sw, egress, prop_ps);
        sim.switch_map(self.sw, ingress, egress);
        Ok((ingress, egress))
    }

    /// Claim one fresh switch port, or [`TopologyError::OutOfPorts`] when
    /// none remain.
    pub fn alloc(&mut self) -> Result<usize, TopologyError> {
        if self.next_port >= self.capacity {
            return Err(TopologyError::OutOfPorts {
                capacity: self.capacity,
                requested: 1,
            });
        }
        let p = self.next_port;
        self.next_port += 1;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::NodeClock;
    use crate::engine::SimConfig;
    use crate::nic::{NicRxModel, NicTxModel};
    use crate::rng::Jitter;
    use choir_dpdk::{App, Dataplane};

    struct Idle;
    impl App for Idle {
        fn on_wake(&mut self, _dp: &mut dyn Dataplane) {}
    }

    #[test]
    fn paths_allocate_distinct_ports() {
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_node("a", Idle, NodeClock::ideal(1_000_000_000), Jitter::None);
        let b = sim.add_node("b", Idle, NodeClock::ideal(1_000_000_000), Jitter::None);
        let ap = sim.add_port(a, NicTxModel::ideal(100_000_000_000), NicRxModel::ideal());
        let bp = sim.add_port(b, NicTxModel::ideal(100_000_000_000), NicRxModel::ideal());
        let ap2 = sim.add_port(a, NicTxModel::ideal(100_000_000_000), NicRxModel::ideal());
        let bp2 = sim.add_port(b, NicTxModel::ideal(100_000_000_000), NicRxModel::ideal());

        let mut topo = TopologyBuilder::with_switch(
            &mut sim,
            SwitchProfile::tofino2(100_000_000_000),
            8,
            "sw",
        );
        let (i1, e1) = topo
            .path(&mut sim, a, ap, b, bp, 5_000)
            .expect("ports free");
        let (i2, e2) = topo
            .path(&mut sim, b, bp2, a, ap2, 5_000)
            .expect("ports free");
        assert_eq!((i1, e1), (0, 1));
        assert_eq!((i2, e2), (2, 3));
    }

    #[test]
    fn exhausting_ports_is_a_typed_error() {
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_node("a", Idle, NodeClock::ideal(1_000_000_000), Jitter::None);
        let ap = sim.add_port(a, NicTxModel::ideal(1), NicRxModel::ideal());
        let mut topo = TopologyBuilder::with_switch(&mut sim, SwitchProfile::tofino2(1), 1, "sw");
        let err = topo
            .path(&mut sim, a, ap, a, ap, 0)
            .expect_err("1 < 2 ports");
        assert_eq!(
            err,
            TopologyError::OutOfPorts {
                capacity: 1,
                requested: 2
            }
        );
        // A partial request must not consume the remaining port.
        assert_eq!(topo.alloc(), Ok(0));
        assert_eq!(
            topo.alloc(),
            Err(TopologyError::OutOfPorts {
                capacity: 1,
                requested: 1
            })
        );
        let msg = err.to_string();
        assert!(msg.contains("out of ports"), "display: {msg}");
    }
}
