//! Slices: FABRIC's unit of experiment reservation (paper §2.1), and
//! their materialization onto the simulator.
//!
//! "A slice will contain nodes, representing VMs or hardware, and network
//! services, which represent connections between nodes. Users can use an
//! L2 network service, an abstraction that gives the appearance of nodes
//! being directly connected."
//!
//! The lifecycle mirrors FABlib: declare ([`Slice::new`], `add_node`,
//! `add_l2bridge`, `attach`), submit against a site (capacity checks),
//! then build each node's application and wire the topology into a
//! [`choir_netsim::Sim`].

use std::collections::HashMap;

use choir_netsim::clock::{NodeClock, PtpModel};
use choir_netsim::engine::AppAny;
use choir_netsim::nic::{NicRxModel, NicTxModel, SharedVfModel, UtilProcess};
use choir_netsim::rng::{DetRng, Jitter};
use choir_netsim::switchdev::{Switch, SwitchProfile};
use choir_netsim::time::{MS, NS, US};
use choir_netsim::{NodeId, Sim};
use serde::{Deserialize, Serialize};

use crate::site::{AllocError, Site};

/// NIC component kinds offered by FABRIC sites (paper §2.2/§9: most
/// available NICs are shared SR-IOV VFs; ConnectX-5/6 SmartNICs are
/// dedicated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NicKind {
    /// A dedicated ConnectX-6 (100 Gbps) in passthrough.
    SmartConnectX6,
    /// A dedicated ConnectX-5 (100 Gbps).
    SmartConnectX5,
    /// A 100 Gbps SR-IOV virtual function on the shared physical NIC.
    SharedVf,
}

/// A node (VM) specification.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Node name within the slice.
    pub name: String,
    /// vCPU cores.
    pub cores: u32,
    /// RAM in GB (Choir "can run with a minimum of 1 GB", paper §5).
    pub ram_gb: u32,
    /// Disk in GB.
    pub disk_gb: u32,
    /// NIC components, in port order.
    pub nics: Vec<NicKind>,
}

impl NodeSpec {
    /// A VM with the given cores/RAM and 10 GB of disk.
    pub fn vm(name: impl Into<String>, cores: u32, ram_gb: u32) -> Self {
        NodeSpec {
            name: name.into(),
            cores,
            ram_gb,
            disk_gb: 10,
            nics: Vec::new(),
        }
    }

    /// Append a NIC component.
    pub fn with_nic(mut self, kind: NicKind) -> Self {
        self.nics.push(kind);
        self
    }
}

/// Handle to a node within a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef(usize);

/// Handle to a network service within a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceRef(usize);

/// Errors in slice construction or submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SliceError {
    /// The referenced NIC index does not exist on the node.
    NoSuchNic {
        /// Node name.
        node: String,
        /// NIC index requested.
        nic: usize,
    },
    /// The NIC is already attached to a service.
    NicBusy {
        /// Node name.
        node: String,
        /// NIC index.
        nic: usize,
    },
    /// The site rejected the reservation.
    Alloc(AllocError),
}

impl std::fmt::Display for SliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SliceError::NoSuchNic { node, nic } => write!(f, "{node} has no NIC {nic}"),
            SliceError::NicBusy { node, nic } => write!(f, "{node} NIC {nic} already attached"),
            SliceError::Alloc(e) => write!(f, "site rejected reservation: {e}"),
        }
    }
}

impl std::error::Error for SliceError {}

/// A slice under construction.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Slice name.
    pub name: String,
    nodes: Vec<NodeSpec>,
    services: Vec<String>,
    /// (node, nic index, service).
    attachments: Vec<(usize, usize, usize)>,
}

impl Slice {
    /// An empty slice.
    pub fn new(name: impl Into<String>) -> Self {
        Slice {
            name: name.into(),
            nodes: Vec::new(),
            services: Vec::new(),
            attachments: Vec::new(),
        }
    }

    /// Add a node.
    pub fn add_node(&mut self, spec: NodeSpec) -> NodeRef {
        self.nodes.push(spec);
        NodeRef(self.nodes.len() - 1)
    }

    /// Add an L2Bridge network service ("can connect multiple resources
    /// within a site", §7).
    pub fn add_l2bridge(&mut self, name: impl Into<String>) -> ServiceRef {
        self.services.push(name.into());
        ServiceRef(self.services.len() - 1)
    }

    /// Attach a node's NIC to a service.
    pub fn attach(
        &mut self,
        node: NodeRef,
        nic: usize,
        service: ServiceRef,
    ) -> Result<(), SliceError> {
        let spec = &self.nodes[node.0];
        if nic >= spec.nics.len() {
            return Err(SliceError::NoSuchNic {
                node: spec.name.clone(),
                nic,
            });
        }
        if self
            .attachments
            .iter()
            .any(|&(n, p, _)| n == node.0 && p == nic)
        {
            return Err(SliceError::NicBusy {
                node: spec.name.clone(),
                nic,
            });
        }
        self.attachments.push((node.0, nic, service.0));
        Ok(())
    }

    /// Submit against the first site in a federation that can host the
    /// slice (simple first-fit placement, like asking the portal for any
    /// site with free SmartNICs). Returns the index of the chosen site.
    pub fn submit_to_any(
        self,
        federation: &mut [Site],
    ) -> Result<(usize, ProvisionedSlice), SliceError> {
        let mut last_err = SliceError::Alloc(AllocError::SmartNics);
        for (i, site) in federation.iter_mut().enumerate() {
            match self.clone().submit(site) {
                Ok(p) => return Ok((i, p)),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Submit the slice against a site: reserves every resource or fails
    /// without leaking any (all-or-nothing, like the control framework).
    pub fn submit(self, site: &mut Site) -> Result<ProvisionedSlice, SliceError> {
        let mut cores = 0;
        let mut ram = 0;
        let mut disk = 0;
        let mut smart = 0;
        let mut vfs = 0;
        let mut reserve = || -> Result<(), AllocError> {
            for n in &self.nodes {
                site.reserve_compute(n.cores, n.ram_gb, n.disk_gb)?;
                cores += n.cores;
                ram += n.ram_gb;
                disk += n.disk_gb;
                for nic in &n.nics {
                    match nic {
                        NicKind::SmartConnectX5 | NicKind::SmartConnectX6 => {
                            site.reserve_smart_nic()?;
                            smart += 1;
                        }
                        NicKind::SharedVf => {
                            site.reserve_shared_vf()?;
                            vfs += 1;
                        }
                    }
                }
            }
            Ok(())
        };
        match reserve() {
            Ok(()) => Ok(ProvisionedSlice {
                slice: self,
                site_name: site.name.clone(),
                node_ids: HashMap::new(),
            }),
            Err(e) => {
                site.release(cores, ram, disk, smart, vfs);
                Err(SliceError::Alloc(e))
            }
        }
    }
}

/// A slice whose resources are reserved, ready to materialize.
#[derive(Debug)]
pub struct ProvisionedSlice {
    slice: Slice,
    site_name: String,
    node_ids: HashMap<usize, NodeId>,
}

impl ProvisionedSlice {
    /// The node specifications, in `NodeRef` order.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.slice.nodes
    }

    /// The site this slice landed on.
    pub fn site_name(&self) -> &str {
        &self.site_name
    }

    /// Instantiate one node in the simulator with the given application.
    /// VM semantics come for free: a PTP-synchronized clock and
    /// virtualization wake jitter (§2.2/§8.1).
    ///
    /// # Panics
    /// Panics if the node was already built.
    pub fn build_node(
        &mut self,
        sim: &mut Sim,
        node: NodeRef,
        app: impl AppAny + 'static,
        seed: u64,
    ) -> NodeId {
        assert!(!self.node_ids.contains_key(&node.0), "node already built");
        let spec = &self.slice.nodes[node.0];
        let mut rng = DetRng::derive(seed, &["fabric", &self.slice.name, &spec.name]);
        let clock = NodeClock {
            tsc_hz: 2_500_000_000,
            tsc_offset: rng.range_u64(0, 1 << 40),
            freq_error_ppb: rng.range_u64(0, 60) as i64 - 30,
            ptp: PtpModel::sampled(&mut rng, 30.0, 5.0),
        };
        let id = sim.add_node(&spec.name, app, clock, vm_wake_jitter());
        // Ports in NIC order.
        for kind in spec.nics.clone() {
            let (tx, rx) = nic_models(kind, &mut rng);
            sim.add_port(id, tx, rx);
        }
        self.node_ids.insert(node.0, id);
        id
    }

    /// After every node is built, wire each L2 bridge as a switch and
    /// connect the attached NICs. Returns the switch index per service.
    ///
    /// # Panics
    /// Panics if some attached node was not built.
    pub fn wire(&self, sim: &mut Sim) -> Vec<usize> {
        let mut switches = Vec::new();
        for (sidx, sname) in self.slice.services.iter().enumerate() {
            let members: Vec<(usize, usize)> = self
                .slice
                .attachments
                .iter()
                .filter(|&&(_, _, s)| s == sidx)
                .map(|&(n, p, _)| (n, p))
                .collect();
            // FABRIC sites put a Cisco 5700 behind the L2 services (§8.1).
            let sw = sim.add_switch(
                Switch::new(
                    members.len().max(1),
                    SwitchProfile::cisco5700(100_000_000_000),
                ),
                sname,
            );
            for (port_idx, &(n, p)) in members.iter().enumerate() {
                let node_id = *self
                    .node_ids
                    .get(&n)
                    .expect("attached node must be built before wiring");
                sim.connect_node_switch(node_id, p, sw, port_idx, 5 * NS);
            }
            switches.push(sw);
        }
        switches
    }

    /// The simulator node id of a built node.
    pub fn node_id(&self, node: NodeRef) -> Option<NodeId> {
        self.node_ids.get(&node.0).copied()
    }
}

/// VM poll-loop jitter: the §8.1 virtualization overhead.
fn vm_wake_jitter() -> Jitter {
    Jitter::Mix(vec![
        (
            0.93,
            Jitter::Normal {
                mean: 0.0,
                sigma: 25.0 * NS as f64,
            },
        ),
        (
            0.065,
            Jitter::Exp {
                mean: 800.0 * NS as f64,
            },
        ),
        (
            0.005,
            Jitter::Exp {
                mean: 8.0 * US as f64,
            },
        ),
    ])
}

/// NIC models per component kind (mirroring the calibrated testbed
/// profiles; see `choir-testbed::profiles` for the hypotheses).
fn nic_models(kind: NicKind, rng: &mut DetRng) -> (NicTxModel, NicRxModel) {
    let line = 100_000_000_000;
    match kind {
        NicKind::SmartConnectX5 | NicKind::SmartConnectX6 => (
            NicTxModel {
                doorbell: Jitter::Normal {
                    mean: 700.0 * NS as f64,
                    sigma: 50.0 * NS as f64,
                },
                batch: choir_netsim::nic::BatchDist::Geometric { p: 0.62, max: 24 },
                rearm_latency: Jitter::Exp {
                    mean: 600.0 * NS as f64,
                },
                pull_read_latency: Jitter::Exp {
                    mean: 1_600.0 * NS as f64,
                },
                ..NicTxModel::ideal(line)
            },
            NicRxModel::ideal(),
        ),
        NicKind::SharedVf => {
            let _ = rng.f64(); // per-VF placement draw (kept for stream stability)
            (
                NicTxModel {
                    doorbell: Jitter::Normal {
                        mean: 900.0 * NS as f64,
                        sigma: 12.0 * NS as f64,
                    },
                    rearm_latency: Jitter::Exp {
                        mean: 60.0 * NS as f64,
                    },
                    shared: Some(SharedVfModel {
                        util: UtilProcess::new(0.01, 0.05, 0.01, MS),
                        noise_pkt_wire_bytes: 1538,
                        burst_wait_mean_ps: 150.0 * NS as f64,
                        pause: Jitter::Exp {
                            mean: 5.0 * US as f64,
                        },
                        pause_prob: 2e-5,
                    }),
                    ..NicTxModel::ideal(line)
                },
                NicRxModel::ideal(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_slice() -> Slice {
        let mut s = Slice::new("test");
        let a = s.add_node(NodeSpec::vm("a", 4, 16).with_nic(NicKind::SmartConnectX6));
        let b = s.add_node(NodeSpec::vm("b", 4, 16).with_nic(NicKind::SharedVf));
        let net = s.add_l2bridge("net1");
        s.attach(a, 0, net).unwrap();
        s.attach(b, 0, net).unwrap();
        s
    }

    #[test]
    fn attach_validates_nics() {
        let mut s = Slice::new("t");
        let a = s.add_node(NodeSpec::vm("a", 1, 1).with_nic(NicKind::SharedVf));
        let net = s.add_l2bridge("n");
        assert!(matches!(
            s.attach(a, 5, net),
            Err(SliceError::NoSuchNic { nic: 5, .. })
        ));
        s.attach(a, 0, net).unwrap();
        assert!(matches!(
            s.attach(a, 0, net),
            Err(SliceError::NicBusy { .. })
        ));
    }

    #[test]
    fn submit_reserves_and_failure_leaks_nothing() {
        let mut site = Site::large("TACC");
        let p = two_node_slice().submit(&mut site).unwrap();
        assert_eq!(p.nodes().len(), 2);
        assert_eq!(p.site_name(), "TACC");
        assert!(site.usage().cpu > 0.0);

        // A slice too big for a tiny site must roll back completely.
        let mut tiny = Site::new("tiny", 4, 16, 100, 0, 0);
        let err = two_node_slice().submit(&mut tiny).unwrap_err();
        assert!(matches!(err, SliceError::Alloc(_)));
        assert_eq!(tiny.usage().cpu, 0.0, "rollback must release cores");
    }

    #[test]
    fn nic_stock_enforced_at_submit() {
        let mut site = Site::new("one-nic", 64, 256, 1000, 1, 0);
        let mut s = Slice::new("greedy");
        let a = s.add_node(
            NodeSpec::vm("a", 2, 4)
                .with_nic(NicKind::SmartConnectX6)
                .with_nic(NicKind::SmartConnectX6),
        );
        let _ = a;
        let err = s.submit(&mut site).unwrap_err();
        assert_eq!(err, SliceError::Alloc(AllocError::SmartNics));
    }

    #[test]
    fn federation_placement_finds_a_fitting_site() {
        let mut federation = Site::catalog();
        // A slice needing 2 SmartNICs: the small sites (1 each) cannot
        // host it; first fit lands on the first large site.
        let mut s = Slice::new("wide");
        let _ = s.add_node(
            NodeSpec::vm("r", 8, 32)
                .with_nic(NicKind::SmartConnectX6)
                .with_nic(NicKind::SmartConnectX6),
        );
        let (idx, prov) = s.submit_to_any(&mut federation).unwrap();
        assert_eq!(federation[idx].name, "STAR");
        assert_eq!(prov.site_name(), "STAR");
        // The rejected small sites leaked nothing.
        assert_eq!(federation[0].usage().cpu, 0.0);
        assert_eq!(federation[1].usage().cpu, 0.0);
    }

    #[test]
    fn federation_exhaustion_reports_last_error() {
        let mut federation = vec![Site::new("a", 1, 1, 1, 0, 0), Site::new("b", 1, 1, 1, 0, 0)];
        let mut s = Slice::new("big");
        let _ = s.add_node(NodeSpec::vm("x", 64, 256));
        assert!(matches!(
            s.submit_to_any(&mut federation),
            Err(SliceError::Alloc(_))
        ));
    }

    #[test]
    fn errors_display() {
        let e = SliceError::NoSuchNic {
            node: "x".into(),
            nic: 3,
        };
        assert!(e.to_string().contains("NIC 3"));
    }
}
