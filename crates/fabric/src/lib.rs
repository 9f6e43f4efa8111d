//! # choir-fabric
//!
//! A model of the FABRIC testbed's resource layer (paper §2.1): *sites*
//! with finite CPU/RAM/disk and a stock of NIC components, *slices* —
//! "a reservation of virtual and physical resources across the federated
//! environment" — containing *nodes* (VMs) and *network services*
//! connecting them, in the style of the FABlib API the paper's artifact
//! drives (§Appendix A).
//!
//! A [`Slice`] is declared, [`Slice::submit`]ted against a [`Site`]
//! (which enforces capacity, like the real control framework), and the
//! resulting [`ProvisionedSlice`] *materializes* onto the
//! `choir-netsim` simulator: L2 bridges become switches, SmartNIC
//! components become dedicated ports, shared-NIC components become
//! SR-IOV VF ports with contention hooks, and VM nodes inherit
//! virtualization wake jitter.
//!
//! ```
//! use choir_fabric::{NicKind, NodeSpec, Site, Slice};
//!
//! let mut slice = Slice::new("replay-experiment");
//! let a = slice.add_node(NodeSpec::vm("sender", 4, 16).with_nic(NicKind::SmartConnectX6));
//! let b = slice.add_node(NodeSpec::vm("receiver", 4, 16).with_nic(NicKind::SharedVf));
//! let net = slice.add_l2bridge("net1");
//! slice.attach(a, 0, net).unwrap();
//! slice.attach(b, 0, net).unwrap();
//! let provisioned = slice.submit(&mut Site::large("TACC")).unwrap();
//! assert_eq!(provisioned.nodes().len(), 2);
//! ```

pub mod site;
pub mod slice;

pub use site::{AllocError, Site, SiteUsage};
pub use slice::{NicKind, NodeRef, NodeSpec, ProvisionedSlice, ServiceRef, Slice, SliceError};
