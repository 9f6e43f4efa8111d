//! # choir-netsim
//!
//! A deterministic discrete-event network simulator standing in for the
//! hardware the paper's evaluation ran on: 100 Gbps ConnectX-5/6 and Intel
//! E810 NICs, Tofino2 / Cisco 5700 switches, FABRIC VMs with PTP, and a
//! noisy co-tenant. See DESIGN.md §2 for the substitution rationale.
//!
//! The simulator models, per component:
//!
//! - **Clocks** ([`clock`]): per-node TSC (constant frequency with a ppm
//!   error), a PTP-disciplined wall clock (bounded offset + slow drift —
//!   "synchronizes to within 10s of nanoseconds", paper §6.2), and NIC
//!   receive-timestamp models (E810-style realtime vs ConnectX-style
//!   sampled-clock conversion, paper §8.1).
//! - **NICs** ([`nic`]): transmit descriptor rings, doorbell-to-DMA
//!   latency ("packets are pulled by the NIC through a DMA at a future
//!   time", §2.3), DMA pull batching (back-to-back wire bursts), line-rate
//!   serialization, SR-IOV VF contention from a noisy co-tenant, and
//!   receive rings with overflow drops.
//! - **Switches** ([`switchdev`]): static port-forwarding (the paper's
//!   "simple ingress to egress port forwarding program"), per-egress
//!   queues, cut-through vs store-and-forward latency profiles.
//! - **The engine** ([`engine`]): a picosecond-resolution event queue
//!   hosting [`choir_dpdk::App`]s on nodes, delivering packets, wake-ups
//!   and control messages deterministically (same seed, same run —
//!   bit-for-bit).
//!
//! Everything stochastic draws from per-component seeded streams
//! ([`rng`]), so a simulation is itself a *consistent network* in the
//! paper's sense — a property the test suite asserts with κ = 1.

pub mod clock;
pub mod engine;
pub mod nic;
pub mod ptp;
pub mod rng;
pub mod switchdev;
pub mod time;
pub mod topology;
pub mod wheel;

pub use clock::{NodeClock, PtpModel, TimestampModel};
pub use engine::{NodeId, Sim, SimConfig, SimStats};
pub use wheel::TimingWheel;
pub use nic::{BatchDist, NicRxModel, NicTxModel, SharedVfModel, UtilProcess};
pub use ptp::{PtpClient, PtpGrandmaster};
pub use rng::{DetRng, Jitter};
pub use switchdev::{Switch, SwitchProfile};
pub use time::{MS, NS, PS_PER_SEC, US};
pub use topology::{TopologyBuilder, TopologyError};
