//! # choir-dpdk
//!
//! A miniature user-space dataplane with DPDK-like semantics. The original
//! Choir is "a 850-line C program using DPDK as the only library" (paper
//! §5); this crate supplies the slice of DPDK that program relies on, so
//! the Rust port of Choir (`choir-core::replay`) can be written against the
//! same concepts:
//!
//! - [`Mempool`] / [`Mbuf`] — fixed-capacity message-buffer pools. Cloning
//!   an [`Mbuf`] bumps a refcount; holding transmitted packets for a
//!   recording consumes pool slots but copies nothing (paper §4).
//! - [`Burst`] — up-to-64-packet transmit/receive bursts (paper §5:
//!   "transmits packets in up to 64-packet bursts").
//! - [`SpscRing`] — a lock-free single-producer/single-consumer descriptor
//!   ring, the building block of the real-time backend.
//! - [`Dataplane`] — the trait apps poll: `rx_burst`/`tx_burst`, TSC reads,
//!   a PTP-disciplined wall clock, and wake-up scheduling. Implemented by
//!   the simulator (`choir-netsim`) and by the in-process real-time
//!   [`loopback`] backend; [`FaultyDataplane`] decorates either, and the
//!   deterministic [`ScriptPlane`] stands in for both in tests.
//!
//! Like DPDK, `tx_burst` is only a *notification*: buffers handed to the
//! NIC are pulled by DMA at a later time (paper §2.3), which both backends
//! model.

pub mod burst;
pub mod fault;
pub mod loopback;
pub mod mbuf;
pub mod plane;
pub mod ring;
pub mod script;
pub mod stats;

pub use burst::{Burst, MAX_BURST};
pub use fault::{FaultConfig, FaultStats, FaultyDataplane};
pub use mbuf::{Mbuf, Mempool, PoolExhausted};
pub use plane::{App, ControlMsg, Dataplane, PortId};
pub use ring::SpscRing;
pub use script::ScriptPlane;
pub use stats::PortStats;
