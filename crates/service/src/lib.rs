//! κ-as-a-service: a long-running, multi-tenant streaming consistency
//! monitor (DESIGN.md §16).
//!
//! The batch pipeline answers "how consistent *were* these trials?"
//! after the fact. This crate turns the same engines into a daemon that
//! answers it **while the trials are still running**, for many
//! experiments at once:
//!
//! * [`daemon`] — the service: the tenant registry, the dispatch of each
//!   request to its tenant, and a thread-per-connection TCP serve loop.
//! * `tenant` (private) — one tenant: its streams, per-stream
//!   [`choir_core::metrics::IncrementalComparison`] engines
//!   (batch-identical), its event-sourced durability (record logs +
//!   marker journal + a checkpoint when dirty), and the reads it serves.
//!   It is built from a [`Disk`], a directory, a name and a stream
//!   config, and never sees the registry.
//! * [`disk`] — every file the daemon touches, behind one [`Disk`]
//!   trait: [`RealDisk`], and the in-memory [`ScriptDisk`] whose faults
//!   are scripted and whose kill and power-cut images the crash tests
//!   recover from.
//! * [`store`] — the evictable trial store: per-tenant LRU memory
//!   budget over one append-only 24-byte-record log per stream, which
//!   is journal and spill at once; rebuild on demand; eviction is
//!   invisible to every query.
//! * [`wire`] — the protocol: 4-byte length-prefixed frames, JSON for
//!   control verbs and responses, a binary record slab for `Ingest`,
//!   with κ carried both as `f64` and as `f64::to_bits` so bit-identity
//!   gates survive the wire.
//! * [`client`] — a blocking client used by `choir-ctl` and the
//!   integration tests.
//!
//! The load-bearing property, gated by `tests/daemon.rs`: every κ the
//! daemon serves is bit-identical to a post-hoc batch analysis of the
//! same records — across stream interleavings, store evictions, and
//! kill/restart recovery.

pub mod client;
pub mod daemon;
pub mod disk;
#[cfg(test)]
mod heap_gate;
pub mod store;
mod tenant;
pub mod wire;

pub use client::{Client, ClientError};
pub use daemon::{Daemon, DaemonConfig, DaemonError, DaemonHandle};
pub use disk::{Disk, RealDisk, ScriptDisk};
pub use store::{StoreError, StoreStats, TrialStore, OBS_BYTES};
pub use wire::{Request, Response, WireError, WireFinal, WireKappa, WireObs};
