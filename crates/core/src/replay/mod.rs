//! The Choir replay application (paper §4–§5).
//!
//! Choir's core is a *transparent middlebox* inserted on a link: it
//! forwards traffic unmodified at line rate, and at the user's instruction
//! records the forwarded bursts — holding the transmitted buffers in
//! memory with their TSC transmit times, no copies — then replays them by
//! re-transmitting each burst when the TSC passes `recorded_tsc + delta`.
//!
//! Module map:
//!
//! - [`recording`] — the in-RAM burst log.
//! - [`scheduler`] — the TSC-delta release logic driving a replay.
//! - [`middlebox`] — the [`choir_dpdk::App`] tying it together: forward,
//!   record, replay, obey control commands.
//! - [`control`] — in-band control frame encoding (§5 runs control
//!   in-band "to conserve resources"; out-of-band delivery goes through
//!   `App::on_control` directly).
//! - [`engine`] — a real-time replay driver whose hot loop is the paper's
//!   `while (rte_rdtsc() < release) ;` spin, used for the 100 Gbps
//!   throughput claim; its supervised variant bounds retries and wall
//!   time.
//! - [`degrade`] — typed replay-abort causes and the degradation
//!   counters the supervised paths report instead of hanging.

pub mod control;
pub mod degrade;
pub mod engine;
pub mod middlebox;
pub mod recording;
pub mod scheduler;

pub use degrade::{DegradationReport, ReplayError, ReplayErrorKind};
pub use engine::{run_replay_spin, run_replay_supervised, EngineConfig, EngineReport};
pub use middlebox::{ChoirMiddlebox, MiddleboxConfig};
pub use recording::{Recording, RecordedBurst};
pub use scheduler::{ReplayScheduler, ReplayStats, SchedulerState};
