//! # choir-testbed
//!
//! The paper's evaluation environments as simulator configurations, plus
//! the experiment runner that executes the full record-then-replay-N-times
//! pipeline and produces the per-run consistency reports behind every
//! figure and table.
//!
//! - [`profiles`] — the nine environments of §6–§7 (local bare-metal
//!   single/dual replayer; FABRIC dedicated/shared NICs at 40/80 Gbps,
//!   with and without a noisy co-tenant), each a set of calibrated noise
//!   parameters documented in place.
//! - [`runner`] — topology construction (generator → replayer(s) →
//!   recorder through one switch, as in both testbeds) and phase
//!   orchestration: record 0.3 s of the CBR stream, then run five replays,
//!   re-sampling the between-run clock state (PTP resync, timestamp servo
//!   slope) before each, and compare runs B–E against run A.

pub mod profiles;
pub mod runner;

pub use profiles::{EnvKind, EnvProfile};
pub use runner::{Experiment, ExperimentConfig, ExperimentOutput};
