//! Typed failure causes and graceful-degradation accounting.
//!
//! The paper's replay loop assumes a cooperative NIC: `tx_burst` is
//! retried until the descriptor ring accepts everything. On a healthy
//! testbed that spin is momentary; on a faulty one (ring wedged, pool
//! exhausted, co-tenant hogging the PCIe bus) it is an unbounded hang.
//! This module gives the supervised replay path a vocabulary for the
//! alternative: every shortcut the engine or middlebox takes to stay
//! live is *counted* here, and every abort carries a typed cause plus
//! the partial statistics accumulated up to that point — a degraded run
//! is still a measurement, not a crash.

use std::fmt;

use serde::{Deserialize, Serialize};

use super::scheduler::ReplayStats;

/// Counters of every graceful-degradation event across the replay
/// pipeline: the supervised engine (bounded retries, backoff,
/// abandoned bursts), the middlebox forwarding path (recording skipped
/// under pool pressure, packets dropped after bounded transmit
/// retries) and the capture path (frames dropped at a full ring).
///
/// Reports from different components are combined with
/// [`DegradationReport::absorb`]; `choir-testbed` attaches the merged
/// report to each experiment's [`crate::metrics::report::RunReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationReport {
    /// `tx_burst` calls that accepted zero packets of a non-empty burst.
    pub tx_rejections: u64,
    /// Transmit retry attempts beyond each burst's first call.
    pub tx_retries: u64,
    /// Exponential-backoff waits taken between retries.
    pub backoffs: u64,
    /// Total cycles spent waiting in backoff.
    pub backoff_cycles: u64,
    /// Bursts abandoned after the per-burst retry budget ran out.
    pub bursts_abandoned: u64,
    /// Packets in abandoned bursts that were never transmitted.
    pub packets_abandoned: u64,
    /// Packets forwarded but *not* recorded because the mempool fell
    /// below the middlebox's reserve (drop-from-recording-and-count).
    pub record_skipped_packets: u64,
    /// Packets the middlebox dropped on its forwarding path after its
    /// bounded transmit retries.
    pub forward_dropped_packets: u64,
    /// Capture-path ring/buffer pushes rejected because the ring was
    /// full (frame dropped from capture and counted; forwarding and the
    /// live trial are unaffected).
    #[serde(default)]
    pub capture_ring_full: u64,
}

impl DegradationReport {
    /// True when nothing degraded: the run behaved as if unsupervised.
    pub fn is_clean(&self) -> bool {
        *self == DegradationReport::default()
    }

    /// Total degradation events (backoff cycles excluded — they are a
    /// magnitude, not an event count).
    pub fn total_events(&self) -> u64 {
        self.tx_rejections
            + self.tx_retries
            + self.backoffs
            + self.bursts_abandoned
            + self.record_skipped_packets
            + self.forward_dropped_packets
            + self.capture_ring_full
    }

    /// Field-wise add another component's counters into this report.
    pub fn absorb(&mut self, other: &DegradationReport) {
        self.tx_rejections += other.tx_rejections;
        self.tx_retries += other.tx_retries;
        self.backoffs += other.backoffs;
        self.backoff_cycles += other.backoff_cycles;
        self.bursts_abandoned += other.bursts_abandoned;
        self.packets_abandoned += other.packets_abandoned;
        self.record_skipped_packets += other.record_skipped_packets;
        self.forward_dropped_packets += other.forward_dropped_packets;
        self.capture_ring_full += other.capture_ring_full;
    }
}

/// Why a supervised replay stopped before transmitting everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayErrorKind {
    /// The configured wall-clock budget elapsed mid-replay.
    DeadlineExceeded {
        /// The budget that elapsed, in nanoseconds.
        deadline_ns: u64,
    },
    /// A burst exhausted its retry budget and the configuration forbids
    /// abandoning bursts.
    TxBudgetExhausted {
        /// Index of the burst that could not be transmitted.
        burst_index: usize,
        /// Retries attempted on it.
        retries: u32,
    },
}

/// A supervised replay abort: a typed cause plus the partial — but
/// internally consistent — statistics accumulated before stopping.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayError {
    /// What stopped the replay.
    pub kind: ReplayErrorKind,
    /// Transmit counters up to the abort. `packets_sent` reflects every
    /// packet actually handed to the NIC.
    pub stats: ReplayStats,
    /// Degradation events observed before the abort.
    pub degradation: DegradationReport,
    /// Wall time consumed before aborting, in nanoseconds.
    pub elapsed_ns: u64,
    /// Index of the first burst that was not fully transmitted.
    pub aborted_at_burst: usize,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ReplayErrorKind::DeadlineExceeded { deadline_ns } => write!(
                f,
                "replay aborted at burst {}: {} ns deadline exceeded ({} packets sent, {} retries)",
                self.aborted_at_burst,
                deadline_ns,
                self.stats.packets_sent,
                self.degradation.tx_retries
            ),
            ReplayErrorKind::TxBudgetExhausted {
                burst_index,
                retries,
            } => write!(
                f,
                "replay aborted: burst {burst_index} still unsent after {retries} retries ({} packets sent)",
                self.stats.packets_sent
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_has_no_events() {
        let r = DegradationReport::default();
        assert!(r.is_clean());
        assert_eq!(r.total_events(), 0);
    }

    #[test]
    fn absorb_adds_fieldwise() {
        let mut a = DegradationReport {
            tx_rejections: 1,
            backoff_cycles: 100,
            tx_retries: 2,
            ..DegradationReport::default()
        };
        let b = DegradationReport {
            tx_rejections: 3,
            packets_abandoned: 7,
            backoff_cycles: 50,
            ..DegradationReport::default()
        };
        a.absorb(&b);
        assert_eq!(a.tx_rejections, 4);
        assert_eq!(a.packets_abandoned, 7);
        assert_eq!(a.backoff_cycles, 150);
        assert_eq!(a.tx_retries, 2);
        assert!(!a.is_clean());
    }

    #[test]
    fn report_round_trips_through_serde() {
        let r = DegradationReport {
            tx_rejections: 5,
            tx_retries: 9,
            bursts_abandoned: 1,
            packets_abandoned: 64,
            forward_dropped_packets: 1,
            ..DegradationReport::default()
        };
        let c = serde::Serialize::to_content(&r);
        let back: DegradationReport = serde::Deserialize::from_content(&c).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn errors_render_their_cause() {
        let e = ReplayError {
            kind: ReplayErrorKind::DeadlineExceeded { deadline_ns: 1_000 },
            stats: ReplayStats {
                packets_sent: 42,
                ..ReplayStats::default()
            },
            degradation: DegradationReport::default(),
            elapsed_ns: 1_100,
            aborted_at_burst: 3,
        };
        let s = e.to_string();
        assert!(s.contains("burst 3"), "{s}");
        assert!(s.contains("42 packets"), "{s}");
        let e2 = ReplayError {
            kind: ReplayErrorKind::TxBudgetExhausted {
                burst_index: 7,
                retries: 16,
            },
            ..e
        };
        assert!(e2.to_string().contains("16 retries"), "{}", e2.to_string());
    }
}
