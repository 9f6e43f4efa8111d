//! The [`Dataplane`] trait — the contract Choir applications are written
//! against — and the [`App`] polling interface.
//!
//! The original Choir is a DPDK program whose environment provides: burst
//! RX/TX on a set of ports, the CPU's Time Stamp Counter ("a constantly-
//! increasing counter on the CPU", paper §4), a PTP-disciplined wall clock
//! (§2.2), and an out-of-band control channel (§4). [`Dataplane`] abstracts
//! exactly that surface so the same application code runs on:
//!
//! - the deterministic simulator in `choir-netsim` (where busy-wait loops
//!   become scheduled wake-ups), and
//! - the real-time [`crate::loopback`] backend (where they really spin).

use crate::burst::Burst;
use crate::mbuf::Mempool;
use crate::stats::PortStats;

/// Index of a port on a node.
pub type PortId = usize;

/// Control-plane commands, delivered out-of-band (or in-band, see paper §5)
/// to Choir middleboxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMsg {
    /// Begin recording forwarded traffic.
    StartRecord,
    /// Stop recording; the recording becomes the replay buffer.
    StopRecord,
    /// Run the recorded replay, starting at the given wall-clock time
    /// (nanoseconds). The paper: "The user command to run a replay
    /// specifies a future time to start the replay" (§4).
    ScheduleReplay {
        /// PTP wall-clock start time in nanoseconds.
        start_wall_ns: u64,
    },
    /// Cancel a scheduled or in-progress replay.
    AbortReplay,
    /// Application-defined escape hatch.
    Custom(u64),
}

/// Environment handed to an [`App`] on every wake-up.
pub trait Dataplane {
    /// Number of ports attached to this node.
    fn num_ports(&self) -> usize;

    /// The node's packet buffer pool.
    fn mempool(&self) -> &Mempool;

    /// Receive up to `Burst` capacity packets from `port` into `out`
    /// (which is cleared first). Returns the number received.
    fn rx_burst(&mut self, port: PortId, out: &mut Burst) -> usize;

    /// Hand `burst` to the NIC for transmission on `port`. Accepted
    /// packets are drained from the front of `burst`; packets left behind
    /// did not fit in the descriptor ring. Returns the number accepted.
    ///
    /// Acceptance is *notification only*: the NIC pulls the packets to the
    /// wire by DMA at a later time (paper §2.3).
    fn tx_burst(&mut self, port: PortId, burst: &mut Burst) -> usize;

    /// Current Time Stamp Counter value (cycles).
    fn tsc(&self) -> u64;

    /// TSC frequency in Hz (constant; paper §4 notes FABRIC nodes have
    /// constant-TSC CPUs).
    fn tsc_hz(&self) -> u64;

    /// PTP-disciplined wall-clock time in nanoseconds. Subject to the
    /// node's synchronization error — two nodes' `wall_ns` disagree by the
    /// PTP offset, which is what §6.2 measures the consequences of.
    fn wall_ns(&self) -> u64;

    /// Ask to be woken at the given TSC value. In the simulator this
    /// schedules an event; in the real-time backend the driver loop spins
    /// until the deadline. The paper's replay loop — "looping over a TSC
    /// read, transmitting each packet burst when the TSC read is greater
    /// than or equal to the burst's stored TSC time plus the delta" (§4) —
    /// maps onto repeated calls to this.
    fn request_wake_at_tsc(&mut self, tsc: u64);

    /// Counters for `port`.
    fn stats(&self, port: PortId) -> PortStats;

    /// Convert a nanosecond duration into TSC cycles.
    fn ns_to_cycles(&self, ns: u64) -> u64 {
        ((ns as u128 * self.tsc_hz() as u128) / 1_000_000_000) as u64
    }

    /// Convert TSC cycles into nanoseconds.
    fn cycles_to_ns(&self, cycles: u64) -> u64 {
        ((cycles as u128 * 1_000_000_000) / self.tsc_hz() as u128) as u64
    }
}

/// A pollable dataplane application (generator, middlebox, recorder, …).
pub trait App {
    /// Called when a packet arrives, a requested wake-up fires, or the
    /// driver simply polls. The app should drain its RX rings.
    fn on_wake(&mut self, dp: &mut dyn Dataplane);

    /// Called when a control-plane message arrives.
    fn on_control(&mut self, _msg: &ControlMsg, _dp: &mut dyn Dataplane) {}

    /// A short name for diagnostics.
    fn name(&self) -> &str {
        "app"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::ScriptPlane;

    fn plane_at(hz: u64) -> ScriptPlane {
        let mut p = ScriptPlane::new(0, Mempool::new("t", 1));
        p.tsc_hz = hz;
        p
    }

    #[test]
    fn cycle_conversions_roundtrip() {
        let p = plane_at(2_500_000_000); // 2.5 GHz
        assert_eq!(p.ns_to_cycles(1_000), 2_500);
        assert_eq!(p.cycles_to_ns(2_500), 1_000);
        // Round-trip within quantization for odd values.
        let ns = 123_456_789;
        let rt = p.cycles_to_ns(p.ns_to_cycles(ns));
        assert!(ns - rt <= 1, "{ns} vs {rt}");
    }

    #[test]
    fn conversions_handle_large_values_without_overflow() {
        let p = plane_at(3_000_000_000);
        // One hour in ns.
        let ns = 3_600_000_000_000u64;
        let cycles = p.ns_to_cycles(ns);
        assert_eq!(cycles, 10_800_000_000_000);
        assert_eq!(p.cycles_to_ns(cycles), ns);
    }

    #[test]
    fn control_msg_equality() {
        assert_eq!(
            ControlMsg::ScheduleReplay { start_wall_ns: 5 },
            ControlMsg::ScheduleReplay { start_wall_ns: 5 }
        );
        assert_ne!(ControlMsg::StartRecord, ControlMsg::StopRecord);
    }
}
