//! Wire-level arithmetic: how many bytes a frame really occupies on an
//! Ethernet link, and helpers for converting between rates, packet sizes
//! and inter-packet gaps.
//!
//! The paper quotes rates both in Gbps and Mpps (e.g. "40 Gbps stream of
//! 1,400-byte packets ... 3,518,826 packets per second", §6.1). Those two
//! numbers are only consistent once preamble, FCS and the inter-frame gap
//! are accounted for — this module is the single source of truth for that
//! conversion everywhere in the workspace.

/// Preamble + start-of-frame delimiter (8) + frame check sequence (4) +
/// minimum inter-frame gap (12): per-frame overhead bytes on the wire.
pub const WIRE_OVERHEAD_BYTES: usize = 8 + 4 + 12;

/// Minimum Ethernet frame size on the wire excluding preamble/IFG
/// (64 bytes including FCS).
pub const MIN_FRAME_WITH_FCS: usize = 64;

/// Bytes a captured frame of `captured_len` bytes (headers + payload,
/// no FCS) occupies on the wire, including all overhead and runt padding.
pub fn frame_wire_bytes(captured_len: usize) -> usize {
    // FCS is part of WIRE_OVERHEAD_BYTES' 4-byte term; pad short frames up
    // to the 64-byte minimum (captured + FCS >= 64).
    let with_fcs = captured_len + 4;
    let padded = with_fcs.max(MIN_FRAME_WITH_FCS);
    padded + (WIRE_OVERHEAD_BYTES - 4)
}

/// Description of a constant-bit-rate stream: frame size as captured
/// (excluding FCS) and target line rate in bits per second.
///
/// ```
/// use choir_packet::FrameSpec;
///
/// // The paper's workload: 1400-byte frames at 40 Gbps ~ 3.51 Mpps.
/// let spec = FrameSpec::new(1400, 40_000_000_000);
/// assert!((spec.pps() / 1e6 - 3.51).abs() < 0.05);
/// assert_eq!(spec.gap_ps(), 284_800);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpec {
    /// Captured frame length in bytes (Ethernet header through payload/tag).
    pub frame_len: usize,
    /// Target rate in bits per second *on the wire*.
    pub rate_bps: u64,
}

impl FrameSpec {
    /// A new spec; panics if either field is zero.
    pub fn new(frame_len: usize, rate_bps: u64) -> Self {
        assert!(frame_len > 0, "frame_len must be positive");
        assert!(rate_bps > 0, "rate_bps must be positive");
        FrameSpec {
            frame_len,
            rate_bps,
        }
    }

    /// Wire bytes per frame including overhead.
    pub fn wire_bytes(&self) -> usize {
        frame_wire_bytes(self.frame_len)
    }

    /// Packets per second this spec yields at the configured rate.
    pub fn pps(&self) -> f64 {
        self.rate_bps as f64 / (self.wire_bytes() as f64 * 8.0)
    }

    /// Inter-packet gap (start-to-start) in picoseconds at the configured
    /// rate. This is the CBR spacing a generator should emit with.
    pub fn gap_ps(&self) -> u64 {
        // bits per frame / bits per second -> seconds; scale to ps.
        let bits = self.wire_bytes() as u128 * 8;
        ((bits * 1_000_000_000_000) / self.rate_bps as u128) as u64
    }

    /// Time to serialize one frame onto a link of `link_bps` bits/s, in ps.
    pub fn serialization_ps(&self, link_bps: u64) -> u64 {
        let bits = self.wire_bytes() as u128 * 8;
        ((bits * 1_000_000_000_000) / link_bps as u128) as u64
    }

    /// Number of whole packets emitted over `duration_ps` picoseconds.
    pub fn packets_in(&self, duration_ps: u64) -> u64 {
        duration_ps / self.gap_ps().max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_overhead_is_24() {
        assert_eq!(WIRE_OVERHEAD_BYTES, 24);
    }

    #[test]
    fn big_frame_wire_bytes() {
        // 1400-byte captured frame: +24 on the wire.
        assert_eq!(frame_wire_bytes(1400), 1424);
    }

    #[test]
    fn runt_frames_are_padded() {
        // A 40-byte captured frame pads to 64 with FCS, plus 20 more overhead.
        assert_eq!(frame_wire_bytes(40), 64 + 20);
        assert_eq!(frame_wire_bytes(60), 64 + 20);
        assert_eq!(frame_wire_bytes(61), 65 + 20);
    }

    #[test]
    fn paper_rate_sanity_40g_1400b() {
        // §6.1: 40 Gbps of 1400-byte packets ~= 3.51 Mpps.
        let spec = FrameSpec::new(1400, 40_000_000_000);
        let pps = spec.pps();
        assert!(
            (3.45e6..3.58e6).contains(&pps),
            "expected ~3.51 Mpps, got {pps}"
        );
    }

    #[test]
    fn paper_rate_sanity_80g_1400b() {
        // §7: 80 Gbps ~= 6.97 Mpps.
        let spec = FrameSpec::new(1400, 80_000_000_000);
        let pps = spec.pps();
        assert!((6.9e6..7.1e6).contains(&pps), "got {pps}");
    }

    #[test]
    fn paper_rate_sanity_100g_headline() {
        // §10: 100 Gbps corresponds to 8.9 Mpps (at ~1400-byte frames).
        let spec = FrameSpec::new(1380, 100_000_000_000);
        let pps = spec.pps();
        assert!((8.7e6..9.1e6).contains(&pps), "got {pps}");
    }

    #[test]
    fn gap_matches_pps() {
        let spec = FrameSpec::new(1400, 40_000_000_000);
        let gap = spec.gap_ps() as f64 / 1e12;
        let pps = spec.pps();
        let product = gap * pps;
        assert!((product - 1.0).abs() < 1e-6, "gap*pps = {product}");
    }

    #[test]
    fn serialization_time_100g() {
        let spec = FrameSpec::new(1400, 40_000_000_000);
        // 1424 bytes at 100 Gbps = 113.92 ns.
        assert_eq!(spec.serialization_ps(100_000_000_000), 113_920);
    }

    #[test]
    fn packets_in_duration() {
        let spec = FrameSpec::new(1400, 40_000_000_000);
        // 0.3 s at ~3.51 Mpps is ~1.05M packets (paper: 1,055,648).
        let n = spec.packets_in(300_000_000_000); // 0.3 s in ps
        assert!((1_040_000..1_070_000).contains(&n), "got {n}");
    }

    #[test]
    #[should_panic(expected = "frame_len must be positive")]
    fn zero_frame_len_panics() {
        FrameSpec::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "rate_bps must be positive")]
    fn zero_rate_panics() {
        FrameSpec::new(64, 0);
    }
}
