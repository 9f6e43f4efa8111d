//! Trials: "a sequence of packets received by a receiver" (paper §3).
//!
//! Each observation is a packet identity plus its arrival time in
//! **picoseconds relative to the capture epoch**. Eq. 3/4 subtract times
//! across the two trials, which is only meaningful when both captures are
//! expressed relative to their own start; [`Trial::rezeroed`] provides
//! that, and the experiment pipeline applies it before comparing.

use choir_packet::ident::PacketId;
use choir_packet::pcap::PcapRecord;
use choir_packet::tag::ChoirTag;

/// Exclusive upper bound on the timestamps the metric kernels take
/// without overflow: 2^62 ps, about 53 days from the capture epoch. Two
/// stamps below it differ by less than `i64::MAX`, and so do two gaps or
/// two latencies built from them, which is what [`Trial::gap_ps`], the
/// streaming engine and the arena kernels' 64-bit lanes rely on. Code
/// that accepts timestamps from outside the program (the κ daemon's
/// ingest, the pcap loaders) refuses or re-bases anything at or past it.
pub const MAX_TIMESTAMP_PS: u64 = 1 << 62;

/// One received packet: identity and arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// Packet identity (from the Choir trailer tag, or a content hash).
    pub id: PacketId,
    /// Arrival time in picoseconds since the capture epoch (below
    /// [`MAX_TIMESTAMP_PS`] for everything the ingest paths admit).
    pub t_ps: u64,
}

/// A captured sequence of packet arrivals, in arrival order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trial {
    obs: Vec<Observation>,
}

impl Trial {
    /// An empty trial.
    pub fn new() -> Self {
        Trial { obs: Vec::new() }
    }

    /// An empty trial with preallocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        Trial {
            obs: Vec::with_capacity(n),
        }
    }

    /// Append an observation.
    pub fn push(&mut self, id: PacketId, t_ps: u64) {
        self.obs.push(Observation { id, t_ps });
    }

    /// Append an observation identified by Choir tag fields — convenient
    /// in tests and examples.
    pub fn push_tagged(&mut self, replayer: u16, stream: u16, seq: u64, t_ps: u64) {
        self.push(PacketId::from_tag(&ChoirTag::new(replayer, stream, seq)), t_ps);
    }

    /// Build a trial from observations already in arrival order.
    pub fn from_observations(obs: &[Observation]) -> Self {
        Trial { obs: obs.to_vec() }
    }

    /// Build a trial from nanosecond pcap records (times scaled to ps).
    ///
    /// A capture whose first stamp already fits below
    /// [`MAX_TIMESTAMP_PS`] keeps its own epoch. A wall-clock capture
    /// (any real `tcpdump` file: 2026 is 1.8 × 10^21 ps after 1970, past
    /// `u64`) is re-based on its first record, stamps earlier than that
    /// record clamping to zero as in [`Trial::rezeroed`]; κ is invariant
    /// under the shift. Stamps still out of range after re-basing
    /// saturate just below the bound. `choir_capture::PcapSource`
    /// converts identically, except that it reports that last case as an
    /// error.
    pub fn from_pcap_records(records: &[PcapRecord]) -> Self {
        const MAX_NS: u64 = (MAX_TIMESTAMP_PS - 1) / 1000;
        let first_ns = records.first().map_or(0, |r| r.ts_ns);
        let epoch_ns = if first_ns <= MAX_NS { 0 } else { first_ns };
        let mut t = Trial::with_capacity(records.len());
        for r in records {
            let ns = r.ts_ns.saturating_sub(epoch_ns).min(MAX_NS);
            t.push(r.frame.packet_id(), ns * 1000);
        }
        t
    }

    /// Number of packets in the trial (`|A|` in the paper's formulas).
    pub fn len(&self) -> usize {
        self.obs.len()
    }

    /// True when the trial holds no packets.
    pub fn is_empty(&self) -> bool {
        self.obs.is_empty()
    }

    /// The observations in arrival order.
    pub fn observations(&self) -> &[Observation] {
        &self.obs
    }

    /// Arrival time of the `i`th packet.
    pub fn time(&self, i: usize) -> u64 {
        self.obs[i].t_ps
    }

    /// Identity of the `i`th packet.
    pub fn id(&self, i: usize) -> PacketId {
        self.obs[i].id
    }

    /// Time of the first arrival (`t_X0`), or 0 for an empty trial.
    pub fn start_ps(&self) -> u64 {
        self.obs.first().map_or(0, |o| o.t_ps)
    }

    /// Time of the last arrival (`t_X|X|`), or 0 for an empty trial.
    pub fn end_ps(&self) -> u64 {
        self.obs.last().map_or(0, |o| o.t_ps)
    }

    /// Capture duration: last arrival minus first arrival.
    pub fn span_ps(&self) -> u64 {
        self.end_ps().saturating_sub(self.start_ps())
    }

    /// Robust duration: max timestamp minus min timestamp. Identical to
    /// [`Trial::span_ps`] for time-ordered captures; still a valid bound
    /// when hardware stamp noise inverted a few arrivals.
    pub fn minmax_span_ps(&self) -> u64 {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for o in &self.obs {
            lo = lo.min(o.t_ps);
            hi = hi.max(o.t_ps);
        }
        if lo == u64::MAX {
            0
        } else {
            hi - lo
        }
    }

    /// True when arrival times never decrease (the physical case).
    pub fn is_time_ordered(&self) -> bool {
        self.obs.windows(2).all(|w| w[0].t_ps <= w[1].t_ps)
    }

    /// The same trial with times re-expressed relative to its first
    /// arrival (the form Eq. 3/4 assume).
    ///
    /// Hardware timestamp noise can stamp a later packet marginally
    /// *earlier* than the first packet; such stamps clamp to zero rather
    /// than wrapping (a few-ns clamp versus a 2⁶⁴ ps explosion).
    pub fn rezeroed(&self) -> Trial {
        let t0 = self.start_ps();
        Trial {
            obs: self
                .obs
                .iter()
                .map(|o| Observation {
                    id: o.id,
                    t_ps: o.t_ps.saturating_sub(t0),
                })
                .collect(),
        }
    }

    /// Inter-arrival gap preceding packet `i` (`g_Xi`); zero for the first
    /// packet, per the paper's base case `t_X0 = t_X(-1)`.
    pub fn gap_ps(&self, i: usize) -> i64 {
        if i == 0 {
            0
        } else {
            self.obs[i].t_ps as i64 - self.obs[i - 1].t_ps as i64
        }
    }

    /// The trial reversed (worst-case ordering input, used by tests and
    /// the Fig. 2/3 demonstrations).
    pub fn reversed(&self) -> Trial {
        let mut obs: Vec<Observation> = self.obs.iter().rev().copied().collect();
        // Keep times ascending: reattach original timestamps in order.
        for (i, o) in obs.iter_mut().enumerate() {
            o.t_ps = self.obs[i].t_ps;
        }
        Trial { obs }
    }
}

impl FromIterator<(PacketId, u64)> for Trial {
    fn from_iter<T: IntoIterator<Item = (PacketId, u64)>>(iter: T) -> Self {
        let mut t = Trial::new();
        for (id, ts) in iter {
            t.push(id, ts);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use choir_packet::pcap::PcapRecord;
    use choir_packet::Frame;

    fn tagged_trial(n: u64, gap: u64) -> Trial {
        let mut t = Trial::new();
        for i in 0..n {
            t.push_tagged(0, 0, i, i * gap);
        }
        t
    }

    #[test]
    fn basic_accessors() {
        let t = tagged_trial(5, 100);
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.start_ps(), 0);
        assert_eq!(t.end_ps(), 400);
        assert_eq!(t.span_ps(), 400);
        assert!(t.is_time_ordered());
    }

    #[test]
    fn empty_trial_edges() {
        let t = Trial::new();
        assert_eq!(t.start_ps(), 0);
        assert_eq!(t.end_ps(), 0);
        assert_eq!(t.span_ps(), 0);
        assert!(t.is_time_ordered());
        assert!(t.is_empty());
    }

    #[test]
    fn gap_base_case_is_zero() {
        let t = tagged_trial(3, 50);
        assert_eq!(t.gap_ps(0), 0);
        assert_eq!(t.gap_ps(1), 50);
        assert_eq!(t.gap_ps(2), 50);
    }

    #[test]
    fn rezeroed_shifts_to_origin() {
        let mut t = Trial::new();
        t.push_tagged(0, 0, 0, 1_000_000);
        t.push_tagged(0, 0, 1, 1_000_700);
        let z = t.rezeroed();
        assert_eq!(z.start_ps(), 0);
        assert_eq!(z.time(1), 700);
        assert_eq!(z.span_ps(), t.span_ps());
    }

    #[test]
    fn rezeroed_clamps_stamps_earlier_than_the_first() {
        // Timestamp noise can invert the first two stamps; the relative
        // time must clamp to zero, not wrap around u64.
        let mut t = Trial::new();
        t.push_tagged(0, 0, 0, 1_000_000);
        t.push_tagged(0, 0, 1, 999_800); // stamped 200 ps "before" pkt 0
        t.push_tagged(0, 0, 2, 1_000_500);
        let z = t.rezeroed();
        assert_eq!(z.time(0), 0);
        assert_eq!(z.time(1), 0, "clamped, not wrapped");
        assert_eq!(z.time(2), 500);
        assert!(z.end_ps() < 1_000_000, "no 2^64-scale artifacts");
    }

    #[test]
    fn reversed_keeps_timestamps_ascending() {
        let t = tagged_trial(4, 10);
        let r = t.reversed();
        assert!(r.is_time_ordered());
        assert_eq!(r.id(0), t.id(3));
        assert_eq!(r.id(3), t.id(0));
        assert_eq!(r.time(0), 0);
        assert_eq!(r.time(3), 30);
    }

    #[test]
    fn detects_time_disorder() {
        let mut t = Trial::new();
        t.push_tagged(0, 0, 0, 100);
        t.push_tagged(0, 0, 1, 50);
        assert!(!t.is_time_ordered());
        // minmax span covers the true extent; first/last span does not.
        assert_eq!(t.span_ps(), 0);
        assert_eq!(t.minmax_span_ps(), 50);
    }

    #[test]
    fn from_pcap_records_scales_to_ps() {
        let mut buf = vec![0u8; 64];
        choir_packet::ChoirTag::new(1, 0, 3).stamp_trailer(&mut buf);
        let rec = PcapRecord {
            ts_ns: 42,
            frame: Frame::new(Bytes::from(buf)),
        };
        let t = Trial::from_pcap_records(&[rec]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.time(0), 42_000);
        assert!(t.id(0).is_tagged());
    }

    #[test]
    fn from_iterator() {
        let t: Trial = (0..3u64)
            .map(|i| (PacketId::from_tag(&ChoirTag::new(0, 0, i)), i * 10))
            .collect();
        assert_eq!(t.len(), 3);
    }
}
