//! In-memory recordings of forwarded traffic.
//!
//! Paper §4: "A recording is made by holding forwarded packets in memory
//! after their transmission without making a copy. While expensive in RAM,
//! avoiding disk writes or copy operations allows an accurate recording to
//! be made without slowing the packet forwarding. Besides the packets,
//! which are stored as the burst they were transmitted as, the recording
//! also stores the time of transmission through reading the Time Stamp
//! Counter."
//!
//! [`Recording`] is exactly that: a vector of [`RecordedBurst`]s, each an
//! `Mbuf` clone set (refcount bumps, no data copies) plus the transmit
//! TSC.

use choir_dpdk::{Burst, Mbuf};

/// One recorded burst: the packets exactly as transmitted, and when.
#[derive(Debug, Clone)]
pub struct RecordedBurst {
    /// TSC value read at transmit time.
    pub tsc: u64,
    /// The transmitted packets (shared handles into the original buffers).
    pub pkts: Vec<Mbuf>,
}

impl RecordedBurst {
    /// Number of packets in the burst.
    pub fn len(&self) -> usize {
        self.pkts.len()
    }

    /// True when the burst holds no packets.
    pub fn is_empty(&self) -> bool {
        self.pkts.is_empty()
    }

    /// Rebuild a transmittable [`Burst`] of shared handles.
    pub fn to_burst(&self) -> Burst {
        Burst::from_iter_checked(self.pkts.iter().cloned())
    }
}

/// A completed (or in-progress) recording.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    bursts: Vec<RecordedBurst>,
    packets: usize,
}

impl Recording {
    /// An empty recording.
    pub fn new() -> Self {
        Recording::default()
    }

    /// Append one transmitted burst. Packets are cloned handles — the
    /// caller keeps transmitting the originals.
    pub fn push_burst<'a, I: IntoIterator<Item = &'a Mbuf>>(&mut self, tsc: u64, pkts: I) {
        let pkts: Vec<Mbuf> = pkts.into_iter().cloned().collect();
        if pkts.is_empty() {
            return;
        }
        debug_assert!(
            self.bursts.last().is_none_or(|b| b.tsc <= tsc),
            "recording TSC must be monotonic"
        );
        self.packets += pkts.len();
        self.bursts.push(RecordedBurst { tsc, pkts });
    }

    /// Number of recorded bursts.
    pub fn len(&self) -> usize {
        self.bursts.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.bursts.is_empty()
    }

    /// Total packets across all bursts.
    pub fn packets(&self) -> usize {
        self.packets
    }

    /// TSC of the first burst (the replay time origin), or `None` when
    /// empty.
    pub fn first_tsc(&self) -> Option<u64> {
        self.bursts.first().map(|b| b.tsc)
    }

    /// TSC span from first to last burst, in cycles.
    pub fn duration_cycles(&self) -> u64 {
        match (self.bursts.first(), self.bursts.last()) {
            (Some(f), Some(l)) => l.tsc - f.tsc,
            _ => 0,
        }
    }

    /// The recorded bursts in transmit order.
    pub fn bursts(&self) -> &[RecordedBurst] {
        &self.bursts
    }

    /// Burst by index.
    pub fn burst(&self, i: usize) -> &RecordedBurst {
        &self.bursts[i]
    }

    /// Drop all recorded bursts (releasing their pool slots).
    pub fn clear(&mut self) {
        self.bursts.clear();
        self.packets = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use choir_dpdk::Mempool;
    use choir_packet::Frame;

    fn mbufs(pool: &Mempool, n: usize) -> Vec<Mbuf> {
        (0..n)
            .map(|i| {
                pool.alloc(Frame::new(Bytes::from(vec![i as u8; 60])))
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn recording_accumulates_without_copy() {
        let pool = Mempool::new("r", 64);
        let pkts = mbufs(&pool, 4);
        let mut rec = Recording::new();
        rec.push_burst(100, pkts.iter());
        rec.push_burst(200, pkts[..2].iter());
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.packets(), 6);
        assert_eq!(rec.first_tsc(), Some(100));
        assert_eq!(rec.duration_cycles(), 100);
        // No new pool slots were taken: recording shares the 4 slots.
        assert_eq!(pool.in_use(), 4);
        // And the data pointers are shared.
        assert_eq!(
            rec.burst(0).pkts[0].frame.data.as_ptr(),
            pkts[0].frame.data.as_ptr()
        );
    }

    #[test]
    fn empty_bursts_ignored() {
        let mut rec = Recording::new();
        rec.push_burst(5, std::iter::empty());
        assert!(rec.is_empty());
        assert_eq!(rec.first_tsc(), None);
        assert_eq!(rec.duration_cycles(), 0);
    }

    #[test]
    fn clear_releases_slots() {
        let pool = Mempool::new("r", 8);
        let mut rec = Recording::new();
        {
            let pkts = mbufs(&pool, 3);
            rec.push_burst(1, pkts.iter());
        }
        // Originals dropped; recording still holds the slots.
        assert_eq!(pool.in_use(), 3);
        rec.clear();
        assert_eq!(pool.in_use(), 0);
        assert_eq!(rec.packets(), 0);
    }

    #[test]
    fn to_burst_rebuilds() {
        let pool = Mempool::new("r", 8);
        let pkts = mbufs(&pool, 3);
        let mut rec = Recording::new();
        rec.push_burst(1, pkts.iter());
        let b = rec.burst(0).to_burst();
        assert_eq!(b.len(), 3);
    }
}
