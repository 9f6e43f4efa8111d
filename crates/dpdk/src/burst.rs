//! Packet bursts.
//!
//! Choir "transmits packets in up to 64-packet bursts. During replays, it
//! sends bursts to the NIC identically to when it originally transmitted
//! them" (paper §5). [`Burst`] is that unit: a bounded, reusable container
//! of [`Mbuf`]s. The backing storage is allocated once at the full 64-slot
//! capacity and reused across polls, so the forwarding hot loop never
//! allocates.

use std::collections::VecDeque;

use crate::mbuf::Mbuf;

/// Maximum packets per burst, matching Choir's configuration.
pub const MAX_BURST: usize = 64;

/// A bounded burst of mbufs.
///
/// Backed by a `VecDeque` so a partially-accepted transmit can consume
/// from the front by move (no refcount churn on the hot path).
#[derive(Clone, Debug, Default)]
pub struct Burst {
    items: VecDeque<Mbuf>,
}

impl Burst {
    /// An empty burst with capacity preallocated.
    pub fn new() -> Self {
        Burst {
            items: VecDeque::with_capacity(MAX_BURST),
        }
    }

    /// Append an mbuf; returns it back if the burst is full.
    pub fn push(&mut self, m: Mbuf) -> Result<(), Mbuf> {
        if self.items.len() >= MAX_BURST {
            return Err(m);
        }
        self.items.push_back(m);
        Ok(())
    }

    /// Remove and return the first packet.
    pub fn pop_front(&mut self) -> Option<Mbuf> {
        self.items.pop_front()
    }

    /// Put a packet back at the front (undo of [`Burst::pop_front`] when a
    /// transmit ring rejects it). Permitted even on a full burst, since
    /// the packet came from this burst.
    pub fn push_front(&mut self, m: Mbuf) {
        self.items.push_front(m);
    }

    /// Number of packets currently in the burst.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the burst holds no packets.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when the burst holds [`MAX_BURST`] packets.
    pub fn is_full(&self) -> bool {
        self.items.len() == MAX_BURST
    }

    /// Remove and return all packets, leaving the burst empty but with its
    /// capacity intact.
    pub fn drain(&mut self) -> impl Iterator<Item = Mbuf> + '_ {
        self.items.drain(..)
    }

    /// Remove and return the first `n` packets (used when a NIC accepts
    /// only part of a burst).
    pub fn drain_front(&mut self, n: usize) -> impl Iterator<Item = Mbuf> + '_ {
        self.items.drain(..n.min(self.items.len()))
    }

    /// Clear the burst, dropping all mbufs (slots return to their pools).
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Iterate without consuming.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, Mbuf> {
        self.items.iter()
    }

    /// Access by index.
    pub fn get(&self, i: usize) -> Option<&Mbuf> {
        self.items.get(i)
    }

    /// Total frame bytes across the burst.
    pub fn total_bytes(&self) -> usize {
        self.items.iter().map(|m| m.len()).sum()
    }
}

impl<'a> IntoIterator for &'a Burst {
    type Item = &'a Mbuf;
    type IntoIter = std::collections::vec_deque::Iter<'a, Mbuf>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl IntoIterator for Burst {
    type Item = Mbuf;
    type IntoIter = std::collections::vec_deque::IntoIter<Mbuf>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use choir_packet::Frame;

    fn mbuf(n: usize) -> Mbuf {
        Mbuf::unpooled(Frame::new(Bytes::from(vec![1u8; n])))
    }

    #[test]
    fn push_until_full() {
        let mut b = Burst::new();
        for _ in 0..MAX_BURST {
            assert!(b.push(mbuf(10)).is_ok());
        }
        assert!(b.is_full());
        assert!(b.push(mbuf(10)).is_err());
        assert_eq!(b.len(), MAX_BURST);
    }

    #[test]
    fn drain_empties_and_keeps_capacity() {
        let mut b = Burst::new();
        b.push(mbuf(1)).unwrap();
        b.push(mbuf(2)).unwrap();
        let lens: Vec<usize> = b.drain().map(|m| m.len()).collect();
        assert_eq!(lens, vec![1, 2]);
        assert!(b.is_empty());
        assert!(b.items.capacity() >= MAX_BURST);
        // pop/push-front roundtrip.
        b.push(mbuf(9)).unwrap();
        let m = b.pop_front().unwrap();
        assert_eq!(m.len(), 9);
        b.push_front(m);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn drain_front_partial() {
        let mut b = Burst::new();
        for i in 1..=4 {
            b.push(mbuf(i)).unwrap();
        }
        let front: Vec<usize> = b.drain_front(2).map(|m| m.len()).collect();
        assert_eq!(front, vec![1, 2]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(0).unwrap().len(), 3);
    }

    #[test]
    fn drain_front_more_than_len() {
        let mut b = Burst::new();
        b.push(mbuf(1)).unwrap();
        assert_eq!(b.drain_front(99).count(), 1);
        assert!(b.is_empty());
    }

    #[test]
    fn total_bytes() {
        let mut b = Burst::new();
        b.push(mbuf(100)).unwrap();
        b.push(mbuf(200)).unwrap();
        assert_eq!(b.total_bytes(), 300);
    }

    #[test]
    fn clear_returns_pool_slots() {
        let pool = crate::Mempool::new("b", 4);
        let mut b = Burst::new();
        b.push(pool.alloc(Frame::new(Bytes::from_static(b"x"))).unwrap())
            .unwrap();
        assert_eq!(pool.in_use(), 1);
        b.clear();
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn iterate_by_reference() {
        let mut b = Burst::new();
        b.push(mbuf(7)).unwrap();
        let total: usize = (&b).into_iter().map(|m| m.len()).sum();
        assert_eq!(total, 7);
        assert_eq!(b.len(), 1); // not consumed
    }
}
