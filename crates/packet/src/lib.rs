//! # choir-packet
//!
//! Packet-level substrate for the Choir replay toolkit: Ethernet/IPv4/UDP
//! header construction and parsing, the 16-byte Choir trailer tag that the
//! paper uses to give every replayed packet a unique identity (§3, §6), and
//! nanosecond-resolution pcap reading/writing for interoperability with
//! conventional capture tooling.
//!
//! The paper's evaluation streams are 1400-byte UDP-in-IPv4 frames stamped
//! with a unique 16-byte tag by the replayer; the recorder then uses the tag
//! as *the* definition of packet identity when computing the consistency
//! metrics. [`ChoirTag`] implements exactly that: a magic number, the
//! emitting replay node, a stream id and a 64-bit sequence number.
//!
//! Nothing in this crate allocates per-packet on the hot path: frames are
//! built into caller-provided buffers or cheaply-cloneable [`bytes::Bytes`].

pub mod builder;
pub mod headers;
pub mod ident;
pub mod pcap;
pub mod tag;
pub mod wire;

pub use builder::FrameBuilder;
pub use headers::{EtherType, EthernetHeader, Ipv4Header, MacAddr, UdpHeader};
pub use ident::PacketId;
pub use tag::ChoirTag;
pub use wire::{frame_wire_bytes, FrameSpec, WIRE_OVERHEAD_BYTES};

use bytes::Bytes;

/// A fully-built network frame plus the metadata Choir needs.
///
/// `data` is reference-counted ([`Bytes`]), so recording a transmitted packet
/// — as Choir's middlebox does — is a refcount bump, never a copy (paper §4:
/// "A recording is made by holding forwarded packets in memory after their
/// transmission without making a copy").
///
/// Like a pcap record, a frame distinguishes the bytes it *stores*
/// (`data`, the "included" bytes) from the length the packet had on the
/// network (`orig_len`). Simulated bulk traffic stores only headers and the
/// trailer tag while declaring the full original length, so timing models
/// stay exact without materializing megabytes of fill payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Stored frame bytes from the Ethernet header onward (exclusive of
    /// preamble/FCS/inter-frame gap, like a pcap capture).
    pub data: Bytes,
    orig_len: u32,
}

impl Frame {
    /// Wrap raw bytes as a frame whose original length equals the stored
    /// length.
    pub fn new(data: Bytes) -> Self {
        let orig_len = data.len() as u32;
        Frame { data, orig_len }
    }

    /// A frame storing a truncated view of a packet that was `orig_len`
    /// bytes on the network (snap-length capture semantics).
    ///
    /// # Panics
    /// Panics if `orig_len` is smaller than the stored data.
    pub fn truncated(data: Bytes, orig_len: u32) -> Self {
        assert!(
            orig_len as usize >= data.len(),
            "orig_len {orig_len} smaller than stored {} bytes",
            data.len()
        );
        Frame { data, orig_len }
    }

    /// Number of stored bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Length the packet had on the network (>= [`Frame::len`]).
    pub fn orig_len(&self) -> usize {
        self.orig_len as usize
    }

    /// True when the frame stores no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes this frame occupies on the wire, including preamble, FCS and
    /// minimum inter-frame gap — the figure that matters for line-rate
    /// math. Computed from the original length, not the stored bytes.
    pub fn wire_len(&self) -> usize {
        frame_wire_bytes(self.orig_len as usize)
    }

    /// Extract the Choir trailer tag, if the frame carries one.
    pub fn tag(&self) -> Option<ChoirTag> {
        ChoirTag::parse_trailer(&self.data)
    }

    /// The identity used by the consistency metrics: the trailer tag when
    /// present, otherwise a hash of the full frame contents.
    pub fn packet_id(&self) -> PacketId {
        PacketId::of_frame(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_basic_accessors() {
        let f = Frame::new(Bytes::from_static(b"hello"));
        assert_eq!(f.len(), 5);
        assert_eq!(f.orig_len(), 5);
        assert!(!f.is_empty());
        assert_eq!(
            f.wire_len(),
            5 + WIRE_OVERHEAD_BYTES + (64usize.saturating_sub(5 + 4))
        );
    }

    #[test]
    fn truncated_frame_uses_orig_len_for_wire_math() {
        let f = Frame::truncated(Bytes::from(vec![0u8; 58]), 1400);
        assert_eq!(f.len(), 58);
        assert_eq!(f.orig_len(), 1400);
        assert_eq!(f.wire_len(), 1424);
    }

    #[test]
    #[should_panic(expected = "smaller than stored")]
    fn truncated_orig_len_too_small_panics() {
        Frame::truncated(Bytes::from(vec![0u8; 100]), 50);
    }

    #[test]
    fn empty_frame() {
        let f = Frame::new(Bytes::new());
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn frame_clone_is_shallow() {
        let f = Frame::new(Bytes::from(vec![7u8; 1400]));
        let g = f.clone();
        // Bytes clones share the same backing allocation.
        assert_eq!(f.data.as_ptr(), g.data.as_ptr());
    }

    #[test]
    fn untagged_frame_id_is_content_hash() {
        let a = Frame::new(Bytes::from_static(b"abcdef"));
        let b = Frame::new(Bytes::from_static(b"abcdef"));
        let c = Frame::new(Bytes::from_static(b"abcdeg"));
        assert_eq!(a.packet_id(), b.packet_id());
        assert_ne!(a.packet_id(), c.packet_id());
    }
}
