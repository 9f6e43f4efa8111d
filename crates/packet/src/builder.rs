//! Whole-frame construction for evaluation traffic.
//!
//! Builds the 1400-byte UDP-in-IPv4 frames the paper's generator emits
//! (§6), with space reserved for the 16-byte Choir trailer the replayer
//! stamps. The generator's hot loop performs one allocation per frame
//! (the `Bytes` storage) and no header re-serialization beyond field
//! updates.

use bytes::Bytes;

use crate::headers::{
    EtherType, EthernetHeader, Ipv4Header, MacAddr, UdpHeader, UDP_FRAME_HEADER_LEN,
};
use crate::tag::{ChoirTag, TAG_LEN};
use crate::Frame;

/// Builder for a stream of uniform test frames.
#[derive(Debug, Clone)]
pub struct FrameBuilder {
    /// Total frame length (headers + payload + trailer space).
    frame_len: usize,
    eth: EthernetHeader,
    ip: Ipv4Header,
    udp: UdpHeader,
    fill: u8,
}

impl FrameBuilder {
    /// A builder for frames of `frame_len` bytes between `src` and `dst`
    /// node ids.
    ///
    /// # Panics
    /// Panics if `frame_len` cannot hold headers plus a trailer tag.
    pub fn new(frame_len: usize, src_node: u32, dst_node: u32) -> Self {
        assert!(
            frame_len >= UDP_FRAME_HEADER_LEN + TAG_LEN,
            "frame_len {frame_len} too small: need at least {}",
            UDP_FRAME_HEADER_LEN + TAG_LEN
        );
        let ip_len = (frame_len - EthernetHeader::LEN) as u16;
        let udp_len = ip_len - Ipv4Header::LEN as u16;
        FrameBuilder {
            frame_len,
            eth: EthernetHeader {
                dst: MacAddr::local(dst_node),
                src: MacAddr::local(src_node),
                ethertype: EtherType::Ipv4 as u16,
            },
            ip: Ipv4Header {
                total_len: ip_len,
                identification: 0,
                ttl: 64,
                protocol: Ipv4Header::PROTO_UDP,
                src: 0x0A00_0000 | src_node,
                dst: 0x0A00_0000 | dst_node,
            },
            udp: UdpHeader {
                src_port: 5001,
                dst_port: 5001,
                len: udp_len,
            },
            fill: 0x5A,
        }
    }

    /// Override the payload fill byte (useful to make runs distinguishable
    /// in hex dumps).
    pub fn with_fill(mut self, fill: u8) -> Self {
        self.fill = fill;
        self
    }

    /// Total frame length this builder produces.
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// Write headers and `tag` into `buf`, already filled with the fill
    /// byte; the trailer takes its last [`TAG_LEN`] bytes.
    fn write_tagged(&self, buf: &mut [u8], tag: ChoirTag) {
        self.eth.write(buf);
        let mut ip = self.ip;
        // Fold the low sequence bits into the IP id for debuggability.
        ip.identification = tag.seq as u16;
        ip.write(&mut buf[EthernetHeader::LEN..]);
        self.udp
            .write(&mut buf[EthernetHeader::LEN + Ipv4Header::LEN..]);
        tag.stamp_trailer(buf);
    }

    /// Build one frame carrying `tag` as its trailer.
    pub fn build_tagged(&self, tag: ChoirTag) -> Frame {
        let mut buf = vec![self.fill; self.frame_len];
        self.write_tagged(&mut buf, tag);
        Frame::new(Bytes::from(buf))
    }

    /// Build a tagged frame that *stores* only headers plus the trailer but
    /// declares the full frame length — the memory-frugal representation
    /// simulated bulk traffic uses (snap-length semantics; see
    /// [`Frame::truncated`]). Wire-timing math still sees the full length.
    ///
    /// The 58 stored bytes are written on the stack and copied once into
    /// inline [`Bytes`] storage: one heap allocation per frame.
    pub fn build_tagged_snap(&self, tag: ChoirTag) -> Frame {
        const STORED: usize = UDP_FRAME_HEADER_LEN + TAG_LEN;
        if STORED >= self.frame_len {
            return self.build_tagged(tag);
        }
        let mut buf = [self.fill; STORED];
        self.write_tagged(&mut buf, tag);
        Frame::truncated(Bytes::copy_from_slice(&buf), self.frame_len as u32)
    }

    /// Build one untagged frame (trailer region left as fill bytes).
    pub fn build_plain(&self) -> Frame {
        let mut buf = vec![self.fill; self.frame_len];
        self.eth.write(&mut buf);
        self.ip.write(&mut buf);
        Frame::new(Bytes::from(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagged_frame_parses_back() {
        let b = FrameBuilder::new(1400, 1, 2);
        let f = b.build_tagged(ChoirTag::new(4, 1, 77));
        assert_eq!(f.len(), 1400);
        let eth = EthernetHeader::parse(&f.data).unwrap();
        assert_eq!(eth.src, MacAddr::local(1));
        assert_eq!(eth.dst, MacAddr::local(2));
        let ip = Ipv4Header::parse(&f.data[14..]).unwrap();
        assert_eq!(ip.total_len, 1386);
        assert_eq!(ip.protocol, Ipv4Header::PROTO_UDP);
        assert!(Ipv4Header::checksum_ok(&f.data[14..]));
        let udp = UdpHeader::parse(&f.data[34..]).unwrap();
        assert_eq!(udp.len, 1366);
        assert_eq!(f.tag(), Some(ChoirTag::new(4, 1, 77)));
    }

    #[test]
    fn minimum_frame_size() {
        let b = FrameBuilder::new(UDP_FRAME_HEADER_LEN + TAG_LEN, 0, 1);
        let f = b.build_tagged(ChoirTag::new(0, 0, 0));
        assert_eq!(f.len(), 58);
        assert!(f.tag().is_some());
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn too_small_panics() {
        FrameBuilder::new(40, 0, 1);
    }

    #[test]
    fn snap_frame_declares_full_length() {
        let b = FrameBuilder::new(1400, 1, 2);
        let f = b.build_tagged_snap(ChoirTag::new(2, 0, 10));
        assert_eq!(f.len(), 58);
        assert_eq!(f.orig_len(), 1400);
        assert_eq!(f.wire_len(), 1424);
        assert_eq!(f.tag(), Some(ChoirTag::new(2, 0, 10)));
        // Identity must match regardless of snap vs full build.
        let full = b.build_tagged(ChoirTag::new(2, 0, 10));
        assert_eq!(f.packet_id(), full.packet_id());
    }

    #[test]
    fn snap_of_minimal_frame_is_full() {
        let b = FrameBuilder::new(UDP_FRAME_HEADER_LEN + TAG_LEN, 1, 2);
        let f = b.build_tagged_snap(ChoirTag::new(0, 0, 0));
        assert_eq!(f.len(), f.orig_len());
    }

    #[test]
    fn plain_frame_has_no_tag() {
        let b = FrameBuilder::new(200, 0, 1).with_fill(0x00);
        let f = b.build_plain();
        assert_eq!(f.tag(), None);
        // Distinct plain frames share identity (content hash).
        assert_eq!(f.packet_id(), b.build_plain().packet_id());
    }

    #[test]
    fn sequence_distinguishes_frames() {
        let b = FrameBuilder::new(1400, 1, 2);
        let f1 = b.build_tagged(ChoirTag::new(0, 0, 1));
        let f2 = b.build_tagged(ChoirTag::new(0, 0, 2));
        assert_ne!(f1.packet_id(), f2.packet_id());
    }
}
