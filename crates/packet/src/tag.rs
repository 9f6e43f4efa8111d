//! The Choir trailer tag.
//!
//! Paper §3: "we stamped each packet with a unique trailer and used that to
//! define a packet", and §6: "the packets were stamped with unique 16-byte
//! tags in the replayer, which included the replay node they were emitted
//! by". This module implements that 16-byte trailer:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  = 0x43484F49  ("CHOI")
//! 4       2     replayer id (the node that emitted the packet)
//! 6       2     stream id
//! 8       8     sequence number
//! ```
//!
//! The tag occupies the *last* 16 bytes of the frame so it can be appended
//! to arbitrary traffic without understanding the payload.

use crate::ident::PacketId;

/// Magic marker identifying a Choir trailer ("CHOI" in ASCII).
pub const TAG_MAGIC: u32 = 0x4348_4F49;

/// Size of the serialized trailer in bytes.
pub const TAG_LEN: usize = 16;

/// A parsed 16-byte Choir trailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChoirTag {
    /// Which replay node emitted the packet.
    pub replayer: u16,
    /// Which stream within that replayer.
    pub stream: u16,
    /// Monotonic per-stream sequence number.
    pub seq: u64,
}

impl ChoirTag {
    /// Construct a tag.
    pub fn new(replayer: u16, stream: u16, seq: u64) -> Self {
        ChoirTag {
            replayer,
            stream,
            seq,
        }
    }

    /// Serialize into exactly [`TAG_LEN`] bytes.
    pub fn to_bytes(&self) -> [u8; TAG_LEN] {
        let mut out = [0u8; TAG_LEN];
        out[0..4].copy_from_slice(&TAG_MAGIC.to_be_bytes());
        out[4..6].copy_from_slice(&self.replayer.to_be_bytes());
        out[6..8].copy_from_slice(&self.stream.to_be_bytes());
        out[8..16].copy_from_slice(&self.seq.to_be_bytes());
        out
    }

    /// Write the tag into the last [`TAG_LEN`] bytes of `frame`.
    ///
    /// # Panics
    /// Panics if `frame` is shorter than [`TAG_LEN`].
    pub fn stamp_trailer(&self, frame: &mut [u8]) {
        let n = frame.len();
        assert!(n >= TAG_LEN, "frame too short for a Choir trailer");
        frame[n - TAG_LEN..].copy_from_slice(&self.to_bytes());
    }

    /// Parse a tag from exactly [`TAG_LEN`] bytes.
    pub fn from_bytes(buf: &[u8; TAG_LEN]) -> Option<Self> {
        if u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) != TAG_MAGIC {
            return None;
        }
        Some(ChoirTag {
            replayer: u16::from_be_bytes([buf[4], buf[5]]),
            stream: u16::from_be_bytes([buf[6], buf[7]]),
            seq: u64::from_be_bytes([
                buf[8], buf[9], buf[10], buf[11], buf[12], buf[13], buf[14], buf[15],
            ]),
        })
    }

    /// Parse the trailer from the *end* of a frame, if present.
    pub fn parse_trailer(frame: &[u8]) -> Option<Self> {
        if frame.len() < TAG_LEN {
            return None;
        }
        let mut buf = [0u8; TAG_LEN];
        buf.copy_from_slice(&frame[frame.len() - TAG_LEN..]);
        Self::from_bytes(&buf)
    }

    /// The packet identity the consistency metrics use.
    pub fn packet_id(&self) -> PacketId {
        PacketId::from_tag(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let t = ChoirTag::new(3, 7, 0xDEAD_BEEF_0BAD_F00D);
        let b = t.to_bytes();
        assert_eq!(ChoirTag::from_bytes(&b), Some(t));
    }

    #[test]
    fn bad_magic_rejected() {
        let t = ChoirTag::new(1, 2, 3);
        let mut b = t.to_bytes();
        b[0] ^= 1;
        assert_eq!(ChoirTag::from_bytes(&b), None);
    }

    #[test]
    fn stamp_and_parse_trailer() {
        let mut frame = vec![0xAAu8; 1400];
        let t = ChoirTag::new(2, 0, 99);
        t.stamp_trailer(&mut frame);
        assert_eq!(ChoirTag::parse_trailer(&frame), Some(t));
        // Payload before the trailer untouched.
        assert!(frame[..1400 - TAG_LEN].iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn trailer_too_short() {
        assert_eq!(ChoirTag::parse_trailer(&[0u8; 15]), None);
    }

    #[test]
    #[should_panic(expected = "frame too short")]
    fn stamp_too_short_panics() {
        ChoirTag::new(0, 0, 0).stamp_trailer(&mut [0u8; 8]);
    }

    #[test]
    fn distinct_fields_distinct_ids() {
        let a = ChoirTag::new(1, 0, 5).packet_id();
        let b = ChoirTag::new(2, 0, 5).packet_id();
        let c = ChoirTag::new(1, 0, 6).packet_id();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn tag_len_is_16() {
        assert_eq!(TAG_LEN, 16);
        assert_eq!(ChoirTag::new(0, 0, 0).to_bytes().len(), 16);
    }
}
