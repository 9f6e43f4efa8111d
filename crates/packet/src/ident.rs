//! Packet identity for the consistency metrics.
//!
//! Paper §3 (Eq. 1): "Packets between A and B are the same if they are
//! identical in all regions the evaluator determines define a packet." The
//! evaluator here is [`PacketId`]: a 128-bit identity either decoded from a
//! Choir trailer tag or derived by hashing frame contents (FNV-1a folded to
//! 128 bits) when no tag is present.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::tag::ChoirTag;

/// 128-bit packet identity.
///
/// For tagged packets the layout is `[tag-kind marker | replayer | stream |
/// seq]`, which keeps ids from different replayers distinct — the property
/// §6.2's dual-replayer analysis depends on.
///
/// Stored as two `u64` halves rather than one `u128` so the type is
/// 8-byte aligned and an `Observation` (identity + timestamp) packs into
/// 24 bytes. The derived `Ord` compares `hi` then `lo`, which is the
/// `u128` order; `Hash` and `Debug` are written by hand to hash and print
/// the `u128` value, so every ordering, hash probe and message is the
/// same as for the plain integer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PacketId {
    hi: u64,
    lo: u64,
}

const _: () = assert!(std::mem::size_of::<PacketId>() == 16);

const TAGGED_MARKER: u128 = 1 << 127;

impl PacketId {
    /// Identity with the given 128-bit value.
    #[inline]
    pub const fn from_u128(v: u128) -> Self {
        PacketId {
            hi: (v >> 64) as u64,
            lo: v as u64,
        }
    }

    /// The identity's 128-bit value.
    #[inline]
    pub const fn as_u128(self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }

    /// Identity from a Choir trailer tag (exact, collision-free).
    pub fn from_tag(tag: &ChoirTag) -> Self {
        let v = TAGGED_MARKER
            | ((tag.replayer as u128) << 80)
            | ((tag.stream as u128) << 64)
            | tag.seq as u128;
        PacketId::from_u128(v)
    }

    /// Identity by hashing frame contents (for untagged traffic).
    pub fn from_bytes(data: &[u8]) -> Self {
        PacketId::from_u128(fnv1a_128(data) & !TAGGED_MARKER)
    }

    /// True when this identity came from a trailer tag.
    pub fn is_tagged(&self) -> bool {
        self.as_u128() & TAGGED_MARKER != 0
    }

    /// Recover the tag fields from a tagged identity.
    pub fn tag_fields(&self) -> Option<(u16, u16, u64)> {
        if !self.is_tagged() {
            return None;
        }
        Some(((self.hi >> 16) as u16, self.hi as u16, self.lo))
    }
}

impl Hash for PacketId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_u128().hash(state);
    }
}

impl fmt::Debug for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("PacketId").field(&self.as_u128()).finish()
    }
}

/// FNV-1a, 128-bit variant.
fn fnv1a_128(data: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;
    let mut h = OFFSET;
    for &b in data {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip_through_id() {
        let t = ChoirTag::new(7, 3, 123456789);
        let id = PacketId::from_tag(&t);
        assert!(id.is_tagged());
        assert_eq!(id.tag_fields(), Some((7, 3, 123456789)));
    }

    #[test]
    fn hash_ids_not_tagged() {
        let id = PacketId::from_bytes(b"some payload");
        assert!(!id.is_tagged());
        assert_eq!(id.tag_fields(), None);
    }

    #[test]
    fn hash_deterministic_and_sensitive() {
        assert_eq!(PacketId::from_bytes(b"x"), PacketId::from_bytes(b"x"));
        assert_ne!(PacketId::from_bytes(b"x"), PacketId::from_bytes(b"y"));
        assert_ne!(PacketId::from_bytes(b""), PacketId::from_bytes(b"\0"));
    }

    #[test]
    fn tagged_and_hashed_never_collide() {
        // The marker bit partitions the id space.
        let t = PacketId::from_tag(&ChoirTag::new(0, 0, 0));
        let h = PacketId::from_bytes(&t.as_u128().to_be_bytes());
        assert_ne!(t, h);
    }
}
