//! In-band control-plane framing.
//!
//! Choir middleboxes are "joined out-of-band for inter-communication and
//! receiving user commands" (§4), but can also "run with just the 2
//! bridged interfaces if the control signals run in-band, as we do in our
//! evaluations to conserve resources" (§5). Out-of-band delivery is the
//! [`choir_dpdk::App::on_control`] callback; this module provides the
//! in-band path: control messages encoded as Ethernet frames with the
//! Choir control EtherType, intercepted (never forwarded) by the
//! middlebox.
//!
//! Frame layout after the 14-byte Ethernet header:
//!
//! ```text
//! offset  size  field
//! 0       4     magic 0x43484F43 ("CHOC")
//! 4       1     opcode
//! 5       8     argument (big-endian u64)
//! ```
//!
//! Bytes after the argument (minimum-frame padding, or the flags and
//! sequence number an older sender appended to ask for an
//! acknowledgement) are ignored: the command decodes, nothing is sent
//! back.

use bytes::Bytes;
use choir_dpdk::ControlMsg;
use choir_packet::{EtherType, EthernetHeader, Frame, MacAddr};

/// Magic marking a Choir control payload.
pub const CONTROL_MAGIC: u32 = 0x4348_4F43;

const OP_START_RECORD: u8 = 1;
const OP_STOP_RECORD: u8 = 2;
const OP_SCHEDULE_REPLAY: u8 = 3;
const OP_ABORT_REPLAY: u8 = 4;
const OP_CUSTOM: u8 = 5;

/// Control frame length: Ethernet header + magic + opcode + arg.
pub const CONTROL_FRAME_LEN: usize = EthernetHeader::LEN + 4 + 1 + 8;

/// Encode a control message as an in-band Ethernet frame.
pub fn encode_control(msg: &ControlMsg, src: MacAddr, dst: MacAddr) -> Frame {
    let (op, arg) = match *msg {
        ControlMsg::StartRecord => (OP_START_RECORD, 0),
        ControlMsg::StopRecord => (OP_STOP_RECORD, 0),
        ControlMsg::ScheduleReplay { start_wall_ns } => (OP_SCHEDULE_REPLAY, start_wall_ns),
        ControlMsg::AbortReplay => (OP_ABORT_REPLAY, 0),
        ControlMsg::Custom(v) => (OP_CUSTOM, v),
    };
    let mut buf = vec![0u8; CONTROL_FRAME_LEN];
    EthernetHeader {
        dst,
        src,
        ethertype: EtherType::ChoirControl as u16,
    }
    .write(&mut buf);
    buf[14..18].copy_from_slice(&CONTROL_MAGIC.to_be_bytes());
    buf[18] = op;
    buf[19..27].copy_from_slice(&arg.to_be_bytes());
    Frame::new(Bytes::from(buf))
}

/// True when the frame carries the Choir control EtherType.
pub fn is_control_frame(frame: &Frame) -> bool {
    EthernetHeader::parse(&frame.data)
        .map(|h| h.ethertype == EtherType::ChoirControl as u16)
        .unwrap_or(false)
}

/// Decode an in-band control frame to its command; `None` for anything
/// malformed. Every length/shape check happens here — garbage input can
/// never panic, only fail to decode:
///
/// - wrong EtherType or a frame too short for the Ethernet header;
/// - truncated payload (shorter than [`CONTROL_FRAME_LEN`]);
/// - bad magic or an unknown opcode.
pub fn decode_control(frame: &Frame) -> Option<ControlMsg> {
    if !is_control_frame(frame) || frame.data.len() < CONTROL_FRAME_LEN {
        return None;
    }
    let p = &frame.data[14..];
    if u32::from_be_bytes([p[0], p[1], p[2], p[3]]) != CONTROL_MAGIC {
        return None;
    }
    let arg = u64::from_be_bytes([p[5], p[6], p[7], p[8], p[9], p[10], p[11], p[12]]);
    match p[4] {
        OP_START_RECORD => Some(ControlMsg::StartRecord),
        OP_STOP_RECORD => Some(ControlMsg::StopRecord),
        OP_SCHEDULE_REPLAY => Some(ControlMsg::ScheduleReplay { start_wall_ns: arg }),
        OP_ABORT_REPLAY => Some(ControlMsg::AbortReplay),
        OP_CUSTOM => Some(ControlMsg::Custom(arg)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: ControlMsg) {
        let f = encode_control(&msg, MacAddr::local(1), MacAddr::local(2));
        assert!(is_control_frame(&f));
        assert_eq!(decode_control(&f), Some(msg));
    }

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(ControlMsg::StartRecord);
        roundtrip(ControlMsg::StopRecord);
        roundtrip(ControlMsg::ScheduleReplay {
            start_wall_ns: 123_456_789_012,
        });
        roundtrip(ControlMsg::AbortReplay);
        roundtrip(ControlMsg::Custom(u64::MAX));
    }

    #[test]
    fn data_frames_are_not_control() {
        let b = choir_packet::FrameBuilder::new(100, 1, 2);
        let f = b.build_plain();
        assert!(!is_control_frame(&f));
        assert_eq!(decode_control(&f), None);
    }

    #[test]
    fn bad_magic_rejected() {
        let f = encode_control(
            &ControlMsg::StartRecord,
            MacAddr::local(1),
            MacAddr::local(2),
        );
        let mut data = f.data.to_vec();
        data[14] ^= 0xff;
        assert_eq!(decode_control(&Frame::new(Bytes::from(data))), None);
    }

    #[test]
    fn bad_opcode_rejected() {
        let f = encode_control(
            &ControlMsg::StartRecord,
            MacAddr::local(1),
            MacAddr::local(2),
        );
        // 6 is the first value past the commands; older senders used it
        // for acknowledgements, which are not commands either.
        for op in [0, 6, 99] {
            let mut data = f.data.to_vec();
            data[18] = op;
            assert_eq!(
                decode_control(&Frame::new(Bytes::from(data))),
                None,
                "opcode {op}"
            );
        }
    }

    #[test]
    fn short_frame_rejected() {
        let f = encode_control(
            &ControlMsg::StartRecord,
            MacAddr::local(1),
            MacAddr::local(2),
        );
        let data = f.data.slice(..20);
        let short = Frame::new(data);
        assert_eq!(decode_control(&short), None);
    }

    #[test]
    fn truncation_at_every_length_never_panics() {
        // Chop a valid frame with trailing bytes at every possible
        // boundary: a prefix shorter than the layout must decode to None
        // without panicking — including cuts inside the Ethernet header,
        // inside the magic and mid-argument — and every longer one to the
        // command, whatever part of the trailer survives.
        let msg = ControlMsg::ScheduleReplay {
            start_wall_ns: 0xDEAD_BEEF,
        };
        let mut data = encode_control(&msg, MacAddr::local(1), MacAddr::local(2))
            .data
            .to_vec();
        data.extend_from_slice(&[0x01, 0, 0, 0, 77]);
        let f = Frame::new(Bytes::from(data));
        for cut in 0..=f.data.len() {
            let decoded = decode_control(&Frame::new(f.data.slice(..cut)));
            if cut < CONTROL_FRAME_LEN {
                assert_eq!(decoded, None, "cut at {cut} must not decode");
            } else {
                assert_eq!(decoded, Some(msg), "cut at {cut}");
            }
        }
    }

    #[test]
    fn garbage_payloads_never_panic() {
        // Frames with the control EtherType but arbitrary payload bytes:
        // must decode to None or a valid command, never panic.
        for seed in 0..64u64 {
            for len in [0usize, 1, 13, 14, 18, 26, 27, 28, 31, 32, 60] {
                let mut data = vec![0u8; len];
                let mut x = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(len as u64);
                for b in data.iter_mut() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    *b = x as u8;
                }
                if len >= EthernetHeader::LEN {
                    // Force the control EtherType so we reach the parser.
                    data[12..14].copy_from_slice(&(EtherType::ChoirControl as u16).to_be_bytes());
                }
                let _ = decode_control(&Frame::new(Bytes::from(data)));
            }
        }
    }

    #[test]
    fn trailing_bytes_are_ignored() {
        let legacy = encode_control(
            &ControlMsg::AbortReplay,
            MacAddr::local(1),
            MacAddr::local(2),
        );
        // Minimum-Ethernet-frame zero padding, and the 32-byte frame an
        // old sender built to request an ack (byte 27 = its ack-requested
        // flag, then a sequence number): both are the plain command.
        for trailer in [[0, 0, 0, 0, 0], [0x01, 0xAB, 0xCD, 0x12, 0x34]] {
            let mut data = legacy.data.to_vec();
            data.extend_from_slice(&trailer);
            assert_eq!(data.len(), 32);
            assert_eq!(
                decode_control(&Frame::new(Bytes::from(data))),
                Some(ControlMsg::AbortReplay)
            );
        }
    }
}
