//! Nanosecond-resolution pcap reading and writing.
//!
//! The paper's artifact captures traffic with `dpdkcap` and analyzes the
//! resulting pcaps. This module implements the classic pcap container with
//! the nanosecond-timestamp magic (`0xA1B23C4D`), which is what
//! high-precision capture tools emit, so Choir trials can round-trip
//! through standard tooling.
//!
//! The simulator's native resolution is picoseconds; callers round
//! timestamps to the nearest nanosecond before writing (pcap cannot
//! represent finer — see `choir_capture::Recorder::write_pcap` and
//! `choir_netsim`'s clock, which both round-to-nearest rather than
//! truncate, so sub-ns residue never biases IAT/latency deltas).
//!
//! Reading accepts all four classic magics: nanosecond and microsecond
//! resolution, in both native and byte-swapped (opposite-endian writer)
//! order. Writing emits little-endian nanosecond pcap and clamps stored
//! bytes to the advertised snap length, preserving the original length,
//! exactly as capture tooling does for oversize frames.

use std::io::{self, Write};

use bytes::Bytes;

use crate::Frame;

/// Magic number for nanosecond-resolution pcap, native byte order.
pub const PCAP_NS_MAGIC: u32 = 0xA1B2_3C4D;
/// Magic number for classic microsecond-resolution pcap.
pub const PCAP_US_MAGIC: u32 = 0xA1B2_C3D4;
/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Default snap length: capture whole frames.
pub const DEFAULT_SNAPLEN: u32 = 65_535;

/// One captured record: a frame and its arrival timestamp in nanoseconds
/// since the capture epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapRecord {
    /// Arrival time in nanoseconds.
    pub ts_ns: u64,
    /// The captured frame.
    pub frame: Frame,
}

/// Errors from pcap parsing.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The global header's magic number was not a known pcap magic.
    BadMagic(u32),
    /// A record header claimed more bytes than remain. `offset` is the
    /// byte position (from the start of the capture) where the cut item
    /// begins, so truncation reports say *where* the capture broke.
    Truncated {
        /// Byte offset of the item the capture was cut inside.
        offset: u64,
    },
}

impl PcapError {
    /// The byte offset a truncation was detected at, if this is a
    /// truncation error.
    pub fn offset(&self) -> Option<u64> {
        match self {
            PcapError::Truncated { offset } => Some(*offset),
            _ => None,
        }
    }
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap i/o error: {e}"),
            PcapError::BadMagic(m) => write!(f, "not a pcap capture (magic {m:#010x})"),
            PcapError::Truncated { offset } => {
                write!(f, "pcap truncated mid-record at byte offset {offset}")
            }
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

/// Streaming pcap writer.
pub struct PcapWriter<W: Write> {
    out: W,
    records: u64,
    bytes_written: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Write the global header and return a writer. Failures report the
    /// byte offset the write broke at, like every other writer error.
    pub fn new(out: W) -> io::Result<Self> {
        let mut w = PcapWriter {
            out,
            records: 0,
            bytes_written: 0,
        };
        let mut hdr = Vec::with_capacity(24);
        hdr.extend_from_slice(&PCAP_NS_MAGIC.to_le_bytes());
        hdr.extend_from_slice(&2u16.to_le_bytes()); // major
        hdr.extend_from_slice(&4u16.to_le_bytes()); // minor
        hdr.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        hdr.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        hdr.extend_from_slice(&DEFAULT_SNAPLEN.to_le_bytes());
        hdr.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        w.write_tracked(&hdr)?;
        Ok(w)
    }

    /// `write_all` that threads the output byte offset into any error, so
    /// a failed write says exactly where the container was left cut.
    fn write_tracked(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.out.write_all(bytes).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!(
                    "pcap write failed at byte offset {} (record {}): {e}",
                    self.bytes_written, self.records
                ),
            )
        })?;
        self.bytes_written += bytes.len() as u64;
        Ok(())
    }

    /// Append one record. Frames larger than the advertised
    /// [`DEFAULT_SNAPLEN`] are stored truncated — `incl` and the bytes
    /// written are clamped to the snap length while `orig` keeps the full
    /// on-wire length, so oversize frames round-trip as properly
    /// truncated records instead of corrupting the container (a record
    /// header whose `incl` exceeds the global snaplen is rejected by
    /// standard tooling).
    pub fn write_record(&mut self, ts_ns: u64, frame: &Frame) -> io::Result<()> {
        let sec = (ts_ns / 1_000_000_000) as u32;
        let nsec = (ts_ns % 1_000_000_000) as u32;
        let incl = (frame.len() as u32).min(DEFAULT_SNAPLEN);
        let orig = frame.orig_len() as u32;
        let mut hdr = [0u8; 16];
        hdr[0..4].copy_from_slice(&sec.to_le_bytes());
        hdr[4..8].copy_from_slice(&nsec.to_le_bytes());
        hdr[8..12].copy_from_slice(&incl.to_le_bytes());
        hdr[12..16].copy_from_slice(&orig.to_le_bytes());
        self.write_tracked(&hdr)?;
        self.write_tracked(&frame.data[..incl as usize])?;
        self.records += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Total container bytes written so far (global header included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Flush and return the inner writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// What a capture's magic (its first four bytes, read little-endian)
/// says about the rest of it: `(sub-second units in ns, byte-swapped)`.
///
/// Sub-second units are nanoseconds for the high-precision magic the
/// recorder writes, microseconds for classic captures from ordinary
/// tooling. A swapped magic means the writer's byte order was the
/// opposite of little-endian wire order, so all fields swap.
pub fn magic_format(raw_magic: u32) -> Result<(u64, bool), PcapError> {
    match raw_magic {
        PCAP_NS_MAGIC => Ok((1, false)),
        PCAP_US_MAGIC => Ok((1_000, false)),
        m if m == PCAP_NS_MAGIC.swap_bytes() => Ok((1, true)),
        m if m == PCAP_US_MAGIC.swap_bytes() => Ok((1_000, true)),
        other => Err(PcapError::BadMagic(other)),
    }
}

/// Parse a nanosecond or microsecond pcap from a byte slice.
///
/// Both byte orders are accepted: a byte-swapped magic
/// (`0x4D3CB2A1` / `0xD4C3B2A1` as read little-endian) marks a capture
/// written on an opposite-endian host, and every header and record field
/// is byte-swapped accordingly. The parsed records are identical to
/// those of the native-endian twin of the same capture.
pub fn parse_pcap(data: &[u8]) -> Result<Vec<PcapRecord>, PcapError> {
    if data.len() < 24 {
        return Err(PcapError::Truncated { offset: 0 });
    }
    let (subsec_to_ns, swapped) =
        magic_format(u32::from_le_bytes([data[0], data[1], data[2], data[3]]))?;
    let mut records = Vec::new();
    // Record headers are read from the borrowed input, not through a
    // `Bytes` deref per byte.
    let raw = &data[24..];
    let body = Bytes::copy_from_slice(raw);
    let mut boff = 0usize;
    while boff < raw.len() {
        if raw.len() - boff < 16 {
            return Err(PcapError::Truncated {
                offset: 24 + boff as u64,
            });
        }
        let u32at = |o: usize| {
            let v = u32::from_le_bytes([raw[o], raw[o + 1], raw[o + 2], raw[o + 3]]);
            if swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        let sec = u32at(boff) as u64;
        let nsec = u32at(boff + 4) as u64;
        let incl = u32at(boff + 8) as usize;
        let orig = u32at(boff + 12);
        boff += 16;
        if raw.len() - boff < incl {
            return Err(PcapError::Truncated {
                offset: 24 + boff as u64 - 16,
            });
        }
        // slice() on Bytes is zero-copy: records share the file buffer.
        let data = body.slice(boff..boff + incl);
        let frame = if orig as usize > incl {
            Frame::truncated(data, orig)
        } else {
            Frame::new(data)
        };
        boff += incl;
        records.push(PcapRecord {
            ts_ns: sec * 1_000_000_000 + nsec * subsec_to_ns,
            frame,
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::ChoirTag;

    fn tagged_frame(seq: u64) -> Frame {
        let mut buf = vec![0u8; 128];
        ChoirTag::new(1, 0, seq).stamp_trailer(&mut buf);
        Frame::new(Bytes::from(buf))
    }

    #[test]
    fn roundtrip_three_records() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for (i, ts) in [(0u64, 100u64), (1, 2_000_000_123), (2, 2_000_000_456)] {
            w.write_record(ts, &tagged_frame(i)).unwrap();
        }
        assert_eq!(w.records_written(), 3);
        let buf = w.finish().unwrap();
        let recs = parse_pcap(&buf).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].ts_ns, 100);
        assert_eq!(recs[1].ts_ns, 2_000_000_123);
        assert_eq!(recs[2].frame.tag().unwrap().seq, 2);
    }

    #[test]
    fn empty_pcap_roundtrip() {
        let w = PcapWriter::new(Vec::new()).unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(buf.len(), 24);
        assert!(parse_pcap(&buf).unwrap().is_empty());
    }

    #[test]
    fn bad_magic() {
        let mut buf = PcapWriter::new(Vec::new()).unwrap().finish().unwrap();
        buf[0] ^= 0xff;
        assert!(matches!(parse_pcap(&buf), Err(PcapError::BadMagic(_))));
    }

    #[test]
    fn classic_microsecond_pcap_parses() {
        // A hand-built classic (us) pcap with one 4-byte record at
        // 1.000002 s.
        let mut buf = Vec::new();
        buf.extend_from_slice(&PCAP_US_MAGIC.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&4u16.to_le_bytes());
        buf.extend_from_slice(&0i32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&65_535u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // sec
        buf.extend_from_slice(&2u32.to_le_bytes()); // usec
        buf.extend_from_slice(&4u32.to_le_bytes()); // incl
        buf.extend_from_slice(&4u32.to_le_bytes()); // orig
        buf.extend_from_slice(b"abcd");
        let recs = parse_pcap(&buf).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].ts_ns, 1_000_002_000);
        assert_eq!(&recs[0].frame.data[..], b"abcd");
    }

    #[test]
    fn truncated_header() {
        assert!(matches!(
            parse_pcap(&[0u8; 10]),
            Err(PcapError::Truncated { offset: 0 })
        ));
    }

    #[test]
    fn truncated_record_body_reports_record_start() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(5, &tagged_frame(0)).unwrap();
        let buf = w.finish().unwrap();
        // The cut record starts right after the 24-byte global header.
        match parse_pcap(&buf[..buf.len() - 1]) {
            Err(PcapError::Truncated { offset }) => assert_eq!(offset, 24),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn truncated_record_header_reports_record_start() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(5, &tagged_frame(0)).unwrap();
        let buf = w.finish().unwrap();
        // Keep global header + 8 bytes of the record header.
        match parse_pcap(&buf[..32]) {
            Err(PcapError::Truncated { offset }) => assert_eq!(offset, 24),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn truncation_in_second_record_reports_its_offset() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(5, &tagged_frame(0)).unwrap();
        let first_end = w.bytes_written();
        w.write_record(6, &tagged_frame(1)).unwrap();
        let buf = w.finish().unwrap();
        match parse_pcap(&buf[..buf.len() - 3]) {
            Err(PcapError::Truncated { offset }) => {
                assert_eq!(offset, first_end, "offset names the second record");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        assert!(parse_pcap(&buf[..buf.len() - 3])
            .unwrap_err()
            .to_string()
            .contains(&format!("byte offset {first_end}")));
    }

    #[test]
    fn writer_errors_carry_byte_offset() {
        /// A sink that accepts `cap` bytes, then fails.
        struct Flaky {
            cap: usize,
            seen: usize,
        }
        impl Write for Flaky {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.seen + buf.len() > self.cap {
                    return Err(io::Error::other("disk full"));
                }
                self.seen += buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // Room for the global header and one record header, then fail
        // inside the second record's payload write.
        let f = tagged_frame(0);
        let cap = 24 + 16 + f.len() + 16;
        let mut w = PcapWriter::new(Flaky { cap, seen: 0 }).unwrap();
        w.write_record(1, &f).unwrap();
        let err = w.write_record(2, &f).unwrap_err();
        let offset = 24 + 16 + f.len() as u64 + 16;
        assert!(
            err.to_string().contains(&format!("byte offset {offset}")),
            "error should name the failing offset: {err}"
        );
        assert!(err.to_string().contains("record 1"));
    }

    #[test]
    fn timestamps_above_one_second() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        let ts = 12 * 1_000_000_000 + 345;
        w.write_record(ts, &tagged_frame(0)).unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(parse_pcap(&buf).unwrap()[0].ts_ns, ts);
    }

    #[test]
    fn snaplen_roundtrip_preserves_orig_len() {
        let mut buf = vec![0u8; 58];
        ChoirTag::new(0, 0, 5).stamp_trailer(&mut buf);
        let f = Frame::truncated(Bytes::from(buf), 1400);
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(7, &f).unwrap();
        let out = w.finish().unwrap();
        let recs = parse_pcap(&out).unwrap();
        assert_eq!(recs[0].frame.len(), 58);
        assert_eq!(recs[0].frame.orig_len(), 1400);
        assert_eq!(recs[0].frame.tag().unwrap().seq, 5);
    }

    /// Build a one-record pcap with explicit endianness and magic.
    fn handmade_pcap(
        magic: u32,
        big_endian: bool,
        sec: u32,
        subsec: u32,
        payload: &[u8],
    ) -> Vec<u8> {
        let put = |buf: &mut Vec<u8>, v: u32| {
            if big_endian {
                buf.extend_from_slice(&v.to_be_bytes());
            } else {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        };
        let put16 = |buf: &mut Vec<u8>, v: u16| {
            if big_endian {
                buf.extend_from_slice(&v.to_be_bytes());
            } else {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        };
        let mut buf = Vec::new();
        put(&mut buf, magic);
        put16(&mut buf, 2);
        put16(&mut buf, 4);
        put(&mut buf, 0); // thiszone
        put(&mut buf, 0); // sigfigs
        put(&mut buf, DEFAULT_SNAPLEN);
        put(&mut buf, LINKTYPE_ETHERNET);
        put(&mut buf, sec);
        put(&mut buf, subsec);
        put(&mut buf, payload.len() as u32);
        put(&mut buf, payload.len() as u32);
        buf.extend_from_slice(payload);
        buf
    }

    #[test]
    fn byte_swapped_ns_magic_parses_identically() {
        let native = handmade_pcap(PCAP_NS_MAGIC, false, 3, 123_456_789, b"wxyz");
        let swapped = handmade_pcap(PCAP_NS_MAGIC, true, 3, 123_456_789, b"wxyz");
        let a = parse_pcap(&native).unwrap();
        let b = parse_pcap(&swapped).unwrap();
        assert_eq!(a, b);
        assert_eq!(b[0].ts_ns, 3_123_456_789);
        assert_eq!(&b[0].frame.data[..], b"wxyz");
    }

    #[test]
    fn byte_swapped_us_magic_parses_identically() {
        let native = handmade_pcap(PCAP_US_MAGIC, false, 1, 2, b"abcd");
        let swapped = handmade_pcap(PCAP_US_MAGIC, true, 1, 2, b"abcd");
        let a = parse_pcap(&native).unwrap();
        let b = parse_pcap(&swapped).unwrap();
        assert_eq!(a, b);
        assert_eq!(b[0].ts_ns, 1_000_002_000);
    }

    #[test]
    fn swapped_record_lengths_are_swapped_too() {
        // A record whose incl would be enormous if misread in the wrong
        // byte order: 4 = 0x00000004 LE reads as 0x04000000 when the
        // parser forgets to swap record fields, tripping Truncated.
        let swapped = handmade_pcap(PCAP_NS_MAGIC, true, 0, 0, b"abcd");
        let recs = parse_pcap(&swapped).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].frame.len(), 4);
    }

    #[test]
    fn oversize_frame_roundtrips_as_truncated_record() {
        // A frame larger than the advertised snaplen must be stored
        // clamped, with orig preserving the on-wire length.
        let n = DEFAULT_SNAPLEN as usize + 1_000;
        let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        let f = Frame::new(Bytes::from(data.clone()));
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(11, &f).unwrap();
        let buf = w.finish().unwrap();
        let recs = parse_pcap(&buf).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].frame.len(), DEFAULT_SNAPLEN as usize);
        assert_eq!(recs[0].frame.orig_len(), n);
        assert_eq!(&recs[0].frame.data[..], &data[..DEFAULT_SNAPLEN as usize]);
        // Another record after the oversize one still parses: the clamp
        // kept the container well-formed.
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(11, &f).unwrap();
        w.write_record(22, &tagged_frame(7)).unwrap();
        let buf = w.finish().unwrap();
        let recs = parse_pcap(&buf).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].frame.tag().unwrap().seq, 7);
    }
}
