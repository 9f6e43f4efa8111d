//! Capture ingestion: how a pcap becomes [`Observation`]s.
//!
//! [`PcapSource`] reads a capture incrementally from any
//! [`std::io::Read`], one record at a time, so a multi-gigabyte capture
//! feeds an engine or the κ daemon (`choir-ctl ingest-pcap`) with memory
//! bounded by what the consumer chooses to hold; `choir-analyze` drains
//! one into a [`choir_core::metrics::Trial`], so both tools accept and
//! refuse exactly the same captures.
//!
//! It accepts the same four magics as the batch parser
//! (nanosecond/microsecond resolution, native and byte-swapped) and
//! delivers the records [`choir_packet::pcap::parse_pcap`] would, in the
//! same order, converted exactly as
//! [`choir_core::metrics::Trial::from_pcap_records`] converts them.
//!
//! A truncated record fails with a typed [`ChunkError`] naming the byte
//! offset and index of the record the capture broke in. Nothing is
//! buffered, so the salvaged prefix is by construction exactly what
//! [`PcapSource::next_record`] returned before the error — a consumer
//! loses nothing that was intact on disk (DESIGN.md §13.4).

use std::io::{self, Read};

use choir_core::metrics::{Observation, MAX_TIMESTAMP_PS};
use choir_packet::pcap::{magic_format, PcapError, DEFAULT_SNAPLEN};
use choir_packet::PacketId;

/// Where a capture broke: the record that failed to parse. Every record
/// before `record_index` was delivered intact.
#[derive(Debug)]
pub struct ChunkError {
    /// The underlying parse failure.
    pub error: PcapError,
    /// Byte offset where the failed record starts.
    pub byte_offset: u64,
    /// Zero-based index of the record that failed to parse.
    pub record_index: u64,
}

impl std::fmt::Display for ChunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "read failed at record {} (byte offset {}): {}",
            self.record_index, self.byte_offset, self.error
        )
    }
}

impl std::error::Error for ChunkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A typed ingestion failure.
#[derive(Debug)]
pub enum SourceError {
    /// The backing capture failed to parse.
    Capture(ChunkError),
    /// A record's stamp is [`MAX_TIMESTAMP_PS`] or more past the
    /// capture's epoch (its own, or its first record for a wall-clock
    /// capture): the kernels' picosecond arithmetic cannot hold it.
    TimestampOutOfRange {
        /// Zero-based index of the offending record.
        record_index: u64,
        /// Byte offset where the offending record starts.
        byte_offset: u64,
        /// Its raw stamp, nanoseconds.
        ts_ns: u64,
    },
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Capture(e) => write!(f, "capture source failed: {e}"),
            SourceError::TimestampOutOfRange {
                record_index,
                byte_offset,
                ts_ns,
            } => write!(
                f,
                "capture source failed: record {record_index} (byte offset {byte_offset}) \
                 is stamped {ts_ns} ns, 2^62 ps or more past the capture's epoch"
            ),
        }
    }
}

impl std::error::Error for SourceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SourceError::Capture(e) => Some(e),
            SourceError::TimestampOutOfRange { .. } => None,
        }
    }
}

impl From<ChunkError> for SourceError {
    fn from(e: ChunkError) -> Self {
        SourceError::Capture(e)
    }
}

/// An incremental pcap reader delivering one [`Observation`] at a time.
/// Timestamps are converted exactly as
/// [`choir_core::metrics::Trial::from_pcap_records`] converts them
/// (nanoseconds → picoseconds, a wall-clock capture re-based on its
/// first record), so a drained `PcapSource` feeds an engine the same
/// observations the batch pipeline would build — except that a stamp
/// the batch loader saturates is refused here with
/// [`SourceError::TimestampOutOfRange`].
///
/// ```
/// use choir_capture::{drain_available, PcapSource};
/// use choir_packet::pcap::PcapWriter;
/// use choir_packet::Frame;
/// use bytes::Bytes;
///
/// let mut w = PcapWriter::new(Vec::new()).unwrap();
/// for i in 0..10u64 {
///     w.write_record(i * 1_000, &Frame::new(Bytes::from(vec![0u8; 60]))).unwrap();
/// }
/// let buf = w.finish().unwrap();
/// // Cut inside the last record: nine deliver, then the error says where.
/// let mut src = PcapSource::new(&buf[..buf.len() - 5]).unwrap();
/// let mut stamps = Vec::new();
/// let err = drain_available(&mut src, |o| stamps.push(o.t_ps)).unwrap_err();
/// assert_eq!(stamps.len(), 9);
/// assert!(err.to_string().contains("record 9 (byte offset 708)"));
/// ```
pub struct PcapSource<R: Read> {
    input: R,
    swapped: bool,
    subsec_to_ns: u64,
    exhausted: bool,
    records_read: u64,
    /// Byte offset of the next unread record (the 24-byte global header
    /// counts).
    byte_offset: u64,
    /// Stamp of the capture's first record — the epoch a wall-clock
    /// capture is re-based on.
    first_ts_ns: Option<u64>,
    /// The current record's bytes, reused for every record: a record
    /// costs no allocation once the buffer has grown to the capture's
    /// longest one.
    body: Vec<u8>,
}

impl<R: Read> PcapSource<R> {
    /// Open a capture for streaming ingestion: validates the 24-byte
    /// global header.
    pub fn new(mut input: R) -> Result<Self, PcapError> {
        let mut hdr = [0u8; 24];
        input.read_exact(&mut hdr).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                // The capture was cut inside the global header, which
                // starts at byte 0.
                PcapError::Truncated { offset: 0 }
            } else {
                PcapError::Io(e)
            }
        })?;
        let (subsec_to_ns, swapped) =
            magic_format(u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]))?;
        Ok(PcapSource {
            input,
            swapped,
            subsec_to_ns,
            exhausted: false,
            records_read: 0,
            byte_offset: 24,
            first_ts_ns: None,
            body: Vec::new(),
        })
    }

    /// Read a 16-byte record header, distinguishing clean end-of-capture
    /// (EOF on the first byte → `None`) from a capture cut mid-header.
    fn read_record_header(&mut self) -> Result<Option<[u8; 16]>, PcapError> {
        let mut hdr = [0u8; 16];
        let mut filled = 0;
        while filled < 16 {
            match self.input.read(&mut hdr[filled..]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => {
                    return Err(PcapError::Truncated {
                        offset: self.byte_offset,
                    })
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(PcapError::Io(e)),
            }
        }
        Ok(Some(hdr))
    }

    /// Parse the next record into its stamp (ns) and identity; an error
    /// leaves `byte_offset` and `records_read` at the failed record.
    fn read_record(&mut self) -> Result<Option<(u64, PacketId)>, PcapError> {
        let Some(hdr) = self.read_record_header()? else {
            return Ok(None);
        };
        let u32at = |o: usize| {
            let v = u32::from_le_bytes([hdr[o], hdr[o + 1], hdr[o + 2], hdr[o + 3]]);
            if self.swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        let sec = u32at(0) as u64;
        let nsec = u32at(4) as u64;
        let incl = u32at(8) as u64;
        // Room for any record a whole-frame snap length admits; past that
        // the buffer grows with the bytes actually read, never with the
        // declared length, so a damaged header cannot make the reader
        // allocate what the input does not hold.
        self.body.clear();
        self.body.reserve(incl.min(DEFAULT_SNAPLEN.into()) as usize);
        self.input.by_ref().take(incl).read_to_end(&mut self.body)?;
        if self.body.len() as u64 != incl {
            return Err(PcapError::Truncated {
                offset: self.byte_offset,
            });
        }
        self.byte_offset += 16 + incl;
        self.records_read += 1;
        let ts_ns = sec * 1_000_000_000 + nsec * self.subsec_to_ns;
        self.first_ts_ns.get_or_insert(ts_ns);
        // The identity reads only the stored bytes, never the original
        // length of a snapped frame.
        Ok(Some((ts_ns, PacketId::of_frame(&self.body))))
    }

    /// Pull the next observation in arrival order. `Ok(None)` at clean
    /// end-of-capture; an error is terminal (every later call returns
    /// `Ok(None)`).
    pub fn next_record(&mut self) -> Result<Option<Observation>, SourceError> {
        if self.exhausted {
            return Ok(None);
        }
        let record_start = self.byte_offset;
        let (ts_ns, id) = match self.read_record() {
            Ok(Some(rec)) => rec,
            Ok(None) => {
                self.exhausted = true;
                return Ok(None);
            }
            Err(error) => {
                self.exhausted = true;
                return Err(SourceError::Capture(ChunkError {
                    error,
                    byte_offset: self.byte_offset,
                    record_index: self.records_read,
                }));
            }
        };
        const MAX_NS: u64 = (MAX_TIMESTAMP_PS - 1) / 1000;
        let first_ns = self.first_ts_ns.expect("a record was read");
        let epoch_ns = if first_ns <= MAX_NS { 0 } else { first_ns };
        let ns = ts_ns.saturating_sub(epoch_ns);
        if ns > MAX_NS {
            self.exhausted = true;
            return Err(SourceError::TimestampOutOfRange {
                record_index: self.records_read - 1,
                byte_offset: record_start,
                ts_ns,
            });
        }
        Ok(Some(Observation { id, t_ps: ns * 1000 }))
    }

    /// `true` once the capture can never yield another record: clean
    /// end-of-capture or a terminal error.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }
}

/// Drain a capture into a callback. Returns how many records were
/// delivered; on an error the callback has already received every
/// record before the failed one.
pub fn drain_available<R: Read>(
    src: &mut PcapSource<R>,
    mut sink: impl FnMut(Observation),
) -> Result<u64, SourceError> {
    let mut n = 0;
    while let Some(o) = src.next_record()? {
        sink(o);
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use choir_core::metrics::Trial;
    use choir_packet::pcap::{
        parse_pcap, PcapWriter, LINKTYPE_ETHERNET, PCAP_NS_MAGIC, PCAP_US_MAGIC,
    };
    use choir_packet::{ChoirTag, Frame};

    fn sample_pcap(n: u64) -> Vec<u8> {
        sample_pcap_at(n, 0)
    }

    /// `n` tagged frames 1 µs apart, the first stamped `base_ns + 37`.
    fn sample_pcap_at(n: u64, base_ns: u64) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..n {
            let mut buf = vec![0u8; 80];
            ChoirTag::new(1, 0, i).stamp_trailer(&mut buf);
            w.write_record(base_ns + i * 1_000 + 37, &Frame::new(Bytes::from(buf)))
                .unwrap();
        }
        w.finish().unwrap()
    }

    /// Everything the source delivers from `bytes`, and how it ended.
    fn drain(bytes: &[u8]) -> (Trial, Result<u64, SourceError>) {
        let mut src = PcapSource::new(bytes).unwrap();
        let mut t = Trial::new();
        let end = drain_available(&mut src, |o| t.push(o.id, o.t_ps));
        assert!(src.is_exhausted());
        assert!(src.next_record().unwrap().is_none(), "the end is terminal");
        (t, end)
    }

    #[test]
    fn pcap_source_matches_batch_trial_exactly() {
        let buf = sample_pcap(101);
        let batch = Trial::from_pcap_records(&parse_pcap(&buf).unwrap());
        let (streamed, end) = drain(&buf);
        assert_eq!(end.unwrap(), 101);
        assert_eq!(streamed, batch);
    }

    #[test]
    fn empty_capture_yields_no_records() {
        let buf = PcapWriter::new(Vec::new()).unwrap().finish().unwrap();
        let (t, end) = drain(&buf);
        assert_eq!(end.unwrap(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn wall_clock_capture_is_rebased_on_its_first_record() {
        // 2026-01-01T00:00:00Z in ns: ×1000 does not fit u64.
        const Y2026_NS: u64 = 1_767_225_600 * 1_000_000_000;
        let buf = sample_pcap_at(60, Y2026_NS);
        let batch = Trial::from_pcap_records(&parse_pcap(&buf).unwrap());
        let (streamed, end) = drain(&buf);
        assert_eq!(end.unwrap(), 60);
        assert_eq!(streamed, batch);
        let zeroed = Trial::from_pcap_records(&parse_pcap(&sample_pcap(60)).unwrap()).rezeroed();
        assert_eq!(batch, zeroed);
    }

    #[test]
    fn stamp_out_of_range_after_rebasing_is_a_typed_terminal_error() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        let frame = Frame::new(Bytes::from(vec![0u8; 80]));
        w.write_record(1_000, &frame).unwrap();
        w.write_record(MAX_TIMESTAMP_PS / 1000 + 1, &frame).unwrap();
        w.write_record(2_000, &frame).unwrap();
        let buf = w.finish().unwrap();
        let mut src = PcapSource::new(&buf[..]).unwrap();
        assert!(src.next_record().unwrap().is_some());
        let err = src.next_record().unwrap_err();
        assert!(
            matches!(err, SourceError::TimestampOutOfRange { record_index: 1, byte_offset: 120, ts_ns } if ts_ns == MAX_TIMESTAMP_PS / 1000 + 1),
            "{err}"
        );
        assert!(src.is_exhausted());
        assert!(src.next_record().unwrap().is_none());
        // The batch loader has no error channel: it saturates instead.
        let batch = Trial::from_pcap_records(&parse_pcap(&buf).unwrap());
        assert_eq!(batch.time(1), (MAX_TIMESTAMP_PS - 1) / 1000 * 1000);
    }

    #[test]
    fn bad_magic_rejected_up_front() {
        let mut buf = sample_pcap(1);
        buf[0] ^= 0xff;
        assert!(matches!(
            PcapSource::new(&buf[..]),
            Err(PcapError::BadMagic(_))
        ));
    }

    #[test]
    fn truncated_global_header() {
        assert!(matches!(
            PcapSource::new(&[0u8; 10][..]),
            Err(PcapError::Truncated { offset: 0 })
        ));
    }

    #[test]
    fn truncated_record_body_delivers_exact_prefix_then_typed_error() {
        let buf = sample_pcap(9);
        let batch = parse_pcap(&buf).unwrap();
        // Cut inside record 6's body.
        let cut = 24 + 6 * (16 + 80) + 16 + 11;
        let (prefix, end) = drain(&buf[..cut]);
        assert_eq!(prefix, Trial::from_pcap_records(&batch[..6]));
        let err = end.unwrap_err();
        assert!(err.to_string().contains("capture source failed"));
        assert!(
            err.to_string().contains("record 6 (byte offset 600)"),
            "{err}"
        );
        let SourceError::Capture(e) = err else {
            panic!("expected a capture error, got {err}");
        };
        assert_eq!(e.record_index, 6);
        assert_eq!(e.byte_offset, 24 + 6 * (16 + 80));
        assert!(matches!(e.error, PcapError::Truncated { offset: 600 }));
    }

    #[test]
    fn record_declaring_more_than_the_input_holds_is_truncated_not_allocated() {
        // A damaged tail: a record header claiming 0xFFFF_FFF0 bytes with
        // ten behind it. The typed error names the record; the reader
        // never asks for the declared length (it reads through `take`
        // into a buffer reserved for one snap length at most).
        for big_endian in [false, true] {
            let mut buf = handmade_pcap(PCAP_NS_MAGIC, big_endian, 1, 2, &[0xAB; 10]);
            let declared = 0xFFFF_FFF0_u32;
            let incl = if big_endian { declared.to_be_bytes() } else { declared.to_le_bytes() };
            buf[24 + 8..24 + 12].copy_from_slice(&incl);
            let (prefix, end) = drain(&buf);
            assert!(prefix.is_empty());
            let SourceError::Capture(e) = end.unwrap_err() else {
                panic!("expected a capture error");
            };
            assert!(matches!(e.error, PcapError::Truncated { offset: 24 }), "{}", e.error);
            assert_eq!((e.byte_offset, e.record_index), (24, 0));
        }
        // A capture cut inside a *valid* jumbo record still delivers the
        // exact prefix before it.
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..3u64 {
            let mut frame = vec![0u8; 9_000];
            ChoirTag::new(1, 0, i).stamp_trailer(&mut frame);
            w.write_record(i * 1_000, &Frame::new(Bytes::from(frame))).unwrap();
        }
        let buf = w.finish().unwrap();
        let batch = parse_pcap(&buf).unwrap();
        let cut = 24 + 2 * (16 + 9_000) + 16 + 4_321;
        let (prefix, end) = drain(&buf[..cut]);
        assert_eq!(prefix, Trial::from_pcap_records(&batch[..2]));
        let SourceError::Capture(e) = end.unwrap_err() else {
            panic!("expected a capture error");
        };
        assert_eq!((e.byte_offset, e.record_index), (24 + 2 * (16 + 9_000), 2));
    }

    #[test]
    fn truncated_record_header_errors_with_offset() {
        let buf = sample_pcap(1);
        // Global header + 8 of the 16 record-header bytes.
        let (prefix, end) = drain(&buf[..32]);
        assert!(prefix.is_empty());
        let SourceError::Capture(e) = end.unwrap_err() else {
            panic!("expected a capture error");
        };
        assert!(matches!(e.error, PcapError::Truncated { offset: 24 }));
        assert_eq!((e.byte_offset, e.record_index), (24, 0));
    }

    /// A one-record pcap with explicit endianness and magic (mirrors the
    /// batch parser's handmade fixture).
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
        put(&mut buf, 0);
        put(&mut buf, 0);
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
    fn all_four_magics_match_batch_parser() {
        for (magic, big_endian) in [
            (PCAP_NS_MAGIC, false),
            (PCAP_US_MAGIC, false),
            (PCAP_US_MAGIC, true),
            (PCAP_NS_MAGIC, true),
        ] {
            let buf = handmade_pcap(magic, big_endian, 1, 2, b"abcd");
            let batch = Trial::from_pcap_records(&parse_pcap(&buf).unwrap());
            let (streamed, end) = drain(&buf);
            assert_eq!(end.unwrap(), 1, "magic {magic:#x} be={big_endian}");
            assert_eq!(streamed, batch, "magic {magic:#x} be={big_endian}");
            let unit_ns = if magic == PCAP_US_MAGIC { 1_000 } else { 1 };
            assert_eq!(streamed.time(0), (1_000_000_000 + 2 * unit_ns) * 1_000);
        }
    }
}
