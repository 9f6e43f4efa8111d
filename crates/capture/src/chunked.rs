//! Chunked pcap reading for the streaming κ engine.
//!
//! [`choir_packet::pcap::read_pcap`] materializes a whole capture before
//! anything can be analyzed — fine for the batch pipeline, wasteful for
//! [`choir_core::metrics::stream`], which only ever needs the next burst.
//! [`PcapChunkReader`] reads a capture incrementally from any
//! [`std::io::Read`], yielding record batches of a configurable size, so
//! a multi-gigabyte capture streams into an `IncrementalComparison` with
//! memory bounded by the chunk size (plus the engine's lookahead window).
//!
//! The reader accepts the same four magics as the batch parser
//! (nanosecond/microsecond resolution, native and byte-swapped) and
//! yields records identical to [`choir_packet::pcap::parse_pcap`]'s, in
//! the same order — only the delivery granularity differs.
//!
//! ## Salvage mode and the ingestion journal
//!
//! A truncated or garbage record no longer discards the chunk read so
//! far: the reader fails with a typed [`ChunkError`] carrying the byte
//! offset and index of the bad record *plus every record successfully
//! parsed before it* (`salvaged`), so a crash-tolerant consumer loses
//! nothing that was intact on disk.
//!
//! For crash recovery the reader also keeps a journaled ingestion
//! cursor, [`IngestCursor`]: records consumed, the byte offset of the
//! next unread record, and a CRC-32 of the last consumed record.
//! [`PcapChunkReader::resume`] re-opens a capture, fast-forwards to the
//! cursor, and verifies the CRC — so a resumed reader either
//! re-synchronizes to the *exact* next record or fails loudly when the
//! underlying capture changed underneath the journal. DESIGN.md §13
//! spells out the contract.

use std::io::{self, Read};

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use choir_packet::pcap::{PcapError, PcapRecord, PCAP_NS_MAGIC, PCAP_US_MAGIC};
use choir_packet::Frame;

/// Default records per chunk: roughly a few mbuf bursts' worth.
pub const DEFAULT_CHUNK_RECORDS: usize = 1024;

/// CRC-32 (IEEE 802.3: reflected, polynomial `0xEDB88320`) — the tree
/// vendors no checksum crate, so the journal rolls its own. Bitwise,
/// which is plenty for one record at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= 0xEDB8_8320;
            }
        }
    }
    !crc
}

/// The journaled ingestion cursor: where a reader stands in a capture,
/// in a form a supervisor can persist next to a stream checkpoint and
/// hand back to [`PcapChunkReader::resume`] after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IngestCursor {
    /// Records fully consumed so far.
    pub records_consumed: u64,
    /// Byte offset of the next unread record (the 24-byte global header
    /// counts, so a fresh reader starts at 24).
    pub byte_offset: u64,
    /// [`crc32`] of the last consumed record's 16-byte header + body;
    /// `0` when nothing has been consumed yet.
    pub last_record_crc: u32,
}

/// A typed chunk-read failure: where the capture broke, and everything
/// that parsed cleanly before it (salvage mode — the chunk's good prefix
/// is *returned*, not discarded).
#[derive(Debug)]
pub struct ChunkError {
    /// The underlying parse failure.
    pub error: PcapError,
    /// Byte offset where the failed record starts.
    pub byte_offset: u64,
    /// Zero-based index of the record that failed to parse.
    pub record_index: u64,
    /// Records of this chunk parsed successfully before the failure.
    pub salvaged: Vec<PcapRecord>,
}

impl std::fmt::Display for ChunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chunk read failed at record {} (byte offset {}), {} record(s) salvaged: {}",
            self.record_index,
            self.byte_offset,
            self.salvaged.len(),
            self.error
        )
    }
}

impl std::error::Error for ChunkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// An incremental pcap reader yielding batches of records.
///
/// ```
/// use choir_capture::chunked::PcapChunkReader;
/// use choir_packet::pcap::PcapWriter;
/// use choir_packet::Frame;
/// use bytes::Bytes;
///
/// let mut w = PcapWriter::new(Vec::new()).unwrap();
/// for i in 0..10u64 {
///     w.write_record(i * 1_000, &Frame::new(Bytes::from(vec![0u8; 60]))).unwrap();
/// }
/// let buf = w.finish().unwrap();
/// let mut reader = PcapChunkReader::new(&buf[..], 4).unwrap();
/// let mut sizes = Vec::new();
/// for chunk in reader.by_ref() {
///     match chunk {
///         Ok(records) => sizes.push(records.len()),
///         Err(e) => {
///             // Salvage mode: the records before the failure are still
///             // here, with the byte offset of where the capture broke.
///             eprintln!("capture cut at byte {}, kept {}", e.byte_offset, e.salvaged.len());
///             sizes.push(e.salvaged.len());
///         }
///     }
/// }
/// assert_eq!(sizes, [4, 4, 2]);
/// assert_eq!(reader.cursor().records_consumed, 10);
/// ```
pub struct PcapChunkReader<R: Read> {
    input: R,
    swapped: bool,
    subsec_to_ns: u64,
    chunk: usize,
    done: bool,
    records_consumed: u64,
    byte_offset: u64,
    last_record_crc: u32,
    /// Timestamp of the capture's first record, once read (a resumed
    /// reader re-reads it while fast-forwarding).
    first_ts_ns: Option<u64>,
}

impl<R: Read> std::fmt::Debug for PcapChunkReader<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PcapChunkReader")
            .field("cursor", &self.cursor())
            .field("chunk", &self.chunk)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl<R: Read> PcapChunkReader<R> {
    /// Validate the 24-byte global header and return a reader that yields
    /// up to `chunk_size` records per batch (`0` is clamped to 1).
    pub fn new(mut input: R, chunk_size: usize) -> Result<Self, PcapError> {
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
        let raw_magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
        let (subsec_to_ns, swapped): (u64, bool) = match raw_magic {
            PCAP_NS_MAGIC => (1, false),
            PCAP_US_MAGIC => (1_000, false),
            m if m == PCAP_NS_MAGIC.swap_bytes() => (1, true),
            m if m == PCAP_US_MAGIC.swap_bytes() => (1_000, true),
            other => return Err(PcapError::BadMagic(other)),
        };
        Ok(PcapChunkReader {
            input,
            swapped,
            subsec_to_ns,
            chunk: chunk_size.max(1),
            done: false,
            records_consumed: 0,
            byte_offset: 24,
            last_record_crc: 0,
            first_ts_ns: None,
        })
    }

    /// Re-open a capture and fast-forward to a journaled cursor. The
    /// skipped records are re-parsed (structure re-validated), and the
    /// last skipped record's CRC must equal the journal's — a mismatch
    /// means the capture on disk is not the one the journal describes,
    /// and resuming would silently misalign every subsequent record.
    ///
    /// On success the reader's next record is exactly the one the
    /// original would have read next.
    pub fn resume(input: R, chunk_size: usize, cursor: IngestCursor) -> Result<Self, ChunkError> {
        let mut rd = Self::new(input, chunk_size).map_err(|error| ChunkError {
            byte_offset: 0,
            record_index: 0,
            salvaged: Vec::new(),
            error,
        })?;
        for _ in 0..cursor.records_consumed {
            let start = rd.byte_offset;
            match rd.read_one_record() {
                Ok(Some(_)) => {}
                Ok(None) => {
                    return Err(rd.resync_failure(
                        start,
                        "capture ends before the journaled cursor".into(),
                    ))
                }
                Err(error) => {
                    return Err(ChunkError {
                        byte_offset: start,
                        record_index: rd.records_consumed,
                        salvaged: Vec::new(),
                        error,
                    })
                }
            }
        }
        if rd.byte_offset != cursor.byte_offset {
            return Err(rd.resync_failure(
                rd.byte_offset,
                format!(
                    "journal byte offset {} but re-read landed at {}",
                    cursor.byte_offset, rd.byte_offset
                ),
            ));
        }
        if cursor.records_consumed > 0 && rd.last_record_crc != cursor.last_record_crc {
            return Err(rd.resync_failure(
                rd.byte_offset,
                format!(
                    "journal CRC {:#010x} but last consumed record hashes to {:#010x}",
                    cursor.last_record_crc, rd.last_record_crc
                ),
            ));
        }
        Ok(rd)
    }

    fn resync_failure(&self, byte_offset: u64, why: String) -> ChunkError {
        ChunkError {
            byte_offset,
            record_index: self.records_consumed,
            salvaged: Vec::new(),
            error: PcapError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("journal re-sync failed: {why}"),
            )),
        }
    }

    /// The journaled position after everything consumed so far. Records
    /// handed back inside a [`ChunkError`]'s `salvaged` list count as
    /// consumed — the cursor always names the first *unread* record.
    pub fn cursor(&self) -> IngestCursor {
        IngestCursor {
            records_consumed: self.records_consumed,
            byte_offset: self.byte_offset,
            last_record_crc: self.last_record_crc,
        }
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

    /// Read one record, updating the journal cursor on success. Errors
    /// leave the cursor at the failed record's start.
    fn read_one_record(&mut self) -> Result<Option<PcapRecord>, PcapError> {
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
        let incl = u32at(8) as usize;
        let orig = u32at(12);
        let mut body = vec![0u8; incl];
        self.input.read_exact(&mut body).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                PcapError::Truncated {
                    offset: self.byte_offset,
                }
            } else {
                PcapError::Io(e)
            }
        })?;
        let mut crc = crc32(&hdr);
        // Chain header and body CRCs: crc32(hdr ++ body) without a copy.
        crc = crc32_continue(crc, &body);
        self.last_record_crc = crc;
        self.byte_offset += 16 + incl as u64;
        self.records_consumed += 1;
        let data = Bytes::from(body);
        let frame = if orig as usize > incl {
            Frame::truncated(data, orig)
        } else {
            Frame::new(data)
        };
        let ts_ns = sec * 1_000_000_000 + nsec * self.subsec_to_ns;
        self.first_ts_ns.get_or_insert(ts_ns);
        Ok(Some(PcapRecord { ts_ns, frame }))
    }

    /// Timestamp of the capture's first record — the epoch a wall-clock
    /// capture is re-based on. `None` until a record has been read.
    pub(crate) fn first_ts_ns(&self) -> Option<u64> {
        self.first_ts_ns
    }

    /// Read a single record, journaled exactly like [`Self::next_chunk`]
    /// (the cursor advances per record, so [`Self::cursor`] always names
    /// the first unread record). `Ok(None)` at clean EOF; a parse
    /// failure is terminal and carries no salvage list — at this
    /// granularity there is never a buffered prefix to hand back.
    pub fn next_record(&mut self) -> Result<Option<PcapRecord>, ChunkError> {
        if self.done {
            return Ok(None);
        }
        let rec_start = self.byte_offset;
        match self.read_one_record() {
            Ok(Some(rec)) => Ok(Some(rec)),
            Ok(None) => {
                self.done = true;
                Ok(None)
            }
            Err(error) => {
                self.done = true;
                Err(ChunkError {
                    byte_offset: rec_start,
                    record_index: self.records_consumed,
                    salvaged: Vec::new(),
                    error,
                })
            }
        }
    }

    /// The next batch of up to `chunk_size` records, `None` at clean EOF.
    ///
    /// The final batch may be short. A parse failure returns a
    /// [`ChunkError`] carrying the records read before it (salvage mode);
    /// after an error or EOF every further call returns `Ok(None)`.
    pub fn next_chunk(&mut self) -> Result<Option<Vec<PcapRecord>>, ChunkError> {
        if self.done {
            return Ok(None);
        }
        let mut out = Vec::with_capacity(self.chunk);
        while out.len() < self.chunk {
            let rec_start = self.byte_offset;
            match self.read_one_record() {
                Ok(Some(rec)) => out.push(rec),
                Ok(None) => {
                    self.done = true;
                    break;
                }
                Err(error) => {
                    self.done = true;
                    return Err(ChunkError {
                        byte_offset: rec_start,
                        record_index: self.records_consumed,
                        salvaged: out,
                        error,
                    });
                }
            }
        }
        if out.is_empty() {
            Ok(None)
        } else {
            Ok(Some(out))
        }
    }
}

/// Continue a [`crc32`] computation across another slice (`crc` is the
/// finished CRC of the preceding bytes).
fn crc32_continue(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= 0xEDB8_8320;
            }
        }
    }
    !crc
}

impl<R: Read> Iterator for PcapChunkReader<R> {
    type Item = Result<Vec<PcapRecord>, ChunkError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_chunk() {
            Ok(Some(chunk)) => Some(Ok(chunk)),
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choir_packet::pcap::{parse_pcap, PcapWriter, DEFAULT_SNAPLEN, LINKTYPE_ETHERNET};
    use choir_packet::ChoirTag;

    fn sample_pcap(n: u64) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..n {
            let mut buf = vec![0u8; 80];
            ChoirTag::new(1, 0, i).stamp_trailer(&mut buf);
            w.write_record(i * 1_000 + 37, &Frame::new(Bytes::from(buf)))
                .unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn chunked_equals_batch_parse_across_chunk_sizes() {
        let buf = sample_pcap(101);
        let batch = parse_pcap(&buf).unwrap();
        for chunk in [1usize, 3, 64, 101, 10_000] {
            let reader = PcapChunkReader::new(&buf[..], chunk).unwrap();
            let streamed: Vec<PcapRecord> = reader.flat_map(|c| c.unwrap()).collect();
            assert_eq!(streamed, batch, "chunk size {chunk}");
        }
    }

    #[test]
    fn chunk_sizes_and_short_tail() {
        let buf = sample_pcap(10);
        let sizes: Vec<usize> = PcapChunkReader::new(&buf[..], 4)
            .unwrap()
            .map(|c| c.unwrap().len())
            .collect();
        assert_eq!(sizes, [4, 4, 2]);
    }

    #[test]
    fn empty_capture_yields_no_chunks() {
        let buf = PcapWriter::new(Vec::new()).unwrap().finish().unwrap();
        let mut reader = PcapChunkReader::new(&buf[..], 8).unwrap();
        assert!(reader.next_chunk().unwrap().is_none());
        assert!(reader.next().is_none());
    }

    #[test]
    fn zero_chunk_size_clamps_to_one() {
        let buf = sample_pcap(3);
        let sizes: Vec<usize> = PcapChunkReader::new(&buf[..], 0)
            .unwrap()
            .map(|c| c.unwrap().len())
            .collect();
        assert_eq!(sizes, [1, 1, 1]);
    }

    #[test]
    fn bad_magic_rejected_up_front() {
        let mut buf = sample_pcap(1);
        buf[0] ^= 0xff;
        assert!(matches!(
            PcapChunkReader::new(&buf[..], 8),
            Err(PcapError::BadMagic(_))
        ));
    }

    #[test]
    fn truncated_global_header() {
        assert!(matches!(
            PcapChunkReader::new(&[0u8; 10][..], 8),
            Err(PcapError::Truncated { offset: 0 })
        ));
    }

    #[test]
    fn truncated_record_body_salvages_prefix_then_stops() {
        let buf = sample_pcap(2);
        let mut reader = PcapChunkReader::new(&buf[..buf.len() - 5], 8).unwrap();
        let err = match reader.next() {
            Some(Err(e)) => e,
            other => panic!("expected ChunkError, got {other:?}"),
        };
        // Salvage mode: record 0 parsed fine and is handed back; the
        // error names record 1 and the byte where it starts.
        assert_eq!(err.salvaged.len(), 1);
        assert_eq!(err.record_index, 1);
        assert_eq!(err.byte_offset, 24 + 16 + 80);
        assert!(matches!(err.error, PcapError::Truncated { .. }));
        assert!(err.to_string().contains("1 record(s) salvaged"));
        assert!(reader.next().is_none(), "errors are terminal");
        // The cursor counts the salvaged record as consumed.
        assert_eq!(reader.cursor().records_consumed, 1);
    }

    #[test]
    fn truncated_record_header_errors_with_offset() {
        let buf = sample_pcap(1);
        // Global header + 8 of the 16 record-header bytes.
        let mut reader = PcapChunkReader::new(&buf[..32], 8).unwrap();
        let err = reader.next().unwrap().unwrap_err();
        assert!(matches!(err.error, PcapError::Truncated { offset: 24 }));
        assert_eq!(err.byte_offset, 24);
        assert!(err.salvaged.is_empty());
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Chaining equals hashing the concatenation.
        assert_eq!(crc32_continue(crc32(b"1234"), b"56789"), crc32(b"123456789"));
    }

    #[test]
    fn cursor_tracks_consumption_and_resume_resynchronizes() {
        let buf = sample_pcap(10);
        let mut rd = PcapChunkReader::new(&buf[..], 4).unwrap();
        assert_eq!(rd.cursor(), IngestCursor { records_consumed: 0, byte_offset: 24, last_record_crc: 0 });
        let first = rd.next_chunk().unwrap().unwrap();
        assert_eq!(first.len(), 4);
        let cur = rd.cursor();
        assert_eq!(cur.records_consumed, 4);
        assert_eq!(cur.byte_offset, 24 + 4 * (16 + 80));
        assert_ne!(cur.last_record_crc, 0);

        // A resumed reader must yield exactly the remaining records.
        let rest_direct: Vec<PcapRecord> = rd.flat_map(|c| c.unwrap()).collect();
        let mut resumed = PcapChunkReader::resume(&buf[..], 4, cur).unwrap();
        let rest_resumed: Vec<PcapRecord> = resumed.by_ref().flat_map(|c| c.unwrap()).collect();
        assert_eq!(rest_resumed, rest_direct);
        assert_eq!(rest_resumed.len(), 6);
        assert_eq!(resumed.cursor().records_consumed, 10);
    }

    #[test]
    fn cursor_roundtrips_through_json() {
        let buf = sample_pcap(5);
        let mut rd = PcapChunkReader::new(&buf[..], 2).unwrap();
        let _ = rd.next_chunk().unwrap();
        let cur = rd.cursor();
        let json = serde_json::to_string(&cur).unwrap();
        let back: IngestCursor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cur);
        assert!(PcapChunkReader::resume(&buf[..], 2, back).is_ok());
    }

    #[test]
    fn resume_rejects_crc_mismatch() {
        let buf = sample_pcap(6);
        let mut rd = PcapChunkReader::new(&buf[..], 3).unwrap();
        let _ = rd.next_chunk().unwrap();
        let cur = rd.cursor();
        // Corrupt a payload byte of the last consumed record: the
        // journal no longer describes the capture on disk.
        let mut evil = buf.clone();
        evil[cur.byte_offset as usize - 1] ^= 0xff;
        let err = PcapChunkReader::resume(&evil[..], 3, cur).unwrap_err();
        assert!(err.to_string().contains("journal re-sync failed"));
        assert!(err.to_string().contains("CRC"));
        // The pristine capture still resumes.
        assert!(PcapChunkReader::resume(&buf[..], 3, cur).is_ok());
    }

    #[test]
    fn resume_rejects_capture_shorter_than_cursor() {
        let buf = sample_pcap(4);
        let mut rd = PcapChunkReader::new(&buf[..], 10).unwrap();
        let _ = rd.next_chunk().unwrap();
        let cur = rd.cursor();
        assert_eq!(cur.records_consumed, 4);
        let short = &buf[..buf.len() - (16 + 80)];
        let err = PcapChunkReader::resume(short, 10, cur).unwrap_err();
        assert!(err.to_string().contains("journal re-sync failed"));
    }

    #[test]
    fn salvage_yields_exact_prefix_of_batch_parse() {
        let buf = sample_pcap(9);
        let batch = parse_pcap(&buf).unwrap();
        // Cut inside record 6's body.
        let cut = 24 + 6 * (16 + 80) + 16 + 11;
        let mut rd = PcapChunkReader::new(&buf[..cut], 100).unwrap();
        let err = rd.next_chunk().unwrap_err();
        assert_eq!(err.salvaged, batch[..6].to_vec());
        assert_eq!(err.record_index, 6);
        assert_eq!(err.byte_offset, 24 + 6 * (16 + 80));
    }

    /// A one-record pcap with explicit endianness and magic (mirrors the
    /// batch parser's handmade fixture).
    fn handmade_pcap(magic: u32, big_endian: bool, sec: u32, subsec: u32, payload: &[u8]) -> Vec<u8> {
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
    fn microsecond_and_swapped_magics_match_batch_parser() {
        for (magic, big_endian) in [
            (PCAP_US_MAGIC, false),
            (PCAP_US_MAGIC, true),
            (PCAP_NS_MAGIC, true),
        ] {
            let buf = handmade_pcap(magic, big_endian, 1, 2, b"abcd");
            let batch = parse_pcap(&buf).unwrap();
            let streamed: Vec<PcapRecord> = PcapChunkReader::new(&buf[..], 8)
                .unwrap()
                .flat_map(|c| c.unwrap())
                .collect();
            assert_eq!(streamed, batch, "magic {magic:#x} be={big_endian}");
        }
    }
}
