//! The unified ingestion surface: every way observations reach a κ
//! engine — chunked pcap files, live receive taps, replayed journals —
//! behind one pull-based trait.
//!
//! Before this module the tree had three ad-hoc ingestion paths:
//! [`PcapChunkReader`] batches for offline captures, the testbed
//! runner's rx-tap closures for live runs, and hand-rolled journal
//! replay in the crash supervisor. [`Source`] collapses them:
//! a consumer pulls [`Observation`]s one at a time with
//! [`Source::next_record`] and journals its position with
//! [`Source::cursor`], never caring where the stream comes from. The
//! κ-as-a-service daemon and the streaming `Experiment` runner share
//! this one code path (DESIGN.md §16).
//!
//! Two implementations cover the tree's needs:
//!
//! - [`PcapSource`] adapts a [`PcapChunkReader`] record-by-record, with
//!   byte-exact journal cursors and [`PcapSource::resume`] re-opening a
//!   capture at a cursor (CRC-verified, like the reader underneath).
//! - [`QueueSource`] is the live leg: a push handle
//!   ([`QueueHandle`], clonable, `Send`) feeds a bounded-unbounded FIFO
//!   that the consumer drains. An rx tap or a wire-protocol ingest
//!   handler pushes; the engine side pulls. `Ok(None)` here means
//!   "nothing buffered *right now*" until the handle is closed, after
//!   which it means end-of-stream for good.

use std::collections::VecDeque;
use std::io::Read;
use std::sync::{Arc, Mutex};

use choir_core::metrics::{Observation, MAX_TIMESTAMP_PS};
use choir_packet::PacketId;

use crate::chunked::{ChunkError, IngestCursor, PcapChunkReader, DEFAULT_CHUNK_RECORDS};

/// A typed ingestion failure. Queue sources never fail; capture-backed
/// sources surface the underlying [`ChunkError`] (which carries the
/// byte offset and salvage accounting).
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
                ts_ns,
            } => write!(
                f,
                "capture source failed: record {record_index} is stamped {ts_ns} ns, \
                 2^62 ps or more past the capture's epoch"
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

/// One stream of observations, wherever it comes from.
///
/// The contract mirrors the streaming engine's needs exactly: a
/// consumer pulls records in arrival order and persists [`Self::cursor`]
/// next to its engine checkpoint, so after a crash the pair
/// (checkpoint, cursor) resumes bit-identically. `Ok(None)` means no
/// record is available — permanently for finite sources (a fully read
/// capture), momentarily for live ones (see [`Source::is_exhausted`]).
pub trait Source {
    /// Pull the next observation in arrival order.
    fn next_record(&mut self) -> Result<Option<Observation>, SourceError>;

    /// The journaled position after everything pulled so far: the
    /// cursor always names the first *undelivered* record. Byte offset
    /// and CRC are meaningful only for byte-backed sources; live
    /// sources report `0` for both and journal by record count alone.
    fn cursor(&self) -> IngestCursor;

    /// `true` once the stream can never yield another record: a finite
    /// source that hit EOF (or a terminal error), or a live source
    /// whose producer closed the handle and whose buffer is drained.
    fn is_exhausted(&self) -> bool;
}

/// A [`PcapChunkReader`] as a [`Source`]: record-at-a-time delivery
/// with byte-exact journal cursors. Timestamps are converted exactly
/// as [`choir_core::metrics::Trial::from_pcap_records`] converts them
/// (nanoseconds → picoseconds, a wall-clock capture re-based on its
/// first record), so a drained `PcapSource` feeds an engine the same
/// observations the batch pipeline would build — except that a stamp
/// the batch loader saturates is refused here with
/// [`SourceError::TimestampOutOfRange`].
pub struct PcapSource<R: Read> {
    reader: PcapChunkReader<R>,
    exhausted: bool,
}

impl<R: Read> PcapSource<R> {
    /// Open a capture for streaming ingestion.
    pub fn new(input: R) -> Result<Self, ChunkError> {
        let reader = PcapChunkReader::new(input, DEFAULT_CHUNK_RECORDS).map_err(|error| {
            ChunkError {
                byte_offset: 0,
                record_index: 0,
                salvaged: Vec::new(),
                error,
            }
        })?;
        Ok(PcapSource {
            reader,
            exhausted: false,
        })
    }

    /// Re-open a capture at a journaled cursor (CRC-verified; see
    /// [`PcapChunkReader::resume`]). The next pulled record is exactly
    /// the one the original source would have delivered next.
    pub fn resume(input: R, cursor: IngestCursor) -> Result<Self, ChunkError> {
        let reader = PcapChunkReader::resume(input, DEFAULT_CHUNK_RECORDS, cursor)?;
        Ok(PcapSource {
            reader,
            exhausted: false,
        })
    }
}

impl<R: Read> Source for PcapSource<R> {
    fn next_record(&mut self) -> Result<Option<Observation>, SourceError> {
        if self.exhausted {
            return Ok(None);
        }
        match self.reader.next_record() {
            Ok(Some(rec)) => {
                const MAX_NS: u64 = (MAX_TIMESTAMP_PS - 1) / 1000;
                let first_ns = self.reader.first_ts_ns().expect("a record was read");
                let epoch_ns = if first_ns <= MAX_NS { 0 } else { first_ns };
                let ns = rec.ts_ns.saturating_sub(epoch_ns);
                if ns > MAX_NS {
                    self.exhausted = true;
                    return Err(SourceError::TimestampOutOfRange {
                        record_index: self.reader.cursor().records_consumed - 1,
                        ts_ns: rec.ts_ns,
                    });
                }
                Ok(Some(Observation {
                    id: rec.frame.packet_id(),
                    t_ps: ns * 1000,
                }))
            }
            Ok(None) => {
                self.exhausted = true;
                Ok(None)
            }
            Err(e) => {
                self.exhausted = true;
                Err(SourceError::Capture(e))
            }
        }
    }

    fn cursor(&self) -> IngestCursor {
        self.reader.cursor()
    }

    fn is_exhausted(&self) -> bool {
        self.exhausted
    }
}

#[derive(Debug, Default)]
struct QueueInner {
    buf: VecDeque<Observation>,
    closed: bool,
}

/// The producer end of a [`QueueSource`]: clonable and `Send`, so an
/// rx-tap closure, a wire-protocol handler, or another thread can push
/// while the consumer drains. Dropping every handle does NOT close the
/// stream — closing is explicit, so a handle can be parked and revived.
#[derive(Debug, Clone)]
pub struct QueueHandle {
    q: Arc<Mutex<QueueInner>>,
}

impl QueueHandle {
    /// Append one observation. Pushing after [`Self::close`] is a
    /// programming error and panics — a closed stream promised its
    /// consumer no further records.
    pub fn push(&self, id: PacketId, t_ps: u64) {
        let mut q = self.q.lock().expect("queue poisoned");
        assert!(!q.closed, "push on a closed QueueSource");
        q.buf.push_back(Observation { id, t_ps });
    }

    /// Declare end-of-stream: once the buffered tail is drained the
    /// source is exhausted. Idempotent.
    pub fn close(&self) {
        self.q.lock().expect("queue poisoned").closed = true;
    }

    /// Records currently buffered (pushed but not yet pulled).
    pub fn backlog(&self) -> usize {
        self.q.lock().expect("queue poisoned").buf.len()
    }
}

/// The live leg of the [`Source`] API: a FIFO fed through a
/// [`QueueHandle`]. The cursor journals by record count (byte offset
/// and CRC are `0` — there are no bytes). A consumer resuming a live
/// stream after a crash re-synchronizes by asking the producer to
/// replay from `cursor().records_consumed`, which is exactly what the
/// service wire protocol does.
#[derive(Debug)]
pub struct QueueSource {
    q: Arc<Mutex<QueueInner>>,
    delivered: u64,
}

impl QueueSource {
    /// A fresh empty stream and its push handle.
    pub fn new() -> (Self, QueueHandle) {
        let q = Arc::new(Mutex::new(QueueInner::default()));
        (
            QueueSource {
                q: Arc::clone(&q),
                delivered: 0,
            },
            QueueHandle { q },
        )
    }

    /// A stream resuming at a journaled position: the first
    /// `cursor.records_consumed` records are already accounted for, so
    /// the cursor keeps counting from there. The producer must replay
    /// only records *after* the cursor.
    pub fn resume(cursor: IngestCursor) -> (Self, QueueHandle) {
        let (mut src, h) = Self::new();
        src.delivered = cursor.records_consumed;
        (src, h)
    }
}

impl Source for QueueSource {
    fn next_record(&mut self) -> Result<Option<Observation>, SourceError> {
        let mut q = self.q.lock().expect("queue poisoned");
        match q.buf.pop_front() {
            Some(o) => {
                self.delivered += 1;
                Ok(Some(o))
            }
            None => Ok(None),
        }
    }

    fn cursor(&self) -> IngestCursor {
        IngestCursor {
            records_consumed: self.delivered,
            byte_offset: 0,
            last_record_crc: 0,
        }
    }

    fn is_exhausted(&self) -> bool {
        let q = self.q.lock().expect("queue poisoned");
        q.closed && q.buf.is_empty()
    }
}

/// Drain everything currently available from a source into a callback
/// — the shared inner loop of every consumer (the testbed runner's
/// live streams, the daemon's ingest path, batch refills). Returns how
/// many records were delivered. Stops at the first unavailable record;
/// a live source may have more later.
pub fn drain_available<S: Source + ?Sized>(
    src: &mut S,
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
    use choir_packet::pcap::{parse_pcap, PcapWriter};
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

    #[test]
    fn pcap_source_matches_batch_trial_exactly() {
        let buf = sample_pcap(60);
        let batch = Trial::from_pcap_records(&parse_pcap(&buf).unwrap());
        let mut src = PcapSource::new(&buf[..]).unwrap();
        let mut streamed = Trial::new();
        let n = drain_available(&mut src, |o| streamed.push(o.id, o.t_ps)).unwrap();
        assert_eq!(n, 60);
        assert_eq!(streamed, batch);
        assert!(src.is_exhausted());
        assert_eq!(src.cursor().records_consumed, 60);
    }

    #[test]
    fn wall_clock_capture_is_rebased_on_its_first_record() {
        // 2026-01-01T00:00:00Z in ns: ×1000 does not fit u64.
        const Y2026_NS: u64 = 1_767_225_600 * 1_000_000_000;
        let buf = sample_pcap_at(60, Y2026_NS);
        let batch = Trial::from_pcap_records(&parse_pcap(&buf).unwrap());
        let mut src = PcapSource::new(&buf[..]).unwrap();
        let mut head = Trial::new();
        for _ in 0..25 {
            let o = src.next_record().unwrap().unwrap();
            head.push(o.id, o.t_ps);
        }
        // A resumed source re-bases on the capture's first record, not on
        // the first record it delivers.
        let mut resumed = PcapSource::resume(&buf[..], src.cursor()).unwrap();
        drain_available(&mut resumed, |o| head.push(o.id, o.t_ps)).unwrap();
        assert_eq!(head, batch);
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
            matches!(err, SourceError::TimestampOutOfRange { record_index: 1, ts_ns } if ts_ns == MAX_TIMESTAMP_PS / 1000 + 1),
            "{err}"
        );
        assert!(src.is_exhausted());
        assert!(src.next_record().unwrap().is_none());
        // The batch loader has no error channel: it saturates instead.
        let batch = Trial::from_pcap_records(&parse_pcap(&buf).unwrap());
        assert_eq!(batch.time(1), (MAX_TIMESTAMP_PS - 1) / 1000 * 1000);
    }

    #[test]
    fn pcap_source_resumes_at_cursor_without_duplicates() {
        let buf = sample_pcap(20);
        let mut src = PcapSource::new(&buf[..]).unwrap();
        let mut head = Vec::new();
        for _ in 0..7 {
            head.push(src.next_record().unwrap().unwrap());
        }
        let cur = src.cursor();
        assert_eq!(cur.records_consumed, 7);

        let mut rest_direct = Vec::new();
        drain_available(&mut src, |o| rest_direct.push(o)).unwrap();

        let mut resumed = PcapSource::resume(&buf[..], cur).unwrap();
        let mut rest_resumed = Vec::new();
        drain_available(&mut resumed, |o| rest_resumed.push(o)).unwrap();
        assert_eq!(rest_resumed, rest_direct);
        assert_eq!(head.len() + rest_resumed.len(), 20);
    }

    #[test]
    fn pcap_source_surfaces_truncation_as_typed_error() {
        let buf = sample_pcap(3);
        let mut src = PcapSource::new(&buf[..buf.len() - 5]).unwrap();
        // Two intact records deliver, then the cut one errors.
        assert!(src.next_record().unwrap().is_some());
        assert!(src.next_record().unwrap().is_some());
        let err = src.next_record().unwrap_err();
        assert!(matches!(err, SourceError::Capture(_)));
        assert!(err.to_string().contains("capture source failed"));
        assert!(src.is_exhausted());
        // The cursor still names the records that made it through.
        assert_eq!(src.cursor().records_consumed, 2);
        // Errors are terminal.
        assert!(src.next_record().unwrap().is_none());
    }

    #[test]
    fn queue_source_delivers_in_push_order_and_closes() {
        let (mut src, h) = QueueSource::new();
        assert!(src.next_record().unwrap().is_none(), "empty, not exhausted");
        assert!(!src.is_exhausted());
        h.push(PacketId(1), 100);
        h.push(PacketId(2), 200);
        assert_eq!(h.backlog(), 2);
        let a = src.next_record().unwrap().unwrap();
        assert_eq!((a.id, a.t_ps), (PacketId(1), 100));
        h.push(PacketId(3), 300);
        let rest: Vec<u64> = {
            let mut v = Vec::new();
            drain_available(&mut src, |o| v.push(o.t_ps)).unwrap();
            v
        };
        assert_eq!(rest, [200, 300]);
        assert!(!src.is_exhausted(), "drained but not closed");
        h.close();
        h.close(); // idempotent
        assert!(src.is_exhausted());
        assert_eq!(src.cursor().records_consumed, 3);
    }

    #[test]
    fn queue_source_resume_continues_record_count() {
        let (mut src, h) = QueueSource::resume(IngestCursor {
            records_consumed: 41,
            byte_offset: 0,
            last_record_crc: 0,
        });
        h.push(PacketId(9), 900);
        assert!(src.next_record().unwrap().is_some());
        assert_eq!(src.cursor().records_consumed, 42);
    }

    #[test]
    #[should_panic(expected = "push on a closed QueueSource")]
    fn push_after_close_panics() {
        let (_src, h) = QueueSource::new();
        h.close();
        h.push(PacketId(1), 1);
    }

    #[test]
    fn queue_handle_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<QueueHandle>();
        assert_send::<QueueSource>();
    }

    #[test]
    fn sources_compose_as_trait_objects() {
        let buf = sample_pcap(4);
        let (mut live, h) = QueueSource::new();
        for i in 0..4u64 {
            h.push(PacketId(i as u128), i * 10);
        }
        h.close();
        let mut pcap = PcapSource::new(&buf[..]).unwrap();
        let mut sources: Vec<&mut dyn Source> = vec![&mut pcap, &mut live];
        let mut total = 0;
        for s in sources.iter_mut() {
            total += drain_available(*s, |_| {}).unwrap();
            assert!(s.is_exhausted());
        }
        assert_eq!(total, 8);
    }
}
