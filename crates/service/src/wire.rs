//! The daemon's wire protocol: length-prefixed frames.
//!
//! Every message on the socket is one *frame*: a 4-byte little-endian
//! byte count followed by exactly that many payload bytes. Framing first
//! means a reader never has to scan for message boundaries, and a frame
//! cap ([`MAX_FRAME_BYTES`]) bounds what a misbehaving peer can make the
//! daemon allocate; a frame's buffer holds at most a megabyte before its
//! bytes arrive, and at most twice what has arrived after that. A JSON
//! request longer than [`MAX_JSON_REQUEST_BYTES`] is refused unparsed.
//!
//! Control verbs and every [`Response`] are JSON payloads (externally
//! tagged enums; JSON text starts with `{` or `"`). The one bulk verb,
//! [`Request::Ingest`], is binary — a payload that starts with
//! [`INGEST_TAG`]:
//!
//! | bytes | field |
//! |---|---|
//! | 1 | `INGEST_TAG` (0x01) |
//! | 1 + T | tenant name length, name |
//! | 1 + S | stream name length, name |
//! | 8 | `seq`, u64 LE |
//! | 4 | record count, u32 LE |
//! | 24 x count | records: identity u128 LE, `t_ps` u64 LE |
//!
//! The 24-byte record is the layout the stream logs use on disk
//! ([`crate::store`]); a record is never JSON anywhere.
//!
//! κ values ride the wire twice: as the `f64` (human-readable, what
//! `choir-ctl` prints) **and** as `f64::to_bits` in a `u64` (what the
//! bit-identity gates compare). The JSON float round-trips exactly
//! through the vendored serde_json, but the bits field makes the gate
//! independent of any printer/parser subtlety.

use std::io::{self, Read, Write};

use choir_core::metrics::{ConsistencyMetrics, KappaSnapshot, Observation, TrialComparison};
use choir_packet::PacketId;
use serde::{Deserialize, Serialize};

use crate::store::{decode_records, encode_records, OBS_BYTES};

/// Hard cap on a single frame's payload: ~699k records per `Ingest`.
/// Large batches should be split client-side (the client lib chunks for
/// you).
pub const MAX_FRAME_BYTES: u32 = 16 << 20;

/// The most [`read_frame`] reserves before a payload byte arrives: more
/// than a 4 096-record `Ingest`, far less than the cap a 4-byte header
/// can claim.
const FIRST_RESERVE: usize = 1 << 20;

/// First payload byte of a binary [`Request::Ingest`] frame.
pub const INGEST_TAG: u8 = 0x01;

/// The longest JSON request [`recv_request`] parses (a `CreateTenant` is
/// ~100 bytes); the parser's tree of a frame is tens of times its size.
pub const MAX_JSON_REQUEST_BYTES: usize = 4 << 10;

/// A framing/transport failure (distinct from an in-protocol
/// [`Response::Error`], which means the daemon understood you and said
/// no).
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure.
    Io(io::Error),
    /// Peer announced a frame larger than [`MAX_FRAME_BYTES`].
    Oversized(u32),
    /// A JSON request frame longer than [`MAX_JSON_REQUEST_BYTES`].
    LongRequest(usize),
    /// Frame bytes were not a valid message of the expected type.
    Parse(String),
    /// An `Ingest` frame's record slab is not `24 x count` bytes.
    Slab { count: u32, bytes: usize },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O failed: {e}"),
            WireError::Oversized(n) => {
                write!(f, "peer announced a {n}-byte frame (cap {MAX_FRAME_BYTES})")
            }
            WireError::LongRequest(n) => {
                write!(f, "{n}-byte JSON request (cap {MAX_JSON_REQUEST_BYTES})")
            }
            WireError::Parse(m) => write!(f, "frame is not a valid message: {m}"),
            WireError::Slab { count, bytes } => {
                write!(
                    f,
                    "ingest frame declares {count} records but carries {bytes} slab bytes"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Start a frame for an `n`-byte payload in `frame`: the length prefix,
/// then room for the payload, refused before anything is allocated past
/// the cap.
fn frame_for(frame: &mut Vec<u8>, n: usize) -> Result<(), WireError> {
    let len = u32::try_from(n).map_err(|_| WireError::Oversized(u32::MAX))?;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(len));
    }
    frame.clear();
    frame.reserve(4 + n);
    frame.extend_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Write one frame: 4-byte LE length, then the payload, in one `write`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    write_frame_with(w, payload, &mut Vec::new())
}

/// [`write_frame`], assembling the frame in the caller's buffer.
fn write_frame_with(
    w: &mut impl Write,
    payload: &[u8],
    frame: &mut Vec<u8>,
) -> Result<(), WireError> {
    frame_for(frame, payload.len())?;
    frame.extend_from_slice(payload);
    send_frame(w, frame)
}

/// Hand a whole frame to the socket in one `write_all`. A frame that
/// leaves as two writes — header, then payload — puts its payload behind
/// Nagle's algorithm until the peer acknowledges the header, and a peer
/// that delays its ACK stalls every exchange by its ACK timer (≈ 40 ms
/// on Linux).
fn send_frame(w: &mut impl Write, frame: &[u8]) -> Result<(), WireError> {
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame's payload. `Ok(None)` on clean EOF at a frame
/// boundary (peer hung up between messages).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let n = u32::from_le_bytes(len);
    if n > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(n));
    }
    // A header alone reserves at most `FIRST_RESERVE`; past it the
    // buffer at most doubles, and only once what it holds has arrived.
    let n = n as usize;
    let mut buf = vec![0u8; n.min(FIRST_RESERVE)];
    r.read_exact(&mut buf)?;
    while buf.len() < n {
        let have = buf.len();
        let next = n.min(2 * have);
        buf.reserve_exact(next - have);
        buf.resize(next, 0);
        r.read_exact(&mut buf[have..])?;
    }
    Ok(Some(buf))
}

/// Serialize `msg` and send it as one frame, assembled in `frame` (a
/// connection keeps it across responses, as a [`send_request_with`]
/// caller does across requests).
pub(crate) fn send_json(
    w: &mut impl Write,
    msg: &impl Serialize,
    frame: &mut Vec<u8>,
) -> Result<(), WireError> {
    let json = serde_json::to_string(msg).map_err(|e| WireError::Parse(e.to_string()))?;
    write_frame_with(w, json.as_bytes(), frame)
}

fn parse_json<T: Deserialize>(buf: Vec<u8>) -> Result<T, WireError> {
    let s = String::from_utf8(buf).map_err(|e| WireError::Parse(e.to_string()))?;
    serde_json::from_str(&s).map_err(|e| WireError::Parse(e.to_string()))
}

/// Frame a [`Request`]: `Ingest` as header + record slab, the rest JSON.
pub fn send_request(w: &mut impl Write, req: &Request) -> Result<(), WireError> {
    send_request_with(w, req, &mut Vec::new())
}

/// [`send_request`] with the caller's buffer for the frame. A
/// connection that keeps it frees no megabyte-sized frame while its peer
/// is allocating the buffer to receive it into — in one process (tests,
/// the benchmark) that race decided, through the allocator's adaptive
/// `mmap` threshold, where the daemon's first buffers went.
pub(crate) fn send_request_with(
    w: &mut impl Write,
    req: &Request,
    frame: &mut Vec<u8>,
) -> Result<(), WireError> {
    let Request::Ingest {
        tenant,
        stream,
        seq,
        records,
    } = req
    else {
        return send_json(w, req, frame);
    };
    let (Ok(t), Ok(s)) = (u8::try_from(tenant.len()), u8::try_from(stream.len())) else {
        return Err(WireError::Parse("name over 255 bytes".into()));
    };
    // The frame cap holds the record count far below `u32::MAX`.
    let slab = records.len() * OBS_BYTES as usize;
    frame_for(frame, 15 + tenant.len() + stream.len() + slab)?;
    frame.push(INGEST_TAG);
    frame.push(t);
    frame.extend_from_slice(tenant.as_bytes());
    frame.push(s);
    frame.extend_from_slice(stream.as_bytes());
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&(records.len() as u32).to_le_bytes());
    encode_records(frame, records.iter().map(|&r| r.into()));
    send_frame(w, frame)
}

/// Serialize + frame a [`Response`].
pub fn send_response(w: &mut impl Write, resp: &Response) -> Result<(), WireError> {
    send_json(w, resp, &mut Vec::new())
}

/// Split `n` bytes off the front of an ingest header.
fn take<'a>(b: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if b.len() < n {
        return Err(WireError::Parse("ingest header is truncated".into()));
    }
    let (head, rest) = b.split_at(n);
    *b = rest;
    Ok(head)
}

/// Decode an `Ingest` payload (after its tag byte) straight into the
/// record vector. The slab length is checked against the declared count
/// before anything is allocated for it.
fn decode_ingest(mut b: &[u8]) -> Result<Request, WireError> {
    let name = |b: &mut &[u8]| {
        let n = take(b, 1)?[0] as usize;
        String::from_utf8(take(b, n)?.to_vec()).map_err(|e| WireError::Parse(e.to_string()))
    };
    let tenant = name(&mut b)?;
    let stream = name(&mut b)?;
    let seq = u64::from_le_bytes(take(&mut b, 8)?.try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(take(&mut b, 4)?.try_into().expect("4 bytes"));
    if b.len() as u64 != count as u64 * OBS_BYTES {
        return Err(WireError::Slab {
            count,
            bytes: b.len(),
        });
    }
    let records = decode_records(b).map(WireObs::from).collect();
    Ok(Request::Ingest {
        tenant,
        stream,
        seq,
        records,
    })
}

/// Read + parse one [`Request`]; `Ok(None)` on clean EOF.
pub fn recv_request(r: &mut impl Read) -> Result<Option<Request>, WireError> {
    let Some(buf) = read_frame(r)? else {
        return Ok(None);
    };
    if buf.first() == Some(&INGEST_TAG) {
        return decode_ingest(&buf[1..]).map(Some);
    }
    if buf.len() > MAX_JSON_REQUEST_BYTES {
        return Err(WireError::LongRequest(buf.len()));
    }
    match parse_json(buf)? {
        Request::Ingest { .. } => Err(WireError::Parse(
            "Ingest travels as a binary frame, not JSON".into(),
        )),
        req => Ok(Some(req)),
    }
}

/// Read + parse one [`Response`]; `Ok(None)` on clean EOF.
pub fn recv_response(r: &mut impl Read) -> Result<Option<Response>, WireError> {
    read_frame(r)?.map(parse_json).transpose()
}

/// One observation of an [`Request::Ingest`]: the 128-bit packet identity
/// split into 64-bit halves plus the picosecond timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireObs {
    /// High 64 bits of the packet identity.
    pub id_hi: u64,
    /// Low 64 bits of the packet identity.
    pub id_lo: u64,
    /// Observation timestamp, picoseconds.
    pub t_ps: u64,
}

impl From<Observation> for WireObs {
    fn from(o: Observation) -> Self {
        WireObs {
            id_hi: (o.id.as_u128() >> 64) as u64,
            id_lo: o.id.as_u128() as u64,
            t_ps: o.t_ps,
        }
    }
}

impl From<WireObs> for Observation {
    fn from(w: WireObs) -> Self {
        Observation {
            id: PacketId::from_u128(((w.id_hi as u128) << 64) | w.id_lo as u128),
            t_ps: w.t_ps,
        }
    }
}

/// Everything a client can ask the daemon.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Create a tenant with a resident-byte trial budget.
    CreateTenant { tenant: String, budget_bytes: u64 },
    /// Drop a tenant and every stream, engine, and log file it owns.
    DropTenant { tenant: String },
    /// Open a stream under a tenant. The tenant's first opened stream is
    /// its baseline; every later one is scored against it from its open.
    OpenStream { tenant: String, stream: String },
    /// Append observations. `seq` is the client's record count *before*
    /// this batch: the daemon skips already-ingested overlap (idempotent
    /// resend after a reconnect) and refuses gaps. The only verb that is
    /// not JSON on the wire (module docs).
    Ingest {
        tenant: String,
        stream: String,
        seq: u64,
        records: Vec<WireObs>,
    },
    /// Declare a stream complete; a comparison stream's final is its matrix
    /// cell, scored from its log and the (already finished) baseline's.
    FinishStream { tenant: String, stream: String },
    /// The live running κ of one comparison stream.
    Snapshot { tenant: String, stream: String },
    /// The periodic snapshot trail of one comparison stream.
    Trail { tenant: String, stream: String },
    /// The all-pairs κ matrix over all of a tenant's streams, each at
    /// its currently ingested length (live streams contribute their
    /// prefix so far).
    Matrix { tenant: String },
    /// Ingest progress of one stream (used by clients to resume).
    StreamStatus { tenant: String, stream: String },
    /// Daemon-wide accounting: store stats, tenant/stream counts.
    Stats,
    /// Force a durable checkpoint now (also happens on cadence).
    Checkpoint,
    /// Checkpoint, then stop accepting connections and exit the serve
    /// loop.
    Shutdown,
}

/// κ and its components, with the compound score duplicated as raw bits
/// for the bit-identity gates.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WireKappa {
    /// Compound κ.
    pub kappa: f64,
    /// `kappa.to_bits()` — the gate currency.
    pub kappa_bits: u64,
    /// Uniqueness variation U.
    pub u: f64,
    /// Ordering variation O.
    pub o: f64,
    /// Latency variation L.
    pub l: f64,
    /// IAT variation I.
    pub i: f64,
}

impl From<&ConsistencyMetrics> for WireKappa {
    fn from(m: &ConsistencyMetrics) -> Self {
        WireKappa {
            kappa: m.kappa,
            kappa_bits: m.kappa.to_bits(),
            u: m.u,
            o: m.o,
            l: m.l,
            i: m.i,
        }
    }
}

/// One point of a snapshot trail.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WireTrailPoint {
    /// Observations seen on the baseline side at the snapshot.
    pub seen_a: u64,
    /// Observations seen on this stream's side at the snapshot.
    pub seen_b: u64,
    /// Matched pairs at the snapshot.
    pub common: u64,
    /// Running score at the snapshot.
    pub running: WireKappa,
}

impl From<&KappaSnapshot> for WireTrailPoint {
    fn from(s: &KappaSnapshot) -> Self {
        WireTrailPoint {
            seen_a: s.seen_a as u64,
            seen_b: s.seen_b as u64,
            common: s.common as u64,
            running: WireKappa::from(&s.running),
        }
    }
}

/// One off-diagonal matrix cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireCell {
    /// Row index into the matrix labels.
    pub i: u64,
    /// Column index into the matrix labels (`i < j`).
    pub j: u64,
    /// The cell's score.
    pub score: WireKappa,
    /// Matched pairs.
    pub common: u64,
    /// Baseline-side packets missing from the column trial.
    pub missing: u64,
    /// Column-trial packets absent from the row trial.
    pub extra: u64,
}

/// Summary of a finished comparison stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireFinal {
    /// Final score vs the tenant baseline.
    pub score: WireKappa,
    /// Baseline length.
    pub a_len: u64,
    /// This stream's length.
    pub b_len: u64,
    /// Matched pairs.
    pub common: u64,
    /// Baseline packets this stream dropped.
    pub missing: u64,
    /// Packets this stream added.
    pub extra: u64,
    /// Packets the edit script moved.
    pub moved: u64,
}

impl From<&TrialComparison> for WireFinal {
    fn from(c: &TrialComparison) -> Self {
        WireFinal {
            score: WireKappa::from(&c.metrics),
            a_len: c.a_len as u64,
            b_len: c.b_len as u64,
            common: c.common as u64,
            missing: c.missing as u64,
            extra: c.extra as u64,
            moved: c.moved as u64,
        }
    }
}

/// Everything the daemon can answer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// Request succeeded, nothing else to say.
    Ok,
    /// Request refused or failed; the connection stays usable.
    Error { message: String },
    /// Ingest accepted (possibly partially deduplicated): the stream's
    /// total record count afterwards.
    Ingested { total: u64 },
    /// Answer to [`Request::StreamStatus`].
    Status {
        /// Records ingested so far.
        ingested: u64,
        /// Stream has been finished.
        finished: bool,
        /// Stream is the tenant baseline.
        baseline: bool,
    },
    /// Finish acknowledged. `summary` is present for comparison streams
    /// (absent for the baseline, which has nothing to compare against).
    Finished {
        #[serde(default)]
        summary: Option<WireFinal>,
    },
    /// Live running κ of a comparison stream.
    Snapshot {
        /// Baseline observations fed so far.
        seen_a: u64,
        /// Stream observations fed so far.
        seen_b: u64,
        /// Matched pairs so far.
        common: u64,
        /// Running score.
        running: WireKappa,
    },
    /// Snapshot trail of a comparison stream.
    Trail { points: Vec<WireTrailPoint> },
    /// All-pairs matrix over all of a tenant's streams at their
    /// currently ingested lengths.
    Matrix {
        /// Stream names, in matrix order.
        labels: Vec<String>,
        /// Upper-triangular cells.
        cells: Vec<WireCell>,
    },
    /// Daemon-wide accounting.
    Stats {
        /// Tenants currently hosted.
        tenants: u64,
        /// Streams across all tenants.
        streams: u64,
        /// Observation bytes resident in the trial store.
        store_resident_bytes: u64,
        /// Sum of per-tenant store budgets.
        store_budget_bytes: u64,
        /// Trials evicted from memory since start.
        store_evictions: u64,
        /// Trials rebuilt from their logs since start.
        store_reloads: u64,
        /// Ingest requests served since start.
        ingests: u64,
        /// Observations accepted since start.
        records: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn request_roundtrip() {
        let reqs = vec![
            Request::Ping,
            Request::CreateTenant {
                tenant: "acme".into(),
                budget_bytes: 1 << 20,
            },
            Request::Ingest {
                tenant: "acme".into(),
                stream: "run-b".into(),
                seq: 42,
                records: vec![WireObs {
                    id_hi: u64::MAX,
                    id_lo: 7,
                    t_ps: 1_000,
                }],
            },
            Request::Matrix {
                tenant: "acme".into(),
            },
            Request::Shutdown,
        ];
        let mut buf = Vec::new();
        for r in &reqs {
            send_request(&mut buf, r).unwrap();
        }
        let mut r = &buf[..];
        for want in &reqs {
            let got = recv_request(&mut r).unwrap().unwrap();
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
        assert!(recv_request(&mut r).unwrap().is_none());
    }

    #[test]
    fn response_roundtrip_preserves_kappa_bits() {
        let kappa = 0.923_456_789_012_345_6_f64;
        let resp = Response::Snapshot {
            seen_a: 10,
            seen_b: 9,
            common: 9,
            running: WireKappa {
                kappa,
                kappa_bits: kappa.to_bits(),
                u: 0.1,
                o: 0.0,
                l: 1.5e-9,
                i: 2.5e-7,
            },
        };
        let mut buf = Vec::new();
        send_response(&mut buf, &resp).unwrap();
        let got = recv_response(&mut &buf[..]).unwrap().unwrap();
        let Response::Snapshot { running, .. } = got else {
            panic!("wrong variant");
        };
        assert_eq!(running.kappa_bits, kappa.to_bits());
        assert_eq!(
            running.kappa.to_bits(),
            kappa.to_bits(),
            "JSON f64 round-trip"
        );
    }

    /// A writer that counts the `write` calls it is handed.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(b);
            Ok(b.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_reaches_the_writer_in_one_write() {
        // A frame split over two writes waits on a socket with Nagle on
        // for the peer's delayed ACK of its first part.
        let ingest = Request::Ingest {
            tenant: "acme".into(),
            stream: "run-b".into(),
            seq: 0,
            records: vec![
                WireObs {
                    id_hi: 1,
                    id_lo: 2,
                    t_ps: 3,
                };
                128
            ],
        };
        type Send = Box<dyn Fn(&mut CountingWriter) -> Result<(), WireError>>;
        let cases: [(&str, Send); 4] = [
            (
                "JSON request",
                Box::new(|w| send_request(w, &Request::Ping)),
            ),
            (
                "Ingest request",
                Box::new(move |w| send_request(w, &ingest)),
            ),
            (
                "response",
                Box::new(|w| send_response(w, &Response::Ingested { total: 128 })),
            ),
            (
                "error response",
                Box::new(|w| {
                    send_response(
                        w,
                        &Response::Error {
                            message: "no such tenant".into(),
                        },
                    )
                }),
            ),
        ];
        for (what, send) in cases {
            let mut w = CountingWriter::default();
            send(&mut w).unwrap();
            assert_eq!(w.writes, 1, "{what}: write calls");
            let payload = read_frame(&mut &w.bytes[..]).unwrap().unwrap();
            assert_eq!(payload.len() + 4, w.bytes.len(), "{what}: one whole frame");
        }
    }

    #[test]
    fn wire_obs_roundtrips_u128_identity() {
        let o = Observation {
            id: PacketId::from_u128((0xDEAD_BEEF_u128 << 64) | 0x1234_5678_9ABC_DEF0),
            t_ps: 77,
        };
        let w = WireObs::from(o);
        assert_eq!(Observation::from(w), o);
    }

    #[test]
    fn garbage_frame_is_a_parse_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"NotAVariant\":{}}").unwrap();
        assert!(matches!(
            recv_request(&mut &buf[..]),
            Err(WireError::Parse(_))
        ));
    }
}
