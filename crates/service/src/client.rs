//! A blocking client for the daemon's wire protocol.
//!
//! One [`Client`] wraps one TCP connection and issues one
//! request/response exchange at a time. In-protocol refusals surface as
//! [`ClientError::Daemon`] (the connection stays usable); transport
//! failures as [`ClientError::Wire`].

use std::net::{TcpStream, ToSocketAddrs};

use choir_core::metrics::Observation;

use crate::wire::{
    ingest_frame, recv_response, send_frame, send_request_with, Request, Response, WireError,
    WireFinal,
};

/// Observations per `Ingest` frame when the client chunks a large
/// batch. Keeps every frame far under [`crate::wire::MAX_FRAME_BYTES`].
pub const INGEST_CHUNK: usize = 50_000;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure — the connection is dead.
    Wire(WireError),
    /// The daemon refused the request; the connection stays usable.
    Daemon(String),
    /// The daemon answered with a variant the call did not expect.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "connection failed: {e}"),
            ClientError::Daemon(m) => write!(f, "daemon refused: {m}"),
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

/// One connection to a daemon.
pub struct Client {
    reader: TcpStream,
    writer: TcpStream,
    /// The request frame under construction, kept across calls.
    frame: Vec<u8>,
}

impl Client {
    /// Connect to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true).ok();
        let reader = writer.try_clone()?;
        Ok(Client {
            reader,
            writer,
            frame: Vec::new(),
        })
    }

    /// One request/response exchange.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        send_request_with(&mut self.writer, req, &mut self.frame)?;
        self.response()
    }

    /// One exchange, its answer taken by `want` ([`answer`]).
    fn expect<T, W>(&mut self, req: &Request, want: W) -> Result<T, ClientError>
    where
        W: FnOnce(Response) -> Result<T, Response>,
    {
        answer(self.call(req)?, want)
    }

    /// The daemon's answer to the request just sent.
    fn response(&mut self) -> Result<Response, ClientError> {
        let eof = std::io::ErrorKind::UnexpectedEof;
        let closed = || std::io::Error::new(eof, "daemon closed the connection mid-exchange");
        Ok(recv_response(&mut self.reader)?.ok_or_else(closed)?)
    }

    fn expect_ok(&mut self, req: &Request) -> Result<(), ClientError> {
        self.expect(req, |r| matches!(r, Response::Ok).then_some(()).ok_or(r))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.expect_ok(&Request::Ping)
    }

    /// Create a tenant (`budget_bytes == 0` uses the daemon default).
    pub fn create_tenant(&mut self, tenant: &str, budget_bytes: u64) -> Result<(), ClientError> {
        self.expect_ok(&Request::CreateTenant {
            tenant: tenant.into(),
            budget_bytes,
        })
    }

    /// Drop a tenant and everything it owns.
    pub fn drop_tenant(&mut self, tenant: &str) -> Result<(), ClientError> {
        self.expect_ok(&Request::DropTenant {
            tenant: tenant.into(),
        })
    }

    /// Open a stream: the tenant's first is its baseline, and a later one
    /// is scored against the baseline's records so far from its open.
    pub fn open_stream(&mut self, tenant: &str, stream: &str) -> Result<(), ClientError> {
        self.expect_ok(&Request::OpenStream {
            tenant: tenant.into(),
            stream: stream.into(),
        })
    }

    /// Append observations starting at client-side record count `seq`
    /// (the count *before* this batch). Chunks large batches; returns
    /// the stream's total after the last chunk. Resending a batch the
    /// daemon already has is harmless — overlap is deduplicated. Each
    /// chunk is encoded straight into the connection's kept frame.
    pub fn ingest(
        &mut self,
        tenant: &str,
        stream: &str,
        mut seq: u64,
        records: &[Observation],
    ) -> Result<u64, ClientError> {
        let mut total = seq;
        for chunk in records.chunks(INGEST_CHUNK.max(1)) {
            ingest_frame(&mut self.frame, tenant, stream, seq, chunk)?;
            send_frame(&mut self.writer, &self.frame)?;
            total = answer(self.response()?, |r| match r {
                Response::Ingested { total } => Ok(total),
                other => Err(other),
            })?;
            seq += chunk.len() as u64;
        }
        Ok(total)
    }

    /// Ingest progress of a stream: `(ingested, finished, is_baseline)`.
    /// A reconnecting client resumes by passing `ingested` as the next
    /// `seq`.
    pub fn stream_status(
        &mut self,
        tenant: &str,
        stream: &str,
    ) -> Result<(u64, bool, bool), ClientError> {
        let req = Request::StreamStatus {
            tenant: tenant.into(),
            stream: stream.into(),
        };
        self.expect(&req, |r| match r {
            Response::Status {
                ingested,
                finished,
                baseline,
            } => Ok((ingested, finished, baseline)),
            other => Err(other),
        })
    }

    /// Declare a stream complete. Comparison streams return their final
    /// summary vs the baseline; the baseline returns `None`.
    pub fn finish_stream(
        &mut self,
        tenant: &str,
        stream: &str,
    ) -> Result<Option<WireFinal>, ClientError> {
        let req = Request::FinishStream {
            tenant: tenant.into(),
            stream: stream.into(),
        };
        self.expect(&req, |r| match r {
            Response::Finished { summary } => Ok(summary),
            other => Err(other),
        })
    }

    /// Live (or final) κ of a comparison stream. Raw [`Response`] so
    /// callers get both the float and its bits.
    pub fn snapshot(&mut self, tenant: &str, stream: &str) -> Result<Response, ClientError> {
        let req = Request::Snapshot {
            tenant: tenant.into(),
            stream: stream.into(),
        };
        self.expect(&req, |r| raw(r, |r| matches!(r, Response::Snapshot { .. })))
    }

    /// Snapshot trail of a comparison stream.
    pub fn trail(&mut self, tenant: &str, stream: &str) -> Result<Response, ClientError> {
        let req = Request::Trail {
            tenant: tenant.into(),
            stream: stream.into(),
        };
        self.expect(&req, |r| raw(r, |r| matches!(r, Response::Trail { .. })))
    }

    /// All-pairs κ matrix over a tenant's streams.
    pub fn matrix(&mut self, tenant: &str) -> Result<Response, ClientError> {
        let req = Request::Matrix {
            tenant: tenant.into(),
        };
        self.expect(&req, |r| raw(r, |r| matches!(r, Response::Matrix { .. })))
    }

    /// Daemon-wide accounting.
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        let is = |r: &Response| matches!(r, Response::Stats { .. });
        self.expect(&Request::Stats, |r| raw(r, is))
    }

    /// Force a durable checkpoint now.
    pub fn checkpoint(&mut self) -> Result<(), ClientError> {
        self.expect_ok(&Request::Checkpoint)
    }

    /// Checkpoint, then stop the daemon.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.expect_ok(&Request::Shutdown)
    }
}

/// What `want` takes from `r`: a refusal is `Daemon`, an answer `want`
/// gives back `Unexpected`.
fn answer<T>(
    r: Response,
    want: impl FnOnce(Response) -> Result<T, Response>,
) -> Result<T, ClientError> {
    match r {
        Response::Error { message } => Err(ClientError::Daemon(message)),
        r => want(r).map_err(|other| ClientError::Unexpected(format!("{other:?}"))),
    }
}

/// `r` itself, if it is the variant `is` takes.
fn raw(r: Response, is: impl Fn(&Response) -> bool) -> Result<Response, Response> {
    if is(&r) {
        return Ok(r);
    }
    Err(r)
}
