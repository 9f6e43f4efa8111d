//! A daemon call costs its work, not a kernel timer. A response that
//! left as two writes on a socket with Nagle's algorithm on waited out
//! the client's delayed ACK (≈ 40 ms on Linux) on every call, so 200
//! `Ping`s took ≥ 8 s. Here they must take under 2 s, and a 128-record
//! `Ingest`, a `Snapshot` and a pipelined round must each come back in
//! the same 10 ms at the median. `--nocapture` prints the medians.
//!
//! The pipelined round — a `Ping` call, then two `Ping` frames in one
//! write before either answer is read — is the case that needs
//! `TCP_NODELAY` on the daemon's socket once every frame is one write:
//! the call puts the client's kernel in delayed-ACK mode, and with Nagle
//! on the second answer waits for the ACK of the first (44 ms a round).
//! A lone response larger than a segment does not stall with Nagle on
//! (Linux holds a short segment back only while an earlier short one is
//! unacknowledged; an 82 KB to 1.3 MB `Trail` took as long either way),
//! so no case here times one.

mod common;

use std::net::TcpStream;
use std::time::{Duration, Instant};

use choir_service::wire::{recv_response, send_request, Request};
use choir_service::{Client, Daemon, DaemonConfig, Response};
use common::{synth, tmp_dir};

const PINGS: u32 = 200;
const PING_BUDGET: Duration = Duration::from_secs(2);
/// Calls timed per kind besides `Ping`.
const CALLS: usize = 32;
/// Records per timed `Ingest`, as a `serve_live` round sends them.
const INGEST: usize = 128;

/// Median of `CALLS` timed calls of `f`.
fn p50(mut f: impl FnMut()) -> Duration {
    let mut t: Vec<Duration> = (0..CALLS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    t.sort_unstable();
    t[CALLS / 2]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One round on `sock`: a `Ping` call, then two `Ping` frames in one
/// write before either answer is read.
fn pipelined_round(sock: &mut TcpStream, two: &[u8]) {
    send_request(sock, &Request::Ping).expect("ping");
    recv_response(sock).expect("answer").expect("open");
    std::io::Write::write_all(sock, two).expect("send");
    for _ in 0..2 {
        let resp = recv_response(sock).expect("answer").expect("open");
        assert!(matches!(resp, Response::Ok), "{resp:?}");
    }
}

#[test]
fn daemon_calls_are_not_timer_bound() {
    let per_call = PING_BUDGET / PINGS;
    let dir = tmp_dir("call-latency");
    let d = Daemon::spawn(DaemonConfig::new(&dir), "127.0.0.1:0").expect("spawn");
    let mut c = Client::connect(d.addr()).expect("connect");
    c.create_tenant("t", 0).expect("create tenant");
    c.open_stream("t", "base").expect("open base");
    c.open_stream("t", "run").expect("open run");
    let base = synth(1, 0, (CALLS * INGEST) as u64);
    let run = synth(1, 1, (CALLS * INGEST) as u64);
    c.ingest("t", "base", 0, &base).expect("ingest base");

    let t0 = Instant::now();
    for _ in 0..PINGS {
        c.ping().expect("ping");
    }
    let pings = t0.elapsed();
    let mut chunks = run.chunks(INGEST);
    let mut sent = 0u64;
    let ingest = p50(|| {
        let chunk = chunks.next().expect("a chunk per call");
        sent = c.ingest("t", "run", sent, chunk).expect("ingest run");
    });
    let snapshot = p50(|| {
        let Response::Snapshot { seen_b, .. } = c.snapshot("t", "run").expect("snapshot") else {
            panic!("snapshot variant");
        };
        assert_eq!(seen_b, sent);
    });
    let mut sock = TcpStream::connect(d.addr()).expect("connect");
    sock.set_nodelay(true).expect("nodelay");
    let mut two = Vec::new();
    send_request(&mut two, &Request::Ping).expect("frame");
    send_request(&mut two, &Request::Ping).expect("frame");
    let pipelined = p50(|| pipelined_round(&mut sock, &two));
    println!(
        "per-call p50 on loopback: Ping {:.3} ms (mean of {PINGS}), {INGEST}-record Ingest {:.3} ms, \
         Snapshot {:.3} ms, a Ping then two pipelined {:.3} ms",
        ms(pings / PINGS),
        ms(ingest),
        ms(snapshot),
        ms(pipelined),
    );
    drop(c);
    d.kill();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        pings < PING_BUDGET,
        "{PINGS} Pings took {pings:?} (budget {PING_BUDGET:?})"
    );
    for (what, t) in [
        ("Ingest", ingest),
        ("Snapshot", snapshot),
        ("pipelined round", pipelined),
    ] {
        assert!(
            t < per_call,
            "{what}: p50 {t:?} (bound {per_call:?} a call)"
        );
    }
}
