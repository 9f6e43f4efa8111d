//! Hostile bytes on the socket: whatever arrives in place of an `Ingest`
//! frame — garbage, a truncation, a record count that does not match
//! the slab, a length over the cap — the decoder answers with a typed
//! `WireError`, never a panic, and never allocates for bytes that were
//! only promised. A daemon fed such a frame drops that connection and
//! keeps serving the others.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;

use choir_service::wire::{recv_request, recv_response, send_request, INGEST_TAG, MAX_FRAME_BYTES};
use choir_service::{Client, Daemon, DaemonConfig, Request, Response, WireError, WireObs};
use common::{lcg, synth, tmp_dir};

fn ingest_frame(records: usize) -> Vec<u8> {
    let req = Request::Ingest {
        tenant: "acme".into(),
        stream: "r1".into(),
        seq: 41,
        records: synth(1, 1, records as u64 + 8)[..records]
            .iter()
            .map(|&o| WireObs::from(o))
            .collect(),
    };
    let mut frame = Vec::new();
    send_request(&mut frame, &req).expect("encode");
    frame
}

/// Re-frame a payload under a length prefix that matches it.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut f = (payload.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(payload);
    f
}

#[test]
fn an_ingest_frame_is_its_header_plus_24_bytes_a_record() {
    let frame = ingest_frame(100);
    assert_eq!(frame.len(), 4 + 1 + (1 + 4) + (1 + 2) + 8 + 4 + 100 * 24);
    let Some(Request::Ingest {
        tenant,
        stream,
        seq,
        records,
    }) = recv_request(&mut &frame[..]).expect("decode")
    else {
        panic!("ingest variant");
    };
    assert_eq!(
        (tenant.as_str(), stream.as_str(), seq, records.len()),
        ("acme", "r1", 41, 100)
    );
    // A JSON-encoded Ingest is not an alternative spelling.
    let json = br#"{"Ingest":{"tenant":"acme","stream":"r1","seq":0,"records":[]}}"#;
    let err = recv_request(&mut &framed(json)[..]).unwrap_err();
    assert!(matches!(err, WireError::Parse(_)), "{err}");
}

#[test]
fn truncated_mismatched_and_garbage_ingest_frames_are_typed_errors() {
    let frame = ingest_frame(20);
    let payload = &frame[4..];

    // The stream ends inside the frame (inside the length prefix it
    // reads as a hang-up).
    for cut in 4..frame.len() {
        let err = recv_request(&mut &frame[..cut]).unwrap_err();
        assert!(matches!(err, WireError::Io(_)), "cut {cut}: {err}");
    }
    // The frame is whole but its payload stops short: inside the header
    // it does not parse, inside the slab the count gives it away.
    let header = payload.len() - 20 * 24;
    for keep in 1..payload.len() {
        let err = recv_request(&mut &framed(&payload[..keep])[..]).unwrap_err();
        match err {
            WireError::Parse(_) if keep < header => {}
            WireError::Slab { count: 20, bytes } if keep >= header => {
                assert_eq!(bytes, keep - header)
            }
            other => panic!("payload cut at {keep}: {other}"),
        }
    }
    // A count that promises more (far more) or fewer records than the
    // slab holds. Nothing is allocated on the count's say-so: the last
    // one would be a 96 GiB vector.
    for count in [0u32, 19, 21, u32::MAX] {
        let mut bad = payload.to_vec();
        bad[header - 4..header].copy_from_slice(&count.to_le_bytes());
        let err = recv_request(&mut &framed(&bad)[..]).unwrap_err();
        assert!(
            matches!(err, WireError::Slab { count: c, bytes: 480 } if c == count),
            "{err}"
        );
    }
    // Seeded garbage behind the tag byte.
    let mut seed = 0xBAD_F00D;
    for _ in 0..2000 {
        let len = (lcg(&mut seed) % 200) as usize;
        let mut junk = vec![INGEST_TAG];
        junk.extend((0..len).map(|_| lcg(&mut seed) as u8));
        if let Ok(Some(req)) = recv_request(&mut &framed(&junk)[..]) {
            // Garbage can spell a well-formed frame; then it must say
            // what it carries.
            let Request::Ingest { records, .. } = req else {
                panic!("tagged frame decoded to another verb");
            };
            assert!(records.len() * 24 < junk.len());
        }
    }
}

#[test]
fn an_oversized_frame_is_refused_before_its_payload_is_read() {
    /// Hands out a length prefix, then fails the test if asked for more.
    struct PrefixOnly(Vec<u8>);
    impl Read for PrefixOnly {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            assert!(!self.0.is_empty(), "read past the length prefix");
            let n = buf.len().min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0.drain(..n);
            Ok(n)
        }
    }
    for len in [MAX_FRAME_BYTES + 1, u32::MAX] {
        let err = recv_request(&mut PrefixOnly(len.to_le_bytes().to_vec())).unwrap_err();
        assert!(matches!(err, WireError::Oversized(n) if n == len), "{err}");
    }
    // And the sender never builds one: 700k records pass the cap.
    let req = Request::Ingest {
        tenant: "acme".into(),
        stream: "r1".into(),
        seq: 0,
        records: vec![
            WireObs {
                id_hi: 0,
                id_lo: 0,
                t_ps: 0
            };
            700_000
        ],
    };
    let mut sink = Vec::new();
    let err = send_request(&mut sink, &req).unwrap_err();
    assert!(matches!(err, WireError::Oversized(_)), "{err}");
    assert!(sink.is_empty(), "nothing was written");
}

#[test]
fn a_daemon_survives_hostile_frames() {
    let dir = tmp_dir("hostile");
    let d = Daemon::spawn(DaemonConfig::new(&dir), "127.0.0.1:0").expect("spawn");
    let mut good = Client::connect(d.addr()).expect("connect");
    good.create_tenant("acme", 0).expect("create");
    good.open_stream("acme", "base").expect("open");

    let frame = ingest_frame(20);
    let short_slab = framed(&frame[4..frame.len() - 7]);
    let oversized = u32::MAX.to_le_bytes().to_vec();
    for (what, bytes) in [("short slab", short_slab), ("oversized", oversized)] {
        let mut sock = TcpStream::connect(d.addr()).expect("connect raw");
        sock.write_all(&bytes).expect("send");
        // The daemon says why, then hangs up.
        let Some(Response::Error { message }) = recv_response(&mut sock).expect("response") else {
            panic!("{what}: expected an error response");
        };
        assert!(!message.is_empty());
        assert!(
            recv_response(&mut sock).expect("clean close").is_none(),
            "{what}"
        );
    }
    // An ingest for a stream that does not exist is a refusal, and
    // leaves no log behind.
    let obs = synth(1, 0, 10);
    assert!(good.ingest("acme", "ghost", 0, &obs).is_err());
    assert!(!dir.join("tenants/acme/ghost.log").exists());
    good.ingest("acme", "base", 0, &obs)
        .expect("the daemon still serves");

    // A well-framed ingest whose stamps would overflow the engine's gap
    // arithmetic (2^63 then 1) is refused whole, before anything is
    // logged or journaled: the next request is answered, and a restart
    // replays nothing that panics.
    good.open_stream("acme", "r1").expect("open");
    let mut wild = synth(1, 1, 10);
    wild[3].t_ps = 1 << 63;
    wild[4].t_ps = 1;
    let err = good.ingest("acme", "r1", 0, &wild).unwrap_err();
    assert!(err.to_string().contains("record 3"), "{err}");
    let logged = std::fs::metadata(dir.join("tenants/acme/r1.log")).map_or(0, |m| m.len());
    assert_eq!(logged, 0, "nothing of the refused batch reached the log");
    let total = good.ingest("acme", "r1", 0, &obs).expect("served after the refusal");
    assert_eq!(total, 10);
    drop(good);
    d.kill();
    let d = Daemon::spawn(DaemonConfig::new(&dir), "127.0.0.1:0").expect("restart");
    let mut c = Client::connect(d.addr()).expect("reconnect");
    let (ingested, ..) = c.stream_status("acme", "r1").expect("status");
    assert_eq!(ingested, 10);
    drop(c);
    d.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_deeply_nested_json_frame_is_refused_not_fatal() {
    let dir = tmp_dir("deep-json");
    let d = Daemon::spawn(DaemonConfig::new(&dir), "127.0.0.1:0").expect("spawn");
    let mut good = Client::connect(d.addr()).expect("connect");
    good.create_tenant("acme", 0).expect("create");
    good.open_stream("acme", "base").expect("open");

    // 1 MiB of `[`: parsed one stack frame per level, it would overflow
    // the handler thread's stack and abort the daemon with every tenant.
    let mut sock = TcpStream::connect(d.addr()).expect("connect raw");
    sock.write_all(&framed(&vec![b'['; 1 << 20])).expect("send");
    match recv_response(&mut sock) {
        Ok(Some(Response::Error { message })) => assert!(message.contains("128"), "{message}"),
        Ok(None) | Err(_) => {}
        Ok(Some(other)) => panic!("expected a refusal, got {other:?}"),
    }
    Client::connect(d.addr())
        .expect("a new client connects")
        .ping()
        .expect("and is served");
    good.ingest("acme", "base", 0, &synth(1, 0, 10))
        .expect("the first client still is");
    drop(good);
    d.kill();

    let d = Daemon::spawn(DaemonConfig::new(&dir), "127.0.0.1:0").expect("restart");
    let mut c = Client::connect(d.addr()).expect("reconnect");
    c.ping().expect("ping after restart");
    let (ingested, ..) = c.stream_status("acme", "base").expect("status");
    assert_eq!(ingested, 10);
    drop(c);
    d.kill();
    let _ = std::fs::remove_dir_all(&dir);
}
