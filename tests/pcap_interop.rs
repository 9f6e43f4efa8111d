//! pcap interoperability: captures written by the recorder round-trip
//! through the standard nanosecond pcap container back into identical
//! trials, including snap-length (truncated) frames, under randomized
//! inputs — and foreign captures (microsecond resolution, either byte
//! order) parse identically to their native twins.

use bytes::Bytes;
use choir::capture::{Recorder, RecorderConfig};
use choir::dpdk::{App, Dataplane, Mempool, ScriptPlane};
use choir::metrics::Trial;
use choir::packet::pcap::{
    parse_pcap, PcapWriter, DEFAULT_SNAPLEN, LINKTYPE_ETHERNET, PCAP_NS_MAGIC, PCAP_US_MAGIC,
};
use choir::packet::{ChoirTag, Frame, FrameBuilder};
use proptest::prelude::*;

/// Build a pcap byte stream the way a foreign capture tool would: with
/// the given magic (ns or µs resolution) and byte order. Every header
/// and record field honours `big_endian`.
fn foreign_pcap(magic: u32, big_endian: bool, records: &[(u32, u32, Vec<u8>)]) -> Vec<u8> {
    let w32 = |out: &mut Vec<u8>, v: u32| {
        out.extend_from_slice(&if big_endian {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        })
    };
    let w16 = |out: &mut Vec<u8>, v: u16| {
        out.extend_from_slice(&if big_endian {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        })
    };
    let mut out = Vec::new();
    w32(&mut out, magic);
    w16(&mut out, 2);
    w16(&mut out, 4);
    w32(&mut out, 0); // thiszone
    w32(&mut out, 0); // sigfigs
    w32(&mut out, DEFAULT_SNAPLEN);
    w32(&mut out, LINKTYPE_ETHERNET);
    for (sec, subsec, payload) in records {
        w32(&mut out, *sec);
        w32(&mut out, *subsec);
        w32(&mut out, payload.len() as u32);
        w32(&mut out, payload.len() as u32);
        out.extend_from_slice(payload);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_frames_roundtrip_through_pcap(
        recs in proptest::collection::vec((0u64..u32::MAX as u64, 16usize..200), 0..40)
    ) {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        let mut frames = Vec::new();
        let mut ts = 0u64;
        for (i, (dt, len)) in recs.iter().enumerate() {
            ts += dt;
            let mut data = vec![(i % 251) as u8; *len];
            ChoirTag::new(3, 1, i as u64).stamp_trailer(&mut data);
            let f = Frame::new(Bytes::from(data));
            w.write_record(ts, &f).unwrap();
            frames.push((ts, f));
        }
        let buf = w.finish().unwrap();
        let parsed = parse_pcap(&buf).unwrap();
        prop_assert_eq!(parsed.len(), frames.len());
        for (rec, (ts, f)) in parsed.iter().zip(&frames) {
            prop_assert_eq!(rec.ts_ns, *ts);
            prop_assert_eq!(&rec.frame.data, &f.data);
            prop_assert_eq!(rec.frame.packet_id(), f.packet_id());
        }
    }

    #[test]
    fn foreign_endianness_and_resolution_parse_identically(
        recs in proptest::collection::vec(
            (0u32..100_000, 0u32..999_999, proptest::collection::vec(any::<u8>(), 16..120)),
            0..20
        )
    ) {
        // The same records through all four container variants: the two
        // byte orders must parse bit-identically at each resolution, and
        // the µs variant must land on exactly 1000x the subsecond field.
        for (magic, subsec_to_ns) in [(PCAP_NS_MAGIC, 1u64), (PCAP_US_MAGIC, 1_000u64)] {
            let native = parse_pcap(&foreign_pcap(magic, false, &recs)).unwrap();
            let swapped = parse_pcap(&foreign_pcap(magic, true, &recs)).unwrap();
            prop_assert_eq!(&native, &swapped,
                "byte-swapped capture must parse identically to its native twin");
            prop_assert_eq!(native.len(), recs.len());
            for (rec, (sec, subsec, payload)) in native.iter().zip(&recs) {
                prop_assert_eq!(
                    rec.ts_ns,
                    *sec as u64 * 1_000_000_000 + *subsec as u64 * subsec_to_ns
                );
                prop_assert_eq!(&rec.frame.data[..], &payload[..]);
            }
        }
    }

    #[test]
    fn snap_frames_preserve_identity_and_length(seqs in proptest::collection::vec(0u64..10_000, 1..30)) {
        let b = FrameBuilder::new(1400, 1, 2);
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for (i, &s) in seqs.iter().enumerate() {
            let f = b.build_tagged_snap(ChoirTag::new(0, 0, s));
            w.write_record(i as u64 * 285, &f).unwrap();
        }
        let buf = w.finish().unwrap();
        let parsed = parse_pcap(&buf).unwrap();
        for (rec, &s) in parsed.iter().zip(&seqs) {
            prop_assert_eq!(rec.frame.orig_len(), 1400);
            prop_assert_eq!(rec.frame.tag().unwrap().seq, s);
            // Identity equals the full-size build of the same tag.
            let full = b.build_tagged(ChoirTag::new(0, 0, s));
            prop_assert_eq!(rec.frame.packet_id(), full.packet_id());
        }
    }
}

/// A one-port plane with arrival `i` queued as `builder`'s tagged snap
/// frame of sequence number `i`, stamped `stamps_ps[i]`.
fn feed(builder: &FrameBuilder, stamps_ps: impl IntoIterator<Item = u64>) -> ScriptPlane {
    let mut dp = ScriptPlane::new(1, Mempool::new("feed", 1 << 10));
    for (i, ps) in stamps_ps.into_iter().enumerate() {
        let frame = builder.build_tagged_snap(ChoirTag::new(0, 0, i as u64));
        let mut m = dp.mempool().alloc(frame).unwrap();
        m.rx_ts_ps = Some(ps);
        dp.arrive(0, m);
    }
    dp
}

#[test]
fn recorder_capture_to_pcap_to_trial_is_lossless() {
    // Drive the recorder app, export pcap, re-import as a Trial; the
    // metric comparison between original and re-imported must be perfect
    // (modulo pcap's nanosecond resolution, which our timestamps already
    // honour).
    let builder = FrameBuilder::new(1400, 1, 2);
    // ns-aligned ps
    let mut feed = feed(&builder, (0..500u64).map(|i| i * 284_800 / 1_000 * 1_000));

    let mut rec = Recorder::new(RecorderConfig {
        keep_frames: true,
        ..RecorderConfig::default()
    });
    rec.on_wake(&mut feed);
    let original = rec.take_trials().pop().unwrap();

    let mut pcap = Vec::new();
    let written = rec.write_pcap(&mut pcap).unwrap();
    assert_eq!(written, 500);

    let reimported = Trial::from_pcap_records(&parse_pcap(&pcap).unwrap());
    assert_eq!(reimported.len(), original.len());
    let m = choir::metrics::compare(&original, &reimported);
    assert_eq!(m.kappa, 1.0, "pcap round trip must be lossless");
}

#[test]
fn recorder_rounds_sub_ns_timestamps_to_nearest() {
    // Hardware timestamps land on picoseconds; the pcap container holds
    // nanoseconds. Export must round to nearest, not truncate — a
    // floor() here would bias every IAT/latency delta derived from an
    // exported capture by up to 1 ns.
    let builder = FrameBuilder::new(200, 1, 2);
    let cases: &[(u64, u64)] = &[
        (0, 0),
        (499, 0), // below the midpoint: down
        (500, 1), // midpoint: up
        (1_499, 1),
        (1_500, 2),
        (2_000, 2), // exact ns: unchanged
        (999_999_999_499, 999_999_999),
        (999_999_999_500, 1_000_000_000), // carries into the seconds field
    ];
    let mut feed = feed(&builder, cases.iter().map(|&(ps, _)| ps));
    let mut rec = Recorder::new(RecorderConfig {
        keep_frames: true,
        ..RecorderConfig::default()
    });
    rec.on_wake(&mut feed);
    let mut out = Vec::new();
    rec.write_pcap(&mut out).unwrap();
    let parsed = parse_pcap(&out).unwrap();
    assert_eq!(parsed.len(), cases.len());
    for (recd, &(ps, want_ns)) in parsed.iter().zip(cases) {
        assert_eq!(
            recd.ts_ns, want_ns,
            "{ps} ps must round to {want_ns} ns, got {} ns",
            recd.ts_ns
        );
    }
}

#[test]
fn oversize_frames_are_clamped_to_snaplen_not_corrupted() {
    // A frame longer than the advertised snaplen must be stored
    // truncated (incl clamped, orig preserved) instead of writing a
    // record that claims more bytes than the container allows — and the
    // records after it must stay parseable.
    let big = DEFAULT_SNAPLEN as usize + 1_000;
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    w.write_record(1_000, &Frame::new(Bytes::from(vec![0xAB; big])))
        .unwrap();
    w.write_record(2_000, &Frame::new(Bytes::from(vec![0xCD; 64])))
        .unwrap();
    let buf = w.finish().unwrap();
    let parsed = parse_pcap(&buf).unwrap();
    assert_eq!(parsed.len(), 2);
    assert_eq!(parsed[0].frame.len(), DEFAULT_SNAPLEN as usize);
    assert_eq!(parsed[0].frame.orig_len(), big);
    assert!(parsed[0].frame.data.iter().all(|&b| b == 0xAB));
    assert_eq!(parsed[1].ts_ns, 2_000);
    assert_eq!(parsed[1].frame.len(), 64);
}
