//! `choir-ctl` driven as a process against a real daemon: `ingest-pcap`
//! of a capture with a damaged tail gets the intact prefix in before it
//! fails, and a re-run with the repaired capture resumes and finishes
//! with the batch κ, bit for bit.

mod common;

use std::path::Path;
use std::process::{Command, Output};

use choir_core::metrics::{Observation, PairAnalyzer, Trial};
use choir_packet::pcap::PcapWriter;
use choir_packet::{ChoirTag, FrameBuilder};
use choir_service::client::INGEST_CHUNK;
use choir_service::{Client, Daemon, DaemonConfig};
use common::tmp_dir;

/// `obs` as the nanosecond pcap a recorder would have written (stamps
/// must be whole nanoseconds, identities tagged).
fn to_pcap(obs: &[Observation]) -> Vec<u8> {
    let builder = FrameBuilder::new(1400, 1, 2);
    let mut w = PcapWriter::new(Vec::new()).expect("in-memory pcap");
    for o in obs {
        let (replayer, stream, seq) = o.id.tag_fields().expect("synthetic ids are tagged");
        let frame = builder.build_tagged_snap(ChoirTag::new(replayer, stream, seq));
        w.write_record(o.t_ps / 1000, &frame)
            .expect("in-memory pcap");
    }
    w.finish().expect("in-memory pcap")
}

/// [`common::synth`] with every stamp rounded down to a nanosecond, the
/// resolution a pcap carries.
fn synth_ns(stream: u64, records: u64) -> Vec<Observation> {
    let mut obs = common::synth(0, stream, records);
    for o in &mut obs {
        o.t_ps -= o.t_ps % 1000;
    }
    obs
}

fn ctl(addr: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_choir-ctl"))
        .arg(addr)
        .args(args)
        .output()
        .expect("run choir-ctl")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn ingest_pcap_salvages_a_damaged_tail_and_resumes_with_the_repaired_capture() {
    let dir = tmp_dir("ctl");
    let handle = Daemon::spawn(DaemonConfig::new(dir.join("data")), "127.0.0.1:0").expect("spawn");
    let addr = handle.addr().to_string();

    // More than one `Ingest` frame's worth, so the damage sits in the
    // second round of the client's read loop.
    let base = synth_ns(0, INGEST_CHUNK as u64 + 2_000);
    let run = synth_ns(1, INGEST_CHUNK as u64 + 2_000);
    let intact = INGEST_CHUNK + 500;
    assert!(run.len() > intact + 1);
    let pcap = to_pcap(&run);
    // Every record is the same size: 16-byte header + snap-length frame.
    let record_bytes = (pcap.len() - 24) / run.len();
    let cut_record_at = 24 + intact * record_bytes;
    let (whole, damaged) = (dir.join("run.pcap"), dir.join("run-cut.pcap"));
    std::fs::write(&whole, &pcap).expect("write capture");
    // Cut inside record `intact`'s body.
    std::fs::write(&damaged, &pcap[..cut_record_at + 16 + 11]).expect("write cut capture");
    let path = |p: &Path| p.to_str().expect("utf-8 temp path").to_owned();

    let mut c = Client::connect(handle.addr()).expect("connect");
    c.create_tenant("t", 0).expect("create tenant");
    c.open_stream("t", "base").expect("open baseline");
    c.open_stream("t", "run").expect("open run");
    c.ingest("t", "base", 0, &base).expect("ingest baseline");

    let out = ctl(&addr, &["ingest-pcap", "t", "run", &path(&damaged)]);
    let err = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains(&format!("record {intact} (byte offset {cut_record_at})")),
        "{err}"
    );
    assert!(
        err.contains(&format!("now holds {intact} records")),
        "{err}"
    );

    let out = ctl(&addr, &["status", "t", "run"]);
    assert!(out.status.success());
    assert_eq!(
        text(&out.stdout).trim(),
        format!("t/run: {intact} records, live")
    );

    let out = ctl(&addr, &["ingest-pcap", "t", "run", &path(&whole)]);
    let said = text(&out.stdout);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert!(
        said.contains(&format!("resuming at record {intact}")),
        "{said}"
    );
    assert!(
        said.contains(&format!("t/run: {} records ingested", run.len())),
        "{said}"
    );

    assert!(c
        .finish_stream("t", "base")
        .expect("finish baseline")
        .is_none());
    let served = c
        .finish_stream("t", "run")
        .expect("finish run")
        .expect("comparison summary");
    let batch = PairAnalyzer::new(
        &Trial::from_observations(&base),
        &Trial::from_observations(&run),
    )
    .metrics();
    assert_eq!(served.b_len as usize, run.len());
    assert_eq!(served.score.kappa_bits, batch.kappa.to_bits());

    drop(c);
    handle.kill();
    let _ = std::fs::remove_dir_all(&dir);
}
