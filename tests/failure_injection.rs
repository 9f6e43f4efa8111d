//! Failure-injection tests: force drops, duplications, truncation, pool
//! exhaustion and clock steps through the full stack, and check that the
//! system degrades the way the metrics say it should — no panics, no
//! silent lies.

use bytes::Bytes;
use choir::dpdk::{ControlMsg, Mempool, PoolExhausted};
use choir::metrics::report::analyze;
use choir::metrics::{compare, Trial};
use choir::packet::{ChoirTag, Frame};
use choir::replay::recording::Recording;
use choir::testbed::{EnvKind, Experiment, ExperimentConfig};

#[test]
fn forced_recorder_drops_surface_as_uniqueness_variation() {
    // Crank the drop probability far beyond the calibrated profile.
    let mut profile = EnvKind::FabricShared40Noisy.profile();
    profile.recorder_drop_prob = 0.05;
    profile.runs = 3;
    let out = Experiment::new(ExperimentConfig {
        profile,
        scale: 0.005,
        seed: 11,
    })
    .run();
    for run in &out.report.runs {
        assert!(run.missing > 0 || run.extra > 0, "5% loss must be visible");
        assert!(run.metrics.u > 0.01, "U = {}", run.metrics.u);
        assert!(run.metrics.kappa < 1.0);
    }
}

#[test]
fn truncated_capture_scores_as_missing_packets() {
    // Simulate a capture cut off mid-run: drop the tail of trial B.
    let mut a = Trial::new();
    for i in 0..1_000u64 {
        a.push_tagged(0, 0, i, i * 284_800);
    }
    let b: Trial = a
        .observations()
        .iter()
        .take(700)
        .map(|o| (o.id, o.t_ps))
        .collect();
    let cmp = analyze("truncated", &a, &b);
    assert_eq!(cmp.missing, 300);
    let expected_u = 1.0 - (2.0 * 700.0) / 1700.0;
    assert!((cmp.metrics.u - expected_u).abs() < 1e-12);
    // Common prefix is perfectly ordered and timed.
    assert_eq!(cmp.metrics.o, 0.0);
    assert_eq!(cmp.metrics.l, 0.0);
}

#[test]
fn duplicated_packets_score_as_extras_not_reordering() {
    let mut a = Trial::new();
    let mut b = Trial::new();
    for i in 0..100u64 {
        a.push_tagged(0, 0, i, i * 1_000);
        b.push_tagged(0, 0, i, i * 1_000);
        if i % 10 == 0 {
            // A duplicate delivery right after the original.
            b.push_tagged(0, 0, i, i * 1_000 + 10);
        }
    }
    let cmp = analyze("dup", &a, &b);
    assert_eq!(cmp.extra, 10);
    assert_eq!(cmp.missing, 0);
    assert!(cmp.metrics.u > 0.0);
    // The matched (first) occurrences stay in order.
    assert_eq!(cmp.metrics.o, 0.0);
}

#[test]
fn pool_exhaustion_fails_allocation_not_the_process() {
    let pool = Mempool::new("tiny", 8);
    let mut held = Vec::new();
    for i in 0..8 {
        held.push(
            pool.alloc(Frame::new(Bytes::from(vec![i as u8; 32])))
                .expect("within capacity"),
        );
    }
    // The 9th allocation fails cleanly...
    assert_eq!(
        pool.alloc(Frame::new(Bytes::from_static(b"x")))
            .unwrap_err(),
        PoolExhausted
    );
    assert_eq!(pool.failed_allocs(), 1);
    // ...and recording those mbufs takes no extra slots, so a recording
    // deeper than RAM is impossible by construction, not by crash.
    let mut rec = Recording::new();
    rec.push_burst(0, held.iter());
    assert_eq!(pool.in_use(), 8);
    drop(held);
    assert_eq!(pool.in_use(), 8, "recording retains the slots");
    rec.clear();
    assert_eq!(pool.in_use(), 0);
}

#[test]
fn generator_overruns_are_counted_when_the_ring_is_saturated() {
    // A generator pushed into a 1-slot transmit ring must count overruns
    // rather than wedge.
    use choir::dpdk::ScriptPlane;
    use choir::pktgen::{Generator, GeneratorConfig};

    let mut dp = ScriptPlane::new(1, Mempool::new("sat", 1 << 12));
    dp.accept = vec![1, 0, 0]; // one packet every third call
    let mut g = Generator::new(GeneratorConfig::cbr(40_000_000_000, 30));
    dp.run(&mut g, 1_000);
    assert!(g.done());
    assert!(g.overruns() > 0);
    assert!(g.overruns() < 30);
}

#[test]
fn clock_step_between_replays_shifts_start_but_not_consistency() {
    // A PTP step of several microseconds between runs moves the replay
    // start time; since latency is anchored per trial, kappa barely
    // moves. (The paper's single-replayer runs rely on this.)
    use choir::netsim::clock::PtpModel;

    let mut profile = EnvKind::LocalSingle.profile();
    profile.runs = 2;
    // Huge per-run PTP offsets.
    profile.ptp_offset_sigma_ns = 5_000.0;
    let stepped = Experiment::new(ExperimentConfig {
        profile,
        scale: 0.005,
        seed: 21,
    })
    .run();
    let mut profile2 = EnvKind::LocalSingle.profile();
    profile2.runs = 2;
    profile2.ptp_offset_sigma_ns = 5.0;
    let steady = Experiment::new(ExperimentConfig {
        profile: profile2,
        scale: 0.005,
        seed: 21,
    })
    .run();
    let d = (stepped.report.mean.kappa - steady.report.mean.kappa).abs();
    assert!(d < 0.02, "kappa moved {d} under a clock step");
    // Keep the import honest.
    let _ = PtpModel::perfect();
}

#[test]
fn corrupted_tag_changes_identity() {
    // A bit flip in the trailer makes the packet a different packet —
    // "corrupted packets" count against U exactly like drops (paper §3).
    let mut buf = vec![0u8; 64];
    ChoirTag::new(1, 0, 42).stamp_trailer(&mut buf);
    let good = Frame::new(Bytes::from(buf.clone()));
    buf[63] ^= 0x01; // corrupt the sequence number
    let bad = Frame::new(Bytes::from(buf));
    assert_ne!(good.packet_id(), bad.packet_id());

    let mut a = Trial::new();
    let mut b = Trial::new();
    a.push(good.packet_id(), 0);
    b.push(bad.packet_id(), 0);
    let m = compare(&a, &b);
    assert_eq!(m.u, 1.0);
}

#[test]
fn middlebox_survives_schedule_spam() {
    // Abusive control-plane input: replay scheduled repeatedly, aborted,
    // re-scheduled — the middlebox must stay consistent.
    use choir::core::replay::middlebox::{ChoirMiddlebox, MiddleboxConfig};
    use choir::dpdk::{App, ScriptPlane};

    let mut dp = ScriptPlane::new(2, Mempool::new("null", 64));
    dp.now = 7;
    let mut mb = ChoirMiddlebox::new(MiddleboxConfig::default());
    for _ in 0..100 {
        mb.on_control(&ControlMsg::ScheduleReplay { start_wall_ns: 1 }, &mut dp);
        mb.on_control(&ControlMsg::AbortReplay, &mut dp);
        mb.on_control(&ControlMsg::StartRecord, &mut dp);
        mb.on_control(&ControlMsg::StopRecord, &mut dp);
        mb.on_wake(&mut dp);
    }
    assert!(!mb.replay_active());
}
