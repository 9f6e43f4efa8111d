//! End-to-end integration tests spanning every crate: generator →
//! middlebox (record) → replays → recorder → metrics, through the
//! simulated testbeds.
//!
//! These tests assert the *shape criteria* from DESIGN.md §5 — the
//! qualitative structure of the paper's results — at reduced scale.

use choir::testbed::{EnvKind, Experiment, ExperimentConfig, ExperimentOutput};

fn quick(kind: EnvKind, scale: f64, seed: u64, runs: usize) -> ExperimentOutput {
    let mut profile = kind.profile();
    profile.runs = runs;
    Experiment::new(ExperimentConfig {
        profile,
        scale,
        seed,
    })
    .run()
}

/// Every trial's identities, replayer by replayer, are the consecutive
/// sequence 0, 1, 2, … that replayer's middlebox stamped while recording
/// (stream 0), and together they are every recorded packet: nothing
/// lost, duplicated or re-ordered within a replayer between the
/// middlebox and the recorder.
fn assert_captures_are_the_stamped_sequence(out: &ExperimentOutput) {
    for (run, trial) in out.trials.iter().enumerate() {
        let mut next = std::collections::BTreeMap::<u16, u64>::new();
        for (pos, o) in trial.observations().iter().enumerate() {
            let (replayer, stream, seq) = o.id.tag_fields().expect("a stamped packet");
            let want = next.entry(replayer).or_default();
            assert_eq!(
                (stream, seq),
                (0, *want),
                "run {run}, position {pos}, replayer {replayer}"
            );
            *want += 1;
        }
        assert_eq!(trial.len() as u64, out.recorded_packets, "run {run}");
    }
}

#[test]
fn local_single_replayer_is_nearly_perfect() {
    let out = quick(EnvKind::LocalSingle, 0.01, 1, 3);
    for run in &out.report.runs {
        assert_eq!(run.metrics.u, 0.0, "no drops on the local testbed");
        assert_eq!(run.metrics.o, 0.0, "no reordering on the local testbed");
        assert!(
            run.iat_within_10ns > 0.85,
            "expected ~92% within 10 ns, got {}",
            run.iat_within_10ns
        );
        assert!(run.metrics.kappa > 0.97, "kappa {}", run.metrics.kappa);
    }
}

#[test]
fn fabric_is_less_consistent_than_local_by_an_order_of_magnitude() {
    // The paper's core finding (§8.1): FABRIC adds IAT deviation; the
    // dedicated-NIC runs see I grow by ~10x or more versus local.
    let local = quick(EnvKind::LocalSingle, 0.005, 2, 3);
    let ded = quick(EnvKind::FabricDedicated40A, 0.005, 2, 3);
    let shared = quick(EnvKind::FabricShared40, 0.005, 2, 3);
    assert!(
        ded.report.mean.i > 10.0 * local.report.mean.i,
        "dedicated I {} vs local I {}",
        ded.report.mean.i,
        local.report.mean.i
    );
    assert!(
        shared.report.mean.i > 2.0 * local.report.mean.i,
        "shared I {} vs local I {}",
        shared.report.mean.i,
        local.report.mean.i
    );
    assert!(ded.report.mean.kappa < local.report.mean.kappa);
    assert!(shared.report.mean.kappa < local.report.mean.kappa);
}

#[test]
fn table2_kappa_ordering_shape_holds() {
    // Table 2's ordering: Local single best; shared 40G close behind;
    // 80 Gbps runs around 0.94; the anomalous dedicated 40G runs and the
    // noisy shared run worst (~0.74).
    let scale = 0.01;
    let k = |kind| quick(kind, scale, 3, 3).report.mean.kappa;
    let local = k(EnvKind::LocalSingle);
    let shared40 = k(EnvKind::FabricShared40);
    let ded80 = k(EnvKind::FabricDedicated80);
    let ded40 = k(EnvKind::FabricDedicated40A);
    let noisy = k(EnvKind::FabricShared40Noisy);

    assert!(local > shared40, "local {local} vs shared40 {shared40}");
    assert!(shared40 > ded80, "shared40 {shared40} vs ded80 {ded80}");
    assert!(ded80 > ded40, "ded80 {ded80} vs ded40 {ded40}");
    assert!(ded80 > noisy, "ded80 {ded80} vs noisy {noisy}");
    // Bands, loosely.
    assert!(local > 0.97);
    assert!((0.60..0.90).contains(&ded40), "ded40 kappa {ded40}");
    assert!((0.60..0.90).contains(&noisy), "noisy kappa {noisy}");
}

#[test]
fn dedicated_nic_anomaly_disappears_at_80g() {
    // §7: the same dedicated NIC that shows I ~ 0.5 at 40 Gbps shows
    // I ~ 0.1 at 80 Gbps ("the IATs get a little more consistent").
    let ded40 = quick(EnvKind::FabricDedicated40A, 0.005, 4, 3);
    let ded80 = quick(EnvKind::FabricDedicated80, 0.005, 4, 3);
    assert!(
        ded40.report.mean.i > 2.0 * ded80.report.mean.i,
        "40G I {} should far exceed 80G I {}",
        ded40.report.mean.i,
        ded80.report.mean.i
    );
}

#[test]
fn only_noisy_shared_environment_drops_packets() {
    let noisy = quick(EnvKind::FabricShared40Noisy, 0.01, 5, 3);
    let drops: usize = noisy.report.runs.iter().map(|r| r.missing + r.extra).sum();
    assert!(drops > 0, "noisy shared must drop packets");

    let clean = quick(EnvKind::FabricShared40, 0.01, 5, 3);
    let clean_drops: usize = clean.report.runs.iter().map(|r| r.missing + r.extra).sum();
    assert_eq!(clean_drops, 0, "idle shared site must not drop");

    let ded = quick(EnvKind::FabricDedicated80Noisy, 0.01, 5, 3);
    let ded_drops: usize = ded.report.runs.iter().map(|r| r.missing + r.extra).sum();
    assert_eq!(ded_drops, 0, "dedicated hardware shields the data path");
}

#[test]
fn dual_replayer_reorders_in_whole_bursts() {
    let out = quick(EnvKind::LocalDual, 0.02, 6, 3);
    let reordered: Vec<_> = out
        .report
        .runs
        .iter()
        .filter(|r| r.metrics.o > 0.0)
        .collect();
    assert!(!reordered.is_empty(), "dual replayer must reorder");
    for r in &reordered {
        // Table 1's signature at full scale is thousands-of-packet block
        // moves; at this reduced scale the arming skew often exceeds the
        // whole trial, so only assert that real movement happened (the
        // full-scale structure is checked by `repro table1`).
        assert!(r.moved > 10, "moved {}", r.moved);
        assert!(
            r.edit_stats.abs_mean >= 1.0,
            "moves expected, abs mean {}",
            r.edit_stats.abs_mean
        );
    }
    // Both replayers contribute packets, distinguishable by tag.
    let ids: std::collections::HashSet<u16> = out.trials[0]
        .observations()
        .iter()
        .filter_map(|o| o.id.tag_fields().map(|(r, _, _)| r))
        .collect();
    assert_eq!(ids.len(), 2);
    // Whole bursts move; inside each replayer's stream nothing does.
    assert_captures_are_the_stamped_sequence(&out);
}

#[test]
fn experiments_are_bit_deterministic() {
    let a = quick(EnvKind::FabricShared40, 0.002, 42, 2);
    let b = quick(EnvKind::FabricShared40, 0.002, 42, 2);
    assert_eq!(a.trials, b.trials);
    assert_eq!(a.events, b.events);
    let c = quick(EnvKind::FabricShared40, 0.002, 43, 2);
    assert_ne!(a.trials, c.trials);
}

#[test]
fn every_replay_of_a_recording_is_the_same_packet_sequence() {
    // The simulator is a consistent network in the paper's sense: the
    // packet *sets and orders* match run to run on clean environments;
    // only timing varies.
    let out = quick(EnvKind::LocalSingle, 0.005, 7, 4);
    let ids: Vec<Vec<_>> = out
        .trials
        .iter()
        .map(|t| t.observations().iter().map(|o| o.id).collect())
        .collect();
    for w in ids.windows(2) {
        assert_eq!(w[0], w[1]);
    }
    assert_eq!(out.trials[0].len() as u64, out.recorded_packets);
}

#[test]
fn eighty_gbps_doubles_packet_count() {
    let p40 = EnvKind::FabricShared40.profile();
    let p80 = EnvKind::FabricShared80.profile();
    let n40 = p40.full_packet_count();
    let n80 = p80.full_packet_count();
    assert!((n80 as f64 / n40 as f64 - 2.0).abs() < 0.01);
    // Paper: 1,052,268-1,055,648 at 40 Gbps; 6.97 Mpps * 0.3 s at 80.
    assert!((1_040_000..1_070_000).contains(&n40));
}

// ---------------------------------------------------------------------------
// Hot-path ground truth: the simulator has one delivery path and one event
// queue (DESIGN.md §10), so what it delivers is held to what the middlebox
// stamped, not to a second path. (The event-order contract is asserted by
// `TimingWheel::pop_due` itself in every debug run of every test here.)
// ---------------------------------------------------------------------------

#[test]
fn coalescing_preserves_packet_sequence_and_count() {
    for kind in [EnvKind::LocalSingle, EnvKind::FabricDedicated40A] {
        let out = quick(kind, 0.003, 13, 2);
        assert_captures_are_the_stamped_sequence(&out);
        // And coalescing must actually engage, or this checked nothing.
        assert!(out.sim_stats.coalesced_events > 0, "{kind:?}");
        assert!(out.sim_stats.wire_events_elided > 0, "{kind:?}");
    }
}

// ---------------------------------------------------------------------------
// Cross-commit golden: `experiments_are_bit_deterministic` compares two runs
// of the *same* build, so a change that moved every capture the same way
// would pass it. The capture constants were recorded at commit 2c04312 on
// the build image (x86-64, glibc's libm — `Jitter` sampling goes through
// `ln` / `cos` / `round`, so another libm may legitimately differ in the
// last bit of a draw; re-record there rather than loosen the check) and a
// PR that means to keep captures byte-identical leaves them alone. The κ
// constants (run B against A, `f64::to_bits`) were read at 59c7aac, before
// κ became the one Eq. 5 function: every κ identity test compares two
// paths inside one build, so only these hold the formula across commits.
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a over every trial's `(packet id, t_ps)` sequence, in run
/// order, little-endian.
fn capture_fingerprint(out: &ExperimentOutput) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for trial in &out.trials {
        for o in trial.observations() {
            eat(&o.id.as_u128().to_le_bytes());
            eat(&o.t_ps.to_le_bytes());
        }
    }
    h
}

#[test]
fn captures_match_the_committed_fingerprints() {
    let committed = [
        (
            EnvKind::LocalSingle,
            0xbc56_24fb_9e52_a82f_u64,
            0x3fef_96aa_7d15_1250_u64,
        ),
        (
            EnvKind::LocalDual,
            0xabe5_ee11_4e56_a2b4,
            0x3fe2_94cc_c13f_595e,
        ),
        (
            EnvKind::FabricDedicated40A,
            0xee49_5066_aa71_596e,
            0x3fe7_d931_138d_3a44,
        ),
        (
            EnvKind::FabricShared40,
            0x1a15_3ed8_2d83_64ad,
            0x3fed_de2e_962d_2b04,
        ),
        (
            EnvKind::FabricDedicated40B,
            0xb2e0_3f27_12bf_0a4c,
            0x3fe7_d95e_65f5_26c8,
        ),
        (
            EnvKind::FabricDedicated80,
            0xe042_893e_1246_984c,
            0x3fed_a4b8_a7b3_d7cb,
        ),
        (
            EnvKind::FabricShared80,
            0xe5ee_c678_2d4d_c737,
            0x3fed_b9ea_1e03_317c,
        ),
        (
            EnvKind::FabricDedicated80Noisy,
            0x498d_a7ee_fede_8993,
            0x3fed_a526_c231_38a1,
        ),
        (
            EnvKind::FabricShared40Noisy,
            0xfbf2_07eb_74d1_5e61,
            0x3fe9_7159_3d52_6dec,
        ),
    ];
    let moved: Vec<String> = committed
        .iter()
        .filter_map(|&(kind, want, want_kappa)| {
            let out = quick(kind, 0.002, 22, 2);
            let got = capture_fingerprint(&out);
            let kappa = out.report.runs[0].metrics.kappa.to_bits();
            ((got, kappa) != (want, want_kappa)).then(|| {
                format!(
                    "{kind:?}: {got:#018x} κ {kappa:#018x}, committed {want:#018x} κ {want_kappa:#018x}"
                )
            })
        })
        .collect();
    assert!(
        moved.is_empty(),
        "captures or κ moved:\n{}",
        moved.join("\n")
    );
}
