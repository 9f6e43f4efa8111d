//! The structural version of §7.1: instead of the calibrated statistical
//! co-tenant model, run an actual iperf-like noise application on a VF of
//! the *same physical NIC* as the replayer, and watch consistency degrade
//! through pure wire contention.

use choir::capture::{Recorder, RecorderConfig};
use choir::core::replay::middlebox::{ChoirMiddlebox, MiddleboxConfig};
use choir::dpdk::ControlMsg;
use choir::metrics::report::analyze;
use choir::netsim::clock::NodeClock;
use choir::netsim::nic::{NicRxModel, NicTxModel};
use choir::netsim::rng::Jitter;
use choir::netsim::switchdev::{Switch, SwitchProfile};
use choir::netsim::time::{MS, NS, US};
use choir::netsim::{Sim, SimConfig};
use choir::pktgen::{Generator, GeneratorConfig, Pattern};
use choir::packet::FrameSpec;

/// Build the pipeline; when `noisy`, an on-off 50 Gbps co-tenant shares
/// the replayer's physical NIC.
fn run_pipeline(noisy: bool, packets: u64) -> choir::metrics::ConsistencyMetrics {
    let link = 100_000_000_000u64;
    let mut sim = Sim::new(SimConfig {
        master_seed: 0x0005_015E,
        trial: 0,
        pool_slots: packets as usize * 4 + 65_536,
    });
    let clock = || NodeClock::ideal(2_500_000_000);
    let wake = Jitter::Exp { mean: 100.0 * NS as f64 };

    let gen = sim.add_node(
        "gen",
        Generator::new(GeneratorConfig::cbr(40_000_000_000, packets)),
        clock(),
        wake.clone(),
    );
    sim.add_port(gen, NicTxModel::ideal(link), NicRxModel::ideal());

    let mb = sim.add_node(
        "mb",
        ChoirMiddlebox::new(MiddleboxConfig {
            in_band_control: false,
            ..MiddleboxConfig::default()
        }),
        clock(),
        wake.clone(),
    );
    sim.add_port(
        mb,
        NicTxModel::ideal(link),
        NicRxModel {
            deliver_latency: Jitter::Const(4 * US as i64),
            ..NicRxModel::ideal()
        },
    );
    // The replayer's tx NIC is a VF on a shared physical NIC.
    let mb_tx = sim.add_port(mb, NicTxModel::ideal(link), NicRxModel::ideal());
    let phys = sim.add_phys_nic();
    sim.join_phys_nic(mb, mb_tx, phys);

    let rec = sim.add_node("rec", Recorder::new(RecorderConfig {
        tagged_only: true,
        ..RecorderConfig::default()
    }), clock(), Jitter::None);
    sim.add_port(rec, NicTxModel::ideal(link), NicRxModel::ideal());

    // A co-tenant streaming bursty traffic out of another VF of the same
    // physical NIC, toward its own sink. Sized to stay active through
    // the recording AND both replays.
    let noise_count = if noisy { 60_000 } else { 0 };
    let noise = sim.add_node(
        "noise",
        Generator::new(
            GeneratorConfig::cbr(50_000_000_000, noise_count).with_pattern(Pattern::OnOff {
                spec: FrameSpec::new(1500, 50_000_000_000),
                burst: 32,
                line_rate_bps: link,
            }),
        ),
        clock(),
        Jitter::None,
    );
    let noise_tx = sim.add_port(noise, NicTxModel::ideal(link), NicRxModel::ideal());
    sim.join_phys_nic(noise, noise_tx, phys);
    let noise_sink = sim.add_node("noise-sink", Recorder::new(RecorderConfig::default()), clock(), Jitter::None);
    sim.add_port(noise_sink, NicTxModel::ideal(link), NicRxModel::ideal());

    let sw = sim.add_switch(Switch::new(6, SwitchProfile::cisco5700(link)), "sw");
    sim.connect_node_switch(gen, 0, sw, 0, 5 * NS);
    sim.connect_node_switch(mb, 0, sw, 1, 5 * NS);
    sim.switch_map(sw, 0, 1);
    sim.connect_node_switch(mb, 1, sw, 2, 5 * NS);
    sim.connect_node_switch(rec, 0, sw, 3, 5 * NS);
    sim.switch_map(sw, 2, 3);
    sim.connect_node_switch(noise, 0, sw, 4, 5 * NS);
    sim.connect_node_switch(noise_sink, 0, sw, 5, 5 * NS);
    sim.switch_map(sw, 4, 5);

    // Record, then two replays with the co-tenant live throughout.
    sim.send_control(mb, ControlMsg::StartRecord, MS);
    sim.wake_app(gen, 2 * MS);
    if noisy {
        sim.wake_app(noise, MS);
    }
    let duration = packets * 285_000;
    let stop = 2 * MS + duration + 2 * MS;
    sim.send_control(mb, ControlMsg::StopRecord, stop);
    sim.run_until(stop + MS);
    sim.with_app::<Recorder, _>(rec, |r| {
        r.take_trials();
    });

    for _ in 0..2 {
        let start = (sim.now_ps() + 3 * MS) / 1_000;
        sim.send_control(mb, ControlMsg::ScheduleReplay { start_wall_ns: start }, sim.now_ps());
        sim.run_until(sim.now_ps() + 3 * MS + duration + 3 * MS);
        sim.with_app::<Recorder, _>(rec, |r| r.cut_trial());
    }

    let trials: Vec<_> = sim
        .with_app::<Recorder, _>(rec, |r| r.take_trials())
        .into_iter()
        .map(|t| t.rezeroed())
        .collect();
    assert_eq!(trials.len(), 2, "two replay captures expected");
    assert_eq!(trials[0].len() as u64, packets, "no loss through contention");
    analyze("B", &trials[0], &trials[1]).metrics
}

#[test]
fn a_real_co_tenant_on_the_shared_nic_degrades_consistency() {
    let clean = run_pipeline(false, 3_000);
    let noisy = run_pipeline(true, 3_000);
    // The §7.1 effect, structurally: wire contention from a live noise
    // app inflates IAT variation and lowers kappa.
    assert!(
        noisy.i > 2.0 * clean.i.max(1e-4),
        "noisy I {} vs clean I {}",
        noisy.i,
        clean.i
    );
    assert!(
        noisy.kappa < clean.kappa,
        "noisy kappa {} vs clean {}",
        noisy.kappa,
        clean.kappa
    );
}
