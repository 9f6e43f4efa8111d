//! A FABlib-style workflow end to end: reserve a slice on a site, record
//! a stream with a Choir middlebox and replay it — all on the simulated
//! testbed (paper §2.1 + Appendix A).
//!
//! ```text
//! cargo run --release --example fabric_slice
//! ```

use choir::capture::{Recorder, RecorderConfig};
use choir::core::replay::middlebox::{ChoirMiddlebox, MiddleboxConfig};
use choir::dpdk::ControlMsg;
use choir::fabric::{NicKind, NodeSpec, Site, Slice};
use choir::metrics::report::analyze;
use choir::netsim::time::MS;
use choir::netsim::{Sim, SimConfig};
use choir::pktgen::{Generator, GeneratorConfig};

fn main() {
    // 1. Reserve resources, as the paper's Jupyter artifact does:
    //    "Create a FABRIC topology with three VMs, using two dedicated
    //    smart NICs" (Appendix B).
    let mut site = Site::large("STAR");
    println!("site {} before: {:?}", site.name, site.usage());

    let mut slice = Slice::new("choir-artifact");
    let gen = slice.add_node(NodeSpec::vm("generator", 4, 16).with_nic(NicKind::SmartConnectX6));
    let rep = slice.add_node(
        NodeSpec::vm("replayer", 4, 16)
            .with_nic(NicKind::SmartConnectX6)
            .with_nic(NicKind::SmartConnectX6),
    );
    let rec = slice.add_node(NodeSpec::vm("recorder", 4, 16).with_nic(NicKind::SharedVf));

    let uplink = slice.add_l2bridge("uplink"); // generator -> replayer
    let downlink = slice.add_l2bridge("downlink"); // replayer -> recorder
    slice.attach(gen, 0, uplink).unwrap();
    slice.attach(rep, 0, uplink).unwrap();
    slice.attach(rep, 1, downlink).unwrap();
    slice.attach(rec, 0, downlink).unwrap();

    let mut prov = slice.submit(&mut site).expect("site has capacity");
    println!(
        "slice 'choir-artifact' provisioned on {}; site now: {:?}",
        prov.site_name(),
        site.usage()
    );

    // 2. Build the applications onto the provisioned nodes.
    let mut sim = Sim::new(SimConfig::default());
    let packets = 20_000u64;
    let n_gen = prov.build_node(
        &mut sim,
        gen,
        Generator::new(GeneratorConfig::cbr(40_000_000_000, packets)),
        7,
    );
    let n_rep = prov.build_node(
        &mut sim,
        rep,
        ChoirMiddlebox::new(MiddleboxConfig {
            in_band_control: false,
            ..MiddleboxConfig::default()
        }),
        7,
    );
    let n_rec = prov.build_node(&mut sim, rec, Recorder::new(RecorderConfig::default()), 7);

    let switches = prov.wire(&mut sim);
    let (up, down) = (switches[0], switches[1]);
    // Forwarding maps, as in the paper's simple port-forwarding program:
    // uplink: generator(port 0) -> replayer rx(port 1).
    sim.switch_map(up, 0, 1);
    // downlink members in attach order: replayer tx(0), recorder(1).
    sim.switch_map(down, 0, 1); // replay traffic -> recorder

    // 3. Record 20k packets, then replay twice and score.
    sim.send_control(n_rep, ControlMsg::StartRecord, MS);
    sim.wake_app(n_gen, 2 * MS);
    // 285 ns per packet at 40 Gbps, in ps.
    let record_end = 2 * MS + packets * 285_000 + 2 * MS;
    sim.send_control(n_rep, ControlMsg::StopRecord, record_end);
    sim.run_until(record_end + MS);
    sim.with_app::<Recorder, _>(n_rec, |r| {
        r.take_trials();
    });
    let held = sim.with_app::<ChoirMiddlebox, _>(n_rep, |m| m.recording().packets());
    println!("middlebox recorded {held} packets");

    let mut trials = Vec::new();
    for _run in 0..2 {
        let start = (sim.now_ps() + 3 * MS) / 1_000;
        sim.send_control(
            n_rep,
            ControlMsg::ScheduleReplay { start_wall_ns: start },
            sim.now_ps(),
        );
        sim.run_until(sim.now_ps() + 3 * MS + packets * 285_000 + 3 * MS);
        sim.with_app::<Recorder, _>(n_rec, |r| r.cut_trial());
    }
    trials.extend(
        sim.with_app::<Recorder, _>(n_rec, |r| r.take_trials())
            .into_iter()
            .map(|t| t.rezeroed()),
    );

    let cmp = analyze("B", &trials[0], &trials[1]);
    println!(
        "replay B vs A on the slice: U={:.1e} O={:.1e} I={:.4} L={:.2e} kappa={:.4}",
        cmp.metrics.u, cmp.metrics.o, cmp.metrics.i, cmp.metrics.l, cmp.metrics.kappa
    );
    println!("({} packets per trial)", trials[0].len());
}
