//! Figure 1, end to end: "An incoming packet stream is divided between
//! three separate replay nodes, and the outputs are later received at a
//! single point in some order. On each replay, this ordering should
//! remain constant, but with some variance in the time deltas."
//!
//! This example builds exactly that topology in the simulator — a
//! generator fanning one stream across THREE Choir middleboxes which
//! merge into one recorder — runs three replays, and shows that the
//! packet sets are identical while ordering/timing vary.
//!
//! ```text
//! cargo run --release --example parallel_replay
//! ```

use choir::capture::{Recorder, RecorderConfig};
use choir::core::replay::middlebox::{ChoirMiddlebox, MiddleboxConfig};
use choir::dpdk::ControlMsg;
use choir::metrics::report::analyze;
use choir::netsim::clock::{NodeClock, PtpModel};
use choir::netsim::nic::{NicRxModel, NicTxModel};
use choir::netsim::rng::{DetRng, Jitter};
use choir::netsim::switchdev::{Switch, SwitchProfile};
use choir::netsim::time::{MS, NS, US};
use choir::netsim::{Sim, SimConfig};
use choir::pktgen::{Generator, GeneratorConfig};

fn main() {
    println!("Figure 1 demo: one stream split across three replay nodes\n");
    let replayers = 3usize;
    let packets = 30_000u64;
    let link = 100_000_000_000u64;

    let mut sim = Sim::new(SimConfig {
        master_seed: 0xF161,
        trial: 0,
        pool_slots: packets as usize * 2 + 65_536,
    });
    let mut rng = DetRng::derive(0xF161, &["example"]);
    let clock = |rng: &mut DetRng| NodeClock {
        tsc_hz: 2_500_000_000,
        tsc_offset: rng.range_u64(0, 1 << 40),
        freq_error_ppb: 0,
        ptp: PtpModel::sampled(rng, 30.0, 5.0),
    };

    // Generator with one port per replayer (the stream divider of Fig. 1).
    let mut gen_cfg = GeneratorConfig::cbr(40_000_000_000, packets);
    gen_cfg.ports = (0..replayers).collect();
    let gen = sim.add_node(
        "generator",
        Generator::new(gen_cfg),
        clock(&mut rng),
        Jitter::None,
    );
    for _ in 0..replayers {
        sim.add_port(gen, NicTxModel::ideal(link), NicRxModel::ideal());
    }

    // Three transparent middleboxes.
    let wake = Jitter::Exp {
        mean: 100.0 * NS as f64,
    };
    let mut mbs = Vec::new();
    for r in 0..replayers {
        let mb = sim.add_node(
            &format!("replayer{r}"),
            ChoirMiddlebox::new(MiddleboxConfig {
                replayer_id: r as u16,
                in_band_control: false,
                ..MiddleboxConfig::default()
            }),
            clock(&mut rng),
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
        sim.add_port(mb, NicTxModel::ideal(link), NicRxModel::ideal());
        mbs.push(mb);
    }

    // The single receive point.
    let rec = sim.add_node(
        "recorder",
        Recorder::new(RecorderConfig::default()),
        clock(&mut rng),
        Jitter::None,
    );
    sim.add_port(rec, NicTxModel::ideal(link), NicRxModel::ideal());

    // One switch connects everything (as in both of the paper's testbeds).
    let sw = sim.add_switch(
        Switch::new(4 * replayers, SwitchProfile::tofino2(link)),
        "switch",
    );
    for (r, &mb) in mbs.iter().enumerate() {
        let (i1, e1) = (4 * r, 4 * r + 1);
        sim.connect_node_switch(gen, r, sw, i1, 5 * NS);
        sim.connect_node_switch(mb, 0, sw, e1, 5 * NS);
        sim.switch_map(sw, i1, e1);
        let (i2, e2) = (4 * r + 2, 4 * r + 3);
        sim.connect_node_switch(mb, 1, sw, i2, 5 * NS);
        sim.connect_node_switch(rec, 0, sw, e2, 5 * NS);
        sim.switch_map(sw, i2, e2);
    }

    // Record the stream...
    for &mb in &mbs {
        sim.send_control(mb, ControlMsg::StartRecord, MS);
    }
    sim.wake_app(gen, 2 * MS);
    let record_end = 2 * MS + packets * 285_000 / 1_000 * 1_000 + 2 * MS;
    for &mb in &mbs {
        sim.send_control(mb, ControlMsg::StopRecord, record_end);
    }
    sim.run_until(record_end + MS);
    sim.with_app::<Recorder, _>(rec, |r| {
        r.take_trials();
    });
    let recorded: usize = mbs
        .iter()
        .map(|&mb| sim.with_app::<ChoirMiddlebox, _>(mb, |m| m.recording().packets()))
        .sum();
    println!("three middleboxes hold {recorded} packets between them");

    // ...then replay it three times.
    for _run in 0..3 {
        // Between runs, PTP wanders a little on every replay node.
        for &mb in &mbs {
            let p = PtpModel::sampled(&mut rng, 40.0, 5.0);
            sim.set_ptp(mb, p);
        }
        let start_wall = (sim.now_ps() + 3 * MS) / 1_000;
        for &mb in &mbs {
            sim.send_control(
                mb,
                ControlMsg::ScheduleReplay {
                    start_wall_ns: start_wall,
                },
                sim.now_ps(),
            );
        }
        sim.run_until(sim.now_ps() + 3 * MS + packets * 285_000 + 3 * MS);
        sim.with_app::<Recorder, _>(rec, |r| r.cut_trial());
    }

    let trials: Vec<_> = sim
        .with_app::<Recorder, _>(rec, |r| r.take_trials())
        .into_iter()
        .map(|t| t.rezeroed())
        .collect();
    println!(
        "captured {} replays of {} packets each\n",
        trials.len(),
        trials[0].len()
    );

    for (i, label) in ["B", "C"].iter().enumerate() {
        let cmp = analyze(*label, &trials[0], &trials[i + 1]);
        println!(
            "run {label} vs run A:  U={:.2e}  O={:.2e}  L={:.2e}  I={:.4}  kappa={:.4}  (moved {})",
            cmp.metrics.u,
            cmp.metrics.o,
            cmp.metrics.l,
            cmp.metrics.i,
            cmp.metrics.kappa,
            cmp.moved,
        );
    }
    println!("\nFig. 1's claim checks out: every replay delivers the same packets");
    println!("(U = 0) in essentially the same order (O ~ 1e-5 — the LCS covers");
    println!("nearly everything), while the time deltas vary (I) where the three");
    println!("replayers' streams merge — \"this ordering should remain constant,");
    println!("but with some variance in the time deltas\".");
}
