//! Simulator-level determinism and conservation properties: the paper's
//! definition of a consistent network ("running the same trial multiple
//! times produces identical results") applies to the simulator itself
//! when seeds are fixed.

use choir_dpdk::{App, Burst, Dataplane};
use choir_netsim::clock::{NodeClock, TimestampModel};
use choir_netsim::nic::{BatchDist, NicRxModel, NicTxModel};
use choir_netsim::rng::Jitter;
use choir_netsim::switchdev::{Switch, SwitchProfile};
use choir_netsim::time::NS;
use choir_netsim::{Sim, SimConfig};
use choir_packet::{ChoirTag, FrameBuilder};
use proptest::prelude::*;

/// Sends `count` packets at fixed spacing.
struct Sender {
    builder: FrameBuilder,
    count: u64,
    sent: u64,
    start: Option<u64>,
    gap: u64,
}

impl App for Sender {
    fn on_wake(&mut self, dp: &mut dyn Dataplane) {
        while self.sent < self.count {
            let now = dp.tsc();
            let start = *self.start.get_or_insert(now);
            let due = start + self.sent * self.gap;
            if now < due {
                dp.request_wake_at_tsc(due);
                return;
            }
            let m = dp
                .mempool()
                .alloc(self.builder.build_tagged_snap(ChoirTag::new(1, 0, self.sent)))
                .unwrap();
            let mut b = Burst::new();
            b.push(m).unwrap();
            dp.tx_burst(0, &mut b);
            self.sent += 1;
        }
    }
}

/// Records (seq, rx timestamp).
struct Sink {
    got: Vec<(u64, u64)>,
    buf: Burst,
}

impl App for Sink {
    fn on_wake(&mut self, dp: &mut dyn Dataplane) {
        loop {
            let mut b = std::mem::take(&mut self.buf);
            let n = dp.rx_burst(0, &mut b);
            for m in b.drain() {
                self.got
                    .push((m.frame.tag().unwrap().seq, m.rx_ts_ps.unwrap()));
            }
            self.buf = b;
            if n == 0 {
                break;
            }
        }
    }
}

fn run_topology(seed: u64, trial: u64, jittery: bool, count: u64) -> Vec<(u64, u64)> {
    let mut sim = Sim::new(SimConfig {
        master_seed: seed,
        trial,
        pool_slots: count as usize * 2 + 1024,
    });
    let jitter = if jittery {
        Jitter::Exp { mean: 500.0 }
    } else {
        Jitter::None
    };
    let s = sim.add_node(
        "s",
        Sender {
            builder: FrameBuilder::new(1400, 1, 2),
            count,
            sent: 0,
            start: None,
            gap: 285,
        },
        NodeClock::ideal(1_000_000_000),
        jitter.clone(),
    );
    let k = sim.add_node(
        "k",
        Sink {
            got: Vec::new(),
            buf: Burst::new(),
        },
        NodeClock::ideal(1_000_000_000),
        Jitter::None,
    );
    let tx = NicTxModel {
        doorbell: if jittery {
            Jitter::Normal {
                mean: 300_000.0,
                sigma: 20_000.0,
            }
        } else {
            Jitter::None
        },
        batch: BatchDist::Geometric { p: 0.5, max: 8 },
        ..NicTxModel::ideal(100_000_000_000)
    };
    let rx = NicRxModel {
        timestamp: if jittery {
            TimestampModel::HwClockConverted {
                noise: Jitter::Normal {
                    mean: 0.0,
                    sigma: 8_000.0,
                },
                wander_amplitude_ps: 25 * NS as i64,
                wander_period_ps: 250_000_000,
            }
        } else {
            TimestampModel::exact()
        },
        ..NicRxModel::ideal()
    };
    let sp = sim.add_port(s, tx, NicRxModel::ideal());
    let kp = sim.add_port(k, NicTxModel::ideal(100_000_000_000), rx);
    // The Cisco profile carries inherent pipeline jitter; the noise-free
    // case uses the constant-latency Tofino profile.
    let profile = if jittery {
        SwitchProfile::cisco5700(100_000_000_000)
    } else {
        SwitchProfile::tofino2(100_000_000_000)
    };
    let sw = sim.add_switch(Switch::new(2, profile), "sw");
    sim.connect_node_switch(s, sp, sw, 0, 5 * NS);
    sim.connect_node_switch(k, kp, sw, 1, 5 * NS);
    sim.switch_map(sw, 0, 1);
    sim.wake_app(s, 1_000_000);
    sim.run_to_idle();
    sim.with_app::<Sink, _>(k, |a| a.got.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn same_seed_is_bit_identical(seed in any::<u64>(), count in 10u64..300) {
        let a = run_topology(seed, 0, true, count);
        let b = run_topology(seed, 0, true, count);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn packets_are_conserved_and_ordered(seed in any::<u64>(), count in 10u64..300) {
        let got = run_topology(seed, 0, true, count);
        prop_assert_eq!(got.len() as u64, count, "no loss on a clean path");
        // Sequence numbers arrive in order on a single path.
        for w in got.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
            prop_assert!(w[0].1 <= w[1].1, "timestamps monotone");
        }
    }

    #[test]
    fn different_trials_differ_when_jittery(seed in any::<u64>()) {
        let a = run_topology(seed, 0, true, 200);
        let b = run_topology(seed, 1, true, 200);
        // Same packets, different timing draws.
        let sa: Vec<u64> = a.iter().map(|&(s, _)| s).collect();
        let sb: Vec<u64> = b.iter().map(|&(s, _)| s).collect();
        prop_assert_eq!(sa, sb);
        let ta: Vec<u64> = a.iter().map(|&(_, t)| t).collect();
        let tb: Vec<u64> = b.iter().map(|&(_, t)| t).collect();
        prop_assert_ne!(ta, tb);
    }

    #[test]
    fn noise_free_topology_is_exactly_periodic(count in 3u64..200) {
        exactly_periodic(count);
    }
}

fn exactly_periodic(count: u64) {
    let got = run_topology(7, 0, false, count);
    prop_assert_eq!(got.len() as u64, count);
    let gaps: Vec<u64> = got.windows(2).map(|w| w[1].1 - w[0].1).collect();
    // With every jitter source off, arrival spacing is exactly the
    // send spacing (ns-quantized timestamps of a 285ns cadence).
    for g in gaps {
        prop_assert!((284_000..=286_000).contains(&g), "gap {g}");
    }
}

/// A counterexample proptest once shrank to: the shortest run the
/// property draws, three packets.
#[test]
fn noise_free_topology_is_exactly_periodic_at_three_packets() {
    exactly_periodic(3);
}
