//! Property tests of the fault-injecting dataplane decorator.
//!
//! Two contracts matter for chaos experiments to be trustworthy:
//!
//! 1. **Transparency at zero rates** — a `FaultyDataplane` whose every
//!    rate is zero must be observation-identical to the bare backend for
//!    any call sequence, so wrapping a production dataplane "just in
//!    case" costs nothing semantically.
//! 2. **Bit-determinism in the seed** — the injected scenario is a pure
//!    function of `(seed, call sequence)`, so a failing chaos run can be
//!    replayed exactly from its seed.
//!
//! Both are checked against the deterministic `ScriptPlane` (a clock
//! that advances only on TSC reads, a scripted rx queue, fixed tx
//! acceptance) — two `RealClock` planes would diverge on wall time and
//! void the comparison.

use choir_dpdk::{Burst, Dataplane, FaultConfig, FaultyDataplane, Mempool, ScriptPlane};
use choir_packet::{ChoirTag, FrameBuilder};
use proptest::prelude::*;

/// One port, a clock stepping 3 cycles per TSC read, `rx_packets` tagged
/// packets queued (more than one `MAX_BURST` takes several rx calls), and
/// at most `tx_accept` packets accepted per transmit.
fn script_plane(rx_packets: usize, tx_accept: usize) -> ScriptPlane {
    let mut dp = ScriptPlane::new(1, Mempool::new("script", 4096));
    dp.tsc_step = 3;
    dp.accept = vec![tx_accept];
    let b = FrameBuilder::new(128, 1, 2);
    for i in 0..rx_packets {
        let m = dp
            .mempool()
            .alloc(b.build_tagged_snap(ChoirTag::new(0, 0, i as u64)));
        dp.arrive(0, m.unwrap());
    }
    dp
}

#[derive(Debug, Clone)]
enum Op {
    Rx,
    Tx(usize),
    Tsc,
    Wall,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            Just(Op::Rx),
            (0usize..4).prop_map(Op::Tx),
            Just(Op::Tsc),
            Just(Op::Wall),
        ],
        0..60,
    )
}

/// Drive `dp` through `ops`, recording every observable outcome.
fn apply<D: Dataplane>(dp: &mut D, ops: &[Op]) -> Vec<String> {
    let b = FrameBuilder::new(96, 3, 4);
    let mut next_seq = 1_000u64;
    let mut trace = Vec::new();
    let mut rx = Burst::new();
    for op in ops {
        match op {
            Op::Rx => {
                let n = dp.rx_burst(0, &mut rx);
                let seqs: Vec<u64> = rx
                    .iter()
                    .map(|m| m.frame.tag().map_or(u64::MAX, |t| t.seq))
                    .collect();
                trace.push(format!("rx {n} {seqs:?}"));
            }
            Op::Tx(k) => {
                let mut burst = Burst::new();
                for _ in 0..*k {
                    let f = b.build_tagged_snap(ChoirTag::new(1, 0, next_seq));
                    next_seq += 1;
                    match dp.mempool().alloc(f) {
                        Ok(m) => {
                            let _ = burst.push(m);
                        }
                        Err(_) => trace.push("alloc-fail".into()),
                    }
                }
                let accepted = dp.tx_burst(0, &mut burst);
                trace.push(format!("tx {accepted} left {}", burst.len()));
            }
            Op::Tsc => trace.push(format!("tsc {}", dp.tsc())),
            Op::Wall => trace.push(format!("wall {}", dp.wall_ns())),
        }
    }
    trace.push(format!("pool {}", dp.mempool().available()));
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn zero_rates_are_observation_identical_to_bare_backend(
        ops in arb_ops(),
        seed in any::<u64>(),
    ) {
        let mut bare = script_plane(160, 8);
        let mut faulty = FaultyDataplane::new(
            script_plane(160, 8),
            FaultConfig::quiet(seed),
        );
        let a = apply(&mut bare, &ops);
        let b = apply(&mut faulty, &ops);
        prop_assert_eq!(a, b);
        prop_assert_eq!(faulty.fault_stats().total_events(), 0);
    }

    #[test]
    fn same_seed_same_scenario(
        ops in arb_ops(),
        seed in any::<u64>(),
        tx_reject in 0.0f64..0.6,
        tx_stall in 0.0f64..0.3,
        rx_drop in 0.0f64..0.5,
        rx_dup in 0.0f64..0.5,
        tsc_jump in 0.0f64..0.3,
        pool_exhaust in 0.0f64..0.2,
    ) {
        let cfg = FaultConfig {
            tx_reject_rate: tx_reject,
            tx_stall_rate: tx_stall,
            tx_stall_calls: 3,
            rx_drop_rate: rx_drop,
            rx_dup_rate: rx_dup,
            tsc_jump_rate: tsc_jump,
            tsc_jump_cycles: 500,
            pool_exhaust_rate: pool_exhaust,
            pool_exhaust_calls: 5,
            ..FaultConfig::quiet(seed)
        };
        let mut first = FaultyDataplane::new(script_plane(160, 8), cfg.clone());
        let mut second = FaultyDataplane::new(script_plane(160, 8), cfg);
        let a = apply(&mut first, &ops);
        let b = apply(&mut second, &ops);
        prop_assert_eq!(a, b, "same seed must replay the same scenario");
        prop_assert_eq!(first.fault_stats(), second.fault_stats());
    }
}
