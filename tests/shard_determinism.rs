//! Property-based tests of the sharded discrete-event engine, at the
//! testbed level: the multi-domain ring fleet (DESIGN.md §14) must be
//! deterministic in `(seed, shards)` and — the stronger contract —
//! *shard-layout invariant*: any shard count produces merged fleet
//! trials byte-identical to the serial engine's, across randomized
//! seeds, fleet sizes, and engine tunings, with the downstream κ
//! analysis matching bit for bit.

use choir::netsim::QueueKind;
use choir::testbed::{
    run_multidomain, MultiDomainConfig, MultiDomainOutput, MultiDomainProfile, SimTuning,
};
use proptest::prelude::*;

fn fleet(sites: usize, scale: f64, seed: u64, tuning: SimTuning) -> MultiDomainOutput {
    let mut profile = MultiDomainProfile::ring(sites);
    profile.runs = 2;
    run_multidomain(
        &MultiDomainConfig {
            profile,
            scale,
            seed,
        },
        tuning,
    )
}

/// A randomized engine tuning (every combination the serial engine
/// itself supports; `shards` is supplied by each property).
fn arb_tuning() -> impl Strategy<Value = SimTuning> {
    (any::<bool>(), any::<bool>()).prop_map(|(coalesce, heap)| SimTuning {
        coalesce,
        queue: if heap {
            QueueKind::Heap
        } else {
            QueueKind::Wheel
        },
        shards: 0,
    })
}

proptest! {
    // Few cases: each one runs multiple full fleet experiments.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Fixed `(seed, shards)` ⇒ bit-identical fleet trials, engine
    /// counters, and synchronization schedule on every repeat.
    #[test]
    fn sharded_fleet_repeats_bit_identically(
        seed in any::<u64>(),
        sites in 2usize..=3,
        shards in 1usize..=3,
        tuning in arb_tuning(),
    ) {
        let tuning = SimTuning { shards, ..tuning };
        let a = fleet(sites, 0.0002, seed, tuning);
        let b = fleet(sites, 0.0002, seed, tuning);
        prop_assert_eq!(a.trials, b.trials);
        prop_assert_eq!(a.sim_stats, b.sim_stats);
        prop_assert_eq!(a.sync, b.sync);
    }

    /// Any shard count — including a single worker and more workers
    /// than sites — produces trials byte-identical to the serial
    /// engine, under every engine tuning.
    #[test]
    fn sharded_fleet_matches_serial_byte_for_byte(
        seed in any::<u64>(),
        sites in 2usize..=3,
        shards in 1usize..=4,
        tuning in arb_tuning(),
    ) {
        let serial = fleet(sites, 0.0002, seed, tuning);
        let sharded = fleet(sites, 0.0002, seed, SimTuning { shards, ..tuning });
        prop_assert_eq!(&sharded.trials, &serial.trials);
        // Summing counters are exact across the partition.
        prop_assert_eq!(
            sharded.sim_stats.events_processed,
            serial.sim_stats.events_processed
        );
        prop_assert_eq!(
            sharded.sim_stats.remote_packets,
            serial.sim_stats.remote_packets
        );
    }

    /// κ is a pure function of the trials, so the whole downstream
    /// analysis — per-run comparisons against run A — matches the
    /// serial engine bit for bit.
    #[test]
    fn sharded_fleet_kappa_is_bit_equal_to_serial(
        seed in any::<u64>(),
        shards in 2usize..=3,
    ) {
        let serial = fleet(3, 0.0003, seed, SimTuning::default());
        let sharded = fleet(3, 0.0003, seed, SimTuning { shards, ..SimTuning::default() });
        prop_assert_eq!(serial.report.runs.len(), sharded.report.runs.len());
        for (s, p) in serial.report.runs.iter().zip(&sharded.report.runs) {
            prop_assert_eq!(s.metrics.kappa.to_bits(), p.metrics.kappa.to_bits());
            prop_assert_eq!(s.metrics.u.to_bits(), p.metrics.u.to_bits());
            prop_assert_eq!(s.metrics.o.to_bits(), p.metrics.o.to_bits());
            prop_assert_eq!(s.metrics.l.to_bits(), p.metrics.l.to_bits());
            prop_assert_eq!(s.metrics.i.to_bits(), p.metrics.i.to_bits());
        }
    }
}
