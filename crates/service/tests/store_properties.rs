//! Property test: trial-store eviction and rebuild are invisible.
//!
//! A store squeezed under an adversarially small budget (constant
//! evictions, reloads on every other touch) must serve byte-identical
//! observations — and therefore a bit-identical all-pairs κ matrix —
//! compared to plain in-memory vectors over the same append sequence.

use std::sync::atomic::{AtomicU64, Ordering};

use choir_core::metrics::{all_pairs_sharded, Observation, Trial};
use choir_packet::tag::ChoirTag;
use choir_packet::PacketId;
use choir_service::{TrialStore, OBS_BYTES};
use proptest::prelude::*;

const STREAMS: usize = 4;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir() -> std::path::PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let p = std::env::temp_dir().join(format!(
        "choir-store-prop-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// One append step: a batch of observations for one of the streams.
/// Sequence numbers overlap across streams (shared identity space) so
/// the matrix has real matches; timestamps are per-batch monotone
/// offsets, which is all the metric kernels require of test input.
fn arb_steps() -> impl Strategy<Value = Vec<(usize, Vec<Observation>)>> {
    proptest::collection::vec(
        (
            0..STREAMS,
            proptest::collection::vec((0u64..48, 0u64..1_000_000), 1..40),
        ),
        1..24,
    )
    .prop_map(|steps| {
        steps
            .into_iter()
            .map(|(s, raw)| {
                let obs = raw
                    .into_iter()
                    .enumerate()
                    .map(|(k, (seq, dt))| Observation {
                        id: PacketId::from_tag(&ChoirTag::new(0, 0, seq)),
                        t_ps: (k as u64) * 1_000_000 + dt,
                    })
                    .collect();
                (s, obs)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn eviction_and_rebuild_are_invisible_to_the_matrix(
        steps in arb_steps(),
        budget_obs in 1u64..60,
    ) {
        let dir = fresh_dir();
        // Tiny budget: a handful of observations, so nearly every append
        // evicts something and nearly every read reloads.
        let mut store = TrialStore::open(&dir, budget_obs * OBS_BYTES).unwrap();
        let mut reference: Vec<Vec<Observation>> = vec![Vec::new(); STREAMS];

        for (s, batch) in &steps {
            let key = format!("s{s}");
            store.append(&key, batch).unwrap();
            reference[*s].extend_from_slice(batch);
            // Interleave reads to churn the LRU order.
            let probe = format!("s{}", (*s + 1) % STREAMS);
            if store.len(&probe) > 0 {
                prop_assert_eq!(
                    store.get(&probe).unwrap().len() as u64,
                    store.len(&probe)
                );
            }
        }

        // Byte-identical observations for every stream.
        let mut keys: Vec<String> = (0..STREAMS)
            .filter(|s| !reference[*s].is_empty())
            .map(|s| format!("s{s}"))
            .collect();
        keys.sort();
        for key in &keys {
            let s: usize = key[1..].parse().unwrap();
            prop_assert_eq!(store.get(key).unwrap(), &reference[s][..]);
        }

        // Bit-identical all-pairs matrix (when there is one to compute).
        if keys.len() >= 2 {
            let stored: Vec<Trial> = keys.iter().map(|k| store.trial(k).unwrap()).collect();
            let plain: Vec<Trial> = keys
                .iter()
                .map(|k| {
                    let s: usize = k[1..].parse().unwrap();
                    let mut t = Trial::new();
                    for o in &reference[s] {
                        t.push(o.id, o.t_ps);
                    }
                    t
                })
                .collect();
            let m_store = all_pairs_sharded(&stored, 2).unwrap();
            let m_plain = all_pairs_sharded(&plain, 2).unwrap();
            prop_assert_eq!(m_store.pairs(), m_plain.pairs());
            for (a, b) in m_store.cells.iter().zip(m_plain.cells.iter()) {
                prop_assert_eq!(a.metrics.kappa.to_bits(), b.metrics.kappa.to_bits());
                prop_assert_eq!(a.metrics.u.to_bits(), b.metrics.u.to_bits());
                prop_assert_eq!(a.metrics.o.to_bits(), b.metrics.o.to_bits());
                prop_assert_eq!(a.metrics.l.to_bits(), b.metrics.l.to_bits());
                prop_assert_eq!(a.metrics.i.to_bits(), b.metrics.i.to_bits());
            }
            // The budget held throughout (single-resident overage aside,
            // impossible here only when one trial exceeds the budget —
            // permitted by contract, so only assert when all trials fit).
            if stored.iter().all(|t| (t.len() as u64) * OBS_BYTES <= budget_obs * OBS_BYTES) {
                prop_assert!(store.stats().resident_bytes <= budget_obs * OBS_BYTES);
            }
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
}
