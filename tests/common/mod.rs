//! Trials shared by the property tests: [`arb_trial`], the one random
//! trial every metric, streaming, pair-level and matrix-level property
//! draws, and replays of one baseline in the shapes testbeds produce.
//! Every shape is a pure function of its arguments.
//!
//! Most keep the baseline's order among the packets both sides captured
//! — the case the production kernels answer without a probe, a sort or an
//! allocation — and the rest break it in the ways that must switch those
//! answers off: duplicated identities, block swaps, one late packet, a
//! reversal.

#![allow(dead_code)] // each test binary uses its own subset

use choir::metrics::Trial;
use proptest::prelude::*;

/// A random trial: sequence numbers drawn with duplicates and drops from
/// a small space (forcing deep occurrence chains), shuffled arbitrarily,
/// with non-decreasing timestamps; `0..=max_len` packets, so empty trials
/// occur.
pub fn arb_trial(max_len: usize) -> impl Strategy<Value = Trial> {
    (
        proptest::collection::vec(0u64..48, 0..max_len + 1),
        proptest::collection::vec(0u64..5_000, 0..max_len + 1),
    )
        .prop_map(|(seqs, mut gaps)| {
            gaps.resize(seqs.len(), 100);
            let mut t = Trial::new();
            let mut now = 0u64;
            for (s, g) in seqs.iter().zip(gaps) {
                now += g;
                t.push_tagged(0, 0, *s, now);
            }
            t
        })
}

/// Between 2 and `max_trials - 1` [`arb_trial`]s, for matrix-level
/// properties.
pub fn arb_trials(max_trials: usize, max_len: usize) -> impl Strategy<Value = Vec<Trial>> {
    proptest::collection::vec(arb_trial(max_len), 2..max_trials)
}

/// One captured packet: sequence number in the tag, arrival time in ns.
pub type Rec = (u64, u64);

/// SplitMix64.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// How a replay differs from the baseline it replays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Nothing differs.
    Identical,
    /// Timing only: jitter below the packet gap.
    Jitter,
    /// Jitter, and about one packet in `n` lost.
    Drops(u64),
    /// Jitter, and packets the baseline never saw spliced in.
    Extras,
    /// About one packet in eight carries its predecessor's identity.
    Duplicates,
    /// About one packet in eight arrives twice: once a slot early, ahead
    /// of its predecessor, and once in place. On the B side the second
    /// copy (`occ` 1) lands exactly where an order-preserving scan
    /// expects its identity next; on the A side the first copy is the
    /// one a later match must take, not the nearer second.
    Echo,
    /// Half of the adjacent `block`-packet pairs trade places.
    BlockSwap(usize),
    /// One packet arrives late by up to the whole run.
    Late,
    /// The whole run, backwards.
    Reversed,
}

/// Every shape, with its parameter drawn small enough to recur within a
/// hundred-packet run.
pub fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Identical),
        Just(Shape::Jitter),
        (2u64..12).prop_map(Shape::Drops),
        Just(Shape::Extras),
        Just(Shape::Duplicates),
        Just(Shape::Echo),
        (1usize..9).prop_map(Shape::BlockSwap),
        Just(Shape::Late),
        Just(Shape::Reversed),
    ]
}

/// The paper's CBR cadence (280 ns per frame) with generator wobble.
pub fn baseline(n: usize, rng: &mut Rng) -> Vec<Rec> {
    let mut t = 1_000_000;
    (0..n as u64)
        .map(|seq| {
            t += 280 + rng.below(40);
            (seq, t)
        })
        .collect()
}

/// Rearrange the identities of `out` in place; the time slots stay put,
/// so arrival times remain in order whatever moved.
fn permute(out: &mut [Rec], f: impl FnOnce(&mut [u64])) {
    let mut seqs: Vec<u64> = out.iter().map(|r| r.0).collect();
    f(&mut seqs);
    for (r, s) in out.iter_mut().zip(seqs) {
        r.0 = s;
    }
}

/// `base` replayed in `shape`.
pub fn replay(base: &[Rec], shape: Shape, rng: &mut Rng) -> Vec<Rec> {
    let n = base.len();
    let mut out = base.to_vec();
    if shape != Shape::Identical {
        for r in &mut out {
            r.1 += rng.below(100);
        }
    }
    match shape {
        Shape::Identical | Shape::Jitter => {}
        Shape::Drops(one_in) => out.retain(|_| rng.below(one_in) != 0),
        Shape::Extras => {
            for k in 0..n as u64 / 8 + 1 {
                let at = rng.below(out.len() as u64 + 1) as usize;
                let t = out.get(at).or(out.last()).map_or(0, |r| r.1);
                out.insert(at, (1_000_000 + k, t));
            }
        }
        Shape::Duplicates => permute(&mut out, |seqs| {
            for i in 1..n {
                if rng.below(8) == 0 {
                    seqs[i] = seqs[i - 1];
                }
            }
        }),
        Shape::Echo => {
            for i in (0..n.saturating_sub(1)).rev() {
                if rng.below(8) == 0 {
                    out.insert(i, (out[i + 1].0, out[i].1));
                }
            }
        }
        Shape::BlockSwap(block) => permute(&mut out, |seqs| {
            for pair in seqs.chunks_exact_mut(2 * block) {
                if rng.below(2) == 0 {
                    pair.rotate_left(block);
                }
            }
        }),
        Shape::Late if n >= 2 => {
            let from = rng.below(n as u64 - 1) as usize;
            let to = from + 1 + rng.below((n - 1 - from) as u64) as usize;
            permute(&mut out, |seqs| seqs[from..=to].rotate_left(1));
        }
        Shape::Late => {}
        Shape::Reversed => permute(&mut out, |seqs| seqs.reverse()),
    }
    out
}

/// The capture as a trial (ns to ps, identity from the tag).
pub fn to_trial(recs: &[Rec]) -> Trial {
    let mut t = Trial::new();
    for &(seq, t_ns) in recs {
        t.push_tagged(0, 0, seq, t_ns * 1_000);
    }
    t
}

/// `matrix_paper`'s six trials at `n` packets: the baseline, three
/// jitter-only replays, one that lost 1 % of it, one with 64-packet
/// block swaps.
pub fn matrix_shapes(n: usize, seed: u64) -> Vec<Trial> {
    let base = baseline(n, &mut Rng(seed));
    let shapes = [
        Shape::Identical,
        Shape::Jitter,
        Shape::Jitter,
        Shape::Jitter,
        Shape::Drops(100),
        Shape::BlockSwap(64),
    ];
    shapes
        .iter()
        .zip(1..)
        .map(|(&shape, k)| to_trial(&replay(&base, shape, &mut Rng(seed ^ (k << 32)))))
        .collect()
}
