//! A tour of the κ metric on hand-built scenarios: what each component
//! (U, O, L, I) sees, what the paper's worked examples produce, and where
//! the reordering-vs-spacing profile puts a burst swap.
//!
//! ```text
//! cargo run --example metric_playground
//! ```

use choir::metrics::reorder::reorder_profile;
use choir::metrics::{compare, PairAnalyzer, Trial, TrialIndex};

fn cbr(n: u64, gap: u64) -> Trial {
    let mut t = Trial::new();
    for i in 0..n {
        t.push_tagged(0, 0, i, i * gap);
    }
    t
}

fn main() {
    println!("== kappa metric playground ==\n");
    let gap = 284_800u64; // 40 Gbps of 1400-byte frames, in ps
    let a = cbr(10_000, gap);

    // 1. A perfect replay.
    let m = compare(&a, &a.clone());
    println!("identical replay:              kappa = {:.4}", m.kappa);

    // 2. The paper's Eq. 1 worked example: one drop out of ten.
    let ten = cbr(10, gap);
    let mut nine = Trial::new();
    for i in 0..9 {
        nine.push_tagged(0, 0, i, i * gap);
    }
    let m = compare(&ten, &nine);
    println!(
        "paper's 1-of-10 drop example:  U = {:.6} (= 1/19 = {:.6})",
        m.u,
        1.0 / 19.0
    );

    // 3. Jitter only: every packet 0-20 ns off.
    let mut jittery = Trial::new();
    for i in 0..10_000u64 {
        jittery.push_tagged(0, 0, i, i * gap + (i % 21) * 1_000);
    }
    let m = compare(&a, &jittery);
    println!(
        "+-20 ns jitter:                I = {:.4}, L = {:.2e}, kappa = {:.4}",
        m.i, m.l, m.kappa
    );

    // 4. A burst swap (the dual-replayer signature).
    let mut swapped = Trial::new();
    for i in 0..10_000u64 {
        let seq = match i {
            5_000..=5_063 => i + 64, // burst displaced...
            5_064..=5_127 => i - 64, // ...with its neighbour
            _ => i,
        };
        swapped.push_tagged(0, 0, seq, i * gap);
    }
    let m = compare(&a, &swapped);
    println!(
        "two 64-packet bursts swapped:  O = {:.2e}, kappa = {:.4}",
        m.o, m.kappa
    );

    // 5. Where does the reordering live? The Bellardo-Savage-style
    //    profile shows inversions concentrated at burst-size spacings.
    let (ia, iswapped) = (
        TrialIndex::build(&a).expect("10k packets fit the index"),
        TrialIndex::build(&swapped).expect("10k packets fit the index"),
    );
    let prof = reorder_profile(PairAnalyzer::from_indexes(&ia, &iswapped).matching(), 200);
    let peak = (1..=200)
        .max_by(|&x, &y| {
            prof.at(x)
                .unwrap()
                .partial_cmp(&prof.at(y).unwrap())
                .unwrap()
        })
        .unwrap();
    println!(
        "reordering profile:            peak inversion probability at spacing {} (burst size 64)",
        peak
    );

    // 6. A rare drop: Eq. 5 weighs U linearly, so one lost packet in
    //    10k barely moves kappa (the imbalance SS8.2 notes).
    let mut rare_drop = Trial::new();
    for i in (0..10_000u64).filter(|&i| i != 7_777) {
        rare_drop.push_tagged(0, 0, i, i * gap);
    }
    let m = compare(&a, &rare_drop);
    println!(
        "one drop in 10k packets:       U = {:.2e}, kappa = {:.5}",
        m.u, m.kappa
    );
}
