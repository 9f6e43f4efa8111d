//! Quickstart: record traffic with Choir, replay it twice on the
//! *real-time* backend (real clock, no simulator), and score the two
//! replays with the κ consistency metric.
//!
//! The replay loop here is the paper's §4 algorithm verbatim: spin on a
//! TSC read, transmit each recorded burst when the counter passes
//! `recorded_tsc + delta`, and capture arrivals on the far side.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use choir::dpdk::loopback::{LoopbackPort, RealClock, RealtimePlane};
use choir::dpdk::{Burst, Dataplane, Mempool};
use choir::metrics::{report::analyze, Trial};
use choir::packet::{ChoirTag, FrameBuilder};
use choir::replay::recording::Recording;

fn main() {
    println!("Choir quickstart: record -> replay x2 -> kappa\n");

    // 1. Build a "recording": 20k packets of 1400 bytes at 10 Gbps
    //    spacing, in 32-packet bursts, with Choir trailer tags — exactly
    //    what the middlebox would have captured in-situ.
    let pool = Mempool::one_gigabyte("quickstart");
    let builder = FrameBuilder::new(1400, 1, 2);
    let gap_ns = 1_139u64; // ~10 Gbps of 1424 wire bytes
    let mut recording = Recording::new();
    let bursts = 625usize;
    let per_burst = 32usize;
    for b in 0..bursts {
        let pkts: Vec<_> = (0..per_burst)
            .map(|i| {
                let seq = (b * per_burst + i) as u64;
                pool.alloc(builder.build_tagged_snap(ChoirTag::new(0, 0, seq)))
                    .expect("pool sized for the recording")
            })
            .collect();
        // Burst timestamps in TSC cycles (1 GHz on the loopback backend).
        recording.push_burst((b * per_burst) as u64 * gap_ns, pkts.iter());
    }
    println!(
        "recorded {} packets in {} bursts",
        recording.packets(),
        recording.len(),
    );

    // 2. Replay the recording twice through a self-loop port, draining
    //    the "wire" inline and capturing each arrival as a Trial
    //    observation. Single-threaded on purpose: a NIC is hardware, not
    //    another CPU thread.
    let mut trials: Vec<Trial> = Vec::new();
    for run in 0..2u8 {
        let mut plane = RealtimePlane::new(pool.clone(), RealClock::new());
        let pid = plane.add_port(LoopbackPort::self_loop(1 << 12));
        let mut trial = Trial::with_capacity(recording.packets());
        let mut txb = Burst::new();
        let mut rxb = Burst::new();

        let first = recording.first_tsc().expect("recording non-empty");
        let start = plane.tsc() + 100_000; // begin 100 us from now
        let mut late_worst = 0u64;
        for rb in recording.bursts() {
            let release = start + (rb.tsc - first);
            plane.spin_until_tsc(release); // the paper's TSC wait loop
            late_worst = late_worst.max(plane.tsc().saturating_sub(release));
            rb.refill(&mut txb);
            while plane.tx_burst(pid, &mut txb) > 0 || !txb.is_empty() {
                if txb.is_empty() {
                    break;
                }
                // Wire full: drain it inline (the self-loop "receiver").
                drain(&mut plane, pid, &mut rxb, &mut trial);
            }
            drain(&mut plane, pid, &mut rxb, &mut trial);
        }
        while trial.len() < recording.packets() {
            drain(&mut plane, pid, &mut rxb, &mut trial);
        }
        println!(
            "replay {}: captured {} packets, worst burst lateness {} ns",
            (b'A' + run) as char,
            trial.len(),
            late_worst,
        );
        trials.push(trial.rezeroed());
    }

    // 3. Score run B against run A, exactly as the paper does.
    let cmp = analyze("B", &trials[0], &trials[1]);
    println!("\nconsistency of replay B vs replay A:");
    println!(
        "  U = {:.3e}  (missing {} / extra {})",
        cmp.metrics.u, cmp.missing, cmp.extra
    );
    println!("  O = {:.3e}  ({} packets moved)", cmp.metrics.o, cmp.moved);
    println!("  L = {:.3e}", cmp.metrics.l);
    println!(
        "  I = {:.3e}  ({:.1}% of IAT deltas within +-10 ns)",
        cmp.metrics.i,
        cmp.iat_within_10ns * 100.0
    );
    println!(
        "  kappa = {:.4}  (1.0 = perfectly consistent)",
        cmp.metrics.kappa
    );
    println!("\nIAT delta histogram (ns):");
    print!("{}", cmp.iat_hist.render_ascii(40));
    println!("\n(Numbers vary with OS scheduling noise on this host — that");
    println!("variability is precisely what the metric is for.)");
}

/// Pull everything currently on the self-loop wire into the trial.
fn drain(plane: &mut RealtimePlane, pid: usize, rxb: &mut Burst, trial: &mut Trial) {
    loop {
        let n = plane.rx_burst(pid, rxb);
        for m in rxb.drain() {
            trial.push(m.frame.packet_id(), m.rx_ts_ps.expect("stamped on rx"));
        }
        if n == 0 {
            break;
        }
    }
}
