//! `e2e aa`: the same binary against itself.
//!
//! Interleaved sets of complete runs (A1 B1 A2 B2 ...), every run on
//! another seed. For every workload and end-to-end metric it prints the
//! set medians, their relative difference and the bound, and each set's
//! quartile spread. A difference beyond the bound fails the command: a
//! benchmark that cannot tell a commit from itself cannot tell it from
//! its parent. A spread beyond half the bound is marked `UNSTABLE`: the
//! host is too noisy just now to compare two commits on.

use std::process::ExitCode;

use crate::report::{BOUNDS, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use crate::trace::bench_child;
use crate::{host, Args, DEFAULT_SECONDS, DEFAULT_SEED};

pub fn run(args: &Args) -> ExitCode {
    let sets = args.number("--sets", 2) as usize;
    let runs = args.number("--runs", 5) as usize;
    let seed = args.number("--seed", DEFAULT_SEED);
    let seconds = args.number("--seconds", DEFAULT_SECONDS);
    if sets < 2 || runs < 2 {
        eprintln!("aa needs at least 2 sets of at least 2 runs");
        return ExitCode::from(2);
    }
    println!("{}", host::facts());
    println!("aa: {sets} interleaved sets x {runs} runs, --seconds {seconds}, seeds from {seed}");

    // values[workload][metric][set] = one value per run
    let mut values = vec![vec![vec![Vec::new(); sets]; END_TO_END.len()]; WORKLOADS.len()];
    let mut failed_ops = 0;
    for i in 0..runs * sets {
        let (run, set) = (i / sets, i % sets);
        let run_seed = seed + i as u64;
        println!(
            "run {} of set {} (seed {run_seed}), load average {}",
            run + 1,
            set + 1,
            host::loadavg()
        );
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let r = match bench_child(workload, run_seed, seconds, false, false) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{workload}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            failed_ops += r.failed;
            for (m, def) in END_TO_END.iter().enumerate() {
                let v = r
                    .get(def.0)
                    .unwrap_or_else(|| panic!("{workload}: no `{}`", def.0));
                values[w][m][set].push(v);
            }
        }
    }

    println!(
        "\n{:<13} {:<14} {:>40} {:>9} {:>6}  {:<24} verdict",
        "workload", "metric", "set medians", "rel diff", "bound", "set spreads (q3-q1)/q2"
    );
    let (mut beyond, mut unstable) = (0, 0);
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, def) in END_TO_END.iter().enumerate() {
            let medians: Vec<f64> = values[w][m].iter().map(|v| median(v)).collect();
            let spreads: Vec<f64> = values[w][m].iter().map(|v| spread(v)).collect();
            let lo = medians.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = medians.iter().copied().fold(0.0, f64::max);
            let diff = (hi - lo) / lo;
            let bound = BOUNDS[m];
            let noisy = spreads.iter().any(|&s| s > bound / 2.0);
            let verdict = match (diff > bound, noisy) {
                (true, _) => "DIFFERS",
                (false, true) => "UNSTABLE",
                (false, false) => "ok",
            };
            beyond += usize::from(diff > bound);
            unstable += usize::from(noisy);
            let fmt = |v: &[f64], scale: f64, prec: usize| {
                v.iter()
                    .map(|x| format!("{:.*}", prec, x * scale))
                    .collect::<Vec<_>>()
                    .join(" / ")
            };
            println!(
                "{workload:<13} {:<14} {:>40} {:>8.2}% {:>5.0}%  {:<24} {verdict}",
                format!("{} ({})", def.0, def.1),
                fmt(&medians, 1.0, 3),
                diff * 100.0,
                bound * 100.0,
                format!("{} %", fmt(&spreads, 100.0, 2)),
            );
        }
    }
    println!(
        "\n{beyond} metric(s) differ between sets by more than their bound, {unstable} marked UNSTABLE, \
         {failed_ops} failed op(s)"
    );
    if beyond == 0 && failed_ops == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
