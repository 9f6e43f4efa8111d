//! `e2e`: the end-to-end benchmark of the Choir chain.
//!
//! ```text
//! e2e run   [--seed N] [--workload W] [--seconds S] [--quick]
//! e2e trace [--seed N] [--quick]
//! e2e aa    [--sets 2] [--runs 5] [--seed N] [--seconds S]
//! e2e bench --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! `run` measures the end-to-end metrics, one fresh child process per
//! workload; `trace` is the separate traced run that yields the per-layer
//! metrics; `aa` runs the same binary against itself to show that the
//! benchmark repeats within its own bounds. `bench` is what
//! `BENCHMARK.json` invokes: one workload in this process, the result as
//! one JSON object on the last line. See `README.md`.

mod aa;
mod fixtures;
mod host;
mod layers;
mod report;
mod spans;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use report::{RunResult, WORKLOADS};
use workloads::Sizing;

/// `--key value` pairs and bare `--flag`s after the subcommand.
pub struct Args(Vec<String>);

impl Args {
    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    pub fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    pub fn number(&self, name: &str, default: u64) -> u64 {
        match self.value(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("{name} needs a whole number, got `{v}`");
                std::process::exit(2);
            }),
        }
    }

    /// The first argument, when it is not a `--key`.
    pub fn positional(&self) -> Option<&str> {
        self.0
            .first()
            .map(String::as_str)
            .filter(|a| !a.starts_with("--"))
    }

    fn workload(&self) -> Option<&str> {
        let w = self.value("--workload")?;
        if !WORKLOADS.contains(&w) {
            eprintln!("unknown workload `{w}`; one of {WORKLOADS:?}");
            std::process::exit(2);
        }
        Some(w)
    }
}

/// `--seconds` when it is not given: `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: u64 = workloads::REFERENCE_SECONDS as u64;
pub const DEFAULT_SEED: u64 = 1;

pub fn exit_for(results: &[RunResult]) -> ExitCode {
    if results.iter().all(|r| r.correct) {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: at least one op was refused or failed its bit-identity check");
        ExitCode::FAILURE
    }
}

/// One workload in this process, the result on the last line. This is
/// what `BENCHMARK.json` invokes, and what `run` and `aa` re-execute
/// themselves as.
fn bench(args: &Args) -> ExitCode {
    let Some(workload) = args.workload() else {
        eprintln!("bench needs --workload");
        return ExitCode::from(2);
    };
    let seed = args.number("--seed", DEFAULT_SEED);
    let seconds = args.number("--seconds", DEFAULT_SECONDS) as u32;
    let quick = args.flag("--quick");
    println!("{}", host::facts());
    let load_before = host::loadavg();
    let result = if args.number("--trace", 0) == 1 {
        trace::run(seed, quick)
    } else {
        let sizing = if quick {
            Sizing::quick(seed)
        } else {
            Sizing::for_seconds(workload, seed, seconds)
        };
        println!(
            "{workload}: seed {seed}, scale {}, {} timed ops (--seconds {seconds})",
            sizing.scale, sizing.timed_ops
        );
        let result = workloads::measure(workload, sizing);
        report::print_metrics(&result.metrics);
        result
    };
    println!(
        "load average before: {load_before} | after: {}",
        host::loadavg()
    );
    println!(
        "ops_attempted {} ops_failed {}",
        result.attempted, result.failed
    );
    result.print(quick);
    exit_for(&[result])
}

/// End-to-end metrics of every (or one) workload, a fresh child process
/// each, so that peak RSS is per workload and order cannot leak.
fn run(args: &Args) -> ExitCode {
    let seed = args.number("--seed", DEFAULT_SEED);
    let seconds = args.number("--seconds", DEFAULT_SECONDS);
    let quick = args.flag("--quick");
    let chosen: Vec<&str> = match args.workload() {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    if quick {
        println!(
            "--quick: scale 0.02, 2 timed ops; these numbers are NOT comparable with anything"
        );
    }
    let mut results = Vec::new();
    for w in chosen {
        println!("{w}:");
        match trace::bench_child(w, seed, seconds, quick, true) {
            Ok(r) => results.push(r),
            Err(e) => {
                eprintln!("{w}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    exit_for(&results)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let args = Args(argv.collect());
    match cmd.as_str() {
        "bench" => bench(&args),
        "run" => run(&args),
        "trace" => {
            println!("{}", host::facts());
            let r = trace::run(args.number("--seed", DEFAULT_SEED), args.flag("--quick"));
            println!("ops_attempted {} ops_failed {}", r.attempted, r.failed);
            exit_for(&[r])
        }
        "pass" => trace::pass(&args),
        "aa" => aa::run(&args),
        _ => {
            eprintln!(
                "usage: e2e run [--seed N] [--workload W] [--seconds S] [--quick]\n       \
                 e2e trace [--seed N] [--quick]\n       \
                 e2e aa [--sets 2] [--runs 5] [--seed N] [--seconds S]\n       \
                 e2e bench --workload W --seed N --seconds S --trace 0|1\n\
                 workloads: {WORKLOADS:?}"
            );
            ExitCode::from(2)
        }
    }
}
