//! The traced run, and the child-process plumbing `run` and `aa` share.
//!
//! A traced run is five passes, each a fresh child process so that no
//! pass inherits another's heap or page cache state: one per workload
//! (cold ops, then untraced and traced ops alternating) and one for the
//! single-threaded layer drivers. Their metrics merge into the per-layer
//! table.

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use crate::layers;
use crate::report::{Metric, RunResult, PER_LAYER, WORKLOADS};
use crate::workloads::{self, Sizing};
use crate::Args;

/// Re-execute this binary with `args`, pass its output through (minus
/// the result line), wait for it, and parse the result from its last
/// line.
pub fn child(args: &[&str], echo: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut proc = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {args:?}: {e}"))?;
    let out = BufReader::new(proc.stdout.take().expect("piped stdout"));
    let mut last = String::new();
    for line in out.lines() {
        let line = line.map_err(|e| format!("read child output: {e}"))?;
        if echo && !last.is_empty() {
            println!("    {last}");
        }
        last = line;
    }
    let status = proc.wait().map_err(|e| format!("wait for child: {e}"))?;
    let result = RunResult::parse(&last)
        .map_err(|e| format!("child {args:?} ({status}): {e}; last line: {last}"))?;
    if !status.success() && result.correct {
        return Err(format!("child {args:?} reported success but {status}"));
    }
    Ok(result)
}

/// One untraced `bench` of `workload` in a fresh child process.
pub fn bench_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    quick: bool,
    echo: bool,
) -> Result<RunResult, String> {
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let mut args = vec!["bench", "--workload", workload, "--seed", &seed];
    args.extend(["--seconds", &seconds, "--trace", "0"]);
    if quick {
        args.push("--quick");
    }
    child(&args, echo)
}

/// The whole traced run: every per-layer metric, in table order.
pub fn run(seed: u64, quick: bool) -> RunResult {
    println!(
        "traced run, seed {seed}: 4 workload passes + layer drivers, each in a fresh process; \
         all serve traffic crosses the host loopback interface (no real link)"
    );
    let mut merged = RunResult {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let seed = seed.to_string();
    for part in WORKLOADS.iter().copied().chain(["drivers"]) {
        let mut args = vec!["pass", part, "--seed", &seed];
        if quick {
            args.push("--quick");
        }
        println!("  pass {part}:");
        match child(&args, true) {
            Ok(r) => {
                merged.correct &= r.correct;
                merged.attempted += r.attempted;
                merged.failed += r.failed;
                merged.metrics.extend(r.metrics);
            }
            Err(e) => panic!("traced pass `{part}` failed: {e}"),
        }
    }
    let ordered: Vec<Metric> = PER_LAYER
        .iter()
        .map(|def| {
            merged
                .metrics
                .iter()
                .find(|m| m.name == def.0)
                .unwrap_or_else(|| panic!("no pass reported `{}`", def.0))
                .clone()
        })
        .collect();
    assert_eq!(
        ordered.len(),
        merged.metrics.len(),
        "a pass reported an undeclared metric"
    );
    merged.metrics = ordered;
    merged
}

/// Hidden subcommand: one pass of the traced run, in this process.
pub fn pass(args: &Args) -> ExitCode {
    let part = args.positional().expect("pass needs a part name");
    let seed = args.number("--seed", crate::DEFAULT_SEED);
    let quick = args.flag("--quick");
    let scale = if quick {
        Sizing::quick(seed).scale
    } else {
        1.0
    };
    let result = if part == "drivers" {
        layers::drivers(seed, scale)
    } else {
        workloads::trace_pass(part, seed, scale)
    };
    crate::report::print_metrics(&result.metrics);
    result.print(quick);
    crate::exit_for(&[result])
}
