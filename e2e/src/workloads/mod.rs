//! The four workloads and the protocol they share.
//!
//! Every workload runs: fixture (untimed) -> set-up step (timed, several
//! times, median -> `setup_s`) -> cold ops (full size, reported per
//! layer, excluded from the end-to-end numbers) -> a fixed number of
//! timed ops. Work is fixed, not time: the op sequence is a pure
//! function of the seed and the op count, so every op's result can be
//! checked bit for bit and two commits do identical work.

pub mod chain;
pub mod matrix;
pub mod serve;

use std::time::Instant;

use crate::host;
use crate::report::{Metrics, RunResult};
use crate::spans::Tracer;
use crate::stats::median;

/// How much work one process does.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub seed: u64,
    /// 1.0 = paper scale; `--quick` runs at 0.02.
    pub scale: f64,
    /// Timed ops (rounds, for `serve_live`) of an untraced run; a traced
    /// pass takes its op counts from its plan.
    pub timed_ops: usize,
    /// A traced pass: `setup_s` is not reported, so set up once.
    pub traced: bool,
}

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` at which a run does
/// exactly the op counts below.
pub const REFERENCE_SECONDS: usize = 20;

/// Timed ops at `--seconds 20`, per workload, sized on the reference box
/// (2 vCPU) so that the four runs together take about 100 s. The
/// CPU-bound workloads get the time: `chain_paper` (2.4 s an op) about
/// 26 s, `matrix_paper` 18 s, `serve_bulk` 21 s. What steadies them is
/// the number of ops a run can pick its fastest from, and the host's
/// slow episodes last 10 to 40 s. `serve_live` waits on a kernel timer
/// and repeats to a thousandth in 5 s. `--seconds` scales these; elapsed
/// time never does. The count is then made odd, so that the median op is
/// an op.
const OPS_AT_20S: [(&str, usize); 4] = [
    ("chain_paper", 11),
    ("matrix_paper", 7),
    ("serve_bulk", 7),
    ("serve_live", 25),
];

impl Sizing {
    pub fn for_seconds(workload: &str, seed: u64, seconds: u32) -> Self {
        let at_20s = OPS_AT_20S
            .iter()
            .find(|w| w.0 == workload)
            .unwrap_or_else(|| panic!("unknown workload `{workload}`"))
            .1;
        Sizing {
            seed,
            scale: 1.0,
            timed_ops: (at_20s * seconds as usize).div_ceil(REFERENCE_SECONDS) | 1,
            traced: false,
        }
    }

    /// Small enough to smoke-test the harness in seconds; the numbers
    /// are not comparable with anything.
    pub fn quick(seed: u64) -> Self {
        Sizing {
            seed,
            scale: 0.02,
            timed_ops: 2,
            traced: false,
        }
    }

    /// How often to repeat the set-up step: as often as the workload
    /// asks when `setup_s` is reported, once in a traced pass.
    pub fn setup_repeats(&self, wanted: usize) -> usize {
        if self.traced {
            1
        } else {
            wanted
        }
    }

    pub fn scaled(&self, full: usize) -> usize {
        ((full as f64 * self.scale) as usize).max(1)
    }
}

/// What one op did.
pub struct OpResult {
    /// Packets (records, pair-packets) carried through the op's path.
    pub packets: u64,
    /// Wall time of the whole op as its caller sees it.
    pub wall_ms: f64,
    /// Wall time of the part of the op that `op_ms_p50` is about; the
    /// whole op, except in `serve_live`.
    pub op_ms: f64,
    /// Every call was accepted and every bit-identity check held.
    pub ok: bool,
}

pub trait Workload {
    /// Ops run at full size before timing starts.
    fn cold_ops(&self) -> usize {
        1
    }

    /// Run the next op of the fixed sequence.
    fn op(&mut self, tr: &mut Tracer) -> OpResult;

    /// This workload's per-layer metrics, from the traced ops' spans and
    /// whatever the workload kept from them.
    fn layers(&self, tr: &Tracer, out: &mut Metrics);
}

/// A workload after its fixture and set-up step.
pub struct Prepared {
    pub workload: Box<dyn Workload>,
    pub setup_s: f64,
}

/// Build the fixture and run the set-up step. `ops_after_cold` is how
/// many ops the caller will run after the cold ones; a fixture that is
/// consumed op by op is sized from it.
pub fn prepare(name: &str, sizing: Sizing, ops_after_cold: usize) -> Prepared {
    match name {
        "chain_paper" => chain::prepare(sizing),
        "matrix_paper" => matrix::prepare(sizing),
        "serve_bulk" => serve::prepare_bulk(sizing),
        "serve_live" => serve::prepare_live(sizing, ops_after_cold),
        other => panic!("unknown workload `{other}`"),
    }
}

/// A batch of ops run back to back.
#[derive(Default)]
pub struct Phase {
    /// `op_ms` of every op that passed its checks.
    pub op_ms: Vec<f64>,
    /// Packets per second of every op that passed its checks.
    pub rates: Vec<f64>,
    pub packets: u64,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

pub fn run_ops(w: &mut dyn Workload, n: usize, tr: &mut Tracer) -> Phase {
    let mut p = Phase::default();
    let t0 = Instant::now();
    for _ in 0..n {
        tr.next_op();
        let r = w.op(tr);
        p.attempted += 1;
        if r.ok {
            p.op_ms.push(r.op_ms);
            p.rates.push(r.packets as f64 / (r.wall_ms / 1e3));
            p.packets += r.packets;
        } else {
            p.failed += 1;
        }
    }
    p.wall_s = t0.elapsed().as_secs_f64();
    p
}

/// The untraced run of one workload in this process: the four
/// end-to-end metrics.
pub fn measure(name: &str, sizing: Sizing) -> RunResult {
    let Prepared {
        mut workload,
        setup_s,
    } = prepare(name, sizing, sizing.timed_ops);
    let w = workload.as_mut();
    let mut tr = Tracer::new();
    let cold_ops = w.cold_ops();
    let cold = run_ops(w, cold_ops, &mut tr);
    let timed = run_ops(w, sizing.timed_ops, &mut tr);
    println!(
        "{name}: {} cold + {} timed ops, timed phase {:.3} s, {} packets, cold op {:.1} ms",
        cold.attempted,
        timed.attempted,
        timed.wall_s,
        timed.packets,
        median(&cold.op_ms),
    );
    println!("{name}: timed op_ms {:.1?}", timed.op_ms);
    println!(
        "{name}: median op {:.1} packets/s, whole timed phase {:.1} packets/s (for information; \
         `packets_per_s` is the fastest op's rate)",
        median(&timed.rates),
        timed.packets as f64 / timed.wall_s
    );

    let mut m = Metrics::default();
    let n = timed.op_ms.len();
    m.put(
        "packets_per_s",
        timed.rates.iter().copied().fold(0.0, f64::max),
        n,
    );
    m.put("op_ms_p50", median(&timed.op_ms), n);
    m.put("setup_s", setup_s, 1);
    drop(workload);
    m.put("peak_rss_mb", host::peak_rss_mb(), 1);
    let failed = cold.failed + timed.failed;
    RunResult {
        correct: failed == 0,
        attempted: cold.attempted + timed.attempted,
        failed,
        metrics: m.0,
    }
}

/// The traced pass of one workload in this process: its per-layer
/// metrics, its span dump, and what tracing cost.
pub fn trace_pass(name: &str, seed: u64, scale: f64) -> RunResult {
    let sizing = Sizing {
        seed,
        scale,
        timed_ops: 0,
        traced: true,
    };
    let plan = trace_plan(name, scale < 1.0);
    let mut tr = Tracer::new();
    let Prepared { mut workload, .. } = prepare(name, sizing, plan.iter().map(|b| b.1).sum());
    let w = workload.as_mut();
    let cold_ops = w.cold_ops();
    let cold = run_ops(w, cold_ops, &mut tr);
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    for &(on, ops) in plan {
        tr.set_on(on);
        let p = run_ops(w, ops, &mut tr);
        let into = if on { &mut traced } else { &mut plain };
        into.op_ms.extend(p.op_ms);
        into.attempted += p.attempted;
        into.failed += p.failed;
    }
    tr.set_on(false);

    let mut m = Metrics::default();
    m.put(
        &format!("{name}.cold_op_ms"),
        median(&cold.op_ms),
        cold.op_ms.len(),
    );
    m.put(
        &format!("bench.trace_overhead.{name}"),
        median(&traced.op_ms) / median(&plain.op_ms) - 1.0,
        traced.op_ms.len(),
    );
    w.layers(&tr, &mut m);

    let dump = host::out_dir().join(format!("spans-{name}.jsonl"));
    let written = std::fs::File::create(&dump)
        .map(std::io::BufWriter::new)
        .and_then(|mut f| tr.dump(&mut f));
    match written {
        Ok(()) => println!(
            "{name}: {} spans written to {}",
            tr.spans().len(),
            dump.display()
        ),
        Err(e) => println!("{name}: span dump to {} failed: {e}", dump.display()),
    }
    let failed = cold.failed + plain.failed + traced.failed;
    RunResult {
        correct: failed == 0,
        attempted: cold.attempted + plain.attempted + traced.attempted,
        failed,
        metrics: m.0,
    }
}

/// How a traced pass alternates untraced and traced ops after the cold
/// ones: `(traced, ops)` batches. Three traced ops per workload; 100
/// traced `serve_live` rounds, so that the snapshot p90 has ten samples
/// beyond it.
fn trace_plan(name: &str, quick: bool) -> &'static [(bool, usize)] {
    match (name == "serve_live", quick) {
        (true, false) => &[(false, 10), (true, 50), (false, 10), (true, 50)],
        (false, false) => &[(false, 1), (true, 1), (false, 1), (true, 1), (true, 1)],
        (true, true) => &[(false, 2), (true, 4)],
        (false, true) => &[(false, 1), (true, 1)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::WORKLOADS;
    use crate::stats::supported_tail;

    #[test]
    fn op_counts_are_a_function_of_seconds_alone_and_odd() {
        let ops = |seconds| -> Vec<usize> {
            WORKLOADS
                .iter()
                .map(|w| Sizing::for_seconds(w, 1, seconds).timed_ops)
                .collect()
        };
        assert_eq!(ops(20), [11, 7, 7, 25]);
        assert_eq!(ops(10), [7, 5, 5, 13]);
        assert_eq!(ops(1), [1, 1, 1, 3]);
        assert_eq!(
            Sizing::for_seconds("chain_paper", 99, 20).timed_ops,
            11,
            "no seed in it"
        );
    }

    #[test]
    fn traced_live_rounds_support_the_p90_the_table_promises() {
        let traced = |quick| -> usize {
            trace_plan("serve_live", quick)
                .iter()
                .filter(|b| b.0)
                .map(|b| b.1)
                .sum()
        };
        assert!(supported_tail(traced(false)) >= Some(900));
        assert!(traced(true) < 10, "a quick pass stays quick");
        for w in &WORKLOADS[..3] {
            let plan = trace_plan(w, false);
            assert_eq!(plan.iter().filter(|b| b.0).map(|b| b.1).sum::<usize>(), 3);
            assert!(plan.iter().any(|b| !b.0), "an untraced op to compare with");
        }
    }
}
