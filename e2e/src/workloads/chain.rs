//! `chain_paper`: the paper's whole capture chain in one call.
//!
//! One op is `Experiment::run` on the FABRIC shared-40G profile at paper
//! scale with two replays: pktgen -> `core::replay` middlebox record ->
//! two replays through netsim -> capture -> all-pairs compare. It is the
//! only workload in which generator, middlebox, simulator and capture
//! do most of the work; the metrics kernels do about a fifth and the
//! service none.

use std::time::Instant;

use choir_testbed::{EnvKind, Experiment, ExperimentConfig, ExperimentOutput};

use super::{OpResult, Prepared, Sizing, Workload};
use crate::report::Metrics;
use crate::spans::Tracer;
use crate::stats::{median, median_by};

/// Set-up repeats; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// What every op must reproduce bit for bit.
#[derive(PartialEq, Eq, Debug, Clone)]
struct Fingerprint {
    kappa_bits: u64,
    events: u64,
    trial_lens: Vec<usize>,
}

/// What a traced op leaves behind for the per-layer metrics.
struct Sample {
    op_ns: u64,
    capture_ns: u64,
    packets: u64,
    events: u64,
    pkts_per_coalesced_event: f64,
    wire_events_elided: u64,
    queue_depth_peak: u64,
}

pub struct Chain {
    cfg: ExperimentConfig,
    first: Option<Fingerprint>,
    samples: Vec<Sample>,
}

fn config(sizing: Sizing, scale: f64) -> ExperimentConfig {
    let mut profile = EnvKind::FabricShared40.profile();
    profile.runs = 2;
    ExperimentConfig {
        profile,
        scale,
        seed: sizing.seed,
    }
}

fn fingerprint(out: &ExperimentOutput) -> Fingerprint {
    Fingerprint {
        kappa_bits: out.report.mean.kappa.to_bits(),
        events: out.events,
        trial_lens: out.trials.iter().map(|t| t.len()).collect(),
    }
}

/// Set-up: the same experiment at a fifth of the op's scale, which
/// faults in the allocator arenas and code the ops will use.
pub fn prepare(sizing: Sizing) -> Prepared {
    let warm = config(sizing, sizing.scale * 0.2);
    let samples: Vec<f64> = (0..sizing.setup_repeats(SETUP_REPEATS))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(Experiment::new(warm.clone()).run());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    Prepared {
        workload: Box::new(Chain {
            cfg: config(sizing, sizing.scale),
            first: None,
            samples: Vec::new(),
        }),
        setup_s: median(&samples),
    }
}

impl Workload for Chain {
    fn op(&mut self, tr: &mut Tracer) -> OpResult {
        let t0 = Instant::now();
        let op = tr.enter("op");
        let call = tr.enter("testbed.experiment_run");
        let out = Experiment::new(self.cfg.clone()).run();
        tr.exit(call);
        tr.exit(op);
        let op_ns = t0.elapsed().as_nanos() as u64;

        let packets: u64 = out.trials.iter().map(|t| t.len() as u64).sum();
        let print = fingerprint(&out);
        let sane = out.trials.len() == 2 && packets > 0 && out.report.mean.kappa.is_finite();
        let ok = sane && *self.first.get_or_insert_with(|| print.clone()) == print;
        if !ok {
            eprintln!(
                "chain_paper: op diverged from the cold op: {print:?} vs {:?}",
                self.first
            );
        }
        if tr.is_on() {
            self.samples.push(Sample {
                op_ns,
                capture_ns: out.capture_wall_ns,
                packets,
                events: out.sim_stats.events_processed,
                pkts_per_coalesced_event: out.sim_stats.packets_per_event(),
                wire_events_elided: out.sim_stats.wire_events_elided,
                queue_depth_peak: out.sim_stats.queue_depth_peak,
            });
        }
        OpResult {
            packets,
            wall_ms: op_ns as f64 / 1e6,
            op_ms: op_ns as f64 / 1e6,
            ok,
        }
    }

    fn layers(&self, _tr: &Tracer, out: &mut Metrics) {
        let n = self.samples.len();
        let per = |f: &dyn Fn(&Sample) -> f64| median_by(&self.samples, f);
        out.put(
            "testbed.capture_ns_per_pkt",
            per(&|s| s.capture_ns as f64 / s.packets as f64),
            n,
        );
        out.put(
            "testbed.analysis_ns_per_pkt",
            per(&|s| (s.op_ns - s.capture_ns) as f64 / s.packets as f64),
            n,
        );
        out.put(
            "testbed.capture_share",
            per(&|s| s.capture_ns as f64 / s.op_ns as f64),
            n,
        );
        // The simulator's own counters; the counts repeat exactly.
        out.put(
            "netsim.events_per_pkt",
            per(&|s| s.events as f64 / s.packets as f64),
            n,
        );
        out.put(
            "netsim.ns_per_event",
            per(&|s| s.capture_ns as f64 / s.events as f64),
            n,
        );
        out.put(
            "netsim.pkts_per_coalesced_event",
            per(&|s| s.pkts_per_coalesced_event),
            n,
        );
        out.put(
            "netsim.wire_events_elided_per_pkt",
            per(&|s| s.wire_events_elided as f64 / s.packets as f64),
            n,
        );
        out.put(
            "netsim.queue_depth_peak",
            per(&|s| s.queue_depth_peak as f64),
            n,
        );
    }
}
