//! `matrix_paper`: `choir-analyze`'s job at paper scale.
//!
//! Six seeded 1 053 370-packet trials arrive as pcaps; the set-up step
//! loads them through `PcapSource`, and one op is the all-pairs kappa
//! matrix over them on one shard (15 pairs, about 31.6 M pair-packets).
//! `core::metrics` is the whole op and netsim and the service do
//! nothing, so this is where "one kappa implementation" is shown not to
//! regress; `capture` owns `setup_s`.

use std::time::Instant;

use choir_capture::{drain_available, PcapSource};
use choir_core::metrics::allpairs::{all_pairs_sharded_with, EngineStats};
use choir_core::metrics::report::StageTimings;
use choir_core::metrics::{KappaConfig, KappaMatrix, PairAnalyzer, Trial};

use super::{OpResult, Prepared, Sizing, Workload};
use crate::fixtures::{matrix_trials, to_pcap, PAPER_PACKETS};
use crate::report::Metrics;
use crate::spans::Tracer;
use crate::stats::{median, median_by};

/// Set-up repeats; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Sample {
    op_ns: u64,
    stats: EngineStats,
    stages: StageTimings,
    cell_ms: Vec<f64>,
}

pub struct Matrix {
    /// Kept for the whole run so that peak RSS is fixture + op memory
    /// and a change in the op's memory shows in `peak_rss_mb`.
    _pcaps: Vec<Vec<u8>>,
    trials: Vec<Trial>,
    /// Expected kappa bits per cell, row-major over `i < j`.
    reference: Vec<u64>,
    packets: u64,
    pair_packets: u64,
    samples: Vec<Sample>,
    shard2_speedup: Option<f64>,
}

/// Load every capture into a trial the way `choir-analyze` does, but
/// through the streaming `Source` API.
fn load(pcaps: &[Vec<u8>]) -> Vec<Trial> {
    pcaps
        .iter()
        .map(|bytes| {
            let mut src = PcapSource::new(&bytes[..]).expect("fixture pcap opens");
            let mut t = Trial::new();
            drain_available(&mut src, |o| t.push(o.id, o.t_ps)).expect("fixture pcap parses");
            t.rezeroed()
        })
        .collect()
}

fn kappa_bits(m: &KappaMatrix) -> Vec<u64> {
    m.cells.iter().map(|c| c.metrics.kappa.to_bits()).collect()
}

pub fn prepare(sizing: Sizing) -> Prepared {
    let n = sizing.scaled(PAPER_PACKETS);
    let pcaps: Vec<Vec<u8>> = matrix_trials(n, sizing.seed)
        .iter()
        .map(|t| to_pcap(t))
        .collect();

    let mut trials = Vec::new();
    let samples: Vec<f64> = (0..sizing.setup_repeats(SETUP_REPEATS))
        .map(|_| {
            let t0 = Instant::now();
            trials = load(&pcaps);
            t0.elapsed().as_secs_f64()
        })
        .collect();

    // The reference is the uncached per-pair pipeline, not the engine
    // under test: its metrics-only path, which combines the same four
    // kernels into kappa as `analyze()` and skips the histograms.
    let mut reference = Vec::new();
    let mut pair_packets = 0;
    for i in 0..trials.len() {
        for j in i + 1..trials.len() {
            let kappa = PairAnalyzer::new(&trials[i], &trials[j]).metrics().kappa;
            reference.push(kappa.to_bits());
            pair_packets += (trials[i].len() + trials[j].len()) as u64;
        }
    }
    Prepared {
        workload: Box::new(Matrix {
            packets: trials.iter().map(|t| t.len() as u64).sum(),
            _pcaps: pcaps,
            trials,
            reference,
            pair_packets,
            samples: Vec::new(),
            shard2_speedup: None,
        }),
        setup_s: median(&samples),
    }
}

impl Workload for Matrix {
    fn op(&mut self, tr: &mut Tracer) -> OpResult {
        let t0 = Instant::now();
        let op = tr.enter("op");
        let call = tr.enter("core.metrics.all_pairs");
        let result = all_pairs_sharded_with(&self.trials, 1, &KappaConfig::paper());
        tr.exit(call);
        tr.exit(op);
        let op_ns = t0.elapsed().as_nanos() as u64;

        let ok = match &result {
            Ok((m, _)) => kappa_bits(m) == self.reference,
            Err(e) => {
                eprintln!("matrix_paper: all-pairs refused: {e}");
                false
            }
        };
        if let (true, Ok((m, stats))) = (tr.is_on(), &result) {
            if self.shard2_speedup.is_none() {
                // Informational, once, outside the op: the same matrix on
                // both cores.
                let t2 = Instant::now();
                let two = all_pairs_sharded_with(&self.trials, 2, &KappaConfig::paper());
                let two_ns = t2.elapsed().as_nanos() as f64;
                assert!(two.is_ok_and(|(m2, _)| kappa_bits(&m2) == self.reference));
                self.shard2_speedup = Some(op_ns as f64 / two_ns);
            }
            self.samples.push(Sample {
                op_ns,
                stats: *stats,
                stages: m.total_timings(),
                cell_ms: m
                    .cells
                    .iter()
                    .map(|c| c.timings.total_ns() as f64 / 1e6)
                    .collect(),
            });
        }
        OpResult {
            packets: self.pair_packets,
            wall_ms: op_ns as f64 / 1e6,
            op_ms: op_ns as f64 / 1e6,
            ok,
        }
    }

    fn layers(&self, _tr: &Tracer, out: &mut Metrics) {
        let n = self.samples.len();
        let per = |f: &dyn Fn(&Sample) -> f64| median_by(&self.samples, f);
        let (packets, pair_packets) = (self.packets as f64, self.pair_packets as f64);
        out.put(
            "core.metrics.index_build_ns_per_pkt",
            per(&|s| s.stats.index_build_ns as f64 / packets),
            n,
        );
        let cells: Vec<f64> = self
            .samples
            .iter()
            .flat_map(|s| s.cell_ms.iter().copied())
            .collect();
        out.put("core.metrics.pair_ms_p50", median(&cells), cells.len());
        out.put(
            "core.metrics.match_ns_per_pkt",
            per(&|s| s.stages.match_ns as f64 / pair_packets),
            n,
        );
        out.put(
            "core.metrics.order_ns_per_pkt",
            per(&|s| s.stages.order_ns as f64 / pair_packets),
            n,
        );
        out.put(
            "core.metrics.latency_ns_per_pkt",
            per(&|s| s.stages.latency_ns as f64 / pair_packets),
            n,
        );
        out.put(
            "core.metrics.iat_ns_per_pkt",
            per(&|s| s.stages.iat_ns as f64 / pair_packets),
            n,
        );
        out.put(
            "core.metrics.histogram_ns_per_pkt",
            per(&|s| s.stages.histogram_ns as f64 / pair_packets),
            n,
        );
        let unattributed =
            per(&|s| 1.0 - (s.stats.index_build_ns + s.stages.total_ns()) as f64 / s.op_ns as f64);
        if unattributed > 0.05 {
            println!(
                "WARNING: core.metrics.unattributed_share {unattributed:.3} > 0.05: \
                 index build + stage timings do not add up to the op's wall time"
            );
        }
        out.put("core.metrics.unattributed_share", unattributed, n);
        out.put(
            "core.metrics.shard2_speedup",
            self.shard2_speedup.unwrap_or(f64::NAN),
            1,
        );
    }
}
