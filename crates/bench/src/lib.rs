//! # choir-bench
//!
//! The reproduction harness: paper targets, table/figure rendering, and
//! the plumbing the `repro` and `choir-analyze` binaries share.
//!
//! Every table and figure of the paper's evaluation has a regenerating
//! subcommand in `repro` (see `src/bin/repro.rs`); this library holds the
//! published numbers ([`paper`]) so each run prints paper-vs-measured
//! side by side, which is also how EXPERIMENTS.md is produced.

pub mod fmt;
pub mod paper;

use choir_testbed::{EnvKind, Experiment, ExperimentConfig, ExperimentOutput};

/// Run several environments concurrently, bounded by the host's
/// parallelism (each experiment is an independent simulation, so this is
/// embarrassingly parallel; on a laptop-class machine it turns the
/// nine-environment sweep into a few wall-clock batches). `runs`
/// overrides every environment's run count.
///
/// Results come back in input order regardless of completion order.
pub fn run_envs_parallel_with(
    kinds: &[EnvKind],
    scale: f64,
    seed: u64,
    runs: Option<usize>,
) -> Vec<ExperimentOutput> {
    let run_one = |kind: EnvKind| {
        let mut profile = kind.profile();
        if let Some(r) = runs {
            profile.runs = r;
        }
        Experiment::new(ExperimentConfig {
            profile,
            scale,
            seed,
        })
        .run()
    };
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(kinds.len().max(1));
    if workers <= 1 {
        return kinds.iter().map(|&k| run_one(k)).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<ExperimentOutput>> = Vec::new();
    slots.resize_with(kinds.len(), || None);
    let slots = std::sync::Mutex::new(slots);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= kinds.len() {
                    break;
                }
                let out = run_one(kinds[i]);
                slots.lock().expect("slots mutex")[i] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("slots mutex")
        .into_iter()
        .map(|o| o.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_sweep_matches_serial() {
        let kinds = [EnvKind::LocalSingle, EnvKind::FabricShared40];
        let par = run_envs_parallel_with(&kinds, 0.0005, 5, None);
        assert_eq!(par.len(), 2);
        for (kind, out) in kinds.iter().zip(&par) {
            let serial = Experiment::new(ExperimentConfig {
                profile: kind.profile(),
                scale: 0.0005,
                seed: 5,
            })
            .run();
            assert_eq!(out.trials, serial.trials, "{kind:?} must be order-stable");
        }
        let local = &par[0];
        assert!(local.recorded_packets >= 50);
        assert_eq!(local.report.runs.len(), 4);
    }
}
