//! The multi-domain testbed: a ring of replay sites spread across a
//! FABRIC-style federation, runnable on the serial engine or sharded
//! across cores ([`choir_netsim::ShardedSim`]) with byte-identical
//! captures either way.
//!
//! ## Topology
//!
//! Each site is one self-contained replay chain through its own switch —
//! generator → middlebox, exactly the paper's per-testbed setup — except
//! the middlebox's transmit side feeds a *long-haul link* to the next
//! site's recorder instead of a local one:
//!
//! ```text
//!   site s:  gen ──sw[0→1]── mb ──(remote link s)──▶ site s+1:
//!                                                     sw[2→3]── rec
//! ```
//!
//! The inter-site propagation delay (tens of microseconds of fiber) is
//! exactly the conservative lookahead the shard coordinator needs, which
//! is why this topology is the natural unit of partitioning: sites map
//! to shards (round-robin), and only the long-haul links cross shards.
//!
//! Site identities come from the `choir_fabric` site catalog, so the
//! fleet reads like a slice allocation across the federation
//! (EDUKY → CERN → STAR → …).
//!
//! ## Experiment
//!
//! Phases mirror the single-domain runner: every site records its
//! generator's stream once, then the whole fleet replays R times with
//! per-run clock resync/skew re-sampled from per-site RNG streams (per
//! site, not sequential across the fleet — a draw order that does not
//! depend on how sites are packed into shards). Each run's fleet-wide
//! capture is the merge of all recorders' observations ordered by
//! `(arrival time, packet id)`, and κ is computed across those merged
//! trials — consistency of the federation, not of one box.

use choir_capture::{Recorder, RecorderConfig};
use choir_core::metrics::allpairs::{all_pairs_sharded_with, KappaMatrix};
use choir_core::metrics::report::{RunReport, TrialComparison};
use choir_core::metrics::{KappaConfig, Trial};
use choir_core::replay::middlebox::{ChoirMiddlebox, MiddleboxConfig};
use choir_dpdk::ControlMsg;
use choir_netsim::clock::{NodeClock, PtpModel};
use choir_netsim::nic::{NicRxModel, NicTxModel};
use choir_netsim::rng::{DetRng, Jitter};
use choir_netsim::shard::{partition_round_robin, ShardedSim, SimBuilder, SyncStats};
use choir_netsim::switchdev::{Switch, SwitchProfile};
use choir_netsim::time::{MS, NS, US};
use choir_netsim::{Endpoint, NodeId, Sim, SimConfig, SimStats};
use choir_pktgen::{Generator, GeneratorConfig};

use crate::runner::{sim_stats_report, SimTuning};

/// A ring of replay sites. Construct with [`MultiDomainProfile::ring`].
#[derive(Debug, Clone)]
pub struct MultiDomainProfile {
    /// Number of sites (≥ 1; a 1-site ring loops back onto itself).
    pub sites: usize,
    /// Federation site names backing each domain (cycled from the
    /// `choir_fabric` catalog).
    pub site_names: Vec<String>,
    /// Per-site traffic rate in bits per second.
    pub rate_bps: u64,
    /// Frame length in bytes.
    pub frame_len: usize,
    /// Recorded stream duration in ps.
    pub duration_ps: u64,
    /// Replay runs (fleet-wide trials).
    pub runs: usize,
    /// NIC/link rate in bits per second.
    pub link_rate_bps: u64,
    /// Node TSC frequency.
    pub tsc_hz: u64,
    /// Long-haul propagation between sites, ps. This is the shard
    /// lookahead: larger values mean fewer synchronization windows.
    pub inter_site_prop_ps: u64,
    /// Per-site switch.
    pub switch: SwitchProfile,
    /// Middlebox receive-poll visibility latency.
    pub poll_latency: Jitter,
    /// PTP offset sigma (ns), re-sampled per site per run.
    pub ptp_offset_sigma_ns: f64,
    /// PTP drift sigma (ns/s), re-sampled per site per run.
    pub ptp_drift_sigma: f64,
    /// Recorder timestamp-clock slope sigma (ppb), per site per run.
    pub ts_slope_sigma_ppb: f64,
    /// Per-site, per-run replay arming skew.
    pub replay_start_skew: Jitter,
}

impl MultiDomainProfile {
    /// A ring of `sites` 40 Gbps sites with 5 µs of fiber between
    /// neighbours, named after the FABRIC catalog.
    pub fn ring(sites: usize) -> Self {
        assert!(sites >= 1, "a ring needs at least one site");
        let catalog = choir_fabric::Site::catalog();
        let site_names = (0..sites)
            .map(|s| catalog[s % catalog.len()].name.clone())
            .collect();
        MultiDomainProfile {
            sites,
            site_names,
            rate_bps: 40_000_000_000,
            frame_len: 1400,
            duration_ps: 300 * MS,
            runs: 3,
            link_rate_bps: 100_000_000_000,
            tsc_hz: 2_500_000_000,
            inter_site_prop_ps: 25 * US, // ~5 km of fiber
            switch: SwitchProfile::tofino2(100_000_000_000),
            poll_latency: Jitter::Const(4 * US as i64),
            ptp_offset_sigma_ns: 30.0,
            ptp_drift_sigma: 5.0,
            ts_slope_sigma_ppb: 7_000.0,
            replay_start_skew: Jitter::Normal {
                mean: 0.0,
                sigma: 100.0 * US as f64,
            },
        }
    }

    /// Globally-unique label of one site (node-name prefix, hence RNG
    /// stream identity).
    pub fn site_label(&self, site: usize) -> String {
        format!("s{site}-{}", self.site_names[site])
    }

    /// Packets per site at full scale.
    pub fn full_packet_count(&self) -> u64 {
        choir_packet::FrameSpec::new(self.frame_len, self.rate_bps).packets_in(self.duration_ps)
    }

    /// Inter-packet gap of one site's stream, ps.
    pub fn gap_ps(&self) -> u64 {
        choir_packet::FrameSpec::new(self.frame_len, self.rate_bps).gap_ps()
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct MultiDomainConfig {
    /// The fleet.
    pub profile: MultiDomainProfile,
    /// Fraction of the full per-site packet count.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
}

impl MultiDomainConfig {
    /// Packets each site records under this config.
    pub fn packet_count(&self) -> u64 {
        ((self.profile.full_packet_count() as f64 * self.scale) as u64).max(50)
    }
}

/// Everything a multi-domain experiment produces.
#[derive(Debug)]
pub struct MultiDomainOutput {
    /// Per-run comparisons against run A plus the fleet mean.
    pub report: RunReport,
    /// The full all-pairs κ matrix over the merged fleet trials.
    pub matrix: KappaMatrix,
    /// Merged, re-zeroed fleet trials (run A first).
    pub trials: Vec<Trial>,
    /// Packets held across all middlebox recordings.
    pub recorded_packets: u64,
    /// Merged engine counters (summed across shards).
    pub sim_stats: SimStats,
    /// Shard-synchronization overhead (zero for the serial engine).
    pub sync: SyncStats,
    /// Shards the engine ran on (0 = serial).
    pub shards: usize,
    /// Wall-clock time of the capture pipeline, excluding analysis.
    pub capture_wall_ns: u64,
}

/// Node ids of one site inside its owning sim.
#[derive(Debug, Clone, Copy)]
struct SitePlace {
    shard: usize,
    gen: NodeId,
    mb: NodeId,
    rec: NodeId,
}

/// Build one site into `sim`. Node/switch names are prefixed with the
/// site label, so every RNG stream is unique fleet-wide and identical
/// across shard layouts. Returns the node ids relative to `sim`.
fn build_site(
    sim: &mut Sim,
    p: &MultiDomainProfile,
    seed: u64,
    site: usize,
    n_packets: u64,
) -> (NodeId, NodeId, NodeId) {
    let label = p.site_label(site);
    // Per-site construction stream: draws do not interleave with other
    // sites', so clocks are shard-layout invariants.
    let mut rng = DetRng::derive(seed, &["mdsite", &label]);
    let clock = |rng: &mut DetRng| NodeClock {
        tsc_hz: p.tsc_hz,
        tsc_offset: rng.range_u64(0, 1 << 40),
        freq_error_ppb: rng.range_u64(0, 60) as i64 - 30,
        ptp: PtpModel::sampled(rng, p.ptp_offset_sigma_ns, p.ptp_drift_sigma),
    };

    let mut gen_cfg = GeneratorConfig::cbr(p.rate_bps, n_packets);
    gen_cfg.ports = vec![0];
    let gen = sim.add_node(
        &format!("{label}/generator"),
        Generator::new(gen_cfg),
        clock(&mut rng),
        Jitter::None,
    );
    sim.add_port(gen, NicTxModel::ideal(p.link_rate_bps), NicRxModel::ideal());

    let mb = sim.add_node(
        &format!("{label}/replayer"),
        ChoirMiddlebox::new(MiddleboxConfig {
            rx_port: 0,
            tx_port: 1,
            replayer_id: site as u16,
            stamp_tags: true,
            in_band_control: false,
            tx_retries: 3,
            rolling_window: None,
            bridge_reverse: false,
            pool_reserve: 128,
        }),
        clock(&mut rng),
        Jitter::None,
    );
    sim.add_port(
        mb,
        NicTxModel::ideal(p.link_rate_bps),
        NicRxModel {
            ring_cap: 8192,
            deliver_latency: p.poll_latency.clone(),
            ..NicRxModel::ideal()
        },
    );
    sim.add_port(mb, NicTxModel::ideal(p.link_rate_bps), NicRxModel::ideal());

    let rec = sim.add_node(
        &format!("{label}/recorder"),
        Recorder::new(RecorderConfig::default()),
        clock(&mut rng),
        Jitter::None,
    );
    sim.add_port(
        rec,
        NicTxModel::ideal(p.link_rate_bps),
        NicRxModel {
            ring_cap: 1 << 14,
            deliver_latency: Jitter::Const(100 * NS as i64),
            ..NicRxModel::ideal()
        },
    );

    // Site switch: 0→1 carries the local generator into the middlebox;
    // 2→3 carries the *previous* site's long-haul traffic into the
    // recorder. The two paths are disjoint, so the generator ingress
    // stays a single feeder (eager cut-through) in every build.
    let sw = sim.add_switch(Switch::new(4, p.switch.clone()), &format!("{label}/switch"));
    sim.connect_node_switch(gen, 0, sw, 0, 5_000);
    sim.connect_node_switch(mb, 0, sw, 1, 5_000);
    sim.switch_map(sw, 0, 1);
    sim.connect_node_switch(rec, 0, sw, 3, 5_000);
    sim.switch_map(sw, 2, 3);

    // Long-haul out: this middlebox feeds remote link `site`, terminating
    // at the next site's switch ingress 2.
    sim.connect_remote_out(mb, 1, site as u32, p.inter_site_prop_ps);
    let prev = (site + p.sites - 1) % p.sites;
    sim.connect_remote_in(prev as u32, Endpoint::SwitchPort(sw, 2));

    (gen, mb, rec)
}

/// The engine behind a fleet: the serial reference or the sharded one.
enum Engine {
    Serial(Box<Sim>),
    Sharded(ShardedSim),
}

struct Fleet {
    eng: Engine,
    places: Vec<SitePlace>,
}

impl Fleet {
    fn now_ps(&self) -> u64 {
        match &self.eng {
            Engine::Serial(sim) => sim.now_ps(),
            Engine::Sharded(fl) => fl.now_ps(),
        }
    }

    fn run_until(&mut self, deadline_ps: u64) {
        match &mut self.eng {
            Engine::Serial(sim) => {
                sim.run_until(deadline_ps);
            }
            Engine::Sharded(fl) => {
                fl.run_until(deadline_ps);
            }
        }
    }

    /// Run a closure against the sim owning `site` (on its worker thread
    /// for sharded fleets — hence the `Send` bounds).
    fn with_site<R, F>(&mut self, site: usize, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut Sim, SitePlace) -> R + Send + 'static,
    {
        let p = self.places[site];
        match &mut self.eng {
            Engine::Serial(sim) => f(sim, p),
            Engine::Sharded(fl) => fl.with_sim(p.shard, move |sim| f(sim, p)),
        }
    }

    fn sim_stats(&mut self) -> SimStats {
        match &mut self.eng {
            Engine::Serial(sim) => sim.sim_stats(),
            Engine::Sharded(fl) => fl.sim_stats(),
        }
    }

    fn sync_stats(&self) -> SyncStats {
        match &self.eng {
            Engine::Serial(_) => SyncStats::default(),
            Engine::Sharded(fl) => fl.sync_stats(),
        }
    }
}

fn build_fleet(cfg: &MultiDomainConfig, tuning: SimTuning) -> Fleet {
    let p = &cfg.profile;
    let n_packets = cfg.packet_count();
    let sim_cfg = SimConfig {
        master_seed: cfg.seed,
        trial: 0,
        // Sized for the whole fleet so serial and per-shard pools behave
        // identically (allocation only matters on exhaustion).
        pool_slots: (n_packets as usize) * p.sites * 2 + 65_536,
        queue: tuning.queue,
        coalesce: tuning.coalesce,
    };
    if tuning.shards == 0 {
        let mut sim = Sim::new(sim_cfg);
        let mut places = Vec::new();
        for s in 0..p.sites {
            let (gen, mb, rec) = build_site(&mut sim, p, cfg.seed, s, n_packets);
            places.push(SitePlace {
                shard: 0,
                gen,
                mb,
                rec,
            });
        }
        Fleet {
            eng: Engine::Serial(Box::new(sim)),
            places,
        }
    } else {
        let parts = partition_round_robin(p.sites, tuning.shards);
        let mut places = vec![
            SitePlace {
                shard: 0,
                gen: 0,
                mb: 0,
                rec: 0,
            };
            p.sites
        ];
        let mut builders: Vec<SimBuilder> = Vec::new();
        for (shard, domains) in parts.iter().enumerate() {
            for (pos, &site) in domains.iter().enumerate() {
                // Each site adds exactly 3 nodes in build order.
                places[site] = SitePlace {
                    shard,
                    gen: 3 * pos,
                    mb: 3 * pos + 1,
                    rec: 3 * pos + 2,
                };
            }
            let domains = domains.clone();
            let profile = p.clone();
            let seed = cfg.seed;
            builders.push(Box::new(move |sim: &mut Sim| {
                for site in domains {
                    build_site(sim, &profile, seed, site, n_packets);
                }
            }));
        }
        let fleet = ShardedSim::new(sim_cfg, p.inter_site_prop_ps, builders);
        Fleet {
            eng: Engine::Sharded(fleet),
            places,
        }
    }
}

/// Run the multi-domain experiment end to end. `tuning.shards` selects
/// the engine: 0 = serial reference, n ≥ 1 = sharded across n workers —
/// with byte-identical trials either way (`tests/shard_determinism.rs`
/// asserts exactly this).
///
/// # Panics
/// Panics if the fleet produces fewer than two trials, or if any run's
/// fleet-wide capture is not exactly one trial per site (wiring bugs).
pub fn run_multidomain(cfg: &MultiDomainConfig, tuning: SimTuning) -> MultiDomainOutput {
    let t_capture = std::time::Instant::now();
    let p = cfg.profile.clone();
    assert!(p.runs >= 2, "need at least two runs to compare");
    let n_packets = cfg.packet_count();
    let mut fleet = build_fleet(cfg, tuning);

    // --- Phase 1: every site records its stream ----------------------
    let gap = p.gap_ps();
    let duration = n_packets * gap;
    let t_rec_start = MS;
    let t_gen_start = 2 * MS;
    let t_stop = t_gen_start + duration + 2 * MS;
    for s in 0..p.sites {
        fleet.with_site(s, move |sim, place| {
            sim.send_control(place.mb, ControlMsg::StartRecord, t_rec_start);
            sim.send_control(place.mb, ControlMsg::StopRecord, t_stop);
            sim.wake_app(place.gen, t_gen_start);
        });
    }
    // The long-haul hop adds propagation; pad the drain accordingly.
    fleet.run_until(t_stop + MS + p.inter_site_prop_ps);
    let mut recorded_packets = 0u64;
    for s in 0..p.sites {
        // Discard the recording-phase capture at every recorder.
        fleet.with_site(s, |sim, place| {
            sim.with_app::<Recorder, _>(place.rec, |r| {
                r.take_trials();
            });
        });
        recorded_packets += fleet.with_site(s, |sim, place| {
            sim.with_app::<ChoirMiddlebox, _>(place.mb, |m| m.recording().packets() as u64)
        });
    }

    // --- Phase 2: fleet-wide replays ---------------------------------
    let margin = 3 * MS;
    let mut raw_trials: Vec<Trial> = Vec::new();
    for run in 0..p.runs {
        let start_wall_ns = (fleet.now_ps() + margin) / 1_000;
        let now = fleet.now_ps();
        let mut max_skew_ps: u64 = 0;
        for s in 0..p.sites {
            let seed = cfg.seed;
            let profile = p.clone();
            // Per-site, per-run resync stream: between-run clock wander
            // whose draws cannot interleave across sites (and therefore
            // cannot depend on the shard layout).
            let skew_ns = fleet.with_site(s, move |sim, place| {
                let label = profile.site_label(s);
                let mut resync =
                    DetRng::derive_indexed(seed, &["mdresync", &label], run as u64);
                for node in [place.gen, place.mb, place.rec] {
                    sim.set_ptp(
                        node,
                        PtpModel::sampled(
                            &mut resync,
                            profile.ptp_offset_sigma_ns,
                            profile.ptp_drift_sigma,
                        ),
                    );
                }
                let slope = (profile.ts_slope_sigma_ppb * resync.std_normal()) as i64;
                sim.set_rx_clock_slope(place.rec, 0, slope);
                let skew_ns = profile.replay_start_skew.sample(&mut resync) / 1_000;
                let start = (start_wall_ns as i64 + skew_ns).max(0) as u64;
                sim.send_control(
                    place.mb,
                    ControlMsg::ScheduleReplay {
                        start_wall_ns: start,
                    },
                    now,
                );
                skew_ns
            });
            max_skew_ps = max_skew_ps.max(skew_ns.unsigned_abs() * 1_000);
        }
        let end = now + margin + duration + margin + max_skew_ps + p.inter_site_prop_ps;
        fleet.run_until(end);

        // Harvest: one capture per site, merged into the fleet trial in
        // (arrival time, packet id) order — a total order over unique
        // packets, so the merge is layout-independent.
        let mut merged: Vec<choir_core::metrics::Observation> = Vec::new();
        for s in 0..p.sites {
            let cut = fleet.with_site(s, |sim, place| {
                sim.with_app::<Recorder, _>(place.rec, |r| r.take_trials())
            });
            assert_eq!(
                cut.len(),
                1,
                "site {s} produced {} captures in run {run}; wiring bug",
                cut.len()
            );
            merged.extend_from_slice(cut[0].observations());
        }
        merged.sort_unstable_by_key(|o| (o.t_ps, o.id));
        let mut trial = Trial::with_capacity(merged.len());
        for o in merged {
            trial.push(o.id, o.t_ps);
        }
        raw_trials.push(trial);
    }

    let trials: Vec<Trial> = raw_trials.into_iter().map(|t| t.rezeroed()).collect();
    let capture_wall_ns = t_capture.elapsed().as_nanos() as u64;

    // --- Analysis: κ across the merged fleet trials ------------------
    let analysis_shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (matrix, _engine) =
        all_pairs_sharded_with(&trials, analysis_shards, &KappaConfig::paper())
            .expect("fleet trials fit the u32 index limit");
    let comparisons: Vec<TrialComparison> = matrix.baseline_row();

    let mut degradation = choir_core::replay::DegradationReport::default();
    for s in 0..p.sites {
        let d = fleet.with_site(s, |sim, place| {
            sim.with_app::<ChoirMiddlebox, _>(place.mb, |m| m.degradation_report())
        });
        degradation.absorb(&d);
    }
    let sim_stats = fleet.sim_stats();
    let sync = fleet.sync_stats();
    let mut stats_report = sim_stats_report(&sim_stats);
    stats_report.shards = tuning.shards as u64;
    stats_report.sync_windows = sync.windows;
    let label = format!("Multi-Domain Ring x{}", p.sites);
    let mut report = RunReport::new(label, comparisons)
        .expect("runs >= 2 asserted above")
        .with_degradation(degradation)
        .with_sim_stats(stats_report);
    if let Some(summary) = matrix.summary() {
        report = report.with_matrix(summary);
    }
    report = report.with_obs(choir_core::obs::snapshot());

    MultiDomainOutput {
        report,
        matrix,
        trials,
        recorded_packets,
        sim_stats,
        sync,
        shards: tuning.shards,
        capture_wall_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(sites: usize, scale: f64, seed: u64) -> MultiDomainConfig {
        let mut profile = MultiDomainProfile::ring(sites);
        profile.runs = 2;
        MultiDomainConfig {
            profile,
            scale,
            seed,
        }
    }

    fn tuned(shards: usize) -> SimTuning {
        SimTuning {
            shards,
            ..SimTuning::default()
        }
    }

    #[test]
    fn serial_fleet_end_to_end() {
        let out = run_multidomain(&quick_cfg(3, 0.0003, 11), tuned(0));
        assert_eq!(out.shards, 0);
        assert_eq!(out.trials.len(), 2);
        // 3 sites × ~316 packets each, no drops.
        assert_eq!(out.recorded_packets, 3 * 316);
        for t in &out.trials {
            assert_eq!(t.len() as u64, out.recorded_packets);
            assert!(t.is_time_ordered());
        }
        assert!(out.report.mean.kappa > 0.5, "kappa {}", out.report.mean.kappa);
        // Every long-haul crossing is a remote admission, even serially.
        assert!(out.sim_stats.remote_packets > 0);
        assert_eq!(out.sync, SyncStats::default());
    }

    #[test]
    fn sharded_trials_match_serial_bit_for_bit() {
        let cfg = quick_cfg(3, 0.0002, 23);
        let serial = run_multidomain(&cfg, tuned(0));
        for shards in [1usize, 2, 3] {
            let sharded = run_multidomain(&cfg, tuned(shards));
            assert_eq!(
                sharded.trials, serial.trials,
                "trials diverged at {shards} shards"
            );
            // κ is a pure function of the trials, so the whole baseline
            // row matches to the bit.
            for (a, b) in serial.report.runs.iter().zip(&sharded.report.runs) {
                assert_eq!(
                    a.metrics.kappa.to_bits(),
                    b.metrics.kappa.to_bits(),
                    "kappa diverged at {shards} shards"
                );
            }
            // Summing engine counters are exact across the partition.
            assert_eq!(
                sharded.sim_stats.events_processed,
                serial.sim_stats.events_processed
            );
            assert_eq!(
                sharded.sim_stats.remote_packets,
                serial.sim_stats.remote_packets
            );
            if shards >= 2 {
                assert!(sharded.sync.windows > 0);
                assert!(sharded.sync.remote_packets > 0);
            }
        }
    }

    #[test]
    fn sharded_run_repeats_bit_identically() {
        let cfg = quick_cfg(2, 0.0002, 41);
        // 0 is the serial engine: the reference repeats too.
        for shards in [0, 2] {
            let a = run_multidomain(&cfg, tuned(shards));
            let b = run_multidomain(&cfg, tuned(shards));
            assert_eq!(a.trials, b.trials, "{shards} shards");
            assert_eq!(a.sim_stats, b.sim_stats, "{shards} shards");
            assert_eq!(a.sync, b.sync, "{shards} shards");
        }
    }

    #[test]
    fn more_shards_than_sites_is_fine() {
        let cfg = quick_cfg(2, 0.0002, 7);
        let serial = run_multidomain(&cfg, tuned(0));
        let over = run_multidomain(&cfg, tuned(5));
        assert_eq!(over.trials, serial.trials);
    }

    #[test]
    fn fleet_sites_carry_fabric_names() {
        let p = MultiDomainProfile::ring(8);
        assert_eq!(p.site_names.len(), 8);
        // Catalog has 6 entries; the ring cycles it.
        assert_eq!(p.site_names[0], p.site_names[6]);
        assert_ne!(p.site_label(0), p.site_label(6), "labels stay unique");
    }
}
