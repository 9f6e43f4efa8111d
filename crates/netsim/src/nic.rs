//! NIC behaviour models.
//!
//! The transmit path reproduces the DPDK reality the paper calls out
//! (§2.3): `tx_burst` only *notifies* the NIC; descriptors are pulled by
//! DMA later, in batches, then serialized at line rate. Three knobs shape
//! the wire timing:
//!
//! - **doorbell latency** — notify-to-DMA-start delay (PCIe round trip,
//!   hundreds of ns, jittery in VMs);
//! - **pull batching** — the NIC fetches several descriptors per PCIe
//!   transaction and emits them back-to-back, creating the
//!   bunched-then-gapped wire pattern that DESIGN.md §4 identifies as the
//!   driver of FABRIC's large IAT deviations;
//! - **VF contention** — on an SR-IOV shared NIC the physical function
//!   interleaves other tenants' traffic, adding queueing waits and
//!   occasional scheduler pauses (paper §7.1's noisy co-tenant).
//!
//! The receive path models ring capacity (overflow drops) and hands
//! timestamps to [`crate::clock::TimestampModel`].

use crate::clock::TimestampModel;
use crate::rng::{DetRng, Jitter};
use crate::time::PS_PER_SEC;

/// How many descriptors one DMA pull fetches.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum BatchDist {
    /// One descriptor per pull (an idealized NIC).
    One,
    /// Always `n` (capped by queue occupancy).
    Fixed(usize),
    /// Uniform in `[lo, hi]`.
    UniformRange(usize, usize),
    /// `1 +` geometric with continuation probability `p`, capped at `max`
    /// (bursty pulls with an exponential-ish tail).
    Geometric {
        /// Probability of fetching yet another descriptor.
        p: f64,
        /// Hard cap.
        max: usize,
    },
}

impl BatchDist {
    /// Largest batch this distribution can produce.
    pub fn cap(&self) -> usize {
        match *self {
            BatchDist::One => 1,
            BatchDist::Fixed(n) => n.max(1),
            BatchDist::UniformRange(_, hi) => hi.max(1),
            BatchDist::Geometric { max, .. } => max.max(1),
        }
    }

    /// Sample a batch size (always ≥ 1).
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        match *self {
            BatchDist::One => 1,
            BatchDist::Fixed(n) => n.max(1),
            BatchDist::UniformRange(lo, hi) => {
                debug_assert!(lo <= hi && lo >= 1);
                rng.range_u64(lo as u64, hi as u64) as usize
            }
            BatchDist::Geometric { p, max } => {
                let mut n = 1usize;
                while n < max && rng.chance(p) {
                    n += 1;
                }
                n
            }
        }
    }
}

/// A bounded-random-walk utilization process for the noisy co-tenant's
/// offered load ("the iperf3 stream bounced between 35 Gbps and 50 Gbps",
/// §7.1).
#[derive(Debug, Clone)]
pub struct UtilProcess {
    /// Lower bound of utilization (fraction of line rate).
    pub min: f64,
    /// Upper bound.
    pub max: f64,
    /// Random-walk step standard deviation per update.
    pub step_sigma: f64,
    /// How often the walk steps, in ps.
    pub update_period_ps: u64,
    current: f64,
    last_update_ps: u64,
}

impl UtilProcess {
    /// A process starting at the midpoint of `[min, max]`.
    pub fn new(min: f64, max: f64, step_sigma: f64, update_period_ps: u64) -> Self {
        assert!((0.0..=1.0).contains(&min) && (0.0..=1.0).contains(&max) && min <= max);
        assert!(update_period_ps > 0);
        UtilProcess {
            min,
            max,
            step_sigma,
            update_period_ps,
            current: (min + max) / 2.0,
            last_update_ps: 0,
        }
    }

    /// Utilization at time `t_ps`, stepping the walk as needed.
    pub fn util_at(&mut self, t_ps: u64, rng: &mut DetRng) -> f64 {
        while self.last_update_ps + self.update_period_ps <= t_ps {
            self.last_update_ps += self.update_period_ps;
            self.current =
                (self.current + self.step_sigma * rng.std_normal()).clamp(self.min, self.max);
        }
        self.current
    }
}

/// SR-IOV contention from a co-tenant on the shared physical NIC.
#[derive(Debug, Clone)]
pub struct SharedVfModel {
    /// The co-tenant's offered load as a fraction of line rate.
    pub util: UtilProcess,
    /// Wire size of the co-tenant's packets (1538 = full-size MTU frame).
    pub noise_pkt_wire_bytes: usize,
    /// Mean wait when our packet lands behind a co-tenant microburst, ps.
    pub burst_wait_mean_ps: f64,
    /// Occasional PF-scheduler pause affecting our VF.
    pub pause: Jitter,
    /// Per-packet probability of hitting such a pause.
    pub pause_prob: f64,
}

impl SharedVfModel {
    /// Extra wait before one of our packets can serialize at `t_ps`.
    ///
    /// Three bounded components (the physical NIC is work-conserving, so
    /// as long as aggregate load stays under line rate the wait cannot
    /// grow without bound):
    ///
    /// - residual slot: with probability `util`, our packet waits for a
    ///   co-tenant frame already on the wire (uniform over one frame);
    /// - microburst queueing: with probability `0.8·util`, it lands
    ///   behind a burst of co-tenant frames (exponential wait);
    /// - PF-scheduler pause: rare, long (§7.1's noisy case).
    pub fn contention_wait_ps(&mut self, t_ps: u64, line_rate_bps: u64, rng: &mut DetRng) -> u64 {
        let util = self.util.util_at(t_ps, rng);
        let noise_ser = serialization_ps(self.noise_pkt_wire_bytes, line_rate_bps);
        let mut wait = 0u64;
        if rng.chance(util) {
            wait += rng.range_u64(0, noise_ser);
        }
        if rng.chance(0.8 * util) {
            wait += rng.exp(self.burst_wait_mean_ps).round() as u64;
        }
        if self.pause_prob > 0.0 && rng.chance(self.pause_prob) {
            wait += self.pause.sample_delay(rng);
        }
        wait
    }
}

/// Transmit-side NIC model for one port.
#[derive(Debug, Clone)]
pub struct NicTxModel {
    /// Port line rate in bits per second.
    pub line_rate_bps: u64,
    /// Descriptor ring capacity; `tx_burst` beyond this is rejected.
    pub ring_cap: usize,
    /// Notify-to-DMA-start latency.
    pub doorbell: Jitter,
    /// Descriptors per DMA pull.
    pub batch: BatchDist,
    /// Extra latency when the pull engine re-arms after the ring went
    /// idle (added to `doorbell`).
    pub rearm_latency: Jitter,
    /// Per-pull descriptor read latency (one outstanding PCIe read).
    /// Serialization of a pull's packets cannot start before its read
    /// completes. Under light load pulls fetch what little is queued and
    /// the read latency paces the wire into small jittery clumps; under
    /// backlog the engine fetches up to [`BatchDist::cap`] descriptors per
    /// read and the wire goes serialization-limited. This is how the same
    /// NIC parameters yield I ~ 0.5 at 40 Gbps but I ~ 0.1 at 80 Gbps
    /// (the paper's §7 observation).
    pub pull_read_latency: Jitter,
    /// Contention model when this is a shared (SR-IOV VF) port.
    pub shared: Option<SharedVfModel>,
}

impl NicTxModel {
    /// An idealized 100 Gbps port: no jitter, no batching, no sharing.
    pub fn ideal(line_rate_bps: u64) -> Self {
        NicTxModel {
            line_rate_bps,
            ring_cap: 4096,
            doorbell: Jitter::None,
            batch: BatchDist::One,
            rearm_latency: Jitter::None,
            pull_read_latency: Jitter::None,
            shared: None,
        }
    }

    /// Time to put `wire_bytes` on the wire at this port's rate.
    pub fn serialization_ps(&self, wire_bytes: usize) -> u64 {
        serialization_ps(wire_bytes, self.line_rate_bps)
    }
}

/// Receive-side NIC model for one port.
#[derive(Debug, Clone)]
pub struct NicRxModel {
    /// Receive ring capacity; arrivals beyond this are dropped.
    pub ring_cap: usize,
    /// Hardware timestamping behaviour.
    pub timestamp: TimestampModel,
    /// Random per-packet drop probability (models VF rx overruns under
    /// co-tenant load; 0 in clean environments).
    pub drop_prob: f64,
    /// Wire-to-host-visibility latency.
    pub deliver_latency: Jitter,
    /// Residual rate error of the timestamp clock versus true time, in
    /// parts per billion. The PTP/PHC servo re-steers between runs, so
    /// experiments re-sample this per replay run ([`crate::Sim::set_rx_clock_slope`]);
    /// within a run it makes latency deltas ramp — the paper's observed
    /// 500 ns–5 µs latency variation over a 0.3 s trial (§6.1).
    pub clock_slope_ppb: i64,
    /// Time the slope is anchored at (error is zero there).
    pub slope_base_ps: u64,
}

impl NicRxModel {
    /// An idealized receive port: huge ring, exact stamps, no loss.
    pub fn ideal() -> Self {
        NicRxModel {
            ring_cap: 1 << 16,
            timestamp: TimestampModel::exact(),
            drop_prob: 0.0,
            deliver_latency: Jitter::None,
            clock_slope_ppb: 0,
            slope_base_ps: 0,
        }
    }

    /// True arrival time adjusted by the timestamp clock's rate error.
    pub fn slope_adjusted_ps(&self, t_ps: u64) -> u64 {
        let dt = t_ps as i128 - self.slope_base_ps as i128;
        let err = dt * self.clock_slope_ppb as i128 / 1_000_000_000;
        (t_ps as i128 + err).max(0) as u64
    }
}

/// Serialization time of `wire_bytes` at `rate_bps`, in ps.
pub fn serialization_ps(wire_bytes: usize, rate_bps: u64) -> u64 {
    ((wire_bytes as u128 * 8 * PS_PER_SEC as u128) / rate_bps as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MS, NS};

    #[test]
    fn serialization_times() {
        // 1424 wire bytes at 100 Gbps = 113.92 ns.
        assert_eq!(serialization_ps(1424, 100_000_000_000), 113_920);
        // At 40 Gbps = 284.8 ns.
        assert_eq!(serialization_ps(1424, 40_000_000_000), 284_800);
    }

    #[test]
    fn batch_dists_sample_in_range() {
        let mut rng = DetRng::derive(1, &["batch"]);
        assert_eq!(BatchDist::One.sample(&mut rng), 1);
        assert_eq!(BatchDist::Fixed(4).sample(&mut rng), 4);
        for _ in 0..200 {
            let u = BatchDist::UniformRange(2, 6).sample(&mut rng);
            assert!((2..=6).contains(&u));
            let g = BatchDist::Geometric { p: 0.7, max: 8 }.sample(&mut rng);
            assert!((1..=8).contains(&g));
        }
    }

    #[test]
    fn geometric_batch_mean_reasonable() {
        let mut rng = DetRng::derive(2, &["batch2"]);
        let d = BatchDist::Geometric { p: 0.5, max: 64 };
        let n = 20_000;
        let mean = (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        // Mean of 1 + Geom(0.5 continue) ~ 2.
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn util_process_stays_bounded_and_moves() {
        let mut rng = DetRng::derive(3, &["util"]);
        let mut u = UtilProcess::new(0.35, 0.50, 0.02, MS);
        let mut seen_min = f64::INFINITY;
        let mut seen_max = f64::NEG_INFINITY;
        for step in 0..5_000u64 {
            let v = u.util_at(step * MS, &mut rng);
            assert!((0.35..=0.50).contains(&v), "v={v}");
            seen_min = seen_min.min(v);
            seen_max = seen_max.max(v);
        }
        assert!(seen_max - seen_min > 0.05, "walk barely moved");
    }

    #[test]
    fn util_process_is_stable_before_first_period() {
        let mut rng = DetRng::derive(4, &["util2"]);
        let mut u = UtilProcess::new(0.2, 0.6, 0.05, MS);
        let v0 = u.util_at(0, &mut rng);
        let v1 = u.util_at(MS - 1, &mut rng);
        assert_eq!(v0, v1);
    }

    #[test]
    fn contention_wait_grows_with_utilization() {
        let mut rng = DetRng::derive(5, &["vf"]);
        let mut low = SharedVfModel {
            util: UtilProcess::new(0.05, 0.05, 0.0, MS),
            noise_pkt_wire_bytes: 1538,
            burst_wait_mean_ps: 200_000.0,
            pause: Jitter::None,
            pause_prob: 0.0,
        };
        let mut high = SharedVfModel {
            util: UtilProcess::new(0.9, 0.9, 0.0, MS),
            noise_pkt_wire_bytes: 1538,
            burst_wait_mean_ps: 200_000.0,
            pause: Jitter::None,
            pause_prob: 0.0,
        };
        let n = 5_000;
        let rate = 100_000_000_000;
        let lo: u64 = (0..n)
            .map(|i| low.contention_wait_ps(i, rate, &mut rng))
            .sum();
        let hi: u64 = (0..n)
            .map(|i| high.contention_wait_ps(i, rate, &mut rng))
            .sum();
        assert!(hi > lo * 10, "hi={hi} lo={lo}");
    }

    #[test]
    fn pauses_add_large_waits() {
        let mut rng = DetRng::derive(6, &["vfp"]);
        let mut m = SharedVfModel {
            util: UtilProcess::new(0.0, 0.0, 0.0, MS),
            noise_pkt_wire_bytes: 1538,
            burst_wait_mean_ps: 200_000.0,
            pause: Jitter::Const(50_000 * NS as i64),
            pause_prob: 1.0,
        };
        let w = m.contention_wait_ps(0, 100_000_000_000, &mut rng);
        assert_eq!(w, 50_000 * NS);
    }

    #[test]
    fn clock_slope_ramps_from_base() {
        let mut rx = NicRxModel::ideal();
        rx.clock_slope_ppb = 1_000_000; // 1000 ppm for easy math
        rx.slope_base_ps = 1_000_000;
        // At the base: no error.
        assert_eq!(rx.slope_adjusted_ps(1_000_000), 1_000_000);
        // 1 ms past the base: +1 us error.
        assert_eq!(
            rx.slope_adjusted_ps(1_000_000 + MS),
            1_000_000 + MS + 1_000_000
        );
        // Before the base the error is negative (clamped at zero here).
        assert_eq!(rx.slope_adjusted_ps(0), 0);
        assert_eq!(rx.slope_adjusted_ps(500_000), 500_000 - 500);
    }

    #[test]
    fn ideal_models() {
        let tx = NicTxModel::ideal(100_000_000_000);
        assert_eq!(tx.serialization_ps(1424), 113_920);
        let rx = NicRxModel::ideal();
        assert_eq!(rx.drop_prob, 0.0);
    }
}
