//! # choir-capture
//!
//! The recorder end of the paper's pipeline (the dpdkcap role): a
//! [`choir_dpdk::App`] that drains its receive port, keeps each packet's
//! identity and hardware receive timestamp, and assembles them into a
//! [`choir_core::metrics::Trial`] for the consistency analysis. Every
//! frame on the port counts: the middlebox tags everything it forwards,
//! so the link carries nothing to filter out. It can optionally retain
//! whole frames for pcap export. The other direction, a pcap back into
//! observations one record at a time, is [`PcapSource`] — the one reader
//! `choir-ctl` and `choir-analyze` share.

pub mod source;

use choir_core::metrics::Trial;
use choir_core::obs;
use choir_core::replay::degrade::DegradationReport;
use choir_dpdk::{App, Burst, ControlMsg, Dataplane, PortId};
use choir_packet::pcap::PcapWriter;
use choir_packet::Frame;

pub use source::{drain_available, PcapSource, SourceError};

/// Recorder configuration.
#[derive(Debug, Clone, Copy)]
#[derive(Default)]
pub struct RecorderConfig {
    /// Port to capture on.
    pub port: PortId,
    /// Retain frames (needed for pcap export; costs memory).
    pub keep_frames: bool,
    /// Upper bound on retained frames when `keep_frames` is set. Once
    /// the bound is reached further frames are dropped from retention
    /// and counted ([`Recorder::frames_dropped`], `capture.ring_full`)
    /// instead of growing without limit — identity/timestamp capture
    /// into the trial is unaffected. `None` retains everything.
    pub max_frames: Option<usize>,
}


/// The recorder application. Capture is segmented into *trials*: call
/// [`Recorder::cut_trial`] (or send `ControlMsg::Custom(TRIAL_CUT)`)
/// between replay runs.
pub struct Recorder {
    cfg: RecorderConfig,
    current: Trial,
    frames: Vec<(u64, Frame)>,
    finished: Vec<Trial>,
    buf: Burst,
    untimestamped: u64,
    frames_dropped: u64,
}

/// `ControlMsg::Custom` value that cuts the current trial.
pub const TRIAL_CUT: u64 = 0x7452_4941_4C00_0001; // "tRIAL..1"

impl Recorder {
    /// A recorder with the given configuration.
    pub fn new(cfg: RecorderConfig) -> Self {
        Recorder {
            cfg,
            current: Trial::new(),
            frames: Vec::new(),
            finished: Vec::new(),
            buf: Burst::new(),
            untimestamped: 0,
            frames_dropped: 0,
        }
    }

    /// Packets captured into the current (uncut) trial.
    pub fn current_len(&self) -> usize {
        self.current.len()
    }

    /// Packets that arrived without a hardware timestamp (should be zero
    /// on any simulated NIC; counted rather than panicking).
    pub fn untimestamped(&self) -> u64 {
        self.untimestamped
    }

    /// Frames dropped from retention because the
    /// [`RecorderConfig::max_frames`] bound was reached. The trial
    /// itself (identities + timestamps) still recorded them.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped
    }

    /// This recorder's graceful-degradation events, in the shared
    /// vocabulary `choir-testbed` aggregates into run reports.
    pub fn degradation_report(&self) -> DegradationReport {
        DegradationReport {
            capture_ring_full: self.frames_dropped,
            ..DegradationReport::default()
        }
    }

    /// End the current trial and start a new one. Empty trials are not
    /// recorded.
    pub fn cut_trial(&mut self) {
        if !self.current.is_empty() {
            let t = std::mem::take(&mut self.current);
            // Trial cuts happen between replay runs, never per packet, so
            // this is a safe place to publish capture-side accounting.
            if obs::is_enabled() {
                obs::event("capture.trial_cut", self.finished.len() as u64, t.len() as u64);
                obs::counter_inc("capture.trials_cut");
                obs::counter_add("capture.packets_recorded", t.len() as u64);
                obs::gauge_set("capture.packets_untimestamped", self.untimestamped);
            }
            self.finished.push(t);
        }
    }

    /// All completed trials, cutting the current one first.
    pub fn take_trials(&mut self) -> Vec<Trial> {
        self.cut_trial();
        std::mem::take(&mut self.finished)
    }

    /// Write retained frames as a nanosecond pcap. Requires
    /// `keep_frames`; returns how many records were written.
    pub fn write_pcap<W: std::io::Write>(&self, out: W) -> std::io::Result<u64> {
        let mut w = PcapWriter::new(out)?;
        for (ts_ps, frame) in &self.frames {
            // Round to the nearest nanosecond, as the pcap module
            // documents — truncation would bias every IAT/latency delta
            // derived from an exported capture by up to 1 ns.
            w.write_record((ts_ps + 500) / 1_000, frame)?;
        }
        let n = w.records_written();
        w.finish()?;
        Ok(n)
    }

    /// Number of retained frames.
    pub fn frames_kept(&self) -> usize {
        self.frames.len()
    }
}

impl App for Recorder {
    fn on_wake(&mut self, dp: &mut dyn Dataplane) {
        loop {
            let mut buf = std::mem::take(&mut self.buf);
            let n = dp.rx_burst(self.cfg.port, &mut buf);
            for m in buf.drain() {
                let Some(ts) = m.rx_ts_ps else {
                    self.untimestamped += 1;
                    continue;
                };
                self.current.push(m.frame.packet_id(), ts);
                if self.cfg.keep_frames {
                    if self.cfg.max_frames.is_none_or(|cap| self.frames.len() < cap) {
                        self.frames.push((ts, m.frame.clone()));
                    } else {
                        // Retention ring full: drop the frame copy and
                        // count, instead of growing without bound (or,
                        // in a fixed-ring port, panicking). The trial
                        // keeps the packet's identity and timestamp.
                        self.frames_dropped += 1;
                        if obs::is_enabled() {
                            obs::counter_inc("capture.ring_full");
                        }
                    }
                }
            }
            self.buf = buf;
            if n == 0 {
                break;
            }
        }
    }

    fn on_control(&mut self, msg: &ControlMsg, _dp: &mut dyn Dataplane) {
        if matches!(msg, ControlMsg::Custom(v) if *v == TRIAL_CUT) {
            self.cut_trial();
        }
    }

    fn name(&self) -> &str {
        "choir-recorder"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use choir_dpdk::{Mbuf, Mempool, PortStats};
    use choir_packet::ChoirTag;
    use std::collections::VecDeque;

    struct RxPlane {
        pool: Mempool,
        rx: VecDeque<Mbuf>,
        alloc_failed: u64,
    }

    impl RxPlane {
        fn new() -> Self {
            Self::with_pool_capacity(1 << 12)
        }
        fn with_pool_capacity(cap: usize) -> Self {
            RxPlane {
                pool: Mempool::new("cap", cap),
                rx: VecDeque::new(),
                alloc_failed: 0,
            }
        }
        fn inject(&mut self, seq: u64, ts_ps: Option<u64>) {
            let mut buf = vec![0u8; 60];
            ChoirTag::new(1, 0, seq).stamp_trailer(&mut buf);
            // An exhausted pool drops the arrival and counts it, like a
            // real rx path out of descriptors — never panics.
            match self.pool.alloc(Frame::new(Bytes::from(buf))) {
                Ok(mut m) => {
                    m.rx_ts_ps = ts_ps;
                    self.rx.push_back(m);
                }
                Err(_) => self.alloc_failed += 1,
            }
        }
    }

    impl Dataplane for RxPlane {
        fn num_ports(&self) -> usize {
            1
        }
        fn mempool(&self) -> &Mempool {
            &self.pool
        }
        fn rx_burst(&mut self, _p: PortId, out: &mut Burst) -> usize {
            out.clear();
            let mut n = 0;
            while n < choir_dpdk::MAX_BURST {
                match self.rx.pop_front() {
                    Some(m) => match out.push(m) {
                        Ok(()) => n += 1,
                        // Full burst: leave the packet queued for the
                        // next call rather than panicking.
                        Err(m) => {
                            self.rx.push_front(m);
                            break;
                        }
                    },
                    None => break,
                }
            }
            n
        }
        fn tx_burst(&mut self, _p: PortId, _b: &mut Burst) -> usize {
            0
        }
        fn tsc(&self) -> u64 {
            0
        }
        fn tsc_hz(&self) -> u64 {
            1_000_000_000
        }
        fn wall_ns(&self) -> u64 {
            0
        }
        fn request_wake_at_tsc(&mut self, _t: u64) {}
        fn stats(&self, _p: PortId) -> PortStats {
            PortStats::default()
        }
    }

    #[test]
    fn captures_ids_and_timestamps_in_order() {
        let mut dp = RxPlane::new();
        let mut r = Recorder::new(RecorderConfig::default());
        for i in 0..5 {
            dp.inject(i, Some(1_000 + i * 285));
        }
        r.on_wake(&mut dp);
        assert_eq!(r.current_len(), 5);
        let trials = r.take_trials();
        assert_eq!(trials.len(), 1);
        let t = &trials[0];
        assert_eq!(t.len(), 5);
        assert!(t.is_time_ordered());
        assert_eq!(t.time(0), 1_000);
        assert_eq!(t.time(4), 1_000 + 4 * 285);
        let (replayer, _, seq) = t.id(2).tag_fields().unwrap();
        assert_eq!((replayer, seq), (1, 2));
    }

    #[test]
    fn trial_cut_segments_runs() {
        let mut dp = RxPlane::new();
        let mut r = Recorder::new(RecorderConfig::default());
        dp.inject(0, Some(10));
        dp.inject(1, Some(20));
        r.on_wake(&mut dp);
        r.on_control(&ControlMsg::Custom(TRIAL_CUT), &mut dp);
        dp.inject(0, Some(12));
        dp.inject(1, Some(22));
        r.on_wake(&mut dp);
        let trials = r.take_trials();
        assert_eq!(trials.len(), 2);
        assert_eq!(trials[0].len(), 2);
        assert_eq!(trials[1].len(), 2);
    }

    #[test]
    fn empty_trials_are_skipped() {
        let mut dp = RxPlane::new();
        let mut r = Recorder::new(RecorderConfig::default());
        r.cut_trial();
        r.cut_trial();
        dp.inject(0, Some(5));
        r.on_wake(&mut dp);
        assert_eq!(r.take_trials().len(), 1);
    }

    #[test]
    fn untimestamped_counted_not_captured() {
        let mut dp = RxPlane::new();
        let mut r = Recorder::new(RecorderConfig::default());
        dp.inject(0, None);
        dp.inject(1, Some(7));
        r.on_wake(&mut dp);
        assert_eq!(r.untimestamped(), 1);
        assert_eq!(r.current_len(), 1);
    }

    #[test]
    fn other_control_messages_ignored() {
        let mut dp = RxPlane::new();
        let mut r = Recorder::new(RecorderConfig::default());
        dp.inject(0, Some(5));
        r.on_wake(&mut dp);
        r.on_control(&ControlMsg::StartRecord, &mut dp);
        r.on_control(&ControlMsg::Custom(999), &mut dp);
        assert_eq!(r.current_len(), 1, "trial must not be cut");
    }

    #[test]
    fn pcap_export_roundtrip() {
        let mut dp = RxPlane::new();
        let mut r = Recorder::new(RecorderConfig {
            keep_frames: true,
            ..RecorderConfig::default()
        });
        for i in 0..3 {
            dp.inject(i, Some(i * 1_000_000));
        }
        r.on_wake(&mut dp);
        assert_eq!(r.frames_kept(), 3);
        let mut out = Vec::new();
        let n = r.write_pcap(&mut out).unwrap();
        assert_eq!(n, 3);
        let recs = choir_packet::pcap::parse_pcap(&out).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2].ts_ns, 2_000);
        let trial = Trial::from_pcap_records(&recs);
        assert_eq!(trial.len(), 3);
    }

    #[test]
    fn bounded_retention_drops_and_counts_instead_of_growing() {
        let mut dp = RxPlane::new();
        let mut r = Recorder::new(RecorderConfig {
            keep_frames: true,
            max_frames: Some(2),
            ..RecorderConfig::default()
        });
        for i in 0..5 {
            dp.inject(i, Some(10 + i));
        }
        r.on_wake(&mut dp);
        assert_eq!(r.frames_kept(), 2);
        assert_eq!(r.frames_dropped(), 3);
        assert_eq!(r.current_len(), 5, "trial capture unaffected by the bound");
        let d = r.degradation_report();
        assert_eq!(d.capture_ring_full, 3);
        assert!(!d.is_clean());
        // The bounded retention still exports a valid (short) pcap.
        let mut out = Vec::new();
        assert_eq!(r.write_pcap(&mut out).unwrap(), 2);
    }

    #[test]
    fn undersized_pool_completes_run_instead_of_panicking() {
        let mut dp = RxPlane::with_pool_capacity(4);
        let mut r = Recorder::new(RecorderConfig::default());
        for i in 0..10 {
            dp.inject(i, Some(100 * (i + 1)));
        }
        assert_eq!(dp.alloc_failed, 6);
        r.on_wake(&mut dp);
        assert_eq!(r.current_len(), 4);
        let trials = r.take_trials();
        assert_eq!(trials.len(), 1);
        assert!(trials[0].is_time_ordered());
    }

    #[test]
    fn frames_not_kept_by_default() {
        let mut dp = RxPlane::new();
        let mut r = Recorder::new(RecorderConfig::default());
        dp.inject(0, Some(5));
        r.on_wake(&mut dp);
        assert_eq!(r.frames_kept(), 0);
    }
}
