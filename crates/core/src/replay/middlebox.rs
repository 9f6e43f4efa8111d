//! The Choir transparent middlebox (paper §4–§5).
//!
//! "The core of Choir is introducing transparent middleboxes on links
//! between nodes. These middleboxes are transparent since they forward
//! traffic, unmodified, at line rate. … At the user's instruction, they
//! will begin to record replays. While recording, the middlebox remains
//! transparent."
//!
//! State machine:
//!
//! ```text
//!            StartRecord            StopRecord
//! Transparent ──────────▶ Recording ──────────▶ Transparent
//!      ▲                                             │
//!      │              replay finished     ScheduleReplay
//!      └───────────── Replaying ◀────────────────────┘
//! ```
//!
//! While replaying, forwarding continues (the middlebox stays in-situ);
//! the replay traffic is interleaved onto the same transmit port exactly
//! as the original Choir does.

use choir_dpdk::{App, Burst, ControlMsg, Dataplane, PortId};
use choir_packet::tag::{ChoirTag, TAG_LEN};
use choir_packet::Frame;

use crate::obs;

use super::control::{decode_control, is_control_frame};
use super::degrade::DegradationReport;
use super::recording::Recording;
use super::scheduler::{ReplayScheduler, ReplayStats, SchedulerState};

/// Middlebox configuration.
#[derive(Debug, Clone, Copy)]
pub struct MiddleboxConfig {
    /// Port traffic arrives on.
    pub rx_port: PortId,
    /// Port traffic is forwarded (and replayed) out of.
    pub tx_port: PortId,
    /// This replay node's id, stamped into trailer tags.
    pub replayer_id: u16,
    /// Stamp each recorded packet with a unique Choir trailer (the paper's
    /// evaluation mode: "the packets were stamped with unique 16-byte tags
    /// in the replayer", §6).
    pub stamp_tags: bool,
    /// Intercept in-band control frames on the rx port (§5's two-interface
    /// deployment). Out-of-band control always works via `on_control`.
    pub in_band_control: bool,
    /// Bounded retries when the NIC accepts only part of a burst before
    /// the remainder is dropped (a transparent forwarder must not stall).
    pub tx_retries: u32,
    /// Also forward the reverse direction (`tx_port` → `rx_port`),
    /// making the middlebox a full bridge between its "2 bridged
    /// interfaces" (paper §5). Reverse traffic is forwarded verbatim:
    /// never stamped, never recorded.
    pub bridge_reverse: bool,
    /// Mempool slots kept free for forwarding: when availability falls
    /// below this reserve, packets are still forwarded but no longer
    /// recorded (drop-from-recording-and-count) so a long record cannot
    /// starve the dataplane of buffers. The truncated recording remains
    /// internally consistent and replayable.
    pub pool_reserve: usize,
}

impl Default for MiddleboxConfig {
    fn default() -> Self {
        MiddleboxConfig {
            rx_port: 0,
            tx_port: 1,
            replayer_id: 0,
            stamp_tags: true,
            in_band_control: true,
            tx_retries: 2,
            bridge_reverse: false,
            pool_reserve: 128,
        }
    }
}

/// Lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Transparent,
    Recording,
}

/// Forwarding-path counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwardStats {
    /// Packets forwarded rx -> tx.
    pub forwarded: u64,
    /// Packets recorded.
    pub recorded: u64,
    /// In-band control frames intercepted.
    pub control_frames: u64,
    /// Packets dropped because the transmit ring stayed full.
    pub tx_dropped: u64,
    /// Packets forwarded but not recorded because the mempool fell
    /// below [`MiddleboxConfig::pool_reserve`].
    pub record_skipped: u64,
    /// Packets dropped because the staging burst was already at
    /// capacity when they arrived (a misbehaving rx plane overfilling
    /// `MAX_BURST`; the forwarder degrades instead of panicking).
    pub ring_full: u64,
}

/// The Choir middlebox application.
pub struct ChoirMiddlebox {
    cfg: MiddleboxConfig,
    state: State,
    recording: Recording,
    scheduler: Option<ReplayScheduler>,
    seq: u64,
    rx_buf: Burst,
    stats: ForwardStats,
    last_replay_stats: Option<ReplayStats>,
}

impl ChoirMiddlebox {
    /// A middlebox in transparent mode.
    pub fn new(cfg: MiddleboxConfig) -> Self {
        ChoirMiddlebox {
            cfg,
            state: State::Transparent,
            recording: Recording::new(),
            scheduler: None,
            seq: 0,
            rx_buf: Burst::new(),
            stats: ForwardStats::default(),
            last_replay_stats: None,
        }
    }

    /// The current recording (empty unless a record ran).
    pub fn recording(&self) -> &Recording {
        &self.recording
    }

    /// Forwarding-path counters.
    pub fn forward_stats(&self) -> ForwardStats {
        self.stats
    }

    /// This middlebox's graceful-degradation events, in the shared
    /// vocabulary `choir-testbed` aggregates into run reports.
    pub fn degradation_report(&self) -> DegradationReport {
        DegradationReport {
            record_skipped_packets: self.stats.record_skipped,
            forward_dropped_packets: self.stats.tx_dropped,
            capture_ring_full: self.stats.ring_full,
            ..DegradationReport::default()
        }
    }

    /// Statistics of the most recently completed replay.
    pub fn last_replay_stats(&self) -> Option<ReplayStats> {
        self.last_replay_stats
    }

    /// True while a replay is scheduled or in progress.
    pub fn replay_active(&self) -> bool {
        self.scheduler.is_some()
    }

    /// True while recording.
    pub fn is_recording(&self) -> bool {
        self.state == State::Recording
    }

    /// Stamp a frame's trailer with the next tag, preserving its declared
    /// original length. The trailer overwrites the frame's reserved
    /// tailroom (the last [`TAG_LEN`] bytes, which [`FrameBuilder`] left
    /// as fill), so when this middlebox uniquely owns the frame storage
    /// — the hot path, every freshly received packet — the stamp is a
    /// 16-byte in-place write, no copy and no allocation. Only a frame
    /// whose storage is shared (a span-port clone, a replayed recording
    /// entry) pays a copy-on-write of its bytes.
    ///
    /// [`FrameBuilder`]: choir_packet::FrameBuilder
    fn stamp(&mut self, frame: &mut Frame) {
        let tag = ChoirTag::new(self.cfg.replayer_id, 0, self.seq);
        self.seq += 1;
        if frame.data.len() < TAG_LEN {
            // Too short to tag; forward as-is.
            return;
        }
        if let Some(buf) = frame.data.try_unique_mut() {
            tag.stamp_trailer(buf);
            return;
        }
        let mut data = frame.data.to_vec();
        tag.stamp_trailer(&mut data);
        *frame = Frame::truncated(bytes::Bytes::from(data), frame.orig_len() as u32);
    }

    fn handle_control(&mut self, msg: &ControlMsg, dp: &mut dyn Dataplane) {
        match *msg {
            ControlMsg::StartRecord => {
                self.recording.clear();
                self.seq = 0;
                self.state = State::Recording;
            }
            ControlMsg::StopRecord => {
                self.state = State::Transparent;
            }
            ControlMsg::ScheduleReplay { start_wall_ns } => {
                if !self.recording.is_empty() && self.scheduler.is_none() {
                    let sch =
                        ReplayScheduler::new(&self.recording, self.cfg.tx_port, start_wall_ns, dp);
                    self.scheduler = Some(sch);
                    // Kick the scheduler so it arms its first wake-up.
                    self.pump_replay(dp);
                }
            }
            ControlMsg::AbortReplay => {
                if let Some(s) = self.scheduler.take() {
                    self.last_replay_stats = Some(s.stats());
                }
            }
            ControlMsg::Custom(_) => {}
        }
    }

    fn pump_replay(&mut self, dp: &mut dyn Dataplane) {
        if let Some(s) = self.scheduler.as_mut() {
            if s.pump(&self.recording, dp) == SchedulerState::Done {
                let s = self.scheduler.take().expect("scheduler present");
                self.last_replay_stats = Some(s.stats());
            }
        }
    }

    fn forward(&mut self, dp: &mut dyn Dataplane) {
        loop {
            let mut rx = std::mem::take(&mut self.rx_buf);
            let n = dp.rx_burst(self.cfg.rx_port, &mut rx);
            if n == 0 {
                self.rx_buf = rx;
                return;
            }
            let mut tx = Burst::new();
            for mut m in rx.drain() {
                if self.cfg.in_band_control && is_control_frame(&m.frame) {
                    self.stats.control_frames += 1;
                    // Intercepted, not forwarded (a malformed one is
                    // simply dropped). The staged burst is flushed first
                    // so a mid-burst StartRecord/StopRecord takes effect
                    // exactly at its in-band position.
                    if let Some(msg) = decode_control(&m.frame) {
                        self.flush_tx(&mut tx, dp);
                        self.handle_control(&msg, dp);
                    }
                    continue;
                }
                if self.cfg.stamp_tags && self.state == State::Recording {
                    self.stamp(&mut m.frame);
                }
                // Bursts are bounded by rx_burst to MAX_BURST, so a full
                // staging burst means an upstream plane misbehaved; a
                // transparent forwarder must stay alive in-path, so the
                // packet is dropped and counted rather than panicking.
                if let Err(m) = tx.push(m) {
                    self.stats.ring_full += 1;
                    if obs::is_enabled() {
                        obs::counter_inc("capture.ring_full");
                    }
                    drop(m);
                }
            }
            self.rx_buf = rx;
            self.flush_tx(&mut tx, dp);
        }
    }

    /// Transmit (and, while recording, record) the staged burst.
    fn flush_tx(&mut self, tx: &mut Burst, dp: &mut dyn Dataplane) {
        if tx.is_empty() {
            return;
        }
        let tsc = dp.tsc();
        // Holding recorded mbufs pins their pool slots; once the pool
        // drops below the reserve, forwarding continues but recording
        // degrades to drop-and-count (the recording stays consistent —
        // it is simply shorter than the traffic that passed).
        let may_record = dp.mempool().available() >= self.cfg.pool_reserve;
        if self.state == State::Recording {
            if may_record {
                self.recording.push_burst(tsc, tx.iter());
                self.stats.recorded += tx.len() as u64;
            } else {
                self.stats.record_skipped += tx.len() as u64;
            }
        }
        let mut attempts = 0;
        let total = tx.len() as u64;
        let mut sent = 0u64;
        loop {
            sent += dp.tx_burst(self.cfg.tx_port, tx) as u64;
            if tx.is_empty() || attempts >= self.cfg.tx_retries {
                break;
            }
            attempts += 1;
        }
        self.stats.forwarded += sent;
        if !tx.is_empty() {
            self.stats.tx_dropped += total - sent;
            tx.clear();
        }
    }

    /// Forward the reverse direction verbatim (bridge mode).
    fn forward_reverse(&mut self, dp: &mut dyn Dataplane) {
        loop {
            let mut rx = std::mem::take(&mut self.rx_buf);
            let n = dp.rx_burst(self.cfg.tx_port, &mut rx);
            if n == 0 {
                self.rx_buf = rx;
                return;
            }
            let total = rx.len() as u64;
            let mut sent = 0u64;
            let mut attempts = 0;
            loop {
                sent += dp.tx_burst(self.cfg.rx_port, &mut rx) as u64;
                if rx.is_empty() || attempts >= self.cfg.tx_retries {
                    break;
                }
                attempts += 1;
            }
            self.stats.forwarded += sent;
            if !rx.is_empty() {
                self.stats.tx_dropped += total - sent;
                rx.clear();
            }
            self.rx_buf = rx;
        }
    }
}

impl App for ChoirMiddlebox {
    fn on_wake(&mut self, dp: &mut dyn Dataplane) {
        self.pump_replay(dp);
        self.forward(dp);
        if self.cfg.bridge_reverse {
            self.forward_reverse(dp);
        }
    }

    fn on_control(&mut self, msg: &ControlMsg, dp: &mut dyn Dataplane) {
        self.handle_control(msg, dp);
    }

    fn name(&self) -> &str {
        "choir-middlebox"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::control::encode_control;
    use choir_dpdk::{Mbuf, Mempool, PortStats};
    use choir_packet::MacAddr;
    use std::collections::VecDeque;

    /// Two-port test plane: rx queue on port 0 (inject with `inject`),
    /// tx log on port 1, manual TSC.
    struct BridgePlane {
        pool: Mempool,
        now: u64,
        wake: Option<u64>,
        rx_q: VecDeque<Mbuf>,
        tx_log: Vec<(u64, Mbuf)>,
        /// Frames transmitted back out port 0 (there must be none).
        reverse_log: Vec<Mbuf>,
        tx_capacity_per_call: usize,
    }

    impl BridgePlane {
        fn new() -> Self {
            Self::with_pool_capacity(4096)
        }

        fn with_pool_capacity(cap: usize) -> Self {
            BridgePlane {
                pool: Mempool::new("mb", cap),
                now: 0,
                wake: None,
                rx_q: VecDeque::new(),
                tx_log: Vec::new(),
                reverse_log: Vec::new(),
                tx_capacity_per_call: 64,
            }
        }

        fn inject(&mut self, frame: Frame) {
            let m = self.pool.alloc(frame).unwrap();
            self.rx_q.push_back(m);
        }

        fn inject_data(&mut self, n: usize) {
            let b = choir_packet::FrameBuilder::new(128, 1, 2);
            for _ in 0..n {
                self.inject(b.build_plain());
            }
        }
    }

    impl Dataplane for BridgePlane {
        fn num_ports(&self) -> usize {
            2
        }
        fn mempool(&self) -> &Mempool {
            &self.pool
        }
        fn rx_burst(&mut self, port: PortId, out: &mut Burst) -> usize {
            out.clear();
            if port != 0 {
                return 0;
            }
            let mut n = 0;
            while n < choir_dpdk::MAX_BURST {
                match self.rx_q.pop_front() {
                    Some(m) => {
                        out.push(m).unwrap();
                        n += 1;
                    }
                    None => break,
                }
            }
            n
        }
        fn tx_burst(&mut self, port: PortId, burst: &mut Burst) -> usize {
            if port == 0 {
                let n = burst.len();
                self.reverse_log.extend(burst.drain());
                return n;
            }
            assert_eq!(port, 1, "middlebox must tx on its tx port");
            let n = burst.len().min(self.tx_capacity_per_call);
            let now = self.now;
            for m in burst.drain_front(n) {
                self.tx_log.push((now, m));
            }
            n
        }
        fn tsc(&self) -> u64 {
            self.now
        }
        fn tsc_hz(&self) -> u64 {
            1_000_000_000
        }
        fn wall_ns(&self) -> u64 {
            self.now
        }
        fn request_wake_at_tsc(&mut self, tsc: u64) {
            self.wake = Some(self.wake.map_or(tsc, |w| w.min(tsc)));
        }
        fn stats(&self, _p: PortId) -> PortStats {
            PortStats::default()
        }
    }

    fn mb() -> ChoirMiddlebox {
        ChoirMiddlebox::new(MiddleboxConfig {
            replayer_id: 3,
            ..MiddleboxConfig::default()
        })
    }

    #[test]
    fn transparent_forwarding_passes_packets_unmodified() {
        let mut dp = BridgePlane::new();
        let mut app = mb();
        dp.inject_data(10);
        app.on_wake(&mut dp);
        assert_eq!(dp.tx_log.len(), 10);
        assert_eq!(app.forward_stats().forwarded, 10);
        // Not recording: packets untouched (no tags).
        assert!(dp.tx_log.iter().all(|(_, m)| m.frame.tag().is_none()));
        assert!(app.recording().is_empty());
    }

    #[test]
    fn recording_stamps_tags_and_holds_bursts() {
        let mut dp = BridgePlane::new();
        let mut app = mb();
        app.on_control(&ControlMsg::StartRecord, &mut dp);
        dp.inject_data(5);
        dp.now = 1_000;
        app.on_wake(&mut dp);
        app.on_control(&ControlMsg::StopRecord, &mut dp);

        assert!(app.recording().packets() == 5);
        assert_eq!(app.forward_stats().recorded, 5);
        // Forwarded packets carry sequential tags from replayer 3.
        let seqs: Vec<u64> = dp
            .tx_log
            .iter()
            .map(|(_, m)| m.frame.tag().unwrap().seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert!(dp
            .tx_log
            .iter()
            .all(|(_, m)| m.frame.tag().unwrap().replayer == 3));
        // Recording shares the transmitted frames (no copies beyond the
        // tag stamp).
        let rec = app.recording();
        assert_eq!(
            rec.burst(0).pkts[0].frame.data.as_ptr(),
            dp.tx_log[0].1.frame.data.as_ptr()
        );
    }

    #[test]
    fn stamping_is_in_place_for_uniquely_owned_frames() {
        let mut dp = BridgePlane::new();
        let mut app = mb();
        app.on_control(&ControlMsg::StartRecord, &mut dp);
        let b = choir_packet::FrameBuilder::new(128, 1, 2);
        let frame = b.build_plain();
        let original_ptr = frame.data.as_ptr();
        dp.inject(frame);
        app.on_wake(&mut dp);
        // The middlebox owned the frame storage uniquely (storage-folded
        // mbuf slot, one handle), so the stamp wrote the trailer into the
        // existing bytes — same allocation, no copy.
        assert_eq!(dp.tx_log[0].1.frame.data.as_ptr(), original_ptr);
        assert!(dp.tx_log[0].1.frame.tag().is_some());
    }

    #[test]
    fn stamping_copies_when_frame_storage_is_shared() {
        let mut dp = BridgePlane::new();
        let mut app = mb();
        app.on_control(&ControlMsg::StartRecord, &mut dp);
        let b = choir_packet::FrameBuilder::new(128, 1, 2);
        let frame = b.build_plain();
        // A second handle to the storage (a tap's retained view) forces
        // the copy-on-write path; the shared original must stay unstamped.
        let tap = frame.data.clone();
        let original_ptr = frame.data.as_ptr();
        dp.inject(frame);
        app.on_wake(&mut dp);
        assert_ne!(dp.tx_log[0].1.frame.data.as_ptr(), original_ptr);
        assert!(dp.tx_log[0].1.frame.tag().is_some());
        assert!(Frame::new(tap).tag().is_none());
    }

    #[test]
    fn replay_retransmits_identical_packets_at_offsets() {
        let mut dp = BridgePlane::new();
        let mut app = mb();
        // Record 3 packets at tsc 1000.
        app.on_control(&ControlMsg::StartRecord, &mut dp);
        dp.inject_data(3);
        dp.now = 1_000;
        app.on_wake(&mut dp);
        app.on_control(&ControlMsg::StopRecord, &mut dp);
        let recorded_ids: Vec<_> = dp
            .tx_log
            .iter()
            .map(|(_, m)| m.frame.packet_id())
            .collect();
        dp.tx_log.clear();

        // Schedule a replay at wall 50_000.
        app.on_control(
            &ControlMsg::ScheduleReplay {
                start_wall_ns: 50_000,
            },
            &mut dp,
        );
        assert!(app.replay_active());
        assert_eq!(dp.wake, Some(50_000));
        dp.now = 50_000;
        dp.wake = None;
        app.on_wake(&mut dp);
        assert!(!app.replay_active());
        let replay_ids: Vec<_> = dp
            .tx_log
            .iter()
            .map(|(_, m)| m.frame.packet_id())
            .collect();
        assert_eq!(replay_ids, recorded_ids, "replay must be identical");
        assert_eq!(dp.tx_log[0].0, 50_000);
        let st = app.last_replay_stats().unwrap();
        assert_eq!(st.packets_sent, 3);
        // Recording survives for repeat replays.
        assert_eq!(app.recording().packets(), 3);
    }

    #[test]
    fn repeat_replays_are_identical() {
        let mut dp = BridgePlane::new();
        let mut app = mb();
        app.on_control(&ControlMsg::StartRecord, &mut dp);
        dp.inject_data(4);
        dp.now = 100;
        app.on_wake(&mut dp);
        app.on_control(&ControlMsg::StopRecord, &mut dp);
        dp.tx_log.clear();

        let mut runs = Vec::new();
        for start in [10_000u64, 20_000, 30_000] {
            app.on_control(&ControlMsg::ScheduleReplay { start_wall_ns: start }, &mut dp);
            dp.now = start;
            app.on_wake(&mut dp);
            let ids: Vec<_> = dp
                .tx_log
                .drain(..)
                .map(|(_, m)| m.frame.packet_id())
                .collect();
            runs.push(ids);
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn in_band_control_frames_are_intercepted() {
        let mut dp = BridgePlane::new();
        let mut app = mb();
        let src = MacAddr::local(9);
        let dst = MacAddr::local(3);
        dp.inject(encode_control(&ControlMsg::StartRecord, src, dst));
        dp.inject_data(2);
        dp.inject(encode_control(&ControlMsg::StopRecord, src, dst));
        dp.inject_data(1);
        app.on_wake(&mut dp);
        // Control frames not forwarded; 3 data packets were, and nothing
        // went back out the rx port in response.
        assert_eq!(dp.tx_log.len(), 3);
        assert!(dp.reverse_log.is_empty());
        assert_eq!(app.forward_stats().control_frames, 2);
        // Only the 2 packets between start/stop were recorded+tagged.
        assert_eq!(app.recording().packets(), 2);
        assert!(dp.tx_log[0].1.frame.tag().is_some());
        assert!(dp.tx_log[1].1.frame.tag().is_some());
        assert!(dp.tx_log[2].1.frame.tag().is_none());
    }

    #[test]
    fn abort_replay_stops_and_reports() {
        let mut dp = BridgePlane::new();
        let mut app = mb();
        app.on_control(&ControlMsg::StartRecord, &mut dp);
        dp.inject_data(2);
        dp.now = 10;
        app.on_wake(&mut dp);
        app.on_control(&ControlMsg::StopRecord, &mut dp);
        dp.tx_log.clear();
        app.on_control(
            &ControlMsg::ScheduleReplay {
                start_wall_ns: 99_000,
            },
            &mut dp,
        );
        assert!(app.replay_active());
        app.on_control(&ControlMsg::AbortReplay, &mut dp);
        assert!(!app.replay_active());
        assert_eq!(app.last_replay_stats().unwrap().packets_sent, 0);
        // Time passes; nothing is replayed.
        dp.now = 200_000;
        app.on_wake(&mut dp);
        assert!(dp.tx_log.is_empty());
    }

    #[test]
    fn schedule_without_recording_is_a_noop() {
        let mut dp = BridgePlane::new();
        let mut app = mb();
        app.on_control(
            &ControlMsg::ScheduleReplay { start_wall_ns: 100 },
            &mut dp,
        );
        assert!(!app.replay_active());
    }

    #[test]
    fn tx_backpressure_drops_after_retries() {
        let mut dp = BridgePlane::new();
        dp.tx_capacity_per_call = 2;
        let mut app = ChoirMiddlebox::new(MiddleboxConfig {
            tx_retries: 0,
            ..MiddleboxConfig::default()
        });
        dp.inject_data(10);
        app.on_wake(&mut dp);
        // Each rx burst of 10 -> one tx call of 2 accepted, 8 dropped.
        assert_eq!(app.forward_stats().tx_dropped, 8);
        assert_eq!(dp.tx_log.len(), 2);
    }

    #[test]
    fn bridge_reverse_forwards_both_directions() {
        // BridgePlane only queues rx on port 0 and asserts tx on port 1;
        // build a two-direction plane inline.
        use std::collections::VecDeque;
        struct TwoWay {
            pool: Mempool,
            rx: [VecDeque<Mbuf>; 2],
            tx: [Vec<Mbuf>; 2],
        }
        impl Dataplane for TwoWay {
            fn num_ports(&self) -> usize {
                2
            }
            fn mempool(&self) -> &Mempool {
                &self.pool
            }
            fn rx_burst(&mut self, p: PortId, out: &mut Burst) -> usize {
                out.clear();
                let mut n = 0;
                while n < choir_dpdk::MAX_BURST {
                    match self.rx[p].pop_front() {
                        Some(m) => {
                            out.push(m).unwrap();
                            n += 1;
                        }
                        None => break,
                    }
                }
                n
            }
            fn tx_burst(&mut self, p: PortId, burst: &mut Burst) -> usize {
                let n = burst.len();
                for m in burst.drain() {
                    self.tx[p].push(m);
                }
                n
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

        let mut dp = TwoWay {
            pool: Mempool::new("2w", 256),
            rx: [VecDeque::new(), VecDeque::new()],
            tx: [Vec::new(), Vec::new()],
        };
        let b = choir_packet::FrameBuilder::new(128, 1, 2);
        for _ in 0..3 {
            dp.rx[0].push_back(dp.pool.alloc(b.build_plain()).unwrap());
        }
        for _ in 0..2 {
            dp.rx[1].push_back(dp.pool.alloc(b.build_plain()).unwrap());
        }
        let mut app = ChoirMiddlebox::new(MiddleboxConfig {
            bridge_reverse: true,
            in_band_control: false,
            ..MiddleboxConfig::default()
        });
        app.on_wake(&mut dp);
        assert_eq!(dp.tx[1].len(), 3, "forward direction");
        assert_eq!(dp.tx[0].len(), 2, "reverse direction");
        // Reverse traffic is never stamped.
        assert!(dp.tx[0].iter().all(|m| m.frame.tag().is_none()));
        assert_eq!(app.forward_stats().forwarded, 5);
    }

    #[test]
    fn pool_pressure_degrades_recording_but_not_forwarding() {
        let mut dp = BridgePlane::new();
        // Reserve larger than the whole pool: recording is always skipped.
        let mut app = ChoirMiddlebox::new(MiddleboxConfig {
            pool_reserve: usize::MAX,
            in_band_control: false,
            ..MiddleboxConfig::default()
        });
        app.on_control(&ControlMsg::StartRecord, &mut dp);
        dp.inject_data(5);
        app.on_wake(&mut dp);
        app.on_control(&ControlMsg::StopRecord, &mut dp);

        let st = app.forward_stats();
        assert_eq!(st.forwarded, 5, "forwarding is never sacrificed");
        assert_eq!(dp.tx_log.len(), 5);
        assert_eq!(st.recorded, 0);
        assert_eq!(st.record_skipped, 5);
        assert!(app.recording().is_empty(), "recording stays consistent");
        let report = app.degradation_report();
        assert_eq!(report.record_skipped_packets, 5);
        assert!(!report.is_clean());
    }

    #[test]
    fn restart_recording_resets_sequence() {
        let mut dp = BridgePlane::new();
        let mut app = mb();
        app.on_control(&ControlMsg::StartRecord, &mut dp);
        dp.inject_data(2);
        app.on_wake(&mut dp);
        app.on_control(&ControlMsg::StartRecord, &mut dp);
        dp.inject_data(2);
        app.on_wake(&mut dp);
        // Second recording starts over at seq 0.
        let rec = app.recording();
        assert_eq!(rec.packets(), 2);
        let first_tag = rec.burst(0).pkts[0].frame.tag().unwrap();
        assert_eq!(first_tag.seq, 0);
    }
}
