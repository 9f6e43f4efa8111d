//! End-to-end: a slice provisioned through the FABRIC model materializes
//! into a working simulated topology — packets flow between nodes over
//! the L2 bridge, with VM/NIC characteristics applied.

use choir_dpdk::{App, Burst, Dataplane};
use choir_fabric::{NicKind, NodeSpec, Site, Slice};
use choir_netsim::time::MS;
use choir_netsim::{Sim, SimConfig};
use choir_packet::{ChoirTag, FrameBuilder};

struct Sender {
    builder: FrameBuilder,
    count: u64,
    sent: u64,
    start: Option<u64>,
}

impl App for Sender {
    fn on_wake(&mut self, dp: &mut dyn Dataplane) {
        while self.sent < self.count {
            let now = dp.tsc();
            let start = *self.start.get_or_insert(now);
            let due = start + self.sent * 285;
            if now < due {
                dp.request_wake_at_tsc(due);
                return;
            }
            let m = dp
                .mempool()
                .alloc(
                    self.builder
                        .build_tagged_snap(ChoirTag::new(0, 0, self.sent)),
                )
                .unwrap();
            let mut b = Burst::new();
            b.push(m).unwrap();
            dp.tx_burst(0, &mut b);
            self.sent += 1;
        }
    }
}

struct Sink {
    got: Vec<u64>,
    buf: Burst,
}

impl App for Sink {
    fn on_wake(&mut self, dp: &mut dyn Dataplane) {
        loop {
            let mut b = std::mem::take(&mut self.buf);
            let n = dp.rx_burst(0, &mut b);
            for m in b.drain() {
                self.got.push(m.frame.tag().unwrap().seq);
            }
            self.buf = b;
            if n == 0 {
                break;
            }
        }
    }
}

fn run_slice(nic_a: NicKind, nic_b: NicKind, count: u64) -> Vec<u64> {
    let mut site = Site::large("TEST");
    let mut slice = Slice::new("materialize-test");
    let a = slice.add_node(NodeSpec::vm("sender", 4, 8).with_nic(nic_a));
    let b = slice.add_node(NodeSpec::vm("sink", 4, 8).with_nic(nic_b));
    let net = slice.add_l2bridge("net1");
    slice.attach(a, 0, net).unwrap();
    slice.attach(b, 0, net).unwrap();
    let mut prov = slice.submit(&mut site).unwrap();

    let mut sim = Sim::new(SimConfig::default());
    let sender = prov.build_node(
        &mut sim,
        a,
        Sender {
            builder: FrameBuilder::new(1400, 1, 2),
            count,
            sent: 0,
            start: None,
        },
        0xFAB,
    );
    let sink = prov.build_node(
        &mut sim,
        b,
        Sink {
            got: Vec::new(),
            buf: Burst::new(),
        },
        0xFAB,
    );
    let switches = prov.wire(&mut sim);
    assert_eq!(switches.len(), 1);
    // The bridge forwards sender -> sink (the one-direction map the
    // experiment needs, like the paper's port-forwarding program).
    sim.switch_map(switches[0], 0, 1);

    assert_eq!(prov.node_id(a), Some(sender));
    assert_eq!(prov.node_id(b), Some(sink));

    sim.wake_app(sender, MS);
    sim.run_to_idle();
    sim.with_app::<Sink, _>(sink, |s| s.got.clone())
}

#[test]
fn smart_nic_slice_carries_traffic() {
    let got = run_slice(NicKind::SmartConnectX6, NicKind::SmartConnectX6, 500);
    assert_eq!(got.len(), 500, "no loss on a clean slice");
    // FIFO on a single path.
    assert!(got.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn shared_vf_slice_carries_traffic() {
    let got = run_slice(NicKind::SharedVf, NicKind::SharedVf, 500);
    assert_eq!(got.len(), 500);
}

#[test]
fn mixed_slice_is_deterministic() {
    let a = run_slice(NicKind::SmartConnectX5, NicKind::SharedVf, 200);
    let b = run_slice(NicKind::SmartConnectX5, NicKind::SharedVf, 200);
    assert_eq!(a, b);
}
