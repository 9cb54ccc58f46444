//! Pinned deliveries and fabric state for every fabric model.
//!
//! Seeded random traffic runs through the packet [`Network`], through
//! [`FluidFabric`] (with the coalescing quantum at zero and at its
//! default) and through [`HybridFabric`]. Every [`Delivery`] is folded
//! into an FNV-1a hash together with the flow ledger and the hybrid's
//! send split. A second hash pins what the fabric reports afterwards:
//! its conservation ledger, its per-reason drop counts, the statistics
//! of every link at the final send time, and the bounded packet trace
//! of the run. The
//! traffic covers plane widening (random path ids per flow), idle
//! retirement followed by re-opening the same flow keys, a fault plan
//! with link down/up, flat loss and a degradation ramp, and an incast
//! destination that forces escalation.
//!
//! The fluid and hybrid delivery hashes were recorded from the
//! `BTreeMap`-backed flow tables, before the flow table became a slab
//! with a hashed index; the packet delivery hash and every state hash
//! were recorded while each model still kept its own link table, fault
//! applier and trace. They must never change: a drift means a refactor
//! altered what the transport or a report observes, down to one bit.

use stellar_net::{
    ClosConfig, ClosTopology, Delivery, DropReason, Fabric, FaultEvent, FaultPlan, FluidConfig,
    FluidFabric, HybridConfig, HybridFabric, LinkId, Network, NetworkConfig, NicId,
};
use stellar_sim::{SimDuration, SimRng, SimTime};

/// One injected packet: `(now, src, dst, flow, path_id, bytes)`.
type Send = (SimTime, NicId, NicId, u64, u32, u64);

/// A flow's `(src, dst, flow id)`.
type Key = (NicId, NicId, u64);

/// Phases of traffic, each far enough past the previous one for every
/// flow to idle out; the last starts after BGP convergence so the
/// downed link reroutes instead of blackholing.
const PHASE_START_US: [u64; 3] = [0, 2_000, 300_000];
const SENDS_PER_PHASE: usize = 2_500;
const BURST: usize = 600;
/// Trace bound: below the send count, so the bound itself is pinned.
const TRACE_LIMIT: usize = 5_000;

fn topo() -> ClosTopology {
    ClosTopology::build(ClosConfig {
        segments: 2,
        hosts_per_segment: 8,
        rails: 2,
        planes: 2,
        aggs_per_plane: 4,
    })
}

fn us(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(n)
}

/// The flow keys: a random pool plus six sources fanning into NIC 0.
fn keys(topo: &ClosTopology, rng: &mut SimRng) -> (Vec<Key>, Vec<Key>) {
    let hosts = topo.total_hosts() as u64;
    let rails = topo.config().rails as u64;
    let mut pool = Vec::new();
    while pool.len() < 40 {
        let rail = rng.below(rails) as usize;
        let a = rng.below(hosts) as usize;
        let b = rng.below(hosts) as usize;
        if a != b {
            pool.push((topo.nic(a, rail), topo.nic(b, rail), rng.below(8)));
        }
    }
    let sink = topo.nic(0, 0);
    let incast = (1..7)
        .map(|h| (topo.nic(h * 2, 0), sink, 100 + h as u64))
        .collect();
    (pool, incast)
}

fn traffic(topo: &ClosTopology, seed: u64) -> Vec<Send> {
    let mut rng = SimRng::from_seed(seed);
    let (pool, incast) = keys(topo, &mut rng);
    let mut sends = Vec::new();
    for (phase, &start) in PHASE_START_US.iter().enumerate() {
        let mut now = us(start);
        for i in 0..SENDS_PER_PHASE {
            if i == SENDS_PER_PHASE / 2 {
                // A back-to-back burst deep enough to ECN-mark and then
                // overflow the flow's virtual (or real) port buffer.
                let (src, dst, flow) = pool[phase];
                for p in 0..BURST {
                    sends.push((now, src, dst, flow, p as u32 % 2, 4096));
                }
            }
            now += SimDuration::from_nanos(rng.below(120));
            let &(src, dst, flow) = if rng.chance(0.15) {
                rng.choice(&incast)
            } else {
                rng.choice(&pool)
            };
            let bytes = if rng.chance(0.8) {
                4096
            } else {
                rng.range(64, 4096)
            };
            sends.push((now, src, dst, flow, rng.below(16) as u32, bytes));
        }
    }
    sends
}

/// Faults on links that the traffic actually crosses: a ToR uplink of
/// a pool flow goes down, a pool source's NIC uplink turns lossy, and
/// the incast sink's downlink degrades.
fn fault_plan(topo: &ClosTopology, seed: u64) -> FaultPlan {
    let mut rng = SimRng::from_seed(seed);
    let (pool, incast) = keys(topo, &mut rng);
    let uplink = |i: usize| -> LinkId {
        let (src, dst, flow) = pool[i];
        let route = topo.route(src, dst, flow, 0);
        route[route.len() / 2 - 1]
    };
    let nic_uplink = topo.route(pool[2].0, pool[2].1, pool[2].2, 0)[0];
    let sink_downlink = {
        let (src, dst, flow) = incast[0];
        *topo.route(src, dst, flow, 0).last().unwrap()
    };
    FaultPlan::new(7)
        .link_down(us(20), uplink(0))
        .link_up(us(300_050), uplink(0))
        .link_down(us(40), uplink(1))
        .link_up(us(80), uplink(1))
        .at(
            us(10),
            FaultEvent::SetLoss {
                link: nic_uplink,
                p: 0.2,
            },
        )
        .at(
            us(2_100),
            FaultEvent::SetLoss {
                link: nic_uplink,
                p: 0.0,
            },
        )
        .degrade(
            us(2_020),
            sink_downlink,
            0.0,
            0.5,
            SimDuration::from_micros(50),
        )
        .at(
            us(300_100),
            FaultEvent::SetLoss {
                link: sink_downlink,
                p: 0.0,
            },
        )
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn delivery(h: &mut Fnv, d: Delivery) {
    match d {
        Delivery::Delivered { at, ecn } => {
            h.word(0);
            h.word(at.as_nanos());
            h.word(ecn as u64);
        }
        Delivery::Dropped { link, reason, at } => {
            h.word(1);
            h.word(link.0 as u64);
            h.word(DropReason::ALL.iter().position(|&r| r == reason).unwrap() as u64);
            h.word(at.as_nanos());
        }
    }
}

/// Run the seeded traffic with tracing on. Returns the delivery hash
/// and the state hash (see the module docs).
fn drive<F: Fabric>(fabric: &mut F, seed: u64) -> (Fnv, u64) {
    let plan = fault_plan(fabric.topology(), seed);
    let sends = traffic(fabric.topology(), seed);
    let end = sends.last().unwrap().0;
    fabric.install_fault_plan(plan);
    fabric.enable_trace(TRACE_LIMIT);
    let mut h = Fnv::new();
    for (now, src, dst, flow, path_id, bytes) in sends {
        delivery(&mut h, fabric.send(now, src, dst, flow, path_id, bytes));
    }
    (h, state_hash(fabric, end))
}

/// Ledgers, drops by reason, every link's stats at `end`, and the trace.
fn state_hash<F: Fabric>(fabric: &mut F, end: SimTime) -> u64 {
    let mut h = Fnv::new();
    let ((ip, ib), (dp, db)) = (fabric.injected(), fabric.delivered());
    for w in [ip, ib, dp, db] {
        h.word(w);
    }
    for r in DropReason::ALL {
        h.word(fabric.drops_by_reason(r));
    }
    for l in 0..fabric.topology().total_links() {
        let s = fabric.link_stats(LinkId(l as u32), end);
        for w in [
            s.tx_bytes,
            s.tx_packets,
            s.drops,
            s.ecn_marks,
            s.max_queue_bytes,
            s.avg_queue_bytes.to_bits(),
        ] {
            h.word(w);
        }
    }
    let trace = fabric.take_trace();
    h.word(trace.len() as u64);
    for r in trace {
        for w in [
            r.sent.as_nanos(),
            r.src.0 as u64,
            r.dst.0 as u64,
            r.flow,
            r.path_id as u64,
            r.bytes,
        ] {
            h.word(w);
        }
        delivery(&mut h, r.delivery);
    }
    h.0
}

fn packet_hash(seed: u64) -> (u64, u64) {
    let mut n = Network::new(topo(), NetworkConfig::default(), SimRng::from_seed(seed));
    let (h, state) = drive(&mut n, seed);
    (h.0, state)
}

fn fluid_hash(quantum: SimDuration, seed: u64) -> (u64, u64) {
    let mut f = FluidFabric::new(
        topo(),
        NetworkConfig::default(),
        FluidConfig {
            recompute_quantum: quantum,
            ..FluidConfig::default()
        },
        SimRng::from_seed(seed),
    );
    let (mut h, state) = drive(&mut f, seed);
    let (opened, retired, active) = f.flow_ledger();
    for w in [opened, retired, active as u64] {
        h.word(w);
    }
    (h.0, state)
}

fn hybrid_hash(seed: u64) -> (u64, u64) {
    let mut f = HybridFabric::new(
        topo(),
        NetworkConfig::default(),
        HybridConfig::default(),
        SimRng::from_seed(seed),
    );
    let (mut h, state) = drive(&mut f, seed);
    let (opened, retired, active) = f.fluid().flow_ledger();
    let (pkt, fluid, esc) = f.send_split();
    for w in [opened, retired, active as u64, pkt, fluid, esc] {
        h.word(w);
    }
    (h.0, state)
}

/// Run `hash` on seeds 0 and 1 and split the delivery and state hashes.
fn pins(hash: impl Fn(u64) -> (u64, u64)) -> ([u64; 2], [u64; 2]) {
    let (a, b) = (hash(0), hash(1));
    ([a.0, b.0], [a.1, b.1])
}

#[test]
fn packet_deliveries_and_state_are_pinned() {
    let (got, state) = pins(packet_hash);
    assert_eq!(
        got,
        [0x256f_adeb_541b_65a9, 0xe094_4f43_fefa_bda3],
        "got {got:#x?}"
    );
    assert_eq!(
        state,
        [0x86f5_63de_8166_ab59, 0x9319_2236_4944_679a],
        "state {state:#x?}"
    );
}

#[test]
fn fluid_zero_quantum_deliveries_are_pinned() {
    let (got, state) = pins(|seed| fluid_hash(SimDuration::ZERO, seed));
    assert_eq!(
        got,
        [0x7e63_d0cf_8e5f_047c, 0x5093_40e9_6fc0_95b4],
        "got {got:#x?}"
    );
    assert_eq!(
        state,
        [0x7850_1ad6_0db6_b6c2, 0xdc95_42ee_3d7d_05f7],
        "state {state:#x?}"
    );
}

#[test]
fn fluid_default_quantum_deliveries_are_pinned() {
    let q = FluidConfig::default().recompute_quantum;
    let (got, state) = pins(|seed| fluid_hash(q, seed));
    assert_eq!(
        got,
        [0xf8e3_94d7_96b3_df0b, 0x9892_c40e_6219_c326],
        "got {got:#x?}"
    );
    assert_eq!(
        state,
        [0xc253_b10f_28cb_a59d, 0x0e29_d749_a00b_b8d6],
        "state {state:#x?}"
    );
}

#[test]
fn hybrid_deliveries_are_pinned() {
    let (got, state) = pins(hybrid_hash);
    assert_eq!(
        got,
        [0x1082_c596_f54d_77d4, 0x38ca_37b9_fa45_7cf2],
        "got {got:#x?}"
    );
    assert_eq!(
        state,
        [0x154f_7c81_74ce_a416, 0xc8cc_02a9_4832_9d13],
        "state {state:#x?}"
    );
}
