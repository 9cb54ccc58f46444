//! Link state and packet forwarding.
//!
//! Each directed link (egress port) keeps a *calendar*: the time at which
//! it next falls idle. Forwarding a packet across its route is a single
//! pass over the hops:
//!
//! ```text
//! arrive(h+1) = max(arrive(h), port_free(h)) + tx_time + propagation
//! ```
//!
//! The backlog at a hop — `(port_free − arrive) × rate` — is the queue the
//! packet joins: it drives ECN marking (above the threshold) and tail drops
//! (above the buffer size), and is recorded in a per-port [`Gauge`] for
//! the Fig. 9 queue-depth plots. The model is exact for FIFO ports as long
//! as packets are injected in global time order, which the transport's
//! event loop guarantees.

use stellar_sim::stats::Gauge;
use stellar_sim::{transmit_time, SimDuration, SimRng, SimTime};
use stellar_telemetry::{event, stage_sample, Entity, Stage, Subsystem};

use crate::core::{Core, Ledger, Model, ModelFabric, Packet};
use crate::fabric::FabricKind;
use crate::topology::{ClosTopology, LinkId, NicId, Route};

/// Link rate in Gbps (every port; HPN links are uniform).
pub(crate) const LINK_GBPS: f64 = 200.0;
/// Per-link propagation + switch pipeline delay.
pub(crate) const HOP_DELAY: SimDuration = SimDuration::from_micros(1);
/// ECN marking threshold per port, in bytes of backlog (~100 KB).
pub(crate) const ECN_THRESHOLD_BYTES: u64 = 100 * 1024;
/// Port buffer size in bytes (2 MB deep-buffer ports; tail drop beyond
/// this backlog).
pub(crate) const BUFFER_BYTES: u64 = 2 * 1024 * 1024;

/// Fabric-wide control-plane parameters. The link parameters are fixed
/// (`LINK_GBPS`, `HOP_DELAY`, `ECN_THRESHOLD_BYTES`, `BUFFER_BYTES`).
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Control-plane (BGP) convergence delay: how long after a link goes
    /// down the fabric starts routing around it (§7.2: "Over the long
    /// term, the control plane (e.g., BGP) detects the failure and
    /// reroutes traffic"). Until then, packets hashed onto the dead link
    /// blackhole and the transport's RTO must recover them.
    pub bgp_convergence: SimDuration,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            bgp_convergence: SimDuration::from_millis(200),
        }
    }
}

/// Why a packet was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Tail drop: the egress buffer was full.
    BufferOverflow,
    /// Injected random loss (Fig. 11 failure experiments).
    RandomLoss,
    /// The link is administratively or physically down (dead link).
    LinkDown,
    /// Loss from a degrading optical module (an active
    /// [`crate::FaultEvent::DegradeRamp`]), distinct from flat random
    /// loss: the probability is time-dependent and signals failing
    /// hardware rather than congestion-unrelated noise.
    DegradedLink,
}

impl DropReason {
    /// Stable snake_case name used by the telemetry counter taxonomy
    /// (`drop.<name>`) and trace events.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::BufferOverflow => "buffer_overflow",
            DropReason::RandomLoss => "random_loss",
            DropReason::LinkDown => "link_down",
            DropReason::DegradedLink => "degraded_link",
        }
    }

    /// The telemetry hub counter name for this reason.
    pub(crate) fn counter(self) -> &'static str {
        match self {
            DropReason::BufferOverflow => "drop.buffer_overflow",
            DropReason::RandomLoss => "drop.random_loss",
            DropReason::LinkDown => "drop.link_down",
            DropReason::DegradedLink => "drop.degraded_link",
        }
    }

    /// Dense index for per-reason counters.
    pub(crate) fn index(self) -> usize {
        match self {
            DropReason::BufferOverflow => 0,
            DropReason::RandomLoss => 1,
            DropReason::LinkDown => 2,
            DropReason::DegradedLink => 3,
        }
    }

    /// Every reason, in counter order.
    pub const ALL: [DropReason; 4] = [
        DropReason::BufferOverflow,
        DropReason::RandomLoss,
        DropReason::LinkDown,
        DropReason::DegradedLink,
    ];
}

/// The fate of one forwarded packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered to the destination NIC.
    Delivered {
        /// Arrival time at the destination.
        at: SimTime,
        /// Whether any hop marked ECN.
        ecn: bool,
    },
    /// Lost in transit.
    Dropped {
        /// The link where it died.
        link: LinkId,
        /// Why.
        reason: DropReason,
        /// When.
        at: SimTime,
    },
}

impl Delivery {
    /// The arrival time if delivered.
    pub fn arrival(&self) -> Option<SimTime> {
        match self {
            Delivery::Delivered { at, .. } => Some(*at),
            Delivery::Dropped { .. } => None,
        }
    }

    /// Whether the packet was ECN-marked.
    pub fn is_ecn(&self) -> bool {
        matches!(self, Delivery::Delivered { ecn: true, .. })
    }
}

/// Per-link statistics snapshot.
#[derive(Debug, Clone)]
pub struct LinkStats {
    /// Total bytes transmitted.
    pub tx_bytes: u64,
    /// Total packets transmitted.
    pub tx_packets: u64,
    /// Packets dropped at this port.
    pub drops: u64,
    /// Packets ECN-marked at this port.
    pub ecn_marks: u64,
    /// Maximum queue backlog seen, in bytes.
    pub max_queue_bytes: u64,
    /// Time-weighted average backlog, in bytes.
    pub avg_queue_bytes: f64,
}

/// One traced packet (the fabric's pcap analogue).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Injection time.
    pub sent: SimTime,
    /// Source NIC.
    pub src: NicId,
    /// Destination NIC.
    pub dst: NicId,
    /// Flow id.
    pub flow: u64,
    /// Path id the transport chose.
    pub path_id: u32,
    /// Payload bytes.
    pub bytes: u64,
    /// What happened.
    pub delivery: Delivery,
}

/// The packet-level calendar model: per-port calendars and queue gauges
/// over the shared link table. See the module docs.
#[derive(Debug)]
pub struct PacketModel {
    /// When each egress port next falls idle, by link id. Apart from the
    /// gauges, because the hybrid classifier reads only this, on every
    /// send, for every hop. Empty until the first forwarded packet (for
    /// the hybrid, its first escalation); every port is idle until then.
    next_free: Vec<SimTime>,
    /// Each port's queue-depth gauge, by link id; allocated with
    /// `next_free`, and every gauge reads zero until then.
    queues: Vec<Gauge>,
    rng: SimRng,
    ledger: Ledger,
}

impl PacketModel {
    pub(crate) fn new(rng: SimRng) -> Self {
        PacketModel {
            next_free: Vec::new(),
            queues: Vec::new(),
            rng,
            ledger: Ledger::default(),
        }
    }

    /// Current backlog of a port in bytes at time `now`.
    pub(crate) fn backlog_bytes(&self, link: LinkId, now: SimTime) -> u64 {
        let Some(next_free) = self.next_free.get(link.0 as usize) else {
            return 0;
        };
        let wait = next_free.saturating_duration_since(now);
        (wait.as_nanos() as f64 * LINK_GBPS / 8.0) as u64
    }

    /// Whether the port calendars and gauges exist yet.
    #[cfg(test)]
    pub(crate) fn allocated(&self) -> bool {
        !self.next_free.is_empty() || !self.queues.is_empty()
    }

    fn forward(&mut self, core: &mut Core, p: &Packet, route: Route) -> Delivery {
        let Packet { now, bytes, .. } = *p;
        if route.is_empty() {
            // Host-local: PCIe/NVLink latency only.
            return Delivery::Delivered {
                at: now + HOP_DELAY,
                ecn: false,
            };
        }
        let route = core.reroute(p, route);
        if self.next_free.is_empty() {
            let links = core.topo.total_links();
            self.next_free = vec![SimTime::ZERO; links];
            self.queues = vec![Gauge::new(SimTime::ZERO); links];
        }
        let fault_free = core.fault_free();
        let mut t = now;
        let mut ecn = false;
        let bytes_per_ns = LINK_GBPS / 8.0;
        // Every hop serializes the same payload at the same line rate, so
        // the f64 division runs once per packet, not once per link.
        let serialize = transmit_time(bytes, LINK_GBPS);
        for &link in &route {
            let dropped = move |reason| Delivery::Dropped {
                link,
                reason,
                at: t,
            };
            // A fault-free fabric has nothing to screen, and no draw to
            // make: only a lossy or degrading link draws.
            if !fault_free {
                let state = core.link(link);
                if !state.up() {
                    return dropped(DropReason::LinkDown);
                }
                // Degrading-optics loss first (time-dependent), then flat
                // random loss — separate draws keep the two
                // distinguishable in the DropReason taxonomy and leave the
                // RNG stream of ramp-free runs untouched.
                if let Some(ramp) = state.degrade() {
                    let loss = ramp.loss_at(t);
                    if loss > 0.0 && self.rng.chance(loss) {
                        return dropped(DropReason::DegradedLink);
                    }
                }
                let loss = state.loss_prob();
                if loss > 0.0 && self.rng.chance(loss) {
                    return dropped(DropReason::RandomLoss);
                }
            }
            // Backlog ahead of us on this port, in bytes.
            let (next_free, queue) = (
                &mut self.next_free[link.0 as usize],
                &mut self.queues[link.0 as usize],
            );
            let wait = next_free.saturating_duration_since(t);
            let backlog = (wait.as_nanos() as f64 * bytes_per_ns) as u64;
            if backlog + bytes > BUFFER_BYTES {
                queue.set(t, backlog);
                return dropped(DropReason::BufferOverflow);
            }
            let marked = backlog > ECN_THRESHOLD_BYTES;
            if marked {
                ecn = true;
                self.ledger.ecn_marks += 1;
            }
            if wait > SimDuration::ZERO {
                // Time this packet spends queued behind the port backlog.
                stage_sample(Stage::FabricQueueing, wait);
            }
            let start = if *next_free > t { *next_free } else { t };
            let depart = start + serialize;
            queue.set(t, backlog + bytes);
            *next_free = depart;
            core.transmit(link, bytes, marked);
            t = depart + HOP_DELAY;
        }
        Delivery::Delivered { at: t, ecn }
    }
}

impl Model for PacketModel {
    const KIND: FabricKind = FabricKind::Packet;

    #[inline]
    fn send(&mut self, core: &mut Core, p: &Packet, route: Route) -> Delivery {
        let delivery = self.forward(core, p, route);
        core.book(&mut self.ledger, p.bytes, delivery);
        if let Delivery::Dropped { link, reason, at } = delivery {
            event(
                at,
                Subsystem::Net,
                Entity::Link(link.0),
                reason.name(),
                p.bytes,
            );
        }
        delivery
    }

    fn port_queue(&self, link: LinkId, now: SimTime) -> (u64, f64) {
        match self.queues.get(link.0 as usize) {
            Some(queue) => (queue.max(), queue.time_avg(now)),
            None => (0, 0.0),
        }
    }

    fn tor_uplink_queue_stats(&self, topo: &ClosTopology, now: SimTime) -> (f64, u64) {
        let uplinks = topo.tor_uplinks();
        let mut sum_avg = 0.0;
        let mut max = 0u64;
        for l in &uplinks {
            let (port_max, port_avg) = self.port_queue(*l, now);
            sum_avg += port_avg;
            max = max.max(port_max);
        }
        (sum_avg / uplinks.len() as f64, max)
    }

    fn ledger(&self) -> Ledger {
        self.ledger
    }

    fn check_invariants(&self, at: SimTime) {
        stellar_check::at_quiesce(at, stellar_check::Layer::Net, |c| self.ledger.check(c));
    }
}

/// The packet-level fabric: the shared core plus per-port calendars.
pub type Network = ModelFabric<PacketModel>;

impl Network {
    /// A fabric over `topo` with uniform `config`, using `rng` for loss
    /// injection.
    pub fn new(topo: ClosTopology, config: NetworkConfig, rng: SimRng) -> Self {
        ModelFabric {
            core: Core::new(topo, config),
            model: PacketModel::new(rng),
        }
    }

    /// Current backlog of a link in bytes at time `now`.
    pub fn backlog_bytes(&self, link: LinkId, now: SimTime) -> u64 {
        self.model.backlog_bytes(link, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClosConfig;
    use crate::Fabric;

    fn net() -> Network {
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 2,
            planes: 2,
            aggs_per_plane: 4,
        });
        Network::new(topo, NetworkConfig::default(), SimRng::from_seed(1))
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    #[test]
    fn uncongested_delivery_time_is_hops_plus_wire() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0); // cross-segment: 4 hops
        let d = n.send(t(0), src, dst, 1, 0, 4096);
        let at = d.arrival().unwrap();
        // 4 hops × (1 µs + 163.84 ns) ≈ 4.66 µs.
        let expect_ns = 4 * (1000 + 164);
        let got = at.as_nanos();
        assert!(
            (got as i64 - expect_ns as i64).abs() < 10,
            "got {got} expect {expect_ns}"
        );
        assert!(!d.is_ecn());
    }

    #[test]
    fn backlog_accumulates_and_marks_ecn() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(1, 0); // same ToR
                                          // Blast 4 KB packets at t=0: they serialize on the NIC uplink.
        let mut ecn_seen = false;
        for _ in 0..100 {
            let d = n.send(t(0), src, dst, 7, 0, 4096);
            ecn_seen |= d.is_ecn();
            assert!(d.arrival().is_some());
        }
        assert!(ecn_seen, "deep backlog should ECN-mark");
        let up = n.topology().route(src, dst, 7, 0)[0];
        assert!(n.backlog_bytes(up, t(0)) > 100 * 1024);
        let stats = n.link_stats(up, t(0));
        assert!(stats.ecn_marks > 0);
        assert_eq!(stats.tx_packets, 100);
    }

    #[test]
    fn buffer_overflow_drops() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(1, 0);
        let mut dropped = 0;
        for _ in 0..1000 {
            if let Delivery::Dropped { reason, .. } = n.send(t(0), src, dst, 7, 0, 4096) {
                assert_eq!(reason, DropReason::BufferOverflow);
                dropped += 1;
            }
        }
        assert!(dropped > 0, "2 MB buffer cannot hold 4 MB burst");
    }

    #[test]
    fn queues_drain_over_time() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(1, 0);
        for _ in 0..50 {
            n.send(t(0), src, dst, 7, 0, 4096);
        }
        let up = n.topology().route(src, dst, 7, 0)[0];
        let b0 = n.backlog_bytes(up, t(0));
        let b_later = n.backlog_bytes(up, t(5));
        assert!(b_later < b0);
        // 50 × 4096 B at 200 Gbps ≈ 8.2 µs to drain fully.
        assert_eq!(n.backlog_bytes(up, t(10)), 0);
    }

    #[test]
    fn random_loss_injection() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        let lossy = n.topology().route(src, dst, 1, 0)[1];
        n.set_loss(lossy, 0.5);
        let mut drops = 0;
        for i in 0..200 {
            // Spread in time to avoid buffer effects.
            if let Delivery::Dropped { reason, link, .. } = n.send(t(i * 10), src, dst, 1, 0, 1024)
            {
                assert_eq!(reason, DropReason::RandomLoss);
                assert_eq!(link, lossy);
                drops += 1;
            }
        }
        assert!((60..140).contains(&drops), "drops={drops}");
    }

    #[test]
    fn downed_link_drops_until_bgp_converges() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        let link = n.topology().route(src, dst, 1, 0)[1];
        n.set_link_state_at(t(100), link, false);
        // Before convergence: blackhole (RTO must recover).
        let d = n.send(t(200), src, dst, 1, 0, 1024);
        assert!(matches!(
            d,
            Delivery::Dropped {
                reason: DropReason::LinkDown,
                ..
            }
        ));
        // Other paths still work meanwhile.
        let ok = (1..32).any(|p| n.send(t(201), src, dst, 1, p, 1024).arrival().is_some());
        assert!(ok);
        // After convergence the control plane routes around the failure:
        // the same path id now delivers.
        let after = t(100) + n.config().bgp_convergence + SimDuration::from_micros(1);
        let d2 = n.send(after, src, dst, 1, 0, 1024);
        assert!(d2.arrival().is_some(), "converged reroute must deliver");
        // Flapping back up restores the original route.
        n.set_link_state_at(after, link, true);
        assert!(n
            .send(after + SimDuration::from_micros(1), src, dst, 1, 0, 1024)
            .arrival()
            .is_some());
    }

    #[test]
    fn spraying_reduces_uplink_imbalance() {
        // Two runs: single-path vs 128-path spray, same flows.
        let run = |paths: u32| -> f64 {
            let mut n = net();
            let pairs = [(0usize, 4usize), (1, 5), (2, 6), (3, 7)];
            for step in 0..400u64 {
                for (i, &(a, b)) in pairs.iter().enumerate() {
                    let src = n.topology().nic(a, 0);
                    let dst = n.topology().nic(b, 0);
                    let path = (step % paths as u64) as u32;
                    n.send(t(step), src, dst, i as u64, path, 4096);
                }
            }
            n.tor_uplink_imbalance()
        };
        let single = run(1);
        let sprayed = run(128);
        assert!(
            sprayed < single,
            "spray {sprayed} should beat single {single}"
        );
    }

    #[test]
    fn packet_trace_records_and_bounds() {
        let mut n = net();
        n.enable_trace(5);
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        for i in 0..10 {
            n.send(t(i), src, dst, 3, i as u32, 4096);
        }
        let trace = n.take_trace();
        assert_eq!(trace.len(), 5, "trace must stop at its bound");
        assert_eq!(trace[0].flow, 3);
        assert_eq!(trace[0].bytes, 4096);
        assert!(trace[0].delivery.arrival().is_some());
        // Tracing is now off; further sends record nothing.
        n.send(t(100), src, dst, 3, 0, 4096);
        assert!(n.take_trace().is_empty());
    }

    #[test]
    fn fault_plan_executes_on_the_sim_clock() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        let link = n.topology().route(src, dst, 1, 0)[1];
        n.install_fault_plan(
            crate::FaultPlan::new(1)
                .link_down(t(100), link)
                .link_up(t(300), link),
        );
        assert_eq!(n.pending_fault_events(), 2);
        // Before the scheduled failure: delivers.
        assert!(n.send(t(50), src, dst, 1, 0, 1024).arrival().is_some());
        // Inside the down window: dead link.
        let d = n.send(t(150), src, dst, 1, 0, 1024);
        assert!(matches!(
            d,
            Delivery::Dropped {
                reason: DropReason::LinkDown,
                ..
            }
        ));
        assert_eq!(n.drops_by_reason(DropReason::LinkDown), 1);
        // After the scheduled recovery: the same path delivers again.
        assert!(n.send(t(400), src, dst, 1, 0, 1024).arrival().is_some());
        assert_eq!(n.pending_fault_events(), 0);
    }

    #[test]
    fn fault_plan_down_since_uses_event_time_not_send_time() {
        // The first packet arrives long after the scheduled failure; BGP
        // convergence must be clocked from the fault, so the reroute is
        // already active.
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        let link = n.topology().route(src, dst, 1, 0)[1];
        n.install_fault_plan(crate::FaultPlan::new(1).link_down(t(10), link));
        let after = t(10) + n.config().bgp_convergence + SimDuration::from_micros(1);
        assert!(
            n.send(after, src, dst, 1, 0, 1024).arrival().is_some(),
            "convergence clock must start at the scheduled fault time"
        );
    }

    #[test]
    fn degrade_ramp_loss_grows_over_the_window() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        let link = n.topology().route(src, dst, 1, 0)[1];
        n.install_fault_plan(crate::FaultPlan::new(2).degrade(
            t(0),
            link,
            0.0,
            0.5,
            SimDuration::from_micros(1000),
        ));
        // Early in the ramp: low loss. Late: approaches 50%.
        let mut early = 0;
        let mut late = 0;
        for i in 0..200u64 {
            if n.send(t(i), src, dst, 1, 0, 64).arrival().is_none() {
                early += 1;
            }
        }
        for i in 0..200u64 {
            if n.send(t(2000 + i), src, dst, 1, 0, 64).arrival().is_none() {
                late += 1;
            }
        }
        assert!(late > early + 20, "early={early} late={late}");
        assert!(n.drops_by_reason(DropReason::DegradedLink) > 0);
        assert_eq!(n.drops_by_reason(DropReason::RandomLoss), 0);
        let ramp = *n.core.link(link).degrade().unwrap();
        assert!((ramp.loss_at(t(2000)) - 0.5).abs() < 1e-9);
        assert!(ramp.loss_at(t(500)) < 0.3);
    }

    #[test]
    fn switch_death_kills_all_attached_links_atomically() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        // Find the agg switch that (flow 1, path 0) crosses and kill it.
        let uplink = n.topology().route(src, dst, 1, 0)[1];
        let (_, agg) = n.topology().link_endpoints(uplink);
        assert!(matches!(
            n.topology().node_kind(agg),
            crate::NodeKind::Agg { .. }
        ));
        n.install_fault_plan(crate::FaultPlan::new(3).switch_down(t(10), agg));
        let d = n.send(t(20), src, dst, 1, 0, 64);
        assert!(matches!(
            d,
            Delivery::Dropped {
                reason: DropReason::LinkDown,
                ..
            }
        ));
        // Every link touching the switch is down, so the reverse path
        // through it is dead too — but other aggs still carry traffic.
        let ok = (1..32).any(|p| n.send(t(21), src, dst, 1, p, 64).arrival().is_some());
        assert!(ok, "other aggregation switches must survive");
    }

    #[test]
    fn nic_port_failure_blackholes_one_plane() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        // Find a path on plane 0 and one on plane 1 of the source NIC.
        let mut by_plane = [None, None];
        for p in 0..32 {
            let up0 = n.topology().route(src, dst, 1, p)[0];
            for (plane, slot) in by_plane.iter_mut().enumerate() {
                if up0 == n.topology().nic_port_links(src, plane).0 {
                    slot.get_or_insert(p);
                }
            }
        }
        let (p0, p1) = (by_plane[0].unwrap(), by_plane[1].unwrap());
        n.install_fault_plan(crate::FaultPlan::new(4).nic_port_down(t(5), src, 0));
        assert!(n.send(t(10), src, dst, 1, p0, 64).arrival().is_none());
        assert!(
            n.send(t(10), src, dst, 1, p1, 64).arrival().is_some(),
            "the other plane's port must stay up"
        );
    }

    #[test]
    fn control_rtt_component_scales_with_hops() {
        let n = net();
        let near = n.control_rtt_component(n.topology().nic(0, 0), n.topology().nic(1, 0));
        let far = n.control_rtt_component(n.topology().nic(0, 0), n.topology().nic(4, 0));
        assert!(far > near);
    }

    #[test]
    fn loopback_delivery() {
        let mut n = net();
        let nic = n.topology().nic(0, 0);
        let d = n.send(t(0), nic, nic, 1, 0, 4096);
        assert!(d.arrival().is_some());
    }

    #[test]
    fn conservation_invariants_hold_under_loss_and_faults() {
        // A run that exercises every outcome class — deliveries, random
        // loss, dead-link drops, buffer overflows — must balance the
        // injected/delivered/dropped ledgers exactly.
        stellar_check::strict(|| {
            let mut n = net();
            let src = n.topology().nic(0, 0);
            let dst = n.topology().nic(4, 0);
            let lossy = n.topology().route(src, dst, 1, 0)[1];
            n.set_loss(lossy, 0.3);
            n.install_fault_plan(crate::FaultPlan::new(9).link_down(t(500), lossy));
            for i in 0..400u64 {
                n.send(t(i * 2), src, dst, 1, (i % 4) as u32, 4096);
            }
            n.check_invariants(t(800));
            let (inj_p, inj_b) = n.injected();
            let (del_p, del_b) = n.delivered();
            assert_eq!(inj_p, 400);
            assert_eq!(inj_b, 400 * 4096);
            let drops: u64 = DropReason::ALL.iter().map(|&r| n.drops_by_reason(r)).sum();
            assert!(drops > 0, "loss must have bitten");
            assert_eq!(del_p + drops, inj_p);
            assert!(del_b < inj_b);
        });
    }
}
