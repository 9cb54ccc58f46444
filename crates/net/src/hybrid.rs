//! Hybrid fabric: packet fidelity where it matters, fluid speed
//! everywhere else.
//!
//! ATLAHS-style observation: in a cloud AI job almost all traffic is
//! *uncontested* — well-sprayed flows on healthy links whose behaviour
//! a fluid fair-share model predicts accurately — while the phenomena
//! that actually need packet-granularity modelling (incast pileups,
//! blackholing and lossy links, queues deep enough to ECN-mark) cluster
//! around a few *contested endpoints*. The hybrid fabric owns both
//! models and classifies every send:
//!
//! **Escalate to the packet model when**
//! 1. the route touches a link that is down, lossy, or degrading
//!    (fault fidelity: blackhole windows, per-packet loss draws), or
//! 2. the route touches a link whose packet-side backlog exceeds the
//!    ECN threshold (a queue hot enough to mark is a queue worth
//!    modelling), or
//! 3. the destination NIC is an incast port — at least
//!    `INCAST_THRESHOLD` (3) distinct flows are actively sending to it,
//!    or
//! 4. the flow was escalated before and is still active (stickiness:
//!    a flow's packets do not ping-pong between models, which would
//!    scramble its FIFO delivery order).
//!
//! Everything else rides the fluid model. Fluid-side ECN (a flow
//! exceeding its fair share) deliberately does **not** escalate: that
//! is steady-state congestion-control backpressure the fluid model
//! handles itself — escalating on it would collapse every saturating
//! collective onto the packet path and forfeit the scale win.
//!
//! Both models run on one shared core: one topology, one link table,
//! one fault applier and one trace, so either model can be the carrier
//! at any moment and link counters need no merging. Each model keeps
//! its own conservation ledger, checked separately.

use stellar_sim::{SimDuration, SimRng, SimTime};
use stellar_telemetry::{fold_counters, Subsystem};

use crate::core::{Core, Ledger, Model, ModelFabric, Packet};
use crate::fabric::FabricKind;
use crate::flow_map::FlowMap;
use crate::fluid::{FluidConfig, FluidModel, FLOW_IDLE_TIMEOUT};
use crate::network::{Delivery, NetworkConfig, PacketModel, ECN_THRESHOLD_BYTES};
use crate::topology::{ClosTopology, LinkId, Route};

/// Distinct active flows into one destination NIC before it counts as
/// an incast port (3 keeps 1:1 permutations and ring neighbours on the
/// fluid path while catching real N:1 fan-in).
const INCAST_THRESHOLD: usize = 3;

/// Hybrid-fabric knobs. The classifier's are fixed: `INCAST_THRESHOLD`,
/// and a flow with no traffic for the fluid model's idle timeout sheds
/// its escalation mark and its incast accounting.
#[derive(Debug, Clone, Default)]
pub struct HybridConfig {
    /// Fluid-model knobs for the uncontested path.
    pub fluid: FluidConfig,
}

#[derive(Debug, Clone, Copy)]
struct FlowMeta {
    last_active: SimTime,
    escalated: bool,
}

/// The hybrid classifier with both models it dispatches to. See the
/// module docs for the escalation rules.
#[derive(Debug)]
pub struct HybridModel {
    packet: PacketModel,
    fluid: FluidModel,
    /// Active-flow metadata by `(src, dst, flow)`, indexed by flow id.
    /// Nothing iterates it in an order that reaches an output: expiry
    /// only decrements integer counts.
    meta: FlowMap<FlowMeta>,
    /// Distinct active flows per destination NIC (incast detector).
    dst_flows: Vec<u32>,
    next_expiry_scan: SimTime,
    escalations: u64,
}

impl HybridModel {
    /// The packet model.
    #[cfg(test)]
    pub(crate) fn packet(&self) -> &PacketModel {
        &self.packet
    }

    /// Each model counts the sends it was handed.
    fn split(&self) -> (u64, u64, u64) {
        let (p, f) = (self.packet.ledger(), self.fluid.ledger());
        (p.injected_packets, f.injected_packets, self.escalations)
    }

    fn expire_meta(&mut self, now: SimTime) {
        if now < self.next_expiry_scan || self.meta.is_empty() {
            return;
        }
        self.next_expiry_scan =
            now + SimDuration::from_nanos((FLOW_IDLE_TIMEOUT.as_nanos() / 2).max(1));
        let timeout = FLOW_IDLE_TIMEOUT;
        let dst_flows = &mut self.dst_flows;
        self.meta.retain(|&(_, dst, _), m| {
            let idle = now.saturating_duration_since(m.last_active) >= timeout;
            if idle {
                dst_flows[dst as usize] -= 1;
            }
            !idle
        });
    }

    /// Whether the route touches a link that is down, lossy, degrading,
    /// or queued past the ECN threshold on the packet side. On a
    /// fault-free fabric only the backlog test can say yes.
    fn route_contested(packet: &PacketModel, core: &Core, now: SimTime, route: &[LinkId]) -> bool {
        let faults = !core.fault_free();
        route.iter().any(|&l| {
            (faults && core.link(l).faulty(now))
                || packet.backlog_bytes(l, now) > ECN_THRESHOLD_BYTES
        })
    }
}

impl Model for HybridModel {
    const KIND: FabricKind = FabricKind::Hybrid;

    fn send(&mut self, core: &mut Core, p: &Packet, route: Route) -> Delivery {
        let (meta, opened) = self
            .meta
            .get_or_insert_with((p.src.0, p.dst.0, p.flow), || FlowMeta {
                last_active: p.now,
                escalated: false,
            });
        if opened {
            self.dst_flows[p.dst.0 as usize] += 1;
        }
        meta.last_active = p.now;
        // Cheap per-flow state first (stickiness, incast), then the
        // route's fault and queue state.
        let contested = meta.escalated
            || self.dst_flows[p.dst.0 as usize] as usize >= INCAST_THRESHOLD
            || Self::route_contested(&self.packet, core, p.now, &route);
        if contested && !meta.escalated {
            meta.escalated = true;
            self.escalations += 1;
        }
        if contested {
            self.packet.send(core, p, route)
        } else {
            self.fluid.send(core, p, route)
        }
    }

    fn advance(&mut self, now: SimTime) {
        self.fluid.advance(now);
        self.expire_meta(now);
    }

    fn links_changed(&mut self) {
        self.fluid.links_changed();
    }

    fn port_queue(&self, link: LinkId, now: SimTime) -> (u64, f64) {
        // Per-port queues only exist in the packet model.
        self.packet.port_queue(link, now)
    }

    fn tor_uplink_queue_stats(&self, topo: &ClosTopology, now: SimTime) -> (f64, u64) {
        self.packet.tor_uplink_queue_stats(topo, now)
    }

    fn ledger(&self) -> Ledger {
        self.packet.ledger().plus(&self.fluid.ledger())
    }

    fn fold_counters(&self) {
        let (packet, fluid, escalations) = self.split();
        fold_counters(Subsystem::Net, || {
            [
                ("fabric.hybrid.escalation", escalations),
                ("fabric.hybrid.packet_send", packet),
                ("fabric.hybrid.fluid_send", fluid),
            ]
        });
        self.fluid.fold_counters();
    }

    fn check_invariants(&self, at: SimTime) {
        self.packet.check_invariants(at);
        self.fluid.check_invariants(at);
    }
}

/// The hybrid packet/fluid fabric: the shared core plus the hybrid
/// model. See the module docs for the escalation rules.
pub type HybridFabric = ModelFabric<HybridModel>;

impl HybridFabric {
    /// A hybrid fabric over `topo`. The packet and fluid models get
    /// independent RNG streams forked from `rng` (labels `"packet"` and
    /// `"fluid"`), so loss draws on one path never perturb the other.
    pub fn new(
        topo: ClosTopology,
        config: NetworkConfig,
        hybrid: HybridConfig,
        rng: SimRng,
    ) -> Self {
        let core = Core::new(topo, config);
        let model = HybridModel {
            packet: PacketModel::new(rng.fork("packet")),
            fluid: FluidModel::new(&core.topo, hybrid.fluid, rng.fork("fluid")),
            dst_flows: vec![0; core.topo.total_nics()],
            meta: FlowMap::default(),
            next_expiry_scan: SimTime::ZERO,
            escalations: 0,
        };
        ModelFabric { core, model }
    }

    /// `(packet sends, fluid sends, escalation events)` so far — the
    /// split that tells you whether the hybrid is earning its keep.
    pub fn send_split(&self) -> (u64, u64, u64) {
        self.model.split()
    }

    /// The fluid model (e.g. for its flow ledger).
    pub fn fluid(&self) -> &FluidModel {
        &self.model.fluid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::DropReason;
    use crate::topology::ClosConfig;
    use crate::Fabric;
    use stellar_telemetry::capture;

    fn topo() -> ClosTopology {
        ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 4,
        })
    }

    fn fabric() -> HybridFabric {
        HybridFabric::new(
            topo(),
            NetworkConfig::default(),
            HybridConfig::default(),
            SimRng::from_seed(5),
        )
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    #[test]
    fn healthy_one_to_one_traffic_rides_the_fluid_path() {
        let mut f = fabric();
        let src = f.topology().nic(0, 0);
        let dst = f.topology().nic(4, 0);
        for i in 0..32 {
            let d = f.send(t(i), src, dst, 1, i as u32, 4096);
            assert!(d.arrival().is_some());
        }
        let (pkt, fluid, esc) = f.send_split();
        assert_eq!(pkt, 0, "healthy 1:1 flow must not touch the packet model");
        assert_eq!(fluid, 32);
        assert_eq!(esc, 0);
    }

    #[test]
    fn incast_destination_escalates_to_packet_model() {
        let ((pkt, fluid, esc), tel) = capture(|| {
            let mut f = fabric();
            let dst = f.topology().nic(0, 0);
            for h in 1..6 {
                let src = f.topology().nic(h, 0);
                f.send(t(0), src, dst, h as u64, 0, 4096);
            }
            // An escalated flow stays on the packet model.
            let src = f.topology().nic(5, 0);
            f.send(t(1), src, dst, 5, 0, 4096);
            f.send_split()
        });
        // Flows 3..6 arrive after the threshold (3) is reached.
        assert!(
            pkt >= 2,
            "incast fan-in must escalate: split {:?}",
            (pkt, fluid, esc)
        );
        assert!(esc >= 2);
        // The fabric reports its split to telemetry when it drops.
        let hub = |name| tel.hub.get(Subsystem::Net, name);
        assert_eq!(hub("fabric.hybrid.packet_send"), pkt);
        assert_eq!(hub("fabric.hybrid.fluid_send"), fluid);
        assert_eq!(hub("fabric.hybrid.escalation"), esc);
        assert_eq!(hub("fabric.fluid.sent"), fluid);
        assert_eq!((pkt, fluid, esc), (4, 2, 3));
    }

    #[test]
    fn dead_link_escalates_and_drops_like_packet_model() {
        let mut f = fabric();
        let src = f.topology().nic(0, 0);
        let dst = f.topology().nic(4, 0);
        let link = f.topology().route(src, dst, 7, 0)[0];
        f.set_link_state_at(t(0), link, false);
        let d = f.send(t(1), src, dst, 7, 0, 4096);
        assert!(
            matches!(
                d,
                Delivery::Dropped {
                    reason: DropReason::LinkDown,
                    ..
                }
            ),
            "route over a dead link must blackhole pre-convergence: {d:?}"
        );
        let (pkt, fluid, _) = f.send_split();
        assert_eq!(pkt, 1);
        assert_eq!(fluid, 0);
        // Escalation is sticky: the same flow keeps the packet path
        // even on a live route slot.
        f.send(t(2), src, dst, 7, 1, 4096);
        assert_eq!(f.send_split().0, 2);
    }

    #[test]
    fn trace_keeps_send_order_across_halves_and_honours_the_limit() {
        let mut f = fabric();
        f.enable_trace(7);
        let sink = f.topology().nic(0, 0);
        let (a, b) = (f.topology().nic(6, 0), f.topology().nic(7, 0));
        let mut sent = Vec::new();
        // Every round sends at one timestamp: five incast flows (the last
        // two escalate once the sink counts three) interleaved with a
        // healthy 1:1 flow that stays on the fluid path.
        for round in 0..2 {
            for h in 1..6 {
                let src = f.topology().nic(h, 0);
                f.send(t(round), src, sink, h as u64, 0, 4096);
                sent.push((t(round), src, h as u64));
                f.send(t(round), a, b, 99, h as u32, 4096);
                sent.push((t(round), a, 99));
            }
        }
        let (pkt, fluid, _) = f.send_split();
        assert!(pkt > 0 && fluid > 0, "both halves must carry traffic");
        let trace = f.take_trace();
        let got: Vec<_> = trace.iter().map(|r| (r.sent, r.src, r.flow)).collect();
        assert_eq!(
            got,
            sent[..7],
            "the trace is the first `limit` sends, in send order"
        );
        assert!(f.take_trace().is_empty(), "taking the trace disables it");
    }

    /// A fresh healthy 1:1 cross-segment flow rides the fluid model at
    /// the link rate: its first packet takes the wire time plus 4 hops.
    #[test]
    fn a_fluid_send_takes_the_wire_time_plus_its_hops() {
        let bytes = 4096;
        let mut f = fabric();
        let (src, dst) = (f.topology().nic(0, 0), f.topology().nic(4, 0));
        let at = f.send(t(0), src, dst, 1, 0, bytes).arrival().unwrap();
        assert_eq!(f.send_split(), (0, 1, 0), "must ride the fluid model");
        let expect = stellar_sim::transmit_time(bytes, 200.0) + SimDuration::from_micros(1).mul(4);
        assert_eq!(at.duration_since(t(0)), expect);
    }

    #[test]
    fn ledgers_sum_both_halves_and_invariants_hold() {
        stellar_check::strict(|| {
            let mut f = fabric();
            let dst = f.topology().nic(0, 0);
            // Mixed traffic: an incast (packet path) and a disjoint 1:1
            // pair (fluid path).
            for h in 1..6 {
                let src = f.topology().nic(h, 0);
                f.send(t(0), src, dst, h as u64, 0, 4096);
            }
            let a = f.topology().nic(6, 0);
            let b = f.topology().nic(7, 0);
            f.send(t(0), a, b, 99, 0, 4096);
            let (pkt, fluid, _) = f.send_split();
            assert!(pkt > 0 && fluid > 0, "both halves must carry traffic");
            let (ip, _) = Fabric::injected(&f);
            let (dp, _) = Fabric::delivered(&f);
            let drops: u64 = DropReason::ALL
                .iter()
                .map(|&r| Fabric::drops_by_reason(&f, r))
                .sum();
            assert_eq!(ip, dp + drops);
            f.check_invariants(t(1));
        });
    }
}
