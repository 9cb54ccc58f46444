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
//!    [`HybridConfig::incast_threshold`] distinct flows are actively
//!    sending to it, or
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
//! Fault plans and manual link mutations are mirrored into both models
//! so either one can be the carrier at any moment; ledgers and stats
//! are the field-wise sum of the two.

use std::collections::hash_map::Entry;

use stellar_sim::hash::FastMap;
use stellar_sim::{SimDuration, SimRng, SimTime};
use stellar_telemetry::{count, Subsystem};

use crate::fabric::{uplink_imbalance_from, Fabric, FabricKind};
use crate::fault::FaultPlan;
use crate::fluid::{FluidConfig, FluidFabric};
use crate::network::{
    record_trace, Delivery, DropReason, LinkStats, Network, NetworkConfig, TraceRecord,
};
use crate::topology::{ClosTopology, LinkId, NicId};

/// Escalation knobs for the hybrid classifier.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Distinct active flows into one destination NIC before it counts
    /// as an incast port (3 keeps 1:1 permutations and ring neighbours
    /// on the fluid path while catching real N:1 fan-in).
    pub incast_threshold: usize,
    /// A flow with no traffic for this long sheds its escalation mark
    /// and its incast accounting.
    pub flow_idle_timeout: SimDuration,
    /// Fluid-model knobs for the uncontested path.
    pub fluid: FluidConfig,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            incast_threshold: 3,
            flow_idle_timeout: SimDuration::from_micros(200),
            fluid: FluidConfig::default(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct FlowMeta {
    last_active: SimTime,
    escalated: bool,
}

/// The hybrid packet/fluid fabric. See the module docs for the
/// escalation rules.
#[derive(Debug)]
pub struct HybridFabric {
    packet: Network,
    fluid: FluidFabric,
    hybrid: HybridConfig,
    /// Active-flow metadata by `(src, dst, flow)`. Nothing iterates it
    /// in an order that reaches an output: expiry only decrements
    /// integer counts.
    meta: FastMap<(u32, u32, u64), FlowMeta>,
    /// Distinct active flows per destination NIC (incast detector).
    dst_flows: Vec<u32>,
    next_expiry_scan: SimTime,
    /// Sends in injection order, up to the limit, when tracing is on.
    trace: Option<(Vec<TraceRecord>, usize)>,
    escalations: u64,
    packet_sends: u64,
    fluid_sends: u64,
}

impl HybridFabric {
    /// A hybrid fabric over `topo`. The packet and fluid halves get
    /// independent RNG streams forked from `rng` (labels `"packet"` and
    /// `"fluid"`), so loss draws on one path never perturb the other.
    pub fn new(
        topo: ClosTopology,
        config: NetworkConfig,
        hybrid: HybridConfig,
        rng: SimRng,
    ) -> Self {
        let nics = topo.total_nics();
        let packet = Network::new(topo.clone(), config.clone(), rng.fork("packet"));
        let fluid = FluidFabric::new(topo, config, hybrid.fluid.clone(), rng.fork("fluid"));
        HybridFabric {
            packet,
            fluid,
            hybrid,
            meta: FastMap::default(),
            dst_flows: vec![0; nics],
            next_expiry_scan: SimTime::ZERO,
            trace: None,
            escalations: 0,
            packet_sends: 0,
            fluid_sends: 0,
        }
    }

    /// `(packet sends, fluid sends, escalation events)` so far — the
    /// split that tells you whether the hybrid is earning its keep.
    pub fn send_split(&self) -> (u64, u64, u64) {
        (self.packet_sends, self.fluid_sends, self.escalations)
    }

    /// The packet half (e.g. for packet-side queue inspection).
    pub fn packet(&self) -> &Network {
        &self.packet
    }

    /// The fluid half.
    pub fn fluid(&self) -> &FluidFabric {
        &self.fluid
    }

    fn expire_meta(&mut self, now: SimTime) {
        if now < self.next_expiry_scan || self.meta.is_empty() {
            return;
        }
        self.next_expiry_scan = now
            + SimDuration::from_nanos((self.hybrid.flow_idle_timeout.as_nanos() / 2).max(1));
        let timeout = self.hybrid.flow_idle_timeout;
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
    /// or queued past the ECN threshold on the packet side.
    fn route_contested(packet: &Network, now: SimTime, route: &[LinkId]) -> bool {
        let ecn_threshold = packet.config().ecn_threshold_bytes;
        route.iter().any(|&l| {
            !packet.link_up(l)
                || packet.link_loss(l) > 0.0
                || packet.degraded_loss_at(l, now) > 0.0
                || packet.backlog_bytes(l, now) > ecn_threshold
        })
    }
}

impl Fabric for HybridFabric {
    fn kind(&self) -> FabricKind {
        FabricKind::Hybrid
    }

    fn topology(&self) -> &ClosTopology {
        Network::topology(&self.packet)
    }

    fn config(&self) -> &NetworkConfig {
        Network::config(&self.packet)
    }

    fn config_mut(&mut self) -> &mut NetworkConfig {
        // Keep both halves in sync: the packet half is authoritative,
        // the fluid half is overwritten from it on the next advance.
        Network::config_mut(&mut self.packet)
    }

    fn send(
        &mut self,
        now: SimTime,
        src: NicId,
        dst: NicId,
        flow: u64,
        path_id: u32,
        bytes: u64,
    ) -> Delivery {
        self.advance(now);
        let route = self.packet.topology().route(src, dst, flow, path_id);
        let meta = match self.meta.entry((src.0, dst.0, flow)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                self.dst_flows[dst.0 as usize] += 1;
                e.insert(FlowMeta {
                    last_active: now,
                    escalated: false,
                })
            }
        };
        meta.last_active = now;
        // Cheap per-flow state first (stickiness, incast), then the
        // route's fault and queue state on the packet side.
        let contested = meta.escalated
            || self.dst_flows[dst.0 as usize] as usize >= self.hybrid.incast_threshold
            || Self::route_contested(&self.packet, now, &route);
        if contested && !meta.escalated {
            meta.escalated = true;
            self.escalations += 1;
            count(Subsystem::Net, "fabric.hybrid.escalation", 1);
        }
        let delivery = if contested {
            self.packet_sends += 1;
            count(Subsystem::Net, "fabric.hybrid.packet_send", 1);
            self.packet.send(now, src, dst, flow, path_id, bytes)
        } else {
            self.fluid_sends += 1;
            count(Subsystem::Net, "fabric.hybrid.fluid_send", 1);
            // `advance` above already advanced the fluid half to `now`.
            self.fluid
                .send_routed(now, src, dst, flow, path_id, bytes, route)
        };
        record_trace(&mut self.trace, || TraceRecord {
            sent: now,
            src,
            dst,
            flow,
            path_id,
            bytes,
            delivery,
        });
        delivery
    }

    fn advance(&mut self, now: SimTime) {
        // The fluid half's NetworkConfig may have drifted behind a
        // config_mut() tweak on the packet half; re-sync cheaply.
        if self.fluid.config().link_gbps != self.packet.config().link_gbps
            || self.fluid.config().bgp_convergence != self.packet.config().bgp_convergence
            || self.fluid.config().ecn_threshold_bytes != self.packet.config().ecn_threshold_bytes
            || self.fluid.config().buffer_bytes != self.packet.config().buffer_bytes
            || self.fluid.config().hop_delay != self.packet.config().hop_delay
        {
            *self.fluid.config_mut() = self.packet.config().clone();
        }
        self.packet.apply_faults(now);
        self.fluid.advance(now);
        self.expire_meta(now);
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.packet.install_fault_plan(plan.clone());
        self.fluid.install_fault_plan(plan);
    }

    fn pending_fault_events(&self) -> usize {
        self.packet.pending_fault_events()
    }

    fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.packet.set_link_up(link, up);
        Fabric::set_link_up(&mut self.fluid, link, up);
    }

    fn set_link_state_at(&mut self, now: SimTime, link: LinkId, up: bool) {
        self.packet.set_link_state_at(now, link, up);
        Fabric::set_link_state_at(&mut self.fluid, now, link, up);
    }

    fn set_loss(&mut self, link: LinkId, p: f64) {
        self.packet.set_loss(link, p);
        Fabric::set_loss(&mut self.fluid, link, p);
    }

    fn control_rtt_component(&self, src: NicId, dst: NicId) -> SimDuration {
        self.packet.control_rtt_component(src, dst)
    }

    fn drops_by_reason(&self, reason: DropReason) -> u64 {
        self.packet.drops_by_reason(reason) + Fabric::drops_by_reason(&self.fluid, reason)
    }

    fn injected(&self) -> (u64, u64) {
        let (pp, pb) = Network::injected(&self.packet);
        let (fp, fb) = Fabric::injected(&self.fluid);
        (pp + fp, pb + fb)
    }

    fn delivered(&self) -> (u64, u64) {
        let (pp, pb) = Network::delivered(&self.packet);
        let (fp, fb) = Fabric::delivered(&self.fluid);
        (pp + fp, pb + fb)
    }

    fn link_stats(&self, link: LinkId, now: SimTime) -> LinkStats {
        let p = Network::link_stats(&self.packet, link, now);
        let f = Fabric::link_stats(&self.fluid, link, now);
        LinkStats {
            tx_bytes: p.tx_bytes + f.tx_bytes,
            tx_packets: p.tx_packets + f.tx_packets,
            drops: p.drops + f.drops,
            ecn_marks: p.ecn_marks + f.ecn_marks,
            max_queue_bytes: p.max_queue_bytes.max(f.max_queue_bytes),
            avg_queue_bytes: p.avg_queue_bytes + f.avg_queue_bytes,
        }
    }

    fn tor_uplink_imbalance(&self) -> f64 {
        let topo = Network::topology(&self.packet);
        uplink_imbalance_from(topo, |l| {
            Network::link_stats(&self.packet, l, SimTime::ZERO).tx_bytes
                + Fabric::link_stats(&self.fluid, l, SimTime::ZERO).tx_bytes
        })
    }

    fn tor_uplink_queue_stats(&self, now: SimTime) -> (f64, u64) {
        // Per-port queues only exist on the packet half.
        Network::tor_uplink_queue_stats(&self.packet, now)
    }

    fn enable_trace(&mut self, limit: usize) {
        // Recorded here rather than in the halves, so the trace keeps
        // injection order across both models and `limit` bounds the
        // whole fabric.
        self.trace = Some((Vec::new(), limit));
    }

    fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.trace.take().map(|(v, _)| v).unwrap_or_default()
    }

    fn check_invariants(&self, at: SimTime) {
        self.packet.check_invariants(at);
        Fabric::check_invariants(&self.fluid, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClosConfig;

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
        let mut f = fabric();
        let dst = f.topology().nic(0, 0);
        for h in 1..6 {
            let src = f.topology().nic(h, 0);
            f.send(t(0), src, dst, h as u64, 0, 4096);
        }
        let (pkt, _fluid, esc) = f.send_split();
        // Flows 3..6 arrive after the threshold (3) is reached.
        assert!(
            pkt >= 2,
            "incast fan-in must escalate: split {:?}",
            f.send_split()
        );
        assert!(esc >= 2);
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
