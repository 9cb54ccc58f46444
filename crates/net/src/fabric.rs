//! The `Fabric` trait: one seam for every network model.
//!
//! The transport's event loop does not care whether a packet crosses a
//! per-port calendar ([`crate::Network`]), a max-min fluid allocation
//! ([`crate::FluidFabric`]), or a mix of both ([`crate::HybridFabric`]) —
//! it needs a send/deliver/advance/stats/fault surface. This trait is
//! that surface. `TransportSim` and every workload driver are generic
//! over it, with the packet-level `Network` as the default type
//! parameter, so existing code keeps compiling (and keeps its exact
//! byte-for-byte behaviour) while 10k+-rank jobs swap in a cheaper
//! model.
//!
//! The contract every implementation must honour:
//!
//! * `send` is called with non-decreasing `now` (the DES guarantees it)
//!   and must first apply any scheduled fault events at or before `now`.
//! * The conservation ledgers balance at every quiesce point:
//!   `injected == delivered + dropped`, packets and bytes alike
//!   (`check_invariants` evaluates them under `stellar_check`).
//! * Results are a pure function of `(topology, config, rng seed,
//!   traffic)` — no wall clock, no iteration-order dependence.

use stellar_sim::{SimDuration, SimTime};

use crate::fault::FaultPlan;
use crate::network::{Delivery, DropReason, LinkStats, NetworkConfig, TraceRecord};
use crate::topology::{ClosTopology, LinkId, NicId};

/// Which fabric model a [`Fabric`] implementation is, for telemetry
/// tags and experiment labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricKind {
    /// Packet-level per-port calendar model ([`crate::Network`]).
    Packet,
    /// Flow-level max-min fair-share fluid model
    /// ([`crate::FluidFabric`]).
    Fluid,
    /// Contested traffic through the packet model, the rest through the
    /// fluid model ([`crate::HybridFabric`]).
    Hybrid,
}

impl FabricKind {
    /// Stable snake_case name used in telemetry counters
    /// (`fabric.<name>.*`) and experiment row labels.
    pub fn name(self) -> &'static str {
        match self {
            FabricKind::Packet => "packet",
            FabricKind::Fluid => "fluid",
            FabricKind::Hybrid => "hybrid",
        }
    }
}

/// A network fabric model: the seam between the transport event loop
/// and whatever carries its packets.
pub trait Fabric {
    /// Which model this is (telemetry tag / experiment label).
    fn kind(&self) -> FabricKind;

    /// The topology packets are routed over.
    fn topology(&self) -> &ClosTopology;

    /// The link configuration.
    fn config(&self) -> &NetworkConfig;

    /// The link configuration, mutable (tests tune knobs like
    /// `bgp_convergence` without rebuilding the fabric).
    fn config_mut(&mut self) -> &mut NetworkConfig;

    /// Forward one packet of `bytes` from `src` to `dst` along the
    /// route selected by `(flow, path_id)`, starting at `now`.
    /// `now` must be non-decreasing across calls.
    ///
    /// Flow ids should be dense: small integers, each used by one
    /// `(src, dst)` pair, as the transport's connection ids are. The
    /// flow-level models index per-flow state by the id and check the
    /// pair on every lookup; an id that is large or shared by several
    /// pairs still works, through a hash map, at hash-map cost.
    fn send(
        &mut self,
        now: SimTime,
        src: NicId,
        dst: NicId,
        flow: u64,
        path_id: u32,
        bytes: u64,
    ) -> Delivery;

    /// Advance fabric-internal state to `now` without sending traffic:
    /// apply scheduled fault events, expire idle flow bookkeeping.
    /// `send` performs the same catch-up implicitly; this exists so an
    /// event loop can advance fault state across traffic gaps (e.g.
    /// before reading stats at an idle instant).
    fn advance(&mut self, now: SimTime);

    /// Install a fault schedule, replacing any previous plan.
    fn install_fault_plan(&mut self, plan: FaultPlan);

    /// Events of the installed plan not yet applied.
    fn pending_fault_events(&self) -> usize;

    /// Take a link down / bring it up (convergence clock starts at
    /// `SimTime::ZERO`; use [`Fabric::set_link_state_at`] when a
    /// timestamp is available).
    fn set_link_up(&mut self, link: LinkId, up: bool);

    /// Take a link down / bring it up at time `now`.
    fn set_link_state_at(&mut self, now: SimTime, link: LinkId, up: bool);

    /// Inject random loss with probability `p` on `link`.
    fn set_loss(&mut self, link: LinkId, p: f64);

    /// An unqueued reverse-path delivery estimate for tiny control
    /// packets (ACK/NACK): hop delays plus serialization, no queueing.
    fn control_rtt_component(&self, src: NicId, dst: NicId) -> SimDuration;

    /// Fabric-wide drops attributed to `reason`.
    fn drops_by_reason(&self, reason: DropReason) -> u64;

    /// `(packets, bytes)` ever offered to [`Fabric::send`].
    fn injected(&self) -> (u64, u64);

    /// `(packets, bytes)` that reached their destination NIC.
    fn delivered(&self) -> (u64, u64);

    /// Statistics snapshot for a link at time `now`.
    fn link_stats(&self, link: LinkId, now: SimTime) -> LinkStats;

    /// Fig. 12 imbalance over the ToR→Agg uplinks of every ToR that
    /// carried traffic: `(max−min)/max` of the per-port byte loads.
    fn tor_uplink_imbalance(&self) -> f64;

    /// Aggregate queue statistics over all ToR uplinks at `now`:
    /// `(mean of time-averaged backlog, max backlog)` in bytes.
    fn tor_uplink_queue_stats(&self, now: SimTime) -> (f64, u64);

    /// Record every packet (up to `limit` records) for offline
    /// analysis.
    fn enable_trace(&mut self, limit: usize);

    /// Take the recorded trace, disabling tracing.
    fn take_trace(&mut self) -> Vec<TraceRecord>;

    /// Evaluate the fabric's conservation invariants at a quiesce point
    /// (no-op unless a `stellar_check` scope is open).
    fn check_invariants(&self, at: SimTime);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClosConfig;
    use crate::Network;
    use stellar_sim::SimRng;

    fn net() -> Network {
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 4,
        });
        Network::new(topo, NetworkConfig::default(), SimRng::from_seed(7))
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(FabricKind::Packet.name(), "packet");
        assert_eq!(FabricKind::Fluid.name(), "fluid");
        assert_eq!(FabricKind::Hybrid.name(), "hybrid");
        assert_eq!(net().kind(), FabricKind::Packet);
    }
}
