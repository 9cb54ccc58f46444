//! The host networking Controller of the legacy framework (Fig. 2).
//!
//! In the pre-Stellar design, a Controller process "maintains a complex
//! VxLAN-based virtual-to-physical network mapping" whose size exceeds
//! the vSwitch's capacity, so it tracks active connections and
//! dynamically offloads their rules. Two Problem-⑤ behaviours live here:
//!
//! 1. **Rule churn**: when tenant state exceeds the hardware table, the
//!    Controller evicts least-recently-active flows; a returning flow
//!    re-installs *at the end* of the ordered table, behind every other
//!    tenant's rules — one tenant's TCP activity lengthens another's RDMA
//!    lookups.
//! 2. **The zero-MAC incident**: for an RDMA connection between two VFs
//!    on the *same server but different RNICs*, the kernel routing table
//!    offers a local route, so the driver fills zeroed MACs into the
//!    VxLAN header. The ToR (the only physical path between the two
//!    RNICs) discards those frames. The driver's behaviour "was correct
//!    for kernel protocol stacks but incorrect for the RDMA protocol."
//!
//! Stellar removes the whole mechanism for RDMA: no VFs, no steering
//! rules, no Controller on the RDMA path.

use std::collections::VecDeque;


use stellar_rnic::vswitch::{RuleAction, RuleClass, SteeringRule, VSwitchError};

use crate::server::{RnicId, StellarServer};

/// Where the two endpoints of a virtual connection live, relative to each
/// other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerLocation {
    /// Different servers: the normal VxLAN encapsulation path.
    RemoteServer,
    /// Same server, same RNIC: the vSwitch can truly forward locally.
    SameRnic,
    /// Same server, different RNICs: physically reachable only via the
    /// ToR — the configuration that triggered the zero-MAC incident.
    SameServerCrossRnic,
}

/// Result of validating an installed RDMA route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteHealth {
    /// Frames will reach the peer.
    Ok,
    /// Frames carry zeroed MACs and the ToR will discard them (the
    /// Problem-⑤ connectivity failure).
    TorDiscardsFrames,
}

/// The legacy host Controller.
#[derive(Debug)]
pub struct Controller {
    /// Flows currently offloaded to hardware, LRU order (front = oldest).
    offloaded: VecDeque<u64>,
    /// Hardware rule budget the Controller manages.
    hw_budget: usize,
    evictions: u64,
}

impl Controller {
    /// A controller managing `hw_budget` hardware rule slots.
    pub fn new(hw_budget: usize) -> Self {
        assert!(hw_budget > 0, "controller needs at least one rule slot");
        Controller {
            offloaded: VecDeque::new(),
            hw_budget,
            evictions: 0,
        }
    }

    /// Install the steering rule for an RDMA connection `flow` on `rnic`,
    /// reproducing the legacy driver's MAC-filling logic for each peer
    /// location. Returns the rule's health.
    pub fn install_rdma_route(
        &mut self,
        server: &mut StellarServer,
        rnic: RnicId,
        flow: u64,
        peer: PeerLocation,
    ) -> Result<RouteHealth, VSwitchError> {
        // Evict the oldest offloaded flow if the hardware table is full.
        if self.offloaded.len() >= self.hw_budget {
            if let Some(old) = self.offloaded.pop_front() {
                server
                    .rnic_mut(rnic)
                    .vswitch
                    .remove_flow(RuleClass::Rdma, old);
                self.evictions += 1;
            }
        }
        let action = match peer {
            PeerLocation::RemoteServer => RuleAction::VxlanEncap {
                // The Controller resolves real underlay MACs.
                src_mac: 0x02_0000_0000 + flow,
                dst_mac: 0x04_0000_0000 + flow,
            },
            PeerLocation::SameRnic => RuleAction::LocalForward,
            // The bug: the driver's routing-table lookup says "local", so
            // it zeroes the MACs — but the frame must cross the ToR.
            PeerLocation::SameServerCrossRnic => RuleAction::VxlanEncap {
                src_mac: 0,
                dst_mac: 0,
            },
        };
        server.rnic_mut(rnic).vswitch.append_rule(SteeringRule {
            class: RuleClass::Rdma,
            flow_id: flow,
            action,
        })?;
        self.offloaded.push_back(flow);
        Ok(Self::health_of(action, peer))
    }

    fn health_of(action: RuleAction, peer: PeerLocation) -> RouteHealth {
        match (action, peer) {
            // Zeroed MACs on a path that traverses the ToR: discarded.
            (
                RuleAction::VxlanEncap {
                    src_mac: 0,
                    dst_mac: 0,
                },
                PeerLocation::SameServerCrossRnic | PeerLocation::RemoteServer,
            ) => RouteHealth::TorDiscardsFrames,
            _ => RouteHealth::Ok,
        }
    }

    /// Flows currently resident in hardware.
    pub fn offloaded_flows(&self) -> usize {
        self.offloaded.len()
    }

    /// Rules evicted so far (churn indicator).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use stellar_telemetry::{capture, Subsystem};
    use stellar_virt::rund::MemoryStrategy;

    fn server() -> StellarServer {
        let mut s = StellarServer::new(ServerConfig::default());
        s.boot_container(64 * 1024 * 1024, MemoryStrategy::FullPin);
        s
    }

    #[test]
    fn cross_rnic_same_server_breaks_connectivity() {
        // The Problem-⑤ incident: "two VFs on different RNICs on the same
        // server could not communicate using RDMA."
        let mut s = server();
        let mut ctl = Controller::new(64);
        let health = ctl
            .install_rdma_route(&mut s, RnicId(0), 7, PeerLocation::SameServerCrossRnic)
            .unwrap();
        assert_eq!(health, RouteHealth::TorDiscardsFrames);
    }

    #[test]
    fn remote_and_same_rnic_routes_are_healthy() {
        let mut s = server();
        let mut ctl = Controller::new(64);
        assert_eq!(
            ctl.install_rdma_route(&mut s, RnicId(0), 1, PeerLocation::RemoteServer)
                .unwrap(),
            RouteHealth::Ok
        );
        assert_eq!(
            ctl.install_rdma_route(&mut s, RnicId(0), 2, PeerLocation::SameRnic)
                .unwrap(),
            RouteHealth::Ok
        );
    }

    /// The server reports both steering lookups to telemetry when it
    /// drops.
    #[test]
    fn churn_pushes_returning_flows_behind_everyone() {
        // Rule churn: an evicted-then-reinstalled RDMA flow lands at the
        // end of the ordered table, so its lookup latency now includes
        // every other tenant's rules.
        let ((), tel) = capture(|| {
            let mut s = server();
            let mut ctl = Controller::new(4);
            for flow in 0..4 {
                ctl.install_rdma_route(&mut s, RnicId(0), flow, PeerLocation::RemoteServer)
                    .unwrap();
            }
            let early = s
                .rnic_mut(RnicId(0))
                .vswitch
                .steer(RuleClass::Rdma, 0)
                .unwrap();
            // Offload 4 more flows: flow 0 gets evicted, then returns.
            for flow in 4..8 {
                ctl.install_rdma_route(&mut s, RnicId(0), flow, PeerLocation::RemoteServer)
                    .unwrap();
            }
            ctl.install_rdma_route(&mut s, RnicId(0), 0, PeerLocation::RemoteServer)
                .unwrap();
            let late = s
                .rnic_mut(RnicId(0))
                .vswitch
                .steer(RuleClass::Rdma, 0)
                .unwrap();
            assert!(late.position > early.position);
            assert!(late.latency > early.latency);
            assert_eq!(ctl.evictions(), 5);
        });
        assert_eq!(tel.hub.get(Subsystem::Rnic, "vswitch.steer"), 2);
    }

    #[test]
    fn hardware_budget_is_respected() {
        let mut s = server();
        let mut ctl = Controller::new(2);
        for flow in 0..10 {
            ctl.install_rdma_route(&mut s, RnicId(0), flow, PeerLocation::RemoteServer)
                .unwrap();
        }
        assert_eq!(ctl.offloaded_flows(), 2);
    }
}
