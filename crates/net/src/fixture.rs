//! Fabric-aware test/workload fixtures.
//!
//! Every workload driver and most tests used to open with the same
//! three lines:
//!
//! ```text
//! let topo = ClosTopology::build(topo_cfg);
//! let rng = SimRng::from_seed(seed);
//! let net = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
//! ```
//!
//! These constructors fold that into one call per fabric kind. The RNG
//! fork label `"net"` is part of the determinism contract — seeded
//! experiments and the golden corpus pin the exact stream it derives —
//! so it lives here, in exactly one place, instead of being repeated
//! (and one day mistyped) at every call site.

use stellar_sim::SimRng;

use crate::fluid::{FluidConfig, FluidFabric};
use crate::hybrid::{HybridConfig, HybridFabric};
use crate::network::{Network, NetworkConfig};
use crate::topology::{ClosConfig, ClosTopology};

/// Packet-level [`Network`] over `topo_cfg` with explicit link
/// parameters, forking the canonical `"net"` stream from `rng`.
pub fn packet_fabric(topo_cfg: ClosConfig, net_cfg: NetworkConfig, rng: &SimRng) -> Network {
    Network::new(ClosTopology::build(topo_cfg), net_cfg, rng.fork("net"))
}

/// Packet-level [`Network`] over `topo_cfg` with default link
/// parameters — the setup line all of `workloads/` and the transport
/// tests share.
pub fn packet_fabric_default(topo_cfg: ClosConfig, rng: &SimRng) -> Network {
    packet_fabric(topo_cfg, NetworkConfig::default(), rng)
}

/// Flow-level [`FluidFabric`] over `topo_cfg`, forking the same
/// `"net"` stream (the fluid model draws from it only for loss
/// injection, mirroring the packet model's draw structure).
pub fn fluid_fabric(
    topo_cfg: ClosConfig,
    net_cfg: NetworkConfig,
    fluid_cfg: FluidConfig,
    rng: &SimRng,
) -> FluidFabric {
    FluidFabric::new(ClosTopology::build(topo_cfg), net_cfg, fluid_cfg, rng.fork("net"))
}

/// [`HybridFabric`] over `topo_cfg`; the packet and fluid halves fork
/// their own sub-streams from `"net"`.
pub fn hybrid_fabric(
    topo_cfg: ClosConfig,
    net_cfg: NetworkConfig,
    hybrid_cfg: HybridConfig,
    rng: &SimRng,
) -> HybridFabric {
    HybridFabric::new(ClosTopology::build(topo_cfg), net_cfg, hybrid_cfg, rng.fork("net"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fabric;
    use stellar_sim::SimTime;

    /// The fixture is sugar, not behaviour: it must produce a network
    /// byte-identical to the expanded three-line setup.
    #[test]
    fn fixture_matches_manual_construction() {
        let cfg = ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 4,
        };
        let rng = SimRng::from_seed(17);
        let mut a = packet_fabric_default(cfg.clone(), &rng);
        let mut b = Network::new(
            ClosTopology::build(cfg),
            NetworkConfig::default(),
            rng.fork("net"),
        );
        let src = a.topology().nic(0, 0);
        let dst = a.topology().nic(4, 0);
        // Inject loss so the RNG stream actually matters.
        let link = a.topology().route(src, dst, 0, 0)[1];
        a.set_loss(link, 0.2);
        b.set_loss(link, 0.2);
        for i in 0..200 {
            let t = SimTime::from_nanos(i * 100);
            assert_eq!(
                a.send(t, src, dst, 1, (i % 16) as u32, 4096),
                b.send(t, src, dst, 1, (i % 16) as u32, 4096),
                "fixture-built network diverged at packet {i}"
            );
        }
    }
}
