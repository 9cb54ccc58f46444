//! Property tests for topology routing and the link-calendar fabric.

use stellar_net::{
    ClosConfig, ClosTopology, Delivery, DropReason, Fabric, FaultPlan, FluidConfig, FluidFabric,
    Network, NetworkConfig,
};
use stellar_sim::proptest_lite::{check, Gen};
use stellar_sim::{SimDuration, SimRng, SimTime};

fn arb_topo(g: &mut Gen) -> ClosTopology {
    ClosTopology::build(ClosConfig {
        segments: g.usize(1, 4),
        hosts_per_segment: g.usize(2, 9),
        rails: g.usize(1, 4),
        planes: g.usize(1, 3),
        aggs_per_plane: g.usize(1, 17),
    })
}

/// Every route is hop-contiguous, starts at the source NIC, ends at
/// the destination NIC, and is 2 or 4 hops long.
#[test]
fn routes_are_well_formed() {
    check("routes_are_well_formed", 256, |g| {
        let topo = arb_topo(g);
        let flow = g.u64(0, 1000);
        let path = g.u32(0, 256);
        let pair = (g.usize(0, 1000), g.usize(0, 1000));
        let hosts = topo.total_hosts();
        let rails = topo.config().rails;
        let src_h = pair.0 % hosts;
        let dst_h = pair.1 % hosts;
        let rail = flow as usize % rails;
        let src = topo.nic(src_h, rail);
        let dst = topo.nic(dst_h, rail);
        let route = topo.route(src, dst, flow, path);
        if src == dst {
            assert!(route.is_empty());
            return;
        }
        assert!(route.len() == 2 || route.len() == 4, "len={}", route.len());
        let (first_from, _) = topo.link_endpoints(route[0]);
        assert_eq!(first_from.0, src.0);
        let (_, last_to) = topo.link_endpoints(*route.last().unwrap());
        assert_eq!(last_to.0, dst.0);
        for pair in route.windows(2) {
            let (_, a_to) = topo.link_endpoints(pair[0]);
            let (b_from, _) = topo.link_endpoints(pair[1]);
            assert_eq!(a_to, b_from);
        }
    });
}

/// Delivery times are causal (arrival strictly after injection) and
/// monotone per port: a later packet on the same (flow, path) never
/// arrives before an earlier one.
#[test]
fn fifo_per_path_ordering() {
    check("fifo_per_path_ordering", 128, |g| {
        let sends = g.vec(1, 100, |g| g.u64(0, 100));
        let seed = g.u64(0, 100);
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 2,
            rails: 1,
            planes: 2,
            aggs_per_plane: 4,
        });
        let mut net = Network::new(topo, NetworkConfig::default(), SimRng::from_seed(seed));
        let src = net.topology().nic(0, 0);
        let dst = net.topology().nic(2, 0);
        let mut now_ns = 0;
        let mut last_arrival = SimTime::ZERO;
        for gap in sends {
            now_ns += gap;
            let t = SimTime::from_nanos(now_ns);
            let d = net.send(t, src, dst, 7, 3, 4096);
            let at = d.arrival().expect("lossless fabric delivers");
            assert!(at > t, "arrival {at} not after send {t}");
            assert!(at >= last_arrival, "FIFO violated");
            last_arrival = at;
        }
    });
}

/// Byte conservation: transmitted bytes per link equal what was sent
/// through routes containing that link.
#[test]
fn link_byte_accounting() {
    check("link_byte_accounting", 128, |g| {
        let packets = g.u64(1, 200);
        let seed = g.u64(0, 50);
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 2,
            rails: 1,
            planes: 1,
            aggs_per_plane: 1,
        });
        let mut net = Network::new(topo, NetworkConfig::default(), SimRng::from_seed(seed));
        let src = net.topology().nic(0, 0);
        let dst = net.topology().nic(2, 0);
        // Single plane, single agg: the route is fixed.
        let route = net.topology().route(src, dst, 1, 0);
        for i in 0..packets {
            // Spaced out to avoid buffer drops.
            net.send(SimTime::from_nanos(i * 1_000_000), src, dst, 1, 0, 4096);
        }
        let now = SimTime::from_nanos(packets * 1_000_000 + 1_000_000);
        for link in route {
            let st = net.link_stats(link, now);
            assert_eq!(st.tx_packets, packets);
            assert_eq!(st.tx_bytes, packets * 4096);
        }
    });
}

/// An identical seed and fault plan replay a byte-identical packet-fate
/// sequence and drop counters — faults are schedule, not happenstance.
#[test]
fn fault_plan_replays_identical_drop_sequences() {
    check("fault_plan_replays_identical_drop_sequences", 32, |g| {
        let seed = g.u64(0, 1000);
        let flaps = g.u32(1, 6);
        let run = || {
            let topo = ClosTopology::build(ClosConfig {
                segments: 2,
                hosts_per_segment: 2,
                rails: 1,
                planes: 2,
                aggs_per_plane: 4,
            });
            let mut net = Network::new(topo, NetworkConfig::default(), SimRng::from_seed(seed));
            let src = net.topology().nic(0, 0);
            let dst = net.topology().nic(2, 0);
            let links: Vec<_> = (0..8)
                .map(|p| net.topology().route(src, dst, 1, p)[1])
                .collect();
            let plan = FaultPlan::new(seed).flap_storm(
                &links,
                SimTime::from_nanos(10_000),
                SimDuration::from_micros(500),
                flaps,
                SimDuration::from_micros(20),
                SimDuration::from_micros(120),
            );
            net.install_fault_plan(plan);
            net.enable_trace(4096);
            for i in 0..400u64 {
                net.send(
                    SimTime::from_nanos(i * 2_000),
                    src,
                    dst,
                    1,
                    (i % 8) as u32,
                    4096,
                );
            }
            let fates: Vec<(SimTime, Delivery)> = net
                .take_trace()
                .into_iter()
                .map(|r| (r.sent, r.delivery))
                .collect();
            let drops: Vec<u64> = DropReason::ALL
                .iter()
                .map(|&r| net.drops_by_reason(r))
                .collect();
            (fates, drops)
        };
        assert_eq!(run(), run());
    });
}

/// A planned flap blackholes the link for exactly its down window: sends
/// during the outage drop with `DropReason::LinkDown`, and the first send
/// at or after the up event forwards again with no convergence wait.
#[test]
fn planned_flap_up_restores_forwarding() {
    check("planned_flap_up_restores_forwarding", 64, |g| {
        let seed = g.u64(0, 100);
        let down_at = 1_000 + g.u64(0, 10_000);
        let down_for = 1 + g.u64(0, 50_000);
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 2,
            rails: 1,
            planes: 1,
            aggs_per_plane: 1,
        });
        // BGP far in the future: nothing can reroute around the outage,
        // so recovery is attributable only to the planned up event.
        let mut net = Network::new(
            topo,
            NetworkConfig {
                bgp_convergence: SimDuration::from_millis(500),
                ..NetworkConfig::default()
            },
            SimRng::from_seed(seed),
        );
        let src = net.topology().nic(0, 0);
        let dst = net.topology().nic(2, 0);
        let link = net.topology().route(src, dst, 1, 0)[1];
        let plan = FaultPlan::new(seed).flap(
            link,
            SimTime::from_nanos(down_at),
            SimDuration::from_nanos(down_for),
            SimDuration::from_nanos(1),
            1,
        );
        net.install_fault_plan(plan);
        let mid = net.send(SimTime::from_nanos(down_at), src, dst, 1, 0, 64);
        assert!(
            matches!(
                mid,
                Delivery::Dropped {
                    reason: DropReason::LinkDown,
                    ..
                }
            ),
            "during the outage: {mid:?}"
        );
        let after = net.send(SimTime::from_nanos(down_at + down_for), src, dst, 1, 0, 64);
        assert!(after.arrival().is_some(), "after the up event: {after:?}");
    });
}

/// Under arbitrary rail-aligned traffic on arbitrary topologies, the
/// fluid model's fair-share allocations never oversubscribe any
/// aggregate resource and every ledger balances — checked at every send
/// via the `net.fluid_capacity` / conservation invariants, with
/// violations escalated to panics by the strict scope.
#[test]
fn fluid_fair_share_never_oversubscribes() {
    check("fluid_fair_share_never_oversubscribes", 48, |g| {
        let topo = arb_topo(g);
        let hosts = topo.total_hosts();
        let rails = topo.config().rails;
        let seed = g.u64(0, 1000);
        let sends = g.vec(1, 120, |g| {
            (
                g.usize(0, 1000),
                g.usize(0, 1000),
                g.u64(0, 40),
                g.u32(0, 256),
            )
        });
        let mut fluid = FluidFabric::new(
            topo,
            NetworkConfig::default(),
            FluidConfig::default(),
            SimRng::from_seed(seed),
        );
        stellar_check::strict(|| {
            let mut now_ns = 0u64;
            for (a, b, flow, path) in sends {
                now_ns += 50;
                let rail = flow as usize % rails;
                let src = fluid.topology().nic(a % hosts, rail);
                let dst = fluid.topology().nic(b % hosts, rail);
                if src == dst {
                    continue;
                }
                let now = SimTime::from_nanos(now_ns);
                fluid.send(now, src, dst, flow, path, 4096);
                fluid.check_invariants(now);
            }
        });
    });
}

/// Flow conservation across the full lifecycle: every flow the fluid
/// model opens is either still active or retired once the fabric idles
/// past the flow timeout — none leak, none double-retire.
#[test]
fn fluid_flows_conserve_through_retirement() {
    check("fluid_flows_conserve_through_retirement", 64, |g| {
        let topo = arb_topo(g);
        let hosts = topo.total_hosts();
        let rails = topo.config().rails;
        let seed = g.u64(0, 1000);
        let flows = g.vec(1, 30, |g| {
            (g.usize(0, 1000), g.usize(0, 1000), g.u64(0, 40))
        });
        let mut fluid = FluidFabric::new(
            topo,
            NetworkConfig::default(),
            FluidConfig::default(),
            SimRng::from_seed(seed),
        );
        stellar_check::strict(|| {
            // Two rounds over the same keys: the second re-opens every
            // flow the first retired, reusing freed table slots.
            let mut start = SimTime::ZERO;
            let mut first_round_opens = None;
            for _round in 0..2 {
                let mut sent = 0u64;
                for &(a, b, flow) in &flows {
                    let rail = flow as usize % rails;
                    let src = fluid.topology().nic(a % hosts, rail);
                    let dst = fluid.topology().nic(b % hosts, rail);
                    if src == dst {
                        continue;
                    }
                    let now = start + SimDuration::from_nanos(sent * 100);
                    fluid.send(now, src, dst, flow, 0, 4096);
                    fluid.check_invariants(now);
                    sent += 1;
                }
                let (opened, retired, active) = fluid.flow_ledger();
                assert_eq!(
                    opened,
                    retired + active as u64,
                    "mid-run ledger must balance"
                );
                // Idle long past the flow timeout: everything retires.
                let idle =
                    start + SimDuration::from_nanos(sent * 100) + SimDuration::from_millis(10);
                fluid.advance(idle);
                let (opened, retired, active) = fluid.flow_ledger();
                assert_eq!(active, 0, "idle fabric must retire every flow");
                assert_eq!(opened, retired);
                fluid.check_invariants(idle);
                match first_round_opens {
                    None => first_round_opens = Some(opened),
                    Some(first) => assert_eq!(opened, 2 * first, "every retired key re-opens"),
                }
                start = idle;
            }
        });
    });
}

/// A downed link drops everything; bringing it back restores service.
#[test]
fn link_flap() {
    check("link_flap", 64, |g| {
        let seed = g.u64(0, 50);
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 2,
            rails: 1,
            planes: 1,
            aggs_per_plane: 1,
        });
        let mut net = Network::new(topo, NetworkConfig::default(), SimRng::from_seed(seed));
        let src = net.topology().nic(0, 0);
        let dst = net.topology().nic(2, 0);
        let link = net.topology().route(src, dst, 1, 0)[1];
        net.set_link_up(link, false);
        assert!(net
            .send(SimTime::from_nanos(0), src, dst, 1, 0, 64)
            .arrival()
            .is_none());
        net.set_link_up(link, true);
        assert!(net
            .send(SimTime::from_nanos(10), src, dst, 1, 0, 64)
            .arrival()
            .is_some());
    });
}
