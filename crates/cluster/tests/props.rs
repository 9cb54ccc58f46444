//! Property suite for the cluster scheduler.
//!
//! Two contracts: (1) the rendered placement + SLO report is
//! byte-identical across worker-thread counts and repeated runs with
//! the same seed; (2) arbitrary job mixes — random ring sizes,
//! arrivals, payloads, policies, including rings larger than the whole
//! cluster — never oversubscribe capacity or double-book a slot, under
//! strict invariants end to end.

use stellar_cluster::{run_cluster_with, ClusterConfig, PlacementPolicy, TenantSpec};
use stellar_net::fixture::packet_fabric;
use stellar_net::ClosConfig;
use stellar_sim::par::with_thread_override;
use stellar_sim::proptest_lite::check;
use stellar_sim::SimTime;

fn small_topo() -> ClosConfig {
    ClosConfig {
        segments: 2,
        hosts_per_segment: 4,
        rails: 2,
        planes: 2,
        aggs_per_plane: 4,
    }
}

/// Same seed → byte-identical placement and SLO report at 1 worker and
/// 8, and across repeated runs.
#[test]
fn report_is_byte_identical_across_thread_counts() {
    let tenants: Vec<TenantSpec> = (0..4)
        .map(|i| TenantSpec {
            data_bytes: 256 << 10,
            iterations: 2,
            ..TenantSpec::plain(
                format!("t{i}"),
                4 + 2 * (i % 2),
                SimTime::from_nanos(i as u64 * 500_000),
            )
        })
        .collect();
    for policy in [PlacementPolicy::BinPack, PlacementPolicy::TopoAware] {
        let config = ClusterConfig::new(small_topo(), policy, tenants.clone());
        let run = || run_cluster_with(&config, packet_fabric).render();
        let one = with_thread_override(1, run);
        let eight = with_thread_override(8, run);
        assert_eq!(one, eight, "[{}] report differs across thread counts", policy.name());
        assert_eq!(one, run(), "[{}] rerun differs", policy.name());
    }
}

/// Arbitrary job mixes never oversubscribe capacity: every run passes
/// the strict `cluster.*` (and every other layer's) invariants, peak
/// admission stays within capacity, and every admissible tenant
/// eventually runs to completion.
#[test]
fn arbitrary_mixes_never_oversubscribe() {
    check("arbitrary_mixes_never_oversubscribe", 12, |g| {
        let n = g.usize(1, 6);
        let tenants: Vec<TenantSpec> = (0..n)
            .map(|i| TenantSpec {
                data_bytes: (64 << 10) * g.u64(1, 4),
                iterations: g.u32(1, 3),
                ..TenantSpec::plain(
                    format!("t{i}"),
                    g.usize(2, 20), // up to 20 ranks on a 16-slot cluster
                    SimTime::from_nanos(g.u64(0, 2_000_000)),
                )
            })
            .collect();
        let policy = *g.pick(&[PlacementPolicy::BinPack, PlacementPolicy::TopoAware]);
        let config = ClusterConfig {
            seed: g.u64(1, 1 << 40),
            ..ClusterConfig::new(small_topo(), policy, tenants)
        };
        let r = stellar_check::strict(|| run_cluster_with(&config, packet_fabric));
        assert!(r.peak_admitted_ranks <= r.capacity);
        assert_eq!(r.errors, 0);
        // Rings are rail-aligned: the widest admissible ring is one
        // rail's host count, not the total slot capacity.
        let max_ring = small_topo().segments * small_topo().hosts_per_segment;
        for (t, slo) in r.tenants.iter().enumerate() {
            if config.tenants[t].ranks <= max_ring {
                assert!(slo.finished, "admissible tenant {} must finish", slo.name);
                assert!(!slo.slots.is_empty());
            } else {
                assert!(slo.slots.is_empty(), "oversized tenant {} must be rejected", slo.name);
            }
        }
    });
}
