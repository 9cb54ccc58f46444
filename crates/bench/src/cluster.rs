//! `cluster` — multi-tenant scheduling on one shared fabric
//! (DESIGN.md §12).
//!
//! Every row is a full cluster run: tenants arrive, queue, pay the
//! RunD + vStellar + PVDMA + QP lifecycle, then contend on the same
//! dual-plane Clos inside one transport event loop. The table answers
//! the multi-tenancy questions the paper's cloud premise raises:
//!
//! * **binpack / topo-aware** — the same tenant mix under greedy
//!   first-fit bin-packing and under topology/rail-aware placement.
//!   The interference column (`x_solo`) is the worst tenant p99
//!   divided by the p99 of an identical tenant running *alone* on the
//!   same cluster; the topo-aware row's verdict is `beats-binpack`
//!   only if its worst p99 undercuts the bin-packing run's.
//! * **background** — a steady probe tenant sharing the fabric with
//!   bursty neighbours; `x_solo` is the probe's p99 inflation.
//! * **churn-storm** — a tenant whose virtual devices are ripped out
//!   mid-run (twice) and recovered through the transport ladder at the
//!   live-measured destroy→recreate cost; `zero-loss` means every
//!   iteration still completed with zero terminal errors.
//! * **admission** — an arrival wave submitting ~2× the cluster's slot
//!   capacity; `bounded` means peak admission never exceeded capacity
//!   and every tenant eventually ran.
//! * **scale** — the same scheduler on the flow-level hybrid fabric
//!   with hundreds of ranks per run.

use std::fmt::Write as _;

use stellar_cluster::{
    run_cluster_with, ClusterConfig, ClusterReport, PlacementPolicy, TenantSpec,
};
use stellar_net::fixture::{hybrid_fabric, packet_fabric};
use stellar_net::{ClosConfig, HybridConfig};
use stellar_sim::json::json_row;
use stellar_sim::par::par_map;
use stellar_sim::{SimDuration, SimTime};
use stellar_workloads::allreduce::BurstSchedule;

json_row! {
    /// One cluster-table row.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Scenario name.
        pub scenario: &'static str,
        /// Placement policy the run used.
        pub policy: &'static str,
        /// Fabric the run was carried on.
        pub fabric: &'static str,
        /// Tenants submitted.
        pub tenants: u64,
        /// Total ranks submitted across all tenants.
        pub ranks: u64,
        /// Peak concurrently admitted ranks.
        pub peak_ranks: u64,
        /// NIC slot capacity of the shared topology.
        pub capacity: u64,
        /// Longest admission-queue wait, ms.
        pub max_wait_ms: f64,
        /// Mean per-tenant goodput, GB/s.
        pub goodput_gbs: f64,
        /// Worst per-tenant p99 message latency, µs.
        pub p99_us: f64,
        /// Interference factor: worst shared-cluster p99 over the p99 of
        /// the same tenant shape running alone (`-1` when not measured).
        pub x_solo: f64,
        /// Completed connection recoveries across the run.
        pub recoveries: u64,
        /// Terminal connection errors (graceful degradation requires 0).
        pub errors: u64,
        /// Graceful-degradation verdict.
        pub verdict: &'static str,
    }
}

/// The shared topology every contention scenario lands on: 16 hosts ×
/// 2 rails = 32 NIC slots across two segments.
fn shared_topo() -> ClosConfig {
    ClosConfig {
        segments: 2,
        hosts_per_segment: 8,
        rails: 2,
        planes: 2,
        aggs_per_plane: 4,
    }
}

/// Fold a finished run into a row.
fn report_row(
    scenario: &'static str,
    fabric: &'static str,
    r: &ClusterReport,
    total_ranks: u64,
    x_solo: f64,
    verdict: &'static str,
) -> Row {
    Row {
        scenario,
        policy: r.policy,
        fabric,
        tenants: r.tenants.len() as u64,
        ranks: total_ranks,
        peak_ranks: r.peak_admitted_ranks as u64,
        capacity: r.capacity as u64,
        max_wait_ms: r.max_wait().as_nanos() as f64 / 1e6,
        goodput_gbs: r.mean_goodput_gbs(),
        p99_us: r.worst_p99_us(),
        x_solo,
        recoveries: r.total_recoveries,
        errors: r.errors as u64,
        verdict,
    }
}

fn graceful(r: &ClusterReport) -> &'static str {
    if r.errors > 0 {
        "transport_error"
    } else if r.all_finished {
        "graceful"
    } else {
        "collapsed"
    }
}

fn total_ranks(tenants: &[TenantSpec]) -> u64 {
    tenants.iter().map(|t| t.ranks as u64).sum()
}

/// The standard contention mix: identical 6-rank tenants arriving in a
/// tight wave, so every ring's traffic overlaps every other's.
fn mix(quick: bool) -> Vec<TenantSpec> {
    let n = if quick { 4 } else { 5 };
    (0..n)
        .map(|i| TenantSpec {
            data_bytes: if quick { 512 << 10 } else { 2 << 20 },
            iterations: 4,
            ..TenantSpec::plain(
                format!("mix{i}"),
                6,
                SimTime::from_nanos(i as u64 * 200_000),
            )
        })
        .collect()
}

/// p99 of one mix-shaped tenant running alone on the same cluster —
/// the denominator of the interference factor.
fn solo_p99(quick: bool) -> f64 {
    let solo = vec![TenantSpec {
        name: "solo".to_string(),
        arrival: SimTime::ZERO,
        ..mix(quick).remove(0)
    }];
    let config = ClusterConfig::new(shared_topo(), PlacementPolicy::TopoAware, solo);
    run_cluster_with(&config, packet_fabric).worst_p99_us()
}

fn x_solo(shared_p99: f64, solo: f64) -> f64 {
    if shared_p99 < 0.0 || solo <= 0.0 {
        -1.0
    } else {
        shared_p99 / solo
    }
}

/// The policy pair: the same mix under both policies, against one solo
/// calibration. One job, two rows — the topo-aware verdict is defined
/// *relative to* the bin-packing result.
fn contention_rows(quick: bool) -> Vec<Row> {
    let solo = solo_p99(quick);
    let tenants = mix(quick);
    let ranks = total_ranks(&tenants);
    let bin = run_cluster_with(
        &ClusterConfig::new(shared_topo(), PlacementPolicy::BinPack, tenants.clone()),
        packet_fabric,
    );
    let topo = run_cluster_with(
        &ClusterConfig::new(shared_topo(), PlacementPolicy::TopoAware, tenants),
        packet_fabric,
    );
    let topo_verdict = if graceful(&topo) != "graceful" {
        graceful(&topo)
    } else if topo.worst_p99_us() < bin.worst_p99_us() {
        "beats-binpack"
    } else {
        "lags-binpack"
    };
    vec![
        report_row(
            "binpack",
            "packet",
            &bin,
            ranks,
            x_solo(bin.worst_p99_us(), solo),
            graceful(&bin),
        ),
        report_row(
            "topo-aware",
            "packet",
            &topo,
            ranks,
            x_solo(topo.worst_p99_us(), solo),
            topo_verdict,
        ),
    ]
}

/// Background contention: a steady probe ring sharing the fabric with
/// bursty neighbours; `x_solo` is the probe's own p99 inflation over
/// the probe running alone.
///
/// Tenant flows only meet on ToR↔agg links, so the scenario is built
/// to share them: three narrow segments under bin-packing make the
/// probe straddle the first segment boundary and the rail-0 neighbour
/// straddle the second — both lean on the middle ToR's agg uplinks,
/// thinned to two aggs per plane.
fn background_row(quick: bool) -> Row {
    let topo = ClosConfig {
        segments: 3,
        hosts_per_segment: 4,
        rails: 2,
        planes: 2,
        aggs_per_plane: 2,
    };
    // Many small iterations: the probe's traffic must span the whole
    // neighbour activity window (tenants start at arrival + their own
    // setup cost, and the neighbours' larger MR pins start them later).
    let probe = TenantSpec {
        data_bytes: 256 << 10,
        iterations: if quick { 200 } else { 400 },
        ..TenantSpec::plain("probe", 6, SimTime::ZERO)
    };
    let solo = run_cluster_with(
        &ClusterConfig::new(topo.clone(), PlacementPolicy::BinPack, vec![probe.clone()]),
        packet_fabric,
    )
    .worst_p99_us();
    let mut tenants = vec![probe];
    for i in 0..3 {
        tenants.push(TenantSpec {
            data_bytes: 8 << 20,
            iterations: if quick { 4 } else { 8 },
            burst: Some(BurstSchedule {
                run_iters: 2,
                pause: SimDuration::from_micros(200),
            }),
            ..TenantSpec::plain(format!("bg{i}"), 6, SimTime::from_nanos((i as u64 + 1) * 100_000))
        });
    }
    let ranks = total_ranks(&tenants);
    let r = run_cluster_with(
        &ClusterConfig::new(topo, PlacementPolicy::BinPack, tenants),
        packet_fabric,
    );
    let probe_p99 = r.tenants[0].p99_latency_us;
    report_row(
        "background",
        "packet",
        &r,
        ranks,
        x_solo(probe_p99, solo),
        graceful(&r),
    )
}

/// The churn storm: one tenant's virtual devices are destroyed twice
/// mid-run and recovered through the transport ladder at the measured
/// destroy→recreate lifecycle cost. Zero loss means every iteration of
/// every tenant still completed with zero terminal errors.
fn churn_row(quick: bool) -> Row {
    let tenants = vec![
        TenantSpec {
            data_bytes: 512 << 10,
            iterations: if quick { 6 } else { 10 },
            churns: vec![SimDuration::from_micros(50), SimDuration::from_millis(2)],
            ..TenantSpec::plain("storm", 6, SimTime::ZERO)
        },
        TenantSpec {
            data_bytes: 512 << 10,
            iterations: 4,
            ..TenantSpec::plain("calm", 6, SimTime::ZERO)
        },
    ];
    let ranks = total_ranks(&tenants);
    let r = run_cluster_with(
        &ClusterConfig::new(shared_topo(), PlacementPolicy::TopoAware, tenants),
        packet_fabric,
    );
    let verdict = if r.all_finished && r.errors == 0 && r.total_recoveries > 0 {
        "zero-loss"
    } else {
        "lost"
    };
    report_row("churn-storm", "packet", &r, ranks, -1.0, verdict)
}

/// The admission wave: ~2× the cluster's slot capacity submitted in a
/// burst. Bounded means peak admission stayed within capacity and every
/// tenant eventually ran to completion through the FIFO queue.
fn admission_row(quick: bool) -> Row {
    let n = if quick { 8 } else { 12 };
    let tenants: Vec<TenantSpec> = (0..n)
        .map(|i| TenantSpec {
            data_bytes: 256 << 10,
            iterations: 2,
            ..TenantSpec::plain(
                format!("w{i}"),
                8,
                SimTime::from_nanos(i as u64 * 100_000),
            )
        })
        .collect();
    let ranks = total_ranks(&tenants);
    let r = run_cluster_with(
        &ClusterConfig::new(shared_topo(), PlacementPolicy::BinPack, tenants),
        packet_fabric,
    );
    let verdict = if r.peak_admitted_ranks <= r.capacity && r.all_finished && r.errors == 0 {
        "bounded"
    } else {
        "oversubscribed"
    };
    report_row("admission", "packet", &r, ranks, -1.0, verdict)
}

/// The same scheduler at fleet scale on the flow-level hybrid fabric:
/// four wide rings (hundreds of ranks in full mode) over a single-rail
/// Clos, half of them queueing behind the other half.
fn scale_row(quick: bool) -> Row {
    let hosts = if quick { 32 } else { 128 };
    let topology = ClosConfig {
        segments: 2,
        hosts_per_segment: hosts,
        rails: 1,
        planes: 2,
        aggs_per_plane: 8,
    };
    let ring = hosts; // two rings fill the cluster; two more queue
    let tenants: Vec<TenantSpec> = (0..4)
        .map(|i| TenantSpec {
            data_bytes: 1 << 20,
            iterations: 3,
            ..TenantSpec::plain(
                format!("s{i}"),
                ring,
                SimTime::from_nanos(i as u64 * 200_000),
            )
        })
        .collect();
    let ranks = total_ranks(&tenants);
    let config = ClusterConfig::new(topology, PlacementPolicy::TopoAware, tenants);
    let r = run_cluster_with(&config, |topo, net, rng| {
        hybrid_fabric(topo, net, HybridConfig::default(), rng)
    });
    report_row("scale", "hybrid", &r, ranks, -1.0, graceful(&r))
}

/// Run the cluster table; one work-pool job per scenario (the policy
/// pair shares one job because its verdict is cross-run).
pub fn run(quick: bool) -> Vec<Row> {
    type Job = fn(bool) -> Vec<Row>;
    const JOBS: &[Job] = &[
        contention_rows,
        |quick| vec![background_row(quick)],
        |quick| vec![churn_row(quick)],
        |quick| vec![admission_row(quick)],
        |quick| vec![scale_row(quick)],
    ];
    par_map(JOBS, |job| job(quick)).into_iter().flatten().collect()
}

/// Render the table `reproduce` prints.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    writeln!(out, "cluster — multi-tenant scheduling on one shared fabric").unwrap();
    writeln!(
        out,
        "{:>11} {:>8} {:>7} {:>4} {:>6} {:>5} {:>4} {:>9} {:>7} {:>9} {:>7} {:>6} {:>4}  verdict",
        "scenario", "policy", "fabric", "ten", "ranks", "peak", "cap", "wait_ms", "GB/s",
        "p99_us", "x_solo", "recov", "err"
    )
    .unwrap();
    let ratio = |v: f64| {
        if v < 0.0 {
            "n/a".to_string()
        } else {
            format!("{v:.2}x")
        }
    };
    for r in rows {
        writeln!(
            out,
            "{:>11} {:>8} {:>7} {:>4} {:>6} {:>5} {:>4} {:>9.2} {:>7.2} {:>9.1} {:>7} {:>6} {:>4}  {}",
            r.scenario,
            r.policy,
            r.fabric,
            r.tenants,
            r.ranks,
            r.peak_ranks,
            r.capacity,
            r.max_wait_ms,
            r.goodput_gbs,
            r.p99_us,
            ratio(r.x_solo),
            r.recoveries,
            r.errors,
            r.verdict
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-friendly miniature of the policy pair on a 4-host-segment
    /// cluster: both runs must degrade gracefully and measure a real
    /// interference factor against the solo calibration.
    #[test]
    fn mini_contention_pair_is_graceful() {
        let topo = ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 2,
            planes: 2,
            aggs_per_plane: 4,
        };
        let tenants: Vec<TenantSpec> = (0..2)
            .map(|i| TenantSpec {
                data_bytes: 256 << 10,
                iterations: 2,
                ..TenantSpec::plain(format!("m{i}"), 4, SimTime::ZERO)
            })
            .collect();
        for policy in [PlacementPolicy::BinPack, PlacementPolicy::TopoAware] {
            let r = run_cluster_with(
                &ClusterConfig::new(topo.clone(), policy, tenants.clone()),
                packet_fabric,
            );
            assert_eq!(graceful(&r), "graceful");
            assert!(r.worst_p99_us() > 0.0);
        }
    }

    #[test]
    fn interference_factor_handles_missing_samples() {
        assert_eq!(x_solo(-1.0, 10.0), -1.0);
        assert_eq!(x_solo(10.0, 0.0), -1.0);
        assert_eq!(x_solo(20.0, 10.0), 2.0);
    }

    #[test]
    fn verdict_tiers_map_report_states() {
        let tenants = vec![TenantSpec {
            data_bytes: 128 << 10,
            iterations: 1,
            ..TenantSpec::plain("t", 4, SimTime::ZERO)
        }];
        let r = run_cluster_with(
            &ClusterConfig::new(shared_topo(), PlacementPolicy::BinPack, tenants),
            packet_fabric,
        );
        assert_eq!(graceful(&r), "graceful");
        let mut collapsed = r.clone();
        collapsed.all_finished = false;
        assert_eq!(graceful(&collapsed), "collapsed");
        collapsed.errors = 1;
        assert_eq!(graceful(&collapsed), "transport_error");
    }
}
