//! `recovery` — end-to-end failure recovery under chaos (DESIGN.md §11).
//!
//! Two halves, one table:
//!
//! * **Mechanism rows** (packet fabric, 8-rank ring) — the compound
//!   chaos plan that drives an unhardened single-path transport into
//!   terminal `RetryBudgetExhausted`, replayed four ways: without
//!   recovery (the counterfactual), with the default
//!   [`RecoveryPolicy`], with the re-establishment cost inflated to a
//!   live-measured vStellar device destroy→recreate lifecycle
//!   (~1.5 s of control-plane + PVDMA re-pin work), and with the full
//!   hardened stack (OBS spray + plane failover + recovery).
//! * **Fleet row** (hybrid fabric) — a fleet of 128-rank AllReduce
//!   rings totalling 4 096 ranks (`--quick`) or 16 384 ranks, with a
//!   multi-link outage long enough to exhaust retry budgets across
//!   many connections at once. The row reports recovery-time
//!   percentiles, the goodput dip while connections re-establish, and
//!   the restore level afterwards.
//!
//! Every row carries an exactly-once verdict: `ok` means the job
//! completed all iterations with zero terminal errors — the receive
//! bitmaps guarantee no packet was delivered twice, and completion
//! guarantees none was lost.

use stellar_core::vstellar::VStellarStack;
use stellar_core::{RnicId, ServerConfig, StellarServer};
use stellar_net::fixture::{hybrid_fabric, packet_fabric};
use stellar_net::{Fabric, FaultPlan, HybridConfig, HybridFabric, NetworkConfig, NicId};
use stellar_pcie::addr::Gva;
use stellar_sim::json::json_row;
use stellar_sim::par::par_map;
use stellar_sim::stats::Histogram;
use stellar_sim::{SimDuration, SimRng, SimTime};
use stellar_transport::{
    PathAlgo, PlaneFailover, RecoveryPolicy, ScoreboardPolicy, TransportConfig, TransportSim,
};
use stellar_virt::rund::MemoryStrategy;
use stellar_workloads::allreduce::{
    calibrate, first_edge_uplink, AllReduceJob, AllReduceRunner, FaultWindows, InterleavedRings,
};
use stellar_workloads::chaos::{run_chaos_with, ChaosConfig, ChaosScenario};

use crate::{or_na, rel, Table};

json_row! {
    /// One recovery-table row.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Scenario name.
        pub scenario: &'static str,
        /// Fabric the row ran on.
        pub fabric: &'static str,
        /// Total ranks in the job.
        pub ranks: u64,
        /// Completed connection recoveries (teardown → re-establish).
        pub recoveries: u64,
        /// Packets replayed from receiver bitmaps at re-establishment.
        pub replayed: u64,
        /// Recovery downtime percentiles, milliseconds (`-1` when the row
        /// recorded no recoveries).
        pub p50_ms: f64,
        /// 99th-percentile downtime, ms.
        pub p99_ms: f64,
        /// Worst-case downtime, ms.
        pub max_ms: f64,
        /// Goodput while the faults were live, relative to the fault-free
        /// calibration run (`-1` if no iteration overlapped the window).
        pub dip_rel: f64,
        /// Goodput after the fabric recovered, relative to calibration.
        pub restore_rel: f64,
        /// `"ok"` when every iteration completed with zero terminal errors
        /// (exactly-once delivery held end-to-end), else `"violated"`.
        pub exactly_once: &'static str,
        /// Graceful-degradation verdict.
        pub verdict: &'static str,
    }
}

/// Downtime percentiles in milliseconds; `(-1, -1, -1)` for no samples.
fn downtime_ms(downtimes: &[SimDuration]) -> (f64, f64, f64) {
    if downtimes.is_empty() {
        return (-1.0, -1.0, -1.0);
    }
    let mut h = Histogram::new();
    for &d in downtimes {
        h.record_duration(d);
    }
    let ms = |v: Option<u64>| v.map_or(-1.0, |n| n as f64 / 1e6);
    (ms(h.p50()), ms(h.p99()), ms(h.max()))
}

/// The compound plan against an unhardened single-path transport — the
/// exact configuration that exhausts the retry budget (the acceptance
/// scenario the recovery machinery exists for).
fn unhardened_compound(quick: bool) -> ChaosConfig {
    ChaosConfig {
        algo: PathAlgo::SinglePath,
        num_paths: 1,
        rto_backoff: 1.0,
        retry_budget: 8,
        scoreboard: ScoreboardPolicy {
            blacklist_after: 0,
            penalty: SimDuration::ZERO,
        },
        bgp_convergence: SimDuration::from_millis(50),
        data_bytes: if quick { 2 << 20 } else { 16 << 20 },
        iterations: 8,
        ..ChaosConfig::default()
    }
}

/// Run one chaos config and fold it into a row.
fn chaos_row(scenario: &'static str, config: &ChaosConfig) -> Row {
    let r = run_chaos_with(config, &packet_fabric);
    let (p50_ms, p99_ms, max_ms) = downtime_ms(&r.recovery_downtimes);
    let exactly_once = if r.errors.is_empty() && r.iterations_completed == config.iterations {
        "ok"
    } else {
        "violated"
    };
    Row {
        scenario,
        fabric: "packet",
        ranks: config.ranks as u64,
        recoveries: r.recoveries,
        replayed: r.replayed_packets,
        p50_ms,
        p99_ms,
        max_ms,
        dip_rel: rel(r.bridged, r.healthy_busbw_gbs),
        restore_rel: rel(r.after, r.healthy_busbw_gbs),
        exactly_once,
        verdict: r.verdict.name(),
    }
}

/// The PVDMA re-pin cost of a full vStellar device destroy→recreate
/// cycle, measured live on the control-plane model: destroy round trip,
/// ~1.5 s device creation, host-MR re-registration, QP bring-up.
pub fn vstellar_churn_cost() -> SimDuration {
    const MB: u64 = 1 << 20;
    let mut server = StellarServer::new(ServerConfig::default());
    let (container, _) = server.boot_container(256 * MB, MemoryStrategy::Pvdma);
    let stack = VStellarStack::new();
    let (device, _) = stack
        .create_device(&mut server, container, RnicId(0))
        .expect("vStellar device creation");
    stack
        .register_mr_host(&mut server, &device, Gva(4 * MB), 4 * MB)
        .expect("host MR registration");
    stack
        .churn_device(&mut server, device, &[(Gva(4 * MB), 4 * MB)])
        .expect("device churn")
        .elapsed
}

/// Fleet shape: many 128-rank rings on the hybrid fabric.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Concurrent AllReduce rings.
    pub rings: usize,
    /// Ranks per ring.
    pub ring_ranks: usize,
    /// AllReduce payload per ring.
    pub data_bytes: u64,
    /// Iterations per ring.
    pub iterations: u32,
    /// Ring-0..victims first-edge uplinks taken down by the outage.
    pub victims: usize,
    /// How long each victim link stays dark — long enough to exhaust
    /// the retry budget many times over.
    pub outage: SimDuration,
    /// Seed.
    pub seed: u64,
}

/// The `--quick` fleet is 32 × 128 = 4 096 ranks; the full fleet is
/// 128 × 128 = 16 384 ranks (HPN7.0-job scale, far past the packet
/// model's event budget — the hybrid fabric carries it).
pub fn fleet_config(quick: bool) -> FleetConfig {
    FleetConfig {
        rings: if quick { 32 } else { 128 },
        ring_ranks: 128,
        data_bytes: 1 << 20,
        iterations: 3,
        victims: 8,
        outage: SimDuration::from_millis(8),
        seed: 77,
    }
}

/// Fleet run output (the raw material of the `ring-fleet` row).
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Total ranks.
    pub ranks: u64,
    /// Fault-free mean bus bandwidth across all rings, GB/s.
    pub healthy_busbw_gbs: f64,
    /// Mean busbw of iterations overlapping the outage, GB/s.
    pub bridged: Option<f64>,
    /// Mean busbw of post-outage iterations, GB/s.
    pub after: Option<f64>,
    /// Completed connection recoveries.
    pub recoveries: u64,
    /// Packets replayed at re-establishment.
    pub replayed: u64,
    /// Per-recovery downtimes.
    pub downtimes: Vec<SimDuration>,
    /// Terminal connection errors (must be zero for `ok`).
    pub errors: usize,
    /// Every ring finished every iteration.
    pub all_finished: bool,
}

/// The fleet's placement: `rings` [`InterleavedRings`] of `ring_ranks`
/// each. Panics with the layout error's message if the fleet has an odd
/// rank total or rings below 2 ranks.
fn fleet_layout(config: &FleetConfig) -> InterleavedRings {
    InterleavedRings::new(config.rings, config.ring_ranks).unwrap_or_else(|e| panic!("{e}"))
}

/// The fleet fabric, hybrid, on the layout's Clos, and the transport's
/// seeded stream.
fn fleet_fabric(config: &FleetConfig) -> (HybridFabric, SimRng) {
    let rng = SimRng::from_seed(config.seed);
    let fabric = hybrid_fabric(
        fleet_layout(config).clos(),
        NetworkConfig {
            // Longer than the outage: the recovery ladder, not a BGP
            // reroute, must bridge the dark window.
            bgp_convergence: SimDuration::from_millis(50),
            ..NetworkConfig::default()
        },
        HybridConfig::default(),
        &rng,
    );
    (fabric, rng.fork("transport"))
}

/// Build the fleet simulator: single-path transport (so a dead route
/// must re-establish rather than spray around the fault) with recovery
/// enabled, on the hybrid fabric.
fn fleet_sim(config: &FleetConfig) -> (TransportSim<HybridFabric>, Vec<Vec<NicId>>) {
    let (fabric, rng) = fleet_fabric(config);
    let sim = TransportSim::new(
        fabric,
        TransportConfig {
            algo: PathAlgo::SinglePath,
            num_paths: 1,
            rto_backoff: 1.0,
            // A small budget makes each blackholed replay round cheap
            // (~1 ms), so one outage climbs several rungs of the
            // reconnect ladder — the percentiles spread.
            retry_budget: 4,
            scoreboard: ScoreboardPolicy {
                blacklist_after: 0,
                penalty: SimDuration::ZERO,
            },
            recovery: Some(RecoveryPolicy::default()),
            ..TransportConfig::default()
        },
        rng,
    );
    let nics = fleet_layout(config).nics(sim.network().topology());
    (sim, nics)
}

fn fleet_jobs(config: &FleetConfig, nics: &[Vec<NicId>]) -> Vec<AllReduceJob> {
    nics.iter()
        .map(|ring| AllReduceJob {
            nics: ring.clone(),
            data_bytes: config.data_bytes,
            iterations: config.iterations,
            burst: None,
        })
        .collect()
}

/// Run the fleet: a fault-free calibration pass (healthy busbw and the
/// mean iteration time that anchors the outage), then the chaos pass
/// with the victim uplinks dark for [`FleetConfig::outage`].
pub fn run_fleet(config: &FleetConfig) -> FleetReport {
    let (mut sim, nics) = fleet_sim(config);
    let healthy = calibrate(&mut sim, fleet_jobs(config, &nics));

    // Chaos pass: the calibration sim reset onto a fresh fabric, same
    // seed; the first iteration runs clean, then the victim rings'
    // first-edge uplinks go dark.
    let (fabric, rng) = fleet_fabric(config);
    sim.reset(fabric, rng);
    let fault_start = SimTime::ZERO + healthy.iter_time;
    let topo = sim.network().topology();
    let mut victims: Vec<_> = nics
        .iter()
        .take(config.victims)
        .map(|ring| first_edge_uplink(topo, ring, 0))
        .collect();
    victims.sort_by_key(|l| l.0);
    victims.dedup();
    let mut plan = FaultPlan::new(config.seed);
    for &link in &victims {
        plan = plan.flap(link, fault_start, config.outage, SimDuration::from_millis(1), 1);
    }
    let recovered_at = plan
        .recovery_time(SimDuration::from_millis(50))
        .unwrap_or(SimTime::ZERO);
    sim.network_mut().install_fault_plan(plan);

    let mut runner = AllReduceRunner::new(&mut sim, fleet_jobs(config, &nics));
    runner.start(&mut sim);
    sim.run(&mut runner, SimTime::from_nanos(u64::MAX / 2));

    let windows = FaultWindows::split(&runner.busbw_samples(), fault_start, recovered_at);
    let total = sim.total_stats();
    FleetReport {
        ranks: (config.rings * config.ring_ranks) as u64,
        healthy_busbw_gbs: healthy.busbw_gbs,
        bridged: windows.bridged,
        after: windows.after,
        recoveries: total.recoveries,
        replayed: total.replayed_packets,
        downtimes: runner.downtimes().to_vec(),
        errors: runner.errors().len(),
        all_finished: runner.all_finished(),
    }
}

fn fleet_row(config: &FleetConfig) -> Row {
    let r = run_fleet(config);
    let (p50_ms, p99_ms, max_ms) = downtime_ms(&r.downtimes);
    Row {
        scenario: "ring-fleet",
        fabric: "hybrid",
        ranks: r.ranks,
        recoveries: r.recoveries,
        replayed: r.replayed,
        p50_ms,
        p99_ms,
        max_ms,
        dip_rel: rel(r.bridged, r.healthy_busbw_gbs),
        restore_rel: rel(r.after, r.healthy_busbw_gbs),
        exactly_once: if r.all_finished && r.errors == 0 {
            "ok"
        } else {
            "violated"
        },
        verdict: if r.errors > 0 {
            "transport_error"
        } else if r.all_finished {
            "graceful"
        } else {
            "collapsed"
        },
    }
}

/// Run the recovery table; one work-pool job per row.
pub fn run(quick: bool) -> Vec<Row> {
    type Job = fn(bool) -> Row;
    const JOBS: &[Job] = &[
        // The counterfactual: the same compound plan with no recovery
        // policy — the retry budget exhausts and the job dies.
        |quick| chaos_row("no-recovery", &unhardened_compound(quick)),
        // Default recovery: teardown → backoff → re-establish → replay.
        |quick| {
            chaos_row(
                "recovery",
                &ChaosConfig {
                    recovery: Some(RecoveryPolicy::default()),
                    ..unhardened_compound(quick)
                },
            )
        },
        // Recovery through a full vStellar device destroy→recreate:
        // the re-establishment cost is the live-measured ~1.5 s churn.
        |quick| {
            chaos_row(
                "churn-replay",
                &ChaosConfig {
                    recovery: Some(RecoveryPolicy {
                        reestablish: vstellar_churn_cost(),
                        ..RecoveryPolicy::default()
                    }),
                    ..unhardened_compound(quick)
                },
            )
        },
        // The full hardened stack: OBS spray rides through the storm,
        // plane failover quarantines the dying plane, recovery backs
        // the whole thing up. Terminal errors are impossible here.
        // Iterations must dwarf one RTO for the post-recovery window to
        // be populated, so the payload stays large even in quick mode
        // (same reasoning as the chaos table's compound row).
        |_quick| {
            chaos_row(
                "obs-failover",
                &ChaosConfig {
                    scenario: ChaosScenario::Compound,
                    recovery: Some(RecoveryPolicy::default()),
                    plane_failover: Some(PlaneFailover::default()),
                    data_bytes: 16 << 20,
                    iterations: 8,
                    ..ChaosConfig::default()
                },
            )
        },
        |quick| fleet_row(&fleet_config(quick)),
    ];
    par_map(JOBS, |job| job(quick))
}

/// Render the table `reproduce` prints.
pub fn render(rows: &[Row]) -> String {
    let pct = |v: f64| or_na(v, |v| format!("{:.0}%", v * 100.0));
    let ms = |v: f64| or_na(v, |v| format!("{v:.2}"));
    Table::new("recovery — re-establishment, failover, and churn survival", rows)
        .col("scenario", 13, |r| r.scenario)
        .col("fabric", 7, |r| r.fabric)
        .col("ranks", 6, |r| r.ranks)
        .col("recov", 6, |r| r.recoveries)
        .col("replay", 7, |r| r.replayed)
        .col("p50ms", 8, |r| ms(r.p50_ms))
        .col("p99ms", 8, |r| ms(r.p99_ms))
        .col("maxms", 8, |r| ms(r.max_ms))
        .col("dip", 6, |r| pct(r.dip_rel))
        .col("restore", 8, |r| pct(r.restore_rel))
        .col("once", 8, |r| r.exactly_once)
        .verdict(|r| r.verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-profile-friendly miniature of the fleet: 2 rings × 8 ranks
    /// with one victim uplink dark for 5 ms. The outage must force at
    /// least one re-establishment, every ring must still finish, and
    /// the run must be deterministic.
    fn mini() -> FleetConfig {
        FleetConfig {
            rings: 2,
            ring_ranks: 8,
            data_bytes: 256 * 1024,
            iterations: 3,
            victims: 1,
            outage: SimDuration::from_millis(5),
            seed: 77,
        }
    }

    #[test]
    fn mini_fleet_survives_the_outage() {
        let r = run_fleet(&mini());
        assert!(r.all_finished, "every ring must finish");
        assert_eq!(r.errors, 0, "recovery must prevent terminal errors");
        assert!(r.recoveries >= 1, "the outage must force re-establishment");
        assert_eq!(r.downtimes.len() as u64, r.recoveries);
        assert!(r.replayed > 0, "re-establishment must replay unacked packets");
        assert!(r.healthy_busbw_gbs > 0.0);
        // Every downtime includes at least the first-rung reconnect
        // delay.
        let floor = RecoveryPolicy::default().reconnect_delay(0);
        assert!(r.downtimes.iter().all(|&d| d >= floor));
    }

    #[test]
    fn mini_fleet_is_deterministic() {
        let once = || {
            let r = run_fleet(&mini());
            (
                r.recoveries,
                r.replayed,
                r.downtimes.clone(),
                r.healthy_busbw_gbs.to_bits(),
            )
        };
        assert_eq!(once(), once());
    }

    #[test]
    fn churn_cost_is_a_device_lifecycle() {
        let t = vstellar_churn_cost();
        assert!(
            (1.4..3.0).contains(&t.as_secs_f64()),
            "churn cost {t} out of the device-lifecycle range"
        );
    }

    #[test]
    fn downtime_percentiles_handle_empty_and_ordered() {
        assert_eq!(downtime_ms(&[]), (-1.0, -1.0, -1.0));
        let ds: Vec<SimDuration> = (1..=100).map(SimDuration::from_millis).collect();
        let (p50, p99, max) = downtime_ms(&ds);
        assert!(p50 <= p99 && p99 <= max);
        assert_eq!(max, 100.0);
    }
}
