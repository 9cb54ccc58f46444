//! Chaos scenarios: AllReduce under multi-fault [`FaultPlan`]s (§7.2's
//! availability story pushed past the single-link case).
//!
//! [`run_chaos`] runs the same seeded AllReduce twice: once healthy
//! (calibration — measures the fault-free bus bandwidth and the mean
//! iteration time used to anchor the fault schedule on the simulation
//! clock), once with the scenario's fault plan installed. Iterations are
//! then classified into the paper's three recovery phases — healthy,
//! RTO/scoreboard-bridged, and post-reroute — and the run is scored with
//! a graceful-degradation [`Verdict`]. Everything is derived from
//! simulated time and seeded randomness; wall clocks never appear.

use stellar_net::fixture::packet_fabric;
use stellar_net::{ClosConfig, DropReason, Fabric, FaultPlan, LinkId, NetworkConfig, NicId};
use stellar_sim::{SimDuration, SimRng, SimTime};
use stellar_transport::{
    App, ConnId, FatalError, MsgId, PathAlgo, PlaneFailover, RecoveryPolicy, ScoreboardPolicy,
    TransportConfig, TransportSim,
};

use crate::allreduce::{AllReduceJob, AllReduceRunner};

/// The fault scenario to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosScenario {
    /// A seeded storm of short link flaps across the uplinks the job's
    /// paths actually cross.
    FlapStorm,
    /// Cascading aggregation-switch deaths (no recovery — replacement
    /// hardware takes hours).
    SwitchDeath,
    /// One optical module degrading slowly: loss probability ramps from
    /// zero instead of jumping.
    SlowOptics,
    /// Flap storm plus one switch death mid-storm — the acceptance
    /// compound plan.
    Compound,
}

impl ChaosScenario {
    /// Stable lowercase name (bench table rows, CLI).
    pub fn name(self) -> &'static str {
        match self {
            ChaosScenario::FlapStorm => "flap_storm",
            ChaosScenario::SwitchDeath => "switch_death",
            ChaosScenario::SlowOptics => "slow_optics",
            ChaosScenario::Compound => "compound",
        }
    }

    /// All scenarios, in table order.
    pub const ALL: [ChaosScenario; 4] = [
        ChaosScenario::FlapStorm,
        ChaosScenario::SwitchDeath,
        ChaosScenario::SlowOptics,
        ChaosScenario::Compound,
    ];
}

/// Chaos-run parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Scenario to inject.
    pub scenario: ChaosScenario,
    /// Ring size.
    pub ranks: usize,
    /// AllReduce payload per rank.
    pub data_bytes: u64,
    /// Iterations to run.
    pub iterations: u32,
    /// Faults start after roughly this many healthy iterations.
    pub fail_after_iter: u32,
    /// Path algorithm.
    pub algo: PathAlgo,
    /// Paths per connection.
    pub num_paths: u32,
    /// BGP convergence delay.
    pub bgp_convergence: SimDuration,
    /// Per-packet retry budget (see `TransportConfig::retry_budget`).
    pub retry_budget: u32,
    /// RTO backoff factor (1.0 = the unhardened fixed RTO).
    pub rto_backoff: f64,
    /// Loss-scoreboard policy.
    pub scoreboard: ScoreboardPolicy,
    /// Failure recovery policy handed to the transport. `None` (the
    /// default) keeps the pre-recovery behaviour: a connection that
    /// exhausts its retry budget dies terminally.
    pub recovery: Option<RecoveryPolicy>,
    /// Plane-level failover for the path scoreboard (`None` = per-path
    /// blacklisting only).
    pub plane_failover: Option<PlaneFailover>,
    /// Seed for fabric, transport, and fault plan.
    pub seed: u64,
    /// Restrict the scenario's fault plan to these indices into its
    /// time-sorted event list (`None` = the full plan). Produced by
    /// [`shrink_failing_chaos`] when bisecting a failure down to the
    /// events that actually cause it.
    pub plan_keep: Option<Vec<usize>>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            scenario: ChaosScenario::Compound,
            ranks: 8,
            data_bytes: 8 * 1024 * 1024,
            iterations: 12,
            fail_after_iter: 3,
            algo: PathAlgo::Obs,
            num_paths: 128,
            bgp_convergence: SimDuration::from_millis(2),
            retry_budget: 16,
            rto_backoff: 2.0,
            scoreboard: ScoreboardPolicy::default(),
            recovery: None,
            plane_failover: None,
            seed: 7,
            plan_keep: None,
        }
    }
}

/// Graceful-degradation verdict for one chaos run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Bridged busbw ≥ 60% of healthy and post-reroute ≥ 90%: the
    /// transport rode through the faults (the paper's §7.2 claim).
    Graceful,
    /// Recovered post-reroute (≥ 90%) but the bridged window dipped
    /// below 60% of healthy.
    Degraded,
    /// Never recovered to 90% of healthy after the reroute window.
    Collapsed,
    /// At least one connection hit its retry budget and reported a
    /// terminal error.
    TransportError,
}

impl Verdict {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Graceful => "graceful",
            Verdict::Degraded => "degraded",
            Verdict::Collapsed => "collapsed",
            Verdict::TransportError => "transport_error",
        }
    }
}

/// Output of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The scenario that ran.
    pub scenario: ChaosScenario,
    /// Mean busbw of the fault-free calibration run, GB/s.
    pub healthy_busbw_gbs: f64,
    /// Per-iteration busbw of the chaos run, GB/s, in order.
    pub busbw_gbs: Vec<f64>,
    /// Mean busbw of iterations finishing before the first fault.
    pub before: Option<f64>,
    /// Mean busbw of iterations overlapping the fault window (first
    /// fault → last transition + BGP convergence).
    pub bridged: Option<f64>,
    /// Mean busbw of iterations starting after the reroute settled.
    pub after: Option<f64>,
    /// First scheduled fault.
    pub fault_start: SimTime,
    /// Where the post-recovery phase begins
    /// ([`FaultPlan::recovery_time`]): restored links count at their up
    /// event, permanent deaths after BGP convergence, ramps at ramp end.
    pub recovered_at: SimTime,
    /// Fabric drop counts by reason, in [`DropReason::ALL`] order.
    pub drops_by_reason: Vec<(DropReason, u64)>,
    /// Total retransmissions across all connections.
    pub retransmits: u64,
    /// Completed connection recovery cycles (0 without a
    /// [`RecoveryPolicy`]).
    pub recoveries: u64,
    /// Packets replayed by recovery re-establishment.
    pub replayed_packets: u64,
    /// Per-recovery downtimes, in completion order.
    pub recovery_downtimes: Vec<SimDuration>,
    /// Connections that died with a *terminal* fatal error (a connection
    /// that recovered does not appear here).
    pub errors: Vec<(ConnId, FatalError)>,
    /// Iterations completed (the job may stall on a dead connection).
    pub iterations_completed: u32,
    /// The verdict.
    pub verdict: Verdict,
}

struct ErrorWatch {
    runner: AllReduceRunner,
    errors: Vec<(ConnId, FatalError)>,
    recovered: Vec<(ConnId, SimDuration)>,
}

impl<F: Fabric> App<F> for ErrorWatch {
    fn on_message_complete(&mut self, sim: &mut TransportSim<F>, conn: ConnId, msg: MsgId) {
        self.runner.on_message_complete(sim, conn, msg);
    }
    fn on_timer(&mut self, sim: &mut TransportSim<F>, token: u64) {
        self.runner.on_timer(sim, token);
    }
    fn on_connection_error(&mut self, _sim: &mut TransportSim<F>, conn: ConnId, error: FatalError) {
        self.errors.push((conn, error));
    }
    fn on_connection_recovered(
        &mut self,
        _sim: &mut TransportSim<F>,
        conn: ConnId,
        downtime: SimDuration,
    ) {
        self.recovered.push((conn, downtime));
    }
}

/// The chaos topology: 2 planes × 60 aggs = the production 120-way path
/// fan-out; losing a few slots to faults is survivable by construction
/// (§7.2).
fn chaos_clos(config: &ChaosConfig) -> ClosConfig {
    ClosConfig {
        segments: 2,
        hosts_per_segment: config.ranks / 2,
        rails: 1,
        planes: 2,
        aggs_per_plane: 60,
    }
}

fn chaos_net(config: &ChaosConfig) -> NetworkConfig {
    NetworkConfig {
        bgp_convergence: config.bgp_convergence,
        ..NetworkConfig::default()
    }
}

/// Ring alternating across segments so every edge crosses the agg layer.
fn ring_nics<F: Fabric>(config: &ChaosConfig, sim: &TransportSim<F>) -> Vec<NicId> {
    (0..config.ranks)
        .map(|r| {
            let host = (r / 2) + (r % 2) * (config.ranks / 2);
            sim.network().topology().nic(host, 0)
        })
        .collect()
}

fn chaos_transport(config: &ChaosConfig) -> TransportConfig {
    TransportConfig {
        algo: config.algo,
        num_paths: config.num_paths,
        retry_budget: config.retry_budget,
        rto_backoff: config.rto_backoff,
        scoreboard: config.scoreboard,
        recovery: config.recovery.clone(),
        plane_failover: config.plane_failover,
        ..TransportConfig::default()
    }
}

/// Build the chaos simulator on any [`Fabric`]. The builder closure is
/// the same shape the failure-timeline and scale experiments use
/// (`|clos, net, rng| hybrid_fabric(clos, net, HybridConfig::default(),
/// rng)`); it is `Fn` rather than `FnOnce` because a chaos run builds
/// the fabric twice — once for calibration, once for the chaos pass.
pub fn build_sim_with<F: Fabric>(
    config: &ChaosConfig,
    build: &impl Fn(ClosConfig, NetworkConfig, &SimRng) -> F,
) -> (TransportSim<F>, Vec<NicId>) {
    let rng = SimRng::from_seed(config.seed);
    let network = build(chaos_clos(config), chaos_net(config), &rng);
    let sim = TransportSim::new(network, chaos_transport(config), rng.fork("transport"));
    let nics = ring_nics(config, &sim);
    (sim, nics)
}

fn build_sim(config: &ChaosConfig) -> (TransportSim, Vec<NicId>) {
    build_sim_with(config, &|clos, net, rng| packet_fabric(clos, net, rng))
}

/// The distinct fabric links the ring's first connection can cross at its
/// ToR→Agg hop — the storm's target set (faults that no path crosses
/// would be theater, not chaos).
fn uplinks_of_first_conn<F: Fabric>(
    sim: &TransportSim<F>,
    nics: &[NicId],
    num_paths: u32,
) -> Vec<LinkId> {
    let topo = sim.network().topology();
    let mut links: Vec<LinkId> = (0..num_paths)
        .map(|p| topo.route(nics[0], nics[1], 0, p)[1])
        .collect();
    links.sort_by_key(|l| l.0);
    links.dedup();
    links
}

/// `d × k` (SimDuration deliberately has no Mul to keep unit mistakes
/// loud; fault scheduling is the one place scaling is natural).
fn scale(d: SimDuration, num: u64, den: u64) -> SimDuration {
    SimDuration::from_nanos((d.as_nanos() * num / den).max(1))
}

fn build_plan<F: Fabric>(
    config: &ChaosConfig,
    sim: &TransportSim<F>,
    nics: &[NicId],
    iter_time: SimDuration,
) -> FaultPlan {
    let t0 = SimTime::ZERO + scale(iter_time, config.fail_after_iter as u64, 1);
    // Storms fit inside roughly one iteration: faults are bridged by
    // RTO + scoreboard, and the claim under test is that an iteration
    // overlapping the storm degrades bounded-ly — not that bandwidth is
    // magically conjured while links are down.
    let window = iter_time;
    let uplinks = uplinks_of_first_conn(sim, nics, config.num_paths);
    // Spread the storm over ~8 distinct uplinks of the fan-out.
    let stride = (uplinks.len() / 8).max(1);
    let storm_links: Vec<LinkId> = uplinks.iter().copied().step_by(stride).take(8).collect();
    let topo = sim.network().topology();
    // The agg switch carrying the first connection's path 0 — for
    // SinglePath that is the one route the whole job hinges on.
    let victim_link = topo.route(nics[0], nics[1], 0, 0)[1];
    let (_, victim_agg) = topo.link_endpoints(victim_link);
    let plan = FaultPlan::new(config.seed);
    match config.scenario {
        ChaosScenario::FlapStorm => plan.flap_storm(
            &storm_links,
            t0,
            window,
            8,
            scale(iter_time, 1, 8),
            scale(iter_time, 1, 4),
        ),
        ChaosScenario::SwitchDeath => {
            // Two aggs die back to back; ensure the second is distinct.
            let second = topo.route(nics[0], nics[1], 0, 1)[1];
            let (_, agg2) = topo.link_endpoints(second);
            let victims = if agg2 != victim_agg {
                vec![victim_agg, agg2]
            } else {
                vec![victim_agg]
            };
            plan.cascade(&victims, t0, scale(iter_time, 1, 2))
        }
        ChaosScenario::SlowOptics => plan.degrade(t0, victim_link, 0.0, 0.15, window),
        ChaosScenario::Compound => plan
            .flap_storm(
                &storm_links,
                t0,
                window,
                8,
                scale(iter_time, 1, 8),
                scale(iter_time, 1, 4),
            )
            .switch_down(t0 + scale(iter_time, 1, 2), victim_agg),
    }
}

/// The scenario's plan, filtered to the `plan_keep` subset when one is
/// set (indices into the full plan's time-sorted event list).
fn effective_plan<F: Fabric>(
    config: &ChaosConfig,
    sim: &TransportSim<F>,
    nics: &[NicId],
    iter_time: SimDuration,
) -> FaultPlan {
    let full = build_plan(config, sim, nics, iter_time).into_events();
    let events = match &config.plan_keep {
        Some(keep) => keep.iter().filter_map(|&i| full.get(i).copied()).collect(),
        None => full,
    };
    FaultPlan::from_events(config.seed, events)
}

/// Run the calibration pass: fault-free, same seed. Returns the mean
/// busbw (GB/s) and mean iteration time, plus the spent simulator so the
/// chaos pass can [`TransportSim::reset`] it instead of reallocating.
fn calibrate_with<F: Fabric>(
    config: &ChaosConfig,
    build: &impl Fn(ClosConfig, NetworkConfig, &SimRng) -> F,
) -> (f64, SimDuration, TransportSim<F>) {
    let (mut sim, nics) = build_sim_with(config, build);
    let mut runner = AllReduceRunner::new(
        &mut sim,
        vec![AllReduceJob {
            nics,
            data_bytes: config.data_bytes,
            iterations: config.iterations,
            burst: None,
        }],
    );
    runner.start(&mut sim);
    sim.run(&mut runner, SimTime::from_nanos(u64::MAX / 2));
    assert!(runner.all_finished(), "calibration run must finish");
    let report = runner.report(0);
    let total: SimDuration = report
        .iterations
        .iter()
        .map(|r| r.duration())
        .fold(SimDuration::ZERO, |a, d| a + d);
    let mean_iter = SimDuration::from_nanos(
        (total.as_nanos() / report.iterations.len() as u64).max(1),
    );
    (report.mean_bus_bandwidth_gbs(), mean_iter, sim)
}

/// Run one chaos scenario (calibration + chaos pass) on the packet-level
/// [`Network`].
pub fn run_chaos(config: &ChaosConfig) -> ChaosReport {
    run_chaos_with(config, &|clos, net, rng| packet_fabric(clos, net, rng))
}

/// Run one chaos scenario on any [`Fabric`] — the hybrid packet/fluid
/// fabric included, which is how chaos reaches 4k+-rank jobs. The
/// builder is invoked twice (calibration fabric, then chaos fabric) with
/// identical arguments, so both passes see the same seeded network.
pub fn run_chaos_with<F: Fabric>(
    config: &ChaosConfig,
    build: &impl Fn(ClosConfig, NetworkConfig, &SimRng) -> F,
) -> ChaosReport {
    let (healthy_busbw, iter_time, mut sim) = calibrate_with(config, build);

    // Same seed as calibration, fresh fabric; the spent calibration sim
    // is reset in place so the chaos pass reuses its event-queue and
    // connection-table allocations.
    let rng = SimRng::from_seed(config.seed);
    sim.reset(
        build(chaos_clos(config), chaos_net(config), &rng),
        rng.fork("transport"),
    );
    let nics = ring_nics(config, &sim);
    let plan = effective_plan(config, &sim, &nics, iter_time);
    // A shrunk plan may be empty (the shrinker probes the no-fault
    // candidate); such a run is simply the healthy workload again.
    let fault_start = plan
        .clone()
        .into_events()
        .first()
        .map(|&(t, _)| t)
        .unwrap_or(SimTime::ZERO);
    let recovered_at = plan
        .recovery_time(config.bgp_convergence)
        .unwrap_or(SimTime::ZERO);
    if !plan.is_empty() {
        sim.network_mut().install_fault_plan(plan);
    }

    let runner = AllReduceRunner::new(
        &mut sim,
        vec![AllReduceJob {
            nics,
            data_bytes: config.data_bytes,
            iterations: config.iterations,
            burst: None,
        }],
    );
    let mut app = ErrorWatch {
        runner,
        errors: Vec::new(),
        recovered: Vec::new(),
    };
    app.runner.start(&mut sim);
    sim.run(&mut app, SimTime::from_nanos(u64::MAX / 2));

    let report = app.runner.report(0);
    let busbw: Vec<f64> = (0..report.iterations.len())
        .map(|i| report.bus_bandwidth_gbs(i))
        .collect();
    let phase = |pred: &dyn Fn(&crate::allreduce::IterationRecord) -> bool| -> Option<f64> {
        let vals: Vec<f64> = report
            .iterations
            .iter()
            .enumerate()
            .filter(|(_, r)| pred(r))
            .map(|(i, _)| busbw[i])
            .collect();
        stellar_sim::stats::mean(&vals)
    };
    let before = phase(&|r| r.finished <= fault_start);
    let bridged = phase(&|r| r.started < recovered_at && r.finished > fault_start);
    let after = phase(&|r| r.started >= recovered_at);

    let drops_by_reason: Vec<(DropReason, u64)> = DropReason::ALL
        .iter()
        .map(|&r| (r, sim.network().drops_by_reason(r)))
        .collect();
    let total = sim.total_stats();
    let errors = app.errors;
    // Only *terminal* failures surface as errors; a connection that is
    // still recovering (or recovered) must not be counted dead.
    debug_assert_eq!(errors.len(), sim.failed_connections());
    debug_assert_eq!(app.recovered.len() as u64, total.recoveries);

    let verdict = if !errors.is_empty() {
        Verdict::TransportError
    } else {
        // A phase window nobody's iteration overlapped carries no
        // evidence of degradation; judge only the windows we observed.
        let bridged_ok = bridged.map(|b| b >= healthy_busbw * 0.6).unwrap_or(true);
        let after_ok = after.map(|a| a >= healthy_busbw * 0.9).unwrap_or(false);
        match (bridged_ok, after_ok) {
            (true, true) => Verdict::Graceful,
            (false, true) => Verdict::Degraded,
            _ => Verdict::Collapsed,
        }
    };

    ChaosReport {
        scenario: config.scenario,
        healthy_busbw_gbs: healthy_busbw,
        iterations_completed: report.iterations.len() as u32,
        busbw_gbs: busbw,
        before,
        bridged,
        after,
        fault_start,
        recovered_at,
        drops_by_reason,
        retransmits: total.retransmits,
        recoveries: total.recoveries,
        replayed_packets: total.replayed_packets,
        recovery_downtimes: app.recovered.iter().map(|&(_, d)| d).collect(),
        errors,
        verdict,
    }
}

/// Whether `config` reproduces a transport failure: a terminal
/// connection error, a collapsed verdict, or a job that could not finish
/// its iterations. This is the shrinker's oracle; it is a pure function
/// of the (seeded) config.
pub fn chaos_fails(config: &ChaosConfig) -> bool {
    let r = run_chaos(config);
    matches!(r.verdict, Verdict::TransportError | Verdict::Collapsed)
        || r.iterations_completed < config.iterations
}

/// A minimal reproducer derived by [`shrink_failing_chaos`].
#[derive(Debug, Clone)]
pub struct ShrunkChaos {
    /// The minimized failing configuration (replay with [`run_chaos`] or
    /// [`chaos_fails`]).
    pub config: ChaosConfig,
    /// Fault events in the scenario's full plan.
    pub full_plan_events: usize,
    /// Fault events kept by the bisection.
    pub kept_plan_events: usize,
    /// Chaos runs spent probing shrink candidates.
    pub probes: u32,
}

impl ShrunkChaos {
    /// Render the reproducer as a ready-to-paste `#[test]` function.
    ///
    /// The emitted source reconstructs the exact [`ChaosConfig`]
    /// (including the seed and the bisected `plan_keep` subset) and
    /// asserts the failure still reproduces. Flowlet path algorithms
    /// carry a payload that `Debug` does not render as valid source;
    /// every unit-variant algorithm round-trips verbatim.
    pub fn test_source(&self) -> String {
        let c = &self.config;
        let plan_keep = match &c.plan_keep {
            Some(keep) => format!("Some(vec!{keep:?})"),
            None => "None".to_string(),
        };
        let recovery = match &c.recovery {
            Some(r) => format!(
                "Some(RecoveryPolicy {{\n\
                \x20           max_attempts: {},\n\
                \x20           backoff: SimDuration::from_nanos({}),\n\
                \x20           backoff_mult: {:?},\n\
                \x20           backoff_max: SimDuration::from_nanos({}),\n\
                \x20           reestablish: SimDuration::from_nanos({}),\n\
                \x20       }})",
                r.max_attempts,
                r.backoff.as_nanos(),
                r.backoff_mult,
                r.backoff_max.as_nanos(),
                r.reestablish.as_nanos(),
            ),
            None => "None".to_string(),
        };
        let plane_failover = match &c.plane_failover {
            Some(p) => format!(
                "Some(PlaneFailover {{\n\
                \x20           planes: {},\n\
                \x20           readmit_after: SimDuration::from_nanos({}),\n\
                \x20       }})",
                p.planes,
                p.readmit_after.as_nanos(),
            ),
            None => "None".to_string(),
        };
        format!(
            "/// Minimal reproducer shrunk from a failing chaos scenario \
             ({} of {} fault events kept).\n\
             #[test]\n\
             fn shrunk_chaos_reproducer() {{\n\
            \x20   use stellar_sim::SimDuration;\n\
            \x20   use stellar_transport::{{PathAlgo, PlaneFailover, RecoveryPolicy, ScoreboardPolicy}};\n\
            \x20   use stellar_workloads::{{chaos_fails, ChaosConfig, ChaosScenario}};\n\
            \x20   let config = ChaosConfig {{\n\
            \x20       scenario: ChaosScenario::{:?},\n\
            \x20       ranks: {},\n\
            \x20       data_bytes: {},\n\
            \x20       iterations: {},\n\
            \x20       fail_after_iter: {},\n\
            \x20       algo: PathAlgo::{:?},\n\
            \x20       num_paths: {},\n\
            \x20       bgp_convergence: SimDuration::from_nanos({}),\n\
            \x20       retry_budget: {},\n\
            \x20       rto_backoff: {:?},\n\
            \x20       scoreboard: ScoreboardPolicy {{\n\
            \x20           blacklist_after: {},\n\
            \x20           penalty: SimDuration::from_nanos({}),\n\
            \x20       }},\n\
            \x20       recovery: {},\n\
            \x20       plane_failover: {},\n\
            \x20       seed: {},\n\
            \x20       plan_keep: {},\n\
            \x20   }};\n\
            \x20   assert!(chaos_fails(&config), \"shrunk reproducer must still fail\");\n\
             }}\n",
            self.kept_plan_events,
            self.full_plan_events,
            c.scenario,
            c.ranks,
            c.data_bytes,
            c.iterations,
            c.fail_after_iter,
            c.algo,
            c.num_paths,
            c.bgp_convergence.as_nanos(),
            c.retry_budget,
            c.rto_backoff,
            c.scoreboard.blacklist_after,
            c.scoreboard.penalty.as_nanos(),
            recovery,
            plane_failover,
            c.seed,
            plan_keep,
        )
    }
}

/// Shrink a failing chaos config to a minimal seed-replayable
/// reproducer: bisect the workload scalars (iterations, payload, ring
/// size, path fan-out) toward their smallest failing values, then ddmin
/// the scenario's fault plan down to the events the failure actually
/// needs. Returns `None` if `config` does not fail in the first place.
///
/// Deterministic end to end — every probe is a seeded [`run_chaos`] —
/// so the same input always shrinks to the same reproducer, and
/// [`ShrunkChaos::test_source`] prints it as a paste-ready test.
pub fn shrink_failing_chaos(config: &ChaosConfig) -> Option<ShrunkChaos> {
    use stellar_sim::shrink::{shrink_list, shrink_scalar};

    if !chaos_fails(config) {
        return None;
    }
    let mut probes: u32 = 1;
    let mut best = config.clone();

    // Workload scalars first: every later probe then replays the cheaper
    // shrunk workload. Each knob is bisected with the others held at
    // their current best value.
    let it = shrink_scalar(1, best.iterations as u64, &mut |v| {
        probes += 1;
        let mut c = best.clone();
        c.iterations = v as u32;
        chaos_fails(&c)
    });
    best.iterations = it as u32;

    // One MTU-sized chunk per rank is the smallest meaningful AllReduce.
    let data_floor = (best.ranks as u64) * 64 * 1024;
    if best.data_bytes > data_floor {
        let bytes = shrink_scalar(data_floor, best.data_bytes, &mut |v| {
            probes += 1;
            let mut c = best.clone();
            c.data_bytes = v;
            chaos_fails(&c)
        });
        best.data_bytes = bytes;
    }

    // Ring size, in segment-pairs (the topology places ranks/2 hosts per
    // segment, so only even ring sizes are constructible).
    if best.ranks > 4 {
        let half = shrink_scalar(2, (best.ranks / 2) as u64, &mut |v| {
            probes += 1;
            let mut c = best.clone();
            c.ranks = (v * 2) as usize;
            chaos_fails(&c)
        });
        best.ranks = (half * 2) as usize;
    }

    let paths = shrink_scalar(1, best.num_paths as u64, &mut |v| {
        probes += 1;
        let mut c = best.clone();
        c.num_paths = v as u32;
        chaos_fails(&c)
    });
    best.num_paths = paths as u32;

    // Fault-plan bisection: ddmin over indices into the scenario's full
    // time-sorted event list. The event *count* does not depend on the
    // calibrated iteration time (only the timestamps do), so a
    // placeholder spacing suffices to size the index list.
    let full_len = {
        let (sim, nics) = build_sim(&best);
        build_plan(&best, &sim, &nics, SimDuration::from_micros(100)).len()
    };
    let all: Vec<usize> = (0..full_len).collect();
    let kept = shrink_list(&all, &mut |keep| {
        probes += 1;
        let mut c = best.clone();
        c.plan_keep = Some(keep.to_vec());
        chaos_fails(&c)
    });
    best.plan_keep = Some(kept.clone());

    debug_assert!(chaos_fails(&best), "shrink result must still fail");
    Some(ShrunkChaos {
        config: best,
        full_plan_events: full_len,
        kept_plan_events: kept.len(),
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(scenario: ChaosScenario) -> ChaosConfig {
        ChaosConfig {
            scenario,
            data_bytes: 2 * 1024 * 1024,
            iterations: 8,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn flap_storm_obs_rides_through() {
        let r = run_chaos(&quick(ChaosScenario::FlapStorm));
        assert_eq!(r.iterations_completed, 8);
        assert!(r.errors.is_empty());
        assert!(r.healthy_busbw_gbs > 1.0);
        assert!(
            matches!(r.verdict, Verdict::Graceful | Verdict::Degraded),
            "verdict {:?}",
            r.verdict
        );
        // Flaps produce dead-link drops, not random loss.
        let dead = r
            .drops_by_reason
            .iter()
            .find(|(reason, _)| *reason == DropReason::LinkDown)
            .unwrap()
            .1;
        assert!(dead > 0, "a flap storm must actually drop packets");
    }

    #[test]
    fn slow_optics_drops_are_classified_degraded() {
        let r = run_chaos(&quick(ChaosScenario::SlowOptics));
        assert_eq!(r.iterations_completed, 8);
        let degraded = r
            .drops_by_reason
            .iter()
            .find(|(reason, _)| *reason == DropReason::DegradedLink)
            .unwrap()
            .1;
        assert!(degraded > 0, "the ramp must cause DegradedLink drops");
        // A dim optic is random per-packet loss: the scoreboard can't
        // cleanly blacklist it (losses per path are rarely consecutive),
        // so the only hard guarantees are completion without a transport
        // error and correct drop classification. The verdict records how
        // hard the ring was hit; it must never be a transport error.
        assert!(r.errors.is_empty());
        assert_ne!(r.verdict, Verdict::TransportError);
    }

    #[test]
    fn switch_death_reroutes() {
        let r = run_chaos(&quick(ChaosScenario::SwitchDeath));
        assert_eq!(r.iterations_completed, 8);
        assert!(r.errors.is_empty());
        assert!(r.after.is_some(), "post-reroute window must be observed");
        assert!(
            matches!(r.verdict, Verdict::Graceful | Verdict::Degraded),
            "verdict {:?}",
            r.verdict
        );
    }

    #[test]
    fn compound_hardened_obs_is_graceful() {
        // The acceptance scenario: flap storm + switch death against the
        // full hardened transport (OBS + backoff + scoreboard). Payload
        // sized so an iteration dwarfs one RTO — the ≥60% bridging claim
        // is about riding over faults, not about hiding a 250 µs stall
        // inside a 220 µs iteration.
        let r = run_chaos(&ChaosConfig {
            data_bytes: 16 * 1024 * 1024,
            iterations: 8,
            ..ChaosConfig::default()
        });
        assert_eq!(r.iterations_completed, 8);
        assert!(r.errors.is_empty(), "hardened OBS must not die: {:?}", r.errors);
        let bridged = r.bridged.expect("bridged window populated");
        let after = r.after.expect("post-reroute window populated");
        assert!(
            bridged >= r.healthy_busbw_gbs * 0.6,
            "bridged {} vs healthy {}",
            bridged,
            r.healthy_busbw_gbs
        );
        assert!(
            after >= r.healthy_busbw_gbs * 0.9,
            "after {} vs healthy {}",
            after,
            r.healthy_busbw_gbs
        );
        assert_eq!(r.verdict, Verdict::Graceful);
    }

    #[test]
    fn compound_unhardened_single_path_errors_or_collapses() {
        // The counterfactual: SinglePath, no backoff, tiny retry budget,
        // scoreboard off, and BGP too slow to save it.
        let r = run_chaos(&ChaosConfig {
            algo: PathAlgo::SinglePath,
            num_paths: 1,
            rto_backoff: 1.0,
            retry_budget: 8,
            scoreboard: ScoreboardPolicy {
                blacklist_after: 0,
                penalty: SimDuration::ZERO,
            },
            bgp_convergence: SimDuration::from_millis(50),
            ..quick(ChaosScenario::Compound)
        });
        let errored = !r.errors.is_empty();
        let collapsed = matches!(r.verdict, Verdict::Collapsed | Verdict::TransportError);
        assert!(
            errored || collapsed,
            "unhardened single-path must fail: verdict {:?}, errors {:?}",
            r.verdict,
            r.errors
        );
        if errored {
            assert_eq!(r.verdict, Verdict::TransportError);
            assert!(matches!(
                r.errors[0].1,
                FatalError::RetryBudgetExhausted { .. }
            ));
            assert!(
                r.iterations_completed < 8,
                "a dead ring edge cannot finish the job"
            );
        }
    }

    #[test]
    fn compound_unhardened_single_path_recovers_with_policy() {
        // The acceptance scenario for DESIGN.md §11: the exact config
        // that drives single-path into terminal RetryBudgetExhausted
        // (see compound_unhardened_single_path_errors_or_collapses),
        // except a RecoveryPolicy is installed. The connection still
        // exhausts its budget — but now it tears down, backs off, and
        // replays, so the job completes end-to-end with zero terminal
        // errors and the exactly-once invariant holding throughout.
        let r = stellar_check::strict(|| {
            run_chaos(&ChaosConfig {
                algo: PathAlgo::SinglePath,
                num_paths: 1,
                rto_backoff: 1.0,
                retry_budget: 8,
                scoreboard: ScoreboardPolicy {
                    blacklist_after: 0,
                    penalty: SimDuration::ZERO,
                },
                bgp_convergence: SimDuration::from_millis(50),
                recovery: Some(RecoveryPolicy::default()),
                ..quick(ChaosScenario::Compound)
            })
        });
        assert!(
            r.errors.is_empty(),
            "recovery must prevent terminal errors: {:?}",
            r.errors
        );
        assert_ne!(r.verdict, Verdict::TransportError);
        assert_eq!(
            r.iterations_completed, 8,
            "the job must complete end-to-end with recovery enabled"
        );
        assert!(r.recoveries >= 1, "the dead route must trigger recovery");
        assert_eq!(r.recovery_downtimes.len() as u64, r.recoveries);
        assert!(
            r.replayed_packets > 0,
            "recovery must replay the unacked packets"
        );
        // Every downtime includes at least the first-rung reconnect
        // delay (backoff + re-establish).
        let floor = RecoveryPolicy::default().reconnect_delay(0);
        assert!(r.recovery_downtimes.iter().all(|&d| d >= floor));
    }

    #[test]
    fn recovery_does_not_perturb_fault_free_chaos() {
        // Byte-identity of the fault-free path: a run whose plan was
        // shrunk to nothing must produce identical numbers with and
        // without a recovery policy installed.
        let empty_plan = ChaosConfig {
            plan_keep: Some(Vec::new()),
            ..quick(ChaosScenario::Compound)
        };
        let base = run_chaos(&empty_plan);
        let with_recovery = run_chaos(&ChaosConfig {
            recovery: Some(RecoveryPolicy::default()),
            plane_failover: Some(PlaneFailover::default()),
            ..empty_plan
        });
        assert_eq!(base.busbw_gbs, with_recovery.busbw_gbs);
        assert_eq!(base.retransmits, with_recovery.retransmits);
        assert_eq!(base.drops_by_reason, with_recovery.drops_by_reason);
        assert_eq!(with_recovery.recoveries, 0);
    }

    #[test]
    fn hybrid_escalation_stays_sticky_across_flap_storm() {
        use stellar_net::fixture::hybrid_fabric;
        use stellar_net::HybridConfig;

        // Chaos on the hybrid fabric: the storm must escalate the flows
        // that cross flapping uplinks to the packet model, and
        // stickiness must hold — an escalated flow keeps sending on the
        // packet side without re-escalating every packet.
        let config = quick(ChaosScenario::FlapStorm);
        let build = |clos: ClosConfig, net: NetworkConfig, rng: &SimRng| {
            hybrid_fabric(clos, net, HybridConfig::default(), rng)
        };
        let run = || {
            let (_, iter_time, _) = calibrate_with(&config, &build);
            let (mut sim, nics) = build_sim_with(&config, &build);
            let plan = effective_plan(&config, &sim, &nics, iter_time);
            sim.network_mut().install_fault_plan(plan);
            let runner = AllReduceRunner::new(
                &mut sim,
                vec![AllReduceJob {
                    nics,
                    data_bytes: config.data_bytes,
                    iterations: config.iterations,
                    burst: None,
                }],
            );
            let mut app = ErrorWatch {
                runner,
                errors: Vec::new(),
                recovered: Vec::new(),
            };
            app.runner.start(&mut sim);
            sim.run(&mut app, SimTime::from_nanos(u64::MAX / 2));
            assert!(app.runner.all_finished(), "hybrid chaos run must finish");
            assert!(app.errors.is_empty(), "errors: {:?}", app.errors);
            sim.network().send_split()
        };
        let (packet_sends, fluid_sends, escalations) = run();
        assert!(escalations > 0, "a flap storm must escalate flows");
        assert!(fluid_sends > 0, "healthy traffic must stay fluid");
        assert!(
            packet_sends > 10 * escalations,
            "sticky flows keep sending packet-side without re-escalating: \
             {packet_sends} packet sends vs {escalations} escalations"
        );
        // Seed-pinned: the identical run reproduces the split exactly.
        assert_eq!(run(), (packet_sends, fluid_sends, escalations));
    }

    #[test]
    fn chaos_is_deterministic() {
        let run = || {
            let r = run_chaos(&quick(ChaosScenario::Compound));
            (r.busbw_gbs.clone(), r.retransmits, r.drops_by_reason.clone())
        };
        let (a_bw, a_rtx, a_drops) = run();
        let (b_bw, b_rtx, b_drops) = run();
        assert_eq!(a_bw, b_bw);
        assert_eq!(a_rtx, b_rtx);
        assert_eq!(a_drops, b_drops);
    }

    /// A cheap failing config for the shrinker: the unhardened
    /// single-path counterfactual with a small payload and few
    /// iterations, so each shrink probe replays in milliseconds.
    fn failing_unhardened() -> ChaosConfig {
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
            data_bytes: 256 * 1024,
            iterations: 4,
            ..quick(ChaosScenario::Compound)
        }
    }

    #[test]
    fn shrinker_minimizes_a_failing_compound_plan() {
        let config = failing_unhardened();
        assert!(chaos_fails(&config), "shrinker input must fail");

        let shrunk = shrink_failing_chaos(&config).expect("failing config must shrink");
        // Replaying the minimized config reproduces the failure.
        assert!(chaos_fails(&shrunk.config), "shrunk config must still fail");
        // The Compound plan schedules 17 events; the single-path failure
        // needs only a strict subset of them (the switch death alone
        // suffices, the flap storm is dead weight).
        assert!(
            shrunk.kept_plan_events < shrunk.full_plan_events,
            "ddmin must drop dead-weight fault events: kept {} of {}",
            shrunk.kept_plan_events,
            shrunk.full_plan_events
        );
        assert!(shrunk.config.iterations <= config.iterations);
        assert!(shrunk.probes > 0);

        // And the rendered reproducer is paste-ready source.
        let src = shrunk.test_source();
        assert!(src.contains("#[test]"), "missing test attribute:\n{src}");
        assert!(src.contains("seed: "), "missing seed:\n{src}");
        assert!(
            src.contains("plan_keep: Some(vec!["),
            "missing bisected plan subset:\n{src}"
        );
        assert!(src.contains("chaos_fails(&config)"), "missing oracle:\n{src}");
    }

    /// Every scenario's plan — flap storms, switch cascades, the compound
    /// storm — and the shrinker's bisected subset pass the fault-plan
    /// validation that `install_fault_plan` applies.
    #[test]
    fn scenario_and_shrunk_plans_validate() {
        let shrunk = shrink_failing_chaos(&failing_unhardened()).expect("must shrink");
        let scenarios = [
            ChaosScenario::FlapStorm,
            ChaosScenario::SwitchDeath,
            ChaosScenario::SlowOptics,
            ChaosScenario::Compound,
        ];
        let configs = scenarios.into_iter().map(quick).chain([shrunk.config]);
        for config in configs {
            let (sim, nics) = build_sim(&config);
            let plan = effective_plan(&config, &sim, &nics, SimDuration::from_micros(100));
            assert!(!plan.is_empty());
            assert_eq!(
                plan.validate(sim.network().topology()),
                Ok(()),
                "{:?}",
                config.scenario
            );
        }
    }

    #[test]
    fn shrinker_declines_a_healthy_config() {
        // The hardened default rides through FlapStorm; nothing to shrink.
        assert!(shrink_failing_chaos(&quick(ChaosScenario::FlapStorm)).is_none());
    }

    #[test]
    fn shrinking_is_deterministic() {
        let a = shrink_failing_chaos(&failing_unhardened()).unwrap();
        let b = shrink_failing_chaos(&failing_unhardened()).unwrap();
        assert_eq!(a.config.plan_keep, b.config.plan_keep);
        assert_eq!(a.probes, b.probes);
        assert_eq!(
            (a.config.iterations, a.config.data_bytes, a.config.ranks),
            (b.config.iterations, b.config.data_bytes, b.config.ranks)
        );
    }
}
