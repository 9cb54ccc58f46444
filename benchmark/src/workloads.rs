//! The four benchmark workloads and the scenarios each one runs.
//!
//! The configs mirror the `reproduce --quick` experiments (fig9, fig16,
//! scale, recovery) value for value, with three exceptions: the scale 3D
//! job runs 1 024 of its 16 384 ranks, the scale HPN permutation half of
//! its hosts, and the recovery ring fleet 512 of its 4 096 ranks. At full
//! size the 3D job and the fleet are single 9–15 s simulations, one
//! sample per run, and on a shared host their run-to-run spread was
//! 15–27%; cut down, no scenario lasts much over a second and each
//! repeats many times per run. At seed 0 the two packet workloads
//! schedule exactly the events of the quick suite's fig9 and fig16.
//!
//! The configs are copied here rather than imported so that a change to
//! an experiment cannot silently change what the benchmark measures.
//! `seed` is added to every scenario seed.

use stellar_core::vstellar::VStellarStack;
use stellar_core::{RnicId, ServerConfig, StellarServer};
use stellar_net::{ClosConfig, Fabric, FabricKind, FaultPlan, NetworkConfig, NicId};
use stellar_pcie::addr::Gva;
use stellar_sim::{SimDuration, SimRng, SimTime};
use stellar_transport::{
    App, ConnId, FatalError, MsgId, PathAlgo, PlaneFailover, RecoveryPolicy, ScoreboardPolicy,
    TransportConfig, TransportSim,
};
use stellar_virt::rund::MemoryStrategy;
use stellar_workloads::chaos::{run_chaos_with, ChaosConfig, ChaosReport, ChaosScenario, Verdict};
use stellar_workloads::{
    simulate_scale_training_step, simulate_training_step_with, AllReduceJob, AllReduceRunner,
    PermutationConfig, Placement, ScaleTrainingConfig, TrainingSimConfig,
};

use crate::timed::{fluid, hybrid, packet, Mode};

/// Workload names, in `--list` order.
pub const WORKLOADS: [&str; 4] = [
    "permutation_packet",
    "allreduce_packet",
    "scale_hybrid",
    "recovery_fleet",
];

/// What a scenario runs.
#[derive(Debug, Clone)]
pub enum Spec {
    /// Open-loop permutation traffic.
    Permutation(PermutationConfig, FabricKind),
    /// One training step's DP ring AllReduce.
    Training(TrainingSimConfig, FabricKind),
    /// The 3D-parallel scale job (hybrid fabric).
    ScaleTraining(ScaleTrainingConfig),
    /// A packet-fabric chaos run. With `churn`, the recovery policy's
    /// re-establishment cost is first measured on the vStellar control
    /// plane, inside the scenario, as the `recovery` experiment does.
    Chaos { config: ChaosConfig, churn: bool },
    /// The hybrid ring fleet under a multi-link outage.
    Fleet(FleetConfig),
}

/// The verdict a scenario must reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The run must complete with exactly-once delivery: `ok`, or a
    /// chaos verdict of `graceful` or `degraded` (bandwidth dipped, no
    /// data was lost).
    Healthy,
    /// The counterfactual must die: `transport_error` or `collapsed`.
    Dies,
}

/// Whether `verdict` is one `expect` accepts.
pub fn verdict_passes(expect: Expect, verdict: &str) -> bool {
    match expect {
        Expect::Healthy => matches!(verdict, "ok" | "graceful" | "degraded"),
        Expect::Dies => matches!(verdict, "transport_error" | "collapsed"),
    }
}

/// One named scenario of a workload.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable name (`scenario.<name>.wall_s`).
    pub name: String,
    /// What to run.
    pub spec: Spec,
    /// The verdict it must reach.
    pub expect: Expect,
}

/// Transport statistics a scenario's report carries (zero where the
/// report has none).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportCounters {
    /// RTO firings.
    pub rto_events: u64,
    /// Completed connection recoveries.
    pub recoveries: u64,
    /// Packets replayed at re-establishment.
    pub replayed_packets: u64,
}

/// What one scenario produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload report's `Debug` rendering (the digest input).
    pub report: String,
    /// `ok`, `graceful`, `degraded`, `collapsed`, `transport_error` or
    /// `violated`.
    pub verdict: &'static str,
    /// The headline the hybrid validation compares: goodput (Gbps) for
    /// permutation rows, DP communication time (ns) for training rows.
    pub headline: Option<f64>,
    /// Transport statistics from the report.
    pub transport: TransportCounters,
}

/// The fleet shape of the `recovery` experiment's `ring-fleet` row.
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
    /// Rings whose first-edge uplink goes dark.
    pub victims: usize,
    /// How long each victim link stays dark.
    pub outage: SimDuration,
    /// Seed.
    pub seed: u64,
}

/// The fleet run's report. Most fields are read only through `Debug`:
/// the rendered report is what the output digest hashes.
#[derive(Debug, Clone)]
#[allow(dead_code)]
pub struct FleetOutcome {
    /// Total ranks.
    pub ranks: u64,
    /// Fault-free mean bus bandwidth, GB/s.
    pub healthy_busbw_gbs: f64,
    /// Mean busbw of iterations overlapping the outage.
    pub bridged: Option<f64>,
    /// Mean busbw of post-outage iterations.
    pub after: Option<f64>,
    /// Completed connection recoveries.
    pub recoveries: u64,
    /// Packets replayed at re-establishment.
    pub replayed: u64,
    /// Per-recovery downtimes.
    pub downtimes: Vec<SimDuration>,
    /// Terminal connection errors.
    pub errors: usize,
    /// Every ring finished every iteration.
    pub all_finished: bool,
}

/// The scenarios of `workload` at seed offset `seed`, or `None` for an
/// unknown workload.
pub fn scenarios(workload: &str, seed: u64) -> Option<Vec<Scenario>> {
    let s = |base: u64| base.wrapping_add(seed);
    let healthy = |name: String, spec: Spec| Scenario {
        name,
        spec,
        expect: Expect::Healthy,
    };
    Some(match workload {
        "permutation_packet" => fig9_combos()
            .into_iter()
            .map(|(name, algo, paths)| {
                healthy(
                    format!("{name}_{paths}"),
                    Spec::Permutation(fig9_config(algo, paths, s(9)), FabricKind::Packet),
                )
            })
            .collect(),
        "allreduce_packet" => {
            let mut out = Vec::new();
            for (label, ranks, bytes, base) in
                [("8_8_16_1", 16, 8 << 20, 21), ("4_8_32_1", 24, 6 << 20, 22)]
            {
                for (pname, placement) in [
                    ("reranked", Placement::Reranked),
                    ("random", Placement::Random),
                ] {
                    for off in [0u64, 101, 202] {
                        for (aname, algo, paths) in [
                            ("single", PathAlgo::SinglePath, 1),
                            ("obs", PathAlgo::Obs, 128),
                        ] {
                            let cfg = TrainingSimConfig {
                                ranks,
                                data_bytes: bytes,
                                placement,
                                algo,
                                num_paths: paths,
                                seed: s(base + off),
                                ..TrainingSimConfig::default()
                            };
                            out.push(healthy(
                                format!("{label}.{pname}.{}.{aname}", base + off),
                                Spec::Training(cfg, FabricKind::Packet),
                            ));
                        }
                    }
                }
            }
            out
        }
        "scale_hybrid" => {
            let perm = fig9_config(PathAlgo::Obs, 128, s(9));
            let train = TrainingSimConfig {
                ranks: 16,
                rings: 2,
                data_bytes: 8 << 20,
                algo: PathAlgo::Obs,
                num_paths: 128,
                seed: s(21),
                ..TrainingSimConfig::default()
            };
            vec![
                healthy(
                    "fig9_shape.packet".into(),
                    Spec::Permutation(perm.clone(), FabricKind::Packet),
                ),
                healthy(
                    "fig9_shape.hybrid".into(),
                    Spec::Permutation(perm, FabricKind::Hybrid),
                ),
                healthy(
                    "fig16_shape.packet".into(),
                    Spec::Training(train.clone(), FabricKind::Packet),
                ),
                healthy(
                    "fig16_shape.hybrid".into(),
                    Spec::Training(train, FabricKind::Hybrid),
                ),
                healthy(
                    "llm_3d_1k".into(),
                    Spec::ScaleTraining(scale_llm_config(s(31))),
                ),
                healthy(
                    "permutation_hpn".into(),
                    Spec::Permutation(scale_permutation_config(s(41)), FabricKind::Fluid),
                ),
            ]
        }
        "recovery_fleet" => {
            let unhardened = ChaosConfig {
                algo: PathAlgo::SinglePath,
                num_paths: 1,
                rto_backoff: 1.0,
                retry_budget: 8,
                scoreboard: ScoreboardPolicy {
                    blacklist_after: 0,
                    penalty: SimDuration::ZERO,
                },
                bgp_convergence: SimDuration::from_millis(50),
                data_bytes: 2 << 20,
                iterations: 8,
                seed: s(ChaosConfig::default().seed),
                ..ChaosConfig::default()
            };
            let chaos = |config: ChaosConfig, churn| Spec::Chaos { config, churn };
            vec![
                Scenario {
                    name: "no-recovery".into(),
                    spec: chaos(unhardened.clone(), false),
                    expect: Expect::Dies,
                },
                healthy(
                    "recovery".into(),
                    chaos(
                        ChaosConfig {
                            recovery: Some(RecoveryPolicy::default()),
                            ..unhardened.clone()
                        },
                        false,
                    ),
                ),
                healthy("churn-replay".into(), chaos(unhardened, true)),
                healthy(
                    "obs-failover".into(),
                    chaos(
                        ChaosConfig {
                            scenario: ChaosScenario::Compound,
                            recovery: Some(RecoveryPolicy::default()),
                            plane_failover: Some(PlaneFailover::default()),
                            data_bytes: 16 << 20,
                            iterations: 8,
                            seed: s(ChaosConfig::default().seed),
                            ..ChaosConfig::default()
                        },
                        false,
                    ),
                ),
                // The quick fleet's shape (128-rank rings, a quarter of
                // them losing their first uplink) at 4 rings, not 32.
                healthy(
                    "ring-fleet-512".into(),
                    Spec::Fleet(FleetConfig {
                        rings: 4,
                        ring_ranks: 128,
                        data_bytes: 1 << 20,
                        iterations: 3,
                        victims: 1,
                        outage: SimDuration::from_millis(8),
                        seed: s(77),
                    }),
                ),
            ]
        }
        _ => return None,
    })
}

/// Fig. 9's (algorithm, paths) sweep; single path has one configuration.
fn fig9_combos() -> Vec<(&'static str, PathAlgo, u32)> {
    let mut v = Vec::new();
    for (name, algo) in [
        ("SinglePath", PathAlgo::SinglePath),
        ("BestRTT", PathAlgo::BestRtt),
        ("RR", PathAlgo::RoundRobin),
        ("DWRR", PathAlgo::Dwrr),
        ("MPRDMA", PathAlgo::MpRdma),
        ("OBS", PathAlgo::Obs),
    ] {
        for paths in [4u32, 128] {
            if algo != PathAlgo::SinglePath || paths == 4 {
                v.push((name, algo, paths));
            }
        }
    }
    v
}

/// The fig9 quick topology: few aggregation slots, so single-path hash
/// collisions are guaranteed.
fn fig9_config(algo: PathAlgo, paths: u32, seed: u64) -> PermutationConfig {
    PermutationConfig {
        topology: ClosConfig {
            segments: 2,
            hosts_per_segment: 6,
            rails: 2,
            planes: 2,
            aggs_per_plane: 4,
        },
        transport: TransportConfig {
            algo,
            num_paths: if algo == PathAlgo::SinglePath {
                1
            } else {
                paths
            },
            ..TransportConfig::default()
        },
        message_bytes: 512 * 1024,
        offered_gbps: 150.0,
        duration: SimDuration::from_millis(3),
        seed,
        ..PermutationConfig::default()
    }
}

/// The quick 3D-parallel job cut from pp=16 to pp=1: 1 024 ranks
/// (tp=8 × pp=1 × dp=128) on the same 16 384-NIC dual-plane fabric.
fn scale_llm_config(seed: u64) -> ScaleTrainingConfig {
    let data_bytes: u64 = 4 << 20;
    ScaleTrainingConfig {
        topology: ClosConfig {
            segments: 8,
            hosts_per_segment: 1024,
            rails: 2,
            planes: 2,
            aggs_per_plane: 60,
        },
        tp: 8,
        pp: 1,
        dp: 128,
        data_bytes,
        mtu: data_bytes / 128,
        compute: SimDuration::from_millis(6),
        overlap: 0.5,
        algo: PathAlgo::Obs,
        num_paths: 128,
        seed,
    }
}

/// The HPN7.0-scale permutation on the fluid fabric at half the quick
/// size: 2 × 1 024 hosts × 2 rails, 4 096 flows.
fn scale_permutation_config(seed: u64) -> PermutationConfig {
    PermutationConfig {
        topology: ClosConfig {
            segments: 2,
            hosts_per_segment: 1024,
            rails: 2,
            planes: 2,
            aggs_per_plane: 60,
        },
        transport: TransportConfig {
            algo: PathAlgo::Obs,
            num_paths: 128,
            ..TransportConfig::default()
        },
        message_bytes: 128 * 1024,
        offered_gbps: 10.0,
        duration: SimDuration::from_micros(300),
        seed,
        ..PermutationConfig::default()
    }
}

/// Run one scenario with fabrics built by mode `M`.
pub fn run<M: Mode>(spec: &Spec) -> Outcome {
    match spec {
        Spec::Permutation(cfg, kind) => {
            let rep = match kind {
                FabricKind::Packet => stellar_workloads::run_permutation_with(cfg, packet::<M>),
                FabricKind::Fluid => stellar_workloads::run_permutation_with(cfg, fluid::<M>),
                FabricKind::Hybrid => stellar_workloads::run_permutation_with(cfg, hybrid::<M>),
            };
            Outcome {
                verdict: if rep.total_goodput_gbps > 0.0 {
                    "ok"
                } else {
                    "violated"
                },
                headline: Some(rep.total_goodput_gbps),
                transport: TransportCounters {
                    rto_events: rep.rto_events,
                    ..TransportCounters::default()
                },
                report: format!("{rep:?}"),
            }
        }
        Spec::Training(cfg, kind) => {
            let out = match kind {
                FabricKind::Packet => simulate_training_step_with(cfg, packet::<M>),
                FabricKind::Fluid => simulate_training_step_with(cfg, fluid::<M>),
                FabricKind::Hybrid => simulate_training_step_with(cfg, hybrid::<M>),
            };
            training_outcome(format!("{out:?}"), out.comm_network)
        }
        Spec::ScaleTraining(cfg) => {
            let out = simulate_scale_training_step(cfg, hybrid::<M>);
            training_outcome(format!("{out:?}"), out.comm_network)
        }
        Spec::Chaos { config, churn } => {
            let config = if *churn {
                ChaosConfig {
                    recovery: Some(RecoveryPolicy {
                        reestablish: vstellar_churn_cost(),
                        ..RecoveryPolicy::default()
                    }),
                    ..config.clone()
                }
            } else {
                config.clone()
            };
            chaos_outcome(&config, run_chaos_with(&config, &packet::<M>))
        }
        Spec::Fleet(cfg) => {
            let r = run_fleet(cfg, &hybrid::<M>);
            Outcome {
                verdict: if r.errors > 0 {
                    "transport_error"
                } else if r.all_finished {
                    "graceful"
                } else {
                    "collapsed"
                },
                headline: None,
                transport: TransportCounters {
                    recoveries: r.recoveries,
                    replayed_packets: r.replayed,
                    ..TransportCounters::default()
                },
                report: format!("{r:?}"),
            }
        }
    }
}

fn training_outcome(report: String, comm: SimDuration) -> Outcome {
    Outcome {
        verdict: if comm > SimDuration::ZERO {
            "ok"
        } else {
            "violated"
        },
        headline: Some(comm.as_nanos() as f64),
        transport: TransportCounters::default(),
        report,
    }
}

fn chaos_outcome(config: &ChaosConfig, r: ChaosReport) -> Outcome {
    // A surviving row must also have kept exactly-once end to end: no
    // terminal error and every iteration done.
    let exactly_once = r.errors.is_empty() && r.iterations_completed == config.iterations;
    let verdict = match r.verdict {
        Verdict::Graceful | Verdict::Degraded if !exactly_once => "violated",
        v => v.name(),
    };
    Outcome {
        verdict,
        headline: None,
        transport: TransportCounters {
            recoveries: r.recoveries,
            replayed_packets: r.replayed_packets,
            ..TransportCounters::default()
        },
        report: format!("{r:?}"),
    }
}

/// The PVDMA re-pin cost of a full vStellar device destroy→recreate
/// cycle, measured on the control-plane model.
fn vstellar_churn_cost() -> SimDuration {
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

/// The fleet app: drives the rings, records terminal errors and
/// recovery downtimes.
struct FleetWatch {
    runner: AllReduceRunner,
    errors: Vec<(ConnId, FatalError)>,
    downtimes: Vec<SimDuration>,
}

impl<F: Fabric> App<F> for FleetWatch {
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
        _conn: ConnId,
        downtime: SimDuration,
    ) {
        self.downtimes.push(downtime);
    }
}

/// The fleet simulator: single-path transport with recovery on, rings
/// alternating across the two segments so every edge crosses the agg
/// layer.
fn fleet_sim<F: Fabric>(
    config: &FleetConfig,
    build: &impl Fn(ClosConfig, NetworkConfig, &SimRng) -> F,
) -> (TransportSim<F>, Vec<Vec<NicId>>) {
    let total = config.rings * config.ring_ranks;
    let rng = SimRng::from_seed(config.seed);
    let fabric = build(
        ClosConfig {
            segments: 2,
            hosts_per_segment: total / 2,
            rails: 1,
            planes: 2,
            aggs_per_plane: 60,
        },
        NetworkConfig {
            // Longer than the outage: the recovery ladder, not a BGP
            // reroute, must bridge the dark window.
            bgp_convergence: SimDuration::from_millis(50),
            ..NetworkConfig::default()
        },
        &rng,
    );
    let sim = TransportSim::new(
        fabric,
        TransportConfig {
            algo: PathAlgo::SinglePath,
            num_paths: 1,
            rto_backoff: 1.0,
            retry_budget: 4,
            scoreboard: ScoreboardPolicy {
                blacklist_after: 0,
                penalty: SimDuration::ZERO,
            },
            recovery: Some(RecoveryPolicy::default()),
            ..TransportConfig::default()
        },
        rng.fork("transport"),
    );
    let nics = (0..config.rings)
        .map(|j| {
            (0..config.ring_ranks)
                .map(|r| {
                    let g = j * config.ring_ranks + r;
                    let host = (g / 2) + (g % 2) * (total / 2);
                    sim.network().topology().nic(host, 0)
                })
                .collect()
        })
        .collect();
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

/// The ring fleet: a fault-free calibration pass, then the chaos pass
/// with the victim uplinks dark for [`FleetConfig::outage`].
pub fn run_fleet<F: Fabric>(
    config: &FleetConfig,
    build: &impl Fn(ClosConfig, NetworkConfig, &SimRng) -> F,
) -> FleetOutcome {
    let (mut sim, nics) = fleet_sim(config, build);
    let mut runner = AllReduceRunner::new(&mut sim, fleet_jobs(config, &nics));
    runner.start(&mut sim);
    sim.run(&mut runner, SimTime::from_nanos(u64::MAX / 2));
    assert!(runner.all_finished(), "fleet calibration must finish");
    let mut iter_total = SimDuration::ZERO;
    let mut iter_count = 0u64;
    let mut busbw_sum = 0.0;
    let mut busbw_n = 0u64;
    for j in 0..config.rings {
        let rep = runner.report(j);
        for (i, rec) in rep.iterations.iter().enumerate() {
            iter_total += rec.duration();
            iter_count += 1;
            busbw_sum += rep.bus_bandwidth_gbs(i);
            busbw_n += 1;
        }
    }
    let healthy = busbw_sum / busbw_n.max(1) as f64;
    let iter_time = SimDuration::from_nanos((iter_total.as_nanos() / iter_count.max(1)).max(1));

    // The calibration sim stays alive until the end, as in the
    // experiment, so the peak memory matches too.
    let (mut sim, nics) = fleet_sim(config, build);
    let t0 = SimTime::ZERO + iter_time;
    let mut victims: Vec<_> = nics
        .iter()
        .take(config.victims)
        .map(|ring| sim.network().topology().route(ring[0], ring[1], 0, 0)[1])
        .collect();
    victims.sort_by_key(|l| l.0);
    victims.dedup();
    let mut plan = FaultPlan::new(config.seed);
    for &link in &victims {
        plan = plan.flap(link, t0, config.outage, SimDuration::from_millis(1), 1);
    }
    let recovered_at = plan
        .recovery_time(SimDuration::from_millis(50))
        .unwrap_or(SimTime::ZERO);
    sim.network_mut().install_fault_plan(plan);

    let runner = AllReduceRunner::new(&mut sim, fleet_jobs(config, &nics));
    let mut app = FleetWatch {
        runner,
        errors: Vec::new(),
        downtimes: Vec::new(),
    };
    app.runner.start(&mut sim);
    sim.run(&mut app, SimTime::from_nanos(u64::MAX / 2));

    let mut bridged = Vec::new();
    let mut after = Vec::new();
    for j in 0..config.rings {
        let rep = app.runner.report(j);
        for (i, rec) in rep.iterations.iter().enumerate() {
            if rec.started >= recovered_at {
                after.push(rep.bus_bandwidth_gbs(i));
            } else if rec.finished > t0 {
                bridged.push(rep.bus_bandwidth_gbs(i));
            }
        }
    }
    let total = sim.total_stats();
    FleetOutcome {
        ranks: (config.rings * config.ring_ranks) as u64,
        healthy_busbw_gbs: healthy,
        bridged: stellar_sim::stats::mean(&bridged),
        after: stellar_sim::stats::mean(&after),
        recoveries: total.recoveries,
        replayed: total.replayed_packets,
        downtimes: app.downtimes,
        errors: app.errors.len(),
        all_finished: app.runner.all_finished(),
    }
}

/// Max |hybrid − packet| percent over the hybrid validation pairs
/// (`<shape>.hybrid` against `<shape>.packet`), or `None` when the
/// workload has none.
pub fn hybrid_error_pct(results: &[(&str, Option<f64>)]) -> Option<f64> {
    results
        .iter()
        .filter_map(|&(name, hybrid)| {
            let shape = name.strip_suffix(".hybrid")?;
            let packet_name = format!("{shape}.packet");
            let packet = results.iter().find(|(n, _)| *n == packet_name)?.1?;
            Some(((hybrid? / packet - 1.0) * 100.0).abs())
        })
        .reduce(f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::{hybrid, Plain};

    fn seeds(workload: &str, offset: u64) -> Vec<u64> {
        scenarios(workload, offset)
            .expect("known workload")
            .iter()
            .map(|s| match &s.spec {
                Spec::Permutation(c, _) => c.seed,
                Spec::Training(c, _) => c.seed,
                Spec::ScaleTraining(c) => c.seed,
                Spec::Chaos { config, .. } => config.seed,
                Spec::Fleet(c) => c.seed,
            })
            .collect()
    }

    #[test]
    fn seed_offsets_every_scenario_seed() {
        assert_eq!(
            seeds("allreduce_packet", 0)[..4],
            [21, 21, 122, 122],
            "seed 0 keeps the experiment seeds"
        );
        assert_eq!(seeds("scale_hybrid", 0), [9, 9, 21, 21, 31, 41]);
        assert_eq!(seeds("recovery_fleet", 0), [7, 7, 7, 7, 77]);
        for w in WORKLOADS {
            let shifted: Vec<u64> = seeds(w, 0).iter().map(|s| s + 5).collect();
            assert_eq!(seeds(w, 5), shifted, "{w}");
        }
        assert!(scenarios("bogus", 0).is_none());
    }

    #[test]
    fn workloads_mirror_the_quick_experiments() {
        let count = |w| scenarios(w, 0).expect("known workload").len();
        assert_eq!(count("permutation_packet"), 11);
        assert_eq!(count("allreduce_packet"), 24);
        assert_eq!(count("scale_hybrid"), 6);
        assert_eq!(count("recovery_fleet"), 5);
    }

    /// The verdict table behind `failed`: surviving rows may dip but
    /// must keep exactly-once; only the no-recovery counterfactual must
    /// die.
    #[test]
    fn verdict_table() {
        for v in ["ok", "graceful", "degraded"] {
            assert!(verdict_passes(Expect::Healthy, v), "{v}");
            assert!(!verdict_passes(Expect::Dies, v), "{v}");
        }
        for v in ["transport_error", "collapsed"] {
            assert!(!verdict_passes(Expect::Healthy, v), "{v}");
            assert!(verdict_passes(Expect::Dies, v), "{v}");
        }
        for expect in [Expect::Healthy, Expect::Dies] {
            assert!(!verdict_passes(expect, "violated"));
            assert!(!verdict_passes(expect, "panicked"));
        }
        let dies: Vec<String> = WORKLOADS
            .iter()
            .flat_map(|w| scenarios(w, 0).expect("known workload"))
            .filter(|s| s.expect == Expect::Dies)
            .map(|s| s.name)
            .collect();
        assert_eq!(dies, ["no-recovery"]);
    }

    #[test]
    fn hybrid_error_is_the_worst_shape() {
        let rows = [
            ("a.packet", Some(100.0)),
            ("a.hybrid", Some(110.0)),
            ("b.packet", Some(50.0)),
            ("b.hybrid", Some(40.0)),
            ("c", Some(1.0)),
        ];
        assert!((hybrid_error_pct(&rows).unwrap() - 20.0).abs() < 1e-9);
        assert_eq!(hybrid_error_pct(&rows[4..]), None);
    }

    /// The fleet replica reproduces the `recovery` experiment's fleet on
    /// a miniature: 2 rings × 8 ranks, one victim uplink.
    #[test]
    fn fleet_replica_matches_the_experiment() {
        use stellar_bench::recovery as exp;
        let theirs = exp::run_fleet(&exp::FleetConfig {
            rings: 2,
            ring_ranks: 8,
            data_bytes: 256 * 1024,
            iterations: 3,
            victims: 1,
            outage: SimDuration::from_millis(5),
            seed: 77,
        });
        let ours = run_fleet(
            &FleetConfig {
                rings: 2,
                ring_ranks: 8,
                data_bytes: 256 * 1024,
                iterations: 3,
                victims: 1,
                outage: SimDuration::from_millis(5),
                seed: 77,
            },
            &hybrid::<Plain>,
        );
        assert!(
            ours.recoveries >= 1,
            "the outage must force re-establishment"
        );
        assert_eq!(ours.recoveries, theirs.recoveries);
        assert_eq!(ours.replayed, theirs.replayed);
        assert_eq!(ours.downtimes, theirs.downtimes);
        assert_eq!(ours.errors, theirs.errors);
        assert_eq!(ours.all_finished, theirs.all_finished);
        assert_eq!(
            ours.healthy_busbw_gbs.to_bits(),
            theirs.healthy_busbw_gbs.to_bits()
        );
        assert_eq!(ours.bridged, theirs.bridged);
        assert_eq!(ours.after, theirs.after);
    }
}
