//! The LLM 3D-parallelism model: Table 1's communication ratios and the
//! Fig. 15/16 end-to-end training simulations.
//!
//! ## Analytic step model (Table 1)
//!
//! Per training step of a Megatron/DeepSpeed-style job:
//!
//! * compute: `6·P·tokens / gpus` FLOPs per GPU;
//! * TP: activation all-reduces per layer per microbatch (NVLink-class
//!   bandwidth);
//! * PP: stage-boundary activation transfers plus the pipeline-bubble
//!   time `((pp−1)/ga)·t_compute`;
//! * DP: gradient all-reduce (Megatron), gradient all-reduce overlapped
//!   with backward (ZeRO-1), or hierarchical parameter all-gathers
//!   (ZeRO-3), with ring efficiency degrading as the DP group spans more
//!   of the fabric.
//!
//! The constants are calibrated against the paper's measured ratios (the
//! evaluation servers are production A800-class machines we cannot
//! access); EXPERIMENTS.md records measured-vs-paper for every row.
//!
//! ## Fabric-coupled step simulation (Figs. 15/16)
//!
//! The DP ring all-reduce — the component whose time depends on the
//! *network* — is simulated packet-by-packet on the Clos fabric with the
//! chosen placement (reranked = ring neighbours co-located per segment;
//! random = shuffled across segments) and transport (single-path CX7
//! baseline vs Stellar's 128-path spray). Step time combines the analytic
//! compute term with the measured, partially-overlapped communication.

use stellar_net::{ClosConfig, Fabric, NetworkConfig, NicId};
use stellar_sim::{SimDuration, SimRng, SimTime};
use stellar_transport::{PathAlgo, TransportConfig, TransportSim};

use crate::allreduce::{AllReduceJob, AllReduceRunner};

/// Training framework flavour (changes the DP communication pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framework {
    /// Megatron-LM 3D parallelism: one gradient all-reduce per step.
    Megatron,
    /// DeepSpeed ZeRO-1: optimizer-state sharding; gradient all-reduce
    /// overlapped with backward.
    DeepSpeedZero1,
    /// DeepSpeed ZeRO-3: parameter sharding; hierarchical all-gathers.
    DeepSpeedZero3,
}

/// One training job (a Table 1 row).
#[derive(Debug, Clone)]
pub struct LlmJobConfig {
    /// Display name.
    pub name: &'static str,
    /// Framework.
    pub framework: Framework,
    /// Parameter count.
    pub params: f64,
    /// Hidden dimension.
    pub hidden: u64,
    /// Transformer layers.
    pub layers: u64,
    /// Sequence length.
    pub seq_len: u64,
    /// Tensor parallelism.
    pub tp: u64,
    /// Pipeline parallelism.
    pub pp: u64,
    /// Data parallelism.
    pub dp: u64,
    /// Expert parallelism (1 = dense).
    pub ep: u64,
    /// Micro-batch size.
    pub micro_batch: u64,
    /// Gradient-accumulation steps.
    pub grad_accum: u64,
    /// Global batch (sequences).
    pub global_batch: u64,
}

impl LlmJobConfig {
    /// Total GPUs.
    pub fn gpus(&self) -> u64 {
        self.tp * self.pp * self.dp * self.ep
    }

    /// The four Table 1 rows.
    pub fn table1() -> Vec<LlmJobConfig> {
        vec![
            LlmJobConfig {
                name: "Megatron Llama-33B",
                framework: Framework::Megatron,
                params: 33e9,
                hidden: 6656,
                layers: 60,
                seq_len: 2048,
                tp: 2,
                pp: 3,
                dp: 148,
                ep: 1,
                micro_batch: 1,
                grad_accum: 58,
                global_batch: 8584,
            },
            LlmJobConfig {
                name: "Megatron GPT-200B",
                framework: Framework::Megatron,
                params: 200e9,
                hidden: 12288,
                layers: 96,
                seq_len: 2048,
                tp: 4,
                pp: 12,
                dp: 34,
                ep: 1,
                micro_batch: 1,
                grad_accum: 117,
                global_batch: 3978,
            },
            LlmJobConfig {
                name: "DeepSpeed-Zero1 Llama-2B",
                framework: Framework::DeepSpeedZero1,
                params: 2e9,
                hidden: 2560,
                layers: 32,
                seq_len: 2048,
                tp: 1,
                pp: 1,
                dp: 16,
                ep: 1,
                micro_batch: 1,
                grad_accum: 2,
                global_batch: 32,
            },
            LlmJobConfig {
                name: "DeepSpeed-Zero3 Llama-13B",
                framework: Framework::DeepSpeedZero3,
                params: 13e9,
                hidden: 5120,
                layers: 40,
                seq_len: 2048,
                tp: 1,
                pp: 1,
                dp: 440,
                ep: 1,
                micro_batch: 1,
                grad_accum: 1,
                global_batch: 440,
            },
        ]
    }
}

/// Calibrated platform constants (see module docs).
mod platform {
    /// Effective per-GPU compute, FLOPs/s.
    pub const GPU_FLOPS: f64 = 208e12;
    /// NVLink-class effective bandwidth (TP collectives), B/s.
    pub const BW_TP: f64 = 53e9;
    /// Pipeline p2p effective bandwidth, B/s.
    pub const BW_PP: f64 = 4.5e9;
    /// Base DP ring bandwidth at small group sizes, B/s.
    pub const BW_DP_BASE: f64 = 15.6e9;
    /// Ring-efficiency exponent: bw ∝ (32/dp)^α beyond 32 replicas.
    pub const DP_SCALE_ALPHA: f64 = 1.355;
    /// Hierarchical (intra-node) all-gather bandwidth for ZeRO-3, B/s.
    pub const BW_ZERO3: f64 = 150e9;
    /// Exposed (non-overlapped) fraction of DP communication.
    pub const EXPOSE_MEGATRON: f64 = 0.5;
    pub const EXPOSE_ZERO1: f64 = 0.1;
    pub const EXPOSE_ZERO3: f64 = 0.2;
}

/// Table 1 output: per-step times and exposed communication ratios.
#[derive(Debug, Clone)]
pub struct CommRatios {
    /// Job name.
    pub name: &'static str,
    /// Compute time per step, seconds.
    pub compute_s: f64,
    /// Exposed TP communication ratio (`None` when tp == 1).
    pub tp_ratio: Option<f64>,
    /// Exposed DP communication ratio.
    pub dp_ratio: f64,
    /// Exposed PP ratio incl. pipeline bubble (`None` when pp == 1).
    pub pp_ratio: Option<f64>,
}

/// Compute the Table 1 communication ratios for `job`.
pub fn comm_ratios(job: &LlmJobConfig) -> CommRatios {
    use platform::*;
    let tokens = (job.global_batch * job.seq_len) as f64;
    let t_comp = 6.0 * job.params * tokens / job.gpus() as f64 / GPU_FLOPS;

    // TP: 4 all-reduces (attn + MLP, fwd + bwd) of b×s×h half-precision
    // activations per local layer per microbatch; ring factor (tp-1)/tp.
    let act = (job.micro_batch * job.seq_len * job.hidden * 2) as f64;
    let t_tp = if job.tp > 1 {
        let local_layers = (job.layers / job.pp).max(1) as f64;
        let v = job.grad_accum as f64
            * local_layers
            * 4.0
            * act
            * (job.tp - 1) as f64
            / job.tp as f64;
        v / BW_TP
    } else {
        0.0
    };

    // PP: one activation fwd + one gradient bwd per microbatch per stage
    // boundary, plus the pipeline bubble.
    let t_pp = if job.pp > 1 {
        let v = job.grad_accum as f64 * 2.0 * act;
        let bubble = (job.pp - 1) as f64 / job.grad_accum as f64 * t_comp;
        v / BW_PP + bubble
    } else {
        0.0
    };

    // DP: framework-specific volume and overlap exposure.
    let shard_params = job.params / (job.tp * job.pp) as f64;
    let ring = |n: f64| -> f64 { 2.0 * (n - 1.0) / n };
    let dp = job.dp as f64;
    let dp_bw = if dp > 32.0 {
        BW_DP_BASE * (32.0 / dp).powf(DP_SCALE_ALPHA)
    } else {
        BW_DP_BASE
    };
    let (v_dp, bw, expose) = match job.framework {
        // Gradient all-reduce in half precision.
        Framework::Megatron => (shard_params * 2.0 * ring(dp), dp_bw, EXPOSE_MEGATRON),
        Framework::DeepSpeedZero1 => (shard_params * 2.0 * ring(dp), dp_bw, EXPOSE_ZERO1),
        // Parameter all-gathers (fwd + bwd), hierarchical.
        Framework::DeepSpeedZero3 => (job.params * 2.0 * 2.0, BW_ZERO3, EXPOSE_ZERO3),
    };
    let t_dp = v_dp / bw * expose;

    let total = t_comp + t_tp + t_pp + t_dp;
    CommRatios {
        name: job.name,
        compute_s: t_comp,
        tp_ratio: (job.tp > 1).then_some(t_tp / total),
        dp_ratio: t_dp / total,
        pp_ratio: (job.pp > 1).then_some(t_pp / total),
    }
}

/// Task placement strategy (Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Reranking co-locates communicating ranks: ring neighbours sit in
    /// the same segment wherever possible.
    Reranked,
    /// Random ranking scatters ranks across segments.
    Random,
}

/// Outcome of a fabric-coupled training-step simulation.
#[derive(Debug, Clone)]
pub struct TrainingOutcome {
    /// Analytic compute time per (scaled) step.
    pub compute: SimDuration,
    /// Measured network communication time per step (DP ring).
    pub comm_network: SimDuration,
    /// Exposed communication after compute/comm overlap.
    pub comm_exposed: SimDuration,
    /// Step time = compute + exposed communication.
    pub step: SimDuration,
}

impl TrainingOutcome {
    /// Relative training speed (inverse step time), arbitrary units.
    pub fn speed(&self) -> f64 {
        1e9 / self.step.as_nanos() as f64
    }
}

/// Parameters of the Fig. 15/16 scaled simulation.
#[derive(Debug, Clone)]
pub struct TrainingSimConfig {
    /// Ranks in each DP ring (one NIC each).
    pub ranks: usize,
    /// Concurrent DP rings (one per pipeline stage in a real job); their
    /// contention on the aggregation layer is what placement and
    /// transport choices modulate.
    pub rings: usize,
    /// All-reduce payload per rank (scaled).
    pub data_bytes: u64,
    /// Scaled compute time per step.
    pub compute: SimDuration,
    /// Fraction of communication hidden under compute.
    pub overlap: f64,
    /// Placement strategy.
    pub placement: Placement,
    /// Transport algorithm.
    pub algo: PathAlgo,
    /// Paths per connection.
    pub num_paths: u32,
    /// Seed.
    pub seed: u64,
}

impl Default for TrainingSimConfig {
    fn default() -> Self {
        TrainingSimConfig {
            ranks: 32,
            rings: 4,
            data_bytes: 8 * 1024 * 1024,
            // Calibrated so exposed communication sits at the 10-30% of
            // step time that Table 1 reports for production jobs.
            compute: SimDuration::from_millis(6),
            overlap: 0.5,
            placement: Placement::Random,
            algo: PathAlgo::Obs,
            num_paths: 128,
            seed: 1,
        }
    }
}

/// Run one training step's DP communication on any [`Fabric`] (builder
/// contract as in [`crate::run_permutation_with`]).
pub fn simulate_training_step_with<F: Fabric>(
    config: &TrainingSimConfig,
    build: impl FnOnce(ClosConfig, NetworkConfig, &SimRng) -> F,
) -> TrainingOutcome {
    assert!(config.rings >= 1, "need at least one DP ring");
    let rng = SimRng::from_seed(config.seed);
    let total_hosts = config.ranks * config.rings;
    let topo_cfg = ClosConfig {
        segments: 2,
        hosts_per_segment: total_hosts.div_ceil(2),
        rails: 1,
        planes: 2,
        aggs_per_plane: 16,
    };
    let network = build(topo_cfg, NetworkConfig::default(), &rng);
    let mut sim = TransportSim::new(
        network,
        TransportConfig {
            algo: config.algo,
            num_paths: config.num_paths,
            ..TransportConfig::default()
        },
        rng.fork("transport"),
    );

    // Rank → host placement. Reranked: each ring's hosts are contiguous,
    // so nearly every ring edge stays inside a segment. Random: the
    // scheduler scattered ranks across both segments.
    let mut hosts: Vec<usize> = (0..total_hosts).collect();
    if config.placement == Placement::Random {
        rng.fork("placement").shuffle(&mut hosts);
    }
    let jobs: Vec<AllReduceJob> = (0..config.rings)
        .map(|j| {
            let nics: Vec<NicId> = hosts[j * config.ranks..(j + 1) * config.ranks]
                .iter()
                .map(|&h| sim.network().topology().nic(h, 0))
                .collect();
            AllReduceJob {
                nics,
                data_bytes: config.data_bytes,
                iterations: 1,
                burst: None,
            }
        })
        .collect();
    run_dp_step(&mut sim, jobs, config.compute, config.overlap)
}

/// Run `jobs`, one single-iteration DP ring each, to completion and
/// fold them into a step: communication ends when the slowest ring
/// finishes, and `overlap` of it hides under `compute`.
fn run_dp_step<F: Fabric>(
    sim: &mut TransportSim<F>,
    jobs: Vec<AllReduceJob>,
    compute: SimDuration,
    overlap: f64,
) -> TrainingOutcome {
    let rings = jobs.len();
    let mut runner = AllReduceRunner::new(sim, jobs);
    runner.start(sim);
    sim.run(&mut runner, SimTime::from_nanos(u64::MAX / 2));
    // No connection may end the run dead or mid-recovery.
    debug_assert_eq!(sim.failed_connections() + sim.recovering_count(), 0);
    let comm = (0..rings)
        .map(|j| {
            let rep = runner.report(j);
            assert_eq!(rep.iterations.len(), 1, "all-reduce must complete");
            rep.iterations[0].duration()
        })
        .max()
        .expect("at least one ring");

    let hidden = comm.mul_f64(overlap);
    let exposed = comm - hidden.min(comm);
    TrainingOutcome {
        compute,
        comm_network: comm,
        comm_exposed: exposed,
        step: compute + exposed,
    }
}

/// Parameters of the `reproduce scale` 3D-parallel job: an explicit
/// tp×pp×dp decomposition on an explicit (HPN7.0-sized) topology, one
/// rank per RNIC. The DP rings — `tp × pp` of them, `dp` ranks each —
/// run concurrently on the fabric, exactly the contention structure of a
/// real 3D-parallel step's gradient all-reduce phase.
#[derive(Debug, Clone)]
pub struct ScaleTrainingConfig {
    /// Fabric shape. Must provide at least `tp × pp × dp` RNICs.
    pub topology: ClosConfig,
    /// Tensor parallelism (intra-host in production; here it only sets
    /// the ring count).
    pub tp: usize,
    /// Pipeline parallelism.
    pub pp: usize,
    /// Data parallelism = ranks per DP ring.
    pub dp: usize,
    /// All-reduce payload per rank.
    pub data_bytes: u64,
    /// Packet payload size. Scale runs use chunk-sized packets (one
    /// packet per ring step) so the event count stays proportional to
    /// messages, not bytes.
    pub mtu: u64,
    /// Scaled compute time per step.
    pub compute: SimDuration,
    /// Fraction of communication hidden under compute.
    pub overlap: f64,
    /// Transport algorithm.
    pub algo: PathAlgo,
    /// Paths per connection.
    pub num_paths: u32,
    /// Seed.
    pub seed: u64,
}

impl ScaleTrainingConfig {
    /// Total ranks in the job.
    pub fn ranks(&self) -> usize {
        self.tp * self.pp * self.dp
    }
}

/// Run one scaled training step's DP phase on any [`Fabric`] (builder
/// contract as in [`crate::run_permutation_with`]).
///
/// Placement is reranked (each ring's ranks are contiguous RNICs on one
/// rail — collective traffic is rail-aligned, cross-rail would need
/// host-internal NVLink forwarding the fabric does not model), the
/// regime the paper's Fig. 16 recommends and the only one a 10k+-rank
/// job would deploy with. Ring `j` lives on rail `j % rails`, so the
/// rings spread evenly over the rail planes.
pub fn simulate_scale_training_step<F: Fabric>(
    config: &ScaleTrainingConfig,
    build: impl FnOnce(ClosConfig, NetworkConfig, &SimRng) -> F,
) -> TrainingOutcome {
    let rings = config.tp * config.pp;
    assert!(rings >= 1, "need at least one DP ring");
    assert!(config.dp >= 2, "a DP ring needs at least two ranks");
    let rng = SimRng::from_seed(config.seed);
    let rails = config.topology.rails;
    let network = build(config.topology.clone(), NetworkConfig::default(), &rng);
    let total_hosts = network.topology().total_hosts();
    let hosts_needed = rings.div_ceil(rails) * config.dp;
    assert!(
        hosts_needed <= total_hosts,
        "job needs {hosts_needed} hosts ({rings} rings × {} ranks over {rails} rails), \
         topology has {total_hosts}",
        config.dp
    );
    let mut sim = TransportSim::new(
        network,
        TransportConfig {
            algo: config.algo,
            num_paths: config.num_paths,
            mtu: config.mtu,
            ..TransportConfig::default()
        },
        rng.fork("transport"),
    );

    let jobs: Vec<AllReduceJob> = (0..rings)
        .map(|j| {
            let rail = j % rails;
            let base = (j / rails) * config.dp;
            let nics: Vec<NicId> = (0..config.dp)
                .map(|k| sim.network().topology().nic(base + k, rail))
                .collect();
            AllReduceJob {
                nics,
                data_bytes: config.data_bytes,
                iterations: 1,
                burst: None,
            }
        })
        .collect();
    run_dp_step(&mut sim, jobs, config.compute, config.overlap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_net::fixture::packet_fabric;

    #[test]
    fn table1_llama33b_dp_dominates() {
        let jobs = LlmJobConfig::table1();
        let r = comm_ratios(&jobs[0]);
        // Paper: TP 4.57%, DP 20.95%, PP 2.65%.
        let tp = r.tp_ratio.unwrap();
        let pp = r.pp_ratio.unwrap();
        assert!(r.dp_ratio > tp && r.dp_ratio > pp, "{r:?}");
        assert!((0.10..0.35).contains(&r.dp_ratio), "dp={}", r.dp_ratio);
        assert!((0.02..0.09).contains(&tp), "tp={tp}");
    }

    #[test]
    fn table1_gpt200b_pp_dominates() {
        let jobs = LlmJobConfig::table1();
        let r = comm_ratios(&jobs[1]);
        // Paper: TP 10.88%, DP 1.49%, PP 20.14%.
        let tp = r.tp_ratio.unwrap();
        let pp = r.pp_ratio.unwrap();
        assert!(pp > tp && tp > r.dp_ratio, "{r:?}");
        assert!((0.08..0.30).contains(&pp), "pp={pp}");
        assert!(r.dp_ratio < 0.05, "dp={}", r.dp_ratio);
    }

    #[test]
    fn table1_deepspeed_rows_have_only_dp() {
        let jobs = LlmJobConfig::table1();
        for row in [2usize, 3] {
            let r = comm_ratios(&jobs[row]);
            assert!(r.tp_ratio.is_none());
            assert!(r.pp_ratio.is_none());
            // Paper: 17.3% (ZeRO-1) and 10.5% (ZeRO-3).
            assert!((0.05..0.30).contains(&r.dp_ratio), "{}: {}", r.name, r.dp_ratio);
        }
    }

    #[test]
    fn table1_gpu_counts() {
        let jobs = LlmJobConfig::table1();
        assert_eq!(jobs[0].gpus(), 888);
        assert_eq!(jobs[1].gpus(), 1632);
        assert_eq!(jobs[2].gpus(), 16);
        assert_eq!(jobs[3].gpus(), 440);
    }

    #[test]
    fn fig16_random_placement_magnifies_transport_gap() {
        let step = |placement, algo, paths, seed| {
            simulate_training_step_with(
                &TrainingSimConfig {
                    placement,
                    algo,
                    num_paths: paths,
                    ranks: 8,
                    rings: 4,
                    data_bytes: 4 * 1024 * 1024,
                    seed,
                    ..TrainingSimConfig::default()
                },
                packet_fabric,
            )
        };
        // The claim is statistical — any single shuffle can happen to
        // balance the fabric — so average the spray-vs-single gain over
        // several seeds for each placement.
        let seeds = [3u64, 5, 7, 9, 11];
        let mean_gain = |placement| -> f64 {
            seeds
                .iter()
                .map(|&seed| {
                    let single = step(placement, PathAlgo::SinglePath, 1, seed);
                    let spray = step(placement, PathAlgo::Obs, 128, seed);
                    spray.speed() / single.speed() - 1.0
                })
                .sum::<f64>()
                / seeds.len() as f64
        };
        let gain_rer = mean_gain(Placement::Reranked);
        let gain_rnd = mean_gain(Placement::Random);
        // Fig. 16: ~0.72% reranked, up to 14% random.
        assert!(
            gain_rnd > gain_rer,
            "random gain {gain_rnd} <= reranked gain {gain_rer}"
        );
        assert!(gain_rnd > 0.0, "spray must win under random placement");
    }

    #[test]
    fn step_time_includes_compute_and_exposed_comm() {
        let out = simulate_training_step_with(
            &TrainingSimConfig {
                ranks: 8,
                seed: 4,
                ..TrainingSimConfig::default()
            },
            packet_fabric,
        );
        assert_eq!(out.step, out.compute + out.comm_exposed);
        assert!(out.comm_exposed <= out.comm_network);
        assert!(out.comm_network > SimDuration::ZERO);
    }

    #[test]
    fn deterministic() {
        let cfg = TrainingSimConfig {
            seed: 77,
            ..TrainingSimConfig::default()
        };
        let a = simulate_training_step_with(&cfg, packet_fabric);
        let b = simulate_training_step_with(&cfg, packet_fabric);
        assert_eq!(a.step, b.step);
    }
}
