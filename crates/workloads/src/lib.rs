//! # stellar-workloads — AI traffic and training-job models
//!
//! The workloads the paper evaluates Stellar under:
//!
//! * [`permutation`] — the Fig. 9 permutation stress: every RNIC streams
//!   to one random distinct RNIC, saturating ToR uplinks and exposing
//!   ECMP hash imbalance.
//! * [`allreduce`] — ring AllReduce as a causally-chained transport
//!   [`stellar_transport::App`]: multiple concurrent jobs, optional
//!   bursty (on/off) scheduling, and bus-bandwidth accounting (Figs. 10
//!   and 11).
//! * [`failures`] — the §7.2 failure-recovery timeline: healthy →
//!   RTO-bridged → BGP-rerouted bandwidth phases around a link death.
//! * [`chaos`] — multi-fault scenarios (flap storms, cascading switch
//!   death, slow-degrading optics) driven by seeded
//!   [`stellar_net::FaultPlan`]s, with a graceful-degradation verdict.
//! * [`llm`] — the LLM 3D-parallelism step model: per-step TP/DP/PP/EP
//!   communication volumes and compute time for Megatron- and
//!   DeepSpeed-style jobs (Table 1), plus end-to-end step-time
//!   simulation over the fabric with reranked or random placement
//!   (Figs. 15 and 16).

#![warn(missing_docs)]

pub mod allreduce;
pub mod chaos;
pub mod failures;
pub mod llm;
pub mod permutation;

pub use allreduce::{AllReduceJob, AllReduceReport, AllReduceRunner, BurstSchedule};
pub use chaos::{
    chaos_fails, run_chaos_with, shrink_failing_chaos, ChaosConfig, ChaosConfigError,
    ChaosReport, ChaosScenario, ShrunkChaos, Verdict,
};
pub use failures::{run_failure_timeline_with, FailureTimeline, FailureTimelineConfig};
pub use llm::{
    comm_ratios, simulate_scale_training_step, simulate_training_step_with, CommRatios,
    LlmJobConfig, Placement, ScaleTrainingConfig, TrainingOutcome, TrainingSimConfig,
};
pub use permutation::{run_permutation_with, PermutationConfig, PermutationReport};
