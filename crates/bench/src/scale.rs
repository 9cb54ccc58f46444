//! `scale` — hybrid-fabric validation plus the 10k+-rank experiments no
//! packet-level model can reach.
//!
//! Two halves, one table:
//!
//! * **Validation** — the fig9 permutation shape and the fig16 LLM ring
//!   shape each run twice, packet vs hybrid, on identical seeds and
//!   topologies. The hybrid's headline rate must land within the
//!   tolerance EXPERIMENTS.md documents; the `scale` rows are only
//!   trustworthy because these rows stay close.
//! * **Scale** — a 16 384-rank 3D-parallel LLM job (tp=8 × pp=16 ×
//!   dp=128, one rank per RNIC, reranked placement) on the hybrid
//!   fabric, and a permutation storm across a dual-plane HPN7.0-scale
//!   topology on the pure fluid fabric. Both are far past the
//!   packet model's event budget; the fluid fair-share core carries
//!   them.

use stellar_net::fixture::{fluid_fabric, hybrid_fabric, packet_fabric};
use stellar_net::{ClosConfig, FluidConfig, HybridConfig};
use stellar_sim::json::json_row;
use stellar_sim::par::par_map;
use stellar_sim::SimDuration;
use stellar_transport::{PathAlgo, TransportConfig};
use stellar_workloads::llm::{
    simulate_scale_training_step, simulate_training_step_with, ScaleTrainingConfig,
    TrainingSimConfig,
};
use stellar_workloads::permutation::{run_permutation_with, PermutationConfig};

use crate::Table;

json_row! {
    /// One row of the scale table.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Scenario id.
        pub scenario: &'static str,
        /// Fabric the row ran on.
        pub fabric: &'static str,
        /// Ranks (LLM scenarios) or flows (permutation scenarios).
        pub ranks: u64,
        /// Headline rate: aggregate goodput in Gbps for permutation rows,
        /// ring bus bandwidth in GB/s for LLM rows.
        pub rate: f64,
        /// Rate unit, `"Gbps"` or `"GB/s"`.
        pub unit: &'static str,
        /// Relative deviation from the packet-fabric row of the same
        /// scenario, percent (0 for packet rows and for scale rows, which
        /// have no packet reference by construction).
        pub delta_pct: f64,
    }
}

/// The fig9 permutation shape used for packet-vs-hybrid validation (the
/// fig9 quick topology: few aggregation slots, guaranteed contention).
pub fn validation_permutation_config(quick: bool) -> PermutationConfig {
    PermutationConfig {
        topology: ClosConfig {
            segments: 2,
            hosts_per_segment: 6,
            rails: 2,
            planes: 2,
            aggs_per_plane: 4,
        },
        transport: TransportConfig {
            algo: PathAlgo::Obs,
            num_paths: 128,
            ..TransportConfig::default()
        },
        message_bytes: 512 * 1024,
        offered_gbps: 150.0,
        duration: if quick {
            SimDuration::from_millis(3)
        } else {
            SimDuration::from_millis(8)
        },
        seed: 9,
        ..PermutationConfig::default()
    }
}

/// The fig16 LLM ring shape used for packet-vs-hybrid validation.
pub fn validation_training_config(quick: bool) -> TrainingSimConfig {
    TrainingSimConfig {
        ranks: 16,
        rings: if quick { 2 } else { 4 },
        data_bytes: 8 << 20,
        algo: PathAlgo::Obs,
        num_paths: 128,
        seed: 21,
        ..TrainingSimConfig::default()
    }
}

/// The 16 384-rank 3D-parallel job: tp=8 × pp=16 × dp=128 on a
/// dual-plane, dual-rail fabric of 8 192 hosts. Chunk-sized packets keep
/// the event count proportional to ring steps, not bytes.
pub fn scale_llm_config(quick: bool) -> ScaleTrainingConfig {
    let data_bytes: u64 = if quick { 4 << 20 } else { 32 << 20 };
    ScaleTrainingConfig {
        topology: ClosConfig {
            segments: 8,
            hosts_per_segment: 1024,
            rails: 2,
            planes: 2,
            aggs_per_plane: 60,
        },
        tp: 8,
        pp: 16,
        dp: 128,
        data_bytes,
        // One packet per ring chunk (chunk = data / dp).
        mtu: data_bytes / 128,
        compute: SimDuration::from_millis(6),
        overlap: 0.5,
        algo: PathAlgo::Obs,
        num_paths: 128,
        seed: 31,
    }
}

/// The HPN7.0-scale permutation: a dual-plane fabric with the
/// production aggregation fan-out (2 × 60) and thousands of RNICs, every
/// one streaming to a random peer — pure fluid, flow-count-bound.
pub fn scale_permutation_config(quick: bool) -> PermutationConfig {
    PermutationConfig {
        topology: ClosConfig {
            segments: 2,
            hosts_per_segment: if quick { 2048 } else { 8192 },
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
        // Storage-class per-flow load: the aggregate still stresses the
        // fair-share solver with ~10k concurrent flows.
        offered_gbps: 10.0,
        duration: if quick {
            SimDuration::from_micros(300)
        } else {
            SimDuration::from_millis(1)
        },
        seed: 41,
        ..PermutationConfig::default()
    }
}

/// NCCL bus bandwidth of the slowest ring, GB/s.
fn ring_busbw_gbs(data_bytes: u64, ranks: usize, comm_ns: u64) -> f64 {
    let n = ranks as f64;
    data_bytes as f64 * 2.0 * (n - 1.0) / n / comm_ns as f64
}

/// Run validation and scale scenarios; one work-pool job each.
pub fn run(quick: bool) -> Vec<Row> {
    // Job list: (scenario, fabric, runner). Packet rows come first so
    // delta_pct can reference them after the parallel pass.
    type Job = (&'static str, &'static str, fn(bool) -> (u64, f64, &'static str));
    const JOBS: &[Job] = &[
        ("fig9_shape", "packet", |quick| {
            let rep = run_permutation_with(&validation_permutation_config(quick), packet_fabric);
            (rep.flows as u64, rep.total_goodput_gbps, "Gbps")
        }),
        ("fig9_shape", "hybrid", |quick| {
            let rep = run_permutation_with(&validation_permutation_config(quick), |t, n, rng| {
                hybrid_fabric(t, n, HybridConfig::default(), rng)
            });
            (rep.flows as u64, rep.total_goodput_gbps, "Gbps")
        }),
        ("fig16_shape", "packet", |quick| {
            let cfg = validation_training_config(quick);
            let out = simulate_training_step_with(&cfg, packet_fabric);
            let bw = ring_busbw_gbs(cfg.data_bytes, cfg.ranks, out.comm_network.as_nanos());
            ((cfg.ranks * cfg.rings) as u64, bw, "GB/s")
        }),
        ("fig16_shape", "hybrid", |quick| {
            let cfg = validation_training_config(quick);
            let out = simulate_training_step_with(&cfg, |t, n, rng| {
                hybrid_fabric(t, n, HybridConfig::default(), rng)
            });
            let bw = ring_busbw_gbs(cfg.data_bytes, cfg.ranks, out.comm_network.as_nanos());
            ((cfg.ranks * cfg.rings) as u64, bw, "GB/s")
        }),
        ("llm_3d_16k", "hybrid", |quick| {
            let cfg = scale_llm_config(quick);
            let out = simulate_scale_training_step(&cfg, |t, n, rng| {
                hybrid_fabric(t, n, HybridConfig::default(), rng)
            });
            let bw = ring_busbw_gbs(cfg.data_bytes, cfg.dp, out.comm_network.as_nanos());
            (cfg.ranks() as u64, bw, "GB/s")
        }),
        ("permutation_hpn", "fluid", |quick| {
            let rep = run_permutation_with(&scale_permutation_config(quick), |t, n, rng| {
                fluid_fabric(t, n, FluidConfig::default(), rng)
            });
            (rep.flows as u64, rep.total_goodput_gbps, "Gbps")
        }),
    ];
    let results = par_map(JOBS, |&(_, _, f)| f(quick));
    let packet_ref = |scenario: &str| -> Option<f64> {
        JOBS.iter()
            .zip(&results)
            .find(|((s, fab, _), _)| *s == scenario && *fab == "packet")
            .map(|(_, &(_, rate, _))| rate)
    };
    JOBS.iter()
        .zip(&results)
        .map(|(&(scenario, fabric, _), &(ranks, rate, unit))| {
            let delta_pct = match packet_ref(scenario) {
                Some(reference) if fabric != "packet" && reference > 0.0 => {
                    (rate / reference - 1.0) * 100.0
                }
                _ => 0.0,
            };
            Row {
                scenario,
                fabric,
                ranks,
                rate,
                unit,
                delta_pct,
            }
        })
        .collect()
}

/// Render the table `reproduce` prints.
pub fn render(rows: &[Row]) -> String {
    Table::new("scale — hybrid fabric validation and 10k+-rank jobs", rows)
        .col("scenario", 16, |r| r.scenario)
        .col("fabric", 8, |r| r.fabric)
        .col("ranks", 8, |r| r.ranks)
        .col("rate", 12, |r| format!("{:.2}", r.rate))
        .col("unit", 6, |r| r.unit)
        .col("vs packet", 9, |r| format!("{:.1}%", r.delta_pct))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The satellite tolerance gate: on the fig9 permutation shape the
    /// hybrid's aggregate goodput must stay within 25% of the packet
    /// model's (the tolerance EXPERIMENTS.md documents). Uses the quick
    /// shape so the test stays debug-profile-friendly.
    #[test]
    fn hybrid_tracks_packet_on_fig9_shape() {
        let packet = run_permutation_with(&validation_permutation_config(true), packet_fabric);
        let hybrid = run_permutation_with(&validation_permutation_config(true), |t, n, rng| {
            hybrid_fabric(t, n, HybridConfig::default(), rng)
        });
        assert_eq!(packet.flows, hybrid.flows);
        let delta = (hybrid.total_goodput_gbps / packet.total_goodput_gbps - 1.0).abs();
        assert!(
            delta < 0.25,
            "hybrid goodput {} deviates {:.1}% from packet {}",
            hybrid.total_goodput_gbps,
            delta * 100.0,
            packet.total_goodput_gbps
        );
    }

    #[test]
    fn hybrid_tracks_packet_on_fig16_shape() {
        let cfg = validation_training_config(true);
        let packet = simulate_training_step_with(&cfg, packet_fabric);
        let hybrid = simulate_training_step_with(&cfg, |t, n, rng| {
            hybrid_fabric(t, n, HybridConfig::default(), rng)
        });
        let p = packet.comm_network.as_nanos() as f64;
        let h = hybrid.comm_network.as_nanos() as f64;
        let delta = (h / p - 1.0).abs();
        assert!(
            delta < 0.25,
            "hybrid comm {h} ns deviates {:.1}% from packet {p} ns",
            delta * 100.0
        );
    }

    /// A miniature of the 3D-parallel scale job (512 ranks) completes on
    /// the hybrid fabric and reports a sane bus bandwidth. The full 16k
    /// run is exercised by `reproduce scale --quick` in CI, in release.
    #[test]
    fn mini_3d_job_completes_on_hybrid() {
        let cfg = ScaleTrainingConfig {
            topology: ClosConfig {
                segments: 2,
                hosts_per_segment: 128,
                rails: 2,
                planes: 2,
                aggs_per_plane: 16,
            },
            tp: 2,
            pp: 8,
            dp: 32,
            data_bytes: 1 << 20,
            mtu: (1 << 20) / 32,
            compute: SimDuration::from_millis(6),
            overlap: 0.5,
            algo: PathAlgo::Obs,
            num_paths: 128,
            seed: 31,
        };
        assert_eq!(cfg.ranks(), 512);
        let out = simulate_scale_training_step(&cfg, |t, n, rng| {
            hybrid_fabric(t, n, HybridConfig::default(), rng)
        });
        let bw = ring_busbw_gbs(cfg.data_bytes, cfg.dp, out.comm_network.as_nanos());
        assert!(bw > 0.5, "busbw={bw} GB/s");
        assert_eq!(out.step, out.compute + out.comm_exposed);
    }

    #[test]
    fn scale_rows_are_deterministic() {
        // The cheap validation half only — identical rows across runs.
        let once = || {
            let rep = run_permutation_with(&validation_permutation_config(true), |t, n, rng| {
                hybrid_fabric(t, n, HybridConfig::default(), rng)
            });
            (rep.flows, rep.total_goodput_gbps.to_bits(), rep.rto_events)
        };
        assert_eq!(once(), once());
    }
}
