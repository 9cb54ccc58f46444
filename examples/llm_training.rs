//! LLM training over the simulated cluster: Table 1 communication ratios
//! plus the Fig. 16 placement × transport comparison.
//!
//! ```sh
//! cargo run --release --example llm_training
//! ```

use stellar::net::fixture::packet_fabric;
use stellar::transport::PathAlgo;
use stellar::workloads::llm::{
    comm_ratios, simulate_training_step_with, LlmJobConfig, Placement, TrainingSimConfig,
};

fn main() {
    println!("Table 1 — communication ratios of typical parallel jobs");
    println!(
        "{:>28} {:>8} {:>8} {:>8} {:>8}",
        "job", "GPUs", "TP", "DP", "PP"
    );
    for job in LlmJobConfig::table1() {
        let r = comm_ratios(&job);
        let fmt = |v: Option<f64>| v.map_or("N/A".into(), |x| format!("{:.2}%", x * 100.0));
        println!(
            "{:>28} {:>8} {:>8} {:>8} {:>8}",
            job.name,
            job.gpus(),
            fmt(r.tp_ratio),
            format!("{:.2}%", r.dp_ratio * 100.0),
            fmt(r.pp_ratio),
        );
    }

    println!();
    println!("Fig. 16-style comparison — step time, Stellar vs CX7 single-path");
    println!(
        "{:>10} {:>12} {:>12} {:>9}",
        "placement", "CX7 ms", "Stellar ms", "speedup"
    );
    for (pname, placement) in [
        ("reranked", Placement::Reranked),
        ("random", Placement::Random),
    ] {
        let step = |algo: PathAlgo, paths: u32| {
            simulate_training_step_with(
                &TrainingSimConfig {
                    ranks: 24,
                    data_bytes: 8 << 20,
                    placement,
                    algo,
                    num_paths: paths,
                    seed: 7,
                    ..TrainingSimConfig::default()
                },
                packet_fabric,
            )
            .step
        };
        let cx7 = step(PathAlgo::SinglePath, 1);
        let stellar = step(PathAlgo::Obs, 128);
        println!(
            "{:>10} {:>12.3} {:>12.3} {:>8.2}%",
            pname,
            cx7.as_nanos() as f64 / 1e6,
            stellar.as_nanos() as f64 / 1e6,
            (cx7.as_nanos() as f64 / stellar.as_nanos() as f64 - 1.0) * 100.0
        );
    }
    println!();
    println!("Reranked placement hides the transport difference; random placement");
    println!("(many small uncoordinated jobs) is where packet spraying pays off.");
}
