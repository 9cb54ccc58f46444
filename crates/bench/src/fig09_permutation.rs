//! Fig. 9 — ToR queue depth under permutation traffic, six algorithms ×
//! {4, 128} paths.
//!
//! Paper: RR and OBS do best at 4 paths; at 128 paths all algorithms
//! except BestRTT and single-path converge, and both average and maximum
//! queue depths drop markedly versus 4 paths.

use stellar_net::fixture::packet_fabric;
use stellar_net::ClosConfig;
use stellar_sim::json::json_row;
use stellar_sim::par::par_map;
use stellar_sim::SimDuration;
use stellar_transport::{PathAlgo, TransportConfig};
use stellar_workloads::permutation::{run_permutation_with, PermutationConfig};

use crate::Table;

json_row! {
    /// One bar of Fig. 9.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Algorithm name.
        pub algo: &'static str,
        /// Paths per connection.
        pub paths: u32,
        /// Load-weighted average ToR-uplink queue, KB.
        pub avg_queue_kb: f64,
        /// Maximum ToR-uplink queue, KB.
        pub max_queue_kb: f64,
        /// Aggregate goodput, Gbps.
        pub goodput_gbps: f64,
    }
}

/// All (algorithm, path-count) combinations of the figure.
pub fn combos() -> Vec<(&'static str, PathAlgo, u32)> {
    let mut v = Vec::new();
    for &(name, algo) in &[
        ("SinglePath", PathAlgo::SinglePath),
        ("BestRTT", PathAlgo::BestRtt),
        ("RR", PathAlgo::RoundRobin),
        ("DWRR", PathAlgo::Dwrr),
        ("MPRDMA", PathAlgo::MpRdma),
        ("OBS", PathAlgo::Obs),
    ] {
        for &paths in &[4u32, 128] {
            if algo == PathAlgo::SinglePath && paths != 4 {
                continue; // single path has one configuration
            }
            v.push((name, algo, paths));
        }
    }
    v
}

fn config(algo: PathAlgo, paths: u32, quick: bool) -> PermutationConfig {
    let paths = if algo == PathAlgo::SinglePath { 1 } else { paths };
    PermutationConfig {
        topology: if quick {
            // Few uplinks: single-path hash collisions are guaranteed,
            // the regime the figure demonstrates.
            ClosConfig {
                segments: 2,
                hosts_per_segment: 6,
                rails: 2,
                planes: 2,
                aggs_per_plane: 4,
            }
        } else {
            // The paper's 30 servers × 4 RNICs over two segments.
            ClosConfig::default()
        },
        transport: TransportConfig {
            algo,
            num_paths: paths,
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

/// Run the figure's sweep; one work-pool job per (algorithm, paths).
pub fn run(quick: bool) -> Vec<Row> {
    let combos = combos();
    par_map(&combos, |&(name, algo, paths)| {
        let rep = run_permutation_with(&config(algo, paths, quick), packet_fabric);
        Row {
            algo: name,
            paths,
            avg_queue_kb: rep.weighted_queue_bytes / 1024.0,
            max_queue_kb: rep.max_queue_bytes as f64 / 1024.0,
            goodput_gbps: rep.total_goodput_gbps,
        }
    })
}

/// Render the figure as the table `reproduce` prints.
pub fn render(rows: &[Row]) -> String {
    Table::new("Fig. 9 — queue depth for permutation traffic", rows)
        .col("algorithm", 12, |r| r.algo)
        .col("paths", 6, |r| r.paths)
        .col("avg q (KB)", 12, |r| format!("{:.1}", r.avg_queue_kb))
        .col("max q (KB)", 12, |r| format!("{:.1}", r.max_queue_kb))
        .col("goodput Gbps", 12, |r| format!("{:.1}", r.goodput_gbps))
        .finish()
}
