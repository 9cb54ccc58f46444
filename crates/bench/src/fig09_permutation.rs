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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_shape() {
        let rows = run(true);
        let find = |algo: &str, paths: u32| {
            rows.iter()
                .find(|r| r.algo == algo && r.paths == paths)
                .unwrap()
        };
        let obs128 = find("OBS", 128);
        let rr128 = find("RR", 128);
        let obs4 = find("OBS", 4);
        let best128 = find("BestRTT", 128);
        let single = find("SinglePath", 4);
        // 128 paths beat 4 paths on worst-case queues for spraying.
        assert!(
            obs128.max_queue_kb < obs4.max_queue_kb,
            "obs128 max {} vs obs4 max {}",
            obs128.max_queue_kb,
            obs4.max_queue_kb
        );
        // Spray never loses goodput to single-path ECMP, and wins when
        // the hash collides.
        assert!(obs128.goodput_gbps >= single.goodput_gbps * 0.99);
        // BestRTT concentrates load: the worst maximum queue of the
        // 128-path family (the paper's Fig. 9 outlier).
        assert!(best128.max_queue_kb > obs128.max_queue_kb);
        // RR and OBS are close at 128 (paper: "performance of most
        // algorithms was similar").
        let rel = (rr128.goodput_gbps - obs128.goodput_gbps).abs() / obs128.goodput_gbps;
        assert!(rel < 0.10, "rr vs obs diverge: {rel}");
    }
}
