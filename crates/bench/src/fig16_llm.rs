//! Fig. 16 — end-to-end LLM training: Stellar's 128-path spray vs the
//! CX7 single-path SOTA, under (a) reranked and (b) random task
//! placement, across (TP, PP, DP, EP) parallel configurations.
//!
//! Paper: reranked placement minimizes congestion, shrinking the gap to
//! +0.72% on average; random ranking exposes the transport, and Stellar
//! gains 6% on average with a 14% maximum.

use std::fmt::Write as _;

use stellar_net::fixture::packet_fabric;
use stellar_sim::json::json_row;
use stellar_sim::par::par_map;
use stellar_transport::PathAlgo;
use stellar_workloads::llm::{simulate_training_step_with, Placement, TrainingSimConfig};

json_row! {
    /// One x-position of Fig. 16.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Parallel configuration label "(tp,pp,dp,ep)".
        pub config: &'static str,
        /// Placement.
        pub placement: &'static str,
        /// Step time under CX7 single-path, ms.
        pub cx7_ms: f64,
        /// Step time under Stellar 128-path OBS, ms.
        pub stellar_ms: f64,
        /// Training-speed improvement of Stellar.
        pub speedup: f64,
    }
}

/// The parallel configurations on the x-axis (scaled DP ring sizes).
pub fn configs(quick: bool) -> Vec<(&'static str, usize, u64, u64)> {
    // (label, dp ring ranks, allreduce bytes, seed)
    if quick {
        vec![
            ("(8,8,16,1)", 16, 8 << 20, 21),
            ("(4,8,32,1)", 24, 6 << 20, 22),
        ]
    } else {
        vec![
            ("(8,8,16,1)", 16, 8 << 20, 21),
            ("(4,8,32,1)", 24, 6 << 20, 22),
            ("(8,4,32,1)", 32, 6 << 20, 23),
            ("(4,4,16,4)", 16, 12 << 20, 24),
        ]
    }
}

/// Seed offsets averaged per (config, placement) cell. The figure's
/// claim is statistical — any single shuffle can happen to balance the
/// fabric — so each cell runs one independent `SimRng` stream per offset
/// and reports the mean (the same argument as the fig16 property test in
/// `stellar-workloads`).
pub const SEED_OFFSETS: [u64; 3] = [0, 101, 202];

/// Run both panels. Each `(config, placement, seed)` triple is a pure
/// function of its inputs, so the triples fan out on the work pool; the
/// per-cell means then reduce in declaration order, keeping the table
/// byte-identical at any thread count.
pub fn run(quick: bool) -> Vec<Row> {
    let placements = [
        ("reranked", Placement::Reranked),
        ("random", Placement::Random),
    ];
    // One work item per (cell, seed); cells keep declaration order.
    let mut jobs: Vec<(usize, u64)> = Vec::new();
    let mut cells: Vec<(&'static str, usize, u64, &'static str, Placement)> = Vec::new();
    for &(label, ranks, bytes, seed) in &configs(quick) {
        for &(pname, placement) in &placements {
            for &off in &SEED_OFFSETS {
                jobs.push((cells.len(), seed + off));
            }
            cells.push((label, ranks, bytes, pname, placement));
        }
    }
    let pairs = par_map(&jobs, |&(cell, seed)| {
        let (_, ranks, bytes, _, placement) = cells[cell];
        let step = |algo: PathAlgo, paths: u32| {
            simulate_training_step_with(
                &TrainingSimConfig {
                    ranks,
                    data_bytes: bytes,
                    placement,
                    algo,
                    num_paths: paths,
                    seed,
                    ..TrainingSimConfig::default()
                },
                packet_fabric,
            )
            .step
            .as_nanos() as f64
                / 1e6
        };
        (step(PathAlgo::SinglePath, 1), step(PathAlgo::Obs, 128))
    });
    cells
        .iter()
        .enumerate()
        .map(|(ci, &(label, _, _, pname, _))| {
            let mine: Vec<&(f64, f64)> = jobs
                .iter()
                .zip(&pairs)
                .filter(|((cell, _), _)| *cell == ci)
                .map(|(_, pair)| pair)
                .collect();
            let n = mine.len() as f64;
            let cx7_ms = mine.iter().map(|p| p.0).sum::<f64>() / n;
            let stellar_ms = mine.iter().map(|p| p.1).sum::<f64>() / n;
            Row {
                config: label,
                placement: pname,
                cx7_ms,
                stellar_ms,
                speedup: cx7_ms / stellar_ms - 1.0,
            }
        })
        .collect()
}

/// Render the figure as the table `reproduce` prints.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    writeln!(out, "Fig. 16 — LLM training speed: Stellar vs CX7 single-path").unwrap();
    writeln!(
        out,
        "{:>12} {:>10} {:>10} {:>12} {:>9}",
        "config", "placement", "CX7 ms", "Stellar ms", "speedup"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:>12} {:>10} {:>10.3} {:>12.3} {:>8.2}%",
            r.config,
            r.placement,
            r.cx7_ms,
            r.stellar_ms,
            r.speedup * 100.0
        )
        .unwrap();
    }
    for pname in ["reranked", "random"] {
        let gains: Vec<f64> = rows
            .iter()
            .filter(|r| r.placement == pname)
            .map(|r| r.speedup)
            .collect();
        let avg = gains.iter().sum::<f64>() / gains.len() as f64;
        let max = gains.iter().copied().fold(f64::MIN, f64::max);
        writeln!(
            out,
            "{pname}: avg speedup {:.2}%, max {:.2}%",
            avg * 100.0,
            max * 100.0
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig16_shape() {
        let rows = run(true);
        let mean = |pname: &str| {
            let g: Vec<f64> = rows
                .iter()
                .filter(|r| r.placement == pname)
                .map(|r| r.speedup)
                .collect();
            g.iter().sum::<f64>() / g.len() as f64
        };
        let reranked = mean("reranked");
        let random = mean("random");
        // Random placement exposes the transport: the gap must widen.
        assert!(
            random > reranked,
            "random {random} should exceed reranked {reranked}"
        );
        // Stellar never loses under random placement.
        assert!(rows
            .iter()
            .filter(|r| r.placement == "random")
            .all(|r| r.speedup > -0.01));
    }
}
