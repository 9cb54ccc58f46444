//! Fig. 11 — AllReduce performance under link failures.
//!
//! A large AllReduce runs while one aggregation link randomly drops 1% or
//! 3% of packets. With 128 paths every multipath algorithm tolerates the
//! failure ("distributing traffic over 128 paths effectively reduces the
//! perceived packet loss rate ... by a factor of 128"), while single-path
//! flows pinned to the lossy link suffer repeated RTOs.

use stellar_net::fixture::packet_fabric_default;
use stellar_net::Fabric;
use stellar_sim::json::json_row;
use stellar_sim::par::par_map;
use stellar_sim::{SimRng, SimTime};
use stellar_transport::{PathAlgo, TransportConfig, TransportSim};
use stellar_workloads::allreduce::{
    first_edge_uplink, AllReduceJob, AllReduceRunner, InterleavedRings,
};

use crate::Table;

json_row! {
    /// One bar of Fig. 11.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Algorithm.
        pub algo: &'static str,
        /// Paths.
        pub paths: u32,
        /// Injected loss probability on one agg link.
        pub loss: f64,
        /// Bus bandwidth relative to the same setup with zero loss.
        pub relative_busbw: f64,
        /// RTO events observed.
        pub rto_events: u64,
    }
}

fn run_one(algo: PathAlgo, paths: u32, loss: f64, quick: bool) -> (f64, u64) {
    // One ring alternating across segments so traffic crosses the agg
    // layer, on the production aggregation width: sprayed traffic
    // crosses the poisoned link with probability ~1/120, the paper's
    // "reduces the perceived packet loss rate ... by a factor of 128".
    let layout = InterleavedRings::new(1, if quick { 4 } else { 8 }).expect("an even ring");
    let rng = SimRng::from_seed(77);
    let network = packet_fabric_default(layout.clos(), &rng);
    let mut sim = TransportSim::new(
        network,
        TransportConfig {
            algo,
            num_paths: paths,
            ..TransportConfig::default()
        },
        rng.fork("transport"),
    );
    let nics = layout.nics(sim.network().topology()).remove(0);
    if loss > 0.0 {
        // Poison one agg uplink used by the first ring edge.
        let link = first_edge_uplink(sim.network().topology(), &nics, 0);
        sim.network_mut().set_loss(link, loss);
    }
    let mut runner = AllReduceRunner::new(
        &mut sim,
        vec![AllReduceJob {
            nics,
            // Large payloads, as in the paper's AllReduce tasks: a chunk
            // must take longer than the 250 µs RTO to transmit, so loss
            // recovery hides under the transfer instead of stalling it
            // (chunk = data/N = 32 MB ≈ 800 µs on the wire).
            data_bytes: if quick { 128 * 1024 * 1024 } else { 256 * 1024 * 1024 },
            iterations: if quick { 1 } else { 2 },
            burst: None,
        }],
    );
    runner.start(&mut sim);
    sim.run(&mut runner, SimTime::from_nanos(u64::MAX / 2));
    let busbw = runner.report(0).mean_bus_bandwidth_gbs();
    (busbw, sim.total_stats().rto_events)
}

/// Algorithms compared.
pub fn combos() -> Vec<(&'static str, PathAlgo, u32)> {
    vec![
        ("SinglePath", PathAlgo::SinglePath, 1),
        ("RR-128", PathAlgo::RoundRobin, 128),
        ("OBS-128", PathAlgo::Obs, 128),
        ("DWRR-128", PathAlgo::Dwrr, 128),
        ("MPRDMA-128", PathAlgo::MpRdma, 128),
    ]
}

/// Run the figure. Each algorithm's (lossless base + 1% + 3%) triple is
/// an independent job on the work pool; results flatten in declaration
/// order so the table is byte-identical at any thread count.
pub fn run(quick: bool) -> Vec<Row> {
    let combos = combos();
    par_map(&combos, |&(name, algo, paths)| {
        let (base, _) = run_one(algo, paths, 0.0, quick);
        [0.01, 0.03].map(|loss| {
            let (bw, rto) = run_one(algo, paths, loss, quick);
            Row {
                algo: name,
                paths,
                loss,
                relative_busbw: bw / base,
                rto_events: rto,
            }
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Render the figure as the table `reproduce` prints.
pub fn render(rows: &[Row]) -> String {
    Table::new("Fig. 11 — AllReduce under link failures (busbw relative to lossless)", rows)
        .col("algorithm", 12, |r| r.algo)
        .col("paths", 6, |r| r.paths)
        .col("loss", 6, |r| format!("{:.0}%", r.loss * 100.0))
        .col("rel busbw", 10, |r| format!("{:.3}", r.relative_busbw))
        .col("RTOs", 8, |r| r.rto_events)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_shape() {
        let rows = run(true);
        let get = |algo: &str, loss: f64| {
            rows.iter()
                .find(|r| r.algo == algo && (r.loss - loss).abs() < 1e-9)
                .unwrap()
        };
        // 128-path algorithms tolerate 1% and 3% loss with almost no
        // degradation (paper: "almost no observable performance
        // degradation").
        for algo in ["OBS-128", "RR-128", "DWRR-128", "MPRDMA-128"] {
            for loss in [0.01, 0.03] {
                let r = get(algo, loss);
                assert!(
                    r.relative_busbw > 0.85,
                    "{algo} at {loss}: degraded to {}",
                    r.relative_busbw
                );
            }
        }
        // Single path on the lossy route collapses.
        let single = get("SinglePath", 0.03);
        let obs = get("OBS-128", 0.03);
        assert!(
            single.relative_busbw < 0.5 && single.relative_busbw < obs.relative_busbw,
            "single {} vs obs {}",
            single.relative_busbw,
            obs.relative_busbw
        );
    }
}
