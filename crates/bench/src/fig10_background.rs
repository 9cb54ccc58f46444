//! Fig. 10 — AllReduce bus bandwidth under static (a) and bursty (b)
//! background traffic.
//!
//! Paper setup, scaled: two background AllReduce jobs plus one probe job
//! share the fabric. With 128 paths even RR/OBS reach full bandwidth
//! under static background; under bursty background 128 paths mitigate
//! the interference, with OBS the most resilient.

use stellar_net::fixture::packet_fabric_default;
use stellar_net::{ClosConfig, Fabric};
use stellar_sim::json::json_row;
use stellar_sim::par::par_map;
use stellar_sim::{SimDuration, SimRng, SimTime};
use stellar_transport::{PathAlgo, TransportConfig, TransportSim};
use stellar_workloads::allreduce::{
    AllReduceJob, AllReduceRunner, BurstSchedule, InterleavedRings,
};

use crate::Table;

json_row! {
    /// One bar of Fig. 10.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Algorithm.
        pub algo: &'static str,
        /// Paths.
        pub paths: u32,
        /// Background kind: "static" or "bursty".
        pub background: &'static str,
        /// Probe job mean bus bandwidth, GB/s.
        pub probe_busbw_gbs: f64,
    }
}

fn run_one(
    algo: PathAlgo,
    paths: u32,
    bursty: bool,
    quick: bool,
) -> f64 {
    // Three interleaved jobs, ranks alternating across both segments so
    // every ring stresses the aggregation layer.
    let layout = InterleavedRings::new(3, if quick { 8 } else { 16 }).expect("even rings");
    let clos = ClosConfig {
        aggs_per_plane: if quick { 8 } else { 16 },
        ..layout.clos()
    };
    let rng = SimRng::from_seed(31);
    let network = packet_fabric_default(clos, &rng);
    let mut sim = TransportSim::new(
        network,
        TransportConfig {
            algo,
            num_paths: paths,
            ..TransportConfig::default()
        },
        rng.fork("transport"),
    );

    let rings = layout.nics(sim.network().topology());
    let data = if quick { 2 * 1024 * 1024 } else { 8 * 1024 * 1024 };
    let burst = bursty.then_some(BurstSchedule {
        run_iters: 2,
        pause: SimDuration::from_millis(2),
    });
    let mut jobs: Vec<AllReduceJob> = Vec::new();
    // Probe job (job 0): continuous.
    jobs.push(AllReduceJob {
        nics: rings[0].clone(),
        data_bytes: data,
        iterations: if quick { 4 } else { 8 },
        burst: None,
    });
    // Background jobs 1 & 2: static or bursty.
    for r in &rings[1..] {
        jobs.push(AllReduceJob {
            nics: r.clone(),
            data_bytes: data,
            iterations: if quick { 8 } else { 16 },
            burst,
        });
    }
    let mut runner = AllReduceRunner::new(&mut sim, jobs);
    runner.start(&mut sim);
    sim.run(&mut runner, SimTime::from_nanos(u64::MAX / 2));
    runner.report(0).mean_bus_bandwidth_gbs()
}

/// Algorithms compared in the figure.
pub fn combos() -> Vec<(&'static str, PathAlgo, u32)> {
    vec![
        ("SinglePath", PathAlgo::SinglePath, 1),
        ("BestRTT", PathAlgo::BestRtt, 128),
        ("DWRR", PathAlgo::Dwrr, 128),
        ("RR-4", PathAlgo::RoundRobin, 4),
        ("RR-128", PathAlgo::RoundRobin, 128),
        ("OBS-4", PathAlgo::Obs, 4),
        ("OBS-128", PathAlgo::Obs, 128),
    ]
}

/// Run both panels; one work-pool job per (algorithm, background) cell.
pub fn run(quick: bool) -> Vec<Row> {
    let mut cells = Vec::new();
    for &(name, algo, paths) in &combos() {
        for (bg, bursty) in [("static", false), ("bursty", true)] {
            cells.push((name, algo, paths, bg, bursty));
        }
    }
    par_map(&cells, |&(name, algo, paths, bg, bursty)| Row {
        algo: name,
        paths,
        background: bg,
        probe_busbw_gbs: run_one(algo, paths, bursty, quick),
    })
}

/// Render the figure as the table `reproduce` prints.
pub fn render(rows: &[Row]) -> String {
    Table::new(
        "Fig. 10 — probe AllReduce bus bandwidth under background traffic (GB/s)",
        rows,
    )
    .col("algorithm", 12, |r| r.algo)
    .col("paths", 6, |r| r.paths)
    .col("background", 10, |r| r.background)
    .col("busbw GB/s", 12, |r| format!("{:.2}", r.probe_busbw_gbs))
    .finish()
}
