//! Fig. 13 — `perftest` microbenchmarks: RDMA write latency (a) and
//! throughput (b) across message sizes, for vStellar vs bare-metal
//! Stellar vs the VF+VxLAN CX7 baseline.

use stellar_core::perftest::{perftest_point, StackKind};
use stellar_sim::json::json_row;
use stellar_sim::par::par_map;

use crate::Table;

json_row! {
    /// One x-position of Fig. 13 for one stack.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Stack name.
        pub stack: &'static str,
        /// Message size.
        pub msg_bytes: u64,
        /// One-way latency, µs.
        pub latency_us: f64,
        /// Throughput, Gbps.
        pub gbps: f64,
    }
}

/// Message sizes swept (2 B → 8 MB in powers of two, thinned for speed).
pub fn sizes(quick: bool) -> Vec<u64> {
    if quick {
        vec![8, 4096, 65_536, 1 << 20, 8 << 20]
    } else {
        (1..=23).map(|p| 1u64 << p).collect()
    }
}

/// Run the sweep for the three stacks of the figure.
pub fn run(quick: bool) -> Vec<Row> {
    let stacks = [
        ("bare-metal", StackKind::BareMetal),
        ("vStellar", StackKind::VStellar),
        ("VF+VxLAN", StackKind::VfVxlan),
    ];
    let mut cells = Vec::new();
    for &(name, kind) in &stacks {
        for &size in &sizes(quick) {
            cells.push((name, kind, size));
        }
    }
    par_map(&cells, |&(name, kind, size)| {
        let p = perftest_point(kind, size);
        Row {
            stack: name,
            msg_bytes: size,
            latency_us: p.latency.as_nanos() as f64 / 1000.0,
            gbps: p.gbps,
        }
    })
}

/// Render the figure as the table `reproduce` prints.
pub fn render(rows: &[Row]) -> String {
    Table::new("Fig. 13 — RDMA write microbenchmarks", rows)
        .col("stack", 12, |r| r.stack)
        .col("msg bytes", 10, |r| r.msg_bytes)
        .col("latency us", 12, |r| format!("{:.2}", r.latency_us))
        .col("Gbps", 10, |r| format!("{:.1}", r.gbps))
        .finish()
}
