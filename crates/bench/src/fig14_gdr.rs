//! Fig. 14 — GDR write throughput: vStellar vs bare-metal Stellar vs
//! HyV/MasQ.
//!
//! Paper: HyV/MasQ tops out at 141 Gbps (~36% of vStellar's 393 Gbps)
//! because its GDR traffic detours through the PCIe Root Complex;
//! vStellar and bare-metal Stellar coincide.

use stellar_core::perftest::{perftest_point, StackKind};
use stellar_sim::json::json_row;
use stellar_sim::par::par_map;

use crate::Table;

json_row! {
    /// One x-position of Fig. 14 for one stack.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Stack name.
        pub stack: &'static str,
        /// Message size.
        pub msg_bytes: u64,
        /// GDR write throughput, Gbps.
        pub gbps: f64,
    }
}

/// Sizes swept.
pub fn sizes(quick: bool) -> Vec<u64> {
    if quick {
        vec![1 << 20, 8 << 20, 32 << 20]
    } else {
        (16..=26).map(|p| 1u64 << p).collect()
    }
}

/// Run the figure.
pub fn run(quick: bool) -> Vec<Row> {
    let stacks = [
        ("bare-metal", StackKind::BareMetal),
        ("vStellar", StackKind::VStellar),
        ("HyV/MasQ", StackKind::HyvMasq),
    ];
    let mut cells = Vec::new();
    for &(name, kind) in &stacks {
        for &size in &sizes(quick) {
            cells.push((name, kind, size));
        }
    }
    par_map(&cells, |&(name, kind, size)| Row {
        stack: name,
        msg_bytes: size,
        gbps: perftest_point(kind, size).gbps,
    })
}

/// Render the figure as the table `reproduce` prints.
pub fn render(rows: &[Row]) -> String {
    Table::new("Fig. 14 — GDR write throughput (Gbps)", rows)
        .col("stack", 12, |r| r.stack)
        .col("msg bytes", 12, |r| r.msg_bytes)
        .col("Gbps", 10, |r| format!("{:.1}", r.gbps))
        .finish()
}
