//! Fig. 6 — GPU pod start-up time vs. container memory, with and without
//! PVDMA.
//!
//! Paper: without PVDMA, start-up grows to ~390 s at 1.6 TB; with PVDMA
//! it stays under 20 s at every size (≥15× speedup), with an ~11 s rise
//! between 160 GB and 1.6 TB attributable to hypervisor overhead.

use stellar_core::{ServerConfig, StellarServer};
use stellar_pcie::addr::PAGE_2M;
use stellar_pcie::iommu::IommuConfig;
use stellar_virt::rund::MemoryStrategy;
use stellar_sim::json::json_row;
use stellar_sim::par::par_map;

use crate::Table;

json_row! {
    /// One bar pair of Fig. 6.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Container memory in GiB.
        pub memory_gib: u64,
        /// Boot time without PVDMA (full pin), seconds.
        pub full_pin_s: f64,
        /// Boot time with PVDMA, seconds.
        pub pvdma_s: f64,
        /// Speedup.
        pub speedup: f64,
    }
}

/// Run the experiment. `quick` skips nothing here — it is cheap.
pub fn run(_quick: bool) -> Vec<Row> {
    const GIB: u64 = 1024 * 1024 * 1024;
    par_map(&[1u64, 16, 160, 1_600], |&gib| {
            let boot = |strategy: MemoryStrategy| -> f64 {
                // A fresh server per boot so pinning cost is not shared;
                // 2 MiB IOMMU granularity keeps terabyte guests cheap to
                // model (cost is still accounted per 4 KiB page).
                let mut server = StellarServer::new(ServerConfig {
                    iommu: IommuConfig {
                        page_size: PAGE_2M,
                        ..IommuConfig::default()
                    },
                    ..ServerConfig::default()
                });
                let (_, report) = server.boot_container(gib * GIB, strategy);
                report.total.as_secs_f64()
            };
            let full_pin_s = boot(MemoryStrategy::FullPin);
            let pvdma_s = boot(MemoryStrategy::Pvdma);
            Row {
                memory_gib: gib,
                full_pin_s,
                pvdma_s,
                speedup: full_pin_s / pvdma_s,
            }
    })
}

/// Render the figure as the table `reproduce` prints.
pub fn render(rows: &[Row]) -> String {
    Table::new("Fig. 6 — GPU pod start-up time (s) vs container memory", rows)
        .col("mem GiB", 10, |r| r.memory_gib)
        .col("w/o PVDMA", 12, |r| format!("{:.1}", r.full_pin_s))
        .col("PVDMA", 10, |r| format!("{:.1}", r.pvdma_s))
        .col("speedup", 9, |r| format!("{:.1}x", r.speedup))
        .finish()
}
