//! Section-4 headline claims: virtual-device scalability and timing.
//!
//! * up to 64 k vStellar devices per RNIC, each in ~1.5 s, sharing the
//!   PF's BDF (no switch-LUT pressure);
//! * SR-IOV VFs: static count, 2.4 GB each, one BDF each, capped by the
//!   32-entry switch LUT;
//! * container initialization 15× faster (covered in depth by Fig. 6).

use stellar_core::vstellar::VStellarStack;
use stellar_core::{RnicId, ServerConfig, StellarServer};
use stellar_virt::rund::MemoryStrategy;
use stellar_sim::json::json_row;

use crate::Table;

json_row! {
    /// One claim check.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Claim label.
        pub claim: &'static str,
        /// Measured value (unit in the label).
        pub measured: f64,
        /// Paper value.
        pub paper: f64,
    }
}

/// Evaluate the claims.
pub fn run(quick: bool) -> Vec<Row> {
    let mut server = StellarServer::new(ServerConfig::default());
    let (c, _) = server.boot_container(1 << 30, MemoryStrategy::Pvdma);
    let stack = VStellarStack::new();

    // vStellar device creation time.
    let (dev, t) = stack
        .create_device(&mut server, c, RnicId(0))
        .expect("create");
    stack.destroy_device(&mut server, dev).expect("destroy");

    // Device count scalability (memory-bounded only; quick mode creates
    // fewer to keep the run snappy).
    let n = if quick { 1_000 } else { 16_384 };
    for _ in 0..n {
        stack
            .create_device(&mut server, c, RnicId(1))
            .expect("create many");
    }
    let created = server.rnic(RnicId(1)).vdevs.counts().2 as f64;
    let max_devices = server.rnic(RnicId(1)).vdevs.config().max_vstellar as f64;
    let extra_bdfs = server.rnic(RnicId(1)).vdevs.extra_bdfs() as f64;
    let vf_mem_gb = server.rnic(RnicId(0)).vdevs.config().vf_memory_bytes as f64 / 1e9;

    vec![
        Row {
            claim: "vStellar device creation time (s)",
            measured: t.as_secs_f64(),
            paper: 1.5,
        },
        Row {
            claim: "vStellar devices supported per RNIC",
            measured: max_devices,
            paper: 65_536.0,
        },
        Row {
            claim: "devices actually created in this run",
            measured: created,
            paper: n as f64,
        },
        Row {
            claim: "extra PCIe BDFs consumed by vStellar devices",
            measured: extra_bdfs,
            paper: 0.0,
        },
        Row {
            claim: "memory per SR-IOV VF (GB)",
            measured: vf_mem_gb,
            paper: 2.4,
        },
    ]
}

/// Render the claims table as `reproduce` prints it.
pub fn render(rows: &[Row]) -> String {
    Table::new("Section 4 claims — measured vs paper", rows)
        .col("claim", 44, |r| r.claim)
        .col("measured", 12, |r| format!("{:.2}", r.measured))
        .col("paper", 10, |r| format!("{:.2}", r.paper))
        .finish()
}
