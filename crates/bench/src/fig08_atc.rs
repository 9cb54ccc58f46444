//! Fig. 8 — the ATC miss test.
//!
//! 16 GDR-write connections, each with its own GPU memory, driven
//! round-robin with 4 KiB pages (the worst case for translation caches).
//! On the CX6-style stack (PCIe ATS/ATC) bandwidth declines once the
//! aggregate working set exceeds the ATC, and declines again when the
//! IOMMU's IOTLB also starts missing. Stellar's eMTT curve stays flat.
//!
//! Cache capacities are scaled so the cliffs land at the paper's message
//! sizes: ATC reach = 16 × 2 MB, IOTLB reach = 16 × 16 MB.

use stellar_core::{RnicId, ServerConfig, StellarServer};
use stellar_pcie::addr::Gva;
use stellar_pcie::ats::AtcConfig;
use stellar_pcie::iommu::IommuConfig;
use stellar_pcie::{Hpa, Iova};
use stellar_rnic::dma::{RnicDataPathConfig, TranslationMode};
use stellar_rnic::verbs::{AccessFlags, MrKey};
use stellar_sim::json::json_row;
use stellar_sim::par::par_map;

use crate::Table;

const MB: u64 = 1024 * 1024;
const CONNS: usize = 16;

json_row! {
    /// One x-position of Fig. 8.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Per-connection message size in bytes.
        pub msg_bytes: u64,
        /// CX6 ATS/ATC aggregate GDR bandwidth, Gbps.
        pub cx6_gbps: f64,
        /// vStellar (eMTT) aggregate GDR bandwidth, Gbps.
        pub vstellar_gbps: f64,
        /// ATC hit ratio during the measured round (CX6).
        pub atc_hit_ratio: f64,
    }
}

fn atc_rig(port_gbps: f64) -> StellarServer {
    StellarServer::new(ServerConfig {
        datapath: RnicDataPathConfig {
            port_gbps,
            ..RnicDataPathConfig::default()
        },
        atc: AtcConfig {
            // 16 conns × 2 MB / 4 KiB pages = 8192 entries: the first
            // cliff sits at 2 MB per connection, as measured on the CX6.
            capacity: 8 * 1024,
            ..AtcConfig::default()
        },
        iommu: IommuConfig {
            // 16 × 16 MB reach: the second cliff (pcm-iio's IOTLB misses).
            iotlb_capacity: 64 * 1024,
            ..IommuConfig::default()
        },
        ..ServerConfig::default()
    })
}

struct Rig {
    server: StellarServer,
    mrs: Vec<MrKey>,
    mode: TranslationMode,
}

fn build_rig(mode: TranslationMode, port_gbps: f64) -> Rig {
    let mut server = atc_rig(port_gbps);
    // GDR requires the RNIC registered in its switch's LUT (both stacks
    // have that; the CX6 baseline registers VF BDFs, we model the PF's).
    let (switch, bdf) = {
        let r = server.rnic(RnicId(0));
        (r.switch, r.bdf)
    };
    server
        .fabric_mut()
        .register_lut(switch, bdf)
        .expect("LUT slot for the PF");
    let gpus = server.gpus_under(RnicId(0));
    let region = 64 * MB;
    let mut mrs = Vec::new();
    for i in 0..CONNS {
        let gpu = gpus[i % gpus.len()];
        let gpu_offset = (i / gpus.len()) as u64 * region;
        let bar = server.gpu_bar(gpu);
        assert!(gpu_offset + region <= bar.len, "GPU memory exhausted");
        let gva = Gva((1 << 30) + i as u64 * region);
        let hpa = Hpa(bar.base.0 + gpu_offset);
        let r = server.rnic_mut(RnicId(0));
        let key = r
            .verbs
            .register_mr(stellar_rnic::verbs::PdId(0), gva, region, AccessFlags::all())
            .unwrap_or_else(|_| {
                let pd = r.verbs.alloc_pd();
                r.verbs.register_mr(pd, gva, region, AccessFlags::all()).unwrap()
            });
        match mode {
            TranslationMode::Emtt => r
                .mtt
                .register_extended_contiguous(
                    key,
                    gva,
                    hpa,
                    region,
                    stellar_rnic::mtt::MemOwner::Gpu(gpu),
                )
                .expect("eMTT register"),
            _ => {
                let iova = Iova(0x100_0000_0000 + i as u64 * (1 << 33));
                server
                    .fabric_mut()
                    .iommu_mut()
                    .map(iova, hpa, region)
                    .expect("IOMMU map");
                server
                    .rnic_mut(RnicId(0))
                    .mtt
                    .register_legacy_contiguous(key, gva, iova, region)
                    .expect("legacy register");
            }
        }
        mrs.push(key);
    }
    Rig { server, mrs, mode }
}

impl Rig {
    /// One round-robin round over all connections; returns
    /// `(bytes, elapsed_ns)`.
    fn round(&mut self, msg: u64) -> (u64, u64) {
        let mut bytes = 0;
        let mut ns = 0;
        for i in 0..CONNS {
            let gva = Gva((1 << 30) + i as u64 * 64 * MB);
            let (r, fabric) = self.server.rnic_and_fabric_mut(RnicId(0));
            let rep = r
                .dma
                .write(self.mode, &mut r.mtt, &mut r.atc, fabric, r.device, self.mrs[i], gva, msg)
                .expect("GDR write");
            bytes += rep.bytes;
            ns += rep.elapsed.as_nanos();
        }
        (bytes, ns)
    }
}

/// Run the sweep. `quick` trims the largest sizes.
pub fn run(quick: bool) -> Vec<Row> {
    let sizes: &[u64] = if quick {
        &[256 * 1024, MB, 2 * MB, 8 * MB, 32 * MB]
    } else {
        &[
            64 * 1024,
            256 * 1024,
            MB,
            2 * MB,
            4 * MB,
            8 * MB,
            16 * MB,
            32 * MB,
            64 * MB,
        ]
    };
    par_map(sizes, |&msg| {
            // CX6: 200 Gbps, ATS/ATC path.
            let mut cx6 = build_rig(TranslationMode::AtsAtc, 200.0);
            cx6.round(msg); // warm
            let (b, ns) = cx6.round(msg);
            let (h, m, _) = cx6.server.rnic(RnicId(0)).atc.stats();
            let cx6_gbps = b as f64 * 8.0 / ns as f64;
            // vStellar: 400 Gbps, eMTT path.
            let mut vs = build_rig(TranslationMode::Emtt, 400.0);
            vs.round(msg);
            let (b2, ns2) = vs.round(msg);
            Row {
                msg_bytes: msg,
                cx6_gbps,
                vstellar_gbps: b2 as f64 * 8.0 / ns2 as f64,
                atc_hit_ratio: h as f64 / (h + m).max(1) as f64,
            }
    })
}

/// Render the figure as the table `reproduce` prints.
pub fn render(rows: &[Row]) -> String {
    Table::new("Fig. 8 — GDR bandwidth vs message size (16 connections, 4 KiB pages)", rows)
        .col("msg", 10, |r| format!("{}M", r.msg_bytes as f64 / MB as f64))
        .col("CX6 (Gbps)", 12, |r| format!("{:.1}", r.cx6_gbps))
        .col("vStellar(Gbps)", 14, |r| format!("{:.1}", r.vstellar_gbps))
        .col("ATC hit%", 12, |r| format!("{:.1}%", r.atc_hit_ratio * 100.0))
        .finish()
}
