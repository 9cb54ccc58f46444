//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * `emtt_vs_atc` — eMTT data path vs ATS/ATC vs RC-bound, same message.
//! * `pvdma_granularity` — 4 KiB vs 2 MiB vs 32 MiB pinning blocks: the
//!   §5 map-cache-size vs pin-overhead trade-off.
//!
//! Each case prints one JSON timing line; pass a substring argument to
//! run a subset, e.g. `cargo bench --bench ablations -- pvdma`.

use std::hint::black_box;
use stellar_sim::bench_timer::Harness;

use stellar_core::perftest::{perftest_point, StackKind};
use stellar_pcie::addr::{Gpa, Hpa, PAGE_2M, PAGE_4K};
use stellar_pcie::iommu::{Iommu, IommuConfig};
use stellar_virt::hypervisor::Hypervisor;
use stellar_virt::pvdma::{Pvdma, PvdmaConfig};

/// eMTT vs ATS/ATC vs RC-bound GDR, 8 MB messages.
fn ablation_emtt_vs_atc(h: &Harness) {
    for (name, kind) in [
        ("emtt", StackKind::VStellar),
        ("ats_atc", StackKind::VfVxlan),
        ("via_rc", StackKind::HyvMasq),
    ] {
        h.bench(&format!("ablation_emtt_vs_atc/{name}"), || {
            black_box(perftest_point(kind, 8 << 20).gbps);
        });
    }
}

/// PVDMA block-size sweep: simulated pin latency for a 64 MiB working set
/// touched 2 MiB at a time (the §5 granularity trade-off).
fn ablation_pvdma_granularity(h: &Harness) {
    for block in [PAGE_4K, PAGE_2M, 16 * PAGE_2M] {
        h.bench(&format!("ablation_pvdma_granularity/{}KiB", block / 1024), || {
            let mut hv = Hypervisor::new();
            hv.add_ram(Gpa(0), Hpa(1 << 40), 256 * PAGE_2M);
            let mut iommu = Iommu::new(IommuConfig::default());
            let mut pvdma = Pvdma::new(PvdmaConfig {
                block_size: block,
            });
            let mut total_ns = 0u64;
            for i in 0..32u64 {
                let out = pvdma
                    .dma_prepare(&hv, &mut iommu, Gpa(i * 2 * PAGE_2M), PAGE_4K)
                    .expect("prepare");
                total_ns += out.latency.as_nanos();
            }
            black_box(total_ns);
        });
    }
}

fn main() {
    let h = Harness::from_args();
    ablation_emtt_vs_atc(&h);
    ablation_pvdma_granularity(&h);
}
