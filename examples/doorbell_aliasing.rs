//! The Fig. 5 PVDMA doorbell-aliasing bug, step by step — and the
//! virtio-shm fix.
//!
//! ```sh
//! cargo run --example doorbell_aliasing
//! ```

use stellar::pcie::addr::{Gpa, Hpa, PAGE_2M, PAGE_4K};
use stellar::pcie::iommu::{Iommu, IommuConfig};
use stellar::pcie::Iova;
use stellar::virt::hypervisor::Hypervisor;
use stellar::virt::pvdma::{Pvdma, PvdmaConfig};
use stellar::virt::virtio::ShmRegion;
use stellar_pcie::addr::Address;

const RAM_HPA: u64 = 0x1_0000_0000;
const RNIC_DB_HPA: u64 = 0x2000_0000;

fn main() {
    println!("== The buggy layout: vDB mapped into guest RAM GPA space ==");
    let mut hypervisor = Hypervisor::new();
    hypervisor.add_ram(Gpa(0), Hpa(RAM_HPA), 16 * PAGE_2M);
    let mut iommu = Iommu::new(IommuConfig::default());
    let mut pvdma = Pvdma::new(PvdmaConfig::default());

    // Step 1: the RDMA program maps the vDB (EPT entry -> RNIC doorbell).
    let vdb_gpa = Gpa(PAGE_2M + 4 * PAGE_4K);
    hypervisor.map_device_register(vdb_gpa, Hpa(RNIC_DB_HPA));
    println!("step 1: vDB mapped at {vdb_gpa} -> RNIC doorbell {:?}", Hpa(RNIC_DB_HPA));

    // Step 2: the GPU driver allocates a command queue next door.
    let cmdq_gpa = Gpa(PAGE_2M + 5 * PAGE_4K);
    println!("step 2: GPU command queue allocated at {cmdq_gpa} (same 2 MiB block)");

    // Step 3: first GPU DMA -> PVDMA pins the whole 2 MiB block,
    // copying the vDB translation into the IOMMU along the way.
    pvdma
        .dma_prepare(&hypervisor, &mut iommu, cmdq_gpa, PAGE_4K)
        .expect("pin");
    println!(
        "step 3: PVDMA pinned the block; IOMMU now translates {vdb_gpa} -> {:?}",
        iommu.translate(Iova(vdb_gpa.raw())).unwrap().hpa
    );

    // Step 4: the RDMA program exits; EPT releases the vDB, but the block
    // is still in use by the GPU, so PVDMA leaves the IOMMU alone.
    hypervisor.unmap_device_register(vdb_gpa);
    println!("step 4: RDMA program exited; EPT entry released, IOMMU entry retained");

    // Step 5: the guest reuses that GPA for a new command queue. PVDMA
    // sees the block cached and does not refresh the IOMMU.
    pvdma
        .dma_prepare(&hypervisor, &mut iommu, vdb_gpa, PAGE_4K)
        .expect("cached");
    let bad = pvdma.check_consistency(&hypervisor, &mut iommu, vdb_gpa, PAGE_4K);
    for i in &bad {
        println!(
            "step 5: STALE MAPPING — GPU DMA to {} would hit {:?} instead of {:?}",
            i.gpa,
            i.iommu_hpa,
            i.current_hpa.unwrap()
        );
    }
    assert_eq!(bad.len(), 1, "the bug must reproduce");
    println!("        -> invalid doorbell writes, unrecoverable device errors\n");

    println!("== The fix: vDB lives in the virtio shared-memory window ==");
    let mut hypervisor = Hypervisor::new();
    hypervisor.add_ram(Gpa(0), Hpa(RAM_HPA), 16 * PAGE_2M);
    let mut iommu = Iommu::new(IommuConfig::default());
    let mut pvdma = Pvdma::new(PvdmaConfig::default());
    let mut shm = ShmRegion::new(16 * PAGE_4K, PAGE_4K);
    let offset = shm.map_page(Hpa(RNIC_DB_HPA)).expect("shm map");
    println!("vDB mapped at shm offset {offset:#x} — a namespace disjoint from guest RAM");

    // The same GPU allocation and pinning sequence is now harmless: no
    // guest-RAM GPA ever aliases the doorbell.
    pvdma
        .dma_prepare(&hypervisor, &mut iommu, cmdq_gpa, PAGE_4K)
        .expect("pin");
    pvdma
        .dma_prepare(&hypervisor, &mut iommu, vdb_gpa, PAGE_4K)
        .expect("cached");
    let bad = pvdma.check_consistency(&hypervisor, &mut iommu, Gpa(PAGE_2M), PAGE_2M);
    assert!(bad.is_empty());
    println!("same sequence, zero stale mappings: the aliasing bug is structurally gone");
    println!(
        "(the doorbell still resolves through shm: {:?})",
        shm.translate(offset).unwrap()
    );
}
