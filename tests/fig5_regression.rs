//! Regression test for the Fig. 5 PVDMA doorbell-aliasing incident,
//! driven end-to-end through the public server API.

use stellar::core::server::{RnicId, ServerConfig, StellarServer};
use stellar::core::vstellar::VStellarStack;
use stellar::pcie::addr::{Address, Gpa, PAGE_2M, PAGE_4K};
use stellar::pcie::Iova;
use stellar::telemetry::{capture, Subsystem};
use stellar::virt::rund::MemoryStrategy;
use stellar::virt::virtio::ShmRegion;

const MB: u64 = 1024 * 1024;

/// The buggy layout: map the device doorbell into guest RAM GPA space and
/// replay the five steps. The stale IOMMU mapping must be detected.
#[test]
fn buggy_gpa_doorbell_layout_reproduces_the_alias() {
    let mut server = StellarServer::new(ServerConfig::default());
    let (c, _) = server.boot_container(64 * MB, MemoryStrategy::Pvdma);
    let stack = VStellarStack::new();
    let (dev, _) = stack.create_device(&mut server, c, RnicId(0)).unwrap();
    let doorbell = dev.doorbell;

    // Step 1 (the bug): the vDB is mapped as a device register *inside*
    // the guest RAM GPA space instead of the shm window.
    let vdb_gpa = Gpa(PAGE_2M + 4 * PAGE_4K);
    let (container, fabric) = server.container_and_fabric_mut(c);
    container
        .hypervisor_mut()
        .map_device_register(vdb_gpa, doorbell);

    // Steps 2-3: the GPU's command queue lands in the same 2 MiB block
    // and a DMA prepare pins the block, vDB included.
    let cmdq_gpa = Gpa(PAGE_2M + 5 * PAGE_4K);
    {
        let (hypervisor, pvdma) = container.pvdma_parts().unwrap();
        pvdma
            .dma_prepare(hypervisor, fabric.iommu_mut(), cmdq_gpa, PAGE_4K)
            .unwrap();
    }
    assert_eq!(
        fabric
            .iommu_mut()
            .translate(Iova(vdb_gpa.raw()))
            .unwrap()
            .hpa,
        doorbell,
        "the doorbell translation leaked into the IOMMU"
    );

    // Step 4: RDMA program exits; EPT releases the vDB.
    container.hypervisor_mut().unmap_device_register(vdb_gpa);

    // Step 5: the GPA is reused for a new command queue; PVDMA serves the
    // block from its map cache, leaving the stale doorbell mapping live.
    {
        let (hypervisor, pvdma) = container.pvdma_parts().unwrap();
        let out = pvdma
            .dma_prepare(hypervisor, fabric.iommu_mut(), vdb_gpa, PAGE_4K)
            .unwrap();
        assert_eq!(out.blocks_pinned, 0, "served from the map cache");
        let bad = pvdma.check_consistency(hypervisor, fabric.iommu_mut(), vdb_gpa, PAGE_4K);
        assert_eq!(bad.len(), 1, "the stale mapping must be detected");
        assert_eq!(bad[0].iommu_hpa, doorbell);
    }
}

/// The production fix: the doorbell lives in the virtio shm window, which
/// is not guest RAM, so the same sequence cannot alias. The consistency
/// scan probes pages PVDMA never pinned, and each probe is an IOMMU fault
/// the server reports to telemetry when it drops.
#[test]
fn shm_doorbell_layout_is_immune() {
    let (faults, tel) = capture(|| {
        let mut server = StellarServer::new(ServerConfig::default());
        let (c, _) = server.boot_container(64 * MB, MemoryStrategy::Pvdma);
        let stack = VStellarStack::new();
        let (dev, _) = stack.create_device(&mut server, c, RnicId(0)).unwrap();

        // The vDB goes into the shm region (its own offset namespace).
        let mut shm = ShmRegion::new(16 * PAGE_4K, PAGE_4K);
        let offset = shm.map_page(dev.doorbell).unwrap();
        assert_eq!(shm.translate(offset).unwrap(), dev.doorbell);

        // GPU command queues come and go in guest RAM; no device-register
        // mapping exists in GPA space at all.
        let (container, fabric) = server.container_and_fabric_mut(c);
        let (hypervisor, pvdma) = container.pvdma_parts().unwrap();
        for i in 0..8u64 {
            pvdma
                .dma_prepare(
                    hypervisor,
                    fabric.iommu_mut(),
                    Gpa(PAGE_2M + i * PAGE_4K),
                    PAGE_4K,
                )
                .unwrap();
        }
        let bad = pvdma.check_consistency(hypervisor, fabric.iommu_mut(), Gpa(0), 4 * PAGE_2M);
        assert!(bad.is_empty(), "no stale mappings possible: {bad:?}");
        server.fabric().iommu().faults()
    });
    assert!(faults > 0, "the scan must probe unpinned pages");
    assert_eq!(tel.hub.get(Subsystem::Pcie, "iommu.fault"), faults);
}
