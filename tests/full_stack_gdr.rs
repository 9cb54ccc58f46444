//! End-to-end integration: container boot → device attach → memory
//! registration → DMA through the PCIe fabric, across all three stacks.

use stellar::core::baseline::{BaselineKind, BaselineStack};
use stellar::core::server::{RnicId, ServerConfig, StellarServer};
use stellar::core::vstellar::{VStellarError, VStellarStack};
use stellar::pcie::addr::Gva;
use stellar::virt::rund::MemoryStrategy;

const MB: u64 = 1024 * 1024;

#[test]
fn vstellar_full_flow_host_and_gpu() {
    let mut server = StellarServer::new(ServerConfig::default());
    let (container, boot) = server.boot_container(4 * 1024 * MB, MemoryStrategy::Pvdma);
    // PVDMA boot: seconds, no pinning.
    assert!(boot.total.as_secs_f64() < 20.0);
    assert_eq!(server.fabric().iommu().pinned_bytes(), 0);

    let stack = VStellarStack::new();
    let (dev, _) = stack
        .create_device(&mut server, container, RnicId(0))
        .unwrap();
    let (qp, _) = stack.create_qp(&mut server, &dev).unwrap();

    // Host path: pins on demand, routes via the RC.
    let (host_mr, _) = stack
        .register_mr_host(&mut server, &dev, Gva(32 * MB), 16 * MB)
        .unwrap();
    assert_eq!(server.fabric().iommu().pinned_bytes(), 16 * MB);
    let rep = stack
        .write(&mut server, &dev, qp, host_mr, Gva(32 * MB), 8 * MB)
        .unwrap();
    assert_eq!(rep.bytes, 8 * MB);
    assert_eq!(rep.p2p_pages, 0);

    // GPU path: eMTT, P2P at the switch, near line rate.
    let gpu = server.gpus_under(RnicId(0))[0];
    let (gpu_mr, _) = stack
        .register_mr_gpu(&mut server, &dev, Gva(1 << 31), gpu, 0, 32 * MB)
        .unwrap();
    let rep = stack
        .write(&mut server, &dev, qp, gpu_mr, Gva(1 << 31), 32 * MB)
        .unwrap();
    assert_eq!(rep.rc_pages, 0);
    assert!(rep.gbps > 350.0);

    // Fabric counters agree: P2P TLPs were issued.
    let (p2p, _) = server.fabric().tlp_counters();
    assert!(p2p >= 32 * MB / 4096);
}

#[test]
fn three_stacks_side_by_side_ranking() {
    // GDR throughput ranking must hold end to end:
    // vStellar > VF+VxLAN (warm) > HyV/MasQ.
    let vstellar = {
        let mut server = StellarServer::new(ServerConfig::default());
        let (c, _) = server.boot_container(512 * MB, MemoryStrategy::Pvdma);
        let stack = VStellarStack::new();
        let (dev, _) = stack.create_device(&mut server, c, RnicId(0)).unwrap();
        let gpu = server.gpus_under(RnicId(0))[0];
        let (mr, _) = stack
            .register_mr_gpu(&mut server, &dev, Gva(1 << 30), gpu, 0, 32 * MB)
            .unwrap();
        let (qp, _) = stack.create_qp(&mut server, &dev).unwrap();
        stack
            .write(&mut server, &dev, qp, mr, Gva(1 << 30), 32 * MB)
            .unwrap()
            .gbps
    };
    let run_baseline = |kind: BaselineKind| -> f64 {
        let mut server = StellarServer::new(ServerConfig::default());
        let (c, _) = server.boot_container(256 * MB, MemoryStrategy::FullPin);
        if kind == BaselineKind::VfVxlan {
            server.rnic_mut(RnicId(0)).vdevs.set_vf_count(8).unwrap();
        }
        let mut stack = BaselineStack::new(kind);
        let dev = stack.attach_device(&mut server, c, RnicId(0)).unwrap();
        let gpu = server.gpus_under(RnicId(0))[0];
        let (mr, _) = stack
            .register_mr_gpu(&mut server, &dev, Gva(1 << 30), gpu, 0, 32 * MB)
            .unwrap();
        stack
            .write(&mut server, &dev, mr, Gva(1 << 30), 32 * MB)
            .unwrap();
        stack
            .write(&mut server, &dev, mr, Gva(1 << 30), 32 * MB)
            .unwrap()
            .gbps
    };
    let vf = run_baseline(BaselineKind::VfVxlan);
    let hyv = run_baseline(BaselineKind::HyvMasq);
    assert!(
        vstellar > vf && vf > hyv,
        "ranking violated: vstellar={vstellar} vf={vf} hyv={hyv}"
    );
}

#[test]
fn vstellar_devices_scale_where_vfs_cannot() {
    let mut server = StellarServer::new(ServerConfig::default());
    let (c, _) = server.boot_container(256 * MB, MemoryStrategy::Pvdma);

    // 100+ vStellar devices on one RNIC: fine, no BDFs consumed.
    let stack = VStellarStack::new();
    for _ in 0..128 {
        stack.create_device(&mut server, c, RnicId(0)).unwrap();
    }
    assert_eq!(server.rnic(RnicId(0)).vdevs.counts().1, 128);
    assert_eq!(server.rnic(RnicId(0)).vdevs.extra_bdfs(), 0);

    // SR-IOV: silicon caps the VF count far below that.
    let err = server.rnic_mut(RnicId(1)).vdevs.set_vf_count(128);
    assert!(err.is_err(), "128 VFs must exceed the silicon limit");
}

#[test]
fn full_pin_container_rejects_pvdma_registration() {
    let mut server = StellarServer::new(ServerConfig::default());
    let (c, _) = server.boot_container(64 * MB, MemoryStrategy::FullPin);
    let stack = VStellarStack::new();
    let (dev, _) = stack.create_device(&mut server, c, RnicId(0)).unwrap();
    assert!(matches!(
        stack.register_mr_host(&mut server, &dev, Gva(0), 2 * MB),
        Err(VStellarError::PvdmaRequired)
    ));
}
