//! The vStellar device: Stellar's para-virtual RDMA device (§4–§6).
//!
//! Control path: verbs operations travel over a virtio queue to the host
//! driver, which applies policy and programs hardware (eMTT entries,
//! protection domains, doorbells). Data path: direct mapping — the guest
//! rings a doorbell that lives in the virtio **shm window** (the Fig. 5
//! fix) and the RNIC DMAs straight into guest or GPU memory.
//!
//! Memory registration is PVDMA-backed: registering a host-memory MR pins
//! exactly the 2 MiB blocks it covers, on demand, and writes **eMTT**
//! entries carrying the page owner so GDR traffic bypasses the ATC.

use stellar_pcie::addr::{Address, Gpa, Gva, Hpa, PAGE_4K};
use stellar_pcie::topology::DeviceId;
use stellar_rnic::dma::{DmaError, DmaReport, TranslationMode};
use stellar_rnic::mtt::{MemOwner, MttEntry, MttError};
use stellar_rnic::vdev::{VdevError, VdevId};
use stellar_rnic::verbs::{AccessFlags, CqId, MrKey, PdId, VerbsError, WcStatus, WorkCompletion};
use stellar_sim::SimDuration;
use stellar_virt::pvdma::PvdmaError;

use crate::server::{ContainerId, RnicId, StellarServer};

/// vStellar stack errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VStellarError {
    /// Virtual device management failed.
    Vdev(VdevError),
    /// Verbs-level failure (PD mismatch, bounds, permissions).
    Verbs(VerbsError),
    /// PVDMA pin failure.
    Pvdma(PvdmaError),
    /// MTT programming failure.
    Mtt(MttError),
    /// DMA failure.
    Dma(DmaError),
    /// The container was booted without PVDMA but the vStellar stack
    /// requires it.
    PvdmaRequired,
    /// Address range is not page-aligned.
    Misaligned,
}

macro_rules! from_err {
    ($from:ty, $variant:ident) => {
        impl From<$from> for VStellarError {
            fn from(e: $from) -> Self {
                VStellarError::$variant(e)
            }
        }
    };
}
from_err!(VdevError, Vdev);
from_err!(VerbsError, Verbs);
from_err!(PvdmaError, Pvdma);
from_err!(MttError, Mtt);
from_err!(DmaError, Dma);

impl std::fmt::Display for VStellarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VStellarError::Vdev(e) => write!(f, "vdev: {e}"),
            VStellarError::Verbs(e) => write!(f, "verbs: {e}"),
            VStellarError::Pvdma(e) => write!(f, "pvdma: {e}"),
            VStellarError::Mtt(e) => write!(f, "mtt: {e}"),
            VStellarError::Dma(e) => write!(f, "dma: {e}"),
            VStellarError::PvdmaRequired => write!(f, "container lacks PVDMA"),
            VStellarError::Misaligned => write!(f, "unaligned registration"),
        }
    }
}

impl std::error::Error for VStellarError {}

/// A live vStellar device handed to a container.
#[derive(Debug, Clone, Copy)]
pub struct VStellarDevice {
    /// The virtual device id on its RNIC.
    pub vdev: VdevId,
    /// The RNIC it runs on.
    pub rnic: RnicId,
    /// The owning container.
    pub container: ContainerId,
    /// Its dedicated protection domain (§9 isolation).
    pub pd: PdId,
    /// The device's completion queue (polled by the guest directly —
    /// data-path, no virtio round trip).
    pub cq: CqId,
    /// Doorbell HPA inside the RNIC BAR (mapped to the guest through the
    /// virtio shm window, *not* through guest RAM).
    pub doorbell: Hpa,
}

/// One guest↔host control round trip (vmexit, host-side handling).
const CONTROL_LATENCY: SimDuration = SimDuration::from_micros(30);
/// Control verbs charged per QP bring-up (create + state modifies), one
/// virtio round trip each.
const QP_CONTROL_VERBS: u64 = 4;

/// The host-side vStellar driver: stateless operations over a server.
///
/// The virtio control round-trip cost (30 µs) is charged on every
/// control-path operation; data-path operations carry no virtualization
/// cost (direct mapping), which is what makes Fig. 13/15 overhead-free.
#[derive(Debug, Clone, Default)]
pub struct VStellarStack;

impl VStellarStack {
    /// A stack with the default control-path timing.
    pub fn new() -> Self {
        VStellarStack
    }

    /// Create a vStellar device for `container` on `rnic`.
    ///
    /// Returns the device plus the (simulated) creation time — ~1.5 s,
    /// dominated by device initialization, not memory pinning.
    pub fn create_device(
        &self,
        server: &mut StellarServer,
        container: ContainerId,
        rnic: RnicId,
    ) -> Result<(VStellarDevice, SimDuration), VStellarError> {
        // GDR for all vStellar devices rides the PF's single LUT entry;
        // registering it is idempotent.
        let (bdf, switch) = {
            let r = server.rnic(rnic);
            (r.bdf, r.switch)
        };
        server
            .fabric_mut()
            .register_lut(switch, bdf)
            .expect("PF LUT entry fits (one per RNIC)");

        let r = server.rnic_mut(rnic);
        let (vdev, device_create_time) = r.vdevs.create_vstellar()?;
        r.vdevs.set_attached(vdev, true)?;
        let (_, doorbell) = r
            .doorbells
            .allocate(vdev)
            .expect("doorbell BAR space for vStellar devices");
        let pd = r.verbs.alloc_pd();
        let cq = r.verbs.create_cq(4096);
        Ok((
            VStellarDevice {
                vdev,
                rnic,
                container,
                pd,
                cq,
                doorbell,
            },
            device_create_time + CONTROL_LATENCY,
        ))
    }

    /// Destroy a device, releasing its doorbell and RNIC state.
    pub fn destroy_device(
        &self,
        server: &mut StellarServer,
        device: VStellarDevice,
    ) -> Result<(), VStellarError> {
        let r = server.rnic_mut(device.rnic);
        r.doorbells.release(device.vdev).expect("device had a doorbell");
        r.vdevs.destroy(device.vdev)?;
        Ok(())
    }

    /// Register a host-memory MR at `[gva, gva+len)` in the container's
    /// address space (guest maps it 1:1 onto its GPA space here).
    ///
    /// On-demand PVDMA pinning covers exactly the touched 2 MiB blocks;
    /// eMTT entries record the per-page DMA address and `HostMem`
    /// ownership. Returns the MR key and the control-path latency
    /// (virtio round trip + pin time).
    pub fn register_mr_host(
        &self,
        server: &mut StellarServer,
        device: &VStellarDevice,
        gva: Gva,
        len: u64,
    ) -> Result<(MrKey, SimDuration), VStellarError> {
        if !gva.is_aligned(PAGE_4K) || len == 0 || !len.is_multiple_of(PAGE_4K) {
            return Err(VStellarError::Misaligned);
        }
        // PVDMA pin of the GPA range (guest identity-maps GVA→GPA for
        // registered buffers).
        let gpa = Gpa(gva.raw());
        let (container, fabric) = server.container_and_fabric_mut(device.container);
        let (hypervisor, pvdma) = container
            .pvdma_parts()
            .ok_or(VStellarError::PvdmaRequired)?;
        let prep = pvdma.dma_prepare(hypervisor, fabric.iommu_mut(), gpa, len)?;

        // eMTT entries: host pages are emitted as untranslated IOVAs (the
        // pinned GPA), owner HostMem.
        let entries: Vec<MttEntry> = (0..len / PAGE_4K)
            .map(|i| MttEntry::Extended {
                hpa: Hpa(gpa.raw() + i * PAGE_4K),
                owner: MemOwner::HostMem,
            })
            .collect();
        let r = server.rnic_mut(device.rnic);
        let key = r
            .verbs
            .register_mr(device.pd, gva, len, AccessFlags::all())?;
        r.mtt.register(key, gva, entries)?;
        Ok((key, CONTROL_LATENCY + prep.latency))
    }

    /// Register a GPU-memory MR: `len` bytes at offset `gpu_offset` of
    /// `gpu`'s BAR, exposed to the application at `gva`.
    ///
    /// eMTT entries carry the final HPA and `Gpu` ownership, so the data
    /// path emits pre-translated TLPs that P2P-route at the switch.
    pub fn register_mr_gpu(
        &self,
        server: &mut StellarServer,
        device: &VStellarDevice,
        gva: Gva,
        gpu: DeviceId,
        gpu_offset: u64,
        len: u64,
    ) -> Result<(MrKey, SimDuration), VStellarError> {
        if !gva.is_aligned(PAGE_4K) || len == 0 || !len.is_multiple_of(PAGE_4K) {
            return Err(VStellarError::Misaligned);
        }
        let bar = server.gpu_bar(gpu);
        assert!(
            gpu_offset + len <= bar.len,
            "registration exceeds GPU memory"
        );
        let hpa_base = Hpa(bar.base.raw() + gpu_offset);
        let r = server.rnic_mut(device.rnic);
        let key = r
            .verbs
            .register_mr(device.pd, gva, len, AccessFlags::all())?;
        r.mtt
            .register_extended_contiguous(key, gva, hpa_base, len, MemOwner::Gpu(gpu))?;
        Ok((key, CONTROL_LATENCY))
    }

    /// Execute an RDMA/GDR write of `len` bytes at `gva` within `mr`
    /// through the eMTT data path.
    pub fn write(
        &self,
        server: &mut StellarServer,
        device: &VStellarDevice,
        qp: stellar_rnic::verbs::QpId,
        mr: MrKey,
        gva: Gva,
        len: u64,
    ) -> Result<DmaReport, VStellarError> {
        {
            let r = server.rnic(device.rnic);
            r.verbs
                .check_access(qp, mr, gva, len, AccessFlags::REMOTE_WRITE)?;
        }
        let (r, fabric) = server.rnic_and_fabric_mut(device.rnic);
        let report = r.dma.write(
            TranslationMode::Emtt,
            &mut r.mtt,
            &mut r.atc,
            fabric,
            r.device,
            mr,
            gva,
            len,
        )?;
        r.verbs
            .post_completion(
                device.cq,
                WorkCompletion {
                    wr_id: gva.raw(),
                    status: WcStatus::Success,
                    bytes: report.bytes,
                },
            )
            .map_err(VStellarError::Verbs)?;
        Ok(report)
    }

    /// Poll up to `max` work completions from the device's CQ (direct
    /// data path — no virtio exit, exactly like polling a mapped CQ ring).
    pub fn poll_cq(
        &self,
        server: &mut StellarServer,
        device: &VStellarDevice,
        max: usize,
    ) -> Result<Vec<WorkCompletion>, VStellarError> {
        server
            .rnic_mut(device.rnic)
            .verbs
            .poll_cq(device.cq, max)
            .map_err(VStellarError::Verbs)
    }

    /// Execute an RDMA/GDR read of `len` bytes at `gva` within `mr`
    /// through the eMTT data path (non-posted; pays the PCIe round trip).
    pub fn read(
        &self,
        server: &mut StellarServer,
        device: &VStellarDevice,
        qp: stellar_rnic::verbs::QpId,
        mr: MrKey,
        gva: Gva,
        len: u64,
    ) -> Result<DmaReport, VStellarError> {
        {
            let r = server.rnic(device.rnic);
            r.verbs
                .check_access(qp, mr, gva, len, AccessFlags::REMOTE_READ)?;
        }
        let (r, fabric) = server.rnic_and_fabric_mut(device.rnic);
        let report = r.dma.read(
            TranslationMode::Emtt,
            &mut r.mtt,
            &mut r.atc,
            fabric,
            r.device,
            mr,
            gva,
            len,
        )?;
        Ok(report)
    }

    /// Create and connect a QP on `device` (control path), returning it
    /// ready-to-send.
    pub fn create_qp(
        &self,
        server: &mut StellarServer,
        device: &VStellarDevice,
    ) -> Result<(stellar_rnic::verbs::QpId, SimDuration), VStellarError> {
        use stellar_rnic::verbs::QpState;
        let r = server.rnic_mut(device.rnic);
        let qp = r.verbs.create_qp(device.pd)?;
        r.verbs.modify_qp(qp, QpState::Init)?;
        r.verbs.modify_qp(qp, QpState::ReadyToReceive)?;
        r.verbs.modify_qp(qp, QpState::ReadyToSend)?;
        // Control verbs (create + 3 modifies), one round trip each.
        Ok((qp, CONTROL_LATENCY.mul(QP_CONTROL_VERBS)))
    }

    /// Destroy `device` and bring up its replacement on the same RNIC —
    /// the vStellar lifecycle a recovering connection pays when the
    /// virtual device itself churns (host driver restart, device error,
    /// container reschedule). The replacement re-registers every MR in
    /// `mrs`, with the PVDMA re-pin cost charged through the normal
    /// on-demand pinning path, and connects a fresh ready-to-send QP.
    ///
    /// The returned [`DeviceChurn::elapsed`] — destroy + ~1.5 s create +
    /// Σ re-register + QP bring-up — is the `reestablish` figure a
    /// transport `RecoveryPolicy` should charge when recovery includes
    /// device lifecycle churn rather than a bare QP reconnect
    /// (DESIGN.md §11).
    pub fn churn_device(
        &self,
        server: &mut StellarServer,
        device: VStellarDevice,
        mrs: &[(Gva, u64)],
    ) -> Result<DeviceChurn, VStellarError> {
        let container = device.container;
        let rnic = device.rnic;
        self.destroy_device(server, device)?;
        // Destroy is itself one control round trip.
        let mut elapsed = CONTROL_LATENCY;
        let (new_device, create_time) = self.create_device(server, container, rnic)?;
        elapsed += create_time;
        let mut keys = Vec::with_capacity(mrs.len());
        for &(gva, len) in mrs {
            let (key, t) = self.register_mr_host(server, &new_device, gva, len)?;
            keys.push(key);
            elapsed += t;
        }
        let (qp, t) = self.create_qp(server, &new_device)?;
        elapsed += t;
        Ok(DeviceChurn {
            device: new_device,
            qp,
            mrs: keys,
            elapsed,
        })
    }
}

/// Outcome of a [`VStellarStack::churn_device`] cycle.
#[derive(Debug)]
pub struct DeviceChurn {
    /// The replacement device.
    pub device: VStellarDevice,
    /// Its ready-to-send QP.
    pub qp: stellar_rnic::verbs::QpId,
    /// Re-registered MR keys, in request order.
    pub mrs: Vec<MrKey>,
    /// Total lifecycle time: destroy + create + re-register + QP.
    pub elapsed: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use stellar_pcie::topology::RoutePath;
    use stellar_virt::rund::MemoryStrategy;

    const MB: u64 = 1024 * 1024;

    fn rig() -> (StellarServer, VStellarStack, ContainerId) {
        let mut server = StellarServer::new(ServerConfig::default());
        let (c, _) = server.boot_container(256 * MB, MemoryStrategy::Pvdma);
        (server, VStellarStack::new(), c)
    }

    #[test]
    fn device_creation_takes_about_1_5s() {
        let (mut server, stack, c) = rig();
        let (dev, t) = stack.create_device(&mut server, c, RnicId(0)).unwrap();
        assert!((1.4..2.0).contains(&t.as_secs_f64()), "t={t}");
        assert_eq!(dev.rnic, RnicId(0));
        // Doorbell lives in the RNIC BAR.
        assert!(server
            .fabric()
            .device(server.rnic(RnicId(0)).device)
            .unwrap()
            .bar
            .contains(dev.doorbell));
    }

    #[test]
    fn host_mr_pins_on_demand_and_writes_emtt() {
        let (mut server, stack, c) = rig();
        let (dev, _) = stack.create_device(&mut server, c, RnicId(0)).unwrap();
        let (mr, t) = stack
            .register_mr_host(&mut server, &dev, Gva(4 * MB), 4 * MB)
            .unwrap();
        // Pinned only the touched blocks (2 × 2 MiB), not the container.
        assert_eq!(server.fabric().iommu().pinned_bytes(), 4 * MB);
        assert!(t > CONTROL_LATENCY);
        // A write through the region reaches main memory via the RC.
        let (qp, _) = stack.create_qp(&mut server, &dev).unwrap();
        let rep = stack
            .write(&mut server, &dev, qp, mr, Gva(4 * MB), MB)
            .unwrap();
        assert_eq!(rep.bytes, MB);
        assert_eq!(rep.p2p_pages, 0);
    }

    #[test]
    fn gpu_mr_writes_route_p2p() {
        let (mut server, stack, c) = rig();
        let (dev, _) = stack.create_device(&mut server, c, RnicId(0)).unwrap();
        let gpu = server.gpus_under(RnicId(0))[0];
        let (mr, _) = stack
            .register_mr_gpu(&mut server, &dev, Gva(1 << 30), gpu, 0, 16 * MB)
            .unwrap();
        let (qp, _) = stack.create_qp(&mut server, &dev).unwrap();
        let rep = stack
            .write(&mut server, &dev, qp, mr, Gva(1 << 30), 16 * MB)
            .unwrap();
        assert_eq!(rep.rc_pages, 0);
        assert_eq!(rep.p2p_pages, 16 * MB / PAGE_4K);
        assert!(rep.gbps > 350.0, "gbps={}", rep.gbps);
        let _ = RoutePath::PeerToPeer; // (route kind asserted via page counts)
    }

    #[test]
    fn writes_generate_pollable_completions() {
        let (mut server, stack, c) = rig();
        let (dev, _) = stack.create_device(&mut server, c, RnicId(0)).unwrap();
        let (mr, _) = stack
            .register_mr_host(&mut server, &dev, Gva(4 * MB), 4 * MB)
            .unwrap();
        let (qp, _) = stack.create_qp(&mut server, &dev).unwrap();
        stack
            .write(&mut server, &dev, qp, mr, Gva(4 * MB), MB)
            .unwrap();
        stack
            .write(&mut server, &dev, qp, mr, Gva(4 * MB), 2 * MB)
            .unwrap();
        let wcs = stack.poll_cq(&mut server, &dev, 16).unwrap();
        assert_eq!(wcs.len(), 2);
        assert!(wcs.iter().all(|w| w.status == WcStatus::Success));
        assert_eq!(wcs[0].bytes, MB);
        assert_eq!(wcs[1].bytes, 2 * MB);
        assert!(stack.poll_cq(&mut server, &dev, 16).unwrap().is_empty());
    }

    #[test]
    fn gdr_read_works_and_is_slower_than_write() {
        let (mut server, stack, c) = rig();
        let (dev, _) = stack.create_device(&mut server, c, RnicId(0)).unwrap();
        let gpu = server.gpus_under(RnicId(0))[0];
        let (mr, _) = stack
            .register_mr_gpu(&mut server, &dev, Gva(1 << 30), gpu, 0, 16 * MB)
            .unwrap();
        let (qp, _) = stack.create_qp(&mut server, &dev).unwrap();
        let w = stack
            .write(&mut server, &dev, qp, mr, Gva(1 << 30), 16 * MB)
            .unwrap();
        let r = stack
            .read(&mut server, &dev, qp, mr, Gva(1 << 30), 16 * MB)
            .unwrap();
        assert_eq!(r.bytes, 16 * MB);
        assert!(r.gbps < w.gbps);
    }

    #[test]
    fn protection_domains_block_cross_device_access() {
        let (mut server, stack, c) = rig();
        let (dev_a, _) = stack.create_device(&mut server, c, RnicId(0)).unwrap();
        let (dev_b, _) = stack.create_device(&mut server, c, RnicId(0)).unwrap();
        let (mr_b, _) = stack
            .register_mr_host(&mut server, &dev_b, Gva(8 * MB), 2 * MB)
            .unwrap();
        let (qp_a, _) = stack.create_qp(&mut server, &dev_a).unwrap();
        let err = stack.write(&mut server, &dev_a, qp_a, mr_b, Gva(8 * MB), MB);
        assert!(matches!(
            err,
            Err(VStellarError::Verbs(
                VerbsError::ProtectionDomainMismatch { .. }
            ))
        ));
    }

    #[test]
    fn many_devices_scale_without_extra_bdfs() {
        let (mut server, stack, c) = rig();
        for _ in 0..200 {
            stack.create_device(&mut server, c, RnicId(1)).unwrap();
        }
        let r = server.rnic(RnicId(1));
        assert_eq!(r.vdevs.counts().1, 200);
        assert_eq!(r.vdevs.extra_bdfs(), 0);
        // Only the PF's single LUT entry, regardless of device count.
        assert_eq!(server.fabric().lut_len(r.switch), 1);
    }

    #[test]
    fn destroy_releases_doorbell() {
        let (mut server, stack, c) = rig();
        let (dev, _) = stack.create_device(&mut server, c, RnicId(0)).unwrap();
        stack.destroy_device(&mut server, dev).unwrap();
        assert_eq!(server.rnic(RnicId(0)).doorbells.allocated(), 0);
        assert_eq!(server.rnic(RnicId(0)).vdevs.counts().1, 0);
    }

    #[test]
    fn full_pin_container_cannot_use_vstellar_mr_path() {
        let mut server = StellarServer::new(ServerConfig {
            iommu: stellar_pcie::iommu::IommuConfig {
                page_size: stellar_pcie::addr::PAGE_2M,
                ..Default::default()
            },
            ..ServerConfig::default()
        });
        let (c, _) = server.boot_container(256 * MB, MemoryStrategy::FullPin);
        let stack = VStellarStack::new();
        let (dev, _) = stack.create_device(&mut server, c, RnicId(0)).unwrap();
        let err = stack.register_mr_host(&mut server, &dev, Gva(0), 2 * MB);
        assert!(matches!(err, Err(VStellarError::PvdmaRequired)));
    }

    #[test]
    fn device_churn_costs_a_device_lifecycle_and_comes_back_live() {
        let (mut server, stack, c) = rig();
        let (dev, create_t) = stack.create_device(&mut server, c, RnicId(0)).unwrap();
        stack
            .register_mr_host(&mut server, &dev, Gva(4 * MB), 4 * MB)
            .unwrap();
        let churn = stack
            .churn_device(&mut server, dev, &[(Gva(4 * MB), 4 * MB)])
            .unwrap();
        // Churn is dominated by the ~1.5 s device creation, plus the
        // destroy round trip, the MR re-registration, and QP bring-up.
        assert!(churn.elapsed > create_t, "churn={} create={create_t}", churn.elapsed);
        assert!(
            (1.4..3.0).contains(&churn.elapsed.as_secs_f64()),
            "churn={}",
            churn.elapsed
        );
        // Exactly one live device remains, and it serves traffic through
        // the re-registered MR.
        assert_eq!(server.rnic(RnicId(0)).vdevs.counts().1, 1);
        let rep = stack
            .write(&mut server, &churn.device, churn.qp, churn.mrs[0], Gva(4 * MB), MB)
            .unwrap();
        assert_eq!(rep.bytes, MB);
    }

    #[test]
    fn default_churn_timing() {
        // The device-reported ~1.5 s creation dominates.
        let (mut server, stack, c) = rig();
        let (dev, t_create) = stack.create_device(&mut server, c, RnicId(0)).unwrap();
        assert!((1.4..2.0).contains(&t_create.as_secs_f64()), "t={t_create}");
        // QP bring-up charges one control round trip per verb.
        let (_, qp_t) = stack.create_qp(&mut server, &dev).unwrap();
        assert_eq!(qp_t, SimDuration::from_micros(30).mul(4));
    }

    #[test]
    fn misaligned_registration_rejected() {
        let (mut server, stack, c) = rig();
        let (dev, _) = stack.create_device(&mut server, c, RnicId(0)).unwrap();
        assert!(matches!(
            stack.register_mr_host(&mut server, &dev, Gva(10), 2 * MB),
            Err(VStellarError::Misaligned)
        ));
        assert!(matches!(
            stack.register_mr_host(&mut server, &dev, Gva(0), 100),
            Err(VStellarError::Misaligned)
        ));
    }
}
