//! The comparison stacks: SR-IOV VF + VFIO + VxLAN (the "CX6/CX7 SOTA")
//! and a HyV/MasQ-style para-virtual stack without GDR optimization.
//!
//! Differences from vStellar that the figures hinge on:
//!
//! * **VF + VFIO**: each VF burns a BDF and a switch-LUT slot (Problem ③),
//!   the VF count is static (Problem ①), all container memory is pinned at
//!   boot (Problem ②), and GDR translations go through PCIe ATS/ATC (the
//!   Fig. 8 capacity cliff). VxLAN encap adds per-packet latency and
//!   header bytes (the 7% / 9% overheads of Fig. 13).
//! * **HyV/MasQ**: para-virtual control path like vStellar, but no eMTT —
//!   every data packet is emitted untranslated and squeezes through the
//!   Root Complex (the 141 Gbps ceiling in Fig. 14).

use stellar_pcie::addr::{Address, Bdf, Gva, Hpa, Iova};
use stellar_pcie::topology::{DeviceId, FabricError};
use stellar_rnic::dma::{DmaError, DmaReport, TranslationMode, TRANSLATION_PARALLELISM};
use stellar_rnic::mtt::MttError;
use stellar_rnic::vdev::VdevError;
use stellar_rnic::verbs::{AccessFlags, MrKey, PdId, VerbsError};
use stellar_sim::SimDuration;

use crate::server::{ContainerId, RnicId, StellarServer};

/// Which legacy stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// SR-IOV VF + VFIO + VxLAN on a CX6/CX7-style RNIC (ATS/ATC GDR).
    VfVxlan,
    /// HyV/MasQ-style para-virtualization (no GDR optimization; traffic
    /// through the RC).
    HyvMasq,
}

/// Baseline stack errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// VF management failed (static count, limits).
    Vdev(VdevError),
    /// PCIe fabric rejected the operation (LUT full, faults).
    Fabric(FabricError),
    /// Verbs failure.
    Verbs(VerbsError),
    /// MTT programming failure.
    Mtt(MttError),
    /// DMA failure.
    Dma(DmaError),
}

macro_rules! from_err {
    ($from:ty, $variant:ident) => {
        impl From<$from> for BaselineError {
            fn from(e: $from) -> Self {
                BaselineError::$variant(e)
            }
        }
    };
}
from_err!(VdevError, Vdev);
from_err!(FabricError, Fabric);

impl From<stellar_pcie::iommu::IommuError> for BaselineError {
    fn from(e: stellar_pcie::iommu::IommuError) -> Self {
        BaselineError::Fabric(FabricError::Iommu(e))
    }
}
from_err!(VerbsError, Verbs);
from_err!(MttError, Mtt);
from_err!(DmaError, Dma);

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::Vdev(e) => write!(f, "vdev: {e}"),
            BaselineError::Fabric(e) => write!(f, "fabric: {e}"),
            BaselineError::Verbs(e) => write!(f, "verbs: {e}"),
            BaselineError::Mtt(e) => write!(f, "mtt: {e}"),
            BaselineError::Dma(e) => write!(f, "dma: {e}"),
        }
    }
}

impl std::error::Error for BaselineError {}

/// A VF (or HyV/MasQ virtual device) attached to a container.
#[derive(Debug, Clone, Copy)]
pub struct BaselineDevice {
    /// RNIC.
    pub rnic: RnicId,
    /// Container.
    pub container: ContainerId,
    /// Protection domain.
    pub pd: PdId,
    /// The VF's own BDF (VfVxlan only; HyV/MasQ shares the PF's).
    pub vf_bdf: Option<Bdf>,
    /// Whether GDR (switch-LUT registration) succeeded for this device.
    pub gdr_enabled: bool,
    /// IOVA window base assigned to this device's registrations.
    pub iova_base: u64,
}

/// The legacy stack driver.
#[derive(Debug, Clone)]
pub struct BaselineStack {
    /// Stack flavour.
    pub kind: BaselineKind,
    /// Per-packet VxLAN encap latency (VfVxlan only).
    pub vxlan_latency: SimDuration,
    next_iova: u64,
    next_vf: u8,
}

impl BaselineStack {
    /// A stack of the given flavour.
    pub fn new(kind: BaselineKind) -> Self {
        BaselineStack {
            kind,
            vxlan_latency: SimDuration::from_nanos(120),
            next_iova: 0x100_0000_0000,
            next_vf: 1,
        }
    }

    /// Attach a virtual device to `container` on `rnic`.
    ///
    /// For [`BaselineKind::VfVxlan`], this consumes a VF (the VF pool must
    /// have been sized with [`StellarServer::rnic_mut`] +
    /// `vdevs.set_vf_count` at "host startup") and tries to enable GDR by
    /// registering the VF's BDF in the switch LUT — which fails once the
    /// LUT is full (Problem ③), leaving `gdr_enabled = false`.
    pub fn attach_device(
        &mut self,
        server: &mut StellarServer,
        container: ContainerId,
        rnic: RnicId,
    ) -> Result<BaselineDevice, BaselineError> {
        let (switch, pf_bdf) = {
            let r = server.rnic(rnic);
            (r.switch, r.bdf)
        };
        let (vf_bdf, gdr_enabled) = match self.kind {
            BaselineKind::VfVxlan => {
                let bdf = Bdf::new(pf_bdf.bus, 0x10, self.next_vf);
                self.next_vf = self.next_vf.wrapping_add(1);
                // Routing still needs the PF's entry.
                server.fabric_mut().register_lut(switch, pf_bdf)?;
                let gdr = match server.fabric_mut().register_lut(switch, bdf) {
                    Ok(()) => true,
                    Err(FabricError::LutFull { .. }) => false,
                    Err(e) => return Err(e.into()),
                };
                (Some(bdf), gdr)
            }
            // HyV/MasQ never P2P-routes, so the LUT is irrelevant.
            BaselineKind::HyvMasq => (None, false),
        };
        let pd = server.rnic_mut(rnic).verbs.alloc_pd();
        let iova_base = self.next_iova;
        self.next_iova += 1 << 36;
        Ok(BaselineDevice {
            rnic,
            container,
            pd,
            vf_bdf,
            gdr_enabled,
            iova_base,
        })
    }

    /// Register a host-memory MR. The container's memory must already be
    /// fully pinned (VFIO boot): registration installs IOMMU mappings for
    /// the device's IOVA window and legacy MTT entries.
    pub fn register_mr_host(
        &mut self,
        server: &mut StellarServer,
        device: &BaselineDevice,
        gva: Gva,
        len: u64,
    ) -> Result<(MrKey, SimDuration), BaselineError> {
        let iova = Iova(device.iova_base);
        // Resolve the container's backing HPA for the region start.
        let hpa = {
            let c = server.container(device.container);
            let (hpa, _) = c
                .hypervisor()
                .translate(stellar_pcie::addr::Gpa(gva.raw()))
                .expect("registered region is backed by container RAM");
            hpa
        };
        server.fabric_mut().iommu_mut().map(iova, hpa, len)?;
        let r = server.rnic_mut(device.rnic);
        let key = r
            .verbs
            .register_mr(device.pd, gva, len, AccessFlags::all())?;
        r.mtt.register_legacy_contiguous(key, gva, iova, len)?;
        Ok((key, SimDuration::from_micros(50)))
    }

    /// Register a GPU-memory MR: IOMMU maps the device's IOVA window onto
    /// the GPU BAR; the MTT stays legacy, so the data path resolves it
    /// through ATS/ATC (VfVxlan) or the RC (HyV/MasQ).
    pub fn register_mr_gpu(
        &mut self,
        server: &mut StellarServer,
        device: &BaselineDevice,
        gva: Gva,
        gpu: DeviceId,
        gpu_offset: u64,
        len: u64,
    ) -> Result<(MrKey, SimDuration), BaselineError> {
        let bar = server.gpu_bar(gpu);
        assert!(gpu_offset + len <= bar.len, "exceeds GPU memory");
        let iova = Iova(device.iova_base + (1 << 35));
        server
            .fabric_mut()
            .iommu_mut()
            .map(iova, Hpa(bar.base.raw() + gpu_offset), len)?;
        let r = server.rnic_mut(device.rnic);
        let key = r
            .verbs
            .register_mr(device.pd, gva, len, AccessFlags::all())?;
        r.mtt.register_legacy_contiguous(key, gva, iova, len)?;
        Ok((key, SimDuration::from_micros(50)))
    }

    /// Data-path write through the legacy translation pipeline.
    ///
    /// VfVxlan with GDR enabled resolves through the ATC; with GDR
    /// disabled — or on HyV/MasQ — every TLP goes untranslated through
    /// the Root Complex.
    pub fn write(
        &self,
        server: &mut StellarServer,
        device: &BaselineDevice,
        mr: MrKey,
        gva: Gva,
        len: u64,
    ) -> Result<DmaReport, BaselineError> {
        let mode = match self.kind {
            BaselineKind::VfVxlan if device.gdr_enabled => TranslationMode::AtsAtc,
            _ => TranslationMode::Untranslated,
        };
        let (r, fabric) = server.rnic_and_fabric_mut(device.rnic);
        let mut report = r.dma.write(
            mode,
            &mut r.mtt,
            &mut r.atc,
            fabric,
            r.device,
            mr,
            gva,
            len,
        )?;
        if self.kind == BaselineKind::VfVxlan {
            // VxLAN encap: extra pipeline latency per packet plus outer
            // headers on the wire (~50 B per 4 KiB ≈ shows up as the
            // Fig. 13 bandwidth gap).
            let encap = self.vxlan_latency.mul(report.pages);
            let header_tax = 1.0 + (50.0 / r.dma.config().port_gbps.max(1.0)).min(0.09);
            let extra_wire = report.elapsed.mul_f64(0.09);
            report.elapsed += extra_wire + encap.div(u64::from(TRANSLATION_PARALLELISM));
            report.first_page_latency += self.vxlan_latency;
            report.gbps = stellar_sim::stats::gbps(report.bytes, report.elapsed);
            let _ = header_tax;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use stellar_pcie::addr::PAGE_4K;
    use stellar_pcie::iommu::IommuConfig;
    use stellar_virt::rund::MemoryStrategy;

    const MB: u64 = 1024 * 1024;

    fn server_fullpin() -> (StellarServer, ContainerId) {
        // 2 MiB IOMMU pages would break ATC 4 KiB lookups; keep 4 KiB and
        // a small container so full pin stays cheap in tests.
        let mut server = StellarServer::new(ServerConfig {
            iommu: IommuConfig::default(),
            ..ServerConfig::default()
        });
        let (c, _) = server.boot_container(64 * MB, MemoryStrategy::FullPin);
        (server, c)
    }

    #[test]
    fn vf_gdr_write_uses_atc_and_p2p() {
        let (mut server, c) = server_fullpin();
        server.rnic_mut(RnicId(0)).vdevs.set_vf_count(8).unwrap();
        let mut stack = BaselineStack::new(BaselineKind::VfVxlan);
        let dev = stack.attach_device(&mut server, c, RnicId(0)).unwrap();
        assert!(dev.gdr_enabled);
        let gpu = server.gpus_under(RnicId(0))[0];
        let (mr, _) = stack
            .register_mr_gpu(&mut server, &dev, Gva(1 << 30), gpu, 0, 16 * MB)
            .unwrap();
        let rep = stack
            .write(&mut server, &dev, mr, Gva(1 << 30), 16 * MB)
            .unwrap();
        assert!(rep.p2p_pages > 0);
        let (hits, misses, _) = server.rnic(RnicId(0)).atc.stats();
        assert!(hits + misses > 0);
    }

    #[test]
    fn hyv_masq_gdr_is_rc_bound() {
        let (mut server, c) = server_fullpin();
        let mut stack = BaselineStack::new(BaselineKind::HyvMasq);
        let dev = stack.attach_device(&mut server, c, RnicId(0)).unwrap();
        let gpu = server.gpus_under(RnicId(0))[0];
        let (mr, _) = stack
            .register_mr_gpu(&mut server, &dev, Gva(1 << 30), gpu, 0, 64 * MB)
            .unwrap();
        let rep = stack
            .write(&mut server, &dev, mr, Gva(1 << 30), 64 * MB)
            .unwrap();
        assert_eq!(rep.p2p_pages, 0);
        assert_eq!(rep.rc_pages, 64 * MB / PAGE_4K);
        // Fig. 14: ~141 Gbps vs vStellar's ~393.
        assert!((120.0..160.0).contains(&rep.gbps), "gbps={}", rep.gbps);
    }

    #[test]
    fn lut_exhaustion_disables_gdr_for_late_vfs() {
        let (mut server, c) = server_fullpin();
        server.rnic_mut(RnicId(0)).vdevs.set_vf_count(63).unwrap();
        let mut stack = BaselineStack::new(BaselineKind::VfVxlan);
        let mut enabled = 0;
        let mut disabled = 0;
        for _ in 0..40 {
            let dev = stack.attach_device(&mut server, c, RnicId(0)).unwrap();
            if dev.gdr_enabled {
                enabled += 1;
            } else {
                disabled += 1;
            }
        }
        // 32-entry LUT minus 1 for the PF = 31 VF slots.
        assert_eq!(enabled, 31);
        assert_eq!(disabled, 9);
    }

    #[test]
    fn host_mr_write_goes_through_rc() {
        let (mut server, c) = server_fullpin();
        let mut stack = BaselineStack::new(BaselineKind::VfVxlan);
        server.rnic_mut(RnicId(0)).vdevs.set_vf_count(4).unwrap();
        let dev = stack.attach_device(&mut server, c, RnicId(0)).unwrap();
        let (mr, _) = stack
            .register_mr_host(&mut server, &dev, Gva(2 * MB), 4 * MB)
            .unwrap();
        let rep = stack
            .write(&mut server, &dev, mr, Gva(2 * MB), MB)
            .unwrap();
        assert_eq!(rep.bytes, MB);
    }

    #[test]
    fn vxlan_latency_tax_applies() {
        let (mut server, c) = server_fullpin();
        server.rnic_mut(RnicId(0)).vdevs.set_vf_count(4).unwrap();
        let mut vx = BaselineStack::new(BaselineKind::VfVxlan);
        let dev = vx.attach_device(&mut server, c, RnicId(0)).unwrap();
        let gpu = server.gpus_under(RnicId(0))[0];
        let (mr, _) = vx
            .register_mr_gpu(&mut server, &dev, Gva(1 << 30), gpu, 0, 4 * MB)
            .unwrap();
        let rep = vx.write(&mut server, &dev, mr, Gva(1 << 30), 4 * MB).unwrap();
        assert!(rep.first_page_latency >= vx.vxlan_latency);
    }
}
