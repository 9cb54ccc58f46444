//! The legacy VFIO path (Problem ②).
//!
//! VFIO hands a whole PCIe function to the guest and programs the IOMMU
//! so the device can DMA into guest memory. Because the GPA→HPA mapping must never change under
//! the device (a swapped-out page would redirect DMA), the hypervisor must
//! **pin every page the device might touch** — for RDMA workloads, all of
//! guest memory — before the container is usable. That full pin is the
//! minute-scale start-up cost in Fig. 6.

use stellar_pcie::addr::Iova;
use stellar_pcie::iommu::{Iommu, IommuError};
use stellar_sim::SimDuration;

use crate::hypervisor::Hypervisor;

/// VFIO errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfioError {
    /// IOMMU rejected a pin.
    Iommu(IommuError),
}

impl From<IommuError> for VfioError {
    fn from(e: IommuError) -> Self {
        VfioError::Iommu(e)
    }
}

impl std::fmt::Display for VfioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VfioError::Iommu(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for VfioError {}

/// The VFIO attachment model.
#[derive(Debug, Default)]
pub struct Vfio {
    pinned_regions: u64,
}

impl Vfio {
    /// A fresh VFIO context.
    pub fn new() -> Self {
        Vfio::default()
    }

    /// Pin **all** guest RAM in the IOMMU (the pre-PVDMA requirement:
    /// "effectively means all memory inside the RunD container").
    ///
    /// Returns the simulated pin time — the dominant term of container
    /// start-up for large guests.
    pub fn pin_all_memory(
        &mut self,
        hypervisor: &Hypervisor,
        iommu: &mut Iommu,
    ) -> Result<SimDuration, VfioError> {
        let mut total = SimDuration::ZERO;
        for (gpa, hpa, len) in hypervisor.ram().extents() {
            total += iommu.pin(Iova::from_gpa(gpa), hpa, len)?;
            self.pinned_regions += 1;
        }
        Ok(total)
    }

    /// Regions pinned so far.
    pub fn pinned_regions(&self) -> u64 {
        self.pinned_regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_pcie::addr::{Gpa, Hpa, PAGE_2M};
    use stellar_pcie::iommu::IommuConfig;

    #[test]
    fn pin_all_scales_with_guest_size() {
        // Use a 2 MiB-granular IOMMU so large guests do not materialize
        // millions of table entries in the test.
        let cost_of = |gib: u64| -> SimDuration {
            let mut h = Hypervisor::new();
            h.add_ram(Gpa(0), Hpa(0x10_0000_0000), gib * 1024 * 1024 * 1024);
            let mut iommu = Iommu::new(IommuConfig {
                page_size: PAGE_2M,
                ..IommuConfig::default()
            });
            let mut vfio = Vfio::new();
            vfio.pin_all_memory(&h, &mut iommu).unwrap()
        };
        let c16 = cost_of(16);
        let c160 = cost_of(160);
        // Linear scaling within rounding.
        let ratio = c160.as_nanos() as f64 / c16.as_nanos() as f64;
        assert!((9.0..11.0).contains(&ratio), "ratio={ratio}");
        // 160 GiB ≈ 39 s — already painful; 1.6 TB would be ~390 s.
        let secs = c160.as_secs_f64();
        assert!((30.0..50.0).contains(&secs), "c160={secs}");
    }

    #[test]
    fn pin_all_registers_translations() {
        let mut h = Hypervisor::new();
        h.add_ram(Gpa(0), Hpa(0x1_0000_0000), 4 * PAGE_2M);
        let mut iommu = Iommu::new(IommuConfig {
            page_size: PAGE_2M,
            ..IommuConfig::default()
        });
        let mut vfio = Vfio::new();
        vfio.pin_all_memory(&h, &mut iommu).unwrap();
        let t = iommu.translate(Iova(0x2000)).unwrap();
        assert_eq!(t.hpa, Hpa(0x1_0000_2000));
        assert_eq!(iommu.pinned_bytes(), 4 * PAGE_2M);
        assert_eq!(vfio.pinned_regions(), 1);
    }
}
