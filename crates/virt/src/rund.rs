//! The RunD secure-container lifecycle and the Fig. 6 start-up model.
//!
//! A RunD container's boot time decomposes into:
//!
//! * microVM creation and general hypervisor overhead
//!   ([`crate::hypervisor::Hypervisor::base_boot_time`]), which grows
//!   mildly with configured memory; and
//! * the memory strategy: [`MemoryStrategy::FullPin`] (the legacy VFIO
//!   requirement — pin everything before the device is usable) or
//!   [`MemoryStrategy::Pvdma`] (no upfront pinning at all).
//!
//! With the paper's constants, a 1.6 TB container boots in ~390+ s under
//! FullPin and under 20 s with PVDMA — the ≥15× of Fig. 6.

use stellar_pcie::addr::{Gpa, Hpa, PAGE_2M};
use stellar_pcie::iommu::{Iommu, IommuConfig};
use stellar_sim::SimDuration;

use crate::hypervisor::{Hypervisor, HypervisorConfig};
use crate::pvdma::{Pvdma, PvdmaConfig};
use crate::vfio::{Vfio, VfioError};

/// How the container's memory is made DMA-safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryStrategy {
    /// Pin all guest memory at boot (VFIO / pre-Stellar).
    FullPin,
    /// PVDMA: pin on demand at first DMA touch.
    Pvdma,
}

/// Container configuration.
#[derive(Debug, Clone)]
pub struct RundConfig {
    /// Guest memory size in bytes.
    pub memory_bytes: u64,
    /// Memory strategy.
    pub strategy: MemoryStrategy,
    /// Hypervisor timing model.
    pub hypervisor: HypervisorConfig,
    /// PVDMA configuration (used by [`MemoryStrategy::Pvdma`]).
    pub pvdma: PvdmaConfig,
}

impl RundConfig {
    /// A config with default timing for `memory_bytes` under `strategy`.
    pub fn new(memory_bytes: u64, strategy: MemoryStrategy) -> Self {
        RundConfig {
            memory_bytes,
            strategy,
            hypervisor: HypervisorConfig::default(),
            pvdma: PvdmaConfig::default(),
        }
    }
}

/// Where boot time went.
#[derive(Debug, Clone, Copy)]
pub struct BootReport {
    /// Total simulated boot time.
    pub total: SimDuration,
    /// MicroVM + hypervisor setup.
    pub hypervisor_setup: SimDuration,
    /// Upfront memory pinning (zero under PVDMA).
    pub memory_pin: SimDuration,
}

/// A booted RunD secure container.
#[derive(Debug)]
pub struct RundContainer {
    config: RundConfig,
    hypervisor: Hypervisor,
    pvdma: Option<Pvdma>,
}

impl RundContainer {
    /// Boot a container: lay out guest RAM, attach devices via VFIO
    /// semantics, and apply the memory strategy against `iommu`.
    ///
    /// `hpa_base` is where this container's host memory lives (the host
    /// allocator hands each container a disjoint window).
    pub fn boot(
        config: RundConfig,
        iommu: &mut Iommu,
        hpa_base: Hpa,
    ) -> Result<(Self, BootReport), VfioError> {
        let mut hypervisor = Hypervisor::new(config.hypervisor.clone());
        hypervisor.add_ram(Gpa(0), hpa_base, config.memory_bytes);

        let hypervisor_setup = hypervisor.base_boot_time();
        stellar_telemetry::count(stellar_telemetry::Subsystem::Virt, "rund.boot", 1);
        let (memory_pin, pvdma) = match config.strategy {
            MemoryStrategy::FullPin => {
                let mut vfio = Vfio::new();
                let pin = vfio.pin_all_memory(&hypervisor, iommu)?;
                stellar_telemetry::count(
                    stellar_telemetry::Subsystem::Virt,
                    "rund.full_pin_boot",
                    1,
                );
                (pin, None)
            }
            MemoryStrategy::Pvdma => (
                SimDuration::ZERO,
                Some(Pvdma::new(config.pvdma.clone())),
            ),
        };
        let boot = BootReport {
            total: hypervisor_setup + memory_pin,
            hypervisor_setup,
            memory_pin,
        };
        Ok((
            RundContainer {
                config,
                hypervisor,
                pvdma,
            },
            boot,
        ))
    }

    /// The container's hypervisor.
    pub fn hypervisor(&self) -> &Hypervisor {
        &self.hypervisor
    }

    /// The container's hypervisor, mutable (device-register mapping).
    pub fn hypervisor_mut(&mut self) -> &mut Hypervisor {
        &mut self.hypervisor
    }

    /// The container's PVDMA engine, if the strategy is PVDMA.
    pub fn pvdma_mut(&mut self) -> Option<&mut Pvdma> {
        self.pvdma.as_mut()
    }

    /// Both the hypervisor and PVDMA engine, mutably (DMA preparation
    /// needs the hypervisor immutably and PVDMA mutably).
    pub fn pvdma_parts(&mut self) -> Option<(&Hypervisor, &mut Pvdma)> {
        let Self {
            hypervisor, pvdma, ..
        } = self;
        pvdma.as_mut().map(|p| (&*hypervisor, p))
    }

    /// Tear the container down: release all PVDMA pins (full-pin
    /// containers keep their pins until the host reclaims the IOMMU
    /// domain, which the caller owns).
    pub fn shutdown(mut self, iommu: &mut Iommu) {
        if let Some(pvdma) = self.pvdma.as_mut() {
            pvdma.release_all(iommu);
        }
    }

    /// Configured memory size.
    pub fn memory_bytes(&self) -> u64 {
        self.config.memory_bytes
    }

    /// The memory strategy in effect.
    pub fn strategy(&self) -> MemoryStrategy {
        self.config.strategy
    }
}

/// An IOMMU configured for container boot-time experiments: 2 MiB mapping
/// granularity so that terabyte-scale guests do not materialize millions
/// of table entries (pin *cost* is still accounted per 4 KiB page).
pub fn boot_experiment_iommu() -> Iommu {
    Iommu::new(IommuConfig {
        page_size: PAGE_2M,
        ..IommuConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1024 * 1024 * 1024;

    fn boot(mem: u64, strategy: MemoryStrategy) -> BootReport {
        let mut iommu = boot_experiment_iommu();
        let (_, report) =
            RundContainer::boot(RundConfig::new(mem, strategy), &mut iommu, Hpa(1 << 40))
                .unwrap();
        report
    }

    #[test]
    fn full_pin_boot_grows_to_minutes() {
        let r = boot(1_600 * GIB, MemoryStrategy::FullPin);
        let secs = r.total.as_secs_f64();
        // Paper: "Pinning a container with 1.6 TB of memory typically
        // takes 390 seconds".
        assert!((350.0..450.0).contains(&secs), "total={secs}s");
        assert!(r.memory_pin > r.hypervisor_setup);
    }

    #[test]
    fn pvdma_boot_stays_under_20s_at_all_sizes() {
        for gib in [2, 16, 160, 1_600] {
            let r = boot(gib * GIB, MemoryStrategy::Pvdma);
            assert!(
                r.total < SimDuration::from_secs(20),
                "{gib} GiB -> {}",
                r.total
            );
            assert_eq!(r.memory_pin, SimDuration::ZERO);
        }
    }

    #[test]
    fn fig6_speedup_at_least_15x_for_large_guests() {
        let pinned = boot(1_600 * GIB, MemoryStrategy::FullPin);
        let pvdma = boot(1_600 * GIB, MemoryStrategy::Pvdma);
        let speedup = pinned.total.as_secs_f64() / pvdma.total.as_secs_f64();
        assert!(speedup >= 15.0, "speedup={speedup}");
    }

    #[test]
    fn pvdma_boot_overhead_rises_mildly_with_memory() {
        // Fig. 6: ~11 s increase between 160 GB and 1.6 TB, attributed to
        // general hypervisor overhead.
        let small = boot(160 * GIB, MemoryStrategy::Pvdma);
        let large = boot(1_600 * GIB, MemoryStrategy::Pvdma);
        let delta = large.total.as_secs_f64() - small.total.as_secs_f64();
        assert!((5.0..15.0).contains(&delta), "delta={delta}s");
    }

    #[test]
    fn booted_container_can_prepare_dma_on_demand() {
        let mut iommu = Iommu::new(IommuConfig::default());
        let (mut c, _) = RundContainer::boot(
            RundConfig::new(64 * PAGE_2M, MemoryStrategy::Pvdma),
            &mut iommu,
            Hpa(1 << 40),
        )
        .unwrap();
        let (h, p) = c.pvdma_parts().unwrap();
        let out = p.dma_prepare(h, &mut iommu, Gpa(0x1000), 0x1000).unwrap();
        assert_eq!(out.blocks_pinned, 1);
        assert_eq!(iommu.pinned_bytes(), PAGE_2M);
    }

    #[test]
    fn shutdown_releases_on_demand_pins() {
        let mut iommu = Iommu::new(IommuConfig::default());
        let (mut c, _) = RundContainer::boot(
            RundConfig::new(64 * PAGE_2M, MemoryStrategy::Pvdma),
            &mut iommu,
            Hpa(1 << 40),
        )
        .unwrap();
        {
            let (h, p) = c.pvdma_parts().unwrap();
            p.dma_prepare(h, &mut iommu, Gpa(0), 4 * PAGE_2M).unwrap();
        }
        assert_eq!(iommu.pinned_bytes(), 4 * PAGE_2M);
        c.shutdown(&mut iommu);
        assert_eq!(iommu.pinned_bytes(), 0);
    }

    #[test]
    fn full_pin_container_has_no_pvdma() {
        let mut iommu = boot_experiment_iommu();
        let (mut c, _) = RundContainer::boot(
            RundConfig::new(GIB, MemoryStrategy::FullPin),
            &mut iommu,
            Hpa(1 << 40),
        )
        .unwrap();
        assert!(c.pvdma_mut().is_none());
        assert_eq!(c.strategy(), MemoryStrategy::FullPin);
        assert_eq!(c.memory_bytes(), GIB);
    }
}
