//! The IOMMU in the PCIe Root Complex.
//!
//! Devices emit I/O virtual addresses ([`Iova`]); the IOMMU translates them
//! to host-physical addresses through a translation table, caching results
//! in its IOTLB. Two aspects drive paper experiments:
//!
//! * **Pinning cost** — registering and pinning guest memory is what makes
//!   RunD containers take minutes to start (Fig. 6; 1.6 TB ≈ 390 s). The
//!   [`Iommu::pin`] cost model reproduces that slope.
//! * **IOTLB pressure** — ATS translation requests from devices walk the
//!   table on IOTLB misses; with large GDR working sets this aggravates
//!   IOTLB misses (the paper's pcm-iio observation in Fig. 8).

use stellar_sim::{LruCache, SimDuration};
use stellar_telemetry::{stage_sample, Stage};

use crate::addr::{Address, Gpa, Hpa, Iova, PAGE_4K};
use crate::paging::{PageTable, PagingError};

/// Host kernel IOMMU operating mode (the `iommu=pt` / `nopt` boot flag from
/// Problem ④).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IommuMode {
    /// `pt` (passthrough): device addresses are used as physical addresses
    /// for host-owned devices; no translation overhead, but incompatible
    /// with ATS on the paper's troubled server model.
    Passthrough,
    /// `nopt`: all device DMA is translated (required in production to
    /// guarantee GDR correctness in RunD containers).
    NoPassthrough,
}

/// IOMMU configuration and latency model.
#[derive(Debug, Clone)]
pub struct IommuConfig {
    /// Operating mode.
    pub mode: IommuMode,
    /// Mapping granularity in bytes (the unit of `map`/`pin`).
    pub page_size: u64,
    /// IOTLB capacity in entries.
    pub iotlb_capacity: usize,
    /// Latency of a translation served from the IOTLB.
    pub iotlb_hit_latency: SimDuration,
    /// Latency of a page-table walk on an IOTLB miss.
    pub walk_latency: SimDuration,
    /// Cost to register and pin one 4 KiB page of guest memory.
    ///
    /// Calibrated from Fig. 6: 1.6 TB pinned in ~390 s ⇒ ≈0.93 µs per 4 KiB
    /// page.
    pub pin_per_4k_page: SimDuration,
    /// Fixed overhead per pin call (hypervisor/ioctl round trip).
    pub pin_call_overhead: SimDuration,
}

impl Default for IommuConfig {
    fn default() -> Self {
        IommuConfig {
            mode: IommuMode::NoPassthrough,
            page_size: PAGE_4K,
            // "an ATC can only cache mappings for tens of thousands of
            // memory pages" — give the IOTLB a similar order of magnitude.
            iotlb_capacity: 65_536,
            iotlb_hit_latency: SimDuration::from_nanos(20),
            walk_latency: SimDuration::from_nanos(350),
            pin_per_4k_page: SimDuration::from_nanos(930),
            pin_call_overhead: SimDuration::from_micros(2),
        }
    }
}

/// Errors from IOMMU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IommuError {
    /// Translation fault: the IOVA has no mapping (a DMA to an unmapped
    /// address is fatal to the device on real hardware).
    Fault(Iova),
    /// The underlying table rejected the operation.
    Paging(PagingError),
}

impl From<PagingError> for IommuError {
    fn from(e: PagingError) -> Self {
        IommuError::Paging(e)
    }
}

impl std::fmt::Display for IommuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IommuError::Fault(iova) => write!(f, "IOMMU translation fault at {iova}"),
            IommuError::Paging(e) => write!(f, "IOMMU table error: {e}"),
        }
    }
}

impl std::error::Error for IommuError {}

/// A translation result: the physical address plus the simulated time the
/// lookup cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The translated host-physical address.
    pub hpa: Hpa,
    /// Simulated latency of the lookup (IOTLB hit vs. table walk).
    pub latency: SimDuration,
    /// Whether the IOTLB served the request.
    pub iotlb_hit: bool,
}

/// The IOMMU model.
#[derive(Debug)]
pub struct Iommu {
    config: IommuConfig,
    table: PageTable<Iova, Hpa>,
    iotlb: LruCache<u64, u64>, // iova page -> hpa page
    pinned_bytes: u64,
    /// 4 KiB pages ever pinned (the unit pin cost is charged in).
    pinned_pages_4k: u64,
    total_pin_time: SimDuration,
    faults: u64,
}

impl Iommu {
    /// A fresh IOMMU with the given configuration.
    pub fn new(config: IommuConfig) -> Self {
        let iotlb = LruCache::new(config.iotlb_capacity);
        let table = PageTable::new(config.page_size);
        Iommu {
            config,
            table,
            iotlb,
            pinned_bytes: 0,
            pinned_pages_4k: 0,
            total_pin_time: SimDuration::ZERO,
            faults: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &IommuConfig {
        &self.config
    }

    /// Install a mapping `iova → hpa` of `len` bytes (page-aligned).
    pub fn map(&mut self, iova: Iova, hpa: Hpa, len: u64) -> Result<(), IommuError> {
        self.table.map(iova, hpa, len)?;
        Ok(())
    }

    /// Remove a mapping and invalidate affected IOTLB entries.
    pub fn unmap(&mut self, iova: Iova, len: u64) -> Result<(), IommuError> {
        self.table.unmap(iova, len)?;
        let pages = len / self.config.page_size;
        for i in 0..pages {
            let page = iova.raw() + i * self.config.page_size;
            self.iotlb.remove(&page);
        }
        Ok(())
    }

    /// Whether the page containing `iova` is currently mapped.
    pub fn is_mapped(&self, iova: Iova) -> bool {
        self.table.is_mapped(iova)
    }

    /// Translate a device address, consulting the IOTLB.
    ///
    /// In [`IommuMode::Passthrough`] the IOVA is used as the HPA directly
    /// with zero latency (no table, no IOTLB).
    pub fn translate(&mut self, iova: Iova) -> Result<Translation, IommuError> {
        if self.config.mode == IommuMode::Passthrough {
            return Ok(Translation {
                hpa: Hpa(iova.raw()),
                latency: SimDuration::ZERO,
                iotlb_hit: false,
            });
        }
        let page = iova.page_base(self.config.page_size).raw();
        let offset = iova.page_offset(self.config.page_size);
        if let Some(&hpa_page) = self.iotlb.get(&page) {
            stage_sample(Stage::IotlbHit, self.config.iotlb_hit_latency);
            return Ok(Translation {
                hpa: Hpa(hpa_page + offset),
                latency: self.config.iotlb_hit_latency,
                iotlb_hit: true,
            });
        }
        match self.table.translate(iova) {
            Ok(hpa) => {
                self.iotlb.insert(page, hpa.raw() - offset);
                stage_sample(Stage::IommuWalk, self.config.walk_latency);
                Ok(Translation {
                    hpa,
                    latency: self.config.walk_latency,
                    iotlb_hit: false,
                })
            }
            Err(_) => {
                self.faults += 1;
                Err(IommuError::Fault(iova))
            }
        }
    }

    /// Register and pin `len` bytes of guest memory at `iova → hpa`,
    /// returning the simulated time the pin took.
    ///
    /// This is the operation whose cumulative cost dominates RunD container
    /// start-up without PVDMA (Fig. 6).
    pub fn pin(&mut self, iova: Iova, hpa: Hpa, len: u64) -> Result<SimDuration, IommuError> {
        self.map(iova, hpa, len)?;
        let pages_4k = len.div_ceil(PAGE_4K);
        let cost = self.config.pin_call_overhead + self.config.pin_per_4k_page.mul(pages_4k);
        self.pinned_bytes += len;
        self.pinned_pages_4k += pages_4k;
        self.total_pin_time += cost;
        stage_sample(Stage::VirtPin, cost);
        Ok(cost)
    }

    /// Register and pin a set of (possibly scattered) pages in one call,
    /// returning the simulated pin time.
    ///
    /// Each entry maps one page of the table's page size. Pages already
    /// mapped to the same HPA are skipped (idempotent); pages mapped to a
    /// *different* HPA are left untouched — the caller can detect such
    /// staleness via [`Iommu::translate`], which is exactly how the Fig. 5
    /// PVDMA bug manifests.
    pub fn pin_pages(&mut self, pages: &[(Iova, Hpa)]) -> Result<SimDuration, IommuError> {
        let mut newly_mapped = 0u64;
        for &(iova, hpa) in pages {
            if self.table.is_mapped(iova) {
                continue;
            }
            self.table.map(iova, hpa, self.config.page_size)?;
            newly_mapped += 1;
        }
        let pages_4k = newly_mapped * (self.config.page_size / PAGE_4K).max(1);
        let cost = if newly_mapped == 0 {
            SimDuration::ZERO
        } else {
            self.config.pin_call_overhead + self.config.pin_per_4k_page.mul(pages_4k)
        };
        self.pinned_bytes += newly_mapped * self.config.page_size;
        self.pinned_pages_4k += pages_4k;
        self.total_pin_time += cost;
        if newly_mapped > 0 {
            stage_sample(Stage::VirtPin, cost);
        }
        Ok(cost)
    }

    /// Unpin and unmap a previously pinned region.
    pub fn unpin(&mut self, iova: Iova, len: u64) -> Result<(), IommuError> {
        self.unmap(iova, len)?;
        self.pinned_bytes = self.pinned_bytes.saturating_sub(len);
        Ok(())
    }

    /// Total bytes currently pinned.
    pub fn pinned_bytes(&self) -> u64 {
        self.pinned_bytes
    }

    /// 4 KiB pages ever pinned; unpinning does not lower it.
    pub fn pinned_pages_4k(&self) -> u64 {
        self.pinned_pages_4k
    }

    /// Cumulative simulated time spent pinning.
    pub fn total_pin_time(&self) -> SimDuration {
        self.total_pin_time
    }

    /// Translations that faulted on an unmapped page.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// IOTLB `(hits, misses, evictions)`. A miss on an unmapped page is
    /// a fault, and counts in both.
    pub fn iotlb_stats(&self) -> (u64, u64, u64) {
        self.iotlb.stats()
    }
}

impl Iova {
    /// In the RunD flow the device emits guest-physical addresses; the
    /// hypervisor programs the IOMMU with GPA→HPA, so a GPA *is* the IOVA.
    pub fn from_gpa(gpa: Gpa) -> Iova {
        Iova(gpa.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iommu() -> Iommu {
        Iommu::new(IommuConfig {
            iotlb_capacity: 4,
            ..IommuConfig::default()
        })
    }

    #[test]
    fn translate_hits_iotlb_second_time() {
        let mut m = iommu();
        m.map(Iova(0x1000), Hpa(0x9000), PAGE_4K).unwrap();
        let t1 = m.translate(Iova(0x1010)).unwrap();
        assert_eq!(t1.hpa, Hpa(0x9010));
        assert!(!t1.iotlb_hit);
        assert_eq!(t1.latency, m.config().walk_latency);
        let t2 = m.translate(Iova(0x1020)).unwrap();
        assert!(t2.iotlb_hit);
        assert_eq!(t2.hpa, Hpa(0x9020));
        assert_eq!(t2.latency, m.config().iotlb_hit_latency);
    }

    #[test]
    fn unmapped_translation_faults() {
        let mut m = iommu();
        assert_eq!(
            m.translate(Iova(0x5000)),
            Err(IommuError::Fault(Iova(0x5000)))
        );
        assert_eq!(m.faults(), 1);
        assert_eq!(m.iotlb_stats().1, 1, "a fault is an IOTLB miss too");
    }

    #[test]
    fn unmap_invalidates_iotlb() {
        let mut m = iommu();
        m.map(Iova(0x1000), Hpa(0x9000), PAGE_4K).unwrap();
        m.translate(Iova(0x1000)).unwrap(); // warm the IOTLB
        m.unmap(Iova(0x1000), PAGE_4K).unwrap();
        // A stale IOTLB entry here would wrongly succeed.
        assert!(m.translate(Iova(0x1000)).is_err());
    }

    #[test]
    fn iotlb_capacity_evicts() {
        let mut m = iommu(); // capacity 4
        for i in 0..6u64 {
            m.map(Iova(i * PAGE_4K), Hpa(0x10_0000 + i * PAGE_4K), PAGE_4K)
                .unwrap();
            m.translate(Iova(i * PAGE_4K)).unwrap();
        }
        // Re-touch page 0: must be a miss (evicted), costing a walk.
        let t = m.translate(Iova(0)).unwrap();
        assert!(!t.iotlb_hit);
        assert_eq!(m.iotlb_stats().2, 3); // 2 during fill + 1 re-insert
    }

    #[test]
    fn passthrough_mode_is_identity_and_free() {
        let mut m = Iommu::new(IommuConfig {
            mode: IommuMode::Passthrough,
            ..IommuConfig::default()
        });
        let t = m.translate(Iova(0xabc0_0000)).unwrap();
        assert_eq!(t.hpa, Hpa(0xabc0_0000));
        assert_eq!(t.latency, SimDuration::ZERO);
    }

    #[test]
    fn pin_cost_scales_with_size() {
        let mut m = iommu();
        let gib = 1024 * 1024 * 1024;
        let cost = m.pin(Iova(0), Hpa(0x1_0000_0000), gib).unwrap();
        // 1 GiB = 262144 pages * 930 ns ≈ 0.244 s (paper: 390 s / 1.6 TB
        // ≈ 0.238 s per GiB; same order).
        let secs = cost.as_secs_f64();
        assert!((0.2..0.3).contains(&secs), "cost={secs}s");
        assert_eq!(m.pinned_bytes(), gib);
    }

    #[test]
    fn pin_1_6_tb_takes_minutes_like_fig6() {
        let mut m = Iommu::new(IommuConfig {
            page_size: crate::addr::PAGE_2M,
            ..IommuConfig::default()
        });
        let tb_1_6 = 1_600 * 1024 * 1024 * 1024u64;
        let cost = m.pin(Iova(0), Hpa(0), tb_1_6).unwrap();
        let secs = cost.as_secs_f64();
        assert!((300.0..500.0).contains(&secs), "cost={secs}s");
    }

    #[test]
    fn unpin_releases_bytes() {
        let mut m = iommu();
        m.pin(Iova(0x1000), Hpa(0x2000), PAGE_4K).unwrap();
        m.unpin(Iova(0x1000), PAGE_4K).unwrap();
        assert_eq!(m.pinned_bytes(), 0);
        assert!(!m.is_mapped(Iova(0x1000)));
    }

    #[test]
    fn iova_from_gpa_is_identity() {
        assert_eq!(Iova::from_gpa(Gpa(0x77)), Iova(0x77));
    }
}
