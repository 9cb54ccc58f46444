//! PCIe Address Translation Services (ATS) and the device-side Address
//! Translation Cache (ATC).
//!
//! With ATS enabled, a device may ask the Root Complex's IOMMU to translate
//! an IOVA ahead of time and cache the result in its local ATC; later DMA
//! can then carry the *translated* address (TLP AT field = `0b10`) and be
//! routed without visiting the RC.
//!
//! The ATC is small — "an ATC can only cache mappings for tens of thousands
//! of memory pages" (Section 6). Once a GDR working set exceeds it, every
//! miss costs a PCIe round trip to the IOMMU, which is the mechanism behind
//! the CX6 bandwidth decline in Fig. 8. Stellar's eMTT bypasses this cache
//! entirely.

use stellar_sim::{LruCache, SimDuration};
use stellar_telemetry::{stage_sample, Stage};

use crate::addr::{Address, Hpa, Iova};
use crate::iommu::{Iommu, IommuError};

/// Page size of cached translations.
const PAGE_SIZE: u64 = crate::addr::PAGE_4K;
/// Latency of a lookup served from the ATC.
const HIT_LATENCY: SimDuration = SimDuration::from_nanos(10);
/// PCIe round-trip latency of an ATS translation request to the RC
/// (added on top of the IOMMU's own walk latency).
const ATS_ROUND_TRIP: SimDuration = SimDuration::from_nanos(600);

/// ATC configuration. The ATC caches 4 KiB pages; a hit costs 10 ns and
/// a miss a 600 ns ATS round trip on top of the IOMMU's own work.
#[derive(Debug, Clone)]
pub struct AtcConfig {
    /// Capacity in page translations.
    pub capacity: usize,
}

impl Default for AtcConfig {
    fn default() -> Self {
        AtcConfig {
            // "tens of thousands of memory pages": 32k entries × 4 KiB
            // pages = 128 MiB reach, matching the Fig. 8 cliff position
            // (degradation grows past ~2 MB/conn × 16 conns and worsens
            // beyond 32 MB/conn).
            capacity: 32_768,
        }
    }
}

/// The outcome of a device-side translation through the ATC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtcLookup {
    /// Translated host-physical address.
    pub hpa: Hpa,
    /// Total simulated latency (ATC hit, or ATS round trip + IOMMU work).
    pub latency: SimDuration,
    /// Whether the ATC served the request locally.
    pub atc_hit: bool,
}

/// A device's Address Translation Cache.
#[derive(Debug)]
pub struct Atc {
    cache: LruCache<u64, u64>, // iova page -> hpa page
}

impl Atc {
    /// A fresh, empty ATC.
    pub fn new(config: AtcConfig) -> Self {
        Atc {
            cache: LruCache::new(config.capacity),
        }
    }

    /// Translate `iova`, consulting the local cache first and falling back
    /// to an ATS request against `iommu` on a miss.
    pub fn translate(&mut self, iova: Iova, iommu: &mut Iommu) -> Result<AtcLookup, IommuError> {
        let page = iova.page_base(PAGE_SIZE).raw();
        let offset = iova.page_offset(PAGE_SIZE);
        if let Some(&hpa_page) = self.cache.get(&page) {
            stage_sample(Stage::AtcHit, HIT_LATENCY);
            return Ok(AtcLookup {
                hpa: Hpa(hpa_page + offset),
                latency: HIT_LATENCY,
                atc_hit: true,
            });
        }
        let t = iommu.translate(iova)?;
        self.cache.insert(page, t.hpa.raw() - offset);
        let latency = ATS_ROUND_TRIP + t.latency;
        stage_sample(Stage::AtsWalk, latency);
        Ok(AtcLookup {
            hpa: t.hpa,
            latency,
            atc_hit: false,
        })
    }

    /// Invalidate any cached translation covering `iova` (the RC sends
    /// these when the IOMMU mapping changes).
    pub fn invalidate(&mut self, iova: Iova) {
        let page = iova.page_base(PAGE_SIZE).raw();
        self.cache.remove(&page);
    }

    /// Drop all cached translations.
    pub fn invalidate_all(&mut self) {
        self.cache.invalidate_all();
    }

    /// `(hits, misses, evictions)` of the cache. Every miss issued one
    /// ATS request to the IOMMU.
    pub fn stats(&self) -> (u64, u64, u64) {
        self.cache.stats()
    }

    /// Resident translations.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the ATC holds no translations.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_4K;
    use crate::iommu::IommuConfig;

    fn setup(atc_capacity: usize) -> (Atc, Iommu) {
        let atc = Atc::new(AtcConfig {
            capacity: atc_capacity,
        });
        let mut iommu = Iommu::new(IommuConfig::default());
        for i in 0..64u64 {
            iommu
                .map(Iova(i * PAGE_4K), Hpa(0x100_0000 + i * PAGE_4K), PAGE_4K)
                .unwrap();
        }
        (atc, iommu)
    }

    #[test]
    fn miss_then_hit() {
        let (mut atc, mut iommu) = setup(8);
        let l1 = atc.translate(Iova(0x1010), &mut iommu).unwrap();
        assert!(!l1.atc_hit);
        assert_eq!(l1.hpa, Hpa(0x100_1010));
        assert!(l1.latency >= ATS_ROUND_TRIP);
        let l2 = atc.translate(Iova(0x1020), &mut iommu).unwrap();
        assert!(l2.atc_hit);
        assert_eq!(l2.latency, HIT_LATENCY);
        assert_eq!(atc.stats().1, 1, "one ATS request");
    }

    #[test]
    fn capacity_miss_storm_when_working_set_exceeds_atc() {
        // Working set of 64 pages vs ATC of 16: round-robin touching all
        // pages never hits (LRU worst case) — the Fig. 8 mechanism.
        let (mut atc, mut iommu) = setup(16);
        for round in 0..4 {
            for i in 0..64u64 {
                let l = atc.translate(Iova(i * PAGE_4K), &mut iommu).unwrap();
                if round > 0 {
                    assert!(!l.atc_hit, "unexpected hit at round {round} page {i}");
                }
            }
        }
        let (hits, misses, _) = atc.stats();
        assert_eq!(hits, 0);
        assert_eq!(misses, 256);
    }

    #[test]
    fn small_working_set_always_hits_after_warmup() {
        let (mut atc, mut iommu) = setup(16);
        for _ in 0..3 {
            for i in 0..8u64 {
                atc.translate(Iova(i * PAGE_4K), &mut iommu).unwrap();
            }
        }
        let (hits, misses, _) = atc.stats();
        assert_eq!(misses, 8);
        assert_eq!(hits, 16);
    }

    #[test]
    fn invalidate_forces_refetch() {
        let (mut atc, mut iommu) = setup(8);
        atc.translate(Iova(0), &mut iommu).unwrap();
        atc.invalidate(Iova(0x10)); // same page
        let l = atc.translate(Iova(0), &mut iommu).unwrap();
        assert!(!l.atc_hit);
        assert_eq!(atc.stats().1, 2, "two ATS requests");
    }

    #[test]
    fn fault_propagates() {
        let (mut atc, mut iommu) = setup(8);
        assert!(atc.translate(Iova(0xdead_0000), &mut iommu).is_err());
    }

    #[test]
    fn invalidate_all_empties_cache() {
        let (mut atc, mut iommu) = setup(8);
        atc.translate(Iova(0), &mut iommu).unwrap();
        atc.translate(Iova(PAGE_4K), &mut iommu).unwrap();
        assert_eq!(atc.len(), 2);
        atc.invalidate_all();
        assert!(atc.is_empty());
    }
}
