//! PVDMA — Para-Virtualized Direct Memory Access (Section 5).
//!
//! Instead of pinning all guest memory at boot, PVDMA intercepts each DMA
//! preparation, pins the covering 2 MiB block(s) on first touch, and caches
//! the fact in its **map cache**. Subsequent DMAs to the same block hit the
//! cache and proceed immediately (Fig. 4, stages 1–3).
//!
//! ## The Fig. 5 aliasing bug
//!
//! Pinning copies the *current* guest translation (including any device-
//! register EPT entry inside the block, like the vDB) into the IOMMU at
//! 4 KiB granularity — but the map cache remembers only the 2 MiB block.
//! When the vDB's EPT mapping is later released and the guest reuses that
//! GPA for ordinary RAM (a new GPU command queue), PVDMA sees the block as
//! "already registered" and never refreshes the IOMMU, leaving a stale
//! vDB→RNIC-doorbell translation live. [`Pvdma::check_consistency`]
//! surfaces exactly that staleness; the regression tests and the
//! `doorbell_aliasing` example walk through the full five-step scenario.
//!
//! The production fix moves the vDB into the virtio shared-memory region
//! (an I/O space disjoint from guest RAM — see
//! [`crate::virtio::ShmRegion`]), making the overlap impossible.

use stellar_pcie::addr::{Address, Gpa, Hpa, Iova, PAGE_2M, PAGE_4K};
use stellar_pcie::iommu::{Iommu, IommuError};
use stellar_sim::SimDuration;

use crate::hypervisor::Hypervisor;

use std::collections::HashMap;

/// Map-cache lookup latency on the DMA fast path ("lightweight,
/// negligible latency").
const CACHE_LOOKUP_LATENCY: SimDuration = SimDuration::from_nanos(50);

/// PVDMA configuration.
#[derive(Debug, Clone)]
pub struct PvdmaConfig {
    /// Pinning granularity. 2 MiB in production: "to balance Map Cache
    /// size and IOMMU pinning overhead" (§5). The `pvdma_granularity`
    /// ablation bench sweeps this.
    pub block_size: u64,
}

impl Default for PvdmaConfig {
    fn default() -> Self {
        PvdmaConfig {
            block_size: PAGE_2M,
        }
    }
}

/// PVDMA errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PvdmaError {
    /// The guest address is not backed by RAM or a device register.
    UnbackedGpa(Gpa),
    /// IOMMU rejected the pin.
    Iommu(IommuError),
}

impl From<IommuError> for PvdmaError {
    fn from(e: IommuError) -> Self {
        PvdmaError::Iommu(e)
    }
}

impl std::fmt::Display for PvdmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PvdmaError::UnbackedGpa(g) => write!(f, "DMA to unbacked guest address {g}"),
            PvdmaError::Iommu(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PvdmaError {}

/// Outcome of a DMA preparation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepareOutcome {
    /// Simulated latency of the preparation (cache lookup, plus pinning on
    /// a miss).
    pub latency: SimDuration,
    /// Blocks newly pinned by this call.
    pub blocks_pinned: u64,
    /// Blocks served from the map cache.
    pub blocks_hit: u64,
}

/// A stale IOMMU translation detected by the consistency checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inconsistency {
    /// Guest page whose translations disagree.
    pub gpa: Gpa,
    /// What the IOMMU will send DMA to.
    pub iommu_hpa: Hpa,
    /// What the guest mapping currently says.
    pub current_hpa: Option<Hpa>,
}

/// The PVDMA engine of one container.
#[derive(Debug)]
pub struct Pvdma {
    config: PvdmaConfig,
    /// Map cache: pinned block base → number of 4 KiB pages copied into
    /// the IOMMU when the block was pinned.
    map_cache: HashMap<u64, u64>,
    /// Preparations started.
    prepares: u64,
    /// Blocks found in the map cache, and blocks pinned on a miss.
    hits: u64,
    misses: u64,
}

impl Pvdma {
    /// A PVDMA engine with an empty map cache.
    pub fn new(config: PvdmaConfig) -> Self {
        assert!(
            config.block_size.is_power_of_two() && config.block_size >= PAGE_4K,
            "PVDMA block size must be a power of two >= 4 KiB"
        );
        Pvdma {
            config,
            map_cache: HashMap::new(),
            prepares: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Intercept a DMA targeting `[gpa, gpa+len)` (Fig. 4 stage 1): pin any
    /// uncached covering blocks (stage 2), serve the rest from the map
    /// cache (stage 3).
    ///
    /// Pinning copies the guest's *current* 4 KiB translations into the
    /// IOMMU; blocks already in the map cache are **not** refreshed — the
    /// behaviour at the heart of the Fig. 5 bug.
    pub fn dma_prepare(
        &mut self,
        hypervisor: &Hypervisor,
        iommu: &mut Iommu,
        gpa: Gpa,
        len: u64,
    ) -> Result<PrepareOutcome, PvdmaError> {
        assert!(len > 0, "zero-length DMA preparation");
        assert_eq!(
            iommu.config().page_size,
            PAGE_4K,
            "PVDMA copies 4 KiB guest translations; IOMMU must be 4 KiB-granular"
        );
        let bs = self.config.block_size;
        let first = gpa.page_base(bs).raw();
        let last = Gpa(gpa.raw() + len - 1).page_base(bs).raw();

        let mut outcome = PrepareOutcome {
            latency: CACHE_LOOKUP_LATENCY,
            blocks_pinned: 0,
            blocks_hit: 0,
        };

        self.prepares += 1;
        let mut block = first;
        loop {
            if self.map_cache.contains_key(&block) {
                self.hits += 1;
                outcome.blocks_hit += 1;
            } else {
                // Collect the block's current guest translations at 4 KiB
                // granularity — including device registers resident in the
                // block (this is what captures the vDB in Fig. 5c).
                let mut pages = Vec::new();
                for i in 0..bs / PAGE_4K {
                    let page_gpa = Gpa(block + i * PAGE_4K);
                    if let Some((hpa, _kind)) = hypervisor.translate(page_gpa) {
                        pages.push((Iova::from_gpa(page_gpa), hpa));
                    }
                }
                if pages.is_empty() {
                    return Err(PvdmaError::UnbackedGpa(Gpa(block)));
                }
                let pin_cost = iommu.pin_pages(&pages)?;
                outcome.latency += pin_cost;
                self.misses += 1;
                outcome.blocks_pinned += 1;
                self.map_cache.insert(block, pages.len() as u64);
            }
            if block == last {
                break;
            }
            block += bs;
        }
        // A completed preparation is a quiesce point: the map cache and
        // the IOMMU pin ledger must agree.
        if stellar_check::enabled() {
            self.check_invariants(iommu, stellar_sim::SimTime::ZERO + outcome.latency);
        }
        Ok(outcome)
    }

    /// Whether the block containing `gpa` is pinned.
    pub fn is_pinned(&self, gpa: Gpa) -> bool {
        self.map_cache
            .contains_key(&gpa.page_base(self.config.block_size).raw())
    }

    /// Compare the IOMMU's live translations for `[gpa, gpa+len)` against
    /// the guest's current mappings, returning every divergence.
    ///
    /// A non-empty result means a DMA issued now would land somewhere the
    /// guest no longer intends — the Fig. 5e failure.
    pub fn check_consistency(
        &self,
        hypervisor: &Hypervisor,
        iommu: &mut Iommu,
        gpa: Gpa,
        len: u64,
    ) -> Vec<Inconsistency> {
        let mut out = Vec::new();
        let first = gpa.page_base(PAGE_4K).raw();
        let last = Gpa(gpa.raw() + len - 1).page_base(PAGE_4K).raw();
        let mut page = first;
        loop {
            let page_gpa = Gpa(page);
            if let Ok(t) = iommu.translate(Iova::from_gpa(page_gpa)) {
                let current = hypervisor.translate(page_gpa).map(|(h, _)| h);
                if current != Some(t.hpa) {
                    out.push(Inconsistency {
                        gpa: page_gpa,
                        iommu_hpa: t.hpa,
                        current_hpa: current,
                    });
                }
            }
            if page == last {
                break;
            }
            page += PAGE_4K;
        }
        out
    }

    /// Release every pinned block: unmap its pages from the IOMMU and
    /// empty the map cache. Called on container teardown — without it a
    /// destroyed guest would leak pinned host memory.
    pub fn release_all(&mut self, iommu: &mut Iommu) {
        for (&block, _) in self.map_cache.iter() {
            for i in 0..self.config.block_size / PAGE_4K {
                let iova = Iova(block + i * PAGE_4K);
                if iommu.is_mapped(iova) {
                    iommu
                        .unpin(iova, PAGE_4K)
                        .expect("pinned page unmaps cleanly");
                }
            }
        }
        self.map_cache.clear();
    }

    /// Map-cache `(hits, misses)`. A miss counts once its block is
    /// pinned.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Preparations started ([`Pvdma::dma_prepare`] calls).
    pub fn prepares(&self) -> u64 {
        self.prepares
    }

    /// Number of pinned blocks (map-cache size).
    pub fn pinned_blocks(&self) -> usize {
        self.map_cache.len()
    }

    /// Run the PVDMA accounting invariant at a quiesce point (no-op
    /// unless a `stellar_check` scope is active): every resident
    /// map-cache entry came from a pin (a miss), records no more pages
    /// than its block holds, and the pages it claims are actually pinned
    /// in `iommu`.
    pub fn check_invariants(&self, iommu: &Iommu, at: stellar_sim::SimTime) {
        stellar_check::at_quiesce(at, stellar_check::Layer::Virt, |c| {
            let pages_per_block = self.config.block_size / PAGE_4K;
            let cached_pages: u64 = self.map_cache.values().sum();
            let oversized = self
                .map_cache
                .values()
                .filter(|&&pages| pages == 0 || pages > pages_per_block)
                .count();
            c.check(
                "virt.pvdma_accounting",
                self.map_cache.len() as u64 <= self.misses
                    && oversized == 0
                    && cached_pages * PAGE_4K <= iommu.pinned_bytes(),
                || {
                    format!(
                        "map cache holds {} blocks / {} pages ({} mis-sized) \
                         against {} pinned misses and {} pinned IOMMU bytes",
                        self.map_cache.len(),
                        cached_pages,
                        oversized,
                        self.misses,
                        iommu.pinned_bytes()
                    )
                },
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_pcie::iommu::IommuConfig;

    const RAM_HPA: u64 = 0x1_0000_0000;
    const RNIC_DB_HPA: u64 = 0x2000_0000;

    fn setup(ram_bytes: u64) -> (Hypervisor, Iommu, Pvdma) {
        let mut h = Hypervisor::new();
        h.add_ram(Gpa(0), Hpa(RAM_HPA), ram_bytes);
        let iommu = Iommu::new(IommuConfig::default());
        let p = Pvdma::new(PvdmaConfig::default());
        (h, iommu, p)
    }

    #[test]
    fn first_touch_pins_then_hits() {
        let (h, mut iommu, mut p) = setup(16 * PAGE_2M);
        let o1 = p.dma_prepare(&h, &mut iommu, Gpa(0x1000), 0x2000).unwrap();
        assert_eq!(o1.blocks_pinned, 1);
        assert_eq!(o1.blocks_hit, 0);
        assert!(o1.latency > SimDuration::from_micros(100)); // real pin work
        let o2 = p.dma_prepare(&h, &mut iommu, Gpa(0x3000), 0x1000).unwrap();
        assert_eq!(o2.blocks_pinned, 0);
        assert_eq!(o2.blocks_hit, 1);
        assert_eq!(o2.latency, CACHE_LOOKUP_LATENCY);
        assert_eq!(p.cache_stats(), (1, 1));
    }

    #[test]
    fn dma_spanning_blocks_pins_each() {
        let (h, mut iommu, mut p) = setup(16 * PAGE_2M);
        let o = p
            .dma_prepare(&h, &mut iommu, Gpa(PAGE_2M - 0x1000), 0x2000)
            .unwrap();
        assert_eq!(o.blocks_pinned, 2);
        assert!(p.is_pinned(Gpa(0)));
        assert!(p.is_pinned(Gpa(PAGE_2M)));
    }

    #[test]
    fn pinned_memory_translates_in_iommu() {
        let (h, mut iommu, mut p) = setup(4 * PAGE_2M);
        p.dma_prepare(&h, &mut iommu, Gpa(0x4000), 0x1000).unwrap();
        let t = iommu.translate(Iova(0x4010)).unwrap();
        assert_eq!(t.hpa, Hpa(RAM_HPA + 0x4010));
    }

    #[test]
    fn unbacked_gpa_is_rejected() {
        let (h, mut iommu, mut p) = setup(PAGE_2M);
        let err = p.dma_prepare(&h, &mut iommu, Gpa(0x4000_0000), 0x1000);
        assert_eq!(err, Err(PvdmaError::UnbackedGpa(Gpa(0x4000_0000))));
    }

    #[test]
    fn on_demand_pins_far_less_than_full_pin() {
        // A 1 GiB guest that only DMAs into 8 MiB pins 8 MiB, not 1 GiB.
        let gib = 1024 * 1024 * 1024;
        let (h, mut iommu, mut p) = setup(gib);
        p.dma_prepare(&h, &mut iommu, Gpa(0), 8 * PAGE_2M).unwrap();
        assert_eq!(iommu.pinned_bytes(), 8 * PAGE_2M);
        assert!(iommu.pinned_bytes() < gib / 50);
    }

    /// The full Fig. 5 scenario, step by step.
    #[test]
    fn fig5_stale_doorbell_mapping_reproduced() {
        let (mut h, mut iommu, mut p) = setup(16 * PAGE_2M);
        let vdb_gpa = Gpa(PAGE_2M + 4 * PAGE_4K);

        // Step 1: RDMA program maps the vDB into the guest (EPT entry to
        // the RNIC's physical doorbell).
        h.map_device_register(vdb_gpa, Hpa(RNIC_DB_HPA));

        // Step 2: the GPU driver allocates a command queue in the same
        // 2 MiB block (adjacent GPA).
        let cmdq_gpa = Gpa(PAGE_2M + 5 * PAGE_4K);

        // Step 3: GPU DMA-reads the command queue; PVDMA pins the whole
        // 2 MiB block — vDB mapping included.
        p.dma_prepare(&h, &mut iommu, cmdq_gpa, PAGE_4K).unwrap();
        // The vDB's translation got copied into the IOMMU:
        assert_eq!(
            iommu.translate(Iova::from_gpa(vdb_gpa)).unwrap().hpa,
            Hpa(RNIC_DB_HPA)
        );

        // Step 4: the RDMA program exits; the EPT releases the vDB, but
        // PVDMA does not unmap the still-in-use block.
        h.unmap_device_register(vdb_gpa);
        assert!(p.is_pinned(cmdq_gpa));

        // Step 5: the guest reuses the old vDB GPA for a new command queue
        // (ordinary RAM). PVDMA sees the block cached and does nothing.
        let o = p.dma_prepare(&h, &mut iommu, vdb_gpa, PAGE_4K).unwrap();
        assert_eq!(o.blocks_pinned, 0);

        // The IOMMU still routes that GPA to the RNIC doorbell: any GPU
        // DMA to Cmd Q' would hit the NIC. The checker flags it.
        let bad = p.check_consistency(&h, &mut iommu, vdb_gpa, PAGE_4K);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].iommu_hpa, Hpa(RNIC_DB_HPA));
        assert_eq!(bad[0].current_hpa, Some(Hpa(RAM_HPA + vdb_gpa.raw())));
    }

    /// The fix: with the vDB in the virtio shm I/O space (no GPA-space
    /// device mapping), the same sequence stays consistent.
    #[test]
    fn fig5_fixed_by_shm_placement() {
        let (h, mut iommu, mut p) = setup(16 * PAGE_2M);
        // No map_device_register call: the vDB lives in the shm window,
        // which is not part of the guest RAM GPA space at all.
        let cmdq_gpa = Gpa(PAGE_2M + 5 * PAGE_4K);
        p.dma_prepare(&h, &mut iommu, cmdq_gpa, PAGE_4K).unwrap();
        let bad = p.check_consistency(&h, &mut iommu, Gpa(PAGE_2M), PAGE_2M);
        assert!(bad.is_empty());
    }

    #[test]
    fn granularity_4k_avoids_the_bug_but_pins_slower() {
        // The §5 trade-off: a 4 KiB PVDMA block would never swallow the
        // vDB with a neighbouring queue, but pinning a given footprint
        // costs more calls.
        let (mut h, mut iommu4k, _) = setup(16 * PAGE_2M);
        let mut p4k = Pvdma::new(PvdmaConfig {
            block_size: PAGE_4K,
        });
        let vdb_gpa = Gpa(PAGE_2M + 4 * PAGE_4K);
        h.map_device_register(vdb_gpa, Hpa(RNIC_DB_HPA));
        let cmdq_gpa = Gpa(PAGE_2M + 5 * PAGE_4K);
        p4k.dma_prepare(&h, &mut iommu4k, cmdq_gpa, PAGE_4K).unwrap();
        // The vDB page was never pinned at 4 KiB granularity.
        assert!(iommu4k.translate(Iova::from_gpa(vdb_gpa)).is_err());
        h.unmap_device_register(vdb_gpa);
        let bad = p4k.check_consistency(&h, &mut iommu4k, vdb_gpa, PAGE_4K);
        assert!(bad.is_empty());
    }

    #[test]
    fn release_all_returns_every_pinned_byte() {
        let (h, mut iommu, mut p) = setup(16 * PAGE_2M);
        p.dma_prepare(&h, &mut iommu, Gpa(0), 3 * PAGE_2M).unwrap();
        p.dma_prepare(&h, &mut iommu, Gpa(8 * PAGE_2M), PAGE_4K).unwrap();
        assert_eq!(iommu.pinned_bytes(), 4 * PAGE_2M);
        p.release_all(&mut iommu);
        assert_eq!(iommu.pinned_bytes(), 0);
        assert_eq!(p.pinned_blocks(), 0);
        assert!(iommu.translate(Iova(0)).is_err());
        // The engine is reusable afterwards.
        let o = p.dma_prepare(&h, &mut iommu, Gpa(0), PAGE_4K).unwrap();
        assert_eq!(o.blocks_pinned, 1);
    }

    #[test]
    fn accounting_invariant_holds_across_pin_hit_and_release() {
        stellar_check::strict(|| {
            let (h, mut iommu, mut p) = setup(16 * PAGE_2M);
            // Miss (pin), hit, multi-block pin — each dma_prepare is a
            // checked quiesce point.
            p.dma_prepare(&h, &mut iommu, Gpa(0x1000), 0x2000).unwrap();
            p.dma_prepare(&h, &mut iommu, Gpa(0x3000), 0x1000).unwrap();
            p.dma_prepare(&h, &mut iommu, Gpa(4 * PAGE_2M), 2 * PAGE_2M)
                .unwrap();
            p.release_all(&mut iommu);
            p.check_invariants(&iommu, stellar_sim::SimTime::ZERO);
            assert_eq!(p.pinned_blocks(), 0);
        });
    }

    #[test]
    #[should_panic(expected = "IOMMU must be 4 KiB-granular")]
    fn rejects_coarse_iommu() {
        let (h, _, mut p) = setup(PAGE_2M);
        let mut coarse = Iommu::new(IommuConfig {
            page_size: PAGE_2M,
            ..IommuConfig::default()
        });
        let _ = p.dma_prepare(&h, &mut coarse, Gpa(0), 0x1000);
    }
}
