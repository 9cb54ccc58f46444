//! The Memory Translation Table and Stellar's eMTT extension (§6).
//!
//! The MTT lives on the RNIC and maps a memory region's virtual pages to
//! the address the DMA engine should emit:
//!
//! * A **legacy** entry (what a RunD container's driver can write) holds a
//!   GVA→GPA mapping: the DMA engine must still resolve GPA→HPA through
//!   ATS/ATC or the IOMMU.
//! * An **extended** (eMTT) entry holds the final HPA *plus the memory
//!   owner* (host memory or a specific GPU). This lets the RX pipeline set
//!   the TLP AT field correctly and bypass the PCIe ATC entirely — the
//!   mechanism behind Stellar's flat GDR curve in Fig. 8.
//!
//! The eMTT "commonly has orders of magnitude larger capacity than the
//! PCIe ATC", so capacity is checked at registration time (an explicit
//! resource budget), not evicted at lookup time.

use std::collections::HashMap;


use stellar_pcie::addr::{Address, Gva, Hpa, Iova, PAGE_4K};
use stellar_pcie::topology::DeviceId;

use crate::verbs::MrKey;

/// Who owns a translated page — decides the TLP AT field (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOwner {
    /// Host main memory: emit an untranslated TLP; the RC's IOMMU finishes
    /// the translation.
    HostMem,
    /// GPU device memory: emit a translated TLP targeting the GPU BAR; the
    /// switch routes it peer-to-peer.
    Gpu(DeviceId),
}

/// One page's translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MttEntry {
    /// Legacy MTT: the container driver only knows GVA→GPA; the GPA (as an
    /// IOVA) still needs IOMMU/ATC translation downstream.
    Legacy {
        /// The guest-physical address the page maps to, emitted as an IOVA.
        iova: Iova,
    },
    /// Stellar eMTT: final host-physical address plus owner type.
    Extended {
        /// Pre-translated host-physical address.
        hpa: Hpa,
        /// Page owner (selects the AT field).
        owner: MemOwner,
    },
}

/// Translation granularity: one entry per 4 KiB page.
pub(crate) const PAGE_SIZE: u64 = PAGE_4K;

/// MTT configuration.
#[derive(Debug, Clone)]
pub struct MttConfig {
    /// Total entry budget across all memory regions.
    pub capacity_entries: usize,
}

impl Default for MttConfig {
    fn default() -> Self {
        MttConfig {
            // Orders of magnitude beyond the ATC's ~32k: 8M entries
            // (32 GiB of 4 KiB pages per RNIC).
            capacity_entries: 8 * 1024 * 1024,
        }
    }
}

/// MTT errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MttError {
    /// The MR has no entry covering this address.
    Unmapped {
        /// Offending region.
        mr: MrKey,
        /// Offending address.
        gva: Gva,
    },
    /// Entry budget exhausted.
    CapacityExceeded {
        /// Configured capacity.
        capacity: usize,
    },
    /// Region already registered.
    AlreadyRegistered(MrKey),
    /// Base address or length not page-aligned.
    Misaligned,
}

impl std::fmt::Display for MttError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MttError::Unmapped { mr, gva } => write!(f, "MTT miss for {mr:?} at {gva}"),
            MttError::CapacityExceeded { capacity } => {
                write!(f, "MTT capacity exceeded ({capacity} entries)")
            }
            MttError::AlreadyRegistered(mr) => write!(f, "{mr:?} already in MTT"),
            MttError::Misaligned => write!(f, "MTT registration not page-aligned"),
        }
    }
}

impl std::error::Error for MttError {}

#[derive(Debug)]
struct Region {
    base: Gva,
    entries: Vec<MttEntry>, // one per page
}

/// The RNIC's Memory Translation Table.
#[derive(Debug)]
pub struct Mtt {
    config: MttConfig,
    regions: HashMap<MrKey, Region>,
    used_entries: usize,
    lookups: u64,
    misses: u64,
}

impl Mtt {
    /// An empty table.
    pub fn new(config: MttConfig) -> Self {
        Mtt {
            config,
            regions: HashMap::new(),
            used_entries: 0,
            lookups: 0,
            misses: 0,
        }
    }

    /// Register a region's per-page entries. `entries[i]` translates the
    /// page at `base + i * page_size`.
    pub fn register(
        &mut self,
        mr: MrKey,
        base: Gva,
        entries: Vec<MttEntry>,
    ) -> Result<(), MttError> {
        if self.regions.contains_key(&mr) {
            return Err(MttError::AlreadyRegistered(mr));
        }
        if !base.is_aligned(PAGE_SIZE) {
            return Err(MttError::Misaligned);
        }
        if self.used_entries + entries.len() > self.config.capacity_entries {
            return Err(MttError::CapacityExceeded {
                capacity: self.config.capacity_entries,
            });
        }
        self.used_entries += entries.len();
        self.regions.insert(mr, Region { base, entries });
        Ok(())
    }

    /// Convenience: register a contiguous legacy region (GVA→GPA identity
    /// stride starting at `iova_base`).
    pub fn register_legacy_contiguous(
        &mut self,
        mr: MrKey,
        base: Gva,
        iova_base: Iova,
        len: u64,
    ) -> Result<(), MttError> {
        let entries = self
            .contiguous_pages(len)?
            .map(|off| MttEntry::Legacy {
                iova: Iova(iova_base.raw() + off),
            })
            .collect();
        self.register(mr, base, entries)
    }

    /// Convenience: register a contiguous eMTT region with a single owner.
    pub fn register_extended_contiguous(
        &mut self,
        mr: MrKey,
        base: Gva,
        hpa_base: Hpa,
        len: u64,
        owner: MemOwner,
    ) -> Result<(), MttError> {
        let entries = self
            .contiguous_pages(len)?
            .map(|off| MttEntry::Extended {
                hpa: Hpa(hpa_base.raw() + off),
                owner,
            })
            .collect();
        self.register(mr, base, entries)
    }

    fn contiguous_pages(
        &self,
        len: u64,
    ) -> Result<impl Iterator<Item = u64> + '_, MttError> {
        if !len.is_multiple_of(PAGE_SIZE) {
            return Err(MttError::Misaligned);
        }
        let ps = PAGE_SIZE;
        Ok((0..len / ps).map(move |i| i * ps))
    }

    /// Translate `gva` within region `mr`. Returns the entry and the byte
    /// offset within its page.
    pub fn lookup(&mut self, mr: MrKey, gva: Gva) -> Result<(MttEntry, u64), MttError> {
        self.lookups += 1;
        let miss = MttError::Unmapped { mr, gva };
        let Some(region) = self.regions.get(&mr) else {
            self.misses += 1;
            return Err(miss);
        };
        if gva.raw() < region.base.raw() {
            self.misses += 1;
            return Err(miss);
        }
        let offset = gva.raw() - region.base.raw();
        let page_idx = (offset / PAGE_SIZE) as usize;
        let in_page = offset % PAGE_SIZE;
        match region.entries.get(page_idx) {
            Some(&entry) => Ok((entry, in_page)),
            None => {
                self.misses += 1;
                Err(miss)
            }
        }
    }

    /// Entries in use.
    pub fn used_entries(&self) -> usize {
        self.used_entries
    }

    /// `(lookups, misses)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.lookups, self.misses)
    }

    /// Run the MTT accounting invariants at a quiesce point (no-op unless a
    /// `stellar_check` scope is active).
    pub fn check_invariants(&self, at: stellar_sim::SimTime) {
        stellar_check::at_quiesce(at, stellar_check::Layer::Rnic, |c| {
            let region_entries: usize =
                self.regions.values().map(|r| r.entries.len()).sum();
            c.check(
                "rnic.mtt_entry_accounting",
                self.used_entries == region_entries,
                || {
                    format!(
                        "used_entries {} != sum of region entries {}",
                        self.used_entries, region_entries
                    )
                },
            );
            c.check(
                "rnic.mtt_lookup_accounting",
                self.misses <= self.lookups,
                || format!("misses {} exceed lookups {}", self.misses, self.lookups),
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mtt(capacity: usize) -> Mtt {
        Mtt::new(MttConfig {
            capacity_entries: capacity,
        })
    }

    #[test]
    fn legacy_lookup_resolves_iova() {
        let mut t = mtt(100);
        t.register_legacy_contiguous(MrKey(1), Gva(0x10000), Iova(0x8000), 2 * PAGE_4K)
            .unwrap();
        let (e, off) = t.lookup(MrKey(1), Gva(0x11010)).unwrap();
        assert_eq!(e, MttEntry::Legacy { iova: Iova(0x9000) });
        assert_eq!(off, 0x10);
    }

    #[test]
    fn extended_lookup_resolves_hpa_and_owner() {
        let mut t = mtt(100);
        let gpu = MemOwner::Gpu(DeviceId(3));
        t.register_extended_contiguous(MrKey(7), Gva(0x20000), Hpa(0xA000), PAGE_4K, gpu)
            .unwrap();
        let (e, off) = t.lookup(MrKey(7), Gva(0x20004)).unwrap();
        assert_eq!(
            e,
            MttEntry::Extended {
                hpa: Hpa(0xA000),
                owner: gpu
            }
        );
        assert_eq!(off, 4);
    }

    #[test]
    fn out_of_region_misses() {
        let mut t = mtt(100);
        t.register_legacy_contiguous(MrKey(1), Gva(0x10000), Iova(0), PAGE_4K)
            .unwrap();
        assert!(t.lookup(MrKey(1), Gva(0x9000)).is_err()); // below base
        assert!(t.lookup(MrKey(1), Gva(0x10000 + PAGE_4K)).is_err()); // past end
        assert!(t.lookup(MrKey(2), Gva(0x10000)).is_err()); // unknown MR
        assert_eq!(t.counters(), (3, 3));
    }

    #[test]
    fn capacity_is_a_hard_budget() {
        let mut t = mtt(3);
        t.register_legacy_contiguous(MrKey(1), Gva(0), Iova(0), 2 * PAGE_4K)
            .unwrap();
        let err =
            t.register_legacy_contiguous(MrKey(2), Gva(0x100000), Iova(0), 2 * PAGE_4K);
        assert_eq!(err, Err(MttError::CapacityExceeded { capacity: 3 }));
        // The rejected region consumed nothing.
        assert_eq!(t.used_entries(), 2);
    }

    #[test]
    fn duplicate_and_misaligned_registration() {
        let mut t = mtt(100);
        t.register_legacy_contiguous(MrKey(1), Gva(0), Iova(0), PAGE_4K)
            .unwrap();
        assert_eq!(
            t.register_legacy_contiguous(MrKey(1), Gva(0), Iova(0), PAGE_4K),
            Err(MttError::AlreadyRegistered(MrKey(1)))
        );
        assert_eq!(
            t.register_legacy_contiguous(MrKey(2), Gva(0x10), Iova(0), PAGE_4K),
            Err(MttError::Misaligned)
        );
        assert_eq!(
            t.register_legacy_contiguous(MrKey(2), Gva(0), Iova(0), 100),
            Err(MttError::Misaligned)
        );
    }

    #[test]
    fn scattered_entries_per_page() {
        // eMTT pages need not be physically contiguous.
        let mut t = mtt(100);
        t.register(
            MrKey(5),
            Gva(0),
            vec![
                MttEntry::Extended {
                    hpa: Hpa(0x9000),
                    owner: MemOwner::HostMem,
                },
                MttEntry::Extended {
                    hpa: Hpa(0x3000),
                    owner: MemOwner::Gpu(DeviceId(0)),
                },
            ],
        )
        .unwrap();
        let (e0, _) = t.lookup(MrKey(5), Gva(0)).unwrap();
        let (e1, _) = t.lookup(MrKey(5), Gva(PAGE_4K)).unwrap();
        assert!(matches!(e0, MttEntry::Extended { owner: MemOwner::HostMem, .. }));
        assert!(matches!(e1, MttEntry::Extended { owner: MemOwner::Gpu(_), .. }));
    }

    #[test]
    fn accounting_invariants_hold_across_register_and_lookup() {
        // The strict scope closes (reporting any violation) before the
        // counter asserts below, so a broken ledger fails with the
        // invariant's own report.
        let t = stellar_check::strict(|| {
            let mut t = mtt(100);
            t.register_legacy_contiguous(MrKey(1), Gva(0), Iova(0), 2 * PAGE_4K)
                .unwrap();
            t.register_extended_contiguous(
                MrKey(2),
                Gva(0x100000),
                Hpa(0xA000),
                PAGE_4K,
                MemOwner::HostMem,
            )
            .unwrap();
            t.lookup(MrKey(1), Gva(0)).unwrap();
            assert!(t.lookup(MrKey(9), Gva(0)).is_err());
            t.check_invariants(stellar_sim::SimTime::ZERO);
            t
        });
        assert_eq!(t.used_entries(), 3);
        assert_eq!(t.counters(), (2, 1));
    }
}
