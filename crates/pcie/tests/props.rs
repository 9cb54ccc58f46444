//! Property tests for page tables, the IOMMU, and the ATC.

use stellar_pcie::addr::{Gva, Hpa, Iova, PAGE_4K};
use stellar_pcie::ats::{Atc, AtcConfig};
use stellar_pcie::iommu::{Iommu, IommuConfig};
use stellar_pcie::paging::{GuestPageTable, PageTable};
use stellar_pcie::Gpa;
use stellar_sim::proptest_lite::check;

/// map → translate roundtrip at arbitrary in-page offsets.
#[test]
fn page_table_roundtrip() {
    check("page_table_roundtrip", 256, |g| {
        let pages = g.u64(1, 64);
        let from_page = g.u64(0, 1000);
        let to_page = g.u64(0, 1000);
        let offset = g.u64(0, PAGE_4K);
        let mut pt = GuestPageTable::new(PAGE_4K);
        let from = Gva(from_page * PAGE_4K);
        let to = Gpa(to_page * PAGE_4K);
        pt.map(from, to, pages * PAGE_4K).unwrap();
        for i in 0..pages {
            let q = Gva(from.0 + i * PAGE_4K + offset);
            let got = pt.translate(q).unwrap();
            assert_eq!(got, Gpa(to.0 + i * PAGE_4K + offset));
        }
        // One page past the end never translates.
        assert!(pt.translate(Gva(from.0 + pages * PAGE_4K)).is_err());
    });
}

/// Unmap removes exactly the region, leaving disjoint mappings alone.
#[test]
fn unmap_is_precise() {
    check("unmap_is_precise", 64, |g| {
        let gap = g.u64(1, 16);
        let mut pt: PageTable<Gva, Gpa> = PageTable::new(PAGE_4K);
        let a = Gva(0);
        let b = Gva((4 + gap) * PAGE_4K);
        pt.map(a, Gpa(0x10_0000), 4 * PAGE_4K).unwrap();
        pt.map(b, Gpa(0x20_0000), 4 * PAGE_4K).unwrap();
        pt.unmap(a, 4 * PAGE_4K).unwrap();
        assert!(pt.translate(a).is_err());
        assert!(pt.translate(b).is_ok());
        assert_eq!(pt.mapped_pages(), 4);
    });
}

/// IOMMU translations are stable across IOTLB hits and misses, and
/// invalidation on unmap is complete (no stale positives).
#[test]
fn iommu_iotlb_coherence() {
    check("iommu_iotlb_coherence", 256, |g| {
        let pages = g.u64(1, 32);
        let capacity = g.usize(1, 16);
        let queries = g.vec(1, 100, |g| g.u64(0, 32));
        let mut iommu = Iommu::new(IommuConfig {
            iotlb_capacity: capacity,
            ..IommuConfig::default()
        });
        iommu.map(Iova(0), Hpa(0x50_0000), pages * PAGE_4K).unwrap();
        for &q in &queries {
            let iova = Iova(q * PAGE_4K);
            let r = iommu.translate(iova);
            if q < pages {
                assert_eq!(r.unwrap().hpa, Hpa(0x50_0000 + q * PAGE_4K));
            } else {
                assert!(r.is_err());
            }
        }
        iommu.unmap(Iova(0), pages * PAGE_4K).unwrap();
        for q in 0..pages {
            assert!(iommu.translate(Iova(q * PAGE_4K)).is_err());
        }
    });
}

/// The ATC never returns a translation that disagrees with the IOMMU.
#[test]
fn atc_is_coherent_with_iommu() {
    check("atc_is_coherent_with_iommu", 256, |g| {
        let capacity = g.usize(1, 8);
        let queries = g.vec(1, 200, |g| g.u64(0, 16));
        let mut iommu = Iommu::new(IommuConfig::default());
        iommu.map(Iova(0), Hpa(0x90_0000), 16 * PAGE_4K).unwrap();
        let mut atc = Atc::new(AtcConfig { capacity });
        for &q in &queries {
            let iova = Iova(q * PAGE_4K + (q % 7) * 8);
            let via_atc = atc.translate(iova, &mut iommu).unwrap().hpa;
            let direct = iommu.translate(iova).unwrap().hpa;
            assert_eq!(via_atc, direct);
        }
    });
}
