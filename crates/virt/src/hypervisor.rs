//! The RunD microVM hypervisor: guest memory layout and EPT management.
//!
//! Guest RAM is tracked as contiguous GPA→HPA *extents* (not materialized
//! 4 KiB page-table entries — a 1.6 TB guest would need 400 M entries),
//! while device-register mappings (the vDB) use a real 4 KiB-granular EPT,
//! because their page-level behaviour is exactly what the Fig. 5 bug is
//! about.

use stellar_pcie::addr::{Gpa, Hpa, PAGE_4K};
use stellar_pcie::paging::Ept;
use stellar_sim::SimDuration;

/// MicroVM creation time excluding memory work (kernel boot, device
/// model setup).
const MICROVM_BASE_BOOT: SimDuration = SimDuration::from_millis(6_500);
/// General hypervisor overhead per GiB of configured guest memory
/// (memory-map setup, balloon init — what makes the PVDMA curve in Fig. 6
/// rise mildly from 160 GB to 1.6 TB).
const PER_GIB_OVERHEAD: SimDuration = SimDuration::from_micros(7_700);

/// What kind of mapping backs a translated GPA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateKind {
    /// Ordinary guest RAM.
    Ram,
    /// A device register directly mapped into the guest (e.g. the vDB).
    DeviceRegister,
}

#[derive(Debug, Clone, Copy)]
struct Extent {
    gpa: u64,
    hpa: u64,
    len: u64,
}

/// Guest RAM layout: sorted, non-overlapping GPA→HPA extents.
#[derive(Debug, Default, Clone)]
pub struct GuestRam {
    extents: Vec<Extent>,
}

impl GuestRam {
    /// An empty layout.
    pub fn new() -> Self {
        GuestRam::default()
    }

    /// Add an extent. Returns `false` (and changes nothing) on overlap
    /// with an existing extent.
    pub fn add(&mut self, gpa: Gpa, hpa: Hpa, len: u64) -> bool {
        let new = Extent {
            gpa: gpa.0,
            hpa: hpa.0,
            len,
        };
        if self
            .extents
            .iter()
            .any(|e| e.gpa < new.gpa + new.len && new.gpa < e.gpa + e.len)
        {
            return false;
        }
        let pos = self.extents.partition_point(|e| e.gpa < new.gpa);
        self.extents.insert(pos, new);
        true
    }

    /// Translate a GPA inside RAM.
    pub fn translate(&self, gpa: Gpa) -> Option<Hpa> {
        let idx = self.extents.partition_point(|e| e.gpa <= gpa.0);
        let e = self.extents.get(idx.checked_sub(1)?)?;
        if gpa.0 < e.gpa + e.len {
            Some(Hpa(e.hpa + (gpa.0 - e.gpa)))
        } else {
            None
        }
    }

    /// Total RAM bytes.
    pub fn total_bytes(&self) -> u64 {
        self.extents.iter().map(|e| e.len).sum()
    }

    /// Iterate `(gpa, hpa, len)` extents in GPA order.
    pub fn extents(&self) -> impl Iterator<Item = (Gpa, Hpa, u64)> + '_ {
        self.extents.iter().map(|e| (Gpa(e.gpa), Hpa(e.hpa), e.len))
    }
}

/// The per-container hypervisor instance.
#[derive(Debug)]
pub struct Hypervisor {
    ram: GuestRam,
    dev_ept: Ept,
}

impl Hypervisor {
    /// A hypervisor with no guest memory configured.
    pub fn new() -> Self {
        Hypervisor {
            ram: GuestRam::new(),
            dev_ept: Ept::new(PAGE_4K),
        }
    }

    /// Configure `len` bytes of guest RAM at `gpa`, backed by host memory
    /// at `hpa`.
    ///
    /// # Panics
    /// Panics on overlap with existing RAM — layout construction is
    /// program-controlled, so an overlap is a harness bug.
    pub fn add_ram(&mut self, gpa: Gpa, hpa: Hpa, len: u64) {
        assert!(self.ram.add(gpa, hpa, len), "guest RAM extents overlap");
    }

    /// Map a 4 KiB device register (e.g. the RNIC doorbell) into the guest
    /// at `gpa` — the Fig. 5 "Step 1" EPT entry.
    pub fn map_device_register(&mut self, gpa: Gpa, hpa: Hpa) {
        self.dev_ept
            .map_page_replace(gpa, hpa)
            .expect("device register must be 4 KiB aligned");
    }

    /// Release a device-register mapping (Fig. 5 "Step 4": the RDMA program
    /// exits and the vDB EPT entry goes away).
    pub fn unmap_device_register(&mut self, gpa: Gpa) {
        // Ignore double-unmap: release paths may race benignly.
        let _ = self.dev_ept.unmap(gpa, PAGE_4K);
    }

    /// Translate a GPA, reporting whether RAM or a device register backs
    /// it. Device registers take precedence (they shadow RAM holes).
    pub fn translate(&self, gpa: Gpa) -> Option<(Hpa, TranslateKind)> {
        if let Ok(hpa) = self.dev_ept.translate(gpa) {
            return Some((hpa, TranslateKind::DeviceRegister));
        }
        self.ram.translate(gpa).map(|h| (h, TranslateKind::Ram))
    }

    /// The guest RAM layout.
    pub fn ram(&self) -> &GuestRam {
        &self.ram
    }

    /// Hypervisor boot-time contribution for this guest (excludes memory
    /// pinning, which depends on the memory strategy).
    pub fn base_boot_time(&self) -> SimDuration {
        let gib = self.ram.total_bytes() / (1024 * 1024 * 1024);
        MICROVM_BASE_BOOT + PER_GIB_OVERHEAD.mul(gib)
    }
}

impl Default for Hypervisor {
    fn default() -> Self {
        Hypervisor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ram_extent_translation() {
        let mut r = GuestRam::new();
        assert!(r.add(Gpa(0x0), Hpa(0x8000_0000), 0x10_0000));
        assert!(r.add(Gpa(0x40_0000), Hpa(0xc000_0000), 0x10_0000));
        assert_eq!(r.translate(Gpa(0x1234)), Some(Hpa(0x8000_1234)));
        assert_eq!(r.translate(Gpa(0x40_0010)), Some(Hpa(0xc000_0010)));
        assert_eq!(r.translate(Gpa(0x20_0000)), None); // hole
        assert_eq!(r.translate(Gpa(0x10_0000)), None); // one past extent 0
        assert_eq!(r.total_bytes(), 0x20_0000);
    }

    #[test]
    fn overlapping_extents_rejected() {
        let mut r = GuestRam::new();
        assert!(r.add(Gpa(0x0), Hpa(0), 0x2000));
        assert!(!r.add(Gpa(0x1000), Hpa(0x10_0000), 0x2000));
        assert_eq!(r.extents().count(), 1);
    }

    #[test]
    fn unsorted_insertion_still_translates() {
        let mut r = GuestRam::new();
        assert!(r.add(Gpa(0x40_0000), Hpa(0xc000_0000), 0x1000));
        assert!(r.add(Gpa(0x0), Hpa(0x8000_0000), 0x1000));
        assert_eq!(r.translate(Gpa(0x500)), Some(Hpa(0x8000_0500)));
        assert_eq!(r.translate(Gpa(0x40_0500)), Some(Hpa(0xc000_0500)));
    }

    #[test]
    fn device_register_shadows_and_releases() {
        let mut h = Hypervisor::new();
        h.add_ram(Gpa(0), Hpa(0x8000_0000), 0x20_0000);
        h.map_device_register(Gpa(0x10_0000), Hpa(0x2000_0000)); // vDB
        assert_eq!(
            h.translate(Gpa(0x10_0004)),
            Some((Hpa(0x2000_0004), TranslateKind::DeviceRegister))
        );
        h.unmap_device_register(Gpa(0x10_0000));
        // Falls back to RAM once the register mapping is gone.
        assert_eq!(
            h.translate(Gpa(0x10_0004)),
            Some((Hpa(0x8010_0004), TranslateKind::Ram))
        );
        // Double-unmap is benign.
        h.unmap_device_register(Gpa(0x10_0000));
    }

    #[test]
    fn base_boot_time_scales_with_ram() {
        let mut small = Hypervisor::new();
        small.add_ram(Gpa(0), Hpa(0), 16 * 1024 * 1024 * 1024);
        let mut large = Hypervisor::new();
        large.add_ram(Gpa(0), Hpa(0), 1_600 * 1024 * 1024 * 1024);
        let (s, l) = (small.base_boot_time(), large.base_boot_time());
        assert!(l > s);
        // Fig. 6: even the 1.6 TB guest stays under 20 s with PVDMA.
        assert!(l < SimDuration::from_secs(20), "large boot = {l}");
    }
}
