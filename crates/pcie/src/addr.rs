//! Typed addresses for the memory-mapping hierarchy of Fig. 1(a).
//!
//! Five distinct address spaces appear in the paper's translation chain:
//!
//! * [`Gva`] — Guest Virtual Address: what an application inside a RunD
//!   container uses.
//! * [`Gpa`] — Guest Physical Address: what the guest kernel believes is
//!   physical; interpreted by the host as an HVA.
//! * [`Hva`] — Host Virtual Address: the host-process view.
//! * [`Hpa`] — Host Physical Address: real DRAM / device-BAR addresses;
//!   the only space the PCIe fabric routes on.
//! * [`Iova`] — I/O Virtual Address (the paper's "Device Address", DA):
//!   what a device emits before IOMMU translation.
//!
//! Each is a `u64` newtype so the compiler rejects cross-space confusion —
//! the class of bug behind the paper's Fig. 5 PVDMA aliasing incident.

use core::fmt;


/// 4 KiB page size (device-register granularity, GDR worst case in Fig. 8).
pub const PAGE_4K: u64 = 4 * 1024;
/// 2 MiB page size (PVDMA's pinning granularity, Section 5).
pub const PAGE_2M: u64 = 2 * 1024 * 1024;

/// Common behaviour of all typed addresses.
pub trait Address: Copy + Eq + Ord + fmt::Debug {
    /// Wrap a raw 64-bit address.
    fn new(raw: u64) -> Self;
    /// The raw 64-bit address.
    fn raw(self) -> u64;

    /// The page base containing this address for the given page size.
    fn page_base(self, page_size: u64) -> Self {
        Self::new(self.raw() & !(page_size - 1))
    }

    /// Offset within the page of the given size.
    fn page_offset(self, page_size: u64) -> u64 {
        self.raw() & (page_size - 1)
    }

    /// Whether this address is aligned to `page_size`.
    fn is_aligned(self, page_size: u64) -> bool {
        self.raw().is_multiple_of(page_size)
    }

    /// This address advanced by `bytes`.
    fn add(self, bytes: u64) -> Self {
        Self::new(self.raw() + bytes)
    }
}

macro_rules! address_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(pub u64);

        impl Address for $name {
            fn new(raw: u64) -> Self {
                $name(raw)
            }
            fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, ":{:#x}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(self, f)
            }
        }
    };
}

address_type!(
    /// Guest Virtual Address — application addresses inside a RunD container.
    Gva,
    "GVA"
);
address_type!(
    /// Guest Physical Address — "physical" from the guest's point of view.
    Gpa,
    "GPA"
);
address_type!(
    /// Host Virtual Address — host-process addresses; a GPA *is* an HVA to
    /// the host OS.
    Hva,
    "HVA"
);
address_type!(
    /// Host Physical Address — real DRAM or device-BAR addresses.
    Hpa,
    "HPA"
);
address_type!(
    /// I/O Virtual Address — the paper's Device Address (DA); what a PCIe
    /// device emits before IOMMU translation.
    Iova,
    "IOVA"
);

/// A PCIe Bus/Device/Function identifier.
///
/// Each physical or SR-IOV virtual function occupies one BDF; the PCIe
/// switch LUT (Problem ③) holds a bounded number of them. vStellar
/// devices *share* their parent's BDF, which is exactly how they sidestep
/// the LUT limit.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdf {
    /// Bus number.
    pub bus: u8,
    /// Device number (5 bits on real hardware).
    pub device: u8,
    /// Function number (3 bits on real hardware).
    pub function: u8,
}

impl Bdf {
    /// Construct a BDF.
    pub const fn new(bus: u8, device: u8, function: u8) -> Self {
        Bdf {
            bus,
            device,
            function,
        }
    }
}

impl fmt::Debug for Bdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}:{:02x}.{:x}", self.bus, self.device, self.function)
    }
}

impl fmt::Display for Bdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A half-open `[base, base+len)` range in some address space, used for
/// BARs and memory regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range<A> {
    /// First address in the range.
    pub base: A,
    /// Length in bytes.
    pub len: u64,
}

impl<A: Address> Range<A> {
    /// Construct a range.
    pub fn new(base: A, len: u64) -> Self {
        Range { base, len }
    }

    /// Whether `addr` falls inside the range.
    pub fn contains(&self, addr: A) -> bool {
        addr.raw() >= self.base.raw() && addr.raw() < self.base.raw() + self.len
    }

    /// One past the last address.
    pub fn end(&self) -> u64 {
        self.base.raw() + self.len
    }

    /// Whether two ranges overlap.
    pub fn overlaps(&self, other: &Range<A>) -> bool {
        self.base.raw() < other.end() && other.base.raw() < self.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_math() {
        let a = Gva(0x20_1234);
        assert_eq!(a.page_base(PAGE_4K), Gva(0x20_1000));
        assert_eq!(a.page_offset(PAGE_4K), 0x234);
        assert!(!a.is_aligned(PAGE_4K));
        assert!(Gva(0x20_0000).is_aligned(PAGE_2M));
        assert_eq!(a.add(0x10), Gva(0x20_1244));
    }

    #[test]
    fn bdf_formatting() {
        let bdf = Bdf::new(0x3a, 0x00, 0x2);
        assert_eq!(format!("{bdf}"), "3a:00.2");
    }

    #[test]
    fn range_contains_and_overlaps() {
        let r = Range::new(Hpa(0x1000), 0x1000);
        assert!(r.contains(Hpa(0x1000)));
        assert!(r.contains(Hpa(0x1fff)));
        assert!(!r.contains(Hpa(0x2000)));
        assert!(r.overlaps(&Range::new(Hpa(0x1800), 0x1000)));
        assert!(!r.overlaps(&Range::new(Hpa(0x2000), 0x1000)));
        assert!(!r.overlaps(&Range::new(Hpa(0x0), 0x1000)));
    }

    #[test]
    fn typed_debug_output() {
        assert_eq!(format!("{:?}", Gva(0x10)), "GVA:0x10");
        assert_eq!(format!("{:?}", Hpa(0x10)), "HPA:0x10");
        assert_eq!(format!("{:?}", Iova(0x10)), "IOVA:0x10");
    }
}
