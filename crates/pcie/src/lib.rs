//! # stellar-pcie — PCIe subsystem and memory-translation substrate
//!
//! Models the hardware the paper's Section 2 describes (Fig. 1):
//!
//! * [`addr`] — the typed address spaces of the memory-mapping hierarchy:
//!   GVA → GPA → HPA on the CPU side, IOVA/DA → HPA on the device side.
//! * [`paging`] — page tables: guest PTs, host PTs, and the EPT.
//! * [`iommu`] — the IOMMU in the Root Complex: translation table, IOTLB,
//!   page pinning with a cost model (the source of the Fig. 6 start-up
//!   delay).
//! * [`ats`] — PCIe Address Translation Services and the device-side
//!   Address Translation Cache whose capacity misses produce the Fig. 8
//!   bandwidth cliff.
//! * [`topology`] — the PCIe fabric: Root Complex, switches with bounded
//!   LUTs (Problem ③), BDFs, BARs, and TLP routing including the AT-field
//!   fast path that eMTT exploits (Fig. 7).
//!
//! Everything is a functional model with explicit latency accounting: a
//! routed TLP returns the simulated time it cost, and every cache keeps
//! hit/miss counters so the experiment harnesses can report the same
//! quantities the paper measured with Neohost / pcm-iio.

#![warn(missing_docs)]

pub mod addr;
pub mod ats;
pub mod iommu;
pub mod paging;
pub mod topology;

pub use addr::{Bdf, Gpa, Gva, Hpa, Hva, Iova, PAGE_2M, PAGE_4K};
pub use ats::{Atc, AtcConfig};
pub use iommu::{Iommu, IommuConfig};
pub use paging::{Ept, GuestPageTable, HostPageTable, PageTable, PagingError};
pub use topology::{
    AtField, DeviceKind, Fabric, FabricError, PcieDevice, RouteOutcome, SwitchId, Tlp, TlpKind,
};
