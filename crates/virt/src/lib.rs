//! # stellar-virt — host virtualization substrate
//!
//! The host-side machinery of the paper's Sections 2–5:
//!
//! * [`hypervisor`] — the RunD microVM hypervisor: guest RAM layout
//!   (GPA→HPA extents), device-register EPT mappings (the 4 KiB vDB
//!   entries), and translation for both.
//! * [`vfio`] — the legacy VFIO path: the *pin-everything-up-front*
//!   behaviour responsible for minute-long container start-up (Problem ②,
//!   Fig. 6 "w/o PVDMA").
//! * [`pvdma`] — Stellar's Para-Virtualized DMA: on-demand 2 MiB-granular
//!   pinning with a map cache, including a faithful model of the Fig. 5
//!   doorbell-aliasing bug and its virtio-shm fix.
//! * [`virtio`] — the virtio shared-memory (shm) region that gives the vDB
//!   an address space disjoint from guest RAM.
//! * [`rund`] — the RunD secure-container lifecycle: boot-time model
//!   combining microVM creation, device attach, and the chosen memory
//!   strategy (full pin vs. PVDMA).

#![warn(missing_docs)]

pub mod hypervisor;
pub mod pvdma;
pub mod rund;
pub mod vfio;
pub mod virtio;

pub use hypervisor::{GuestRam, Hypervisor, TranslateKind};
pub use pvdma::{Pvdma, PvdmaConfig, PvdmaError};
pub use rund::{BootReport, MemoryStrategy, RundConfig, RundContainer};
pub use vfio::{Vfio, VfioError};
pub use virtio::{ShmRegion, VirtioError};
