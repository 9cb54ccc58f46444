//! The virtio shared-memory (shm) region.
//!
//! vStellar's control path runs over virtio: the guest posts control
//! requests (QP creation, MR registration, ...) that the host intercepts;
//! `stellar-core` charges their round trips as latency.
//!
//! [`ShmRegion`] models the virtio shared-memory region feature the paper
//! uses to fix the Fig. 5 bug: an I/O window **disjoint from guest RAM**
//! into which the host maps device pages (the vDB). Because shm offsets
//! are not GPAs, PVDMA's 2 MiB RAM blocks can never swallow a doorbell
//! mapped here.

use stellar_pcie::addr::Hpa;

/// Virtio framework errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VirtioError {
    /// The shm window is exhausted or the offset is out of bounds.
    ShmOutOfSpace,
    /// Shm offset not mapped.
    ShmUnmapped(u64),
}

impl std::fmt::Display for VirtioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VirtioError::ShmOutOfSpace => write!(f, "shm region exhausted"),
            VirtioError::ShmUnmapped(off) => write!(f, "shm offset {off:#x} unmapped"),
        }
    }
}

impl std::error::Error for VirtioError {}

/// A virtio shared-memory region: a window of device-visible offsets,
/// disjoint from guest RAM, into which the host maps device pages.
#[derive(Debug)]
pub struct ShmRegion {
    len: u64,
    page_size: u64,
    maps: Vec<(u64, Hpa)>, // (offset, hpa), page-granular
}

impl ShmRegion {
    /// A region of `len` bytes with `page_size`-granular mappings.
    pub fn new(len: u64, page_size: u64) -> Self {
        assert!(page_size.is_power_of_two(), "page size must be a power of two");
        ShmRegion {
            len,
            page_size,
            maps: Vec::new(),
        }
    }

    /// Map one device page at the next free offset; returns the offset.
    pub fn map_page(&mut self, hpa: Hpa) -> Result<u64, VirtioError> {
        let offset = self.maps.len() as u64 * self.page_size;
        if offset + self.page_size > self.len {
            return Err(VirtioError::ShmOutOfSpace);
        }
        self.maps.push((offset, hpa));
        Ok(offset)
    }

    /// Resolve an shm offset to the backing device page.
    pub fn translate(&self, offset: u64) -> Result<Hpa, VirtioError> {
        let base = offset & !(self.page_size - 1);
        self.maps
            .iter()
            .find(|&&(o, _)| o == base)
            .map(|&(_, hpa)| Hpa(hpa.0 + (offset - base)))
            .ok_or(VirtioError::ShmUnmapped(offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_pcie::addr::PAGE_4K;

    #[test]
    fn shm_map_translate() {
        let mut shm = ShmRegion::new(4 * PAGE_4K, PAGE_4K);
        let off = shm.map_page(Hpa(0x2000_0000)).unwrap();
        assert_eq!(off, 0);
        assert_eq!(shm.translate(off + 0x10).unwrap(), Hpa(0x2000_0010));
        let off2 = shm.map_page(Hpa(0x2000_1000)).unwrap();
        assert_eq!(off2, PAGE_4K);
        assert_eq!(shm.translate(off2).unwrap(), Hpa(0x2000_1000));
        assert_eq!(
            shm.translate(2 * PAGE_4K),
            Err(VirtioError::ShmUnmapped(2 * PAGE_4K))
        );
    }

    #[test]
    fn shm_window_is_bounded() {
        let mut shm = ShmRegion::new(PAGE_4K, PAGE_4K);
        shm.map_page(Hpa(0x1000)).unwrap();
        assert_eq!(shm.map_page(Hpa(0x2000)), Err(VirtioError::ShmOutOfSpace));
    }
}
