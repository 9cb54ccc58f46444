//! Doorbell register allocation in the RNIC's BAR.
//!
//! Each virtual device gets a 4 KiB-aligned doorbell page inside the RNIC
//! BAR. The 4 KiB granularity is deliberate — §5 explains that doorbells
//! stay at 4 KiB "to reduce hardware resource waste", which is precisely
//! what collides with PVDMA's 2 MiB granularity in the Fig. 5 aliasing bug.

use std::collections::HashMap;

use stellar_pcie::addr::{Hpa, Range, PAGE_4K};

use crate::vdev::VdevId;

/// Identifier of an allocated doorbell page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DoorbellId(pub u32);

/// Allocates doorbell pages out of the RNIC BAR window.
#[derive(Debug)]
pub struct DoorbellTable {
    bar: Range<Hpa>,
    next_offset: u64,
    free: Vec<u64>,
    by_vdev: HashMap<VdevId, (DoorbellId, u64)>,
    next_id: u32,
}

/// Doorbell allocation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoorbellError {
    /// BAR window exhausted.
    BarExhausted,
    /// Device already holds a doorbell.
    AlreadyAllocated(VdevId),
    /// No doorbell for this device.
    NotAllocated(VdevId),
}

impl std::fmt::Display for DoorbellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DoorbellError::BarExhausted => write!(f, "RNIC BAR doorbell space exhausted"),
            DoorbellError::AlreadyAllocated(v) => write!(f, "{v:?} already has a doorbell"),
            DoorbellError::NotAllocated(v) => write!(f, "{v:?} has no doorbell"),
        }
    }
}

impl std::error::Error for DoorbellError {}

impl DoorbellTable {
    /// A table carving doorbells from `bar`.
    pub fn new(bar: Range<Hpa>) -> Self {
        DoorbellTable {
            bar,
            next_offset: 0,
            free: Vec::new(),
            by_vdev: HashMap::new(),
            next_id: 0,
        }
    }

    /// Allocate a 4 KiB doorbell page for `vdev`; returns its HPA.
    pub fn allocate(&mut self, vdev: VdevId) -> Result<(DoorbellId, Hpa), DoorbellError> {
        if self.by_vdev.contains_key(&vdev) {
            return Err(DoorbellError::AlreadyAllocated(vdev));
        }
        let offset = if let Some(off) = self.free.pop() {
            off
        } else {
            let off = self.next_offset;
            if off + PAGE_4K > self.bar.len {
                return Err(DoorbellError::BarExhausted);
            }
            self.next_offset += PAGE_4K;
            off
        };
        let id = DoorbellId(self.next_id);
        self.next_id += 1;
        self.by_vdev.insert(vdev, (id, offset));
        Ok((id, Hpa(self.bar.base.0 + offset)))
    }

    /// Release `vdev`'s doorbell page.
    pub fn release(&mut self, vdev: VdevId) -> Result<(), DoorbellError> {
        let (_, offset) = self
            .by_vdev
            .remove(&vdev)
            .ok_or(DoorbellError::NotAllocated(vdev))?;
        self.free.push(offset);
        Ok(())
    }

    /// Doorbell pages in use.
    pub fn allocated(&self) -> usize {
        self.by_vdev.len()
    }

    /// `(allocations, releases)` so far: every allocation took the next
    /// id, and every release freed one page still held.
    pub fn churn(&self) -> (u64, u64) {
        let allocs = u64::from(self.next_id);
        (allocs, allocs - self.by_vdev.len() as u64)
    }

    /// Run the doorbell accounting invariant at a quiesce point: every page
    /// ever carved from the BAR is either held by a vdev or on the free
    /// list (no-op unless a `stellar_check` scope is active).
    pub fn check_invariants(&self, at: stellar_sim::SimTime) {
        stellar_check::at_quiesce(at, stellar_check::Layer::Rnic, |c| {
            let carved = (self.next_offset / PAGE_4K) as usize;
            c.check(
                "rnic.doorbell_accounting",
                self.by_vdev.len() + self.free.len() == carved,
                || {
                    format!(
                        "allocated {} + free {} != carved pages {}",
                        self.by_vdev.len(),
                        self.free.len(),
                        carved
                    )
                },
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(pages: u64) -> DoorbellTable {
        DoorbellTable::new(Range::new(Hpa(0x2000_0000), pages * PAGE_4K))
    }

    #[test]
    fn allocates_distinct_4k_pages() {
        let mut t = table(4);
        let (_, a) = t.allocate(VdevId(0)).unwrap();
        let (_, b) = t.allocate(VdevId(1)).unwrap();
        assert_ne!(a, b);
        assert_eq!(a, Hpa(0x2000_0000));
        assert_eq!(b, Hpa(0x2000_1000));
        assert_eq!(t.allocated(), 2);
    }

    #[test]
    fn release_recycles_pages() {
        let mut t = table(1);
        t.allocate(VdevId(0)).unwrap();
        assert_eq!(t.allocate(VdevId(1)), Err(DoorbellError::BarExhausted));
        t.release(VdevId(0)).unwrap();
        let (_, hpa) = t.allocate(VdevId(1)).unwrap();
        assert_eq!(hpa, Hpa(0x2000_0000));
    }

    #[test]
    fn double_allocate_and_bad_release() {
        let mut t = table(2);
        t.allocate(VdevId(0)).unwrap();
        assert_eq!(
            t.allocate(VdevId(0)),
            Err(DoorbellError::AlreadyAllocated(VdevId(0)))
        );
        assert_eq!(
            t.release(VdevId(5)),
            Err(DoorbellError::NotAllocated(VdevId(5)))
        );
    }

    #[test]
    fn accounting_invariant_holds_across_alloc_and_release() {
        stellar_check::strict(|| {
            let mut t = table(4);
            t.allocate(VdevId(0)).unwrap();
            t.allocate(VdevId(1)).unwrap();
            t.release(VdevId(0)).unwrap();
            // Recycles the freed page rather than carving a new one.
            t.allocate(VdevId(2)).unwrap();
            t.check_invariants(stellar_sim::SimTime::ZERO);
            assert_eq!(t.allocated(), 2);
        });
    }
}
