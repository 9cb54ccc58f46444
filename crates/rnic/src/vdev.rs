//! Virtual device management: SR-IOV VFs and vStellar devices.
//!
//! Two generations of RDMA virtualization coexist in the paper:
//!
//! * **SR-IOV VFs** (the legacy path). The count is static: it can only be
//!   toggled between zero and a target value with a full reset (Problem ①),
//!   each VF burns its own PCIe BDF (stressing switch LUTs, Problem ③) and
//!   claims "63 virtual queues of 5000 MTU messages each, consuming 2.4 GB
//!   of memory in total".
//! * **vStellar devices** — the paper's contribution: created in ~1.5 s,
//!   destroyed in seconds, share the parent's BDF, minimal memory, up to
//!   64 k per RNIC.

use stellar_sim::SimDuration;

/// Virtual device kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VdevKind {
    /// SR-IOV Virtual Function.
    Vf,
    /// vStellar para-virtual RDMA device.
    VStellar,
}

/// Identifier of a virtual device on one RNIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VdevId(pub u32);

/// Maximum SR-IOV VFs the silicon supports.
const MAX_VFS: usize = 63;
/// Maximum vStellar devices ("up to 64k virtual devices").
pub const MAX_VSTELLAR: usize = 65_536;
/// Host memory consumed per enabled VF (63 queues × 5000-MTU messages
/// ≈ 2.4 GB).
pub const VF_MEMORY_BYTES: u64 = 2_400_000_000;
/// Host memory per vStellar device (standalone registers only).
const VSTELLAR_MEMORY_BYTES: u64 = 1024 * 1024;
/// Full-reset time required to change the VF count (driver unload,
/// firmware reconfiguration, driver reload).
const VF_RECONFIGURE_TIME: SimDuration = SimDuration::from_secs(45);
/// Creation time of one vStellar device ("1.5 seconds, matching the
/// performance of MasQ").
const VSTELLAR_CREATE_TIME: SimDuration = SimDuration::from_millis(1_500);

/// Virtual device management errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VdevError {
    /// Attempt to change the VF count between two non-zero values without
    /// first resetting to zero (Problem ①).
    VfCountLocked {
        /// Currently enabled count.
        current: usize,
    },
    /// Requested count exceeds the silicon limit.
    LimitExceeded {
        /// The limit that applies.
        limit: usize,
    },
    /// VFs cannot be reset to zero while any are still attached to a
    /// container.
    VfsInUse,
    /// Unknown device.
    Unknown(VdevId),
}

impl std::fmt::Display for VdevError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VdevError::VfCountLocked { current } => write!(
                f,
                "VF count is static ({current} enabled); reset to zero before changing it"
            ),
            VdevError::LimitExceeded { limit } => write!(f, "device limit {limit} exceeded"),
            VdevError::VfsInUse => write!(f, "cannot reset VFs while attached"),
            VdevError::Unknown(id) => write!(f, "unknown virtual device {id:?}"),
        }
    }
}

impl std::error::Error for VdevError {}

/// A live virtual device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vdev {
    /// Identifier.
    pub id: VdevId,
    /// Kind.
    pub kind: VdevKind,
    /// Whether a container currently owns it.
    pub attached: bool,
}

/// Manages the virtual devices of one RNIC.
#[derive(Debug, Default)]
pub struct VdevManager {
    next_id: u32,
    vfs: Vec<Vdev>,
    vstellar: Vec<Vdev>,
}

impl VdevManager {
    /// A manager with no devices enabled.
    pub fn new() -> Self {
        VdevManager::default()
    }

    fn fresh_id(&mut self) -> VdevId {
        let id = VdevId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Set the SR-IOV VF count. Only `0 → n` and `n → 0` transitions are
    /// legal, and both cost a full reset. Returns the reset time.
    pub fn set_vf_count(&mut self, count: usize) -> Result<SimDuration, VdevError> {
        if count > MAX_VFS {
            return Err(VdevError::LimitExceeded { limit: MAX_VFS });
        }
        if !self.vfs.is_empty() && count != 0 {
            return Err(VdevError::VfCountLocked {
                current: self.vfs.len(),
            });
        }
        if count == 0 && self.vfs.iter().any(|v| v.attached) {
            return Err(VdevError::VfsInUse);
        }
        self.vfs.clear();
        for _ in 0..count {
            let id = self.fresh_id();
            self.vfs.push(Vdev {
                id,
                kind: VdevKind::Vf,
                attached: false,
            });
        }
        Ok(VF_RECONFIGURE_TIME)
    }

    /// Create one vStellar device. Returns `(id, creation_time)`.
    pub fn create_vstellar(&mut self) -> Result<(VdevId, SimDuration), VdevError> {
        if self.vstellar.len() >= MAX_VSTELLAR {
            return Err(VdevError::LimitExceeded {
                limit: MAX_VSTELLAR,
            });
        }
        let id = self.fresh_id();
        self.vstellar.push(Vdev {
            id,
            kind: VdevKind::VStellar,
            attached: false,
        });
        Ok((id, VSTELLAR_CREATE_TIME))
    }

    /// Destroy a vStellar device (VFs can only be removed in bulk via
    /// [`VdevManager::set_vf_count`]).
    pub fn destroy(&mut self, id: VdevId) -> Result<(), VdevError> {
        let pos = self.vstellar.iter().position(|v| v.id == id);
        self.vstellar.remove(pos.ok_or(VdevError::Unknown(id))?);
        Ok(())
    }

    /// Mark a device attached to / detached from a container.
    pub fn set_attached(&mut self, id: VdevId, attached: bool) -> Result<(), VdevError> {
        for list in [&mut self.vfs, &mut self.vstellar] {
            if let Some(v) = list.iter_mut().find(|v| v.id == id) {
                v.attached = attached;
                return Ok(());
            }
        }
        Err(VdevError::Unknown(id))
    }

    /// Look up a device.
    pub fn get(&self, id: VdevId) -> Option<Vdev> {
        [&self.vfs, &self.vstellar]
            .into_iter()
            .flatten()
            .find(|v| v.id == id)
            .copied()
    }

    /// Count of live devices of each kind `(vfs, vstellar)`.
    pub fn counts(&self) -> (usize, usize) {
        (self.vfs.len(), self.vstellar.len())
    }

    /// Total host memory consumed by virtual device state.
    pub fn memory_bytes(&self) -> u64 {
        self.vfs.len() as u64 * VF_MEMORY_BYTES + self.vstellar.len() as u64 * VSTELLAR_MEMORY_BYTES
    }

    /// PCIe BDFs consumed beyond the PF: one per VF; vStellar devices
    /// share the parent's BDF (the property that sidesteps the
    /// switch LUT limit).
    pub fn extra_bdfs(&self) -> usize {
        self.vfs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> VdevManager {
        VdevManager::new()
    }

    #[test]
    fn vf_count_is_static_between_nonzero_values() {
        let mut m = mgr();
        m.set_vf_count(2).unwrap();
        // 2 -> 3 directly is illegal (Problem ①).
        assert_eq!(
            m.set_vf_count(3),
            Err(VdevError::VfCountLocked { current: 2 })
        );
        // Must reset to zero first, then reconfigure.
        m.set_vf_count(0).unwrap();
        m.set_vf_count(3).unwrap();
        assert_eq!(m.counts().0, 3);
    }

    #[test]
    fn vf_reset_blocked_while_attached() {
        let mut m = mgr();
        m.set_vf_count(2).unwrap();
        let vf = m.get(VdevId(0)).unwrap();
        m.set_attached(vf.id, true).unwrap();
        assert_eq!(m.set_vf_count(0), Err(VdevError::VfsInUse));
        m.set_attached(vf.id, false).unwrap();
        m.set_vf_count(0).unwrap();
    }

    #[test]
    fn vf_memory_overhead_matches_paper() {
        let mut m = mgr();
        m.set_vf_count(8).unwrap();
        // 8 VFs × 2.4 GB = 19.2 GB: "a formidable memory overhead".
        assert_eq!(m.memory_bytes(), 8 * 2_400_000_000);
        assert_eq!(m.extra_bdfs(), 8);
    }

    #[test]
    fn vstellar_scales_to_64k() {
        let mut m = mgr();
        for _ in 0..1000 {
            m.create_vstellar().unwrap();
        }
        assert_eq!(m.counts().1, 1000);
        // 1000 devices ≈ 1 GB, vs 2.4 TB for 1000 VFs.
        assert_eq!(m.memory_bytes(), 1000 * 1024 * 1024);
        assert_eq!(m.extra_bdfs(), 0);
        assert_eq!(MAX_VSTELLAR, 65_536);
    }

    #[test]
    fn vstellar_creation_takes_1_5s() {
        let mut m = mgr();
        let (_, t) = m.create_vstellar().unwrap();
        assert_eq!(t, SimDuration::from_millis(1_500));
    }

    #[test]
    fn limits_are_enforced() {
        let mut m = mgr();
        assert_eq!(
            m.set_vf_count(64),
            Err(VdevError::LimitExceeded { limit: 63 })
        );
        m.set_vf_count(63).unwrap();
        for _ in 0..65_536 {
            m.create_vstellar().unwrap();
        }
        assert_eq!(
            m.create_vstellar(),
            Err(VdevError::LimitExceeded { limit: 65_536 })
        );
    }

    #[test]
    fn destroy_unknown_fails() {
        let mut m = mgr();
        assert_eq!(m.destroy(VdevId(42)), Err(VdevError::Unknown(VdevId(42))));
    }
}
