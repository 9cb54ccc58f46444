//! RDMA verbs objects: protection domains, memory regions, queue pairs.
//!
//! vStellar's isolation story (§9) rests on the RDMA specification's
//! protection-domain rule: *a queue pair can only access a memory region if
//! both belong to the same protection domain*. This module enforces that
//! rule in the model, so cross-tenant access attempts fail the same way the
//! hardware would reject them.

use std::collections::HashMap;


use stellar_pcie::addr::Gva;

/// Protection-domain identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PdId(pub u32);

/// Memory-region key (the paper's `key=` in Fig. 7; models lkey/rkey).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MrKey(pub u32);

/// Queue-pair identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QpId(pub u32);

/// Completion-queue identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CqId(pub u32);

/// Completion status of a work request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcStatus {
    /// Success.
    Success,
    /// Remote access error (PD/bounds/permission rejection).
    RemoteAccessError,
    /// Retry limit exceeded (transport gave up).
    RetryExceeded,
}

/// One work completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkCompletion {
    /// Caller-chosen work-request id.
    pub wr_id: u64,
    /// Outcome.
    pub status: WcStatus,
    /// Bytes transferred.
    pub bytes: u64,
}

bitflags_lite::bitflags_lite! {
    /// MR access permissions.
    pub struct AccessFlags: u8 {
        /// Local read (always implied on real hardware; explicit here).
        const LOCAL_READ = 1;
        /// Local write.
        const LOCAL_WRITE = 2;
        /// Remote read.
        const REMOTE_READ = 4;
        /// Remote write.
        const REMOTE_WRITE = 8;
    }
}

// A minimal local bitflags implementation to avoid an extra dependency.
mod bitflags_lite {
    macro_rules! bitflags_lite {
        (
            $(#[$meta:meta])*
            pub struct $name:ident: $ty:ty {
                $(
                    $(#[$fmeta:meta])*
                    const $flag:ident = $value:expr;
                )*
            }
        ) => {
            $(#[$meta])*
            #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
            pub struct $name($ty);

            impl $name {
                $(
                    $(#[$fmeta])*
                    pub const $flag: $name = $name($value);
                )*

                /// No permissions.
                pub const fn empty() -> Self { $name(0) }
                /// All permissions.
                pub const fn all() -> Self { $name($($value)|*) }
                /// Whether every bit of `other` is set in `self`.
                pub const fn contains(self, other: $name) -> bool {
                    self.0 & other.0 == other.0
                }
                /// Union.
                pub const fn union(self, other: $name) -> $name {
                    $name(self.0 | other.0)
                }
            }

            impl core::ops::BitOr for $name {
                type Output = $name;
                fn bitor(self, rhs: $name) -> $name { self.union(rhs) }
            }
        };
    }
    pub(crate) use bitflags_lite;
}

/// Queue-pair state machine (subset of the IBTA states that matter here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    /// Freshly created.
    Reset,
    /// Initialized (PD and port bound).
    Init,
    /// Ready to receive.
    ReadyToReceive,
    /// Ready to send (fully connected).
    ReadyToSend,
    /// Error state; must be reset.
    Error,
}

impl QpState {
    /// Legal forward transitions (plus any-state → Error / Reset).
    fn can_transition_to(self, next: QpState) -> bool {
        use QpState::*;
        matches!(
            (self, next),
            (Reset, Init)
                | (Init, ReadyToReceive)
                | (ReadyToReceive, ReadyToSend)
                | (_, Error)
                | (_, Reset)
        )
    }
}

/// A registered memory region.
#[derive(Debug, Clone)]
pub struct MemoryRegion {
    /// Region key.
    pub key: MrKey,
    /// Owning protection domain.
    pub pd: PdId,
    /// Guest-virtual base address.
    pub base: Gva,
    /// Length in bytes.
    pub len: u64,
    /// Permissions.
    pub access: AccessFlags,
}

impl MemoryRegion {
    /// Whether `[gva, gva+len)` falls entirely inside the region.
    pub fn covers(&self, gva: Gva, len: u64) -> bool {
        gva.0 >= self.base.0 && gva.0 + len <= self.base.0 + self.len
    }
}

/// A queue pair.
#[derive(Debug, Clone)]
pub struct QueuePair {
    /// QP identifier.
    pub id: QpId,
    /// Owning protection domain.
    pub pd: PdId,
    /// Current state.
    pub state: QpState,
}

/// Verbs errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerbsError {
    /// Unknown PD.
    UnknownPd(PdId),
    /// Unknown CQ.
    UnknownCq(CqId),
    /// The CQ is full; on real hardware this is a fatal overflow that
    /// transitions dependent QPs to the error state.
    CqOverflow(CqId),
    /// Unknown MR key.
    UnknownMr(MrKey),
    /// Unknown QP.
    UnknownQp(QpId),
    /// QP and MR belong to different protection domains.
    ProtectionDomainMismatch {
        /// The QP's PD.
        qp_pd: PdId,
        /// The MR's PD.
        mr_pd: PdId,
    },
    /// The access lies outside the MR bounds.
    OutOfBounds,
    /// The MR does not grant the required permission.
    AccessDenied,
    /// Illegal QP state transition.
    BadTransition {
        /// Current state.
        from: QpState,
        /// Requested state.
        to: QpState,
    },
    /// QP is not in a state that allows posting work.
    QpNotReady(QpState),
}

impl std::fmt::Display for VerbsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerbsError::UnknownPd(pd) => write!(f, "unknown protection domain {pd:?}"),
            VerbsError::UnknownCq(cq) => write!(f, "unknown completion queue {cq:?}"),
            VerbsError::CqOverflow(cq) => write!(f, "completion queue {cq:?} overflow"),
            VerbsError::UnknownMr(k) => write!(f, "unknown memory region {k:?}"),
            VerbsError::UnknownQp(q) => write!(f, "unknown queue pair {q:?}"),
            VerbsError::ProtectionDomainMismatch { qp_pd, mr_pd } => write!(
                f,
                "protection domain mismatch: QP in {qp_pd:?}, MR in {mr_pd:?}"
            ),
            VerbsError::OutOfBounds => write!(f, "access outside memory region bounds"),
            VerbsError::AccessDenied => write!(f, "memory region access permission denied"),
            VerbsError::BadTransition { from, to } => {
                write!(f, "illegal QP transition {from:?} -> {to:?}")
            }
            VerbsError::QpNotReady(s) => write!(f, "QP not ready (state {s:?})"),
        }
    }
}

impl std::error::Error for VerbsError {}

#[derive(Debug)]
struct CompletionQueue {
    entries: std::collections::VecDeque<WorkCompletion>,
    capacity: usize,
}

/// The verbs object registry of one RNIC (or one vStellar device).
#[derive(Debug, Default)]
pub struct Verbs {
    next_pd: u32,
    next_mr: u32,
    next_qp: u32,
    next_cq: u32,
    pds: HashMap<PdId, ()>,
    mrs: HashMap<MrKey, MemoryRegion>,
    qps: HashMap<QpId, QueuePair>,
    cqs: HashMap<CqId, CompletionQueue>,
}

impl Verbs {
    /// An empty registry.
    pub fn new() -> Self {
        Verbs::default()
    }

    /// Allocate a protection domain.
    pub fn alloc_pd(&mut self) -> PdId {
        let id = PdId(self.next_pd);
        self.next_pd += 1;
        self.pds.insert(id, ());
        id
    }

    /// Register a memory region inside `pd`.
    pub fn register_mr(
        &mut self,
        pd: PdId,
        base: Gva,
        len: u64,
        access: AccessFlags,
    ) -> Result<MrKey, VerbsError> {
        if !self.pds.contains_key(&pd) {
            return Err(VerbsError::UnknownPd(pd));
        }
        let key = MrKey(self.next_mr);
        self.next_mr += 1;
        self.mrs.insert(
            key,
            MemoryRegion {
                key,
                pd,
                base,
                len,
                access,
            },
        );
        Ok(key)
    }

    /// Create a queue pair inside `pd` (state `Reset`).
    pub fn create_qp(&mut self, pd: PdId) -> Result<QpId, VerbsError> {
        if !self.pds.contains_key(&pd) {
            return Err(VerbsError::UnknownPd(pd));
        }
        let id = QpId(self.next_qp);
        self.next_qp += 1;
        self.qps.insert(
            id,
            QueuePair {
                id,
                pd,
                state: QpState::Reset,
            },
        );
        Ok(id)
    }

    /// Drive a QP through a state transition (`modify_qp`).
    pub fn modify_qp(&mut self, id: QpId, to: QpState) -> Result<(), VerbsError> {
        let qp = self.qps.get_mut(&id).ok_or(VerbsError::UnknownQp(id))?;
        if !qp.state.can_transition_to(to) {
            return Err(VerbsError::BadTransition {
                from: qp.state,
                to,
            });
        }
        qp.state = to;
        Ok(())
    }

    /// Look up an MR.
    pub fn mr(&self, key: MrKey) -> Result<&MemoryRegion, VerbsError> {
        self.mrs.get(&key).ok_or(VerbsError::UnknownMr(key))
    }

    /// Look up a QP.
    pub fn qp(&self, id: QpId) -> Result<&QueuePair, VerbsError> {
        self.qps.get(&id).ok_or(VerbsError::UnknownQp(id))
    }

    /// Create a completion queue of `capacity` entries.
    pub fn create_cq(&mut self, capacity: usize) -> CqId {
        assert!(capacity > 0, "CQ capacity must be positive");
        let id = CqId(self.next_cq);
        self.next_cq += 1;
        self.cqs.insert(
            id,
            CompletionQueue {
                entries: std::collections::VecDeque::new(),
                capacity,
            },
        );
        id
    }

    /// Push a work completion onto `cq` (the RNIC pipeline does this when
    /// a work request finishes).
    pub fn post_completion(
        &mut self,
        cq: CqId,
        wc: WorkCompletion,
    ) -> Result<(), VerbsError> {
        let q = self.cqs.get_mut(&cq).ok_or(VerbsError::UnknownCq(cq))?;
        if q.entries.len() >= q.capacity {
            return Err(VerbsError::CqOverflow(cq));
        }
        q.entries.push_back(wc);
        Ok(())
    }

    /// Poll up to `max` completions from `cq` (the application side).
    pub fn poll_cq(&mut self, cq: CqId, max: usize) -> Result<Vec<WorkCompletion>, VerbsError> {
        let q = self.cqs.get_mut(&cq).ok_or(VerbsError::UnknownCq(cq))?;
        let n = max.min(q.entries.len());
        Ok(q.entries.drain(..n).collect())
    }

    /// Pending completions on `cq`.
    pub fn cq_depth(&self, cq: CqId) -> Result<usize, VerbsError> {
        self.cqs
            .get(&cq)
            .map(|q| q.entries.len())
            .ok_or(VerbsError::UnknownCq(cq))
    }

    /// Validate that `qp` may perform `access` on `[gva, gva+len)` of `mr`.
    ///
    /// Enforces, in order: object existence, QP readiness, the protection-
    /// domain rule, region bounds, and permissions.
    pub fn check_access(
        &self,
        qp: QpId,
        mr: MrKey,
        gva: Gva,
        len: u64,
        access: AccessFlags,
    ) -> Result<(), VerbsError> {
        let qp = self.qp(qp)?;
        let mr = self.mr(mr)?;
        if qp.state != QpState::ReadyToSend && qp.state != QpState::ReadyToReceive {
            return Err(VerbsError::QpNotReady(qp.state));
        }
        if qp.pd != mr.pd {
            return Err(VerbsError::ProtectionDomainMismatch {
                qp_pd: qp.pd,
                mr_pd: mr.pd,
            });
        }
        if !mr.covers(gva, len) {
            return Err(VerbsError::OutOfBounds);
        }
        if !mr.access.contains(access) {
            return Err(VerbsError::AccessDenied);
        }
        Ok(())
    }

    /// Numbers of live `(PDs, MRs, QPs)`.
    pub fn object_counts(&self) -> (usize, usize, usize) {
        (self.pds.len(), self.mrs.len(), self.qps.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready_qp(v: &mut Verbs, pd: PdId) -> QpId {
        let qp = v.create_qp(pd).unwrap();
        v.modify_qp(qp, QpState::Init).unwrap();
        v.modify_qp(qp, QpState::ReadyToReceive).unwrap();
        v.modify_qp(qp, QpState::ReadyToSend).unwrap();
        qp
    }

    #[test]
    fn full_lifecycle() {
        let mut v = Verbs::new();
        let pd = v.alloc_pd();
        let mr = v
            .register_mr(pd, Gva(0x1000), 0x4000, AccessFlags::all())
            .unwrap();
        let qp = ready_qp(&mut v, pd);
        v.check_access(qp, mr, Gva(0x2000), 0x1000, AccessFlags::REMOTE_WRITE)
            .unwrap();
        assert_eq!(v.object_counts(), (1, 1, 1));
    }

    #[test]
    fn protection_domains_isolate() {
        // The §9 isolation property: a QP in one tenant's PD cannot touch
        // an MR in another tenant's PD.
        let mut v = Verbs::new();
        let pd_a = v.alloc_pd();
        let pd_b = v.alloc_pd();
        let mr_b = v
            .register_mr(pd_b, Gva(0), 0x1000, AccessFlags::all())
            .unwrap();
        let qp_a = ready_qp(&mut v, pd_a);
        let err = v.check_access(qp_a, mr_b, Gva(0), 8, AccessFlags::REMOTE_READ);
        assert_eq!(
            err,
            Err(VerbsError::ProtectionDomainMismatch {
                qp_pd: pd_a,
                mr_pd: pd_b
            })
        );
    }

    #[test]
    fn bounds_are_enforced() {
        let mut v = Verbs::new();
        let pd = v.alloc_pd();
        let mr = v
            .register_mr(pd, Gva(0x1000), 0x1000, AccessFlags::all())
            .unwrap();
        let qp = ready_qp(&mut v, pd);
        assert_eq!(
            v.check_access(qp, mr, Gva(0x1800), 0x1000, AccessFlags::LOCAL_READ),
            Err(VerbsError::OutOfBounds)
        );
        // Exactly-at-the-end is fine.
        v.check_access(qp, mr, Gva(0x1800), 0x800, AccessFlags::LOCAL_READ)
            .unwrap();
    }

    #[test]
    fn permissions_are_enforced() {
        let mut v = Verbs::new();
        let pd = v.alloc_pd();
        let mr = v
            .register_mr(pd, Gva(0), 0x1000, AccessFlags::LOCAL_READ)
            .unwrap();
        let qp = ready_qp(&mut v, pd);
        assert_eq!(
            v.check_access(qp, mr, Gva(0), 8, AccessFlags::REMOTE_WRITE),
            Err(VerbsError::AccessDenied)
        );
    }

    #[test]
    fn qp_state_machine() {
        let mut v = Verbs::new();
        let pd = v.alloc_pd();
        let qp = v.create_qp(pd).unwrap();
        // Cannot jump straight to RTS.
        assert!(matches!(
            v.modify_qp(qp, QpState::ReadyToSend),
            Err(VerbsError::BadTransition { .. })
        ));
        v.modify_qp(qp, QpState::Init).unwrap();
        v.modify_qp(qp, QpState::ReadyToReceive).unwrap();
        v.modify_qp(qp, QpState::ReadyToSend).unwrap();
        // Error and reset are reachable from anywhere.
        v.modify_qp(qp, QpState::Error).unwrap();
        v.modify_qp(qp, QpState::Reset).unwrap();
    }

    #[test]
    fn posting_on_unready_qp_fails() {
        let mut v = Verbs::new();
        let pd = v.alloc_pd();
        let mr = v
            .register_mr(pd, Gva(0), 0x1000, AccessFlags::all())
            .unwrap();
        let qp = v.create_qp(pd).unwrap();
        assert_eq!(
            v.check_access(qp, mr, Gva(0), 8, AccessFlags::LOCAL_READ),
            Err(VerbsError::QpNotReady(QpState::Reset))
        );
    }

    #[test]
    fn unknown_objects() {
        let mut v = Verbs::new();
        assert!(v.create_qp(PdId(9)).is_err());
        assert!(v
            .register_mr(PdId(9), Gva(0), 1, AccessFlags::empty())
            .is_err());
        assert!(v.mr(MrKey(3)).is_err());
    }

    #[test]
    fn cq_post_poll_fifo() {
        let mut v = Verbs::new();
        let cq = v.create_cq(4);
        for i in 0..3 {
            v.post_completion(
                cq,
                WorkCompletion {
                    wr_id: i,
                    status: WcStatus::Success,
                    bytes: 4096,
                },
            )
            .unwrap();
        }
        assert_eq!(v.cq_depth(cq).unwrap(), 3);
        let polled = v.poll_cq(cq, 2).unwrap();
        assert_eq!(polled.len(), 2);
        assert_eq!(polled[0].wr_id, 0);
        assert_eq!(polled[1].wr_id, 1);
        assert_eq!(v.cq_depth(cq).unwrap(), 1);
        // Polling more than available returns what exists.
        assert_eq!(v.poll_cq(cq, 10).unwrap().len(), 1);
    }

    #[test]
    fn cq_overflow_is_an_error() {
        let mut v = Verbs::new();
        let cq = v.create_cq(1);
        let wc = WorkCompletion {
            wr_id: 0,
            status: WcStatus::Success,
            bytes: 0,
        };
        v.post_completion(cq, wc).unwrap();
        assert_eq!(v.post_completion(cq, wc), Err(VerbsError::CqOverflow(cq)));
        // Draining frees space.
        v.poll_cq(cq, 1).unwrap();
        v.post_completion(cq, wc).unwrap();
    }

    #[test]
    fn unknown_cq_is_rejected() {
        let mut v = Verbs::new();
        assert_eq!(v.poll_cq(CqId(9), 1), Err(VerbsError::UnknownCq(CqId(9))));
        assert_eq!(v.cq_depth(CqId(9)), Err(VerbsError::UnknownCq(CqId(9))));
    }

    #[test]
    fn access_flags_algebra() {
        let rw = AccessFlags::REMOTE_READ | AccessFlags::REMOTE_WRITE;
        assert!(rw.contains(AccessFlags::REMOTE_READ));
        assert!(!rw.contains(AccessFlags::LOCAL_WRITE));
        assert!(AccessFlags::all().contains(rw));
        assert!(!AccessFlags::empty().contains(AccessFlags::LOCAL_READ));
    }
}
