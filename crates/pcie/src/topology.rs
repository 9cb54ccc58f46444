//! The PCIe fabric of Fig. 1(b): Root Complex, switches, endpoints, and TLP
//! routing — including the AT-field fast path that eMTT exploits (Fig. 7)
//! and the bounded switch LUT behind Problem ③.
//!
//! Routing semantics reproduced from the paper:
//!
//! * A TLP with AT = `0b10` (**Translated**) carries a host-physical address.
//!   If it targets the BAR of a peer device under the same switch *and* the
//!   requester's BDF is registered in that switch's LUT, the switch routes
//!   it peer-to-peer without visiting the Root Complex (Fig. 7, GDR write
//!   step 2).
//! * A TLP with AT = `0b00` (**Untranslated**) carries an IOVA; the switch
//!   forwards it to the Root Complex, whose IOMMU performs the final
//!   translation before the request is routed to its destination.
//! * The LUT holds a bounded number of BDFs (32 on the paper's troubled
//!   server model); when it is full, additional devices cannot enable
//!   peer-to-peer GDR and their "translated" traffic detours through the RC.

use std::collections::HashMap;

use stellar_sim::SimDuration;

use crate::addr::{Address, Bdf, Hpa, Iova, Range};
use crate::iommu::{Iommu, IommuError};

/// PCIe TLP Address Translation field (PCIe spec §2.2.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtField {
    /// `0b00` — the address is untranslated (an IOVA); the RC must
    /// translate it.
    Untranslated,
    /// `0b10` — the address was already translated (via ATS or eMTT); the
    /// switch may route it directly.
    Translated,
}

/// TLP operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlpKind {
    /// Posted memory write.
    MemWrite,
    /// Memory read (completion latency folded into the hop model).
    MemRead,
}

/// A transaction-layer packet issued by an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tlp {
    /// Issuing device.
    pub source: DeviceId,
    /// Operation.
    pub kind: TlpKind,
    /// Address: an HPA when `at == Translated`, an IOVA otherwise.
    pub addr: u64,
    /// AT field.
    pub at: AtField,
    /// Payload length in bytes.
    pub bytes: u64,
}

/// Endpoint device kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// A GPU with device memory exposed through its BAR.
    Gpu,
    /// An RDMA-capable NIC.
    Rnic,
}

/// Identifier of an endpoint in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

/// Identifier of a PCIe switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwitchId(pub u32);

/// An endpoint attached to the fabric.
#[derive(Debug, Clone)]
pub struct PcieDevice {
    /// Device id.
    pub id: DeviceId,
    /// Kind.
    pub kind: DeviceKind,
    /// PCIe BDF.
    pub bdf: Bdf,
    /// BAR window in host-physical space (device memory / registers).
    pub bar: Range<Hpa>,
    /// The switch this endpoint hangs off.
    pub switch: SwitchId,
}

#[derive(Debug)]
struct Switch {
    lut: Vec<Bdf>,
}

/// Where a routed TLP ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteTarget {
    /// Main memory (DRAM).
    MainMemory(Hpa),
    /// A peer device's BAR.
    Device(DeviceId, Hpa),
}

/// How a routed TLP travelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePath {
    /// Switch-local peer-to-peer (never visited the RC).
    PeerToPeer,
    /// Through the Root Complex (possibly with IOMMU translation).
    ViaRootComplex,
}

/// Result of routing a TLP through the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteOutcome {
    /// Final destination.
    pub target: RouteTarget,
    /// Path taken.
    pub path: RoutePath,
    /// Total simulated fabric latency (hops + any IOMMU work).
    pub latency: SimDuration,
}

/// Fabric errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricError {
    /// The switch LUT is full; the BDF cannot enable P2P (Problem ③).
    LutFull {
        /// The switch whose LUT overflowed.
        switch: SwitchId,
        /// Its capacity.
        capacity: usize,
    },
    /// Unknown device or switch id.
    UnknownId,
    /// A translated address fell outside every BAR and main memory.
    BadAddress(u64),
    /// IOMMU fault while translating an untranslated TLP.
    Iommu(IommuError),
    /// Duplicate BDF registration.
    DuplicateBdf(Bdf),
}

impl From<IommuError> for FabricError {
    fn from(e: IommuError) -> Self {
        FabricError::Iommu(e)
    }
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::LutFull { switch, capacity } => {
                write!(f, "switch {switch:?} LUT full (capacity {capacity})")
            }
            FabricError::UnknownId => write!(f, "unknown device or switch id"),
            FabricError::BadAddress(a) => write!(f, "no BAR or memory claims address {a:#x}"),
            FabricError::Iommu(e) => write!(f, "{e}"),
            FabricError::DuplicateBdf(b) => write!(f, "BDF {b} already present"),
        }
    }
}

impl std::error::Error for FabricError {}

/// One switch traversal.
const SWITCH_HOP: SimDuration = SimDuration::from_nanos(120);
/// Switch → RC (or RC → switch) traversal.
const RC_HOP: SimDuration = SimDuration::from_nanos(300);
/// Per-switch LUT capacity ("each PCIe switch can only accommodate 32
/// BDFs" on the troubled server model).
const LUT_CAPACITY: usize = 32;

/// The PCIe fabric: one Root Complex (owning the [`Iommu`]), switches, and
/// endpoints.
#[derive(Debug)]
pub struct Fabric {
    iommu: Iommu,
    switches: Vec<Switch>,
    devices: Vec<PcieDevice>,
    bdfs: HashMap<Bdf, DeviceId>,
    main_memory: Range<Hpa>,
    p2p_tlps: u64,
    rc_tlps: u64,
    /// Completion-matching ledger: every TLP offered to [`Fabric::route`].
    tlp_requests: u64,
    /// TLPs that faulted (LUT/IOMMU/address errors) instead of completing.
    tlp_faults: u64,
    /// ACS tripwire: untranslated TLPs that were switched peer-to-peer.
    /// Always zero on a correct fabric — only AT=translated may skip the
    /// IOMMU (checked by `pcie.at_field_legality`).
    untranslated_p2p: u64,
}

impl Fabric {
    /// A fabric with the given IOMMU and main-memory window. A switch
    /// traversal costs 120 ns and a switch↔RC traversal 300 ns.
    pub fn new(iommu: Iommu, main_memory: Range<Hpa>) -> Self {
        Fabric {
            iommu,
            switches: Vec::new(),
            devices: Vec::new(),
            bdfs: HashMap::new(),
            main_memory,
            p2p_tlps: 0,
            rc_tlps: 0,
            tlp_requests: 0,
            tlp_faults: 0,
            untranslated_p2p: 0,
        }
    }

    /// Add a switch; returns its id.
    pub fn add_switch(&mut self) -> SwitchId {
        let id = SwitchId(self.switches.len() as u32);
        self.switches.push(Switch { lut: Vec::new() });
        id
    }

    /// Attach an endpoint under `switch`.
    pub fn add_device(
        &mut self,
        kind: DeviceKind,
        switch: SwitchId,
        bdf: Bdf,
        bar: Range<Hpa>,
    ) -> Result<DeviceId, FabricError> {
        if self.switches.get(switch.0 as usize).is_none() {
            return Err(FabricError::UnknownId);
        }
        if self.bdfs.contains_key(&bdf) {
            return Err(FabricError::DuplicateBdf(bdf));
        }
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(PcieDevice {
            id,
            kind,
            bdf,
            bar,
            switch,
        });
        self.bdfs.insert(bdf, id);
        Ok(id)
    }

    /// Register `bdf` in `switch`'s LUT to enable P2P (GDR) for it.
    ///
    /// Fails with [`FabricError::LutFull`] once the LUT capacity is
    /// exhausted — the paper's Problem ③.
    pub fn register_lut(&mut self, switch: SwitchId, bdf: Bdf) -> Result<(), FabricError> {
        let sw = self
            .switches
            .get_mut(switch.0 as usize)
            .ok_or(FabricError::UnknownId)?;
        if sw.lut.contains(&bdf) {
            return Ok(());
        }
        if sw.lut.len() >= LUT_CAPACITY {
            return Err(FabricError::LutFull {
                switch,
                capacity: LUT_CAPACITY,
            });
        }
        sw.lut.push(bdf);
        Ok(())
    }

    /// Number of LUT entries in use on `switch`.
    pub fn lut_len(&self, switch: SwitchId) -> usize {
        self.switches
            .get(switch.0 as usize)
            .map_or(0, |s| s.lut.len())
    }

    /// The fabric's IOMMU (for mapping/pinning setup).
    pub fn iommu_mut(&mut self) -> &mut Iommu {
        &mut self.iommu
    }

    /// The fabric's IOMMU, read-only.
    pub fn iommu(&self) -> &Iommu {
        &self.iommu
    }

    /// A device's descriptor.
    pub fn device(&self, id: DeviceId) -> Option<&PcieDevice> {
        self.devices.get(id.0 as usize)
    }

    fn claim_hpa(&self, hpa: Hpa) -> Result<RouteTarget, FabricError> {
        if self.main_memory.contains(hpa) {
            return Ok(RouteTarget::MainMemory(hpa));
        }
        for dev in &self.devices {
            if dev.bar.contains(hpa) {
                return Ok(RouteTarget::Device(dev.id, hpa));
            }
        }
        Err(FabricError::BadAddress(hpa.raw()))
    }

    /// Route a TLP through the fabric, returning where it landed and what
    /// it cost.
    pub fn route(&mut self, tlp: Tlp) -> Result<RouteOutcome, FabricError> {
        self.tlp_requests += 1;
        let out = self.route_inner(tlp);
        match &out {
            Err(_) => self.tlp_faults += 1,
            Ok(o) => {
                // ACS tripwire for `pcie.at_field_legality`: an
                // untranslated TLP switched peer-to-peer bypassed the
                // IOMMU it legally must visit.
                if o.path == RoutePath::PeerToPeer && tlp.at != AtField::Translated {
                    self.untranslated_p2p += 1;
                }
            }
        }
        out
    }

    fn route_inner(&mut self, tlp: Tlp) -> Result<RouteOutcome, FabricError> {
        let source = self
            .devices
            .get(tlp.source.0 as usize)
            .ok_or(FabricError::UnknownId)?
            .clone();

        match tlp.at {
            AtField::Translated => {
                let hpa = Hpa(tlp.addr);
                let target = self.claim_hpa(hpa)?;
                // P2P fast path: peer under the same switch with the
                // requester registered in the LUT.
                if let RouteTarget::Device(peer, _) = target {
                    let peer_switch = self.devices[peer.0 as usize].switch;
                    let lut_ok = self.switches[source.switch.0 as usize]
                        .lut
                        .contains(&source.bdf);
                    if peer_switch == source.switch && lut_ok {
                        self.p2p_tlps += 1;
                        return Ok(RouteOutcome {
                            target,
                            path: RoutePath::PeerToPeer,
                            latency: SWITCH_HOP,
                        });
                    }
                }
                // Translated but not P2P-eligible: up to the RC and back
                // down (no IOMMU work — address is already physical).
                self.rc_tlps += 1;
                Ok(RouteOutcome {
                    target,
                    path: RoutePath::ViaRootComplex,
                    latency: SWITCH_HOP + RC_HOP.mul(2),
                })
            }
            AtField::Untranslated => {
                // Switch forwards to the RC; IOMMU translates; RC routes
                // on. The rc_tlps counter ticks only once the completion
                // is assured — faulted TLPs land in `tlp_faults` instead,
                // so requests == p2p + rc + faults stays balanced.
                let t = self.iommu.translate(Iova(tlp.addr))?;
                let target = self.claim_hpa(t.hpa)?;
                self.rc_tlps += 1;
                let down = match target {
                    RouteTarget::MainMemory(_) => RC_HOP,
                    RouteTarget::Device(..) => RC_HOP + SWITCH_HOP,
                };
                Ok(RouteOutcome {
                    target,
                    path: RoutePath::ViaRootComplex,
                    latency: SWITCH_HOP + RC_HOP + t.latency + down,
                })
            }
        }
    }

    /// `(p2p, via_rc)` TLP counters.
    pub fn tlp_counters(&self) -> (u64, u64) {
        (self.p2p_tlps, self.rc_tlps)
    }

    /// TLPs ever offered to [`Fabric::route`] (completions + faults).
    pub fn tlp_requests(&self) -> u64 {
        self.tlp_requests
    }

    /// TLPs that faulted instead of completing.
    pub fn tlp_faults(&self) -> u64 {
        self.tlp_faults
    }

    /// Evaluate the fabric's TLP invariants at a quiesce point. One
    /// atomic load and a branch when no `stellar_check` scope is open.
    pub fn check_invariants(&self, at: stellar_sim::SimTime) {
        stellar_check::at_quiesce(at, stellar_check::Layer::Pcie, |c| {
            c.check(
                "pcie.tlp_completion_matching",
                self.tlp_requests == self.p2p_tlps + self.rc_tlps + self.tlp_faults,
                || {
                    format!(
                        "requests {} != p2p {} + rc {} + faults {}",
                        self.tlp_requests, self.p2p_tlps, self.rc_tlps, self.tlp_faults
                    )
                },
            );
            c.check("pcie.at_field_legality", self.untranslated_p2p == 0, || {
                format!(
                    "{} untranslated TLP(s) were switched peer-to-peer",
                    self.untranslated_p2p
                )
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_4K;
    use crate::iommu::IommuConfig;

    const MEM_BASE: u64 = 0x1_0000_0000;

    fn fabric() -> (Fabric, SwitchId, DeviceId, DeviceId) {
        let iommu = Iommu::new(IommuConfig::default());
        let mut f = Fabric::new(iommu, Range::new(Hpa(MEM_BASE), 1 << 32));
        let sw = f.add_switch();
        let rnic = f
            .add_device(
                DeviceKind::Rnic,
                sw,
                Bdf::new(0x3a, 0, 0),
                Range::new(Hpa(0x2000_0000), 0x10_0000),
            )
            .unwrap();
        let gpu = f
            .add_device(
                DeviceKind::Gpu,
                sw,
                Bdf::new(0x3b, 0, 0),
                Range::new(Hpa(0x4000_0000), 0x1000_0000),
            )
            .unwrap();
        (f, sw, rnic, gpu)
    }

    #[test]
    fn translated_p2p_bypasses_rc() {
        let (mut f, sw, rnic, gpu) = fabric();
        f.register_lut(sw, Bdf::new(0x3a, 0, 0)).unwrap();
        let out = f
            .route(Tlp {
                source: rnic,
                kind: TlpKind::MemWrite,
                addr: 0x4000_0100, // inside GPU BAR
                at: AtField::Translated,
                bytes: 4096,
            })
            .unwrap();
        assert_eq!(out.path, RoutePath::PeerToPeer);
        assert_eq!(out.target, RouteTarget::Device(gpu, Hpa(0x4000_0100)));
        assert_eq!(out.latency, SWITCH_HOP);
        assert_eq!(f.tlp_counters(), (1, 0));
    }

    #[test]
    fn translated_without_lut_detours_via_rc() {
        let (mut f, _sw, rnic, _gpu) = fabric();
        // No LUT registration for the RNIC's BDF.
        let out = f
            .route(Tlp {
                source: rnic,
                kind: TlpKind::MemWrite,
                addr: 0x4000_0100,
                at: AtField::Translated,
                bytes: 4096,
            })
            .unwrap();
        assert_eq!(out.path, RoutePath::ViaRootComplex);
        assert!(out.latency > SWITCH_HOP);
    }

    #[test]
    fn untranslated_goes_through_iommu() {
        let (mut f, _sw, rnic, _gpu) = fabric();
        f.iommu_mut()
            .map(Iova(0x7000), Hpa(MEM_BASE + 0x9000), PAGE_4K)
            .unwrap();
        let out = f
            .route(Tlp {
                source: rnic,
                kind: TlpKind::MemWrite,
                addr: 0x7010,
                at: AtField::Untranslated,
                bytes: 64,
            })
            .unwrap();
        assert_eq!(out.path, RoutePath::ViaRootComplex);
        assert_eq!(out.target, RouteTarget::MainMemory(Hpa(MEM_BASE + 0x9010)));
        assert_eq!(f.tlp_counters(), (0, 1));
    }

    #[test]
    fn untranslated_fault_surfaces() {
        let (mut f, _sw, rnic, _gpu) = fabric();
        let err = f.route(Tlp {
            source: rnic,
            kind: TlpKind::MemRead,
            addr: 0xbad0_0000,
            at: AtField::Untranslated,
            bytes: 64,
        });
        assert!(matches!(err, Err(FabricError::Iommu(_))));
    }

    #[test]
    fn lut_capacity_limits_gdr_enablement() {
        let iommu = Iommu::new(IommuConfig::default());
        let mut f = Fabric::new(iommu, Range::new(Hpa(MEM_BASE), 1 << 32));
        let sw = f.add_switch();
        for bus in 1..=32 {
            f.register_lut(sw, Bdf::new(bus, 0, 0)).unwrap();
        }
        // Idempotent re-registration is fine even when full.
        f.register_lut(sw, Bdf::new(1, 0, 0)).unwrap();
        let err = f.register_lut(sw, Bdf::new(33, 0, 0));
        assert!(matches!(
            err,
            Err(FabricError::LutFull { capacity: 32, .. })
        ));
        assert_eq!(f.lut_len(sw), 32);
    }

    #[test]
    fn bad_translated_address_is_rejected() {
        let (mut f, sw, rnic, _gpu) = fabric();
        f.register_lut(sw, Bdf::new(0x3a, 0, 0)).unwrap();
        let err = f.route(Tlp {
            source: rnic,
            kind: TlpKind::MemWrite,
            addr: 0x00ff_0000, // neither memory nor any BAR
            at: AtField::Translated,
            bytes: 64,
        });
        assert_eq!(err, Err(FabricError::BadAddress(0x00ff_0000)));
    }

    #[test]
    fn duplicate_bdf_rejected() {
        let (mut f, sw, _rnic, _gpu) = fabric();
        let err = f.add_device(
            DeviceKind::Gpu,
            sw,
            Bdf::new(0x3a, 0, 0),
            Range::new(Hpa(0x9000_0000), 0x1000),
        );
        assert!(matches!(err, Err(FabricError::DuplicateBdf(_))));
    }

    #[test]
    fn cross_switch_p2p_takes_rc_path() {
        let iommu = Iommu::new(IommuConfig::default());
        let mut f = Fabric::new(iommu, Range::new(Hpa(MEM_BASE), 1 << 32));
        let sw0 = f.add_switch();
        let sw1 = f.add_switch();
        let rnic = f
            .add_device(
                DeviceKind::Rnic,
                sw0,
                Bdf::new(1, 0, 0),
                Range::new(Hpa(0x2000_0000), 0x1000),
            )
            .unwrap();
        let _gpu = f
            .add_device(
                DeviceKind::Gpu,
                sw1,
                Bdf::new(2, 0, 0),
                Range::new(Hpa(0x4000_0000), 0x1000_0000),
            )
            .unwrap();
        f.register_lut(sw0, Bdf::new(1, 0, 0)).unwrap();
        let out = f
            .route(Tlp {
                source: rnic,
                kind: TlpKind::MemWrite,
                addr: 0x4000_0000,
                at: AtField::Translated,
                bytes: 4096,
            })
            .unwrap();
        // Different switch: must cross the RC even though translated.
        assert_eq!(out.path, RoutePath::ViaRootComplex);
    }

    #[test]
    fn tlp_ledger_balances_across_completions_and_faults() {
        // The strict scope closes (and reports any violation) before the
        // explicit counter asserts below, so a broken ledger fails with
        // the invariant's own sim-time-stamped report.
        let f = stellar_check::strict(|| {
            let (mut f, sw, rnic, _gpu) = fabric();
            f.register_lut(sw, Bdf::new(0x3a, 0, 0)).unwrap();
            f.iommu_mut()
                .map(Iova(0x7000), Hpa(MEM_BASE + 0x9000), PAGE_4K)
                .unwrap();
            // One P2P completion, one RC completion, one IOMMU fault.
            f.route(Tlp {
                source: rnic,
                kind: TlpKind::MemWrite,
                addr: 0x4000_0100,
                at: AtField::Translated,
                bytes: 4096,
            })
            .unwrap();
            f.route(Tlp {
                source: rnic,
                kind: TlpKind::MemWrite,
                addr: 0x7010,
                at: AtField::Untranslated,
                bytes: 64,
            })
            .unwrap();
            f.route(Tlp {
                source: rnic,
                kind: TlpKind::MemRead,
                addr: 0xbad0_0000,
                at: AtField::Untranslated,
                bytes: 64,
            })
            .unwrap_err();
            // Translated but aimed at host memory: not P2P-eligible, so
            // this is the pre-translated via-RC completion path.
            let out = f
                .route(Tlp {
                    source: rnic,
                    kind: TlpKind::MemWrite,
                    addr: MEM_BASE + 0x9000,
                    at: AtField::Translated,
                    bytes: 256,
                })
                .unwrap();
            assert_eq!(out.path, RoutePath::ViaRootComplex);
            f.check_invariants(stellar_sim::SimTime::ZERO);
            f
        });
        assert_eq!(f.tlp_requests(), 4);
        assert_eq!(f.tlp_faults(), 1);
        assert_eq!(f.tlp_counters(), (1, 2));
    }
}
