//! The RNIC DMA engine: executes memory-region reads/writes as sequences
//! of per-page TLPs routed through the PCIe fabric, with a pipelined
//! latency model.
//!
//! ## Timing model
//!
//! The engine processes a message page by page. Each page costs:
//!
//! ```text
//! page_time = max(wire_time(port), wire_time(rc_path if routed via RC))
//!           + (translation_latency + fabric_latency) / translation_parallelism
//! ```
//!
//! * `wire_time(port)` — serialization at the port line rate; the floor.
//! * `rc_path` — peer-to-peer traffic bounced through the Root Complex is
//!   capped by the RC's P2P forwarding bandwidth. This is why HyV/MasQ GDR
//!   tops out at ~141 Gbps while Stellar's eMTT path reaches ~393 Gbps
//!   (Fig. 14).
//! * `translation_parallelism` — the RX pipeline keeps many address
//!   translations in flight, so a translation's latency is amortized, not
//!   serialized. With an ATC hit the overhead is negligible; when the GDR
//!   working set exceeds the ATC (and then the IOTLB), the amortized miss
//!   penalty lowers throughput by the 10–20% the paper measures (Fig. 8).
//!
//! Three translation modes correspond to the three systems compared in the
//! paper: [`TranslationMode::Emtt`] (Stellar), [`TranslationMode::AtsAtc`]
//! (the CX6/CX7 SR-IOV baseline), and [`TranslationMode::Untranslated`]
//! (HyV/MasQ, everything through the RC's IOMMU).

use stellar_pcie::ats::Atc;
use stellar_pcie::topology::{AtField, DeviceId, Fabric, FabricError, RoutePath, Tlp, TlpKind};
use stellar_pcie::Gva;
use stellar_sim::{transmit_time, SimDuration};
use stellar_telemetry::{stage_sample, Stage};

use crate::mtt::{MemOwner, Mtt, MttEntry, MttError};
use crate::verbs::MrKey;

/// How the RNIC resolves MTT output to a routable TLP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslationMode {
    /// Stellar's eMTT: the table already holds the final address and the
    /// owner; GPU pages go out pre-translated (AT=0b10).
    Emtt,
    /// Legacy MTT + PCIe ATS/ATC: the table yields an IOVA which the
    /// device-side ATC translates (the SR-IOV/CX6 baseline).
    AtsAtc,
    /// Legacy MTT, no ATS: every TLP goes out untranslated and the RC's
    /// IOMMU translates (HyV/MasQ — GDR traffic squeezes through the RC).
    Untranslated,
}

/// Data-path configuration of one RNIC.
#[derive(Debug, Clone)]
pub struct RnicDataPathConfig {
    /// Port line rate in Gbps (one port).
    pub port_gbps: f64,
    /// Bandwidth cap of peer-to-peer traffic that detours through the Root
    /// Complex.
    pub rc_path_gbps: f64,
    /// Outstanding translations the pipeline sustains (amortizes
    /// translation latency).
    pub translation_parallelism: u32,
    /// On-NIC MTT/eMTT SRAM lookup latency.
    pub mtt_lookup_latency: SimDuration,
    /// Fixed per-message overhead (WQE fetch, doorbell, completion).
    pub per_message_overhead: SimDuration,
}

impl Default for RnicDataPathConfig {
    fn default() -> Self {
        RnicDataPathConfig {
            port_gbps: 200.0,
            rc_path_gbps: 150.0,
            translation_parallelism: 32,
            mtt_lookup_latency: SimDuration::from_nanos(5),
            per_message_overhead: SimDuration::from_nanos(900),
        }
    }
}

/// DMA errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DmaError {
    /// MTT lookup failed.
    Mtt(MttError),
    /// Fabric routing / IOMMU fault.
    Fabric(FabricError),
    /// The mode and the MTT entry kind are inconsistent (e.g. eMTT mode
    /// but a legacy entry).
    EntryModeMismatch,
    /// Zero-length DMA.
    EmptyTransfer,
}

impl From<MttError> for DmaError {
    fn from(e: MttError) -> Self {
        DmaError::Mtt(e)
    }
}

impl From<FabricError> for DmaError {
    fn from(e: FabricError) -> Self {
        DmaError::Fabric(e)
    }
}

impl std::fmt::Display for DmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DmaError::Mtt(e) => write!(f, "MTT: {e}"),
            DmaError::Fabric(e) => write!(f, "fabric: {e}"),
            DmaError::EntryModeMismatch => {
                write!(f, "MTT entry kind inconsistent with translation mode")
            }
            DmaError::EmptyTransfer => write!(f, "zero-length DMA"),
        }
    }
}

impl std::error::Error for DmaError {}

/// Accounting for one executed DMA operation. How its pages were
/// translated is counted once, by the ATC.
#[derive(Debug, Clone, Default)]
pub struct DmaReport {
    /// Bytes moved.
    pub bytes: u64,
    /// Pages touched.
    pub pages: u64,
    /// Total pipelined duration of the transfer.
    pub elapsed: SimDuration,
    /// First-page completion latency (message latency for small messages).
    pub first_page_latency: SimDuration,
    /// Achieved throughput in Gbps.
    pub gbps: f64,
    /// Pages routed peer-to-peer.
    pub p2p_pages: u64,
    /// Pages routed via the Root Complex.
    pub rc_pages: u64,
}

/// The DMA engine of one RNIC.
#[derive(Debug)]
pub struct DmaEngine {
    config: RnicDataPathConfig,
    /// Operations executed (one doorbell ring each).
    ops: u64,
}

impl DmaEngine {
    /// An engine with the given data-path configuration.
    pub fn new(config: RnicDataPathConfig) -> Self {
        DmaEngine { config, ops: 0 }
    }

    /// The active configuration.
    pub fn config(&self) -> &RnicDataPathConfig {
        &self.config
    }

    /// Operations started, failed ones included (an empty transfer is
    /// rejected before it starts).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Execute a write of `len` bytes at `gva` in region `mr`, issuing TLPs
    /// from `source` through `fabric`.
    ///
    /// `atc` is consulted only in [`TranslationMode::AtsAtc`].
    #[allow(clippy::too_many_arguments)]
    pub fn write(
        &mut self,
        mode: TranslationMode,
        mtt: &mut Mtt,
        atc: &mut Atc,
        fabric: &mut Fabric,
        source: DeviceId,
        mr: MrKey,
        gva: Gva,
        len: u64,
    ) -> Result<DmaReport, DmaError> {
        self.execute(TlpKind::MemWrite, mode, mtt, atc, fabric, source, mr, gva, len)
    }

    /// Execute a read of `len` bytes at `gva` in region `mr` (RDMA READ /
    /// local fetch): non-posted TLPs whose completions pay the fabric
    /// round trip twice.
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        &mut self,
        mode: TranslationMode,
        mtt: &mut Mtt,
        atc: &mut Atc,
        fabric: &mut Fabric,
        source: DeviceId,
        mr: MrKey,
        gva: Gva,
        len: u64,
    ) -> Result<DmaReport, DmaError> {
        self.execute(TlpKind::MemRead, mode, mtt, atc, fabric, source, mr, gva, len)
    }

    #[allow(clippy::too_many_arguments)]
    fn execute(
        &mut self,
        kind: TlpKind,
        mode: TranslationMode,
        mtt: &mut Mtt,
        atc: &mut Atc,
        fabric: &mut Fabric,
        source: DeviceId,
        mr: MrKey,
        gva: Gva,
        len: u64,
    ) -> Result<DmaReport, DmaError> {
        if len == 0 {
            return Err(DmaError::EmptyTransfer);
        }
        let page_size = mtt.config().page_size;
        let parallelism = self.config.translation_parallelism.max(1) as u64;

        let mut report = DmaReport::default();
        let mut elapsed = self.config.per_message_overhead;
        // Doorbell ring → descriptor fetch: the per-message NIC overhead.
        self.ops += 1;
        stage_sample(Stage::DoorbellDmaFetch, self.config.per_message_overhead);
        let mut remaining = len;
        let mut cursor = gva;
        let mut first = true;

        while remaining > 0 {
            let in_page_off = cursor.0 % page_size;
            let chunk = remaining.min(page_size - in_page_off);

            let (entry, _) = mtt.lookup(mr, cursor)?;
            let mut translation_latency = self.config.mtt_lookup_latency;

            // Resolve the TLP to emit.
            let tlp = match (mode, entry) {
                (TranslationMode::Emtt, MttEntry::Extended { hpa, owner }) => match owner {
                    MemOwner::Gpu(_) => Tlp {
                        source,
                        kind,
                        addr: hpa.0 + in_page_off,
                        at: AtField::Translated,
                        bytes: chunk,
                    },
                    // Host-memory pages are emitted untranslated: the
                    // stored address is the DMA-able IOVA the RC's IOMMU
                    // finishes translating (Fig. 7, RDMA-write flow).
                    MemOwner::HostMem => Tlp {
                        source,
                        kind,
                        addr: hpa.0 + in_page_off,
                        at: AtField::Untranslated,
                        bytes: chunk,
                    },
                },
                (TranslationMode::AtsAtc, MttEntry::Legacy { iova }) => {
                    let lookup = atc
                        .translate(
                            stellar_pcie::Iova(iova.0 + in_page_off),
                            fabric.iommu_mut(),
                        )
                        .map_err(FabricError::Iommu)?;
                    translation_latency += lookup.latency;
                    Tlp {
                        source,
                        kind,
                        addr: lookup.hpa.0,
                        at: AtField::Translated,
                        bytes: chunk,
                    }
                }
                (TranslationMode::Untranslated, MttEntry::Legacy { iova }) => Tlp {
                    source,
                    kind,
                    addr: iova.0 + in_page_off,
                    at: AtField::Untranslated,
                    bytes: chunk,
                },
                // eMTT mode with a legacy entry or vice versa is a
                // programming error in the stack above.
                _ => return Err(DmaError::EntryModeMismatch),
            };

            let mut outcome = fabric.route(tlp)?;
            if kind == TlpKind::MemRead {
                // Non-posted: the completion retraces the path.
                outcome.latency = outcome.latency.mul(2);
            }
            let via_rc = outcome.path == RoutePath::ViaRootComplex;
            if via_rc {
                report.rc_pages += 1;
            } else {
                report.p2p_pages += 1;
            }

            let mut wire = transmit_time(chunk, self.config.port_gbps);
            if via_rc {
                wire = wire.max(transmit_time(chunk, self.config.rc_path_gbps));
            }
            let overhead = (translation_latency + outcome.latency).div(parallelism);
            let page_time = wire + overhead;

            if first {
                report.first_page_latency = self.config.per_message_overhead
                    + translation_latency
                    + outcome.latency
                    + wire;
                first = false;
            }

            // Pipelined per-page service time: what each page adds to the
            // message clock (translation + fabric amortized over the RX
            // pipeline), so stage totals reconcile with `elapsed`.
            stage_sample(Stage::DmaTlpCompletion, page_time);
            elapsed += page_time;
            report.bytes += chunk;
            report.pages += 1;
            remaining -= chunk;
            cursor = Gva(cursor.0 + chunk);
        }

        report.elapsed = elapsed;
        report.gbps = stellar_sim::stats::gbps(report.bytes, elapsed);
        // A completed DMA is a quiesce point: the MTT ledger and the fabric
        // TLP ledger must both balance. The engine has no global sim clock,
        // so the report is stamped with the transfer-relative elapsed time.
        if stellar_check::enabled() {
            let at = stellar_sim::SimTime::ZERO + elapsed;
            mtt.check_invariants(at);
            fabric.check_invariants(at);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mtt::MttConfig;
    use stellar_pcie::addr::{Bdf, Range, PAGE_4K};
    use stellar_pcie::ats::AtcConfig;
    use stellar_pcie::iommu::{Iommu, IommuConfig};
    use stellar_pcie::topology::{DeviceKind, FabricConfig};
    use stellar_pcie::{Hpa, Iova};

    const MEM_BASE: u64 = 0x1_0000_0000;
    const GPU_BAR: u64 = 0x4000_0000;

    struct Rig {
        fabric: Fabric,
        mtt: Mtt,
        atc: Atc,
        rnic: DeviceId,
        gpu: DeviceId,
    }

    fn rig(atc_capacity: usize) -> Rig {
        let iommu = Iommu::new(IommuConfig::default());
        let mut fabric = Fabric::new(
            FabricConfig::default(),
            iommu,
            Range::new(Hpa(MEM_BASE), 1 << 33),
        );
        let sw = fabric.add_switch();
        let rnic = fabric
            .add_device(
                DeviceKind::Rnic,
                sw,
                Bdf::new(0x3a, 0, 0),
                Range::new(Hpa(0x2000_0000), 0x10_0000),
            )
            .unwrap();
        let gpu = fabric
            .add_device(
                DeviceKind::Gpu,
                sw,
                Bdf::new(0x3b, 0, 0),
                Range::new(Hpa(GPU_BAR), 0x2000_0000),
            )
            .unwrap();
        fabric.register_lut(sw, Bdf::new(0x3a, 0, 0)).unwrap();
        Rig {
            fabric,
            mtt: Mtt::new(MttConfig::default()),
            atc: Atc::new(AtcConfig {
                capacity: atc_capacity,
                ..AtcConfig::default()
            }),
            rnic,
            gpu,
        }
    }

    fn engine(port_gbps: f64) -> DmaEngine {
        DmaEngine::new(RnicDataPathConfig {
            port_gbps,
            ..RnicDataPathConfig::default()
        })
    }

    #[test]
    fn emtt_gdr_write_goes_p2p() {
        let mut r = rig(1024);
        r.mtt
            .register_extended_contiguous(
                MrKey(1),
                Gva(0x100000),
                Hpa(GPU_BAR),
                512 * PAGE_4K,
                MemOwner::Gpu(r.gpu),
            )
            .unwrap();
        let mut e = engine(400.0);
        let report = e
            .write(
                TranslationMode::Emtt,
                &mut r.mtt,
                &mut r.atc,
                &mut r.fabric,
                r.rnic,
                MrKey(1),
                Gva(0x100000),
                512 * PAGE_4K,
            )
            .unwrap();
        assert_eq!(report.pages, 512);
        assert_eq!(report.rc_pages, 0);
        assert_eq!(report.p2p_pages, 512);
        // Near line rate for 400G.
        assert!(report.gbps > 350.0, "gbps={}", report.gbps);
    }

    #[test]
    fn untranslated_gdr_is_rc_bottlenecked() {
        // HyV/MasQ: GDR traffic through the RC caps near rc_path_gbps.
        let mut r = rig(1024);
        // Legacy entries whose IOVAs map to the GPU BAR via the IOMMU.
        r.fabric
            .iommu_mut()
            .map(Iova(0x7000_0000), Hpa(GPU_BAR), 64 * PAGE_4K)
            .unwrap();
        r.mtt
            .register_legacy_contiguous(
                MrKey(1),
                Gva(0x100000),
                Iova(0x7000_0000),
                64 * PAGE_4K,
            )
            .unwrap();
        let mut e = engine(400.0);
        let report = e
            .write(
                TranslationMode::Untranslated,
                &mut r.mtt,
                &mut r.atc,
                &mut r.fabric,
                r.rnic,
                MrKey(1),
                Gva(0x100000),
                64 * PAGE_4K,
            )
            .unwrap();
        assert_eq!(report.p2p_pages, 0);
        assert_eq!(report.rc_pages, 64);
        assert!(
            report.gbps < 160.0 && report.gbps > 100.0,
            "gbps={}",
            report.gbps
        );
    }

    #[test]
    fn ats_atc_throughput_drops_when_working_set_exceeds_atc() {
        // Two identical runs over a 256-page working set: ATC of 1024
        // pages (fits) vs 64 pages (thrashes).
        let run = |atc_pages: usize| -> f64 {
            let mut r = rig(atc_pages);
            r.fabric
                .iommu_mut()
                .map(Iova(0x7000_0000), Hpa(GPU_BAR), 256 * PAGE_4K)
                .unwrap();
            r.mtt
                .register_legacy_contiguous(
                    MrKey(1),
                    Gva(0x100000),
                    Iova(0x7000_0000),
                    256 * PAGE_4K,
                )
                .unwrap();
            let mut e = engine(200.0);
            // Warm-up pass, then measured pass (LRU thrash on the 2nd).
            for _ in 0..2 {
                let rep = e
                    .write(
                        TranslationMode::AtsAtc,
                        &mut r.mtt,
                        &mut r.atc,
                        &mut r.fabric,
                        r.rnic,
                        MrKey(1),
                        Gva(0x100000),
                        256 * PAGE_4K,
                    )
                    .unwrap();
                if r.atc.stats().0 + r.atc.stats().1 >= 512 {
                    return rep.gbps;
                }
            }
            unreachable!()
        };
        let fits = run(1024);
        let thrash = run(64);
        assert!(fits > thrash, "fits={fits} thrash={thrash}");
        assert!(fits > 180.0, "fits={fits}");
        assert!(thrash < 180.0, "thrash={thrash}");
    }

    #[test]
    fn small_message_first_page_latency() {
        let mut r = rig(1024);
        r.mtt
            .register_extended_contiguous(
                MrKey(1),
                Gva(0),
                Hpa(GPU_BAR),
                PAGE_4K,
                MemOwner::Gpu(r.gpu),
            )
            .unwrap();
        let mut e = engine(400.0);
        let report = e
            .write(
                TranslationMode::Emtt,
                &mut r.mtt,
                &mut r.atc,
                &mut r.fabric,
                r.rnic,
                MrKey(1),
                Gva(0x10),
                8,
            )
            .unwrap();
        assert_eq!(report.bytes, 8);
        assert_eq!(report.pages, 1);
        // Dominated by the per-message overhead, microsecond scale.
        assert!(report.first_page_latency >= e.config().per_message_overhead);
        assert!(report.first_page_latency < SimDuration::from_micros(3));
    }

    #[test]
    fn mode_entry_mismatch_is_rejected() {
        let mut r = rig(16);
        r.mtt
            .register_legacy_contiguous(MrKey(1), Gva(0), Iova(0x7000_0000), PAGE_4K)
            .unwrap();
        let mut e = engine(200.0);
        let err = e.write(
            TranslationMode::Emtt,
            &mut r.mtt,
            &mut r.atc,
            &mut r.fabric,
            r.rnic,
            MrKey(1),
            Gva(0),
            8,
        );
        assert!(matches!(err, Err(DmaError::EntryModeMismatch)));
    }

    #[test]
    fn read_pays_the_round_trip() {
        let mut r = rig(1024);
        r.mtt
            .register_extended_contiguous(
                MrKey(1),
                Gva(0),
                Hpa(GPU_BAR),
                64 * PAGE_4K,
                MemOwner::Gpu(r.gpu),
            )
            .unwrap();
        let mut e = engine(400.0);
        let w = e
            .write(
                TranslationMode::Emtt,
                &mut r.mtt,
                &mut r.atc,
                &mut r.fabric,
                r.rnic,
                MrKey(1),
                Gva(0),
                64 * PAGE_4K,
            )
            .unwrap();
        let rd = e
            .read(
                TranslationMode::Emtt,
                &mut r.mtt,
                &mut r.atc,
                &mut r.fabric,
                r.rnic,
                MrKey(1),
                Gva(0),
                64 * PAGE_4K,
            )
            .unwrap();
        assert_eq!(rd.bytes, w.bytes);
        // Non-posted reads are slower than posted writes.
        assert!(rd.elapsed > w.elapsed, "read {:?} vs write {:?}", rd.elapsed, w.elapsed);
        assert!(rd.gbps < w.gbps);
    }

    #[test]
    fn zero_length_rejected() {
        let mut r = rig(16);
        let mut e = engine(200.0);
        let err = e.write(
            TranslationMode::Emtt,
            &mut r.mtt,
            &mut r.atc,
            &mut r.fabric,
            r.rnic,
            MrKey(1),
            Gva(0),
            0,
        );
        assert!(matches!(err, Err(DmaError::EmptyTransfer)));
    }

    #[test]
    fn dma_quiesce_checks_pass_in_strict_mode() {
        stellar_check::strict(|| {
            let mut r = rig(1024);
            r.mtt
                .register_extended_contiguous(
                    MrKey(1),
                    Gva(0),
                    Hpa(GPU_BAR),
                    16 * PAGE_4K,
                    MemOwner::Gpu(r.gpu),
                )
                .unwrap();
            let mut e = engine(400.0);
            let report = e
                .write(
                    TranslationMode::Emtt,
                    &mut r.mtt,
                    &mut r.atc,
                    &mut r.fabric,
                    r.rnic,
                    MrKey(1),
                    Gva(0),
                    16 * PAGE_4K,
                )
                .unwrap();
            assert_eq!(report.pages, 16);
        });
    }

    #[test]
    fn unaligned_start_spans_pages_correctly() {
        let mut r = rig(1024);
        r.mtt
            .register_extended_contiguous(
                MrKey(1),
                Gva(0),
                Hpa(GPU_BAR),
                4 * PAGE_4K,
                MemOwner::Gpu(r.gpu),
            )
            .unwrap();
        let mut e = engine(400.0);
        // Start mid-page, length crossing two page boundaries.
        let report = e
            .write(
                TranslationMode::Emtt,
                &mut r.mtt,
                &mut r.atc,
                &mut r.fabric,
                r.rnic,
                MrKey(1),
                Gva(PAGE_4K - 100),
                PAGE_4K + 200,
            )
            .unwrap();
        assert_eq!(report.bytes, PAGE_4K + 200);
        assert_eq!(report.pages, 3); // tail of p0, all p1, head of p2
    }
}
