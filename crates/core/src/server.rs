//! A GPU server model: the hardware substrate both Stellar and the
//! baseline stacks run on.
//!
//! Mirrors the paper's evaluation servers: "two Xeon CPUs, four RNICs
//! with two 200 Gbps ports each, and eight GPUs", wired as four PCIe
//! switches each hosting one RNIC and two GPUs (the topology from Fig. 2
//! and Problem ③: "four RNICs, four PCIe switches, and eight GPUs").

use stellar_pcie::addr::{Bdf, Hpa, Range};
use stellar_pcie::ats::{Atc, AtcConfig};
use stellar_pcie::iommu::{Iommu, IommuConfig};
use stellar_pcie::topology::{DeviceId, DeviceKind, Fabric, FabricConfig, SwitchId};
use stellar_rnic::dma::{DmaEngine, RnicDataPathConfig};
use stellar_rnic::doorbell::DoorbellTable;
use stellar_rnic::mtt::{Mtt, MttConfig};
use stellar_rnic::vdev::{VdevManager, VdevManagerConfig};
use stellar_rnic::verbs::Verbs;
use stellar_rnic::vswitch::{VSwitch, VSwitchConfig};
use stellar_telemetry::{fold_counters, Subsystem};
use stellar_virt::pvdma::Pvdma;
use stellar_virt::rund::{BootReport, MemoryStrategy, RundConfig, RundContainer};


/// Index of an RNIC within a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RnicId(pub usize);

/// Index of a booted container within a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContainerId(pub usize);

/// Server composition and data-path parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// PCIe switches (one RNIC per switch).
    pub switches: usize,
    /// GPUs per switch.
    pub gpus_per_switch: usize,
    /// RNIC data path (port rate, translation pipeline).
    pub datapath: RnicDataPathConfig,
    /// ATC on each RNIC.
    pub atc: AtcConfig,
    /// MTT/eMTT sizing.
    pub mtt: MttConfig,
    /// IOMMU model.
    pub iommu: IommuConfig,
    /// PCIe fabric latency/LUT model.
    pub fabric: FabricConfig,
    /// Virtual device management per RNIC.
    pub vdev: VdevManagerConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            switches: 4,
            gpus_per_switch: 2,
            datapath: RnicDataPathConfig {
                // Stellar's RNIC: 400 Gbps (2×200G ports bonded).
                port_gbps: 400.0,
                ..RnicDataPathConfig::default()
            },
            atc: AtcConfig::default(),
            mtt: MttConfig::default(),
            iommu: IommuConfig::default(),
            fabric: FabricConfig::default(),
            vdev: VdevManagerConfig::default(),
        }
    }
}

/// Per-RNIC hardware state.
pub struct RnicInstance {
    /// The endpoint in the PCIe fabric.
    pub device: DeviceId,
    /// Its PCIe switch.
    pub switch: SwitchId,
    /// Its BDF.
    pub bdf: Bdf,
    /// Memory translation table (legacy + extended entries).
    pub mtt: Mtt,
    /// PCIe address translation cache (baseline GDR path).
    pub atc: Atc,
    /// DMA engine.
    pub dma: DmaEngine,
    /// Virtual device manager.
    pub vdevs: VdevManager,
    /// Doorbell allocation in the BAR.
    pub doorbells: DoorbellTable,
    /// Hardware flow steering (baseline TCP/RDMA shared pipeline).
    pub vswitch: VSwitch,
    /// Verbs object registry.
    pub verbs: Verbs,
}

/// The server: PCIe fabric, RNICs, GPUs, containers.
pub struct StellarServer {
    config: ServerConfig,
    fabric: Fabric,
    rnics: Vec<RnicInstance>,
    gpus: Vec<DeviceId>,
    containers: Vec<RundContainer>,
    /// Bump allocator for container host memory.
    next_container_hpa: u64,
}

/// Main-memory HPA window base (device BARs live below).
const MAIN_MEMORY_BASE: u64 = 0x10_0000_0000;
/// First container's backing memory inside main memory.
const CONTAINER_HPA_BASE: u64 = 0x20_0000_0000;
/// RNIC BAR geometry. The BAR must hold one 4 KiB doorbell page per
/// vStellar device (up to 64 k devices -> 256 MiB).
const RNIC_BAR_BASE: u64 = 0x2000_0000;
const RNIC_BAR_SIZE: u64 = 0x1000_0000;
/// GPU BAR geometry (large BAR exposing HBM).
const GPU_BAR_BASE: u64 = 0x4_0000_0000;
const GPU_BAR_SIZE: u64 = 0x4000_0000;

impl StellarServer {
    /// Build a server per `config`.
    pub fn new(config: ServerConfig) -> Self {
        let iommu = Iommu::new(config.iommu.clone());
        let mut fabric = Fabric::new(
            config.fabric.clone(),
            iommu,
            Range::new(Hpa(MAIN_MEMORY_BASE), 1 << 42),
        );
        let mut rnics = Vec::new();
        let mut gpus = Vec::new();
        for s in 0..config.switches {
            let switch = fabric.add_switch();
            let bdf = Bdf::new(0x30 + s as u8, 0, 0);
            let bar = Range::new(Hpa(RNIC_BAR_BASE + s as u64 * RNIC_BAR_SIZE), RNIC_BAR_SIZE);
            let device = fabric
                .add_device(DeviceKind::Rnic, switch, bdf, bar)
                .expect("fresh BDF");
            rnics.push(RnicInstance {
                device,
                switch,
                bdf,
                mtt: Mtt::new(config.mtt.clone()),
                atc: Atc::new(config.atc.clone()),
                dma: DmaEngine::new(config.datapath.clone()),
                vdevs: VdevManager::new(config.vdev.clone()),
                doorbells: DoorbellTable::new(bar),
                vswitch: VSwitch::new(VSwitchConfig::default()),
                verbs: Verbs::new(),
            });
            for g in 0..config.gpus_per_switch {
                let idx = (s * config.gpus_per_switch + g) as u64;
                let gbar = Range::new(Hpa(GPU_BAR_BASE + idx * GPU_BAR_SIZE), GPU_BAR_SIZE);
                let gbdf = Bdf::new(0x50 + s as u8, g as u8, 0);
                let gpu = fabric
                    .add_device(DeviceKind::Gpu, switch, gbdf, gbar)
                    .expect("fresh BDF");
                gpus.push(gpu);
            }
        }
        StellarServer {
            config,
            fabric,
            rnics,
            gpus,
            containers: Vec::new(),
            next_container_hpa: CONTAINER_HPA_BASE,
        }
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The PCIe fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The PCIe fabric, mutable.
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// Number of RNICs.
    pub fn rnic_count(&self) -> usize {
        self.rnics.len()
    }

    /// An RNIC instance.
    pub fn rnic(&self, id: RnicId) -> &RnicInstance {
        &self.rnics[id.0]
    }

    /// An RNIC instance, mutable.
    pub fn rnic_mut(&mut self, id: RnicId) -> &mut RnicInstance {
        &mut self.rnics[id.0]
    }

    /// RNIC and fabric, both mutable (DMA execution needs both).
    pub fn rnic_and_fabric_mut(&mut self, id: RnicId) -> (&mut RnicInstance, &mut Fabric) {
        (&mut self.rnics[id.0], &mut self.fabric)
    }

    /// GPUs on the same PCIe switch as `rnic`.
    pub fn gpus_under(&self, rnic: RnicId) -> Vec<DeviceId> {
        let switch = self.rnics[rnic.0].switch;
        self.gpus
            .iter()
            .copied()
            .filter(|&g| self.fabric.device(g).map(|d| d.switch) == Some(switch))
            .collect()
    }

    /// All GPUs.
    pub fn gpus(&self) -> &[DeviceId] {
        &self.gpus
    }

    /// The GPU BAR window of `gpu`.
    pub fn gpu_bar(&self, gpu: DeviceId) -> Range<Hpa> {
        self.fabric.device(gpu).expect("known gpu").bar
    }

    /// Boot a RunD container with `memory_bytes` under `strategy`.
    pub fn boot_container(
        &mut self,
        memory_bytes: u64,
        strategy: MemoryStrategy,
    ) -> (ContainerId, BootReport) {
        let hpa = Hpa(self.next_container_hpa);
        self.next_container_hpa += memory_bytes.next_multiple_of(1 << 30);
        let (container, report) = RundContainer::boot(
            RundConfig::new(memory_bytes, strategy),
            self.fabric.iommu_mut(),
            hpa,
        )
        .expect("container boot");
        let id = ContainerId(self.containers.len());
        self.containers.push(container);
        (id, report)
    }

    /// A booted container.
    pub fn container(&self, id: ContainerId) -> &RundContainer {
        &self.containers[id.0]
    }

    /// Container and fabric, both mutable (PVDMA needs the IOMMU).
    pub fn container_and_fabric_mut(
        &mut self,
        id: ContainerId,
    ) -> (&mut RundContainer, &mut Fabric) {
        (&mut self.containers[id.0], &mut self.fabric)
    }
}

/// A server reports its layers' counters to telemetry when it drops.
impl Drop for StellarServer {
    fn drop(&mut self) {
        let rnics = |f: fn(&RnicInstance) -> u64| self.rnics.iter().map(f).sum::<u64>();
        let pvdma = self.containers.iter().filter_map(RundContainer::pvdma);
        let pvdmas = |f: fn(&Pvdma) -> u64| pvdma.clone().map(f).sum::<u64>();
        let iommu = self.fabric.iommu();
        let ((iotlb_hits, iotlb_misses, _), faults) = (iommu.iotlb_stats(), iommu.faults());
        fold_counters(Subsystem::Pcie, || {
            [
                ("atc.hit", rnics(|r| r.atc.stats().0)),
                ("atc.miss", rnics(|r| r.atc.stats().1)),
                ("iommu.fault", faults),
                ("iommu.iotlb_hit", iotlb_hits),
                ("iommu.iotlb_miss", iotlb_misses.saturating_sub(faults)),
                ("iommu.pinned_pages", iommu.pinned_pages_4k()),
            ]
        });
        // The DMA engines are the only TLP sources on the fabric.
        let (p2p, rc) = self.fabric.tlp_counters();
        fold_counters(Subsystem::Rnic, || {
            [
                ("dma.ops", rnics(|r| r.dma.ops())),
                ("dma.pages_p2p", p2p),
                ("dma.pages_rc", rc),
                ("doorbell.alloc", rnics(|r| r.doorbells.churn().0)),
                ("doorbell.release", rnics(|r| r.doorbells.churn().1)),
                ("vswitch.steer", rnics(|r| r.vswitch.steers())),
            ]
        });
        fold_counters(Subsystem::Virt, || {
            let full_pin = self.containers.len() as u64 - pvdmas(|_| 1);
            [
                ("pvdma.blocks_hit", pvdmas(|p| p.cache_stats().0)),
                ("pvdma.blocks_pinned", pvdmas(|p| p.cache_stats().1)),
                ("pvdma.prepare", pvdmas(Pvdma::prepares)),
                ("rund.boot", self.containers.len() as u64),
                ("rund.full_pin_boot", full_pin),
            ]
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_server_matches_paper_shape() {
        let s = StellarServer::new(ServerConfig::default());
        assert_eq!(s.rnic_count(), 4);
        assert_eq!(s.gpus().len(), 8);
        for r in 0..4 {
            assert_eq!(s.gpus_under(RnicId(r)).len(), 2);
        }
    }

    #[test]
    fn rnic_and_its_gpus_share_a_switch() {
        let s = StellarServer::new(ServerConfig::default());
        let rnic = s.rnic(RnicId(1));
        for gpu in s.gpus_under(RnicId(1)) {
            assert_eq!(s.fabric().device(gpu).unwrap().switch, rnic.switch);
        }
    }

    #[test]
    fn container_memory_windows_do_not_overlap() {
        let mut s = StellarServer::new(ServerConfig::default());
        let (a, _) = s.boot_container(1 << 30, MemoryStrategy::Pvdma);
        let (b, _) = s.boot_container(1 << 30, MemoryStrategy::Pvdma);
        let ra: Vec<_> = s.container(a).hypervisor().ram().extents().collect();
        let rb: Vec<_> = s.container(b).hypervisor().ram().extents().collect();
        let (_, ha, la) = ra[0];
        let (_, hb, _) = rb[0];
        assert!(hb.0 >= ha.0 + la);
    }

    #[test]
    fn bars_are_disjoint_per_device() {
        let s = StellarServer::new(ServerConfig::default());
        let mut bars: Vec<Range<Hpa>> = Vec::new();
        for r in 0..s.rnic_count() {
            bars.push(s.fabric().device(s.rnic(RnicId(r)).device).unwrap().bar);
        }
        for &g in s.gpus() {
            bars.push(s.gpu_bar(g));
        }
        for i in 0..bars.len() {
            for j in i + 1..bars.len() {
                assert!(!bars[i].overlaps(&bars[j]), "{i} vs {j}");
            }
        }
    }
}
