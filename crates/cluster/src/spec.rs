//! Tenant and cluster descriptions: what arrives, when, and how big.

use std::collections::BTreeSet;

use stellar_net::ClosConfig;
use stellar_sim::{SimDuration, SimTime};
use stellar_workloads::allreduce::BurstSchedule;

/// One tenant job submitted to the cluster.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Stable tenant name (report key; must be unique within a config).
    pub name: String,
    /// Ring size — one NIC slot per rank.
    pub ranks: usize,
    /// Submission time.
    pub arrival: SimTime,
    /// AllReduce payload per rank.
    pub data_bytes: u64,
    /// AllReduce iterations before the tenant departs.
    pub iterations: u32,
    /// Optional on/off schedule (background tenants).
    pub burst: Option<BurstSchedule>,
    /// RunD container memory (drives PVDMA boot time).
    pub memory_bytes: u64,
    /// vStellar device-churn storm: offsets **after the tenant starts
    /// its traffic** at which every ring connection's virtual device is
    /// torn out and recovered through the transport's recovery ladder.
    pub churns: Vec<SimDuration>,
}

impl TenantSpec {
    /// A plain tenant with `ranks` ranks arriving at `arrival`, carrying
    /// sensible defaults (1 MiB payloads, 4 iterations, 256 MiB
    /// container, no bursts, no churn).
    pub fn plain(name: impl Into<String>, ranks: usize, arrival: SimTime) -> Self {
        TenantSpec {
            name: name.into(),
            ranks,
            arrival,
            data_bytes: 1 << 20,
            iterations: 4,
            burst: None,
            memory_bytes: 256 << 20,
            churns: Vec::new(),
        }
    }
}

/// How the scheduler maps a tenant's ring onto free NIC slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Greedy first-fit bin-packing: the lowest-indexed rail with enough
    /// free slots, lowest-indexed hosts first. Packs tight, ignores
    /// segment locality — fragmented clusters produce rings straddling
    /// the segment boundary, whose every edge crosses the shared
    /// aggregation layer.
    BinPack,
    /// Topology/rail-aware: prefer the least-loaded `(segment, rail)`
    /// pair that holds the whole ring, spreading tenants across rails
    /// and keeping every ring edge inside one segment (two-hop ToR
    /// turnaround, no aggregation-layer sharing).
    TopoAware,
}

impl PlacementPolicy {
    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::BinPack => "binpack",
            PlacementPolicy::TopoAware => "topo",
        }
    }
}

/// The full cluster-run description.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Shared dual-plane topology every tenant lands on.
    pub topology: ClosConfig,
    /// Placement policy.
    pub policy: PlacementPolicy,
    /// Tenant jobs, in submission order.
    pub tenants: Vec<TenantSpec>,
    /// Seed for every stream in the run.
    pub seed: u64,
}

impl ClusterConfig {
    /// A config over `topology` with the given policy and tenants, and
    /// seed 42.
    pub fn new(topology: ClosConfig, policy: PlacementPolicy, tenants: Vec<TenantSpec>) -> Self {
        ClusterConfig {
            topology,
            policy,
            tenants,
            seed: 42,
        }
    }

    /// Total NIC slots the topology offers (hosts × rails).
    pub fn capacity(&self) -> usize {
        self.topology.segments * self.topology.hosts_per_segment * self.topology.rails
    }

    /// Check every tenant's job. A ring larger than the cluster is valid
    /// input: admission rejects it and the report says so.
    pub fn validate(&self) -> Result<(), ClusterConfigError> {
        let mut names = BTreeSet::new();
        for t in &self.tenants {
            let name = || t.name.clone();
            if !names.insert(t.name.as_str()) {
                return Err(ClusterConfigError::DuplicateName(name()));
            }
            if t.ranks < 2 {
                return Err(ClusterConfigError::TooFewRanks(name(), t.ranks));
            }
            if t.iterations == 0 {
                return Err(ClusterConfigError::ZeroIterations(name()));
            }
            if t.data_bytes < t.ranks as u64 {
                return Err(ClusterConfigError::DataTooSmall(name(), t.data_bytes));
            }
            if t.burst.is_some_and(|b| b.run_iters == 0) {
                return Err(ClusterConfigError::EmptyBurst(name()));
            }
        }
        Ok(())
    }
}

/// Why a [`ClusterConfig`] cannot run; each carries the tenant's name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterConfigError {
    /// A second tenant has this name.
    DuplicateName(String),
    /// The tenant's ring has fewer than 2 ranks; carries `ranks`.
    TooFewRanks(String, usize),
    /// The tenant runs zero iterations.
    ZeroIterations(String),
    /// The tenant's `data_bytes` is below one byte per rank; carries it.
    DataTooSmall(String, u64),
    /// The tenant's burst schedule runs zero iterations per burst.
    EmptyBurst(String),
}

impl std::fmt::Display for ClusterConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cluster config: tenant ")?;
        match self {
            Self::DuplicateName(t) => write!(f, "name {t:?} is not unique"),
            Self::TooFewRanks(t, n) => write!(f, "{t:?} has {n} rank(s), below 2"),
            Self::ZeroIterations(t) => write!(f, "{t:?} runs 0 iterations"),
            Self::DataTooSmall(t, n) => write!(f, "{t:?} data_bytes {n} is below its ranks"),
            Self::EmptyBurst(t) => write!(f, "{t:?} bursts run 0 iterations"),
        }
    }
}

impl std::error::Error for ClusterConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(tenants: Vec<TenantSpec>) -> ClusterConfig {
        let topology = ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 2,
            planes: 2,
            aggs_per_plane: 4,
        };
        ClusterConfig::new(topology, PlacementPolicy::TopoAware, tenants)
    }

    fn tenant(name: &str) -> TenantSpec {
        TenantSpec::plain(name, 4, SimTime::ZERO)
    }

    fn rejects(t: TenantSpec) -> ClusterConfigError {
        config(vec![tenant("ok"), t]).validate().unwrap_err()
    }

    #[test]
    fn plain_tenants_and_an_oversized_ring_validate() {
        let huge = TenantSpec::plain("huge", 64, SimTime::ZERO);
        assert_eq!(
            config(vec![tenant("a"), tenant("b"), huge]).validate(),
            Ok(())
        );
    }

    #[test]
    fn rejects_a_duplicate_name() {
        let e = rejects(tenant("ok"));
        assert_eq!(e, ClusterConfigError::DuplicateName("ok".into()));
        assert_eq!(
            e.to_string(),
            "cluster config: tenant name \"ok\" is not unique"
        );
    }

    #[test]
    fn rejects_a_ring_below_two_ranks() {
        let t = TenantSpec::plain("solo", 1, SimTime::ZERO);
        assert_eq!(
            rejects(t),
            ClusterConfigError::TooFewRanks("solo".into(), 1)
        );
    }

    #[test]
    fn rejects_zero_iterations() {
        let t = TenantSpec {
            iterations: 0,
            ..tenant("idle")
        };
        assert_eq!(
            rejects(t),
            ClusterConfigError::ZeroIterations("idle".into())
        );
    }

    #[test]
    fn rejects_data_below_one_byte_per_rank() {
        let t = TenantSpec {
            data_bytes: 3,
            ..tenant("tiny")
        };
        assert_eq!(
            rejects(t),
            ClusterConfigError::DataTooSmall("tiny".into(), 3)
        );
    }

    #[test]
    fn rejects_a_burst_of_zero_iterations() {
        let t = TenantSpec {
            burst: Some(BurstSchedule {
                run_iters: 0,
                pause: SimDuration::from_micros(10),
            }),
            ..tenant("bursty")
        };
        assert_eq!(rejects(t), ClusterConfigError::EmptyBurst("bursty".into()));
    }
}
