//! The cluster scheduler: arrival → admission → boot → traffic →
//! departure, all inside one deterministic transport event loop.
//!
//! Tenants arrive on app timers. Admission is FIFO: the head of the
//! queue is placed as soon as its ring fits (head-of-line blocking is
//! deliberate — it makes `admitted ≤ capacity` trivially auditable and
//! starvation impossible). An admitted tenant pays its full lifecycle
//! before the first byte flows: RunD container boot (PVDMA, so boot
//! time is memory-independent to first order), vStellar device create
//! (~1.5 s by default), PVDMA MR pin sized to the AllReduce payload,
//! and QP bring-up — all costed live on a control-plane rig
//! ([`StellarServer`]) with the run's [`VStellarStack`] timing. Then
//! its ring joins the shared [`AllReduceRunner`] and contends with
//! every other admitted tenant on the one fabric.
//!
//! Device-churn storms fire per-tenant timers that rip the virtual
//! device out from under every ring connection
//! ([`TransportSim::device_churn`]); the transport's recovery ladder
//! brings them back after the live-measured churn lifecycle, replaying
//! exactly the packets that never landed.

use std::collections::{HashMap, VecDeque};

use stellar_core::vstellar::VStellarStack;
use stellar_core::{RnicId, ServerConfig, StellarServer};
use stellar_net::fixture::packet_fabric;
use stellar_net::{ClosConfig, ClosTopology, Fabric, Network, NetworkConfig, NicId};
use stellar_pcie::addr::{Gva, PAGE_4K};
use stellar_sim::stats::Histogram;
use stellar_sim::{SimDuration, SimRng, SimTime};
use stellar_transport::{
    App, ConnId, FatalError, MsgId, RecoveryPolicy, TransportConfig, TransportSim,
};
use stellar_virt::rund::MemoryStrategy;
use stellar_workloads::allreduce::{AllReduceJob, AllReduceRunner};

use crate::placement::{Slot, SlotMap};
use crate::report::{ClusterReport, TenantSlo};
use crate::spec::{ClusterConfig, TenantSpec};

const FOREVER: SimTime = SimTime::from_nanos(u64::MAX / 2);

/// Timer tokens at or above this base belong to the scheduler; anything
/// below is forwarded to the inner [`AllReduceRunner`] (whose burst
/// tokens are job indices).
const TOKEN_BASE: u64 = 1 << 48;
const KIND_ARRIVAL: u64 = 1;
const KIND_START: u64 = 2;
const KIND_CHURN: u64 = 3;

fn token(kind: u64, tenant: usize) -> u64 {
    kind * TOKEN_BASE + tenant as u64
}

/// Per-tenant lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Not yet arrived.
    Pending,
    /// Arrived, waiting in the admission queue.
    Queued,
    /// Admitted, paying boot + vStellar setup.
    Booting,
    /// Traffic flowing.
    Running,
    /// All iterations complete, slots released.
    Departed,
    /// Ring larger than the whole cluster — never admissible.
    Rejected,
}

#[derive(Debug, Clone)]
struct TenantState {
    phase: Phase,
    slots: Vec<Slot>,
    job: Option<usize>,
    admitted_at: SimTime,
    started_at: SimTime,
    recoveries: u64,
    downtime: SimDuration,
}

/// The measured per-tenant setup cost: RunD boot + vStellar create +
/// PVDMA MR pin + QP bring-up, costed on a fresh control-plane rig with
/// the given stack timing.
pub fn tenant_setup_cost(stack: &VStellarStack, spec: &TenantSpec) -> SimDuration {
    let mut server = StellarServer::new(ServerConfig::default());
    let (container, boot) = server.boot_container(spec.memory_bytes, MemoryStrategy::Pvdma);
    let (device, create_t) = stack
        .create_device(&mut server, container, RnicId(0))
        .expect("vStellar device creation on the rig");
    let mr_base = Gva(4 << 20);
    let mr_len = spec.data_bytes.next_multiple_of(PAGE_4K).max(PAGE_4K);
    let (_, pin_t) = stack
        .register_mr_host(&mut server, &device, mr_base, mr_len)
        .expect("PVDMA MR pin on the rig");
    let (_, qp_t) = stack
        .create_qp(&mut server, &device)
        .expect("QP bring-up on the rig");
    boot.total + create_t + pin_t + qp_t
}

/// The device destroy→recreate lifecycle cost under `stack`'s timing —
/// what a churned connection's recovery `reestablish` must charge.
pub fn churn_cost(stack: &VStellarStack) -> SimDuration {
    const MB: u64 = 1 << 20;
    let mut server = StellarServer::new(ServerConfig::default());
    let (container, _) = server.boot_container(256 * MB, MemoryStrategy::Pvdma);
    let (device, _) = stack
        .create_device(&mut server, container, RnicId(0))
        .expect("vStellar device creation on the rig");
    stack
        .register_mr_host(&mut server, &device, Gva(4 * MB), 4 * MB)
        .expect("host MR registration on the rig");
    stack
        .churn_device(&mut server, device, &[(Gva(4 * MB), 4 * MB)])
        .expect("device churn on the rig")
        .elapsed
}

struct Scheduler<'a> {
    config: &'a ClusterConfig,
    topology: ClosTopology,
    runner: AllReduceRunner,
    slots: SlotMap,
    tenants: Vec<TenantState>,
    queue: VecDeque<usize>,
    conn_owner: HashMap<ConnId, usize>,
    /// Completion latencies of each tenant's ring messages.
    latency: Vec<Histogram>,
    setup: Vec<SimDuration>,
    admitted_ranks: usize,
    peak_admitted_ranks: usize,
    errors: usize,
}

impl Scheduler<'_> {
    /// FIFO admission: place queue heads while they fit. Every
    /// successful admission is a scheduler quiesce point — the slot
    /// ledger invariants run there.
    fn drain_queue<F: Fabric>(&mut self, sim: &mut TransportSim<F>) {
        while let Some(&t) = self.queue.front() {
            let spec = &self.config.tenants[t];
            // Rings are rail-aligned: anything wider than one rail's
            // host count can never place, even in an empty cluster.
            if spec.ranks > self.slots.max_ring() {
                self.queue.pop_front();
                self.tenants[t].phase = Phase::Rejected;
                continue;
            }
            let Some(placed) = self.slots.place(self.config.policy, spec.ranks, t) else {
                break; // head-of-line blocking: FIFO order is strict
            };
            self.queue.pop_front();
            let now = sim.now();
            let st = &mut self.tenants[t];
            st.phase = Phase::Booting;
            st.slots = placed;
            st.admitted_at = now;
            self.admitted_ranks += spec.ranks;
            self.peak_admitted_ranks = self.peak_admitted_ranks.max(self.admitted_ranks);
            sim.schedule_timer(now + self.setup[t], token(KIND_START, t));
            self.slots.check_invariants(now, self.admitted_ranks);
        }
    }

    /// Boot finished: open the ring and let the tenant contend.
    fn start_tenant<F: Fabric>(&mut self, sim: &mut TransportSim<F>, t: usize) {
        let spec = &self.config.tenants[t];
        let nics: Vec<NicId> = self.tenants[t]
            .slots
            .iter()
            .map(|s| self.topology.nic(s.host, s.rail))
            .collect();
        let job = self.runner.add_job(
            sim,
            AllReduceJob {
                nics,
                data_bytes: spec.data_bytes,
                iterations: spec.iterations,
                burst: spec.burst,
            },
        );
        for &c in self.runner.job_conns(job) {
            self.conn_owner.insert(c, t);
        }
        let now = sim.now();
        let st = &mut self.tenants[t];
        st.phase = Phase::Running;
        st.job = Some(job);
        st.started_at = now;
        for &offset in &spec.churns {
            sim.schedule_timer(now + offset, token(KIND_CHURN, t));
        }
        self.runner.start_job(sim, job);
    }

    /// The tenant's job completed every iteration: release its slots
    /// and admit whoever now fits. Another quiesce point.
    fn depart_tenant<F: Fabric>(&mut self, sim: &mut TransportSim<F>, t: usize) {
        self.tenants[t].phase = Phase::Departed;
        self.admitted_ranks -= self.config.tenants[t].ranks;
        self.slots.release(t);
        self.slots.check_invariants(sim.now(), self.admitted_ranks);
        self.drain_queue(sim);
    }

    /// Storm tick: rip the virtual device out from under every ring
    /// connection still active. Recovering/terminal connections are
    /// untouched (`device_churn` no-ops on them).
    fn churn_tenant<F: Fabric>(&mut self, sim: &mut TransportSim<F>, t: usize) {
        if self.tenants[t].phase != Phase::Running {
            return;
        }
        let job = self.tenants[t].job.expect("running tenant has a job");
        let conns = self.runner.job_conns(job).to_vec();
        for c in conns {
            sim.device_churn(c);
        }
    }

    /// End-of-run quiesce: every departed tenant's connections must be
    /// fully drained — idle, not mid-recovery, no terminal error.
    fn check_departed_quiesced<F: Fabric>(&self, sim: &TransportSim<F>) {
        stellar_check::at_quiesce(sim.now(), stellar_check::Layer::Cluster, |c| {
            for (t, st) in self.tenants.iter().enumerate() {
                if st.phase != Phase::Departed {
                    continue;
                }
                let job = st.job.expect("departed tenant ran a job");
                for &conn in self.runner.job_conns(job) {
                    c.check(
                        "cluster.departed_quiesced",
                        sim.conn_idle(conn) && sim.conn_error(conn).is_none(),
                        || {
                            format!(
                                "tenant {t} departed but conn {} is not quiesced \
                                 (idle={}, error={:?})",
                                conn.0,
                                sim.conn_idle(conn),
                                sim.conn_error(conn)
                            )
                        },
                    );
                }
            }
        });
    }
}

impl<F: Fabric> App<F> for Scheduler<'_> {
    fn on_message_latency(
        &mut self,
        _sim: &mut TransportSim<F>,
        conn: ConnId,
        _msg: MsgId,
        latency: SimDuration,
    ) {
        if let Some(&t) = self.conn_owner.get(&conn) {
            self.latency[t].record_duration(latency);
        }
    }

    fn on_message_complete(&mut self, sim: &mut TransportSim<F>, conn: ConnId, msg: MsgId) {
        self.runner.on_message_complete(sim, conn, msg);
        let Some(&t) = self.conn_owner.get(&conn) else {
            return;
        };
        if self.tenants[t].phase == Phase::Running
            && self
                .tenants[t]
                .job
                .is_some_and(|j| self.runner.job_finished(j))
        {
            self.depart_tenant(sim, t);
        }
    }

    fn on_timer(&mut self, sim: &mut TransportSim<F>, tok: u64) {
        if tok < TOKEN_BASE {
            self.runner.on_timer(sim, tok);
            return;
        }
        let kind = tok / TOKEN_BASE;
        let t = (tok % TOKEN_BASE) as usize;
        match kind {
            KIND_ARRIVAL => {
                debug_assert_eq!(self.tenants[t].phase, Phase::Pending);
                self.tenants[t].phase = Phase::Queued;
                self.queue.push_back(t);
                self.drain_queue(sim);
            }
            KIND_START => self.start_tenant(sim, t),
            KIND_CHURN => self.churn_tenant(sim, t),
            _ => unreachable!("unknown scheduler timer kind {kind}"),
        }
    }

    fn on_connection_error(&mut self, _sim: &mut TransportSim<F>, _conn: ConnId, _e: FatalError) {
        self.errors += 1;
    }

    fn on_connection_recovered(
        &mut self,
        _sim: &mut TransportSim<F>,
        conn: ConnId,
        downtime: SimDuration,
    ) {
        if let Some(&t) = self.conn_owner.get(&conn) {
            self.tenants[t].recoveries += 1;
            self.tenants[t].downtime += downtime;
        }
    }
}

/// Run the cluster on a caller-built fabric (same builder contract as
/// the workload helpers: the fixture owns the canonical `"net"` fork).
pub fn run_cluster_with<F: Fabric>(
    config: &ClusterConfig,
    build: impl FnOnce(ClosConfig, NetworkConfig, &SimRng) -> F,
) -> ClusterReport {
    let rng = SimRng::from_seed(config.seed);
    let fabric = build(config.topology.clone(), NetworkConfig::default(), &rng);
    let mut sim = TransportSim::new(
        fabric,
        TransportConfig {
            recovery: Some(RecoveryPolicy {
                // Recovery after device churn pays the full measured
                // create→re-pin→bring-up lifecycle.
                reestablish: churn_cost(&config.vstellar),
                ..config.recovery.clone()
            }),
            ..TransportConfig::default()
        },
        rng.fork("transport"),
    );

    let setup: Vec<SimDuration> = config
        .tenants
        .iter()
        .map(|spec| tenant_setup_cost(&config.vstellar, spec))
        .collect();
    let mut app = Scheduler {
        topology: ClosTopology::build(config.topology.clone()),
        runner: AllReduceRunner::new(&mut sim, Vec::new()),
        slots: SlotMap::new(&config.topology),
        tenants: vec![
            TenantState {
                phase: Phase::Pending,
                slots: Vec::new(),
                job: None,
                admitted_at: SimTime::ZERO,
                started_at: SimTime::ZERO,
                recoveries: 0,
                downtime: SimDuration::ZERO,
            };
            config.tenants.len()
        ],
        queue: VecDeque::new(),
        conn_owner: HashMap::new(),
        latency: vec![Histogram::new(); config.tenants.len()],
        setup,
        admitted_ranks: 0,
        peak_admitted_ranks: 0,
        errors: 0,
        config,
    };
    for (t, spec) in config.tenants.iter().enumerate() {
        sim.schedule_timer(spec.arrival, token(KIND_ARRIVAL, t));
    }
    sim.run(&mut app, FOREVER);
    app.check_departed_quiesced(&sim);
    app.slots.check_invariants(sim.now(), app.admitted_ranks);

    let tenants: Vec<TenantSlo> = config
        .tenants
        .iter()
        .enumerate()
        .map(|(t, spec)| {
            let st = &app.tenants[t];
            let (goodput, p99, finished) = match st.job {
                Some(j) => {
                    let p99 = app.latency[t]
                        .percentiles()
                        .p99()
                        .map_or(-1.0, |ns| ns as f64 / 1e3);
                    (
                        app.runner.report(j).mean_bus_bandwidth_gbs(),
                        p99,
                        app.runner.job_finished(j),
                    )
                }
                None => (0.0, -1.0, false),
            };
            TenantSlo {
                name: spec.name.clone(),
                ranks: spec.ranks,
                segment_span: app.slots.segment_span(&st.slots),
                slots: st.slots.clone(),
                wait: st.admitted_at.saturating_duration_since(spec.arrival),
                boot: st.started_at.saturating_duration_since(st.admitted_at),
                goodput_gbs: goodput,
                p99_latency_us: p99,
                recoveries: st.recoveries,
                downtime: st.downtime,
                finished,
            }
        })
        .collect();
    let all_finished = tenants.iter().all(|t| t.finished);
    let total_recoveries = tenants.iter().map(|t| t.recoveries).sum();
    ClusterReport {
        policy: config.policy.name(),
        capacity: app.slots.capacity(),
        peak_admitted_ranks: app.peak_admitted_ranks,
        errors: app.errors,
        total_recoveries,
        all_finished,
        tenants,
    }
}

/// Run the cluster on the packet-level fabric (the default).
pub fn run_cluster(config: &ClusterConfig) -> ClusterReport {
    run_cluster_with::<Network>(config, packet_fabric)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PlacementPolicy;
    use stellar_net::ClosConfig;

    fn small_topo() -> ClosConfig {
        ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 2,
            planes: 2,
            aggs_per_plane: 4,
        }
    }

    fn two_tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec {
                data_bytes: 256 << 10,
                iterations: 2,
                ..TenantSpec::plain("a", 4, SimTime::ZERO)
            },
            TenantSpec {
                data_bytes: 256 << 10,
                iterations: 2,
                ..TenantSpec::plain("b", 4, SimTime::from_nanos(1_000_000))
            },
        ]
    }

    #[test]
    fn tenants_boot_run_and_depart() {
        let config = ClusterConfig::new(small_topo(), PlacementPolicy::TopoAware, two_tenants());
        let r = stellar_check::strict(|| run_cluster(&config));
        assert!(r.all_finished);
        assert_eq!(r.errors, 0);
        assert_eq!(r.peak_admitted_ranks, 8);
        for t in &r.tenants {
            assert!(t.goodput_gbs > 0.0, "{}: no goodput", t.name);
            assert!(t.p99_latency_us > 0.0);
            // Boot pays at least the RunD microvm boot plus the ~1.5 s
            // vStellar device creation.
            assert!(t.boot.as_secs_f64() > 1.5, "boot={}", t.boot);
        }
    }

    #[test]
    fn queueing_delays_but_admits_everyone() {
        // Four 8-rank tenants on a 16-slot cluster arriving at once:
        // two run, two queue until a departure frees slots.
        let tenants: Vec<TenantSpec> = (0..4)
            .map(|i| TenantSpec {
                data_bytes: 256 << 10,
                iterations: 2,
                ..TenantSpec::plain(format!("t{i}"), 8, SimTime::ZERO)
            })
            .collect();
        let config = ClusterConfig::new(small_topo(), PlacementPolicy::BinPack, tenants);
        let r = stellar_check::strict(|| run_cluster(&config));
        assert!(r.all_finished);
        assert_eq!(r.peak_admitted_ranks, 16);
        assert!(r.max_wait() > SimDuration::ZERO, "someone must queue");
        let queued = r.tenants.iter().filter(|t| t.wait > SimDuration::ZERO).count();
        assert_eq!(queued, 2);
    }

    #[test]
    fn oversized_tenants_are_rejected_not_deadlocked() {
        let mut tenants = two_tenants();
        tenants.push(TenantSpec {
            data_bytes: 256 << 10,
            iterations: 1,
            ..TenantSpec::plain("huge", 17, SimTime::ZERO)
        });
        let config = ClusterConfig::new(small_topo(), PlacementPolicy::BinPack, tenants);
        let r = stellar_check::strict(|| run_cluster(&config));
        assert!(!r.all_finished);
        let huge = &r.tenants[2];
        assert!(huge.slots.is_empty() && !huge.finished);
        assert!(r.tenants[0].finished && r.tenants[1].finished);
    }

    #[test]
    fn churn_storm_recovers_every_connection() {
        let mut tenants = two_tenants();
        tenants[0].iterations = 6;
        tenants[0].churns = vec![SimDuration::from_micros(50)];
        let config = ClusterConfig::new(small_topo(), PlacementPolicy::TopoAware, tenants);
        let r = stellar_check::strict(|| run_cluster(&config));
        assert!(r.all_finished, "churned tenant must still finish");
        assert_eq!(r.errors, 0, "churn must never be terminal");
        assert!(r.tenants[0].recoveries > 0, "the storm must bite");
        assert_eq!(r.tenants[1].recoveries, 0);
        // Downtime per recovery covers at least the churn lifecycle.
        let floor = churn_cost(&config.vstellar);
        assert!(
            r.tenants[0].downtime >= floor,
            "downtime {} < churn cost {floor}",
            r.tenants[0].downtime
        );
    }

    #[test]
    fn report_is_deterministic() {
        let config = ClusterConfig::new(small_topo(), PlacementPolicy::TopoAware, two_tenants());
        assert_eq!(run_cluster(&config).render(), run_cluster(&config).render());
    }
}
