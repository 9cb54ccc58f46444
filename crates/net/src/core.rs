//! The model-independent half of every fabric.
//!
//! The packet, fluid and hybrid fabrics differ only in how they carry a
//! packet across its route. Everything else lives once, in [`Core`]: the
//! topology and link configuration, each link's fault state and
//! transmit counters, the installed fault plan and its cursor, the
//! bounded packet trace, the control-plane reroute, and the reports
//! built from link counters. A [`Model`] carries packets on a borrowed
//! core and keeps its own conservation [`Ledger`]; [`ModelFabric`] pairs
//! one core with one model behind a single [`Fabric`] implementation.
//! The hybrid is one more model that owns a packet and a fluid model,
//! so it shares one topology, one link table and one fault applier with
//! both of them.

use stellar_check::Checker;
use stellar_sim::{transmit_time, SimDuration, SimTime};
use stellar_telemetry::{event, fold_counters, Entity, Subsystem};

use crate::fabric::{Fabric, FabricKind};
use crate::fault::{FaultEvent, FaultPlan};
use crate::network::{Delivery, DropReason, LinkStats, NetworkConfig, TraceRecord};
use crate::topology::{ClosTopology, LinkId, NicId, Route};

/// An active optical-degradation ramp on one link.
#[derive(Debug, Clone, Copy)]
pub struct DegradeRamp {
    t0: SimTime,
    from: f64,
    to: f64,
    over: SimDuration,
}

impl DegradeRamp {
    /// Loss probability at time `t`: linear interpolation inside the
    /// window, clamped to the endpoints outside it.
    pub fn loss_at(&self, t: SimTime) -> f64 {
        if t <= self.t0 {
            return self.from;
        }
        let elapsed = t.duration_since(self.t0).as_nanos();
        let window = self.over.as_nanos();
        if window == 0 || elapsed >= window {
            return self.to;
        }
        self.from + (self.to - self.from) * (elapsed as f64 / window as f64)
    }
}

/// One directed link's fault state. Queueing is the model's business
/// (port calendars or per-flow calendars), and the transmit counters
/// live in [`Core`]'s counter table.
///
/// The rare degrade ramp is boxed. The state is private to this module:
/// [`Core`] writes it and keeps its count of faulty links current.
#[derive(Debug, Clone)]
pub struct Link {
    up: bool,
    down_since: SimTime,
    loss_prob: f64,
    degrade: Option<Box<DegradeRamp>>,
}

/// What every link reads until the first fault write allocates the
/// table: up, lossless, no ramp.
static HEALTHY: Link = Link {
    up: true,
    down_since: SimTime::ZERO,
    loss_prob: 0.0,
    degrade: None,
};

impl Link {
    /// Whether the link forwards at all.
    #[inline]
    pub fn up(&self) -> bool {
        self.up
    }

    /// Flat random-loss probability.
    #[inline]
    pub fn loss_prob(&self) -> f64 {
        self.loss_prob
    }

    /// The installed optical-degradation ramp, if any.
    #[inline]
    pub fn degrade(&self) -> Option<&DegradeRamp> {
        self.degrade.as_deref()
    }

    /// Whether the link carries any fault state at all — down, lossy, or
    /// with a ramp installed — whatever the ramp's loss at the moment.
    /// [`Link::faulty`] is false at every instant for a link that is not
    /// this.
    fn has_fault_state(&self) -> bool {
        !self.up || self.loss_prob > 0.0 || self.degrade.is_some()
    }

    /// Whether the link is down, lossy, or degrading at `now`.
    pub fn faulty(&self, now: SimTime) -> bool {
        !self.up
            || self.loss_prob > 0.0
            || self.degrade.as_ref().map_or(0.0, |r| r.loss_at(now)) > 0.0
    }
}

/// One link's transmit counters, indexed by [`TX_BYTES`],
/// [`TX_PACKETS`], [`DROPS`] and [`ECN_MARKS`]. A plain `u64` array, so
/// the table of them is allocated zeroed and a link no packet crosses
/// costs no resident memory.
pub type LinkCounters = [u64; 4];

/// Bytes transmitted.
pub const TX_BYTES: usize = 0;
/// Packets transmitted.
pub const TX_PACKETS: usize = 1;
/// Packets dropped at this port.
pub const DROPS: usize = 2;
/// Packets ECN-marked at this port.
pub const ECN_MARKS: usize = 3;

/// The arguments of one [`Fabric::send`].
#[derive(Debug, Clone, Copy)]
pub struct Packet {
    pub now: SimTime,
    pub src: NicId,
    pub dst: NicId,
    pub flow: u64,
    pub path_id: u32,
    pub bytes: u64,
}

/// A model's conservation ledger: every packet it was handed, and what
/// became of it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ledger {
    /// Drops by [`DropReason::index`].
    pub drops: [u64; 4],
    /// ECN marks: per marking port (packet model) or packet (fluid).
    pub ecn_marks: u64,
    pub injected_packets: u64,
    pub injected_bytes: u64,
    pub delivered_packets: u64,
    pub delivered_bytes: u64,
    /// Bytes of the packets counted in `drops`.
    pub dropped_bytes: u64,
}

impl Ledger {
    /// Both ledgers, field by field.
    pub fn plus(mut self, other: &Ledger) -> Ledger {
        for (d, o) in self.drops.iter_mut().zip(other.drops) {
            *d += o;
        }
        self.ecn_marks += other.ecn_marks;
        self.injected_packets += other.injected_packets;
        self.injected_bytes += other.injected_bytes;
        self.delivered_packets += other.delivered_packets;
        self.delivered_bytes += other.delivered_bytes;
        self.dropped_bytes += other.dropped_bytes;
        self
    }

    /// Packet and byte conservation: `injected == delivered + dropped`.
    pub fn check(&self, c: &mut Checker) {
        let dropped: u64 = self.drops.iter().sum();
        c.check(
            "net.packet_conservation",
            self.injected_packets == self.delivered_packets + dropped,
            || {
                format!(
                    "injected {} != delivered {} + drops {} ({:?} by reason)",
                    self.injected_packets, self.delivered_packets, dropped, self.drops
                )
            },
        );
        c.check(
            "net.byte_conservation",
            self.injected_bytes == self.delivered_bytes + self.dropped_bytes,
            || {
                format!(
                    "injected {} B != delivered {} B + dropped {} B",
                    self.injected_bytes, self.delivered_bytes, self.dropped_bytes
                )
            },
        );
    }
}

/// The state every fabric model shares. See the module docs.
#[derive(Debug)]
pub struct Core {
    pub topo: ClosTopology,
    pub config: NetworkConfig,
    /// Transmit counters by link id.
    counters: Vec<LinkCounters>,
    /// Fault state by link id; empty until the first fault write, and
    /// every link reads [`HEALTHY`] until then.
    faults: Vec<Link>,
    /// Links with fault state ([`Link::has_fault_state`]). While it is
    /// zero every link is up and lossless, so the reroute and the models'
    /// per-link fault screens are skipped.
    faulty_links: usize,
    /// Installed fault schedule, sorted by time; `plan_cursor` is the
    /// first not-yet-applied event.
    plan: Vec<(SimTime, FaultEvent)>,
    plan_cursor: usize,
    /// Fault-plan events applied so far.
    faults_applied: u64,
    /// Bounded packet trace; `None` = tracing off (the default).
    trace: Option<(Vec<TraceRecord>, usize)>,
}

impl Core {
    pub fn new(topo: ClosTopology, config: NetworkConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        // `[0u64; 4]` takes the zeroed-allocation path: the pages of links
        // that never transmit are never written.
        let counters = vec![[0u64; 4]; topo.total_links()];
        Core {
            topo,
            config,
            counters,
            faults: Vec::new(),
            faulty_links: 0,
            plan: Vec::new(),
            plan_cursor: 0,
            faults_applied: 0,
            trace: None,
        }
    }

    /// Validate and install a fault schedule, replacing any previous
    /// plan; already-applied state is left as is.
    fn install_fault_plan(&mut self, plan: FaultPlan) {
        if let Err(e) = plan.validate(&self.topo) {
            panic!("{e}");
        }
        self.plan = plan.into_events();
        self.plan_cursor = 0;
    }

    /// Apply every scheduled fault event with timestamp `<= now`.
    /// Returns whether any fired.
    #[inline]
    fn apply_faults(&mut self, now: SimTime) -> bool {
        let first = self.plan_cursor;
        while let Some(&(at, ev)) = self.plan.get(self.plan_cursor) {
            if at > now {
                break;
            }
            self.plan_cursor += 1;
            self.apply_fault_event(at, ev);
        }
        self.plan_cursor > first
    }

    /// Apply one event at its scheduled time `at` (which may precede the
    /// packet that triggered the catch-up — the control plane's
    /// convergence clock starts at the true fault time).
    fn apply_fault_event(&mut self, at: SimTime, ev: FaultEvent) {
        self.faults_applied += 1;
        event(at, Subsystem::Net, Entity::None, ev.kind(), 0);
        let (links, up) = match ev {
            FaultEvent::LinkDown(l) => (vec![l], false),
            FaultEvent::LinkUp(l) => (vec![l], true),
            FaultEvent::SwitchDown(node) => (self.topo.links_of_node(node), false),
            FaultEvent::SwitchUp(node) => (self.topo.links_of_node(node), true),
            FaultEvent::NicPortDown { nic, plane } => {
                let (up, down) = self.topo.nic_port_links(nic, plane as usize);
                (vec![up, down], false)
            }
            FaultEvent::NicPortUp { nic, plane } => {
                let (up, down) = self.topo.nic_port_links(nic, plane as usize);
                (vec![up, down], true)
            }
            FaultEvent::SetLoss { link, p } => {
                self.update_link(link, |l| {
                    l.loss_prob = p;
                    l.degrade = None;
                });
                return;
            }
            FaultEvent::DegradeRamp {
                link,
                from,
                to,
                over,
            } => {
                let ramp = DegradeRamp {
                    t0: at,
                    from,
                    to,
                    over,
                };
                self.update_link(link, |l| l.degrade = Some(Box::new(ramp)));
                return;
            }
        };
        for l in links {
            self.set_link_state_at(at, l, up);
        }
    }

    fn set_link_state_at(&mut self, now: SimTime, link: LinkId, up: bool) {
        self.update_link(link, |l| {
            if l.up && !up {
                l.down_since = now;
            }
            l.up = up;
        });
    }

    fn set_loss(&mut self, link: LinkId, p: f64) {
        self.update_link(link, |l| l.loss_prob = p);
    }

    /// Change `link`'s fault state, keeping `faulty_links` current. Every
    /// write to a link's fault state goes through here; the first one
    /// allocates the fault table.
    fn update_link(&mut self, link: LinkId, change: impl FnOnce(&mut Link)) {
        if self.faults.is_empty() {
            self.faults = vec![HEALTHY.clone(); self.topo.total_links()];
        }
        let l = &mut self.faults[link.0 as usize];
        let was = l.has_fault_state();
        change(l);
        match (was, l.has_fault_state()) {
            (false, true) => self.faulty_links += 1,
            (true, false) => self.faulty_links -= 1,
            _ => {}
        }
    }

    /// Whether no link carries fault state: every route is up and
    /// lossless, whatever the time.
    #[inline]
    pub fn fault_free(&self) -> bool {
        self.faulty_links == 0
    }

    /// `link`'s fault state.
    #[inline]
    pub fn link(&self, link: LinkId) -> &Link {
        self.faults.get(link.0 as usize).unwrap_or(&HEALTHY)
    }

    /// `link`'s transmit counters.
    #[inline]
    pub fn counters(&self, link: LinkId) -> &LinkCounters {
        &self.counters[link.0 as usize]
    }

    /// Count one packet of `bytes` transmitted on `link`, ECN-marked or
    /// not.
    #[inline]
    pub fn transmit(&mut self, link: LinkId, bytes: u64, ecn: bool) {
        let c = &mut self.counters[link.0 as usize];
        c[TX_BYTES] += bytes;
        c[TX_PACKETS] += 1;
        c[ECN_MARKS] += u64::from(ecn);
    }

    fn route_is_up(&self, route: &[LinkId]) -> bool {
        route.iter().all(|&l| self.link(l).up)
    }

    /// Whether the control plane has converged around every down link on
    /// `route` by `now`.
    fn converged_around(&self, now: SimTime, route: &[LinkId]) -> bool {
        route.iter().all(|&l| {
            let link = self.link(l);
            link.up || now.saturating_duration_since(link.down_since) >= self.config.bgp_convergence
        })
    }

    /// Control-plane reroute: once BGP has converged around a failed
    /// link on `route`, the routing tables steer this slot to a live
    /// alternative (successive path-table slots are probed, as route
    /// withdrawal re-hashes onto the surviving next hops). Otherwise
    /// `route` stands, dead links and all.
    #[inline]
    pub fn reroute(&self, p: &Packet, route: Route) -> Route {
        if self.fault_free() || self.route_is_up(&route) || !self.converged_around(p.now, &route) {
            return route;
        }
        let slots = (self.topo.config().planes * self.topo.config().aggs_per_plane) as u32;
        (1..slots)
            .map(|bump| {
                self.topo
                    .route(p.src, p.dst, p.flow, p.path_id.wrapping_add(bump))
            })
            .find(|alt| self.route_is_up(alt))
            .unwrap_or(route)
    }

    /// Book the fate of one packet of `bytes` in the carrying model's
    /// `ledger`, and a drop on the link where it died.
    #[inline]
    pub fn book(&mut self, ledger: &mut Ledger, bytes: u64, delivery: Delivery) {
        ledger.injected_packets += 1;
        ledger.injected_bytes += bytes;
        match delivery {
            Delivery::Delivered { .. } => {
                ledger.delivered_packets += 1;
                ledger.delivered_bytes += bytes;
            }
            Delivery::Dropped { link, reason, .. } => {
                self.counters[link.0 as usize][DROPS] += 1;
                ledger.drops[reason.index()] += 1;
                ledger.dropped_bytes += bytes;
            }
        }
    }

    /// Fig. 12 imbalance over the ToR→Agg uplinks of every ToR that
    /// carried traffic: `(max−min)/capacity` of the per-port byte loads,
    /// where capacity is the busiest port's load (the paper normalizes by
    /// total port bandwidth; over a fixed window the busiest port's bytes
    /// play that role). Idle ToRs (other rails/segments) are not part of
    /// the experiment and do not participate.
    fn tor_uplink_imbalance(&self) -> f64 {
        use std::collections::HashMap;
        let mut by_tor: HashMap<crate::topology::NodeId, Vec<f64>> = HashMap::new();
        for l in self.topo.tor_uplinks() {
            let (from, _) = self.topo.link_endpoints(l);
            by_tor
                .entry(from)
                .or_default()
                .push(self.counters(l)[TX_BYTES] as f64);
        }
        let loads: Vec<f64> = by_tor
            .values()
            .filter(|ports| ports.iter().any(|&b| b > 0.0))
            .flatten()
            .copied()
            .collect();
        let max = loads.iter().copied().fold(f64::MIN, f64::max);
        if loads.is_empty() || max <= 0.0 {
            return 0.0;
        }
        stellar_sim::stats::imbalance(&loads, max)
    }
}

/// How a fabric carries packets over a [`Core`]. Sealed: the three
/// models are the crate's own.
pub trait Model {
    /// The fabric kind this model makes.
    const KIND: FabricKind;

    /// Carry `p` along `route` — `topo.route(src, dst, flow, path_id)`
    /// before any reroute — once the core and this model have advanced
    /// to `p.now`, and book it in this model's ledger.
    fn send(&mut self, core: &mut Core, p: &Packet, route: Route) -> Delivery;

    /// Catch model state up to `now`, after the core applied the fault
    /// events due by then.
    fn advance(&mut self, _now: SimTime) {}

    /// A link went up or down (a fault fired or a caller set it).
    fn links_changed(&mut self) {}

    /// `(max, time-averaged)` port backlog of `link` at `now`, in bytes;
    /// zero for models without per-port queues.
    fn port_queue(&self, _link: LinkId, _now: SimTime) -> (u64, f64) {
        (0, 0.0)
    }

    /// [`Fabric::tor_uplink_queue_stats`]; zero without per-port queues.
    fn tor_uplink_queue_stats(&self, _topo: &ClosTopology, _now: SimTime) -> (f64, u64) {
        (0.0, 0)
    }

    /// Every packet this model was handed, and its fate.
    fn ledger(&self) -> Ledger;

    /// Report the counters only this model keeps (on the fabric's drop).
    fn fold_counters(&self) {}

    /// This model's invariants at a quiesce point.
    fn check_invariants(&self, at: SimTime);
}

/// A fabric: the shared link, fault and trace core plus a traffic model
/// `M`. [`crate::Network`], [`crate::FluidFabric`] and
/// [`crate::HybridFabric`] are this type over the packet, fluid and
/// hybrid models.
#[derive(Debug)]
pub struct ModelFabric<M: Model> {
    pub(crate) core: Core,
    pub(crate) model: M,
}

/// A fabric reports its counters to telemetry when it drops.
impl<M: Model> Drop for ModelFabric<M> {
    fn drop(&mut self) {
        fold_counters(Subsystem::Net, || {
            let ledger = self.model.ledger();
            DropReason::ALL
                .map(|r| (r.counter(), ledger.drops[r.index()]))
                .into_iter()
                .chain([
                    ("ecn_mark", ledger.ecn_marks),
                    ("fault.applied", self.core.faults_applied),
                ])
        });
        self.model.fold_counters();
    }
}

impl<M: Model> Fabric for ModelFabric<M> {
    fn kind(&self) -> FabricKind {
        M::KIND
    }

    fn topology(&self) -> &ClosTopology {
        &self.core.topo
    }

    fn config(&self) -> &NetworkConfig {
        &self.core.config
    }

    fn config_mut(&mut self) -> &mut NetworkConfig {
        &mut self.core.config
    }

    fn send(
        &mut self,
        now: SimTime,
        src: NicId,
        dst: NicId,
        flow: u64,
        path_id: u32,
        bytes: u64,
    ) -> Delivery {
        self.advance(now);
        let p = Packet {
            now,
            src,
            dst,
            flow,
            path_id,
            bytes,
        };
        let route = self.core.topo.route(src, dst, flow, path_id);
        let delivery = self.model.send(&mut self.core, &p, route);
        if let Some((records, limit)) = &mut self.core.trace {
            if records.len() < *limit {
                records.push(TraceRecord {
                    sent: now,
                    src,
                    dst,
                    flow,
                    path_id,
                    bytes,
                    delivery,
                });
            }
        }
        delivery
    }

    fn advance(&mut self, now: SimTime) {
        if self.core.apply_faults(now) {
            self.model.links_changed();
        }
        self.model.advance(now);
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.core.install_fault_plan(plan);
    }

    fn pending_fault_events(&self) -> usize {
        self.core.plan.len() - self.core.plan_cursor
    }

    fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.set_link_state_at(SimTime::ZERO, link, up);
    }

    fn set_link_state_at(&mut self, now: SimTime, link: LinkId, up: bool) {
        self.core.set_link_state_at(now, link, up);
        self.model.links_changed();
    }

    fn set_loss(&mut self, link: LinkId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.core.set_loss(link, p);
    }

    /// Real RNICs prioritize ACKs (CNP-class traffic); modelling them
    /// outside the data-queue calendar keeps ACK-clocking stable and
    /// halves event volume.
    fn control_rtt_component(&self, src: NicId, dst: NicId) -> SimDuration {
        let hops = if src == dst {
            1
        } else {
            self.core.topo.route(src, dst, 0, 0).len() as u64
        };
        let config = &self.core.config;
        config.hop_delay.mul(hops) + transmit_time(64, config.link_gbps).mul(hops)
    }

    fn drops_by_reason(&self, reason: DropReason) -> u64 {
        self.model.ledger().drops[reason.index()]
    }

    fn injected(&self) -> (u64, u64) {
        let l = self.model.ledger();
        (l.injected_packets, l.injected_bytes)
    }

    fn delivered(&self) -> (u64, u64) {
        let l = self.model.ledger();
        (l.delivered_packets, l.delivered_bytes)
    }

    fn link_stats(&self, link: LinkId, now: SimTime) -> LinkStats {
        let c = self.core.counters(link);
        let (max_queue_bytes, avg_queue_bytes) = self.model.port_queue(link, now);
        LinkStats {
            tx_bytes: c[TX_BYTES],
            tx_packets: c[TX_PACKETS],
            drops: c[DROPS],
            ecn_marks: c[ECN_MARKS],
            max_queue_bytes,
            avg_queue_bytes,
        }
    }

    fn tor_uplink_imbalance(&self) -> f64 {
        self.core.tor_uplink_imbalance()
    }

    fn tor_uplink_queue_stats(&self, now: SimTime) -> (f64, u64) {
        self.model.tor_uplink_queue_stats(&self.core.topo, now)
    }

    /// The trace is bounded — a long run would balloon otherwise — and
    /// silently stops recording when full.
    fn enable_trace(&mut self, limit: usize) {
        self.core.trace = Some((Vec::new(), limit));
    }

    fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.core.trace.take().map(|(v, _)| v).unwrap_or_default()
    }

    fn check_invariants(&self, at: SimTime) {
        self.model.check_invariants(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClosConfig;
    use crate::{FabricConfigError, FluidConfig, FluidFabric, HybridConfig, HybridFabric, Network};
    use stellar_sim::SimRng;
    use stellar_telemetry::capture;

    fn topo() -> ClosTopology {
        ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 4,
        })
    }

    fn us(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1000)
    }

    /// Every hop of every packet writes one link's counters: two to a
    /// cache line.
    #[test]
    fn link_counters_are_32_bytes() {
        assert_eq!(std::mem::size_of::<LinkCounters>(), 32);
    }

    /// The faulty-link count follows every kind of fault event and both
    /// direct setters, matches a full recount after each step, and falls
    /// back to zero once the faults clear.
    #[test]
    fn faulty_link_count_matches_a_recount_after_every_change() {
        fn recount(core: &Core) -> usize {
            core.faults.iter().filter(|l| l.has_fault_state()).count()
        }
        let mut net = Network::new(topo(), NetworkConfig::default(), SimRng::from_seed(3));
        let topo = net.topology().clone();
        let (link, other) = (LinkId(3), LinkId(7));
        let (agg, nic) = (topo.agg_node(0, 1), topo.nic(2, 0));
        let ramp = FaultEvent::DegradeRamp {
            link: other,
            from: 0.0,
            to: 0.2,
            over: SimDuration::from_micros(5),
        };
        // Each event, and whether the fabric is fault-free after it.
        let steps = [
            (FaultEvent::LinkDown(link), false),
            (FaultEvent::LinkUp(link), true),
            (FaultEvent::SetLoss { link, p: 0.1 }, false),
            (FaultEvent::SetLoss { link, p: 0.0 }, true),
            (ramp, false),
            (
                FaultEvent::SetLoss {
                    link: other,
                    p: 0.0,
                },
                true,
            ),
            (FaultEvent::SwitchDown(agg), false),
            (FaultEvent::SwitchUp(agg), true),
            (FaultEvent::NicPortDown { nic, plane: 1 }, false),
            (FaultEvent::NicPortUp { nic, plane: 1 }, true),
            // Two faults on one link count it once, until both clear.
            (FaultEvent::LinkDown(link), false),
            (FaultEvent::SetLoss { link, p: 0.2 }, false),
            (FaultEvent::LinkUp(link), false),
            (FaultEvent::SetLoss { link, p: 0.0 }, true),
        ];
        let plan = FaultPlan::from_events(
            1,
            (1..).zip(steps).map(|(t, (ev, _))| (us(t), ev)).collect(),
        );
        net.install_fault_plan(plan);
        assert!(net.core.fault_free());
        assert!(net.core.faults.is_empty(), "no fault written yet");
        for (t, (ev, clear)) in (1..).zip(steps) {
            net.advance(us(t));
            let core = &net.core;
            assert_eq!(core.faults.len(), topo.total_links(), "after {ev:?}");
            assert_eq!(core.faulty_links, recount(core), "after {ev:?}");
            assert_eq!(core.fault_free(), clear, "after {ev:?}");
        }
        assert_eq!(net.pending_fault_events(), 0);
        let check = |net: &Network, faulty: usize| {
            assert_eq!(net.core.faulty_links, recount(&net.core));
            assert_eq!(net.core.faulty_links, faulty);
        };
        net.set_loss(link, 0.3);
        check(&net, 1);
        net.set_link_up(other, false);
        check(&net, 2);
        net.set_loss(other, 0.1);
        check(&net, 2);
        net.set_link_up(other, true);
        check(&net, 2);
        net.set_loss(other, 0.0);
        check(&net, 1);
        net.set_loss(link, 0.0);
        check(&net, 0);
    }

    /// State a run never touches is never allocated: a fault-free fabric
    /// keeps no fault table, a hybrid that never escalates no port
    /// calendars or gauges, and a packet fabric allocates its own at its
    /// first send.
    #[test]
    fn untouched_state_is_not_allocated() {
        let rng = SimRng::from_seed(3);
        let mut hybrid = HybridFabric::new(
            topo(),
            NetworkConfig::default(),
            HybridConfig::default(),
            rng.clone(),
        );
        let (src, dst) = (hybrid.topology().nic(0, 0), hybrid.topology().nic(4, 0));
        for i in 0..8 {
            hybrid.send(us(i), src, dst, 1, i as u32, 4096);
        }
        assert_eq!(hybrid.send_split().0, 0, "nothing escalated");
        assert!(!hybrid.model.packet().allocated());
        assert!(hybrid.core.faults.is_empty());

        let mut net = Network::new(topo(), NetworkConfig::default(), rng);
        assert!(!net.model.allocated());
        net.send(us(0), src, dst, 1, 0, 4096);
        assert!(net.model.allocated(), "the first send allocates");
        assert!(net.core.faults.is_empty());
    }

    /// A link no packet crossed reads zero — counters and port queue —
    /// on every fabric kind, whether or not its model's arrays exist.
    #[test]
    fn an_untouched_link_reads_zero_on_every_fabric_kind() {
        fn check<M: Model>(mut fabric: ModelFabric<M>, kind: &str) {
            let topo = fabric.topology().clone();
            let (src, dst) = (topo.nic(0, 0), topo.nic(4, 0));
            let idle = LinkId(topo.total_links() as u32 - 1);
            let zero = |fabric: &ModelFabric<M>| {
                let s = fabric.link_stats(idle, us(50));
                assert_eq!(
                    (s.tx_bytes, s.tx_packets, s.drops, s.ecn_marks),
                    (0, 0, 0, 0),
                    "{kind}"
                );
                assert_eq!((s.max_queue_bytes, s.avg_queue_bytes), (0, 0.0), "{kind}");
                assert_eq!(fabric.model.port_queue(idle, us(50)), (0, 0.0), "{kind}");
            };
            zero(&fabric);
            fabric.send(us(1), src, dst, 1, 0, 4096);
            assert!(!topo.route(src, dst, 1, 0).contains(&idle));
            zero(&fabric);
        }
        let net = NetworkConfig::default();
        let rng = SimRng::from_seed(3);
        let fluid = FluidFabric::new(topo(), net.clone(), FluidConfig::default(), rng.clone());
        let hybrid = HybridFabric::new(topo(), net.clone(), HybridConfig::default(), rng.clone());
        check(Network::new(topo(), net, rng), "packet");
        check(fluid, "fluid");
        check(hybrid, "hybrid");
    }

    #[test]
    fn network_config_rejects_a_zero_or_non_finite_link_rate() {
        for gbps in [0.0, -1.0, f64::INFINITY] {
            let config = NetworkConfig {
                link_gbps: gbps,
                ..NetworkConfig::default()
            };
            assert_eq!(config.validate(), Err(FabricConfigError::LinkRate(gbps)));
        }
        let nan = NetworkConfig {
            link_gbps: f64::NAN,
            ..NetworkConfig::default()
        };
        assert!(matches!(nan.validate(), Err(FabricConfigError::LinkRate(g)) if g.is_nan()));
        assert_eq!(NetworkConfig::default().validate(), Ok(()));
    }

    #[test]
    fn network_config_rejects_a_zero_buffer() {
        let config = NetworkConfig {
            buffer_bytes: 0,
            ..NetworkConfig::default()
        };
        assert_eq!(
            config.validate(),
            Err(FabricConfigError::Zero("buffer_bytes"))
        );
    }

    #[test]
    fn fluid_config_rejects_a_zero_idle_timeout() {
        let config = FluidConfig {
            flow_idle_timeout: SimDuration::ZERO,
            ..FluidConfig::default()
        };
        assert_eq!(
            config.validate(),
            Err(FabricConfigError::Zero("fluid.flow_idle_timeout"))
        );
        assert_eq!(FluidConfig::default().validate(), Ok(()));
    }

    #[test]
    fn hybrid_config_rejects_a_zero_incast_threshold() {
        let config = HybridConfig {
            incast_threshold: 0,
            ..HybridConfig::default()
        };
        assert_eq!(
            config.validate(),
            Err(FabricConfigError::Zero("incast_threshold"))
        );
        assert_eq!(HybridConfig::default().validate(), Ok(()));
    }

    #[test]
    fn hybrid_config_rejects_a_zero_idle_timeout() {
        let config = HybridConfig {
            flow_idle_timeout: SimDuration::ZERO,
            ..HybridConfig::default()
        };
        assert_eq!(
            config.validate(),
            Err(FabricConfigError::Zero("flow_idle_timeout"))
        );
        let fluid = HybridConfig {
            fluid: FluidConfig {
                flow_idle_timeout: SimDuration::ZERO,
                ..FluidConfig::default()
            },
            ..HybridConfig::default()
        };
        assert_eq!(
            fluid.validate(),
            Err(FabricConfigError::Zero("fluid.flow_idle_timeout"))
        );
    }

    /// The constructors check the configs before building anything, so
    /// a zero link rate fails there and not mid-run in `transmit_time`.
    #[test]
    #[should_panic(expected = "link_gbps 0 is not a finite rate above 0")]
    fn fabric_constructors_reject_an_invalid_config() {
        let config = NetworkConfig {
            link_gbps: 0.0,
            ..NetworkConfig::default()
        };
        Network::new(topo(), config, SimRng::from_seed(3));
    }

    /// Every fabric kind applies each fault event exactly once, and says
    /// so once: one applied-fault count and one flight-recorder event.
    #[test]
    fn each_applied_fault_counts_once_on_every_fabric_kind() {
        fn run<M: Model>(mut fabric: ModelFabric<M>) -> (u64, usize) {
            let topo = fabric.topology().clone();
            let link = LinkId(3);
            let plan = FaultPlan::new(1)
                .link_down(us(1), link)
                .link_up(us(2), link)
                .at(us(3), FaultEvent::SetLoss { link, p: 0.1 })
                .degrade(us(4), link, 0.0, 0.5, SimDuration::from_micros(5))
                .switch_down(us(5), topo.agg_node(0, 1))
                .nic_port_down(us(6), topo.nic(2, 0), 1);
            let ((), tel) = capture(|| {
                fabric.install_fault_plan(plan);
                fabric.advance(us(3));
                fabric.send(us(10), topo.nic(0, 0), topo.nic(4, 0), 1, 0, 4096);
            });
            assert_eq!(fabric.pending_fault_events(), 0);
            let events = tel
                .recorder
                .events()
                .filter(|e| e.kind.starts_with("fault."))
                .count();
            (fabric.core.faults_applied, events)
        }
        let net = NetworkConfig::default();
        let rng = SimRng::from_seed(3);
        let fluid = FluidFabric::new(topo(), net.clone(), FluidConfig::default(), rng.clone());
        let hybrid = HybridFabric::new(topo(), net.clone(), HybridConfig::default(), rng.clone());
        assert_eq!(run(Network::new(topo(), net, rng)), (6, 6), "packet");
        assert_eq!(run(fluid), (6, 6), "fluid");
        assert_eq!(run(hybrid), (6, 6), "hybrid");
    }
}
