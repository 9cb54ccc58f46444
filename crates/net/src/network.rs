//! Link state and packet forwarding.
//!
//! Each directed link (egress port) keeps a *calendar*: the time at which
//! it next falls idle. Forwarding a packet across its route is a single
//! pass over the hops:
//!
//! ```text
//! arrive(h+1) = max(arrive(h), port_free(h)) + tx_time + propagation
//! ```
//!
//! The backlog at a hop — `(port_free − arrive) × rate` — is the queue the
//! packet joins: it drives ECN marking (above the threshold) and tail drops
//! (above the buffer size), and is recorded in a per-port [`Gauge`] for
//! the Fig. 9 queue-depth plots. The model is exact for FIFO ports as long
//! as packets are injected in global time order, which the transport's
//! event loop guarantees.

use stellar_sim::stats::Gauge;
use stellar_sim::{transmit_time, SimDuration, SimRng, SimTime};
use stellar_telemetry::{count, event, stage_sample, Entity, Stage, Subsystem};

use crate::fault::{FaultEvent, FaultPlan};
use crate::topology::{ClosTopology, LinkId, NicId};

/// Fabric-wide link parameters.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Link rate in Gbps (every port; HPN links are uniform).
    pub link_gbps: f64,
    /// Per-link propagation + switch pipeline delay.
    pub hop_delay: SimDuration,
    /// ECN marking threshold per port, in bytes of backlog.
    pub ecn_threshold_bytes: u64,
    /// Port buffer size in bytes (tail drop beyond this backlog).
    pub buffer_bytes: u64,
    /// Control-plane (BGP) convergence delay: how long after a link goes
    /// down the fabric starts routing around it (§7.2: "Over the long
    /// term, the control plane (e.g., BGP) detects the failure and
    /// reroutes traffic"). Until then, packets hashed onto the dead link
    /// blackhole and the transport's RTO must recover them.
    pub bgp_convergence: SimDuration,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            link_gbps: 200.0,
            hop_delay: SimDuration::from_micros(1),
            // ~100 KB ECN threshold, 2 MB deep-buffer ports.
            ecn_threshold_bytes: 100 * 1024,
            buffer_bytes: 2 * 1024 * 1024,
            bgp_convergence: SimDuration::from_millis(200),
        }
    }
}

/// Why a packet was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Tail drop: the egress buffer was full.
    BufferOverflow,
    /// Injected random loss (Fig. 11 failure experiments).
    RandomLoss,
    /// The link is administratively or physically down (dead link).
    LinkDown,
    /// Loss from a degrading optical module (an active
    /// [`crate::FaultEvent::DegradeRamp`]), distinct from flat random
    /// loss: the probability is time-dependent and signals failing
    /// hardware rather than congestion-unrelated noise.
    DegradedLink,
}

impl DropReason {
    /// Stable snake_case name used by the telemetry counter taxonomy
    /// (`drop.<name>`) and trace events.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::BufferOverflow => "buffer_overflow",
            DropReason::RandomLoss => "random_loss",
            DropReason::LinkDown => "link_down",
            DropReason::DegradedLink => "degraded_link",
        }
    }

    /// The telemetry hub counter name for this reason.
    pub(crate) fn counter(self) -> &'static str {
        match self {
            DropReason::BufferOverflow => "drop.buffer_overflow",
            DropReason::RandomLoss => "drop.random_loss",
            DropReason::LinkDown => "drop.link_down",
            DropReason::DegradedLink => "drop.degraded_link",
        }
    }

    /// Dense index for per-reason counters.
    pub(crate) fn index(self) -> usize {
        match self {
            DropReason::BufferOverflow => 0,
            DropReason::RandomLoss => 1,
            DropReason::LinkDown => 2,
            DropReason::DegradedLink => 3,
        }
    }

    /// Every reason, in counter order.
    pub const ALL: [DropReason; 4] = [
        DropReason::BufferOverflow,
        DropReason::RandomLoss,
        DropReason::LinkDown,
        DropReason::DegradedLink,
    ];
}

/// The fate of one forwarded packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered to the destination NIC.
    Delivered {
        /// Arrival time at the destination.
        at: SimTime,
        /// Whether any hop marked ECN.
        ecn: bool,
    },
    /// Lost in transit.
    Dropped {
        /// The link where it died.
        link: LinkId,
        /// Why.
        reason: DropReason,
        /// When.
        at: SimTime,
    },
}

impl Delivery {
    /// The arrival time if delivered.
    pub fn arrival(&self) -> Option<SimTime> {
        match self {
            Delivery::Delivered { at, .. } => Some(*at),
            Delivery::Dropped { .. } => None,
        }
    }

    /// Whether the packet was ECN-marked.
    pub fn is_ecn(&self) -> bool {
        matches!(self, Delivery::Delivered { ecn: true, .. })
    }
}

/// An active optical-degradation ramp on one link. Shared with the
/// fluid fabric, which models the same time-dependent loss.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DegradeRamp {
    pub(crate) t0: SimTime,
    pub(crate) from: f64,
    pub(crate) to: f64,
    pub(crate) over: SimDuration,
}

impl DegradeRamp {
    /// Loss probability at time `t`: linear interpolation inside the
    /// window, clamped to the endpoints outside it.
    pub(crate) fn loss_at(&self, t: SimTime) -> f64 {
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

#[derive(Debug, Clone)]
struct LinkState {
    next_free: SimTime,
    up: bool,
    down_since: SimTime,
    loss_prob: f64,
    degrade: Option<DegradeRamp>,
    queue: Gauge,
    tx_bytes: u64,
    tx_packets: u64,
    drops: u64,
    ecn_marks: u64,
}

/// Per-link statistics snapshot.
#[derive(Debug, Clone)]
pub struct LinkStats {
    /// Total bytes transmitted.
    pub tx_bytes: u64,
    /// Total packets transmitted.
    pub tx_packets: u64,
    /// Packets dropped at this port.
    pub drops: u64,
    /// Packets ECN-marked at this port.
    pub ecn_marks: u64,
    /// Maximum queue backlog seen, in bytes.
    pub max_queue_bytes: u64,
    /// Time-weighted average backlog, in bytes.
    pub avg_queue_bytes: f64,
}

/// One traced packet (the fabric's pcap analogue).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Injection time.
    pub sent: SimTime,
    /// Source NIC.
    pub src: NicId,
    /// Destination NIC.
    pub dst: NicId,
    /// Flow id.
    pub flow: u64,
    /// Path id the transport chose.
    pub path_id: u32,
    /// Payload bytes.
    pub bytes: u64,
    /// What happened.
    pub delivery: Delivery,
}

/// Append a record to a bounded trace (`None` = tracing off); a full
/// trace silently stops recording.
pub(crate) fn record_trace(
    trace: &mut Option<(Vec<TraceRecord>, usize)>,
    record: impl FnOnce() -> TraceRecord,
) {
    if let Some((records, limit)) = trace {
        if records.len() < *limit {
            records.push(record());
        }
    }
}

/// The live fabric: topology + per-port calendars.
#[derive(Debug)]
pub struct Network {
    topo: ClosTopology,
    config: NetworkConfig,
    links: Vec<LinkState>,
    rng: SimRng,
    /// Bounded packet trace; `None` = tracing off (the default).
    trace: Option<(Vec<TraceRecord>, usize)>,
    /// Installed fault schedule, sorted by time; `plan_cursor` is the
    /// first not-yet-applied event.
    plan: Vec<(SimTime, FaultEvent)>,
    plan_cursor: usize,
    /// Fabric-wide drop counters, indexed by [`DropReason::index`].
    drop_counts: [u64; 4],
    /// Conservation ledger: every packet offered to [`Network::send`].
    injected_packets: u64,
    injected_bytes: u64,
    /// Conservation ledger: packets that reached their destination NIC.
    delivered_packets: u64,
    delivered_bytes: u64,
    /// Bytes of the packets counted in `drop_counts`.
    dropped_bytes: u64,
}

impl Network {
    /// A fabric over `topo` with uniform `config`, using `rng` for loss
    /// injection.
    pub fn new(topo: ClosTopology, config: NetworkConfig, rng: SimRng) -> Self {
        let links = vec![
            LinkState {
                next_free: SimTime::ZERO,
                up: true,
                down_since: SimTime::ZERO,
                loss_prob: 0.0,
                degrade: None,
                queue: Gauge::new(SimTime::ZERO),
                tx_bytes: 0,
                tx_packets: 0,
                drops: 0,
                ecn_marks: 0,
            };
            topo.total_links()
        ];
        Network {
            topo,
            config,
            links,
            rng,
            trace: None,
            plan: Vec::new(),
            plan_cursor: 0,
            drop_counts: [0; 4],
            injected_packets: 0,
            injected_bytes: 0,
            delivered_packets: 0,
            delivered_bytes: 0,
            dropped_bytes: 0,
        }
    }

    /// Record every packet (up to `limit` records) for offline analysis —
    /// the equivalent of smoltcp's `--pcap` switch. Dropping the limit
    /// guard would make long runs balloon, so the trace is bounded and
    /// silently stops recording when full (`take_trace` reports how many
    /// records were kept).
    pub fn enable_trace(&mut self, limit: usize) {
        self.trace = Some((Vec::new(), limit));
    }

    /// Take the recorded trace, disabling tracing.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.trace.take().map(|(v, _)| v).unwrap_or_default()
    }

    /// The topology.
    pub fn topology(&self) -> &ClosTopology {
        &self.topo
    }

    /// The link configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The fabric configuration, mutable (tests tune knobs like
    /// `bgp_convergence` without rebuilding the network).
    pub fn config_mut(&mut self) -> &mut NetworkConfig {
        &mut self.config
    }

    /// Inject random loss with probability `p` on `link` (Fig. 11).
    pub fn set_loss(&mut self, link: LinkId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.links[link.0 as usize].loss_prob = p;
    }

    /// Install a fault schedule. Events fire from inside the simulation
    /// clock: every [`Network::send`] first applies all events whose
    /// timestamp has been reached, so the drop sequence is a pure
    /// function of `(plan, rng seed, traffic)`. Replaces any previous
    /// plan; already-applied state is left as is.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan.into_events();
        self.plan_cursor = 0;
    }

    /// Events of the installed plan not yet applied.
    pub fn pending_fault_events(&self) -> usize {
        self.plan.len() - self.plan_cursor
    }

    /// Apply every scheduled fault event with timestamp `<= now`. Called
    /// automatically by [`Network::send`]; public so an event loop can
    /// advance fault state across traffic gaps (e.g. before reading
    /// stats at an idle instant).
    pub fn apply_faults(&mut self, now: SimTime) {
        while let Some(&(at, ev)) = self.plan.get(self.plan_cursor) {
            if at > now {
                break;
            }
            self.plan_cursor += 1;
            self.apply_fault_event(at, ev);
        }
    }

    /// Apply one event at its scheduled time `at` (which may precede the
    /// packet that triggered the catch-up — the control plane's
    /// convergence clock starts at the true fault time).
    fn apply_fault_event(&mut self, at: SimTime, ev: FaultEvent) {
        count(Subsystem::Net, "fault.applied", 1);
        event(at, Subsystem::Net, Entity::None, ev.kind(), 0);
        match ev {
            FaultEvent::LinkDown(l) => self.set_link_state_at(at, l, false),
            FaultEvent::LinkUp(l) => self.set_link_state_at(at, l, true),
            FaultEvent::SwitchDown(node) => {
                for l in self.topo.links_of_node(node) {
                    self.set_link_state_at(at, l, false);
                }
            }
            FaultEvent::SwitchUp(node) => {
                for l in self.topo.links_of_node(node) {
                    self.set_link_state_at(at, l, true);
                }
            }
            FaultEvent::NicPortDown { nic, plane } => {
                let (up, down) = self.topo.nic_port_links(nic, plane as usize);
                self.set_link_state_at(at, up, false);
                self.set_link_state_at(at, down, false);
            }
            FaultEvent::NicPortUp { nic, plane } => {
                let (up, down) = self.topo.nic_port_links(nic, plane as usize);
                self.set_link_state_at(at, up, true);
                self.set_link_state_at(at, down, true);
            }
            FaultEvent::SetLoss { link, p } => {
                let l = &mut self.links[link.0 as usize];
                l.loss_prob = p;
                l.degrade = None;
            }
            FaultEvent::DegradeRamp { link, from, to, over } => {
                self.links[link.0 as usize].degrade = Some(DegradeRamp {
                    t0: at,
                    from,
                    to,
                    over,
                });
            }
        }
    }

    /// Whether `link` is up (no fault has taken it down).
    pub fn link_up(&self, link: LinkId) -> bool {
        self.links[link.0 as usize].up
    }

    /// Flat random-loss probability currently injected on `link`.
    pub fn link_loss(&self, link: LinkId) -> f64 {
        self.links[link.0 as usize].loss_prob
    }

    /// Effective loss probability of a degrading link at `now` (zero when
    /// no ramp is active).
    pub fn degraded_loss_at(&self, link: LinkId, now: SimTime) -> f64 {
        self.links[link.0 as usize]
            .degrade
            .map(|r| r.loss_at(now))
            .unwrap_or(0.0)
    }

    /// Fabric-wide drops attributed to `reason`.
    pub fn drops_by_reason(&self, reason: DropReason) -> u64 {
        self.drop_counts[reason.index()]
    }

    /// `(packets, bytes)` ever offered to [`Network::send`].
    pub fn injected(&self) -> (u64, u64) {
        (self.injected_packets, self.injected_bytes)
    }

    /// `(packets, bytes)` that reached their destination NIC.
    pub fn delivered(&self) -> (u64, u64) {
        (self.delivered_packets, self.delivered_bytes)
    }

    /// Evaluate the fabric's conservation invariants at a quiesce point
    /// (`at` is the sim time stamped on any violation). One atomic load
    /// and a branch when no `stellar_check` scope is open.
    pub fn check_invariants(&self, at: SimTime) {
        stellar_check::at_quiesce(at, stellar_check::Layer::Net, |c| {
            let dropped: u64 = self.drop_counts.iter().sum();
            c.check(
                "net.packet_conservation",
                self.injected_packets == self.delivered_packets + dropped,
                || {
                    format!(
                        "injected {} != delivered {} + drops {} ({:?} by reason)",
                        self.injected_packets, self.delivered_packets, dropped, self.drop_counts
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
        });
    }

    /// Take a link down / bring it up. Call with the current time so the
    /// control plane's convergence clock starts (use
    /// [`Network::set_link_state_at`] when a timestamp is available).
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.set_link_state_at(SimTime::ZERO, link, up);
    }

    /// Take a link down / bring it up at time `now`.
    pub fn set_link_state_at(&mut self, now: SimTime, link: LinkId, up: bool) {
        let l = &mut self.links[link.0 as usize];
        if l.up && !up {
            l.down_since = now;
        }
        l.up = up;
    }

    fn route_is_up(&self, route: &[LinkId]) -> bool {
        route.iter().all(|l| self.links[l.0 as usize].up)
    }

    /// Whether the control plane has converged around every down link on
    /// `route` by `now`.
    fn converged_around(&self, now: SimTime, route: &[LinkId]) -> bool {
        route.iter().all(|l| {
            let link = &self.links[l.0 as usize];
            link.up
                || now.saturating_duration_since(link.down_since) >= self.config.bgp_convergence
        })
    }

    /// Forward one packet of `bytes` from `src` to `dst` along the route
    /// selected by `(flow, path_id)`, starting at time `now`.
    ///
    /// `now` must be non-decreasing across calls (the DES guarantees it).
    pub fn send(
        &mut self,
        now: SimTime,
        src: NicId,
        dst: NicId,
        flow: u64,
        path_id: u32,
        bytes: u64,
    ) -> Delivery {
        self.apply_faults(now);
        self.injected_packets += 1;
        self.injected_bytes += bytes;
        let delivery = self.forward(now, src, dst, flow, path_id, bytes);
        match delivery {
            Delivery::Delivered { .. } => {
                self.delivered_packets += 1;
                self.delivered_bytes += bytes;
            }
            Delivery::Dropped { reason, link, at } => {
                self.drop_counts[reason.index()] += 1;
                self.dropped_bytes += bytes;
                // The hub mirrors the fabric's per-reason counters at this
                // single site, so hub totals equal `drops_by_reason` exactly
                // (no double-counting).
                count(Subsystem::Net, reason.counter(), 1);
                event(at, Subsystem::Net, Entity::Link(link.0), reason.name(), bytes);
            }
        }
        record_trace(&mut self.trace, || TraceRecord {
            sent: now,
            src,
            dst,
            flow,
            path_id,
            bytes,
            delivery,
        });
        delivery
    }

    fn forward(
        &mut self,
        now: SimTime,
        src: NicId,
        dst: NicId,
        flow: u64,
        path_id: u32,
        bytes: u64,
    ) -> Delivery {
        let mut route = self.topo.route(src, dst, flow, path_id);
        if route.is_empty() {
            // Host-local: PCIe/NVLink latency only.
            return Delivery::Delivered {
                at: now + self.config.hop_delay,
                ecn: false,
            };
        }
        // Control-plane reroute: once BGP has converged around a failed
        // link, the routing tables steer this slot to a live alternative
        // (we probe successive path-table slots, as route withdrawal
        // re-hashes onto the surviving next hops).
        if !self.route_is_up(&route) && self.converged_around(now, &route) {
            let slots = (self.topo.config().planes * self.topo.config().aggs_per_plane) as u32;
            for bump in 1..slots {
                let alt = self.topo.route(src, dst, flow, path_id.wrapping_add(bump));
                if self.route_is_up(&alt) {
                    route = alt;
                    break;
                }
            }
        }

        let mut t = now;
        let mut ecn = false;
        let bytes_per_ns = self.config.link_gbps / 8.0;
        // Every hop serializes the same payload at the same line rate, so
        // the f64 division runs once per packet, not once per link.
        let serialize = transmit_time(bytes, self.config.link_gbps);
        for &link_id in &route {
            let link = &mut self.links[link_id.0 as usize];
            if !link.up {
                link.drops += 1;
                return Delivery::Dropped {
                    link: link_id,
                    reason: DropReason::LinkDown,
                    at: t,
                };
            }
            // Degrading-optics loss first (time-dependent), then flat
            // random loss — separate draws keep the two distinguishable
            // in the DropReason taxonomy and leave the RNG stream of
            // ramp-free runs untouched.
            if let Some(ramp) = link.degrade {
                let p = ramp.loss_at(t);
                if p > 0.0 && self.rng.chance(p) {
                    let link = &mut self.links[link_id.0 as usize];
                    link.drops += 1;
                    return Delivery::Dropped {
                        link: link_id,
                        reason: DropReason::DegradedLink,
                        at: t,
                    };
                }
            }
            let link = &mut self.links[link_id.0 as usize];
            if link.loss_prob > 0.0 && self.rng.chance(link.loss_prob) {
                link.drops += 1;
                return Delivery::Dropped {
                    link: link_id,
                    reason: DropReason::RandomLoss,
                    at: t,
                };
            }
            // Backlog ahead of us on this port, in bytes.
            let wait = link.next_free.saturating_duration_since(t);
            let backlog = (wait.as_nanos() as f64 * bytes_per_ns) as u64;
            if backlog + bytes > self.config.buffer_bytes {
                link.drops += 1;
                link.queue.set(t, backlog);
                return Delivery::Dropped {
                    link: link_id,
                    reason: DropReason::BufferOverflow,
                    at: t,
                };
            }
            if backlog > self.config.ecn_threshold_bytes {
                ecn = true;
                link.ecn_marks += 1;
                count(Subsystem::Net, "ecn_mark", 1);
            }
            if wait > SimDuration::ZERO {
                // Time this packet spends queued behind the port backlog.
                stage_sample(Stage::FabricQueueing, wait);
            }
            let start = if link.next_free > t { link.next_free } else { t };
            let depart = start + serialize;
            link.queue.set(t, backlog + bytes);
            link.next_free = depart;
            link.tx_bytes += bytes;
            link.tx_packets += 1;
            t = depart + self.config.hop_delay;
        }
        Delivery::Delivered { at: t, ecn }
    }

    /// An unqueued reverse-path delivery estimate for tiny control packets
    /// (ACK/NACK): hop delays plus serialization, no queueing.
    ///
    /// Real RNICs prioritize ACKs (CNP-class traffic); modelling them
    /// outside the data-queue calendar keeps ACK-clocking stable and
    /// halves event volume.
    pub fn control_rtt_component(&self, src: NicId, dst: NicId) -> SimDuration {
        let hops = if src == dst {
            1
        } else {
            self.topo.route(src, dst, 0, 0).len() as u64
        };
        self.config.hop_delay.mul(hops) + transmit_time(64, self.config.link_gbps).mul(hops)
    }

    /// Statistics snapshot for a link at time `now`.
    pub fn link_stats(&self, link: LinkId, now: SimTime) -> LinkStats {
        let l = &self.links[link.0 as usize];
        LinkStats {
            tx_bytes: l.tx_bytes,
            tx_packets: l.tx_packets,
            drops: l.drops,
            ecn_marks: l.ecn_marks,
            max_queue_bytes: l.queue.max(),
            avg_queue_bytes: l.queue.time_avg(now),
        }
    }

    /// Current backlog of a link in bytes at time `now`.
    pub fn backlog_bytes(&self, link: LinkId, now: SimTime) -> u64 {
        let l = &self.links[link.0 as usize];
        let wait = l.next_free.saturating_duration_since(now);
        (wait.as_nanos() as f64 * self.config.link_gbps / 8.0) as u64
    }

    /// Fig. 12 imbalance over the ToR→Agg uplinks of every ToR that
    /// carried traffic: `(max−min)/capacity` of the per-port byte loads,
    /// where capacity is the busiest port's load (the paper normalizes by
    /// total port bandwidth; over a fixed window the busiest port's bytes
    /// play that role).
    ///
    /// Only ToRs with at least one non-idle uplink participate — idle ToRs
    /// (other rails/segments) are not part of the experiment.
    pub fn tor_uplink_imbalance(&self) -> f64 {
        use std::collections::HashMap;
        let mut by_tor: HashMap<crate::topology::NodeId, Vec<f64>> = HashMap::new();
        for l in self.topo.tor_uplinks() {
            let (from, _) = self.topo.link_endpoints(l);
            by_tor
                .entry(from)
                .or_default()
                .push(self.links[l.0 as usize].tx_bytes as f64);
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

    /// Aggregate queue statistics over all ToR uplinks at `now`:
    /// `(mean of time-averaged backlog, max backlog)` in bytes.
    pub fn tor_uplink_queue_stats(&self, now: SimTime) -> (f64, u64) {
        let uplinks = self.topo.tor_uplinks();
        let mut sum_avg = 0.0;
        let mut max = 0u64;
        for l in &uplinks {
            let s = &self.links[l.0 as usize];
            sum_avg += s.queue.time_avg(now);
            max = max.max(s.queue.max());
        }
        (sum_avg / uplinks.len() as f64, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClosConfig;

    fn net() -> Network {
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 2,
            planes: 2,
            aggs_per_plane: 4,
        });
        Network::new(topo, NetworkConfig::default(), SimRng::from_seed(1))
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    #[test]
    fn uncongested_delivery_time_is_hops_plus_wire() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0); // cross-segment: 4 hops
        let d = n.send(t(0), src, dst, 1, 0, 4096);
        let at = d.arrival().unwrap();
        // 4 hops × (1 µs + 163.84 ns) ≈ 4.66 µs.
        let expect_ns = 4 * (1000 + 164);
        let got = at.as_nanos();
        assert!(
            (got as i64 - expect_ns as i64).abs() < 10,
            "got {got} expect {expect_ns}"
        );
        assert!(!d.is_ecn());
    }

    #[test]
    fn backlog_accumulates_and_marks_ecn() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(1, 0); // same ToR
        // Blast 4 KB packets at t=0: they serialize on the NIC uplink.
        let mut ecn_seen = false;
        for _ in 0..100 {
            let d = n.send(t(0), src, dst, 7, 0, 4096);
            ecn_seen |= d.is_ecn();
            assert!(d.arrival().is_some());
        }
        assert!(ecn_seen, "deep backlog should ECN-mark");
        let up = n.topology().route(src, dst, 7, 0)[0];
        assert!(n.backlog_bytes(up, t(0)) > 100 * 1024);
        let stats = n.link_stats(up, t(0));
        assert!(stats.ecn_marks > 0);
        assert_eq!(stats.tx_packets, 100);
    }

    #[test]
    fn buffer_overflow_drops() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(1, 0);
        let mut dropped = 0;
        for _ in 0..1000 {
            if let Delivery::Dropped { reason, .. } = n.send(t(0), src, dst, 7, 0, 4096) {
                assert_eq!(reason, DropReason::BufferOverflow);
                dropped += 1;
            }
        }
        assert!(dropped > 0, "2 MB buffer cannot hold 4 MB burst");
    }

    #[test]
    fn queues_drain_over_time() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(1, 0);
        for _ in 0..50 {
            n.send(t(0), src, dst, 7, 0, 4096);
        }
        let up = n.topology().route(src, dst, 7, 0)[0];
        let b0 = n.backlog_bytes(up, t(0));
        let b_later = n.backlog_bytes(up, t(5));
        assert!(b_later < b0);
        // 50 × 4096 B at 200 Gbps ≈ 8.2 µs to drain fully.
        assert_eq!(n.backlog_bytes(up, t(10)), 0);
    }

    #[test]
    fn random_loss_injection() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        let lossy = n.topology().route(src, dst, 1, 0)[1];
        n.set_loss(lossy, 0.5);
        let mut drops = 0;
        for i in 0..200 {
            // Spread in time to avoid buffer effects.
            if let Delivery::Dropped { reason, link, .. } =
                n.send(t(i * 10), src, dst, 1, 0, 1024)
            {
                assert_eq!(reason, DropReason::RandomLoss);
                assert_eq!(link, lossy);
                drops += 1;
            }
        }
        assert!((60..140).contains(&drops), "drops={drops}");
    }

    #[test]
    fn downed_link_drops_until_bgp_converges() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        let link = n.topology().route(src, dst, 1, 0)[1];
        n.set_link_state_at(t(100), link, false);
        // Before convergence: blackhole (RTO must recover).
        let d = n.send(t(200), src, dst, 1, 0, 1024);
        assert!(matches!(
            d,
            Delivery::Dropped {
                reason: DropReason::LinkDown,
                ..
            }
        ));
        // Other paths still work meanwhile.
        let ok = (1..32).any(|p| n.send(t(201), src, dst, 1, p, 1024).arrival().is_some());
        assert!(ok);
        // After convergence the control plane routes around the failure:
        // the same path id now delivers.
        let after = t(100) + n.config().bgp_convergence + SimDuration::from_micros(1);
        let d2 = n.send(after, src, dst, 1, 0, 1024);
        assert!(d2.arrival().is_some(), "converged reroute must deliver");
        // Flapping back up restores the original route.
        n.set_link_state_at(after, link, true);
        assert!(n.send(after + SimDuration::from_micros(1), src, dst, 1, 0, 1024)
            .arrival()
            .is_some());
    }

    #[test]
    fn spraying_reduces_uplink_imbalance() {
        // Two runs: single-path vs 128-path spray, same flows.
        let run = |paths: u32| -> f64 {
            let mut n = net();
            let pairs = [(0usize, 4usize), (1, 5), (2, 6), (3, 7)];
            for step in 0..400u64 {
                for (i, &(a, b)) in pairs.iter().enumerate() {
                    let src = n.topology().nic(a, 0);
                    let dst = n.topology().nic(b, 0);
                    let path = (step % paths as u64) as u32;
                    n.send(t(step), src, dst, i as u64, path, 4096);
                }
            }
            n.tor_uplink_imbalance()
        };
        let single = run(1);
        let sprayed = run(128);
        assert!(
            sprayed < single,
            "spray {sprayed} should beat single {single}"
        );
    }

    #[test]
    fn packet_trace_records_and_bounds() {
        let mut n = net();
        n.enable_trace(5);
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        for i in 0..10 {
            n.send(t(i), src, dst, 3, i as u32, 4096);
        }
        let trace = n.take_trace();
        assert_eq!(trace.len(), 5, "trace must stop at its bound");
        assert_eq!(trace[0].flow, 3);
        assert_eq!(trace[0].bytes, 4096);
        assert!(trace[0].delivery.arrival().is_some());
        // Tracing is now off; further sends record nothing.
        n.send(t(100), src, dst, 3, 0, 4096);
        assert!(n.take_trace().is_empty());
    }

    #[test]
    fn fault_plan_executes_on_the_sim_clock() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        let link = n.topology().route(src, dst, 1, 0)[1];
        n.install_fault_plan(
            crate::FaultPlan::new(1)
                .link_down(t(100), link)
                .link_up(t(300), link),
        );
        assert_eq!(n.pending_fault_events(), 2);
        // Before the scheduled failure: delivers.
        assert!(n.send(t(50), src, dst, 1, 0, 1024).arrival().is_some());
        // Inside the down window: dead link.
        let d = n.send(t(150), src, dst, 1, 0, 1024);
        assert!(matches!(
            d,
            Delivery::Dropped {
                reason: DropReason::LinkDown,
                ..
            }
        ));
        assert_eq!(n.drops_by_reason(DropReason::LinkDown), 1);
        // After the scheduled recovery: the same path delivers again.
        assert!(n.send(t(400), src, dst, 1, 0, 1024).arrival().is_some());
        assert_eq!(n.pending_fault_events(), 0);
    }

    #[test]
    fn fault_plan_down_since_uses_event_time_not_send_time() {
        // The first packet arrives long after the scheduled failure; BGP
        // convergence must be clocked from the fault, so the reroute is
        // already active.
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        let link = n.topology().route(src, dst, 1, 0)[1];
        n.install_fault_plan(crate::FaultPlan::new(1).link_down(t(10), link));
        let after = t(10) + n.config().bgp_convergence + SimDuration::from_micros(1);
        assert!(
            n.send(after, src, dst, 1, 0, 1024).arrival().is_some(),
            "convergence clock must start at the scheduled fault time"
        );
    }

    #[test]
    fn degrade_ramp_loss_grows_over_the_window() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        let link = n.topology().route(src, dst, 1, 0)[1];
        n.install_fault_plan(crate::FaultPlan::new(2).degrade(
            t(0),
            link,
            0.0,
            0.5,
            SimDuration::from_micros(1000),
        ));
        // Early in the ramp: low loss. Late: approaches 50%.
        let mut early = 0;
        let mut late = 0;
        for i in 0..200u64 {
            if n.send(t(i), src, dst, 1, 0, 64).arrival().is_none() {
                early += 1;
            }
        }
        for i in 0..200u64 {
            if n.send(t(2000 + i), src, dst, 1, 0, 64).arrival().is_none() {
                late += 1;
            }
        }
        assert!(late > early + 20, "early={early} late={late}");
        assert!(n.drops_by_reason(DropReason::DegradedLink) > 0);
        assert_eq!(n.drops_by_reason(DropReason::RandomLoss), 0);
        assert!((n.degraded_loss_at(link, t(2000)) - 0.5).abs() < 1e-9);
        assert!(n.degraded_loss_at(link, t(500)) < 0.3);
    }

    #[test]
    fn switch_death_kills_all_attached_links_atomically() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        // Find the agg switch that (flow 1, path 0) crosses and kill it.
        let uplink = n.topology().route(src, dst, 1, 0)[1];
        let (_, agg) = n.topology().link_endpoints(uplink);
        assert!(matches!(
            n.topology().node_kind(agg),
            crate::NodeKind::Agg { .. }
        ));
        n.install_fault_plan(crate::FaultPlan::new(3).switch_down(t(10), agg));
        let d = n.send(t(20), src, dst, 1, 0, 64);
        assert!(matches!(
            d,
            Delivery::Dropped {
                reason: DropReason::LinkDown,
                ..
            }
        ));
        // Every link touching the switch is down, so the reverse path
        // through it is dead too — but other aggs still carry traffic.
        let ok = (1..32).any(|p| n.send(t(21), src, dst, 1, p, 64).arrival().is_some());
        assert!(ok, "other aggregation switches must survive");
    }

    #[test]
    fn nic_port_failure_blackholes_one_plane() {
        let mut n = net();
        let src = n.topology().nic(0, 0);
        let dst = n.topology().nic(4, 0);
        // Find a path on plane 0 and one on plane 1 of the source NIC.
        let mut by_plane = [None, None];
        for p in 0..32 {
            let up0 = n.topology().route(src, dst, 1, p)[0];
            for (plane, slot) in by_plane.iter_mut().enumerate() {
                if up0 == n.topology().nic_port_links(src, plane).0 {
                    slot.get_or_insert(p);
                }
            }
        }
        let (p0, p1) = (by_plane[0].unwrap(), by_plane[1].unwrap());
        n.install_fault_plan(crate::FaultPlan::new(4).nic_port_down(t(5), src, 0));
        assert!(n.send(t(10), src, dst, 1, p0, 64).arrival().is_none());
        assert!(
            n.send(t(10), src, dst, 1, p1, 64).arrival().is_some(),
            "the other plane's port must stay up"
        );
    }

    #[test]
    fn control_rtt_component_scales_with_hops() {
        let n = net();
        let near = n.control_rtt_component(n.topology().nic(0, 0), n.topology().nic(1, 0));
        let far = n.control_rtt_component(n.topology().nic(0, 0), n.topology().nic(4, 0));
        assert!(far > near);
    }

    #[test]
    fn loopback_delivery() {
        let mut n = net();
        let nic = n.topology().nic(0, 0);
        let d = n.send(t(0), nic, nic, 1, 0, 4096);
        assert!(d.arrival().is_some());
    }

    #[test]
    fn conservation_invariants_hold_under_loss_and_faults() {
        // A run that exercises every outcome class — deliveries, random
        // loss, dead-link drops, buffer overflows — must balance the
        // injected/delivered/dropped ledgers exactly.
        stellar_check::strict(|| {
            let mut n = net();
            let src = n.topology().nic(0, 0);
            let dst = n.topology().nic(4, 0);
            let lossy = n.topology().route(src, dst, 1, 0)[1];
            n.set_loss(lossy, 0.3);
            n.install_fault_plan(crate::FaultPlan::new(9).link_down(t(500), lossy));
            for i in 0..400u64 {
                n.send(t(i * 2), src, dst, 1, (i % 4) as u32, 4096);
            }
            n.check_invariants(t(800));
            let (inj_p, inj_b) = n.injected();
            let (del_p, del_b) = n.delivered();
            assert_eq!(inj_p, 400);
            assert_eq!(inj_b, 400 * 4096);
            let drops: u64 = DropReason::ALL.iter().map(|&r| n.drops_by_reason(r)).sum();
            assert!(drops > 0, "loss must have bitten");
            assert_eq!(del_p + drops, inj_p);
            assert!(del_b < inj_b);
        });
    }
}
