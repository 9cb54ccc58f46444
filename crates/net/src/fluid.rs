//! Flow-level fluid fabric: max-min fair-share bandwidth allocation.
//!
//! Instead of walking every packet across per-port calendars, the fluid
//! model tracks *flows* — `(src, dst, flow-id)` triples — and assigns
//! each one a max-min fair share of the Clos topology's capacity via
//! progressive filling. A flow keeps a private virtual calendar:
//!
//! ```text
//! start      = max(now, flow.next_free)
//! next_free  = start + bytes / fair_rate
//! arrival    = next_free + hops × hop_delay
//! ```
//!
//! The backlog `(next_free − now) × fair_rate` plays the role the port
//! queue plays in the packet model: it ECN-marks above the configured
//! threshold and tail-drops above the buffer size, so window-based
//! congestion control reaches the same equilibrium (window ≈
//! fair_rate × RTT) it reaches against real queues.
//!
//! The constraint set is the Clos reduced to aggregate resources — each
//! NIC's egress and ingress capacity (`planes × link_gbps`, both ports,
//! assuming path spray) and each segment×rail uplink/downlink pool
//! (`planes × aggs_per_plane × link_gbps`). A flow that has only been
//! observed on a subset of planes (single-path transports) is
//! additionally capped at `planes_seen × link_gbps`. Fair shares are
//! recomputed on flow arrival, departure and fault events; recomputes
//! within [`FluidConfig::recompute_quantum`] of the last one coalesce
//! (arriving flows carry a conservative provisional rate until the next
//! recompute trues them up).
//!
//! What the model deliberately does *not* capture — transient per-port
//! queue oscillation, ECMP hash collisions on individual agg links,
//! packet-granularity loss bursts — is exactly what
//! [`crate::HybridFabric`] escalates to the packet model.

use stellar_sim::hash::FastMap;
use stellar_sim::{transmit_time, SimDuration, SimRng, SimTime};
use stellar_telemetry::{count, Subsystem};

use crate::fabric::{uplink_imbalance_from, Fabric, FabricKind};
use crate::fault::{FaultEvent, FaultPlan};
use crate::network::{
    record_trace, Delivery, DegradeRamp, DropReason, LinkStats, NetworkConfig, TraceRecord,
};
use crate::topology::{ClosTopology, LinkId, NicId, Route};

/// Fluid-model knobs (the link parameters come from [`NetworkConfig`]).
#[derive(Debug, Clone)]
pub struct FluidConfig {
    /// A flow with no traffic for this long is retired (its share
    /// returns to the pool; the next packet re-registers it).
    pub flow_idle_timeout: SimDuration,
    /// Coalescing window for fair-share recomputes: arrival/departure/
    /// fault events within this window of the last recompute share one.
    /// `ZERO` recomputes at every event (the reference behaviour the
    /// property tests pin).
    pub recompute_quantum: SimDuration,
}

impl Default for FluidConfig {
    fn default() -> Self {
        FluidConfig {
            flow_idle_timeout: SimDuration::from_micros(200),
            recompute_quantum: SimDuration::from_micros(2),
        }
    }
}

/// Per-link bookkeeping: fault state plus transmit statistics. No
/// calendar — queueing lives in the per-flow virtual calendars.
#[derive(Debug, Clone)]
struct FluidLink {
    up: bool,
    down_since: SimTime,
    loss_prob: f64,
    degrade: Option<DegradeRamp>,
    tx_bytes: u64,
    tx_packets: u64,
    drops: u64,
    ecn_marks: u64,
}

/// A flow's identity: `(src NIC, dst NIC, flow id)`.
type FlowKey = (u32, u32, u64);

/// One active flow.
#[derive(Debug, Clone)]
struct FlowState {
    key: FlowKey,
    /// Constraint-resource indices (src egress, dst ingress, and the
    /// uplink/downlink pools for cross-segment flows); the first
    /// `n_resources` are live.
    resources: [u32; 4],
    n_resources: u8,
    /// Per-flow rate cap from the planes actually observed, in Gbps.
    cap_gbps: f64,
    /// Bitmask of planes this flow's routes have touched.
    planes_mask: u32,
    /// Current allocated rate in Gbps (provisional until the next
    /// global recompute if the flow arrived inside a quantum).
    rate_gbps: f64,
    /// Virtual calendar: when the flow's pipe next falls idle.
    next_free: SimTime,
    /// Last time the flow carried a packet (idle-retirement clock).
    last_active: SimTime,
}

impl FlowState {
    fn resources(&self) -> &[u32] {
        &self.resources[..self.n_resources as usize]
    }
}

/// The active flows. Sends find their flow through a hashed index into a
/// slot-stable slab; every walk whose f64 arithmetic must not depend on
/// hash order (fair-share filling, the capacity check) goes through
/// `order`, the live slots sorted by key. Opens and retirements — rare
/// next to sends — pay for keeping `order` sorted.
#[derive(Debug, Default)]
struct FlowTable {
    slab: Vec<FlowState>,
    /// Slab slots not holding a live flow, reused by the next open.
    free: Vec<u32>,
    index: FastMap<FlowKey, u32>,
    /// Live slots in ascending key order.
    order: Vec<u32>,
}

impl FlowTable {
    fn len(&self) -> usize {
        self.order.len()
    }

    fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    fn slot(&self, key: &FlowKey) -> Option<u32> {
        self.index.get(key).copied()
    }

    fn get_mut(&mut self, slot: u32) -> &mut FlowState {
        &mut self.slab[slot as usize]
    }

    /// Live flows in key order.
    fn iter(&self) -> impl Iterator<Item = &FlowState> {
        self.order.iter().map(|&s| &self.slab[s as usize])
    }

    /// Register a flow whose key is not yet live; returns its slot.
    fn open(&mut self, f: FlowState) -> u32 {
        let key = f.key;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = f;
                slot
            }
            None => {
                self.slab.push(f);
                (self.slab.len() - 1) as u32
            }
        };
        let at = self
            .order
            .binary_search_by_key(&key, |&s| self.slab[s as usize].key)
            .expect_err("flow opened twice");
        self.order.insert(at, slot);
        self.index.insert(key, slot);
        slot
    }

    /// Retire every flow `dead` selects, visiting flows in key order.
    fn retire(&mut self, mut dead: impl FnMut(&FlowState) -> bool) {
        let FlowTable {
            slab,
            free,
            index,
            order,
        } = self;
        order.retain(|&slot| {
            let f = &slab[slot as usize];
            if !dead(f) {
                return true;
            }
            index.remove(&f.key);
            free.push(slot);
            false
        });
    }

    /// Why the index, slab and key order disagree, if they do.
    fn inconsistency(&self) -> Option<String> {
        if self.index.len() != self.order.len() {
            return Some(format!(
                "index holds {} keys but {} slots are live",
                self.index.len(),
                self.order.len()
            ));
        }
        if self.free.len() + self.order.len() != self.slab.len() {
            return Some(format!(
                "{} free + {} live slots != slab of {}",
                self.free.len(),
                self.order.len(),
                self.slab.len()
            ));
        }
        let mut is_free = vec![false; self.slab.len()];
        for &slot in &self.free {
            is_free[slot as usize] = true;
        }
        for (i, &slot) in self.order.iter().enumerate() {
            let key = self.slab[slot as usize].key;
            if is_free[slot as usize] {
                return Some(format!("free slot {slot} is listed live (key {key:?})"));
            }
            if self.index.get(&key) != Some(&slot) {
                return Some(format!(
                    "key {key:?} in slot {slot} is indexed at {:?}",
                    self.index.get(&key)
                ));
            }
            if i > 0 && self.slab[self.order[i - 1] as usize].key >= key {
                return Some(format!(
                    "live slots out of key order at position {i} (key {key:?})"
                ));
            }
        }
        None
    }
}

/// The flow-level fluid fabric. See the module docs for the model.
#[derive(Debug)]
pub struct FluidFabric {
    topo: ClosTopology,
    config: NetworkConfig,
    fluid: FluidConfig,
    links: Vec<FluidLink>,
    rng: SimRng,
    trace: Option<(Vec<TraceRecord>, usize)>,
    plan: Vec<(SimTime, FaultEvent)>,
    plan_cursor: usize,
    /// Active flows. The recompute walks them in (src, dst, flow) key
    /// order, so allocation arithmetic is a pure function of the flow
    /// set, never of hash order or slot reuse.
    flows: FlowTable,
    /// Capacity of each constraint resource, in Gbps.
    res_capacity: Vec<f64>,
    /// Active-flow count per resource (provisional-rate estimates).
    res_count: Vec<u32>,
    /// Plane index of each ToR node (by `NodeId` index), for mapping a
    /// route's first hop to the plane it rides.
    tor_plane: Vec<u8>,
    /// Fair shares need a recompute (flow set or link state changed).
    dirty: bool,
    last_recompute: SimTime,
    next_expiry_scan: SimTime,
    /// Conservation ledgers, mirroring the packet model's.
    drop_counts: [u64; 4],
    injected_packets: u64,
    injected_bytes: u64,
    delivered_packets: u64,
    delivered_bytes: u64,
    dropped_bytes: u64,
    flows_opened: u64,
    flows_retired: u64,
}

impl FluidFabric {
    /// A fluid fabric over `topo` with link parameters from `config`,
    /// using `rng` for loss injection (same draw structure as the
    /// packet model: one draw per lossy link per packet).
    pub fn new(topo: ClosTopology, config: NetworkConfig, fluid: FluidConfig, rng: SimRng) -> Self {
        let links = vec![
            FluidLink {
                up: true,
                down_since: SimTime::ZERO,
                loss_prob: 0.0,
                degrade: None,
                tx_bytes: 0,
                tx_packets: 0,
                drops: 0,
                ecn_marks: 0,
            };
            topo.total_links()
        ];
        let t = topo.config().clone();
        let nics = topo.total_nics();
        let pools = t.segments * t.rails;
        // Resources: [0, nics) NIC egress, [nics, 2·nics) NIC ingress,
        // [2·nics, 2·nics + pools) segment×rail uplink pools,
        // [2·nics + pools, 2·nics + 2·pools) downlink pools.
        let mut res_capacity = vec![t.planes as f64 * config.link_gbps; 2 * nics];
        let pool_cap = (t.planes * t.aggs_per_plane) as f64 * config.link_gbps;
        res_capacity.extend(std::iter::repeat_n(pool_cap, 2 * pools));
        let res_count = vec![0u32; res_capacity.len()];
        // Map each ToR NodeId to its plane so a route's first hop
        // reveals which plane the packet rides.
        let mut max_node = 0usize;
        for seg in 0..t.segments {
            for rail in 0..t.rails {
                for plane in 0..t.planes {
                    max_node = max_node.max(topo.tor_node(seg, rail, plane).0 as usize);
                }
            }
        }
        let mut tor_plane = vec![0u8; max_node + 1];
        for seg in 0..t.segments {
            for rail in 0..t.rails {
                for plane in 0..t.planes {
                    tor_plane[topo.tor_node(seg, rail, plane).0 as usize] = plane as u8;
                }
            }
        }
        FluidFabric {
            topo,
            config,
            fluid,
            links,
            rng,
            trace: None,
            plan: Vec::new(),
            plan_cursor: 0,
            flows: FlowTable::default(),
            res_capacity,
            res_count,
            tor_plane,
            dirty: false,
            last_recompute: SimTime::ZERO,
            next_expiry_scan: SimTime::ZERO,
            drop_counts: [0; 4],
            injected_packets: 0,
            injected_bytes: 0,
            delivered_packets: 0,
            delivered_bytes: 0,
            dropped_bytes: 0,
            flows_opened: 0,
            flows_retired: 0,
        }
    }

    /// The fluid-model knobs.
    pub fn fluid_config(&self) -> &FluidConfig {
        &self.fluid
    }

    /// `(flows opened, flows retired, flows active)` since construction.
    pub fn flow_ledger(&self) -> (u64, u64, usize) {
        (self.flows_opened, self.flows_retired, self.flows.len())
    }

    /// Constraint-resource indices of a `src → dst` flow, and how many
    /// of the four are live.
    fn flow_resources(&self, src: NicId, dst: NicId) -> ([u32; 4], u8) {
        let t = self.topo.config();
        let nics = self.topo.total_nics() as u32;
        let (src_host, rail) = self.topo.nic_location(src);
        let (dst_host, _) = self.topo.nic_location(dst);
        let src_seg = self.topo.segment_of_host(src_host);
        let dst_seg = self.topo.segment_of_host(dst_host);
        if src_seg == dst_seg {
            return ([src.0, nics + dst.0, 0, 0], 2);
        }
        let pool_base = 2 * nics;
        let pools = (t.segments * t.rails) as u32;
        let up = pool_base + (src_seg * t.rails + rail) as u32;
        let down = pool_base + pools + (dst_seg * t.rails + rail) as u32;
        ([src.0, nics + dst.0, up, down], 4)
    }

    /// Progressive-filling max-min fair shares for the current flow
    /// set. Pure: returns the per-flow rates (in key order) without
    /// touching cached state, so the capacity invariant
    /// can re-derive allocations at any quiesce point.
    fn compute_shares(&self) -> Vec<f64> {
        let n = self.flows.len();
        let mut rates = vec![0.0f64; n];
        if n == 0 {
            return rates;
        }
        let mut frozen = vec![false; n];
        let mut remaining = self.res_capacity.clone();
        let mut counts = vec![0u32; remaining.len()];
        let flows: Vec<&FlowState> = self.flows.iter().collect();
        for f in &flows {
            for &r in f.resources() {
                counts[r as usize] += 1;
            }
        }
        let mut unfrozen = n;
        while unfrozen > 0 {
            // The binding level this round: the tightest resource fair
            // share, or the tightest per-flow plane cap, whichever is
            // lower.
            let mut fair = f64::INFINITY;
            for (r, &cnt) in counts.iter().enumerate() {
                if cnt > 0 {
                    fair = fair.min(remaining[r].max(0.0) / cnt as f64);
                }
            }
            let mut cap_bound = f64::INFINITY;
            for (i, f) in flows.iter().enumerate() {
                if !frozen[i] {
                    cap_bound = cap_bound.min(f.cap_gbps);
                }
            }
            let level = fair.min(cap_bound);
            let eps = level * 1e-9 + 1e-12;
            let mut froze_any = false;
            for (i, f) in flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                let bottlenecked = f.cap_gbps <= level + eps
                    || f.resources().iter().any(|&r| {
                        let c = counts[r as usize];
                        c > 0 && remaining[r as usize].max(0.0) / c as f64 <= level + eps
                    });
                if bottlenecked {
                    let rate = level.min(f.cap_gbps);
                    rates[i] = rate;
                    frozen[i] = true;
                    froze_any = true;
                    unfrozen -= 1;
                    for &r in f.resources() {
                        remaining[r as usize] -= rate;
                        counts[r as usize] -= 1;
                    }
                }
            }
            debug_assert!(froze_any, "progressive filling must make progress");
            if !froze_any {
                // Defensive: freeze everything at the current level so a
                // numeric corner can never loop forever.
                for (i, f) in flows.iter().enumerate() {
                    if !frozen[i] {
                        rates[i] = level.min(f.cap_gbps);
                        frozen[i] = true;
                        unfrozen -= 1;
                    }
                }
            }
        }
        rates
    }

    /// Install freshly computed fair shares into the flow table.
    fn recompute_rates(&mut self, now: SimTime) {
        let rates = self.compute_shares();
        let FlowTable { slab, order, .. } = &mut self.flows;
        for (&slot, rate) in order.iter().zip(rates) {
            slab[slot as usize].rate_gbps = rate;
        }
        self.dirty = false;
        self.last_recompute = now;
    }

    /// Recompute if needed, honouring the coalescing quantum.
    fn maybe_recompute(&mut self, now: SimTime) {
        if !self.dirty {
            return;
        }
        let q = self.fluid.recompute_quantum;
        if q == SimDuration::ZERO || now.saturating_duration_since(self.last_recompute) >= q {
            self.recompute_rates(now);
        }
    }

    /// Conservative provisional rate for a flow arriving between
    /// recomputes: its plane cap bounded by an equal split of each of
    /// its resources (counting itself).
    fn provisional_rate(&self, f: &FlowState) -> f64 {
        let mut rate = f.cap_gbps;
        for &r in f.resources() {
            let cnt = self.res_count[r as usize].max(1);
            rate = rate.min(self.res_capacity[r as usize] / cnt as f64);
        }
        rate
    }

    fn apply_fault_event(&mut self, at: SimTime, ev: FaultEvent) {
        self.dirty = true;
        match ev {
            FaultEvent::LinkDown(l) => self.set_fluid_link(at, l, false),
            FaultEvent::LinkUp(l) => self.set_fluid_link(at, l, true),
            FaultEvent::SwitchDown(node) => {
                for l in self.topo.links_of_node(node) {
                    self.set_fluid_link(at, l, false);
                }
            }
            FaultEvent::SwitchUp(node) => {
                for l in self.topo.links_of_node(node) {
                    self.set_fluid_link(at, l, true);
                }
            }
            FaultEvent::NicPortDown { nic, plane } => {
                let (up, down) = self.topo.nic_port_links(nic, plane as usize);
                self.set_fluid_link(at, up, false);
                self.set_fluid_link(at, down, false);
            }
            FaultEvent::NicPortUp { nic, plane } => {
                let (up, down) = self.topo.nic_port_links(nic, plane as usize);
                self.set_fluid_link(at, up, true);
                self.set_fluid_link(at, down, true);
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

    fn set_fluid_link(&mut self, now: SimTime, link: LinkId, up: bool) {
        let l = &mut self.links[link.0 as usize];
        if l.up && !up {
            l.down_since = now;
        }
        l.up = up;
    }

    fn route_is_up(&self, route: &[LinkId]) -> bool {
        route.iter().all(|l| self.links[l.0 as usize].up)
    }

    fn converged_around(&self, now: SimTime, route: &[LinkId]) -> bool {
        route.iter().all(|l| {
            let link = &self.links[l.0 as usize];
            link.up
                || now.saturating_duration_since(link.down_since) >= self.config.bgp_convergence
        })
    }

    /// Retire flows idle past the timeout. Scans are rate-limited to
    /// half a timeout so the check stays O(1) amortized per send.
    fn expire_flows(&mut self, now: SimTime) {
        if now < self.next_expiry_scan || self.flows.is_empty() {
            return;
        }
        self.next_expiry_scan = now + SimDuration::from_nanos(
            (self.fluid.flow_idle_timeout.as_nanos() / 2).max(1),
        );
        let timeout = self.fluid.flow_idle_timeout;
        let before = self.flows.len();
        let res_count = &mut self.res_count;
        self.flows.retire(|f| {
            let idle = now.saturating_duration_since(f.last_active) >= timeout;
            if idle {
                for &r in f.resources() {
                    res_count[r as usize] -= 1;
                }
                count(Subsystem::Net, "fabric.fluid.flow.retired", 1);
            }
            idle
        });
        let retired = before - self.flows.len();
        if retired == 0 {
            return;
        }
        self.flows_retired += retired as u64;
        self.dirty = true;
    }

    fn record_drop(
        &mut self,
        now: SimTime,
        link: LinkId,
        reason: DropReason,
        bytes: u64,
    ) -> Delivery {
        self.links[link.0 as usize].drops += 1;
        self.drop_counts[reason.index()] += 1;
        self.dropped_bytes += bytes;
        count(Subsystem::Net, reason.counter(), 1);
        Delivery::Dropped {
            link,
            reason,
            at: now,
        }
    }

    /// [`Fabric::send`] after `advance(now)`, on the route
    /// `topo.route(src, dst, flow, path_id)` the caller already holds.
    /// The hybrid fabric, which advances this half and computes the
    /// route itself, enters here so neither happens twice per send.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_routed(
        &mut self,
        now: SimTime,
        src: NicId,
        dst: NicId,
        flow: u64,
        path_id: u32,
        bytes: u64,
        mut route: Route,
    ) -> Delivery {
        self.injected_packets += 1;
        self.injected_bytes += bytes;
        count(Subsystem::Net, "fabric.fluid.sent", 1);

        let delivery = 'fate: {
            if route.is_empty() {
                // Host-local: PCIe/NVLink latency only, same as packet.
                break 'fate Delivery::Delivered {
                    at: now + self.config.hop_delay,
                    ecn: false,
                };
            }
            // Control-plane reroute around converged failures, probing
            // successive path-table slots like the packet model.
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
            // Fault surface: dead links blackhole until convergence;
            // degrade ramps and flat loss draw per link, keeping the
            // DropReason taxonomy and draw structure of the packet
            // model.
            for &link_id in &route {
                let (up, degrade, loss_prob) = {
                    let l = &self.links[link_id.0 as usize];
                    (l.up, l.degrade, l.loss_prob)
                };
                if !up {
                    break 'fate self.record_drop(now, link_id, DropReason::LinkDown, bytes);
                }
                if let Some(ramp) = degrade {
                    let p = ramp.loss_at(now);
                    if p > 0.0 && self.rng.chance(p) {
                        break 'fate self.record_drop(now, link_id, DropReason::DegradedLink, bytes);
                    }
                }
                if loss_prob > 0.0 && self.rng.chance(loss_prob) {
                    break 'fate self.record_drop(now, link_id, DropReason::RandomLoss, bytes);
                }
            }

            // Flow bookkeeping: register or refresh, then allocate.
            let key = (src.0, dst.0, flow);
            let plane = {
                let (_, tor) = self.topo.link_endpoints(route[0]);
                self.tor_plane[tor.0 as usize] as u32
            };
            let slot = match self.flows.slot(&key) {
                Some(slot) => {
                    let f = self.flows.get_mut(slot);
                    if f.planes_mask & (1 << plane) == 0 {
                        // A new plane widens the flow's cap: re-derive shares.
                        f.planes_mask |= 1 << plane;
                        f.cap_gbps = self.config.link_gbps * f.planes_mask.count_ones() as f64;
                        self.dirty = true;
                    }
                    slot
                }
                None => {
                    let (resources, n_resources) = self.flow_resources(src, dst);
                    for &r in &resources[..n_resources as usize] {
                        self.res_count[r as usize] += 1;
                    }
                    let mut f = FlowState {
                        key,
                        resources,
                        n_resources,
                        cap_gbps: self.config.link_gbps,
                        planes_mask: 1 << plane,
                        rate_gbps: 0.0,
                        next_free: now,
                        last_active: now,
                    };
                    f.rate_gbps = self.provisional_rate(&f);
                    self.flows_opened += 1;
                    self.dirty = true;
                    count(Subsystem::Net, "fabric.fluid.flow.opened", 1);
                    self.flows.open(f)
                }
            };
            self.maybe_recompute(now);

            let hop_delay = self.config.hop_delay;
            let ecn_threshold = self.config.ecn_threshold_bytes;
            let buffer = self.config.buffer_bytes;
            let f = self.flows.get_mut(slot);
            f.last_active = now;
            let rate = f.rate_gbps.max(1e-6);
            let wait = f.next_free.saturating_duration_since(now);
            let backlog = (wait.as_nanos() as f64 * rate / 8.0) as u64;
            if backlog + bytes > buffer {
                break 'fate self.record_drop(now, route[0], DropReason::BufferOverflow, bytes);
            }
            let ecn = backlog > ecn_threshold;
            let start = if f.next_free > now { f.next_free } else { now };
            f.next_free = start + transmit_time(bytes, rate);
            let at = f.next_free + hop_delay.mul(route.len() as u64);
            for &l in &route {
                let link = &mut self.links[l.0 as usize];
                link.tx_bytes += bytes;
                link.tx_packets += 1;
                if ecn {
                    link.ecn_marks += 1;
                }
            }
            if ecn {
                count(Subsystem::Net, "ecn_mark", 1);
            }
            Delivery::Delivered { at, ecn }
        };

        match delivery {
            Delivery::Delivered { .. } => {
                self.delivered_packets += 1;
                self.delivered_bytes += bytes;
            }
            Delivery::Dropped { .. } => {}
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
}

impl Fabric for FluidFabric {
    fn kind(&self) -> FabricKind {
        FabricKind::Fluid
    }

    fn topology(&self) -> &ClosTopology {
        &self.topo
    }

    fn config(&self) -> &NetworkConfig {
        &self.config
    }

    fn config_mut(&mut self) -> &mut NetworkConfig {
        &mut self.config
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
        let route = self.topo.route(src, dst, flow, path_id);
        self.send_routed(now, src, dst, flow, path_id, bytes, route)
    }

    fn advance(&mut self, now: SimTime) {
        while let Some(&(at, ev)) = self.plan.get(self.plan_cursor) {
            if at > now {
                break;
            }
            self.plan_cursor += 1;
            self.apply_fault_event(at, ev);
        }
        self.expire_flows(now);
        self.maybe_recompute(now);
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan.into_events();
        self.plan_cursor = 0;
    }

    fn pending_fault_events(&self) -> usize {
        self.plan.len() - self.plan_cursor
    }

    fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.set_link_state_at(SimTime::ZERO, link, up);
    }

    fn set_link_state_at(&mut self, now: SimTime, link: LinkId, up: bool) {
        self.set_fluid_link(now, link, up);
        self.dirty = true;
    }

    fn set_loss(&mut self, link: LinkId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.links[link.0 as usize].loss_prob = p;
    }

    fn control_rtt_component(&self, src: NicId, dst: NicId) -> SimDuration {
        let hops = if src == dst {
            1
        } else {
            self.topo.route(src, dst, 0, 0).len() as u64
        };
        self.config.hop_delay.mul(hops) + transmit_time(64, self.config.link_gbps).mul(hops)
    }

    fn drops_by_reason(&self, reason: DropReason) -> u64 {
        self.drop_counts[reason.index()]
    }

    fn injected(&self) -> (u64, u64) {
        (self.injected_packets, self.injected_bytes)
    }

    fn delivered(&self) -> (u64, u64) {
        (self.delivered_packets, self.delivered_bytes)
    }

    fn link_stats(&self, link: LinkId, _now: SimTime) -> LinkStats {
        let l = &self.links[link.0 as usize];
        LinkStats {
            tx_bytes: l.tx_bytes,
            tx_packets: l.tx_packets,
            drops: l.drops,
            ecn_marks: l.ecn_marks,
            // Queues live in per-flow calendars, not per-port gauges.
            max_queue_bytes: 0,
            avg_queue_bytes: 0.0,
        }
    }

    fn tor_uplink_imbalance(&self) -> f64 {
        uplink_imbalance_from(&self.topo, |l| self.links[l.0 as usize].tx_bytes)
    }

    fn tor_uplink_queue_stats(&self, _now: SimTime) -> (f64, u64) {
        (0.0, 0)
    }

    fn enable_trace(&mut self, limit: usize) {
        self.trace = Some((Vec::new(), limit));
    }

    fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.trace.take().map(|(v, _)| v).unwrap_or_default()
    }

    fn check_invariants(&self, at: SimTime) {
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
            c.check(
                "net.fluid_flow_conservation",
                self.flows_opened == self.flows_retired + self.flows.len() as u64,
                || {
                    format!(
                        "flows opened {} != retired {} + active {}",
                        self.flows_opened,
                        self.flows_retired,
                        self.flows.len()
                    )
                },
            );
            let torn = self.flows.inconsistency();
            c.check("net.fluid_flow_index", torn.is_none(), || {
                torn.unwrap_or_default()
            });
            // Re-derive allocations from scratch (pure) so the check
            // validates the allocator itself, not a possibly-stale
            // cached rate between coalesced recomputes.
            let rates = self.compute_shares();
            let mut sums = vec![0.0f64; self.res_capacity.len()];
            let mut all_positive = true;
            for (f, &rate) in self.flows.iter().zip(&rates) {
                all_positive &= rate > 0.0;
                for &r in f.resources() {
                    sums[r as usize] += rate;
                }
            }
            let oversubscribed = sums
                .iter()
                .zip(&self.res_capacity)
                .enumerate()
                .find(|(_, (&s, &cap))| s > cap * (1.0 + 1e-6));
            c.check(
                "net.fluid_capacity",
                oversubscribed.is_none() && all_positive,
                || match oversubscribed {
                    Some((r, (s, cap))) => format!(
                        "resource {r}: allocated {s:.3} Gbps exceeds capacity {cap:.3} Gbps \
                         over {} active flows",
                        self.flows.len()
                    ),
                    None => "an active flow was allocated a zero rate".to_string(),
                },
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClosConfig;

    fn topo() -> ClosTopology {
        ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 4,
        })
    }

    fn fabric() -> FluidFabric {
        FluidFabric::new(
            topo(),
            NetworkConfig::default(),
            FluidConfig {
                recompute_quantum: SimDuration::ZERO,
                ..FluidConfig::default()
            },
            SimRng::from_seed(1),
        )
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    #[test]
    fn single_flow_gets_dual_plane_capacity() {
        let mut f = fabric();
        let src = f.topology().nic(0, 0);
        let dst = f.topology().nic(4, 0);
        let d = f.send(t(0), src, dst, 1, 0, 1 << 20);
        assert!(d.arrival().is_some());
        // First packet rides one plane: capped at link rate until the
        // second plane is observed.
        assert!((f.flows.iter().next().unwrap().rate_gbps - 200.0).abs() < 1e-6);
        // A packet on the other plane (path_id picks the plane) widens
        // the cap to both ports.
        for p in 1..8 {
            f.send(t(0), src, dst, 1, p, 1 << 20);
        }
        assert!((f.flows.iter().next().unwrap().rate_gbps - 400.0).abs() < 1e-6);
    }

    #[test]
    fn incast_splits_ingress_capacity_fairly() {
        let mut f = fabric();
        let dst = f.topology().nic(0, 0);
        for h in 1..5 {
            let src = f.topology().nic(h, 0);
            // Two sends on different planes so every flow reaches its
            // full dual-plane cap and the ingress is the bottleneck.
            f.send(t(0), src, dst, h as u64, 0, 4096);
            f.send(t(0), src, dst, h as u64, 1, 4096);
        }
        let rates: Vec<f64> = f.flows.iter().map(|fl| fl.rate_gbps).collect();
        assert_eq!(rates.len(), 4);
        for r in &rates {
            // 4 flows share 400 Gbps of dst ingress: 100 Gbps each.
            assert!((r - 100.0).abs() < 1e-6, "rates {rates:?}");
        }
    }

    #[test]
    fn backlog_marks_ecn_and_overflows_buffer() {
        let mut f = fabric();
        let src = f.topology().nic(0, 0);
        let dst = f.topology().nic(1, 0);
        let mut ecn = false;
        let mut dropped = false;
        for _ in 0..1200 {
            match f.send(t(0), src, dst, 9, 0, 4096) {
                Delivery::Delivered { ecn: e, .. } => ecn |= e,
                Delivery::Dropped { reason, .. } => {
                    assert_eq!(reason, DropReason::BufferOverflow);
                    dropped = true;
                }
            }
        }
        assert!(ecn, "deep virtual backlog must ECN-mark");
        assert!(dropped, "virtual backlog past the buffer must tail-drop");
        let (ip, ib) = f.injected();
        let (dp, db) = f.delivered();
        let drops: u64 = DropReason::ALL.iter().map(|&r| f.drops_by_reason(r)).sum();
        assert_eq!(ip, dp + drops);
        assert_eq!(ib, db + f.dropped_bytes);
    }

    #[test]
    fn dead_link_blackholes_then_reroutes_after_convergence() {
        let mut f = fabric();
        let src = f.topology().nic(0, 0);
        let dst = f.topology().nic(4, 0);
        let link = f.topology().route(src, dst, 3, 0)[0];
        f.set_link_state_at(t(0), link, false);
        let d = f.send(t(1), src, dst, 3, 0, 4096);
        assert!(
            matches!(
                d,
                Delivery::Dropped {
                    reason: DropReason::LinkDown,
                    ..
                }
            ),
            "pre-convergence sends on the dead plane must blackhole: {d:?}"
        );
        // After BGP convergence the slot reroutes onto a live plane.
        let after = t(0) + NetworkConfig::default().bgp_convergence + SimDuration::from_micros(1);
        let d = f.send(after, src, dst, 3, 0, 4096);
        assert!(
            d.arrival().is_some(),
            "post-convergence send must reroute: {d:?}"
        );
    }

    #[test]
    fn idle_flows_retire_and_ledger_balances() {
        let mut f = fabric();
        let src = f.topology().nic(0, 0);
        let dst = f.topology().nic(4, 0);
        f.send(t(0), src, dst, 1, 0, 4096);
        assert_eq!(f.flow_ledger(), (1, 0, 1));
        // Far past the idle timeout the flow is gone.
        f.advance(t(10_000));
        assert_eq!(f.flow_ledger(), (1, 1, 0));
        // And invariants hold at this quiesce point.
        stellar_check::strict(|| f.check_invariants(t(10_000)));
    }

    #[test]
    fn allocations_never_oversubscribe_under_random_traffic() {
        stellar_check::strict(|| {
            let mut f = fabric();
            let mut rng = SimRng::from_seed(99);
            let nics = f.topology().total_nics() as u64;
            for i in 0..400u64 {
                let src = NicId(rng.below(nics) as u32);
                let mut dst = NicId(rng.below(nics) as u32);
                if dst == src {
                    dst = NicId(((dst.0 as u64 + 1) % nics) as u32);
                }
                let now = t(i / 4);
                f.send(now, src, dst, rng.below(64), rng.below(256) as u32, 4096);
                f.check_invariants(now);
            }
        });
    }
}
