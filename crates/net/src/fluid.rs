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

use stellar_sim::{transmit_time, SimDuration, SimRng, SimTime};
use stellar_telemetry::{fold_counters, Subsystem};

use crate::core::{Core, Ledger, Model, ModelFabric, Packet};
use crate::fabric::FabricKind;
use crate::flow_map::{FlowKey, FlowMap};
use crate::network::{Delivery, DropReason, NetworkConfig};
use crate::topology::{ClosTopology, NicId, Route};

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

/// One active flow. A send reads and writes the first four fields, so
/// they lead.
#[derive(Debug, Clone)]
#[repr(C)]
struct FlowState {
    /// Virtual calendar: when the flow's pipe next falls idle.
    next_free: SimTime,
    /// Last time the flow carried a packet (idle-retirement clock).
    last_active: SimTime,
    /// Current allocated rate in Gbps (provisional until the next
    /// global recompute if the flow arrived inside a quantum).
    rate_gbps: f64,
    /// Bitmask of planes this flow's routes have touched.
    planes_mask: u32,
    n_resources: u8,
    /// Per-flow rate cap from the planes actually observed, in Gbps.
    cap_gbps: f64,
    key: FlowKey,
    /// Constraint-resource indices (src egress, dst ingress, and the
    /// uplink/downlink pools for cross-segment flows); the first
    /// `n_resources` are live.
    resources: [u32; 4],
}

impl FlowState {
    fn resources(&self) -> &[u32] {
        &self.resources[..self.n_resources as usize]
    }
}

/// The active flows. Sends find their flow through an index by flow id
/// (see [`FlowMap`]) into a slot-stable slab; every walk whose f64
/// arithmetic must not depend on index or slot order (fair-share
/// filling, the capacity check) goes through `order`, the live slots
/// sorted by key. Opens and retirements — rare next to sends — pay for
/// keeping `order` sorted.
#[derive(Debug, Default)]
struct FlowTable {
    slab: Vec<FlowState>,
    /// Slab slots not holding a live flow, reused by the next open.
    free: Vec<u32>,
    index: FlowMap<u32>,
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

/// The flow-level fluid model: flow table, constraint resources and
/// its loss RNG over the shared link table. See the module docs.
#[derive(Debug)]
pub struct FluidModel {
    fluid: FluidConfig,
    rng: SimRng,
    /// Active flows. The recompute walks them in (src, dst, flow) key
    /// order, so allocation arithmetic is a pure function of the flow
    /// set, never of hash order or slot reuse.
    flows: FlowTable,
    /// Capacity of each constraint resource, in Gbps.
    res_capacity: Vec<f64>,
    /// Active-flow count per resource (provisional-rate estimates).
    res_count: Vec<u32>,
    /// Fair shares need a recompute (flow set or link state changed).
    dirty: bool,
    last_recompute: SimTime,
    next_expiry_scan: SimTime,
    ledger: Ledger,
    flows_opened: u64,
    flows_retired: u64,
}

impl FluidModel {
    /// A fluid model over `topo` with link rates from `config`, using
    /// `rng` for loss injection (same draw structure as the packet
    /// model: one draw per lossy link per packet).
    pub(crate) fn new(
        topo: &ClosTopology,
        config: &NetworkConfig,
        fluid: FluidConfig,
        rng: SimRng,
    ) -> Self {
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
        FluidModel {
            fluid,
            rng,
            flows: FlowTable::default(),
            res_capacity,
            res_count,
            dirty: false,
            last_recompute: SimTime::ZERO,
            next_expiry_scan: SimTime::ZERO,
            ledger: Ledger::default(),
            flows_opened: 0,
            flows_retired: 0,
        }
    }

    /// `(flows opened, flows retired, flows active)` since construction.
    pub fn flow_ledger(&self) -> (u64, u64, usize) {
        (self.flows_opened, self.flows_retired, self.flows.len())
    }

    /// Constraint-resource indices of a `src → dst` flow, and how many
    /// of the four are live.
    fn flow_resources(topo: &ClosTopology, src: NicId, dst: NicId) -> ([u32; 4], u8) {
        let t = topo.config();
        let nics = topo.total_nics() as u32;
        let (src_host, rail) = topo.nic_location(src);
        let (dst_host, _) = topo.nic_location(dst);
        let src_seg = topo.segment_of_host(src_host);
        let dst_seg = topo.segment_of_host(dst_host);
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
}

impl Model for FluidModel {
    const KIND: FabricKind = FabricKind::Fluid;

    fn send(&mut self, core: &mut Core, p: &Packet, route: Route) -> Delivery {
        let Packet {
            now,
            src,
            dst,
            flow,
            bytes,
            ..
        } = *p;
        let dropped = |link, reason| Delivery::Dropped {
            link,
            reason,
            at: now,
        };

        let delivery = 'fate: {
            let config = &core.config;
            if route.is_empty() {
                // Host-local: PCIe/NVLink latency only, same as packet.
                break 'fate Delivery::Delivered {
                    at: now + config.hop_delay,
                    ecn: false,
                };
            }
            let route = core.reroute(p, route);
            // Fault surface: dead links blackhole until convergence;
            // degrade ramps and flat loss draw per link, keeping the
            // DropReason taxonomy and draw structure of the packet
            // model. A fault-free fabric has nothing to screen.
            if !core.fault_free() {
                for &link in &route {
                    let state = &core.links[link.0 as usize];
                    if !state.up() {
                        break 'fate dropped(link, DropReason::LinkDown);
                    }
                    if let Some(ramp) = state.degrade() {
                        let loss = ramp.loss_at(now);
                        if loss > 0.0 && self.rng.chance(loss) {
                            break 'fate dropped(link, DropReason::DegradedLink);
                        }
                    }
                    let loss = state.loss_prob();
                    if loss > 0.0 && self.rng.chance(loss) {
                        break 'fate dropped(link, DropReason::RandomLoss);
                    }
                }
            }

            // Flow bookkeeping: register or refresh, then allocate.
            let key = (src.0, dst.0, flow);
            // The first hop is the NIC uplink: its id says the plane.
            let plane = core.topo.nic_link_plane(route[0]) as u32;
            let slot = match self.flows.slot(&key) {
                Some(slot) => {
                    let f = self.flows.get_mut(slot);
                    if f.planes_mask & (1 << plane) == 0 {
                        // A new plane widens the flow's cap: re-derive shares.
                        f.planes_mask |= 1 << plane;
                        f.cap_gbps = config.link_gbps * f.planes_mask.count_ones() as f64;
                        self.dirty = true;
                    }
                    slot
                }
                None => {
                    let (resources, n_resources) = Self::flow_resources(&core.topo, src, dst);
                    for &r in &resources[..n_resources as usize] {
                        self.res_count[r as usize] += 1;
                    }
                    let mut f = FlowState {
                        key,
                        resources,
                        n_resources,
                        cap_gbps: config.link_gbps,
                        planes_mask: 1 << plane,
                        rate_gbps: 0.0,
                        next_free: now,
                        last_active: now,
                    };
                    f.rate_gbps = self.provisional_rate(&f);
                    self.flows_opened += 1;
                    self.dirty = true;
                    self.flows.open(f)
                }
            };
            self.maybe_recompute(now);

            let f = self.flows.get_mut(slot);
            f.last_active = now;
            let rate = f.rate_gbps.max(1e-6);
            let wait = f.next_free.saturating_duration_since(now);
            let backlog = (wait.as_nanos() as f64 * rate / 8.0) as u64;
            if backlog + bytes > config.buffer_bytes {
                break 'fate dropped(route[0], DropReason::BufferOverflow);
            }
            let ecn = backlog > config.ecn_threshold_bytes;
            let start = if f.next_free > now { f.next_free } else { now };
            f.next_free = start + transmit_time(bytes, rate);
            let at = f.next_free + config.hop_delay.mul(route.len() as u64);
            for &l in &route {
                core.links[l.0 as usize].transmit(bytes, ecn);
            }
            if ecn {
                self.ledger.ecn_marks += 1;
            }
            Delivery::Delivered { at, ecn }
        };
        core.book(&mut self.ledger, bytes, delivery);
        delivery
    }

    fn advance(&mut self, now: SimTime) {
        self.expire_flows(now);
        self.maybe_recompute(now);
    }

    fn links_changed(&mut self) {
        self.dirty = true;
    }

    fn ledger(&self) -> Ledger {
        self.ledger
    }

    fn fold_counters(&self) {
        fold_counters(Subsystem::Net, || {
            [
                ("fabric.fluid.sent", self.ledger.injected_packets),
                ("fabric.fluid.flow.opened", self.flows_opened),
                ("fabric.fluid.flow.retired", self.flows_retired),
            ]
        });
    }

    fn check_invariants(&self, at: SimTime) {
        stellar_check::at_quiesce(at, stellar_check::Layer::Net, |c| {
            self.ledger.check(c);
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

/// The flow-level fluid fabric: the shared core plus the fluid model.
pub type FluidFabric = ModelFabric<FluidModel>;

impl FluidFabric {
    /// A fluid fabric over `topo` with link parameters from `config`,
    /// using `rng` for loss injection (same draw structure as the
    /// packet model: one draw per lossy link per packet).
    pub fn new(topo: ClosTopology, config: NetworkConfig, fluid: FluidConfig, rng: SimRng) -> Self {
        let model = FluidModel::new(&topo, &config, fluid, rng);
        ModelFabric {
            core: Core::new(topo, config),
            model,
        }
    }

    /// `(flows opened, flows retired, flows active)` since construction.
    pub fn flow_ledger(&self) -> (u64, u64, usize) {
        self.model.flow_ledger()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClosConfig;
    use crate::Fabric;

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

    /// One flow id on several `(src, dst)` pairs, as callers other than
    /// the transport may send: the pairs open, refresh and retire in an
    /// order that moves the id's dense entry between them, and the index
    /// agrees with the slab and the key order throughout.
    #[test]
    fn colliding_flow_ids_keep_the_index_consistent() {
        let flow = |src: u32, dst: u32, at: SimTime| FlowState {
            key: (src, dst, 5),
            resources: [0; 4],
            n_resources: 0,
            cap_gbps: 200.0,
            planes_mask: 1,
            rate_gbps: 200.0,
            next_free: at,
            last_active: at,
        };
        let mut table = FlowTable::default();
        let consistent = |table: &FlowTable| assert_eq!(table.inconsistency(), None);
        let pairs = [(0, 1), (2, 3), (4, 5)];
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            table.open(flow(src, dst, t(i as u64)));
            consistent(&table);
        }
        // Refresh each through its own lookup.
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            let slot = table.slot(&(src, dst, 5)).expect("open flow is indexed");
            table.get_mut(slot).last_active = t(10 + i as u64);
            consistent(&table);
        }
        // Retire the id's dense owner first: the others stay reachable.
        table.retire(|f| f.key == (0, 1, 5));
        consistent(&table);
        assert_eq!(table.slot(&(0, 1, 5)), None);
        assert!(table.slot(&(2, 3, 5)).is_some() && table.slot(&(4, 5, 5)).is_some());
        // A new pair takes the freed id; then the rest retire.
        table.open(flow(6, 7, t(20)));
        consistent(&table);
        table.retire(|f| f.last_active < t(12));
        consistent(&table);
        let live: Vec<FlowKey> = table.iter().map(|f| f.key).collect();
        assert_eq!(live, [(4, 5, 5), (6, 7, 5)]);
        table.retire(|_| true);
        consistent(&table);
        assert!(table.is_empty());
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
        assert!((f.model.flows.iter().next().unwrap().rate_gbps - 200.0).abs() < 1e-6);
        // A packet on the other plane (path_id picks the plane) widens
        // the cap to both ports.
        for p in 1..8 {
            f.send(t(0), src, dst, 1, p, 1 << 20);
        }
        assert!((f.model.flows.iter().next().unwrap().rate_gbps - 400.0).abs() < 1e-6);
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
        let rates: Vec<f64> = f.model.flows.iter().map(|fl| fl.rate_gbps).collect();
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
        assert_eq!(ib, db + f.model.ledger.dropped_bytes);
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
