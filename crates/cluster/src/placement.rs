//! NIC slot booking and placement policies.
//!
//! The schedulable unit is a **slot**: one `(host, rail)` NIC on the
//! shared Clos. A tenant ring of N ranks books N slots **on one rail**
//! — collective rings are rail-aligned (cross-rail traffic would need
//! host-internal NVLink forwarding, which the fabric does not model) —
//! and the two policies differ only in *which* rail-consistent slots
//! they pick: [`PlacementPolicy::BinPack`] packs the lowest free
//! indices, [`PlacementPolicy::TopoAware`] keeps the ring inside one
//! segment on the least-loaded `(segment, rail)` pair.

use stellar_net::ClosConfig;
use stellar_sim::SimTime;

use crate::spec::PlacementPolicy;

/// One booked NIC slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Global host index.
    pub host: usize,
    /// Rail index.
    pub rail: usize,
}

/// The cluster's slot ledger: who holds which `(host, rail)` NIC.
#[derive(Debug, Clone)]
pub struct SlotMap {
    hosts: usize,
    rails: usize,
    hosts_per_segment: usize,
    /// `owner[rail * hosts + host]` — the tenant index holding the slot.
    owner: Vec<Option<usize>>,
    /// Free-slot gauge, kept redundantly so `cluster.slot_capacity` has
    /// something to cross-check against the owner table.
    free: usize,
}

impl SlotMap {
    /// An empty ledger over `topology`.
    pub fn new(topology: &ClosConfig) -> Self {
        let hosts = topology.segments * topology.hosts_per_segment;
        let rails = topology.rails;
        SlotMap {
            hosts,
            rails,
            hosts_per_segment: topology.hosts_per_segment,
            owner: vec![None; hosts * rails],
            free: hosts * rails,
        }
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.owner.len()
    }

    /// Currently free slots (the gauge).
    pub fn free_slots(&self) -> usize {
        self.free
    }

    /// The largest admissible ring: rings are rail-aligned, so no ring
    /// can exceed the host count even when total capacity (hosts ×
    /// rails) is larger.
    pub fn max_ring(&self) -> usize {
        self.hosts
    }

    fn idx(&self, host: usize, rail: usize) -> usize {
        rail * self.hosts + host
    }

    fn segment_of(&self, host: usize) -> usize {
        host / self.hosts_per_segment
    }

    /// Free hosts on `rail`, lowest first, optionally restricted to one
    /// segment.
    fn free_hosts(&self, rail: usize, segment: Option<usize>) -> Vec<usize> {
        (0..self.hosts)
            .filter(|&h| segment.is_none_or(|s| self.segment_of(h) == s))
            .filter(|&h| self.owner[self.idx(h, rail)].is_none())
            .collect()
    }

    /// Book `ranks` slots for `tenant` under `policy`. Returns the
    /// booked slots in ring order (ascending host on one rail), or
    /// `None` if no rail currently holds enough free slots.
    pub fn place(
        &mut self,
        policy: PlacementPolicy,
        ranks: usize,
        tenant: usize,
    ) -> Option<Vec<Slot>> {
        let hosts = match policy {
            PlacementPolicy::BinPack => {
                // First rail (lowest index) with room; lowest hosts
                // first, blind to the segment boundary.
                (0..self.rails)
                    .map(|rail| (rail, self.free_hosts(rail, None)))
                    .find(|(_, free)| free.len() >= ranks)
                    .map(|(rail, free)| (rail, free[..ranks].to_vec()))
            }
            PlacementPolicy::TopoAware => {
                // Least-loaded (segment, rail) pair that holds the whole
                // ring — most free slots wins, ties to the lowest pair —
                // so rings stay intra-segment and tenants spread across
                // rails. Fall back to bin-packing the least-loaded rail
                // when no single segment fits.
                let segments = self.hosts / self.hosts_per_segment;
                let mut best: Option<(usize, usize, Vec<usize>)> = None;
                for seg in 0..segments {
                    for rail in 0..self.rails {
                        let free = self.free_hosts(rail, Some(seg));
                        if free.len() < ranks {
                            continue;
                        }
                        if best.as_ref().is_none_or(|(_, _, b)| free.len() > b.len()) {
                            best = Some((seg, rail, free));
                        }
                    }
                }
                best.map(|(_, rail, free)| (rail, free[..ranks].to_vec()))
                    .or_else(|| {
                        (0..self.rails)
                            .map(|rail| (rail, self.free_hosts(rail, None)))
                            .filter(|(_, free)| free.len() >= ranks)
                            .max_by_key(|(rail, free)| (free.len(), self.rails - rail))
                            .map(|(rail, free)| (rail, free[..ranks].to_vec()))
                    })
            }
        };
        let (rail, hosts) = hosts?;
        let slots: Vec<Slot> = hosts.into_iter().map(|host| Slot { host, rail }).collect();
        for s in &slots {
            let i = self.idx(s.host, s.rail);
            debug_assert!(self.owner[i].is_none(), "placement chose a booked slot");
            self.owner[i] = Some(tenant);
            self.free -= 1;
        }
        Some(slots)
    }

    /// Release every slot held by `tenant` (its departure).
    pub fn release(&mut self, tenant: usize) {
        for o in self.owner.iter_mut() {
            if *o == Some(tenant) {
                *o = None;
                self.free += 1;
            }
        }
    }

    /// Distinct segments a slot set touches (1 = fully intra-segment).
    pub fn segment_span(&self, slots: &[Slot]) -> usize {
        let mut segs: Vec<usize> = slots.iter().map(|s| self.segment_of(s.host)).collect();
        segs.sort_unstable();
        segs.dedup();
        segs.len()
    }

    /// Evaluate the slot-ledger invariants at a scheduler quiesce point
    /// (`admitted` = ranks of currently admitted tenants).
    pub fn check_invariants(&self, at: SimTime, admitted: usize) {
        stellar_check::at_quiesce(at, stellar_check::Layer::Cluster, |c| {
            let booked = self.owner.iter().filter(|o| o.is_some()).count();
            c.check(
                "cluster.slot_capacity",
                self.free + booked == self.capacity(),
                || {
                    format!(
                        "free gauge {} + booked {} != capacity {}",
                        self.free,
                        booked,
                        self.capacity()
                    )
                },
            );
            c.check("cluster.admitted_capacity", admitted <= self.capacity(), || {
                format!(
                    "admitted ranks {} exceed slot capacity {}",
                    admitted,
                    self.capacity()
                )
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> ClosConfig {
        ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 2,
            planes: 2,
            aggs_per_plane: 4,
        }
    }

    #[test]
    fn binpack_packs_lowest_slots_first() {
        let mut m = SlotMap::new(&topo());
        let a = m.place(PlacementPolicy::BinPack, 3, 0).unwrap();
        assert_eq!(
            a,
            vec![
                Slot { host: 0, rail: 0 },
                Slot { host: 1, rail: 0 },
                Slot { host: 2, rail: 0 }
            ]
        );
        // The next 3-ring straddles the segment boundary (hosts 3..5).
        let b = m.place(PlacementPolicy::BinPack, 3, 1).unwrap();
        assert_eq!(b[0].host, 3);
        assert_eq!(b[2].host, 5);
        assert_eq!(m.segment_span(&b), 2);
        assert_eq!(m.free_slots(), 16 - 6);
    }

    #[test]
    fn topo_aware_keeps_rings_intra_segment_and_spreads_rails() {
        let mut m = SlotMap::new(&topo());
        let a = m.place(PlacementPolicy::TopoAware, 3, 0).unwrap();
        assert_eq!(m.segment_span(&a), 1);
        // The second ring lands on a *different* (segment, rail) pair —
        // the loaded one is no longer least-loaded.
        let b = m.place(PlacementPolicy::TopoAware, 3, 1).unwrap();
        assert_eq!(m.segment_span(&b), 1);
        assert_ne!(
            (m.segment_of(a[0].host), a[0].rail),
            (m.segment_of(b[0].host), b[0].rail)
        );
    }

    #[test]
    fn topo_aware_falls_back_to_cross_segment_when_nothing_fits() {
        let mut m = SlotMap::new(&topo());
        // 5 ranks cannot fit in any 4-host segment.
        let a = m.place(PlacementPolicy::TopoAware, 5, 0).unwrap();
        assert_eq!(m.segment_span(&a), 2);
        assert!(a.iter().all(|s| s.rail == a[0].rail), "still one rail");
    }

    #[test]
    fn release_returns_slots_and_full_cluster_rejects() {
        let mut m = SlotMap::new(&topo());
        assert!(m.place(PlacementPolicy::BinPack, 8, 0).is_some());
        assert!(m.place(PlacementPolicy::BinPack, 8, 1).is_some());
        assert_eq!(m.free_slots(), 0);
        assert!(m.place(PlacementPolicy::BinPack, 2, 2).is_none());
        m.release(0);
        assert_eq!(m.free_slots(), 8);
        assert!(m.place(PlacementPolicy::BinPack, 2, 2).is_some());
    }

    #[test]
    fn rings_never_mix_rails() {
        let mut m = SlotMap::new(&topo());
        for t in 0..4 {
            let s = m.place(PlacementPolicy::BinPack, 4, t).unwrap();
            assert!(s.iter().all(|x| x.rail == s[0].rail));
        }
        assert!(m.place(PlacementPolicy::BinPack, 2, 9).is_none());
    }

    #[test]
    fn invariants_catch_gauge_drift() {
        let mut m = SlotMap::new(&topo());
        m.place(PlacementPolicy::BinPack, 4, 0);
        let (_, v) = stellar_check::collect(
            SimTime::ZERO,
            stellar_check::Layer::Cluster,
            |c| {
                let booked = m.owner.iter().filter(|o| o.is_some()).count();
                c.check("cluster.slot_capacity", m.free + booked == m.capacity(), || {
                    String::new()
                });
                c.check("cluster.admitted_capacity", 4 <= m.capacity(), String::new);
            },
        );
        assert!(v.is_empty());
        // Drift the gauge: the invariant must fire.
        m.free -= 1;
        let (_, v) = stellar_check::collect(
            SimTime::ZERO,
            stellar_check::Layer::Cluster,
            |c| {
                let booked = m.owner.iter().filter(|o| o.is_some()).count();
                c.check("cluster.slot_capacity", m.free + booked == m.capacity(), || {
                    String::new()
                });
            },
        );
        assert_eq!(v.len(), 1);
    }
}
