//! Per-flow state indexed by the dense flow id.
//!
//! The flow-level models keep state per `(src, dst, flow)`. The
//! transport, the only production caller of [`Fabric::send`], passes its
//! connection id as the flow id, so ids are small, dense and each names
//! one `(src, dst)` pair: a `Vec` indexed by the id finds a flow with one
//! load, where a hash map would hash the whole key on every send. The
//! `(src, dst)` stored with each entry is checked on every lookup, and a
//! key whose id is out of range or already taken by another pair lives in
//! a hash map instead, so any caller stays correct and only the dense
//! case is fast.
//!
//! [`Fabric::send`]: crate::Fabric::send

use stellar_sim::hash::FastMap;

/// A flow's identity: `(src NIC, dst NIC, flow id)`.
pub(crate) type FlowKey = (u32, u32, u64);

/// Flow ids at or above this go to the hash map: the dense vector grows
/// to the largest id it holds, so an arbitrary 64-bit id must not size it.
const DENSE_IDS: u64 = 1 << 20;

/// A map from [`FlowKey`] to `V`, dense by flow id. See the module docs.
#[derive(Debug)]
pub(crate) struct FlowMap<V> {
    /// `dense[id]` holds the `(src, dst)` owning id `id`, and its value.
    dense: Vec<Option<(u32, u32, V)>>,
    /// Keys whose id is out of dense range or owned by another pair.
    spill: FastMap<FlowKey, V>,
    len: usize,
}

impl<V> Default for FlowMap<V> {
    fn default() -> Self {
        FlowMap {
            dense: Vec::new(),
            spill: FastMap::default(),
            len: 0,
        }
    }
}

impl<V> FlowMap<V> {
    /// Number of keys held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no key is held.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Keys held in the hash map rather than by id.
    #[cfg(test)]
    pub(crate) fn spilled(&self) -> usize {
        self.spill.len()
    }

    /// The dense index holding `key`, if its id's entry is this pair's.
    #[inline]
    fn dense_index(&self, key: &FlowKey) -> Option<usize> {
        let &(src, dst, id) = key;
        match self.dense.get(id as usize) {
            Some(Some((s, d, _))) if (*s, *d) == (src, dst) => Some(id as usize),
            _ => None,
        }
    }

    /// The value of `key`, if held.
    #[inline]
    pub(crate) fn get(&self, key: &FlowKey) -> Option<&V> {
        match self.dense_index(key) {
            Some(i) => self.dense[i].as_ref().map(|(_, _, v)| v),
            None if self.spill.is_empty() => None,
            None => self.spill.get(key),
        }
    }

    /// The value of `key`, mutable, if held.
    #[inline]
    pub(crate) fn get_mut(&mut self, key: &FlowKey) -> Option<&mut V> {
        match self.dense_index(key) {
            Some(i) => self.dense[i].as_mut().map(|(_, _, v)| v),
            None if self.spill.is_empty() => None,
            None => self.spill.get_mut(key),
        }
    }

    /// Hold `value` under `key`, which must not be held yet.
    pub(crate) fn insert(&mut self, key: FlowKey, value: V) {
        let (src, dst, id) = key;
        self.len += 1;
        if id < DENSE_IDS {
            let i = id as usize;
            if i >= self.dense.len() {
                self.dense.resize_with(i + 1, || None);
            }
            if self.dense[i].is_none() {
                self.dense[i] = Some((src, dst, value));
                return;
            }
        }
        let previous = self.spill.insert(key, value);
        debug_assert!(previous.is_none(), "flow {key:?} inserted twice");
    }

    /// The value of `key`, inserting `make()` first if it is not held;
    /// and whether it was inserted.
    #[inline]
    pub(crate) fn get_or_insert_with(
        &mut self,
        key: FlowKey,
        make: impl FnOnce() -> V,
    ) -> (&mut V, bool) {
        if let Some(i) = self.dense_index(&key) {
            let (_, _, v) = self.dense[i].as_mut().expect("a dense hit is occupied");
            return (v, false);
        }
        let inserted = self.get(&key).is_none();
        if inserted {
            self.insert(key, make());
        }
        (
            self.get_mut(&key).expect("just found or inserted"),
            inserted,
        )
    }

    /// Drop `key`; returns its value if it was held.
    pub(crate) fn remove(&mut self, key: &FlowKey) -> Option<V> {
        let removed = match self.dense_index(key) {
            Some(i) => self.dense[i].take().map(|(_, _, v)| v),
            None => self.spill.remove(key),
        };
        self.len -= usize::from(removed.is_some());
        removed
    }

    /// Keep only the entries `keep` selects. Entries are visited in no
    /// particular order: dense ids first, then the hash map's order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&FlowKey, &mut V) -> bool) {
        let mut dropped = 0;
        for (id, entry) in self.dense.iter_mut().enumerate() {
            if let Some((src, dst, v)) = entry {
                if !keep(&(*src, *dst, id as u64), v) {
                    *entry = None;
                    dropped += 1;
                }
            }
        }
        self.spill.retain(|key, v| {
            let k = keep(key, v);
            dropped += usize::from(!k);
            k
        });
        self.len -= dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use stellar_sim::SimRng;

    /// Behaves as a map under random inserts, lookups, removals and
    /// retains, with ids that collide across `(src, dst)` pairs and ids
    /// out of dense range.
    #[test]
    fn matches_a_map_with_colliding_and_huge_ids() {
        let mut rng = SimRng::from_seed(3);
        let mut map: FlowMap<u64> = FlowMap::default();
        let mut model: BTreeMap<FlowKey, u64> = BTreeMap::new();
        let key = |rng: &mut SimRng| -> FlowKey {
            let id = if rng.chance(0.1) {
                DENSE_IDS + rng.below(3)
            } else {
                rng.below(8)
            };
            (rng.below(3) as u32, rng.below(3) as u32, id)
        };
        for step in 0..5_000u64 {
            let k = key(&mut rng);
            match rng.below(4) {
                0 => {
                    let (v, inserted) = map.get_or_insert_with(k, || step);
                    assert_eq!(inserted, !model.contains_key(&k));
                    assert_eq!(*v, *model.entry(k).or_insert(step));
                }
                1 => assert_eq!(map.remove(&k), model.remove(&k)),
                2 => {
                    if let Some(v) = map.get_mut(&k) {
                        *v += 1;
                    }
                    if let Some(v) = model.get_mut(&k) {
                        *v += 1;
                    }
                }
                _ => {
                    let cut = rng.below(5_000);
                    map.retain(|_, v| *v >= cut);
                    model.retain(|_, v| *v >= cut);
                }
            }
            assert_eq!(map.len(), model.len());
            for (k, v) in &model {
                assert_eq!(map.get(k), Some(v));
            }
        }
        assert!(map.spilled() > 0 || model.is_empty());
    }
}
