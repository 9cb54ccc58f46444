//! A capacity-bounded LRU cache with hit/miss accounting.
//!
//! Three hardware caches in this reproduction share this behaviour: the
//! IOMMU's IOTLB, the device-side PCIe ATC, and PVDMA's map cache. Their
//! *capacity-versus-working-set* interaction is what produces the Fig. 8
//! bandwidth cliff, so eviction must be genuine LRU, not approximate.
//!
//! Implementation: a slab of entries forming an intrusive doubly-linked
//! list (most-recent at head) plus a `HashMap` index. All operations are
//! O(1) amortized. Slots hold `Option`s so vacated entries move out safely.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    entry: Option<(K, V)>,
    prev: usize,
    next: usize,
}

/// An LRU cache holding at most `capacity` entries.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    slab: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache with room for `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache {
            capacity,
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Look up `key`, marking it most-recently-used on a hit. Records a hit
    /// or a miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.detach(idx);
                self.attach_front(idx);
                self.slab[idx].entry.as_ref().map(|(_, v)| v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Look up without disturbing recency or accounting (for assertions and
    /// introspection).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map
            .get(key)
            .and_then(|&idx| self.slab[idx].entry.as_ref())
            .map(|(_, v)| v)
    }

    /// Insert or update `key`; returns the evicted `(key, value)` if the
    /// cache was full.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].entry = Some((key, value));
            self.detach(idx);
            self.attach_front(idx);
            return None;
        }
        let evicted = if self.map.len() == self.capacity {
            let victim = self.tail;
            self.detach(victim);
            let entry = self.slab[victim]
                .entry
                .take()
                .expect("resident LRU node has an entry");
            self.map.remove(&entry.0);
            self.free.push(victim);
            self.evictions += 1;
            Some(entry)
        } else {
            None
        };

        let node = Node {
            entry: Some((key.clone(), value)),
            prev: NIL,
            next: NIL,
        };
        let idx = if let Some(idx) = self.free.pop() {
            self.slab[idx] = node;
            idx
        } else {
            self.slab.push(node);
            self.slab.len() - 1
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        evicted
    }

    /// Remove `key` if present, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.free.push(idx);
        self.slab[idx].entry.take().map(|(_, v)| v)
    }

    /// Drop every entry (hardware "invalidate all"), keeping statistics.
    pub fn invalidate_all(&mut self) {
        for idx in self.map.values().copied().collect::<Vec<_>>() {
            self.slab[idx].entry = None;
            self.free.push(idx);
        }
        self.map.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(hits, misses, evictions)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.get(&1); // 2 is now LRU
        let evicted = c.insert(3, 30);
        assert_eq!(evicted, Some((2, 20)));
        assert!(c.peek(&1).is_some());
        assert!(c.peek(&2).is_none());
        assert!(c.peek(&3).is_some());
    }

    #[test]
    fn update_refreshes_recency_without_eviction() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), None); // update, not insert
        assert_eq!(c.insert(3, 30), Some((2, 20)));
        assert_eq!(c.peek(&1), Some(&11));
    }

    #[test]
    fn remove_frees_slot_for_reuse() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.remove(&1), Some(10));
        assert_eq!(c.remove(&1), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.insert(3, 30), None); // no eviction needed
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn invalidate_all_clears_but_keeps_stats() {
        let mut c = LruCache::new(4);
        c.insert(1, 1);
        c.insert(2, 2);
        c.get(&1);
        c.invalidate_all();
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
        assert_eq!(c.stats().0, 1);
        // Reusable after invalidation.
        c.insert(5, 5);
        assert_eq!(c.get(&5), Some(&5));
    }

    #[test]
    fn churn_many_entries() {
        let mut c = LruCache::new(64);
        for i in 0..10_000u64 {
            c.insert(i, i * 2);
            assert!(c.len() <= 64);
        }
        // The last 64 keys are resident.
        for i in 9_936..10_000 {
            assert_eq!(c.peek(&i), Some(&(i * 2)));
        }
        assert_eq!(c.stats().2, 10_000 - 64);
    }

    #[test]
    fn single_entry_cache() {
        let mut c = LruCache::new(1);
        assert_eq!(c.insert(1, 'a'), None);
        assert_eq!(c.insert(2, 'b'), Some((1, 'a')));
        assert_eq!(c.get(&2), Some(&'b'));
        assert_eq!(c.remove(&2), Some('b'));
        assert!(c.is_empty());
        assert_eq!(c.insert(3, 'c'), None);
        assert_eq!(c.peek(&3), Some(&'c'));
    }

    #[test]
    fn heap_values_survive_churn() {
        let mut c: LruCache<u32, String> = LruCache::new(2);
        c.insert(1, "one".to_string());
        c.insert(2, "two".to_string());
        assert_eq!(c.remove(&1), Some("one".to_string()));
        c.insert(3, "three".to_string());
        c.insert(4, "four".to_string()); // evicts 2
        c.invalidate_all();
        c.insert(5, "five".to_string());
        assert_eq!(c.peek(&5).map(String::as_str), Some("five"));
    }
}
