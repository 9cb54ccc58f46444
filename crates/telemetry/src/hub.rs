//! The metrics hub: named per-subsystem counters with deterministic
//! iteration order.

use std::collections::BTreeMap;

use crate::Subsystem;

/// Named counters keyed by `(subsystem, name)`. Counter names are
/// `&'static str` tags from the taxonomy in DESIGN.md §6 (e.g.
/// `drop.random_loss`, `atc.hit`, `scoreboard.blacklist`), folded in
/// from each layer's native counters by [`crate::fold_counters`].
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    counters: BTreeMap<(Subsystem, &'static str), u64>,
}

impl MetricsHub {
    /// Add `n` to `(sub, name)`. Adding zero creates no counter, so
    /// every counter the hub holds counted something.
    pub fn add(&mut self, sub: Subsystem, name: &'static str, n: u64) {
        if n > 0 {
            *self.counters.entry((sub, name)).or_insert(0) += n;
        }
    }

    /// Current value of `(sub, name)`; zero if never touched.
    pub fn get(&self, sub: Subsystem, name: &str) -> u64 {
        // The map is covariant in its key, so it can be read with a key
        // that borrows `name` for less than `'static`.
        let counters: &BTreeMap<(Subsystem, &str), u64> = &self.counters;
        counters.get(&(sub, name)).copied().unwrap_or(0)
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether no counter was ever touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Iterate `(subsystem, name, value)` in deterministic
    /// (subsystem, name) order.
    pub fn iter(&self) -> impl Iterator<Item = (Subsystem, &'static str, u64)> + '_ {
        self.counters.iter().map(|(&(s, n), &v)| (s, n, v))
    }

    /// Fold another hub in (counter-wise addition).
    pub fn merge(&mut self, other: &MetricsHub) {
        for (&key, &v) in &other.counters {
            *self.counters.entry(key).or_insert(0) += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_len() {
        let mut h = MetricsHub::default();
        h.add(Subsystem::Net, "drop.random_loss", 2);
        h.add(Subsystem::Net, "drop.random_loss", 3);
        h.add(Subsystem::Transport, "rto", 1);
        h.add(Subsystem::Transport, "rtt", 0);
        assert_eq!(h.get(Subsystem::Net, "drop.random_loss"), 5);
        assert_eq!(h.get(Subsystem::Net, "nope"), 0);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn merge_adds_counterwise() {
        let mut a = MetricsHub::default();
        a.add(Subsystem::Pcie, "atc.hit", 10);
        let mut b = MetricsHub::default();
        b.add(Subsystem::Pcie, "atc.hit", 5);
        b.add(Subsystem::Pcie, "atc.miss", 1);
        a.merge(&b);
        assert_eq!(a.get(Subsystem::Pcie, "atc.hit"), 15);
        assert_eq!(a.get(Subsystem::Pcie, "atc.miss"), 1);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut h = MetricsHub::default();
        h.add(Subsystem::Virt, "z", 1);
        h.add(Subsystem::Pcie, "a", 1);
        h.add(Subsystem::Pcie, "b", 1);
        let keys: Vec<(Subsystem, &str)> = h.iter().map(|(s, n, _)| (s, n)).collect();
        assert_eq!(
            keys,
            [
                (Subsystem::Pcie, "a"),
                (Subsystem::Pcie, "b"),
                (Subsystem::Virt, "z")
            ]
        );
    }
}
