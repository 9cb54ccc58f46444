//! Measurement primitives used by every experiment harness.
//!
//! The paper's figures plot queue depths, bandwidths, latency distributions
//! and load-imbalance ratios. These types collect exactly those quantities:
//!
//! * [`Counter`] — monotonically increasing totals (bytes, packets, misses).
//! * [`Gauge`] — an instantaneous level with max/time-weighted-average
//!   tracking (switch queue depth in Fig. 9).
//! * [`Histogram`] — value distributions with percentile queries (latency).
//! * [`TimeSeries`] — `(time, value)` samples for plotted curves.
//! * [`imbalance`] — the Fig. 12 metric: `(max-min)/capacity` over port loads.


use crate::time::{SimDuration, SimTime};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Add `n` to the counter.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Increment by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// An instantaneous level (e.g. a queue depth) that tracks its maximum and
/// its time-weighted average.
///
/// The time-weighted average is what "average queue depth" means in Fig. 9:
/// the level integrated over time, divided by elapsed time — not the average
/// of samples taken at arrival instants.
#[derive(Debug, Clone)]
pub struct Gauge {
    level: u64,
    max: u64,
    /// Integral of level over time, in (unit × ns).
    area: u128,
    last_change: SimTime,
    created: SimTime,
}

impl Gauge {
    /// A gauge starting at zero at time `now`.
    pub fn new(now: SimTime) -> Self {
        Gauge {
            level: 0,
            max: 0,
            area: 0,
            last_change: now,
            created: now,
        }
    }

    fn integrate_to(&mut self, now: SimTime) {
        let dt = now.saturating_duration_since(self.last_change);
        self.area += self.level as u128 * dt.as_nanos() as u128;
        self.last_change = now;
    }

    /// Set the level at time `now`.
    pub fn set(&mut self, now: SimTime, level: u64) {
        self.integrate_to(now);
        self.level = level;
        self.max = self.max.max(level);
    }

    /// Add `n` to the level at time `now`.
    pub fn add(&mut self, now: SimTime, n: u64) {
        let lvl = self.level + n;
        self.set(now, lvl);
    }

    /// Subtract `n` from the level at time `now` (saturating at zero).
    pub fn sub(&mut self, now: SimTime, n: u64) {
        let lvl = self.level.saturating_sub(n);
        self.set(now, lvl);
    }

    /// Current level.
    pub fn level(&self) -> u64 {
        self.level
    }

    /// Maximum level ever observed.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Time-weighted average level from creation until `now`.
    pub fn time_avg(&self, now: SimTime) -> f64 {
        let mut g = self.clone();
        g.integrate_to(now);
        let elapsed = now.saturating_duration_since(self.created).as_nanos();
        if elapsed == 0 {
            return self.level as f64;
        }
        g.area as f64 / elapsed as f64
    }
}

/// A histogram of `u64` samples with exact percentile queries.
///
/// Samples are stored raw (sorted lazily); experiment sample counts here are
/// small enough (≤ millions) that exactness is affordable and avoids bucket
/// resolution artifacts in figure output.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// Record a duration sample in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().map(|&v| v as f64).sum::<f64>() / self.samples.len() as f64)
    }

    /// Minimum sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        self.samples.iter().copied().min()
    }

    /// Maximum sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`q` in `[0,1]`), nearest-rank; `None` if empty.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let rank = ((q * self.samples.len() as f64).ceil() as usize)
            .clamp(1, self.samples.len());
        Some(self.samples[rank - 1])
    }

    /// Median (p50).
    pub fn p50(&mut self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Absorb all of `other`'s samples (multiset union; order-insensitive
    /// for every statistic this type exposes). Used to fold per-job
    /// histograms back into an aggregate.
    pub fn merge(&mut self, other: &Histogram) {
        if other.samples.is_empty() {
            return;
        }
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// An immutable percentile snapshot: sorts a copy of the samples
    /// once, after which every query (including quantiles) is `&self`.
    /// Use this in read paths where `quantile(&mut self)`'s lazy internal
    /// sort would force a clone of the whole histogram.
    pub fn percentiles(&self) -> Percentiles {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let sum = sorted.iter().map(|&v| v as u128).sum();
        Percentiles { sorted, sum }
    }
}

/// An immutable, pre-sorted view of a [`Histogram`]'s samples.
///
/// Built once via [`Histogram::percentiles`]; all queries take `&self`,
/// so a snapshot can serve many readers (or sit in a report struct)
/// without mutation or re-sorting.
#[derive(Debug, Clone)]
pub struct Percentiles {
    sorted: Vec<u64>,
    sum: u128,
}

impl Percentiles {
    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Sum of all samples (u128: immune to overflow at any sample count).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sum as f64 / self.sorted.len() as f64)
    }

    /// Minimum sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        self.sorted.first().copied()
    }

    /// Maximum sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        self.sorted.last().copied()
    }

    /// The `q`-quantile (`q` in `[0,1]`), nearest-rank — same convention
    /// as [`Histogram::quantile`]; `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.sorted.is_empty() {
            return None;
        }
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[rank - 1])
    }

    /// Median (p50).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

/// A `(time, value)` sample series for plotted curves.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Append a sample. Samples must be appended in non-decreasing time
    /// order (the natural order in a DES).
    pub fn push(&mut self, t: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "time series samples out of order");
        }
        self.points.push((t, value));
    }

    /// The recorded samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Mean of the sample values (unweighted), or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
    }
}

/// The Fig. 12 load-imbalance metric: `(max(load) - min(load)) / capacity`,
/// as a fraction (multiply by 100 for the paper's percent axis).
///
/// # Panics
/// Panics if `loads` is empty or `capacity` is not positive.
pub fn imbalance(loads: &[f64], capacity: f64) -> f64 {
    assert!(!loads.is_empty(), "imbalance of no ports");
    assert!(capacity > 0.0, "capacity must be positive");
    let max = loads.iter().copied().fold(f64::MIN, f64::max);
    let min = loads.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / capacity
}

/// Arithmetic mean, or `None` for an empty slice — so "no samples" is
/// never conflated with a real mean of zero (a collapsed-phase busbw of
/// 0.0 and an unpopulated phase window must stay distinguishable).
pub fn mean(vals: &[f64]) -> Option<f64> {
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

/// Throughput in Gbps for `bytes` transferred over `elapsed`.
pub fn gbps(bytes: u64, elapsed: SimDuration) -> f64 {
    if elapsed.as_nanos() == 0 {
        return 0.0;
    }
    (bytes as f64 * 8.0) / elapsed.as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_tracks_max_and_time_avg() {
        let mut g = Gauge::new(t(0));
        g.set(t(0), 10); // level 10 during [0, 100)
        g.set(t(100), 0); // level 0 during [100, 200)
        assert_eq!(g.max(), 10);
        assert!((g.time_avg(t(200)) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn gauge_add_sub_saturates() {
        let mut g = Gauge::new(t(0));
        g.add(t(1), 3);
        g.sub(t(2), 5);
        assert_eq!(g.level(), 0);
        assert_eq!(g.max(), 3);
    }

    #[test]
    fn gauge_time_avg_with_no_elapsed_time() {
        let mut g = Gauge::new(t(5));
        g.set(t(5), 7);
        assert!((g.time_avg(t(5)) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.p50(), Some(50));
        assert_eq!(h.p99(), Some(99));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean().unwrap() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_empty() {
        let mut h = Histogram::new();
        assert_eq!(h.p50(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn percentiles_snapshot_matches_mutating_quantile() {
        let mut h = Histogram::new();
        for v in [9u64, 1, 7, 3, 5, 100, 2, 8, 6, 4] {
            h.record(v);
        }
        let p = h.percentiles(); // &self: h stays unsorted
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(p.quantile(q), h.quantile(q), "q={q}");
        }
        assert_eq!(p.count(), h.count());
        assert_eq!(p.min(), h.min());
        assert_eq!(p.max(), h.max());
        assert_eq!(p.sum(), 145);
        assert!((p.mean().unwrap() - h.mean().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn percentiles_empty() {
        let p = Histogram::new().percentiles();
        assert_eq!(p.count(), 0);
        assert_eq!(p.p50(), None);
        assert_eq!(p.mean(), None);
        assert_eq!(p.min(), None);
        assert_eq!(p.sum(), 0);
    }

    #[test]
    fn histogram_merge_is_multiset_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 3, 5] {
            a.record(v);
        }
        for v in [2u64, 4] {
            b.record(v);
        }
        a.merge(&b);
        a.merge(&Histogram::new()); // no-op
        let p = a.percentiles();
        assert_eq!(p.count(), 5);
        assert_eq!(p.min(), Some(1));
        assert_eq!(p.max(), Some(5));
        assert_eq!(p.sum(), 15);
    }

    #[test]
    fn histogram_interleaved_record_and_query() {
        let mut h = Histogram::new();
        h.record(10);
        assert_eq!(h.p50(), Some(10));
        h.record(2);
        assert_eq!(h.p50(), Some(2), "re-sorts after new sample");
    }

    #[test]
    fn time_series_mean() {
        let mut s = TimeSeries::new();
        s.push(t(0), 1.0);
        s.push(t(10), 3.0);
        s.push(t(20), 5.0);
        assert!((s.mean().unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn time_series_rejects_out_of_order() {
        let mut s = TimeSeries::new();
        s.push(t(10), 1.0);
        s.push(t(5), 2.0);
    }

    #[test]
    fn imbalance_metric() {
        assert!((imbalance(&[1.0, 1.0, 1.0], 2.0)).abs() < 1e-9);
        assert!((imbalance(&[0.0, 1.0], 2.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn gbps_conversion() {
        // 100 bytes in 8 ns = 100 Gbps.
        assert!((gbps(100, SimDuration::from_nanos(8)) - 100.0).abs() < 1e-9);
        assert_eq!(gbps(100, SimDuration::ZERO), 0.0);
    }

    #[test]
    fn mean_distinguishes_empty_from_zero() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[0.0]), Some(0.0));
        assert!((mean(&[1.0, 2.0, 3.0]).unwrap() - 2.0).abs() < 1e-12);
    }
}
