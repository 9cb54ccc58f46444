//! The binary-heap reference event queue.
//!
//! Events are ordered by timestamp; events with equal timestamps pop in the
//! order they were scheduled (FIFO tie-break via a monotonically increasing
//! sequence number). This tie-break is what makes runs deterministic: a
//! plain `BinaryHeap` over `(time, payload)` would pop equal-time events in
//! an order that depends on heap internals.
//!
//! This implementation is the **reference model**: `O(log n)` per
//! operation, small enough to audit by eye. The production scheduler is
//! the hierarchical timing wheel in [`crate::wheel`]; the differential
//! suite (`tests/queue_diff.rs`) and the golden corpus hold the wheel to
//! this queue's exact observable behaviour. Build with
//! `--features reference-queue` to alias `EventQueue` back to this type
//! for A/B perf runs.
//!
//! A caller may [`reserve_seq`](ReferenceQueue::reserve_seq) a tie-break
//! number now and [`schedule_reserved`](ReferenceQueue::schedule_reserved)
//! an event under it later: the event then pops at the `(time, seq)` rank
//! it would have had if it had been scheduled when the number was
//! reserved.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A deterministic timestamped event queue (binary-heap reference model).
///
/// The payload type `E` is defined by each simulator (fabric, RNIC, ...);
/// the queue imposes no trait bounds beyond what the heap needs internally.
#[derive(Debug)]
pub struct ReferenceQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    /// `(at, seq)` of the last popped event: no reserved key may precede it.
    popped: Option<(SimTime, u64)>,
    now: SimTime,
    scheduled_total: u64,
    peak_len: usize,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

// Ordering is by (time, seq) only; the event payload never participates,
// so `E` needs no `Ord` bound.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> ReferenceQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue pre-sized for `capacity` pending events. Hot
    /// construction paths (one simulator per experiment × seed) use this
    /// to skip the heap's incremental regrowth.
    pub fn with_capacity(capacity: usize) -> Self {
        ReferenceQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            popped: None,
            now: SimTime::ZERO,
            scheduled_total: 0,
            peak_len: 0,
        }
    }

    /// Drop all pending events and reset every observable to its initial
    /// state: [`now`](Self::now) returns [`SimTime::ZERO`],
    /// [`scheduled_total`](Self::scheduled_total) and
    /// [`peak_len`](Self::peak_len) return 0, and the FIFO tie-break
    /// sequence restarts (so a cleared queue schedules and pops exactly
    /// like a fresh one). Only the heap's allocation is kept, so repeated
    /// seed runs reuse it instead of rebuilding the heap from scratch —
    /// this is what makes `TransportSim::reset` observably identical to
    /// constructing a new sim.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.popped = None;
        self.now = SimTime::ZERO;
        self.scheduled_total = 0;
        self.peak_len = 0;
    }

    /// Events the queue can hold without reallocating (reuse tests).
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (or zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling behind the clock would
    /// silently corrupt causality, so it is treated as a logic bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.reserve_seq();
        self.push(at, seq, event);
    }

    /// Take the next FIFO tie-break number without scheduling anything.
    /// Pass it to [`schedule_reserved`](Self::schedule_reserved) later.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at `at` under a number from
    /// [`reserve_seq`](Self::reserve_seq): it pops at the `(at, seq)` rank
    /// it would have had if scheduled when `seq` was reserved. Counts in
    /// [`scheduled_total`](Self::scheduled_total) like any schedule.
    ///
    /// # Panics
    /// Panics if `at` is in the past, if `seq` was never reserved, or if
    /// `(at, seq)` orders before the last popped event.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) {
        assert!(seq < self.next_seq, "seq {seq} was never reserved");
        if let Some((t, s)) = self.popped {
            assert!(
                (at, seq) > (t, s),
                "reserved key ({at}, {seq}) is before the last popped ({t}, {s})"
            );
        }
        self.push(at, seq, event);
    }

    /// Move the clock forward to `t` without popping anything; a `t` at
    /// or before [`now`](Self::now) is a no-op.
    ///
    /// # Panics
    /// Panics if a pending event is due before `t`.
    pub fn advance_clock(&mut self, t: SimTime) {
        if t <= self.now {
            return;
        }
        if let Some(next) = self.peek_time() {
            assert!(
                next >= t,
                "advancing the clock to {t} would skip an event at {next}"
            );
        }
        self.now = t;
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.at;
        self.popped = Some((entry.at, entry.seq));
        Some((entry.at, entry.event))
    }

    fn push(&mut self, at: SimTime, seq: u64, event: E) {
        assert!(
            at >= self.now,
            "scheduled event at {at} is before current time {}",
            self.now
        );
        self.scheduled_total += 1;
        crate::par::record_scheduled_event();
        self.heap.push(Reverse(Entry { at, seq, event }));
        if self.len() > self.peak_len {
            self.peak_len = self.len();
            crate::par::note_queue_depth(self.peak_len as u64);
        }
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (a cheap progress/size metric
    /// for run reports and runaway detection in tests).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// The deepest pending-event backlog this queue has reached since
    /// construction (or the last [`ReferenceQueue::clear`]) — the memory
    /// high-water mark of the run.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

impl<E> Default for ReferenceQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = ReferenceQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = ReferenceQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = ReferenceQueue::new();
        q.schedule(t(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(t(7)));
        q.pop();
        assert_eq!(q.now(), t(7));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = ReferenceQueue::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(5), ());
    }

    #[test]
    fn len_and_counters() {
        let mut q: ReferenceQueue<()> = ReferenceQueue::new();
        assert!(q.is_empty());
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn with_capacity_presizes() {
        let q: ReferenceQueue<()> = ReferenceQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn clear_resets_state_but_keeps_allocation() {
        let mut q = ReferenceQueue::with_capacity(128);
        for i in 0..100 {
            q.schedule(t(i + 1), i);
        }
        q.pop();
        assert!(q.now() > SimTime::ZERO);
        let cap = q.capacity();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.scheduled_total(), 0);
        assert_eq!(q.capacity(), cap, "clear must keep the allocation");
        // The FIFO sequence restarted: a fresh run is indistinguishable
        // from one on a newly-built queue.
        q.schedule(t(5), 1u64);
        q.schedule(t(5), 2u64);
        assert_eq!(q.pop(), Some((t(5), 1)));
        assert_eq!(q.pop(), Some((t(5), 2)));
    }

    #[test]
    fn peak_len_tracks_high_water() {
        let mut q = ReferenceQueue::new();
        for i in 0..10 {
            q.schedule(t(i + 1), ());
        }
        for _ in 0..10 {
            q.pop();
        }
        q.schedule(t(100), ());
        assert_eq!(q.peak_len(), 10, "peak survives draining");
        q.clear();
        assert_eq!(q.peak_len(), 0, "clear resets the mark");
    }

    #[test]
    fn rescheduling_at_current_time_is_allowed() {
        // An event may schedule follow-up work "now" (zero-latency hop).
        let mut q = ReferenceQueue::new();
        q.schedule(t(3), 1u8);
        q.pop();
        q.schedule(t(3), 2u8);
        assert_eq!(q.pop(), Some((t(3), 2)));
    }
}
