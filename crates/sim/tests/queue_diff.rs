//! Differential property suite: the timing wheel vs the binary-heap
//! reference queue.
//!
//! Every test drives [`TimingWheelQueue`] and [`ReferenceQueue`] through
//! the *same* operation sequence and asserts the complete observable
//! surface matches at every step: pop order (time **and** payload), the
//! advancing clock (`now`), `len`/`is_empty`, `scheduled_total`,
//! `cancelled_total`, `peak_len`, and every `cancel` result. The
//! generator is biased toward the wheel's hard cases — equal-timestamp
//! bursts (FIFO tie-break), timestamps straddling tier boundaries (cascade
//! ordering), far-future outliers (overflow migration), interleaved
//! schedule/pop/clear (ready-run merges), and cancels of live, stale,
//! already-cancelled, cascaded, due (ready-run) and overflow events.

use stellar_sim::proptest_lite::{check, Gen};
use stellar_sim::{ReferenceQueue, SimDuration, SimTime, TimerHandle, TimingWheelQueue};

/// Drive both queues with one op and assert the observables agree.
struct Pair {
    wheel: TimingWheelQueue<u64>,
    heap: ReferenceQueue<u64>,
    /// Every handle pair ever issued, clears included, so cancels hit
    /// live, popped, cancelled and pre-clear events alike.
    handles: Vec<(TimerHandle, TimerHandle)>,
}

impl Pair {
    fn new() -> Self {
        Pair {
            wheel: TimingWheelQueue::new(),
            heap: ReferenceQueue::new(),
            handles: Vec::new(),
        }
    }

    fn schedule(&mut self, at: SimTime, ev: u64) {
        self.wheel.schedule(at, ev);
        self.heap.schedule(at, ev);
        self.assert_counters("schedule");
    }

    fn schedule_cancellable(&mut self, at: SimTime, ev: u64) {
        let w = self.wheel.schedule_cancellable(at, ev);
        let h = self.heap.schedule_cancellable(at, ev);
        self.handles.push((w, h));
        self.assert_counters("schedule_cancellable");
    }

    /// Cancel the `i`-th handle ever issued (modulo the count).
    fn cancel(&mut self, i: usize) {
        if self.handles.is_empty() {
            return;
        }
        let (w, h) = self.handles[i % self.handles.len()];
        assert_eq!(
            self.wheel.cancel(w),
            self.heap.cancel(h),
            "cancel result diverged (wheel vs reference)"
        );
        self.assert_counters("cancel");
    }

    /// Cancel the most recent handle (the likeliest to be live).
    fn cancel_latest(&mut self) {
        self.cancel(self.handles.len().wrapping_sub(1));
    }

    /// Advance the clock by up to `delta`, never past the next event.
    fn advance_clock(&mut self, delta: u64) {
        let mut t = self.heap.now() + SimDuration::from_nanos(delta);
        if let Some(next) = self.heap.peek_time() {
            t = t.min(next);
        }
        // The wheel peeks too (inside `advance_clock`), keeping both
        // queues' view of what is due in step.
        self.wheel.peek_time();
        self.wheel.advance_clock(t);
        self.heap.advance_clock(t);
        self.assert_counters("advance_clock");
    }

    fn pop(&mut self) {
        let w = self.wheel.pop();
        let h = self.heap.pop();
        assert_eq!(w, h, "pop diverged (wheel vs reference)");
        self.assert_counters("pop");
    }

    fn pop_batch(&mut self) {
        let mut w_out = Vec::new();
        let mut h_out = Vec::new();
        let w_t = self.wheel.pop_batch(&mut w_out);
        let h_t = self.heap.pop_batch(&mut h_out);
        assert_eq!(w_t, h_t, "pop_batch timestamp diverged");
        assert_eq!(w_out, h_out, "pop_batch contents diverged");
        self.assert_counters("pop_batch");
    }

    fn clear(&mut self) {
        self.wheel.clear();
        self.heap.clear();
        self.assert_counters("clear");
    }

    fn drain(&mut self) {
        while !self.heap.is_empty() {
            self.pop();
        }
        self.pop(); // one extra: both must report empty identically
    }

    fn assert_counters(&mut self, ctx: &str) {
        assert_eq!(self.wheel.now(), self.heap.now(), "{ctx}: now");
        assert_eq!(self.wheel.len(), self.heap.len(), "{ctx}: len");
        assert_eq!(
            self.wheel.is_empty(),
            self.heap.is_empty(),
            "{ctx}: is_empty"
        );
        assert_eq!(
            self.wheel.scheduled_total(),
            self.heap.scheduled_total(),
            "{ctx}: scheduled_total"
        );
        assert_eq!(
            self.wheel.cancelled_total(),
            self.heap.cancelled_total(),
            "{ctx}: cancelled_total"
        );
        assert_eq!(
            self.wheel.peak_len(),
            self.heap.peak_len(),
            "{ctx}: peak_len"
        );
        assert_eq!(
            self.wheel.peek_time(),
            self.heap.peek_time(),
            "{ctx}: peek_time"
        );
    }
}

/// A future timestamp biased toward the wheel's interesting regimes.
fn gen_at(g: &mut Gen, now: SimTime) -> SimTime {
    let delta = match g.u8(0, 9) {
        // Same-instant burst fodder: 0 or a tiny offset.
        0 | 1 => g.u64(0, 2),
        // Fine level (ns..µs).
        2..=4 => g.u64(1, 1 << 10),
        // Mid tiers (µs..ms), straddles level boundaries.
        5..=7 => g.u64(1 << 10, 1 << 21),
        // Coarse tier (~s).
        8 => g.u64(1 << 21, 1 << 31),
        // Far future: beyond the wheel horizon (overflow list).
        _ => g.u64(1 << 40, 1 << 44),
    };
    now + SimDuration::from_nanos(delta)
}

#[test]
fn interleaved_ops_match_reference() {
    check("interleaved_ops_match_reference", 128, |g| {
        let mut pair = Pair::new();
        let mut ev = 0u64;
        let steps = g.usize(1, 400);
        for _ in 0..steps {
            match g.u8(0, 12) {
                // Scheduling dominates so the queue actually grows.
                0..=2 => {
                    let at = gen_at(g, pair.heap.now());
                    pair.schedule(at, ev);
                    ev += 1;
                }
                3..=5 => {
                    let at = gen_at(g, pair.heap.now());
                    pair.schedule_cancellable(at, ev);
                    ev += 1;
                }
                6..=7 => pair.pop(),
                8 => pair.pop_batch(),
                9 => pair.cancel(g.usize(0, 1 << 16)),
                10 => pair.cancel_latest(),
                11 => pair.advance_clock(g.u64(0, 1 << 12)),
                _ => {
                    // Rare: clear, or a no-op pop on a drained queue.
                    if g.u8(0, 9) == 0 {
                        pair.clear();
                    } else {
                        pair.pop();
                    }
                }
            }
        }
        pair.drain();
    });
}

#[test]
fn equal_timestamp_bursts_stay_fifo() {
    check("equal_timestamp_bursts_stay_fifo", 128, |g| {
        let mut pair = Pair::new();
        let mut ev = 0u64;
        for _ in 0..g.usize(1, 30) {
            // A burst of events at one instant, scheduled across several
            // rounds with pops interleaved so the instant is hit both
            // from the wheel and from the ready run.
            let at = gen_at(g, pair.heap.now());
            for _ in 0..g.usize(1, 40) {
                pair.schedule(at, ev);
                ev += 1;
            }
            for _ in 0..g.usize(0, 10) {
                pair.pop();
            }
            if g.bool() {
                pair.pop_batch();
            }
        }
        pair.drain();
    });
}

#[test]
fn far_future_outliers_migrate_correctly() {
    check("far_future_outliers_migrate_correctly", 64, |g| {
        let mut pair = Pair::new();
        let mut ev = 0u64;
        // A few far-future outliers first (overflow list)...
        for _ in 0..g.usize(1, 5) {
            let at = SimTime::from_nanos(g.u64(1 << 40, 1 << 45));
            pair.schedule(at, ev);
            ev += 1;
        }
        // ...then a near-term working set that drains completely, forcing
        // the wheel to horizon-jump into the outliers' blocks.
        for _ in 0..g.usize(1, 100) {
            let at = gen_at(g, pair.heap.now());
            pair.schedule(at, ev);
            ev += 1;
            if g.u8(0, 2) == 0 {
                pair.pop();
            }
        }
        pair.drain();
    });
}

#[test]
fn schedule_at_now_lands_behind_cursor() {
    check("schedule_at_now_lands_behind_cursor", 128, |g| {
        let mut pair = Pair::new();
        let mut ev = 0u64;
        for _ in 0..g.usize(1, 60) {
            let at = gen_at(g, pair.heap.now());
            pair.schedule(at, ev);
            ev += 1;
            pair.pop();
            // Schedule *at the popped timestamp* — the wheel cursor has
            // already advanced past it, exercising the ready-run merge.
            let now = pair.heap.now();
            for _ in 0..g.usize(0, 3) {
                pair.schedule(now, ev);
                ev += 1;
            }
        }
        pair.drain();
    });
}

#[test]
fn clear_resets_to_a_fresh_queue() {
    check("clear_resets_to_a_fresh_queue", 64, |g| {
        let mut pair = Pair::new();
        let mut ev = 0u64;
        for _ in 0..g.usize(1, 80) {
            let at = gen_at(g, pair.heap.now());
            pair.schedule(at, ev);
            ev += 1;
        }
        pair.clear();
        // After clear, both must behave like freshly built queues —
        // including the restarted FIFO sequence numbering.
        assert_eq!(pair.wheel.now(), SimTime::ZERO);
        assert_eq!(pair.wheel.scheduled_total(), 0);
        assert_eq!(pair.wheel.peak_len(), 0);
        for _ in 0..g.usize(1, 80) {
            let at = gen_at(g, pair.heap.now());
            pair.schedule(at, ev);
            ev += 1;
            if g.bool() {
                pair.pop();
            }
        }
        pair.drain();
    });
}

#[test]
fn cancels_of_every_kind_match_reference() {
    check("cancels_of_every_kind_match_reference", 128, |g| {
        let mut pair = Pair::new();
        let mut ev = 0u64;
        for _ in 0..g.usize(1, 40) {
            match g.u8(0, 5) {
                // Live and double cancels: arm a timer, cancel it, and
                // sometimes cancel it again.
                0 => {
                    let at = gen_at(g, pair.heap.now());
                    pair.schedule_cancellable(at, ev);
                    ev += 1;
                    pair.cancel_latest();
                    if g.bool() {
                        pair.cancel_latest();
                    }
                }
                // After a cascade: coarse-level timers, then pops that
                // walk the cursor through their slots, then cancels.
                1 => {
                    let base = pair.heap.now();
                    for _ in 0..g.usize(1, 6) {
                        let at = base + SimDuration::from_nanos(g.u64(1 << 10, 1 << 22));
                        pair.schedule_cancellable(at, ev);
                        ev += 1;
                    }
                    for _ in 0..g.usize(0, 4) {
                        pair.pop();
                    }
                    for _ in 0..g.usize(1, 4) {
                        pair.cancel(g.usize(0, 1 << 16));
                    }
                }
                // Ready-run entries: a peek makes the next timestamp due,
                // and a timer armed at `now` lands in the ready run
                // directly. Neither can be cancelled any more.
                2 => {
                    let at = gen_at(g, pair.heap.now());
                    pair.schedule_cancellable(at, ev);
                    ev += 1;
                    pair.assert_counters("peek");
                    pair.cancel_latest();
                    let now = pair.heap.now();
                    pair.schedule_cancellable(now, ev);
                    ev += 1;
                    pair.cancel_latest();
                }
                // Overflow entries beyond the horizon block.
                3 => {
                    let at = pair.heap.now() + SimDuration::from_nanos(g.u64(1 << 40, 1 << 44));
                    pair.schedule_cancellable(at, ev);
                    ev += 1;
                    if g.bool() {
                        pair.cancel_latest();
                    }
                }
                // Stale handles: popped events and handles from before a
                // clear.
                4 => {
                    pair.pop();
                    if g.u8(0, 7) == 0 {
                        pair.clear();
                    }
                    pair.cancel(g.usize(0, 1 << 16));
                }
                _ => pair.advance_clock(g.u64(0, 1 << 20)),
            }
        }
        pair.drain();
    });
}
