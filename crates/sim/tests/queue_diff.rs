//! Differential property suite: the timing wheel vs the binary-heap
//! reference queue.
//!
//! Every test drives [`TimingWheelQueue`] and [`ReferenceQueue`] through
//! the *same* operation sequence and asserts the complete observable
//! surface matches at every step: pop order (time **and** payload), the
//! advancing clock (`now`), `len`/`is_empty`, `scheduled_total`,
//! `peak_len`, and every reserved number. The generator is biased toward
//! the wheel's hard cases — equal-timestamp bursts (FIFO tie-break),
//! timestamps straddling tier boundaries (cascade ordering), far-future
//! outliers (overflow migration), interleaved schedule/pop/clear
//! (ready-run merges), and events queued under numbers reserved earlier,
//! at the current nanosecond included (ready-run merges by `(at, seq)`).
//! A lane-heavy generator (`support/mod.rs`) repeats a few exact delays,
//! so the wheel's fixed-delay lanes bind and meet wheel events at the
//! same nanosecond.

use std::collections::HashMap;

mod support;

use stellar_sim::proptest_lite::{check, Gen};
use stellar_sim::{ReferenceQueue, SimDuration, SimTime, TimingWheelQueue};

/// Drive both queues with one op and assert the observables agree.
struct Pair {
    wheel: TimingWheelQueue<u64>,
    heap: ReferenceQueue<u64>,
    /// The tie-break number each payload was queued under.
    seq_of: HashMap<u64, u64>,
    /// The next number either queue will hand out.
    next_seq: u64,
    /// Reserved numbers not yet used, oldest first.
    reserved: Vec<u64>,
    /// `(at, seq)` of the last popped event.
    popped: Option<(SimTime, u64)>,
}

impl Pair {
    fn new() -> Self {
        Pair {
            wheel: TimingWheelQueue::new(),
            heap: ReferenceQueue::new(),
            seq_of: HashMap::new(),
            next_seq: 0,
            reserved: Vec::new(),
            popped: None,
        }
    }

    fn schedule(&mut self, at: SimTime, ev: u64) {
        self.wheel.schedule(at, ev);
        self.heap.schedule(at, ev);
        self.seq_of.insert(ev, self.next_seq);
        self.next_seq += 1;
        self.assert_counters("schedule");
    }

    fn reserve(&mut self) {
        let w = self.wheel.reserve_seq();
        let h = self.heap.reserve_seq();
        assert_eq!(
            (w, h),
            (self.next_seq, self.next_seq),
            "reserve_seq diverged"
        );
        self.reserved.push(w);
        self.next_seq += 1;
        self.assert_counters("reserve_seq");
    }

    /// Queue `ev` under the `i`-th unused reserved number (modulo the
    /// count) at `at`, or just after the last pop if that key would
    /// precede it.
    fn schedule_reserved(&mut self, i: usize, at: SimTime, ev: u64) {
        if self.reserved.is_empty() {
            return;
        }
        let seq = self.reserved.remove(i % self.reserved.len());
        let at = match self.popped {
            Some((t, s)) if (at, seq) <= (t, s) => t + SimDuration::from_nanos(1),
            _ => at,
        };
        self.wheel.schedule_reserved(at, seq, ev);
        self.heap.schedule_reserved(at, seq, ev);
        self.seq_of.insert(ev, seq);
        self.assert_counters("schedule_reserved");
    }

    /// Advance the clock by up to `delta`, never past the next event.
    fn advance_clock(&mut self, delta: u64) {
        let mut t = self.heap.now() + SimDuration::from_nanos(delta);
        if let Some(next) = self.heap.peek_time() {
            t = t.min(next);
        }
        self.wheel.advance_clock(t);
        self.heap.advance_clock(t);
        self.assert_counters("advance_clock");
    }

    /// Pop both queues; returns the popped payload.
    fn pop(&mut self) -> Option<u64> {
        let w = self.wheel.pop();
        let h = self.heap.pop();
        assert_eq!(w, h, "pop diverged (wheel vs reference)");
        self.assert_counters("pop");
        let (at, ev) = h?;
        self.popped = Some((at, self.seq_of[&ev]));
        Some(ev)
    }

    fn clear(&mut self) {
        self.wheel.clear();
        self.heap.clear();
        self.next_seq = 0;
        self.reserved.clear();
        self.popped = None;
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
                0..=3 => {
                    let at = gen_at(g, pair.heap.now());
                    pair.schedule(at, ev);
                    ev += 1;
                }
                4 => pair.reserve(),
                5 | 6 => {
                    let at = gen_at(g, pair.heap.now());
                    pair.schedule_reserved(g.usize(0, 1 << 16), at, ev);
                    ev += 1;
                }
                7..=9 => {
                    pair.pop();
                }
                10 => pair.advance_clock(g.u64(0, 1 << 12)),
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
fn reserved_keys_rearm_at_the_current_nanosecond() {
    // The transport's RTO pattern: numbers reserved between events that
    // share an instant, the first queued up front, and each next one
    // queued at the current nanosecond when its predecessor pops —
    // between the same-instant events around its key.
    check("reserved_keys_rearm_at_the_current_nanosecond", 128, |g| {
        let mut pair = Pair::new();
        let mut ev = 0u64;
        for _ in 0..g.usize(1, 20) {
            let at = gen_at(g, pair.heap.now());
            let mut keys = Vec::new();
            for _ in 0..g.usize(1, 30) {
                if g.bool() {
                    pair.reserve();
                    keys.push(pair.next_seq - 1);
                } else {
                    pair.schedule(at, ev);
                    ev += 1;
                }
            }
            // Unrelated traffic queued later at the same instant.
            for _ in 0..g.usize(0, 4) {
                pair.schedule(at, ev);
                ev += 1;
            }
            let mut rearm = |pair: &mut Pair, ev: &mut u64| {
                if let Some(&seq) = keys.first() {
                    keys.remove(0);
                    let i = pair.reserved.iter().position(|&s| s == seq).unwrap();
                    pair.schedule_reserved(i, at, *ev);
                    *ev += 1;
                    return true;
                }
                false
            };
            let mut timer = if rearm(&mut pair, &mut ev) {
                Some(ev - 1)
            } else {
                None
            };
            while pair.heap.peek_time() == Some(at) {
                let popped = pair.pop();
                if popped.is_some() && popped == timer {
                    timer = if rearm(&mut pair, &mut ev) {
                        Some(ev - 1)
                    } else {
                        None
                    };
                }
            }
            for _ in 0..g.usize(0, 3) {
                pair.pop();
            }
        }
        pair.drain();
    });
}

#[test]
fn lane_heavy_ops_match_reference() {
    check("lane_heavy_ops_match_reference", 128, |g| {
        if let Err(e) = support::lane_heavy_run(g) {
            panic!("wheel diverged from the reference: {e}");
        }
    });
}

#[test]
#[should_panic(expected = "before the last popped")]
fn wheel_rejects_a_reserved_key_before_the_last_pop() {
    let mut q = TimingWheelQueue::new();
    let early = q.reserve_seq();
    q.schedule(SimTime::from_nanos(10), 1u64);
    q.pop();
    q.schedule_reserved(SimTime::from_nanos(10), early, 0);
}

#[test]
#[should_panic(expected = "before the last popped")]
fn reference_rejects_a_reserved_key_before_the_last_pop() {
    let mut q = ReferenceQueue::new();
    let early = q.reserve_seq();
    q.schedule(SimTime::from_nanos(10), 1u64);
    q.pop();
    q.schedule_reserved(SimTime::from_nanos(10), early, 0);
}
