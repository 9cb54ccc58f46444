//! Mutation drill: prove the differential harness actually catches wheel
//! bugs (`--features queue-drill`).
//!
//! Each test arms one sabotage mode from [`stellar_sim::queue_drill`] —
//! a realistic timing-wheel defect — runs a workload built to trigger
//! it, and asserts the wheel now *disagrees* with the reference heap. A
//! drill that stops failing means the differential suite has lost its
//! teeth. `scripts/ci.sh` runs this drill with the feature on; the clean
//! differential suite (`tests/queue_diff.rs`) needs no feature and runs
//! with the workspace tests.
//!
//! The four injected defects:
//!
//! * **WrongTier** — cascading a coarse slot truncates timestamps to the
//!   next-finer slot width, firing events early on tier boundaries.
//! * **DropOverflowMigration** — a horizon jump strands one eligible
//!   overflow entry when two or more should migrate.
//! * **BreakFifo** — level-0 slots drain in descending seq order,
//!   violating the equal-timestamp FIFO contract.
//! * **IgnoreReservedSeq** — `schedule_reserved` takes a fresh number
//!   instead of the reserved one, so the event pops behind everything
//!   scheduled since its reservation.

use stellar_sim::queue_drill::{set, Mode};
use stellar_sim::{ReferenceQueue, SimDuration, SimTime, TimingWheelQueue};

/// One step of a reserved-key workload.
#[derive(Clone, Copy)]
enum Op {
    /// `reserve_seq`.
    Reserve,
    /// `schedule` at this many ns.
    Schedule(u64),
    /// `schedule_reserved` at this many ns under the `i`-th reservation.
    Reserved(u64, usize),
    Pop,
}

/// Run a reserved-key workload through both queues, comparing every pop
/// and then the drained remainder; return the index of the first step
/// that diverged, if any.
fn first_reserved_divergence(ops: &[Op]) -> Option<usize> {
    let mut wheel = TimingWheelQueue::new();
    let mut heap = ReferenceQueue::new();
    let mut reserved = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        let same = match op {
            Op::Reserve => {
                let (w, h) = (wheel.reserve_seq(), heap.reserve_seq());
                reserved.push(h);
                w == h
            }
            Op::Schedule(at) => {
                wheel.schedule(SimTime::from_nanos(at), i as u64);
                heap.schedule(SimTime::from_nanos(at), i as u64);
                true
            }
            Op::Reserved(at, k) => {
                wheel.schedule_reserved(SimTime::from_nanos(at), reserved[k], i as u64);
                heap.schedule_reserved(SimTime::from_nanos(at), reserved[k], i as u64);
                true
            }
            Op::Pop => wheel.pop() == heap.pop(),
        };
        if !same {
            return Some(i);
        }
    }
    let mut i = ops.len();
    loop {
        let w = wheel.pop();
        let h = heap.pop();
        if w != h {
            return Some(i);
        }
        h?;
        i += 1;
    }
}

/// Run `ops` through both queues; return the first divergence, if any.
/// Mirrors the comparison loop of `tests/queue_diff.rs`, but *expects*
/// to find a mismatch.
fn first_divergence(ops: &[(u64, u64)]) -> Option<usize> {
    let mut wheel = TimingWheelQueue::new();
    let mut heap = ReferenceQueue::new();
    for &(at, ev) in ops {
        wheel.schedule(SimTime::from_nanos(at), ev);
        heap.schedule(SimTime::from_nanos(at), ev);
    }
    let mut i = 0;
    loop {
        let w = wheel.pop();
        let h = heap.pop();
        if w != h {
            return Some(i);
        }
        h?;
        i += 1;
    }
}

/// Restore the clean wheel on scope exit, even if the assert panics —
/// tests in one binary share threads, so a armed drill must not leak.
struct Disarm;

impl Drop for Disarm {
    fn drop(&mut self) {
        set(Mode::None);
    }
}

#[test]
fn clean_wheel_matches_on_drill_workloads() {
    let _guard = Disarm;
    set(Mode::None);
    for ops in [wrong_tier_workload(), overflow_workload(), fifo_workload()] {
        assert_eq!(
            first_divergence(&ops),
            None,
            "un-sabotaged wheel must match the reference on every drill workload"
        );
    }
    assert_eq!(
        first_reserved_divergence(&reserved_workload()),
        None,
        "un-sabotaged wheel must match the reference on the reserved-key workload"
    );
}

/// Timestamps spread across coarse tiers, with sub-tier offsets that the
/// WrongTier truncation will erase.
fn wrong_tier_workload() -> Vec<(u64, u64)> {
    let mut ops = Vec::new();
    let mut ev = 0;
    for base in [1u64 << 12, 1 << 22, 1 << 30, 3 << 30] {
        for off in [3u64, 57, 1_031, 65_537] {
            ops.push((base + off, ev));
            ev += 1;
        }
    }
    ops
}

#[test]
fn wrong_tier_cascade_is_caught() {
    let _guard = Disarm;
    set(Mode::WrongTier);
    assert!(
        first_divergence(&wrong_tier_workload()).is_some(),
        "truncating timestamps during cascade must change the pop stream"
    );
}

/// Two far-future events in the same horizon block, so a sabotaged jump
/// can strand one, plus a near event to give the wheel a starting point.
fn overflow_workload() -> Vec<(u64, u64)> {
    let block = 1u64 << 40; // one horizon block out
    vec![(5, 0), (block + 100, 1), (block + 200, 2), (block + 300, 3)]
}

#[test]
fn dropped_overflow_migration_is_caught() {
    let _guard = Disarm;
    set(Mode::DropOverflowMigration);
    assert!(
        first_divergence(&overflow_workload()).is_some(),
        "stranding an overflow entry at a horizon jump must change the pop stream"
    );
}

/// Several distinguishable events at the same instant: only FIFO
/// tie-breaking orders them.
fn fifo_workload() -> Vec<(u64, u64)> {
    let mut ops = Vec::new();
    let mut ev = 0;
    for t in [100u64, 5_000, 70_000] {
        for _ in 0..4 {
            ops.push((t, ev));
            ev += 1;
        }
    }
    ops
}

#[test]
fn broken_fifo_is_caught() {
    let _guard = Disarm;
    set(Mode::BreakFifo);
    assert!(
        first_divergence(&fifo_workload()).is_some(),
        "draining equal timestamps in LIFO order must change the pop stream"
    );
}

/// The RTO re-arm pattern: two numbers reserved around an event at one
/// instant; the first key is queued late and the second only once the
/// first pops, at the current nanosecond. Only the reserved numbers put
/// them ahead of the events scheduled after them.
fn reserved_workload() -> Vec<Op> {
    vec![
        Op::Reserve,
        Op::Schedule(100),
        Op::Reserve,
        Op::Schedule(100),
        Op::Reserved(100, 0),
        Op::Pop,
        Op::Reserved(100, 1),
        Op::Pop,
        Op::Pop,
    ]
}

#[test]
fn ignored_reserved_seq_is_caught() {
    let _guard = Disarm;
    set(Mode::IgnoreReservedSeq);
    assert!(
        first_reserved_divergence(&reserved_workload()).is_some(),
        "a reserved key queued under a fresh number must change the pop stream"
    );
}

/// The sabotage must also surface through the *simulation-facing*
/// observables, not just raw pop order: drive a miniature event loop and
/// check the popped timeline diverges (this is what the golden-corpus
/// gate sees as different bytes).
#[test]
fn drill_changes_a_simulated_timeline() {
    let _guard = Disarm;
    set(Mode::WrongTier);
    let mut wheel = TimingWheelQueue::new();
    let mut heap = ReferenceQueue::new();
    // Self-rescheduling workload: each popped event schedules the next
    // one at a tier-straddling offset, like a pacing loop.
    wheel.schedule(SimTime::from_nanos(1_031), 0u64);
    heap.schedule(SimTime::from_nanos(1_031), 0u64);
    let mut wheel_trace = Vec::new();
    let mut heap_trace = Vec::new();
    for _ in 0..64 {
        let (wt, we) = wheel.pop().unwrap();
        wheel_trace.push(wt.as_nanos());
        wheel.schedule(wt + SimDuration::from_nanos(66_000 + we), we + 1);
        let (ht, he) = heap.pop().unwrap();
        heap_trace.push(ht.as_nanos());
        heap.schedule(ht + SimDuration::from_nanos(66_000 + he), he + 1);
    }
    assert_ne!(
        wheel_trace, heap_trace,
        "a wrong-tier wheel must produce a visibly different timeline"
    );
}
