//! Mutation drill: prove the differential harness actually catches wheel
//! bugs (`--features queue-drill`).
//!
//! Each test arms one sabotage mode from [`stellar_sim::queue_drill`] —
//! a realistic timing-wheel defect — runs a workload built to trigger
//! it, and asserts the wheel now *disagrees* with the reference heap. A
//! drill that stops failing means the differential suite has lost its
//! teeth; `scripts/ci.sh` runs this alongside the clean differential
//! suite.
//!
//! The five injected defects:
//!
//! * **WrongTier** — cascading a coarse slot truncates timestamps to the
//!   next-finer slot width, firing events early on tier boundaries.
//! * **DropOverflowMigration** — a horizon jump strands one eligible
//!   overflow entry when two or more should migrate.
//! * **BreakFifo** — level-0 slots drain in descending seq order,
//!   violating the equal-timestamp FIFO contract.
//! * **GhostCancel** — `cancel` reports success but leaves the node
//!   linked, so the cancelled event still fires.
//! * **StaleGeneration** — freeing a node does not bump its generation,
//!   so a stale handle cancels the node's next occupant.

use stellar_sim::queue_drill::{set, Mode};
use stellar_sim::{ReferenceQueue, SimDuration, SimTime, TimingWheelQueue};

/// One step of a cancel workload.
#[derive(Clone, Copy)]
enum Op {
    /// `schedule_cancellable` at this many ns.
    Arm(u64),
    Pop,
    /// Cancel the handle of the `i`-th `Arm`.
    Cancel(usize),
}

/// Run a cancel workload through both queues, comparing every pop and
/// cancel result and then the drained remainder; return the index of the
/// first step that diverged, if any.
fn first_cancel_divergence(ops: &[Op]) -> Option<usize> {
    let mut wheel = TimingWheelQueue::new();
    let mut heap = ReferenceQueue::new();
    let mut handles = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        let same = match op {
            Op::Arm(at) => {
                let at = SimTime::from_nanos(at);
                let ev = handles.len() as u64;
                handles.push((
                    wheel.schedule_cancellable(at, ev),
                    heap.schedule_cancellable(at, ev),
                ));
                true
            }
            Op::Pop => wheel.pop() == heap.pop(),
            Op::Cancel(k) => {
                let (w, h) = handles[k];
                wheel.cancel(w) == heap.cancel(h)
            }
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
    for ops in [ghost_workload(), stale_generation_workload()] {
        assert_eq!(
            first_cancel_divergence(&ops),
            None,
            "un-sabotaged wheel must match the reference on every cancel workload"
        );
    }
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

/// Timers cancelled before they fire, next to ones that do fire: a
/// ghost would pop an event the reference never delivers.
fn ghost_workload() -> Vec<Op> {
    vec![
        Op::Arm(1_000),
        Op::Arm(250_000),
        Op::Arm(2_000),
        Op::Cancel(1),
        Op::Pop,
        Op::Pop,
    ]
}

#[test]
fn ghost_cancel_is_caught() {
    let _guard = Disarm;
    set(Mode::GhostCancel);
    assert!(
        first_cancel_divergence(&ghost_workload()).is_some(),
        "a cancelled event that still fires must change the pop stream"
    );
}

/// A timer pops, its node is reused by the next timer, and the first
/// timer's (now stale) handle is cancelled: only a generation bump keeps
/// that cancel from removing the new timer.
fn stale_generation_workload() -> Vec<Op> {
    vec![Op::Arm(100), Op::Pop, Op::Arm(500), Op::Cancel(0), Op::Pop]
}

#[test]
fn reused_generation_is_caught() {
    let _guard = Disarm;
    set(Mode::StaleGeneration);
    assert!(
        first_cancel_divergence(&stale_generation_workload()).is_some(),
        "a stale handle reaching a reused node must change the cancel result"
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
