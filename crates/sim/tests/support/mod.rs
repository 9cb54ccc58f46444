//! The lane-heavy workload shared by the differential suite
//! (`queue_diff.rs`, which expects no divergence) and the mutation drill
//! (`queue_drill.rs`, which expects the `AppendLanes` sabotage to cause
//! one).
//!
//! Most schedules land at a few recurring delays of 1,024–4,656 ns after
//! `now`, as ACK turnarounds and constant-latency deliveries do, so the
//! wheel binds its fixed-delay lanes. The rest stress where lane and
//! wheel events meet: random delays, schedules at the exact timestamp of
//! an earlier lane event (same nanosecond, higher seq, wheel path),
//! reserved keys, `advance_clock`, `clear`, far outliers in the overflow
//! list, and cases that start just short of a 2^40 ns horizon block
//! boundary, so lane events and overflow entries meet across a horizon
//! jump.

use stellar_sim::proptest_lite::Gen;
use stellar_sim::{ReferenceQueue, SimDuration, SimTime, TimingWheelQueue};

/// Delays the recurring schedules draw from: the recorded ACK and
/// delivery delays, the lane bounds, and multiples of 1,024 ns, which
/// put lane events on level-1 slot starts where a cascade lands events
/// directly in the ready run.
const DELAYS: [u64; 8] = [1_024, 2_006, 2_048, 4_012, 4_096, 4_123, 4_656, 1_048_575];

/// Drive the wheel and the reference heap through one generated
/// lane-heavy case. Returns a description of the first step at which any
/// observable differs.
pub fn lane_heavy_run(g: &mut Gen) -> Result<(), String> {
    let mut wheel: TimingWheelQueue<u64> = TimingWheelQueue::new();
    let mut heap: ReferenceQueue<u64> = ReferenceQueue::new();
    // The case's recurring delays: three of `DELAYS`.
    let recurring: Vec<u64> = (0..3).map(|_| *g.pick(&DELAYS)).collect();
    // Timestamps of recent recurring schedules, for same-nanosecond
    // collisions.
    let mut recent: Vec<SimTime> = Vec::new();
    // Unused reserved numbers, and the `(at, seq)` of the last pop.
    let mut reserved: Vec<u64> = Vec::new();
    let mut seq_of: Vec<u64> = Vec::new();
    let mut next_seq = 0u64;
    let mut popped: Option<(SimTime, u64)> = None;
    if g.bool() {
        // Start just short of a horizon block boundary, so lane events
        // and overflow entries meet across it.
        let t = SimTime::from_nanos((g.u64(1, 4) << 40) - g.u64(1, 1 << 16));
        wheel.advance_clock(t);
        heap.advance_clock(t);
    }
    for step in 0..g.usize(1, 600) {
        let now = heap.now();
        let ev = seq_of.len() as u64;
        let mut schedule = |at: SimTime, seq: Option<u64>| {
            match seq {
                Some(s) => {
                    wheel.schedule_reserved(at, s, ev);
                    heap.schedule_reserved(at, s, ev);
                    seq_of.push(s);
                }
                None => {
                    wheel.schedule(at, ev);
                    heap.schedule(at, ev);
                    seq_of.push(next_seq);
                    next_seq += 1;
                }
            }
        };
        match g.u8(0, 20) {
            0..=6 => {
                let at = now + SimDuration::from_nanos(*g.pick(&recurring));
                schedule(at, None);
                recent.push(at);
                if recent.len() > 16 {
                    recent.remove(0);
                }
            }
            7 => {
                let at = now + SimDuration::from_nanos(g.u64(0, 1 << 21));
                schedule(at, None);
            }
            8 => {
                // Below the lanes: straight onto level 0.
                let at = now + SimDuration::from_nanos(g.u64(0, 1_024));
                schedule(at, None);
            }
            9 => {
                // The exact nanosecond of an earlier lane event.
                if let Some(&at) = recent.get(g.usize(0, 16)) {
                    if at >= now {
                        schedule(at, None);
                    }
                }
            }
            10 => {
                let (w, h) = (wheel.reserve_seq(), heap.reserve_seq());
                if w != h {
                    return Err(format!("step {step}: reserve_seq {w} vs {h}"));
                }
                reserved.push(h);
                next_seq += 1;
            }
            11 => {
                if !reserved.is_empty() {
                    let seq = reserved.remove(g.usize(0, reserved.len()));
                    let mut at = match recent.last() {
                        Some(&at) if at >= now && g.bool() => at,
                        _ => now + SimDuration::from_nanos(*g.pick(&recurring)),
                    };
                    if let Some((t, s)) = popped {
                        if (at, seq) <= (t, s) {
                            at = t + SimDuration::from_nanos(1);
                        }
                    }
                    schedule(at, Some(seq));
                }
            }
            12..=16 => {
                // One pop, or a burst that may empty the wheel levels
                // while lane events wait.
                let n = if g.u8(0, 4) == 0 { g.usize(2, 12) } else { 1 };
                for _ in 0..n {
                    let (w, h) = (wheel.pop(), heap.pop());
                    if w != h {
                        return Err(format!("step {step}: pop {w:?} vs reference {h:?}"));
                    }
                    if let Some((at, ev)) = h {
                        popped = Some((at, seq_of[ev as usize]));
                    }
                }
            }
            17 => {
                // Advance the clock, sometimes to a multiple of 1,024 ns
                // or to just short of the next horizon block.
                let mut t = match g.u8(0, 2) {
                    0 => now + SimDuration::from_nanos(g.u64(0, 5_000)),
                    1 => SimTime::from_nanos((now.as_nanos() / 1_024 + 1) * 1_024),
                    _ => {
                        let block = (now.as_nanos() >> 40) + 1;
                        SimTime::from_nanos((block << 40) - g.u64(1, 6_000))
                    }
                };
                if let Some(next) = heap.peek_time() {
                    t = t.min(next);
                }
                wheel.advance_clock(t);
                heap.advance_clock(t);
            }
            18 => {
                // Into the overflow list: just past the next horizon block
                // boundary when the clock is near it, else (rarely, as
                // lanes take nothing while overflow is pending) far out.
                let boundary = ((now.as_nanos() >> 40) + 1) << 40;
                if boundary - now.as_nanos() < 1 << 21 {
                    schedule(SimTime::from_nanos(boundary + g.u64(0, 8_192)), None);
                } else if g.u8(0, 4) == 0 {
                    schedule(now + SimDuration::from_nanos(g.u64(1 << 40, 1 << 42)), None);
                }
            }
            _ => {
                if g.u8(0, 4) == 0 {
                    wheel.clear();
                    heap.clear();
                    recent.clear();
                    reserved.clear();
                    next_seq = 0;
                    popped = None;
                }
            }
        }
        let same = (wheel.now(), wheel.len(), wheel.scheduled_total(), wheel.peak_len())
            == (heap.now(), heap.len(), heap.scheduled_total(), heap.peak_len());
        if !same {
            return Err(format!("step {step}: now, len or counters differ"));
        }
        // Peek on some steps only: a peek advances the wheel's cursor, and
        // schedules behind an advanced cursor take a different path.
        if g.u8(0, 4) == 0 && wheel.peek_time() != heap.peek_time() {
            return Err(format!("step {step}: peek_time differs"));
        }
    }
    loop {
        let (w, h) = (wheel.pop(), heap.pop());
        if w != h {
            return Err(format!("drain: pop {w:?} vs reference {h:?}"));
        }
        if h.is_none() {
            return Ok(());
        }
    }
}
