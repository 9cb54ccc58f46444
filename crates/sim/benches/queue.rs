//! Event-queue microbenchmarks: timing wheel vs the binary-heap
//! reference, across queue depths and timestamp distributions.
//!
//! Each bench runs a steady-state schedule/pop churn at a fixed depth:
//! the queue is pre-filled with `depth` events, then each iteration pops
//! one event and schedules a replacement, so the depth (and therefore
//! the heap's `log n`) stays constant while the wheel sees a moving
//! cursor. Three timestamp distributions cover the simulator's real
//! workloads:
//!
//! * `uniform`  — replacement delays uniform in [1 µs, 1 ms): the mixed
//!   Deliver/Ack/Rto horizon of a transport run.
//! * `bimodal`  — 90% short (≈2 µs ACK turnaround), 10% long (≈10 ms
//!   RTO): two wheel tiers exercised on every iteration.
//! * `equal`    — every event at the *same* next nanosecond: a
//!   same-timestamp burst drained from the ready run; stresses FIFO
//!   tie-breaking, the heap's worst comparison case.
//! * `fixed`    — two thirds of replacements at three recurring delays
//!   (4,012 and 4,123 ns, like ACK turnarounds and constant-latency
//!   deliveries, and a 218 ns pacing gap), one third uniform as in
//!   `uniform`: the wheel's fixed-delay lanes bind to the two delays
//!   above 1,024 ns.
//!
//! Run with `cargo bench -p stellar-sim --bench queue`; filter by
//! substring (e.g. `cargo bench -p stellar-sim --bench queue wheel`).
//! `STELLAR_BENCH_ITERS` overrides the per-bench iteration count.
//! EXPERIMENTS.md records reference numbers from the CI container.

use stellar_sim::bench_timer::Harness;
use stellar_sim::{ReferenceQueue, SimDuration, SimTime, TimingWheelQueue};

/// Steady-state churn length per iteration: enough pops that per-pop
/// cost dominates setup even at depth 1k.
const OPS: u64 = 200_000;

/// Deterministic delay generator (splitmix-style LCG — the bench must
/// not depend on the simulator RNG it is measuring around).
struct Delays {
    state: u64,
    dist: Dist,
}

#[derive(Clone, Copy)]
enum Dist {
    Uniform,
    Bimodal,
    Equal,
    Fixed,
}

impl Delays {
    fn new(dist: Dist, seed: u64) -> Self {
        Delays { state: seed | 1, dist }
    }

    fn next_raw(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 11
    }

    /// Delay from "now" to the replacement event.
    fn next(&mut self) -> SimDuration {
        let ns = match self.dist {
            // [1 µs, 1 ms)
            Dist::Uniform => 1_000 + self.next_raw() % 999_000,
            // 90% ACK-ish (2 µs ± 1 µs), 10% RTO-ish (10 ms ± 1 ms)
            Dist::Bimodal => {
                if self.next_raw().is_multiple_of(10) {
                    9_000_000 + self.next_raw() % 2_000_000
                } else {
                    1_000 + self.next_raw() % 2_000
                }
            }
            // Everything lands on the same next tick.
            Dist::Equal => 1,
            // 2/3 at three recurring delays, 1/3 in [1 µs, 1 ms).
            Dist::Fixed => match self.next_raw() % 6 {
                0 | 1 => 4_012,
                2 => 4_123,
                3 => 218,
                _ => 1_000 + self.next_raw() % 999_000,
            },
        };
        SimDuration::from_nanos(ns)
    }
}

/// One churn closure over any queue exposing the shared API.
macro_rules! churn {
    ($queue:ty, $depth:expr, $dist:expr) => {{
        let mut q: $queue = <$queue>::with_capacity($depth as usize);
        let mut delays = Delays::new($dist, 0x5EED);
        let t0 = SimTime::ZERO + SimDuration::from_nanos(1);
        for i in 0..$depth {
            q.schedule(t0 + SimDuration::from_nanos(i % 64), i);
        }
        move || {
            let mut popped = 0u64;
            for _ in 0..OPS {
                let (at, _ev) = q.pop().expect("steady-state queue never empties");
                popped += 1;
                let d = delays.next();
                q.schedule(at + d, popped);
            }
            assert_eq!(popped, OPS);
        }
    }};
}

fn main() {
    let h = Harness::from_args();
    let dists = [
        ("uniform", Dist::Uniform),
        ("bimodal", Dist::Bimodal),
        ("equal", Dist::Equal),
        ("fixed", Dist::Fixed),
    ];
    for &(dname, dist) in &dists {
        for &depth in &[1_000u64, 100_000, 1_500_000] {
            let label = |imp: &str| format!("queue/{imp}/{dname}/depth_{depth}");
            h.bench(&label("wheel"), churn!(TimingWheelQueue<u64>, depth, dist));
            h.bench(&label("heap"), churn!(ReferenceQueue<u64>, depth, dist));
        }
    }
}
