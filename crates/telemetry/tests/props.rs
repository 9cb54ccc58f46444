//! Property suite for the telemetry crate.
//!
//! The first property pins the determinism contract: folding per-job
//! telemetry through the work pool yields the same rendered JSON at
//! every worker count, ring drops included. The second pins the hub
//! fold: merging never invents or loses a counter increment.

use std::collections::HashMap;

use stellar_sim::par::{par_map, with_thread_override, Scope};
use stellar_sim::proptest_lite::check;
use stellar_sim::SimTime;
use stellar_telemetry::{
    capture, event, fold_counters, stage_sample, Entity, Stage, Subsystem, Telemetry, RING_CAPACITY,
};

/// Determinism contract: the fully rendered trace document of a
/// fan-out workload is byte-identical at 1, 2 and 8 workers — per-job
/// recorders fold in job order, never completion order. Every render
/// records more events than the ring holds, so which events the fold
/// drops is covered too.
#[test]
fn trace_json_is_worker_count_invariant() {
    check("trace_json_is_worker_count_invariant", 16, |g| {
        let jobs = g.usize(1, 12);
        let min_per_job = (RING_CAPACITY / jobs) as u64 + 1;
        let events_per_job = g.u64(min_per_job, min_per_job + 400);
        let render = || -> String {
            let ((), tel) = capture(|| {
                let idx: Vec<u64> = (0..jobs as u64).collect();
                par_map(&idx, |&j| {
                    for e in 0..events_per_job {
                        let t = SimTime::from_nanos(j * 10_000 + e);
                        event(t, Subsystem::Net, Entity::Link(j as u32), "probe", e);
                        fold_counters(Subsystem::Net, || [("probe", 1)]);
                        stage_sample(
                            Stage::FabricQueueing,
                            stellar_sim::SimDuration::from_nanos(e + 1),
                        );
                    }
                });
            });
            assert!(tel.recorder.dropped() > 0, "the ring must overflow");
            tel.to_json("prop")
        };
        let one = with_thread_override(1, render);
        let two = with_thread_override(2, render);
        let eight = with_thread_override(8, render);
        assert_eq!(one, two, "trace differs between 1 and 2 workers");
        assert_eq!(one, eight, "trace differs between 1 and 8 workers");
    });
}

/// Merging child telemetry never invents or loses counter increments:
/// the merged hub total is the sum of the parts.
#[test]
fn hub_merge_is_additive() {
    check("hub_merge_is_additive", 64, |g| {
        let names = ["a", "b", "c"];
        let mut parent = Telemetry::default();
        let mut expected: HashMap<&'static str, u64> = HashMap::new();
        for _ in 0..g.usize(0, 6) {
            let mut child = Telemetry::default();
            for _ in 0..g.usize(0, 10) {
                let name = *g.pick(&names);
                let v = g.u64(1, 100);
                child.hub.add(Subsystem::Virt, name, v);
                *expected.entry(name).or_default() += v;
            }
            parent.merge(child);
        }
        for name in names {
            assert_eq!(
                parent.hub.get(Subsystem::Virt, name),
                expected.get(name).copied().unwrap_or(0)
            );
        }
    });
}
