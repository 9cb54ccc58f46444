//! Seed-pinned smoke test: one small incast run whose summary values
//! are pinned exactly. Any change to the RNG streams, the event
//! schedule, or the transport/network models shows up here as a diff
//! against the recorded numbers, not as a silent drift.
//!
//! The pins are exact (`==` on floats included): the simulation is
//! deterministic from `IncastConfig::seed`, so these are golden values,
//! not tolerances. Re-pin only for an intentional model change.

use stellar_net::fixture::packet_fabric;
use stellar_workloads::{run_incast_with, IncastConfig};

#[test]
fn default_incast_summary_is_pinned_to_seed_1() {
    let r = run_incast_with(&IncastConfig::default(), packet_fabric);
    assert_eq!(r.goodput_gbps, 373.2915628337487);
    assert_eq!(r.fairness, 0.9964903764476493);
    assert_eq!(r.p50_latency_ns, 670_352);
    assert_eq!(r.p99_latency_ns, 719_104);
    assert_eq!(r.first_done.as_nanos(), 593_320);
    assert_eq!(r.last_done.as_nanos(), 719_104);
    assert_eq!(r.ecn_acks, 3_001);
    assert_eq!(r.drops, 0);
}

#[test]
fn incast_is_a_pure_function_of_its_seed() {
    let base = run_incast_with(&IncastConfig::default(), packet_fabric);
    let again = run_incast_with(&IncastConfig::default(), packet_fabric);
    assert_eq!(base.last_done, again.last_done);
    assert_eq!(base.ecn_acks, again.ecn_acks);

    let other = run_incast_with(
        &IncastConfig {
            seed: 2,
            ..IncastConfig::default()
        },
        packet_fabric,
    );
    assert_ne!(
        (base.p50_latency_ns, base.p99_latency_ns),
        (other.p50_latency_ns, other.p99_latency_ns),
        "a different seed must reshuffle the incast timing"
    );
}
