//! The §7.2 two-stage failure-recovery story: an aggregation link dies
//! under a running AllReduce; the 250 µs RTO bridges the gap instantly,
//! then BGP convergence reroutes and bandwidth returns to normal.
//!
//! ```sh
//! cargo run --release --example failure_recovery
//! ```

use stellar::net::fixture::packet_fabric;
use stellar::transport::PathAlgo;
use stellar::workloads::failures::{run_failure_timeline_with, FailureTimelineConfig};

fn main() {
    for (name, algo, paths) in [
        ("OBS-128 (Stellar)", PathAlgo::Obs, 128),
        ("Single-path ECMP", PathAlgo::SinglePath, 1),
    ] {
        let t = run_failure_timeline_with(
            &FailureTimelineConfig {
                algo,
                num_paths: paths,
                ..FailureTimelineConfig::default()
            },
            packet_fabric,
        );
        println!("{name}: link killed at {}", t.failed_at);
        println!("  per-iteration bus bandwidth (GB/s):");
        for (i, bw) in t.busbw_gbs.iter().enumerate() {
            println!("    iter {i:>2}: {bw:>7.2}");
        }
        let phase = |v: Option<f64>| match v {
            Some(bw) => format!("{bw:.2}"),
            None => "n/a".to_string(),
        };
        println!(
            "  healthy {} -> RTO-bridged {} -> rerouted {}  ({} retransmits)\n",
            phase(t.before),
            phase(t.during),
            phase(t.after),
            t.retransmits
        );
    }
    println!("Spraying over 128 paths dilutes the dead link to 1/120 of packets, so");
    println!("the RTO bridge is nearly invisible; single-path flows pinned to the");
    println!("link collapse until the control plane reroutes them.");
}
