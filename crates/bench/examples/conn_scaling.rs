//! Per-event host cost as the connection count grows.
//!
//! ```text
//! cargo run --release --offline -p stellar-bench --example conn_scaling
//! cargo run --release --offline -p stellar-bench --example conn_scaling -- --smallest
//! ```
//!
//! Two sweeps, each one run per row on one thread:
//!
//! * the fluid HPN permutation of `scale --quick`
//!   ([`scale_permutation_config`]) with only `hosts_per_segment`
//!   changed, from 256 to 8,192 connections;
//! * the 3D-parallel job of `scale --quick` ([`scale_llm_config`]) on the
//!   hybrid fabric with only `pp` changed, from 1 to 16 (1,024 to 16,384
//!   connections).
//!
//! Each row prints the wall time, the events the run scheduled and the
//! wall time per event. Path count and per-event work are the same in
//! every row of a sweep, so a rise in ns/event is the cost of the state
//! each event touches outgrowing the caches. `--smallest` runs the first
//! row of each sweep only (a smoke test).
//!
//! Each row also prints the process's peak RSS during the row (`VmHWM`,
//! read after it) and that peak per connection. The high-water mark is
//! reset to the current RSS before each row where Linux allows it
//! (`/proc/self/clear_refs`); otherwise it is the peak so far, which the
//! smallest-first order keeps close to the row's own. Off Linux the two
//! columns read `-`.

use std::time::Instant;

use stellar_bench::scale::{scale_llm_config, scale_permutation_config};
use stellar_net::fixture::{fluid_fabric, hybrid_fabric};
use stellar_net::{FluidConfig, HybridConfig};
use stellar_sim::par::{events_scheduled_here, with_thread_override};
use stellar_workloads::llm::simulate_scale_training_step;
use stellar_workloads::permutation::run_permutation_with;

/// The process's peak resident set so far, in KB.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Run `f` once; print one row of the sweep.
fn row(label: &str, connections: usize, f: impl FnOnce()) {
    // "5" resets the high-water mark to the current RSS (Linux 4.0+).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let events = events_scheduled_here();
    let start = Instant::now();
    f();
    let wall = start.elapsed().as_secs_f64();
    let events = events_scheduled_here() - events;
    let footprint = match peak_rss_kb() {
        Some(kb) => format!(
            "{:>7.1} MB  {:>6.2} KB/conn",
            kb as f64 / 1024.0,
            kb as f64 / connections as f64
        ),
        None => format!("{:>7} MB  {:>6} KB/conn", "-", "-"),
    };
    println!(
        "{label:<12} {connections:>7} conns  {wall:>8.3} s  {events:>10} events  {:>7.1} ns/event  {footprint}",
        wall * 1e9 / events.max(1) as f64
    );
}

fn main() {
    let smallest = std::env::args().any(|a| a == "--smallest");
    let take = if smallest { 1 } else { usize::MAX };
    with_thread_override(1, || {
        for hosts in [64, 128, 256, 512, 1024, 2048].into_iter().take(take) {
            let mut cfg = scale_permutation_config(true);
            cfg.topology.hosts_per_segment = hosts;
            let t = &cfg.topology;
            let connections = t.segments * t.hosts_per_segment * t.rails;
            row("permutation", connections, || {
                run_permutation_with(&cfg, |t, n, rng| {
                    fluid_fabric(t, n, FluidConfig::default(), rng)
                });
            });
        }
        for pp in [1, 2, 4, 8, 16].into_iter().take(take) {
            let mut cfg = scale_llm_config(true);
            cfg.pp = pp;
            row("llm_3d", cfg.ranks(), || {
                simulate_scale_training_step(&cfg, |t, n, rng| {
                    hybrid_fabric(t, n, HybridConfig::default(), rng)
                });
            });
        }
    });
}
