//! Extension experiment — the §7.2 failure-recovery timeline: a link dies
//! under a running AllReduce; bandwidth is bridged by RTO recovery and
//! restored by BGP reroute.

use std::fmt::Write as _;

use stellar_net::fixture::packet_fabric;
use stellar_transport::PathAlgo;
use stellar_workloads::failures::{run_failure_timeline_with, FailureTimelineConfig};
use stellar_sim::json::json_row;
use stellar_sim::par::par_map;

json_row! {
    /// One timeline phase row.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Algorithm.
        pub algo: &'static str,
        /// Healthy-phase bus bandwidth, GB/s.
        pub before_gbs: f64,
        /// RTO-bridged phase, GB/s.
        pub during_gbs: f64,
        /// Post-reroute phase, GB/s.
        pub after_gbs: f64,
        /// RTO retransmissions.
        pub retransmits: u64,
    }
}

/// Run the timeline for single-path and 128-path OBS.
pub fn run(quick: bool) -> Vec<Row> {
    let mk = |name, algo, paths, seed| {
        let t = run_failure_timeline_with(
            &FailureTimelineConfig {
                algo,
                num_paths: paths,
                // Chunks must outlast the 250 µs RTO for recovery to hide
                // under transmission (same constraint as Fig. 11), so `quick`
                // trims iterations but keeps the per-iteration payload: at
                // 32 MiB the 4 MiB ring chunks transmit in ~80 µs and every
                // RTO stall costs three chunk-times, deepening the dip well
                // below what the paper reports.
                data_bytes: 64 * 1024 * 1024,
                iterations: if quick { 6 } else { 9 },
                fail_after_iter: 2,
                seed,
                ..FailureTimelineConfig::default()
            },
            packet_fabric,
        );
        Row {
            algo: name,
            before_gbs: t.before.expect("pre-failure window populated"),
            during_gbs: t.during.expect("bridged window populated"),
            after_gbs: t.after.expect("post-convergence window populated"),
            retransmits: t.retransmits,
        }
    };
    let variants: [(&'static str, PathAlgo, u32, u64); 2] = [
        ("SinglePath", PathAlgo::SinglePath, 1, 6),
        ("OBS-128", PathAlgo::Obs, 128, 5),
    ];
    par_map(&variants, |&(name, algo, paths, seed)| mk(name, algo, paths, seed))
}

/// Render the timeline as the table `reproduce` prints.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    writeln!(out, "Failure-recovery timeline (link dies mid-AllReduce), busbw GB/s").unwrap();
    writeln!(
        out,
        "{:>12} {:>10} {:>12} {:>10} {:>8}",
        "algorithm", "healthy", "RTO-bridge", "rerouted", "retx"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:>12} {:>10.2} {:>12.2} {:>10.2} {:>8}",
            r.algo, r.before_gbs, r.during_gbs, r.after_gbs, r.retransmits
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_shape() {
        let rows = run(true);
        let single = &rows[0];
        let obs = &rows[1];
        // Spray barely notices; single path dips then recovers.
        assert!(obs.during_gbs > obs.before_gbs * 0.6);
        assert!(single.during_gbs < single.before_gbs);
        assert!(single.after_gbs > single.during_gbs);
    }
}
