//! Chaos-scenario table — AllReduce under multi-fault plans (flap storm,
//! cascading switch death, slow optics, and the compound acceptance
//! scenario), each scored with a graceful-degradation verdict.
//!
//! The hardened rows run the full Stellar transport (OBS spray + RTO
//! backoff + loss scoreboard); the final row is the counterfactual — an
//! unhardened single-path transport under the same compound plan, which
//! either collapses or burns through its retry budget.

use stellar_net::fixture::packet_fabric;
use stellar_sim::json::json_row;
use stellar_sim::par::par_map;
use stellar_sim::SimDuration;
use stellar_transport::{PathAlgo, ScoreboardPolicy};
use stellar_workloads::chaos::{run_chaos_with, ChaosConfig, ChaosScenario};

use crate::{or_na, rel, Table};

json_row! {
    /// One chaos-scenario row.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Scenario name.
        pub scenario: &'static str,
        /// Transport variant ("hardened-obs" or "unhardened-single").
        pub transport: &'static str,
        /// Fault-free calibration busbw, GB/s.
        pub healthy_gbs: f64,
        /// Bridged-window busbw relative to healthy, or `-1` if no iteration
        /// overlapped the fault window.
        pub bridged_rel: f64,
        /// Post-recovery busbw relative to healthy, or `-1` if the job ended
        /// before the reroute settled.
        pub after_rel: f64,
        /// Total fabric drops attributed to the fault plan (dead + degraded
        /// links).
        pub fault_drops: u64,
        /// Retransmissions across all connections.
        pub retransmits: u64,
        /// Connections that hit their retry budget.
        pub conn_errors: u64,
        /// Graceful-degradation verdict.
        pub verdict: &'static str,
    }
}

fn row_for(config: &ChaosConfig, transport: &'static str) -> Row {
    let r = run_chaos_with(config, &packet_fabric);
    let fault_drops: u64 = r
        .drops_by_reason
        .iter()
        .filter(|(reason, _)| {
            matches!(
                reason,
                stellar_net::DropReason::LinkDown | stellar_net::DropReason::DegradedLink
            )
        })
        .map(|&(_, n)| n)
        .sum();
    Row {
        scenario: r.scenario.name(),
        transport,
        healthy_gbs: r.healthy_busbw_gbs,
        bridged_rel: rel(r.bridged, r.healthy_busbw_gbs),
        after_rel: rel(r.after, r.healthy_busbw_gbs),
        fault_drops,
        retransmits: r.retransmits,
        conn_errors: r.errors.len() as u64,
        verdict: r.verdict.name(),
    }
}

/// Run the chaos table: every scenario hardened, plus the unhardened
/// single-path counterfactual under the compound plan.
pub fn run(quick: bool) -> Vec<Row> {
    let base = ChaosConfig {
        data_bytes: if quick { 2 * 1024 * 1024 } else { 16 * 1024 * 1024 },
        iterations: if quick { 8 } else { 12 },
        ..ChaosConfig::default()
    };
    let mut jobs: Vec<(ChaosConfig, &'static str)> = ChaosScenario::ALL
        .iter()
        .map(|&scenario| {
            (
                ChaosConfig {
                    scenario,
                    // The compound acceptance thresholds need iterations
                    // that dwarf one RTO; keep its payload large even in
                    // quick mode.
                    data_bytes: if scenario == ChaosScenario::Compound {
                        16 * 1024 * 1024
                    } else {
                        base.data_bytes
                    },
                    iterations: if scenario == ChaosScenario::Compound {
                        8
                    } else {
                        base.iterations
                    },
                    ..base.clone()
                },
                "hardened-obs",
            )
        })
        .collect();
    jobs.push((
        ChaosConfig {
            scenario: ChaosScenario::Compound,
            algo: PathAlgo::SinglePath,
            num_paths: 1,
            rto_backoff: 1.0,
            retry_budget: 8,
            scoreboard: ScoreboardPolicy {
                blacklist_after: 0,
                penalty: SimDuration::ZERO,
            },
            bgp_convergence: SimDuration::from_millis(50),
            ..base
        },
        "unhardened-single",
    ));
    par_map(&jobs, |job| row_for(&job.0, job.1))
}

/// Render the table as `reproduce` prints it.
pub fn render(rows: &[Row]) -> String {
    let pct = |v: f64| or_na(v, |v| format!("{:.0}%", v * 100.0));
    Table::new("Chaos scenarios — graceful degradation under multi-fault plans", rows)
        .col("scenario", 12, |r| r.scenario)
        .col("transport", 18, |r| r.transport)
        .col("healthy", 9, |r| format!("{:.2}", r.healthy_gbs))
        .col("bridged", 9, |r| pct(r.bridged_rel))
        .col("after", 9, |r| pct(r.after_rel))
        .col("drops", 7, |r| r.fault_drops)
        .col("retx", 6, |r| r.retransmits)
        .col("errs", 5, |r| r.conn_errors)
        .verdict(|r| r.verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_table_shape() {
        let rows = run(true);
        // 4 hardened scenarios + 1 unhardened counterfactual.
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.healthy_gbs > 0.0, "{}: calibration ran", r.scenario);
            assert!(r.fault_drops > 0, "{}: faults actually bit", r.scenario);
        }
        let compound = rows
            .iter()
            .find(|r| r.scenario == "compound" && r.transport == "hardened-obs")
            .unwrap();
        assert_eq!(compound.verdict, "graceful");
        assert_eq!(compound.conn_errors, 0);
        assert!(compound.bridged_rel >= 0.6 && compound.after_rel >= 0.9);
        let unhardened = rows
            .iter()
            .find(|r| r.transport == "unhardened-single")
            .unwrap();
        assert!(
            unhardened.conn_errors > 0
                || unhardened.verdict == "collapsed"
                || unhardened.verdict == "transport_error",
            "counterfactual must fail: {unhardened:?}"
        );
    }
}
