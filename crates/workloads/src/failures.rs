//! Failure-recovery timeline: what happens to a training job when a link
//! dies mid-run (§7.2's two-stage recovery story).
//!
//! "For complete link or optical module failures, Stellar uses a short
//! RTO to retransmit lost packets on a different path for instant
//! recovery. Over the long term, the control plane (e.g., BGP) detects
//! the failure and reroutes traffic, and Stellar's CC algorithm then
//! quickly converges to a new flow-path assignment."
//!
//! [`run_failure_timeline_with`] runs a continuous AllReduce, kills one
//! aggregation link mid-run, and reports per-iteration bus bandwidth so
//! the three phases are visible: healthy → RTO-bridged → rerouted.

use stellar_net::{ClosConfig, Fabric, LinkId, NetworkConfig};
use stellar_sim::{SimDuration, SimRng, SimTime};
use stellar_transport::{App, ConnId, MsgId, PathAlgo, TransportConfig, TransportSim};

use crate::allreduce::{
    first_edge_uplink, AllReduceJob, AllReduceRunner, FaultWindows, InterleavedRings,
};

/// Failure-timeline parameters.
#[derive(Debug, Clone)]
pub struct FailureTimelineConfig {
    /// Ring size.
    pub ranks: usize,
    /// AllReduce payload per rank.
    pub data_bytes: u64,
    /// Iterations to run in total.
    pub iterations: u32,
    /// Iteration index after which the link dies.
    pub fail_after_iter: u32,
    /// Path algorithm.
    pub algo: PathAlgo,
    /// Paths per connection.
    pub num_paths: u32,
    /// BGP convergence delay.
    pub bgp_convergence: SimDuration,
    /// Seed.
    pub seed: u64,
}

impl Default for FailureTimelineConfig {
    fn default() -> Self {
        FailureTimelineConfig {
            ranks: 8,
            data_bytes: 32 * 1024 * 1024,
            iterations: 9,
            fail_after_iter: 3,
            algo: PathAlgo::Obs,
            num_paths: 128,
            bgp_convergence: SimDuration::from_millis(2),
            seed: 5,
        }
    }
}

/// Timeline output.
#[derive(Debug, Clone)]
pub struct FailureTimeline {
    /// Per-iteration bus bandwidth, GB/s, in order.
    pub busbw_gbs: Vec<f64>,
    /// When the link was killed.
    pub failed_at: SimTime,
    /// Retransmissions observed (RTO recoveries).
    pub retransmits: u64,
    /// Mean busbw before the failure, or `None` if no iteration finished
    /// before it (an empty window is not a zero-bandwidth window).
    pub before: Option<f64>,
    /// Mean busbw in the RTO-bridged window (failure → convergence), or
    /// `None` if no iteration overlapped it.
    pub during: Option<f64>,
    /// Mean busbw after BGP convergence, or `None` if the job ended
    /// before any post-convergence iteration started.
    pub after: Option<f64>,
}

/// The driving app: wraps [`AllReduceRunner`] and kills the link exactly
/// when the configured iteration completes (inside the simulation, not
/// between runs).
struct TimelineApp {
    runner: AllReduceRunner,
    fail_link: LinkId,
    fail_after_iter: u32,
    failed_at: Option<SimTime>,
}

impl<F: Fabric> App<F> for TimelineApp {
    fn on_message_complete(&mut self, sim: &mut TransportSim<F>, conn: ConnId, msg: MsgId) {
        self.runner.on_message_complete(sim, conn, msg);
        // Kill the link the moment the configured iteration completes.
        if self.failed_at.is_none()
            && self.runner.report(0).iterations.len() as u32 >= self.fail_after_iter
        {
            let now = sim.now();
            sim.network_mut().set_link_state_at(now, self.fail_link, false);
            self.failed_at = Some(now);
        }
    }
    fn on_timer(&mut self, sim: &mut TransportSim<F>, token: u64) {
        self.runner.on_timer(sim, token);
    }
}

/// Run the timeline on any [`Fabric`] (builder contract as in
/// [`crate::run_permutation_with`]). The ring is one
/// [`InterleavedRings`] ring; panics with the layout error's message if
/// `ranks` is odd or below 2.
pub fn run_failure_timeline_with<F: Fabric>(
    config: &FailureTimelineConfig,
    build: impl FnOnce(ClosConfig, NetworkConfig, &SimRng) -> F,
) -> FailureTimeline {
    let layout = InterleavedRings::new(1, config.ranks).unwrap_or_else(|e| panic!("{e}"));
    let rng = SimRng::from_seed(config.seed);
    let network = build(
        layout.clos(),
        NetworkConfig {
            bgp_convergence: config.bgp_convergence,
            ..NetworkConfig::default()
        },
        &rng,
    );
    let mut sim = TransportSim::new(
        network,
        TransportConfig {
            algo: config.algo,
            num_paths: config.num_paths,
            ..TransportConfig::default()
        },
        rng.fork("transport"),
    );
    let nics = layout.nics(sim.network().topology()).remove(0);
    let fail_link = first_edge_uplink(sim.network().topology(), &nics, 0);

    let mut runner = AllReduceRunner::new(
        &mut sim,
        vec![AllReduceJob {
            nics,
            data_bytes: config.data_bytes,
            iterations: config.iterations,
            burst: None,
        }],
    );
    runner.start(&mut sim);

    let mut app = TimelineApp {
        runner,
        fail_link,
        fail_after_iter: config.fail_after_iter,
        failed_at: None,
    };
    sim.run(&mut app, SimTime::from_nanos(u64::MAX / 2));
    assert!(app.runner.all_finished(), "timeline job must finish");
    // A finished job proves every connection came to rest: none dead
    // terminally and none stuck mid-recovery — the two states
    // `failed_connections` / `recovering_count` distinguish.
    debug_assert_eq!(sim.failed_connections(), 0);
    debug_assert_eq!(sim.recovering_count(), 0);
    let fail_at = app.failed_at.expect("failure was injected");

    let converged_at = fail_at + config.bgp_convergence;
    let samples = app.runner.busbw_samples();
    let windows = FaultWindows::split(&samples, fail_at, converged_at);
    FailureTimeline {
        before: windows.before,
        during: windows.bridged,
        after: windows.after,
        busbw_gbs: samples.iter().map(|s| s.1).collect(),
        failed_at: fail_at,
        retransmits: sim.total_stats().retransmits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_net::fixture::packet_fabric;

    #[test]
    fn spray_timeline_recovers_fully() {
        let t = run_failure_timeline_with(&FailureTimelineConfig::default(), packet_fabric);
        assert_eq!(t.busbw_gbs.len(), 9);
        // All three phase windows must be populated — an empty window
        // would previously masquerade as a 0.0 collapse.
        let before = t.before.expect("pre-failure window populated");
        let during = t.during.expect("bridged window populated");
        let after = t.after.expect("post-convergence window populated");
        assert!(before > 0.0 && after > 0.0);
        // Instant recovery: even the RTO-bridged window keeps most of the
        // bandwidth (loss fan-out 1/120), and the rerouted phase returns
        // to within 10% of healthy.
        assert!(during > before * 0.6, "during {during} vs before {before}");
        assert!(after > before * 0.9, "after {after} vs before {before}");
    }

    #[test]
    fn single_path_timeline_needs_the_reroute() {
        let t = run_failure_timeline_with(
            &FailureTimelineConfig {
                algo: PathAlgo::SinglePath,
                num_paths: 1,
                seed: 6,
                ..FailureTimelineConfig::default()
            },
            packet_fabric,
        );
        let before = t.before.expect("pre-failure window populated");
        let during = t.during.expect("bridged window populated");
        let after = t.after.expect("post-convergence window populated");
        // The ring edge pinned to the dead link collapses until BGP
        // converges, then recovers.
        assert!(during < before * 0.8, "during {during} vs before {before}");
        assert!(after > during, "after {after} vs during {during}");
        assert!(t.retransmits > 0);
    }

    #[test]
    fn deterministic() {
        let a = run_failure_timeline_with(&FailureTimelineConfig::default(), packet_fabric);
        let b = run_failure_timeline_with(&FailureTimelineConfig::default(), packet_fabric);
        assert_eq!(a.busbw_gbs, b.busbw_gbs);
        assert_eq!(a.retransmits, b.retransmits);
    }
}
