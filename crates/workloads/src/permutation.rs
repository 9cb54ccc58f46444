//! Permutation traffic (Fig. 9): every RNIC sends a sustained stream to
//! one random distinct RNIC on its rail.
//!
//! "We selected 30 GPU servers from two network segments and injected
//! permutation RDMA write traffic, creating 120 flows in total." — 30
//! hosts × 4 rails = 120 flows. Each flow posts back-to-back messages for
//! the run duration; the report captures the ToR-uplink queue statistics
//! that Fig. 9 plots (average and maximum depth) plus per-flow goodput.

use stellar_net::{ClosConfig, Fabric, NetworkConfig};
use stellar_sim::{SimRng, SimTime};
use stellar_transport::{App, ConnId, MsgId, TransportConfig, TransportSim};

/// Permutation experiment parameters.
#[derive(Debug, Clone)]
pub struct PermutationConfig {
    /// Fabric shape.
    pub topology: ClosConfig,
    /// Link model.
    pub network: NetworkConfig,
    /// Transport under test (algorithm, path count).
    pub transport: TransportConfig,
    /// Message size each flow posts repeatedly.
    pub message_bytes: u64,
    /// Offered load per flow in Gbps (paced injection, so every
    /// algorithm sees the same arrival pattern and queue depths are
    /// comparable — the Fig. 9 methodology).
    pub offered_gbps: f64,
    /// Wall-clock length of the run.
    pub duration: stellar_sim::SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl Default for PermutationConfig {
    fn default() -> Self {
        PermutationConfig {
            // The paper's 30 servers across two segments, 4 RNICs each.
            topology: ClosConfig::default(),
            network: NetworkConfig::default(),
            transport: TransportConfig::default(),
            message_bytes: 1024 * 1024,
            offered_gbps: 150.0,
            duration: stellar_sim::SimDuration::from_millis(20),
            seed: 1,
        }
    }
}

/// Results of one permutation run.
#[derive(Debug, Clone)]
pub struct PermutationReport {
    /// Flows created.
    pub flows: usize,
    /// Mean of the per-ToR-uplink time-averaged queue depth, bytes.
    pub avg_queue_bytes: f64,
    /// Load-weighted mean queue depth over ToR uplinks, bytes — the queue
    /// a transmitted byte actually experienced (robust to idle-port
    /// dilution, which plain averaging suffers under single-path).
    pub weighted_queue_bytes: f64,
    /// Maximum uplink queue depth observed, bytes.
    pub max_queue_bytes: u64,
    /// Aggregate goodput over all flows, Gbps.
    pub total_goodput_gbps: f64,
    /// ToR-uplink load imbalance (Fig. 12 metric, fraction).
    pub uplink_imbalance: f64,
    /// Total RTO events (loss indicator).
    pub rto_events: u64,
}

/// Open-loop paced injector: every flow posts one message each
/// `interval`, independent of completions, so the offered load is the
/// same for every algorithm under comparison.
struct PacedInjector {
    conns: Vec<ConnId>,
    message_bytes: u64,
    interval: stellar_sim::SimDuration,
    stop_at: SimTime,
}

impl<F: Fabric> App<F> for PacedInjector {
    fn on_message_complete(&mut self, _sim: &mut TransportSim<F>, _conn: ConnId, _msg: MsgId) {}

    fn on_timer(&mut self, sim: &mut TransportSim<F>, token: u64) {
        let conn = self.conns[token as usize];
        sim.post_message(conn, self.message_bytes);
        let next = sim.now() + self.interval;
        if next < self.stop_at {
            sim.schedule_timer(next, token);
        }
    }
}

/// Run the permutation experiment on any [`Fabric`]. `build` receives
/// the configured topology, link model, and root RNG (fork `"net"` for
/// the fabric's stream — the fixture constructors do). Pass
/// [`stellar_net::fixture::packet_fabric`] for the packet-level model.
pub fn run_permutation_with<F: Fabric>(
    config: &PermutationConfig,
    build: impl FnOnce(ClosConfig, NetworkConfig, &SimRng) -> F,
) -> PermutationReport {
    let rng = SimRng::from_seed(config.seed);
    let rails = config.topology.rails;
    let network = build(config.topology.clone(), config.network.clone(), &rng);
    let hosts = network.topology().total_hosts();
    // Application-limited flows pace at their offered rate (the RNIC's
    // hardware rate limiter), so arrivals are smooth, not window bursts.
    let mut transport = config.transport.clone();
    transport.pace_gbps = Some(config.offered_gbps);
    let mut sim = TransportSim::new(network, transport, rng.fork("transport"));

    // One flow per RNIC: host h rail r -> a random host on rail r in the
    // *other* segment (random bijections per direction), so every flow
    // exercises the aggregation layer.
    assert_eq!(
        config.topology.segments, 2,
        "permutation traffic is defined over two segments"
    );
    let mut perm_rng = rng.fork("perm");
    let half = hosts / 2;
    let mut conns = Vec::new();
    for rail in 0..rails {
        let mut fwd: Vec<usize> = (0..half).collect(); // seg0 -> seg1
        let mut rev: Vec<usize> = (0..half).collect(); // seg1 -> seg0
        perm_rng.shuffle(&mut fwd);
        perm_rng.shuffle(&mut rev);
        for (h, &f) in fwd.iter().enumerate() {
            let src = sim.network().topology().nic(h, rail);
            let dst = sim.network().topology().nic(half + f, rail);
            conns.push(sim.add_connection(src, dst));
        }
        for h in 0..(hosts - half) {
            let src = sim.network().topology().nic(half + h, rail);
            let dst = sim.network().topology().nic(rev[h % half], rail);
            conns.push(sim.add_connection(src, dst));
        }
    }

    let stop_at = SimTime::ZERO + config.duration;
    let interval = stellar_sim::SimDuration::from_nanos(
        (config.message_bytes as f64 * 8.0 / config.offered_gbps) as u64,
    );
    let mut app = PacedInjector {
        conns: conns.clone(),
        message_bytes: config.message_bytes,
        interval,
        stop_at,
    };
    // Stagger flow starts across one interval so paced injections do not
    // arrive in synchronized bursts (they would in no real cluster).
    for (i, &c) in conns.iter().enumerate() {
        let offset = interval.mul(i as u64).div(conns.len() as u64);
        sim.post_message(c, config.message_bytes);
        sim.schedule_timer(SimTime::ZERO + interval + offset, i as u64);
    }
    // Let in-flight traffic complete past the injection window.
    sim.run(&mut app, stop_at + config.duration);
    // No connection may end the run dead or mid-recovery.
    debug_assert_eq!(sim.failed_connections() + sim.recovering_count(), 0);

    let now = sim.now();
    let (avg_q, max_q) = sim.network().tor_uplink_queue_stats(now);
    let (mut wsum, mut wtot) = (0.0f64, 0.0f64);
    for l in sim.network().topology().tor_uplinks() {
        let st = sim.network().link_stats(l, now);
        wsum += st.avg_queue_bytes * st.tx_bytes as f64;
        wtot += st.tx_bytes as f64;
    }
    let weighted_q = if wtot > 0.0 { wsum / wtot } else { 0.0 };
    let elapsed = now.saturating_duration_since(SimTime::ZERO);
    let total_goodput = stellar_sim::stats::gbps(sim.total_delivered_bytes(), elapsed);
    let rto_events = conns.iter().map(|&c| sim.conn_stats(c).rto_events).sum();

    PermutationReport {
        flows: conns.len(),
        avg_queue_bytes: avg_q,
        weighted_queue_bytes: weighted_q,
        max_queue_bytes: max_q,
        total_goodput_gbps: total_goodput,
        uplink_imbalance: sim.network().tor_uplink_imbalance(),
        rto_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_net::fixture::packet_fabric;
    use stellar_transport::PathAlgo;

    fn small_config(algo: PathAlgo, paths: u32) -> PermutationConfig {
        // Deliberately few aggregation switches so single-path hashing
        // collides persistently (the regime Fig. 9 demonstrates).
        PermutationConfig {
            topology: ClosConfig {
                segments: 2,
                hosts_per_segment: 6,
                rails: 2,
                planes: 2,
                aggs_per_plane: 4,
            },
            transport: TransportConfig {
                algo,
                num_paths: paths,
                ..TransportConfig::default()
            },
            message_bytes: 512 * 1024,
            duration: stellar_sim::SimDuration::from_millis(4),
            seed: 11,
            ..PermutationConfig::default()
        }
    }

    #[test]
    fn creates_one_flow_per_rnic() {
        let report = run_permutation_with(&small_config(PathAlgo::Obs, 32), packet_fabric);
        assert_eq!(report.flows, 24); // 12 hosts × 2 rails
        assert!(report.total_goodput_gbps > 0.0);
    }

    #[test]
    fn fig9_shape_spray_has_shallower_queues_than_single_path() {
        let single = run_permutation_with(&small_config(PathAlgo::SinglePath, 1), packet_fabric);
        let spray = run_permutation_with(&small_config(PathAlgo::Obs, 128), packet_fabric);
        assert!(
            spray.max_queue_bytes < single.max_queue_bytes,
            "spray max {} vs single max {}",
            spray.max_queue_bytes,
            single.max_queue_bytes
        );
        assert!(
            spray.weighted_queue_bytes < single.weighted_queue_bytes,
            "spray weighted avg {} vs single weighted avg {}",
            spray.weighted_queue_bytes,
            single.weighted_queue_bytes
        );
    }

    #[test]
    fn fig9_shape_more_paths_reduce_queues_for_rr() {
        let narrow = run_permutation_with(&small_config(PathAlgo::RoundRobin, 4), packet_fabric);
        let wide = run_permutation_with(&small_config(PathAlgo::RoundRobin, 128), packet_fabric);
        assert!(
            wide.weighted_queue_bytes <= narrow.weighted_queue_bytes * 1.05,
            "wide {} vs narrow {}",
            wide.weighted_queue_bytes,
            narrow.weighted_queue_bytes
        );
        assert!(wide.uplink_imbalance <= narrow.uplink_imbalance + 1e-9);
    }

    #[test]
    fn spray_improves_goodput_under_permutation() {
        let single = run_permutation_with(&small_config(PathAlgo::SinglePath, 1), packet_fabric);
        let spray = run_permutation_with(&small_config(PathAlgo::Obs, 128), packet_fabric);
        assert!(
            spray.total_goodput_gbps >= single.total_goodput_gbps,
            "spray {} vs single {}",
            spray.total_goodput_gbps,
            single.total_goodput_gbps
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_permutation_with(&small_config(PathAlgo::Obs, 64), packet_fabric);
        let b = run_permutation_with(&small_config(PathAlgo::Obs, 64), packet_fabric);
        assert_eq!(a.max_queue_bytes, b.max_queue_bytes);
        assert_eq!(a.rto_events, b.rto_events);
        assert!((a.total_goodput_gbps - b.total_goodput_gbps).abs() < 1e-12);
    }
}
