//! Incast: N synchronized senders converge on one receiver.
//!
//! The paper's §7.2 notes that transports like MP-RDMA, SMaRTT-REPS and
//! STrack "typically optimize for tail latency under challenging traffic
//! patterns (e.g., skewed distributions, heavy incasts)" — patterns LLM
//! training does *not* exhibit, which is why Stellar favours a simple
//! high-fanout spray. This module provides the incast pattern anyway, so
//! the trade-off is measurable: under incast the bottleneck is the
//! receiver's downlink, and no path-selection algorithm can help; the CC
//! must absorb it.

use stellar_net::{ClosConfig, Fabric, NetworkConfig};
use stellar_sim::{SimRng, SimTime};
use stellar_transport::{CompletionLog, ConnId, TransportConfig, TransportSim};

/// Incast experiment parameters.
#[derive(Debug, Clone)]
pub struct IncastConfig {
    /// Fabric shape.
    pub topology: ClosConfig,
    /// Link model.
    pub network: NetworkConfig,
    /// Transport under test.
    pub transport: TransportConfig,
    /// Number of synchronized senders.
    pub senders: usize,
    /// Bytes each sender transfers.
    pub bytes_per_sender: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for IncastConfig {
    fn default() -> Self {
        IncastConfig {
            topology: ClosConfig {
                segments: 2,
                hosts_per_segment: 9,
                rails: 1,
                planes: 2,
                aggs_per_plane: 8,
            },
            network: NetworkConfig::default(),
            transport: TransportConfig::default(),
            senders: 8,
            bytes_per_sender: 4 * 1024 * 1024,
            seed: 1,
        }
    }
}

/// Incast results.
#[derive(Debug, Clone)]
pub struct IncastReport {
    /// Completion time of the fastest sender.
    pub first_done: SimTime,
    /// Completion time of the slowest sender (the incast's tail).
    pub last_done: SimTime,
    /// Aggregate goodput at the receiver, Gbps.
    pub goodput_gbps: f64,
    /// Jain's fairness index over per-sender completion times.
    pub fairness: f64,
    /// Median per-sender completion latency, ns.
    pub p50_latency_ns: u64,
    /// Worst per-sender completion latency, ns (the incast tail).
    pub p99_latency_ns: u64,
    /// Total ECN-marked ACKs (congestion signal volume).
    pub ecn_acks: u64,
    /// Packets dropped in the fabric.
    pub drops: u64,
}

/// Run an incast on any [`Fabric`] (builder contract as in
/// [`crate::run_permutation_with`]).
pub fn run_incast_with<F: Fabric>(
    config: &IncastConfig,
    build: impl FnOnce(ClosConfig, NetworkConfig, &SimRng) -> F,
) -> IncastReport {
    let rng = SimRng::from_seed(config.seed);
    let network = build(config.topology.clone(), config.network.clone(), &rng);
    let half = network.topology().total_hosts() / 2;
    assert!(
        config.senders <= half,
        "senders must fit in the far segment"
    );
    let mut sim = TransportSim::new(network, config.transport.clone(), rng.fork("transport"));

    let receiver = sim.network().topology().nic(0, 0);
    let mut conns: Vec<ConnId> = Vec::new();
    for s in 0..config.senders {
        let src = sim.network().topology().nic(half + s, 0);
        conns.push(sim.add_connection(src, receiver));
    }
    let msgs: Vec<_> = conns
        .iter()
        .map(|&c| (c, sim.post_message(c, config.bytes_per_sender)))
        .collect();
    let mut log = CompletionLog::new();
    sim.run(&mut log, SimTime::from_nanos(u64::MAX / 2));
    // No connection may end the run dead or mid-recovery.
    debug_assert_eq!(sim.failed_connections() + sim.recovering_count(), 0);

    let done: Vec<SimTime> = msgs
        .iter()
        .map(|&(c, m)| log.completed_at(c, m).expect("incast completes"))
        .collect();
    let first = *done.iter().min().expect("senders > 0");
    let last = *done.iter().max().expect("senders > 0");
    let total = config.senders as u64 * config.bytes_per_sender;
    let ecn: u64 = conns.iter().map(|&c| sim.conn_stats(c).ecn_acks).sum();
    let retx: u64 = conns.iter().map(|&c| sim.conn_stats(c).retransmits).sum();

    // Jain's index over completion times (1.0 = perfectly fair).
    let times: Vec<f64> = done.iter().map(|t| t.as_nanos() as f64).collect();
    let sum: f64 = times.iter().sum();
    let sum_sq: f64 = times.iter().map(|t| t * t).sum();
    let fairness = sum * sum / (times.len() as f64 * sum_sq);

    let mut lat = stellar_sim::stats::Histogram::new();
    for &(c, m) in &msgs {
        lat.record_duration(log.latency(c, m).expect("incast completes"));
    }
    let lat = lat.percentiles();

    IncastReport {
        first_done: first,
        last_done: last,
        goodput_gbps: stellar_sim::stats::gbps(total, last.duration_since(SimTime::ZERO)),
        fairness,
        p50_latency_ns: lat.p50().unwrap_or(0),
        p99_latency_ns: lat.p99().unwrap_or(0),
        ecn_acks: ecn,
        drops: retx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_net::fixture::packet_fabric;
    use stellar_transport::PathAlgo;

    #[test]
    fn incast_is_receiver_bound() {
        let r = run_incast_with(&IncastConfig::default(), packet_fabric);
        // 8 senders into one dual-plane NIC: the receiver's 2×200 Gbps
        // downlinks bound the aggregate.
        assert!(r.goodput_gbps < 410.0, "goodput={}", r.goodput_gbps);
        assert!(r.goodput_gbps > 150.0, "goodput={}", r.goodput_gbps);
        assert!(r.ecn_acks > 0, "incast must trigger ECN");
    }

    #[test]
    fn incast_is_fair_across_senders() {
        let r = run_incast_with(&IncastConfig::default(), packet_fabric);
        assert!(r.fairness > 0.95, "fairness={}", r.fairness);
        assert!(r.p99_latency_ns >= r.p50_latency_ns);
        assert!(r.p50_latency_ns > 0);
    }

    /// The per-sender latency percentiles, recorded before completion
    /// latency moved from the transport into the app.
    #[test]
    fn latency_percentiles_are_pinned() {
        let run = |senders, seed| {
            let r = run_incast_with(
                &IncastConfig {
                    senders,
                    seed,
                    ..IncastConfig::default()
                },
                packet_fabric,
            );
            (r.p50_latency_ns, r.p99_latency_ns)
        };
        assert_eq!(
            [run(8, 1), run(3, 7)],
            [(670_352, 719_104), (253_396, 276_940)]
        );
    }

    #[test]
    fn spraying_cannot_fix_incast() {
        // §7.2's point inverted: under incast the bottleneck is the
        // receiver, so path diversity buys little.
        let run = |algo, paths| {
            run_incast_with(
                &IncastConfig {
                    transport: TransportConfig {
                        algo,
                        num_paths: paths,
                        ..TransportConfig::default()
                    },
                    ..IncastConfig::default()
                },
                packet_fabric,
            )
            .goodput_gbps
        };
        let single = run(PathAlgo::SinglePath, 1);
        let spray = run(PathAlgo::Obs, 128);
        let gain = spray / single;
        assert!(
            (0.7..1.6).contains(&gain),
            "incast gain should be modest: {gain}"
        );
    }

    #[test]
    fn more_senders_stretch_the_tail() {
        let run = |n| {
            run_incast_with(
                &IncastConfig {
                    senders: n,
                    ..IncastConfig::default()
                },
                packet_fabric,
            )
            .last_done
        };
        assert!(run(8) > run(2));
    }
}
