//! Transport × fabric integration: spraying, failures injected mid-run,
//! and end-to-end determinism.

use stellar::net::{ClosConfig, ClosTopology, Fabric, Network, NetworkConfig, NicId};
use stellar::transport::{
    App, CompletionLog, ConnId, MsgId, NoopApp, PathAlgo, TransportConfig, TransportSim,
};
use stellar::workloads::allreduce::{AllReduceJob, AllReduceRunner};
use stellar_sim::{SimDuration, SimRng, SimTime};

const FOREVER: SimTime = SimTime::from_nanos(u64::MAX / 2);
const MB: u64 = 1024 * 1024;

fn make_sim(algo: PathAlgo, paths: u32, seed: u64) -> TransportSim {
    let topo = ClosTopology::build(ClosConfig {
        segments: 2,
        hosts_per_segment: 6,
        rails: 1,
        planes: 2,
        aggs_per_plane: 8,
    });
    let rng = SimRng::from_seed(seed);
    let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
    TransportSim::new(
        network,
        TransportConfig {
            algo,
            num_paths: paths,
            ..TransportConfig::default()
        },
        rng.fork("transport"),
    )
}

#[test]
fn link_goes_down_mid_transfer_and_traffic_survives() {
    let mut sim = make_sim(PathAlgo::Obs, 128, 1);
    let src = sim.network().topology().nic(0, 0);
    let dst = sim.network().topology().nic(6, 0);
    let conn = sim.add_connection(src, dst);
    let msg = sim.post_message(conn, 32 * MB);

    // Run briefly, then kill one agg uplink the flow uses.
    sim.run(&mut NoopApp, SimTime::ZERO + SimDuration::from_micros(200));
    assert!(!sim.message_done(conn, msg), "still going");
    let link = sim.network().topology().route(src, dst, conn.0 as u64, 3)[1];
    sim.network_mut().set_link_up(link, false);

    sim.run(&mut NoopApp, FOREVER);
    assert!(sim.message_done(conn, msg));
    let st = sim.conn_stats(conn);
    assert_eq!(st.delivered_bytes, 32 * MB);
    // Packets on the dead link were recovered on other paths.
    assert!(st.retransmits > 0, "the dead link must have eaten packets");
}

#[test]
fn allreduce_survives_loss_and_converges() {
    let mut sim = make_sim(PathAlgo::Obs, 128, 2);
    // 1% loss on an agg uplink used by ring traffic.
    let src = sim.network().topology().nic(0, 0);
    let dst = sim.network().topology().nic(6, 0);
    let lossy = sim.network().topology().route(src, dst, 0, 0)[1];
    sim.network_mut().set_loss(lossy, 0.01);

    let nics: Vec<NicId> = [0usize, 6, 1, 7, 2, 8]
        .iter()
        .map(|&h| sim.network().topology().nic(h, 0))
        .collect();
    let mut runner = AllReduceRunner::new(
        &mut sim,
        vec![AllReduceJob {
            nics,
            data_bytes: 12 * MB,
            iterations: 2,
            burst: None,
        }],
    );
    runner.start(&mut sim);
    sim.run(&mut runner, FOREVER);
    assert!(runner.all_finished());
    assert_eq!(runner.report(0).iterations.len(), 2);
}

#[test]
fn interleaved_messages_complete_in_causal_order() {
    struct Chain {
        completions: Vec<(ConnId, MsgId, SimTime)>,
    }
    impl App for Chain {
        fn on_message_complete(&mut self, sim: &mut TransportSim, conn: ConnId, msg: MsgId) {
            self.completions.push((conn, msg, sim.now()));
        }
    }
    let mut sim = make_sim(PathAlgo::RoundRobin, 16, 3);
    let a = sim.add_connection(
        sim.network().topology().nic(0, 0),
        sim.network().topology().nic(6, 0),
    );
    let b = sim.add_connection(
        sim.network().topology().nic(1, 0),
        sim.network().topology().nic(7, 0),
    );
    // Small message on b should finish before the huge one on a.
    let big = sim.post_message(a, 32 * MB);
    let small = sim.post_message(b, 64 * 1024);
    let mut app = Chain {
        completions: Vec::new(),
    };
    sim.run(&mut app, FOREVER);
    assert_eq!(app.completions.len(), 2);
    assert_eq!(app.completions[0].0, b);
    assert_eq!(app.completions[0].1, small);
    assert_eq!(app.completions[1].1, big);
    // Timestamps are non-decreasing.
    assert!(app.completions[0].2 <= app.completions[1].2);
}

#[test]
fn bgp_reroute_takes_over_from_rto_recovery() {
    // Fast-converging control plane: after convergence the dead link is
    // routed around, so late traffic needs no retransmissions at all.
    let topo = ClosTopology::build(ClosConfig {
        segments: 2,
        hosts_per_segment: 2,
        rails: 1,
        planes: 2,
        aggs_per_plane: 4,
    });
    let rng = SimRng::from_seed(21);
    let network = Network::new(
        topo,
        NetworkConfig {
            bgp_convergence: SimDuration::from_millis(1),
        },
        rng.fork("net"),
    );
    let mut sim = TransportSim::new(network, TransportConfig::default(), rng.fork("t"));
    let src = sim.network().topology().nic(0, 0);
    let dst = sim.network().topology().nic(2, 0);
    let dead = sim.network().topology().route(src, dst, 0, 0)[1];
    sim.network_mut().set_link_state_at(SimTime::ZERO, dead, false);

    let conn = sim.add_connection(src, dst);
    // Phase 1 (pre-convergence): RTO recovery carries the transfer.
    let m1 = sim.post_message(conn, 2 * MB);
    sim.run(&mut NoopApp, FOREVER);
    assert!(sim.message_done(conn, m1));
    let retx_phase1 = sim.conn_stats(conn).retransmits;

    // Phase 2 (post-convergence): the fabric routes around the failure.
    sim.schedule_timer(SimTime::ZERO + SimDuration::from_millis(5), 0);
    struct Kick;
    impl App for Kick {
        fn on_timer(&mut self, sim: &mut TransportSim, _t: u64) {
            sim.post_message(ConnId(0), 2 * MB);
        }
        fn on_message_complete(&mut self, _s: &mut TransportSim, _c: ConnId, _m: MsgId) {}
    }
    sim.run(&mut Kick, FOREVER);
    let st = sim.conn_stats(conn);
    assert_eq!(st.completed_messages, 2);
    assert_eq!(
        st.retransmits, retx_phase1,
        "post-convergence traffic must not need RTO recovery"
    );
}

#[test]
fn whole_experiment_is_deterministic() {
    let run = || {
        let mut sim = make_sim(PathAlgo::Obs, 128, 99);
        let src = sim.network().topology().nic(2, 0);
        let dst = sim.network().topology().nic(8, 0);
        let lossy = sim.network().topology().route(src, dst, 0, 5)[1];
        sim.network_mut().set_loss(lossy, 0.02);
        let conn = sim.add_connection(src, dst);
        let msg = sim.post_message(conn, 16 * MB);
        let mut log = CompletionLog::new();
        sim.run(&mut log, FOREVER);
        let st = sim.conn_stats(conn);
        (
            log.completed_at(conn, msg).unwrap().as_nanos(),
            st.sent_packets,
            st.retransmits,
            st.ecn_acks,
        )
    };
    assert_eq!(run(), run());
}
