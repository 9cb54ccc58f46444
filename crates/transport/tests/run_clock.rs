//! The clock after a bounded `run(until)`.
//!
//! A connection has one RTO timer, armed at its earliest in-flight key,
//! so an ACKed packet's deadline need never pop. A per-packet timer left
//! to pop as a no-op would still have moved the clock to its deadline,
//! and workloads read `sim.now()` after a bounded run (goodput and queue
//! averages divide by it). The transport therefore keeps the deadlines
//! of packets that left flight and, when `run` returns, lands the clock
//! where the last such timer that run would have popped left it.
//!
//! The clock, byte, ACK and retransmit values below were recorded when
//! every packet had its own timer and every dead timer still popped.
//! They must never change: a drift means the timer design altered what a
//! workload observes. The `events scheduled` column counts queued
//! events, and fell when per-packet timers gave way to one timer per
//! connection.

use stellar_net::{ClosConfig, ClosTopology, Fabric, Network, NetworkConfig};
use stellar_sim::{SimDuration, SimRng, SimTime};
use stellar_transport::{ConnStats, NoopApp, PathAlgo, TransportConfig, TransportSim};

const FOREVER: SimTime = SimTime::from_nanos(u64::MAX / 2);

fn network(seed: u64) -> (Network, SimRng) {
    let topo = ClosTopology::build(ClosConfig {
        segments: 2,
        hosts_per_segment: 4,
        rails: 1,
        planes: 2,
        aggs_per_plane: 8,
    });
    let rng = SimRng::from_seed(seed);
    let net = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
    (net, rng)
}

fn sim(seed: u64) -> TransportSim {
    let (net, rng) = network(seed);
    TransportSim::new(
        net,
        TransportConfig {
            algo: PathAlgo::Obs,
            num_paths: 8,
            ..TransportConfig::default()
        },
        rng.fork("transport"),
    )
}

fn us(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(n)
}

/// Two messages that finish long before their timers' 250 µs deadlines,
/// run in bounded steps. Steps that stop short of every deadline leave
/// the clock at the last packet event; later steps must land it on the
/// last deadline they reach, including deadlines of packets ACKed in an
/// earlier step.
#[test]
fn bounded_runs_end_where_dead_timers_would_have_left_the_clock() {
    let mut s = sim(7);
    let a = s.add_connection(
        s.network().topology().nic(0, 0),
        s.network().topology().nic(4, 0),
    );
    let b = s.add_connection(
        s.network().topology().nic(1, 0),
        s.network().topology().nic(5, 0),
    );
    s.post_message(a, 2 << 20);
    s.post_message(b, 1 << 20);
    // (until µs, now ns, events scheduled, bytes delivered, acks)
    let expected = [
        (30, 29_940, 619, 1_163_264, 233),
        (120, 92_256, 1_538, 3_145_728, 768),
        (200, 92_256, 1_538, 3_145_728, 768),
        (300, 299_080, 1_538, 3_145_728, 768),
        (330, 329_840, 1_538, 3_145_728, 768),
        (360, 333_588, 1_538, 3_145_728, 768),
    ];
    for (until, now, events, delivered, acks) in expected {
        s.run(&mut NoopApp, us(until));
        assert_eq!(
            (
                s.now().as_nanos(),
                s.events_scheduled(),
                s.total_delivered_bytes(),
                s.total_stats().acks
            ),
            (now, events, delivered, acks),
            "after run(until = {until} µs)"
        );
    }
    s.run(&mut NoopApp, FOREVER);
    assert_eq!(s.now().as_nanos(), 333_588);
    assert_eq!(s.events_scheduled(), 1_538);
    assert_eq!(
        s.total_stats(),
        ConnStats {
            sent_packets: 768,
            delivered_packets: 768,
            delivered_bytes: 3_145_728,
            completed_messages: 2,
            acks: 768,
            ..ConnStats::default()
        }
    );
}

/// One lost packet: its first timer fires and retransmits, and the
/// retransmission's ACK retires its 500 µs backed-off deadline, which
/// waits through three bounded steps that stop short of it.
#[test]
fn a_re_armed_timer_counts_only_once_its_deadline_is_reached() {
    let mut s = sim(11);
    let src = s.network().topology().nic(0, 0);
    let dst = s.network().topology().nic(4, 0);
    let link = s.network().topology().route(src, dst, 0, 0)[1];
    s.network_mut().set_loss(link, 0.05);
    let a = s.add_connection(src, dst);
    s.post_message(a, 1 << 20);
    // (until µs, now ns, events scheduled, retransmits)
    let expected = [
        (100, 52_992, 511, 0),
        (260, 259_980, 512, 0),
        (400, 294_160, 515, 1),
        (520, 294_160, 515, 1),
        (700, 294_160, 515, 1),
    ];
    for (until, now, events, retransmits) in expected {
        s.run(&mut NoopApp, us(until));
        assert_eq!(
            (
                s.now().as_nanos(),
                s.events_scheduled(),
                s.total_stats().retransmits
            ),
            (now, events, retransmits),
            "after run(until = {until} µs)"
        );
    }
    s.run(&mut NoopApp, FOREVER);
    assert_eq!(s.now().as_nanos(), 769_304);
    let st = s.total_stats();
    assert_eq!(
        (st.rto_events, st.delivered_bytes, st.completed_messages),
        (1, 1 << 20, 1)
    );
}

/// Deadlines recorded before a `reset` must not reach the next run's
/// clock: after the reset a one-packet message ends at its own timer's
/// deadline, as on a fresh sim, not at the old run's later deadlines.
#[test]
fn reset_clears_the_cancelled_deadlines() {
    let one_packet = |s: &mut TransportSim| {
        let c = s.add_connection(
            s.network().topology().nic(2, 0),
            s.network().topology().nic(6, 0),
        );
        s.post_message(c, 4096);
        s.run(&mut NoopApp, FOREVER);
        (s.now().as_nanos(), s.events_scheduled())
    };
    let mut s = sim(7);
    let a = s.add_connection(
        s.network().topology().nic(0, 0),
        s.network().topology().nic(4, 0),
    );
    s.post_message(a, 2 << 20);
    // Stop after the traffic but before any deadline: every recorded
    // deadline is still waiting for a later run.
    s.run(&mut NoopApp, us(200));
    assert!(s.all_idle());
    assert!(s.now() < us(200));
    let (net, rng) = network(7);
    s.reset(net, rng.fork("transport"));
    assert_eq!(one_packet(&mut s), (250_000, 3));
    assert_eq!(one_packet(&mut sim(7)), (250_000, 3), "a fresh sim agrees");
}
