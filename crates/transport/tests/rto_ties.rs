//! RTO firings that share a nanosecond.
//!
//! Three connections post one-packet messages, interleaved, in the same
//! nanosecond, into a destination whose ToR downlink is dead. Every
//! packet is lost, so their RTOs all fall due at the same deadline and
//! must fire in the order the packets were sent, which interleaves the
//! connections (A, B, A, ...). The retransmissions share a nanosecond
//! too, so their backed-off timers tie again one epoch later. A second
//! burst lands while the link is still down; the link comes back before
//! the first retransmissions' timers run out.
//!
//! Each message has a distinct size, so the fabric's packet trace names
//! the packet behind every send: a repeat send of a `(connection, size)`
//! is the retransmission an RTO fired. The test asserts that an
//! interleaved same-nanosecond firing really occurs, then pins a hash
//! over every firing's `(time, connection, sequence number, epoch)` and
//! the path its retransmission took. The hash was recorded while every
//! packet still had its own timer; it must never change.

use std::collections::HashMap;

use stellar_net::{ClosConfig, ClosTopology, Fabric, Network, NetworkConfig};
use stellar_sim::{SimDuration, SimRng, SimTime};
use stellar_transport::{App, ConnId, MsgId, PathAlgo, TransportConfig, TransportSim};

const FOREVER: SimTime = SimTime::from_nanos(u64::MAX / 2);

/// Posting order of one burst: connection index per message.
const BURST: [usize; 8] = [0, 1, 0, 2, 1, 0, 2, 1];

fn us(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(n)
}

fn sim(seed: u64) -> TransportSim {
    let topo = ClosTopology::build(ClosConfig {
        segments: 2,
        hosts_per_segment: 4,
        rails: 1,
        planes: 2,
        aggs_per_plane: 8,
    });
    let rng = SimRng::from_seed(seed);
    let net = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
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

/// Posts one burst per timer token; message sizes count up from 1000
/// bytes across bursts, so every packet has a size of its own.
struct Bursts {
    conns: Vec<ConnId>,
    next_size: u64,
}

impl Bursts {
    fn post(&mut self, sim: &mut TransportSim) {
        for &c in &BURST {
            sim.post_message(self.conns[c], self.next_size);
            self.next_size += 1;
        }
    }
}

impl App for Bursts {
    fn on_message_complete(&mut self, _sim: &mut TransportSim, _conn: ConnId, _msg: MsgId) {}

    fn on_timer(&mut self, sim: &mut TransportSim, _token: u64) {
        self.post(sim);
    }
}

/// One RTO firing, read back from its retransmission:
/// `(time ns, connection, sequence number, epoch, retransmit path)`.
type Firing = (u64, u64, u64, u32, u32);

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn run() -> (Vec<Firing>, TransportSim) {
    let mut s = sim(23);
    let topo = s.network().topology();
    let dst = topo.nic(4, 0);
    let srcs = [topo.nic(0, 0), topo.nic(1, 0), topo.nic(2, 0)];
    // The destination's downlinks, one per plane: every path ends on one.
    let mut downlinks: Vec<_> = (0..8)
        .map(|p| {
            *topo
                .route(srcs[0], dst, 0, p)
                .last()
                .expect("route has links")
        })
        .collect();
    downlinks.sort_unstable_by_key(|l| l.0);
    downlinks.dedup();
    s.network_mut().enable_trace(1 << 16);
    for &l in &downlinks {
        s.network_mut().set_link_state_at(SimTime::ZERO, l, false);
    }
    let mut app = Bursts {
        conns: srcs.iter().map(|&src| s.add_connection(src, dst)).collect(),
        next_size: 1000,
    };
    app.post(&mut s);
    s.schedule_timer(us(100), 0);
    s.run(&mut app, us(700));
    let now = s.now();
    for &l in &downlinks {
        s.network_mut().set_link_state_at(now, l, true);
    }
    s.run(&mut app, FOREVER);

    // Sequence numbers are per connection and in send order; a packet's
    // size names it across its retransmissions.
    let mut next_seq: HashMap<u64, u64> = HashMap::new();
    let mut packets: HashMap<(u64, u64), (u64, u32)> = HashMap::new();
    let mut firings = Vec::new();
    for r in s.network_mut().take_trace() {
        match packets.get_mut(&(r.flow, r.bytes)) {
            None => {
                let seq = next_seq.entry(r.flow).or_insert(0);
                packets.insert((r.flow, r.bytes), (*seq, 0));
                *seq += 1;
            }
            Some((seq, sends)) => {
                firings.push((r.sent.as_nanos(), r.flow, *seq, *sends, r.path_id));
                *sends += 1;
            }
        }
    }
    (firings, s)
}

#[test]
fn same_nanosecond_rtos_fire_in_send_order_across_connections() {
    let (firings, s) = run();
    // Some nanosecond fires connection X, then another, then X again.
    let interleaved = firings
        .windows(3)
        .any(|w| w[0].0 == w[2].0 && w[0].1 == w[2].1 && w[1].0 == w[0].0 && w[1].1 != w[0].1);
    assert!(
        interleaved,
        "no interleaved same-nanosecond RTOs: {firings:?}"
    );

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(t, conn, seq, epoch, path) in &firings {
        for x in [t, conn, seq, u64::from(epoch), u64::from(path)] {
            fnv(&mut h, x);
        }
    }
    let st = s.total_stats();
    assert_eq!(
        (
            firings.len(),
            st.rto_events,
            st.completed_messages,
            s.now().as_nanos()
        ),
        (32, 32, 16, 1_850_000),
        "firings {firings:?}"
    );
    assert_eq!(h, 16_493_769_723_605_308_759, "RTO firing hash");
}

/// The first run stops with retransmissions in flight, so its quiesce
/// point checks that every connection's timer is queued at or before its
/// earliest in-flight key.
#[test]
fn tied_timers_stay_armed_under_the_strict_checks() {
    let ((firings, _), report) = stellar_check::capture(run);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(firings.len(), 32, "checking must not perturb the run");
}
