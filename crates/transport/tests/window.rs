//! The per-connection message window: completed messages retire, so a
//! connection holds only its live messages however many it carries, and
//! what the transport reports at retirement (each completion's latency,
//! the exactly-once ledger) matches what an app observes.

use stellar_net::{ClosConfig, ClosTopology, Fabric, Network, NetworkConfig};
use stellar_sim::stats::Histogram;
use stellar_sim::{SimDuration, SimRng, SimTime};
use stellar_transport::{
    App, CompletionLog, ConnId, MsgId, PathAlgo, TransportConfig, TransportSim,
};

const FOREVER: SimTime = SimTime::from_nanos(u64::MAX / 2);

fn make_sim(algo: PathAlgo, paths: u32, seed: u64) -> TransportSim {
    let topo = ClosTopology::build(ClosConfig {
        segments: 2,
        hosts_per_segment: 4,
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

/// Keeps `depth` messages outstanding on one connection until `total`
/// have been posted, and after every completion checks the live window
/// against the app's own record of what is still incomplete.
struct Closed {
    conn: ConnId,
    depth: usize,
    total: usize,
    /// Post time of message `i`.
    posted: Vec<SimTime>,
    /// Completion time of message `i`, once complete.
    done: Vec<Option<SimTime>>,
    /// Lowest id not yet complete.
    oldest_incomplete: usize,
    /// A message completed while an older one was still incomplete.
    out_of_order: bool,
    max_live: usize,
    /// Latency samples the transport reported, in report order.
    latency: Histogram,
    /// Message of the latest latency report, awaiting its completion.
    reported: Option<MsgId>,
}

impl Closed {
    fn new(conn: ConnId, depth: usize, total: usize) -> Self {
        Closed {
            conn,
            depth,
            total,
            posted: Vec::new(),
            done: Vec::new(),
            oldest_incomplete: 0,
            out_of_order: false,
            max_live: 0,
            latency: Histogram::new(),
            reported: None,
        }
    }

    fn post(&mut self, sim: &mut TransportSim) {
        let i = self.posted.len();
        // 1–3 packets, so consecutive messages differ in size.
        let bytes = 4096 * (1 + i as u64 % 3) - 100;
        self.posted.push(sim.now());
        self.done.push(None);
        let id = sim.post_message(self.conn, bytes);
        assert_eq!(id, MsgId(i as u64), "ids stay dense");
    }

    fn start(&mut self, sim: &mut TransportSim) {
        for _ in 0..self.depth.min(self.total) {
            self.post(sim);
        }
    }
}

impl App for Closed {
    fn on_message_latency(
        &mut self,
        _sim: &mut TransportSim,
        conn: ConnId,
        msg: MsgId,
        latency: SimDuration,
    ) {
        assert_eq!(conn, self.conn);
        assert_eq!(
            self.reported.replace(msg),
            None,
            "two reports, one completion"
        );
        self.latency.record_duration(latency);
    }

    fn on_message_complete(&mut self, sim: &mut TransportSim, conn: ConnId, msg: MsgId) {
        assert_eq!(conn, self.conn);
        assert_eq!(
            self.reported.take(),
            Some(msg),
            "the latency report comes just before its completion"
        );
        let i = msg.0 as usize;
        assert!(self.done[i].is_none(), "message {i} completed twice");
        self.done[i] = Some(sim.now());
        self.out_of_order |= i > self.oldest_incomplete;
        while self
            .done
            .get(self.oldest_incomplete)
            .is_some_and(Option::is_some)
        {
            self.oldest_incomplete += 1;
        }
        // The window is exactly [oldest incomplete, newest posted]: never
        // more than the messages posted since the oldest one still
        // outstanding, and empty when nothing is.
        let live = sim.live_message_count(conn);
        assert_eq!(
            live,
            self.posted.len() - self.oldest_incomplete,
            "after message {i}"
        );
        assert!(sim.message_done(conn, msg));
        if self.oldest_incomplete < self.posted.len() {
            assert!(!sim.message_done(conn, MsgId(self.oldest_incomplete as u64)));
        }
        self.max_live = self.max_live.max(live);
        if self.posted.len() < self.total {
            self.post(sim);
        }
    }
}

/// A closed-loop chain of 10k sequential messages: one outstanding at a
/// time, so every message has retired by the time its completion is
/// reported and the window never holds more than the message in flight.
#[test]
fn sequential_chain_keeps_the_window_empty_between_messages() {
    let mut sim = make_sim(PathAlgo::Obs, 16, 1);
    let src = sim.network().topology().nic(0, 0);
    let dst = sim.network().topology().nic(4, 0);
    let conn = sim.add_connection(src, dst);
    let mut app = Closed::new(conn, 1, 10_000);
    app.start(&mut sim);
    sim.run(&mut app, FOREVER);
    assert_eq!(sim.conn_stats(conn).completed_messages, 10_000);
    assert_eq!(
        app.max_live, 0,
        "a chain retires each message at completion"
    );
    assert!(!app.out_of_order);
    assert_eq!(sim.live_message_count(conn), 0);
    assert!(sim.message_done(conn, MsgId(9_999)));
    assert!(!sim.message_done(conn, MsgId(10_000)), "never posted");
}

/// The out-of-order scenario: 16 messages outstanding, sprayed over 64
/// paths with one lossy uplink, so a message held up by an RTO completes
/// after later ones.
fn out_of_order_run() -> (TransportSim, Closed) {
    let mut sim = make_sim(PathAlgo::Obs, 64, 2);
    let src = sim.network().topology().nic(0, 0);
    let dst = sim.network().topology().nic(4, 0);
    let lossy = sim.network().topology().route(src, dst, 0, 0)[1];
    sim.network_mut().set_loss(lossy, 0.05);
    let conn = sim.add_connection(src, dst);
    let mut app = Closed::new(conn, 16, 2_000);
    app.start(&mut sim);
    sim.run(&mut app, FOREVER);
    (sim, app)
}

/// Out-of-order completion under spraying and loss: a completed message
/// behind an incomplete one stays live until the older one completes,
/// then the whole completed prefix retires.
#[test]
fn out_of_order_completions_retire_the_completed_prefix() {
    let (sim, app) = out_of_order_run();
    let conn = app.conn;
    let st = sim.conn_stats(conn);
    assert!(st.retransmits > 0, "the lossy uplink must cost an RTO");
    assert!(app.out_of_order, "some message must complete out of order");
    assert!(
        app.max_live > app.depth,
        "a stalled message must hold completed ones behind it (max live {})",
        app.max_live
    );
    assert_eq!(st.completed_messages, 2_000);
    assert_eq!(sim.live_message_count(conn), 0);
}

/// The latencies the transport reports (one per completion, in
/// completion order) are exactly the samples an app computes from its
/// own post and completion times.
#[test]
fn latency_histogram_matches_app_observed_latencies() {
    let (_, app) = out_of_order_run();
    let mut expect = Histogram::new();
    for (posted, done) in app.posted.iter().zip(&app.done) {
        let done = done.expect("every message completed");
        expect.record_duration(done.duration_since(*posted));
    }
    let expect = expect.percentiles();
    let got = app.latency.percentiles();
    assert_eq!(got.count(), expect.count());
    assert_eq!(got.count(), 2_000);
    assert_eq!(got.sum(), expect.sum());
    for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
        assert_eq!(got.quantile(q), expect.quantile(q), "q={q}");
    }
}

/// `CompletionLog` records every completion, its latencies agree with
/// its completion times, and running under it instead of a no-op app
/// changes nothing else.
#[test]
fn completion_log_matches_the_latency_histogram() {
    fn run<A: App>(app: &mut A) -> (TransportSim, ConnId, Vec<MsgId>) {
        let mut sim = make_sim(PathAlgo::Obs, 32, 3);
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let conn = sim.add_connection(src, dst);
        let msgs = (0..8)
            .map(|k| sim.post_message(conn, (k + 1) * 40_000))
            .collect();
        sim.run(app, FOREVER);
        (sim, conn, msgs)
    }
    let mut log = CompletionLog::new();
    let (sim, conn, msgs) = run(&mut log);
    let (mut from_times, mut logged) = (Histogram::new(), Histogram::new());
    for &m in &msgs {
        assert!(sim.message_done(conn, m));
        let done = log.completed_at(conn, m).expect("logged");
        let latency = log.latency(conn, m).expect("logged");
        // Every message was posted at time zero.
        assert_eq!(latency, done.duration_since(SimTime::ZERO));
        from_times.record_duration(done.duration_since(SimTime::ZERO));
        logged.record_duration(latency);
    }
    let (a, b) = (from_times.percentiles(), logged.percentiles());
    assert_eq!((a.count(), a.sum()), (b.count(), b.sum()));
    assert_eq!(b.count(), 8);
    assert!(log.completed_at(conn, MsgId(8)).is_none());
    assert!(log.latency(conn, MsgId(8)).is_none());
    assert!(log.completed_at(ConnId(1), msgs[0]).is_none());

    let (noop, _, _) = run(&mut stellar_transport::NoopApp);
    assert_eq!(noop.total_stats(), sim.total_stats());
    assert_eq!(noop.events_scheduled(), sim.events_scheduled());
    assert_eq!(noop.now(), sim.now());
}

/// A run cut into many short `run` calls reports every completion's
/// latency before each call returns: none is left recorded but
/// undispatched at a return, so slicing the run loses no sample.
#[test]
fn sliced_runs_report_every_latency_before_returning() {
    let (whole, whole_app) = out_of_order_run();
    let mut sim = make_sim(PathAlgo::Obs, 64, 2);
    let src = sim.network().topology().nic(0, 0);
    let dst = sim.network().topology().nic(4, 0);
    let lossy = sim.network().topology().route(src, dst, 0, 0)[1];
    sim.network_mut().set_loss(lossy, 0.05);
    let conn = sim.add_connection(src, dst);
    let mut app = Closed::new(conn, 16, 2_000);
    app.start(&mut sim);
    let mut until = SimTime::ZERO;
    while !sim.all_idle() {
        until += SimDuration::from_micros(7);
        sim.run(&mut app, until);
        assert_eq!(
            app.latency.count() as u64,
            sim.conn_stats(conn).completed_messages,
            "at {until:?}"
        );
        assert!(app.reported.is_none());
    }
    assert_eq!(sim.conn_stats(conn), whole.conn_stats(whole_app.conn));
    let (a, b) = (app.latency.percentiles(), whole_app.latency.percentiles());
    assert_eq!((a.count(), a.sum()), (b.count(), b.sum()));
}
