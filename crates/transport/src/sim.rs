//! The transport event loop: connections × fabric × congestion control.
//!
//! Everything end-to-end happens here: window-gated packet pumping, path
//! selection, delivery and ACK events, RTO retransmission *on a different
//! path* (the paper's instant-recovery mechanism for complete link
//! failures), and receiver-side message completion. Workloads plug in via
//! the [`App`] trait to chain dependent messages (ring AllReduce steps,
//! bursty background jobs) causally inside the simulation.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use stellar_net::{Delivery, Fabric, Network, NicId};
use stellar_sim::hash::FastMap;
use stellar_sim::{EventQueue, SimDuration, SimRng, SimTime, WHEEL_HORIZON};
use stellar_telemetry::{event, fold_counters, stage_sample, Entity, Stage, Subsystem};

use crate::cc::CongestionControl;
use crate::conn::{
    ConnId, ConnState, ConnStats, Connection, FatalError, InflightPacket, MsgId, RtoKey, NO_TIMER,
};
use crate::path::{PathAlgo, PathSelector};

/// Transport parameters: §7.2's three key knobs (algorithm, path count,
/// MTU) plus the hardening, pacing and recovery policies. The RTO and
/// the congestion window's bounds are constants ([`RTO`],
/// [`crate::cc::INIT_WINDOW`]).
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Path-selection algorithm.
    pub algo: PathAlgo,
    /// Paths per connection (4–256 in the paper's sweeps; 128 deployed).
    pub num_paths: u32,
    /// MTU / packet payload size in bytes.
    pub mtu: u64,
    /// Exponential RTO backoff factor: the timeout for retransmit epoch
    /// `k` is `RTO × rto_backoff^k`, capped at [`RTO_MAX`]. `1.0`
    /// disables backoff (the pre-hardening fixed-RTO behaviour).
    pub rto_backoff: f64,
    /// Consecutive retransmissions of a single packet before the
    /// connection gives up and enters the terminal error state (the IB
    /// `retry_cnt` semantics, except unbounded budgets are not offered —
    /// an unreachable peer must surface as an error, not an infinite
    /// retransmit loop).
    pub retry_budget: u32,
    /// Loss-scoreboard policy for path blacklisting.
    pub scoreboard: crate::path::ScoreboardPolicy,
    /// Plane-level failover for the path scoreboard. `None` (the
    /// default) keeps per-path blacklisting only; `Some` quarantines a
    /// whole plane of the fabric once a majority of its paths are
    /// blacklisted at once, migrating flows to the surviving planes until
    /// a readmission probe (see [`PlaneFailover`](crate::path::PlaneFailover)).
    pub plane_failover: Option<crate::path::PlaneFailover>,
    /// Egress pacing rate in Gbps. `None` sends window-limited bursts;
    /// `Some(rate)` spaces packets at the given rate, modelling the
    /// RNIC's hardware rate limiter / DMA feed (application-limited flows
    /// pace at their offered rate).
    pub pace_gbps: Option<f64>,
    /// Failure recovery policy. `None` (the default) keeps the
    /// pre-recovery behaviour: a fatal error is terminal. `Some` turns
    /// fatal errors into a teardown → backoff → re-establish → replay
    /// cycle (DESIGN.md §11); fault-free runs are byte-identical either
    /// way because the recovery path draws no RNG and schedules no
    /// events until a failure actually occurs.
    pub recovery: Option<RecoveryPolicy>,
}

/// Retransmission timeout before backoff ("250 µs ... chosen for our
/// low-latency data center topology").
pub const RTO: SimDuration = SimDuration::from_micros(250);
/// Upper bound on the backed-off RTO.
pub const RTO_MAX: SimDuration = SimDuration::from_millis(4);

// A zero RTO would fire at once, and backoff only grows it toward the cap.
const _: () = assert!(0 < RTO.as_nanos() && RTO.as_nanos() <= RTO_MAX.as_nanos());

/// Why a [`TransportConfig`] cannot run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransportConfigError {
    /// `num_paths` is 0 or above 256 (the paper's sweep ceiling).
    NumPaths(u32),
    /// `mtu` is 0: a message cannot be cut into packets.
    ZeroMtu,
    /// `mtu` is 4 GiB or more: a packet's size is kept in 32 bits.
    MtuAbove4GiB(u64),
    /// `pace_gbps` is not a finite, positive rate.
    PaceRate(f64),
    /// `rto_backoff` is below 1 (a shrinking RTO) or NaN.
    RtoBackoff(f64),
    /// `retry_budget` is above 65,535: a packet's retransmit count is
    /// kept in 16 bits.
    RetryBudget(u32),
    /// A delay the transport adds to the clock (`scoreboard.penalty`,
    /// `recovery.reestablish`, or one `mtu` packet's transmit time at
    /// `pace_gbps`) is beyond the timing wheel's horizon,
    /// [`WHEEL_HORIZON`].
    BeyondHorizon {
        /// The field.
        field: &'static str,
        /// Its value.
        value: SimDuration,
    },
}

impl std::fmt::Display for TransportConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportConfigError::NumPaths(n) => {
                write!(f, "transport config: num_paths {n} is outside 1..=256")
            }
            TransportConfigError::ZeroMtu => write!(f, "transport config: mtu is 0"),
            TransportConfigError::MtuAbove4GiB(m) => {
                write!(f, "transport config: mtu {m} is 4 GiB or more")
            }
            TransportConfigError::PaceRate(r) => write!(
                f,
                "transport config: pace_gbps {r} is not a finite positive rate"
            ),
            TransportConfigError::RtoBackoff(b) => {
                write!(f, "transport config: rto_backoff {b} is below 1 or NaN")
            }
            TransportConfigError::RetryBudget(n) => {
                write!(f, "transport config: retry_budget {n} is above 65535")
            }
            TransportConfigError::BeyondHorizon { field, value } => write!(
                f,
                "transport config: {field} {} ns is beyond the timing wheel's horizon {} ns",
                value.as_nanos(),
                WHEEL_HORIZON.as_nanos()
            ),
        }
    }
}

impl std::error::Error for TransportConfigError {}

impl TransportConfig {
    /// Check the fields that would otherwise panic deep inside a run: at
    /// the first connection (`num_paths`), the first post (`mtu`), the
    /// first paced send (`pace_gbps`), the first RTO (`rto_backoff`) or
    /// the first pacing, blacklist or reconnect deadline (`pace_gbps`,
    /// `scoreboard.penalty`, `recovery.reestablish`, which would pass
    /// the timing wheel's horizon); and the bounds of the 32-byte
    /// in-flight record (`mtu`, `retry_budget`).
    pub fn validate(&self) -> Result<(), TransportConfigError> {
        if !(1..=256).contains(&self.num_paths) {
            return Err(TransportConfigError::NumPaths(self.num_paths));
        }
        if self.mtu == 0 {
            return Err(TransportConfigError::ZeroMtu);
        }
        if self.mtu > u64::from(u32::MAX) {
            return Err(TransportConfigError::MtuAbove4GiB(self.mtu));
        }
        if let Some(rate) = self.pace_gbps {
            if !(rate.is_finite() && rate > 0.0) {
                return Err(TransportConfigError::PaceRate(rate));
            }
        }
        if self.rto_backoff.is_nan() || self.rto_backoff < 1.0 {
            return Err(TransportConfigError::RtoBackoff(self.rto_backoff));
        }
        if self.retry_budget > u32::from(u16::MAX) {
            return Err(TransportConfigError::RetryBudget(self.retry_budget));
        }
        // A paced packet schedules the next send one transmit time ahead.
        let pace = self
            .pace_gbps
            .map(|rate| ("pace_gbps", stellar_sim::transmit_time(self.mtu, rate)));
        let penalty = Some(("scoreboard.penalty", self.scoreboard.penalty));
        let reestablish = self.recovery.as_ref().map(|r| ("recovery.reestablish", r.reestablish));
        for (field, value) in pace.into_iter().chain(penalty).chain(reestablish) {
            if value > WHEEL_HORIZON {
                return Err(TransportConfigError::BeyondHorizon { field, value });
            }
        }
        Ok(())
    }

    /// The RTO for retransmit epoch `epoch`:
    /// `min(RTO × rto_backoff^epoch, RTO_MAX)`.
    fn rto_after(&self, epoch: u32) -> SimDuration {
        if self.rto_backoff <= 1.0 || epoch == 0 {
            return RTO;
        }
        let scaled = RTO.as_nanos() as f64 * self.rto_backoff.powi(epoch as i32);
        let capped = scaled.min(RTO_MAX.as_nanos() as f64);
        SimDuration::from_nanos(capped as u64)
    }
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            algo: PathAlgo::Obs,
            num_paths: 128,
            mtu: 4096,
            rto_backoff: 2.0,
            retry_budget: 16,
            scoreboard: crate::path::ScoreboardPolicy::default(),
            plane_failover: None,
            pace_gbps: None,
            recovery: None,
        }
    }
}

/// Consecutive failed recovery attempts (no successful ACK in between)
/// before a connection is declared terminally dead.
const MAX_RECOVERY_ATTEMPTS: u32 = 16;
/// Base reconnect delay before the first re-establishment.
const RECONNECT_BACKOFF: SimDuration = SimDuration::from_millis(1);
/// Exponential multiplier applied to the reconnect delay per consecutive
/// attempt.
const RECONNECT_BACKOFF_MULT: f64 = 2.0;
/// Upper bound on the backed-off reconnect delay.
const RECONNECT_BACKOFF_MAX: SimDuration = SimDuration::from_millis(100);

/// Failure recovery policy: what the transport does when a connection
/// hits a fatal error (retry budget exhausted) instead of dying.
///
/// The cycle is: drain in-flight state and tear down the QP, wait an
/// exponentially backed-off reconnect delay (1 ms doubling per
/// consecutive attempt, capped at 100 ms) plus the re-establishment
/// cost, then rebuild the send queue from the receiver bitmaps — exactly
/// the packets that never landed — and resume with a fresh congestion
/// context. Consecutive failures (no ACK between them) climb the backoff
/// ladder; 16 consecutive failures make the error terminal.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// QP re-establishment cost paid after the backoff delay: four
    /// control verbs (~120 µs) for a bare QP, or the full ~1.5 s+
    /// vStellar device destroy→recreate lifecycle when the virtual
    /// device itself churns (see `stellar_core::vstellar`).
    pub reestablish: SimDuration,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            reestablish: SimDuration::from_micros(120),
        }
    }
}

impl RecoveryPolicy {
    /// Total teardown→re-establish delay for consecutive attempt
    /// `attempt` (0-based): `min(1 ms × 2^attempt, 100 ms) +
    /// reestablish`.
    pub fn reconnect_delay(&self, attempt: u32) -> SimDuration {
        let base = if attempt == 0 {
            RECONNECT_BACKOFF
        } else {
            let scaled =
                RECONNECT_BACKOFF.as_nanos() as f64 * RECONNECT_BACKOFF_MULT.powi(attempt as i32);
            SimDuration::from_nanos(scaled.min(RECONNECT_BACKOFF_MAX.as_nanos() as f64) as u64)
        };
        base + self.reestablish
    }
}

/// Workload hook: called when a message is fully received.
///
/// Generic over the [`Fabric`] the transport runs on (defaulting to the
/// packet-level [`Network`], so `impl App for MyApp` keeps meaning what
/// it always did). Workload apps that should run on any fabric
/// implement `impl<F: Fabric> App<F> for MyApp`.
pub trait App<F: Fabric = Network> {
    /// `msg` on `conn` completed at `sim.now()`. The app may post new
    /// messages via [`TransportSim::post_message`].
    fn on_message_complete(&mut self, sim: &mut TransportSim<F>, conn: ConnId, msg: MsgId);

    /// `msg` on `conn` completed `latency` after it was posted (post →
    /// full receipt). Called for every completion, just before
    /// [`App::on_message_complete`]. The transport keeps no latency
    /// samples itself: apps that report latency record them here.
    /// Default: ignore.
    fn on_message_latency(
        &mut self,
        sim: &mut TransportSim<F>,
        conn: ConnId,
        msg: MsgId,
        latency: SimDuration,
    ) {
        let _ = (sim, conn, msg, latency);
    }

    /// A timer scheduled via [`TransportSim::schedule_timer`] fired.
    /// Default: ignore. Used by on/off (bursty) workloads.
    fn on_timer(&mut self, sim: &mut TransportSim<F>, token: u64) {
        let _ = (sim, token);
    }

    /// `conn` hit a fatal transport error (retry budget exhausted) and
    /// entered the terminal [`ConnState`]`::Error` state: all queued and
    /// in-flight traffic was discarded and no further packets will flow.
    /// Default: ignore (the state is still queryable via
    /// [`TransportSim::conn_state`]).
    fn on_connection_error(&mut self, sim: &mut TransportSim<F>, conn: ConnId, error: FatalError) {
        let _ = (sim, conn, error);
    }

    /// `conn` finished a recovery cycle: its QP was re-established after
    /// being down for `downtime` and every unacked packet was re-queued
    /// (exactly-once replay from the receiver bitmap). Only fires when a
    /// [`RecoveryPolicy`] is configured. Default: ignore.
    fn on_connection_recovered(
        &mut self,
        sim: &mut TransportSim<F>,
        conn: ConnId,
        downtime: SimDuration,
    ) {
        let _ = (sim, conn, downtime);
    }
}

/// An [`App`] that does nothing (open-loop workloads).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopApp;

impl<F: Fabric> App<F> for NoopApp {
    fn on_message_complete(&mut self, _sim: &mut TransportSim<F>, _conn: ConnId, _msg: MsgId) {}
}

/// An open-loop [`App`] that records when each message completed and
/// its latency. The transport forgets a message once it retires, so
/// callers that need completion times or latencies run under this app
/// instead of [`NoopApp`] (it schedules nothing, so the run is otherwise
/// identical).
#[derive(Debug, Default, Clone)]
pub struct CompletionLog {
    /// Completion time and latency per completed message.
    done: FastMap<(ConnId, MsgId), (SimTime, SimDuration)>,
}

impl CompletionLog {
    /// An empty log.
    pub fn new() -> Self {
        CompletionLog::default()
    }

    /// When `msg` on `conn` completed, if it has.
    pub fn completed_at(&self, conn: ConnId, msg: MsgId) -> Option<SimTime> {
        self.done.get(&(conn, msg)).map(|&(at, _)| at)
    }

    /// How long `msg` on `conn` took from post to full receipt, if it
    /// completed.
    pub fn latency(&self, conn: ConnId, msg: MsgId) -> Option<SimDuration> {
        self.done.get(&(conn, msg)).map(|&(_, latency)| latency)
    }
}

impl<F: Fabric> App<F> for CompletionLog {
    fn on_message_latency(
        &mut self,
        sim: &mut TransportSim<F>,
        conn: ConnId,
        msg: MsgId,
        latency: SimDuration,
    ) {
        self.done.insert((conn, msg), (sim.now(), latency));
    }

    fn on_message_complete(&mut self, _sim: &mut TransportSim<F>, _conn: ConnId, _msg: MsgId) {}
}

#[derive(Debug)]
enum Ev {
    /// Data packet landed at the receiver.
    Deliver { conn: ConnId, seq: u64, ecn: bool },
    /// ACK landed back at the sender.
    Ack { conn: ConnId, seq: u64, ecn: bool },
    /// The connection's RTO timer, armed at the key of packet `seq`'s
    /// transmission at retransmit epoch `epoch` (a packet's `retx`,
    /// which [`TransportConfig::validate`] caps at 65,535).
    Rto { conn: ConnId, seq: u64, epoch: u16 },
    /// Pacing gate opened: resume pumping the connection.
    Pace { conn: ConnId },
    /// Application-scheduled timer.
    AppTimer { token: u64 },
    /// Recovery reconnect timer: re-establish the connection's QP and
    /// replay unacked traffic.
    Reconnect { conn: ConnId },
}

/// Per-connection state that only path selection and RTO re-arming
/// read.
#[derive(Debug)]
struct Cold {
    selector: PathSelector,
    /// Keys of queued RTO timers later than [`Connection::armed`],
    /// latest first: the queue pops keys in order, so the last entry is
    /// the one armed after the next timer pops.
    armed_later: Vec<RtoKey>,
}

/// Queue `conn`'s timer at `key` for packet `seq` at `epoch`, unless a
/// timer at or before `key` is already queued.
fn arm(
    conn: &mut Connection,
    cold: &mut Cold,
    queue: &mut EventQueue<Ev>,
    id: ConnId,
    key: RtoKey,
    seq: u64,
    epoch: u16,
) {
    // No queued timer reads NO_TIMER, later than every real key.
    if conn.armed <= key {
        return;
    }
    queue.schedule_reserved(key.0, key.1, Ev::Rto { conn: id, seq, epoch });
    let top = std::mem::replace(&mut conn.armed, key);
    if top != NO_TIMER {
        cold.armed_later.push(top);
    }
}

/// The earliest RTO key among `conn`'s in-flight packets, with that
/// packet's sequence number and retransmit epoch.
fn earliest_rto(config: &TransportConfig, conn: &Connection) -> Option<(RtoKey, u64, u16)> {
    conn.inflight
        .iter()
        .map(|(seq, p)| {
            let deadline = p.sent_at + config.rto_after(u32::from(p.retx));
            ((deadline, p.rto_seq), seq, p.retx)
        })
        .min_by_key(|&(key, _, _)| key)
}

/// RTO deadlines of packets that left flight (ACKed or torn down), kept
/// so the clock ends each [`TransportSim::run`] exactly where it would if
/// every packet had its own timer left to pop as a no-op.
///
/// A stale timer that pops moves the clock to its deadline, and
/// `run(until)` pops every event at or before `until`. So a recorded
/// deadline counts in the run that would have popped it: the first run
/// whose `until` reaches it. Deadlines at or before the current `until`
/// fold into one maximum; later ones wait in a min-heap until a run's
/// `until` reaches them. When a run returns, the clock advances to the
/// folded maximum (if it is ahead of the last popped event).
#[derive(Default)]
struct CancelLedger {
    /// `until` of the run in progress; `None` between runs.
    until: Option<SimTime>,
    /// Latest recorded deadline the run in progress would have popped.
    due: SimTime,
    /// Recorded deadlines past every `until` so far.
    later: BinaryHeap<Reverse<SimTime>>,
}

impl CancelLedger {
    /// Record the RTO deadline of a packet that just left flight.
    fn note(&mut self, deadline: SimTime) {
        match self.until {
            Some(until) if deadline <= until => self.due = self.due.max(deadline),
            _ => self.later.push(Reverse(deadline)),
        }
    }

    /// A run up to `until` starts: fold the waiting deadlines it reaches.
    fn begin(&mut self, until: SimTime) {
        self.until = Some(until);
        while let Some(&Reverse(deadline)) = self.later.peek() {
            if deadline > until {
                break;
            }
            self.later.pop();
            self.due = self.due.max(deadline);
        }
    }

    /// The run returns: the latest deadline it would have popped.
    fn end(&mut self) -> SimTime {
        self.until = None;
        std::mem::replace(&mut self.due, SimTime::ZERO)
    }

    /// Forget everything (simulation reset), keeping the allocation.
    fn clear(&mut self) {
        self.until = None;
        self.due = SimTime::ZERO;
        self.later.clear();
    }
}

/// The transport simulation: fabric + connections + event queue.
///
/// Generic over the [`Fabric`] carrying its packets; the default is the
/// packet-level [`Network`], so plain `TransportSim` in signatures and
/// tests keeps meaning the packet model. The event loop itself is
/// fabric-agnostic: everything below `send`/`control_rtt_component`
/// goes through the trait.
pub struct TransportSim<F: Fabric = Network> {
    config: TransportConfig,
    network: F,
    queue: EventQueue<Ev>,
    /// RTO deadlines of packets that left flight, for the end-of-run clock.
    dead_timers: CancelLedger,
    /// Per-connection state, two dense arrays indexed by [`ConnId`]:
    /// what every event touches ([`Connection`]) apart from what only
    /// path picks and slow paths read ([`Cold`]).
    conns: Vec<Connection>,
    cold: Vec<Cold>,
    /// Completed messages awaiting their app callbacks, with each one's
    /// post → receipt latency.
    completions: VecDeque<(ConnId, MsgId, SimDuration)>,
    errors: VecDeque<(ConnId, FatalError)>,
    recovered: VecDeque<(ConnId, SimDuration)>,
    rng: SimRng,
}

impl<F: Fabric> Drop for TransportSim<F> {
    fn drop(&mut self) {
        self.fold_counters();
    }
}

impl<F: Fabric> TransportSim<F> {
    /// Build a simulation over `network`.
    ///
    /// # Panics
    ///
    /// If `config` fails [`TransportConfig::validate`], with the error's
    /// message.
    pub fn new(network: F, config: TransportConfig, rng: SimRng) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        TransportSim {
            config,
            network,
            // Every packet in flight holds a Deliver or an Ack event;
            // presize for a healthy window's worth so the arena does not
            // regrow during the first ramp-up.
            queue: EventQueue::with_capacity(1024),
            dead_timers: CancelLedger::default(),
            conns: Vec::new(),
            cold: Vec::new(),
            completions: VecDeque::new(),
            errors: VecDeque::new(),
            recovered: VecDeque::new(),
            rng,
        }
    }

    /// Rebuild this simulation for a fresh run over a new fabric,
    /// reusing the event-queue and connection-table allocations instead
    /// of rebuilding them (repeated seed runs — calibration + chaos
    /// passes, per-seed averaging — construct thousands of these).
    ///
    /// Equivalent to `TransportSim::new(network, self.config, rng)` with
    /// warm allocations: the clock restarts at zero and all connections
    /// are dropped, so a reset sim is observably identical to a fresh
    /// one.
    pub fn reset(&mut self, network: F, rng: SimRng) {
        self.fold_counters();
        self.network = network;
        self.queue.clear();
        self.dead_timers.clear();
        self.conns.clear();
        self.cold.clear();
        self.completions.clear();
        self.errors.clear();
        self.recovered.clear();
        self.rng = rng;
    }

    /// Report every connection's counters to telemetry: on drop, and
    /// before [`reset`](Self::reset) forgets them.
    fn fold_counters(&self) {
        fold_counters(Subsystem::Transport, || {
            let stats = self.total_stats();
            let exiles = |f: fn((u64, u64)) -> u64| -> u64 {
                self.cold.iter().map(|c| f(c.selector.exiles())).sum()
            };
            // Recovering ends only in a recovery, and Error is terminal.
            let recovering = stats.recoveries + self.recovering_count() as u64;
            let posted = self.conns.iter().map(Connection::posted_messages).sum();
            [
                ("ack", stats.acks),
                ("conn.fatal", self.failed_connections() as u64),
                ("conn.recovering", recovering),
                ("conn.recovery", stats.recoveries),
                ("msg.completed", stats.completed_messages),
                ("msg.posted", posted),
                ("packet.replayed", stats.replayed_packets),
                ("packet.sent", stats.sent_packets),
                ("retransmit", stats.retransmits),
                ("rto", stats.rto_events),
                ("scoreboard.blacklist", exiles(|e| e.0)),
                ("scoreboard.plane_quarantine", exiles(|e| e.1)),
            ]
        });
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Events scheduled since construction or the last
    /// [`reset`](Self::reset) (which zeroes it via `EventQueue::clear`).
    pub fn events_scheduled(&self) -> u64 {
        self.queue.scheduled_total()
    }

    /// Deepest pending-event backlog since construction or the last
    /// [`reset`](Self::reset) (which zeroes it via `EventQueue::clear`).
    pub fn queue_peak_len(&self) -> usize {
        self.queue.peak_len()
    }

    /// The transport configuration.
    pub fn config(&self) -> &TransportConfig {
        &self.config
    }

    /// The underlying fabric (stats, failure injection).
    pub fn network(&self) -> &F {
        &self.network
    }

    /// The underlying fabric, mutable.
    pub fn network_mut(&mut self) -> &mut F {
        &mut self.network
    }

    /// Open an RC connection `src → dst`.
    pub fn add_connection(&mut self, src: NicId, dst: NicId) -> ConnId {
        let id = ConnId(self.conns.len() as u32);
        let mut conn = Connection::new(id, src, dst);
        conn.ack_delay = self.network.control_rtt_component(dst, src);
        let mut selector = PathSelector::new(
            self.config.algo,
            self.config.num_paths,
            self.rng.fork_idx("conn", id.0 as u64),
        );
        selector.set_scoreboard(self.config.scoreboard);
        if self.config.plane_failover.is_some() {
            selector.set_plane_failover(self.network.topology().config().planes as u32);
        }
        conn.ack_feedback = selector.wants_ack();
        self.conns.push(conn);
        self.cold.push(Cold {
            selector,
            armed_later: Vec::new(),
        });
        id
    }

    /// Schedule an [`App::on_timer`] callback at absolute time `at`.
    pub fn schedule_timer(&mut self, at: SimTime, token: u64) {
        self.queue.schedule(at, Ev::AppTimer { token });
    }

    /// Post a message of `bytes` on `conn` at the current time; starts
    /// transmission immediately as the window allows.
    pub fn post_message(&mut self, conn: ConnId, bytes: u64) -> MsgId {
        let now = self.now();
        let mtu = self.config.mtu;
        let id = self.conns[conn.0 as usize].post_message(now, bytes, mtu);
        self.pump(conn);
        id
    }

    /// Statistics of one connection.
    pub fn conn_stats(&self, conn: ConnId) -> ConnStats {
        self.conns[conn.0 as usize].stats()
    }

    /// Aggregate statistics over every connection (field-wise sum).
    pub fn total_stats(&self) -> ConnStats {
        self.conns.iter().map(Connection::stats).sum()
    }

    /// Lifecycle state of one connection.
    pub fn conn_state(&self, conn: ConnId) -> ConnState {
        self.conns[conn.0 as usize].state
    }

    /// Whether `conn` is fully quiesced: nothing unsent, nothing in
    /// flight, and not waiting on a recovery reconnect.
    pub fn conn_idle(&self, conn: ConnId) -> bool {
        let c = &self.conns[conn.0 as usize];
        c.is_idle() && c.state != ConnState::Recovering
    }

    /// The fatal error that killed `conn`, if it is **terminally**
    /// failed. A connection mid-recovery has no fatal error — the
    /// teardown is transient and [`Connection::fatal`] stays `None`
    /// until the recovery budget is exhausted.
    pub fn conn_error(&self, conn: ConnId) -> Option<FatalError> {
        self.conns[conn.0 as usize].fatal()
    }

    /// Number of connections terminally failed ([`ConnState::Error`]).
    /// Connections mid-recovery ([`ConnState::Recovering`]) are **not**
    /// counted — see [`TransportSim::recovering_count`].
    pub fn failed_connections(&self) -> usize {
        self.conns
            .iter()
            .filter(|c| c.state == ConnState::Error)
            .count()
    }

    /// Number of connections currently torn down awaiting a reconnect.
    pub fn recovering_count(&self) -> usize {
        self.conns
            .iter()
            .filter(|c| c.state == ConnState::Recovering)
            .count()
    }

    /// The path selector of a connection (distribution inspection).
    pub fn selector(&self, conn: ConnId) -> &PathSelector {
        &self.cold[conn.0 as usize].selector
    }

    /// Whether message `msg` on `conn` has completed. The transport keeps
    /// no per-message state once a message retires, so it cannot say
    /// *when* or how long it took; run under a [`CompletionLog`] (or
    /// record [`App::on_message_latency`]) for completion times and
    /// latencies.
    pub fn message_done(&self, conn: ConnId, msg: MsgId) -> bool {
        self.conns[conn.0 as usize].message_done(msg)
    }

    /// Messages in `conn`'s live window: from the oldest not yet retired
    /// to the newest posted (see [`Connection::message`]).
    pub fn live_message_count(&self, conn: ConnId) -> usize {
        self.conns[conn.0 as usize].live_messages().len()
    }

    /// Number of open connections.
    pub fn connection_count(&self) -> u32 {
        self.conns.len() as u32
    }

    /// Whether all connections are idle (nothing queued or in flight).
    pub fn all_idle(&self) -> bool {
        self.conns.iter().all(Connection::is_idle)
    }

    /// Aggregate delivered payload bytes over all connections.
    pub fn total_delivered_bytes(&self) -> u64 {
        self.conns.iter().map(|c| c.counts.delivered_bytes).sum()
    }

    /// Tear out `conn`'s virtual device from under it — vStellar device
    /// churn (host driver restart, device error, container reschedule).
    /// The connection rides the normal recovery ladder: teardown drain,
    /// backed-off reconnect (whose [`RecoveryPolicy::reestablish`]
    /// should carry the measured device destroy→recreate lifecycle, see
    /// `stellar_core::vstellar::VStellarStack::churn_device`), then
    /// exactly-once replay from the receiver bitmaps. A no-op unless the
    /// connection is Active — churning a connection already recovering
    /// or terminally dead changes nothing.
    ///
    /// # Panics
    /// Panics if no [`RecoveryPolicy`] is configured: device churn
    /// without recovery would silently kill the connection, which is
    /// never what a churn storm intends.
    pub fn device_churn(&mut self, conn: ConnId) {
        assert!(
            self.config.recovery.is_some(),
            "device churn requires a RecoveryPolicy (the churned device must come back)"
        );
        self.fail_connection(conn, FatalError::DeviceChurned);
    }

    /// Tear down `conn` after a fatal error. Without a
    /// [`RecoveryPolicy`] (or once its attempt budget is spent) the
    /// error is terminal: queued and in-flight traffic is discarded
    /// (stale Deliver/Ack/RTO events become no-ops) and the
    /// [`App::on_connection_error`] callback is queued. With a policy
    /// and attempts remaining, the connection enters
    /// [`ConnState::Recovering`] instead: the same teardown drain, but a
    /// reconnect is scheduled after the backed-off delay and nothing is
    /// reported as an error.
    fn fail_connection(&mut self, conn_id: ConnId, error: FatalError) {
        let now = self.now();
        let conn = &mut self.conns[conn_id.0 as usize];
        if conn.state != ConnState::Active {
            return;
        }
        conn.drop_unsent();
        for (_, pkt) in conn.inflight.iter() {
            self.dead_timers
                .note(pkt.sent_at + self.config.rto_after(u32::from(pkt.retx)));
        }
        conn.inflight.clear();
        conn.inflight_bytes = 0;
        if let Some(policy) = &self.config.recovery {
            if conn.recovery_attempts < MAX_RECOVERY_ATTEMPTS {
                let attempt = conn.recovery_attempts;
                conn.recovery_attempts += 1;
                conn.state = ConnState::Recovering;
                conn.cold.recovering_since = Some(now);
                event(
                    now,
                    Subsystem::Transport,
                    Entity::Conn(conn_id.0),
                    "recovering",
                    u64::from(attempt),
                );
                let at = now + policy.reconnect_delay(attempt);
                self.queue.schedule(at, Ev::Reconnect { conn: conn_id });
                return;
            }
        }
        event(now, Subsystem::Transport, Entity::Conn(conn_id.0), "fatal", 0);
        conn.state = ConnState::Error;
        conn.cold.fatal = Some(error);
        self.errors.push_back((conn_id, error));
    }

    /// A scheduled reconnect fired: re-establish the QP, rebuild the
    /// send queue from the receiver bitmaps (exactly-once replay — only
    /// the indices that never landed), reset the congestion context (a
    /// fresh QP does not inherit the old window), and resume pumping.
    fn handle_reconnect(&mut self, conn_id: ConnId) {
        let now = self.now();
        let mtu = self.config.mtu;
        let i = conn_id.0 as usize;
        let conn = &mut self.conns[i];
        if conn.state != ConnState::Recovering {
            return;
        }
        let downtime = now.saturating_duration_since(
            conn.cold
                .recovering_since
                .take()
                .expect("recovering connection records its teardown time"),
        );
        conn.state = ConnState::Active;
        let replayed = conn.replay_unacked(mtu);
        conn.cold.recoveries += 1;
        conn.cold.replayed_packets += replayed;
        conn.cc = CongestionControl::default();
        conn.pace_until = SimTime::ZERO;
        event(
            now,
            Subsystem::Transport,
            Entity::Conn(conn_id.0),
            "recovered",
            replayed,
        );
        self.recovered.push_back((conn_id, downtime));
        self.pump(conn_id);
    }

    /// Pump as many packets as the window allows on `conn`, replayed
    /// packets first, then packets cut from the send cursor's message.
    fn pump(&mut self, conn_id: ConnId) {
        let now = self.now();
        let mtu = self.config.mtu;
        let pace = self.config.pace_gbps;
        let i = conn_id.0 as usize;
        loop {
            let conn = &mut self.conns[i];
            if conn.state != ConnState::Active || !conn.has_unsent() {
                break;
            }
            // Egress pacing gate: wait for the rate limiter.
            if pace.is_some() && conn.pace_until > now {
                if !conn.pace_scheduled {
                    conn.pace_scheduled = true;
                    let at = conn.pace_until;
                    self.queue.schedule(at, Ev::Pace { conn: conn_id });
                }
                break;
            }
            // Only now read the packet's message: a paced connection
            // stops at the gate above without it.
            let pkt = conn.next_unsent(mtu).expect("a pending packet");
            // Window gate.
            if !conn.cc.can_send(conn.inflight_bytes, pkt.bytes) {
                break;
            }
            let path = self.cold[i].selector.select_at(now, None);

            conn.pop_unsent(mtu);
            let seq = conn.next_seq();
            conn.inflight_bytes += pkt.bytes;
            conn.counts.sent_packets += 1;
            if let Some(rate) = pace {
                let start = if conn.pace_until > now { conn.pace_until } else { now };
                conn.pace_until = start + stellar_sim::transmit_time(pkt.bytes, rate);
            }
            let (src, dst) = (conn.src, conn.dst);

            let delivery =
                self.network
                    .send(now, src, dst, conn_id.0 as u64, path, pkt.bytes);
            if let Delivery::Delivered { at, ecn } = delivery {
                self.queue.schedule(
                    at,
                    Ev::Deliver {
                        conn: conn_id,
                        seq,
                        ecn,
                    },
                );
            }
            let rto_seq = self.queue.reserve_seq();
            let conn = &mut self.conns[i];
            conn.inflight.insert(
                seq,
                InflightPacket {
                    sent_at: now,
                    rto_seq,
                    // The low bits; `Connection::msg_id` widens them.
                    msg: pkt.msg.0 as u32,
                    idx: pkt.idx as u32,
                    bytes: pkt.bytes as u32,
                    path: path as u16,
                    retx: 0,
                },
            );
            let key = (now + RTO, rto_seq);
            arm(conn, &mut self.cold[i], &mut self.queue, conn_id, key, seq, 0);
        }
    }

    fn handle_deliver(&mut self, conn_id: ConnId, seq: u64, ecn: bool) {
        let now = self.now();
        let conn = &mut self.conns[conn_id.0 as usize];
        let Some(&pkt) = conn.inflight.get(seq) else {
            // Already ACKed via a retransmitted copy; stale delivery.
            return;
        };
        let msg = conn.msg_id(pkt.msg);
        // A retired message has every packet landed, so a copy for one is
        // a duplicate (a retransmission racing its original's ACK).
        let (placed, completed) = match conn.message_mut(msg) {
            Some(m) => {
                let placed = m.place_packet(u64::from(pkt.idx));
                (placed, placed && m.fully_received())
            }
            None => {
                debug_assert!(
                    conn.message_done(msg),
                    "in-flight packet of an unposted message"
                );
                (false, false)
            }
        };
        if placed {
            conn.counts.delivered_packets += 1;
            conn.counts.delivered_bytes += u64::from(pkt.bytes);
            if completed {
                let latency = conn.complete_message(msg, now);
                conn.counts.completed_messages += 1;
                stage_sample(Stage::TransportMsg, latency);
                self.completions.push_back((conn_id, msg, latency));
            }
        }
        // ACK travels back on the prioritized control path.
        let at = now + conn.ack_delay;
        self.queue.schedule(
            at,
            Ev::Ack {
                conn: conn_id,
                seq,
                ecn,
            },
        );
    }

    fn handle_ack(&mut self, conn_id: ConnId, seq: u64, ecn: bool) {
        let now = self.now();
        let i = conn_id.0 as usize;
        let conn = &mut self.conns[i];
        let Some(pkt) = conn.inflight.remove(seq) else {
            return; // duplicate ACK (original + retransmission)
        };
        self.dead_timers
            .note(pkt.sent_at + self.config.rto_after(u32::from(pkt.retx)));
        let (path, bytes) = (u32::from(pkt.path), u64::from(pkt.bytes));
        conn.inflight_bytes -= bytes;
        let rtt = now.saturating_duration_since(pkt.sent_at);
        // A delivered+acked packet proves the connection works: reset the
        // consecutive-recovery backoff ladder.
        conn.recovery_attempts = 0;
        conn.counts.acks += 1;
        stage_sample(Stage::TransportRtt, rtt);
        if ecn {
            conn.counts.ecn_acks += 1;
        }
        // Only feedback-driven selectors read the cold entry on an ACK.
        let selector = &mut self.cold[i].selector;
        debug_assert_eq!(conn.ack_feedback, selector.wants_ack());
        if conn.ack_feedback {
            selector.on_ack(path, rtt, ecn);
        }
        conn.cc.on_ack(now, bytes, rtt, ecn);
        self.pump(conn_id);
    }

    fn handle_rto(&mut self, conn_id: ConnId, seq: u64, epoch: u16) {
        let now = self.now();
        let i = conn_id.0 as usize;

        let (old_path, new_path, bytes, src, dst);
        {
            let conn = &mut self.conns[i];
            // The timer may outlive the packet it was armed for.
            let Some(pkt) = conn.inflight.get(seq) else {
                return; // ACKed in the meantime (or the connection died)
            };
            if pkt.retx != epoch {
                return; // a newer transmission owns the timer
            }
            let retx = u32::from(pkt.retx);
            // Retry budget: a packet that times out this many times in a
            // row means the peer is unreachable on every path tried — a
            // terminal QP error, not another retransmission.
            if retx >= self.config.retry_budget {
                self.fail_connection(
                    conn_id,
                    FatalError::RetryBudgetExhausted { seq, retries: retx },
                );
                return;
            }
            old_path = u32::from(pkt.path);
            bytes = u64::from(pkt.bytes);
            src = conn.src;
            dst = conn.dst;
            conn.cold.rto_events += 1;
            event(now, Subsystem::Transport, Entity::Conn(conn_id.0), "rto", u64::from(epoch));
            // Feed the loss scoreboard: repeated losses blacklist the path.
            let selector = &mut self.cold[i].selector;
            selector.on_loss_at(now, old_path);
            conn.ack_feedback = selector.wants_ack();
            // Retransmit on a different path for instant recovery.
            new_path = selector.select_at(now, Some(old_path));
            let pkt = conn.inflight.get_mut(seq).unwrap();
            pkt.retx += 1;
            pkt.sent_at = now;
            pkt.path = new_path as u16;
            conn.cold.retransmits += 1;
            // The budget gate above must fire before a packet's retx count
            // can pass the budget; checking at the increment (not just at
            // end-of-run quiesce) catches a broken gate in the transient
            // window before the connection is torn down.
            if stellar_check::enabled() {
                let retx = u32::from(pkt.retx);
                stellar_check::at_quiesce(now, stellar_check::Layer::Transport, |c| {
                    c.check(
                        "transport.retry_budget",
                        retx <= self.config.retry_budget,
                        || {
                            format!(
                                "conn {}: packet seq {seq} retransmitted {retx} times, budget {}",
                                conn_id.0, self.config.retry_budget
                            )
                        },
                    );
                });
            }
        }
        // The lost packet's path is one of `num_paths` sharing the CCC.
        self.conns[i].cc.on_rto(1.0 / self.config.num_paths as f64);

        let delivery = self
            .network
            .send(now, src, dst, conn_id.0 as u64, new_path, bytes);
        if let Delivery::Delivered { at, ecn } = delivery {
            self.queue.schedule(
                at,
                Ev::Deliver {
                    conn: conn_id,
                    seq,
                    ecn,
                },
            );
        }
        // Exponential backoff: each retransmit epoch waits longer (up to
        // RTO_MAX) before declaring the copy lost. The run loop re-arms
        // the connection's timer once this returns.
        let rto_seq = self.queue.reserve_seq();
        let pkt = self.conns[i]
            .inflight
            .get_mut(seq)
            .expect("the retransmitted packet is still in flight");
        pkt.rto_seq = rto_seq;
    }

    /// Process events until the queue drains or the next event is past
    /// `until`. Completion callbacks run in causal order.
    pub fn run<A: App<F>>(&mut self, app: &mut A, until: SimTime) {
        // One event at a time: a timer re-armed at the current nanosecond
        // must pop between the same-nanosecond events around its key.
        self.dead_timers.begin(until);
        while self.queue.peek_time().is_some_and(|t| t <= until) {
            let (_, ev) = self.queue.pop().expect("peeked event exists");
            match ev {
                Ev::Deliver { conn, seq, ecn } => self.handle_deliver(conn, seq, ecn),
                Ev::Ack { conn, seq, ecn } => self.handle_ack(conn, seq, ecn),
                Ev::Rto { conn, seq, epoch } => {
                    // Fire the packet the timer was armed for (if it is
                    // still waiting on that key), then re-arm at the
                    // earliest key left in flight.
                    let i = conn.0 as usize;
                    self.conns[i].armed = self.cold[i].armed_later.pop().unwrap_or(NO_TIMER);
                    self.handle_rto(conn, seq, epoch);
                    if let Some((key, seq, epoch)) = earliest_rto(&self.config, &self.conns[i]) {
                        let (c, cold) = (&mut self.conns[i], &mut self.cold[i]);
                        arm(c, cold, &mut self.queue, conn, key, seq, epoch);
                    }
                }
                Ev::Pace { conn } => {
                    self.conns[conn.0 as usize].pace_scheduled = false;
                    self.pump(conn);
                }
                Ev::AppTimer { token } => app.on_timer(self, token),
                Ev::Reconnect { conn } => self.handle_reconnect(conn),
            }
            while let Some((c, m, latency)) = self.completions.pop_front() {
                app.on_message_latency(self, c, m, latency);
                app.on_message_complete(self, c, m);
            }
            while let Some((c, e)) = self.errors.pop_front() {
                app.on_connection_error(self, c, e);
            }
            while let Some((c, d)) = self.recovered.pop_front() {
                app.on_connection_recovered(self, c, d);
            }
        }
        // Every completion is recorded by an event and dispatched right
        // after it, so no latency sample is left behind at return.
        debug_assert!(self.completions.is_empty(), "undispatched completions");
        // Packets that left flight have no timer to pop, so land the
        // clock where the last of their deadlines this run would have
        // left it.
        let deadline = self.dead_timers.end();
        self.queue.advance_clock(deadline);
        // Returning from `run` is a quiesce point: nothing is mid-event,
        // so every cross-layer ledger must balance.
        if stellar_check::enabled() {
            self.check_invariants(self.now());
        }
    }

    /// Run the transport conservation invariants at a quiesce point
    /// (no-op unless a `stellar_check` scope is active). Called
    /// automatically when [`TransportSim::run`] returns; also callable
    /// directly from tests. Cascades into the fabric's own checks.
    pub fn check_invariants(&self, at: SimTime) {
        stellar_check::at_quiesce(at, stellar_check::Layer::Transport, |c| {
            // A timer left behind by a connection with nothing in flight
            // would pop as a no-op: it holds no work.
            let idle_timers: usize = (0..self.conns.len())
                .filter(|&i| self.conns[i].inflight.is_empty())
                .map(|i| {
                    usize::from(self.conns[i].armed != NO_TIMER) + self.cold[i].armed_later.len()
                })
                .sum();
            let drained = self.queue.len() == idle_timers;
            for conn in &self.conns {
                let id = conn.id().0;
                if let Some((key, seq, _)) = earliest_rto(&self.config, conn) {
                    c.check(
                        "transport.rto_armed",
                        conn.armed <= key,
                        || {
                            format!(
                                "conn {id}: packet seq {seq} times out at {key:?} but the \
                                 earliest queued timer is {:?}",
                                conn.armed
                            )
                        },
                    );
                }
                let actual: u64 = conn.inflight.iter().map(|(_, p)| u64::from(p.bytes)).sum();
                c.check(
                    "transport.inflight_bytes",
                    conn.inflight_bytes == actual,
                    || {
                        format!(
                            "conn {id}: window gauge {} != sum of in-flight packets {}",
                            conn.inflight_bytes, actual
                        )
                    },
                );
                let worst = conn.inflight.iter().map(|(_, p)| u32::from(p.retx)).max().unwrap_or(0);
                c.check(
                    "transport.retry_budget",
                    worst <= self.config.retry_budget,
                    || {
                        format!(
                            "conn {id}: packet retransmitted {worst} times, budget {}",
                            self.config.retry_budget
                        )
                    },
                );
                let st = &conn.stats();
                c.check(
                    "transport.stats_conservation",
                    st.delivered_packets <= st.sent_packets
                        && st.acks <= st.sent_packets + st.retransmits
                        && st.ecn_acks <= st.acks,
                    || format!("conn {id}: counters out of balance: {st:?}"),
                );
                // Exactly-once across any number of recoveries: the
                // receiver bitmaps count each packet exactly once, so
                // their population (retired ledger + live window) must
                // equal the deduplicated delivered counter (a replayed
                // duplicate that slipped past the bitmap would inflate
                // it), full bitmaps must match the completion counter,
                // and — at a drained queue with the connection alive —
                // nothing may be lost: every posted message has a full
                // bitmap. Only the live window is walked.
                let (mut placed, mut completed, mut lost) =
                    (conn.cold.retired.placements, conn.cold.retired.messages, 0u64);
                for m in conn.live_messages() {
                    placed += m.received_count();
                    if m.fully_received() {
                        completed += 1;
                    } else {
                        lost += 1;
                    }
                }
                let no_loss = !drained || conn.state != ConnState::Active || lost == 0;
                c.check(
                    "transport.recovery_exactly_once",
                    placed == st.delivered_packets
                        && completed == st.completed_messages
                        && no_loss,
                    || {
                        format!(
                            "conn {id}: bitmap placements {placed} vs delivered {}, \
                             completed bitmaps {completed} vs counter {}, lost messages: {lost}",
                            st.delivered_packets, st.completed_messages,
                        )
                    },
                );
                // With the event queue drained nothing can make further
                // progress, so every connection must be at rest: idle if
                // Active, fully torn down if Error — and never stuck in
                // Recovering (a pending reconnect is a queued event, so
                // a drained queue with a Recovering connection means the
                // reconnect was lost).
                if drained {
                    let at_rest = !conn.has_unsent()
                        && conn.inflight.is_empty()
                        && conn.state != ConnState::Recovering
                        && (conn.state == ConnState::Active || conn.inflight_bytes == 0);
                    c.check("transport.idle_quiescence", at_rest, || {
                        format!(
                            "conn {id}: event queue drained but work remains \
                             ({} unsent, {} in flight, state {:?})",
                            conn.unsent(self.config.mtu).count(),
                            conn.inflight.len(),
                            conn.state
                        )
                    });
                }
            }
        });
        // The path layer's readmission law is a Net-layer invariant (it
        // governs which fabric paths traffic may use), issued from here
        // because the selectors live with the connections.
        stellar_check::at_quiesce(at, stellar_check::Layer::Net, |c| {
            for (conn, cold) in self.conns.iter().zip(&self.cold) {
                let id = conn.id().0;
                let sel = &cold.selector;
                c.check(
                    "net.blacklist_readmit",
                    sel.readmission_bounded(at),
                    || {
                        format!(
                            "conn {id}: a blacklisted path or quarantined plane has an \
                             unbounded readmission deadline (exiled forever)"
                        )
                    },
                );
            }
        });
        self.network.check_invariants(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_net::{ClosConfig, ClosTopology, NetworkConfig};

    /// Distinct path ids `conn`'s packets took, from the fabric's packet
    /// trace (enable it before the run).
    fn paths_used(sim: &mut TransportSim, conn: ConnId) -> usize {
        let trace = sim.network_mut().take_trace();
        let used: std::collections::BTreeSet<u32> = trace
            .iter()
            .filter(|r| r.flow == conn.0 as u64)
            .map(|r| r.path_id)
            .collect();
        used.len()
    }

    fn make_sim(algo: PathAlgo, num_paths: u32, seed: u64) -> TransportSim {
        make_sim_with(algo, num_paths, seed, |_| {})
    }

    /// [`make_sim`] with `change` applied to its transport config.
    fn make_sim_with(
        algo: PathAlgo,
        num_paths: u32,
        seed: u64,
        change: impl FnOnce(&mut TransportConfig),
    ) -> TransportSim {
        let mut config = TransportConfig {
            algo,
            num_paths,
            ..TransportConfig::default()
        };
        change(&mut config);
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 8,
        });
        let rng = SimRng::from_seed(seed);
        let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
        TransportSim::new(network, config, rng.fork("transport"))
    }

    const FOREVER: SimTime = SimTime::from_nanos(u64::MAX / 2);

    /// An event is two words: an RTO's epoch fits the `u16` retry
    /// budget, so every queue node and ready entry carries 16 bytes of
    /// payload. A cold entry is the 256-byte selector and the 24-byte
    /// timer stack, which the selector's 128-byte alignment rounds up to
    /// three blocks.
    #[test]
    fn event_and_cold_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<Ev>(), 16);
        let fields = std::mem::size_of::<PathSelector>() + std::mem::size_of::<Vec<RtoKey>>();
        assert_eq!(fields, 280);
        assert_eq!(std::mem::size_of::<Cold>(), 384);
    }

    /// `validate` on the default config with one field changed.
    fn validate_with(
        change: impl FnOnce(&mut TransportConfig),
    ) -> Result<(), TransportConfigError> {
        let mut config = TransportConfig::default();
        change(&mut config);
        config.validate()
    }

    #[test]
    fn validate_accepts_the_default_and_the_edges() {
        assert_eq!(validate_with(|_| {}), Ok(()));
        assert_eq!(validate_with(|c| c.num_paths = 1), Ok(()));
        assert_eq!(validate_with(|c| c.num_paths = 256), Ok(()));
        assert_eq!(validate_with(|c| c.rto_backoff = 1.0), Ok(()));
        assert_eq!(validate_with(|c| c.pace_gbps = Some(0.5)), Ok(()));
    }

    #[test]
    fn validate_rejects_a_path_count_outside_1_to_256() {
        for n in [0, 257] {
            assert_eq!(
                validate_with(|c| c.num_paths = n),
                Err(TransportConfigError::NumPaths(n))
            );
        }
    }

    #[test]
    fn validate_rejects_a_zero_mtu() {
        assert_eq!(
            validate_with(|c| c.mtu = 0),
            Err(TransportConfigError::ZeroMtu)
        );
    }

    #[test]
    fn validate_rejects_a_pace_rate_that_is_not_finite_and_positive() {
        for rate in [0.0, -1.0, f64::INFINITY] {
            assert_eq!(
                validate_with(|c| c.pace_gbps = Some(rate)),
                Err(TransportConfigError::PaceRate(rate))
            );
        }
        let nan = validate_with(|c| c.pace_gbps = Some(f64::NAN));
        assert!(matches!(nan, Err(TransportConfigError::PaceRate(r)) if r.is_nan()));
    }

    #[test]
    fn validate_rejects_an_rto_backoff_below_1_or_nan() {
        assert_eq!(
            validate_with(|c| c.rto_backoff = 0.5),
            Err(TransportConfigError::RtoBackoff(0.5))
        );
        let nan = validate_with(|c| c.rto_backoff = f64::NAN);
        assert!(matches!(nan, Err(TransportConfigError::RtoBackoff(b)) if b.is_nan()));
    }

    #[test]
    fn validate_rejects_what_the_in_flight_record_cannot_hold() {
        let big = u64::from(u32::MAX) + 1;
        assert_eq!(
            validate_with(|c| c.mtu = big),
            Err(TransportConfigError::MtuAbove4GiB(big))
        );
        assert_eq!(validate_with(|c| c.mtu = u64::from(u32::MAX)), Ok(()));
        assert_eq!(
            validate_with(|c| c.retry_budget = 65_536),
            Err(TransportConfigError::RetryBudget(65_536))
        );
        assert_eq!(validate_with(|c| c.retry_budget = 65_535), Ok(()));
    }

    /// A blacklist deadline `now + penalty` past the wheel's horizon
    /// would overflow the clock near `u64::MAX` ns.
    #[test]
    fn validate_rejects_a_scoreboard_penalty_beyond_the_wheel_horizon() {
        let edge = |c: &mut TransportConfig| c.scoreboard.penalty = WHEEL_HORIZON;
        assert_eq!(validate_with(edge), Ok(()));
        let value = SimDuration::from_nanos(u64::MAX);
        let err = validate_with(|c| c.scoreboard.penalty = value).unwrap_err();
        assert_eq!(
            err,
            TransportConfigError::BeyondHorizon {
                field: "scoreboard.penalty",
                value,
            }
        );
        assert_eq!(
            err.to_string(),
            "transport config: scoreboard.penalty 18446744073709551615 ns is beyond \
             the timing wheel's horizon 1099511627776 ns"
        );
    }

    /// A reconnect delay `backoff + reestablish` past the wheel's
    /// horizon would overflow near `u64::MAX` ns.
    #[test]
    fn validate_rejects_a_reestablish_cost_beyond_the_wheel_horizon() {
        let with = |reestablish| {
            validate_with(|c| c.recovery = Some(RecoveryPolicy { reestablish }))
        };
        assert_eq!(with(WHEEL_HORIZON), Ok(()));
        let value = WHEEL_HORIZON + SimDuration::from_nanos(1);
        assert_eq!(
            with(value),
            Err(TransportConfigError::BeyondHorizon {
                field: "recovery.reestablish",
                value,
            })
        );
    }

    /// A paced packet schedules the next send one transmit time ahead:
    /// at a rate so low that one `mtu` packet takes longer than the
    /// wheel's horizon, the pacing wake-up would land past it.
    #[test]
    fn validate_rejects_a_pace_rate_whose_packet_time_is_beyond_the_wheel_horizon() {
        // One 4 KiB packet takes 2^15 / rate ns: the horizon at 2^-25 Gbps.
        let edge = 32_768.0 / WHEEL_HORIZON.as_nanos() as f64;
        assert_eq!(validate_with(|c| c.pace_gbps = Some(edge)), Ok(()));
        for rate in [edge / 2.0, 1e-300] {
            let value = stellar_sim::transmit_time(4096, rate);
            assert!(value > WHEEL_HORIZON);
            assert_eq!(
                validate_with(|c| c.pace_gbps = Some(rate)),
                Err(TransportConfigError::BeyondHorizon {
                    field: "pace_gbps",
                    value,
                })
            );
        }
    }

    /// The constructor stops the same rate, with the error's message,
    /// instead of the timing wheel panicking at the first paced send.
    #[test]
    #[should_panic(expected = "transport config: pace_gbps 18446744073709551615 ns is beyond \
                               the timing wheel's horizon 1099511627776 ns")]
    fn constructor_rejects_a_pace_rate_beyond_the_wheel_horizon() {
        make_sim_with(PathAlgo::Obs, 128, 1, |c| c.pace_gbps = Some(1e-300));
    }

    /// An invalid config stops at the constructor, with the error's
    /// message, not at the first connection.
    #[test]
    #[should_panic(expected = "transport config: num_paths 0 is outside 1..=256")]
    fn constructor_rejects_an_invalid_config() {
        make_sim(PathAlgo::Obs, 0, 1);
    }


    #[test]
    fn single_message_completes() {
        let mut sim = make_sim(PathAlgo::Obs, 128, 1);
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let conn = sim.add_connection(src, dst);
        let msg = sim.post_message(conn, 1024 * 1024);
        let mut log = CompletionLog::new();
        sim.run(&mut log, FOREVER);
        let done = log.completed_at(conn, msg).expect("completed");
        assert!(done > SimTime::ZERO);
        let st = sim.conn_stats(conn);
        assert_eq!(st.delivered_bytes, 1024 * 1024);
        assert_eq!(st.completed_messages, 1);
        assert!(sim.all_idle());
    }

    /// `reset` restores every queue observable — `now`, the
    /// `scheduled_total` counter behind [`TransportSim::events_scheduled`]
    /// and the `peak_len` high-water mark behind
    /// [`TransportSim::queue_peak_len`] — to its initial state
    /// (`EventQueue::clear` semantics), and a reset sim replays a
    /// workload to the exact same schedule as a freshly constructed one.
    #[test]
    fn reset_restores_queue_observables_and_replays_identically() {
        let run = |sim: &mut TransportSim| {
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(4, 0);
            let conn = sim.add_connection(src, dst);
            let msg = sim.post_message(conn, 256 * 1024);
            let mut log = CompletionLog::new();
            sim.run(&mut log, FOREVER);
            (
                log.completed_at(conn, msg).expect("completed"),
                sim.events_scheduled(),
                sim.queue_peak_len(),
            )
        };
        let mut sim = make_sim(PathAlgo::Obs, 8, 5);
        let first = run(&mut sim);
        assert!(first.1 > 0 && first.2 > 0);
        assert!(sim.now() > SimTime::ZERO);

        // Rebuild the exact network + RNG streams the constructor used.
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 8,
        });
        let rng = SimRng::from_seed(5);
        let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
        sim.reset(network, rng.fork("transport"));
        assert_eq!(sim.now(), SimTime::ZERO, "reset must rewind the clock");
        assert_eq!(sim.events_scheduled(), 0, "reset must zero scheduled_total");
        assert_eq!(sim.queue_peak_len(), 0, "reset must zero peak_len");

        let second = run(&mut sim);
        assert_eq!(
            first, second,
            "a reset sim must be observably identical to a fresh one"
        );
    }

    /// A connection whose queued timer went missing while packets are in
    /// flight fails `transport.rto_armed` at the next quiesce point.
    #[test]
    fn rto_armed_catches_a_lost_timer() {
        let mut sim = make_sim(PathAlgo::Obs, 8, 9);
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let conn = sim.add_connection(src, dst);
        sim.post_message(conn, 1 << 20);
        sim.run(&mut NoopApp, SimTime::ZERO + SimDuration::from_micros(5));
        assert!(!sim.conns[conn.0 as usize].inflight.is_empty());
        let lost_timer = |sim: &TransportSim| {
            let (_, report) = stellar_check::capture(|| sim.check_invariants(sim.now()));
            report
                .violations
                .iter()
                .any(|v| v.invariant == "transport.rto_armed")
        };
        assert!(!lost_timer(&sim), "the armed timer passes");
        sim.conns[conn.0 as usize].armed = NO_TIMER;
        sim.cold[conn.0 as usize].armed_later.clear();
        assert!(lost_timer(&sim), "a missing timer is reported");
    }

    #[test]
    fn throughput_near_line_rate_for_big_transfer() {
        let mut sim = make_sim(PathAlgo::Obs, 128, 2);
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let conn = sim.add_connection(src, dst);
        let bytes = 64 * 1024 * 1024u64;
        let msg = sim.post_message(conn, bytes);
        let mut log = CompletionLog::new();
        sim.run(&mut log, FOREVER);
        let done = log.completed_at(conn, msg).unwrap();
        let gbps = stellar_sim::stats::gbps(bytes, done.duration_since(SimTime::ZERO));
        // 200 Gbps links; expect well over half of line rate.
        assert!(gbps > 120.0, "gbps={gbps}");
    }

    #[test]
    fn spray_uses_many_paths_single_uses_one() {
        let mut spray = make_sim(PathAlgo::Obs, 128, 3);
        let src = spray.network().topology().nic(0, 0);
        let dst = spray.network().topology().nic(4, 0);
        let c = spray.add_connection(src, dst);
        spray.network_mut().enable_trace(1 << 16);
        spray.post_message(c, 8 * 1024 * 1024);
        spray.run(&mut NoopApp, FOREVER);
        assert!(paths_used(&mut spray, c) > 64);

        let mut single = make_sim(PathAlgo::SinglePath, 128, 3);
        let c2 = single.add_connection(src, dst);
        single.network_mut().enable_trace(1 << 16);
        single.post_message(c2, 8 * 1024 * 1024);
        single.run(&mut NoopApp, FOREVER);
        assert_eq!(paths_used(&mut single, c2), 1);
    }

    #[test]
    fn loss_is_recovered_by_rto_on_other_paths() {
        let mut sim = make_sim(PathAlgo::Obs, 128, 4);
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        // 1% loss on one agg uplink used by some paths.
        let link = sim.network().topology().route(src, dst, 0, 0)[1];
        sim.network_mut().set_loss(link, 0.01);
        let conn = sim.add_connection(src, dst);
        let msg = sim.post_message(conn, 16 * 1024 * 1024);
        sim.run(&mut NoopApp, FOREVER);
        assert!(sim.message_done(conn, msg));
        let st = sim.conn_stats(conn);
        assert_eq!(st.delivered_bytes, 16 * 1024 * 1024);
    }

    #[test]
    fn total_link_failure_recovers_via_path_exclusion() {
        let mut sim = make_sim(PathAlgo::Obs, 128, 5);
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let link = sim.network().topology().route(src, dst, 0, 7)[1];
        sim.network_mut().set_link_up(link, false);
        let conn = sim.add_connection(src, dst);
        let msg = sim.post_message(conn, 4 * 1024 * 1024);
        sim.run(&mut NoopApp, FOREVER);
        assert!(sim.message_done(conn, msg));
        assert!(sim.conn_stats(conn).retransmits > 0);
    }

    #[test]
    fn congestion_marks_shrink_window() {
        // Many connections into one destination NIC (incast): queues grow,
        // ECN fires, windows shrink, everything still completes.
        let mut sim = make_sim(PathAlgo::Obs, 128, 6);
        let dst = sim.network().topology().nic(0, 0);
        let mut conns = Vec::new();
        for h in 1..8 {
            let src = sim.network().topology().nic(h, 0);
            let c = sim.add_connection(src, dst);
            sim.post_message(c, 4 * 1024 * 1024);
            conns.push(c);
        }
        sim.run(&mut NoopApp, FOREVER);
        let total_ecn: u64 = conns.iter().map(|&c| sim.conn_stats(c).ecn_acks).sum();
        assert!(total_ecn > 0, "incast must trigger ECN");
        for &c in &conns {
            assert_eq!(sim.conn_stats(c).delivered_bytes, 4 * 1024 * 1024);
        }
    }

    #[test]
    fn app_callback_chains_messages() {
        struct Chain {
            remaining: u32,
            completions: u32,
        }
        impl App for Chain {
            fn on_message_complete(&mut self, sim: &mut TransportSim, conn: ConnId, _m: MsgId) {
                self.completions += 1;
                if self.remaining > 0 {
                    self.remaining -= 1;
                    sim.post_message(conn, 256 * 1024);
                }
            }
        }
        let mut sim = make_sim(PathAlgo::RoundRobin, 16, 7);
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let conn = sim.add_connection(src, dst);
        sim.post_message(conn, 256 * 1024);
        let mut app = Chain {
            remaining: 9,
            completions: 0,
        };
        sim.run(&mut app, FOREVER);
        assert_eq!(app.completions, 10);
        assert_eq!(sim.conn_stats(conn).completed_messages, 10);
    }

    #[test]
    fn pacing_stretches_transmission_to_the_configured_rate() {
        let run = |pace: Option<f64>| -> u64 {
            let topo = ClosTopology::build(ClosConfig {
                segments: 1,
                hosts_per_segment: 2,
                rails: 1,
                planes: 1,
                aggs_per_plane: 1,
            });
            let rng = SimRng::from_seed(3);
            let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
            let mut sim = TransportSim::new(
                network,
                TransportConfig {
                    pace_gbps: pace,
                    ..TransportConfig::default()
                },
                rng.fork("t"),
            );
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(1, 0);
            let conn = sim.add_connection(src, dst);
            let msg = sim.post_message(conn, 4 * 1024 * 1024);
            let mut log = CompletionLog::new();
            sim.run(&mut log, FOREVER);
            log.completed_at(conn, msg).unwrap().as_nanos()
        };
        let unpaced = run(None);
        let paced_50g = run(Some(50.0));
        // 4 MB at 50 Gbps ≈ 671 µs; the unpaced transfer rides the
        // 200 Gbps link.
        assert!(paced_50g > unpaced * 2, "paced {paced_50g} unpaced {unpaced}");
        let expect_ns = 4.0 * 1024.0 * 1024.0 * 8.0 / 50.0;
        let ratio = paced_50g as f64 / expect_ns;
        assert!((0.9..1.3).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn latency_histogram_reflects_message_sizes() {
        let mut sim = make_sim(PathAlgo::Obs, 32, 13);
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let conn = sim.add_connection(src, dst);
        let mut msgs: Vec<MsgId> = (0..4).map(|_| sim.post_message(conn, 16 * 1024)).collect();
        let mut log = CompletionLog::new();
        sim.run(&mut log, FOREVER);
        msgs.push(sim.post_message(conn, 8 * 1024 * 1024));
        sim.run(&mut log, FOREVER);
        let mut h = stellar_sim::stats::Histogram::new();
        for &m in &msgs {
            h.record_duration(log.latency(conn, m).expect("every message completed"));
        }
        let p = h.percentiles();
        assert_eq!(p.count(), 5);
        // The big message is the tail.
        let p50 = p.p50().unwrap();
        let max = p.max().unwrap();
        assert!(max > p50 * 10, "p50={p50} max={max}");
    }

    #[test]
    fn rto_backoff_grows_and_caps() {
        let sim = make_sim(PathAlgo::Obs, 4, 1);
        // Defaults: rto 250 µs, backoff 2.0, cap 4 ms.
        assert_eq!(sim.config().rto_after(0), SimDuration::from_micros(250));
        assert_eq!(sim.config().rto_after(1), SimDuration::from_micros(500));
        assert_eq!(sim.config().rto_after(2), SimDuration::from_micros(1000));
        assert_eq!(sim.config().rto_after(4), SimDuration::from_millis(4));
        assert_eq!(sim.config().rto_after(30), SimDuration::from_millis(4));
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_error() {
        // Cut the destination NIC off entirely (both planes) with slow
        // BGP so no reroute ever helps: the retry budget must trip and
        // the connection must die instead of retransmitting forever.
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 8,
        });
        let rng = SimRng::from_seed(9);
        let net_cfg = NetworkConfig {
            bgp_convergence: SimDuration::from_millis(10_000),
        };
        let network = Network::new(topo, net_cfg, rng.fork("net"));
        let mut sim = TransportSim::new(
            network,
            TransportConfig {
                algo: PathAlgo::Obs,
                num_paths: 32,
                retry_budget: 6,
                ..TransportConfig::default()
            },
            rng.fork("t"),
        );
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let conn = sim.add_connection(src, dst);
        for plane in 0..2 {
            let (up, down) = sim.network().topology().nic_port_links(dst, plane);
            sim.network_mut().set_link_up(up, false);
            sim.network_mut().set_link_up(down, false);
        }
        struct Watch {
            errors: Vec<(ConnId, FatalError)>,
        }
        impl App for Watch {
            fn on_message_complete(&mut self, _s: &mut TransportSim, _c: ConnId, _m: MsgId) {}
            fn on_connection_error(
                &mut self,
                _s: &mut TransportSim,
                c: ConnId,
                e: FatalError,
            ) {
                self.errors.push((c, e));
            }
        }
        sim.post_message(conn, 64 * 1024);
        let mut app = Watch { errors: Vec::new() };
        sim.run(&mut app, FOREVER);
        assert_eq!(sim.conn_state(conn), ConnState::Error);
        assert_eq!(sim.failed_connections(), 1);
        assert_eq!(app.errors.len(), 1);
        let (c, e) = app.errors[0];
        assert_eq!(c, conn);
        assert!(matches!(
            e,
            FatalError::RetryBudgetExhausted { retries: 6, .. }
        ));
        assert_eq!(sim.conn_error(conn), Some(e));
        // Teardown discarded the traffic: the sim is idle, not stuck.
        assert!(sim.all_idle());
        // The budget bounds every packet's retransmissions.
        assert!(sim.conn_stats(conn).retransmits <= 6 * 17);
    }

    /// With plane failover on, the dead plane's blacklisted majority
    /// also quarantines the plane. The sim reports both counts to
    /// telemetry when it drops.
    #[test]
    fn scoreboard_blacklists_paths_crossing_a_dead_link() {
        use crate::path::PlaneFailover;
        use stellar_telemetry::{capture, Subsystem};

        for failover in [false, true] {
            let (exiles, tel) = capture(|| {
                let mut sim = make_sim_with(PathAlgo::Obs, 64, 14, |c| {
                    c.plane_failover = failover.then_some(PlaneFailover);
                });
                let src = sim.network().topology().nic(0, 0);
                let dst = sim.network().topology().nic(4, 0);
                // Kill one NIC uplink (plane 0) with slow BGP: roughly half the
                // paths cross it and keep losing until blacklisted.
                let (up, _) = sim.network().topology().nic_port_links(src, 0);
                sim.network_mut().config_mut().bgp_convergence = SimDuration::from_millis(10_000);
                sim.network_mut().set_link_up(up, false);
                let conn = sim.add_connection(src, dst);
                let msg = sim.post_message(conn, 8 * 1024 * 1024);
                sim.run(&mut NoopApp, FOREVER);
                assert!(sim.message_done(conn, msg));
                // At some point during the run, paths were blacklisted (they may
                // have expired since; check the scoreboard high-water mark via
                // consecutive_losses on plane-0 paths).
                let sel = sim.selector(conn);
                let poisoned = (0..sel.num_paths())
                    .filter(|&p| {
                        sel.path(p).consecutive_losses >= 2
                            || sel.path(p).blacklisted_until > SimTime::ZERO
                    })
                    .count();
                assert!(poisoned > 0, "dead-plane paths must hit the scoreboard");
                sel.exiles()
            });
            let hub = |name| tel.hub.get(Subsystem::Transport, name);
            assert_eq!(hub("scoreboard.blacklist"), exiles.0);
            assert_eq!(hub("scoreboard.plane_quarantine"), exiles.1);
            assert!(exiles.0 > 0);
            assert_eq!(exiles.1 > 0, failover, "failover {failover}: {exiles:?}");
        }
    }

    #[test]
    fn total_stats_matches_per_conn_sum() {
        let mut sim = make_sim(PathAlgo::Obs, 32, 15);
        let dst = sim.network().topology().nic(0, 0);
        let mut conns = Vec::new();
        for h in 1..4 {
            let src = sim.network().topology().nic(h, 0);
            let c = sim.add_connection(src, dst);
            sim.post_message(c, 1024 * 1024);
            conns.push(c);
        }
        sim.run(&mut NoopApp, FOREVER);
        let total = sim.total_stats();
        let by_hand: u64 = conns.iter().map(|&c| sim.conn_stats(c).delivered_bytes).sum();
        assert_eq!(total.delivered_bytes, by_hand);
        assert_eq!(total.delivered_bytes, 3 * 1024 * 1024);
        let acks: u64 = conns.iter().map(|&c| sim.conn_stats(c).acks).sum();
        assert_eq!(total.acks, acks);
    }

    #[test]
    fn backoff_disabled_matches_fixed_rto() {
        let sim = {
            let topo = ClosTopology::build(ClosConfig {
                segments: 1,
                hosts_per_segment: 2,
                rails: 1,
                planes: 1,
                aggs_per_plane: 1,
            });
            let rng = SimRng::from_seed(2);
            let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
            TransportSim::new(
                network,
                TransportConfig {
                    rto_backoff: 1.0,
                    ..TransportConfig::default()
                },
                rng.fork("t"),
            )
        };
        for epoch in 0..10 {
            assert_eq!(sim.config().rto_after(epoch), RTO);
        }
    }

    #[test]
    fn reset_sim_is_observably_identical_to_fresh() {
        let topo_cfg = ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 8,
        };
        let run = |sim: &mut TransportSim| -> (u64, u64, u64) {
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(4, 0);
            let conn = sim.add_connection(src, dst);
            let msg = sim.post_message(conn, 4 * 1024 * 1024);
            let mut log = CompletionLog::new();
            sim.run(&mut log, FOREVER);
            let st = sim.conn_stats(conn);
            (
                log.completed_at(conn, msg).unwrap().as_nanos(),
                st.sent_packets,
                st.ecn_acks,
            )
        };
        // Fresh sim, seed 21.
        let mut fresh = make_sim(PathAlgo::Obs, 128, 21);
        let fresh_result = run(&mut fresh);
        // A sim that already ran seed 42, reset onto seed 21's fabric.
        let mut recycled = make_sim(PathAlgo::Obs, 128, 42);
        run(&mut recycled);
        let rng = SimRng::from_seed(21);
        let network = Network::new(
            ClosTopology::build(topo_cfg),
            NetworkConfig::default(),
            rng.fork("net"),
        );
        recycled.reset(network, rng.fork("transport"));
        assert_eq!(recycled.connection_count(), 0);
        assert_eq!(recycled.now(), SimTime::ZERO);
        assert_eq!(run(&mut recycled), fresh_result);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || -> (u64, u64, u64) {
            let mut sim = make_sim(PathAlgo::Obs, 128, 42);
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(4, 0);
            let conn = sim.add_connection(src, dst);
            let msg = sim.post_message(conn, 8 * 1024 * 1024);
            let mut log = CompletionLog::new();
            sim.run(&mut log, FOREVER);
            let st = sim.conn_stats(conn);
            (
                log.completed_at(conn, msg).unwrap().as_nanos(),
                st.sent_packets,
                st.ecn_acks,
            )
        };
        assert_eq!(run(), run());
    }

    /// Every `run` return is a quiesce point under `stellar_check`: a
    /// lossy transfer (drops, RTOs, retransmissions) and a torn-down
    /// connection must both leave every transport and fabric ledger
    /// balanced.
    #[test]
    fn invariants_hold_across_loss_and_connection_teardown() {
        stellar_check::strict(|| {
            // Lossy but recoverable transfer.
            let mut sim = make_sim(PathAlgo::Obs, 128, 4);
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(4, 0);
            let link = sim.network().topology().route(src, dst, 0, 0)[1];
            sim.network_mut().set_loss(link, 0.02);
            let conn = sim.add_connection(src, dst);
            let msg = sim.post_message(conn, 8 * 1024 * 1024);
            sim.run(&mut NoopApp, FOREVER);
            assert!(sim.message_done(conn, msg));

            // Unreachable peer: the connection dies, and the torn-down
            // state must still satisfy idle quiescence.
            let mut dead = make_sim(PathAlgo::Obs, 32, 9);
            let src = dead.network().topology().nic(0, 0);
            let dst = dead.network().topology().nic(4, 0);
            dead.network_mut().config_mut().bgp_convergence =
                SimDuration::from_millis(10_000);
            for plane in 0..2 {
                let (up, down) = dead.network().topology().nic_port_links(dst, plane);
                dead.network_mut().set_link_up(up, false);
                dead.network_mut().set_link_up(down, false);
            }
            let conn = dead.add_connection(src, dst);
            dead.post_message(conn, 64 * 1024);
            dead.run(&mut NoopApp, FOREVER);
            assert_eq!(dead.conn_state(conn), ConnState::Error);
        });
    }

    /// The full recovery cycle: an unreachable peer trips the retry
    /// budget, the connection tears down and recovers (repeatedly, up
    /// the backoff ladder) until a timer restores the links — then the
    /// replay delivers every remaining byte exactly once.
    #[test]
    fn recovery_reestablishes_and_replays_exactly_once() {
        stellar_check::strict(|| {
            let topo = ClosTopology::build(ClosConfig {
                segments: 2,
                hosts_per_segment: 4,
                rails: 1,
                planes: 2,
                aggs_per_plane: 8,
            });
            let rng = SimRng::from_seed(9);
            let net_cfg = NetworkConfig {
                bgp_convergence: SimDuration::from_millis(10_000),
            };
            let network = Network::new(topo, net_cfg, rng.fork("net"));
            let mut sim = TransportSim::new(
                network,
                TransportConfig {
                    algo: PathAlgo::Obs,
                    num_paths: 32,
                    retry_budget: 6,
                    recovery: Some(RecoveryPolicy::default()),
                    ..TransportConfig::default()
                },
                rng.fork("t"),
            );
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(4, 0);
            let conn = sim.add_connection(src, dst);
            let mut dead_links = Vec::new();
            for plane in 0..2 {
                let (up, down) = sim.network().topology().nic_port_links(dst, plane);
                sim.network_mut().set_link_up(up, false);
                sim.network_mut().set_link_up(down, false);
                dead_links.push(up);
                dead_links.push(down);
            }
            struct Restore {
                links: Vec<stellar_net::LinkId>,
                recoveries: u32,
                errors: u32,
                min_downtime: SimDuration,
            }
            impl App for Restore {
                fn on_message_complete(&mut self, _s: &mut TransportSim, _c: ConnId, _m: MsgId) {}
                fn on_timer(&mut self, sim: &mut TransportSim, _t: u64) {
                    let now = sim.now();
                    for &l in &self.links {
                        sim.network_mut().set_link_state_at(now, l, true);
                    }
                }
                fn on_connection_error(&mut self, _s: &mut TransportSim, _c: ConnId, _e: FatalError) {
                    self.errors += 1;
                }
                fn on_connection_recovered(
                    &mut self,
                    _s: &mut TransportSim,
                    _c: ConnId,
                    downtime: SimDuration,
                ) {
                    self.recoveries += 1;
                    if downtime < self.min_downtime {
                        self.min_downtime = downtime;
                    }
                }
            }
            let msg = sim.post_message(conn, 64 * 1024);
            sim.schedule_timer(SimTime::from_nanos(20_000_000), 0); // 20 ms
            let mut app = Restore {
                links: dead_links,
                recoveries: 0,
                errors: 0,
                min_downtime: SimDuration::from_nanos(u64::MAX),
            };
            sim.run(&mut app, FOREVER);

            assert!(sim.message_done(conn, msg), "message survives");
            assert_eq!(sim.conn_state(conn), ConnState::Active);
            assert_eq!(sim.failed_connections(), 0);
            assert_eq!(sim.recovering_count(), 0);
            assert_eq!(app.errors, 0, "recovery must absorb the fatal error");
            let st = sim.conn_stats(conn);
            assert!(app.recoveries >= 1, "at least one recovery cycle ran");
            assert_eq!(u64::from(app.recoveries), st.recoveries);
            assert!(st.replayed_packets >= 16, "the 16-packet message was replayed");
            // Exactly once: every byte delivered once, no duplicates
            // counted, exactly one completion.
            assert_eq!(st.delivered_bytes, 64 * 1024);
            assert_eq!(st.delivered_packets, 16);
            assert_eq!(st.completed_messages, 1);
            // Downtime includes at least the base reconnect delay.
            assert!(
                app.min_downtime >= RecoveryPolicy::default().reconnect_delay(0),
                "downtime {:?} below the reconnect delay",
                app.min_downtime
            );
            assert!(sim.all_idle());
        });
    }

    /// Exhausting the 16 consecutive recoveries makes the error
    /// terminal: the app sees `on_connection_error`, not an infinite
    /// reconnect loop.
    #[test]
    fn recovery_budget_exhaustion_is_terminal() {
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 8,
        });
        let rng = SimRng::from_seed(9);
        let net_cfg = NetworkConfig {
            bgp_convergence: SimDuration::from_millis(10_000),
        };
        let network = Network::new(topo, net_cfg, rng.fork("net"));
        let mut sim = TransportSim::new(
            network,
            TransportConfig {
                algo: PathAlgo::Obs,
                num_paths: 32,
                retry_budget: 6,
                recovery: Some(RecoveryPolicy::default()),
                ..TransportConfig::default()
            },
            rng.fork("t"),
        );
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let conn = sim.add_connection(src, dst);
        for plane in 0..2 {
            let (up, down) = sim.network().topology().nic_port_links(dst, plane);
            sim.network_mut().set_link_up(up, false);
            sim.network_mut().set_link_up(down, false);
        }
        struct Watch {
            errors: u32,
            recoveries: u32,
        }
        impl App for Watch {
            fn on_message_complete(&mut self, _s: &mut TransportSim, _c: ConnId, _m: MsgId) {}
            fn on_connection_error(&mut self, _s: &mut TransportSim, _c: ConnId, _e: FatalError) {
                self.errors += 1;
            }
            fn on_connection_recovered(
                &mut self,
                _s: &mut TransportSim,
                _c: ConnId,
                _d: SimDuration,
            ) {
                self.recoveries += 1;
            }
        }
        sim.post_message(conn, 64 * 1024);
        let mut app = Watch {
            errors: 0,
            recoveries: 0,
        };
        sim.run(&mut app, FOREVER);
        assert_eq!(sim.conn_state(conn), ConnState::Error);
        assert_eq!(sim.failed_connections(), 1);
        assert_eq!(app.errors, 1);
        assert_eq!(
            app.recoveries, MAX_RECOVERY_ATTEMPTS,
            "every attempt ran before giving up"
        );
        assert!(sim.conn_error(conn).is_some());
        assert!(sim.all_idle());
    }

    /// Recovery enabled on a fault-free run is a pure no-op: the policy
    /// draws no RNG and schedules nothing until a failure occurs, so the
    /// runs are observably identical (the golden-corpus guarantee).
    #[test]
    fn fault_free_run_is_identical_with_recovery_enabled() {
        let run = |recovery: Option<RecoveryPolicy>| {
            let topo = ClosTopology::build(ClosConfig {
                segments: 2,
                hosts_per_segment: 4,
                rails: 1,
                planes: 2,
                aggs_per_plane: 8,
            });
            let rng = SimRng::from_seed(17);
            let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
            let mut sim = TransportSim::new(
                network,
                TransportConfig {
                    recovery,
                    ..TransportConfig::default()
                },
                rng.fork("transport"),
            );
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(4, 0);
            let conn = sim.add_connection(src, dst);
            let msg = sim.post_message(conn, 4 * 1024 * 1024);
            let mut log = CompletionLog::new();
            sim.run(&mut log, FOREVER);
            (
                log.completed_at(conn, msg).unwrap().as_nanos(),
                sim.total_stats(),
                sim.events_scheduled(),
            )
        };
        assert_eq!(run(None), run(Some(RecoveryPolicy::default())));
    }

    #[test]
    fn reconnect_delay_backs_off_and_caps() {
        let p = RecoveryPolicy::default();
        // base 1 ms, mult 2.0, cap 100 ms, reestablish 120 µs.
        let re = SimDuration::from_micros(120);
        assert_eq!(p.reconnect_delay(0), SimDuration::from_millis(1) + re);
        assert_eq!(p.reconnect_delay(1), SimDuration::from_millis(2) + re);
        assert_eq!(p.reconnect_delay(3), SimDuration::from_millis(8) + re);
        assert_eq!(p.reconnect_delay(30), SimDuration::from_millis(100) + re);
    }

    /// A copy of a packet whose message already retired (what an RTO
    /// retransmission racing its original's ACK delivers) is a
    /// duplicate: nothing is placed, counted or completed twice, and the
    /// exactly-once ledger still balances.
    #[test]
    fn late_copy_for_a_retired_message_is_absorbed() {
        let start = |sim: &mut TransportSim| {
            let src = sim.network().topology().nic(0, 0);
            let dst = sim.network().topology().nic(4, 0);
            let conn = sim.add_connection(src, dst);
            (conn, sim.post_message(conn, 64 * 1024))
        };
        // A probe run finds the completion time: the last packet lands
        // then, and its ACK is still on the way back.
        let mut probe = make_sim(PathAlgo::Obs, 32, 22);
        let (conn, msg) = start(&mut probe);
        let mut log = CompletionLog::new();
        probe.run(&mut log, FOREVER);
        let done = log.completed_at(conn, msg).expect("completed");

        stellar_check::strict(|| {
            let mut sim = make_sim(PathAlgo::Obs, 32, 22);
            start(&mut sim);
            sim.run(&mut NoopApp, done);
            assert!(sim.message_done(conn, msg));
            assert_eq!(sim.live_message_count(conn), 0, "the message retired");
            let before = sim.conn_stats(conn);
            let inflight = &sim.conns[conn.0 as usize].inflight;
            let seq = (0..before.sent_packets)
                .find(|&s| inflight.get(s).is_some())
                .expect("an ACK is still in flight");
            sim.queue.schedule(
                done,
                Ev::Deliver {
                    conn,
                    seq,
                    ecn: false,
                },
            );
            sim.run(&mut NoopApp, FOREVER);
            let after = sim.conn_stats(conn);
            assert_eq!(after.delivered_packets, before.delivered_packets);
            assert_eq!(after.delivered_bytes, 64 * 1024);
            assert_eq!(after.completed_messages, 1);
            assert_eq!(after, probe.conn_stats(conn), "the copy changed nothing");
            assert!(sim.all_idle());
        });
    }

    /// A sim with a recovery policy whose one connection had its device
    /// churned 20 µs into a 4 MiB (1,024-packet) message: the connection
    /// is Recovering and the message is incomplete.
    fn churned_mid_transfer(seed: u64) -> (TransportSim, ConnId, MsgId) {
        let topo = ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 1,
            planes: 2,
            aggs_per_plane: 8,
        });
        let rng = SimRng::from_seed(seed);
        let network = Network::new(topo, NetworkConfig::default(), rng.fork("net"));
        let mut sim = TransportSim::new(
            network,
            TransportConfig {
                recovery: Some(RecoveryPolicy::default()),
                ..TransportConfig::default()
            },
            rng.fork("t"),
        );
        let src = sim.network().topology().nic(0, 0);
        let dst = sim.network().topology().nic(4, 0);
        let conn = sim.add_connection(src, dst);
        let msg = sim.post_message(conn, 4 * 1024 * 1024);
        sim.run(&mut NoopApp, SimTime::ZERO + SimDuration::from_micros(20));
        assert!(!sim.message_done(conn, msg), "mid-transfer");
        sim.device_churn(conn);
        assert_eq!(sim.recovering_count(), 1);
        (sim, conn, msg)
    }

    /// A message posted while its connection is Recovering goes out
    /// once, after the replay: the replay re-queues only what the
    /// receiver lacks of the older message, and every packet of both is
    /// transmitted exactly once.
    #[test]
    fn post_during_recovery_is_sent_once() {
        stellar_check::strict(|| {
            let (mut sim, conn, old) = churned_mid_transfer(23);
            let before = sim.conn_stats(conn);
            let new = sim.post_message(conn, 64 * 1024); // 16 packets
            assert_eq!(sim.conn_stats(conn), before, "nothing leaves a torn-down QP");
            sim.run(&mut NoopApp, FOREVER);
            let after = sim.conn_stats(conn);
            assert!(sim.message_done(conn, old) && sim.message_done(conn, new));
            assert_eq!(after.recoveries, 1);
            assert_eq!(after.retransmits, 0);
            assert_eq!(after.replayed_packets, 1024 - before.delivered_packets);
            assert_eq!(
                after.sent_packets - before.sent_packets,
                after.replayed_packets + 16,
                "each missing packet is sent once"
            );
            assert_eq!(after.delivered_packets, 1024 + 16);
            assert!(sim.all_idle());
        });
    }

    /// `transport.recovery_exactly_once` has teeth: drop one packet from
    /// the replay after a forced recovery and the drained run must report
    /// the lost message.
    #[test]
    fn dropped_replay_packet_trips_recovery_exactly_once() {
        let ((), report) = stellar_check::capture(|| {
            let (mut sim, conn, msg) = churned_mid_transfer(23);
            let reconnect = sim.now() + RecoveryPolicy::default().reconnect_delay(0);
            sim.run(&mut NoopApp, reconnect);
            assert_eq!(sim.conn_state(conn), ConnState::Active);
            assert!(sim.conn_stats(conn).replayed_packets > 0);
            // The fresh window holds back the tail of the replay; lose
            // its last packet before it is ever sent.
            let replay = &mut sim.conns[conn.0 as usize].cold.replay;
            assert!(replay.pop_back().is_some(), "part of the replay is queued");
            sim.run(&mut NoopApp, FOREVER);
            assert!(sim.all_idle());
            assert!(!sim.message_done(conn, msg));
        });
        assert!(!report.is_clean(), "the lost packet went unnoticed");
        assert!(
            report
                .violations
                .iter()
                .all(|v| v.invariant == "transport.recovery_exactly_once"),
            "{}",
            report.render()
        );
    }
}
