//! RC connection state: message segmentation, sender bookkeeping, and the
//! out-of-order receive path.
//!
//! Like the RNIC, the sender cuts a message into packets as it transmits
//! it: a post only appends the message to the live window, and a send
//! cursor (message id, packet index) walks the window one packet at a
//! time, so send-side state does not grow with posted bytes.
//!
//! A connection is one entry of a dense per-connection array that every
//! Deliver, Ack and send touches, so it holds only what those touch: the
//! state, the send cursor, the in-flight table, the live message window,
//! the per-packet counters and the event loop's window, pacing and timer
//! state, in four cache lines. Everything the healthy path never reads —
//! the replay queue, the retired ledger, posted receives, recovery
//! bookkeeping and the slow-path counters — sits behind one pointer.
//!
//! Spraying packets over 128 paths guarantees heavy reordering at the
//! receiver. Like the paper's RNIC (Direct Packet Placement, paper ref. 19), the
//! receiver writes each packet straight to its memory slot — modelled by a
//! per-message bitmap — and completes the message exactly once when every
//! packet has landed, regardless of arrival order. Duplicates (RTO
//! retransmissions racing the original) are absorbed idempotently.

use std::collections::VecDeque;

use stellar_net::NicId;
use stellar_sim::{SimDuration, SimTime};

use crate::cc::{CcConfig, CongestionControl};

/// Connection identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u32);

/// Message identifier, unique within a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgId(pub u64);

/// A packet not yet sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingPacket {
    /// Owning message.
    pub msg: MsgId,
    /// Packet index within the message.
    pub idx: u64,
    /// Payload bytes.
    pub bytes: u64,
}

/// A packet in flight (sender view), in 32 bytes: a window of them is
/// what deliver, ack and RTO look up once per packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InflightPacket {
    /// Send timestamp (for RTT).
    pub sent_at: SimTime,
    /// The event-queue tie-break number reserved for this transmission's
    /// RTO: the packet times out at key `(sent_at + RTO, rto_seq)`, the
    /// rank its own timer would have had if scheduled at send time.
    pub rto_seq: u64,
    /// Owning message's id, low 32 bits ([`Connection::msg_id`] widens
    /// it back).
    pub msg: u32,
    /// Packet index within the message (a message has at most 2^32
    /// packets).
    pub idx: u32,
    /// Payload bytes (at most the MTU, which fits in 32 bits).
    pub bytes: u32,
    /// Path it was sent on (path ids are below 256).
    pub path: u16,
    /// Retransmission count (at most the retry budget, below 2^16).
    pub retx: u16,
}

/// Direct-mapped table of in-flight packets keyed by sequence number.
///
/// Sequence numbers are dense and monotone, and the live span (newest
/// minus oldest unacked) tracks the congestion window, so a power-of-two
/// ring indexed by `seq & mask` almost never collides; when the span
/// outgrows the table it doubles and re-places every entry. Single-probe
/// get/insert/remove beats a hash map on the per-packet fast path
/// (deliver, ack, and RTO each hit this table once per packet). The
/// table starts small and grows with the window, so a connection whose
/// window holds a packet or two (a ring step, a 16k-rank job) costs a
/// few slots, not a full BDP's worth.
#[derive(Debug, Default)]
pub struct InflightTable {
    /// `slots[seq & mask]` holds packet `seq`; allocation is lazy so
    /// idle connections (large-cluster sims) cost nothing.
    slots: Box<[Slot]>,
    len: usize,
}

/// One slot of an [`InflightTable`]: a packet and its sequence number,
/// or [`Slot::EMPTY`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    seq: u64,
    pkt: InflightPacket,
}

impl Slot {
    /// No transport allocates this sequence number, so it marks a free
    /// slot.
    const EMPTY: Slot = Slot {
        seq: u64::MAX,
        pkt: InflightPacket {
            sent_at: SimTime::ZERO,
            rto_seq: 0,
            msg: 0,
            idx: 0,
            bytes: 0,
            path: 0,
            retx: 0,
        },
    };

    fn holds(&self, seq: u64) -> bool {
        self.seq == seq && seq != u64::MAX
    }

    fn is_free(&self) -> bool {
        self.seq == u64::MAX
    }
}

impl InflightTable {
    /// Initial slot count on first insert; `grow` doubles from here.
    const MIN_SLOTS: usize = 4;

    /// `seq & mask` is a slot index; before the first insert the mask
    /// is all ones, so every lookup misses the empty table.
    #[inline]
    fn mask(&self) -> u64 {
        (self.slots.len() as u64).wrapping_sub(1)
    }

    /// Number of packets in flight.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is in flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packet with sequence number `seq`, if in flight.
    #[inline]
    pub fn get(&self, seq: u64) -> Option<&InflightPacket> {
        let slot = self.slots.get((seq & self.mask()) as usize)?;
        slot.holds(seq).then_some(&slot.pkt)
    }

    /// Mutable access to the packet with sequence number `seq`.
    #[inline]
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut InflightPacket> {
        let mask = self.mask();
        let slot = self.slots.get_mut((seq & mask) as usize)?;
        slot.holds(seq).then_some(&mut slot.pkt)
    }

    /// Insert `pkt` under `seq`. `seq` must not already be present (the
    /// transport allocates each sequence number once).
    pub fn insert(&mut self, seq: u64, pkt: InflightPacket) {
        assert_ne!(seq, u64::MAX, "sequence number space exhausted");
        if self.slots.is_empty() {
            self.slots = vec![Slot::EMPTY; Self::MIN_SLOTS].into_boxed_slice();
        }
        loop {
            let slot = &mut self.slots[(seq & self.mask()) as usize];
            if slot.is_free() {
                *slot = Slot { seq, pkt };
                self.len += 1;
                return;
            }
            debug_assert_ne!(slot.seq, seq, "sequence number inserted twice");
            self.grow();
        }
    }

    /// Remove and return the packet under `seq`, if in flight.
    pub fn remove(&mut self, seq: u64) -> Option<InflightPacket> {
        let mask = self.mask();
        let slot = self.slots.get_mut((seq & mask) as usize)?;
        if !slot.holds(seq) {
            return None;
        }
        self.len -= 1;
        Some(std::mem::replace(slot, Slot::EMPTY).pkt)
    }

    /// Drop every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.fill(Slot::EMPTY);
        self.len = 0;
    }

    /// Iterate over the in-flight packets with their sequence numbers,
    /// in slot order, which depends on the table's size and so on its
    /// growth history. Every consumer in the transport is
    /// order-insensitive: a sum of bytes, a max of retransmit counts,
    /// `min_by_key` over unique `(deadline, rto_seq)` keys, and the
    /// cancelled-timer ledger's max and min-heap.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &InflightPacket)> {
        self.slots
            .iter()
            .filter(|s| !s.is_free())
            .map(|s| (s.seq, &s.pkt))
    }

    /// Double the table until the colliding span fits, re-placing every
    /// entry at its new slot.
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let old = std::mem::replace(
            &mut self.slots,
            vec![Slot::EMPTY; new_len].into_boxed_slice(),
        );
        for entry in old.iter().filter(|s| !s.is_free()) {
            let slot = &mut self.slots[(entry.seq & self.mask()) as usize];
            debug_assert!(slot.is_free(), "doubling separates live seqs");
            *slot = *entry;
        }
    }
}

/// Receiver-side bitmap of landed packets.
///
/// Stellar's messages are mostly small (a ring step is 2–3 packets), so a
/// message of at most 64 packets keeps its bitmap inline in one word and
/// only larger messages allocate.
#[derive(Debug)]
enum Bitmap {
    Inline(u64),
    Heap(Box<[u64]>),
}

impl Bitmap {
    /// An empty bitmap of `bits` bits.
    fn new(bits: u64) -> Self {
        if bits <= 64 {
            Bitmap::Inline(0)
        } else {
            Bitmap::Heap(vec![0u64; bits.div_ceil(64) as usize].into_boxed_slice())
        }
    }

    /// Whether bit `idx` is set.
    fn get(&self, idx: u64) -> bool {
        let w = match self {
            Bitmap::Inline(w) => *w,
            Bitmap::Heap(ws) => ws[(idx / 64) as usize],
        };
        w & (1 << (idx % 64)) != 0
    }

    /// Set bit `idx`; returns whether it was clear.
    fn set(&mut self, idx: u64) -> bool {
        let w = match self {
            Bitmap::Inline(w) => w,
            Bitmap::Heap(ws) => &mut ws[(idx / 64) as usize],
        };
        let bit = 1 << (idx % 64);
        let new = *w & bit == 0;
        *w |= bit;
        new
    }
}

/// Per-message receive progress.
#[derive(Debug)]
pub struct MessageState {
    /// Total packets in the message.
    pub total_packets: u64,
    /// Message length in bytes.
    pub bytes: u64,
    /// When the sender posted it.
    pub posted_at: SimTime,
    /// Receiver-side bitmap of landed packets.
    received: Bitmap,
    received_count: u64,
}

impl MessageState {
    /// A fresh message of `total_packets` packets.
    pub fn new(total_packets: u64, bytes: u64, posted_at: SimTime) -> Self {
        MessageState {
            total_packets,
            bytes,
            posted_at,
            received: Bitmap::new(total_packets),
            received_count: 0,
        }
    }

    /// Record packet `idx` landing at the receiver. Returns `true` if it
    /// was new (not a duplicate).
    pub fn place_packet(&mut self, idx: u64) -> bool {
        assert!(idx < self.total_packets, "packet index out of range");
        let new = self.received.set(idx);
        self.received_count += u64::from(new);
        new
    }

    /// Whether every packet has landed. The transport completes a
    /// message at the placement that fills its bitmap, so this is also
    /// "completed".
    pub fn fully_received(&self) -> bool {
        self.received_count == self.total_packets
    }

    /// Whether packet `idx` has landed at the receiver.
    pub fn is_received(&self, idx: u64) -> bool {
        assert!(idx < self.total_packets, "packet index out of range");
        self.received.get(idx)
    }

    /// Packets landed so far.
    pub fn received_count(&self) -> u64 {
        self.received_count
    }

    /// Payload bytes of packet `idx` when the message is cut at `mtu`:
    /// `mtu` for every packet but the last, which carries the remainder.
    pub(crate) fn packet_bytes(&self, idx: u64, mtu: u64) -> u64 {
        debug_assert!(idx < self.total_packets, "packet index out of range");
        if idx + 1 == self.total_packets {
            self.bytes - idx * mtu
        } else {
            mtu
        }
    }
}

/// What retired messages leave behind on their connection: enough for
/// the exactly-once and conservation checks to cover every message ever
/// posted while the connection keeps only the live ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RetiredLedger {
    /// Messages retired so far.
    pub(crate) messages: u64,
    /// Sum of the retired messages' own bitmap populations
    /// ([`MessageState::received_count`]), kept apart from
    /// [`ConnStats::delivered_packets`] so the two can be checked against
    /// each other.
    pub(crate) placements: u64,
}

/// Why a two-sided send could not be accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// No receive buffer posted (the RC "receiver not ready" NAK).
    ReceiverNotReady,
    /// The matched receive buffer is smaller than the message.
    RecvBufferTooSmall {
        /// Posted buffer size.
        posted: u64,
        /// Message size.
        message: u64,
    },
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::ReceiverNotReady => write!(f, "RNR NAK: no receive posted"),
            SendError::RecvBufferTooSmall { posted, message } => {
                write!(f, "recv buffer {posted} B < message {message} B")
            }
        }
    }
}

impl std::error::Error for SendError {}

/// Why a connection entered the terminal [`ConnState::Error`] state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FatalError {
    /// One packet was retransmitted `retries` times without an ACK —
    /// the IB `retry_cnt` exceeded semantics. The QP is broken; the
    /// application must tear down and re-establish.
    RetryBudgetExhausted {
        /// Sequence number of the packet that exhausted the budget.
        seq: u64,
        /// Retransmissions attempted before giving up.
        retries: u32,
    },
    /// The connection's virtual device was torn out from under it —
    /// vStellar device churn (host driver restart, device error,
    /// container reschedule). Injected via
    /// [`TransportSim::device_churn`](crate::TransportSim::device_churn);
    /// only terminal if the recovery attempt budget is already spent.
    DeviceChurned,
}

impl std::fmt::Display for FatalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FatalError::RetryBudgetExhausted { seq, retries } => {
                write!(f, "retry budget exhausted: seq {seq} after {retries} retransmits")
            }
            FatalError::DeviceChurned => {
                write!(f, "virtual device churned beneath the connection")
            }
        }
    }
}

impl std::error::Error for FatalError {}

/// Connection lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConnState {
    /// Transmitting normally.
    #[default]
    Active,
    /// The QP was torn down after a fatal transport error and a
    /// re-establishment is pending (recovery policy is active). The
    /// connection sends nothing until the reconnect fires; unacked
    /// messages will be replayed from the receiver bitmap, and messages
    /// posted meanwhile wait at the send cursor.
    Recovering,
    /// Terminal error — the transport gave up (see
    /// [`Connection::fatal`]); no further packets are sent or accepted.
    Error,
}

/// Cumulative connection statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Packets sent (first transmissions).
    pub sent_packets: u64,
    /// Packets retransmitted after RTO.
    pub retransmits: u64,
    /// RTO events.
    pub rto_events: u64,
    /// Packets delivered to the receiver (deduplicated).
    pub delivered_packets: u64,
    /// Payload bytes delivered (deduplicated).
    pub delivered_bytes: u64,
    /// Messages completed.
    pub completed_messages: u64,
    /// ACKs with ECN echo.
    pub ecn_acks: u64,
    /// Total ACKs.
    pub acks: u64,
    /// Two-sided sends rejected with RNR (no receive posted).
    pub rnr_naks: u64,
    /// Completed connection recoveries (teardown → re-establish).
    pub recoveries: u64,
    /// Packets re-queued from incomplete receiver bitmaps at
    /// re-establishment (exactly the not-yet-received indices).
    pub replayed_packets: u64,
}

impl ConnStats {
    /// Field-wise accumulation (see `TransportSim::total_stats`).
    pub fn merge(&mut self, other: &ConnStats) {
        self.sent_packets += other.sent_packets;
        self.retransmits += other.retransmits;
        self.rto_events += other.rto_events;
        self.delivered_packets += other.delivered_packets;
        self.delivered_bytes += other.delivered_bytes;
        self.completed_messages += other.completed_messages;
        self.ecn_acks += other.ecn_acks;
        self.acks += other.acks;
        self.rnr_naks += other.rnr_naks;
        self.recoveries += other.recoveries;
        self.replayed_packets += other.replayed_packets;
    }
}

impl std::ops::AddAssign for ConnStats {
    fn add_assign(&mut self, other: ConnStats) {
        self.merge(&other);
    }
}

impl std::iter::Sum for ConnStats {
    fn sum<I: Iterator<Item = ConnStats>>(iter: I) -> ConnStats {
        let mut total = ConnStats::default();
        for s in iter {
            total += s;
        }
        total
    }
}

/// The counters every packet moves, kept in a connection's hot state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PacketCounts {
    pub(crate) sent_packets: u64,
    pub(crate) delivered_packets: u64,
    pub(crate) delivered_bytes: u64,
    pub(crate) completed_messages: u64,
    pub(crate) acks: u64,
    pub(crate) ecn_acks: u64,
}

/// What a healthy connection never reads: the replay queue, the retired
/// ledger, posted receives, recovery bookkeeping and the slow-path
/// counters.
#[derive(Debug)]
pub(crate) struct ConnCold {
    /// Identifier.
    pub(crate) id: ConnId,
    /// Packets re-queued by [`Connection::replay_unacked`], FIFO. They
    /// go out before anything at the send cursor. Only a recovery fills
    /// this, so it stays unallocated on a healthy connection.
    pub(crate) replay: VecDeque<PendingPacket>,
    /// Running totals of the retired messages.
    pub(crate) retired: RetiredLedger,
    /// Posted receive buffers (two-sided verbs), FIFO-matched.
    pub(crate) recv_queue: VecDeque<u64>,
    /// The error that killed the connection, if any.
    pub(crate) fatal: Option<FatalError>,
    /// When the in-progress recovery began (teardown time), if any.
    pub(crate) recovering_since: Option<SimTime>,
    pub(crate) retransmits: u64,
    pub(crate) rto_events: u64,
    pub(crate) rnr_naks: u64,
    pub(crate) recoveries: u64,
    pub(crate) replayed_packets: u64,
}

/// Where an RTO timer sits in the event queue: its deadline and the
/// tie-break number reserved when the packet was (re)transmitted.
pub(crate) type RtoKey = (SimTime, u64);

/// [`Connection::armed`] with no timer queued: later than every real
/// key.
pub(crate) const NO_TIMER: RtoKey = (SimTime::from_nanos(u64::MAX), u64::MAX);

/// One RC connection (sender and receiver state in one place — both ends
/// live in the same simulation). The fields a healthy send, Deliver or
/// Ack touches are inline, in four cache lines, 128-byte aligned so that
/// each pair of lines shares one adjacent-line prefetch: a Deliver reads
/// only the first pair; the rest is behind `cold`.
#[derive(Debug)]
#[repr(C, align(128))]
pub struct Connection {
    // Line 0 — what a Deliver looks up: the packet, then its message.
    /// In-flight packets by sequence number (deliver, ack and RTO each
    /// look up here once per packet, so this is a direct-mapped table,
    /// not a hash map).
    pub inflight: InflightTable,
    /// Live messages, oldest first: entry `i` is message `msg_front + i`.
    /// The window covers `[oldest not yet retired, next_msg)`. A message
    /// retires (folds into the retired ledger and leaves the window)
    /// once it and every older message have completed, so the window
    /// holds O(live messages) however many the connection has carried.
    /// Ids stay dense, so a lookup is one subtraction and one index.
    messages: VecDeque<MessageState>,
    /// Id of the window's front message: every lower id has retired.
    msg_front: u64,
    // Line 1 — the rest of a Deliver.
    next_msg: u64,
    /// Delay of this connection's ACKs on the prioritized control path.
    pub(crate) ack_delay: SimDuration,
    pub(crate) counts: PacketCounts,
    // Line 2 — the sender.
    /// Send cursor: the id of the next message to segment. Every message
    /// from here to `next_msg` still has packets to send for the first
    /// time; every older one has sent all of its packets (or was torn
    /// down and is covered by the replay).
    send_msg: u64,
    /// Index of the cursor message's next packet.
    send_idx: u64,
    next_seq: u64,
    /// In-flight payload bytes (window accounting).
    pub inflight_bytes: u64,
    pub(crate) cold: Box<ConnCold>,
    /// Source NIC.
    pub src: NicId,
    /// Destination NIC.
    pub dst: NicId,
    /// Consecutive recovery attempts since the last successful ACK
    /// (drives the reconnect backoff; an ACK proves the new QP works and
    /// resets the ladder).
    pub recovery_attempts: u32,
    /// Lifecycle state ([`ConnState::Error`] is terminal).
    pub state: ConnState,
    /// Whether the replay queue holds packets, so the send path reads
    /// no cold state while it is empty.
    replaying: bool,
    /// Whether a Pace wake-up is already queued.
    pub(crate) pace_scheduled: bool,
    /// Whether the path selector wants ACK feedback
    /// ([`crate::PathSelector::wants_ack`]), so an ACK for one that
    /// reads none leaves the selector alone. The event loop refreshes it
    /// where the selector counts a loss, the only place it changes.
    pub(crate) ack_feedback: bool,
    /// Egress pacing: earliest time the next packet may leave.
    pub(crate) pace_until: SimTime,
    // Line 3 — the window and the RTO timer.
    /// The shared congestion context (unused when each path has its own,
    /// the §9 ablation).
    pub(crate) cc: CongestionControl,
    /// Key of the connection's earliest queued RTO timer, or
    /// [`NO_TIMER`]. A key is queued only when it is earlier than every
    /// queued one; the event loop keeps the keys queued before it.
    pub(crate) armed: RtoKey,
}

impl Connection {
    /// A new idle connection.
    pub fn new(id: ConnId, src: NicId, dst: NicId) -> Self {
        Connection {
            src,
            dst,
            state: ConnState::Active,
            replaying: false,
            recovery_attempts: 0,
            send_msg: 0,
            send_idx: 0,
            next_msg: 0,
            next_seq: 0,
            inflight: InflightTable::default(),
            inflight_bytes: 0,
            ack_delay: SimDuration::ZERO,
            messages: VecDeque::new(),
            msg_front: 0,
            counts: PacketCounts::default(),
            pace_scheduled: false,
            ack_feedback: false,
            pace_until: SimTime::ZERO,
            cc: CongestionControl::new(&CcConfig::default()),
            armed: NO_TIMER,
            cold: Box::new(ConnCold {
                id,
                replay: VecDeque::new(),
                retired: RetiredLedger::default(),
                recv_queue: VecDeque::new(),
                fatal: None,
                recovering_since: None,
                retransmits: 0,
                rto_events: 0,
                rnr_naks: 0,
                recoveries: 0,
                replayed_packets: 0,
            }),
        }
    }

    /// Identifier.
    pub fn id(&self) -> ConnId {
        self.cold.id
    }

    /// Statistics.
    pub fn stats(&self) -> ConnStats {
        let (hot, cold) = (&self.counts, &*self.cold);
        ConnStats {
            sent_packets: hot.sent_packets,
            retransmits: cold.retransmits,
            rto_events: cold.rto_events,
            delivered_packets: hot.delivered_packets,
            delivered_bytes: hot.delivered_bytes,
            completed_messages: hot.completed_messages,
            ecn_acks: hot.ecn_acks,
            acks: hot.acks,
            rnr_naks: cold.rnr_naks,
            recoveries: cold.recoveries,
            replayed_packets: cold.replayed_packets,
        }
    }

    /// The error that killed the connection, if any.
    pub fn fatal(&self) -> Option<FatalError> {
        self.cold.fatal
    }

    /// Posted receive buffers not yet matched, oldest first.
    pub fn recv_queue(&self) -> &VecDeque<u64> {
        &self.cold.recv_queue
    }

    /// Queue a message of `bytes`, to be cut into `mtu`-sized packets as
    /// it is sent. O(1): only the message's own state is stored.
    ///
    /// # Panics
    ///
    /// If the message would have more than 2^32 packets.
    pub fn post_message(&mut self, now: SimTime, bytes: u64, mtu: u64) -> MsgId {
        assert!(bytes > 0, "empty message");
        let packets = bytes.div_ceil(mtu);
        assert!(packets <= 1 << 32, "a message has at most 2^32 packets");
        let id = MsgId(self.next_msg);
        self.next_msg += 1;
        debug_assert_eq!(self.msg_front + self.messages.len() as u64, id.0);
        self.messages
            .push_back(MessageState::new(packets, bytes, now));
        id
    }

    /// Post a receive buffer of `bytes` (two-sided verbs, IBTA ordering:
    /// buffers match incoming sends in FIFO order).
    pub fn post_recv(&mut self, bytes: u64) {
        assert!(bytes > 0, "empty receive buffer");
        self.cold.recv_queue.push_back(bytes);
    }

    /// Two-sided send: consume the head receive buffer, then queue the
    /// message like a write.
    ///
    /// Returns [`SendError::ReceiverNotReady`] (and counts an RNR NAK) if
    /// no receive is posted, or [`SendError::RecvBufferTooSmall`] if the
    /// matched buffer cannot hold the message (a fatal RC completion
    /// error on real hardware — the buffer is consumed either way, per
    /// the IBTA spec).
    pub fn post_send(
        &mut self,
        now: SimTime,
        bytes: u64,
        mtu: u64,
    ) -> Result<MsgId, SendError> {
        let Some(posted) = self.cold.recv_queue.pop_front() else {
            self.cold.rnr_naks += 1;
            stellar_telemetry::count(stellar_telemetry::Subsystem::Transport, "rnr_nak", 1);
            return Err(SendError::ReceiverNotReady);
        };
        if posted < bytes {
            return Err(SendError::RecvBufferTooSmall {
                posted,
                message: bytes,
            });
        }
        Ok(self.post_message(now, bytes, mtu))
    }

    /// Allocate the next sequence number.
    pub fn next_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Whether nothing remains to send or await.
    pub fn is_idle(&self) -> bool {
        !self.has_unsent() && self.inflight.is_empty()
    }

    /// Whether a packet waits to be sent: the replay queue holds one, or
    /// the send cursor has not passed the newest message.
    pub(crate) fn has_unsent(&self) -> bool {
        self.replaying || self.send_msg < self.next_msg
    }

    /// The packet the connection sends next, cut at `mtu`: the replay
    /// queue's head, else the packet at the send cursor.
    pub(crate) fn next_unsent(&self, mtu: u64) -> Option<PendingPacket> {
        if self.replaying {
            return self.cold.replay.front().copied();
        }
        let msg = MsgId(self.send_msg);
        let m = self.message(msg)?;
        Some(PendingPacket {
            msg,
            idx: self.send_idx,
            bytes: m.packet_bytes(self.send_idx, mtu),
        })
    }

    /// Take the packet [`Connection::next_unsent`] returns and move past
    /// it.
    pub(crate) fn pop_unsent(&mut self, mtu: u64) -> Option<PendingPacket> {
        let pkt = self.next_unsent(mtu)?;
        if self.replaying {
            self.cold.replay.pop_front();
            self.replaying = !self.cold.replay.is_empty();
        } else {
            self.send_idx += 1;
            let m = self.message(pkt.msg).expect("the cursor message is live");
            if self.send_idx == m.total_packets {
                self.send_msg += 1;
                self.send_idx = 0;
            }
        }
        Some(pkt)
    }

    /// Every packet still to send, in send order, cut at `mtu`: the
    /// replay queue, then the rest of the window from the send cursor.
    pub fn unsent(&self, mtu: u64) -> impl Iterator<Item = PendingPacket> + '_ {
        let first = (self.send_msg - self.msg_front) as usize;
        let from_cursor = self.messages.range(first..).enumerate().flat_map(move |(i, m)| {
            let msg = MsgId(self.send_msg + i as u64);
            let start = if i == 0 { self.send_idx } else { 0 };
            (start..m.total_packets).map(move |idx| PendingPacket {
                msg,
                idx,
                bytes: m.packet_bytes(idx, mtu),
            })
        });
        self.cold.replay.iter().copied().chain(from_cursor)
    }

    /// Discard every queued packet (QP teardown): empty the replay queue
    /// and move the send cursor past the newest message. Whatever the
    /// receiver still lacks comes back with
    /// [`Connection::replay_unacked`].
    pub(crate) fn drop_unsent(&mut self) {
        self.cold.replay.clear();
        self.replaying = false;
        self.send_msg = self.next_msg;
        self.send_idx = 0;
    }

    /// The id of the newest posted message whose low 32 bits are `low`:
    /// the full id of an in-flight packet's [`InflightPacket::msg`], as
    /// long as fewer than 2^32 messages were posted after it.
    pub fn msg_id(&self, low: u32) -> MsgId {
        let newest = self.next_msg.wrapping_sub(1);
        MsgId(newest - u64::from((newest as u32).wrapping_sub(low)))
    }

    /// The live message `id`; `None` once it has retired (or if it was
    /// never posted).
    pub fn message(&self, id: MsgId) -> Option<&MessageState> {
        let i = id.0.checked_sub(self.msg_front)?;
        self.messages.get(i as usize)
    }

    /// Mutable access to the live message `id`; `None` once it has
    /// retired (or if it was never posted).
    pub fn message_mut(&mut self, id: MsgId) -> Option<&mut MessageState> {
        let i = id.0.checked_sub(self.msg_front)?;
        self.messages.get_mut(i as usize)
    }

    /// Whether message `id` has completed: it retired, or it is live
    /// with every packet landed.
    pub fn message_done(&self, id: MsgId) -> bool {
        id.0 < self.msg_front || self.message(id).is_some_and(MessageState::fully_received)
    }

    /// The live window, oldest first (message `msg_front + i` at `i`).
    pub(crate) fn live_messages(&self) -> std::collections::vec_deque::Iter<'_, MessageState> {
        self.messages.iter()
    }

    /// Message `id` just completed at `now` (its last packet landed):
    /// retire the window's completed prefix and return the message's
    /// completion latency (post → full receipt). A completed message
    /// behind an incomplete one stays live until the older one completes.
    pub(crate) fn complete_message(&mut self, id: MsgId, now: SimTime) -> SimDuration {
        let m = self.message(id).expect("a completing message is live");
        debug_assert!(m.fully_received());
        let latency = now.duration_since(m.posted_at);
        while self.messages.front().is_some_and(MessageState::fully_received) {
            let m = self.messages.pop_front().expect("front exists");
            self.cold.retired.messages += 1;
            self.cold.retired.placements += m.received_count();
            self.msg_front += 1;
        }
        debug_assert!(
            self.msg_front <= self.send_msg,
            "a message completed before the cursor sent all of it"
        );
        latency
    }

    /// Rebuild the send queue from the receiver bitmaps after a QP
    /// re-establishment: every packet that has not landed, of every
    /// incomplete message behind the send cursor, is queued for replay in
    /// `(message, index)` order. Retired messages are complete and need
    /// nothing; messages posted during the teardown sit at or past the
    /// cursor, were never sent, and go out after the replay. Returns the
    /// number of packets queued.
    ///
    /// This is the exactly-once replay. Indices already set in the
    /// bitmap are skipped — the receiver keeps its partial state across
    /// the re-establishment (DPP writes packets straight to their memory
    /// slots, so landed data survives the QP) — and a replayed packet
    /// racing a late original is absorbed idempotently by
    /// [`MessageState::place_packet`].
    pub fn replay_unacked(&mut self, mtu: u64) -> u64 {
        debug_assert!(
            !self.replaying && self.inflight.is_empty(),
            "replay requires a drained connection"
        );
        let behind = (self.send_msg - self.msg_front) as usize;
        let replay = &mut self.cold.replay;
        for (i, m) in self.messages.range(..behind).enumerate() {
            if m.fully_received() {
                continue;
            }
            let msg = MsgId(self.msg_front + i as u64);
            replay.extend(
                (0..m.total_packets)
                    .filter(|&idx| !m.is_received(idx))
                    .map(|idx| PendingPacket {
                        msg,
                        idx,
                        bytes: m.packet_bytes(idx, mtu),
                    }),
            );
        }
        self.replaying = !replay.is_empty();
        replay.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn() -> Connection {
        Connection::new(ConnId(0), NicId(0), NicId(1))
    }

    #[test]
    fn segmentation_counts_and_tail() {
        let mut c = conn();
        let id = c.post_message(SimTime::ZERO, 10_000, 4096);
        let m = c.message(id).unwrap();
        assert_eq!(m.total_packets, 3);
        let sizes: Vec<u64> = c.unsent(4096).map(|p| p.bytes).collect();
        assert_eq!(sizes, vec![4096, 4096, 1808]);
    }

    #[test]
    fn single_packet_message() {
        let mut c = conn();
        let id = c.post_message(SimTime::ZERO, 8, 4096);
        assert_eq!(c.message(id).unwrap().total_packets, 1);
        assert_eq!(c.next_unsent(4096).unwrap().bytes, 8);
    }

    #[test]
    fn out_of_order_placement_completes_once() {
        let mut m = MessageState::new(5, 5 * 4096, SimTime::ZERO);
        for idx in [4, 0, 2, 1] {
            assert!(m.place_packet(idx));
            assert!(!m.fully_received());
        }
        // Duplicate of an already-placed packet.
        assert!(!m.place_packet(2));
        assert!(!m.fully_received());
        assert!(m.place_packet(3));
        assert!(m.fully_received());
        assert_eq!(m.received_count(), 5);
    }

    #[test]
    fn bitmap_handles_many_packets() {
        let mut m = MessageState::new(1000, 1000 * 4096, SimTime::ZERO);
        for idx in (0..1000).rev() {
            m.place_packet(idx);
        }
        assert!(m.fully_received());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn placement_beyond_range_panics() {
        let mut m = MessageState::new(3, 3 * 4096, SimTime::ZERO);
        m.place_packet(3);
    }

    #[test]
    fn send_requires_posted_recv() {
        let mut c = conn();
        assert_eq!(
            c.post_send(SimTime::ZERO, 100, 4096),
            Err(SendError::ReceiverNotReady)
        );
        assert_eq!(c.stats().rnr_naks, 1);
        c.post_recv(4096);
        assert!(c.post_send(SimTime::ZERO, 100, 4096).is_ok());
        // The buffer was consumed.
        assert_eq!(
            c.post_send(SimTime::ZERO, 100, 4096),
            Err(SendError::ReceiverNotReady)
        );
    }

    #[test]
    fn send_larger_than_recv_fails_and_consumes() {
        let mut c = conn();
        c.post_recv(64);
        assert_eq!(
            c.post_send(SimTime::ZERO, 100, 4096),
            Err(SendError::RecvBufferTooSmall {
                posted: 64,
                message: 100
            })
        );
        // Per IBTA, the mismatched buffer is gone.
        assert!(c.recv_queue().is_empty());
    }

    #[test]
    fn recvs_match_fifo() {
        let mut c = conn();
        c.post_recv(100);
        c.post_recv(10_000);
        // First send matches the 100-byte buffer even though the second
        // would fit better (no reordering, per spec).
        assert!(matches!(
            c.post_send(SimTime::ZERO, 5_000, 4096),
            Err(SendError::RecvBufferTooSmall { posted: 100, .. })
        ));
        assert!(c.post_send(SimTime::ZERO, 5_000, 4096).is_ok());
    }

    #[test]
    fn sequence_numbers_are_unique() {
        let mut c = conn();
        let a = c.next_seq();
        let b = c.next_seq();
        assert_ne!(a, b);
    }

    #[test]
    fn idle_detection() {
        let mut c = conn();
        assert!(c.is_idle());
        c.post_message(SimTime::ZERO, 100, 4096);
        assert!(!c.is_idle());
    }

    #[test]
    fn stats_merge_is_fieldwise() {
        let a = ConnStats {
            sent_packets: 1,
            retransmits: 2,
            rto_events: 3,
            delivered_packets: 4,
            delivered_bytes: 5,
            completed_messages: 6,
            ecn_acks: 7,
            acks: 8,
            rnr_naks: 9,
            recoveries: 10,
            replayed_packets: 11,
        };
        let total: ConnStats = [a, a, a].into_iter().sum();
        assert_eq!(total.sent_packets, 3);
        assert_eq!(total.retransmits, 6);
        assert_eq!(total.rto_events, 9);
        assert_eq!(total.delivered_packets, 12);
        assert_eq!(total.delivered_bytes, 15);
        assert_eq!(total.completed_messages, 18);
        assert_eq!(total.ecn_acks, 21);
        assert_eq!(total.acks, 24);
        assert_eq!(total.rnr_naks, 27);
        assert_eq!(total.recoveries, 30);
        assert_eq!(total.replayed_packets, 33);
    }

    #[test]
    fn replay_requeues_exactly_the_missing_indices() {
        let mut c = conn();
        let id = c.post_message(SimTime::ZERO, 10_000, 4096); // 3 packets
        c.drop_unsent(); // simulate all packets in flight, then drained
        c.message_mut(id).unwrap().place_packet(1);
        let queued = c.replay_unacked(4096);
        assert_eq!(queued, 2);
        let idxs: Vec<u64> = c.unsent(4096).map(|p| p.idx).collect();
        assert_eq!(idxs, vec![0, 2]);
        // Byte sizes match the original segmentation (tail included).
        let sizes: Vec<u64> = c.unsent(4096).map(|p| p.bytes).collect();
        assert_eq!(sizes, vec![4096, 1808]);
        // A completed message is never replayed.
        let m = c.message_mut(id).unwrap();
        m.place_packet(0);
        m.place_packet(2);
        c.complete_message(id, SimTime::ZERO);
        c.drop_unsent();
        assert_eq!(c.replay_unacked(4096), 0);
    }

    /// Land every packet of `id` on `c`, complete it at `now` and
    /// return its latency.
    fn land_all(c: &mut Connection, id: MsgId, now: SimTime) -> SimDuration {
        let m = c.message_mut(id).unwrap();
        for idx in 0..m.total_packets {
            m.place_packet(idx);
        }
        c.complete_message(id, now)
    }

    #[test]
    fn window_retires_only_the_completed_prefix() {
        let mut c = conn();
        let ids: Vec<MsgId> = (0..3)
            .map(|_| c.post_message(SimTime::ZERO, 10_000, 4096))
            .collect();
        c.drop_unsent();
        // Out of order: the middle message completes first and must wait
        // behind message 0.
        let mut latencies = vec![land_all(&mut c, ids[1], SimTime::from_nanos(10))];
        assert_eq!(c.live_messages().len(), 3);
        assert!(c.message_done(ids[1]) && !c.message_done(ids[0]));
        assert_eq!(c.cold.retired, RetiredLedger::default());
        // Message 0 completes: 0 and 1 retire together.
        latencies.push(land_all(&mut c, ids[0], SimTime::from_nanos(30)));
        assert_eq!(c.live_messages().len(), 1);
        assert!(c.message(ids[0]).is_none() && c.message(ids[1]).is_none());
        assert!(c.message_done(ids[0]) && c.message_done(ids[1]));
        assert!(!c.message_done(ids[2]));
        assert_eq!(c.cold.retired, RetiredLedger { messages: 2, placements: 6 });
        // Replay numbers the remaining live message by its own id.
        c.message_mut(ids[2]).unwrap().place_packet(0);
        assert_eq!(c.replay_unacked(4096), 2);
        assert!(c.unsent(4096).all(|p| p.msg == ids[2]));
        c.drop_unsent();
        latencies.push(land_all(&mut c, ids[2], SimTime::from_nanos(40)));
        assert_eq!(c.live_messages().len(), 0);
        assert_eq!(c.cold.retired, RetiredLedger { messages: 3, placements: 9 });
        // Each completion reports its own message's latency, in
        // completion order.
        assert_eq!(latencies, [10, 30, 40].map(SimDuration::from_nanos));
        // Ids keep counting from where the window left off.
        assert_eq!(c.post_message(SimTime::ZERO, 1, 4096), MsgId(3));
        assert!(!c.message_done(MsgId(3)) && !c.message_done(MsgId(4)));
    }

    /// Bitmaps of up to 64 packets live inline; the 65th packet needs a
    /// second word and the heap. Every boundary places, dedups and
    /// completes alike.
    #[test]
    fn bitmap_is_inline_up_to_64_packets_and_heap_beyond() {
        for (total, inline) in [(63u64, true), (64, true), (65, false)] {
            let mut m = MessageState::new(total, total * 4096, SimTime::ZERO);
            assert_eq!(matches!(m.received, Bitmap::Inline(_)), inline, "{total} packets");
            if let Bitmap::Heap(words) = &m.received {
                assert_eq!(words.len(), 2);
            }
            // The highest index first, then the rest in reverse.
            for idx in (0..total).rev() {
                assert!(!m.is_received(idx));
                assert!(m.place_packet(idx), "{total}: idx {idx} is new");
                assert!(m.is_received(idx));
                assert!(!m.place_packet(idx), "{total}: idx {idx} is a duplicate");
                assert_eq!(m.fully_received(), idx == 0);
            }
            assert_eq!(m.received_count(), total);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inline_bitmap_rejects_index_64() {
        let mut m = MessageState::new(64, 64 * 4096, SimTime::ZERO);
        m.place_packet(64);
    }

    /// A post stores the message and nothing per packet: a 1 GiB message
    /// (262,144 packets) leaves the send queue unallocated, and the
    /// cursor still hands out every packet in order.
    #[test]
    fn posting_a_huge_message_allocates_no_send_queue() {
        let mut c = conn();
        let id = c.post_message(SimTime::ZERO, 1 << 30, 4096);
        assert_eq!(c.cold.replay.capacity(), 0);
        assert_eq!(c.message(id).unwrap().total_packets, 1 << 18);
        let mut sent = 0;
        while let Some(p) = c.pop_unsent(4096) {
            assert_eq!((p.msg, p.idx, p.bytes), (id, sent, 4096));
            sent += 1;
        }
        assert_eq!(sent, 1 << 18);
        assert!(!c.has_unsent());
        assert_eq!(c.cold.replay.capacity(), 0);
    }

    /// A message posted between teardown and replay sits at the send
    /// cursor: the replay covers only the older messages, and the new
    /// one follows it once.
    #[test]
    fn post_during_teardown_is_not_replayed() {
        let mut c = conn();
        let old = c.post_message(SimTime::ZERO, 10_000, 4096); // 3 packets
        assert_eq!(c.pop_unsent(4096).map(|p| p.idx), Some(0));
        c.message_mut(old).unwrap().place_packet(0);
        c.drop_unsent();
        assert!(!c.has_unsent());
        let new = c.post_message(SimTime::ZERO, 5_000, 4096); // 2 packets
        assert_eq!(c.replay_unacked(4096), 2);
        let order: Vec<(MsgId, u64, u64)> =
            c.unsent(4096).map(|p| (p.msg, p.idx, p.bytes)).collect();
        assert_eq!(
            order,
            [(old, 1, 4096), (old, 2, 1808), (new, 0, 4096), (new, 1, 904)]
        );
        let popped: Vec<(MsgId, u64, u64)> =
            std::iter::from_fn(|| c.pop_unsent(4096).map(|p| (p.msg, p.idx, p.bytes))).collect();
        assert_eq!(popped, order);
        assert!(c.is_idle());
    }

    /// The send cursor and replay queue send exactly what a queue of one
    /// entry per packet would: checked against such a reference under
    /// random posts (random sizes and MTU), sends, out-of-order partial
    /// delivery with retirement, teardown, posts during teardown, and
    /// replay. At teardown the reference empties; at replay it puts the
    /// packets the receiver lacks of the messages posted before the
    /// teardown in front of those posted during it.
    #[test]
    fn cursor_sends_what_a_packet_queue_sends() {
        use stellar_sim::proptest_lite::check;
        check("cursor_sends_what_a_packet_queue_sends", 256, |g| {
            let mtu = g.u64(1, 9001);
            let mut c = conn();
            let mut reference: VecDeque<PendingPacket> = VecDeque::new();
            // Per posted message: its size and which packets landed.
            let mut posted: Vec<(u64, Vec<bool>)> = Vec::new();
            // The packets of message `msg` that have not landed.
            let cut = |msg: u64, bytes: u64, landed: &[bool]| -> Vec<PendingPacket> {
                let last = landed.len() as u64 - 1;
                (0..=last)
                    .filter(|&idx| !landed[idx as usize])
                    .map(|idx| PendingPacket {
                        msg: MsgId(msg),
                        idx,
                        bytes: if idx == last { bytes - idx * mtu } else { mtu },
                    })
                    .collect()
            };
            let mut sent: Vec<PendingPacket> = Vec::new();
            // Messages below this id were posted before the teardown.
            let mut torn_down_below: Option<u64> = None;
            let mut replayed = false;
            for step in 0..g.usize(1, 200) {
                let now = SimTime::from_nanos(step as u64);
                match g.u32(0, 100) {
                    0..=29 => {
                        let bytes = g.u64(1, 24 * mtu);
                        let id = c.post_message(now, bytes, mtu);
                        assert_eq!(id.0, posted.len() as u64);
                        let landed = vec![false; bytes.div_ceil(mtu) as usize];
                        reference.extend(cut(id.0, bytes, &landed));
                        posted.push((bytes, landed));
                    }
                    30..=59 if torn_down_below.is_none() => {
                        for _ in 0..g.usize(1, 40) {
                            assert_eq!(c.next_unsent(mtu), reference.front().copied());
                            let pkt = c.pop_unsent(mtu);
                            assert_eq!(pkt, reference.pop_front());
                            sent.extend(pkt);
                        }
                    }
                    60..=89 if !sent.is_empty() => {
                        let pkt = sent.swap_remove(g.usize(0, sent.len()));
                        let landed = &mut posted[pkt.msg.0 as usize].1;
                        if !std::mem::replace(&mut landed[pkt.idx as usize], true) {
                            let m = c.message_mut(pkt.msg).expect("an incomplete message is live");
                            assert!(m.place_packet(pkt.idx));
                            if m.fully_received() {
                                c.complete_message(pkt.msg, now);
                            }
                        }
                    }
                    90..=94 if torn_down_below.is_none() => {
                        c.drop_unsent();
                        reference.clear();
                        sent.clear();
                        torn_down_below = Some(posted.len() as u64);
                    }
                    95..=99 => {
                        if let Some(below) = torn_down_below.take() {
                            let missing: Vec<PendingPacket> = (0..below)
                                .flat_map(|msg| {
                                    let (bytes, landed) = &posted[msg as usize];
                                    cut(msg, *bytes, landed)
                                })
                                .collect();
                            assert_eq!(c.replay_unacked(mtu), missing.len() as u64);
                            for pkt in missing.into_iter().rev() {
                                reference.push_front(pkt);
                            }
                            replayed = true;
                        }
                    }
                    _ => {}
                }
                assert!(c.unsent(mtu).eq(reference.iter().copied()), "step {step}");
                assert_eq!(c.has_unsent(), !reference.is_empty());
                if !replayed {
                    assert_eq!(c.cold.replay.capacity(), 0, "only a replay allocates");
                }
            }
        });
    }

    /// Every send, Deliver and Ack touches a connection and one slot of
    /// its in-flight table: both stay within a few cache lines.
    #[test]
    fn hot_state_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<Connection>(), 256);
        assert_eq!(std::mem::align_of::<Connection>(), 128);
        assert_eq!(std::mem::size_of::<CongestionControl>(), 48);
        // A Deliver reads the first two lines: the in-flight table, the
        // message window and the delivery counters.
        let line = |offset: usize| offset / 64;
        assert_eq!(line(std::mem::offset_of!(Connection, counts)), 1);
        assert_eq!(line(std::mem::offset_of!(Connection, ack_delay)), 1);
        assert_eq!(line(std::mem::offset_of!(Connection, send_msg)), 2);
        assert_eq!(line(std::mem::offset_of!(Connection, pace_until)), 2);
        assert_eq!(line(std::mem::offset_of!(Connection, cc)), 3);
        assert_eq!(line(std::mem::offset_of!(Connection, armed)), 3);
        assert!(std::mem::size_of::<InflightPacket>() <= 32);
        assert!(std::mem::size_of::<Slot>() <= 40);
    }

    /// An in-flight packet keeps its message id's low 32 bits; the
    /// connection widens them to the newest posted id with those bits,
    /// live or retired, across the 2^32 boundary.
    #[test]
    fn msg_id_widens_the_low_bits() {
        let mut c = conn();
        c.next_msg = (1 << 32) + 5;
        for id in [(1 << 32) + 4, 1 << 32, (1 << 32) - 1, 7] {
            assert_eq!(c.msg_id(id as u32), MsgId(id));
        }
    }

    #[test]
    fn new_connection_is_active_without_error() {
        let c = conn();
        assert_eq!(c.state, ConnState::Active);
        assert!(c.fatal().is_none());
    }
}
