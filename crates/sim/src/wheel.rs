//! Hierarchical timing-wheel event queue — the production scheduler.
//!
//! This is the O(1)-amortized replacement for the binary-heap
//! [`ReferenceQueue`](crate::ReferenceQueue). Events live in one of three
//! places:
//!
//! * **Wheel levels** — four levels of 1024 slots each. Level `L` slots
//!   are `2^(10·L)` ns wide, so level 0 resolves single nanoseconds
//!   (fabric and PCIe hops), level 1 spans 1 µs–1 ms (pacing, RTO),
//!   level 2 reaches ~1 s, and level 3 slots are ~1.07 s wide (recovery
//!   backoff, BGP convergence, boot). The four levels together span a
//!   2^40 ns ≈ 18.3 min horizon. Wide levels keep cascade counts low: a
//!   1 ms RTO timer migrates at most twice before firing.
//! * **Overflow list** — events scheduled beyond the current horizon block
//!   (`at` and the wheel cursor differ above bit 40). Rare by construction:
//!   the longest native timescale (10 s BGP convergence) fits the horizon,
//!   so overflow only triggers near block boundaries or in far-future
//!   stress tests.
//! * **Fixed-delay lanes** — up to four FIFO lists, each holding events
//!   scheduled at one exact delay after `now` (an ACK turnaround, a
//!   constant-latency delivery). See "Fixed-delay lanes" below.
//! * **Ready run** — a sorted `(at, seq)` buffer of events whose time has
//!   come. [`EventQueue::pop`] consumes it with a moving head index, so a
//!   same-timestamp burst drains with no per-event comparator work at all.
//!
//! **Level selection** is the XOR trick used by kernel timer wheels: the
//! level of an event is the 10-bit group of the highest bit where `at`
//! differs from the wheel cursor. Because the cursor only advances, an
//! event's slot index at its level is always strictly ahead of the cursor,
//! so "earliest event" is simply "lowest occupied level, lowest set bit" —
//! no intra-level wrap-around to reason about.
//!
//! **Ordering contract** (identical to the reference heap): pops are
//! globally ordered by `(at, seq)` where `seq` is the schedule order. Two
//! facts make this hold across tier migration: (1) equal-`at` events always
//! occupy the *same* slot — the shared prefix of `at` and the cursor
//! lengthens monotonically as the cursor advances, so a later insert of the
//! same timestamp can never land in a finer level while an earlier one
//! still waits in a coarser slot — and (2) a level-0 slot is one nanosecond
//! wide, i.e. a single exact timestamp, so sorting its entries by `seq` at
//! drain time restores FIFO regardless of the order cascades delivered
//! them.
//!
//! **Reserved keys**: [`EventQueue::reserve_seq`] hands out a tie-break
//! number without scheduling anything, and
//! [`EventQueue::schedule_reserved`] later queues an event under it. The
//! event lands like any other: in a wheel slot (a level-0 drain sorts by
//! seq, whatever the insertion order) or, at or behind the cursor, merged
//! into the ready run at its `(at, seq)` rank.
//!
//! **Fixed-delay lanes**: an event a plain [`EventQueue::schedule`] puts
//! `LANE_MIN_DELAY..LANE_MAX_DELAY` ns ahead of `now` would sit on
//! level 1 and cascade to level 0 before it fires. If a lane is bound to
//! its exact delay, it is appended to that lane instead. The clock never
//! goes back and fresh tie-break numbers only grow, so the events of one
//! lane are in `(at, seq)` order by construction: a lane is a FIFO. A
//! delay binds an empty lane only when it misses every lane twice in a
//! row, so random delays stay on the wheel. Reserved keys, delays below
//! one level-0 revolution (they skip the cascade already), far timers and
//! schedules while overflow is pending keep the wheel path. `advance`
//! merges: when the ready run is exhausted and the earliest lane head
//! (cached in one word) is strictly before the start of the wheel's next
//! occupied slot, every lane event at that nanosecond becomes the ready
//! run; when a level-0 drain or a cascade lands on the lane head's
//! nanosecond, the lane events there join it in seq order.
//!
//! **Arena**: event payloads live in a slab (`Vec<Node<E>>` plus an
//! intrusive free list); wheel slots and the overflow list are singly
//! linked lists of `u32` node indices, and so are the lanes (with a tail
//! index for appends). A node is freed when its event
//! moves into the ready run on its way to a pop, so steady-state
//! simulation performs zero allocator traffic per event, and
//! [`EventQueue::clear`] keeps the slab allocation so repeated seed runs
//! reuse it.

use crate::time::{SimDuration, SimTime};

/// Bits per wheel level: 1024 slots each. Wide levels keep cascade counts
/// low — a 1 ms RTO timer sits one level above the ns-resolution level and
/// migrates at most twice before firing, where 64-slot levels would walk
/// it down three or four tiers.
const SLOT_BITS: u32 = 10;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels. Four levels of 10 bits span 2^40 ns ≈ 18.3 min.
const LEVELS: usize = 4;
/// Bits covered by the whole wheel; `at ^ cursor >= 2^40` goes to overflow.
const HORIZON_BITS: u32 = SLOT_BITS * LEVELS as u32;
/// The span of the wheel's levels, 2^40 ns ≈ 18.3 min. An event further
/// ahead waits in the overflow list, so a config delay that a run adds
/// to the clock is bounded by it.
pub const WHEEL_HORIZON: SimDuration = SimDuration::from_nanos(1 << HORIZON_BITS);
/// Words of the per-level occupancy bitmap (one bit per slot).
const OCC_WORDS: usize = SLOTS / 64;
/// Null node index (slab sentinel).
const NIL: u32 = u32::MAX;
/// Fixed-delay lanes.
const LANES: usize = 4;
/// The shortest delay a lane takes: one level-0 revolution. A shorter
/// delay lands on level 0 directly and never cascades.
const LANE_MIN_DELAY: u64 = 1 << SLOT_BITS;
/// The first delay past the lanes: 2^20 ns ≈ 1 ms, one level-1
/// revolution. Longer timers keep the wheel path.
const LANE_MAX_DELAY: u64 = 1 << (2 * SLOT_BITS);

/// Sabotage knobs for the mutation drill (`--features queue-drill`).
///
/// Each mode injects one realistic wheel bug so the differential suite and
/// golden gates can prove they would catch it. The knob is thread-local and
/// defaults to [`Mode::None`]; production builds do not compile this module
/// at all.
#[cfg(feature = "queue-drill")]
pub mod drill {
    use std::cell::Cell;

    /// Which wheel bug to inject.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Mode {
        /// No sabotage; the wheel behaves normally.
        None,
        /// Wrong tier math: cascading a level-`L` slot truncates each
        /// event's timestamp to the level-`L-1` slot width (drops the low
        /// bits), so events fire early on coarse-tier boundaries.
        WrongTier,
        /// A horizon block jump leaves one eligible overflow entry behind
        /// whenever two or more are eligible, delaying it past events it
        /// should precede.
        DropOverflowMigration,
        /// Level-0 slots drain in *descending* seq order, turning the
        /// equal-timestamp FIFO contract into LIFO.
        BreakFifo,
        /// `schedule_reserved` ignores the reserved number and takes a
        /// fresh one, so the event pops behind everything scheduled since
        /// the reservation.
        IgnoreReservedSeq,
        /// Lane events join a ready run by appending, in lane order,
        /// after the wheel's events at the same nanosecond instead of
        /// merging by seq.
        AppendLanes,
    }

    thread_local! {
        static MODE: Cell<Mode> = const { Cell::new(Mode::None) };
    }

    /// Arm (or with [`Mode::None`], disarm) the sabotage for this thread.
    pub fn set(mode: Mode) {
        MODE.with(|m| m.set(mode));
    }

    pub(super) fn mode() -> Mode {
        MODE.with(|m| m.get())
    }
}

/// A deterministic timestamped event queue backed by a hierarchical timing
/// wheel.
///
/// Drop-in replacement for the binary-heap
/// [`ReferenceQueue`](crate::ReferenceQueue): same API, same `(time, seq)`
/// FIFO ordering contract, same reserved-key contract, same observables
/// (`now`, `scheduled_total`, `peak_len`), verified
/// byte-for-byte by the differential suite in `tests/queue_diff.rs` and
/// the golden corpus.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Slab arena: all pending events' payloads and intrusive list links.
    nodes: Vec<Node<E>>,
    /// Head of the free list through `nodes` (NIL when the slab is full).
    free_head: u32,
    /// Per-level slot heads (indices into `nodes`).
    levels: [[u32; SLOTS]; LEVELS],
    /// Per-level bitmap of non-empty slots, 16 words of 64 slots each.
    occupied: [[u64; OCC_WORDS]; LEVELS],
    /// Per-level summary: bit `w` set iff `occupied[level][w] != 0`, so
    /// level-empty checks and first-slot scans are O(1), not 16 words.
    occupied_sum: [u64; LEVELS],
    /// Head of the list of events beyond the current 2^40 ns horizon
    /// block.
    overflow: u32,
    /// Fixed-delay FIFO lanes.
    lanes: [Lane; LANES],
    /// The earliest lane head's timestamp (`u64::MAX` with every lane
    /// empty), so an `advance` reads one word to rule the lanes out.
    lane_min: u64,
    /// The delay of the last lane-eligible schedule that missed every
    /// lane; a second miss in a row at that delay binds an empty lane.
    lane_miss: u64,
    /// Due events in `(at, seq)` order, consumed from `ready_head`.
    ready: Vec<Ready<E>>,
    ready_head: usize,
    /// Scratch for sorting a level-0 slot by seq at drain time.
    drain_buf: Vec<(u64, u32)>,
    /// Wheel cursor in ns: the latest timestamp a peek or pop has
    /// reached. Monotone; [`advance_clock`](Self::advance_clock) may move
    /// `now` past it, never the other way round.
    wheel_time: u64,
    /// Pending events across ready + levels + overflow.
    len: usize,
    next_seq: u64,
    /// `(at, seq)` of the last popped event: no reserved key may precede it.
    popped: Option<(u64, u64)>,
    now: SimTime,
    scheduled_total: u64,
    peak_len: usize,
}

#[derive(Debug)]
struct Node<E> {
    at: u64,
    seq: u64,
    /// Next node in the slot list (or free list) — NIL terminates.
    next: u32,
    /// `None` only while the node sits on the free list.
    event: Option<E>,
}

/// A FIFO of events scheduled at one exact delay, linked through the
/// slab from `head` to `tail`.
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// The delay this lane holds; 0 while unbound.
    delay: u64,
    /// The head event's timestamp; `u64::MAX` while the lane is empty.
    head_at: u64,
    head: u32,
    tail: u32,
}

const EMPTY_LANE: Lane = Lane {
    delay: 0,
    head_at: u64::MAX,
    head: NIL,
    tail: NIL,
};

#[derive(Debug)]
struct Ready<E> {
    at: u64,
    seq: u64,
    /// `None` after the entry has been popped (head already moved past).
    event: Option<E>,
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue pre-sized for `capacity` pending events. Hot
    /// construction paths (one simulator per experiment × seed) use this
    /// to skip the arena's incremental regrowth.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            nodes: Vec::with_capacity(capacity),
            free_head: NIL,
            levels: [[NIL; SLOTS]; LEVELS],
            occupied: [[0; OCC_WORDS]; LEVELS],
            occupied_sum: [0; LEVELS],
            overflow: NIL,
            lanes: [EMPTY_LANE; LANES],
            lane_min: u64::MAX,
            lane_miss: 0,
            ready: Vec::new(),
            ready_head: 0,
            drain_buf: Vec::new(),
            wheel_time: 0,
            len: 0,
            next_seq: 0,
            popped: None,
            now: SimTime::ZERO,
            scheduled_total: 0,
            peak_len: 0,
        }
    }

    /// Drop all pending events and reset every observable to its initial
    /// state: [`now`](Self::now) returns [`SimTime::ZERO`],
    /// [`scheduled_total`](Self::scheduled_total) and
    /// [`peak_len`](Self::peak_len) return 0, and the FIFO tie-break
    /// sequence restarts (so a cleared queue schedules and pops exactly
    /// like a fresh one). Only the allocations (arena, ready run) are
    /// kept, so repeated seed runs reuse them instead of rebuilding from
    /// scratch — this is what makes `TransportSim::reset` observably
    /// identical to constructing a new sim.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free_head = NIL;
        self.levels = [[NIL; SLOTS]; LEVELS];
        self.occupied = [[0; OCC_WORDS]; LEVELS];
        self.occupied_sum = [0; LEVELS];
        self.overflow = NIL;
        self.lanes = [EMPTY_LANE; LANES];
        self.lane_min = u64::MAX;
        self.lane_miss = 0;
        self.ready.clear();
        self.ready_head = 0;
        self.drain_buf.clear();
        self.wheel_time = 0;
        self.len = 0;
        self.next_seq = 0;
        self.popped = None;
        self.now = SimTime::ZERO;
        self.scheduled_total = 0;
        self.peak_len = 0;
    }

    /// Events the arena can hold without reallocating (reuse tests).
    pub fn capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (or zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling behind the clock would
    /// silently corrupt causality, so it is treated as a logic bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.reserve_seq();
        self.insert(at, seq, event, true);
    }

    /// Take the next FIFO tie-break number without scheduling anything.
    /// Pass it to [`schedule_reserved`](Self::schedule_reserved) later.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at `at` under a number from
    /// [`reserve_seq`](Self::reserve_seq): it pops at the `(at, seq)` rank
    /// it would have had if scheduled when `seq` was reserved. Counts in
    /// [`scheduled_total`](Self::scheduled_total) like any schedule.
    ///
    /// # Panics
    /// Panics if `at` is in the past, if `seq` was never reserved, or if
    /// `(at, seq)` orders before the last popped event.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) {
        assert!(seq < self.next_seq, "seq {seq} was never reserved");
        if let Some((t, s)) = self.popped {
            assert!(
                (at.as_nanos(), seq) > (t, s),
                "reserved key ({at}, {seq}) is before the last popped ({}, {s})",
                SimTime::from_nanos(t)
            );
        }
        #[cfg(feature = "queue-drill")]
        let seq = if drill::mode() == drill::Mode::IgnoreReservedSeq {
            self.reserve_seq()
        } else {
            seq
        };
        self.insert(at, seq, event, false);
    }

    /// Queue `event` under `(at, seq)`. `fresh` says `seq` is the newest
    /// number, so the event may join a lane.
    fn insert(&mut self, at: SimTime, seq: u64, event: E, fresh: bool) {
        assert!(
            at >= self.now,
            "scheduled event at {at} is before current time {}",
            self.now
        );
        self.scheduled_total += 1;
        crate::par::record_scheduled_event();
        let atn = at.as_nanos();
        if atn <= self.wheel_time {
            // The cursor may sit ahead of `now` (it advances lazily on
            // peek), so a legal schedule can land at or behind it: merge
            // into the sorted ready run at its `(at, seq)` rank, which is
            // `>= ready_head` because the key follows the last pop.
            self.insert_ready(atn, seq, event);
        } else {
            let idx = self.alloc(atn, seq, event);
            let delay = atn - self.now.as_nanos();
            let laned = fresh
                && self.overflow == NIL
                && (LANE_MIN_DELAY..LANE_MAX_DELAY).contains(&delay)
                && self.push_lane(idx, atn, delay);
            if !laned {
                self.place(idx);
            }
        }
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
            crate::par::note_queue_depth(self.peak_len as u64);
        }
    }

    /// Move the clock forward to `t` without popping anything; a `t` at
    /// or before [`now`](Self::now) is a no-op. A caller that drops
    /// timers without popping them uses this to land the clock where
    /// they would have left it had they popped.
    ///
    /// # Panics
    /// Panics if a pending event is due before `t`: the clock would pass
    /// an event that has not fired.
    pub fn advance_clock(&mut self, t: SimTime) {
        if t <= self.now {
            return;
        }
        if let Some(next) = self.peek_time() {
            assert!(
                next >= t,
                "advancing the clock to {t} would skip an event at {next}"
            );
        }
        self.now = t;
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        if self.ready_head >= self.ready.len() {
            self.advance();
        }
        let r = &mut self.ready[self.ready_head];
        let at = SimTime::from_nanos(r.at);
        let event = r.event.take().expect("ready entry popped twice");
        self.popped = Some((r.at, r.seq));
        self.ready_head += 1;
        self.len -= 1;
        self.now = at;
        Some((at, event))
    }

    /// The timestamp of the next event without popping it.
    ///
    /// Takes `&mut self`: the wheel advances its cursor lazily (cascading
    /// coarse slots into finer ones) to discover the next event. This is
    /// invisible to every observable — `now`, pop order, counters — and
    /// the sole production call site (`TransportSim::run`) holds `&mut`.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if self.ready_head >= self.ready.len() {
            self.advance();
        }
        self.ready
            .get(self.ready_head)
            .map(|r| SimTime::from_nanos(r.at))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (a cheap progress/size metric
    /// for run reports and runaway detection in tests).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// The deepest pending-event backlog this queue has reached since
    /// construction (or the last [`EventQueue::clear`]) — the memory
    /// high-water mark of the run.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    // ---- internals -------------------------------------------------------

    /// Allocate a slab node, reusing the free list when possible. The
    /// node's link is set by [`place`](Self::place).
    fn alloc(&mut self, at: u64, seq: u64, event: E) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let n = &mut self.nodes[idx as usize];
            self.free_head = n.next;
            n.at = at;
            n.seq = seq;
            n.event = Some(event);
            idx
        } else {
            let idx = self.nodes.len();
            assert!(idx < NIL as usize, "event arena exceeded u32 indices");
            self.nodes.push(Node {
                at,
                seq,
                next: NIL,
                event: Some(event),
            });
            idx as u32
        }
    }

    /// Return a node's payload and put the node on the free list.
    fn release(&mut self, idx: u32) -> E {
        let n = &mut self.nodes[idx as usize];
        let event = n.event.take().expect("released an empty arena node");
        n.next = self.free_head;
        self.free_head = idx;
        event
    }

    /// Push an allocated node onto the wheel slot (or the overflow list)
    /// derived from its timestamp. Requires `at > wheel_time`.
    fn place(&mut self, idx: u32) {
        let at = self.nodes[idx as usize].at;
        debug_assert!(at > self.wheel_time);
        let xor = at ^ self.wheel_time;
        let head = if xor >> HORIZON_BITS != 0 {
            // Different 2^40 ns block: beyond the wheel's horizon.
            &mut self.overflow
        } else {
            let level = ((63 - xor.leading_zeros()) / SLOT_BITS) as usize;
            let slot = ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            self.occupied[level][slot / 64] |= 1u64 << (slot % 64);
            self.occupied_sum[level] |= 1u64 << (slot / 64);
            &mut self.levels[level][slot]
        };
        let old = std::mem::replace(head, idx);
        self.nodes[idx as usize].next = old;
    }

    /// Clear a slot's occupancy bit (and its word's summary bit if the
    /// word empties).
    fn mark_empty(&mut self, level: usize, slot: usize) {
        self.occupied[level][slot / 64] &= !(1u64 << (slot % 64));
        if self.occupied[level][slot / 64] == 0 {
            self.occupied_sum[level] &= !(1u64 << (slot / 64));
        }
    }

    /// Append a node to the lane bound to `delay`, binding an empty lane
    /// if `delay` also missed on the previous lane-eligible schedule.
    /// Returns false (the node stays unlinked) if no lane takes it.
    fn push_lane(&mut self, idx: u32, at: u64, delay: u64) -> bool {
        let l = match self.lanes.iter().position(|l| l.delay == delay) {
            Some(l) => l,
            None => {
                if std::mem::replace(&mut self.lane_miss, delay) != delay {
                    return false;
                }
                let Some(l) = self.lanes.iter().position(|l| l.head == NIL) else {
                    return false;
                };
                self.lanes[l].delay = delay;
                l
            }
        };
        self.nodes[idx as usize].next = NIL;
        let lane = &mut self.lanes[l];
        if lane.head == NIL {
            lane.head = idx;
            lane.head_at = at;
            self.lane_min = self.lane_min.min(at);
        } else {
            self.nodes[lane.tail as usize].next = idx;
        }
        lane.tail = idx;
        true
    }

    /// Move every lane event at nanosecond `t` to the end of the ready
    /// run, in seq order among themselves, and refresh the lane heads and
    /// `lane_min`.
    fn drain_lanes(&mut self, t: u64) {
        let start = self.ready.len();
        let mut lanes_at_t = 0;
        let mut min = u64::MAX;
        for l in 0..LANES {
            if self.lanes[l].head_at == t {
                lanes_at_t += 1;
                let mut idx = self.lanes[l].head;
                let mut head_at = t;
                while head_at == t {
                    let n = &self.nodes[idx as usize];
                    let (seq, next) = (n.seq, n.next);
                    let event = self.release(idx);
                    self.ready.push(Ready {
                        at: t,
                        seq,
                        event: Some(event),
                    });
                    idx = next;
                    head_at = match idx {
                        NIL => u64::MAX,
                        next => self.nodes[next as usize].at,
                    };
                }
                let lane = &mut self.lanes[l];
                lane.head = idx;
                lane.head_at = head_at;
            }
            min = min.min(self.lanes[l].head_at);
        }
        self.lane_min = min;
        // One lane is already in seq order; several interleave.
        if lanes_at_t > 1 {
            self.ready[start..].sort_unstable_by_key(|r| r.seq);
        }
    }

    /// The ready run holds events at the cursor's nanosecond: add the
    /// lane events there, if any, merged by seq.
    fn merge_lanes_at_cursor(&mut self) {
        if self.lane_min != self.wheel_time {
            return;
        }
        self.drain_lanes(self.wheel_time);
        #[cfg(feature = "queue-drill")]
        if drill::mode() == drill::Mode::AppendLanes {
            return;
        }
        // Every entry is at one nanosecond (`ready_head` is 0 inside
        // `advance`), so seq alone orders them.
        self.ready.sort_unstable_by_key(|r| r.seq);
    }

    /// Re-home a node after a cascade or horizon jump moved the cursor:
    /// due nodes melt into the ready run, the rest re-enter the wheel at a
    /// finer level.
    fn reinsert(&mut self, idx: u32) {
        let n = &self.nodes[idx as usize];
        if n.at <= self.wheel_time {
            let (at, seq) = (n.at, n.seq);
            let event = self.release(idx);
            self.insert_ready(at, seq, event);
        } else {
            self.place(idx);
        }
    }

    /// Merge an event into the sorted ready run at its `(at, seq)` rank.
    fn insert_ready(&mut self, at: u64, seq: u64, event: E) {
        let tail = &self.ready[self.ready_head..];
        let pos = tail.partition_point(|r| (r.at, r.seq) < (at, seq));
        self.ready.insert(
            self.ready_head + pos,
            Ready {
                at,
                seq,
                event: Some(event),
            },
        );
    }

    /// Advance the cursor to the next pending event and fill the ready run
    /// with every event at that exact timestamp: its level-0 slot and the
    /// lane events there. Requires at least one event outside the ready
    /// run.
    fn advance(&mut self) {
        debug_assert!(self.ready_head >= self.ready.len());
        debug_assert!(self.len > 0);
        self.ready.clear();
        self.ready_head = 0;
        loop {
            if !self.ready.is_empty() {
                // A cascade or jump landed exact-timestamp events directly
                // in the ready run; they are the earliest by construction.
                self.merge_lanes_at_cursor();
                return;
            }
            let Some(level) = (0..LEVELS).find(|&l| self.occupied_sum[l] != 0) else {
                // A jump moves the cursor to the earliest overflow entry's
                // horizon block, which must not pass a lane event.
                if self.overflow != NIL
                    && self.lane_min >> HORIZON_BITS >= self.overflow_min() >> HORIZON_BITS
                {
                    self.horizon_jump();
                    continue;
                }
                debug_assert!(
                    self.lane_min != u64::MAX,
                    "len > 0 but wheel, lanes, ready and overflow are all empty"
                );
                // Lane events come first: no wheel level holds anything,
                // and every overflow entry lies in a later horizon block
                // than the cursor's new position.
                self.wheel_time = self.lane_min;
                self.drain_lanes(self.lane_min);
                return;
            };
            let word = self.occupied_sum[level].trailing_zeros() as usize;
            let slot = word * 64 + self.occupied[level][word].trailing_zeros() as usize;
            let width_bits = SLOT_BITS * level as u32;
            let above = width_bits + SLOT_BITS;
            let slot_start =
                (self.wheel_time & !((1u64 << above) - 1)) | ((slot as u64) << width_bits);
            // XOR level selection guarantees occupied slots sit ahead of
            // the cursor, so the cursor only ever moves forward here.
            debug_assert!(slot_start >= self.wheel_time);
            if self.lane_min < slot_start {
                // Lane events strictly before everything on the wheel.
                // The cursor may move anywhere short of the earliest
                // occupied slot: the XOR placement of every wheel event
                // still holds from there.
                self.wheel_time = self.lane_min;
                self.drain_lanes(self.lane_min);
                return;
            }
            self.wheel_time = slot_start;
            let mut idx = self.levels[level][slot];
            self.levels[level][slot] = NIL;
            self.mark_empty(level, slot);
            if level == 0 {
                // A level-0 slot is one exact nanosecond: restore FIFO by
                // sorting on seq alone, whatever order cascades used.
                #[cfg(not(feature = "queue-drill"))]
                if self.lane_min != slot_start && self.nodes[idx as usize].next == NIL {
                    // Single event at this nanosecond — the overwhelmingly
                    // common case — skips the drain buffer and sort.
                    let n = &self.nodes[idx as usize];
                    let (at, seq) = (n.at, n.seq);
                    debug_assert_eq!(at, slot_start);
                    let event = self.release(idx);
                    self.ready.push(Ready {
                        at,
                        seq,
                        event: Some(event),
                    });
                    return;
                }
                let mut drain = std::mem::take(&mut self.drain_buf);
                drain.clear();
                while idx != NIL {
                    let n = &self.nodes[idx as usize];
                    debug_assert_eq!(n.at, slot_start);
                    drain.push((n.seq, idx));
                    idx = n.next;
                }
                drain.sort_unstable();
                #[cfg(feature = "queue-drill")]
                if drill::mode() == drill::Mode::BreakFifo {
                    drain.reverse();
                }
                for &(seq, node) in &drain {
                    let event = self.release(node);
                    self.ready.push(Ready {
                        at: slot_start,
                        seq,
                        event: Some(event),
                    });
                }
                self.drain_buf = drain;
                self.merge_lanes_at_cursor();
                return;
            }
            // Cascade the coarse slot into finer levels (strictly lower:
            // each entry now differs from the cursor below `width_bits`).
            while idx != NIL {
                let next = self.nodes[idx as usize].next;
                #[cfg(feature = "queue-drill")]
                if drill::mode() == drill::Mode::WrongTier && width_bits > SLOT_BITS {
                    let n = &mut self.nodes[idx as usize];
                    n.at &= !((1u64 << (width_bits - SLOT_BITS)) - 1);
                }
                self.reinsert(idx);
                idx = next;
            }
        }
    }

    /// The earliest overflow timestamp (`u64::MAX` with none).
    fn overflow_min(&self) -> u64 {
        let mut min_at = u64::MAX;
        let mut idx = self.overflow;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            min_at = min_at.min(n.at);
            idx = n.next;
        }
        min_at
    }

    /// All wheel levels are empty but overflow is not: jump the cursor to
    /// the horizon block of the earliest overflow entry and migrate every
    /// entry of that block into the wheel.
    fn horizon_jump(&mut self) {
        let min_at = self.overflow_min();
        let mut eligible = 0usize;
        let block = min_at >> HORIZON_BITS;
        self.wheel_time = block << HORIZON_BITS;
        #[cfg(feature = "queue-drill")]
        let strand =
            drill::mode() == drill::Mode::DropOverflowMigration && self.block_count(block) >= 2;
        // Detach the whole list and rebuild it from the entries that stay.
        let mut idx = std::mem::replace(&mut self.overflow, NIL);
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            let next = n.next;
            let migrate = n.at >> HORIZON_BITS == block;
            // Strand the earliest entry, so the sabotage delays it past
            // later ones whatever the list order.
            #[cfg(feature = "queue-drill")]
            let migrate = migrate && !(strand && n.at == min_at);
            if migrate {
                eligible += 1;
                self.reinsert(idx);
            } else {
                self.nodes[idx as usize].next = self.overflow;
                self.overflow = idx;
            }
            idx = next;
        }
        debug_assert!(eligible > 0, "horizon jump found no overflow entry");
    }

    /// Overflow entries in horizon block `block` (drill trigger).
    #[cfg(feature = "queue-drill")]
    fn block_count(&self, block: u64) -> usize {
        let mut count = 0;
        let mut idx = self.overflow;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            count += usize::from(n.at >> HORIZON_BITS == block);
            idx = n.next;
        }
        count
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(t(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(t(7)));
        q.pop();
        assert_eq!(q.now(), t(7));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(5), ());
    }

    #[test]
    fn len_and_counters() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn with_capacity_presizes() {
        let q: EventQueue<()> = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn clear_resets_state_but_keeps_allocation() {
        let mut q = EventQueue::with_capacity(128);
        for i in 0..100 {
            q.schedule(t(i + 1), i);
        }
        q.pop();
        assert!(q.now() > SimTime::ZERO);
        let cap = q.capacity();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.scheduled_total(), 0);
        assert_eq!(q.capacity(), cap, "clear must keep the allocation");
        // The FIFO sequence restarted: a fresh run is indistinguishable
        // from one on a newly-built queue.
        q.schedule(t(5), 1u64);
        q.schedule(t(5), 2u64);
        assert_eq!(q.pop(), Some((t(5), 1)));
        assert_eq!(q.pop(), Some((t(5), 2)));
    }

    #[test]
    fn peak_len_tracks_high_water() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(t(i + 1), ());
        }
        for _ in 0..10 {
            q.pop();
        }
        q.schedule(t(100), ());
        assert_eq!(q.peak_len(), 10, "peak survives draining");
        q.clear();
        assert_eq!(q.peak_len(), 0, "clear resets the mark");
    }

    #[test]
    fn rescheduling_at_current_time_is_allowed() {
        // An event may schedule follow-up work "now" (zero-latency hop).
        let mut q = EventQueue::new();
        q.schedule(t(3), 1u8);
        q.pop();
        q.schedule(t(3), 2u8);
        assert_eq!(q.pop(), Some((t(3), 2)));
    }

    #[test]
    fn cascade_preserves_order_across_tiers() {
        // Timestamps chosen to land on levels 0..=4 and to interleave
        // coarse-tier cascades with fine-tier pops.
        let mut q = EventQueue::new();
        let times = [
            5u64,
            63,
            64,
            4_095,
            4_097,
            262_143,
            262_145,
            16_777_215,
            16_777_217,
            1_000_000_000,
        ];
        for (i, &n) in times.iter().enumerate() {
            q.schedule(ns(n), i);
        }
        let mut sorted: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        sorted.sort_unstable();
        let popped: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(at, e)| (at.as_nanos(), e))
            .collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn equal_timestamps_fifo_across_cursor_positions() {
        // Schedule the same far timestamp from several cursor positions:
        // the entries land in the same slot at different wall-clock
        // moments (and thus arrive at level 0 in cascade order, not seq
        // order) yet must still pop FIFO.
        let mut q = EventQueue::new();
        let target = ns(50_000);
        q.schedule(target, 0u32); // from cursor 0 (level 2)
        q.schedule(ns(40_000), 100);
        q.schedule(target, 1);
        while let Some(t) = q.peek_time() {
            if t >= target {
                break;
            }
            q.pop();
        }
        q.schedule(target, 2); // cursor now close: finer level
        let rest: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, [0, 1, 2]);
    }

    #[test]
    fn far_future_overflow_round_trips() {
        // 2^36 ns ≈ 68.7 s is the horizon: a 10-minute timer crosses
        // multiple horizon blocks and must still pop in order.
        let mut q = EventQueue::new();
        let far = 600_000_000_000u64; // 10 min
        let farther = 600_000_000_001u64;
        q.schedule(ns(farther), "b");
        q.schedule(ns(far), "a");
        q.schedule(ns(7), "near");
        assert_eq!(q.pop(), Some((ns(7), "near")));
        assert_eq!(q.pop(), Some((ns(far), "a")));
        assert_eq!(q.pop(), Some((ns(farther), "b")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_equal_timestamps_stay_fifo() {
        let mut q = EventQueue::new();
        let far = ns(3 * (1u64 << HORIZON_BITS) + 12345);
        for i in 0..50 {
            q.schedule(far, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_blocks_migrate_in_order() {
        // Entries spread over three horizon blocks, scheduled shuffled.
        let mut q = EventQueue::new();
        let block = 1u64 << HORIZON_BITS;
        let times = [
            2 * block + 5,
            block + 9,
            3 * block,
            block,
            2 * block + 4,
            block + 1,
        ];
        for (i, &n) in times.iter().enumerate() {
            q.schedule(ns(n), i);
        }
        let mut sorted: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        sorted.sort_unstable();
        let popped: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(at, e)| (at.as_nanos(), e))
            .collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn schedule_behind_advanced_cursor_merges_into_ready() {
        // peek advances the cursor; a schedule between now and the cursor
        // must still pop at its proper (earlier) rank.
        let mut q = EventQueue::new();
        q.schedule(ns(100), "pop-me");
        q.schedule(ns(5_000), "later");
        assert_eq!(q.pop(), Some((ns(100), "pop-me")));
        // Cursor has advanced at least to 100; peek drags it to 5_000's
        // level-0 slot.
        assert_eq!(q.peek_time(), Some(ns(5_000)));
        q.schedule(ns(200), "middle");
        assert_eq!(q.pop(), Some((ns(200), "middle")));
        assert_eq!(q.pop(), Some((ns(5_000), "later")));
    }

    #[test]
    fn reserved_key_pops_at_its_reservation_rank() {
        // Reserve between two schedules at one instant: the reserved event
        // pops between them even though it is queued last.
        let mut q = EventQueue::new();
        q.schedule(t(10), "first");
        let seq = q.reserve_seq();
        q.schedule(t(10), "third");
        q.schedule_reserved(t(10), seq, "second");
        assert_eq!(
            q.scheduled_total(),
            3,
            "a reservation alone schedules nothing"
        );
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["first", "second", "third"]);
    }

    #[test]
    fn arena_recycles_nodes() {
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..1000u64 {
                q.schedule(ns(round * 1000 + i + 1), i);
            }
            while q.pop().is_some() {}
        }
        // The slab never grows past one round's worth of nodes.
        assert!(
            q.capacity() <= 2048,
            "arena grew to {} for a working set of 1000",
            q.capacity()
        );
    }

    #[test]
    fn advance_clock_moves_now_but_never_past_a_pending_event() {
        let mut q = EventQueue::new();
        q.advance_clock(ns(40));
        assert_eq!(q.now(), ns(40));
        q.advance_clock(ns(10));
        assert_eq!(q.now(), ns(40), "the clock never runs backwards");
        q.schedule(ns(60), ());
        q.advance_clock(ns(60));
        assert_eq!(q.pop(), Some((ns(60), ())));
    }

    #[test]
    #[should_panic(expected = "would skip an event")]
    fn advance_clock_past_a_pending_event_panics() {
        let mut q = EventQueue::new();
        q.schedule(ns(60), ());
        q.advance_clock(ns(61));
    }

    /// Events queued in lane `l`, head first.
    fn lane_events<E: Copy>(q: &EventQueue<E>, l: usize) -> Vec<E> {
        let mut out = Vec::new();
        let mut idx = q.lanes[l].head;
        while idx != NIL {
            let n = &q.nodes[idx as usize];
            out.push(n.event.unwrap());
            idx = n.next;
        }
        out
    }

    #[test]
    fn a_delay_binds_a_lane_on_its_second_miss_in_a_row() {
        let mut q = EventQueue::new();
        q.schedule(ns(4_012), 0);
        q.schedule(ns(3_000), 1);
        q.schedule(ns(4_012), 2);
        assert_eq!(q.lanes[0].delay, 0, "4,012 missed, then 3,000: no repeat");
        q.schedule(ns(4_012), 3);
        assert_eq!(q.lanes[0].delay, 4_012, "4,012 missed twice in a row");
        q.schedule(ns(4_012), 4);
        assert_eq!(lane_events(&q, 0), [3, 4]);
        // Reserved keys, short delays and far timers keep the wheel path.
        let seq = q.reserve_seq();
        q.schedule_reserved(ns(4_012), seq, 5);
        q.schedule(ns(218), 6);
        q.schedule(ns(218), 7);
        q.schedule(ns(5_000_000), 8);
        q.schedule(ns(5_000_000), 9);
        assert_eq!(lane_events(&q, 0), [3, 4]);
        assert!(q.lanes[1..].iter().all(|l| l.head == NIL));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [6, 7, 1, 0, 2, 3, 4, 5, 8, 9]);
        assert_eq!(q.lane_min, u64::MAX);
    }

    #[test]
    fn lane_and_wheel_events_at_one_nanosecond_pop_by_seq() {
        // Lane events first in seq, a wheel event between them: a level-0
        // drain at 5,120 and a cascade of the level-1 slot starting at
        // 10,240 (straight into the ready run) both merge the lanes.
        for target in [5_120u64, 10_240] {
            let mut q = EventQueue::new();
            let d = target - 1_000;
            q.advance_clock(ns(1_000));
            q.schedule(ns(target), "miss");
            q.schedule(ns(target), "lane-a");
            let seq = q.reserve_seq();
            q.schedule(ns(target), "lane-b");
            q.schedule_reserved(ns(target), seq, "wheel");
            assert_eq!(q.lanes[0].delay, d);
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, ["miss", "lane-a", "wheel", "lane-b"], "at {target}");
        }
    }

    #[test]
    fn lanes_pop_before_an_overflow_jump_past_them() {
        // The wheel levels are empty, a lane event waits just short of a
        // horizon block boundary and an overflow entry just past it: the
        // lane event pops first and the jump comes after.
        let block = 1u64 << HORIZON_BITS;
        let mut q = EventQueue::new();
        q.advance_clock(ns(block - 5_000));
        q.schedule(ns(block - 2_994), 0);
        q.schedule(ns(block - 2_994), 1);
        assert_eq!(q.pop(), Some((ns(block - 2_994), 0)));
        q.schedule(ns(block - 988), 2);
        q.schedule(ns(block + 100), 3);
        assert_eq!(lane_events(&q, 0), [2], "1 joined the ready run with 0");
        assert_ne!(q.overflow, NIL);
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(at, e)| (at.as_nanos(), e))
            .collect();
        assert_eq!(
            order,
            [(block - 2_994, 1), (block - 988, 2), (block + 100, 3)]
        );
    }

    #[test]
    fn clear_unbinds_the_lanes() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.schedule(ns(2_006), i);
        }
        assert_eq!(q.lanes[0].delay, 2_006);
        q.clear();
        assert!(q.lanes.iter().all(|l| l.delay == 0 && l.head == NIL));
        assert_eq!(q.lane_min, u64::MAX);
        q.schedule(ns(2_006), 9);
        assert_eq!(q.lanes[0].delay, 0, "a cleared queue binds afresh");
        assert_eq!(q.pop(), Some((ns(2_006), 9)));
    }

    #[test]
    fn dense_random_workload_matches_sorted_order() {
        // A deterministic LCG mixes all tiers, dense ties included; a
        // (time, seq) min-heap is the trusted model.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q = EventQueue::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut expect: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        for seq in 0..20_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(seq);
            let spread = match state % 5 {
                0 => state % 8,              // dense ties near now
                1 => state % 4_000,          // level 0–1
                2 => state % 1_000_000,      // level 2–3
                3 => state % 500_000_000,    // level 4
                _ => state % 80_000_000_000, // level 5 + overflow
            };
            let at = now + spread;
            q.schedule(ns(at), seq);
            expect.push(Reverse((at, seq)));
            if state.is_multiple_of(3) {
                if let Some((t, got)) = q.pop() {
                    let Reverse((et, eseq)) = expect.pop().unwrap();
                    assert_eq!((t.as_nanos(), got), (et, eseq));
                    now = et;
                }
            }
        }
        while let Some(Reverse((et, eseq))) = expect.pop() {
            let (t, got) = q.pop().expect("queue drained early");
            assert_eq!((t.as_nanos(), got), (et, eseq));
        }
        assert!(q.pop().is_none());
    }
}
