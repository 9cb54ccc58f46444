//! Per-packet path selection over N equivalent paths (§7.2).
//!
//! A *path id* is an opaque entropy value `0..num_paths`; the fabric's
//! ECMP hash maps it to a concrete route. The feedback-driven algorithms
//! keep per-path observations (EWMA RTT, recent ECN fraction) fed back
//! from ACKs. Per-path state is stored by field and only for the readers
//! that need it: OBS — the algorithm Stellar deploys over 128 paths —
//! reads no feedback, so a connection spraying with it keeps nothing per
//! path beyond its sent-packet counts.

use stellar_sim::{SimDuration, SimRng, SimTime};

/// The algorithms evaluated in the paper (§7.2, Figs. 9–12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathAlgo {
    /// All packets on path 0 — the classic single-path ECMP baseline.
    SinglePath,
    /// Strict rotation over all paths.
    RoundRobin,
    /// Oblivious Packet Spraying: uniform random path per packet — the
    /// algorithm Stellar deploys with 128 paths.
    Obs,
    /// Dynamic Weighted Round-Robin: rotation weighted by inverse RTT.
    Dwrr,
    /// Always the path with the lowest observed RTT (explores unprobed
    /// paths first, then exploits — and therefore concentrates load).
    BestRtt,
    /// MP-RDMA-style congestion-aware choice: power-of-two sampling by
    /// recent ECN fraction.
    MpRdma,
    /// Flowlet switching (§7.1): stick to the current path while packets
    /// are back-to-back; re-pick randomly after an inter-packet gap longer
    /// than the flowlet timeout. The paper plans this for its older GPU
    /// clusters ("we appreciate the simplicity and compatibility of this
    /// approach").
    Flowlet {
        /// Inter-packet gap beyond which a new flowlet (and path) starts.
        gap: SimDuration,
    },
    /// Path-aware spraying in the spirit of SMaRTT-REPS/STrack (§9): path
    /// ids whose packets return clean (unmarked) ACKs are *recycled* for
    /// subsequent packets; marked or unprobed ids fall back to a random
    /// pick. The paper implemented "a similar path-aware packet spraying
    /// algorithm" and measured no significant advantage over OBS on its
    /// regular, rail-aligned traffic — the `advanced_spray` ablation
    /// reproduces that comparison.
    PathAware,
}

/// Loss-scoreboard policy: how many consecutive losses blacklist a path,
/// and for how long. During a link failure the paths crossing it rack up
/// consecutive RTOs within one or two timeouts — long before BGP
/// converges — so the scoreboard steers retransmissions *and* fresh
/// packets away from the dead route almost immediately (§7.2's
/// "retransmission on a different path", generalized to remember which
/// paths are bad).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreboardPolicy {
    /// Consecutive losses (no intervening ACK) before a path is
    /// blacklisted. `0` disables the scoreboard entirely.
    pub blacklist_after: u32,
    /// How long a blacklisted path sits out before it may be retried.
    /// Any ACK on the path clears the blacklist early (the path proved
    /// itself healthy again, e.g. after a flap back up).
    pub penalty: SimDuration,
}

impl Default for ScoreboardPolicy {
    fn default() -> Self {
        ScoreboardPolicy {
            blacklist_after: 2,
            penalty: SimDuration::from_millis(2),
        }
    }
}

/// Plane-level failover policy (the dual-plane HPN7.0 shape, §3). A
/// NIC-port or rail failure kills *every* path hashed onto one plane at
/// once; per-path blacklists expire after [`ScoreboardPolicy::penalty`] —
/// long before routing reconverges — so an unaided scoreboard keeps
/// re-probing the dead plane with live traffic. Plane failover aggregates
/// the scoreboard: once a majority of a plane's paths are simultaneously
/// blacklisted, the whole plane is quarantined for `readmit_after`
/// (sized to the fabric's `recovery_time`), migrating every flow to the
/// surviving plane. The quarantine expiring *is* the readmission probe:
/// the next packets hash back onto the plane and either ACK — clearing
/// all scoreboard state — or blacklist it again. Any ACK on one of the
/// plane's paths readmits it early.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaneFailover {
    /// Number of network planes; path id `p` maps to plane `p % planes`
    /// (mirroring the fabric's ECMP entropy → plane hash). `0` disables
    /// plane failover entirely.
    pub planes: u32,
    /// Quarantine duration: how long a failed plane sits out before a
    /// readmission probe. Size this to the fabric's routing
    /// `recovery_time` (BGP convergence), not the per-path penalty.
    pub readmit_after: SimDuration,
}

impl Default for PlaneFailover {
    fn default() -> Self {
        PlaneFailover {
            planes: 2,
            readmit_after: SimDuration::from_millis(5),
        }
    }
}

/// Observed state of one path, read back from a [`PathSelector`].
///
/// An EWMA the selector's algorithm does not track reads `None`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathState {
    /// EWMA of measured RTT; `Some(ZERO)` until the first sample. Tracked
    /// by BestRtt and Dwrr.
    pub rtt_ewma: Option<SimDuration>,
    /// EWMA of the ECN-marked fraction of ACKs (0..1). Tracked by MpRdma.
    pub ecn_ewma: Option<f64>,
    /// Losses since the last ACK on this path (scoreboard input).
    pub consecutive_losses: u32,
    /// The path is blacklisted until this time (ZERO = not blacklisted).
    pub blacklisted_until: SimTime,
}

/// One path's loss-scoreboard entry.
#[derive(Debug, Clone, Copy, Default)]
struct Score {
    /// Losses since the last ACK on this path.
    losses: u32,
    /// Blacklisted until this time (ZERO = not blacklisted).
    blacklisted_until: SimTime,
}

/// Per-connection path selector.
///
/// The selector keeps inline only what every pick and every ACK reads,
/// plus the RNG a pick draws from and the small per-algorithm cursors.
/// Everything else — the per-path feedback EWMAs, the loss scoreboard,
/// plane failover, and the Dwrr and BestRtt selection state — sits in
/// one boxed `Feedback`, created when the algorithm reads feedback, at
/// the first loss the scoreboard counts, or when plane failover is set.
/// An OBS connection that never loses a packet has none.
///
/// The fields are laid out in the order a healthy OBS connection reads
/// them: what every pick and every ACK reads, then the RNG a pick draws
/// from, then everything else. The selector is 128-byte aligned and a
/// draw's words end within its first 128 bytes, so a pick reads one
/// adjacent-line pair. A pick writes nothing per path: who needs a
/// per-path distribution counts the picks (or the fabric's sends).
#[derive(Debug)]
#[repr(C, align(128))]
pub struct PathSelector {
    algo: PathAlgo,
    /// Latest blacklist or plane-quarantine deadline ever set — lets the
    /// healthy fast path skip the exile scan (and its extra RNG draws)
    /// entirely. It only grows: a stale deadline costs a scan that finds
    /// nothing exiled and picks as the fast path would.
    max_exile_until: SimTime,
    /// Configured paths.
    num_paths: u32,
    /// Whether [`PathSelector::on_ack`] has anything to update: the
    /// algorithm reads feedback, the scoreboard is allocated, or plane
    /// failover is on.
    wants_ack: bool,
    /// Ends the first 128 bytes with the words a draw reads.
    rng: SimRng,
    rr_cursor: u32,
    flowlet_path: u32,
    flowlet_last_send: SimTime,
    scoreboard: ScoreboardPolicy,
    /// Per-path and failover state; `None` until something needs it.
    feedback: Option<Box<Feedback>>,
}

/// The selector state that not every connection needs (see
/// [`PathSelector`]). Per-path state lives in one vector per field, each
/// allocated only for the algorithms or features that read it:
/// `rtt_ewma` for BestRtt and Dwrr, `ecn_ewma` for MpRdma,
/// `dwrr_deficit` and `dwrr_weights` for Dwrr, `rtt_tree` for BestRtt,
/// `recycled` for PathAware, and `scores` from the first loss the
/// scoreboard counts. An empty vector means "not tracked".
///
/// The state a pick reads is kept current by `on_ack`, so no algorithm
/// scans every path to choose one: Dwrr's weights and their maximum, and
/// BestRtt's min-tree over the RTT EWMAs, change only when an ACK moves
/// an EWMA.
#[derive(Debug)]
struct Feedback {
    /// RTT EWMA per path (ZERO until the first sample).
    rtt_ewma: Vec<SimDuration>,
    /// ECN-fraction EWMA per path.
    ecn_ewma: Vec<f64>,
    /// DWRR deficit counter per path.
    dwrr_deficit: Vec<f64>,
    /// Loss scoreboard per path; empty until a loss is counted.
    scores: Vec<Score>,
    /// REPS-style recycle queue: path ids whose last ACK was clean.
    recycled: Vec<u32>,
    /// Plane failover policy; `planes == 0` means disabled (the default).
    failover: PlaneFailover,
    /// Per-plane quarantine deadlines (empty while failover is disabled).
    plane_quarantine_until: Vec<SimTime>,
    /// DWRR weight per path: `1.0e4 / rtt_ewma` in ns, `1.0` while the
    /// path is unprobed.
    dwrr_weights: Vec<f64>,
    /// The largest of `dwrr_weights`.
    dwrr_wmax: f64,
    /// BestRtt's tournament tree over `(rtt_ewma, path)`: node `k` holds
    /// the lower-keyed path of its children `2k` and `2k + 1`, the leaves
    /// `size..2 * size` hold the paths themselves (`NO_PATH` past
    /// `num_paths`), and the root `rtt_tree[1]` is the path with the
    /// lowest EWMA, lowest index first among equals.
    rtt_tree: Vec<u16>,
    /// `(path blacklists, plane quarantines)` so far.
    exiles: (u64, u64),
}

/// Plane failover while it is off.
const NO_FAILOVER: PlaneFailover = PlaneFailover {
    planes: 0,
    readmit_after: SimDuration::ZERO,
};

impl Default for Feedback {
    fn default() -> Self {
        Feedback {
            rtt_ewma: Vec::new(),
            ecn_ewma: Vec::new(),
            dwrr_deficit: Vec::new(),
            scores: Vec::new(),
            recycled: Vec::new(),
            failover: NO_FAILOVER,
            plane_quarantine_until: Vec::new(),
            dwrr_weights: Vec::new(),
            dwrr_wmax: 1.0,
            rtt_tree: Vec::new(),
            exiles: (0, 0),
        }
    }
}

/// A padding leaf of the BestRtt tree; loses to every path.
const NO_PATH: u16 = u16::MAX;

/// The lower-keyed by `(rtt_ewma, path)` of two sibling entries of the
/// BestRtt tree. Every path under `left` has a lower index than every
/// path under `right`, so a tie goes left.
fn rtt_winner(rtt_ewma: &[SimDuration], left: u16, right: u16) -> u16 {
    if left == NO_PATH || (right != NO_PATH && rtt_ewma[right as usize] < rtt_ewma[left as usize])
    {
        right
    } else {
        left
    }
}

impl PathSelector {
    /// A selector over `num_paths` paths (default scoreboard policy).
    pub fn new(algo: PathAlgo, num_paths: u32, rng: SimRng) -> Self {
        assert!(num_paths >= 1, "need at least one path");
        assert!(num_paths <= 256, "at most 256 paths (paper's sweep ceiling)");
        let n = num_paths as usize;
        let feedback = match algo {
            PathAlgo::SinglePath
            | PathAlgo::RoundRobin
            | PathAlgo::Obs
            | PathAlgo::Flowlet { .. } => None,
            PathAlgo::PathAware => Some(Feedback::default()),
            PathAlgo::MpRdma => Some(Feedback {
                ecn_ewma: vec![0.0; n],
                ..Feedback::default()
            }),
            PathAlgo::Dwrr => Some(Feedback {
                rtt_ewma: vec![SimDuration::ZERO; n],
                dwrr_deficit: vec![0.0; n],
                dwrr_weights: vec![1.0; n],
                ..Feedback::default()
            }),
            PathAlgo::BestRtt => {
                let rtt_ewma = vec![SimDuration::ZERO; n];
                let size = n.next_power_of_two();
                let mut tree = vec![NO_PATH; 2 * size];
                for p in 0..n {
                    tree[size + p] = p as u16;
                }
                for k in (1..size).rev() {
                    tree[k] = rtt_winner(&rtt_ewma, tree[2 * k], tree[2 * k + 1]);
                }
                Some(Feedback {
                    rtt_ewma,
                    rtt_tree: tree,
                    ..Feedback::default()
                })
            }
        };
        PathSelector {
            algo,
            max_exile_until: SimTime::ZERO,
            num_paths,
            wants_ack: feedback.is_some(),
            rng,
            rr_cursor: 0,
            flowlet_path: 0,
            flowlet_last_send: SimTime::ZERO,
            scoreboard: ScoreboardPolicy::default(),
            feedback: feedback.map(Box::new),
        }
    }

    /// The boxed state, created on first need.
    fn feedback_mut(&mut self) -> &mut Feedback {
        self.feedback.get_or_insert_with(Box::default)
    }

    /// Replace the loss-scoreboard policy.
    pub fn set_scoreboard(&mut self, policy: ScoreboardPolicy) {
        self.scoreboard = policy;
    }

    /// The loss-scoreboard policy in use.
    pub fn scoreboard(&self) -> ScoreboardPolicy {
        self.scoreboard
    }

    /// Enable plane-level failover (disabled by default). Resets any
    /// existing quarantine state.
    pub fn set_plane_failover(&mut self, policy: PlaneFailover) {
        let fb = self.feedback_mut();
        fb.plane_quarantine_until = vec![SimTime::ZERO; policy.planes as usize];
        fb.failover = policy;
        self.wants_ack |= policy.planes > 0;
    }

    /// Whether [`PathSelector::on_ack`] would change anything: false for
    /// an algorithm that reads no feedback, with no loss counted yet and
    /// plane failover off, so a caller may skip the call.
    #[inline]
    pub fn wants_ack(&self) -> bool {
        self.wants_ack
    }

    /// The plane-failover policy in use (`planes == 0` ⇒ disabled).
    pub fn plane_failover(&self) -> PlaneFailover {
        self.feedback.as_ref().map_or(NO_FAILOVER, |fb| fb.failover)
    }

    /// Whether `plane` is quarantined at `now`.
    pub fn is_plane_quarantined(&self, plane: u32, now: SimTime) -> bool {
        self.feedback
            .as_ref()
            .is_some_and(|fb| fb.is_plane_quarantined(plane, now))
    }

    /// Number of planes quarantined at `now`.
    pub fn quarantined_planes(&self, now: SimTime) -> usize {
        self.feedback.as_ref().map_or(0, |fb| {
            fb.plane_quarantine_until
                .iter()
                .filter(|&&q| q > now)
                .count()
        })
    }

    /// Structural check backing the `net.blacklist_readmit` invariant:
    /// every blacklist and quarantine deadline visible at `at` must sit
    /// within its policy horizon — nothing may be exiled forever. The
    /// deadlines are always written as `now + penalty` / `now +
    /// readmit_after`, so any deadline beyond `at + horizon` means state
    /// was corrupted or a policy changed under live exile state.
    pub fn readmission_bounded(&self, at: SimTime) -> bool {
        let Some(fb) = &self.feedback else {
            return true;
        };
        let blacklist_horizon = at + self.scoreboard.penalty;
        let quarantine_horizon = at + fb.failover.readmit_after;
        fb.scores
            .iter()
            .all(|sc| sc.blacklisted_until <= blacklist_horizon)
            && fb
                .plane_quarantine_until
                .iter()
                .all(|&q| q <= quarantine_horizon)
    }

    /// Whether `path` is blacklisted at `now`.
    pub fn is_blacklisted(&self, path: u32, now: SimTime) -> bool {
        assert!(path < self.num_paths(), "path {path} out of range");
        self.score(path).blacklisted_until > now
    }

    /// Number of paths blacklisted at `now`.
    pub fn blacklisted_count(&self, now: SimTime) -> usize {
        self.feedback.as_ref().map_or(0, |fb| {
            fb.scores
                .iter()
                .filter(|sc| sc.blacklisted_until > now)
                .count()
        })
    }

    /// `(path blacklists, plane quarantines)` ever imposed.
    pub(crate) fn exiles(&self) -> (u64, u64) {
        self.feedback.as_ref().map_or((0, 0), |fb| fb.exiles)
    }

    /// Number of configured paths.
    pub fn num_paths(&self) -> u32 {
        self.num_paths
    }

    /// The algorithm in use.
    pub fn algo(&self) -> PathAlgo {
        self.algo
    }

    /// Path `id`'s scoreboard entry (clean while none is kept).
    fn score(&self, id: u32) -> Score {
        self.feedback
            .as_ref()
            .and_then(|fb| fb.scores.get(id as usize).copied())
            .unwrap_or_default()
    }

    /// State of one path.
    pub fn path(&self, id: u32) -> PathState {
        let i = id as usize;
        let score = self.score(id);
        let fb = self.feedback.as_deref();
        PathState {
            rtt_ewma: fb.and_then(|fb| fb.rtt_ewma.get(i).copied()),
            ecn_ewma: fb.and_then(|fb| fb.ecn_ewma.get(i).copied()),
            consecutive_losses: score.losses,
            blacklisted_until: score.blacklisted_until,
        }
    }

    /// Select the path for the next packet. `exclude` removes one path
    /// (RTO retransmissions avoid the path that just lost a packet).
    /// `allowed` further constrains the choice (per-path CC windows).
    ///
    /// Returns `None` if no path satisfies the constraints.
    pub fn select<F: Fn(u32) -> bool>(
        &mut self,
        exclude: Option<u32>,
        allowed: &F,
    ) -> Option<u32> {
        self.select_at(SimTime::ZERO, exclude, allowed)
    }

    /// Like [`PathSelector::select`], with the current simulation time —
    /// required by time-sensitive algorithms (flowlet switching) and the
    /// loss scoreboard (blacklist expiry).
    ///
    /// Blacklisted paths are filtered out first; if that leaves no viable
    /// path (every path blacklisted, or the constraints too tight), the
    /// blacklist is ignored rather than stalling the connection — a
    /// wrong path beats no path, since there is no wake-up event for a
    /// blacklist expiring.
    pub fn select_at<F: Fn(u32) -> bool>(
        &mut self,
        now: SimTime,
        exclude: Option<u32>,
        allowed: &F,
    ) -> Option<u32> {
        // Healthy fast path: no active blacklist or quarantine, no extra
        // RNG draws — keeps fault-free runs byte-identical to the
        // unhardened selector. A quarantine follows a blacklist, so an
        // active deadline means the scoreboard is allocated.
        if self.max_exile_until > now && self.num_paths > 1 {
            let fb = self
                .feedback
                .as_deref()
                .expect("an exile deadline means the scoreboard exists");
            let mut mask = [0u64; 4];
            let mut any = false;
            for (i, sc) in fb.scores.iter().enumerate() {
                let quarantined = fb.failover.planes > 0
                    && fb.is_plane_quarantined(i as u32 % fb.failover.planes, now);
                if sc.blacklisted_until > now || quarantined {
                    mask[i / 64] |= 1 << (i % 64);
                    any = true;
                }
            }
            if any {
                let filtered = |p: u32| -> bool {
                    mask[(p / 64) as usize] & (1 << (p % 64)) == 0 && allowed(p)
                };
                if let Some(p) = self.select_inner(now, exclude, &filtered) {
                    return Some(p);
                }
            }
        }
        self.select_inner(now, exclude, allowed)
    }

    fn select_inner<F: Fn(u32) -> bool>(
        &mut self,
        now: SimTime,
        exclude: Option<u32>,
        allowed: &F,
    ) -> Option<u32> {
        let n = self.num_paths();
        let ok = |p: u32| -> bool { Some(p) != exclude && allowed(p) };
        // With one path there is nowhere else to go.
        if n == 1 {
            return if allowed(0) { Some(0) } else { None };
        }
        match self.algo {
            PathAlgo::SinglePath => {
                // Single-path may still fail over on exclusion (RTO moves
                // the flow), mirroring ECMP rehash after timeout.
                if ok(0) {
                    Some(0)
                } else {
                    (1..n).find(|&p| ok(p))
                }
            }
            PathAlgo::RoundRobin => {
                let mut tried = 0;
                loop {
                    if tried >= n {
                        break None;
                    }
                    let p = self.rr_cursor % n;
                    self.rr_cursor = self.rr_cursor.wrapping_add(1);
                    tried += 1;
                    if ok(p) {
                        break Some(p);
                    }
                }
            }
            PathAlgo::Obs => {
                // Uniform random; bounded rejection sampling, then linear
                // fallback so constrained windows cannot livelock.
                let mut found = None;
                for _ in 0..8 {
                    let p = self.rng.below(n as u64) as u32;
                    if ok(p) {
                        found = Some(p);
                        break;
                    }
                }
                found.or_else(|| (0..n).find(|&p| ok(p)))
            }
            PathAlgo::Dwrr => self.select_dwrr(exclude, allowed),
            PathAlgo::Flowlet { gap } => {
                let gap_elapsed =
                    now.saturating_duration_since(self.flowlet_last_send) > gap;
                if gap_elapsed || !ok(self.flowlet_path) {
                    // New flowlet: re-hash (uniform random pick).
                    let mut found = None;
                    for _ in 0..8 {
                        let p = self.rng.below(n as u64) as u32;
                        if ok(p) {
                            found = Some(p);
                            break;
                        }
                    }
                    if let Some(p) = found.or_else(|| (0..n).find(|&p| ok(p))) {
                        self.flowlet_path = p;
                    } else {
                        return None;
                    }
                }
                self.flowlet_last_send = now;
                Some(self.flowlet_path)
            }
            PathAlgo::PathAware => {
                // Drain the recycle queue first (freshly-confirmed good
                // paths); otherwise explore uniformly like OBS.
                let recycled = &mut self.feedback_mut().recycled;
                let mut from_recycle = None;
                while let Some(p) = recycled.pop() {
                    if ok(p) {
                        from_recycle = Some(p);
                        break;
                    }
                }
                from_recycle
                    .or_else(|| {
                        for _ in 0..8 {
                            let p = self.rng.below(n as u64) as u32;
                            if ok(p) {
                                return Some(p);
                            }
                        }
                        None
                    })
                    .or_else(|| (0..n).find(|&p| ok(p)))
            }
            PathAlgo::BestRtt => {
                // The root is the lowest `(rtt_ewma, path)` overall, so
                // when it may be used it is also the filtered minimum.
                let fb = self.feedback_mut();
                let root = u32::from(fb.rtt_tree[1]);
                if ok(root) {
                    Some(root)
                } else {
                    (0..n)
                        .filter(|&p| ok(p))
                        .min_by_key(|&p| fb.rtt_ewma[p as usize])
                }
            }
            PathAlgo::MpRdma => {
                // Power-of-two-choices on ECN fraction.
                let a = self.rng.below(n as u64) as u32;
                let b = self.rng.below(n as u64) as u32;
                let ecn_ewma = &self.feedback_mut().ecn_ewma;
                let pick = |x: u32, y: u32| -> Option<u32> {
                    match (ok(x), ok(y)) {
                        (true, true) => {
                            if ecn_ewma[x as usize] <= ecn_ewma[y as usize] {
                                Some(x)
                            } else {
                                Some(y)
                            }
                        }
                        (true, false) => Some(x),
                        (false, true) => Some(y),
                        (false, false) => None,
                    }
                };
                pick(a, b).or_else(|| (0..n).find(|&p| ok(p)))
            }
        }
    }

    fn select_dwrr<F: Fn(u32) -> bool>(
        &mut self,
        exclude: Option<u32>,
        allowed: &F,
    ) -> Option<u32> {
        let n = self.num_paths();
        let ok = |p: u32| -> bool { Some(p) != exclude && allowed(p) };
        if !(0..n).any(ok) {
            return None;
        }
        // Weight ∝ 1/RTT (unprobed paths get the best weight so they are
        // explored); accumulate deficits until a permitted path qualifies.
        let rr_cursor = &mut self.rr_cursor;
        let fb = self
            .feedback
            .as_deref_mut()
            .expect("Dwrr allocates its state");
        let (weights, wmax) = (&fb.dwrr_weights, fb.dwrr_wmax);
        let mut choice = None;
        'rounds: for _round in 0..64 {
            for i in 0..n {
                let p = (*rr_cursor + i) % n;
                let deficit = &mut fb.dwrr_deficit[p as usize];
                *deficit += weights[p as usize] / wmax;
                if ok(p) && *deficit >= 1.0 {
                    *deficit -= 1.0;
                    *rr_cursor = p + 1;
                    choice = Some(p);
                    break 'rounds;
                }
            }
        }
        // Deficits tilted heavily to a blocked path: fall back linearly.
        choice.or_else(|| (0..n).find(|&p| ok(p)))
    }

    /// Feed back an ACK observation for `path`.
    pub fn on_ack(&mut self, path: u32, rtt: SimDuration, ecn: bool) {
        assert!(path < self.num_paths(), "path {path} out of range");
        let algo = self.algo;
        // Every selector `on_ack` has work for keeps the box.
        let Some(fb) = self.feedback.as_deref_mut() else {
            return;
        };
        // REPS recycling: clean ACKs re-arm their path id; marked ones
        // drop it (bounded queue so state stays O(window)).
        if algo == PathAlgo::PathAware && !ecn && fb.recycled.len() < 256 {
            fb.recycled.push(path);
        }
        // An ACK proves the plane forwards again: readmit it early.
        if fb.failover.planes > 0 {
            fb.plane_quarantine_until[(path % fb.failover.planes) as usize] = SimTime::ZERO;
        }
        let i = path as usize;
        // An ACK proves the path forwards again: clear the scoreboard.
        if let Some(sc) = fb.scores.get_mut(i) {
            *sc = Score::default();
        }
        if let Some(ewma) = fb.rtt_ewma.get_mut(i) {
            *ewma = if *ewma == SimDuration::ZERO {
                rtt
            } else {
                // EWMA with alpha = 1/8 (RFC 6298 flavour).
                SimDuration::from_nanos((ewma.as_nanos() * 7 + rtt.as_nanos()) / 8)
            };
            let ewma = *ewma;
            if !fb.dwrr_weights.is_empty() {
                fb.set_dwrr_weight(i, ewma);
            }
            if !fb.rtt_tree.is_empty() {
                fb.sift_rtt_tree(i);
            }
        }
        if let Some(ewma) = fb.ecn_ewma.get_mut(i) {
            *ewma = *ewma * 0.875 + if ecn { 0.125 } else { 0.0 };
        }
    }

    /// Note a loss (RTO fired) on `path`.
    pub fn on_loss(&mut self, path: u32) {
        assert!(path < self.num_paths(), "path {path} out of range");
        // A loss is worse than an ECN mark; poison the EWMA.
        let ewma = self
            .feedback
            .as_deref_mut()
            .and_then(|fb| fb.ecn_ewma.get_mut(path as usize));
        if let Some(ewma) = ewma {
            *ewma = *ewma * 0.5 + 0.5;
        }
    }

    /// Note a loss at `now`, feeding the scoreboard: after
    /// [`ScoreboardPolicy::blacklist_after`] consecutive losses the path
    /// is blacklisted for [`ScoreboardPolicy::penalty`].
    pub fn on_loss_at(&mut self, now: SimTime, path: u32) {
        self.on_loss(path);
        let policy = self.scoreboard;
        if policy.blacklist_after == 0 {
            return;
        }
        let n = self.num_paths as usize;
        self.wants_ack = true;
        let fb = self.feedback_mut();
        if fb.scores.is_empty() {
            fb.scores = vec![Score::default(); n];
        }
        let st = &mut fb.scores[path as usize];
        st.losses += 1;
        if st.losses >= policy.blacklist_after {
            st.blacklisted_until = now + policy.penalty;
            let (losses, until) = (st.losses, st.blacklisted_until);
            fb.exiles.0 += 1;
            stellar_telemetry::event(
                now,
                stellar_telemetry::Subsystem::Transport,
                stellar_telemetry::Entity::Path(path),
                "blacklist",
                u64::from(losses),
            );
            let quarantined = if fb.failover.planes > 0 {
                fb.maybe_quarantine_plane(now, path)
            } else {
                None
            };
            let latest = quarantined.map_or(until, |q| q.max(until));
            self.max_exile_until = self.max_exile_until.max(latest);
        }
    }
}

impl Feedback {
    /// Whether `plane` is quarantined at `now`.
    fn is_plane_quarantined(&self, plane: u32, now: SimTime) -> bool {
        self.failover.planes > 0 && self.plane_quarantine_until[plane as usize] > now
    }

    /// Re-derive path `i`'s DWRR weight from its RTT EWMA and keep the
    /// maximum current. Only the path holding the maximum losing weight
    /// forces a rescan; the result is the full `f64::max` fold's either way.
    fn set_dwrr_weight(&mut self, i: usize, ewma: SimDuration) {
        let rtt = ewma.as_nanos();
        let w = if rtt == 0 { 1.0 } else { 1.0e4 / rtt as f64 };
        let old = std::mem::replace(&mut self.dwrr_weights[i], w);
        if w >= self.dwrr_wmax {
            self.dwrr_wmax = w;
        } else if old == self.dwrr_wmax {
            self.dwrr_wmax = self.dwrr_weights.iter().copied().fold(f64::MIN, f64::max);
        }
    }

    /// Replay the matches on path `i`'s way to the root of the BestRtt
    /// tree after its EWMA changed.
    fn sift_rtt_tree(&mut self, i: usize) {
        let tree = &mut self.rtt_tree;
        let mut k = (tree.len() / 2 + i) / 2;
        while k >= 1 {
            tree[k] = rtt_winner(&self.rtt_ewma, tree[2 * k], tree[2 * k + 1]);
            k /= 2;
        }
    }

    /// Escalate a path blacklist to a plane quarantine once a majority of
    /// the plane's paths are simultaneously blacklisted. Returns the new
    /// quarantine deadline, if one was set.
    fn maybe_quarantine_plane(&mut self, now: SimTime, path: u32) -> Option<SimTime> {
        let planes = self.failover.planes;
        let plane = path % planes;
        if self.plane_quarantine_until[plane as usize] > now {
            return None; // already quarantined
        }
        let mut total = 0u32;
        let mut blacklisted = 0u32;
        for (i, sc) in self.scores.iter().enumerate() {
            if i as u32 % planes == plane {
                total += 1;
                if sc.blacklisted_until > now {
                    blacklisted += 1;
                }
            }
        }
        if u64::from(blacklisted) * 2 <= u64::from(total) {
            return None;
        }
        let until = now + self.failover.readmit_after;
        self.plane_quarantine_until[plane as usize] = until;
        self.exiles.1 += 1;
        stellar_telemetry::event(
            now,
            stellar_telemetry::Subsystem::Transport,
            stellar_telemetry::Entity::Path(plane),
            "plane_quarantine",
            u64::from(blacklisted),
        );
        Some(until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selector(algo: PathAlgo, n: u32) -> PathSelector {
        PathSelector::new(algo, n, SimRng::from_seed(7))
    }

    /// The boxed state, which the test expects to exist.
    fn fb(s: &PathSelector) -> &Feedback {
        s.feedback.as_deref().expect("feedback state allocated")
    }

    const ALL: fn(u32) -> bool = |_| true;

    /// Pick `picks` paths and count how often each was chosen.
    fn histogram(s: &mut PathSelector, picks: usize) -> Vec<u64> {
        let mut h = vec![0; s.num_paths() as usize];
        for _ in 0..picks {
            h[s.select(None, &ALL).unwrap() as usize] += 1;
        }
        h
    }

    #[test]
    fn single_path_sticks_to_zero() {
        let mut s = selector(PathAlgo::SinglePath, 8);
        for _ in 0..100 {
            assert_eq!(s.select(None, &ALL), Some(0));
        }
    }

    #[test]
    fn single_path_fails_over_on_exclusion() {
        let mut s = selector(PathAlgo::SinglePath, 8);
        assert_ne!(s.select(Some(0), &ALL), Some(0));
    }

    #[test]
    fn round_robin_is_uniform() {
        let mut s = selector(PathAlgo::RoundRobin, 4);
        assert_eq!(histogram(&mut s, 400), vec![100, 100, 100, 100]);
    }

    #[test]
    fn obs_is_roughly_uniform() {
        let mut s = selector(PathAlgo::Obs, 128);
        let h = histogram(&mut s, 128 * 100);
        let (min, max) = (h.iter().min().unwrap(), h.iter().max().unwrap());
        assert!(*min > 50 && *max < 180, "min={min} max={max}");
    }

    #[test]
    fn best_rtt_explores_then_concentrates() {
        let mut s = selector(PathAlgo::BestRtt, 4);
        // Probe all paths once (unprobed RTT = 0 sorts first).
        for p in 0..4 {
            assert_eq!(s.select(None, &ALL), Some(p));
            s.on_ack(
                p,
                SimDuration::from_micros(10 + p as u64 * 5),
                false,
            );
        }
        // Now path 0 (10 µs) wins consistently: "BestRTT tended to
        // activate only a small number of paths."
        for _ in 0..50 {
            assert_eq!(s.select(None, &ALL), Some(0));
            s.on_ack(0, SimDuration::from_micros(10), false);
        }
    }

    #[test]
    fn dwrr_weights_by_inverse_rtt() {
        let mut s = selector(PathAlgo::Dwrr, 2);
        // Path 0 fast (10 µs), path 1 slow (40 µs).
        s.on_ack(0, SimDuration::from_micros(10), false);
        s.on_ack(1, SimDuration::from_micros(40), false);
        let h = histogram(&mut s, 500);
        // Expect roughly 4:1 in favour of the fast path.
        let ratio = h[0] as f64 / h[1] as f64;
        assert!((2.5..6.0).contains(&ratio), "h={h:?}");
    }

    /// What a pick and an ACK read shares the selector's first cache
    /// line, with the RNG in the second.
    #[test]
    fn hot_fields_lead() {
        // A draw reads the RNG's word index and buffer: within the first
        // 128 bytes, one adjacent-line pair with the fields every pick
        // reads.
        assert!(std::mem::offset_of!(PathSelector, wants_ack) < 64);
        assert!(std::mem::offset_of!(PathSelector, rng) + 8 + 64 <= 128);
    }

    /// Everything past the hot words is boxed: two 128-byte blocks.
    #[test]
    fn selector_is_at_most_256_bytes() {
        assert!(std::mem::size_of::<PathSelector>() <= 256);
    }

    /// Dwrr's weights and their maximum, and BestRtt's tree root, always
    /// equal what a full scan of the RTT EWMAs computes — ties included:
    /// the RTT samples span a narrow range, so EWMAs often coincide.
    #[test]
    fn incremental_selection_state_matches_a_full_scan() {
        let weight = |ewma: &SimDuration| match ewma.as_nanos() {
            0 => 1.0,
            rtt => 1.0e4 / rtt as f64,
        };
        for n in [2u32, 3, 100, 128, 256] {
            let mut dwrr = selector(PathAlgo::Dwrr, n);
            let mut best = selector(PathAlgo::BestRtt, n);
            let mut ops = SimRng::from_seed(u64::from(n));
            for _ in 0..3_000 {
                let p = ops.below(u64::from(n)) as u32;
                let rtt = SimDuration::from_nanos(ops.range(1_000, 1_040));
                dwrr.on_ack(p, rtt, false);
                best.on_ack(p, rtt, false);
                let (dwrr, best) = (fb(&dwrr), fb(&best));
                let weights: Vec<f64> = dwrr.rtt_ewma.iter().map(weight).collect();
                assert_eq!(dwrr.dwrr_weights, weights, "n={n}");
                let wmax = weights.iter().copied().fold(f64::MIN, f64::max);
                assert_eq!(dwrr.dwrr_wmax.to_bits(), wmax.to_bits(), "n={n}");
                let scan = (0..n).min_by_key(|&p| best.rtt_ewma[p as usize]);
                assert_eq!(Some(u32::from(best.rtt_tree[1])), scan, "n={n}");
            }
        }
    }

    #[test]
    fn mp_rdma_avoids_congested_paths() {
        let mut s = selector(PathAlgo::MpRdma, 8);
        // Mark paths 0..4 as heavily ECN-marked.
        for ewma in &mut s.feedback_mut().ecn_ewma[..4] {
            for _ in 0..20 {
                *ewma = *ewma * 0.875 + 0.125;
            }
        }
        let h = histogram(&mut s, 800);
        let hot: u64 = h[..4].iter().sum();
        let cool: u64 = h[4..].iter().sum();
        assert!(cool > hot, "cool={cool} hot={hot}");
    }

    #[test]
    fn allowed_constraint_is_respected() {
        for algo in [
            PathAlgo::SinglePath,
            PathAlgo::RoundRobin,
            PathAlgo::Obs,
            PathAlgo::Dwrr,
            PathAlgo::BestRtt,
            PathAlgo::MpRdma,
        ] {
            let mut s = selector(algo, 8);
            for _ in 0..100 {
                let p = s.select(None, &|p| p >= 6);
                assert!(p.is_some() && p.unwrap() >= 6, "{algo:?} picked {p:?}");
            }
            let none = s.select(None, &|_| false);
            assert_eq!(none, None, "{algo:?} must return None when blocked");
        }
    }

    #[test]
    fn ack_updates_rtt_ewma() {
        let mut s = selector(PathAlgo::BestRtt, 2);
        assert_eq!(s.path(0).rtt_ewma, Some(SimDuration::ZERO), "unprobed");
        s.on_ack(0, SimDuration::from_micros(8), false);
        assert_eq!(s.path(0).rtt_ewma, Some(SimDuration::from_micros(8)));
        s.on_ack(0, SimDuration::from_micros(16), true);
        let e = s.path(0).rtt_ewma.unwrap().as_nanos();
        assert!(e > 8_000 && e < 16_000, "ewma={e}");
    }

    #[test]
    fn ack_updates_ecn_ewma() {
        let mut s = selector(PathAlgo::MpRdma, 2);
        s.on_ack(0, SimDuration::from_micros(8), true);
        assert_eq!(s.path(0).ecn_ewma, Some(0.125));
        assert_eq!(s.path(1).ecn_ewma, Some(0.0));
    }

    #[test]
    fn loss_poisons_path() {
        let mut s = selector(PathAlgo::MpRdma, 2);
        s.on_loss(1);
        assert!(s.path(1).ecn_ewma.unwrap() >= 0.5);
    }

    /// Each EWMA exists only for the algorithms that read it, and the
    /// scoreboard only once it has counted a loss. The box exists only
    /// for an algorithm that reads feedback, until the first counted
    /// loss.
    #[test]
    fn untracked_state_reads_none_and_allocates_nothing() {
        let flowlet = PathAlgo::Flowlet {
            gap: SimDuration::from_micros(5),
        };
        for (algo, rtt, ecn, deficit) in [
            (PathAlgo::SinglePath, false, false, false),
            (PathAlgo::RoundRobin, false, false, false),
            (PathAlgo::Obs, false, false, false),
            (PathAlgo::Dwrr, true, false, true),
            (PathAlgo::BestRtt, true, false, false),
            (PathAlgo::MpRdma, false, true, false),
            (flowlet, false, false, false),
            (PathAlgo::PathAware, false, false, false),
        ] {
            let mut s = selector(algo, 128);
            s.select(None, &ALL);
            s.on_ack(3, SimDuration::from_micros(8), true);
            s.on_loss(4);
            let st = s.path(3);
            assert_eq!(st.rtt_ewma.is_some(), rtt, "{algo:?}");
            assert_eq!(st.ecn_ewma.is_some(), ecn, "{algo:?}");
            let boxed = rtt || ecn || algo == PathAlgo::PathAware;
            assert_eq!(s.feedback.is_some(), boxed, "{algo:?}");
            assert_eq!(s.wants_ack(), boxed, "{algo:?}");
            let scores = s.feedback.as_ref().map_or(0, |fb| fb.scores.len());
            assert_eq!(scores, 0, "{algo:?}: no loss counted yet");
            s.on_loss_at(SimTime::from_nanos(10), 4);
            assert!(s.wants_ack(), "{algo:?}: a counted loss wants ACKs");
            let fb = fb(&s);
            assert_eq!(
                (fb.rtt_ewma.len(), fb.ecn_ewma.len(), fb.dwrr_deficit.len()),
                (
                    if rtt { 128 } else { 0 },
                    if ecn { 128 } else { 0 },
                    if deficit { 128 } else { 0 },
                ),
                "{algo:?}"
            );
            assert_eq!(fb.dwrr_weights.len(), fb.dwrr_deficit.len(), "{algo:?}");
            let tree = if algo == PathAlgo::BestRtt { 256 } else { 0 };
            assert_eq!(fb.rtt_tree.len(), tree, "{algo:?}");
            assert_eq!(fb.scores.len(), 128);
            assert_eq!(s.path(4).consecutive_losses, 1);
        }
    }

    #[test]
    fn path_aware_recycles_clean_paths() {
        let mut s = selector(PathAlgo::PathAware, 64);
        // First sends are exploratory.
        let p = s.select(None, &ALL).unwrap();
        // A clean ACK recycles the path: it is preferred next.
        s.on_ack(p, SimDuration::from_micros(10), false);
        assert_eq!(s.select(None, &ALL), Some(p));
        // A marked ACK does not recycle.
        s.on_ack(p, SimDuration::from_micros(10), true);
        let mut repicks = 0;
        for _ in 0..32 {
            if s.select(None, &ALL) != Some(p) {
                repicks += 1;
            }
        }
        assert!(repicks > 16, "marked path must not dominate: {repicks}");
    }

    #[test]
    fn path_aware_respects_constraints() {
        let mut s = selector(PathAlgo::PathAware, 8);
        s.on_ack(0, SimDuration::from_micros(5), false); // recycle path 0
        let p = s.select(None, &|p| p >= 4).unwrap();
        assert!(p >= 4, "recycled-but-disallowed path must be skipped");
    }

    #[test]
    fn flowlet_sticks_within_gap_and_switches_after() {
        let gap = SimDuration::from_micros(50);
        let mut s = selector(PathAlgo::Flowlet { gap }, 64);
        // Back-to-back packets: one path.
        let t0 = SimTime::from_nanos(0);
        let first = s.select_at(t0, None, &ALL).unwrap();
        for i in 1..50u64 {
            let t = SimTime::from_nanos(i * 1_000); // 1 µs apart < gap
            assert_eq!(s.select_at(t, None, &ALL), Some(first));
        }
        // After a long pause, a new flowlet starts; over many flowlets,
        // multiple paths get used.
        let mut t = SimTime::from_nanos(1_000_000);
        let mut used = std::collections::BTreeSet::new();
        for _ in 0..50 {
            t += SimDuration::from_micros(100); // > gap
            used.insert(s.select_at(t, None, &ALL));
        }
        assert!(used.len() > 4, "flowlets must diversify paths");
    }

    #[test]
    fn flowlet_respects_allowed() {
        let gap = SimDuration::from_micros(10);
        let mut s = selector(PathAlgo::Flowlet { gap }, 8);
        for i in 0..50u64 {
            let t = SimTime::from_nanos(i * 100_000);
            let p = s.select_at(t, None, &|p| p >= 6).unwrap();
            assert!(p >= 6);
        }
        assert_eq!(s.select_at(SimTime::from_nanos(9_000_000), None, &|_| false), None);
    }

    #[test]
    fn exclusion_with_two_paths() {
        let mut s = selector(PathAlgo::Obs, 2);
        for _ in 0..20 {
            assert_eq!(s.select(Some(1), &ALL), Some(0));
        }
    }

    #[test]
    fn scoreboard_blacklists_after_consecutive_losses() {
        let mut s = selector(PathAlgo::Obs, 8);
        let now = SimTime::from_nanos(1_000_000);
        s.on_loss_at(now, 3);
        assert!(!s.is_blacklisted(3, now), "one loss must not blacklist");
        s.on_loss_at(now, 3);
        assert!(s.is_blacklisted(3, now));
        assert_eq!(s.blacklisted_count(now), 1);
        // The blacklist expires after the penalty window.
        let later = now + s.scoreboard().penalty + SimDuration::from_nanos(1);
        assert!(!s.is_blacklisted(3, later));
    }

    #[test]
    fn selection_avoids_blacklisted_paths() {
        let mut s = selector(PathAlgo::Obs, 4);
        let now = SimTime::from_nanos(500);
        for p in [1u32, 2, 3] {
            s.on_loss_at(now, p);
            s.on_loss_at(now, p);
        }
        for _ in 0..50 {
            assert_eq!(s.select_at(now, None, &ALL), Some(0));
        }
    }

    #[test]
    fn all_paths_blacklisted_falls_back_instead_of_stalling() {
        let mut s = selector(PathAlgo::RoundRobin, 4);
        let now = SimTime::from_nanos(500);
        for p in 0..4 {
            s.on_loss_at(now, p);
            s.on_loss_at(now, p);
        }
        assert_eq!(s.blacklisted_count(now), 4);
        assert!(
            s.select_at(now, None, &ALL).is_some(),
            "a fully-blacklisted selector must still pick something"
        );
    }

    #[test]
    fn ack_clears_blacklist_early() {
        let mut s = selector(PathAlgo::Obs, 4);
        let now = SimTime::from_nanos(500);
        s.on_loss_at(now, 2);
        s.on_loss_at(now, 2);
        assert!(s.is_blacklisted(2, now));
        s.on_ack(2, SimDuration::from_micros(10), false);
        assert!(!s.is_blacklisted(2, now));
        assert_eq!(s.path(2).consecutive_losses, 0);
    }

    #[test]
    fn intervening_ack_resets_consecutive_losses() {
        let mut s = selector(PathAlgo::Obs, 4);
        let now = SimTime::from_nanos(500);
        s.on_loss_at(now, 1);
        s.on_ack(1, SimDuration::from_micros(10), false);
        s.on_loss_at(now, 1);
        assert!(
            !s.is_blacklisted(1, now),
            "losses separated by an ACK are not consecutive"
        );
    }

    #[test]
    fn scoreboard_disabled_never_blacklists() {
        let mut s = selector(PathAlgo::Obs, 4);
        s.set_scoreboard(ScoreboardPolicy {
            blacklist_after: 0,
            penalty: SimDuration::from_millis(2),
        });
        let now = SimTime::from_nanos(500);
        for _ in 0..10 {
            s.on_loss_at(now, 0);
        }
        assert_eq!(s.blacklisted_count(now), 0);
    }

    #[test]
    fn healthy_selector_rng_stream_matches_unhardened() {
        // The blacklist filter must not consume RNG draws when nothing is
        // blacklisted: two selectors, one taking (ignored) scoreboard
        // feedback that never reaches the threshold, pick identically.
        let mut a = selector(PathAlgo::Obs, 64);
        let mut b = selector(PathAlgo::Obs, 64);
        let now = SimTime::from_nanos(100);
        for i in 0..500u64 {
            let t = now + SimDuration::from_nanos(i);
            let pa = a.select_at(t, None, &ALL);
            let pb = b.select_at(t, None, &ALL);
            assert_eq!(pa, pb);
            if i % 7 == 0 {
                // One loss (below blacklist_after=2), then an ACK.
                b.on_loss_at(t, pb.unwrap());
                b.on_ack(pb.unwrap(), SimDuration::from_micros(5), false);
                a.on_loss(pa.unwrap());
                a.on_ack(pa.unwrap(), SimDuration::from_micros(5), false);
            }
        }
    }

    /// Blacklist `path` at `now` via consecutive losses.
    fn blacklist(s: &mut PathSelector, now: SimTime, path: u32) {
        for _ in 0..s.scoreboard().blacklist_after {
            s.on_loss_at(now, path);
        }
        assert!(s.is_blacklisted(path, now));
    }

    #[test]
    fn plane_failover_quarantines_dead_plane_and_steers_to_survivor() {
        let mut s = selector(PathAlgo::Obs, 8);
        s.set_plane_failover(PlaneFailover {
            planes: 2,
            readmit_after: SimDuration::from_millis(5),
        });
        let now = SimTime::from_nanos(1_000);
        // Plane 1 owns odd path ids. Blacklisting 3 of its 4 paths is a
        // majority: the whole plane quarantines, including path 7 which
        // never lost a packet itself.
        blacklist(&mut s, now, 1);
        assert!(!s.is_plane_quarantined(1, now), "minority must not trip");
        blacklist(&mut s, now, 3);
        blacklist(&mut s, now, 5);
        assert!(s.is_plane_quarantined(1, now));
        assert!(!s.is_plane_quarantined(0, now));
        assert_eq!(s.quarantined_planes(now), 1);
        for _ in 0..100 {
            let p = s.select_at(now, None, &ALL).unwrap();
            assert_eq!(p % 2, 0, "flow must migrate to the surviving plane");
        }
        // Quarantine outlives the per-path penalty: at penalty expiry the
        // plane is still out (otherwise traffic re-probes the dead plane
        // long before routing reconverges)...
        let after_penalty = now + s.scoreboard().penalty + SimDuration::from_nanos(1);
        assert_eq!(s.blacklisted_count(after_penalty), 0);
        assert!(s.is_plane_quarantined(1, after_penalty));
        // ...and the quarantine expiring is the readmission probe.
        let readmitted = now + SimDuration::from_millis(5) + SimDuration::from_nanos(1);
        assert!(!s.is_plane_quarantined(1, readmitted));
        assert!(s.readmission_bounded(now));
        assert!(s.readmission_bounded(readmitted));
    }

    #[test]
    fn ack_readmits_quarantined_plane_early() {
        let mut s = selector(PathAlgo::Obs, 8);
        s.set_plane_failover(PlaneFailover::default());
        let now = SimTime::from_nanos(1_000);
        for p in [1u32, 3, 5] {
            blacklist(&mut s, now, p);
        }
        assert!(s.is_plane_quarantined(1, now));
        // A probe packet on path 7 comes back clean: plane 1 readmitted.
        s.on_ack(7, SimDuration::from_micros(10), false);
        assert!(!s.is_plane_quarantined(1, now));
        assert_eq!(s.quarantined_planes(now), 0);
    }

    #[test]
    fn fully_quarantined_selector_falls_back_instead_of_stalling() {
        let mut s = selector(PathAlgo::Obs, 4);
        s.set_plane_failover(PlaneFailover::default());
        let now = SimTime::from_nanos(1_000);
        for p in 0..4 {
            blacklist(&mut s, now, p);
        }
        assert_eq!(s.quarantined_planes(now), 2);
        assert!(
            s.select_at(now, None, &ALL).is_some(),
            "both planes dead must still pick something"
        );
    }

    #[test]
    fn plane_failover_disabled_or_idle_draws_identical_rng_stream() {
        // Enabling plane failover must not perturb a healthy run: the
        // quarantine scan is gated on max_exile_until exactly like the
        // blacklist mask, so selections stay byte-identical.
        let mut a = selector(PathAlgo::Obs, 64);
        let mut b = selector(PathAlgo::Obs, 64);
        b.set_plane_failover(PlaneFailover::default());
        let now = SimTime::from_nanos(100);
        for i in 0..500u64 {
            let t = now + SimDuration::from_nanos(i);
            assert_eq!(a.select_at(t, None, &ALL), b.select_at(t, None, &ALL));
        }
        assert!(b.readmission_bounded(now));
    }
}
