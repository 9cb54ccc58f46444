//! Window-based congestion control on ECN and RTT.
//!
//! The paper's RNIC runs "an in-house, window-based congestion control
//! algorithm that adjusts based on ECN and RTT". This module implements a
//! DCTCP-flavoured window:
//!
//! * additive increase of one 4 KiB quantum per RTT while ACKs are clean;
//! * multiplicative decrease proportional to the EWMA ECN fraction, at
//!   most once per RTT;
//! * sharp decrease on RTO loss;
//! * an RTT guard that stops growth when measured RTT exceeds a target
//!   (the "and RTT" part of the paper's description).
//!
//! One [`CongestionControl`] instance is a *congestion-control context*
//! (CCC). Stellar shares a single CCC across all 128 paths (§9); an RTO
//! on one path sheds only that path's share of the window.
//!
//! The window's start, floor and ceiling are constants, as are the
//! increase quantum, ECN gain and RTT target.

use stellar_sim::{SimDuration, SimTime};

/// Additive-increase quantum, bytes: one window of clean ACKs grows
/// `cwnd` by this much, whatever the packet size. It is 4 KiB, the
/// default MTU, even where a run sends larger packets.
const AI_QUANTUM: u64 = 4096;
/// Initial window, bytes: ~BDP of 200 Gbps × 8 µs ≈ 200 KB.
pub const INIT_WINDOW: u64 = 192 * 1024;
/// Window floor, bytes: an ECN cut or an RTO never closes the window
/// below two default packets.
pub const MIN_WINDOW: u64 = 2 * 4096;
/// Window ceiling, bytes.
pub const MAX_WINDOW: u64 = 1024 * 1024;
/// DCTCP g: EWMA gain for the ECN fraction.
const ECN_GAIN: f64 = 1.0 / 16.0;
/// RTT above which growth pauses (latency guard).
const RTT_TARGET: SimDuration = SimDuration::from_micros(50);

// A nonzero floor keeps an ECN cut from closing the window, and the
// start lies between the floor and the ceiling.
const _: () = assert!(0 < MIN_WINDOW && MIN_WINDOW <= INIT_WINDOW && INIT_WINDOW <= MAX_WINDOW);

/// One congestion-control context: the window state, in 48 bytes (the
/// per-RTT ACK tallies and the two event counters are 32-bit; the
/// counters saturate).
#[derive(Debug, Clone)]
pub struct CongestionControl {
    cwnd: u64,
    ecn_fraction: f64,
    last_decrease: SimTime,
    srtt: SimDuration,
    acked_since_rtt: u32,
    marked_since_rtt: u32,
    decreases: u32,
    rto_resets: u32,
}

impl Default for CongestionControl {
    /// A fresh context at [`INIT_WINDOW`].
    fn default() -> Self {
        CongestionControl {
            cwnd: INIT_WINDOW,
            ecn_fraction: 0.0,
            acked_since_rtt: 0,
            marked_since_rtt: 0,
            last_decrease: SimTime::ZERO,
            srtt: SimDuration::ZERO,
            decreases: 0,
            rto_resets: 0,
        }
    }
}

impl CongestionControl {
    /// Current window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// Smoothed RTT (zero before the first sample).
    pub fn srtt(&self) -> SimDuration {
        self.srtt
    }

    /// Whether `bytes` more may be put in flight given `inflight`. With
    /// nothing in flight one packet always may, whatever its size (TCP's
    /// one-segment minimum): a window smaller than a packet would
    /// otherwise send nothing and never hear the ACK that could grow it.
    pub fn can_send(&self, inflight: u64, bytes: u64) -> bool {
        inflight == 0 || inflight + bytes <= self.cwnd
    }

    /// Process one ACK at `now` for a packet of `bytes` with RTT `rtt`,
    /// ECN-echo `ecn`.
    pub fn on_ack(&mut self, now: SimTime, bytes: u64, rtt: SimDuration, ecn: bool) {
        self.srtt = if self.srtt == SimDuration::ZERO {
            rtt
        } else {
            SimDuration::from_nanos((self.srtt.as_nanos() * 7 + rtt.as_nanos()) / 8)
        };
        self.acked_since_rtt += 1;
        if ecn {
            self.marked_since_rtt += 1;
        }

        let rtt_elapsed =
            now.saturating_duration_since(self.last_decrease) >= self.srtt;
        if rtt_elapsed && self.acked_since_rtt > 0 {
            // Fold the last window's mark fraction into the EWMA (DCTCP).
            let frac = self.marked_since_rtt as f64 / self.acked_since_rtt as f64;
            self.ecn_fraction = (1.0 - ECN_GAIN) * self.ecn_fraction + ECN_GAIN * frac;
            if frac > 0.0 {
                let cut = (self.cwnd as f64 * self.ecn_fraction / 2.0) as u64;
                self.cwnd = (self.cwnd - cut).max(MIN_WINDOW);
                self.decreases = self.decreases.saturating_add(1);
            }
            self.acked_since_rtt = 0;
            self.marked_since_rtt = 0;
            self.last_decrease = now;
        }

        // Additive increase: +AI_QUANTUM per cwnd's worth of clean ACKs,
        // gated by the RTT target.
        if !ecn && self.srtt <= RTT_TARGET {
            let inc = AI_QUANTUM * bytes.max(1) / self.cwnd.max(1);
            self.cwnd = (self.cwnd + inc.max(1)).min(MAX_WINDOW);
        }
    }

    /// Process an RTO-detected loss.
    ///
    /// `path_share` is the fraction of this congestion-control context the
    /// losing path represents: 1.0 for a single path (the classic
    /// halving), `1/128` when one of 128 sprayed paths loses a packet — a
    /// loss on one path says nothing about the other 127, so the shared
    /// CCC only sheds that path's share (§9's high-fanout design).
    pub fn on_rto(&mut self, path_share: f64) {
        assert!((0.0..=1.0).contains(&path_share), "share out of range");
        let cut = (self.cwnd as f64 * path_share * 0.5) as u64;
        self.cwnd = (self.cwnd - cut.min(self.cwnd)).max(MIN_WINDOW);
        self.rto_resets = self.rto_resets.saturating_add(1);
    }

    /// `(ecn-triggered decreases, rto resets)`.
    pub fn counters(&self) -> (u64, u64) {
        (u64::from(self.decreases), u64::from(self.rto_resets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }
    fn rtt(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    #[test]
    fn clean_acks_grow_window() {
        let mut cc = CongestionControl::default();
        let w0 = cc.cwnd();
        for i in 0..200 {
            cc.on_ack(t(i * 10), 4096, rtt(8), false);
        }
        assert!(cc.cwnd() > w0);
        assert!(cc.cwnd() <= MAX_WINDOW);
    }

    #[test]
    fn growth_caps_at_max_window() {
        let mut cc = CongestionControl::default();
        for i in 0..100_000 {
            cc.on_ack(t(i), 4096, rtt(8), false);
        }
        assert_eq!(cc.cwnd(), MAX_WINDOW);
    }

    /// The additive increase is one `AI_QUANTUM` per window of clean
    /// ACKs, not one packet: with `scale --quick`'s 32 KiB chunks a
    /// window's worth of ACKs grows `cwnd` by about 4 KiB, and growth
    /// stops at `max_window`.
    #[test]
    fn a_window_of_large_packets_grows_cwnd_by_one_quantum() {
        let mut cc = CongestionControl::default();
        let packet = 32 * 1024;
        let w0 = cc.cwnd();
        for i in 0..w0 / packet {
            cc.on_ack(t(i * 10), packet, rtt(8), false);
        }
        // Each ACK's share rounds down, and the window grows under it,
        // so the sum falls a little short of one quantum.
        let grown = cc.cwnd() - w0;
        assert!(
            (AI_QUANTUM * 9 / 10..=AI_QUANTUM).contains(&grown),
            "grown={grown}"
        );
        for i in 0..10_000 {
            cc.on_ack(t(100 + i), packet, rtt(8), false);
        }
        assert_eq!(cc.cwnd(), MAX_WINDOW);
    }

    #[test]
    fn ecn_marks_shrink_window() {
        let mut cc = CongestionControl::default();
        // Warm up srtt.
        cc.on_ack(t(0), 4096, rtt(8), false);
        let w0 = cc.cwnd();
        // One full RTT of fully-marked ACKs, repeated.
        for round in 1..20u64 {
            for i in 0..48 {
                cc.on_ack(t(round * 100 + i), 4096, rtt(8), true);
            }
        }
        assert!(cc.cwnd() < w0, "cwnd={} w0={w0}", cc.cwnd());
        assert!(cc.counters().0 > 0);
    }

    #[test]
    fn window_never_collapses_below_floor() {
        let mut cc = CongestionControl::default();
        cc.on_ack(t(0), 4096, rtt(8), false);
        for round in 1..200u64 {
            for i in 0..16 {
                cc.on_ack(t(round * 100 + i), 4096, rtt(8), true);
            }
            cc.on_rto(1.0);
        }
        assert_eq!(cc.cwnd(), MIN_WINDOW);
    }

    #[test]
    fn rto_halves_window_at_full_share() {
        let mut cc = CongestionControl::default();
        let w0 = cc.cwnd();
        cc.on_rto(1.0);
        assert_eq!(cc.cwnd(), w0 / 2);
        assert_eq!(cc.counters().1, 1);
    }

    #[test]
    fn rto_with_small_share_barely_moves_window() {
        let mut cc = CongestionControl::default();
        let w0 = cc.cwnd();
        cc.on_rto(1.0 / 128.0);
        let cut = w0 - cc.cwnd();
        assert!(cut > 0 && cut < w0 / 64, "cut={cut}");
    }

    #[test]
    fn rtt_guard_pauses_growth() {
        let mut cc = CongestionControl::default();
        let w0 = cc.cwnd();
        // Clean ACKs but RTT far above target: no growth.
        for i in 0..100 {
            cc.on_ack(t(i * 10), 4096, rtt(500), false);
        }
        assert_eq!(cc.cwnd(), w0);
    }

    #[test]
    fn can_send_respects_window() {
        let cc = CongestionControl::default();
        assert!(cc.can_send(0, 4096));
        assert!(cc.can_send(cc.cwnd() - 4096, 4096));
        assert!(!cc.can_send(cc.cwnd(), 4096));
    }

    /// An empty flight admits one packet of any size, as TCP's
    /// one-segment minimum does; the window gates only the next one.
    #[test]
    fn empty_window_admits_one_packet() {
        let mut cc = CongestionControl::default();
        let jumbo = 256 * 1024;
        assert!(jumbo > cc.cwnd());
        assert!(cc.can_send(0, jumbo), "an empty flight must not stall");
        assert!(!cc.can_send(1, jumbo));
        // Also at the floor, where ECN cuts and RTOs leave the window.
        for _ in 0..64 {
            cc.on_rto(1.0);
        }
        assert_eq!(cc.cwnd(), MIN_WINDOW);
        assert!(cc.can_send(0, MIN_WINDOW + 1));
        assert!(!cc.can_send(4096, MIN_WINDOW));
    }

    #[test]
    fn srtt_converges() {
        let mut cc = CongestionControl::default();
        for i in 0..100 {
            cc.on_ack(t(i * 10), 4096, rtt(12), false);
        }
        let srtt_us = cc.srtt().as_micros();
        assert!((11..=12).contains(&srtt_us), "srtt={srtt_us}");
    }
}
