//! Window-based congestion control on ECN and RTT.
//!
//! The paper's RNIC runs "an in-house, window-based congestion control
//! algorithm that adjusts based on ECN and RTT". This module implements a
//! DCTCP-flavoured window:
//!
//! * additive increase of one MTU per RTT while ACKs are clean;
//! * multiplicative decrease proportional to the EWMA ECN fraction, at
//!   most once per RTT;
//! * sharp decrease on RTO loss;
//! * an RTT guard that stops growth when measured RTT exceeds a target
//!   (the "and RTT" part of the paper's description).
//!
//! One [`CongestionControl`] instance is a *congestion-control context*
//! (CCC). Stellar shares a single CCC across all 128 paths; the §9
//! ablation instantiates one per path over a reduced path count — see
//! `stellar-transport::sim`'s `per_path_cc` switch.
//!
//! A context holds only its window state; the [`CcConfig`] it runs under
//! is passed in by its owner, so a simulation of many connections keeps
//! one copy of the parameters, not one per context.

use stellar_sim::{SimDuration, SimTime};

/// CC parameters.
#[derive(Debug, Clone)]
pub struct CcConfig {
    /// MTU (window arithmetic quantum), bytes.
    pub mtu: u64,
    /// Initial window, bytes.
    pub init_window: u64,
    /// Floor, bytes.
    pub min_window: u64,
    /// Ceiling, bytes.
    pub max_window: u64,
    /// DCTCP g: EWMA gain for the ECN fraction.
    pub ecn_gain: f64,
    /// RTT above which growth pauses (latency guard).
    pub rtt_target: SimDuration,
}

/// Why a [`CcConfig`] cannot run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcConfigError {
    /// `mtu` is 0: additive increase would add nothing.
    ZeroMtu,
    /// `min_window` is 0: an ECN cut could close the window entirely.
    ZeroMinWindow,
    /// `init_window` lies outside `[min_window, max_window]`.
    InitWindow {
        /// The initial window.
        init: u64,
        /// The floor.
        min: u64,
        /// The ceiling.
        max: u64,
    },
    /// `ecn_gain` is NaN or outside `(0, 1]`.
    EcnGain(f64),
}

impl std::fmt::Display for CcConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CcConfigError::ZeroMtu => write!(f, "cc config: mtu is 0"),
            CcConfigError::ZeroMinWindow => write!(f, "cc config: min_window is 0"),
            CcConfigError::InitWindow { init, min, max } => write!(
                f,
                "cc config: init_window {init} is outside [min_window {min}, max_window {max}]"
            ),
            CcConfigError::EcnGain(g) => {
                write!(f, "cc config: ecn_gain {g} is outside (0, 1] or NaN")
            }
        }
    }
}

impl std::error::Error for CcConfigError {}

impl CcConfig {
    /// Check the parameters a window needs to stay meaningful: a nonzero
    /// MTU and floor, a start inside the floor and ceiling, and an EWMA
    /// gain in `(0, 1]`.
    pub fn validate(&self) -> Result<(), CcConfigError> {
        if self.mtu == 0 {
            return Err(CcConfigError::ZeroMtu);
        }
        if self.min_window == 0 {
            return Err(CcConfigError::ZeroMinWindow);
        }
        if !(self.min_window..=self.max_window).contains(&self.init_window) {
            return Err(CcConfigError::InitWindow {
                init: self.init_window,
                min: self.min_window,
                max: self.max_window,
            });
        }
        if !(self.ecn_gain > 0.0 && self.ecn_gain <= 1.0) {
            return Err(CcConfigError::EcnGain(self.ecn_gain));
        }
        Ok(())
    }
}

impl Default for CcConfig {
    fn default() -> Self {
        CcConfig {
            mtu: 4096,
            // ~BDP of 200 Gbps × 8 µs ≈ 200 KB.
            init_window: 192 * 1024,
            min_window: 2 * 4096,
            max_window: 1024 * 1024,
            ecn_gain: 1.0 / 16.0,
            rtt_target: SimDuration::from_micros(50),
        }
    }
}

/// One congestion-control context: the window state, without the
/// [`CcConfig`] its owner passes to every update, in 48 bytes (the
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

impl CongestionControl {
    /// A fresh context under `config`.
    pub fn new(config: &CcConfig) -> Self {
        CongestionControl {
            cwnd: config.init_window,
            ecn_fraction: 0.0,
            acked_since_rtt: 0,
            marked_since_rtt: 0,
            last_decrease: SimTime::ZERO,
            srtt: SimDuration::ZERO,
            decreases: 0,
            rto_resets: 0,
        }
    }

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
    pub fn on_ack(
        &mut self,
        config: &CcConfig,
        now: SimTime,
        bytes: u64,
        rtt: SimDuration,
        ecn: bool,
    ) {
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
            self.ecn_fraction =
                (1.0 - config.ecn_gain) * self.ecn_fraction + config.ecn_gain * frac;
            if frac > 0.0 {
                let cut = (self.cwnd as f64 * self.ecn_fraction / 2.0) as u64;
                self.cwnd = (self.cwnd - cut).max(config.min_window);
                self.decreases = self.decreases.saturating_add(1);
            }
            self.acked_since_rtt = 0;
            self.marked_since_rtt = 0;
            self.last_decrease = now;
        }

        // Additive increase: +MTU per cwnd's worth of clean ACKs, gated by
        // the RTT target.
        if !ecn && self.srtt <= config.rtt_target {
            let inc = config.mtu * bytes.max(1) / self.cwnd.max(1);
            self.cwnd = (self.cwnd + inc.max(1)).min(config.max_window);
        }
    }

    /// Process an RTO-detected loss.
    ///
    /// `path_share` is the fraction of this congestion-control context the
    /// losing path represents: 1.0 for per-path CCCs or single path (the
    /// classic halving), `1/128` when one of 128 sprayed paths loses a
    /// packet — a loss on one path says nothing about the other 127, so a
    /// shared CCC only sheds that path's share (§9's high-fanout design).
    pub fn on_rto(&mut self, config: &CcConfig, path_share: f64) {
        assert!((0.0..=1.0).contains(&path_share), "share out of range");
        let cut = (self.cwnd as f64 * path_share * 0.5) as u64;
        self.cwnd = (self.cwnd - cut.min(self.cwnd)).max(config.min_window);
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
        let c = CcConfig::default();
        let mut cc = CongestionControl::new(&c);
        let w0 = cc.cwnd();
        for i in 0..200 {
            cc.on_ack(&c, t(i * 10), 4096, rtt(8), false);
        }
        assert!(cc.cwnd() > w0);
        assert!(cc.cwnd() <= c.max_window);
    }

    #[test]
    fn growth_caps_at_max_window() {
        let c = CcConfig::default();
        let mut cc = CongestionControl::new(&c);
        for i in 0..100_000 {
            cc.on_ack(&c, t(i), 4096, rtt(8), false);
        }
        assert_eq!(cc.cwnd(), c.max_window);
    }

    #[test]
    fn ecn_marks_shrink_window() {
        let c = CcConfig::default();
        let mut cc = CongestionControl::new(&c);
        // Warm up srtt.
        cc.on_ack(&c, t(0), 4096, rtt(8), false);
        let w0 = cc.cwnd();
        // One full RTT of fully-marked ACKs, repeated.
        for round in 1..20u64 {
            for i in 0..48 {
                cc.on_ack(&c, t(round * 100 + i), 4096, rtt(8), true);
            }
        }
        assert!(cc.cwnd() < w0, "cwnd={} w0={w0}", cc.cwnd());
        assert!(cc.counters().0 > 0);
    }

    #[test]
    fn window_never_collapses_below_floor() {
        let c = CcConfig::default();
        let mut cc = CongestionControl::new(&c);
        cc.on_ack(&c, t(0), 4096, rtt(8), false);
        for round in 1..200u64 {
            for i in 0..16 {
                cc.on_ack(&c, t(round * 100 + i), 4096, rtt(8), true);
            }
            cc.on_rto(&c, 1.0);
        }
        assert_eq!(cc.cwnd(), c.min_window);
    }

    #[test]
    fn rto_halves_window_at_full_share() {
        let c = CcConfig::default();
        let mut cc = CongestionControl::new(&c);
        let w0 = cc.cwnd();
        cc.on_rto(&c, 1.0);
        assert_eq!(cc.cwnd(), w0 / 2);
        assert_eq!(cc.counters().1, 1);
    }

    #[test]
    fn rto_with_small_share_barely_moves_window() {
        let c = CcConfig::default();
        let mut cc = CongestionControl::new(&c);
        let w0 = cc.cwnd();
        cc.on_rto(&c, 1.0 / 128.0);
        let cut = w0 - cc.cwnd();
        assert!(cut > 0 && cut < w0 / 64, "cut={cut}");
    }

    #[test]
    fn rtt_guard_pauses_growth() {
        let c = CcConfig::default();
        let mut cc = CongestionControl::new(&c);
        let w0 = cc.cwnd();
        // Clean ACKs but RTT far above target: no growth.
        for i in 0..100 {
            cc.on_ack(&c, t(i * 10), 4096, rtt(500), false);
        }
        assert_eq!(cc.cwnd(), w0);
    }

    #[test]
    fn can_send_respects_window() {
        let cc = CongestionControl::new(&CcConfig::default());
        assert!(cc.can_send(0, 4096));
        assert!(cc.can_send(cc.cwnd() - 4096, 4096));
        assert!(!cc.can_send(cc.cwnd(), 4096));
    }

    /// An empty flight admits one packet of any size, as TCP's
    /// one-segment minimum does; the window gates only the next one.
    #[test]
    fn empty_window_admits_one_packet() {
        let c = CcConfig::default();
        let mut cc = CongestionControl::new(&c);
        let jumbo = 256 * 1024;
        assert!(jumbo > cc.cwnd());
        assert!(cc.can_send(0, jumbo), "an empty flight must not stall");
        assert!(!cc.can_send(1, jumbo));
        // Also at the floor, where ECN cuts and RTOs leave the window.
        for _ in 0..64 {
            cc.on_rto(&c, 1.0);
        }
        assert_eq!(cc.cwnd(), c.min_window);
        assert!(cc.can_send(0, c.min_window + 1));
        assert!(!cc.can_send(c.mtu, c.min_window));
    }

    /// `validate` on the default config with one field changed.
    fn validate_with(change: impl FnOnce(&mut CcConfig)) -> Result<(), CcConfigError> {
        let mut config = CcConfig::default();
        change(&mut config);
        config.validate()
    }

    #[test]
    fn validate_accepts_the_default_and_the_edges() {
        assert_eq!(validate_with(|_| {}), Ok(()));
        assert_eq!(validate_with(|c| c.init_window = c.min_window), Ok(()));
        assert_eq!(validate_with(|c| c.init_window = c.max_window), Ok(()));
        assert_eq!(validate_with(|c| c.ecn_gain = 1.0), Ok(()));
    }

    #[test]
    fn validate_rejects_a_zero_mtu_or_min_window() {
        assert_eq!(validate_with(|c| c.mtu = 0), Err(CcConfigError::ZeroMtu));
        assert_eq!(
            validate_with(|c| c.min_window = 0),
            Err(CcConfigError::ZeroMinWindow)
        );
    }

    #[test]
    fn validate_rejects_an_init_window_outside_min_and_max() {
        let d = CcConfig::default();
        for init in [d.min_window - 1, d.max_window + 1] {
            assert_eq!(
                validate_with(|c| c.init_window = init),
                Err(CcConfigError::InitWindow {
                    init,
                    min: d.min_window,
                    max: d.max_window,
                })
            );
        }
    }

    #[test]
    fn validate_rejects_an_ecn_gain_outside_0_to_1_or_nan() {
        for gain in [0.0, -0.5, 1.5, f64::INFINITY] {
            assert_eq!(
                validate_with(|c| c.ecn_gain = gain),
                Err(CcConfigError::EcnGain(gain))
            );
        }
        let nan = validate_with(|c| c.ecn_gain = f64::NAN);
        assert!(matches!(nan, Err(CcConfigError::EcnGain(g)) if g.is_nan()));
    }

    #[test]
    fn srtt_converges() {
        let c = CcConfig::default();
        let mut cc = CongestionControl::new(&c);
        for i in 0..100 {
            cc.on_ack(&c, t(i * 10), 4096, rtt(12), false);
        }
        let srtt_us = cc.srtt().as_micros();
        assert!((11..=12).contains(&srtt_us), "srtt={srtt_us}");
    }
}
