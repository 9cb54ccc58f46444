//! Simulated time: absolute instants ([`SimTime`]) and spans
//! ([`SimDuration`]), both with nanosecond resolution.
//!
//! `u64` nanoseconds cover ~584 years of simulated time, far beyond any run
//! here (figure-level runs simulate milliseconds to minutes).

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};


/// An absolute instant on the simulated clock, in nanoseconds since the
/// start of the run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// An instant `nanos` nanoseconds after the start of the run.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since the start of the run.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the start of the run (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the start of the run, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; elapsed time in a DES is
    /// always measured forwards, so a reversed pair is a logic bug.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier instant is in the future"),
        )
    }

    /// Saturating version of [`SimTime::duration_since`], returning zero when
    /// `earlier` is in the future.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A span of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// A span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// A span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// A span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Length in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Length in seconds, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Multiply the span by an integer factor.
    pub const fn mul(self, factor: u64) -> Self {
        SimDuration(self.0 * factor)
    }

    /// Divide the span by an integer divisor (truncating).
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub const fn div(self, divisor: u64) -> Self {
        SimDuration(self.0 / divisor)
    }

    /// Scale by a float factor (for rate computations), rounding to ns.
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(factor >= 0.0 && factor.is_finite(), "negative or non-finite factor");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// The simulated transmission time of `bytes` bytes on a link running at
/// `gbps` gigabits per second.
///
/// This is the single conversion point between data volume and time used
/// throughout the fabric and RNIC models.
pub fn transmit_time(bytes: u64, gbps: f64) -> SimDuration {
    assert!(gbps > 0.0, "link rate must be positive");
    let ns = (bytes as f64 * 8.0) / gbps; // bits / (bits per ns)
    SimDuration::from_nanos(ns.round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimTime::from_nanos(1500).as_micros(), 1);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_micros(10);
        let t2 = t + SimDuration::from_micros(5);
        assert_eq!(t2.duration_since(t), SimDuration::from_micros(5));
        assert_eq!(t2 - SimDuration::from_micros(15), SimTime::ZERO);
        let mut d = SimDuration::from_nanos(10);
        d += SimDuration::from_nanos(5);
        d -= SimDuration::from_nanos(3);
        assert_eq!(d.as_nanos(), 12);
    }

    #[test]
    fn saturating_duration() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(10);
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_duration_since(a).as_nanos(), 5);
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn duration_since_panics_on_reversed_pair() {
        let _ = SimTime::from_nanos(1).duration_since(SimTime::from_nanos(2));
    }

    #[test]
    fn transmit_time_matches_link_rate() {
        // 1500 bytes at 100 Gbps = 120 ns.
        assert_eq!(transmit_time(1500, 100.0).as_nanos(), 120);
        // 4 KiB at 200 Gbps = 163.84 ns -> 164.
        assert_eq!(transmit_time(4096, 200.0).as_nanos(), 164);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", SimDuration::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.000s");
    }

    #[test]
    fn scaling() {
        assert_eq!(SimDuration::from_nanos(10).mul(3).as_nanos(), 30);
        assert_eq!(SimDuration::from_nanos(10).div(3).as_nanos(), 3);
        assert_eq!(SimDuration::from_nanos(10).mul_f64(2.5).as_nanos(), 25);
    }
}
