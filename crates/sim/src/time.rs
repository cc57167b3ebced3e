//! Simulated time: nanosecond instants and durations.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A duration of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `n` nanoseconds.
    pub const fn from_nanos(n: u64) -> Self {
        SimDuration(n)
    }

    /// Creates a duration of `n` microseconds.
    pub const fn from_micros(n: u64) -> Self {
        SimDuration(n * 1_000)
    }

    /// Creates a duration of `n` milliseconds.
    pub const fn from_millis(n: u64) -> Self {
        SimDuration(n * 1_000_000)
    }

    /// Creates a duration of `n` seconds.
    pub const fn from_secs(n: u64) -> Self {
        SimDuration(n * 1_000_000_000)
    }

    /// The whole number of nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The time to transmit `bytes` at `rate_bps` bits per second,
    /// rounded up to the next nanosecond. Past ~2.3 GB, where the
    /// bit-nanoseconds overflow a `u64`, it saturates at the longest
    /// duration.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bps` is zero.
    pub fn transmission(bytes: usize, rate_bps: u64) -> Self {
        assert!(rate_bps > 0, "link rate must be positive");
        let nanos = (bytes as u64)
            .checked_mul(8 * 1_000_000_000)
            .map_or(u64::MAX, |bit_nanos| bit_nanos.div_ceil(rate_bps));
        SimDuration(nanos)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
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

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// An instant of simulated time, in nanoseconds since simulation start.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `n` nanoseconds after the epoch.
    pub const fn from_nanos(n: u64) -> Self {
        SimTime(n)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating duration since `earlier` (zero if `earlier` is later).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_nanos();
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale() {
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_nanos(4).as_nanos(), 4);
    }

    #[test]
    fn transmission_time_gigabit() {
        // 1250 bytes at 1 Gbps = 10 microseconds.
        let t = SimDuration::transmission(1250, 1_000_000_000);
        assert_eq!(t, SimDuration::from_micros(10));
    }

    #[test]
    fn transmission_rounds_up() {
        // 1 byte at 3 bps = 8/3 s, must round up.
        let t = SimDuration::transmission(1, 3);
        assert_eq!(t.as_nanos(), 2_666_666_667);
    }

    /// The formula `transmission` replaced: all in `u128`, truncated.
    fn transmission_u128(bytes: usize, rate_bps: u64) -> u64 {
        let bits = bytes as u128 * 8;
        (bits * 1_000_000_000).div_ceil(rate_bps as u128) as u64
    }

    #[test]
    fn transmission_in_u64_equals_the_u128_formula() {
        let rates = [1, 3, 43_000_000, 100_000_000, 1_000_000_000, 10_000_000_000];
        // The largest size whose bit-nanoseconds fit a u64.
        let last = (u64::MAX / 8_000_000_000) as usize;
        for rate in rates {
            for bytes in (0..=9_018).chain([last - 1, last]) {
                assert_eq!(
                    SimDuration::transmission(bytes, rate).as_nanos(),
                    transmission_u128(bytes, rate),
                    "{bytes} B at {rate} bit/s"
                );
            }
            // Past it, the longest duration. The old formula wrapped
            // there at 1 bit/s; no frame comes near that size.
            for bytes in [last + 1, last + 2, usize::MAX] {
                let got = SimDuration::transmission(bytes, rate).as_nanos();
                assert_eq!(got, u64::MAX, "{bytes} B at {rate} bit/s");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn transmission_zero_rate_panics() {
        let _ = SimDuration::transmission(1, 0);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(5);
        assert_eq!(t1.since(t0), SimDuration::from_millis(5));
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
        assert_eq!(t1.max(t0), t1);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }
}
