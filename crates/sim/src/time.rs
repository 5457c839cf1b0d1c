//! Simulation time: integer picoseconds.
//!
//! Picosecond resolution keeps event ordering exact (no float
//! accumulation drift) while still representing ~10⁷ seconds in a
//! `u64` — far beyond any simulation horizon. At 100 Gb/s a 64 B frame
//! lasts 5 120 ps, so sub-nanosecond resolution matters.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub};
use lognic_model::units::Seconds;

/// A point in (or span of) simulation time, in picoseconds.
///
/// # Examples
///
/// ```
/// use lognic_sim::time::SimTime;
///
/// let t = SimTime::from_nanos(2.5);
/// assert_eq!(t.as_picos(), 2500);
/// assert_eq!(t + SimTime::from_picos(500), SimTime::from_nanos(3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from (fractional) nanoseconds, rounding to the
    /// nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_nanos(ns: f64) -> Self {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "time must be finite and non-negative"
        );
        SimTime((ns * 1e3).round() as u64)
    }

    /// Creates a time from (fractional) microseconds.
    pub fn from_micros(us: f64) -> Self {
        Self::from_nanos(us * 1e3)
    }

    /// Creates a time from (fractional) seconds, rounding to the
    /// nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent;
    /// [`SimTime::try_from_secs`] is the fallible form for untrusted
    /// input.
    pub fn from_secs(secs: f64) -> Self {
        Self::try_from_secs(secs)
            .expect("time must be finite, non-negative and fit the picosecond clock")
    }

    /// Creates a time from (fractional) seconds, rounding to the
    /// nearest picosecond, or `None` when `secs` is negative, NaN,
    /// infinite, or past [`SimTime::MAX`] (about 1.8·10⁷ s).
    pub fn try_from_secs(secs: f64) -> Option<Self> {
        let ps = secs * 1e12;
        (secs.is_finite() && secs >= 0.0 && ps <= u64::MAX as f64)
            .then(|| SimTime(ps.round() as u64))
    }

    /// The raw picosecond count.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// The time in nanoseconds.
    pub fn as_nanos(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The time in microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The time in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Converts to the model's float-seconds type.
    pub fn to_seconds(self) -> Seconds {
        Seconds::new(self.as_secs())
    }

    /// Elapsed time since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000_000 {
            write!(f, "{:.6}s", self.as_secs())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_micros())
        } else {
            write!(f, "{:.3}ns", self.as_nanos())
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl From<Seconds> for SimTime {
    fn from(s: Seconds) -> Self {
        SimTime::from_secs(s.as_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(SimTime::from_picos(1500).as_picos(), 1500);
        assert_eq!(SimTime::from_nanos(1.0).as_picos(), 1000);
        assert_eq!(SimTime::from_micros(1.0).as_picos(), 1_000_000);
        assert_eq!(SimTime::from_secs(1e-6).as_picos(), 1_000_000);
        assert!((SimTime::from_picos(2500).as_nanos() - 2.5).abs() < 1e-12);
        assert!((SimTime::from_micros(7.0).as_micros() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_saturates() {
        let a = SimTime::from_picos(10);
        let b = SimTime::from_picos(25);
        assert_eq!(b - a, SimTime::from_picos(15));
        assert_eq!(a - b, SimTime::ZERO);
        assert_eq!(a + b, SimTime::from_picos(35));
        assert_eq!(SimTime::MAX + a, SimTime::MAX);
    }

    #[test]
    fn since_and_max() {
        let a = SimTime::from_picos(10);
        let b = SimTime::from_picos(25);
        assert_eq!(b.since(a), SimTime::from_picos(15));
        assert_eq!(a.since(b), SimTime::ZERO);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_picos(5),
            SimTime::ZERO,
            SimTime::from_picos(2),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_picos(5));
    }

    #[test]
    fn seconds_conversion() {
        let s = Seconds::micros(3.0);
        let t: SimTime = s.into();
        assert_eq!(t, SimTime::from_micros(3.0));
        assert!((t.to_seconds().as_micros() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn try_from_secs_refuses_what_the_clock_cannot_hold() {
        assert_eq!(SimTime::try_from_secs(0.0), Some(SimTime::ZERO));
        assert_eq!(
            SimTime::try_from_secs(1e-6),
            Some(SimTime::from_micros(1.0))
        );
        assert_eq!(
            SimTime::try_from_secs(u64::MAX as f64 / 1e12),
            Some(SimTime::MAX)
        );
        for bad in [-1e-12, f64::NAN, f64::INFINITY, 1.9e7, 1e300] {
            assert_eq!(SimTime::try_from_secs(bad), None, "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "fit the picosecond clock")]
    fn from_secs_panics_past_the_clock() {
        let _ = SimTime::from_secs(1e300);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative() {
        let _ = SimTime::from_nanos(-1.0);
    }

    #[test]
    fn display_scales() {
        assert_eq!(SimTime::from_nanos(1.5).to_string(), "1.500ns");
        assert_eq!(SimTime::from_micros(2.0).to_string(), "2.000us");
        assert_eq!(SimTime::from_secs(1.5).to_string(), "1.500000s");
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = [SimTime::from_picos(1), SimTime::from_picos(2)]
            .into_iter()
            .sum();
        assert_eq!(total, SimTime::from_picos(3));
    }
}
