//! Strongly-typed physical quantities used throughout the model.
//!
//! The model works in three unit domains: data volumes ([`Bytes`]), data
//! rates ([`Bandwidth`], [`OpsRate`]) and time (`std::time::Duration`
//! via the [`Seconds`] alias on the float side). Newtypes keep packet
//! sizes, bandwidths and op rates from being mixed up in the formulas
//! of §3.5–§3.6 of the paper.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// A data volume in bytes.
///
/// # Examples
///
/// ```
/// use lognic_model::units::Bytes;
///
/// let mtu = Bytes::new(1500);
/// assert_eq!(mtu.get(), 1500);
/// assert_eq!(Bytes::kib(4), Bytes::new(4096));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Creates a volume of `n` bytes.
    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    /// Creates a volume of `n` kibibytes (1024 bytes each).
    pub const fn kib(n: u64) -> Self {
        Bytes(n * 1024)
    }

    /// Creates a volume of `n` mebibytes.
    pub const fn mib(n: u64) -> Self {
        Bytes(n * 1024 * 1024)
    }

    /// Returns the raw byte count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the volume in bits.
    pub const fn bits(self) -> u64 {
        self.0 * 8
    }

    /// Returns the volume as a floating-point byte count.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Scales the volume by a dimensionless factor, rounding to the
    /// nearest byte.
    pub fn scaled(self, factor: f64) -> Bytes {
        Bytes((self.0 as f64 * factor).round().max(0.0) as u64)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 && self.0.is_multiple_of(1024 * 1024) {
            write!(f, "{}MiB", self.0 / (1024 * 1024))
        } else if self.0 >= 1024 && self.0.is_multiple_of(1024) {
            write!(f, "{}KiB", self.0 / 1024)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl From<u64> for Bytes {
    fn from(n: u64) -> Self {
        Bytes(n)
    }
}

/// A data-transfer or data-processing rate, stored as bits per second.
///
/// Bandwidths describe interconnects (`BW_INTF`, `BW_MEM`, `BW_mn`),
/// ingress rates (`BW_in`) and IP computing throughputs (`P_vi`).
///
/// # Examples
///
/// ```
/// use lognic_model::units::Bandwidth;
///
/// let line_rate = Bandwidth::gbps(25.0);
/// assert_eq!(line_rate.as_gbps(), 25.0);
/// assert!(line_rate > Bandwidth::gbps(10.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// A zero rate.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// An unbounded rate, modelling an ideal link with no
    /// serialization delay (used by fleet topologies; the analytical
    /// model's own component rates must stay finite).
    pub const INFINITE: Bandwidth = Bandwidth(f64::INFINITY);

    /// Creates a bandwidth from bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is negative or not finite.
    pub fn bps(bps: f64) -> Self {
        assert!(
            bps.is_finite() && bps >= 0.0,
            "bandwidth must be finite and non-negative"
        );
        Bandwidth(bps)
    }

    /// Creates a bandwidth from gigabits per second.
    pub fn gbps(gbps: f64) -> Self {
        Self::bps(gbps * 1e9)
    }

    /// Creates a bandwidth from megabits per second.
    pub fn mbps(mbps: f64) -> Self {
        Self::bps(mbps * 1e6)
    }

    /// Creates a bandwidth from gigabytes per second.
    pub fn gbytes_per_sec(gb: f64) -> Self {
        Self::bps(gb * 8e9)
    }

    /// Returns the rate in bits per second.
    pub fn as_bps(self) -> f64 {
        self.0
    }

    /// Returns the rate in gigabits per second.
    pub fn as_gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// Returns the rate in bytes per second.
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0 / 8.0
    }

    /// Returns true if the rate is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Scales the rate by a dimensionless factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scaled(self, factor: f64) -> Bandwidth {
        Self::bps(self.0 * factor)
    }

    /// Time to move `volume` at this rate.
    ///
    /// Returns [`Seconds::INFINITY`] when the rate is zero and the
    /// volume is non-zero.
    pub fn transfer_time(self, volume: Bytes) -> Seconds {
        if volume.get() == 0 {
            return Seconds::ZERO;
        }
        if self.0 == 0.0 {
            return Seconds::INFINITY;
        }
        Seconds::new(volume.bits() as f64 / self.0)
    }

    /// The smaller of two rates.
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The larger of two rates.
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3}Gbps", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.3}Mbps", self.0 / 1e6)
        } else {
            write!(f, "{:.1}bps", self.0)
        }
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        self.scaled(rhs)
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, rhs: f64) -> Bandwidth {
        assert!(rhs > 0.0, "cannot divide bandwidth by non-positive factor");
        Bandwidth(self.0 / rhs)
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        Bandwidth(iter.map(|b| b.0).sum())
    }
}

/// An operation rate for domain-specific engines (ops per second).
///
/// The extended-Roofline formulation of §3.2 replaces arithmetic
/// intensity with *packet intensity*: engine performance is expressed
/// as IP-specific operations per second rather than FLOPs.
///
/// # Examples
///
/// ```
/// use lognic_model::units::{Bytes, OpsRate};
///
/// let crc = OpsRate::mops(2.8);
/// // At one op per packet, 64 B packets: data rate the engine can absorb.
/// let bw = crc.data_rate(Bytes::new(64));
/// assert!((bw.as_gbps() - 2.8e6 * 64.0 * 8.0 / 1e9).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct OpsRate(f64);

impl OpsRate {
    /// A zero rate.
    pub const ZERO: OpsRate = OpsRate(0.0);

    /// Creates a rate from operations per second.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is negative or not finite.
    pub fn per_sec(ops: f64) -> Self {
        assert!(
            ops.is_finite() && ops >= 0.0,
            "ops rate must be finite and non-negative"
        );
        OpsRate(ops)
    }

    /// Creates a rate from millions of operations per second.
    pub fn mops(mops: f64) -> Self {
        Self::per_sec(mops * 1e6)
    }

    /// Creates a rate from thousands of operations per second.
    pub fn kops(kops: f64) -> Self {
        Self::per_sec(kops * 1e3)
    }

    /// Returns the rate in operations per second.
    pub fn as_per_sec(self) -> f64 {
        self.0
    }

    /// Returns the rate in millions of operations per second.
    pub fn as_mops(self) -> f64 {
        self.0 / 1e6
    }

    /// Data rate when every operation consumes `per_op` bytes.
    pub fn data_rate(self, per_op: Bytes) -> Bandwidth {
        Bandwidth::bps(self.0 * per_op.bits() as f64)
    }

    /// The smaller of two rates.
    pub fn min(self, other: OpsRate) -> OpsRate {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for OpsRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.3}Mops", self.0 / 1e6)
        } else {
            write!(f, "{:.1}ops", self.0)
        }
    }
}

impl Mul<f64> for OpsRate {
    type Output = OpsRate;
    fn mul(self, rhs: f64) -> OpsRate {
        OpsRate::per_sec(self.0 * rhs)
    }
}

/// A time interval in seconds, with explicit infinity for starved
/// components.
///
/// `std::time::Duration` cannot represent the infinite latencies that
/// arise when a component has zero service capacity, so the model uses
/// this float-backed type and converts at the API boundary where
/// convenient.
///
/// # Examples
///
/// ```
/// use lognic_model::units::Seconds;
///
/// let t = Seconds::micros(3.5);
/// assert!((t.as_micros() - 3.5).abs() < 1e-12);
/// assert!(t + Seconds::micros(0.5) == Seconds::micros(4.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero elapsed time.
    pub const ZERO: Seconds = Seconds(0.0);
    /// An unbounded interval (starved or unstable component).
    pub const INFINITY: Seconds = Seconds(f64::INFINITY);

    /// Creates an interval from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or NaN.
    pub fn new(secs: f64) -> Self {
        assert!(
            !secs.is_nan() && secs >= 0.0,
            "time must be non-negative, got {secs}"
        );
        Seconds(secs)
    }

    /// Creates an interval from milliseconds.
    pub fn millis(ms: f64) -> Self {
        Self::new(ms * 1e-3)
    }

    /// Creates an interval from microseconds.
    pub fn micros(us: f64) -> Self {
        Self::new(us * 1e-6)
    }

    /// Creates an interval from nanoseconds.
    pub fn nanos(ns: f64) -> Self {
        Self::new(ns * 1e-9)
    }

    /// Returns the interval in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the interval in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the interval in microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the interval in nanoseconds.
    pub fn as_nanos(self) -> f64 {
        self.0 * 1e9
    }

    /// Returns true when the interval is unbounded.
    pub fn is_infinite(self) -> bool {
        self.0.is_infinite()
    }

    /// Returns true when the interval is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Scales the interval by a non-negative dimensionless factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn scaled(self, factor: f64) -> Seconds {
        assert!(
            !factor.is_nan() && factor >= 0.0,
            "scale factor must be non-negative"
        );
        Seconds(self.0 * factor)
    }

    /// The smaller of two intervals.
    pub fn min(self, other: Seconds) -> Seconds {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The larger of two intervals.
    pub fn max(self, other: Seconds) -> Seconds {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_infinite() {
            write!(f, "inf")
        } else if self.0 >= 1.0 {
            write!(f, "{:.3}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else if self.0 >= 1e-6 {
            write!(f, "{:.3}us", self.0 * 1e6)
        } else {
            write!(f, "{:.1}ns", self.0 * 1e9)
        }
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds((self.0 - rhs.0).max(0.0))
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        Seconds(iter.map(|s| s.0).sum())
    }
}

impl From<std::time::Duration> for Seconds {
    fn from(d: std::time::Duration) -> Self {
        Seconds(d.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_constructors_and_accessors() {
        assert_eq!(Bytes::new(10).get(), 10);
        assert_eq!(Bytes::kib(2).get(), 2048);
        assert_eq!(Bytes::mib(1).get(), 1 << 20);
        assert_eq!(Bytes::new(3).bits(), 24);
    }

    #[test]
    fn bytes_arithmetic() {
        assert_eq!(Bytes::new(5) + Bytes::new(7), Bytes::new(12));
        assert_eq!(
            Bytes::new(5) - Bytes::new(7),
            Bytes::new(0),
            "subtraction saturates"
        );
        let total: Bytes = [Bytes::new(1), Bytes::new(2)].into_iter().sum();
        assert_eq!(total, Bytes::new(3));
    }

    #[test]
    fn bytes_scaled_rounds() {
        assert_eq!(Bytes::new(100).scaled(0.5), Bytes::new(50));
        assert_eq!(
            Bytes::new(3).scaled(0.5),
            Bytes::new(2),
            "rounds to nearest"
        );
        assert_eq!(
            Bytes::new(100).scaled(-1.0),
            Bytes::new(0),
            "clamped at zero"
        );
    }

    #[test]
    fn bytes_display() {
        assert_eq!(Bytes::new(64).to_string(), "64B");
        assert_eq!(Bytes::kib(4).to_string(), "4KiB");
        assert_eq!(Bytes::mib(2).to_string(), "2MiB");
        assert_eq!(Bytes::new(1500).to_string(), "1500B");
    }

    #[test]
    fn bandwidth_unit_conversions() {
        let bw = Bandwidth::gbps(25.0);
        assert_eq!(bw.as_bps(), 25e9);
        assert_eq!(bw.as_gbps(), 25.0);
        assert_eq!(Bandwidth::mbps(1.0).as_bps(), 1e6);
        assert_eq!(Bandwidth::gbytes_per_sec(1.0).as_bps(), 8e9);
        assert_eq!(bw.as_bytes_per_sec(), 25e9 / 8.0);
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::gbps(8.0);
        let t = bw.transfer_time(Bytes::new(1000));
        assert!((t.as_micros() - 1.0).abs() < 1e-12);
        assert_eq!(
            Bandwidth::ZERO.transfer_time(Bytes::new(1)),
            Seconds::INFINITY
        );
        assert_eq!(Bandwidth::ZERO.transfer_time(Bytes::new(0)), Seconds::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn bandwidth_rejects_negative() {
        let _ = Bandwidth::bps(-1.0);
    }

    #[test]
    fn bandwidth_min_max_sum() {
        let a = Bandwidth::gbps(1.0);
        let b = Bandwidth::gbps(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let s: Bandwidth = [a, b].into_iter().sum();
        assert_eq!(s, Bandwidth::gbps(3.0));
    }

    #[test]
    fn bandwidth_sub_saturates() {
        assert_eq!(Bandwidth::gbps(1.0) - Bandwidth::gbps(2.0), Bandwidth::ZERO);
    }

    #[test]
    fn ops_rate_data_rate() {
        let r = OpsRate::mops(1.0);
        assert_eq!(r.data_rate(Bytes::new(125)).as_bps(), 1e6 * 1000.0);
        assert_eq!(OpsRate::kops(5.0).as_per_sec(), 5000.0);
    }

    #[test]
    fn seconds_constructors() {
        assert!((Seconds::millis(1.0).as_secs() - 1e-3).abs() < 1e-15);
        assert!((Seconds::micros(1.0).as_secs() - 1e-6).abs() < 1e-15);
        assert!((Seconds::nanos(1.0).as_secs() - 1e-9).abs() < 1e-18);
        assert!((Seconds::micros(2.0).as_nanos() - 2000.0).abs() < 1e-9);
        assert!((Seconds::new(0.25).as_millis() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn seconds_infinity_and_zero() {
        assert!(Seconds::INFINITY.is_infinite());
        assert!(Seconds::ZERO.is_zero());
        assert!(!Seconds::new(1.0).is_infinite());
    }

    #[test]
    fn seconds_arithmetic_saturating_sub() {
        assert_eq!(Seconds::new(1.0) - Seconds::new(2.0), Seconds::ZERO);
        assert_eq!(Seconds::new(2.0) - Seconds::new(0.5), Seconds::new(1.5));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn seconds_rejects_negative() {
        let _ = Seconds::new(-0.5);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bandwidth::gbps(25.0).to_string(), "25.000Gbps");
        assert_eq!(Bandwidth::mbps(1.5).to_string(), "1.500Mbps");
        assert_eq!(OpsRate::mops(2.5).to_string(), "2.500Mops");
        assert_eq!(Seconds::INFINITY.to_string(), "inf");
        assert_eq!(Seconds::micros(3.0).to_string(), "3.000us");
        assert_eq!(Seconds::millis(3.0).to_string(), "3.000ms");
    }

    #[test]
    fn duration_conversion() {
        let s: Seconds = std::time::Duration::from_micros(10).into();
        assert!((s.as_micros() - 10.0).abs() < 1e-9);
    }
}
