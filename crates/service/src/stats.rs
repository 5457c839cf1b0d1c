//! Service counters and latency quantiles.
//!
//! Two clocks exist: the wall clock (what an operator wants from a
//! live `stats` probe) and the logical clock (the deterministic cost
//! model's view, what the golden transcripts need). The recorder
//! tracks both; [`ServeConfig::deterministic`] selects which one a
//! `stats` response reports.
//!
//! [`ServeConfig::deterministic`]: crate::service::ServeConfig::deterministic

use lognic_sim::histogram::LatencyRecorder;
use lognic_sim::time::SimTime;

/// Rolling counters for one service process.
#[derive(Debug)]
pub struct ServiceStats {
    /// Request lines received (including malformed ones).
    pub received: u64,
    /// Requests answered `ok:true`.
    pub served: u64,
    /// Requests shed by the load gauge.
    pub shed: u64,
    /// Requests refused with any other typed error.
    pub failed: u64,
    /// Panics contained by the request-isolation boundary.
    pub isolated_panics: u64,
    /// Logical milliseconds of admitted work (the deterministic
    /// clock).
    pub logical_ms: u64,
    latency: LatencyRecorder,
}

impl ServiceStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        ServiceStats {
            received: 0,
            served: 0,
            shed: 0,
            failed: 0,
            isolated_panics: 0,
            logical_ms: 0,
            latency: LatencyRecorder::new(),
        }
    }

    /// Records one completed request's latency sample, in
    /// milliseconds (logical in deterministic mode, wall otherwise).
    /// Negative samples clamp to zero; a sample past the picosecond
    /// clock (a refused request's logical cost can be) saturates at
    /// [`SimTime::MAX`].
    pub fn record_latency_ms(&mut self, ms: f64) {
        self.latency
            .record(SimTime::try_from_secs(ms.max(0.0) / 1e3).unwrap_or(SimTime::MAX));
    }

    /// Mean recorded latency, milliseconds.
    pub fn latency_mean_ms(&self) -> f64 {
        self.latency.mean().as_secs() * 1e3
    }

    /// A latency quantile, milliseconds.
    pub fn latency_quantile_ms(&self, q: f64) -> f64 {
        self.latency.quantile(q).as_secs() * 1e3
    }

    /// Latency samples recorded so far.
    pub fn latency_count(&self) -> u64 {
        self.latency.count()
    }
}

impl Default for ServiceStats {
    fn default() -> Self {
        ServiceStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_quantiles_track_recorded_samples() {
        let mut s = ServiceStats::new();
        for ms in [1.0, 2.0, 3.0, 4.0, 100.0] {
            s.record_latency_ms(ms);
        }
        assert_eq!(s.latency_count(), 5);
        assert!(s.latency_mean_ms() > 10.0);
        assert!(s.latency_quantile_ms(0.5) < s.latency_quantile_ms(0.99));
    }

    #[test]
    fn negative_samples_are_clamped_not_panicking() {
        let mut s = ServiceStats::new();
        s.record_latency_ms(-5.0);
        assert_eq!(s.latency_count(), 1);
        assert_eq!(s.latency_mean_ms(), 0.0);
    }

    #[test]
    fn samples_past_the_clock_saturate_not_panicking() {
        let mut s = ServiceStats::new();
        s.record_latency_ms(2e10);
        s.record_latency_ms(f64::INFINITY);
        assert_eq!(s.latency_count(), 2);
        assert_eq!(s.latency_quantile_ms(1.0), SimTime::MAX.as_secs() * 1e3);
    }
}
