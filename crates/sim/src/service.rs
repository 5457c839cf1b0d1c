//! Engine service-time models.
//!
//! Most IPs are rate-based: a request of `w` work-bytes on an engine
//! running at rate `r` takes `w / r`, optionally jittered
//! exponentially (the M/M/1/N assumption of the analytical model).
//! Opaque devices — the paper's SSD is the canonical example — plug in
//! their own [`ServiceModel`] implementation with internal state.

use crate::packet::Packet;
use crate::rng::SimRng;
use crate::time::SimTime;
use lognic_model::units::{Bandwidth, Bytes};

/// The distribution of engine service times around their mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceDist {
    /// Deterministic service: exactly the mean.
    Deterministic,
    /// Exponential service with the given mean (matches the analytical
    /// model's M/M/1/N assumption).
    #[default]
    Exponential,
}

impl ServiceDist {
    /// One service time with mean `mean`: `mean` itself, or an
    /// exponential draw from `rng`.
    pub(crate) fn draw(self, mean: SimTime, rng: &mut SimRng) -> SimTime {
        match self {
            ServiceDist::Deterministic => mean,
            ServiceDist::Exponential => rng.exponential(mean),
        }
    }
}

/// Produces per-request service times for one node's engines.
///
/// Implementations may keep internal state (queue-depth effects,
/// garbage collection, cache behaviour). `work` is the node's
/// work-bytes for this packet (`packet.size × work_factor`).
pub trait ServiceModel: Send {
    /// The time one engine spends executing this request, starting at
    /// simulation time `now`.
    fn service_time(
        &mut self,
        now: SimTime,
        packet: &Packet,
        work: Bytes,
        rng: &mut SimRng,
    ) -> SimTime;
}

impl std::fmt::Debug for dyn ServiceModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dyn ServiceModel")
    }
}

/// A rate-based service model: mean time = `work / per_engine_rate`.
#[derive(Debug, Clone, Copy)]
pub struct RateService {
    per_engine_rate: Bandwidth,
    dist: ServiceDist,
}

impl RateService {
    /// Creates a rate-based model with the given per-engine data rate.
    pub fn new(per_engine_rate: Bandwidth, dist: ServiceDist) -> Self {
        RateService {
            per_engine_rate,
            dist,
        }
    }

    /// The per-engine data rate.
    pub fn per_engine_rate(&self) -> Bandwidth {
        self.per_engine_rate
    }

    /// The configured jitter distribution.
    pub fn dist(&self) -> ServiceDist {
        self.dist
    }

    /// The mean service time for `work` bytes.
    pub fn mean_time(&self, work: Bytes) -> SimTime {
        if self.per_engine_rate.is_zero() {
            return SimTime::MAX;
        }
        SimTime::from_secs(self.per_engine_rate.transfer_time(work).as_secs())
    }
}

impl ServiceModel for RateService {
    fn service_time(
        &mut self,
        _now: SimTime,
        _packet: &Packet,
        work: Bytes,
        rng: &mut SimRng,
    ) -> SimTime {
        self.dist.draw(self.mean_time(work), rng)
    }
}

/// A fixed per-request service time regardless of size (useful for
/// request-granular engines such as lookup tables).
#[derive(Debug, Clone, Copy)]
pub struct FixedService {
    time: SimTime,
    dist: ServiceDist,
}

impl FixedService {
    /// Creates a fixed-time model.
    pub fn new(time: SimTime, dist: ServiceDist) -> Self {
        FixedService { time, dist }
    }
}

impl ServiceModel for FixedService {
    fn service_time(
        &mut self,
        _now: SimTime,
        _packet: &Packet,
        _work: Bytes,
        rng: &mut SimRng,
    ) -> SimTime {
        self.dist.draw(self.time, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> Packet {
        Packet::new(0, Bytes::new(1000), SimTime::ZERO, 0)
    }

    #[test]
    fn rate_service_deterministic() {
        let mut m = RateService::new(Bandwidth::gbps(8.0), ServiceDist::Deterministic);
        let mut rng = SimRng::seed_from(1);
        // 1000 B = 8000 bits at 8 Gb/s = 1 µs.
        let t = m.service_time(SimTime::ZERO, &pkt(), Bytes::new(1000), &mut rng);
        assert_eq!(t, SimTime::from_micros(1.0));
        assert_eq!(m.per_engine_rate(), Bandwidth::gbps(8.0));
        assert_eq!(m.dist(), ServiceDist::Deterministic);
    }

    #[test]
    fn rate_service_exponential_mean() {
        let mut m = RateService::new(Bandwidth::gbps(8.0), ServiceDist::Exponential);
        let mut rng = SimRng::seed_from(2);
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| {
                m.service_time(SimTime::ZERO, &pkt(), Bytes::new(1000), &mut rng)
                    .as_micros()
            })
            .sum();
        let mean = total / n as f64;
        assert!((mean - 1.0).abs() < 0.03, "mean = {mean}");
    }

    #[test]
    fn zero_rate_is_starved() {
        let m = RateService::new(Bandwidth::ZERO, ServiceDist::Deterministic);
        assert_eq!(m.mean_time(Bytes::new(1)), SimTime::MAX);
    }

    #[test]
    fn fixed_service_ignores_size() {
        let mut m = FixedService::new(SimTime::from_micros(2.0), ServiceDist::Deterministic);
        let mut rng = SimRng::seed_from(1);
        assert_eq!(
            m.service_time(SimTime::ZERO, &pkt(), Bytes::new(1), &mut rng),
            SimTime::from_micros(2.0)
        );
        assert_eq!(
            m.service_time(SimTime::ZERO, &pkt(), Bytes::mib(1), &mut rng),
            SimTime::from_micros(2.0)
        );
    }

    #[test]
    fn service_dist_default_is_exponential() {
        assert_eq!(ServiceDist::default(), ServiceDist::Exponential);
    }
}
