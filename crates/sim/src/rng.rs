//! Deterministic random numbers for reproducible simulations.
//!
//! Since the hermetic-build change, [`SimRng`] is backed by the
//! in-repo xoshiro256++ generator from `lognic-testkit` instead of
//! `rand::SmallRng`. The API is unchanged, but the *stream* is not:
//! any golden value derived from a specific seed's draws moved once
//! with that swap (all in-repo anchors were re-pinned at the same
//! time; statistical assertions now use replication confidence
//! intervals and did not need re-pinning).

use crate::time::SimTime;
use lognic_testkit::rng::{splitmix64, Xoshiro256pp};

/// A seeded random source. Every simulation run with the same seed and
/// configuration produces identical results.
///
/// # Examples
///
/// ```
/// use lognic_sim::rng::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.uniform(), b.uniform());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    inner: Xoshiro256pp,
    draws: u64,
}

impl SimRng {
    /// Creates a generator from a seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: Xoshiro256pp::seed_from(seed),
            draws: 0,
        }
    }

    /// Number of uniform draws taken so far. Every distribution on
    /// this type ([`exponential`](Self::exponential),
    /// [`pick_cumulative`](Self::pick_cumulative),
    /// [`pick_weighted`](Self::pick_weighted)) funnels through
    /// [`uniform`](Self::uniform), so this single counter audits the
    /// whole stream — the sanitizer surfaces it so reruns of one
    /// scenario can be checked to draw identically.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Derives the seed of the `index`-th replica of a multi-seed run
    /// from a base seed. Consecutive indices give decorrelated seeds
    /// (SplitMix64 of the pair), so replications can use `base, 0..n`
    /// without worrying about stream overlap.
    pub fn replica_seed(base: u64, index: u64) -> u64 {
        let mut sm = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        splitmix64(&mut sm)
    }

    /// A uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.draws += 1;
        self.inner.next_f64()
    }

    /// An exponentially distributed interval with the given mean.
    /// Returns zero when the mean is zero.
    pub fn exponential(&mut self, mean: SimTime) -> SimTime {
        if mean == SimTime::ZERO {
            return SimTime::ZERO;
        }
        // Inverse CDF; guard against ln(0).
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        let factor = -u.ln();
        SimTime::from_picos((mean.as_picos() as f64 * factor).round() as u64)
    }

    /// Picks an index from cumulative weights `cum` (non-decreasing,
    /// last element is the total). Returns `cum.len() - 1` when the
    /// draw lands beyond the last boundary (floating-point slack).
    ///
    /// # Panics
    ///
    /// Panics if `cum` is empty.
    pub fn pick_cumulative(&mut self, cum: &[f64]) -> usize {
        assert!(!cum.is_empty(), "cumulative weights must be non-empty");
        let total = *cum.last().expect("non-empty");
        let draw = self.uniform() * total;
        cum.iter().position(|&c| draw < c).unwrap_or(cum.len() - 1)
    }

    /// Picks an index with probability proportional to `weights`
    /// (plain, non-cumulative weights; convenience over
    /// [`pick_cumulative`](Self::pick_cumulative)).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let total: f64 = weights.iter().sum();
        let draw = self.uniform() * total;
        let mut acc = 0.0;
        for (i, w) in weights.iter().enumerate() {
            acc += w;
            if draw < acc {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..10).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 10);
    }

    #[test]
    fn replica_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..64).map(|i| SimRng::replica_seed(42, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "no collisions across replicas");
        assert_eq!(SimRng::replica_seed(42, 7), SimRng::replica_seed(42, 7));
        assert_ne!(SimRng::replica_seed(42, 7), SimRng::replica_seed(43, 7));
    }

    #[test]
    fn draw_counter_audits_every_distribution() {
        let mut r = SimRng::seed_from(9);
        assert_eq!(r.draws(), 0);
        let _ = r.uniform();
        assert_eq!(r.draws(), 1);
        // exponential draws at least once (loops only on u == 0).
        let before = r.draws();
        let _ = r.exponential(SimTime::from_micros(1.0));
        assert!(r.draws() > before);
        let before = r.draws();
        let _ = r.pick_cumulative(&[0.5, 1.0]);
        assert_eq!(r.draws(), before + 1);
        let before = r.draws();
        let _ = r.pick_weighted(&[1.0, 2.0]);
        assert_eq!(r.draws(), before + 1);
        // Zero-mean exponential takes the early return: no draw.
        let before = r.draws();
        let _ = r.exponential(SimTime::ZERO);
        assert_eq!(r.draws(), before);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..1000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = SimRng::seed_from(11);
        let mean = SimTime::from_micros(5.0);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| r.exponential(mean).as_micros()).sum();
        let sample_mean = total / n as f64;
        assert!(
            (sample_mean - 5.0).abs() < 0.15,
            "sample mean {sample_mean} too far from 5.0"
        );
    }

    #[test]
    fn exponential_zero_mean_is_zero() {
        let mut r = SimRng::seed_from(1);
        assert_eq!(r.exponential(SimTime::ZERO), SimTime::ZERO);
    }

    #[test]
    fn pick_cumulative_respects_weights() {
        let mut r = SimRng::seed_from(5);
        // 25% / 75%.
        let cum = [0.25, 1.0];
        let n = 10_000;
        let ones = (0..n).filter(|_| r.pick_cumulative(&cum) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn pick_weighted_matches_cumulative() {
        let mut a = SimRng::seed_from(21);
        let mut b = SimRng::seed_from(21);
        let weights = [1.0, 3.0, 6.0];
        let cum = [1.0, 4.0, 10.0];
        for _ in 0..1000 {
            assert_eq!(a.pick_weighted(&weights), b.pick_cumulative(&cum));
        }
    }

    #[test]
    fn pick_cumulative_single_entry() {
        let mut r = SimRng::seed_from(5);
        for _ in 0..10 {
            assert_eq!(r.pick_cumulative(&[1.0]), 0);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn pick_cumulative_empty_panics() {
        let mut r = SimRng::seed_from(5);
        let _ = r.pick_cumulative(&[]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn pick_weighted_empty_panics() {
        let mut r = SimRng::seed_from(5);
        let _ = r.pick_weighted(&[]);
    }
}
