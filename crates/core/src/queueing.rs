//! M/M/1/N queueing used for intra-IP queueing delay (§3.6, Eq. 9–12).
//!
//! LogNIC concatenates an IP's disjoint queues into one *virtual shared
//! queue* and models it as an M/M/1/N system: Poisson arrivals
//! (data-center request arrivals), exponential service times, a single
//! logical server and a finite capacity of `N` requests.
//!
//! The closed form of Eq. 12 is
//! `Q = (1/μ) · (ρ/(1−ρ) − N·ρ^N/(1−ρ^N))`, which this module
//! evaluates stably for all loads: ρ < 1, the ρ → 1 limit
//! (`Q = (N−1)/(2μ)`) and overload (ρ > 1, where the finite queue
//! keeps the delay bounded).

use crate::error::{ModelError, Result};
use crate::units::Seconds;

/// Window around ρ = 1 inside which the closed forms suffer
/// catastrophic cancellation (they subtract two ~1/(ρ−1) terms), so
/// first-order series expansions about ρ = 1 are used instead.
const RHO_ONE_EPS: f64 = 1e-6;

/// An M/M/1/N queue at a given utilization.
///
/// # Examples
///
/// ```
/// use lognic_model::queueing::Mm1n;
/// use lognic_model::units::Seconds;
///
/// let q = Mm1n::new(0.5, 2)?;
/// // Hand-computed: P = {4/7, 2/7, 1/7}; Q = service / 3.
/// assert!((q.blocking_probability() - 1.0 / 7.0).abs() < 1e-12);
/// let delay = q.queueing_delay(Seconds::micros(3.0));
/// assert!((delay.as_micros() - 1.0).abs() < 1e-9);
/// # Ok::<(), lognic_model::error::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mm1n {
    rho: f64,
    capacity: u32,
}

impl Mm1n {
    /// Creates a queue with utilization `rho = λ/μ` and capacity
    /// `capacity = N` (requests that fit in the system).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when `rho` is negative
    /// or not finite, or when `capacity` is zero.
    pub fn new(rho: f64, capacity: u32) -> Result<Self> {
        if !(rho.is_finite() && rho >= 0.0) {
            return Err(ModelError::InvalidParameter {
                parameter: "rho",
                value: rho,
                constraint: "must be finite and non-negative",
            });
        }
        if capacity == 0 {
            return Err(ModelError::InvalidParameter {
                parameter: "capacity",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        Ok(Mm1n { rho, capacity })
    }

    /// The offered utilization `ρ = λ/μ`.
    pub fn utilization(self) -> f64 {
        self.rho
    }

    /// The queue capacity `N`.
    pub fn capacity(self) -> u32 {
        self.capacity
    }

    fn is_critical(self) -> bool {
        (self.rho - 1.0).abs() < RHO_ONE_EPS
    }

    /// Steady-state probability of exactly `k` requests in the system
    /// (Eq. 10). Zero for `k > N`.
    pub fn occupancy_probability(self, k: u32) -> f64 {
        let n = self.capacity;
        if k > n {
            return 0.0;
        }
        if self.is_critical() {
            // Series about ρ = 1: P_k ≈ (1 + (k − N/2)·(ρ−1)) / (N+1).
            let d = self.rho - 1.0;
            let nf = n as f64;
            return ((1.0 + (k as f64 - nf / 2.0) * d) / (nf + 1.0)).clamp(0.0, 1.0);
        }
        let rho = self.rho;
        if rho == 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        if rho < 1.0 {
            // ρ^k (1−ρ) / (1−ρ^{N+1})
            rho.powi(k as i32) * (1.0 - rho) / (1.0 - rho.powi(n as i32 + 1))
        } else {
            // Multiply through by ρ^{-N}: σ^{N−k} (1−ρ) / (σ^N − ρ),
            // with σ = 1/ρ < 1, to avoid overflowing ρ^N.
            let sigma = 1.0 / rho;
            sigma.powi((n - k) as i32) * (1.0 - rho) / (sigma.powi(n as i32) - rho)
        }
    }

    /// Probability that an arriving request finds the queue full and
    /// is dropped (`Pro_N`, the packet dropping rate of §3.6).
    pub fn blocking_probability(self) -> f64 {
        self.occupancy_probability(self.capacity)
    }

    /// Fraction of offered load that is actually admitted:
    /// `λ_e / λ = 1 − Pro_N`.
    pub fn delivered_fraction(self) -> f64 {
        1.0 - self.blocking_probability()
    }

    /// Mean number of requests in the system,
    /// `L = Σ n · Pro_n = ρ/(1−ρ) − (N+1)·ρ^{N+1}/(1−ρ^{N+1})`.
    pub fn mean_occupancy(self) -> f64 {
        let n = self.capacity as f64;
        if self.is_critical() {
            // Series about ρ = 1: L ≈ N/2 + N(N+2)·(ρ−1)/12.
            return n / 2.0 + n * (n + 2.0) * (self.rho - 1.0) / 12.0;
        }
        let rho = self.rho;
        if rho == 0.0 {
            return 0.0;
        }
        let tail = if rho < 1.0 {
            (n + 1.0) * rho.powi(self.capacity as i32 + 1)
                / (1.0 - rho.powi(self.capacity as i32 + 1))
        } else {
            // (N+1)/(σ^{N+1} − 1) with σ = 1/ρ, negated sign folded in.
            let sigma = 1.0 / rho;
            (n + 1.0) / (sigma.powi(self.capacity as i32 + 1) - 1.0)
        };
        rho / (1.0 - rho) - tail
    }

    /// The dimensionless queueing factor
    /// `ρ/(1−ρ) − N·ρ^N/(1−ρ^N)` from Eq. 12, such that
    /// `Q = service_time × factor`.
    pub fn queueing_factor(self) -> f64 {
        let n = self.capacity as f64;
        if self.is_critical() {
            // Series about ρ = 1: factor ≈ (N−1)/2 + (N²−1)·(ρ−1)/12.
            return ((n - 1.0) / 2.0 + (n * n - 1.0) * (self.rho - 1.0) / 12.0).max(0.0);
        }
        let rho = self.rho;
        if rho == 0.0 {
            return 0.0;
        }
        let tail = if rho < 1.0 {
            let rn = rho.powi(self.capacity as i32);
            n * rn / (1.0 - rn)
        } else {
            // N·ρ^N/(1−ρ^N) = −N/(1−σ^N), σ = 1/ρ.
            let sigma = 1.0 / rho;
            -n / (1.0 - sigma.powi(self.capacity as i32))
        };
        (rho / (1.0 - rho) - tail).max(0.0)
    }

    /// Average queueing delay `Q = (1/μ) · queueing_factor` (Eq. 12),
    /// where `service_time = 1/μ` is the mean request service time.
    pub fn queueing_delay(self, service_time: Seconds) -> Seconds {
        service_time.scaled(self.queueing_factor())
    }
}

/// An M/M/c/N queue: the multi-engine generalization of [`Mm1n`].
///
/// The paper's Eq. 9–12 model an IP's virtual shared queue with a
/// single logical server. For an IP whose parallelism degree `D` is
/// large (the SSD's 64 internal channels, a 16-core complex), the
/// single-server formula charges queueing delay that `D` concurrent
/// engines never exhibit at moderate load. `MmcN` keeps the same
/// assumptions (Poisson arrivals, exponential service, finite
/// capacity) but serves with `c` engines; at `c = 1` it reduces
/// exactly to [`Mm1n`].
///
/// # Examples
///
/// ```
/// use lognic_model::queueing::{Mm1n, MmcN};
/// use lognic_model::units::Seconds;
///
/// let single = Mm1n::new(0.6, 32)?;
/// let multi = MmcN::new(0.6, 8, 32)?;
/// let service = Seconds::micros(10.0);
/// // Eight engines at the same total utilization queue far less.
/// assert!(multi.queueing_delay(service) < single.queueing_delay(service));
/// // c = 1 reduces to the Eq. 12 closed form.
/// let reduced = MmcN::new(0.6, 1, 32)?;
/// let a = reduced.queueing_delay(service).as_secs();
/// let b = single.queueing_delay(service).as_secs();
/// assert!((a - b).abs() < 1e-12);
/// # Ok::<(), lognic_model::error::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MmcN {
    rho: f64,
    engines: u32,
    capacity: u32,
    /// Stationary occupancy distribution, `probs[k]` = P(k in system).
    probs: Vec<f64>,
}

impl MmcN {
    /// Creates a queue at system utilization `rho = λ/(c·μ)` with `c =
    /// engines` servers and total capacity `capacity` (in service +
    /// queued). Capacity below the engine count is treated as
    /// `engines` (every engine can hold a request).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when `rho` is negative
    /// or not finite, or when `engines`/`capacity` is zero.
    pub fn new(rho: f64, engines: u32, capacity: u32) -> Result<Self> {
        if !(rho.is_finite() && rho >= 0.0) {
            return Err(ModelError::InvalidParameter {
                parameter: "rho",
                value: rho,
                constraint: "must be finite and non-negative",
            });
        }
        if engines == 0 {
            return Err(ModelError::InvalidParameter {
                parameter: "engines",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        if capacity == 0 {
            return Err(ModelError::InvalidParameter {
                parameter: "capacity",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        let capacity = capacity.max(engines);
        // Offered load in erlangs: a = λ/μ = ρ·c.
        let a = rho * engines as f64;
        let n = capacity as usize;
        if a == 0.0 {
            let mut probs = vec![0.0; n + 1];
            probs[0] = 1.0;
            return Ok(MmcN {
                rho,
                engines,
                capacity,
                probs,
            });
        }
        // Log-space weights: ln w_{k+1} = ln w_k + ln a − ln min(k+1, c).
        // Every state from k + 1 = c on divides by c, so `ln c` is
        // computed once; the weights become probabilities in place.
        let c = engines as usize;
        let ln_a = a.ln();
        let ln_c = (c as f64).ln();
        let mut probs = Vec::with_capacity(n + 1);
        let mut prev = 0.0f64;
        let mut max = prev;
        probs.push(prev);
        for k in 0..n {
            let ln_srv = if k + 1 < c {
                ((k + 1) as f64).ln()
            } else {
                ln_c
            };
            prev = prev + ln_a - ln_srv;
            max = max.max(prev);
            probs.push(prev);
        }
        for p in &mut probs {
            *p = (*p - max).exp();
        }
        let total: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= total;
        }
        Ok(MmcN {
            rho,
            engines,
            capacity,
            probs,
        })
    }

    /// The system utilization `ρ`.
    pub fn utilization(&self) -> f64 {
        self.rho
    }

    /// The engine count `c`.
    pub fn engines(&self) -> u32 {
        self.engines
    }

    /// The total capacity `N`.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Steady-state probability of exactly `k` requests in the system.
    pub fn occupancy_probability(&self, k: u32) -> f64 {
        self.probs.get(k as usize).copied().unwrap_or(0.0)
    }

    /// Probability an arriving request finds the system full.
    pub fn blocking_probability(&self) -> f64 {
        self.probs[self.capacity as usize]
    }

    /// Mean requests in the system.
    pub fn mean_occupancy(&self) -> f64 {
        self.probs
            .iter()
            .enumerate()
            .map(|(k, p)| k as f64 * p)
            .sum()
    }

    /// Mean requests *waiting* (beyond the `c` in service).
    pub fn mean_queue_length(&self) -> f64 {
        let c = self.engines as usize;
        self.probs
            .iter()
            .enumerate()
            .skip(c + 1)
            .map(|(k, p)| (k - c) as f64 * p)
            .sum()
    }

    /// Mean queueing delay for a per-request service time
    /// (Little's law on the waiting line: `Q = L_q / λ_e`).
    pub fn queueing_delay(&self, service_time: Seconds) -> Seconds {
        if self.rho == 0.0 {
            return Seconds::ZERO;
        }
        let lambda = self.rho * self.engines as f64 / service_time.as_secs().max(f64::MIN_POSITIVE);
        let lambda_e = lambda * (1.0 - self.blocking_probability());
        if lambda_e <= 0.0 {
            return Seconds::ZERO;
        }
        Seconds::new(self.mean_queue_length() / lambda_e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(rho: f64, n: u32) -> Mm1n {
        Mm1n::new(rho, n).unwrap()
    }

    /// Brute-force reference implementation of the occupancy
    /// distribution from the geometric series in Eq. 10.
    fn reference_probs(rho: f64, n: u32) -> Vec<f64> {
        let weights: Vec<f64> = (0..=n).map(|k| rho.powi(k as i32)).collect();
        let total: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / total).collect()
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(Mm1n::new(-0.1, 4).is_err());
        assert!(Mm1n::new(f64::NAN, 4).is_err());
        assert!(Mm1n::new(f64::INFINITY, 4).is_err());
        assert!(Mm1n::new(0.5, 0).is_err());
        assert!(Mm1n::new(0.0, 1).is_ok());
    }

    #[test]
    fn occupancy_matches_reference_underload() {
        for &rho in &[0.1, 0.5, 0.9, 0.99] {
            for &n in &[1u32, 2, 8, 64] {
                let m = q(rho, n);
                let reference = reference_probs(rho, n);
                for (k, &want) in reference.iter().enumerate() {
                    let got = m.occupancy_probability(k as u32);
                    assert!(
                        (got - want).abs() < 1e-12,
                        "rho={rho} n={n} k={k}: got {got}, want {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn occupancy_matches_reference_overload() {
        for &rho in &[1.5, 2.0, 4.0] {
            for &n in &[1u32, 2, 8, 32] {
                let m = q(rho, n);
                let reference = reference_probs(rho, n);
                for (k, &want) in reference.iter().enumerate() {
                    let got = m.occupancy_probability(k as u32);
                    assert!(
                        (got - want).abs() < 1e-12,
                        "rho={rho} n={n} k={k}: got {got}, want {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn occupancy_is_stable_for_huge_queues_under_overload() {
        // Naive ρ^N would overflow: 3^1000.
        let m = q(3.0, 1000);
        let p = m.blocking_probability();
        assert!(p.is_finite());
        // At heavy overload almost every slot distribution mass sits at N.
        assert!(p > 0.66 && p <= 1.0, "p = {p}");
    }

    #[test]
    fn occupancy_sums_to_one() {
        for &rho in &[0.0, 0.3, 1.0, 2.5] {
            let m = q(rho, 16);
            let total: f64 = (0..=16).map(|k| m.occupancy_probability(k)).sum();
            assert!((total - 1.0).abs() < 1e-9, "rho={rho}: sum={total}");
        }
    }

    #[test]
    fn occupancy_beyond_capacity_is_zero() {
        assert_eq!(q(0.5, 4).occupancy_probability(5), 0.0);
    }

    #[test]
    fn empty_system_at_zero_load() {
        let m = q(0.0, 8);
        assert_eq!(m.occupancy_probability(0), 1.0);
        assert_eq!(m.blocking_probability(), 0.0);
        assert_eq!(m.mean_occupancy(), 0.0);
        assert_eq!(m.queueing_factor(), 0.0);
        assert_eq!(m.queueing_delay(Seconds::micros(5.0)), Seconds::ZERO);
    }

    #[test]
    fn hand_computed_case_rho_half_n_two() {
        // P = {4/7, 2/7, 1/7}, L = 4/7, factor = 1/3.
        let m = q(0.5, 2);
        assert!((m.occupancy_probability(0) - 4.0 / 7.0).abs() < 1e-12);
        assert!((m.occupancy_probability(1) - 2.0 / 7.0).abs() < 1e-12);
        assert!((m.blocking_probability() - 1.0 / 7.0).abs() < 1e-12);
        assert!((m.mean_occupancy() - 4.0 / 7.0).abs() < 1e-12);
        assert!((m.queueing_factor() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn hand_computed_overload_rho_two_n_two() {
        // Weights {1, 2, 4} → P = {1/7, 2/7, 4/7}; factor = −2 + 8/3 = 2/3.
        let m = q(2.0, 2);
        assert!((m.blocking_probability() - 4.0 / 7.0).abs() < 1e-12);
        assert!((m.queueing_factor() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn critical_load_limits() {
        // At ρ = 1 the distribution is uniform.
        let m = q(1.0, 4);
        for k in 0..=4 {
            assert!((m.occupancy_probability(k) - 0.2).abs() < 1e-12);
        }
        assert!((m.mean_occupancy() - 2.0).abs() < 1e-12);
        assert!(
            (m.queueing_factor() - 1.5).abs() < 1e-12,
            "(N−1)/2 with N = 4"
        );
    }

    #[test]
    fn formulas_are_continuous_through_rho_one() {
        let n = 8;
        let below = q(1.0 - 1e-7, n);
        let at = q(1.0, n);
        let above = q(1.0 + 1e-7, n);
        assert!((below.queueing_factor() - at.queueing_factor()).abs() < 1e-4);
        assert!((above.queueing_factor() - at.queueing_factor()).abs() < 1e-4);
        assert!((below.mean_occupancy() - at.mean_occupancy()).abs() < 1e-4);
        assert!((above.blocking_probability() - at.blocking_probability()).abs() < 1e-4);
    }

    #[test]
    fn eq9_identity_l_over_lambda_e_minus_service() {
        // Verify Eq. 12 equals Eq. 9: Q = L/λe − 1/μ, with λ = ρμ and
        // λe = λ(1 − P_N). Take μ = 1 so times are dimensionless.
        for &rho in &[0.2, 0.7, 0.95, 1.3, 3.0] {
            for &n in &[1u32, 2, 5, 20] {
                let m = q(rho, n);
                let lambda_e = rho * (1.0 - m.blocking_probability());
                let eq9 = m.mean_occupancy() / lambda_e - 1.0;
                let eq12 = m.queueing_factor();
                assert!(
                    (eq9 - eq12).abs() < 1e-9,
                    "rho={rho} n={n}: eq9={eq9} eq12={eq12}"
                );
            }
        }
    }

    #[test]
    fn queueing_factor_monotone_in_load() {
        let n = 16;
        let mut last = -1.0;
        for i in 1..40 {
            let rho = i as f64 * 0.1;
            let f = q(rho, n).queueing_factor();
            assert!(f >= last, "factor decreased at rho={rho}");
            last = f;
        }
    }

    #[test]
    fn queueing_factor_bounded_by_capacity() {
        // Delay through an N-slot queue can never exceed N−1 services.
        for &rho in &[0.5, 1.0, 10.0, 1e6] {
            for &n in &[1u32, 4, 128] {
                let f = q(rho, n).queueing_factor();
                assert!(
                    f <= (n as f64 - 1.0) + 1e-9,
                    "rho={rho} n={n}: factor {f} exceeds N−1"
                );
            }
        }
    }

    #[test]
    fn blocking_increases_with_load_and_decreases_with_capacity() {
        assert!(q(0.9, 8).blocking_probability() > q(0.5, 8).blocking_probability());
        assert!(q(0.9, 4).blocking_probability() > q(0.9, 16).blocking_probability());
    }

    #[test]
    fn capacity_one_system_has_no_queueing() {
        // N = 1: a request in service is the only request; Q = 0.
        for &rho in &[0.2, 1.0, 5.0] {
            assert!(q(rho, 1).queueing_factor().abs() < 1e-12, "rho={rho}");
        }
    }

    #[test]
    fn delivered_fraction_complements_blocking() {
        let m = q(1.4, 6);
        assert!((m.delivered_fraction() + m.blocking_probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn queueing_delay_scales_service_time() {
        let m = q(0.5, 2);
        let d = m.queueing_delay(Seconds::micros(9.0));
        assert!((d.as_micros() - 3.0).abs() < 1e-9);
    }

    // --- M/M/c/N ---

    /// The M/M/c/N constructor as first written — a log-weight buffer
    /// plus a probability buffer, and `ln min(k+1, c)` taken per state
    /// — kept as the oracle the production constructor must reproduce
    /// bit for bit.
    fn oracle_mmcn(rho: f64, engines: u32, capacity: u32) -> MmcN {
        let capacity = capacity.max(engines);
        let a = rho * engines as f64;
        let n = capacity as usize;
        let mut log_w = Vec::with_capacity(n + 1);
        log_w.push(0.0f64);
        if a == 0.0 {
            let mut probs = vec![0.0; n + 1];
            probs[0] = 1.0;
            return MmcN {
                rho,
                engines,
                capacity,
                probs,
            };
        }
        let ln_a = a.ln();
        for k in 0..n {
            let srv = (k + 1).min(engines as usize) as f64;
            let prev = *log_w.last().expect("non-empty");
            log_w.push(prev + ln_a - srv.ln());
        }
        let max = log_w.iter().copied().fold(f64::MIN, f64::max);
        let mut probs: Vec<f64> = log_w.iter().map(|l| (l - max).exp()).collect();
        let total: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= total;
        }
        MmcN {
            rho,
            engines,
            capacity,
            probs,
        }
    }

    #[test]
    fn mmcn_matches_its_oracle_bit_for_bit() {
        // splitmix64: a seeded grid of utilizations in [0, 2], plus
        // the two loads the constructor treats specially.
        let mut state = 0x4c6f_674e_4943_u64;
        let mut uniform = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        let mut rhos = vec![0.0, 1.0];
        rhos.extend((0..10).map(|_| 2.0 * uniform()));
        for c in [1u32, 2, 8, 64, 256] {
            // Below c (clamped up to c), c, 2c, and two fixed sizes.
            for n in [(c / 2).max(1), c, 2 * c, 256, 4096] {
                for &rho in &rhos {
                    let got = MmcN::new(rho, c, n).unwrap();
                    let want = oracle_mmcn(rho, c, n);
                    let at = format!("rho={rho} c={c} n={n}");
                    assert_eq!(got.capacity(), want.capacity(), "{at}");
                    for k in 0..=want.capacity() + 1 {
                        assert_eq!(
                            got.occupancy_probability(k).to_bits(),
                            want.occupancy_probability(k).to_bits(),
                            "{at} k={k}"
                        );
                    }
                    let metrics = |q: &MmcN| {
                        [
                            q.blocking_probability(),
                            q.mean_occupancy(),
                            q.mean_queue_length(),
                            q.queueing_delay(Seconds::micros(7.0)).as_secs(),
                        ]
                        .map(f64::to_bits)
                    };
                    assert_eq!(
                        metrics(&got),
                        metrics(&want),
                        "{at}: blocking, occupancy, queue length, delay"
                    );
                }
            }
        }
    }

    #[test]
    fn mmcn_rejects_invalid_inputs() {
        assert!(MmcN::new(-1.0, 1, 1).is_err());
        assert!(MmcN::new(f64::NAN, 1, 1).is_err());
        assert!(MmcN::new(0.5, 0, 1).is_err());
        assert!(MmcN::new(0.5, 1, 0).is_err());
    }

    #[test]
    fn mmcn_reduces_to_mm1n_at_one_engine() {
        for &rho in &[0.2, 0.5, 0.9, 1.5] {
            for &n in &[2u32, 8, 64] {
                let single = q(rho, n);
                let multi = MmcN::new(rho, 1, n).unwrap();
                for k in 0..=n {
                    assert!(
                        (single.occupancy_probability(k) - multi.occupancy_probability(k)).abs()
                            < 1e-9,
                        "rho={rho} n={n} k={k}"
                    );
                }
                let s = Seconds::micros(7.0);
                assert!(
                    (single.queueing_delay(s).as_secs() - multi.queueing_delay(s).as_secs()).abs()
                        < 1e-12,
                    "rho={rho} n={n}"
                );
            }
        }
    }

    #[test]
    fn mmcn_occupancy_sums_to_one() {
        for &(rho, c, n) in &[(0.5, 4, 16), (0.9, 64, 256), (2.0, 8, 32)] {
            let m = MmcN::new(rho, c, n).unwrap();
            let total: f64 = (0..=n).map(|k| m.occupancy_probability(k)).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn mmcn_multi_engine_queues_less_than_single() {
        let s = Seconds::micros(100.0);
        let single = MmcN::new(0.3, 1, 256).unwrap();
        let multi = MmcN::new(0.3, 64, 256).unwrap();
        assert!(multi.queueing_delay(s).as_secs() < single.queueing_delay(s).as_secs() / 100.0);
    }

    #[test]
    fn mmcn_high_parallelism_at_moderate_load_has_negligible_queueing() {
        // The SSD case: 64 channels at 30% load.
        let m = MmcN::new(0.3, 64, 256).unwrap();
        let delay = m.queueing_delay(Seconds::micros(100.0));
        assert!(delay.as_micros() < 0.2, "delay = {delay}");
        assert!(m.blocking_probability() < 1e-12);
    }

    #[test]
    fn mmcn_zero_load_is_empty() {
        let m = MmcN::new(0.0, 4, 16).unwrap();
        assert_eq!(m.occupancy_probability(0), 1.0);
        assert_eq!(m.queueing_delay(Seconds::micros(5.0)), Seconds::ZERO);
        assert_eq!(m.mean_queue_length(), 0.0);
    }

    #[test]
    fn mmcn_overload_blocks_heavily() {
        let m = MmcN::new(3.0, 4, 16).unwrap();
        assert!(m.blocking_probability() > 0.5);
        // Delivered ≈ capacity: λe = λ(1−pN) ≈ cμ.
        let delivered = 3.0 * 4.0 * (1.0 - m.blocking_probability());
        assert!(
            (delivered - 4.0).abs() < 0.1,
            "delivered = {delivered} engines' worth"
        );
    }

    #[test]
    fn mmcn_capacity_clamped_to_engines() {
        let m = MmcN::new(0.5, 8, 2).unwrap();
        assert_eq!(m.capacity(), 8);
        assert_eq!(m.engines(), 8);
    }

    #[test]
    fn mmcn_numerically_stable_for_large_systems() {
        let m = MmcN::new(0.95, 256, 1024).unwrap();
        let total: f64 = (0..=1024).map(|k| m.occupancy_probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(m.mean_occupancy().is_finite());
        assert!(m
            .queueing_delay(Seconds::micros(10.0))
            .as_secs()
            .is_finite());
    }

    #[test]
    fn mmcn_monotone_in_load() {
        let s = Seconds::micros(10.0);
        let mut last = -1.0;
        for i in 1..30 {
            let rho = i as f64 * 0.1;
            let d = MmcN::new(rho, 4, 64).unwrap().queueing_delay(s).as_secs();
            assert!(d >= last - 1e-15, "delay decreased at rho={rho}");
            last = d;
        }
    }
}
