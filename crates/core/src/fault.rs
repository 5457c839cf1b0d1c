//! Fault plans: declarative fault injection and recovery semantics.
//!
//! LogNIC's value is predicting SmartNIC behaviour under stress, not
//! just steady state. A [`FaultPlan`] describes *when* and *how* the
//! hardware degrades — full outages, rate degradation (an IP running
//! at a fraction of its op rate for a window), probabilistic packet
//! drop or corruption, and credit loss on bounded queues — plus the
//! recovery semantics layered on top: per-packet retry with
//! exponential backoff and a retry budget, and per-packet deadlines.
//!
//! The same plan drives two consumers:
//!
//! * the discrete-event simulator (`lognic-sim`) compiles it into
//!   per-node schedules and executes faults packet by packet;
//! * the analytical model folds it into *availability-adjusted*
//!   estimates ([`crate::estimate::EstimateRequest::with_faults`]):
//!   effective service rates are degraded by each fault's duty cycle
//!   and retry traffic inflates the M/M/1/N arrival rate (Eq. 9–12
//!   under degraded service).

use crate::error::{LogNicError, LogNicResult};
use crate::graph::ExecutionGraph;
use crate::units::Seconds;

/// What a fault does to the node it targets while its window is
/// active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Engines crashed / firmware reset: every arriving packet is
    /// refused. Packets already in service complete normally.
    Outage,
    /// The node serves at `factor ×` its nominal op rate (thermal
    /// throttling, partial engine loss). `factor` ∈ (0, 1].
    RateDegradation {
        /// Fraction of the nominal service rate that remains.
        factor: f64,
    },
    /// Each arriving packet is independently dropped with this
    /// probability (lossy link, parity kill).
    PacketDrop {
        /// Per-packet drop probability ∈ [0, 1].
        probability: f64,
    },
    /// Each arriving packet is independently corrupted with this
    /// probability. Corrupted packets still traverse the pipeline and
    /// consume resources, but count against goodput at the egress.
    PacketCorruption {
        /// Per-packet corruption probability ∈ [0, 1].
        probability: f64,
    },
    /// The node's bounded queue temporarily loses this many credits
    /// (buffer slots), shrinking its admission capacity.
    CreditLoss {
        /// Credits (queue slots) removed while the window is active.
        credits: u32,
    },
}

impl FaultKind {
    fn same_kind(self, other: FaultKind) -> bool {
        std::mem::discriminant(&self) == std::mem::discriminant(&other)
    }

    /// True when this fault can cause packet loss at the node.
    pub fn is_lossy(self) -> bool {
        match self {
            FaultKind::Outage | FaultKind::PacketDrop { .. } | FaultKind::CreditLoss { .. } => true,
            FaultKind::RateDegradation { .. } | FaultKind::PacketCorruption { .. } => false,
        }
    }

    /// A short stable label.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Outage => "outage",
            FaultKind::RateDegradation { .. } => "rate_degradation",
            FaultKind::PacketDrop { .. } => "packet_drop",
            FaultKind::PacketCorruption { .. } => "packet_corruption",
            FaultKind::CreditLoss { .. } => "credit_loss",
        }
    }

    /// The window's scalar parameter (1.0 for outages).
    pub fn parameter(self) -> f64 {
        match self {
            FaultKind::Outage => 1.0,
            FaultKind::RateDegradation { factor } => factor,
            FaultKind::PacketDrop { probability } => probability,
            FaultKind::PacketCorruption { probability } => probability,
            FaultKind::CreditLoss { credits } => credits as f64,
        }
    }

    /// The fraction of the nominal service rate the node keeps while
    /// the window is open: `factor` under rate degradation, 1 for
    /// every other kind (an outage refuses arrivals rather than
    /// slowing service).
    pub fn rate_factor(self) -> f64 {
        match self {
            FaultKind::RateDegradation { factor } => factor,
            FaultKind::Outage
            | FaultKind::PacketDrop { .. }
            | FaultKind::PacketCorruption { .. }
            | FaultKind::CreditLoss { .. } => 1.0,
        }
    }

    /// The probability an arrival is dropped while the window is
    /// open: `probability` for a packet-drop window, 0 for every other
    /// kind (an outage's refusal is its own effect).
    pub fn drop_probability(self) -> f64 {
        match self {
            FaultKind::PacketDrop { probability } => probability,
            FaultKind::Outage
            | FaultKind::RateDegradation { .. }
            | FaultKind::PacketCorruption { .. }
            | FaultKind::CreditLoss { .. } => 0.0,
        }
    }

    /// The probability an arrival is corrupted while the window is
    /// open: `probability` for a corruption window, 0 otherwise.
    pub fn corruption_probability(self) -> f64 {
        match self {
            FaultKind::PacketCorruption { probability } => probability,
            FaultKind::Outage
            | FaultKind::RateDegradation { .. }
            | FaultKind::PacketDrop { .. }
            | FaultKind::CreditLoss { .. } => 0.0,
        }
    }

    /// The credits removed from the node's bounded queue while the
    /// window is open: `credits` for a credit-loss window, 0
    /// otherwise.
    pub fn credits_lost(self) -> u32 {
        match self {
            FaultKind::CreditLoss { credits } => credits,
            FaultKind::Outage
            | FaultKind::RateDegradation { .. }
            | FaultKind::PacketDrop { .. }
            | FaultKind::PacketCorruption { .. } => 0,
        }
    }

    fn validate(self) -> LogNicResult<()> {
        match self {
            FaultKind::Outage => Ok(()),
            FaultKind::RateDegradation { factor } => {
                if factor.is_finite() && factor > 0.0 && factor <= 1.0 {
                    Ok(())
                } else {
                    Err(LogNicError::InvalidFaultParameter {
                        parameter: "rate degradation factor",
                        value: factor,
                        constraint: "must lie in (0, 1]",
                    })
                }
            }
            FaultKind::PacketDrop { probability } => {
                validate_probability(probability, "drop probability")
            }
            FaultKind::PacketCorruption { probability } => {
                validate_probability(probability, "corruption probability")
            }
            FaultKind::CreditLoss { credits } => {
                if credits == 0 {
                    Err(LogNicError::InvalidFaultParameter {
                        parameter: "credit loss",
                        value: 0.0,
                        constraint: "must remove at least one credit",
                    })
                } else {
                    Ok(())
                }
            }
        }
    }
}

fn validate_probability(p: f64, parameter: &'static str) -> LogNicResult<()> {
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(LogNicError::InvalidFaultParameter {
            parameter,
            value: p,
            constraint: "must lie in [0, 1]",
        })
    }
}

/// One scheduled fault: a [`FaultKind`] applied to a named node during
/// `[from, until)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindow {
    node: String,
    kind: FaultKind,
    from: Seconds,
    until: Seconds,
}

impl FaultWindow {
    /// The targeted node name.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// What the fault does.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// Window start (inclusive).
    pub fn from(&self) -> Seconds {
        self.from
    }

    /// Window end (exclusive).
    pub fn until(&self) -> Seconds {
        self.until
    }

    /// True when this window overlaps `other` in time.
    pub fn overlaps(&self, other: &FaultWindow) -> bool {
        self.from < other.until && other.from < self.until
    }

    /// The fraction of `[0, horizon]` this window covers.
    pub fn duty_cycle(&self, horizon: Seconds) -> f64 {
        if horizon.as_secs() <= 0.0 {
            return 0.0;
        }
        let lo = self.from.as_secs().max(0.0);
        let hi = self.until.as_secs().min(horizon.as_secs());
        ((hi - lo).max(0.0) / horizon.as_secs()).min(1.0)
    }
}

/// Per-packet retry with exponential backoff and a finite budget.
///
/// A packet refused by a faulted or overflowing node is retried up to
/// `budget` times; the `k`-th retry waits `base · multiplier^k`
/// (capped at `max_backoff`) before re-presenting the packet to the
/// node.
///
/// # Examples
///
/// ```
/// use lognic_model::fault::RetryPolicy;
/// use lognic_model::units::Seconds;
///
/// let rp = RetryPolicy::new(3, Seconds::micros(2.0));
/// assert_eq!(rp.budget(), 3);
/// assert_eq!(rp.backoff_for(1), Seconds::micros(4.0));
/// // With per-attempt loss 0.5 the expected attempts are
/// // (1 - 0.5^4) / (1 - 0.5) = 1.875.
/// assert!((rp.expected_attempts(0.5) - 1.875).abs() < 1e-12);
/// assert!((rp.residual_loss(0.5) - 0.0625).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    budget: u32,
    base_backoff: Seconds,
    multiplier: f64,
    max_backoff: Seconds,
}

impl RetryPolicy {
    /// A policy of `budget` retries starting at `base_backoff`, with
    /// doubling backoff capped at `1024 × base_backoff`.
    pub fn new(budget: u32, base_backoff: Seconds) -> Self {
        RetryPolicy {
            budget,
            base_backoff,
            multiplier: 2.0,
            max_backoff: base_backoff.scaled(1024.0),
        }
    }

    /// Overrides the backoff growth factor (≥ 1).
    pub fn with_multiplier(mut self, multiplier: f64) -> Self {
        self.multiplier = multiplier.max(1.0);
        self
    }

    /// Overrides the backoff ceiling.
    pub fn with_max_backoff(mut self, max_backoff: Seconds) -> Self {
        self.max_backoff = max_backoff;
        self
    }

    /// Maximum retries per packet (0 = never retry).
    pub fn budget(&self) -> u32 {
        self.budget
    }

    /// The first retry's backoff.
    pub fn base_backoff(&self) -> Seconds {
        self.base_backoff
    }

    /// The backoff growth factor.
    pub fn multiplier(&self) -> f64 {
        self.multiplier
    }

    /// The backoff ceiling.
    pub fn max_backoff(&self) -> Seconds {
        self.max_backoff
    }

    /// The absolute ceiling [`RetryPolicy::backoff_for`] saturates
    /// at regardless of the configured [`RetryPolicy::max_backoff`]:
    /// 10⁶ seconds. The simulator clocks time in `u64` picoseconds
    /// (max ≈ 1.8 × 10⁷ s), so an unconstrained `base · mⁿ` at high
    /// attempt counts would overflow the clock — or reach `∞`
    /// outright once `powi` leaves `f64` range — and panic the
    /// scheduler. 10⁶ s is far beyond any plausible horizon while
    /// leaving headroom for time addition.
    pub fn saturation_ceiling() -> Seconds {
        Seconds::new(1.0e6)
    }

    /// The backoff before retry number `attempt` (0-based): `base ·
    /// multiplier^attempt`, capped at the policy ceiling and
    /// saturating at [`RetryPolicy::saturation_ceiling`].
    ///
    /// Saturation is what makes high attempt counts safe: for
    /// `multiplier ≥ 2` the exponential passes the ceiling within a
    /// few dozen attempts, and without the clamp the product would
    /// overflow the simulator's integer picosecond clock (a panic,
    /// not an error) long before `u32::MAX` attempts.
    pub fn backoff_for(&self, attempt: u32) -> Seconds {
        let ceiling = self.max_backoff.min(RetryPolicy::saturation_ceiling());
        // powi overflows f64 to ∞ near attempt ≈ 1024/log₂(m); clamp
        // the exponent first so the product is NaN-free, then the
        // result. A non-finite product (0 · ∞) also saturates.
        let factor = self.multiplier.powi(attempt.min(1024) as i32);
        let raw = self.base_backoff.scaled(factor.min(f64::MAX));
        if raw.as_secs().is_finite() {
            raw.min(ceiling)
        } else {
            ceiling
        }
    }

    /// Expected number of attempts per packet when each attempt
    /// independently fails with probability `p_fail`:
    /// `(1 − p^(budget+1)) / (1 − p)`. This is the arrival-rate
    /// inflation factor fed into the M/M/1/N model.
    pub fn expected_attempts(&self, p_fail: f64) -> f64 {
        let p = p_fail.clamp(0.0, 1.0);
        if p <= 0.0 {
            return 1.0;
        }
        if (1.0 - p).abs() < 1e-12 {
            return f64::from(self.budget) + 1.0;
        }
        (1.0 - self.every_attempt_fails(p)) / (1.0 - p)
    }

    /// The probability a packet is lost even after exhausting its
    /// retry budget: `p^(budget+1)`.
    pub fn residual_loss(&self, p_fail: f64) -> f64 {
        self.every_attempt_fails(p_fail.clamp(0.0, 1.0))
    }

    /// `p^(budget+1)`: `powi` while the exponent fits an `i32`, `powf`
    /// past it (a budget of `i32::MAX` or more would wrap the exponent).
    fn every_attempt_fails(&self, p: f64) -> f64 {
        match i32::try_from(self.budget) {
            Ok(budget) if budget < i32::MAX => p.powi(budget + 1),
            _ => p.powf(f64::from(self.budget) + 1.0),
        }
    }
}

/// A composable, schedulable fault-injection plan.
///
/// Windows accumulate via the builder-style methods; recovery
/// semantics (retry, deadline) apply plan-wide. The plan is inert
/// until compiled for a simulation (`CompiledFaultPlan::compile`, then
/// `SimulationBuilder::with_compiled_faults`) or handed to the
/// degraded-mode estimator.
///
/// # Examples
///
/// ```
/// use lognic_model::fault::{FaultPlan, RetryPolicy};
/// use lognic_model::units::Seconds;
///
/// let plan = FaultPlan::new()
///     .outage("crypto", Seconds::millis(2.0), Seconds::millis(4.0))
///     .degrade_rate("cores", 0.5, Seconds::millis(1.0), Seconds::millis(8.0))
///     .drop_packets("dma", 0.05, Seconds::ZERO, Seconds::millis(10.0))
///     .with_retry(RetryPolicy::new(3, Seconds::micros(5.0)))
///     .with_deadline(Seconds::millis(1.0));
/// assert_eq!(plan.windows().len(), 3);
/// assert!(plan.retry().is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
    retry: Option<RetryPolicy>,
    deadline: Option<Seconds>,
}

impl FaultPlan {
    /// An empty plan (no faults, no recovery semantics).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules an arbitrary fault window.
    pub fn with_fault(
        mut self,
        node: &str,
        kind: FaultKind,
        from: Seconds,
        until: Seconds,
    ) -> Self {
        self.windows.push(FaultWindow {
            node: node.to_owned(),
            kind,
            from,
            until,
        });
        self
    }

    /// Schedules a full outage of `node` during `[from, until)`.
    pub fn outage(self, node: &str, from: Seconds, until: Seconds) -> Self {
        self.with_fault(node, FaultKind::Outage, from, until)
    }

    /// Schedules rate degradation: `node` serves at `factor ×` its
    /// nominal rate during `[from, until)`.
    pub fn degrade_rate(self, node: &str, factor: f64, from: Seconds, until: Seconds) -> Self {
        self.with_fault(node, FaultKind::RateDegradation { factor }, from, until)
    }

    /// Schedules probabilistic packet drop at `node`.
    pub fn drop_packets(self, node: &str, probability: f64, from: Seconds, until: Seconds) -> Self {
        self.with_fault(node, FaultKind::PacketDrop { probability }, from, until)
    }

    /// Schedules probabilistic packet corruption at `node`.
    pub fn corrupt_packets(
        self,
        node: &str,
        probability: f64,
        from: Seconds,
        until: Seconds,
    ) -> Self {
        self.with_fault(
            node,
            FaultKind::PacketCorruption { probability },
            from,
            until,
        )
    }

    /// Schedules credit loss: `node`'s bounded queue loses `credits`
    /// slots during `[from, until)`.
    pub fn lose_credits(self, node: &str, credits: u32, from: Seconds, until: Seconds) -> Self {
        self.with_fault(node, FaultKind::CreditLoss { credits }, from, until)
    }

    /// Installs plan-wide per-packet retry semantics.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Installs a plan-wide per-packet deadline: packets whose sojourn
    /// exceeds it are timed out instead of served.
    pub fn with_deadline(mut self, deadline: Seconds) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The scheduled fault windows, in insertion order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// The plan-wide retry policy, if any.
    pub fn retry(&self) -> Option<&RetryPolicy> {
        self.retry.as_ref()
    }

    /// The plan-wide packet deadline, if any.
    pub fn deadline(&self) -> Option<Seconds> {
        self.deadline
    }

    /// Validates the plan against an execution graph: every window
    /// must target an existing node, carry in-range parameters, and
    /// span a non-empty time range.
    ///
    /// # Errors
    ///
    /// Returns the first violation as a typed [`LogNicError`].
    pub fn validate(&self, graph: &ExecutionGraph) -> LogNicResult<()> {
        for w in &self.windows {
            if graph.node_by_name(&w.node).is_none() {
                return Err(LogNicError::UnknownNode {
                    context: "fault window",
                    node: w.node.clone(),
                });
            }
            w.kind.validate()?;
            let (from, until) = (w.from.as_secs(), w.until.as_secs());
            if !(from.is_finite() && until.is_finite()) || until <= from {
                return Err(LogNicError::InvalidFaultWindow {
                    node: w.node.clone(),
                    from,
                    until,
                });
            }
        }
        if let Some(rp) = &self.retry {
            if !rp.base_backoff().as_secs().is_finite() {
                return Err(LogNicError::InvalidFaultParameter {
                    parameter: "retry base backoff",
                    value: rp.base_backoff().as_secs(),
                    constraint: "must be finite",
                });
            }
        }
        if let Some(d) = self.deadline {
            if !(d.as_secs().is_finite() && d.as_secs() > 0.0) {
                return Err(LogNicError::InvalidFaultParameter {
                    parameter: "packet deadline",
                    value: d.as_secs(),
                    constraint: "must be positive and finite",
                });
            }
        }
        Ok(())
    }

    /// Pairs of window indices on the same node, same fault kind,
    /// whose time ranges overlap — duty-cycle math double-counts the
    /// overlap, so these are almost always specification mistakes.
    pub fn overlapping_windows(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for i in 0..self.windows.len() {
            for j in (i + 1)..self.windows.len() {
                let (a, b) = (&self.windows[i], &self.windows[j]);
                if a.node == b.node && a.kind.same_kind(b.kind) && a.overlaps(b) {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }

    // ── availability math over the horizon [0, H] ──────────────────
    //
    // These feed the analytical model. All assume arrivals uniform
    // over the horizon (Poisson), so a window's effect is weighted by
    // its duty cycle.

    /// The time-averaged service-rate multiplier of `node` over the
    /// horizon: 1 outside fault windows, `factor` under rate
    /// degradation, 0 during an outage.
    pub fn rate_factor(&self, node: &str, horizon: Seconds) -> f64 {
        let mut factor = 1.0;
        for w in self.windows.iter().filter(|w| w.node == node) {
            let duty = w.duty_cycle(horizon);
            factor -= if w.kind == FaultKind::Outage {
                duty
            } else {
                duty * (1.0 - w.kind.rate_factor())
            };
        }
        factor.clamp(0.0, 1.0)
    }

    /// The probability a packet arriving at `node` (uniformly over the
    /// horizon) is refused by a fault: outage windows refuse
    /// everything, drop windows refuse with their probability.
    pub fn drop_probability(&self, node: &str, horizon: Seconds) -> f64 {
        let mut p = 0.0;
        for w in self.windows.iter().filter(|w| w.node == node) {
            let duty = w.duty_cycle(horizon);
            p += if w.kind == FaultKind::Outage {
                duty
            } else {
                duty * w.kind.drop_probability()
            };
        }
        p.min(1.0)
    }

    /// The probability a packet traversing `node` is corrupted.
    pub fn corruption_probability(&self, node: &str, horizon: Seconds) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.node == node)
            .map(|w| w.duty_cycle(horizon) * w.kind.corruption_probability())
            .sum::<f64>()
            .min(1.0)
    }

    /// The time-averaged credits lost by `node`'s bounded queue.
    pub fn mean_credit_loss(&self, node: &str, horizon: Seconds) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.node == node)
            .map(|w| w.duty_cycle(horizon) * w.kind.credits_lost() as f64)
            .sum()
    }

    /// The per-attempt probability that a packet is refused somewhere
    /// on the ingress→egress path: `1 − Π (1 − p_node)` over the
    /// graph's nodes.
    pub fn path_drop_probability(&self, graph: &ExecutionGraph, horizon: Seconds) -> f64 {
        let mut survive = 1.0;
        for node in graph.nodes() {
            survive *= 1.0 - self.drop_probability(node.name(), horizon);
        }
        (1.0 - survive).clamp(0.0, 1.0)
    }

    /// The per-packet probability of corruption somewhere on the path.
    pub fn path_corruption_probability(&self, graph: &ExecutionGraph, horizon: Seconds) -> f64 {
        let mut clean = 1.0;
        for node in graph.nodes() {
            clean *= 1.0 - self.corruption_probability(node.name(), horizon);
        }
        (1.0 - clean).clamp(0.0, 1.0)
    }

    /// The arrival-rate inflation from retries: expected attempts per
    /// offered packet given the path drop probability, under the
    /// plan's retry policy (1.0 without one).
    pub fn retry_inflation(&self, graph: &ExecutionGraph, horizon: Seconds) -> f64 {
        match &self.retry {
            Some(rp) => rp.expected_attempts(self.path_drop_probability(graph, horizon)),
            None => 1.0,
        }
    }

    /// The fraction of offered packets ultimately lost to faults after
    /// retries are exhausted (without a retry policy, the raw path
    /// drop probability).
    pub fn residual_loss(&self, graph: &ExecutionGraph, horizon: Seconds) -> f64 {
        let p = self.path_drop_probability(graph, horizon);
        match &self.retry {
            Some(rp) => rp.residual_loss(p),
            None => p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::IpParams;
    use crate::units::Bandwidth;

    fn graph() -> ExecutionGraph {
        ExecutionGraph::chain(
            "g",
            &[
                ("a", IpParams::new(Bandwidth::gbps(10.0))),
                ("b", IpParams::new(Bandwidth::gbps(10.0))),
            ],
        )
        .unwrap()
    }

    #[test]
    fn empty_plan_is_identity() {
        let p = FaultPlan::new();
        let h = Seconds::millis(10.0);
        assert_eq!(p.rate_factor("a", h), 1.0);
        assert_eq!(p.drop_probability("a", h), 0.0);
        assert_eq!(p.retry_inflation(&graph(), h), 1.0);
        assert_eq!(p.residual_loss(&graph(), h), 0.0);
        assert!(p.validate(&graph()).is_ok());
    }

    #[test]
    fn duty_cycle_clamps_to_horizon() {
        let p = FaultPlan::new().outage("a", Seconds::millis(5.0), Seconds::millis(50.0));
        let w = &p.windows()[0];
        assert!((w.duty_cycle(Seconds::millis(10.0)) - 0.5).abs() < 1e-12);
        assert_eq!(w.duty_cycle(Seconds::ZERO), 0.0);
    }

    #[test]
    fn rate_factor_composes_outage_and_degradation() {
        let h = Seconds::millis(10.0);
        let p = FaultPlan::new()
            .outage("a", Seconds::ZERO, Seconds::millis(2.0)) // duty 0.2
            .degrade_rate("a", 0.5, Seconds::millis(5.0), Seconds::millis(10.0)); // duty 0.5
                                                                                  // 1 − 0.2 − 0.5·0.5 = 0.55
        assert!((p.rate_factor("a", h) - 0.55).abs() < 1e-12);
        assert_eq!(p.rate_factor("b", h), 1.0);
    }

    #[test]
    fn drop_probability_mixes_outage_and_drops() {
        let h = Seconds::millis(10.0);
        let p = FaultPlan::new()
            .outage("a", Seconds::ZERO, Seconds::millis(1.0)) // 0.1
            .drop_packets("a", 0.5, Seconds::millis(5.0), Seconds::millis(10.0)); // 0.25
        assert!((p.drop_probability("a", h) - 0.35).abs() < 1e-12);
        // Path combines both nodes.
        let p = p.drop_packets("b", 0.2, Seconds::ZERO, Seconds::millis(10.0));
        let path = p.path_drop_probability(&graph(), h);
        assert!((path - (1.0 - 0.65 * 0.8)).abs() < 1e-12);
    }

    #[test]
    fn corruption_and_credit_math() {
        let h = Seconds::millis(10.0);
        let p = FaultPlan::new()
            .corrupt_packets("a", 0.4, Seconds::ZERO, Seconds::millis(5.0))
            .lose_credits("b", 8, Seconds::ZERO, Seconds::millis(5.0));
        assert!((p.corruption_probability("a", h) - 0.2).abs() < 1e-12);
        assert!((p.mean_credit_loss("b", h) - 4.0).abs() < 1e-12);
        assert!((p.path_corruption_probability(&graph(), h) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn backoff_saturates_at_high_attempt_counts_instead_of_overflowing() {
        // A hostile policy: maximal budget, aggressive growth, an
        // unbounded ceiling. Without the saturation guard the
        // attempt-64 product already exceeds what fits in the
        // simulator's u64 picosecond clock.
        let rp = RetryPolicy::new(u32::MAX, Seconds::micros(1.0))
            .with_multiplier(10.0)
            .with_max_backoff(Seconds::INFINITY);
        for attempt in [64, 100, 1024, 1_000_000, u32::MAX] {
            let b = rp.backoff_for(attempt);
            assert!(b.as_secs().is_finite(), "attempt {attempt}: {b}");
            assert!(
                b <= RetryPolicy::saturation_ceiling(),
                "attempt {attempt}: {b}"
            );
            assert!(
                b.as_secs() * 1e12 <= u64::MAX as f64,
                "attempt {attempt} must stay on the picosecond clock"
            );
        }
        // Once saturated, the schedule is flat at the ceiling.
        assert_eq!(rp.backoff_for(64), rp.backoff_for(u32::MAX));
        assert_eq!(rp.backoff_for(64), RetryPolicy::saturation_ceiling());
        // An in-range policy is untouched by the guard.
        let tame = RetryPolicy::new(5, Seconds::micros(1.0));
        assert_eq!(tame.backoff_for(3), Seconds::micros(8.0));
        // A finite policy ceiling below the absolute one still wins.
        let capped =
            RetryPolicy::new(90, Seconds::micros(1.0)).with_max_backoff(Seconds::micros(64.0));
        assert_eq!(capped.backoff_for(64), Seconds::micros(64.0));
    }

    #[test]
    fn retry_math_holds_for_budgets_past_the_i32_range() {
        let budgets = [100, (1 << 31) - 2, (1 << 31) - 1, 1 << 31, u32::MAX];
        for p in [0.5, 0.9] {
            let mut last = (1.0, 1.0);
            for budget in budgets {
                let rp = RetryPolicy::new(budget, Seconds::micros(1.0));
                let (attempts, loss) = (rp.expected_attempts(p), rp.residual_loss(p));
                assert!(attempts.is_finite() && attempts >= 1.0, "{budget} at {p}");
                assert!((0.0..=1.0).contains(&loss), "{budget} at {p}: {loss}");
                assert!(attempts >= last.0, "{budget} at {p}: attempts fell");
                assert!(loss <= last.1, "{budget} at {p}: loss rose");
                last = (attempts, loss);
            }
        }
        // Inside the i32 range the bits are `powi`'s.
        let rp = RetryPolicy::new(100, Seconds::micros(1.0));
        assert_eq!(rp.residual_loss(0.9).to_bits(), 0.9f64.powi(101).to_bits());
        assert_eq!(
            RetryPolicy::new(u32::MAX, Seconds::micros(1.0)).expected_attempts(1.0),
            4_294_967_296.0
        );
    }

    #[test]
    fn retry_policy_backoff_grows_and_caps() {
        let rp = RetryPolicy::new(5, Seconds::micros(1.0))
            .with_multiplier(2.0)
            .with_max_backoff(Seconds::micros(4.0));
        assert_eq!(rp.backoff_for(0), Seconds::micros(1.0));
        assert_eq!(rp.backoff_for(1), Seconds::micros(2.0));
        assert_eq!(rp.backoff_for(2), Seconds::micros(4.0));
        assert_eq!(rp.backoff_for(10), Seconds::micros(4.0), "capped");
    }

    #[test]
    fn retry_inflation_feeds_off_path_loss() {
        let h = Seconds::millis(10.0);
        let p = FaultPlan::new()
            .drop_packets("a", 0.2, Seconds::ZERO, Seconds::millis(10.0))
            .with_retry(RetryPolicy::new(3, Seconds::micros(1.0)));
        let infl = p.retry_inflation(&graph(), h);
        assert!((infl - (1.0 - 0.2f64.powi(4)) / 0.8).abs() < 1e-12);
        assert!((p.residual_loss(&graph(), h) - 0.2f64.powi(4)).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_unknown_node() {
        let p = FaultPlan::new().outage("ghost", Seconds::ZERO, Seconds::millis(1.0));
        assert!(matches!(
            p.validate(&graph()),
            Err(LogNicError::UnknownNode { node, .. }) if node == "ghost"
        ));
    }

    #[test]
    fn validate_rejects_bad_parameters_and_windows() {
        let g = graph();
        let p = FaultPlan::new().drop_packets("a", 1.5, Seconds::ZERO, Seconds::millis(1.0));
        assert!(matches!(
            p.validate(&g),
            Err(LogNicError::InvalidFaultParameter { .. })
        ));
        let p = FaultPlan::new().degrade_rate("a", 0.0, Seconds::ZERO, Seconds::millis(1.0));
        assert!(p.validate(&g).is_err());
        let p = FaultPlan::new().outage("a", Seconds::millis(2.0), Seconds::millis(1.0));
        assert!(matches!(
            p.validate(&g),
            Err(LogNicError::InvalidFaultWindow { .. })
        ));
        let p = FaultPlan::new().lose_credits("a", 0, Seconds::ZERO, Seconds::millis(1.0));
        assert!(p.validate(&g).is_err());
        let p = FaultPlan::new().with_deadline(Seconds::ZERO);
        assert!(p.validate(&g).is_err());
    }

    #[test]
    fn overlapping_windows_detected_per_kind() {
        let p = FaultPlan::new()
            .outage("a", Seconds::millis(1.0), Seconds::millis(3.0))
            .outage("a", Seconds::millis(2.0), Seconds::millis(4.0)) // overlaps #0
            .drop_packets("a", 0.1, Seconds::millis(1.0), Seconds::millis(3.0)) // different kind
            .outage("b", Seconds::millis(1.0), Seconds::millis(3.0)); // different node
        assert_eq!(p.overlapping_windows(), vec![(0, 1)]);
        // Back-to-back windows do not overlap.
        let p = FaultPlan::new()
            .outage("a", Seconds::ZERO, Seconds::millis(1.0))
            .outage("a", Seconds::millis(1.0), Seconds::millis(2.0));
        assert!(p.overlapping_windows().is_empty());
    }
}
