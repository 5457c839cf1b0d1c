//! The estimation-mode facade (§3.8, Fig. 4a).
//!
//! An [`Estimator`] bundles the three model inputs — execution graph,
//! hardware model and traffic profile — and produces a complete
//! [`Estimate`] (throughput, latency, drop-aware delivered rate) in
//! one call.

use crate::analyze::{AnalysisConfig, AnalysisReport, Analyzer};
use crate::error::{LogNicError, LogNicResult};
use crate::extensions::delivered_throughput;
use crate::fault::FaultPlan;
use crate::graph::ExecutionGraph;
use crate::latency::{estimate_latency, LatencyEstimate};
use crate::params::{HardwareModel, IpParams, TrafficProfile};
use crate::throughput::{estimate_throughput, ThroughputEstimate};
use crate::units::{Bandwidth, Seconds};

/// The combined output of one model evaluation.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Attainable throughput and capacity bounds (Eq. 4).
    pub throughput: ThroughputEstimate,
    /// Mean latency with per-path and per-node breakdowns (Eq. 8).
    pub latency: LatencyEstimate,
    /// Delivered rate after finite-queue drops.
    pub delivered: Bandwidth,
    /// Fault-availability bookkeeping, present when the evaluation
    /// included a fault plan ([`EstimateRequest::with_faults`]).
    pub degraded: Option<Degradation>,
}

/// Availability bookkeeping attached to an [`Estimate`] evaluated
/// under a fault plan ([`EstimateRequest::with_faults`]).
#[derive(Debug, Clone)]
pub struct Degradation {
    /// `1 − residual_loss`: the fraction of offered packets eventually
    /// delivered with respect to fault losses.
    pub availability: f64,
    /// Expected attempts per offered packet (≥ 1); the `λ` inflation
    /// factor.
    pub retry_inflation: f64,
    /// The per-attempt probability a packet is refused somewhere on
    /// the path.
    pub fault_drop_probability: f64,
    /// The probability a packet is lost even after exhausting its
    /// retry budget.
    pub residual_loss: f64,
    /// The probability a delivered packet was corrupted in transit.
    pub corruption_probability: f64,
    /// Fault-adjusted useful delivered rate.
    pub goodput: Bandwidth,
}

/// Evaluates a SmartNIC program on a hardware model under a traffic
/// profile.
///
/// # Examples
///
/// ```
/// use lognic_model::estimate::Estimator;
/// use lognic_model::graph::ExecutionGraph;
/// use lognic_model::params::{HardwareModel, IpParams, TrafficProfile};
/// use lognic_model::units::{Bandwidth, Bytes};
///
/// # fn main() -> lognic_model::error::LogNicResult<()> {
/// let g = ExecutionGraph::chain("echo", &[("core", IpParams::new(Bandwidth::gbps(10.0)))])?;
/// let hw = HardwareModel::default();
/// let traffic = TrafficProfile::fixed(Bandwidth::gbps(25.0), Bytes::new(1500));
/// let est = Estimator::new(&g, &hw, &traffic).request().evaluate()?;
/// assert_eq!(est.throughput.attainable(), Bandwidth::gbps(10.0));
/// assert!(est.latency.mean().as_micros() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Estimator<'a> {
    graph: &'a ExecutionGraph,
    hw: &'a HardwareModel,
    traffic: &'a TrafficProfile,
}

impl<'a> Estimator<'a> {
    /// Creates an estimator over the three model inputs.
    pub fn new(
        graph: &'a ExecutionGraph,
        hw: &'a HardwareModel,
        traffic: &'a TrafficProfile,
    ) -> Self {
        Estimator { graph, hw, traffic }
    }

    /// The execution graph under evaluation.
    pub fn graph(&self) -> &ExecutionGraph {
        self.graph
    }

    /// Runs only the throughput model (Eq. 4).
    ///
    /// # Errors
    ///
    /// Propagates model-evaluation errors.
    pub fn throughput(&self) -> LogNicResult<ThroughputEstimate> {
        estimate_throughput(self.graph, self.hw, self.traffic)
    }

    /// Runs only the latency model (Eq. 8).
    ///
    /// # Errors
    ///
    /// Propagates model-evaluation errors.
    pub fn latency(&self) -> LogNicResult<LatencyEstimate> {
        estimate_latency(self.graph, self.hw, self.traffic)
    }

    /// Starts a unified evaluation request: the builder form behind
    /// which plain and fault-degraded evaluation converge (compose
    /// with [`EstimateRequest::with_faults`], then call
    /// [`EstimateRequest::evaluate`]).
    pub fn request(&self) -> EstimateRequest<'a> {
        EstimateRequest {
            estimator: *self,
            faults: None,
        }
    }

    /// Runs the static analyzer over the estimator's three inputs.
    ///
    /// Every finding is returned regardless of severity, and nothing
    /// is rejected; gate an evaluation on the report with
    /// [`AnalysisReport::check`].
    pub fn analyze(&self, config: &AnalysisConfig) -> AnalysisReport {
        Analyzer::new(self.graph)
            .with_hardware(self.hw)
            .with_traffic(self.traffic)
            .run(config)
    }
}

/// A unified evaluation request: one builder behind which the plain
/// and fault-degraded evaluations converge, returning one [`Estimate`]
/// shape for both.
///
/// Built by [`Estimator::request`]; configured with
/// [`EstimateRequest::with_faults`] (availability-adjusted evaluation,
/// folding the bookkeeping into [`Estimate::degraded`]).
///
/// # Examples
///
/// ```
/// use lognic_model::prelude::*;
///
/// # fn main() -> LogNicResult<()> {
/// let g = ExecutionGraph::chain("echo", &[("core", IpParams::new(Bandwidth::gbps(10.0)))])?;
/// let hw = HardwareModel::default();
/// let traffic = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1500));
/// let horizon = Seconds::millis(10.0);
/// let plan = FaultPlan::new().degrade_rate("core", 0.5, Seconds::ZERO, horizon);
///
/// let plain = Estimator::new(&g, &hw, &traffic).request().evaluate()?;
/// assert!(plain.degraded.is_none());
///
/// let estimator = Estimator::new(&g, &hw, &traffic);
/// estimator.analyze(&AnalysisConfig::default()).check()?;
/// let under_faults = estimator.request().with_faults(&plan, horizon).evaluate()?;
/// let deg = under_faults.degraded.expect("fault bookkeeping attached");
/// assert_eq!(deg.availability, 1.0, "degradation without drops loses nothing");
/// assert!(under_faults.throughput.attainable() <= plain.throughput.attainable());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EstimateRequest<'a> {
    estimator: Estimator<'a>,
    faults: Option<(&'a FaultPlan, Seconds)>,
}

impl<'a> EstimateRequest<'a> {
    /// Evaluates under `plan` over `[0, horizon]`: the graph is
    /// degraded by time-averaged fault effects, the offered rate is
    /// retry-inflated, and the availability bookkeeping lands in
    /// [`Estimate::degraded`].
    ///
    /// Faults enter the M/M/1/N formulation (Eq. 9–12) in two places:
    ///
    /// * **service side** — each node's computing throughput `P_vi` is
    ///   scaled by its time-averaged rate factor (1 outside fault
    ///   windows, the degradation factor inside them, 0 during an
    ///   outage), and its queue capacity `N_vi` shrinks by the mean
    ///   lost credits;
    /// * **arrival side** — retries re-present refused packets, so the
    ///   offered rate `λ` inflates by the expected attempts per packet,
    ///   `(1 − p^(R+1)) / (1 − p)` with `p` the per-attempt path drop
    ///   probability.
    pub fn with_faults(mut self, plan: &'a FaultPlan, horizon: Seconds) -> Self {
        self.faults = Some((plan, horizon));
        self
    }

    /// Runs the configured evaluation.
    ///
    /// # Errors
    ///
    /// Propagates fault-plan validation and model-evaluation errors.
    pub fn evaluate(self) -> LogNicResult<Estimate> {
        let Estimator { graph, hw, traffic } = self.estimator;
        match self.faults {
            None => Ok(Estimate {
                throughput: estimate_throughput(graph, hw, traffic)?,
                latency: estimate_latency(graph, hw, traffic)?,
                delivered: delivered_throughput(graph, hw, traffic)?,
                degraded: None,
            }),
            Some((plan, horizon)) => Self::evaluate_degraded(&self.estimator, plan, horizon),
        }
    }

    /// The availability-adjusted evaluation: the standard estimate on
    /// the fault-degraded graph under retry-inflated load, with the
    /// bookkeeping folded into [`Estimate::degraded`].
    fn evaluate_degraded(
        estimator: &Estimator<'a>,
        plan: &FaultPlan,
        horizon: Seconds,
    ) -> LogNicResult<Estimate> {
        plan.validate(estimator.graph)?;
        estimator.hw.validate()?;
        estimator.traffic.validate()?;

        let degraded = degraded_graph(estimator.graph, plan, horizon)?;

        // Arrival side: retries inflate the offered rate.
        let retry_inflation = plan.retry_inflation(estimator.graph, horizon);
        let offered = estimator.traffic.ingress_bandwidth();
        let inflated = offered.as_bps() * retry_inflation;
        if !inflated.is_finite() {
            return Err(LogNicError::InvalidParameter {
                parameter: "retry-inflated ingress rate",
                value: inflated,
                constraint: "must be a finite bit rate",
            });
        }
        let traffic = estimator.traffic.at_rate(offered.scaled(retry_inflation));

        let mut estimate = Estimator::new(&degraded, estimator.hw, &traffic)
            .request()
            .evaluate()?;

        let fault_drop_probability = plan.path_drop_probability(estimator.graph, horizon);
        let residual_loss = plan.residual_loss(estimator.graph, horizon);
        let corruption = plan.path_corruption_probability(estimator.graph, horizon);
        // One offered packet yields at most one good delivery; cap the
        // fault-adjusted goodput by what the degraded pipeline can
        // actually deliver.
        let goodput = estimator
            .traffic
            .ingress_bandwidth()
            .scaled(((1.0 - residual_loss) * (1.0 - corruption)).max(0.0))
            .min(estimate.delivered);

        estimate.degraded = Some(Degradation {
            availability: 1.0 - residual_loss,
            retry_inflation,
            fault_drop_probability,
            residual_loss,
            corruption_probability: corruption,
            goodput,
        });
        Ok(estimate)
    }
}

/// The service side of a fault-degraded evaluation
/// ([`EstimateRequest::with_faults`]): `graph` with each computing
/// node's effective rate and queue capacity degraded by the plan's
/// time-averaged fault effect over `[0, horizon]`. The evaluation runs
/// the standard estimate on this graph at the retry-inflated rate
/// ([`FaultPlan::retry_inflation`]).
///
/// # Errors
///
/// Propagates [`ExecutionGraph::set_ip_params`] errors (none for a
/// graph the plan validated against).
pub fn degraded_graph(
    graph: &ExecutionGraph,
    plan: &FaultPlan,
    horizon: Seconds,
) -> LogNicResult<ExecutionGraph> {
    let mut degraded = graph.clone();
    for (i, node) in graph.nodes().iter().enumerate() {
        let Some(p) = node.params() else { continue };
        let factor = plan.rate_factor(node.name(), horizon);
        let credit_loss = plan.mean_credit_loss(node.name(), horizon);
        if factor >= 1.0 && credit_loss <= 0.0 {
            continue;
        }
        // A fully-out node keeps an epsilon of capacity so the
        // queueing formulas stay finite; its latency still explodes,
        // which is the right signal.
        let scaled = IpParams::new(p.peak().scaled(factor.max(1e-6)))
            .with_parallelism(p.parallelism())
            .with_queue_capacity(((p.queue_capacity() as f64 - credit_loss).floor() as u32).max(1))
            .with_overhead(p.overhead())
            .with_partition(p.partition())
            .with_acceleration(p.acceleration())
            .with_work_factor(p.work_factor());
        degraded.set_ip_params(crate::graph::NodeId(i), scaled)?;
    }
    Ok(degraded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::IpParams;
    use crate::units::Bytes;

    #[test]
    fn estimator_combines_all_outputs() {
        let g = ExecutionGraph::chain(
            "t",
            &[(
                "ip",
                IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(32),
            )],
        )
        .unwrap();
        let hw = HardwareModel::default();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1500));
        let e = Estimator::new(&g, &hw, &traffic);
        let est = e.request().evaluate().unwrap();
        assert_eq!(est.throughput.attainable(), Bandwidth::gbps(5.0));
        assert!(est.latency.mean().as_micros() > 0.0);
        assert!(est.delivered <= est.throughput.attainable());
        assert_eq!(e.graph().name(), "t");
    }

    #[test]
    fn empty_fault_plan_leaves_the_request_unchanged() {
        let g = ExecutionGraph::chain(
            "t",
            &[(
                "ip",
                IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(32),
            )],
        )
        .unwrap();
        let hw = HardwareModel::default();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(1000));
        let e = Estimator::new(&g, &hw, &traffic);
        let plain = e.request().evaluate().unwrap();
        let empty = FaultPlan::new();
        let under = e
            .request()
            .with_faults(&empty, Seconds::millis(10.0))
            .evaluate()
            .unwrap();
        let deg = under.degraded.as_ref().expect("bookkeeping attached");
        assert_eq!(deg.retry_inflation, 1.0);
        assert_eq!(deg.availability, 1.0);
        assert_eq!(deg.residual_loss, 0.0);
        assert_eq!(under.throughput.attainable(), plain.throughput.attainable());
        assert_eq!(under.latency.mean(), plain.latency.mean());
        assert_eq!(
            deg.goodput,
            plain.delivered.min(traffic.ingress_bandwidth())
        );
    }

    #[test]
    fn full_horizon_rate_degradation_halves_capacity() {
        let g = ExecutionGraph::chain(
            "t",
            &[(
                "ip",
                IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(64),
            )],
        )
        .unwrap();
        let hw = HardwareModel::default();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(20.0), Bytes::new(1000));
        let h = Seconds::millis(10.0);
        let plan = FaultPlan::new().degrade_rate("ip", 0.5, Seconds::ZERO, h);
        let est = Estimator::new(&g, &hw, &traffic)
            .request()
            .with_faults(&plan, h)
            .evaluate()
            .unwrap();
        // 10 Gb/s node at 50% serves 5 Gb/s.
        assert!(
            (est.throughput.attainable().as_gbps() - 5.0).abs() < 1e-9,
            "{}",
            est.throughput.attainable()
        );
    }

    #[test]
    fn retry_inflation_raises_offered_load() {
        let g = ExecutionGraph::chain(
            "t",
            &[(
                "ip",
                IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(64),
            )],
        )
        .unwrap();
        let hw = HardwareModel::default();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(1000));
        let h = Seconds::millis(10.0);
        let plan = FaultPlan::new()
            .drop_packets("ip", 0.2, Seconds::ZERO, h)
            .with_retry(crate::fault::RetryPolicy::new(3, Seconds::micros(1.0)));
        let e = Estimator::new(&g, &hw, &traffic);
        let est = e.request().with_faults(&plan, h).evaluate().unwrap();
        let deg = est.degraded.as_ref().expect("bookkeeping attached");
        // Pinned absolutes: drop probability 0.2, retry budget 3 gives
        // inflation (1 − 0.2⁴)/0.8 and residual loss 0.2⁴.
        let expect_infl = (1.0 - 0.2f64.powi(4)) / 0.8;
        assert!((deg.retry_inflation - expect_infl).abs() < 1e-12);
        assert!((deg.fault_drop_probability - 0.2).abs() < 1e-12);
        assert!((deg.residual_loss - 0.2f64.powi(4)).abs() < 1e-12);
        assert!((deg.availability - (1.0 - 0.2f64.powi(4))).abs() < 1e-12);
        // Offered 4 Gb/s inflated by attempts, still under the 10 Gb/s
        // capacity: attainable equals the inflated load.
        assert!((est.throughput.attainable().as_gbps() - 4.0 * expect_infl).abs() < 1e-9);
        // Goodput is the offered rate times availability.
        assert!((deg.goodput.as_gbps() - 4.0 * deg.availability).abs() < 1e-9);
        // Degraded latency under a heavier effective load is no better
        // than the fault-free latency.
        let plain = e.request().evaluate().unwrap();
        assert!(est.latency.mean() >= plain.latency.mean());
    }

    #[test]
    fn faulted_request_rejects_invalid_inputs_with_typed_errors() {
        use crate::error::LogNicError;
        let g = ExecutionGraph::chain("t", &[("ip", IpParams::new(Bandwidth::gbps(1.0)))]).unwrap();
        let hw = HardwareModel::default();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(64));
        let e = Estimator::new(&g, &hw, &traffic);
        let h = Seconds::millis(1.0);
        let plan = FaultPlan::new().outage("ghost", Seconds::ZERO, h);
        assert!(matches!(
            e.request().with_faults(&plan, h).evaluate(),
            Err(LogNicError::UnknownNode { .. })
        ));
        let plan = FaultPlan::new().drop_packets("ip", 2.0, Seconds::ZERO, h);
        assert!(matches!(
            e.request().with_faults(&plan, h).evaluate(),
            Err(LogNicError::InvalidFaultParameter { .. })
        ));
        let starved = TrafficProfile::fixed(Bandwidth::ZERO, Bytes::new(64));
        let e = Estimator::new(&g, &hw, &starved);
        let empty = FaultPlan::new();
        assert!(matches!(
            e.request().with_faults(&empty, h).evaluate(),
            Err(LogNicError::InvalidProfile { .. })
        ));
    }

    #[test]
    fn analysis_check_gates_on_denied_diagnostics() {
        use crate::error::LogNicError;
        let g =
            ExecutionGraph::chain("t", &[("ip", IpParams::new(Bandwidth::gbps(10.0)))]).unwrap();
        let hw = HardwareModel::default();
        // Saturating load: ρ = 2.5 on the compute bound — Warn by
        // default, so the check still passes...
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(25.0), Bytes::new(1500));
        let e = Estimator::new(&g, &hw, &traffic);
        let cfg = AnalysisConfig::default();
        assert!(!e.analyze(&cfg).is_clean());
        assert!(e.analyze(&cfg).check().is_ok());
        // ...and rejects once warnings are denied, carrying the
        // saturation finding in the error.
        let strict = AnalysisConfig::default().deny_warnings(true);
        let err = e.analyze(&strict).check().unwrap_err();
        let LogNicError::AnalysisRejected { diagnostics } = err else {
            panic!("expected AnalysisRejected, got {err}");
        };
        assert!(diagnostics
            .iter()
            .any(|d| d.code == crate::analyze::Code::SaturatedPartition && d.is_denied()));
        // A clean scenario passes under the strict policy too.
        let calm = traffic.at_rate(Bandwidth::gbps(4.0));
        let e = Estimator::new(&g, &hw, &calm);
        assert!(e.analyze(&strict).check().is_ok());
    }

    #[test]
    fn plain_request_is_the_three_model_parts() {
        let g = ExecutionGraph::chain(
            "t",
            &[(
                "ip",
                IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(64),
            )],
        )
        .unwrap();
        let hw = HardwareModel::default();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(1000));
        let e = Estimator::new(&g, &hw, &traffic);

        // A plain request is exactly the three model parts.
        let req = e.request().evaluate().unwrap();
        assert!(req.degraded.is_none());
        assert_eq!(
            req.throughput.attainable(),
            e.throughput().unwrap().attainable()
        );
        assert_eq!(req.latency.mean(), e.latency().unwrap().mean());
        assert_eq!(
            req.delivered,
            delivered_throughput(&g, &hw, &traffic).unwrap()
        );
        // The request itself never gates: a saturated scenario that a
        // strict analysis rejects still evaluates.
        let hot = TrafficProfile::fixed(Bandwidth::gbps(25.0), Bytes::new(1500));
        assert!(Estimator::new(&g, &hw, &hot).request().evaluate().is_ok());
    }

    #[test]
    fn estimator_is_copy_and_reusable() {
        let g = ExecutionGraph::chain("t", &[("ip", IpParams::new(Bandwidth::gbps(1.0)))]).unwrap();
        let hw = HardwareModel::default();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(64));
        let e = Estimator::new(&g, &hw, &traffic);
        let e2 = e;
        assert_eq!(
            e.throughput().unwrap().attainable(),
            e2.throughput().unwrap().attainable()
        );
    }
}
