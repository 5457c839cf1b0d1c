//! Fault injection for the discrete-event simulator.
//!
//! The fault vocabulary — [`FaultPlan`], [`FaultKind`],
//! [`FaultWindow`], [`RetryPolicy`] — lives in
//! [`lognic_model::fault`] so the analytical model, the service
//! decoder and the trace sinks all speak it; this module re-exports
//! it and adds the runtime side: the per-node compiled schedule the
//! event loop consults on every arrival. A compiled window keeps its
//! declarative [`FaultKind`]; only its bounds change units, from
//! seconds to the picosecond clock.
//!
//! Compiled schedules are deliberately simple (a linear scan of a
//! node's windows): plans hold a handful of windows, and the scan is
//! branch-predictable. The important property is *determinism* — a
//! node with no fault windows never touches the RNG, so fault-free
//! runs reproduce the exact event sequence of builds that predate the
//! fault subsystem.

pub use lognic_model::fault::{FaultKind, FaultPlan, FaultWindow, RetryPolicy};

use std::sync::Arc;

use lognic_model::error::LogNicResult;
use lognic_model::graph::ExecutionGraph;
use lognic_model::units::Seconds;

use crate::time::SimTime;

/// One node's compiled fault schedule.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeFaults {
    windows: Vec<(SimTime, SimTime, FaultKind)>,
}

impl NodeFaults {
    pub(crate) fn push(&mut self, from: SimTime, until: SimTime, kind: FaultKind) {
        self.windows.push((from, until, kind));
    }

    /// True when the node has no scheduled faults: the event loop
    /// skips every fault check *and every fault RNG draw*, keeping
    /// fault-free runs bit-identical to pre-fault builds.
    pub(crate) fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The compiled window schedule, for trace observers reporting
    /// fault windows at run start.
    pub(crate) fn windows(&self) -> &[(SimTime, SimTime, FaultKind)] {
        &self.windows
    }

    fn active(&self, now: SimTime) -> impl Iterator<Item = FaultKind> + '_ {
        self.windows
            .iter()
            .filter(move |(from, until, _)| now >= *from && now < *until)
            .map(|(_, _, k)| *k)
    }

    /// True when an outage window covers `now`.
    pub(crate) fn outage_at(&self, now: SimTime) -> bool {
        self.active(now).any(|k| k == FaultKind::Outage)
    }

    /// The product of all active rate-degradation factors (1.0 when
    /// none are active). Outages are handled separately.
    pub(crate) fn rate_factor_at(&self, now: SimTime) -> f64 {
        self.active(now).map(FaultKind::rate_factor).product()
    }

    /// The combined drop probability of all active drop windows:
    /// `1 − Π(1 − p)`.
    pub(crate) fn drop_prob_at(&self, now: SimTime) -> f64 {
        1.0 - self
            .active(now)
            .map(|k| 1.0 - k.drop_probability())
            .product::<f64>()
    }

    /// The combined corruption probability of all active corruption
    /// windows.
    pub(crate) fn corrupt_prob_at(&self, now: SimTime) -> f64 {
        1.0 - self
            .active(now)
            .map(|k| 1.0 - k.corruption_probability())
            .product::<f64>()
    }

    /// The total credits removed from the node's bounded queue at
    /// `now`.
    pub(crate) fn credit_loss_at(&self, now: SimTime) -> u32 {
        self.active(now).map(FaultKind::credits_lost).sum()
    }
}

/// A time on the picosecond clock, saturated at [`SimTime::MAX`]: a
/// window bound or deadline past the clock is one that a run never
/// reaches. Validated plans hold only finite, non-negative times.
fn saturating(t: Seconds) -> SimTime {
    SimTime::try_from_secs(t.as_secs()).unwrap_or(SimTime::MAX)
}

/// A [`FaultPlan`] compiled against one execution graph: per-node
/// fault schedules in simulator time, indexed by dense node id, plus
/// the plan-wide retry policy and deadline.
///
/// Compilation validates the plan and resolves node names exactly
/// once. Window bounds and the deadline saturate at [`SimTime::MAX`],
/// so a window past the clock never opens (or never closes) inside a
/// run instead of failing the conversion. The per-node tables are
/// held behind [`Arc`]s, so cloning a compiled plan (or installing it
/// on a builder) is a few reference bumps — the replication engine
/// compiles a plan once and shares it across all worker threads
/// instead of cloning and re-validating the declarative plan per
/// seed. This is the simulator's only way in for a fault plan
/// ([`SimulationBuilder::with_compiled_faults`]).
///
/// [`SimulationBuilder::with_compiled_faults`]: crate::sim::SimulationBuilder::with_compiled_faults
///
/// # Examples
///
/// ```
/// use lognic_model::prelude::*;
/// use lognic_sim::faults::CompiledFaultPlan;
///
/// # fn main() -> LogNicResult<()> {
/// let g = ExecutionGraph::chain("t", &[("ip", IpParams::new(Bandwidth::gbps(1.0)))])?;
/// let plan = FaultPlan::new().outage("ip", Seconds::millis(1.0), Seconds::millis(2.0));
/// let compiled = CompiledFaultPlan::compile(&plan, &g)?;
/// let shared = compiled.clone(); // cheap: Arc bumps, no re-validation
/// # let _ = shared;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledFaultPlan {
    /// One schedule per graph node, indexed like the node list.
    /// Fault-free nodes all share one empty schedule.
    pub(crate) per_node: Vec<Arc<NodeFaults>>,
    /// Plan-wide retry/backoff policy.
    pub(crate) retry: Option<RetryPolicy>,
    /// Plan-wide sojourn deadline, in simulator time.
    pub(crate) deadline: Option<SimTime>,
    /// The declarative plan these tables were compiled from; the
    /// builder's static analysis lints it.
    pub(crate) plan: FaultPlan,
}

impl CompiledFaultPlan {
    /// Validates `plan` against `graph` and compiles it to per-node
    /// schedules.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultPlan::validate`] errors: windows naming nodes
    /// absent from the graph, empty/inverted windows, out-of-range
    /// fault parameters.
    pub fn compile(plan: &FaultPlan, graph: &ExecutionGraph) -> LogNicResult<Self> {
        plan.validate(graph)?;
        let mut per_node: Vec<NodeFaults> = vec![NodeFaults::default(); graph.nodes().len()];
        for w in plan.windows() {
            let id = graph
                .node_by_name(w.node())
                .expect("validated plan only names graph nodes");
            per_node[id.index()].push(saturating(w.from()), saturating(w.until()), w.kind());
        }
        let empty = Arc::new(NodeFaults::default());
        Ok(CompiledFaultPlan {
            per_node: per_node
                .into_iter()
                .map(|f| {
                    if f.is_empty() {
                        Arc::clone(&empty)
                    } else {
                        Arc::new(f)
                    }
                })
                .collect(),
            retry: plan.retry().copied(),
            deadline: plan.deadline().map(saturating),
            plan: plan.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: f64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn empty_schedule_is_identity() {
        let f = NodeFaults::default();
        assert!(f.is_empty());
        assert!(!f.outage_at(t(1.0)));
        assert_eq!(f.rate_factor_at(t(1.0)), 1.0);
        assert_eq!(f.drop_prob_at(t(1.0)), 0.0);
        assert_eq!(f.corrupt_prob_at(t(1.0)), 0.0);
        assert_eq!(f.credit_loss_at(t(1.0)), 0);
    }

    #[test]
    fn windows_are_half_open() {
        let mut f = NodeFaults::default();
        f.push(t(2.0), t(4.0), FaultKind::Outage);
        assert!(!f.outage_at(t(1.9)));
        assert!(f.outage_at(t(2.0)), "start is inclusive");
        assert!(f.outage_at(t(3.9)));
        assert!(!f.outage_at(t(4.0)), "end is exclusive");
    }

    #[test]
    fn active_effects_compose() {
        let mut f = NodeFaults::default();
        f.push(t(0.0), t(10.0), FaultKind::RateDegradation { factor: 0.5 });
        f.push(t(5.0), t(10.0), FaultKind::RateDegradation { factor: 0.5 });
        f.push(t(0.0), t(10.0), FaultKind::PacketDrop { probability: 0.5 });
        f.push(t(0.0), t(10.0), FaultKind::PacketDrop { probability: 0.5 });
        f.push(t(0.0), t(10.0), FaultKind::CreditLoss { credits: 3 });
        f.push(t(0.0), t(10.0), FaultKind::CreditLoss { credits: 4 });
        assert_eq!(f.rate_factor_at(t(1.0)), 0.5);
        assert_eq!(f.rate_factor_at(t(6.0)), 0.25, "factors multiply");
        assert!((f.drop_prob_at(t(1.0)) - 0.75).abs() < 1e-12, "1-(1-p)^2");
        assert_eq!(f.credit_loss_at(t(1.0)), 7, "credits sum");
    }

    #[test]
    fn compiled_plan_shares_tables_by_reference() {
        use lognic_model::params::IpParams;
        use lognic_model::units::{Bandwidth, Seconds};
        let g = ExecutionGraph::chain(
            "c",
            &[
                ("a", IpParams::new(Bandwidth::gbps(1.0))),
                ("b", IpParams::new(Bandwidth::gbps(1.0))),
            ],
        )
        .unwrap();
        let plan = FaultPlan::new()
            .outage("a", Seconds::millis(1.0), Seconds::millis(2.0))
            .with_retry(RetryPolicy::new(2, Seconds::micros(10.0)))
            .with_deadline(Seconds::millis(5.0));
        let compiled = CompiledFaultPlan::compile(&plan, &g).unwrap();
        assert_eq!(compiled.per_node.len(), g.nodes().len());
        assert!(!compiled.per_node[g.node_by_name("a").unwrap().index()].is_empty());
        assert!(compiled.retry.is_some());
        assert_eq!(compiled.deadline, Some(SimTime::from_secs(5e-3)));
        // Cloning shares every per-node table.
        let cloned = compiled.clone();
        for (a, b) in compiled.per_node.iter().zip(&cloned.per_node) {
            assert!(Arc::ptr_eq(a, b), "clone must not deep-copy tables");
        }
        // Unknown node → typed error, not a panic.
        let bad = FaultPlan::new().outage("ghost", Seconds::ZERO, Seconds::millis(1.0));
        assert!(CompiledFaultPlan::compile(&bad, &g).is_err());
        // Fault-free plans share one empty table across all nodes.
        let free = CompiledFaultPlan::compile(&FaultPlan::new(), &g).unwrap();
        assert!(free.per_node.iter().all(|f| f.is_empty()));
        assert!(Arc::ptr_eq(&free.per_node[0], &free.per_node[1]));
    }

    #[test]
    fn bounds_past_the_clock_saturate() {
        use lognic_model::params::IpParams;
        use lognic_model::units::Bandwidth;
        let g = ExecutionGraph::chain("c", &[("a", IpParams::new(Bandwidth::gbps(1.0)))]).unwrap();
        let plan = FaultPlan::new()
            .outage("a", Seconds::micros(100.0), Seconds::millis(1e300))
            .drop_packets("a", 0.5, Seconds::millis(1e300), Seconds::millis(1e301))
            .with_deadline(Seconds::millis(1e300));
        let compiled = CompiledFaultPlan::compile(&plan, &g).unwrap();
        let a = &compiled.per_node[g.node_by_name("a").unwrap().index()];
        assert_eq!(
            a.windows(),
            [
                (t(100.0), SimTime::MAX, FaultKind::Outage),
                (
                    SimTime::MAX,
                    SimTime::MAX,
                    FaultKind::PacketDrop { probability: 0.5 }
                ),
            ]
        );
        assert_eq!(compiled.deadline, Some(SimTime::MAX));
        // The outage never closes; the drop window never opens.
        assert!(a.outage_at(SimTime::from_picos(u64::MAX - 1)));
        assert_eq!(a.drop_prob_at(SimTime::MAX), 0.0);
    }
}
