//! Parameter sweeps: the latency-vs-throughput curves the paper plots.

use crate::error::LogNicResult;
use crate::estimate::Estimator;
use crate::graph::ExecutionGraph;
use crate::params::{HardwareModel, TrafficProfile};
use crate::units::{Bandwidth, Seconds};

/// One point of a rate sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The offered ingress rate at this point.
    pub offered: Bandwidth,
    /// The drop-aware delivered throughput.
    pub delivered: Bandwidth,
    /// The mean latency.
    pub latency: Seconds,
    /// The utilization of the busiest node.
    pub peak_utilization: f64,
}

/// Evaluates the model at each offered-rate fraction of `reference`
/// (e.g. `[0.1, 0.2, …, 0.9]` of the saturation rate), producing the
/// latency-throughput curve of Fig. 6.
///
/// # Errors
///
/// Propagates model-evaluation errors.
///
/// # Examples
///
/// ```
/// use lognic_model::prelude::*;
/// use lognic_model::sweep::rate_sweep;
///
/// # fn main() -> lognic_model::error::LogNicResult<()> {
/// let g = ExecutionGraph::chain(
///     "s",
///     &[("ip", IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(64))],
/// )?;
/// let hw = HardwareModel::default();
/// let base = TrafficProfile::fixed(Bandwidth::gbps(10.0), Bytes::new(1500));
/// let curve = rate_sweep(&g, &hw, &base, Bandwidth::gbps(10.0), &[0.3, 0.6, 0.9])?;
/// assert_eq!(curve.len(), 3);
/// assert!(curve[2].latency > curve[0].latency, "latency rises with load");
/// # Ok(())
/// # }
/// ```
pub fn rate_sweep(
    graph: &ExecutionGraph,
    hw: &HardwareModel,
    base: &TrafficProfile,
    reference: Bandwidth,
    fractions: &[f64],
) -> LogNicResult<Vec<SweepPoint>> {
    let mut out = Vec::with_capacity(fractions.len());
    for f in fractions {
        let traffic = base.at_rate(reference.scaled(*f));
        let est = Estimator::new(graph, hw, &traffic).request().evaluate()?;
        let peak_utilization = est
            .latency
            .per_node()
            .iter()
            .map(|t| t.utilization)
            .fold(0.0, f64::max);
        out.push(SweepPoint {
            offered: traffic.ingress_bandwidth(),
            delivered: est.delivered,
            latency: est.latency.mean(),
            peak_utilization,
        });
    }
    Ok(out)
}

/// The saturation knee of a sweep: the first point whose delivered
/// rate falls short of its offered rate by more than `loss_tolerance`
/// (fraction). Returns `None` when no point saturates.
pub fn knee_of(points: &[SweepPoint], loss_tolerance: f64) -> Option<usize> {
    points.iter().position(|p| {
        p.offered.as_bps() > 0.0
            && (p.offered.as_bps() - p.delivered.as_bps()) / p.offered.as_bps() > loss_tolerance
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::IpParams;
    use crate::units::Bytes;

    fn setup() -> (ExecutionGraph, HardwareModel, TrafficProfile) {
        let g = ExecutionGraph::chain(
            "s",
            &[(
                "ip",
                IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(32),
            )],
        )
        .unwrap();
        let hw = HardwareModel::default();
        let t = TrafficProfile::fixed(Bandwidth::gbps(10.0), Bytes::new(1500));
        (g, hw, t)
    }

    #[test]
    fn sweep_is_monotone_in_latency_and_utilization() {
        let (g, hw, t) = setup();
        let pts = rate_sweep(&g, &hw, &t, Bandwidth::gbps(10.0), &[0.2, 0.5, 0.8, 0.95]).unwrap();
        assert_eq!(pts.len(), 4);
        for w in pts.windows(2) {
            assert!(w[1].latency >= w[0].latency);
            assert!(w[1].peak_utilization >= w[0].peak_utilization);
        }
        assert!((pts[3].peak_utilization - 0.95).abs() < 1e-9);
    }

    #[test]
    fn knee_detected_past_saturation() {
        let (g, hw, t) = setup();
        let pts = rate_sweep(&g, &hw, &t, Bandwidth::gbps(10.0), &[0.5, 0.9, 1.2, 1.5]).unwrap();
        let knee = knee_of(&pts, 0.02).expect("overdriven points saturate");
        assert!(knee >= 2, "knee at the >100% points, got {knee}");
        assert_eq!(knee_of(&pts[..2], 0.02), None);
    }

    #[test]
    fn delivered_capped_at_capacity_in_sweep() {
        let (g, hw, t) = setup();
        let pts = rate_sweep(&g, &hw, &t, Bandwidth::gbps(10.0), &[2.0]).unwrap();
        assert!(pts[0].delivered.as_gbps() <= 10.0 + 1e-9);
    }
}
