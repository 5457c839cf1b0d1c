//! Throughput modeling (§3.5, Eq. 1–4).
//!
//! The attainable throughput of a SmartNIC program is the minimum over
//! the *capacity bounds* of every hardware entity on the data plane:
//!
//! * each triggered IP: `P_vi / Σ δ_in`,
//! * each edge with a dedicated IP-IP link: `BW_e / δ_e`,
//! * the shared interface: `BW_INTF / Σ α`,
//! * the shared memory subsystem: `BW_MEM / Σ β`,
//! * and the offered load `BW_in` itself.
//!
//! The component realizing the minimum is the program's bottleneck.

use crate::error::LogNicResult;
use crate::graph::{EdgeId, ExecutionGraph, NodeId, NodeKind};
use crate::params::{HardwareModel, TrafficProfile};
use crate::units::Bandwidth;

/// A hardware entity that can bound throughput.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Component {
    /// An IP (or ingress/egress engine with parameters); the string is
    /// the vertex name.
    Node(NodeId, String),
    /// An edge with a dedicated IP-IP bandwidth.
    Edge(EdgeId),
    /// The shared on-chip interface.
    Interface,
    /// The shared memory subsystem.
    Memory,
    /// The offered ingress load (not a bottleneck: the device is
    /// underutilized when this binds).
    OfferedLoad,
}

impl Component {
    /// True when this bound is the offered load rather than a hardware
    /// limit.
    pub fn is_offered_load(&self) -> bool {
        matches!(self, Component::OfferedLoad)
    }
}

impl core::fmt::Display for Component {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Component::Node(_, name) => write!(f, "node `{name}`"),
            Component::Edge(id) => write!(f, "edge #{}", id.index()),
            Component::Interface => write!(f, "interface"),
            Component::Memory => write!(f, "memory"),
            Component::OfferedLoad => write!(f, "offered load"),
        }
    }
}

/// One capacity bound contributed by a component.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// The component imposing the bound.
    pub component: Component,
    /// The ingress rate at which this component saturates.
    pub limit: Bandwidth,
}

/// The result of throughput modeling.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputEstimate {
    attainable: Bandwidth,
    bounds: Vec<Bound>,
}

impl ThroughputEstimate {
    /// The attainable throughput `P_attainable` (Eq. 4), expressed as
    /// an ingress data rate.
    pub fn attainable(&self) -> Bandwidth {
        self.attainable
    }

    /// All capacity bounds, sorted ascending by limit.
    pub fn bounds(&self) -> &[Bound] {
        &self.bounds
    }

    /// The binding component (smallest limit). When this is
    /// [`Component::OfferedLoad`] the device has headroom.
    pub fn bottleneck(&self) -> &Bound {
        &self.bounds[0]
    }

    /// The tightest *hardware* bound, ignoring the offered load: what
    /// would bind if the input rate grew without limit.
    pub fn saturation_bound(&self) -> Option<&Bound> {
        self.bounds.iter().find(|b| !b.component.is_offered_load())
    }

    /// True when the offered load exceeds the hardware capacity.
    pub fn is_saturated(&self) -> bool {
        !self.bottleneck().component.is_offered_load()
    }
}

/// Estimates the attainable throughput of `graph` on `hw` under
/// `traffic` (Eq. 4), evaluated at the mean ingress granularity.
///
/// This function uses the profile as-is (its `δ`/`α`/`β` parameters
/// are assumed to match the profile). For a size mixture, use
/// [`Estimator::request`](crate::estimate::Estimator::request) and
/// [`evaluate`](crate::estimate::EstimateRequest::evaluate): the
/// latency walks the mixture class by class
/// ([`estimate_latency`](crate::latency::estimate_latency)) and
/// [`delivered_throughput`](crate::extensions::delivered_throughput)
/// charges the queue losses. [`crate::extensions::estimate_mixed`] is
/// the variant for classes that each run on their own graph.
///
/// # Errors
///
/// Propagates graph validation errors; graphs built through
/// [`ExecutionGraph::builder`] do not fail here.
///
/// # Examples
///
/// ```
/// use lognic_model::graph::ExecutionGraph;
/// use lognic_model::params::{HardwareModel, IpParams, TrafficProfile};
/// use lognic_model::throughput::estimate_throughput;
/// use lognic_model::units::{Bandwidth, Bytes};
///
/// # fn main() -> lognic_model::error::LogNicResult<()> {
/// let g = ExecutionGraph::chain("echo", &[("core", IpParams::new(Bandwidth::gbps(10.0)))])?;
/// let hw = HardwareModel::default();
/// let t = TrafficProfile::fixed(Bandwidth::gbps(25.0), Bytes::new(1500));
/// let est = estimate_throughput(&g, &hw, &t)?;
/// assert_eq!(est.attainable(), Bandwidth::gbps(10.0));
/// assert!(est.is_saturated());
/// # Ok(())
/// # }
/// ```
pub fn estimate_throughput(
    graph: &ExecutionGraph,
    hw: &HardwareModel,
    traffic: &TrafficProfile,
) -> LogNicResult<ThroughputEstimate> {
    let mut bounds = Vec::new();

    // Per-node computing bounds: P_vi / Σ δ_in (Eq. 1).
    for (i, node) in graph.nodes().iter().enumerate() {
        let id = NodeId(i);
        let Some(params) = node.params() else {
            continue;
        };
        let delta_in = effective_delta_in(graph, id);
        let load = delta_in * params.work_factor();
        if load <= 0.0 {
            continue;
        }
        bounds.push(Bound {
            component: Component::Node(id, node.name().to_owned()),
            limit: params.effective_peak() / load,
        });
    }

    // Per-edge dedicated-link bounds: BW_mn / δ_e.
    for (i, edge) in graph.edges().iter().enumerate() {
        let p = edge.params();
        if let Some(bw) = p.dedicated_bandwidth() {
            if p.delta() > 0.0 {
                bounds.push(Bound {
                    component: Component::Edge(EdgeId(i)),
                    limit: bw / p.delta(),
                });
            }
        }
    }

    // Shared-medium bounds: BW_INTF / Σ α and BW_MEM / Σ β (Eq. 2).
    let alpha_sum: f64 = graph
        .edges()
        .iter()
        .map(|e| e.params().interface_fraction())
        .sum();
    if alpha_sum > 0.0 {
        bounds.push(Bound {
            component: Component::Interface,
            limit: hw.interface_bandwidth() / alpha_sum,
        });
    }
    let beta_sum: f64 = graph
        .edges()
        .iter()
        .map(|e| e.params().memory_fraction())
        .sum();
    if beta_sum > 0.0 {
        bounds.push(Bound {
            component: Component::Memory,
            limit: hw.memory_bandwidth() / beta_sum,
        });
    }

    // The offered load caps everything.
    bounds.push(Bound {
        component: Component::OfferedLoad,
        limit: traffic.ingress_bandwidth(),
    });

    bounds.sort_by(|a, b| a.limit.partial_cmp(&b.limit).expect("bounds are finite"));
    let attainable = bounds[0].limit;
    Ok(ThroughputEstimate { attainable, bounds })
}

/// The `Σ δ_in` a node sees, treating the ingress vertex (which has no
/// incoming edges) as receiving the whole ingress volume.
pub(crate) fn effective_delta_in(graph: &ExecutionGraph, id: NodeId) -> f64 {
    if graph.node(id).kind() == NodeKind::Ingress {
        1.0
    } else {
        graph.delta_in_sum(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{EdgeParams, IpParams};
    use crate::units::Bytes;

    fn traffic(gbps: f64) -> TrafficProfile {
        TrafficProfile::fixed(Bandwidth::gbps(gbps), Bytes::new(1500))
    }

    #[test]
    fn single_ip_bound_by_compute() {
        let g = ExecutionGraph::chain("t", &[("ip", IpParams::new(Bandwidth::gbps(5.0)))]).unwrap();
        let est = estimate_throughput(&g, &HardwareModel::default(), &traffic(25.0)).unwrap();
        assert_eq!(est.attainable(), Bandwidth::gbps(5.0));
        assert!(matches!(est.bottleneck().component, Component::Node(_, ref n) if n == "ip"));
        assert!(est.is_saturated());
    }

    #[test]
    fn underload_bound_by_offered_rate() {
        let g =
            ExecutionGraph::chain("t", &[("ip", IpParams::new(Bandwidth::gbps(50.0)))]).unwrap();
        let est = estimate_throughput(&g, &HardwareModel::default(), &traffic(10.0)).unwrap();
        assert_eq!(est.attainable(), Bandwidth::gbps(10.0));
        assert!(est.bottleneck().component.is_offered_load());
        assert!(!est.is_saturated());
        // Saturation bound still names the hardware limit.
        let sat = est.saturation_bound().unwrap();
        assert_eq!(sat.limit, Bandwidth::gbps(50.0));
    }

    #[test]
    fn interface_bound_with_heavy_alpha() {
        // Two edges each with α = 1 → Σα = 3 including egress edge.
        let g = ExecutionGraph::chain(
            "t",
            &[
                ("a", IpParams::new(Bandwidth::gbps(1000.0))),
                ("b", IpParams::new(Bandwidth::gbps(1000.0))),
            ],
        )
        .unwrap();
        let hw = HardwareModel::new(Bandwidth::gbps(30.0), Bandwidth::gbps(1000.0));
        let est = estimate_throughput(&g, &hw, &traffic(100.0)).unwrap();
        // Σα = 3 edges × 1.0 → limit = 10 Gbps.
        assert_eq!(est.attainable(), Bandwidth::gbps(10.0));
        assert_eq!(est.bottleneck().component, Component::Interface);
    }

    #[test]
    fn memory_bound_with_beta_edges() {
        let mut b = ExecutionGraph::builder("m");
        let ing = b.ingress("in");
        let ip = b.ip("ip", IpParams::new(Bandwidth::gbps(1000.0)));
        let eg = b.egress("out");
        b.edge(
            ing,
            ip,
            EdgeParams::full()
                .with_interface_fraction(0.0)
                .with_memory_fraction(2.0),
        );
        b.edge(
            ip,
            eg,
            EdgeParams::full()
                .with_interface_fraction(0.0)
                .with_memory_fraction(2.0),
        );
        let g = b.build().unwrap();
        let hw = HardwareModel::new(Bandwidth::gbps(1000.0), Bandwidth::gbps(40.0));
        let est = estimate_throughput(&g, &hw, &traffic(100.0)).unwrap();
        // Σβ = 4 → limit = 10 Gbps.
        assert_eq!(est.attainable(), Bandwidth::gbps(10.0));
        assert_eq!(est.bottleneck().component, Component::Memory);
    }

    #[test]
    fn dedicated_edge_bound() {
        let mut b = ExecutionGraph::builder("d");
        let ing = b.ingress("in");
        let ip = b.ip("ip", IpParams::new(Bandwidth::gbps(1000.0)));
        let eg = b.egress("out");
        b.edge(
            ing,
            ip,
            EdgeParams::full()
                .with_interface_fraction(0.0)
                .with_dedicated_bandwidth(Bandwidth::gbps(7.0)),
        );
        b.edge(ip, eg, EdgeParams::full().with_interface_fraction(0.0));
        let g = b.build().unwrap();
        let est = estimate_throughput(&g, &HardwareModel::default(), &traffic(100.0)).unwrap();
        assert_eq!(est.attainable(), Bandwidth::gbps(7.0));
        assert!(matches!(est.bottleneck().component, Component::Edge(_)));
    }

    #[test]
    fn delta_scales_node_bound() {
        // A node receiving only 20% of traffic is bound at P/0.2.
        let mut b = ExecutionGraph::builder("s");
        let ing = b.ingress("in");
        let hot = b.ip("hot", IpParams::new(Bandwidth::gbps(8.0)));
        let cold = b.ip("cold", IpParams::new(Bandwidth::gbps(2.0)));
        let eg = b.egress("out");
        b.edge(ing, hot, EdgeParams::new(0.8).unwrap());
        b.edge(ing, cold, EdgeParams::new(0.2).unwrap());
        b.edge(hot, eg, EdgeParams::new(0.8).unwrap());
        b.edge(cold, eg, EdgeParams::new(0.2).unwrap());
        let g = b.build().unwrap();
        let est = estimate_throughput(&g, &HardwareModel::default(), &traffic(100.0)).unwrap();
        // hot binds at 8/0.8 = 10, cold at 2/0.2 = 10: tie at 10 Gbps.
        assert_eq!(est.attainable(), Bandwidth::gbps(10.0));
    }

    #[test]
    fn partition_and_acceleration_scale_capacity() {
        let g = ExecutionGraph::chain(
            "t",
            &[(
                "ip",
                IpParams::new(Bandwidth::gbps(10.0))
                    .with_partition(0.5)
                    .with_acceleration(3.0),
            )],
        )
        .unwrap();
        let est = estimate_throughput(&g, &HardwareModel::default(), &traffic(100.0)).unwrap();
        assert!((est.attainable().as_gbps() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn bounds_are_sorted_ascending() {
        let g = ExecutionGraph::chain(
            "t",
            &[
                ("fast", IpParams::new(Bandwidth::gbps(100.0))),
                ("slow", IpParams::new(Bandwidth::gbps(3.0))),
            ],
        )
        .unwrap();
        let est = estimate_throughput(&g, &HardwareModel::default(), &traffic(50.0)).unwrap();
        for w in est.bounds().windows(2) {
            assert!(w[0].limit <= w[1].limit);
        }
        assert!(matches!(est.bottleneck().component, Component::Node(_, ref n) if n == "slow"));
    }

    #[test]
    fn attainable_never_exceeds_offered() {
        let g =
            ExecutionGraph::chain("t", &[("ip", IpParams::new(Bandwidth::gbps(500.0)))]).unwrap();
        for rate in [1.0, 10.0, 400.0, 600.0] {
            let est = estimate_throughput(&g, &HardwareModel::default(), &traffic(rate)).unwrap();
            assert!(est.attainable() <= Bandwidth::gbps(rate));
        }
    }

    #[test]
    fn component_display() {
        assert_eq!(Component::Interface.to_string(), "interface");
        assert_eq!(Component::Memory.to_string(), "memory");
        assert_eq!(Component::OfferedLoad.to_string(), "offered load");
        assert_eq!(
            Component::Node(NodeId(0), "x".into()).to_string(),
            "node `x`"
        );
        assert_eq!(Component::Edge(EdgeId(3)).to_string(), "edge #3");
    }
}
