//! Graph transformations for SmartNIC architecture features that the
//! base DAG cannot express directly.
//!
//! * **Recirculation** (§2.1): some SmartNICs let a packet reenter the
//!   pipeline for more execution cycles. LogNIC graphs are acyclic, so
//!   [`unroll_recirculation`] expands the recirculating vertex into a
//!   chain of passes sharing the physical IP via `γ` partitions.
//! * **Bypass path** (§2.1): off-path SmartNICs forward part of the
//!   traffic straight from the traffic manager to the TX pipeline.
//!   [`with_bypass`] adds that edge and rescales the processed share.
//! * **Rate limiting** (§3.7, extension #3): non-work-conserving IPs
//!   are modeled by splicing a rate-limiter pseudo-IP in front of
//!   them — [`insert_rate_limiter`].

use crate::error::{LogNicError, LogNicResult};
use crate::graph::{ExecutionGraph, NodeId, NodeKind};
use crate::params::EdgeParams;
use crate::units::Bandwidth;

/// Rebuilds `graph` with `node` expanded into `passes` sequential
/// copies (`name#1 … name#passes`), each holding `1/passes` of the
/// physical IP (its `γ` partition divided accordingly).
///
/// # Errors
///
/// * [`LogNicError::NodeIndexOutOfRange`] if `node` is out of range.
/// * [`LogNicError::InvalidParameter`] if `passes` is zero, or `node`
///   is an ingress/egress engine (only IPs recirculate).
pub fn unroll_recirculation(
    graph: &ExecutionGraph,
    node: NodeId,
    passes: u32,
) -> LogNicResult<ExecutionGraph> {
    if passes == 0 {
        return Err(LogNicError::InvalidParameter {
            parameter: "passes",
            value: 0.0,
            constraint: "must be at least 1",
        });
    }
    if node.index() >= graph.nodes().len() {
        return Err(LogNicError::NodeIndexOutOfRange {
            index: node.index(),
        });
    }
    let target = graph.node(node);
    if !matches!(target.kind(), NodeKind::Ip | NodeKind::RateLimiter) {
        return Err(LogNicError::InvalidParameter {
            parameter: "node",
            value: node.index() as f64,
            constraint: "only IP vertices can recirculate",
        });
    }
    let target_params = *target.params().expect("IP vertices have parameters");
    let share = target_params.partition() / passes as f64;

    let mut b = ExecutionGraph::builder(graph.name());
    // Map original node ids to new ids; the expanded node maps to its
    // first copy for incoming edges and its last copy for outgoing.
    let mut first_of = vec![None; graph.nodes().len()];
    let mut last_of = vec![None; graph.nodes().len()];
    for (i, n) in graph.nodes().iter().enumerate() {
        let id = NodeId(i);
        if id == node {
            let mut prev = None;
            for pass in 1..=passes {
                let copy = b.ip(
                    &format!("{}#{pass}", n.name()),
                    target_params.with_partition(share),
                );
                if pass == 1 {
                    first_of[i] = Some(copy);
                }
                if let Some(p) = prev {
                    // The recirculating hop carries the full flow back
                    // through the traffic manager.
                    let delta = graph.delta_in_sum(id).min(1.0);
                    b.edge(
                        p,
                        copy,
                        EdgeParams::new(delta).expect("delta within [0, 1]"),
                    );
                }
                prev = Some(copy);
            }
            last_of[i] = prev;
        } else {
            let new = match n.kind() {
                NodeKind::Ingress => b.ingress(n.name()),
                NodeKind::Egress => b.egress(n.name()),
                NodeKind::Ip | NodeKind::RateLimiter => {
                    b.ip(n.name(), *n.params().expect("IP vertices have parameters"))
                }
            };
            first_of[i] = Some(new);
            last_of[i] = Some(new);
        }
    }
    for e in graph.edges() {
        let src = last_of[e.src().index()].expect("mapped");
        let dst = first_of[e.dst().index()].expect("mapped");
        b.edge(src, dst, *e.params());
    }
    b.build()
}

/// Rebuilds `graph` with an ingress→egress bypass edge carrying
/// `fraction` of the traffic (the off-path forwarding of §2.1); the
/// original ingress fan-out keeps the remaining `1 − fraction`.
///
/// # Errors
///
/// Returns [`LogNicError::InvalidParameter`] if `fraction` ∉ `[0, 1)`.
pub fn with_bypass(graph: &ExecutionGraph, fraction: f64) -> LogNicResult<ExecutionGraph> {
    if !(0.0..1.0).contains(&fraction) {
        return Err(LogNicError::InvalidParameter {
            parameter: "fraction",
            value: fraction,
            constraint: "must lie in [0, 1)",
        });
    }
    let mut b = ExecutionGraph::builder(graph.name());
    let mut map = Vec::with_capacity(graph.nodes().len());
    for n in graph.nodes() {
        let id = match n.kind() {
            NodeKind::Ingress => b.ingress(n.name()),
            NodeKind::Egress => b.egress(n.name()),
            NodeKind::Ip | NodeKind::RateLimiter => {
                b.ip(n.name(), *n.params().expect("IP vertices have parameters"))
            }
        };
        map.push(id);
    }
    for e in graph.edges() {
        // Every original edge belongs to the SoC path, which now
        // carries only the processed share of the traffic.
        let mut params = EdgeParams::new(e.params().delta() * (1.0 - fraction))
            .expect("delta within [0, 1]")
            .with_interface_fraction(e.params().interface_fraction() * (1.0 - fraction))
            .with_memory_fraction(e.params().memory_fraction() * (1.0 - fraction));
        if let Some(bw) = e.params().dedicated_bandwidth() {
            params = params.with_dedicated_bandwidth(bw);
        }
        b.edge(map[e.src().index()], map[e.dst().index()], params);
    }
    if fraction > 0.0 {
        // The bypass hop: straight to the TX pipeline, no SoC media.
        b.edge(
            map[graph.ingress().index()],
            map[graph.egress().index()],
            EdgeParams::new(fraction)
                .expect("fraction within [0, 1]")
                .with_interface_fraction(0.0),
        );
    }
    b.build()
}

/// Rebuilds `graph` with a rate-limiter pseudo-IP spliced in front of
/// `node` (§3.7, extension #3): all of the node's incoming edges are
/// redirected through a shaper running at `rate` with a
/// `queue_capacity`-entry queue.
///
/// # Errors
///
/// * [`LogNicError::NodeIndexOutOfRange`] if `node` is out of range.
/// * [`LogNicError::InvalidParameter`] if `node` is the ingress vertex.
pub fn insert_rate_limiter(
    graph: &ExecutionGraph,
    node: NodeId,
    rate: Bandwidth,
    queue_capacity: u32,
) -> LogNicResult<ExecutionGraph> {
    if node.index() >= graph.nodes().len() {
        return Err(LogNicError::NodeIndexOutOfRange {
            index: node.index(),
        });
    }
    if graph.node(node).kind() == NodeKind::Ingress {
        return Err(LogNicError::InvalidParameter {
            parameter: "node",
            value: node.index() as f64,
            constraint: "cannot shape in front of the ingress engine",
        });
    }
    let mut b = ExecutionGraph::builder(graph.name());
    let mut map = Vec::with_capacity(graph.nodes().len());
    for n in graph.nodes() {
        let id = match n.kind() {
            NodeKind::Ingress => b.ingress(n.name()),
            NodeKind::Egress => b.egress(n.name()),
            NodeKind::Ip | NodeKind::RateLimiter => {
                b.ip(n.name(), *n.params().expect("IP vertices have parameters"))
            }
        };
        map.push(id);
    }
    let limiter = b.rate_limiter(
        &format!("{}-shaper", graph.node(node).name()),
        rate,
        queue_capacity,
    );
    let inbound = graph.delta_in_sum(node).min(1.0);
    for e in graph.edges() {
        if e.dst() == node {
            // Redirect into the shaper.
            b.edge(map[e.src().index()], limiter, *e.params());
        } else {
            b.edge(map[e.src().index()], map[e.dst().index()], *e.params());
        }
    }
    // Shaper to the original node: pure handoff, no extra media usage.
    b.edge(
        limiter,
        map[node.index()],
        EdgeParams::new(inbound)
            .expect("delta within [0, 1]")
            .with_interface_fraction(0.0),
    );
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{HardwareModel, IpParams, TrafficProfile};
    use crate::throughput::estimate_throughput;
    use crate::units::Bytes;

    fn base() -> ExecutionGraph {
        ExecutionGraph::chain(
            "b",
            &[
                ("a", IpParams::new(Bandwidth::gbps(20.0))),
                ("c", IpParams::new(Bandwidth::gbps(40.0))),
            ],
        )
        .unwrap()
    }

    #[test]
    fn unroll_expands_node_into_passes() {
        let g = base();
        let a = g.node_by_name("a").unwrap();
        let unrolled = unroll_recirculation(&g, a, 3).unwrap();
        assert!(unrolled.node_by_name("a#1").is_some());
        assert!(unrolled.node_by_name("a#3").is_some());
        assert!(unrolled.node_by_name("a").is_none());
        // 2 extra vertices, 2 extra edges.
        assert_eq!(unrolled.nodes().len(), g.nodes().len() + 2);
        assert_eq!(unrolled.edges().len(), g.edges().len() + 2);
        assert_eq!(unrolled.paths().unwrap().len(), 1);
    }

    #[test]
    fn unroll_divides_the_physical_partition() {
        let g = base();
        let a = g.node_by_name("a").unwrap();
        let unrolled = unroll_recirculation(&g, a, 4).unwrap();
        for pass in 1..=4 {
            let copy = unrolled.node_by_name(&format!("a#{pass}")).unwrap();
            let params = unrolled.node(copy).params().unwrap();
            assert!((params.partition() - 0.25).abs() < 1e-12);
        }
        // Throughput: each pass has a quarter of the IP, and traffic
        // crosses all four → bound = 20 × 0.25 = 5 Gb/s.
        let t = TrafficProfile::fixed(Bandwidth::gbps(100.0), Bytes::new(1500));
        let est = estimate_throughput(&unrolled, &HardwareModel::default(), &t).unwrap();
        assert!((est.attainable().as_gbps() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn unroll_one_pass_is_identity_shaped() {
        let g = base();
        let a = g.node_by_name("a").unwrap();
        let unrolled = unroll_recirculation(&g, a, 1).unwrap();
        assert_eq!(unrolled.nodes().len(), g.nodes().len());
        assert_eq!(unrolled.edges().len(), g.edges().len());
    }

    #[test]
    fn unroll_rejects_bad_inputs() {
        let g = base();
        let a = g.node_by_name("a").unwrap();
        assert!(unroll_recirculation(&g, a, 0).is_err());
        assert!(unroll_recirculation(&g, g.ingress(), 2).is_err());
        assert!(unroll_recirculation(&g, NodeId(99), 2).is_err());
    }

    #[test]
    fn bypass_adds_direct_path_and_rescales() {
        let g = base();
        let bypassed = with_bypass(&g, 0.6).unwrap();
        let paths = bypassed.paths().unwrap();
        assert_eq!(paths.len(), 2, "SoC path plus bypass");
        // SoC path weight 0.4, bypass 0.6.
        let mut weights: Vec<f64> = paths.iter().map(|p| p.weight).collect();
        weights.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((weights[0] - 0.4).abs() < 1e-9);
        assert!((weights[1] - 0.6).abs() < 1e-9);
        // The 20 Gb/s IP now only sees 40% of traffic → bound 50 Gb/s.
        let t = TrafficProfile::fixed(Bandwidth::gbps(200.0), Bytes::new(1500));
        let est = estimate_throughput(&bypassed, &HardwareModel::default(), &t).unwrap();
        assert!((est.attainable().as_gbps() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn bypass_zero_changes_nothing_structural() {
        let g = base();
        let same = with_bypass(&g, 0.0).unwrap();
        assert_eq!(same.paths().unwrap().len(), 1);
        assert!(with_bypass(&g, 1.0).is_err());
        assert!(with_bypass(&g, -0.1).is_err());
    }

    #[test]
    fn rate_limiter_splices_and_caps_throughput() {
        let g = base();
        let c = g.node_by_name("c").unwrap();
        let shaped = insert_rate_limiter(&g, c, Bandwidth::gbps(10.0), 8).unwrap();
        let shaper = shaped.node_by_name("c-shaper").unwrap();
        assert_eq!(shaped.node(shaper).kind(), NodeKind::RateLimiter);
        // The shaper caps what was a 20 Gb/s pipeline at 10 Gb/s.
        let t = TrafficProfile::fixed(Bandwidth::gbps(100.0), Bytes::new(1500));
        let est = estimate_throughput(&shaped, &HardwareModel::default(), &t).unwrap();
        assert!((est.attainable().as_gbps() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn rate_limiter_rejects_ingress() {
        let g = base();
        assert!(insert_rate_limiter(&g, g.ingress(), Bandwidth::gbps(1.0), 4).is_err());
        assert!(insert_rate_limiter(&g, NodeId(99), Bandwidth::gbps(1.0), 4).is_err());
    }
}
