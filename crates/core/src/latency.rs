//! Latency modeling (§3.6, Eq. 5–8).
//!
//! The latency of a request follows its path through the execution
//! graph. Each traversed IP contributes queueing (`Q_i`, from the
//! M/M/1/N model of [`crate::queueing`]), execution (`C_i / A_i`) and
//! the computation-transfer overhead (`O_i`); each edge contributes the
//! data movement time over its media. The application latency is the
//! weighted average over all ingress→egress paths (Eq. 8).

use crate::error::LogNicResult;
use crate::graph::{ExecutionGraph, NodeId, Path};
use crate::params::{HardwareModel, IpParams, TrafficProfile};
use crate::queueing::MmcN;
use crate::throughput::effective_delta_in;
use crate::units::{Bytes, Seconds};

/// Per-node timing derived from Eq. 7 and Eq. 11 at one ingress
/// granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTiming {
    /// The vertex this timing describes.
    pub node: NodeId,
    /// Mean request execution time `C_i / A_i` at the node.
    pub service: Seconds,
    /// Offered utilization `ρ = BW_in · Σδ_in / P_vi`.
    pub utilization: f64,
    /// Mean queueing delay `Q_i` (Eq. 12).
    pub queueing_delay: Seconds,
    /// Probability an arriving request is dropped (`Pro_N`).
    pub drop_probability: f64,
}

/// Latency of a single ingress→egress path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathLatency {
    /// The path (edges, vertices, traffic weight `w_Pk`).
    pub path: Path,
    /// The end-to-end latency `T_Pk` (Eq. 6).
    pub latency: Seconds,
}

/// The result of latency modeling at one granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyEstimate {
    mean: Seconds,
    per_path: Vec<PathLatency>,
    per_node: Vec<NodeTiming>,
}

impl LatencyEstimate {
    /// The traffic-weighted mean latency `T_attainable` (Eq. 8).
    pub fn mean(&self) -> Seconds {
        self.mean
    }

    /// Latency of every path, in graph enumeration order.
    pub fn per_path(&self) -> &[PathLatency] {
        &self.per_path
    }

    /// Timing of every compute vertex that has parameters.
    pub fn per_node(&self) -> &[NodeTiming] {
        &self.per_node
    }

    /// The timing entry for a specific vertex, if it computes.
    pub fn node_timing(&self, node: NodeId) -> Option<&NodeTiming> {
        self.per_node.iter().find(|t| t.node == node)
    }

    /// The worst per-path latency (an upper envelope, not a tail
    /// estimate — the model cannot predict tails, §4.7).
    pub fn max_path(&self) -> Seconds {
        self.per_path
            .iter()
            .map(|p| p.latency)
            .fold(Seconds::ZERO, Seconds::max)
    }
}

/// The mean request execution time `C_i / A_i` (Eq. 7) of vertex
/// `node` at granularity `granularity`, without its queue: what
/// [`node_timing`] reports as `service`.
///
/// Returns `None` for pure data movers (ingress/egress vertices
/// without parameters).
pub fn node_service(graph: &ExecutionGraph, node: NodeId, granularity: Bytes) -> Option<Seconds> {
    let params = graph.node(node).params()?;
    let peak = params.effective_peak();
    // C_i/A_i = D · g · w / P_eff   (Eq. 7 with routed granularity:
    // each request carries its full `g` bytes, of which the node
    // computes on the `w` fraction; on single-path graphs with w = 1
    // this is exactly the paper's D·g·Σδ/(P·indegree)).
    Some(if peak.is_zero() {
        Seconds::INFINITY
    } else {
        Seconds::new(
            params.parallelism() as f64 * granularity.bits() as f64 * params.work_factor()
                / peak.as_bps(),
        )
    })
}

/// The offered utilization `ρ = BW_in · Σδ · w / P_eff` (Eq. 11) of a
/// computing vertex: infinite when its effective peak is zero.
fn node_utilization(
    graph: &ExecutionGraph,
    node: NodeId,
    params: &IpParams,
    traffic: &TrafficProfile,
) -> f64 {
    let peak = params.effective_peak();
    if peak.is_zero() {
        f64::INFINITY
    } else {
        traffic.ingress_bandwidth().as_bps()
            * effective_delta_in(graph, node)
            * params.work_factor()
            / peak.as_bps()
    }
}

/// The Eq. 12 queueing delay in front of `service` and the drop
/// probability of a vertex at `utilization`: `(∞, 1)` when the
/// utilization is infinite.
///
/// The paper's Eq. 12 is the D = 1 case; for multi-engine IPs the
/// M/M/c/N generalization avoids charging queueing delay that D
/// concurrent engines never exhibit (DESIGN.md §5b).
fn node_queue(params: &IpParams, utilization: f64, service: Seconds) -> (Seconds, f64) {
    if !utilization.is_finite() {
        return (Seconds::INFINITY, 1.0);
    }
    let queue = MmcN::new(
        utilization,
        params.parallelism(),
        params.effective_queue_capacity(),
    )
    .expect("utilization is finite and non-negative");
    (queue.queueing_delay(service), queue.blocking_probability())
}

/// Computes the per-node timing (Eq. 7 service time, Eq. 11
/// utilization, Eq. 12 queueing delay) for vertex `node` at ingress
/// granularity `granularity`.
///
/// Returns `None` for pure data movers (ingress/egress vertices
/// without parameters).
pub fn node_timing(
    graph: &ExecutionGraph,
    node: NodeId,
    traffic: &TrafficProfile,
    granularity: Bytes,
) -> Option<NodeTiming> {
    let params = graph.node(node).params()?;
    let service = node_service(graph, node, granularity)?;
    let utilization = node_utilization(graph, node, params, traffic);
    let (queueing_delay, drop_probability) = node_queue(params, utilization, service);
    Some(NodeTiming {
        node,
        service,
        utilization,
        queueing_delay,
        drop_probability,
    })
}

/// The data movement time across one edge at granularity `g` (Eq. 7
/// in routed form): a packet on this edge moves `g·α/δ` bytes over
/// the interface, `g·β/δ` over memory and `g` over a dedicated link.
///
/// `δ`, `α` and `β` are *aggregate* fractions of the total ingress
/// volume (used that way by the Eq. 2 medium bounds); dividing by `δ`
/// converts them to per-packet usage for the packets actually routed
/// through the edge. On full edges (`δ = α = 1`) this is exactly the
/// paper's `g·α/BW_INTF + g·β/BW_MEM`.
pub fn edge_transfer_time(
    graph: &ExecutionGraph,
    edge: crate::graph::EdgeId,
    hw: &HardwareModel,
    granularity: Bytes,
) -> Seconds {
    let p = graph.edge(edge).params();
    let delta = if p.delta() > 0.0 { p.delta() } else { 1.0 };
    let mut t = Seconds::ZERO;
    if p.interface_fraction() > 0.0 {
        t += hw
            .interface_bandwidth()
            .transfer_time(granularity.scaled(p.interface_fraction() / delta));
    }
    if p.memory_fraction() > 0.0 {
        t += hw
            .memory_bandwidth()
            .transfer_time(granularity.scaled(p.memory_fraction() / delta));
    }
    if p.dedicated_bandwidth().is_some() && p.delta() > 0.0 {
        t += p
            .dedicated_bandwidth()
            .expect("checked")
            .transfer_time(granularity);
    }
    t
}

/// Estimates latency at one explicit ingress granularity (packet or
/// message size). Mixed-size profiles are handled by
/// [`estimate_latency`], which weights per-size estimates (§3.7,
/// extension #2).
///
/// # Errors
///
/// Propagates [`crate::error::LogNicError::NoPath`] for degenerate
/// graphs (cannot happen for graphs built through the builder).
pub fn estimate_latency_at(
    graph: &ExecutionGraph,
    hw: &HardwareModel,
    traffic: &TrafficProfile,
    granularity: Bytes,
) -> LogNicResult<LatencyEstimate> {
    let timings: Vec<Option<NodeTiming>> = (0..graph.nodes().len())
        .map(|i| node_timing(graph, NodeId(i), traffic, granularity))
        .collect();

    // Adds `Q + C` of `node` at the walk's current size. At the
    // ingress granularity that is the timing already built above; only
    // a resized request (compression edges) needs a fresh one.
    let add_stage = |latency: &mut Seconds, node: NodeId, g_cur: Bytes| {
        let resized;
        let timing = if g_cur == granularity {
            timings[node.index()].as_ref()
        } else {
            resized = node_timing(graph, node, traffic, g_cur);
            resized.as_ref()
        };
        if let Some(t) = timing {
            *latency += t.queueing_delay;
            *latency += t.service;
        }
    };

    let paths = graph.paths()?;
    let mut per_path = Vec::with_capacity(paths.len());
    let mut mean = Seconds::ZERO;
    for path in paths {
        let mut latency = Seconds::ZERO;
        // Requests may be resized along the path (compression edges);
        // each stage executes and transfers at the size it sees.
        let mut g_cur = granularity;
        // Σ over edges: Q_src + C_src + O_src + transfer  (Eq. 6).
        for eid in &path.edges {
            let src = graph.edge(*eid).src();
            add_stage(&mut latency, src, g_cur);
            if let Some(p) = graph.node(src).params() {
                latency += p.overhead();
            }
            g_cur = g_cur.scaled(graph.edge(*eid).params().size_factor());
            latency += edge_transfer_time(graph, *eid, hw, g_cur);
        }
        // Terminal vertex: Q + C (egress engines without params add 0).
        let last = *path.nodes.last().expect("paths have at least one node");
        add_stage(&mut latency, last, g_cur);
        mean += latency.scaled(path.weight);
        per_path.push(PathLatency { path, latency });
    }

    let per_node = timings.into_iter().flatten().collect();
    Ok(LatencyEstimate {
        mean,
        per_path,
        per_node,
    })
}

/// Per-node timing for a packet-size *mixture* (§3.7, extension #2).
///
/// A queued request waits behind the mixture, not behind its own
/// class, so the queueing delay uses the mixture's mean service time
/// scaled by the Pollaczek–Khinchine variability factor
/// `κ = E[S²] / (2·E[S]²)` — equal to 1 for a single exponential
/// class, larger for hyperexponential mixtures of small and large
/// packets.
pub fn mixture_node_timing(
    graph: &ExecutionGraph,
    node: NodeId,
    traffic: &TrafficProfile,
) -> Option<NodeTiming> {
    let params = graph.node(node).params()?;
    let entries = traffic.sizes().entries();
    let mut mean_service = 0.0;
    let mut second_moment = 0.0;
    for (size, p) in entries {
        let g = traffic.granularity_for(*size);
        let s = node_service(graph, node, g)?.as_secs();
        mean_service += p * s;
        // Exponential class service: E[S_i²] = 2·m_i².
        second_moment += p * 2.0 * s * s;
    }
    let kappa = if mean_service > 0.0 {
        second_moment / (2.0 * mean_service * mean_service)
    } else {
        1.0
    };
    // Utilization is size-independent (Eq. 11 uses rates, not sizes),
    // so one queue serves the whole mixture.
    let utilization = node_utilization(graph, node, params, traffic);
    let (base_queue, drop_probability) =
        node_queue(params, utilization, Seconds::new(mean_service));
    Some(NodeTiming {
        node,
        service: Seconds::new(mean_service),
        utilization,
        queueing_delay: base_queue.scaled(kappa),
        drop_probability,
    })
}

/// Estimates the application latency for the full traffic profile: a
/// single evaluation for fixed-size traffic, a `dist_size`-weighted
/// average of per-size estimates for mixtures (Eq. 8 combined with
/// §3.7 extension #2). For mixtures, each class executes and transfers
/// at its own size but queues behind the mixture (see
/// [`mixture_node_timing`]).
///
/// # Errors
///
/// Propagates errors from [`estimate_latency_at`].
///
/// # Examples
///
/// ```
/// use lognic_model::graph::ExecutionGraph;
/// use lognic_model::latency::estimate_latency;
/// use lognic_model::params::{HardwareModel, IpParams, TrafficProfile};
/// use lognic_model::units::{Bandwidth, Bytes};
///
/// # fn main() -> lognic_model::error::LogNicResult<()> {
/// let g = ExecutionGraph::chain("echo", &[("core", IpParams::new(Bandwidth::gbps(10.0)))])?;
/// let hw = HardwareModel::default();
/// let t = TrafficProfile::fixed(Bandwidth::gbps(2.0), Bytes::new(1500));
/// let est = estimate_latency(&g, &hw, &t)?;
/// assert!(est.mean() > lognic_model::units::Seconds::ZERO);
/// # Ok(())
/// # }
/// ```
pub fn estimate_latency(
    graph: &ExecutionGraph,
    hw: &HardwareModel,
    traffic: &TrafficProfile,
) -> LogNicResult<LatencyEstimate> {
    let entries = traffic.sizes().entries().to_vec();
    if entries.len() == 1 {
        let g_in = traffic.granularity_for(entries[0].0);
        return estimate_latency_at(graph, hw, traffic, g_in);
    }
    // Mixture: per-node queueing comes from the mixture service
    // distribution; execution and transfers are per class.
    let timings: Vec<Option<NodeTiming>> = (0..graph.nodes().len())
        .map(|i| mixture_node_timing(graph, NodeId(i), traffic))
        .collect();
    let paths = graph.paths()?;
    let mut per_path = Vec::with_capacity(paths.len());
    let mut mean = Seconds::ZERO;
    for path in paths {
        let mut latency = Seconds::ZERO;
        for (size, weight) in &entries {
            let mut g_cur = traffic.granularity_for(*size);
            let mut class_latency = Seconds::ZERO;
            for eid in &path.edges {
                let src = graph.edge(*eid).src();
                if let Some(t) = &timings[src.index()] {
                    class_latency += t.queueing_delay;
                    if let Some(service) = node_service(graph, src, g_cur) {
                        class_latency += service;
                    }
                }
                if let Some(p) = graph.node(src).params() {
                    class_latency += p.overhead();
                }
                let factor = graph.edge(*eid).params().size_factor();
                g_cur = g_cur.scaled(factor);
                class_latency += edge_transfer_time(graph, *eid, hw, g_cur);
            }
            let last = *path.nodes.last().expect("paths have at least one node");
            if let Some(t) = &timings[last.index()] {
                class_latency += t.queueing_delay;
                if let Some(service) = node_service(graph, last, g_cur) {
                    class_latency += service;
                }
            }
            latency += class_latency.scaled(*weight);
        }
        mean += latency.scaled(path.weight);
        per_path.push(PathLatency { path, latency });
    }
    let per_node = timings.into_iter().flatten().collect();
    Ok(LatencyEstimate {
        mean,
        per_path,
        per_node,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{EdgeParams, IpParams, PacketSizeDist};
    use crate::units::Bandwidth;

    fn hw() -> HardwareModel {
        HardwareModel::new(Bandwidth::gbps(100.0), Bandwidth::gbps(100.0))
    }

    #[test]
    fn single_node_service_time_matches_eq7() {
        // P = 10 Gbps, D = 1, δ = 1, indeg = 1, g = 1250 B = 10 kbit
        // → C = 10e3 / 10e9 = 1 µs.
        let g =
            ExecutionGraph::chain("t", &[("ip", IpParams::new(Bandwidth::gbps(10.0)))]).unwrap();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(1250));
        let node = g.node_by_name("ip").unwrap();
        let t = node_timing(&g, node, &traffic, Bytes::new(1250)).unwrap();
        assert!((t.service.as_micros() - 1.0).abs() < 1e-9);
        assert!((t.utilization - 0.1).abs() < 1e-12);
    }

    #[test]
    fn parallelism_scales_per_request_service_time() {
        // Aggregate P fixed; D engines each run at P/D → request takes
        // D times longer but D run concurrently.
        let params = IpParams::new(Bandwidth::gbps(10.0)).with_parallelism(4);
        let g = ExecutionGraph::chain("t", &[("ip", params)]).unwrap();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(1250));
        let node = g.node_by_name("ip").unwrap();
        let t = node_timing(&g, node, &traffic, Bytes::new(1250)).unwrap();
        assert!((t.service.as_micros() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn pure_movers_have_no_timing() {
        let g = ExecutionGraph::chain("t", &[("ip", IpParams::new(Bandwidth::gbps(1.0)))]).unwrap();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(64));
        assert!(node_timing(&g, g.ingress(), &traffic, Bytes::new(64)).is_none());
        assert!(node_timing(&g, g.egress(), &traffic, Bytes::new(64)).is_none());
    }

    #[test]
    fn edge_transfer_combines_media() {
        let mut b = ExecutionGraph::builder("e");
        let ing = b.ingress("in");
        let ip = b.ip("ip", IpParams::new(Bandwidth::gbps(100.0)));
        let eg = b.egress("out");
        let e1 = b.edge(
            ing,
            ip,
            EdgeParams::full()
                .with_interface_fraction(1.0)
                .with_memory_fraction(1.0),
        );
        b.edge(ip, eg, EdgeParams::full());
        let g = b.build().unwrap();
        let hw = HardwareModel::new(Bandwidth::gbps(10.0), Bandwidth::gbps(20.0));
        // g = 1250 B = 10 kbit: 1 µs over interface + 0.5 µs over memory.
        let t = edge_transfer_time(&g, e1, &hw, Bytes::new(1250));
        assert!((t.as_micros() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn dedicated_link_adds_transfer_time() {
        let mut b = ExecutionGraph::builder("e");
        let ing = b.ingress("in");
        let ip = b.ip("ip", IpParams::new(Bandwidth::gbps(100.0)));
        let eg = b.egress("out");
        let e1 = b.edge(
            ing,
            ip,
            EdgeParams::full()
                .with_interface_fraction(0.0)
                .with_dedicated_bandwidth(Bandwidth::gbps(10.0)),
        );
        b.edge(ip, eg, EdgeParams::full());
        let g = b.build().unwrap();
        let t = edge_transfer_time(&g, e1, &hw(), Bytes::new(1250));
        assert!((t.as_micros() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_accumulates_along_chain() {
        // Two IPs at 10 Gbps each, plus overheads of 1 µs each, light
        // load (queueing ≈ 0 at ρ = 0.01 is small but non-zero).
        let p = IpParams::new(Bandwidth::gbps(10.0)).with_overhead(Seconds::micros(1.0));
        let g = ExecutionGraph::chain("t", &[("a", p), ("b", p)]).unwrap();
        let traffic = TrafficProfile::fixed(Bandwidth::mbps(100.0), Bytes::new(1250));
        let est = estimate_latency(&g, &hw(), &traffic).unwrap();
        // Lower bound: 2 × (C = 1 µs) + 2 × (O = 1 µs) + 3 transfers
        // of 0.1 µs = 4.3 µs.
        assert!(est.mean().as_micros() >= 4.3 - 1e-6);
        assert!(est.mean().as_micros() < 5.0, "queueing at 1% load is small");
        assert_eq!(est.per_path().len(), 1);
        assert_eq!(est.per_node().len(), 2);
    }

    #[test]
    fn queueing_grows_with_load() {
        let p = IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(64);
        let g = ExecutionGraph::chain("t", &[("a", p)]).unwrap();
        let low = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(1250));
        let high = TrafficProfile::fixed(Bandwidth::gbps(9.5), Bytes::new(1250));
        let l = estimate_latency(&g, &hw(), &low).unwrap();
        let h = estimate_latency(&g, &hw(), &high).unwrap();
        assert!(h.mean() > l.mean(), "latency must grow with utilization");
        let ht = h.node_timing(g.node_by_name("a").unwrap()).unwrap();
        assert!(ht.utilization > 0.9);
        assert!(ht.drop_probability > 0.0);
    }

    #[test]
    fn overload_latency_is_finite() {
        let p = IpParams::new(Bandwidth::gbps(1.0)).with_queue_capacity(16);
        let g = ExecutionGraph::chain("t", &[("a", p)]).unwrap();
        let t = TrafficProfile::fixed(Bandwidth::gbps(50.0), Bytes::new(1250));
        let est = estimate_latency(&g, &hw(), &t).unwrap();
        assert!(!est.mean().is_infinite());
        // Bounded by N−1 = 15 services + service + overheads.
        let timing = est.node_timing(g.node_by_name("a").unwrap()).unwrap();
        assert!(timing.drop_probability > 0.9);
    }

    #[test]
    fn multi_path_weighting() {
        // Fast path (90%) and slow path (10%).
        let mut b = ExecutionGraph::builder("w");
        let ing = b.ingress("in");
        let fast = b.ip("fast", IpParams::new(Bandwidth::gbps(100.0)));
        let slow = b.ip("slow", IpParams::new(Bandwidth::gbps(1.0)));
        let eg = b.egress("out");
        b.edge(ing, fast, EdgeParams::new(0.9).unwrap());
        b.edge(ing, slow, EdgeParams::new(0.1).unwrap());
        b.edge(fast, eg, EdgeParams::new(0.9).unwrap());
        b.edge(slow, eg, EdgeParams::new(0.1).unwrap());
        let g = b.build().unwrap();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(0.5), Bytes::new(1250));
        let est = estimate_latency(&g, &hw(), &traffic).unwrap();
        assert_eq!(est.per_path().len(), 2);
        let weighted: f64 = est
            .per_path()
            .iter()
            .map(|p| p.latency.as_secs() * p.path.weight)
            .sum();
        assert!((weighted - est.mean().as_secs()).abs() < 1e-12);
        assert!(est.max_path() >= est.mean());
    }

    #[test]
    fn mixed_sizes_queue_behind_the_mixture() {
        // A size mixture queues each class behind the *mixture's*
        // service distribution (hyperexponential), so the mean latency
        // exceeds the naive weighted average of the per-size runs.
        let p = IpParams::new(Bandwidth::gbps(10.0));
        let g = ExecutionGraph::chain("t", &[("a", p)]).unwrap();
        let small = TrafficProfile::fixed(Bandwidth::gbps(6.0), Bytes::new(64));
        let large = TrafficProfile::fixed(Bandwidth::gbps(6.0), Bytes::new(1500));
        let mix = TrafficProfile::new(
            Bandwidth::gbps(6.0),
            PacketSizeDist::mix([(Bytes::new(64), 0.5), (Bytes::new(1500), 0.5)]).unwrap(),
        );
        let ls = estimate_latency(&g, &hw(), &small).unwrap().mean();
        let ll = estimate_latency(&g, &hw(), &large).unwrap().mean();
        let lm = estimate_latency(&g, &hw(), &mix).unwrap().mean();
        let naive = 0.5 * ls.as_secs() + 0.5 * ll.as_secs();
        assert!(
            lm.as_secs() > naive,
            "mixture {lm} must exceed naive {naive}"
        );
        // Pollaczek-Khinchine hand check at rho = 0.6, N = 16:
        // E[S] = 0.625us, kappa = 1.847 -> Q ~ 1.7us; total ~ 2.3us.
        assert!((lm.as_micros() - 2.36).abs() < 0.35, "lm = {lm}");
    }

    #[test]
    fn mixture_timing_reduces_to_single_class() {
        // kappa = 1 for a single exponential class: mixture timing and
        // plain timing agree.
        let p = IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(32);
        let g = ExecutionGraph::chain("t", &[("a", p)]).unwrap();
        let t = TrafficProfile::fixed(Bandwidth::gbps(6.0), Bytes::new(1000));
        let node = g.node_by_name("a").unwrap();
        let plain = node_timing(&g, node, &t, Bytes::new(1000)).unwrap();
        let mixed = mixture_node_timing(&g, node, &t).unwrap();
        assert!((plain.service.as_secs() - mixed.service.as_secs()).abs() < 1e-15);
        assert!((plain.queueing_delay.as_secs() - mixed.queueing_delay.as_secs()).abs() < 1e-12);
    }

    #[test]
    fn granularity_override_applies() {
        // NVMe-style: 4 KB commands even though packets are 1500 B.
        let p = IpParams::new(Bandwidth::gbps(10.0));
        let g = ExecutionGraph::chain("t", &[("a", p)]).unwrap();
        let base = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(1500));
        let nvme = base.clone().with_granularity(Bytes::kib(4));
        let lb = estimate_latency(&g, &hw(), &base).unwrap().mean();
        let ln = estimate_latency(&g, &hw(), &nvme).unwrap().mean();
        assert!(ln > lb, "larger granularity → longer service time");
    }
}
