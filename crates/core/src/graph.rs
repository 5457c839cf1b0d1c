//! The software execution graph (§3.3).
//!
//! A SmartNIC-offloaded program is a directed acyclic graph whose
//! vertices are ingress/egress engines and IP blocks, and whose edges
//! are data movements over a communication medium (interface, memory,
//! or a dedicated IP-IP link). Packets flow from the ingress vertex to
//! the egress vertex; fan-out vertices split traffic according to the
//! per-edge data-transfer ratios `δ`.

use crate::error::{LogNicError, LogNicResult};
use crate::params::{EdgeParams, IpParams};
use crate::units::Bandwidth;

/// Identifier of a vertex within one [`ExecutionGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index of the vertex.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of an edge within one [`ExecutionGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) usize);

impl EdgeId {
    /// The raw index of the edge.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The role a vertex plays in the hardware model (Fig. 2a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The engine moving traffic from wire/PCIe into the SmartNIC.
    Ingress,
    /// The engine moving traffic out of the SmartNIC.
    Egress,
    /// An IP block: CPU complex, accelerator, DSP, DMA engine, SSD, …
    Ip,
    /// A rate-limiter pseudo-IP inserted in front of a
    /// non-work-conserving engine (§3.7, extension #3). It only
    /// enqueues/dequeues: zero service time, finite queue.
    RateLimiter,
}

/// A vertex of the execution graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    name: String,
    kind: NodeKind,
    params: Option<IpParams>,
}

impl Node {
    /// The human-readable vertex name (unique within a graph is
    /// recommended but not required).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The vertex role.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// The software parameters, when the vertex performs computation.
    /// Ingress/egress vertices without explicit parameters act as pure
    /// data movers.
    pub fn params(&self) -> Option<&IpParams> {
        self.params.as_ref()
    }
}

/// An edge of the execution graph: a data movement from one vertex to
/// another across a communication medium.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    src: NodeId,
    dst: NodeId,
    params: EdgeParams,
}

impl Edge {
    /// The source vertex.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// The destination vertex.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// The edge parameters (`δ`, `α`, `β`, `BW_mn`).
    pub fn params(&self) -> &EdgeParams {
        &self.params
    }
}

/// Builder for [`ExecutionGraph`]; see the graph type for an example.
#[derive(Debug, Clone)]
pub struct ExecutionGraphBuilder {
    name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    ingress: Option<NodeId>,
    egress: Option<NodeId>,
}

impl ExecutionGraphBuilder {
    fn new(name: &str) -> Self {
        ExecutionGraphBuilder {
            name: name.to_owned(),
            nodes: Vec::new(),
            edges: Vec::new(),
            ingress: None,
            egress: None,
        }
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// Adds the ingress engine vertex. A graph has exactly one.
    ///
    /// # Panics
    ///
    /// Panics if an ingress was already added.
    pub fn ingress(&mut self, name: &str) -> NodeId {
        assert!(
            self.ingress.is_none(),
            "graph already has an ingress vertex"
        );
        let id = self.push_node(Node {
            name: name.to_owned(),
            kind: NodeKind::Ingress,
            params: None,
        });
        self.ingress = Some(id);
        id
    }

    /// Adds the egress engine vertex. A graph has exactly one.
    ///
    /// # Panics
    ///
    /// Panics if an egress was already added.
    pub fn egress(&mut self, name: &str) -> NodeId {
        assert!(self.egress.is_none(), "graph already has an egress vertex");
        let id = self.push_node(Node {
            name: name.to_owned(),
            kind: NodeKind::Egress,
            params: None,
        });
        self.egress = Some(id);
        id
    }

    /// Adds an IP vertex with the given software parameters.
    pub fn ip(&mut self, name: &str, params: IpParams) -> NodeId {
        self.push_node(Node {
            name: name.to_owned(),
            kind: NodeKind::Ip,
            params: Some(params),
        })
    }

    /// Adds a rate-limiter pseudo-IP (§3.7 extension #3): a traffic
    /// shaper inserted in front of a non-work-conserving engine. It
    /// only enqueues/dequeues at the shaped `rate`, and its
    /// fixed-capacity queue captures the downstream engine's idleness.
    pub fn rate_limiter(&mut self, name: &str, rate: Bandwidth, queue_capacity: u32) -> NodeId {
        let params = IpParams::new(rate).with_queue_capacity(queue_capacity);
        self.push_node(Node {
            name: name.to_owned(),
            kind: NodeKind::RateLimiter,
            params: Some(params),
        })
    }

    /// Adds an edge from `src` to `dst` with the given parameters.
    pub fn edge(&mut self, src: NodeId, dst: NodeId, params: EdgeParams) -> EdgeId {
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { src, dst, params });
        id
    }

    /// Validates the graph and freezes it.
    ///
    /// # Errors
    ///
    /// * [`LogNicError::EmptyGraph`] — no vertices.
    /// * [`LogNicError::MissingIngress`] / [`LogNicError::MissingEgress`].
    /// * [`LogNicError::NodeIndexOutOfRange`] — an edge references a foreign id.
    /// * [`LogNicError::CycleDetected`] — the graph is not a DAG.
    /// * [`LogNicError::NoPath`] — egress unreachable from ingress.
    /// * [`LogNicError::Disconnected`] — a vertex off the data path.
    pub fn build(self) -> LogNicResult<ExecutionGraph> {
        if self.nodes.is_empty() {
            return Err(LogNicError::EmptyGraph);
        }
        let ingress = self.ingress.ok_or(LogNicError::MissingIngress)?;
        let egress = self.egress.ok_or(LogNicError::MissingEgress)?;
        for e in &self.edges {
            for id in [e.src, e.dst] {
                if id.0 >= self.nodes.len() {
                    return Err(LogNicError::NodeIndexOutOfRange { index: id.0 });
                }
            }
        }
        let graph = ExecutionGraph {
            name: self.name,
            nodes: self.nodes,
            edges: self.edges,
            ingress,
            egress,
        };
        graph.check_acyclic()?;
        graph.check_connected()?;
        Ok(graph)
    }
}

/// A validated software execution graph.
///
/// # Examples
///
/// Build the Fig. 2c NVMe-oF target graph skeleton:
///
/// ```
/// use lognic_model::graph::ExecutionGraph;
/// use lognic_model::params::{EdgeParams, IpParams};
/// use lognic_model::units::Bandwidth;
///
/// # fn main() -> lognic_model::error::LogNicResult<()> {
/// let mut g = ExecutionGraph::builder("nvmeof-target");
/// let ing = g.ingress("eth-ingress");
/// let ip1 = g.ip("nic-core-submit", IpParams::new(Bandwidth::gbps(30.0)));
/// let ssd = g.ip("nvme-ssd", IpParams::new(Bandwidth::gbps(24.0)));
/// let ip3 = g.ip("nic-core-complete", IpParams::new(Bandwidth::gbps(30.0)));
/// let eg = g.egress("eth-egress");
/// g.edge(ing, ip1, EdgeParams::full());
/// g.edge(ip1, ssd, EdgeParams::full().with_memory_fraction(1.0));
/// g.edge(ssd, ip3, EdgeParams::full().with_memory_fraction(1.0));
/// g.edge(ip3, eg, EdgeParams::full());
/// let graph = g.build()?;
/// assert_eq!(graph.paths()?.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionGraph {
    name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    ingress: NodeId,
    egress: NodeId,
}

/// One ingress→egress path with its traffic weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Edge ids in traversal order.
    pub edges: Vec<EdgeId>,
    /// Vertex ids in traversal order (`edges.len() + 1` entries).
    pub nodes: Vec<NodeId>,
    /// The fraction of traffic following this path (`w_Pk`), computed
    /// from the `δ` partition ratios at each fan-out vertex.
    pub weight: f64,
}

impl ExecutionGraph {
    /// Starts building a graph with the given program name.
    pub fn builder(name: &str) -> ExecutionGraphBuilder {
        ExecutionGraphBuilder::new(name)
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All vertices, indexable by [`NodeId::index`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All edges, indexable by [`EdgeId::index`].
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The ingress vertex id.
    pub fn ingress(&self) -> NodeId {
        self.ingress
    }

    /// The egress vertex id.
    pub fn egress(&self) -> NodeId {
        self.egress
    }

    /// The vertex with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// Looks a vertex up by name (first match).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Ids of edges arriving at `id`.
    pub fn in_edges(&self, id: NodeId) -> Vec<EdgeId> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.dst == id)
            .map(|(i, _)| EdgeId(i))
            .collect()
    }

    /// Ids of edges leaving `id`.
    pub fn out_edges(&self, id: NodeId) -> Vec<EdgeId> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.src == id)
            .map(|(i, _)| EdgeId(i))
            .collect()
    }

    /// The in-degree of a vertex.
    pub fn indegree(&self, id: NodeId) -> usize {
        self.edges.iter().filter(|e| e.dst == id).count()
    }

    /// Sum of `δ` over the edges arriving at `id` (`Σ δ_{e_ji}` in
    /// Eq. 1).
    pub fn delta_in_sum(&self, id: NodeId) -> f64 {
        self.edges
            .iter()
            .filter(|e| e.dst == id)
            .map(|e| e.params.delta())
            .sum()
    }

    /// Sum of `δ` over the edges leaving `id`.
    pub fn delta_out_sum(&self, id: NodeId) -> f64 {
        self.edges
            .iter()
            .filter(|e| e.src == id)
            .map(|e| e.params.delta())
            .sum()
    }

    /// Replaces the software parameters of an IP vertex. Used by the
    /// optimizer to explore configurations.
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::NodeIndexOutOfRange`] if `id` is out of range, or
    /// [`LogNicError::InvalidParameter`] if the vertex is an
    /// ingress/egress engine without parameters.
    pub fn set_ip_params(&mut self, id: NodeId, params: IpParams) -> LogNicResult<()> {
        let node = self
            .nodes
            .get_mut(id.0)
            .ok_or(LogNicError::NodeIndexOutOfRange { index: id.0 })?;
        node.params = Some(params);
        Ok(())
    }

    /// Replaces the parameters of an edge. Used by the optimizer to
    /// explore traffic splits.
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::NodeIndexOutOfRange`] if `id` is out of range.
    pub fn set_edge_params(&mut self, id: EdgeId, params: EdgeParams) -> LogNicResult<()> {
        let edge = self
            .edges
            .get_mut(id.0)
            .ok_or(LogNicError::NodeIndexOutOfRange { index: id.0 })?;
        edge.params = params;
        Ok(())
    }

    /// A topological order of the vertices.
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::CycleDetected`] if the graph is cyclic
    /// (cannot happen for graphs built through [`Self::builder`]).
    pub fn topological_order(&self) -> LogNicResult<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.dst.0] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(NodeId(i));
            for e in &self.edges {
                if e.src.0 == i {
                    indeg[e.dst.0] -= 1;
                    if indeg[e.dst.0] == 0 {
                        queue.push(e.dst.0);
                    }
                }
            }
        }
        if order.len() != n {
            let node = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| self.nodes[i].name.clone())
                .unwrap_or_default();
            return Err(LogNicError::CycleDetected { node });
        }
        Ok(order)
    }

    fn check_acyclic(&self) -> LogNicResult<()> {
        self.topological_order().map(|_| ())
    }

    fn check_connected(&self) -> LogNicResult<()> {
        let n = self.nodes.len();
        // Forward reachability from ingress.
        let mut fwd = vec![false; n];
        let mut stack = vec![self.ingress.0];
        while let Some(i) = stack.pop() {
            if fwd[i] {
                continue;
            }
            fwd[i] = true;
            for e in &self.edges {
                if e.src.0 == i {
                    stack.push(e.dst.0);
                }
            }
        }
        if !fwd[self.egress.0] {
            return Err(LogNicError::NoPath);
        }
        // Backward reachability from egress.
        let mut bwd = vec![false; n];
        let mut stack = vec![self.egress.0];
        while let Some(i) = stack.pop() {
            if bwd[i] {
                continue;
            }
            bwd[i] = true;
            for e in &self.edges {
                if e.dst.0 == i {
                    stack.push(e.src.0);
                }
            }
        }
        if let Some(i) = (0..n).find(|&i| !(fwd[i] && bwd[i])) {
            return Err(LogNicError::Disconnected {
                node: self.nodes[i].name.clone(),
            });
        }
        Ok(())
    }

    /// Enumerates every ingress→egress path with its traffic weight
    /// `w_Pk` (§3.6, Eq. 8).
    ///
    /// At each fan-out vertex the probability of taking edge `e` is
    /// `δ_e / Σ δ_out`; when all outgoing `δ` are zero, traffic splits
    /// equally.
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::NoPath`] when no path exists (cannot
    /// happen for graphs built through [`Self::builder`]).
    pub fn paths(&self) -> LogNicResult<Vec<Path>> {
        let mut out = Vec::new();
        let mut edge_stack: Vec<EdgeId> = Vec::new();
        self.walk_paths(self.ingress, 1.0, &mut edge_stack, &mut out);
        if out.is_empty() {
            return Err(LogNicError::NoPath);
        }
        Ok(out)
    }

    fn walk_paths(
        &self,
        at: NodeId,
        weight: f64,
        edge_stack: &mut Vec<EdgeId>,
        out: &mut Vec<Path>,
    ) {
        if at == self.egress {
            let mut nodes = vec![self.ingress];
            for eid in edge_stack.iter() {
                nodes.push(self.edges[eid.0].dst);
            }
            out.push(Path {
                edges: edge_stack.clone(),
                nodes,
                weight,
            });
            return;
        }
        let outs = self.out_edges(at);
        if outs.is_empty() {
            return;
        }
        let total: f64 = outs.iter().map(|e| self.edges[e.0].params.delta()).sum();
        for eid in outs.iter() {
            let delta = self.edges[eid.0].params.delta();
            let frac = if total > 0.0 {
                delta / total
            } else {
                1.0 / outs.len() as f64
            };
            if frac == 0.0 {
                continue;
            }
            edge_stack.push(*eid);
            self.walk_paths(self.edges[eid.0].dst, weight * frac, edge_stack, out);
            edge_stack.pop();
        }
    }

    /// Renders the graph in Graphviz DOT format: vertices labelled
    /// with their role and capacity, edges with their `δ/α/β`
    /// fractions. Pipe into `dot -Tsvg` to visualize a program.
    ///
    /// # Examples
    ///
    /// ```
    /// use lognic_model::graph::ExecutionGraph;
    /// use lognic_model::params::IpParams;
    /// use lognic_model::units::Bandwidth;
    ///
    /// # fn main() -> lognic_model::error::LogNicResult<()> {
    /// let g = ExecutionGraph::chain("demo", &[("ip", IpParams::new(Bandwidth::gbps(5.0)))])?;
    /// let dot = g.to_dot();
    /// assert!(dot.starts_with("digraph"));
    /// assert!(dot.contains("ip"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_dot(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", self.name);
        let _ = writeln!(out, "  rankdir=LR;");
        for (i, n) in self.nodes.iter().enumerate() {
            let (shape, extra) = match n.kind() {
                NodeKind::Ingress => ("cds", String::new()),
                NodeKind::Egress => ("cds", String::new()),
                NodeKind::RateLimiter => (
                    "hexagon",
                    n.params()
                        .map(|p| format!("\\n{}", p.peak()))
                        .unwrap_or_default(),
                ),
                NodeKind::Ip => (
                    "box",
                    n.params()
                        .map(|p| {
                            format!(
                                "\\n{} x{} q{}",
                                p.peak(),
                                p.parallelism(),
                                p.queue_capacity()
                            )
                        })
                        .unwrap_or_default(),
                ),
            };
            let _ = writeln!(
                out,
                "  n{i} [shape={shape}, label=\"{}{extra}\"];",
                n.name()
            );
        }
        for e in &self.edges {
            let p = e.params();
            let mut label = format!("d={:.2}", p.delta());
            if p.interface_fraction() > 0.0 {
                let _ = write!(label, " a={:.2}", p.interface_fraction());
            }
            if p.memory_fraction() > 0.0 {
                let _ = write!(label, " b={:.2}", p.memory_fraction());
            }
            if let Some(bw) = p.dedicated_bandwidth() {
                let _ = write!(label, " bw={bw}");
            }
            let _ = writeln!(
                out,
                "  n{} -> n{} [label=\"{label}\"];",
                e.src().index(),
                e.dst().index()
            );
        }
        out.push_str("}\n");
        out
    }

    /// Builds a simple linear chain `ingress → ip_1 → … → ip_n →
    /// egress` where every edge carries the full traffic over the
    /// interface. A convenience for tests and simple pipelines.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`ExecutionGraphBuilder::build`].
    pub fn chain(name: &str, stages: &[(&str, IpParams)]) -> LogNicResult<ExecutionGraph> {
        let mut b = ExecutionGraph::builder(name);
        let ing = b.ingress("ingress");
        let mut prev = ing;
        for (stage_name, params) in stages {
            let ip = b.ip(stage_name, *params);
            b.edge(prev, ip, EdgeParams::full());
            prev = ip;
        }
        let eg = b.egress("egress");
        b.edge(prev, eg, EdgeParams::full());
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Bandwidth;

    fn ip(p: f64) -> IpParams {
        IpParams::new(Bandwidth::gbps(p))
    }

    fn simple_chain() -> ExecutionGraph {
        ExecutionGraph::chain("t", &[("a", ip(10.0)), ("b", ip(20.0))]).unwrap()
    }

    #[test]
    fn chain_builds_and_validates() {
        let g = simple_chain();
        assert_eq!(g.nodes().len(), 4);
        assert_eq!(g.edges().len(), 3);
        assert_eq!(g.node(g.ingress()).kind(), NodeKind::Ingress);
        assert_eq!(g.node(g.egress()).kind(), NodeKind::Egress);
        assert_eq!(g.name(), "t");
    }

    #[test]
    fn node_lookup_by_name() {
        let g = simple_chain();
        let a = g.node_by_name("a").unwrap();
        assert_eq!(g.node(a).name(), "a");
        assert!(g.node_by_name("zzz").is_none());
    }

    #[test]
    fn degrees_and_delta_sums() {
        let g = simple_chain();
        let a = g.node_by_name("a").unwrap();
        assert_eq!(g.indegree(a), 1);
        assert_eq!(g.in_edges(a).len(), 1);
        assert_eq!(g.out_edges(a).len(), 1);
        assert!((g.delta_in_sum(a) - 1.0).abs() < 1e-12);
        assert!((g.delta_out_sum(a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_rejected() {
        let b = ExecutionGraph::builder("e");
        assert_eq!(b.build().unwrap_err(), LogNicError::EmptyGraph);
    }

    #[test]
    fn missing_ingress_egress_rejected() {
        let mut b = ExecutionGraph::builder("e");
        b.egress("out");
        assert_eq!(b.build().unwrap_err(), LogNicError::MissingIngress);

        let mut b = ExecutionGraph::builder("e");
        b.ingress("in");
        assert_eq!(b.build().unwrap_err(), LogNicError::MissingEgress);
    }

    #[test]
    fn cycle_rejected() {
        let mut b = ExecutionGraph::builder("c");
        let ing = b.ingress("in");
        let a = b.ip("a", ip(1.0));
        let c = b.ip("c", ip(1.0));
        let eg = b.egress("out");
        b.edge(ing, a, EdgeParams::full());
        b.edge(a, c, EdgeParams::full());
        b.edge(c, a, EdgeParams::full()); // cycle a -> c -> a
        b.edge(c, eg, EdgeParams::full());
        assert!(matches!(b.build(), Err(LogNicError::CycleDetected { .. })));
    }

    #[test]
    fn unreachable_egress_rejected() {
        let mut b = ExecutionGraph::builder("u");
        b.ingress("in");
        b.egress("out");
        assert_eq!(b.build().unwrap_err(), LogNicError::NoPath);
    }

    #[test]
    fn dangling_node_rejected() {
        let mut b = ExecutionGraph::builder("d");
        let ing = b.ingress("in");
        let eg = b.egress("out");
        b.ip("orphan", ip(1.0));
        b.edge(ing, eg, EdgeParams::full());
        assert!(matches!(b.build(), Err(LogNicError::Disconnected { node }) if node == "orphan"));
    }

    #[test]
    fn single_path_weight_is_one() {
        let g = simple_chain();
        let paths = g.paths().unwrap();
        assert_eq!(paths.len(), 1);
        assert!((paths[0].weight - 1.0).abs() < 1e-12);
        assert_eq!(paths[0].nodes.len(), 4);
        assert_eq!(paths[0].edges.len(), 3);
    }

    #[test]
    fn fanout_path_weights_follow_delta() {
        // ingress -> a -> {b (0.75), c (0.25)} -> egress
        let mut bld = ExecutionGraph::builder("f");
        let ing = bld.ingress("in");
        let a = bld.ip("a", ip(10.0));
        let b = bld.ip("b", ip(10.0));
        let c = bld.ip("c", ip(10.0));
        let eg = bld.egress("out");
        bld.edge(ing, a, EdgeParams::full());
        bld.edge(a, b, EdgeParams::new(0.75).unwrap());
        bld.edge(a, c, EdgeParams::new(0.25).unwrap());
        bld.edge(b, eg, EdgeParams::new(0.75).unwrap());
        bld.edge(c, eg, EdgeParams::new(0.25).unwrap());
        let g = bld.build().unwrap();
        let mut paths = g.paths().unwrap();
        paths.sort_by(|x, y| y.weight.partial_cmp(&x.weight).unwrap());
        assert_eq!(paths.len(), 2);
        assert!((paths[0].weight - 0.75).abs() < 1e-12);
        assert!((paths[1].weight - 0.25).abs() < 1e-12);
        let total: f64 = paths.iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_delta_fanout_splits_equally() {
        let mut bld = ExecutionGraph::builder("z");
        let ing = bld.ingress("in");
        let b = bld.ip("b", ip(10.0));
        let c = bld.ip("c", ip(10.0));
        let eg = bld.egress("out");
        bld.edge(ing, b, EdgeParams::new(0.0).unwrap());
        bld.edge(ing, c, EdgeParams::new(0.0).unwrap());
        bld.edge(b, eg, EdgeParams::new(0.0).unwrap());
        bld.edge(c, eg, EdgeParams::new(0.0).unwrap());
        let g = bld.build().unwrap();
        let paths = g.paths().unwrap();
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert!((p.weight - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = simple_chain();
        let order = g.topological_order().unwrap();
        let pos: Vec<usize> = {
            let mut pos = vec![0; g.nodes().len()];
            for (rank, id) in order.iter().enumerate() {
                pos[id.index()] = rank;
            }
            pos
        };
        for e in g.edges() {
            assert!(pos[e.src().index()] < pos[e.dst().index()]);
        }
    }

    #[test]
    fn set_ip_params_updates_node() {
        let mut g = simple_chain();
        let a = g.node_by_name("a").unwrap();
        g.set_ip_params(a, ip(99.0)).unwrap();
        assert_eq!(g.node(a).params().unwrap().peak(), Bandwidth::gbps(99.0));
        assert!(matches!(
            g.set_ip_params(NodeId(1000), ip(1.0)),
            Err(LogNicError::NodeIndexOutOfRange { index: 1000 })
        ));
    }

    #[test]
    fn set_edge_params_updates_edge() {
        let mut g = simple_chain();
        let e = g.out_edges(g.ingress())[0];
        g.set_edge_params(e, EdgeParams::new(0.5).unwrap()).unwrap();
        assert!((g.edge(e).params().delta() - 0.5).abs() < 1e-12);
        assert!(g.set_edge_params(EdgeId(1000), EdgeParams::full()).is_err());
    }

    #[test]
    fn rate_limiter_node_kind() {
        let mut b = ExecutionGraph::builder("rl");
        let ing = b.ingress("in");
        let rl = b.rate_limiter("limiter", Bandwidth::gbps(5.0), 4);
        let a = b.ip("a", ip(10.0));
        let eg = b.egress("out");
        b.edge(ing, rl, EdgeParams::full());
        b.edge(rl, a, EdgeParams::full());
        b.edge(a, eg, EdgeParams::full());
        let g = b.build().unwrap();
        let rl_node = g.node(rl);
        assert_eq!(rl_node.kind(), NodeKind::RateLimiter);
        assert_eq!(rl_node.params().unwrap().queue_capacity(), 4);
    }

    #[test]
    fn dot_export_contains_every_node_and_edge() {
        let mut b = ExecutionGraph::builder("dot");
        let ing = b.ingress("in");
        let a = b.ip("worker", ip(5.0));
        let rl = b.rate_limiter("shaper", Bandwidth::gbps(2.0), 4);
        let eg = b.egress("out");
        b.edge(ing, rl, EdgeParams::full());
        b.edge(
            rl,
            a,
            EdgeParams::full()
                .with_memory_fraction(0.5)
                .with_dedicated_bandwidth(Bandwidth::gbps(9.0)),
        );
        b.edge(a, eg, EdgeParams::new(0.5).unwrap());
        let g = b.build().unwrap();
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph \"dot\""));
        for name in ["in", "worker", "shaper", "out"] {
            assert!(dot.contains(name), "missing {name} in {dot}");
        }
        assert_eq!(dot.matches(" -> ").count(), 3);
        assert!(dot.contains("hexagon"), "rate limiter styled distinctly");
        assert!(dot.contains("b=0.50"), "memory fraction labelled");
        assert!(dot.contains("bw=9.000Gbps"), "dedicated link labelled");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn diamond_with_both_branches_counts_two_paths() {
        // The NVMe-oF style: ing -> ip1 -> ssd -> ip3 -> eg plus a
        // bypass ip1 -> ip3.
        let mut b = ExecutionGraph::builder("d");
        let ing = b.ingress("in");
        let ip1 = b.ip("ip1", ip(10.0));
        let ssd = b.ip("ssd", ip(5.0));
        let ip3 = b.ip("ip3", ip(10.0));
        let eg = b.egress("out");
        b.edge(ing, ip1, EdgeParams::full());
        b.edge(ip1, ssd, EdgeParams::new(0.8).unwrap());
        b.edge(ip1, ip3, EdgeParams::new(0.2).unwrap());
        b.edge(ssd, ip3, EdgeParams::new(0.8).unwrap());
        b.edge(ip3, eg, EdgeParams::full());
        let g = b.build().unwrap();
        let paths = g.paths().unwrap();
        assert_eq!(paths.len(), 2);
        let total: f64 = paths.iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
