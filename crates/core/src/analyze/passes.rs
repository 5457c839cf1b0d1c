//! The analysis passes.
//!
//! Each pass inspects one aspect of a scenario description and emits
//! [`Diagnostic`]s at their codes' default severities; the analyzer
//! applies the run's [`crate::analyze::AnalysisConfig`] afterwards.
//! The registry order is stable: conservation, saturation, deadlock,
//! units, consolidation, faults.

use crate::analyze::diag::{Code, Diagnostic, Span};
use crate::analyze::flow::FLOW_EPS;
use crate::analyze::PassContext;
use crate::graph::{EdgeId, NodeId, NodeKind};
use crate::throughput::{estimate_throughput, Component};

/// Tolerance for δ/γ comparisons, matching the historical lint.
const EPS: f64 = 1e-9;

/// The utilization above which `L0202 near-saturation` fires
/// (`L0201` fires at ρ ≥ 1).
const NEAR_SATURATION: f64 = 0.9;

/// One registered analysis pass.
pub(crate) trait Pass {
    /// The stable pass name (used in documentation and `--list`).
    fn name(&self) -> &'static str;
    /// Runs the pass, appending findings to `out`.
    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>);
}

/// The built-in registry, in execution order.
pub(crate) fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(Conservation),
        Box::new(Saturation),
        Box::new(Deadlock),
        Box::new(Units),
        Box::new(Consolidation),
        Box::new(Faults),
    ]
}

fn node_span(cx: &PassContext<'_>, id: NodeId) -> Span {
    Span::Node {
        id,
        name: cx.graph.node(id).name().to_owned(),
    }
}

fn edge_span(cx: &PassContext<'_>, id: EdgeId) -> Span {
    let e = cx.graph.edge(id);
    Span::Edge {
        id,
        src: cx.graph.node(e.src()).name().to_owned(),
        dst: cx.graph.node(e.dst()).name().to_owned(),
    }
}

/// Traffic conservation: forward δ-flow propagation (L0101–L0104).
///
/// Subsumes the historical `AmplifyingNode`, `StarvedNode` and
/// `MediumOnEmptyEdge` lints, and adds loss accounting: per vertex,
/// the declared outgoing `Σδ` is compared against the incoming `Σδ`,
/// and the propagated flow decides whether traffic actually reaches a
/// vertex (a vertex whose upstream is starved is itself starved, even
/// when its own in-edge declares `δ > 0`).
struct Conservation;

impl Pass for Conservation {
    fn name(&self) -> &'static str {
        "traffic-conservation"
    }

    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
        for (i, node) in cx.graph.nodes().iter().enumerate() {
            let id = NodeId(i);
            if matches!(node.kind(), NodeKind::Ingress | NodeKind::Egress) {
                continue;
            }
            let din = cx.graph.delta_in_sum(id);
            let dout = cx.graph.delta_out_sum(id);
            if dout > din + EPS {
                out.push(
                    Diagnostic::new(
                        Code::TrafficCreated,
                        node_span(cx, id),
                        format!(
                            "node `{}` emits more traffic than it receives \
                             (Σδ_out {dout:.3} > Σδ_in {din:.3})",
                            node.name()
                        ),
                    )
                    .with_label(
                        Span::Graph,
                        format!(
                            "{:.3} of the ingress volume is created out of thin air",
                            dout - din
                        ),
                    )
                    .with_help(
                        "balance Σδ_out against Σδ_in, or fold internal amplification \
                         into the edge's α/β fractions (§4.7)",
                    ),
                );
            } else if din > dout + EPS && !cx.graph.out_edges(id).is_empty() {
                out.push(
                    Diagnostic::new(
                        Code::TrafficLost,
                        node_span(cx, id),
                        format!(
                            "node `{}` forwards less traffic than it receives \
                             (Σδ_out {dout:.3} < Σδ_in {din:.3})",
                            node.name()
                        ),
                    )
                    .with_help(
                        "normal for filters and caches; raise L0102 to `warn` to \
                         audit traffic loss",
                    ),
                );
            }
            if !cx.flow.reaches(id) {
                let mut d = Diagnostic::new(
                    Code::StarvedNode,
                    node_span(cx, id),
                    format!("node `{}` receives no traffic", node.name()),
                );
                if din > EPS {
                    d = d.with_label(
                        Span::Graph,
                        format!(
                            "its incoming Σδ is {din:.3}, but every upstream vertex \
                             is itself starved"
                        ),
                    );
                }
                out.push(d.with_help("give the vertex an incoming edge with a positive δ"));
            }
        }
        for (i, e) in cx.graph.edges().iter().enumerate() {
            let p = e.params();
            if p.delta() <= EPS && (p.interface_fraction() > EPS || p.memory_fraction() > EPS) {
                out.push(
                    Diagnostic::new(
                        Code::MediumOnEmptyEdge,
                        edge_span(cx, EdgeId(i)),
                        format!(
                            "edge #{i} declares medium usage (α = {:.3}, β = {:.3}) \
                             but carries no traffic (δ = 0)",
                            p.interface_fraction(),
                            p.memory_fraction()
                        ),
                    )
                    .with_help(
                        "the Eq. 2 bounds are charged for data that never flows; \
                         drop the α/β fractions or give the edge a positive δ",
                    ),
                );
            }
        }
    }
}

/// Static saturation: per-component ρ from the Eq. 1–4 bounds
/// (L0201–L0202). Requires a hardware model and a traffic profile.
struct Saturation;

impl Pass for Saturation {
    fn name(&self) -> &'static str {
        "static-saturation"
    }

    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
        let (Some(hw), Some(traffic)) = (cx.hw, cx.traffic) else {
            return;
        };
        let Ok(est) = estimate_throughput(cx.graph, hw, traffic) else {
            return;
        };
        let offered = traffic.ingress_bandwidth();
        for bound in est.bounds() {
            let (span, resource) = match &bound.component {
                Component::Node(id, _) => (node_span(cx, *id), "compute"),
                Component::Edge(id) => (edge_span(cx, *id), "dedicated link"),
                Component::Interface => (
                    Span::Hardware {
                        medium: "interface",
                    },
                    "interface",
                ),
                Component::Memory => (Span::Hardware { medium: "memory" }, "memory"),
                Component::OfferedLoad => continue,
            };
            let rho = if bound.limit.as_bps() > 0.0 {
                offered.as_bps() / bound.limit.as_bps()
            } else {
                f64::INFINITY
            };
            if rho >= 1.0 - EPS {
                out.push(
                    Diagnostic::new(
                        Code::SaturatedPartition,
                        span,
                        format!(
                            "{} saturates before simulation: ρ = {rho:.2} \
                             (binding resource: {resource})",
                            bound.component
                        ),
                    )
                    .with_label(
                        Span::Traffic,
                        format!("offered {offered} ≥ capacity {}", bound.limit),
                    )
                    .with_help(format!(
                        "shed the offered load below {} or raise the {resource} capacity",
                        bound.limit
                    )),
                );
            } else if rho > NEAR_SATURATION {
                out.push(
                    Diagnostic::new(
                        Code::NearSaturation,
                        span,
                        format!(
                            "{} approaches saturation: ρ = {rho:.2} \
                             (binding resource: {resource})",
                            bound.component
                        ),
                    )
                    .with_label(
                        Span::Traffic,
                        format!("offered {offered} vs capacity {}", bound.limit),
                    )
                    .with_help(
                        "queueing delay grows without bound as ρ → 1 (Eq. 9–12); \
                         leave headroom or provision more capacity",
                    ),
                );
            }
        }
    }
}

/// Credit-deadlock detection (L0301–L0302): cycle search over
/// bounded-queue back-pressure edges after collapsing same-named
/// vertices onto their shared physical IP.
///
/// A back-pressure edge exists where a full downstream queue blocks
/// the upstream engine: every edge into a bounded-queue IP vertex.
/// Rate limiters shed load instead of blocking (§3.7 extension #3),
/// so edges into them — and the limiters' own downstream edges — break
/// the chain. A cycle in the collapsed back-pressure graph is a
/// circular wait: consolidated tenants traversing shared physical IPs
/// in opposite orders can each hold the credit the other needs.
struct Deadlock;

impl Pass for Deadlock {
    fn name(&self) -> &'static str {
        "credit-deadlock"
    }

    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
        // L0302: engines that can never all be fed.
        for (i, node) in cx.graph.nodes().iter().enumerate() {
            let Some(p) = node.params() else { continue };
            if node.kind() != NodeKind::Ip {
                continue;
            }
            let q = p.effective_queue_capacity();
            if q < p.parallelism() {
                out.push(
                    Diagnostic::new(
                        Code::QueueBelowParallelism,
                        node_span(cx, NodeId(i)),
                        format!(
                            "node `{}` has effective queue capacity {q} below its \
                             parallelism degree {}",
                            node.name(),
                            p.parallelism()
                        ),
                    )
                    .with_help(
                        "some engines can never be occupied; raise the queue capacity \
                         to at least the parallelism degree",
                    ),
                );
            }
        }

        // L0301: collapse by physical name, search for a cycle.
        let mut names: Vec<&str> = Vec::new();
        let mut group_of = vec![usize::MAX; cx.graph.nodes().len()];
        for (i, node) in cx.graph.nodes().iter().enumerate() {
            // Only physical IP engines hold credits and block; rate
            // limiters drop, ingress/egress are unbounded movers.
            if node.kind() != NodeKind::Ip {
                continue;
            }
            let g = match names.iter().position(|n| *n == node.name()) {
                Some(g) => g,
                None => {
                    names.push(node.name());
                    names.len() - 1
                }
            };
            group_of[i] = g;
        }
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
        for e in cx.graph.edges() {
            let (su, sv) = (group_of[e.src().index()], group_of[e.dst().index()]);
            if su == usize::MAX || sv == usize::MAX || su == sv {
                continue;
            }
            if !adj[su].contains(&sv) {
                adj[su].push(sv);
            }
        }
        if let Some(cycle) = find_cycle(&adj) {
            let path: Vec<&str> = cycle.iter().map(|g| names[*g]).collect();
            out.push(
                Diagnostic::new(
                    Code::CreditCycle,
                    Span::Graph,
                    format!(
                        "back-pressure cycle through shared physical IPs: {} -> {}",
                        path.join(" -> "),
                        path[0]
                    ),
                )
                .with_label(
                    Span::Graph,
                    "tenants traverse the shared engines in conflicting orders; each \
                     can hold the queue credit the other is waiting for"
                        .to_owned(),
                )
                .with_help(
                    "break the cycle with a rate limiter in front of one shared engine \
                     (§3.7 extension #3), or re-order the tenants' traversals",
                ),
            );
        }
    }
}

/// DFS cycle search; returns the vertices of one cycle when found.
fn find_cycle(adj: &[Vec<usize>]) -> Option<Vec<usize>> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; adj.len()];
    let mut stack: Vec<usize> = Vec::new();

    fn dfs(
        at: usize,
        adj: &[Vec<usize>],
        color: &mut [u8],
        stack: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        color[at] = GRAY;
        stack.push(at);
        for &next in &adj[at] {
            if color[next] == GRAY {
                let start = stack.iter().position(|v| *v == next).unwrap_or(0);
                return Some(stack[start..].to_vec());
            }
            if color[next] == WHITE {
                if let Some(c) = dfs(next, adj, color, stack) {
                    return Some(c);
                }
            }
        }
        stack.pop();
        color[at] = BLACK;
        None
    }

    (0..adj.len()).find_map(|v| {
        if color[v] == WHITE {
            dfs(v, adj, &mut color, &mut stack)
        } else {
            None
        }
    })
}

/// Unit/dimension consistency (L0401–L0405): degenerate quantities in
/// the hardware model and traffic profile, plus edges whose data
/// teleports (δ > 0 with no transport medium at all).
///
/// Subsumes [`crate::params::HardwareModel::validate`] and
/// [`crate::params::TrafficProfile::validate`] under the diagnostic
/// framework; those methods remain the typed-error API.
struct Units;

impl Pass for Units {
    fn name(&self) -> &'static str {
        "unit-consistency"
    }

    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
        if let Some(hw) = cx.hw {
            for (medium, bw) in [
                ("interface", hw.interface_bandwidth()),
                ("memory", hw.memory_bandwidth()),
            ] {
                if bw.is_zero() {
                    out.push(
                        Diagnostic::new(
                            Code::DegenerateMedium,
                            Span::Hardware { medium },
                            format!("the shared {medium} has zero bandwidth"),
                        )
                        .with_help(
                            "every path touching the medium starves; supply the \
                             device's calibrated bandwidth",
                        ),
                    );
                }
            }
        }
        if let Some(traffic) = cx.traffic {
            if traffic.ingress_bandwidth().is_zero() {
                out.push(
                    Diagnostic::new(
                        Code::ZeroIngressRate,
                        Span::Traffic,
                        "the offered ingress rate is zero — no packets would ever arrive",
                    )
                    .with_help("Poisson inter-arrival times are infinite at rate 0"),
                );
            }
            for (size, weight) in traffic.sizes().entries() {
                if size.get() == 0 {
                    out.push(
                        Diagnostic::new(
                            Code::ZeroPacketSize,
                            Span::Traffic,
                            format!(
                                "the packet-size distribution gives weight {weight:.3} \
                                 to a zero-byte size"
                            ),
                        )
                        .with_help("a zero-byte packet carries no work; remove the entry"),
                    );
                }
            }
            if traffic.granularity_override() == Some(crate::units::Bytes::new(0)) {
                out.push(
                    Diagnostic::new(
                        Code::ZeroGranularity,
                        Span::Traffic,
                        "the ingress granularity override is zero bytes",
                    )
                    .with_help("use the packet size itself by dropping the override"),
                );
            }
        }
        for (i, e) in cx.graph.edges().iter().enumerate() {
            let p = e.params();
            if p.delta() > EPS
                && p.interface_fraction() <= EPS
                && p.memory_fraction() <= EPS
                && p.dedicated_bandwidth().is_none()
            {
                out.push(
                    Diagnostic::new(
                        Code::EdgeWithoutMedium,
                        edge_span(cx, EdgeId(i)),
                        format!(
                            "edge #{i} carries traffic (δ = {:.3}) but declares no \
                             transport medium (α = β = 0, no dedicated link)",
                            p.delta()
                        ),
                    )
                    .with_help(
                        "the data moves for free in Eq. 2; set α, β or a dedicated \
                         bandwidth if the movement is real",
                    ),
                );
            }
        }
    }
}

/// Multi-tenant consolidation conflicts (L0501–L0502): same-named
/// vertices are virtual IPs multiplexed onto one physical engine
/// (§3.7); their `γ` shares must not oversubscribe it and their summed
/// traffic demand must fit its peak.
struct Consolidation;

impl Pass for Consolidation {
    fn name(&self) -> &'static str {
        "consolidation-conflicts"
    }

    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
        struct Group {
            first: NodeId,
            count: usize,
            gamma_sum: f64,
            demand: f64,
            physical_peak: f64,
        }
        let mut groups: Vec<(&str, Group)> = Vec::new();
        for (i, node) in cx.graph.nodes().iter().enumerate() {
            let Some(p) = node.params() else { continue };
            let id = NodeId(i);
            let demand = crate::throughput::effective_delta_in(cx.graph, id) * p.work_factor();
            let physical = p.peak().as_bps() * p.acceleration();
            match groups.iter_mut().find(|(n, _)| *n == node.name()) {
                Some((_, g)) => {
                    g.count += 1;
                    g.gamma_sum += p.partition();
                    g.demand += demand;
                    g.physical_peak = g.physical_peak.max(physical);
                }
                None => groups.push((
                    node.name(),
                    Group {
                        first: id,
                        count: 1,
                        gamma_sum: p.partition(),
                        demand,
                        physical_peak: physical,
                    },
                )),
            }
        }
        for (name, g) in groups {
            if g.count <= 1 {
                continue;
            }
            if g.gamma_sum > 1.0 + EPS {
                out.push(
                    Diagnostic::new(
                        Code::OversubscribedPartition,
                        node_span(cx, g.first),
                        format!(
                            "{} vertices named `{name}` hold γ partitions summing to \
                             {:.2} > 1",
                            g.count, g.gamma_sum
                        ),
                    )
                    .with_help(
                        "the virtual IPs oversubscribe the physical engine; scale the \
                         γ shares so they sum to at most 1",
                    ),
                );
            }
            if let Some(traffic) = cx.traffic {
                let offered = traffic.ingress_bandwidth().as_bps();
                let demand_bps = g.demand * offered;
                if g.physical_peak > 0.0 && demand_bps > g.physical_peak * (1.0 + EPS) {
                    out.push(
                        Diagnostic::new(
                            Code::ConsolidationOverload,
                            node_span(cx, g.first),
                            format!(
                                "consolidated placements on `{name}` demand \
                                 {:.1} Gb/s, above the physical engine's \
                                 {:.1} Gb/s peak",
                                demand_bps / 1e9,
                                g.physical_peak / 1e9
                            ),
                        )
                        .with_label(
                            Span::Traffic,
                            format!(
                                "summed Σδ_in × work_factor across {} placements is \
                                 {:.3} of the offered load",
                                g.count, g.demand
                            ),
                        )
                        .with_help(
                            "each tenant may fit alone, but together they overload the \
                             engine; move a placement or shed tenant load",
                        ),
                    );
                }
            }
        }
    }
}

/// Fault-plan reachability and hygiene (L0601–L0604). Requires a
/// fault plan; subsumes the historical `lint_faults`.
struct Faults;

impl Pass for Faults {
    fn name(&self) -> &'static str {
        "fault-reachability"
    }

    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
        let Some(plan) = cx.plan else { return };

        for (i, w) in plan.windows().iter().enumerate() {
            match cx.graph.node_by_name(w.node()) {
                None => out.push(
                    Diagnostic::new(
                        Code::FaultUnknownNode,
                        Span::FaultWindow {
                            index: i,
                            node: w.node().to_owned(),
                        },
                        format!(
                            "fault window targets unknown node `{}` and will never fire",
                            w.node()
                        ),
                    )
                    .with_help("name an existing vertex of the execution graph"),
                ),
                Some(id) if !cx.flow.reaches(id) => out.push(
                    Diagnostic::new(
                        Code::DeadFaultWindow,
                        Span::FaultWindow {
                            index: i,
                            node: w.node().to_owned(),
                        },
                        format!(
                            "fault window targets node `{}`, which traffic never \
                             reaches — the chaos would fire against dead flow",
                            w.node()
                        ),
                    )
                    .with_label(
                        node_span(cx, id),
                        format!("propagated inflow here is ≤ {FLOW_EPS:.0e}"),
                    )
                    .with_help("target a vertex on the live data path"),
                ),
                Some(_) => {}
            }
        }

        for (first, second) in plan.overlapping_windows() {
            out.push(
                Diagnostic::new(
                    Code::FaultOverlappingWindows,
                    Span::FaultWindow {
                        index: second,
                        node: plan.windows()[second].node().to_owned(),
                    },
                    format!(
                        "window overlaps fault-plan[{first}] of the same kind on \
                         node `{}`",
                        plan.windows()[first].node()
                    ),
                )
                .with_label(
                    Span::FaultWindow {
                        index: first,
                        node: plan.windows()[first].node().to_owned(),
                    },
                    "earlier window".to_owned(),
                )
                .with_help("duty-cycle math double-counts the overlap; merge the windows"),
            );
        }

        if plan.retry().is_some_and(|rp| rp.budget() == 0) {
            for (i, w) in plan.windows().iter().enumerate() {
                if w.kind().is_lossy() {
                    out.push(
                        Diagnostic::new(
                            Code::FaultZeroRetryBudget,
                            Span::FaultWindow {
                                index: i,
                                node: w.node().to_owned(),
                            },
                            format!(
                                "loss-inducing fault on node `{}` with a zero retry \
                                 budget — refused packets are never retried",
                                w.node()
                            ),
                        )
                        .with_help("give the retry policy a positive budget, or drop it"),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::diag::Severity;
    use crate::analyze::{AnalysisConfig, Analyzer};
    use crate::fault::{FaultPlan, RetryPolicy};
    use crate::graph::ExecutionGraph;
    use crate::params::{EdgeParams, HardwareModel, IpParams, TrafficProfile};
    use crate::units::{Bandwidth, Bytes, Seconds};

    fn ip(gbps: f64) -> IpParams {
        IpParams::new(Bandwidth::gbps(gbps))
    }

    fn codes(graph: &ExecutionGraph) -> Vec<Code> {
        Analyzer::new(graph)
            .run(&AnalysisConfig::default())
            .diagnostics()
            .iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn clean_chain_is_clean() {
        let g = ExecutionGraph::chain("c", &[("a", ip(1.0)), ("b", ip(2.0))]).unwrap();
        let report = Analyzer::new(&g).run(&AnalysisConfig::default());
        assert!(report.is_clean(), "{report:?}");
        assert!(!report.is_rejected());
    }

    #[test]
    fn amplifying_node_flagged() {
        let mut b = ExecutionGraph::builder("amp");
        let ing = b.ingress("in");
        let a = b.ip("a", ip(1.0));
        let eg = b.egress("out");
        b.edge(ing, a, EdgeParams::new(0.5).unwrap());
        b.edge(a, eg, EdgeParams::new(1.0).unwrap());
        let g = b.build().unwrap();
        assert!(codes(&g).contains(&Code::TrafficCreated));
    }

    #[test]
    fn thinning_node_is_allowed_not_warned() {
        let mut b = ExecutionGraph::builder("thin");
        let ing = b.ingress("in");
        let a = b.ip("a", ip(1.0));
        let eg = b.egress("out");
        b.edge(ing, a, EdgeParams::new(1.0).unwrap());
        b.edge(a, eg, EdgeParams::new(0.3).unwrap());
        let g = b.build().unwrap();
        let report = Analyzer::new(&g).run(&AnalysisConfig::default());
        // Thinning is recorded at Allow level and never gates.
        assert!(report.is_clean(), "{report:?}");
        let lost: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::TrafficLost)
            .collect();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].severity, Severity::Allow);
    }

    #[test]
    fn medium_on_empty_edge_flagged() {
        let mut b = ExecutionGraph::builder("m");
        let ing = b.ingress("in");
        let a = b.ip("a", ip(1.0));
        let eg = b.egress("out");
        b.edge(ing, a, EdgeParams::full());
        b.edge(
            a,
            eg,
            EdgeParams::new(0.0).unwrap().with_interface_fraction(0.5),
        );
        let g = b.build().unwrap();
        assert!(codes(&g).contains(&Code::MediumOnEmptyEdge));
    }

    #[test]
    fn starved_node_and_downstream_flagged() {
        let mut b = ExecutionGraph::builder("s");
        let ing = b.ingress("in");
        let a = b.ip("a", ip(1.0));
        let d = b.ip("d", ip(1.0));
        let eg = b.egress("out");
        b.edge(ing, a, EdgeParams::new(0.0).unwrap());
        b.edge(a, d, EdgeParams::full());
        b.edge(d, eg, EdgeParams::full());
        let g = b.build().unwrap();
        let report = Analyzer::new(&g).run(&AnalysisConfig::default());
        let starved: Vec<String> = report
            .diagnostics()
            .iter()
            .filter(|x| x.code == Code::StarvedNode)
            .map(|x| x.primary.to_string())
            .collect();
        assert_eq!(starved.len(), 2, "{starved:?}");
        assert!(starved[0].contains("`a`"));
        assert!(
            starved[1].contains("`d`"),
            "downstream starves transitively"
        );
    }

    #[test]
    fn saturation_flags_rho_at_and_above_one() {
        let g = ExecutionGraph::chain("t", &[("slow", ip(5.0))]).unwrap();
        let hw = HardwareModel::default();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(25.0), Bytes::new(1500));
        let report = Analyzer::new(&g)
            .with_hardware(&hw)
            .with_traffic(&traffic)
            .run(&AnalysisConfig::default());
        let sat: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::SaturatedPartition)
            .collect();
        assert_eq!(sat.len(), 1, "{report:?}");
        assert!(sat[0].message.contains("compute"), "{}", sat[0].message);
        assert!(sat[0].primary.to_string().contains("slow"));
    }

    #[test]
    fn near_saturation_flagged_below_one() {
        let g = ExecutionGraph::chain("t", &[("ip", ip(10.0))]).unwrap();
        let hw = HardwareModel::default();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(9.5), Bytes::new(1500));
        let report = Analyzer::new(&g)
            .with_hardware(&hw)
            .with_traffic(&traffic)
            .run(&AnalysisConfig::default());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::NearSaturation));
        assert!(!report
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::SaturatedPartition));
        // At half load nothing fires.
        let calm = traffic.at_rate(Bandwidth::gbps(5.0));
        let report = Analyzer::new(&g)
            .with_hardware(&hw)
            .with_traffic(&calm)
            .run(&AnalysisConfig::default());
        assert!(report.is_clean());
    }

    #[test]
    fn saturation_names_shared_media() {
        // Σα = 3 on a 3 Gb/s interface: interface saturates at 1 Gb/s.
        let g = ExecutionGraph::chain("t", &[("a", ip(1000.0)), ("b", ip(1000.0))]).unwrap();
        let hw = HardwareModel::new(Bandwidth::gbps(3.0), Bandwidth::gbps(1000.0));
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(10.0), Bytes::new(1500));
        let report = Analyzer::new(&g)
            .with_hardware(&hw)
            .with_traffic(&traffic)
            .run(&AnalysisConfig::default());
        assert!(
            report
                .diagnostics()
                .iter()
                .any(|d| d.code == Code::SaturatedPartition && d.message.contains("interface")),
            "{report:?}"
        );
    }

    #[test]
    fn credit_cycle_on_opposite_order_tenants() {
        // Tenant 1: X then Y. Tenant 2: Y then X. Shared physical X/Y.
        let mut b = ExecutionGraph::builder("consolidated");
        let ing = b.ingress("in");
        let x1 = b.ip("X", ip(10.0).with_partition(0.5));
        let y1 = b.ip("Y", ip(10.0).with_partition(0.5));
        let y2 = b.ip("Y", ip(10.0).with_partition(0.5));
        let x2 = b.ip("X", ip(10.0).with_partition(0.5));
        let eg = b.egress("out");
        b.edge(ing, x1, EdgeParams::new(0.5).unwrap());
        b.edge(x1, y1, EdgeParams::new(0.5).unwrap());
        b.edge(y1, eg, EdgeParams::new(0.5).unwrap());
        b.edge(ing, y2, EdgeParams::new(0.5).unwrap());
        b.edge(y2, x2, EdgeParams::new(0.5).unwrap());
        b.edge(x2, eg, EdgeParams::new(0.5).unwrap());
        let g = b.build().unwrap();
        let report = Analyzer::new(&g).run(&AnalysisConfig::default());
        let cycles: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::CreditCycle)
            .collect();
        assert_eq!(cycles.len(), 1, "{report:?}");
        assert_eq!(cycles[0].severity, Severity::Deny);
        assert!(report.is_rejected());
        assert!(cycles[0].message.contains('X') && cycles[0].message.contains('Y'));
    }

    #[test]
    fn same_order_tenants_have_no_cycle() {
        let mut b = ExecutionGraph::builder("aligned");
        let ing = b.ingress("in");
        let x1 = b.ip("X", ip(10.0).with_partition(0.5));
        let y1 = b.ip("Y", ip(10.0).with_partition(0.5));
        let x2 = b.ip("X", ip(10.0).with_partition(0.5));
        let y2 = b.ip("Y", ip(10.0).with_partition(0.5));
        let eg = b.egress("out");
        b.edge(ing, x1, EdgeParams::new(0.5).unwrap());
        b.edge(x1, y1, EdgeParams::new(0.5).unwrap());
        b.edge(y1, eg, EdgeParams::new(0.5).unwrap());
        b.edge(ing, x2, EdgeParams::new(0.5).unwrap());
        b.edge(x2, y2, EdgeParams::new(0.5).unwrap());
        b.edge(y2, eg, EdgeParams::new(0.5).unwrap());
        let g = b.build().unwrap();
        let report = Analyzer::new(&g).run(&AnalysisConfig::default());
        assert!(!report
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::CreditCycle));
    }

    #[test]
    fn rate_limiter_breaks_back_pressure_cycle() {
        // As in credit_cycle_on_opposite_order_tenants, but tenant 2
        // reaches X through a rate limiter, which sheds instead of
        // blocking.
        let mut b = ExecutionGraph::builder("limited");
        let ing = b.ingress("in");
        let x1 = b.ip("X", ip(10.0).with_partition(0.5));
        let y1 = b.ip("Y", ip(10.0).with_partition(0.5));
        let y2 = b.ip("Y", ip(10.0).with_partition(0.5));
        let rl = b.rate_limiter("shaper", Bandwidth::gbps(4.0), 8);
        let x2 = b.ip("X", ip(10.0).with_partition(0.5));
        let eg = b.egress("out");
        b.edge(ing, x1, EdgeParams::new(0.5).unwrap());
        b.edge(x1, y1, EdgeParams::new(0.5).unwrap());
        b.edge(y1, eg, EdgeParams::new(0.5).unwrap());
        b.edge(ing, y2, EdgeParams::new(0.5).unwrap());
        b.edge(y2, rl, EdgeParams::new(0.5).unwrap());
        b.edge(rl, x2, EdgeParams::new(0.5).unwrap());
        b.edge(x2, eg, EdgeParams::new(0.5).unwrap());
        let g = b.build().unwrap();
        let report = Analyzer::new(&g).run(&AnalysisConfig::default());
        assert!(
            !report
                .diagnostics()
                .iter()
                .any(|d| d.code == Code::CreditCycle),
            "{report:?}"
        );
    }

    #[test]
    fn queue_below_parallelism_flagged() {
        let g = ExecutionGraph::chain(
            "q",
            &[("wide", ip(10.0).with_parallelism(32).with_queue_capacity(8))],
        )
        .unwrap();
        assert!(codes(&g).contains(&Code::QueueBelowParallelism));
    }

    #[test]
    fn degenerate_inputs_denied() {
        let g = ExecutionGraph::chain("u", &[("a", ip(1.0))]).unwrap();
        let hw = HardwareModel::new(Bandwidth::ZERO, Bandwidth::gbps(1.0));
        let traffic =
            TrafficProfile::fixed(Bandwidth::ZERO, Bytes::new(0)).with_granularity(Bytes::new(0));
        let report = Analyzer::new(&g)
            .with_hardware(&hw)
            .with_traffic(&traffic)
            .run(&AnalysisConfig::default());
        assert!(report.is_rejected());
        let denied: Vec<Code> = report.denied().iter().map(|d| d.code).collect();
        assert!(denied.contains(&Code::DegenerateMedium), "{denied:?}");
        assert!(denied.contains(&Code::ZeroIngressRate));
        assert!(denied.contains(&Code::ZeroPacketSize));
        assert!(denied.contains(&Code::ZeroGranularity));
    }

    #[test]
    fn edge_without_medium_recorded_as_allowed() {
        let mut b = ExecutionGraph::builder("tele");
        let ing = b.ingress("in");
        let a = b.ip("a", ip(1.0));
        let eg = b.egress("out");
        b.edge(ing, a, EdgeParams::full());
        b.edge(a, eg, EdgeParams::full().with_interface_fraction(0.0));
        let g = b.build().unwrap();
        let report = Analyzer::new(&g).run(&AnalysisConfig::default());
        assert!(report.is_clean(), "allowed by default: {report:?}");
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::EdgeWithoutMedium));
    }

    #[test]
    fn oversubscribed_partition_flagged() {
        let mut b = ExecutionGraph::builder("g");
        let ing = b.ingress("in");
        let a1 = b.ip("cores", ip(10.0).with_partition(0.7));
        let a2 = b.ip("cores", ip(10.0).with_partition(0.7));
        let eg = b.egress("out");
        b.edge(ing, a1, EdgeParams::new(0.5).unwrap());
        b.edge(ing, a2, EdgeParams::new(0.5).unwrap());
        b.edge(a1, eg, EdgeParams::new(0.5).unwrap());
        b.edge(a2, eg, EdgeParams::new(0.5).unwrap());
        let g = b.build().unwrap();
        let report = Analyzer::new(&g).run(&AnalysisConfig::default());
        let over: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::OversubscribedPartition)
            .collect();
        assert_eq!(over.len(), 1, "{report:?}");
        assert!(over[0].message.contains("1.40"), "{}", over[0].message);
    }

    #[test]
    fn distinct_names_never_oversubscribe() {
        let g = ExecutionGraph::chain(
            "d",
            &[
                ("x", ip(1.0).with_partition(0.9)),
                ("y", ip(1.0).with_partition(0.9)),
            ],
        )
        .unwrap();
        let report = Analyzer::new(&g).run(&AnalysisConfig::default());
        assert!(!report
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::OversubscribedPartition));
    }

    #[test]
    fn consolidation_overload_needs_traffic_and_summed_demand() {
        // Two placements on `cores`, each fine alone (demand 0.5 × 20
        // = 10 Gb/s vs 12 Gb/s peak), together 20 Gb/s > 12 Gb/s.
        let mut b = ExecutionGraph::builder("c");
        let ing = b.ingress("in");
        let a1 = b.ip("cores", ip(12.0).with_partition(0.5));
        let a2 = b.ip("cores", ip(12.0).with_partition(0.5));
        let eg = b.egress("out");
        b.edge(ing, a1, EdgeParams::new(0.5).unwrap());
        b.edge(ing, a2, EdgeParams::new(0.5).unwrap());
        b.edge(a1, eg, EdgeParams::new(0.5).unwrap());
        b.edge(a2, eg, EdgeParams::new(0.5).unwrap());
        let g = b.build().unwrap();
        // Without traffic, only γ checks run (γ sums to 1.0 → clean).
        let report = Analyzer::new(&g).run(&AnalysisConfig::default());
        assert!(!report
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::ConsolidationOverload));
        let hw = HardwareModel::default();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(20.0), Bytes::new(1500));
        let report = Analyzer::new(&g)
            .with_hardware(&hw)
            .with_traffic(&traffic)
            .run(&AnalysisConfig::default());
        assert!(
            report
                .diagnostics()
                .iter()
                .any(|d| d.code == Code::ConsolidationOverload),
            "{report:?}"
        );
        // At 10 Gb/s offered the summed demand fits.
        let calm = traffic.at_rate(Bandwidth::gbps(10.0));
        let report = Analyzer::new(&g)
            .with_hardware(&hw)
            .with_traffic(&calm)
            .run(&AnalysisConfig::default());
        assert!(!report
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::ConsolidationOverload));
    }

    #[test]
    fn fault_clean_plan_has_no_findings() {
        let g = ExecutionGraph::chain("c", &[("a", ip(1.0))]).unwrap();
        let plan = FaultPlan::new()
            .outage("a", Seconds::ZERO, Seconds::millis(1.0))
            .with_retry(RetryPolicy::new(3, Seconds::micros(1.0)));
        let report = Analyzer::new(&g)
            .with_fault_plan(&plan)
            .run(&AnalysisConfig::default());
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn fault_unknown_node_flagged() {
        let g = ExecutionGraph::chain("c", &[("a", ip(1.0))]).unwrap();
        let plan = FaultPlan::new()
            .outage("a", Seconds::ZERO, Seconds::millis(1.0))
            .drop_packets("ghost", 0.1, Seconds::ZERO, Seconds::millis(1.0));
        let report = Analyzer::new(&g)
            .with_fault_plan(&plan)
            .run(&AnalysisConfig::default());
        let found: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::FaultUnknownNode)
            .collect();
        assert_eq!(found.len(), 1, "{report:?}");
        assert!(found[0].primary.to_string().contains("fault-plan[1]"));
        assert!(found[0].message.contains("ghost"));
    }

    #[test]
    fn fault_overlapping_windows_flagged() {
        let g = ExecutionGraph::chain("c", &[("a", ip(1.0))]).unwrap();
        let plan = FaultPlan::new()
            .outage("a", Seconds::millis(1.0), Seconds::millis(3.0))
            .outage("a", Seconds::millis(2.0), Seconds::millis(4.0));
        let report = Analyzer::new(&g)
            .with_fault_plan(&plan)
            .run(&AnalysisConfig::default());
        let found: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::FaultOverlappingWindows)
            .collect();
        assert_eq!(found.len(), 1);
        assert!(found[0].primary.to_string().contains("fault-plan[1]"));
        assert!(found[0].message.contains("fault-plan[0]"));
    }

    #[test]
    fn fault_zero_retry_budget_flags_only_lossy_windows() {
        let g = ExecutionGraph::chain("c", &[("a", ip(1.0))]).unwrap();
        let plan = FaultPlan::new()
            .drop_packets("a", 0.1, Seconds::ZERO, Seconds::millis(1.0))
            .corrupt_packets("a", 0.1, Seconds::ZERO, Seconds::millis(1.0))
            .with_retry(RetryPolicy::new(0, Seconds::micros(1.0)));
        let report = Analyzer::new(&g)
            .with_fault_plan(&plan)
            .run(&AnalysisConfig::default());
        let found: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::FaultZeroRetryBudget)
            .collect();
        assert_eq!(found.len(), 1, "{report:?}");
        assert!(found[0].primary.to_string().contains("fault-plan[0]"));
        // A positive budget silences the finding.
        let plan = plan.with_retry(RetryPolicy::new(1, Seconds::micros(1.0)));
        let report = Analyzer::new(&g)
            .with_fault_plan(&plan)
            .run(&AnalysisConfig::default());
        assert!(report.is_clean());
    }

    #[test]
    fn dead_fault_window_flagged() {
        let mut b = ExecutionGraph::builder("dead");
        let ing = b.ingress("in");
        let live = b.ip("live", ip(1.0));
        let ghost_town = b.ip("unreached", ip(1.0));
        let eg = b.egress("out");
        b.edge(ing, live, EdgeParams::full());
        b.edge(live, eg, EdgeParams::full());
        b.edge(ing, ghost_town, EdgeParams::new(0.0).unwrap());
        b.edge(ghost_town, eg, EdgeParams::new(0.0).unwrap());
        let g = b.build().unwrap();
        let plan = FaultPlan::new().outage("unreached", Seconds::ZERO, Seconds::millis(1.0));
        let report = Analyzer::new(&g)
            .with_fault_plan(&plan)
            .run(&AnalysisConfig::default());
        assert!(
            report
                .diagnostics()
                .iter()
                .any(|d| d.code == Code::DeadFaultWindow),
            "{report:?}"
        );
    }
}
