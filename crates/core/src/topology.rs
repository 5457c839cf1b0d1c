//! Fleet topology: named NIC instances wired through fabric links.
//!
//! A [`Topology`] lifts the paper's single-device model to rack scale:
//! each [`NicSpec`] binds one execution graph, hardware model and
//! traffic profile (exactly the three inputs of a single-NIC
//! evaluation), and [`FleetLink`]s route a declared share of each
//! NIC's egress traffic across the ToR/fabric, with their own
//! bandwidth serialization and propagation latency. The §3.7
//! consolidation analysis extends across the fabric as the
//! *fleet-placement* pass ([`Topology::analyze`], codes `L07xx`):
//! local plus incoming load versus per-device attainable throughput,
//! and per-link offered load versus link bandwidth.
//!
//! The topology is a pure description — `lognic-sim`'s `fleet` module
//! turns it into a deterministic multi-NIC simulation, stepped on one
//! thread in conservative-lookahead windows.

use crate::analyze::{AnalysisConfig, AnalysisReport, Code, Diagnostic, Span};
use crate::error::{LogNicError, LogNicResult};
use crate::graph::ExecutionGraph;
use crate::params::{HardwareModel, TrafficProfile};
use crate::throughput::estimate_throughput;
use crate::units::{Bandwidth, Seconds};

/// Name of the fleet-placement analyzer pass, listed by
/// [`crate::analyze::pass_names`] alongside the per-graph passes.
pub const FLEET_PASS_NAME: &str = "fleet-placement";

/// Identifies one NIC instance within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NicId(pub(crate) usize);

impl NicId {
    /// The NIC's index within its topology.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One NIC instance of a fleet: a name plus the three single-device
/// model inputs.
#[derive(Debug, Clone)]
pub struct NicSpec {
    name: String,
    graph: ExecutionGraph,
    hardware: HardwareModel,
    traffic: TrafficProfile,
}

impl NicSpec {
    /// The NIC's name, unique within its topology.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The execution graph this NIC runs.
    pub fn graph(&self) -> &ExecutionGraph {
        &self.graph
    }

    /// The NIC's hardware model.
    pub fn hardware(&self) -> &HardwareModel {
        &self.hardware
    }

    /// The traffic bound to this NIC's ingress.
    pub fn traffic(&self) -> &TrafficProfile {
        &self.traffic
    }
}

/// A directed fabric link between two NICs of a [`Topology`].
///
/// `share` of the source NIC's egress traffic is routed over the link
/// instead of completing locally; each crossing pays FIFO bandwidth
/// serialization (`size / bandwidth`) plus the propagation `latency`.
/// The minimum latency over traffic-carrying links is the fleet event
/// loop's conservative lookahead, which is why a zero-latency link
/// with positive share is denied (`L0701`).
#[derive(Debug, Clone)]
pub struct FleetLink {
    /// Source NIC.
    pub src: NicId,
    /// Destination NIC.
    pub dst: NicId,
    /// Serialization bandwidth ([`Bandwidth::INFINITE`] for an ideal
    /// link).
    pub bandwidth: Bandwidth,
    /// Propagation latency.
    pub latency: Seconds,
    /// Fraction of the source NIC's egress routed over this link, in
    /// `[0, 1]`; all outgoing shares of one NIC sum to at most 1.
    pub share: f64,
}

/// A fleet of named NIC instances wired through fabric links — the
/// front door of a multi-NIC evaluation.
///
/// # Examples
///
/// ```
/// use lognic_model::prelude::*;
/// use lognic_model::topology::Topology;
///
/// # fn main() -> LogNicResult<()> {
/// let g = ExecutionGraph::chain("fwd", &[("core", IpParams::new(Bandwidth::gbps(10.0)))])?;
/// let hw = HardwareModel::default();
/// let t = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(1500));
///
/// let mut topo = Topology::new("pair");
/// let a = topo.add_nic("nic-a", g.clone(), hw, t.clone());
/// let b = topo.add_nic("nic-b", g, hw, t);
/// topo.link(a, b, Bandwidth::gbps(100.0), Seconds::micros(1.5), 0.25);
/// topo.validate()?;
/// assert_eq!(topo.nics().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    nics: Vec<NicSpec>,
    links: Vec<FleetLink>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new(name: impl Into<String>) -> Self {
        Topology {
            name: name.into(),
            nics: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Wraps a single-NIC scenario as a one-device fleet — the
    /// degenerate topology behind which the classic single-`Simulation`
    /// evaluation is the special case.
    pub fn single(
        name: impl Into<String>,
        graph: ExecutionGraph,
        hardware: HardwareModel,
        traffic: TrafficProfile,
    ) -> Self {
        let name = name.into();
        let mut topo = Topology::new(name.clone());
        topo.add_nic(name, graph, hardware, traffic);
        topo
    }

    /// Adds a NIC instance and returns its id.
    pub fn add_nic(
        &mut self,
        name: impl Into<String>,
        graph: ExecutionGraph,
        hardware: HardwareModel,
        traffic: TrafficProfile,
    ) -> NicId {
        self.nics.push(NicSpec {
            name: name.into(),
            graph,
            hardware,
            traffic,
        });
        NicId(self.nics.len() - 1)
    }

    /// Adds a directed fabric link routing `share` of `src`'s egress
    /// traffic to `dst`'s ingress. Parameters are validated by
    /// [`Topology::validate`] (and therefore by the fleet builder).
    pub fn link(
        &mut self,
        src: NicId,
        dst: NicId,
        bandwidth: Bandwidth,
        latency: Seconds,
        share: f64,
    ) -> &mut Self {
        self.links.push(FleetLink {
            src,
            dst,
            bandwidth,
            latency,
            share,
        });
        self
    }

    /// The topology's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The NIC instances, in insertion order ([`NicId`] order).
    pub fn nics(&self) -> &[NicSpec] {
        &self.nics
    }

    /// The fabric links, in insertion order.
    pub fn links(&self) -> &[FleetLink] {
        &self.links
    }

    /// Structural validation: at least one NIC, unique NIC names,
    /// in-range link endpoints, no self-links, shares in `[0, 1]`
    /// summing to at most 1 per source NIC, and well-formed link
    /// bandwidth/latency numbers.
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::InvalidConfig`] describing the first
    /// structural defect.
    pub fn validate(&self) -> LogNicResult<()> {
        let invalid = |reason: String| LogNicError::InvalidConfig { reason };
        if self.nics.is_empty() {
            return Err(invalid(format!("topology `{}` has no NICs", self.name)));
        }
        for (i, nic) in self.nics.iter().enumerate() {
            if self.nics[..i].iter().any(|n| n.name == nic.name) {
                return Err(invalid(format!(
                    "topology `{}` declares NIC name `{}` twice",
                    self.name, nic.name
                )));
            }
        }
        let mut out_share = vec![0.0f64; self.nics.len()];
        for (i, l) in self.links.iter().enumerate() {
            if l.src.0 >= self.nics.len() || l.dst.0 >= self.nics.len() {
                return Err(invalid(format!(
                    "link #{i} references a NIC outside topology `{}`",
                    self.name
                )));
            }
            if l.src == l.dst {
                return Err(invalid(format!(
                    "link #{i} on `{}` is a self-link",
                    self.nics[l.src.0].name
                )));
            }
            if !l.share.is_finite() || !(0.0..=1.0).contains(&l.share) {
                return Err(invalid(format!(
                    "link #{i} share {} is outside [0, 1]",
                    l.share
                )));
            }
            if l.bandwidth.as_bps().is_nan() || l.bandwidth.as_bps() <= 0.0 {
                return Err(invalid(format!(
                    "link #{i} bandwidth {} is not positive",
                    l.bandwidth
                )));
            }
            if !l.latency.as_secs().is_finite() || l.latency.as_secs() < 0.0 {
                return Err(invalid(format!(
                    "link #{i} latency {} is not a finite non-negative time",
                    l.latency
                )));
            }
            out_share[l.src.0] += l.share;
        }
        for (v, &s) in out_share.iter().enumerate() {
            if s > 1.0 + 1e-9 {
                return Err(invalid(format!(
                    "NIC `{}` routes {s:.3} of its egress over uplinks (shares must sum to <= 1)",
                    self.nics[v].name
                )));
            }
        }
        Ok(())
    }

    /// Runs the fleet-placement pass ([`FLEET_PASS_NAME`]) over the
    /// topology: the cross-NIC extension of the §3.7 consolidation
    /// analysis.
    ///
    /// Findings:
    ///
    /// * `L0701` (deny): a traffic-carrying link with zero propagation
    ///   latency, which collapses the fleet loop's conservative
    ///   lookahead.
    /// * `L0702` (warn): a NIC whose local offered load plus the
    ///   fabric traffic routed onto it exceeds its saturation bound
    ///   (the tightest hardware bound); a NIC without one is skipped.
    /// * `L0703` (warn): a link offered more traffic than its
    ///   bandwidth carries.
    ///
    /// Like [`crate::analyze::Analyzer::run`], every finding is
    /// returned regardless of severity; the fleet builder gates on
    /// [`AnalysisReport::is_rejected`].
    pub fn analyze(&self, config: &AnalysisConfig) -> AnalysisReport {
        let mut diags = Vec::new();
        let nic_span = |id: NicId| Span::Nic {
            index: id.0,
            name: self.nics[id.0].name.clone(),
        };
        let link_span = |l: &FleetLink| Span::FleetLink {
            src: self.nics[l.src.0].name.clone(),
            dst: self.nics[l.dst.0].name.clone(),
        };

        for l in &self.links {
            if l.src.0 >= self.nics.len() || l.dst.0 >= self.nics.len() {
                continue; // structural defects are validate()'s domain
            }
            if l.share > 0.0 && l.latency.as_secs() <= 0.0 {
                diags.push(
                    Diagnostic::new(
                        Code::FleetZeroLatencyLink,
                        link_span(l),
                        format!(
                            "link `{}` -> `{}` carries {:.1}% of egress with zero latency",
                            self.nics[l.src.0].name,
                            self.nics[l.dst.0].name,
                            l.share * 100.0
                        ),
                    )
                    .with_help("give the link a positive propagation latency, or zero its share"),
                );
            }
            if l.share > 0.0 && l.bandwidth.as_bps().is_finite() {
                let offered = self.nics[l.src.0]
                    .traffic
                    .ingress_bandwidth()
                    .scaled(l.share);
                if offered.as_bps() > l.bandwidth.as_bps() {
                    diags.push(
                        Diagnostic::new(
                            Code::FleetUplinkSaturated,
                            link_span(l),
                            format!(
                                "link offered {} exceeds its bandwidth {}",
                                offered, l.bandwidth
                            ),
                        )
                        .with_label(
                            nic_span(l.src),
                            format!("routes {:.1}% of its egress here", l.share * 100.0),
                        )
                        .with_help("raise the link bandwidth or lower its traffic share"),
                    );
                }
            }
        }

        for (v, nic) in self.nics.iter().enumerate() {
            let local = nic.traffic.ingress_bandwidth();
            let incoming: f64 = self
                .links
                .iter()
                .filter(|l| l.dst.0 == v && l.src.0 < self.nics.len())
                .map(|l| self.nics[l.src.0].traffic.ingress_bandwidth().as_bps() * l.share)
                .sum();
            if incoming <= 0.0 {
                continue; // purely local overload is L02xx/L05xx territory
            }
            // The hardware bound, not `attainable()`: that one includes
            // the NIC's own offered load, so it never exceeds `local`.
            let Some(capacity) = estimate_throughput(&nic.graph, &nic.hardware, &nic.traffic)
                .ok()
                .and_then(|est| est.saturation_bound().map(|b| b.limit))
            else {
                continue;
            };
            let total = Bandwidth::bps(local.as_bps() + incoming);
            if total.as_bps() > capacity.as_bps() {
                diags.push(
                    Diagnostic::new(
                        Code::FleetConsolidationOverload,
                        nic_span(NicId(v)),
                        format!(
                            "local {} plus incoming fabric {} exceeds its saturation bound {}",
                            local,
                            Bandwidth::bps(incoming),
                            capacity
                        ),
                    )
                    .with_help(
                        "move a tenant off this NIC, lower incoming link shares, \
                         or provision more capacity",
                    ),
                );
            }
        }

        AnalysisReport::from_diagnostics(diags, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::Severity;
    use crate::params::IpParams;
    use crate::units::Bytes;

    fn chain(gbps: f64, rate: f64) -> (ExecutionGraph, HardwareModel, TrafficProfile) {
        let g = ExecutionGraph::chain(
            "t",
            &[(
                "ip",
                IpParams::new(Bandwidth::gbps(gbps)).with_queue_capacity(64),
            )],
        )
        .unwrap();
        (
            g,
            HardwareModel::default(),
            TrafficProfile::fixed(Bandwidth::gbps(rate), Bytes::new(1500)),
        )
    }

    fn pair(share: f64, latency: Seconds, bw: Bandwidth) -> Topology {
        let (g, hw, t) = chain(10.0, 4.0);
        let mut topo = Topology::new("pair");
        let a = topo.add_nic("a", g.clone(), hw, t.clone());
        let b = topo.add_nic("b", g, hw, t);
        topo.link(a, b, bw, latency, share);
        topo
    }

    #[test]
    fn validate_accepts_a_well_formed_pair_and_rejects_defects() {
        let topo = pair(0.25, Seconds::micros(1.5), Bandwidth::gbps(100.0));
        topo.validate().unwrap();

        assert!(Topology::new("empty").validate().is_err());

        let (g, hw, t) = chain(10.0, 4.0);
        let mut dup = Topology::new("dup");
        dup.add_nic("x", g.clone(), hw, t.clone());
        dup.add_nic("x", g.clone(), hw, t.clone());
        assert!(dup.validate().is_err());

        let mut selfy = Topology::new("selfy");
        let a = selfy.add_nic("a", g.clone(), hw, t.clone());
        selfy.link(a, a, Bandwidth::gbps(1.0), Seconds::micros(1.0), 0.1);
        assert!(selfy.validate().is_err());

        let mut over = Topology::new("over");
        let a = over.add_nic("a", g.clone(), hw, t.clone());
        let b = over.add_nic("b", g, hw, t);
        over.link(a, b, Bandwidth::gbps(1.0), Seconds::micros(1.0), 0.7);
        over.link(a, b, Bandwidth::gbps(1.0), Seconds::micros(1.0), 0.6);
        assert!(over.validate().is_err());
    }

    #[test]
    fn zero_latency_traffic_link_is_denied() {
        let topo = pair(0.5, Seconds::ZERO, Bandwidth::gbps(100.0));
        let report = topo.analyze(&AnalysisConfig::default());
        assert!(report.is_rejected());
        assert!(report
            .denied()
            .iter()
            .any(|d| d.code == Code::FleetZeroLatencyLink));

        // A zero-share link may have zero latency: it carries nothing.
        let idle = pair(0.0, Seconds::ZERO, Bandwidth::gbps(100.0));
        assert!(idle.analyze(&AnalysisConfig::default()).is_clean());
    }

    #[test]
    fn consolidation_overload_warns_on_the_receiving_nic() {
        // Both NICs offered 8 Gb/s on 10 Gb/s devices; a routes all of
        // its egress to b, so b's combined demand is 16 > 10.
        let (g, hw, t) = chain(10.0, 8.0);
        let mut topo = Topology::new("overload");
        let a = topo.add_nic("a", g.clone(), hw, t.clone());
        let b = topo.add_nic("b", g, hw, t);
        topo.link(a, b, Bandwidth::gbps(100.0), Seconds::micros(2.0), 1.0);
        let report = topo.analyze(&AnalysisConfig::default());
        let hits: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::FleetConsolidationOverload)
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Warn);
        assert!(
            hits[0].primary.to_string().contains("`b`"),
            "{}",
            hits[0].primary
        );
    }

    fn consolidation_hits(topo: &Topology) -> usize {
        topo.analyze(&AnalysisConfig::default())
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::FleetConsolidationOverload)
            .count()
    }

    /// Two 9 Gb/s NICs offered 3.5 Gb/s each and forwarding half their
    /// egress to each other ask 5.25 Gb/s of a 9 Gb/s device: no
    /// overload, though 5.25 Gb/s is above each NIC's own offered
    /// load, which is what `attainable()` reports.
    #[test]
    fn a_pair_below_its_saturation_bound_is_not_warned() {
        let (g, hw, t) = chain(9.0, 3.5);
        let mut topo = Topology::new("pair");
        let a = topo.add_nic("a", g.clone(), hw, t.clone());
        let b = topo.add_nic("b", g, hw, t);
        for (src, dst) in [(a, b), (b, a)] {
            topo.link(src, dst, Bandwidth::gbps(100.0), Seconds::micros(2.0), 0.5);
        }
        assert_eq!(consolidation_hits(&topo), 0);
    }

    #[test]
    fn uplink_saturation_warns_when_share_exceeds_bandwidth() {
        let topo = pair(0.5, Seconds::micros(2.0), Bandwidth::mbps(500.0));
        let report = topo.analyze(&AnalysisConfig::default());
        assert!(report
            .warnings()
            .iter()
            .any(|d| d.code == Code::FleetUplinkSaturated));

        // An infinite-bandwidth link never saturates.
        let ideal = pair(0.5, Seconds::micros(2.0), Bandwidth::INFINITE);
        assert!(!ideal
            .analyze(&AnalysisConfig::default())
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::FleetUplinkSaturated));
    }

    #[test]
    fn single_wraps_one_nic() {
        let (g, hw, t) = chain(10.0, 4.0);
        let topo = Topology::single("solo", g, hw, t);
        topo.validate().unwrap();
        assert_eq!(topo.nics().len(), 1);
        assert!(topo.links().is_empty());
        assert!(topo.analyze(&AnalysisConfig::default()).is_clean());
    }
}
