//! `lognic_analyze`: compiler-grade static analysis of LogNIC
//! scenarios.
//!
//! A scenario — execution graph, hardware model, traffic profile and
//! optional fault plan — is analyzed like a compiler analyzes a
//! program: a registry of passes walks the model and emits
//! [`Diagnostic`]s carrying a stable code (`L0xxx`), a severity, spans
//! into the scenario and a suggested fix. A fixpoint dataflow engine
//! ([`flow`]) propagates the declared δ fractions forward from the
//! ingress so passes can reason about the traffic that *actually*
//! arrives at each vertex rather than the edge annotations alone.
//!
//! The pass families and their code ranges:
//!
//! | range   | pass                       | checks |
//! |---------|----------------------------|--------|
//! | `L01xx` | traffic conservation       | created/lost traffic, starved vertices, media on empty edges |
//! | `L02xx` | static saturation          | per-component ρ from the Eq. 1–4 bounds vs the device profile |
//! | `L03xx` | credit-deadlock detection  | back-pressure cycles through shared IPs, queues below parallelism |
//! | `L04xx` | unit/dimension consistency | degenerate bandwidths, sizes, granularities, medium-less edges |
//! | `L05xx` | consolidation conflicts    | γ oversubscription, summed tenant demand vs physical peak |
//! | `L06xx` | fault-plan reachability    | unknown/dead targets, overlaps, zero retry budgets |
//! | `L07xx` | fleet placement            | zero-latency links, consolidation overload, link saturation (see [`crate::topology::Topology::analyze`]) |
//!
//! # Severity and gating
//!
//! Each code has a default [`Severity`]; an [`AnalysisConfig`] can
//! override any code and can escalate all warnings to errors
//! (`deny_warnings`, the CI posture). `Deny` findings reject the
//! scenario — `SimulationBuilder::build`[^sim] and
//! [`AnalysisReport::check`] surface them as
//! [`crate::error::LogNicError::AnalysisRejected`] — while `Warn` findings
//! are reported but do not gate, and `Allow` findings are recorded for
//! audit only.
//!
//! [^sim]: in the `lognic-sim` crate.
//!
//! ```
//! use lognic_model::analyze::{AnalysisConfig, Analyzer};
//! use lognic_model::prelude::*;
//!
//! let graph = ExecutionGraph::chain(
//!     "demo",
//!     &[("crypto", IpParams::new(Bandwidth::gbps(40.0)))],
//! )
//! .unwrap();
//! let hw = HardwareModel::default();
//! let traffic = TrafficProfile::fixed(Bandwidth::gbps(100.0), Bytes::new(1500));
//!
//! let report = Analyzer::new(&graph)
//!     .with_hardware(&hw)
//!     .with_traffic(&traffic)
//!     .run(&AnalysisConfig::default());
//! // 100 Gb/s offered into a 40 Gb/s engine: ρ = 2.5.
//! assert!(report.warnings().iter().any(|d| d.code.as_str() == "L0201"));
//! ```

pub mod diag;
pub mod flow;
mod passes;
pub mod witness;

pub use diag::{Code, Diagnostic, Label, Severity, Span};
pub use flow::{propagate, FlowMap, FLOW_EPS};
pub use witness::WitnessExpectation;

use crate::error::{LogNicError, LogNicResult};
use crate::fault::FaultPlan;
use crate::graph::ExecutionGraph;
use crate::params::{HardwareModel, TrafficProfile};

/// Everything a pass may look at. Optional inputs switch off the
/// passes that need them (e.g. graph-only analysis skips saturation).
pub(crate) struct PassContext<'a> {
    pub(crate) graph: &'a ExecutionGraph,
    pub(crate) hw: Option<&'a HardwareModel>,
    pub(crate) traffic: Option<&'a TrafficProfile>,
    pub(crate) plan: Option<&'a FaultPlan>,
    pub(crate) flow: FlowMap,
}

/// Per-run severity policy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnalysisConfig {
    overrides: Vec<(Code, Severity)>,
    deny_warnings: bool,
}

impl AnalysisConfig {
    /// The default policy: every code at its default severity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forces a code to the given severity, overriding its default.
    /// Later calls win over earlier ones for the same code.
    pub fn set_severity(mut self, code: Code, severity: Severity) -> Self {
        self.overrides.push((code, severity));
        self
    }

    /// A policy that puts **every** code at `Allow`: nothing gates,
    /// everything is recorded for audit. The witness pipeline uses it
    /// to simulate deliberately broken scenarios — the whole point of
    /// a witness run is to execute a description the default policy
    /// rejects, under the sanitizer's supervision instead of the
    /// analyzer's.
    pub fn permissive() -> Self {
        let mut cfg = Self::default();
        for &code in Code::ALL {
            cfg = cfg.set_severity(code, Severity::Allow);
        }
        cfg
    }

    /// Escalates every `Warn`-level finding to `Deny` (the CI
    /// posture). Explicit [`Self::set_severity`] calls still win.
    pub fn deny_warnings(mut self, deny: bool) -> Self {
        self.deny_warnings = deny;
        self
    }

    /// The effective severity for a code under this policy.
    pub fn severity_for(&self, code: Code) -> Severity {
        let explicit = self
            .overrides
            .iter()
            .rev()
            .find(|(c, _)| *c == code)
            .map(|(_, s)| *s);
        match explicit {
            Some(s) => s,
            None => {
                let s = code.default_severity();
                if self.deny_warnings && s == Severity::Warn {
                    Severity::Deny
                } else {
                    s
                }
            }
        }
    }
}

/// The outcome of one analyzer run: every finding, including
/// `Allow`-level ones, in pass-registry order.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// All findings, including `Allow`-level audit records.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The findings that reject the scenario.
    pub fn denied(&self) -> Vec<&Diagnostic> {
        self.at_level(Severity::Deny)
    }

    /// The findings reported but not gating.
    pub fn warnings(&self) -> Vec<&Diagnostic> {
        self.at_level(Severity::Warn)
    }

    /// The audit-only findings.
    pub fn allowed(&self) -> Vec<&Diagnostic> {
        self.at_level(Severity::Allow)
    }

    fn at_level(&self, level: Severity) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == level)
            .collect()
    }

    /// True when at least one finding is at `Deny` level.
    pub fn is_rejected(&self) -> bool {
        self.diagnostics.iter().any(|d| d.is_denied())
    }

    /// The analyzer gate: `Ok` unless a finding is at `Deny` level.
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::AnalysisRejected`] carrying every
    /// finding, the non-gating ones included, so callers can render
    /// the full report.
    pub fn check(&self) -> LogNicResult<()> {
        if self.is_rejected() {
            return Err(LogNicError::AnalysisRejected {
                diagnostics: self.diagnostics.clone(),
            });
        }
        Ok(())
    }

    /// True when nothing would be shown by default (no `Deny`, no
    /// `Warn`; `Allow`-level audit records may still be present).
    pub fn is_clean(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity >= Severity::Warn)
    }

    /// Renders every `Warn`-and-above finding in the human span style,
    /// one block per finding separated by blank lines.
    pub fn render_human(&self, color: bool) -> String {
        let blocks: Vec<String> = self
            .diagnostics
            .iter()
            .filter(|d| d.severity >= Severity::Warn)
            .map(|d| d.render_human(color))
            .collect();
        blocks.join("\n\n")
    }

    /// Renders every `Warn`-and-above finding as JSON lines, one
    /// object per line.
    pub fn render_json(&self) -> String {
        let lines: Vec<String> = self
            .diagnostics
            .iter()
            .filter(|d| d.severity >= Severity::Warn)
            .map(Diagnostic::render_json)
            .collect();
        lines.join("\n")
    }
}

/// The analyzer: binds a scenario's parts, then runs the registry.
#[derive(Debug, Clone, Copy)]
pub struct Analyzer<'a> {
    graph: &'a ExecutionGraph,
    hw: Option<&'a HardwareModel>,
    traffic: Option<&'a TrafficProfile>,
    plan: Option<&'a FaultPlan>,
}

impl<'a> Analyzer<'a> {
    /// Analyzes `graph` alone; passes needing hardware, traffic or a
    /// fault plan are skipped until those inputs are supplied.
    pub fn new(graph: &'a ExecutionGraph) -> Self {
        Self {
            graph,
            hw: None,
            traffic: None,
            plan: None,
        }
    }

    /// Supplies the device profile, enabling the saturation and unit
    /// passes that need hardware capacities.
    pub fn with_hardware(mut self, hw: &'a HardwareModel) -> Self {
        self.hw = Some(hw);
        self
    }

    /// Supplies the offered traffic, enabling saturation, demand and
    /// traffic-shape checks.
    pub fn with_traffic(mut self, traffic: &'a TrafficProfile) -> Self {
        self.traffic = Some(traffic);
        self
    }

    /// Supplies the fault plan, enabling the reachability and hygiene
    /// checks over its windows.
    pub fn with_fault_plan(mut self, plan: &'a FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Runs every registered pass and applies the config's severity
    /// policy to the findings.
    pub fn run(&self, config: &AnalysisConfig) -> AnalysisReport {
        let cx = PassContext {
            graph: self.graph,
            hw: self.hw,
            traffic: self.traffic,
            plan: self.plan,
            flow: flow::propagate(self.graph),
        };
        let mut diagnostics = Vec::new();
        for pass in passes::registry() {
            pass.run(&cx, &mut diagnostics);
        }
        let mut diagnostics = dedup(diagnostics);
        for d in &mut diagnostics {
            d.severity = config.severity_for(d.code);
        }
        AnalysisReport { diagnostics }
    }
}

impl AnalysisReport {
    /// Builds a report from raw findings, applying the standard
    /// dedup and the config's severity policy — the same finishing
    /// steps [`Analyzer::run`] applies. Used by analyses that run
    /// outside the per-graph pass registry (the fleet-placement pass
    /// over a [`crate::topology::Topology`]).
    pub(crate) fn from_diagnostics(diags: Vec<Diagnostic>, config: &AnalysisConfig) -> Self {
        let mut diagnostics = dedup(diags);
        for d in &mut diagnostics {
            d.severity = config.severity_for(d.code);
        }
        AnalysisReport { diagnostics }
    }
}

/// Collapses identical findings from overlapping passes: two
/// diagnostics are duplicates when they agree on code, primary span
/// and first label note (the stable identity key — `Span` carries no
/// `Hash`, so the scan is linear, which is fine at diagnostic counts).
/// The first occurrence wins, preserving pass-registry order.
fn dedup(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = Vec::with_capacity(diags.len());
    for d in diags {
        let duplicate = out.iter().any(|e| {
            e.code == d.code
                && e.primary == d.primary
                && e.labels.first().map(|l| &l.note) == d.labels.first().map(|l| &l.note)
        });
        if !duplicate {
            out.push(d);
        }
    }
    out
}

/// The registered pass names, in execution order (for `--list` style
/// tooling).
pub fn pass_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = passes::registry().iter().map(|p| p.name()).collect();
    // The fleet-placement pass runs over a whole `Topology`, not one
    // execution graph, so it lives outside the per-graph registry but
    // is still listed here for `--list` style tooling.
    names.push(crate::topology::FLEET_PASS_NAME);
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::IpParams;
    use crate::units::{Bandwidth, Bytes};

    fn amp_graph() -> ExecutionGraph {
        let mut b = ExecutionGraph::builder("amp");
        let ing = b.ingress("in");
        let a = b.ip("a", IpParams::new(Bandwidth::gbps(1.0)));
        let eg = b.egress("out");
        b.edge(ing, a, crate::params::EdgeParams::new(0.5).unwrap());
        b.edge(a, eg, crate::params::EdgeParams::new(1.0).unwrap());
        b.build().unwrap()
    }

    #[test]
    fn config_overrides_and_deny_warnings() {
        let cfg = AnalysisConfig::default();
        assert_eq!(cfg.severity_for(Code::TrafficCreated), Severity::Warn);
        assert_eq!(cfg.severity_for(Code::CreditCycle), Severity::Deny);
        assert_eq!(cfg.severity_for(Code::TrafficLost), Severity::Allow);

        let cfg = AnalysisConfig::default().deny_warnings(true);
        assert_eq!(cfg.severity_for(Code::TrafficCreated), Severity::Deny);
        // Allow-level codes are not escalated by deny_warnings.
        assert_eq!(cfg.severity_for(Code::TrafficLost), Severity::Allow);

        // Explicit overrides beat both the default and deny_warnings.
        let cfg = AnalysisConfig::default()
            .deny_warnings(true)
            .set_severity(Code::TrafficCreated, Severity::Allow)
            .set_severity(Code::TrafficLost, Severity::Deny);
        assert_eq!(cfg.severity_for(Code::TrafficCreated), Severity::Allow);
        assert_eq!(cfg.severity_for(Code::TrafficLost), Severity::Deny);
    }

    #[test]
    fn report_severity_partitions() {
        let g = amp_graph();
        let report = Analyzer::new(&g).run(&AnalysisConfig::default());
        assert!(!report.is_clean());
        assert!(!report.is_rejected());
        assert_eq!(report.warnings().len(), 1);
        assert!(report.denied().is_empty());

        let report = Analyzer::new(&g).run(&AnalysisConfig::default().deny_warnings(true));
        assert!(report.is_rejected());
        assert_eq!(report.denied().len(), 1);
    }

    #[test]
    fn silenced_code_makes_report_clean() {
        let g = amp_graph();
        let cfg = AnalysisConfig::default().set_severity(Code::TrafficCreated, Severity::Allow);
        let report = Analyzer::new(&g).run(&cfg);
        assert!(report.is_clean(), "{report:?}");
        // The finding is still recorded for audit.
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::TrafficCreated));
    }

    #[test]
    fn renderers_skip_allow_level() {
        let g = amp_graph();
        let cfg = AnalysisConfig::default().set_severity(Code::TrafficCreated, Severity::Allow);
        let report = Analyzer::new(&g).run(&cfg);
        assert!(report.render_human(false).is_empty());
        assert!(report.render_json().is_empty());

        let report = Analyzer::new(&g).run(&AnalysisConfig::default());
        assert!(report.render_human(false).contains("L0101"));
        assert!(report.render_json().contains("\"code\":\"L0101\""));
    }

    #[test]
    fn permissive_config_gates_nothing() {
        for &code in Code::ALL {
            assert_eq!(
                AnalysisConfig::permissive().severity_for(code),
                Severity::Allow,
                "{code}"
            );
        }
        // Even the broken amplifier graph passes under permissive —
        // the findings are still recorded for audit.
        let g = amp_graph();
        let report = Analyzer::new(&g).run(&AnalysisConfig::permissive());
        assert!(report.is_clean());
        assert!(!report.diagnostics().is_empty());
    }

    #[test]
    fn duplicate_findings_from_overlapping_passes_collapse() {
        let span = || Span::Node {
            id: crate::graph::NodeId(1),
            name: "ip".into(),
        };
        let d = |note: &str| {
            Diagnostic::new(Code::SaturatedPartition, span(), "rho too high")
                .with_label(Span::Traffic, note)
        };
        let deduped = dedup(vec![d("offered 20"), d("offered 20"), d("offered 30")]);
        // Identical (code, span, first label) collapse; a differing
        // label note survives as a distinct finding.
        assert_eq!(deduped.len(), 2);
        assert_eq!(deduped[0].labels[0].note, "offered 20");
        assert_eq!(deduped[1].labels[0].note, "offered 30");

        // Different primary spans never collapse, labels or not.
        let other = Diagnostic::new(Code::SaturatedPartition, Span::Graph, "rho too high");
        let kept = dedup(vec![d("x"), other.clone()]);
        assert_eq!(kept.len(), 2);
        // Label-less diagnostics dedup on (code, span) alone.
        assert_eq!(dedup(vec![other.clone(), other]).len(), 1);
    }

    #[test]
    fn analyzer_reports_are_duplicate_free() {
        let g = amp_graph();
        let report = Analyzer::new(&g).run(&AnalysisConfig::default());
        for (i, a) in report.diagnostics().iter().enumerate() {
            for b in &report.diagnostics()[i + 1..] {
                assert!(
                    !(a.code == b.code
                        && a.primary == b.primary
                        && a.labels.first().map(|l| &l.note) == b.labels.first().map(|l| &l.note)),
                    "duplicate finding survived: {a:?}"
                );
            }
        }
    }

    #[test]
    fn pass_names_are_stable() {
        assert_eq!(
            pass_names(),
            vec![
                "traffic-conservation",
                "static-saturation",
                "credit-deadlock",
                "unit-consistency",
                "consolidation-conflicts",
                "fault-reachability",
                "fleet-placement",
            ]
        );
    }

    #[test]
    fn doc_example_scenario_warns_on_saturation() {
        let graph =
            ExecutionGraph::chain("demo", &[("crypto", IpParams::new(Bandwidth::gbps(40.0)))])
                .unwrap();
        let hw = HardwareModel::default();
        let traffic = TrafficProfile::fixed(Bandwidth::gbps(100.0), Bytes::new(1500));
        let report = Analyzer::new(&graph)
            .with_hardware(&hw)
            .with_traffic(&traffic)
            .run(&AnalysisConfig::default());
        assert!(report.warnings().iter().any(|d| d.code.as_str() == "L0201"));
    }
}
