//! The diagnostic type and its renderers.
//!
//! Every analysis pass reports findings as [`Diagnostic`]s: a stable
//! `L0xxx` [`Code`], a resolved [`Severity`], a primary [`Span`]
//! locating the finding in the scenario description, labeled notes,
//! and an optional suggested fix. Two renderers ship with the type:
//! a span-style, color-aware human format and a machine-readable
//! JSON-lines format (one object per line, no external dependencies).

use core::fmt;

use crate::graph::{EdgeId, NodeId};
use crate::json::escape;

/// How a diagnostic participates in gating.
///
/// Severities are ordered: `Allow < Warn < Deny`. A run is *rejected*
/// when at least one `Deny` diagnostic fires; `Warn` findings are
/// reported but do not gate; `Allow` findings are suppressed from
/// default reports (they exist so a code can be turned off — or
/// re-enabled — per run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suppressed: recorded only when explicitly requested.
    Allow,
    /// Reported, does not gate.
    Warn,
    /// Reported and rejects the scenario.
    Deny,
}

impl Severity {
    /// The lowercase label used by both renderers.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warning",
            Severity::Deny => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

macro_rules! codes {
    ($($(#[doc = $doc:literal])+ $variant:ident = ($code:literal, $slug:literal, $default:ident, $explain:literal),)+) => {
        /// A stable diagnostic code (`L0xxx`).
        ///
        /// The hundreds digit groups codes by pass family: `L01xx`
        /// traffic conservation, `L02xx` static saturation, `L03xx`
        /// credit deadlock, `L04xx` unit/dimension consistency,
        /// `L05xx` multi-tenant consolidation, `L06xx` fault-plan
        /// reachability, `L07xx` fleet placement (multi-NIC
        /// topologies).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[non_exhaustive]
        pub enum Code {
            $($(#[doc = $doc])+ $variant,)+
        }

        impl Code {
            /// All codes, in numeric order.
            pub const ALL: &'static [Code] = &[$(Code::$variant,)+];

            /// The stable `L0xxx` identifier.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Code::$variant => $code,)+
                }
            }

            /// A short kebab-case name for the check.
            pub fn slug(self) -> &'static str {
                match self {
                    $(Code::$variant => $slug,)+
                }
            }

            /// The severity the code carries unless a run's
            /// [`crate::analyze::AnalysisConfig`] overrides it.
            pub fn default_severity(self) -> Severity {
                match self {
                    $(Code::$variant => Severity::$default,)+
                }
            }

            /// Parses an `L0xxx` identifier or kebab-case slug.
            pub fn parse(s: &str) -> Option<Code> {
                Code::ALL
                    .iter()
                    .copied()
                    .find(|c| c.as_str().eq_ignore_ascii_case(s) || c.slug() == s)
            }

            /// Extended rustc-style documentation for the code
            /// (`lognic-lint --explain L0xxx`): what the finding
            /// means, why it matters, how to fix it, and the dynamic
            /// witness signature that confirms it. The first line is
            /// the one-line summary returned by
            /// [`summary`](Self::summary).
            pub fn explain(self) -> &'static str {
                match self {
                    $(Code::$variant => $explain,)+
                }
            }

            /// The one-line summary: the first line of
            /// [`explain`](Self::explain).
            pub fn summary(self) -> &'static str {
                let text = self.explain();
                match text.split_once('\n') {
                    Some((first, _)) => first,
                    None => text,
                }
            }
        }
    };
}

codes! {
    /// A vertex's declared outgoing `Σδ` exceeds its incoming `Σδ`:
    /// the graph creates traffic out of thin air.
    TrafficCreated = ("L0101", "traffic-created", Warn,
"a vertex declares more outgoing flow than arrives at it

The δ fractions on a vertex's outgoing edges sum above the fraction
of the ingress flow that reaches it, so the description claims the
vertex amplifies traffic. Eq. 1's per-component demand and every
downstream capacity check inherit the phantom flow, inflating the
model's throughput bounds.

Fix: scale the outgoing δ fractions so they sum to at most the
incoming flow, or model real amplification (e.g. decompression) with
an edge `size_factor` instead of δ.

Witness: a sanitized simulation realizes at most one departure per
arrival — the measured per-packet amplification stays at 1 while the
description declares more, a flow-mismatch the run cannot close."),
    /// A fan-out vertex's outgoing `Σδ` falls short of its incoming
    /// `Σδ`: part of the flow silently disappears. Often intentional
    /// (filters, caches), so allowed by default.
    TrafficLost = ("L0102", "traffic-lost", Allow,
"a fan-out vertex's outgoing δ fractions drop part of the flow

The outgoing δ sum falls short of the flow arriving at the vertex.
Filters, caches and early-reply paths do this on purpose, so the
finding is allow-level by default; enable it when the graph is meant
to conserve flow end to end.

Fix: add the missing outgoing edge(s), or raise δ so the sums match;
silence the code per run when the loss is intentional.

Witness: the simulator routes every packet somewhere — the realized
per-path split renormalizes the declared fractions, so measured
delivery contradicts the declared loss: the δ annotations and the
dynamics describe different machines."),
    /// A compute vertex the propagated flow never reaches.
    StarvedNode = ("L0103", "starved-node", Warn,
"a compute vertex is unreachable by the propagated flow

Fixpoint propagation of δ from the ingress assigns this vertex zero
flow: every path to it crosses a δ = 0 edge. Its capacity is dead
weight in the description and any per-node expectation about it is
untestable.

Fix: remove the vertex, or give some path to it a positive δ.

Witness: a sanitized run delivers traffic end to end while the
vertex's arrival counter stays exactly zero."),
    /// An edge declares interface/memory usage but carries no traffic.
    MediumOnEmptyEdge = ("L0104", "medium-on-empty-edge", Warn,
"an edge bills a shared medium for traffic that never flows

The edge declares interface or memory usage (α/β > 0) but carries
δ = 0. Eq. 2 charges the medium for data that never moves, skewing
the media-bound throughput estimate.

Fix: zero the medium fractions on the empty edge, or give it flow.

Witness: a sanitized run completes traffic while the edge's
destination sees zero arrivals — the declared medium cost is dead
code the dynamics never execute."),
    /// A component's utilization `ρ = offered / capacity` is ≥ 1: the
    /// partition saturates before any simulation is run.
    SaturatedPartition = ("L0201", "saturated-partition", Warn,
"a component saturates: offered load meets or exceeds its capacity

The per-component utilization ρ computed from the Eq. 1–4 bounds is
at least 1. The component is the pipeline's bottleneck by
construction; queues grow without bound and the delivered rate clamps
at the component's capacity.

Fix: shed offered load, raise the component's peak/parallelism, or
re-partition the pipeline.

Witness: a sanitized run at the declared rate exhibits the overload —
queue-full drops, maximum queue depth at capacity, and throughput
clamped below the offered rate."),
    /// A component's utilization exceeds 0.9 without reaching 1.
    NearSaturation = ("L0202", "near-saturation", Allow,
"a component runs close to saturation (ρ above the warning threshold)

Utilization is below 1 but above 0.9: small rate increases, bursts
or degradation windows will tip the component over. Allow-level by
default because steady-state operation near the knee can be
intentional.

Fix: derate the offered load (the `lognic-lint` clean corpus ships at
ρ = 0.5) or provision headroom.

Witness: a sanitized run shows the pressure — engine utilization near
the ρ the model predicted and a standing queue — without the drops of
full saturation."),
    /// Same-named bounded-queue vertices form a back-pressure cycle:
    /// consolidated tenants traverse shared physical IPs in opposite
    /// orders and can deadlock on queue credits.
    CreditCycle = ("L0301", "credit-cycle", Deny,
"consolidated tenants traverse shared IPs in opposite orders

Two tenants cross the same physical engines (same-named vertices) in
opposite orders with bounded queues: under back-pressure each can
hold the credits the other needs — the classic ABBA deadlock, in
queue credits. Deny by default because the hazard is structural, not
load-dependent.

Fix: make all tenants traverse shared engines in one global order, or
give the shared engines unbounded (or reserved-per-tenant) queues.

Witness: the LogNIC simulator has no cross-node back-pressure, so the
witness exhibits the starvation half of the deadlock: the shared
engines refuse work at full queues (drops) while their engines sit
partly idle — credits exhausted with capacity to spare."),
    /// A vertex's effective queue capacity is below its parallelism
    /// degree: some engines can never be fed.
    QueueBelowParallelism = ("L0302", "queue-below-parallelism", Warn,
"a vertex's queue capacity cannot feed its parallel engines

The bounded queue admits fewer requests than the vertex has engines
(N < D): even under infinite offered load at most N engines ever hold
work, so the vertex's effective capacity is a fraction N/D of its
peak, silently.

Fix: raise the queue capacity above the parallelism degree.

Witness: queue credits are shared with in-service requests, so a
sanitized overload run refuses arrivals while its waiting queue never
holds a single packet — the vertex sheds load with engines idle."),
    /// A shared hardware medium (interface or memory) has zero
    /// bandwidth: every path that touches it starves.
    DegenerateMedium = ("L0401", "degenerate-medium", Deny,
"a shared hardware medium has zero bandwidth

The device profile declares an interface or memory bandwidth of zero.
Every transfer that touches the medium takes unbounded time; the
model's media bounds collapse to zero throughput.

Fix: give the medium its real bandwidth, or remove the α/β fractions
that route data over it.

Witness: a sanitized run injects packets and completes none — every
transfer over the dead medium exceeds any finite backlog bound and is
shed."),
    /// The traffic profile offers a zero ingress rate.
    ZeroIngressRate = ("L0402", "zero-ingress-rate", Deny,
"the traffic profile offers a zero ingress rate

With BW_in = 0 the Poisson inter-arrival time is infinite: the model
divides by zero and the simulation has nothing to inject. Nothing
downstream of the profile is meaningful.

Fix: offer a positive rate (or remove the scenario from the run).

Witness: a sanitized run injects exactly zero packets over the whole
horizon — or the runtime refuses the profile outright."),
    /// The packet-size distribution contains a zero-byte size.
    ZeroPacketSize = ("L0403", "zero-packet-size", Deny,
"the packet-size distribution contains a zero-byte packet

Zero-byte packets make the per-packet inter-arrival time zero at any
positive bit rate: injection degenerates into an unbounded burst at a
single instant, and per-byte quantities (service time, transfer time)
all collapse to zero.

Fix: use the protocol's real minimum frame size (64 B for Ethernet).

Witness: a sanitized run shows the collapse — packets complete while
the measured data rate stays exactly zero, or the injection runaway
trips the packet/watchdog caps."),
    /// The ingress granularity override is zero bytes.
    ZeroGranularity = ("L0404", "zero-granularity", Deny,
"the ingress granularity override is zero bytes

Granularity g scales every per-unit quantity in Eq. 7's latency
pipeline; g = 0 zeroes compute and transfer times, so the model
predicts free processing.

Fix: drop the override (packets are then their own granularity) or
set the real DMA/doorbell unit size.

Witness: the analytical model predicts zero latency while a sanitized
simulation of the same scenario measures strictly positive latency —
the degenerate granularity breaks the model, not the machine."),
    /// An edge carries traffic (`δ > 0`) but declares no transport
    /// medium at all (`α = β = 0`, no dedicated link): the data
    /// teleports and Eq. 2 charges nothing for the move.
    EdgeWithoutMedium = ("L0405", "edge-without-medium", Allow,
"an edge carries traffic but declares no transport medium

δ > 0 with α = β = 0 and no dedicated link: data moves between the
vertices for free. Sometimes right (on-die queues), often a forgotten
annotation that hides a real interconnect cost. Allow-level by
default.

Fix: declare the interface/memory fraction or a dedicated link; keep
it free only for genuinely on-die handoffs.

Witness: a sanitized run delivers traffic end to end while every
shared medium reports zero transferred bytes — the bytes teleport."),
    /// Partitions (`γ`) of same-named vertices sum above 1: the
    /// virtual IPs oversubscribe the physical one.
    OversubscribedPartition = ("L0501", "oversubscribed-partition", Warn,
"same-named virtual IPs oversubscribe the physical engine (Σγ > 1)

The γ shares of vertices mapping onto one physical engine sum above
1: the description hands out more of the engine than exists, so every
per-tenant capacity derived from γ is optimistic.

Fix: scale the γ shares to sum to at most 1.

Witness: under overload a sanitized run delivers more aggregate
throughput through the group than the physical engine's peak — the
description realizes capacity the hardware does not have."),
    /// The summed traffic demand of same-named virtual IPs exceeds the
    /// physical engine's peak: consolidation overloads the engine even
    /// though each tenant fits alone.
    ConsolidationOverload = ("L0502", "consolidation-overload", Warn,
"consolidated tenants jointly overload the shared physical engine

Per-tenant demand is fine, but the sum across all same-named
placements exceeds the physical engine's peak: consolidation, not any
single tenant, is what overloads the engine.

Fix: spread tenants across engines, derate the offered load, or raise
the engine's peak.

Witness: a sanitized run at the declared rates drops packets at the
consolidated vertices and clamps aggregate throughput below the
offered rate."),
    /// A fault window targets a node name absent from the graph.
    FaultUnknownNode = ("L0601", "fault-unknown-node", Warn,
"a fault window targets a node that does not exist

The chaos schedule names a vertex absent from the execution graph —
usually a typo or a stale plan after a rename. The intended
experiment silently does not happen.

Fix: point the window at an existing vertex name.

Witness: the simulation runtime refuses the plan outright (unknown
node), or — were the window dropped — the faulted run would be
byte-identical to the fault-free run: the chaos is inert."),
    /// Two same-kind fault windows on one node overlap in time.
    FaultOverlappingWindows = ("L0602", "fault-overlapping-windows", Warn,
"two same-kind fault windows on one node overlap in time

Overlapping windows of the same kind stack their effects, which is
almost never what the schedule author meant: the overlap region is
either redundant (outages) or compounds probabilities (drops) in a
way the plan does not state explicitly.

Fix: merge the windows into one, or make the overlap explicit with a
single window covering the union.

Witness: replacing the overlapping outage windows with their merged
hull leaves a sanitized run byte-identical — the overlap adds nothing
the merged window does not already do."),
    /// Loss-inducing faults paired with a zero retry budget.
    FaultZeroRetryBudget = ("L0603", "fault-zero-retry-budget", Warn,
"loss-inducing faults are scheduled with a zero retry budget

The plan injects drops or outages but the retry policy allows zero
attempts: every refused packet is lost for good. Usually the author
meant to test recovery, not pure loss.

Fix: give the retry policy a positive budget, or drop the policy
entirely if pure loss is intended.

Witness: a sanitized run loses packets to the fault windows while the
retry counter stays exactly zero — loss with no recovery attempt."),
    /// A fault window on a node the propagated traffic never reaches:
    /// the chaos would fire against dead flow.
    DeadFaultWindow = ("L0604", "dead-fault-window", Warn,
"a fault window targets a node the traffic never reaches

The window's target exists but the propagated flow assigns it zero
traffic: the chaos fires against a vertex that never sees a packet,
so the experiment tests nothing.

Fix: target a vertex on the live data path, or give the target's
paths positive δ.

Witness: a sanitized run with the plan is byte-identical to the run
without it — the scheduled fault demonstrably changes nothing."),
    /// A traffic-carrying fleet link declares zero propagation
    /// latency, which collapses the conservative-lookahead window.
    FleetZeroLatencyLink = ("L0701", "fleet-zero-latency-link", Deny,
"a traffic-carrying fleet link has zero propagation latency

The fleet event loop steps every NIC one conservative-lookahead window
at a time and exchanges boundary packets at each window edge; the
lookahead is the minimum latency over links that actually carry
traffic. A zero-latency link collapses that window to nothing: no
finite schedule of windows can order cross-NIC events, so the topology
is degenerate.

Fix: give the link a positive propagation latency (even 1 ps), or set
its traffic share to zero if it should carry nothing.

Witness: the fleet runtime refuses to build the topology with a typed
analysis rejection carrying this code."),
    /// Consolidated placement overload: a NIC's local traffic plus the
    /// fabric traffic routed onto it exceeds what it can serve.
    FleetConsolidationOverload = ("L0702", "fleet-consolidation-overload", Warn,
"a NIC's local plus incoming fabric load exceeds its attainable throughput

Consolidating tenant graphs across a fleet routes part of each NIC's
egress onto its neighbours. This NIC's own offered load plus the
traffic its incoming links deliver is more than its §3.4 attainable
throughput: the placement overloads the device, and the overflow will
queue and drop at its ingress.

Fix: move a tenant to a less loaded NIC, lower the link shares routing
traffic here, or provision a device with more capacity.

Witness: a fleet run shows the overloaded NIC dropping packets or
clamping its delivered throughput below the combined offered rate."),
    /// A fleet link is offered more traffic than its bandwidth.
    FleetUplinkSaturated = ("L0703", "fleet-uplink-saturated", Warn,
"a fleet link is offered more traffic than its bandwidth carries

The share of the source NIC's egress routed over this link exceeds the
link's serialization bandwidth. The link becomes the bottleneck: its
transmit queue grows without bound and cross-NIC latency inflates by
the queueing delay.

Fix: raise the link bandwidth, lower its traffic share, or spread the
share across parallel links.

Witness: a fleet run drives the link's utilization to saturation while
packets arrive at the far NIC later than the propagation latency alone
would allow."),
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the scenario description a finding points.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Span {
    /// The whole program.
    Graph,
    /// A vertex of the execution graph.
    Node {
        /// The vertex id.
        id: NodeId,
        /// The vertex name.
        name: String,
    },
    /// An edge of the execution graph.
    Edge {
        /// The edge id.
        id: EdgeId,
        /// The source vertex name.
        src: String,
        /// The destination vertex name.
        dst: String,
    },
    /// A window of the fault plan.
    FaultWindow {
        /// Index of the window inside the plan.
        index: usize,
        /// The targeted node name.
        node: String,
    },
    /// A shared hardware medium of the device profile.
    Hardware {
        /// `"interface"` or `"memory"`.
        medium: &'static str,
    },
    /// The traffic profile.
    Traffic,
    /// A NIC instance of a fleet topology.
    Nic {
        /// The NIC's index within the topology.
        index: usize,
        /// The NIC's name.
        name: String,
    },
    /// A fleet link between two NIC instances.
    FleetLink {
        /// The source NIC name.
        src: String,
        /// The destination NIC name.
        dst: String,
    },
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Graph => write!(f, "execution graph"),
            Span::Node { id, name } => write!(f, "node `{name}` (#{})", id.index()),
            Span::Edge { id, src, dst } => {
                write!(f, "edge #{} `{src}` -> `{dst}`", id.index())
            }
            Span::FaultWindow { index, node } => {
                write!(f, "fault-plan[{index}] on `{node}`")
            }
            Span::Hardware { medium } => write!(f, "hardware {medium}"),
            Span::Traffic => write!(f, "traffic profile"),
            Span::Nic { index, name } => write!(f, "nic `{name}` (#{index})"),
            Span::FleetLink { src, dst } => {
                write!(f, "fleet link `{src}` -> `{dst}`")
            }
        }
    }
}

/// A secondary note attached to a diagnostic, anchored at its own span.
#[derive(Debug, Clone, PartialEq)]
pub struct Label {
    /// Where the note points.
    pub span: Span,
    /// The note text.
    pub note: String,
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// The severity after applying the run's configuration.
    pub severity: Severity,
    /// The one-line statement of the problem.
    pub message: String,
    /// The primary location.
    pub primary: Span,
    /// Secondary labeled notes.
    pub labels: Vec<Label>,
    /// A suggested fix, when one exists.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic at its code's default severity.
    pub fn new(code: Code, primary: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            primary,
            labels: Vec::new(),
            help: None,
        }
    }

    /// Attaches a labeled note.
    pub fn with_label(mut self, span: Span, note: impl Into<String>) -> Self {
        self.labels.push(Label {
            span,
            note: note.into(),
        });
        self
    }

    /// Attaches a suggested fix.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// True when this diagnostic rejects the scenario.
    pub fn is_denied(&self) -> bool {
        self.severity == Severity::Deny
    }

    /// Renders the span-style human format, optionally with ANSI
    /// color.
    ///
    /// ```text
    /// warning[L0201]: partition `ssd` saturates: rho = 1.33
    ///   --> node `nvme-ssd` (#2)
    ///   note: offered 32.000Gbps vs capacity 24.000Gbps
    ///   help: shed load below 24.000Gbps
    /// ```
    pub fn render_human(&self, color: bool) -> String {
        use core::fmt::Write as _;
        let (sev_on, bold_on, off) = if color {
            let sev = match self.severity {
                Severity::Deny => "\x1b[1;31m",
                Severity::Warn => "\x1b[1;33m",
                Severity::Allow => "\x1b[1;36m",
            };
            (sev, "\x1b[1m", "\x1b[0m")
        } else {
            ("", "", "")
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{sev_on}{}[{}]{off}{bold_on}: {}{off}",
            self.severity, self.code, self.message
        );
        let _ = writeln!(out, "  --> {}", self.primary);
        for label in &self.labels {
            if label.span == self.primary || label.span == Span::Graph {
                let _ = writeln!(out, "  note: {}", label.note);
            } else {
                let _ = writeln!(out, "  note[{}]: {}", label.span, label.note);
            }
        }
        if let Some(help) = &self.help {
            let _ = writeln!(out, "  help: {help}");
        }
        out
    }

    /// Renders the machine format: one JSON object on one line.
    pub fn render_json(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"code\":\"{}\",\"check\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\"span\":\"{}\"",
            self.code,
            self.code.slug(),
            self.severity,
            escape(&self.message),
            escape(&self.primary.to_string()),
        );
        if !self.labels.is_empty() {
            let _ = write!(out, ",\"notes\":[");
            for (i, label) in self.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"span\":\"{}\",\"note\":\"{}\"}}",
                    escape(&label.span.to_string()),
                    escape(&label.note)
                );
            }
            out.push(']');
        }
        if let Some(help) = &self.help {
            let _ = write!(out, ",\"help\":\"{}\"", escape(help));
        }
        out.push('}');
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} ({})",
            self.severity, self.code, self.message, self.primary
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic::new(
            Code::SaturatedPartition,
            Span::Node {
                id: NodeId(2),
                name: "ssd".into(),
            },
            "partition `ssd` saturates: rho = 1.33",
        )
        .with_label(Span::Graph, "offered 32Gbps vs capacity 24Gbps")
        .with_help("shed load below 24Gbps")
    }

    #[test]
    fn codes_are_unique_and_parseable() {
        for (i, a) in Code::ALL.iter().enumerate() {
            for b in &Code::ALL[i + 1..] {
                assert_ne!(a.as_str(), b.as_str());
                assert_ne!(a.slug(), b.slug());
            }
            assert_eq!(Code::parse(a.as_str()), Some(*a));
            assert_eq!(Code::parse(a.slug()), Some(*a));
        }
        assert_eq!(Code::parse("L9999"), None);
        assert_eq!(Code::parse("l0101"), Some(Code::TrafficCreated));
    }

    #[test]
    fn severity_ordering_gates() {
        assert!(Severity::Allow < Severity::Warn);
        assert!(Severity::Warn < Severity::Deny);
        assert!(sample().severity == Severity::Warn);
        assert!(!sample().is_denied());
    }

    #[test]
    fn human_render_plain_and_colored() {
        let d = sample();
        let plain = d.render_human(false);
        assert!(plain.contains("warning[L0201]"), "{plain}");
        assert!(plain.contains("--> node `ssd` (#2)"), "{plain}");
        assert!(plain.contains("note: offered"), "{plain}");
        assert!(plain.contains("help: shed load"), "{plain}");
        assert!(!plain.contains('\x1b'));
        let colored = d.render_human(true);
        assert!(colored.contains("\x1b[1;33m"), "{colored}");
        assert!(colored.contains("\x1b[0m"));
    }

    #[test]
    fn json_render_is_one_escaped_line() {
        let mut d = sample();
        d.message = "quote \" backslash \\ newline \n".into();
        let json = d.render_json();
        assert_eq!(json.lines().count(), 1);
        assert!(json.starts_with("{\"code\":\"L0201\""), "{json}");
        assert!(json.contains("\\\""), "{json}");
        assert!(json.contains("\\\\"), "{json}");
        assert!(json.contains("\\n"), "{json}");
        assert!(json.contains("\"help\":"), "{json}");
        assert!(json.ends_with('}'));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Code::CreditCycle.to_string(), "L0301");
        assert_eq!(Severity::Deny.to_string(), "error");
        let d = sample();
        assert!(d.to_string().contains("L0201"));
        assert!(Span::Edge {
            id: EdgeId(1),
            src: "a".into(),
            dst: "b".into()
        }
        .to_string()
        .contains("`a` -> `b`"));
        assert_eq!(
            Span::Hardware { medium: "memory" }.to_string(),
            "hardware memory"
        );
        assert_eq!(Span::Traffic.to_string(), "traffic profile");
    }

    #[test]
    fn every_code_has_extended_docs() {
        for code in Code::ALL {
            let explain = code.explain();
            assert!(!explain.is_empty(), "{code} has no extended docs");
            let summary = code.summary();
            assert!(!summary.is_empty(), "{code} has no summary");
            assert!(
                !summary.contains('\n'),
                "{code} summary spans lines: {summary:?}"
            );
            assert_eq!(
                explain.lines().next(),
                Some(summary),
                "{code} summary is not the first explain line"
            );
            // Every extended doc states how the finding is confirmed.
            assert!(
                explain.contains("Witness:"),
                "{code} explain lacks a witness paragraph"
            );
            assert!(
                explain.contains("Fix:"),
                "{code} explain lacks a fix paragraph"
            );
        }
    }

    #[test]
    fn summaries_are_distinct() {
        for (i, a) in Code::ALL.iter().enumerate() {
            for b in &Code::ALL[i + 1..] {
                assert_ne!(a.summary(), b.summary(), "{a} vs {b}");
            }
        }
    }

    /// A minimal JSON validity check: walks the string and verifies
    /// every `"` inside string literals is escaped, braces balance,
    /// and no raw control characters survive. Enough to catch a
    /// renderer that forgets to escape a hostile field.
    fn assert_valid_jsonish(s: &str) {
        let mut depth = 0i32;
        let mut in_str = false;
        let mut escaped = false;
        for c in s.chars() {
            assert!(
                (c as u32) >= 0x20,
                "raw control char {:#04x} in output: {s}",
                c as u32
            );
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
            } else {
                match c {
                    '"' => in_str = true,
                    '{' | '[' => depth += 1,
                    '}' | ']' => depth -= 1,
                    _ => {}
                }
                assert!(depth >= 0, "unbalanced close in {s}");
            }
        }
        assert!(!in_str, "unterminated string in {s}");
        assert_eq!(depth, 0, "unbalanced braces in {s}");
    }

    #[test]
    fn json_render_survives_hostile_node_names() {
        // Node names flow verbatim into spans, messages and notes;
        // each hostile name must come out as a single valid JSON line.
        let hostile = [
            "quote\"inside",
            "back\\slash",
            "new\nline",
            "tab\there",
            "bell\u{7}char",
            "\"},\"injected\":\"true",
            "unicode-π-名前",
        ];
        for name in hostile {
            let d = Diagnostic::new(
                Code::StarvedNode,
                Span::Node {
                    id: NodeId(3),
                    name: name.into(),
                },
                format!("node `{name}` is unreachable"),
            )
            .with_label(
                Span::Node {
                    id: NodeId(3),
                    name: name.into(),
                },
                format!("no path with positive flow reaches `{name}`"),
            )
            .with_help(format!("remove `{name}` or route flow to it"));
            let json = d.render_json();
            assert_eq!(json.lines().count(), 1, "{name:?} -> {json}");
            assert_valid_jsonish(&json);
            // The injection attempt must not create a new key.
            assert!(
                !json.contains("\"injected\":"),
                "{name:?} injected a key: {json}"
            );
        }
    }

    #[test]
    fn json_render_escapes_hostile_edge_and_window_spans() {
        let d = Diagnostic::new(
            Code::DeadFaultWindow,
            Span::FaultWindow {
                index: 0,
                node: "evil\"node\\".into(),
            },
            "window targets dead flow",
        )
        .with_label(
            Span::Edge {
                id: EdgeId(0),
                src: "a\"b".into(),
                dst: "c\\d".into(),
            },
            "edge carries zero flow",
        );
        let json = d.render_json();
        assert_eq!(json.lines().count(), 1);
        assert_valid_jsonish(&json);
    }
}
