//! Error types returned by model construction and evaluation.

use core::fmt;

/// A number as a message prints it: plainly inside `[1e-6, 1e15)` (or
/// zero), and in `{:e}` form outside, so `1e300` stays five bytes
/// instead of its 301-digit expansion.
pub fn shown(n: f64) -> String {
    let magnitude = n.abs();
    if magnitude == 0.0 || (1e-6..1e15).contains(&magnitude) {
        n.to_string()
    } else {
        format!("{n:e}")
    }
}

/// The workspace-wide error type: everything that can go wrong while
/// building, validating or running a LogNIC scenario — structural
/// graph and model-parameter errors, malformed fault plans, invalid
/// device profiles or run configurations, and the simulation
/// watchdog's structured abort report.
///
/// `SimulationBuilder::build`, the degraded-mode estimators and the
/// replication engine all return this type so that malformed inputs
/// surface as diagnostics instead of panics.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LogNicError {
    /// The execution graph contains a cycle; LogNIC graphs are DAGs
    /// (§3.3). Recirculation must be unrolled into extra vertices.
    CycleDetected {
        /// Name of a node participating in the cycle.
        node: String,
    },
    /// A node other than an egress engine has no outgoing edges, or a
    /// node other than an ingress engine has no incoming edges.
    Disconnected {
        /// Name of the dangling node.
        node: String,
    },
    /// The graph has no ingress vertex.
    MissingIngress,
    /// The graph has no egress vertex.
    MissingEgress,
    /// The graph has no vertices at all.
    EmptyGraph,
    /// No ingress→egress path exists.
    NoPath,
    /// A numeric model parameter is outside its valid domain.
    InvalidParameter {
        /// Which parameter was rejected (e.g. `"delta"`).
        parameter: &'static str,
        /// The offending value.
        value: f64,
        /// Human-readable constraint, e.g. `"must lie in [0, 1]"`.
        constraint: &'static str,
    },
    /// A node or edge id does not belong to this graph. (A dangling
    /// node *name* is [`LogNicError::UnknownNode`].)
    NodeIndexOutOfRange {
        /// The raw index that was out of range.
        index: usize,
    },
    /// Two graphs being consolidated disagree on shared hardware.
    IncompatibleGraphs {
        /// Explanation of the mismatch.
        reason: String,
    },
    /// A weight vector (tenant weights, traffic mix) does not form a
    /// valid convex combination.
    InvalidWeights {
        /// Explanation of the violation.
        reason: String,
    },
    /// A name (service override, queue plan, fault window, …) refers
    /// to a node that does not exist in the execution graph.
    UnknownNode {
        /// What referenced the node (e.g. `"fault window"`).
        context: &'static str,
        /// The dangling name.
        node: String,
    },
    /// Several names across a builder's overrides, queue plans and
    /// fault windows refer to nodes absent from the execution graph.
    /// Reported as one aggregate so a misconfigured scenario surfaces
    /// every dangling reference in a single round trip instead of
    /// failing on the first.
    UnknownNodes {
        /// `(context, name)` pairs, in the order the references were
        /// declared (e.g. `("service override", "ghost")`).
        references: Vec<(&'static str, String)>,
    },
    /// A fault-plan parameter is outside its valid domain.
    InvalidFaultParameter {
        /// Which parameter was rejected (e.g. `"drop probability"`).
        parameter: &'static str,
        /// The offending value.
        value: f64,
        /// Human-readable constraint, e.g. `"must lie in (0, 1]"`.
        constraint: &'static str,
    },
    /// A fault window is empty or inverted (`until <= from`).
    InvalidFaultWindow {
        /// The targeted node.
        node: String,
        /// Window start, in seconds.
        from: f64,
        /// Window end, in seconds.
        until: f64,
    },
    /// A run configuration is unusable (e.g. warmup past the horizon).
    InvalidConfig {
        /// Explanation of the problem.
        reason: String,
    },
    /// A hardware model, traffic profile or device profile fails
    /// validation.
    InvalidProfile {
        /// The component that failed (e.g. `"hardware model"`).
        component: String,
        /// Explanation of the violation.
        reason: String,
    },
    /// The static analyzer rejected the scenario: at least one
    /// diagnostic is at `Deny` level under the active
    /// [`crate::analyze::AnalysisConfig`]. All findings (including the
    /// non-gating ones) ride along so callers can render the full
    /// report.
    AnalysisRejected {
        /// Every finding from the run, in pass-registry order; at
        /// least one is at `Deny` level.
        diagnostics: Vec<crate::analyze::Diagnostic>,
    },
    /// A recorded packet trace is malformed: a missing CSV header, a
    /// CSV field that is not an integer in range, a zero-byte packet,
    /// or arrival timestamps that run backwards. Trace ingest reports the
    /// defect as a diagnostic instead of panicking so that corrupt
    /// capture files surface like any other bad input.
    InvalidTrace {
        /// Explanation of the defect.
        reason: String,
        /// Index of the offending record, when the defect is local to
        /// one record rather than the file framing.
        record: Option<u64>,
    },
    /// A multi-seed replication partially failed: some replicas
    /// completed and some aborted (typically on the event-budget
    /// watchdog). The report names every seed on both sides — in seed
    /// order, independent of the thread schedule — so a capacity
    /// query can tell "one pathological seed" from "the scenario
    /// never terminates".
    ReplicationPartial {
        /// Seeds whose replicas completed, in aggregation order.
        completed: Vec<u64>,
        /// `(seed, error)` for every failed replica, in aggregation
        /// order.
        failed: Vec<(u64, Box<LogNicError>)>,
    },
    /// The runtime sanitizer observed an engine-invariant violation —
    /// packet conservation, credit balance, arena handle discipline,
    /// timestamp monotonicity or accounting cross-checks. A violation
    /// always indicates an engine (or sanitizer) bug, never a
    /// mis-specified scenario: mis-specified scenarios are the static
    /// analyzer's domain.
    SanitizerViolation {
        /// Short invariant name (e.g. `"packet-conservation"`).
        invariant: String,
        /// The node the violation is attributed to, when local to one.
        node: Option<String>,
        /// Sequence number of the event being dispatched when the
        /// violation was detected (0 when outside event dispatch,
        /// e.g. in the end-of-run audit).
        event: u64,
        /// Human-readable account of the observed inconsistency.
        detail: String,
    },
    /// The simulation watchdog aborted a run that exceeded its event
    /// budget — the structured report replaces an apparent hang.
    WatchdogAbort {
        /// Events processed when the watchdog fired.
        events: u64,
        /// Simulated time reached, in seconds.
        sim_time: f64,
        /// Packets injected so far (all-time).
        injected: u64,
        /// Requests still queued or in service across all nodes.
        in_flight: u64,
    },
}

impl fmt::Display for LogNicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogNicError::CycleDetected { node } => {
                write!(f, "execution graph contains a cycle through node `{node}`")
            }
            LogNicError::Disconnected { node } => {
                write!(
                    f,
                    "node `{node}` is not connected on the ingress-egress data path"
                )
            }
            LogNicError::MissingIngress => write!(f, "execution graph has no ingress vertex"),
            LogNicError::MissingEgress => write!(f, "execution graph has no egress vertex"),
            LogNicError::EmptyGraph => write!(f, "execution graph has no vertices"),
            LogNicError::NoPath => write!(f, "no ingress-to-egress path exists"),
            LogNicError::InvalidParameter {
                parameter,
                value,
                constraint,
            } => {
                write!(
                    f,
                    "parameter `{parameter}` = {} is invalid: {constraint}",
                    shown(*value)
                )
            }
            LogNicError::NodeIndexOutOfRange { index } => {
                write!(f, "node index {index} does not belong to this graph")
            }
            LogNicError::IncompatibleGraphs { reason } => {
                write!(f, "graphs cannot be consolidated: {reason}")
            }
            LogNicError::InvalidWeights { reason } => {
                write!(f, "invalid weight vector: {reason}")
            }
            LogNicError::UnknownNode { context, node } => {
                write!(f, "{context} references unknown node `{node}`")
            }
            LogNicError::UnknownNodes { references } => {
                write!(f, "{} unknown node references:", references.len())?;
                for (context, node) in references {
                    write!(f, " {context}→`{node}`")?;
                }
                Ok(())
            }
            LogNicError::InvalidFaultParameter {
                parameter,
                value,
                constraint,
            } => write!(
                f,
                "fault parameter `{parameter}` = {} is invalid: {constraint}",
                shown(*value)
            ),
            LogNicError::InvalidFaultWindow { node, from, until } => write!(
                f,
                "fault window [{}s, {}s) on node `{node}` is empty or inverted",
                shown(*from),
                shown(*until)
            ),
            LogNicError::InvalidConfig { reason } => {
                write!(f, "invalid run configuration: {reason}")
            }
            LogNicError::InvalidProfile { component, reason } => {
                write!(f, "invalid {component}: {reason}")
            }
            LogNicError::AnalysisRejected { diagnostics } => {
                let denied: Vec<&crate::analyze::Diagnostic> =
                    diagnostics.iter().filter(|d| d.is_denied()).collect();
                write!(
                    f,
                    "static analysis rejected the scenario with {} denied diagnostic{}:",
                    denied.len(),
                    if denied.len() == 1 { "" } else { "s" }
                )?;
                for d in denied {
                    write!(f, " [{}] {};", d.code.as_str(), d.message)?;
                }
                Ok(())
            }
            LogNicError::InvalidTrace { reason, record } => match record {
                Some(idx) => write!(f, "invalid packet trace at record {idx}: {reason}"),
                None => write!(f, "invalid packet trace: {reason}"),
            },
            LogNicError::ReplicationPartial { completed, failed } => {
                write!(
                    f,
                    "replication partially failed: {} of {} seeds aborted;",
                    failed.len(),
                    completed.len() + failed.len()
                )?;
                for (seed, err) in failed {
                    write!(f, " seed {seed}: {err};")?;
                }
                Ok(())
            }
            LogNicError::SanitizerViolation {
                invariant,
                node,
                event,
                detail,
            } => {
                write!(f, "sanitizer violation [{invariant}]")?;
                if let Some(node) = node {
                    write!(f, " at node `{node}`")?;
                }
                write!(f, " (event #{event}): {detail}")
            }
            LogNicError::WatchdogAbort {
                events,
                sim_time,
                injected,
                in_flight,
            } => write!(
                f,
                "watchdog aborted non-terminating run after {events} events \
                 (sim time {sim_time}s, {injected} injected, {in_flight} in flight)"
            ),
        }
    }
}

impl std::error::Error for LogNicError {}

/// Convenience alias for results carrying the workspace-wide error.
pub type LogNicResult<T> = std::result::Result<T, LogNicError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_variants_display_their_exact_messages() {
        // These strings reach the service wire inside
        // `evaluation_error` responses, so they are pinned byte for byte.
        let cases = [
            (
                LogNicError::CycleDetected { node: "ip1".into() },
                "execution graph contains a cycle through node `ip1`",
            ),
            (
                LogNicError::Disconnected {
                    node: "orphan".into(),
                },
                "node `orphan` is not connected on the ingress-egress data path",
            ),
            (
                LogNicError::MissingIngress,
                "execution graph has no ingress vertex",
            ),
            (
                LogNicError::MissingEgress,
                "execution graph has no egress vertex",
            ),
            (LogNicError::EmptyGraph, "execution graph has no vertices"),
            (LogNicError::NoPath, "no ingress-to-egress path exists"),
            (
                LogNicError::InvalidParameter {
                    parameter: "delta",
                    value: 1.5,
                    constraint: "must lie in [0, 1]",
                },
                "parameter `delta` = 1.5 is invalid: must lie in [0, 1]",
            ),
            (
                LogNicError::InvalidFaultParameter {
                    parameter: "rate degradation factor",
                    value: 1e300,
                    constraint: "must lie in (0, 1]",
                },
                "fault parameter `rate degradation factor` = 1e300 is invalid: must lie in (0, 1]",
            ),
            (
                LogNicError::InvalidFaultWindow {
                    node: "ip".into(),
                    from: 2e-9,
                    until: 1e-9,
                },
                "fault window [2e-9s, 1e-9s) on node `ip` is empty or inverted",
            ),
            (
                LogNicError::NodeIndexOutOfRange { index: 1000 },
                "node index 1000 does not belong to this graph",
            ),
            (
                LogNicError::IncompatibleGraphs {
                    reason: "tenants disagree on the memory model".into(),
                },
                "graphs cannot be consolidated: tenants disagree on the memory model",
            ),
            (
                LogNicError::InvalidWeights {
                    reason: "weights sum to 0.5, not 1".into(),
                },
                "invalid weight vector: weights sum to 0.5, not 1",
            ),
        ];
        for (error, expected) in cases {
            assert_eq!(error.to_string(), expected, "{error:?}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<LogNicError>();
    }

    #[test]
    fn lognic_error_display_is_informative() {
        let e = LogNicError::UnknownNode {
            context: "fault window",
            node: "crypto".into(),
        };
        assert!(e.to_string().contains("crypto"));
        let e = LogNicError::WatchdogAbort {
            events: 1000,
            sim_time: 0.5,
            injected: 42,
            in_flight: 7,
        };
        assert!(e.to_string().contains("1000"));
        assert!(e.to_string().contains("watchdog"));
        let e = LogNicError::InvalidFaultWindow {
            node: "ip".into(),
            from: 2.0,
            until: 1.0,
        };
        assert!(e.to_string().contains("ip"));
        let e = LogNicError::SanitizerViolation {
            invariant: "packet-conservation".into(),
            node: Some("crypto".into()),
            event: 812,
            detail: "ledger drifted by 3 packets".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("packet-conservation"), "{msg}");
        assert!(msg.contains("crypto"), "{msg}");
        assert!(msg.contains("812"), "{msg}");
        let e = LogNicError::SanitizerViolation {
            invariant: "monotonic-time".into(),
            node: None,
            event: 0,
            detail: "time ran backwards".into(),
        };
        assert!(!e.to_string().contains('`'), "{e}");
        let e = LogNicError::UnknownNodes {
            references: vec![
                ("service override", "ghost".into()),
                ("outage", "phantom".into()),
            ],
        };
        let msg = e.to_string();
        assert!(msg.contains("ghost") && msg.contains("phantom"), "{msg}");
        assert!(msg.contains('2'), "aggregate count: {msg}");
    }
}
