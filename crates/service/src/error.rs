//! The service's typed error surface.
//!
//! Every request line gets exactly one response; when anything goes
//! wrong the response is an `ok:false` envelope carrying a
//! [`ServiceError`] rendered as a stable machine code plus a
//! human-readable message. Model/simulation failures ride along as
//! the workspace's [`LogNicError`] so a watchdog abort or a rejected
//! analysis keeps its structured details end to end.

use core::fmt;

use lognic_model::analyze::{Diagnostic, Severity};
use lognic_model::error::LogNicError;

use crate::json::{escape, render_number, Json};

/// Everything the serve loop can refuse a request with.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The line is not a well-formed JSON document.
    Parse {
        /// What the JSON parser objected to.
        reason: String,
    },
    /// The document is valid JSON but not a valid request (wrong
    /// shape, missing/unknown fields, wrong field types).
    InvalidRequest {
        /// Explanation of the violation.
        reason: String,
    },
    /// The `kind` field names no supported request kind.
    UnknownKind {
        /// The offending kind.
        kind: String,
    },
    /// The `graph` field names no registered graph.
    UnknownGraph {
        /// The dangling name.
        graph: String,
    },
    /// A numeric parameter is outside its valid domain.
    InvalidParameter {
        /// Which field was rejected.
        parameter: String,
        /// Human-readable constraint.
        reason: String,
    },
    /// A sweep asked for more points than the configured cap.
    OversizedSweep {
        /// Requested point count.
        points: usize,
        /// The configured maximum.
        limit: usize,
    },
    /// The request's cost exceeds the load gauge's high-water mark, so
    /// it could never be admitted, even by an idle service; it is
    /// refused outright rather than shed with a retry hint.
    OversizedRequest {
        /// The request's cost, in logical milliseconds.
        cost: u64,
        /// The configured high-water mark.
        limit: u64,
    },
    /// The deterministic cost model predicts the request cannot
    /// complete inside its declared deadline, so it is refused at
    /// admission instead of evaluated and discarded late.
    DeadlineExceeded {
        /// The request's deadline, in milliseconds.
        deadline_ms: f64,
        /// The cost model's predicted demand, in logical
        /// milliseconds.
        predicted_ms: f64,
    },
    /// The in-flight gauge is above its high-water mark: the request
    /// is shed, not queued.
    Overloaded {
        /// Deterministic hint: resubmit after this many milliseconds.
        retry_after_ms: u64,
        /// Logical occupancy when the request arrived.
        occupancy: u64,
        /// The configured high-water mark.
        high_water: u64,
    },
    /// The evaluation failed inside the model/simulator with a typed
    /// workspace error (analysis rejection, watchdog abort, partial
    /// replication failure, …).
    Evaluation(LogNicError),
    /// A panic escaped the evaluation and was contained by the
    /// request isolation boundary.
    Internal {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl ServiceError {
    /// The stable machine-readable code for this error.
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::Parse { .. } => "parse_error",
            ServiceError::InvalidRequest { .. } => "invalid_request",
            ServiceError::UnknownKind { .. } => "unknown_kind",
            ServiceError::UnknownGraph { .. } => "unknown_graph",
            ServiceError::InvalidParameter { .. } => "invalid_parameter",
            ServiceError::OversizedSweep { .. } => "oversized_sweep",
            ServiceError::OversizedRequest { .. } => "oversized_request",
            ServiceError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServiceError::Overloaded { .. } => "overloaded",
            ServiceError::Evaluation(e) => match e {
                LogNicError::AnalysisRejected { .. } => "analysis_rejected",
                LogNicError::WatchdogAbort { .. } => "watchdog_abort",
                LogNicError::ReplicationPartial { .. } => "replication_partial",
                _ => "evaluation_error",
            },
            ServiceError::Internal { .. } => "internal",
        }
    }

    /// True when the error means "try again later" rather than "this
    /// request is wrong".
    pub fn is_shed(&self) -> bool {
        matches!(self, ServiceError::Overloaded { .. })
    }

    /// Renders the error as the `"error":{…}` JSON object body,
    /// including code-specific structured detail fields.
    pub fn render(&self, out: &mut String) {
        use core::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"code\":\"{}\",\"message\":\"{}\"",
            self.code(),
            escape(&self.to_string())
        );
        match self {
            ServiceError::Overloaded {
                retry_after_ms,
                occupancy,
                high_water,
            } => {
                let _ = write!(
                    out,
                    ",\"retry_after_ms\":{retry_after_ms},\"occupancy\":{occupancy},\"high_water\":{high_water}"
                );
            }
            ServiceError::DeadlineExceeded {
                deadline_ms,
                predicted_ms,
            } => {
                out.push_str(",\"deadline_ms\":");
                render_number(*deadline_ms, out);
                out.push_str(",\"predicted_ms\":");
                render_number(*predicted_ms, out);
            }
            ServiceError::OversizedSweep { points, limit } => {
                let _ = write!(out, ",\"points\":{points},\"limit\":{limit}");
            }
            ServiceError::OversizedRequest { cost, limit } => {
                let _ = write!(out, ",\"cost\":{cost},\"limit\":{limit}");
            }
            ServiceError::Evaluation(LogNicError::AnalysisRejected { diagnostics }) => {
                render_diagnostics(diagnostics, out);
            }
            ServiceError::Evaluation(LogNicError::WatchdogAbort {
                events,
                sim_time,
                injected,
                in_flight,
            }) => {
                let _ = write!(out, ",\"events\":{events},\"sim_time_s\":");
                render_number(*sim_time, out);
                let _ = write!(out, ",\"injected\":{injected},\"in_flight\":{in_flight}");
            }
            ServiceError::Evaluation(LogNicError::ReplicationPartial { completed, failed }) => {
                out.push_str(",\"completed_seeds\":[");
                for (i, s) in completed.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{s}");
                }
                out.push_str("],\"failed_seeds\":[");
                for (i, (seed, err)) in failed.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"seed\":{seed},\"error\":\"{}\"}}",
                        escape(&err.to_string())
                    );
                }
                out.push(']');
            }
            _ => {}
        }
        out.push('}');
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Parse { reason } => write!(f, "malformed request line: {reason}"),
            ServiceError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            ServiceError::UnknownKind { kind } => {
                write!(f, "unknown request kind `{kind}`")
            }
            ServiceError::UnknownGraph { graph } => {
                write!(
                    f,
                    "unknown graph `{graph}` (use a `health` request to count registered graphs)"
                )
            }
            ServiceError::InvalidParameter { parameter, reason } => {
                write!(f, "invalid `{parameter}`: {reason}")
            }
            ServiceError::OversizedSweep { points, limit } => write!(
                f,
                "sweep of {points} points exceeds the {limit}-point limit"
            ),
            ServiceError::OversizedRequest { cost, limit } => write!(
                f,
                "request cost {cost} exceeds the {limit}-unit admission limit and can never be admitted"
            ),
            ServiceError::DeadlineExceeded {
                deadline_ms,
                predicted_ms,
            } => write!(
                f,
                "deadline of {deadline_ms}ms cannot be met: predicted demand {predicted_ms}ms"
            ),
            ServiceError::Overloaded { retry_after_ms, .. } => {
                write!(f, "service overloaded; retry after {retry_after_ms}ms")
            }
            ServiceError::Evaluation(e) => e.fmt(f),
            ServiceError::Internal { message } => {
                write!(f, "internal error (request isolated): {message}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Evaluation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LogNicError> for ServiceError {
    fn from(e: LogNicError) -> Self {
        ServiceError::Evaluation(e)
    }
}

/// Renders a full error response envelope:
/// `{"id":…,"ok":false,"error":{…}}`.
pub fn render_error_response(id: Option<&Json>, err: &ServiceError) -> String {
    let mut out = String::with_capacity(128);
    out.push('{');
    if let Some(id) = id {
        out.push_str("\"id\":");
        id.render(&mut out);
        out.push(',');
    }
    out.push_str("\"ok\":false,\"error\":");
    err.render(&mut out);
    out.push('}');
    out
}

/// Writes the `,"diagnostics":[…]` field of a response: the one wire
/// rule for findings, shared by `analyze` responses and
/// `analysis_rejected` errors. Only findings at `Warn` and above are
/// shown; `Allow`-level (audit-only) findings stay in the library's
/// report.
pub(crate) fn render_diagnostics(diagnostics: &[Diagnostic], out: &mut String) {
    out.push_str(",\"diagnostics\":[");
    let shown = diagnostics.iter().filter(|d| d.severity >= Severity::Warn);
    for (i, d) in shown.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&d.render_json());
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_distinct() {
        let errs = [
            ServiceError::Parse { reason: "x".into() },
            ServiceError::InvalidRequest { reason: "x".into() },
            ServiceError::UnknownKind { kind: "x".into() },
            ServiceError::UnknownGraph { graph: "x".into() },
            ServiceError::InvalidParameter {
                parameter: "rate_gbps".into(),
                reason: "x".into(),
            },
            ServiceError::OversizedSweep {
                points: 9,
                limit: 4,
            },
            ServiceError::OversizedRequest {
                cost: 80,
                limit: 64,
            },
            ServiceError::DeadlineExceeded {
                deadline_ms: 0.0,
                predicted_ms: 1.0,
            },
            ServiceError::Overloaded {
                retry_after_ms: 5,
                occupancy: 9,
                high_water: 8,
            },
            ServiceError::Internal {
                message: "x".into(),
            },
        ];
        let mut codes: Vec<&str> = errs.iter().map(|e| e.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errs.len(), "one code per error class");
    }

    #[test]
    fn watchdog_details_survive_rendering() {
        let err = ServiceError::Evaluation(LogNicError::WatchdogAbort {
            events: 101,
            sim_time: 0.25,
            injected: 40,
            in_flight: 3,
        });
        let out = render_error_response(Some(&Json::Num(4.0)), &err);
        assert!(out.starts_with("{\"id\":4,\"ok\":false"), "{out}");
        assert!(out.contains("\"code\":\"watchdog_abort\""), "{out}");
        assert!(out.contains("\"events\":101"), "{out}");
        assert!(out.contains("\"in_flight\":3"), "{out}");
        crate::json::parse(&out).expect("error envelope is valid JSON");
    }

    #[test]
    fn shed_response_carries_the_retry_hint() {
        let err = ServiceError::Overloaded {
            retry_after_ms: 12,
            occupancy: 70,
            high_water: 64,
        };
        assert!(err.is_shed());
        let out = render_error_response(None, &err);
        assert!(out.contains("\"retry_after_ms\":12"), "{out}");
        crate::json::parse(&out).expect("valid JSON");
    }
}
