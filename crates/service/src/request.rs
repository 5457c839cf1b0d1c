//! Request decoding and validation.
//!
//! A request is one JSON object per line. Decoding is strict: every
//! field is typed, unknown fields are rejected (a misspelled
//! `rate_gpbs` should fail loudly, not silently evaluate the default
//! rate), and every numeric parameter is domain-checked before any
//! model math runs. The decoded [`Request`] also carries the
//! deterministic *cost* the admission layer charges it with — the
//! quantity both the deadline check and the load gauge operate on.

use lognic_model::error::shown;
use lognic_model::fault::{FaultKind, FaultPlan, RetryPolicy};
use lognic_model::units::Seconds;

use crate::error::ServiceError;
use crate::json::Json;

/// What a request asks the service to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// One analytical evaluation (`Estimator::request().evaluate()`).
    Estimate,
    /// Availability-adjusted evaluation under a fault plan.
    EstimateDegraded,
    /// Static analysis only: every diagnostic, nothing evaluated.
    Analyze,
    /// A rate sweep producing the latency-throughput curve.
    Sweep,
    /// A replicated discrete-event simulation under the watchdog.
    Simulate,
    /// A multi-NIC rack simulation over the fleet runtime.
    FleetSimulate,
    /// Liveness probe.
    Health,
    /// Service counters and latency quantiles.
    Stats,
    /// Deliberate panic behind [`crate::ServeConfig::allow_debug_panic`],
    /// for exercising the request-isolation boundary.
    DebugPanic,
}

impl RequestKind {
    fn parse(s: &str) -> Option<RequestKind> {
        Some(match s {
            "estimate" => RequestKind::Estimate,
            "estimate_degraded" => RequestKind::EstimateDegraded,
            "analyze" => RequestKind::Analyze,
            "sweep" => RequestKind::Sweep,
            "simulate" => RequestKind::Simulate,
            "fleet_simulate" => RequestKind::FleetSimulate,
            "health" => RequestKind::Health,
            "stats" => RequestKind::Stats,
            "debug_panic" => RequestKind::DebugPanic,
            _ => return None,
        })
    }

    /// The stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Estimate => "estimate",
            RequestKind::EstimateDegraded => "estimate_degraded",
            RequestKind::Analyze => "analyze",
            RequestKind::Sweep => "sweep",
            RequestKind::Simulate => "simulate",
            RequestKind::FleetSimulate => "fleet_simulate",
            RequestKind::Health => "health",
            RequestKind::Stats => "stats",
            RequestKind::DebugPanic => "debug_panic",
        }
    }

    /// True for kinds that resolve a graph and run the analyzer gate.
    /// `fleet_simulate` is deliberately absent: it targets the rack
    /// topology (every registered workload at once) rather than one
    /// graph, and its gate is the fleet analyzer inside
    /// `FleetBuilder::build`.
    pub fn evaluates(self) -> bool {
        matches!(
            self,
            RequestKind::Estimate
                | RequestKind::EstimateDegraded
                | RequestKind::Analyze
                | RequestKind::Sweep
                | RequestKind::Simulate
        )
    }
}

/// A fully decoded, domain-validated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed back verbatim in the response, when present.
    pub id: Option<Json>,
    /// The request kind.
    pub kind: RequestKind,
    /// The registered graph the request targets.
    pub graph: Option<String>,
    /// Offered-rate override, Gb/s.
    pub rate_gbps: Option<f64>,
    /// Deterministic admission deadline, logical milliseconds.
    pub deadline_ms: Option<f64>,
    /// Strict analyzer posture: deny warnings too.
    pub deny_warnings: bool,
    /// Fault horizon for `estimate_degraded`, milliseconds.
    pub horizon_ms: f64,
    /// The inline fault plan: the `faults` windows under the `retry`
    /// policy, or `None` when the request declares no window (the
    /// workload's bundled plan applies instead).
    pub faults: Option<FaultPlan>,
    /// Sweep fractions of the offered rate.
    pub fractions: Vec<f64>,
    /// Replication width for `simulate`.
    pub seeds: u32,
    /// Simulated horizon for `simulate`, milliseconds.
    pub duration_ms: f64,
    /// Explicit event budget for `simulate` (0 = config default).
    pub max_events: u64,
    /// Rack size for `fleet_simulate`.
    pub nics: u32,
    /// Shard count for `fleet_simulate`: validated as a positive
    /// whole number, then ignored (the fleet runs on one thread).
    /// Accepted so older clients keep working.
    pub shards: u32,
}

/// Every field the wire format accepts, for the strict-unknown-field
/// check and the error message that lists them.
const KNOWN_FIELDS: &[&str] = &[
    "id",
    "kind",
    "graph",
    "rate_gbps",
    "deadline_ms",
    "deny_warnings",
    "horizon_ms",
    "faults",
    "retry",
    "fractions",
    "seeds",
    "duration_ms",
    "max_events",
    "nics",
    "shards",
];

/// `v` as a number for which `accept` holds; otherwise an
/// `invalid_parameter` refusal saying the number "is not {what}".
fn checked(
    v: &Json,
    field: &str,
    what: &str,
    accept: impl Fn(f64) -> bool,
) -> Result<f64, ServiceError> {
    let refuse = |reason| ServiceError::InvalidParameter {
        parameter: field.to_owned(),
        reason,
    };
    let n = v
        .as_f64()
        .ok_or_else(|| refuse("must be a number".into()))?;
    if n.is_finite() && accept(n) {
        Ok(n)
    } else {
        Err(refuse(format!("{} is not {what}", shown(n))))
    }
}

fn finite_positive(v: &Json, field: &str) -> Result<f64, ServiceError> {
    checked(v, field, "finite and positive", |n| n > 0.0)
}

fn finite_non_negative(v: &Json, field: &str) -> Result<f64, ServiceError> {
    checked(v, field, "finite and non-negative", |n| n >= 0.0)
}

fn probability(v: &Json, field: &str) -> Result<f64, ServiceError> {
    checked(v, field, "in [0, 1]", |n| (0.0..=1.0).contains(&n))
}

/// Extracts the `id` field from a request line if one is decodable,
/// so even a structurally invalid request can be answered with its
/// id attached.
pub fn salvage_id(doc: &Json) -> Option<Json> {
    doc.get("id").cloned()
}

impl Request {
    /// Decodes and validates a parsed JSON document.
    pub fn decode(doc: &Json) -> Result<Request, ServiceError> {
        let Json::Obj(fields) = doc else {
            return Err(ServiceError::InvalidRequest {
                reason: "request must be a JSON object".into(),
            });
        };
        for (key, _) in fields {
            if !KNOWN_FIELDS.contains(&key.as_str()) {
                return Err(ServiceError::InvalidRequest {
                    reason: format!("unknown field `{key}` (known: {})", KNOWN_FIELDS.join(", ")),
                });
            }
        }
        let kind_str = doc
            .get("kind")
            .ok_or_else(|| ServiceError::InvalidRequest {
                reason: "missing `kind`".into(),
            })?
            .as_str()
            .ok_or_else(|| ServiceError::InvalidRequest {
                reason: "`kind` must be a string".into(),
            })?;
        let kind = RequestKind::parse(kind_str).ok_or_else(|| ServiceError::UnknownKind {
            kind: kind_str.to_owned(),
        })?;

        let graph = match doc.get("graph") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| ServiceError::InvalidRequest {
                        reason: "`graph` must be a string".into(),
                    })?
                    .to_owned(),
            ),
        };
        if kind.evaluates() && graph.is_none() {
            return Err(ServiceError::InvalidRequest {
                reason: format!("`{}` requires a `graph`", kind.as_str()),
            });
        }

        let rate_gbps = doc
            .get("rate_gbps")
            .map(|v| {
                let n = finite_positive(v, "rate_gbps")?;
                // The model works in bits per second; 1e300 Gb/s is
                // finite, its bit rate is not.
                if !(n * 1e9).is_finite() {
                    return Err(ServiceError::InvalidParameter {
                        parameter: "rate_gbps".into(),
                        reason: format!("{} Gb/s is past any finite bit rate", shown(n)),
                    });
                }
                Ok(n)
            })
            .transpose()?;

        let deadline_ms = doc
            .get("deadline_ms")
            .map(|v| finite_non_negative(v, "deadline_ms"))
            .transpose()?;

        let deny_warnings = match doc.get("deny_warnings") {
            None => false,
            Some(v) => v.as_bool().ok_or_else(|| ServiceError::InvalidRequest {
                reason: "`deny_warnings` must be a bool".into(),
            })?,
        };

        let horizon_ms = doc
            .get("horizon_ms")
            .map(|v| finite_positive(v, "horizon_ms"))
            .transpose()?
            .unwrap_or(10.0);

        let windows = match doc.get("faults") {
            None => FaultPlan::new(),
            Some(v) => {
                let items = v.as_arr().ok_or_else(|| ServiceError::InvalidRequest {
                    reason: "`faults` must be an array".into(),
                })?;
                items.iter().try_fold(FaultPlan::new(), |plan, f| {
                    decode_fault(plan, f, horizon_ms)
                })?
            }
        };

        let retry = match doc.get("retry") {
            None => None,
            Some(v) => {
                let budget = v
                    .get("budget")
                    .ok_or_else(|| ServiceError::InvalidRequest {
                        reason: "`retry` needs a `budget`".into(),
                    })
                    .and_then(|b| finite_positive(b, "retry.budget"))?;
                if budget > u32::MAX as f64 || budget.fract() != 0.0 {
                    return Err(ServiceError::InvalidParameter {
                        parameter: "retry.budget".into(),
                        reason: "must be a whole number of retries".into(),
                    });
                }
                let backoff_us = v
                    .get("backoff_us")
                    .map(|b| finite_positive(b, "retry.backoff_us"))
                    .transpose()?
                    .unwrap_or(10.0);
                Some(RetryPolicy::new(budget as u32, Seconds::micros(backoff_us)))
            }
        };
        // A retry policy without windows has nothing to retry: the
        // bundled plan, if any, applies unchanged.
        let faults = (!windows.windows().is_empty()).then(|| match retry {
            Some(rp) => windows.with_retry(rp),
            None => windows,
        });

        let fractions = match doc.get("fractions") {
            None => Vec::new(),
            Some(v) => {
                let items = v.as_arr().ok_or_else(|| ServiceError::InvalidRequest {
                    reason: "`fractions` must be an array".into(),
                })?;
                items
                    .iter()
                    .map(|f| {
                        let n = finite_positive(f, "fractions")?;
                        if n > 16.0 {
                            return Err(ServiceError::InvalidParameter {
                                parameter: "fractions".into(),
                                reason: format!(
                                    "{}× the reference rate is past any bound",
                                    shown(n)
                                ),
                            });
                        }
                        Ok(n)
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        if kind == RequestKind::Sweep && fractions.is_empty() {
            return Err(ServiceError::InvalidRequest {
                reason: "`sweep` requires a non-empty `fractions` array".into(),
            });
        }

        let whole_u32 = |field: &'static str, default: u32| -> Result<u32, ServiceError> {
            match doc.get(field) {
                None => Ok(default),
                Some(v) => {
                    let n = finite_positive(v, field)?;
                    if n.fract() != 0.0 || n > u32::MAX as f64 {
                        return Err(ServiceError::InvalidParameter {
                            parameter: field.into(),
                            reason: "must be a whole number".into(),
                        });
                    }
                    Ok(n as u32)
                }
            }
        };
        let seeds = whole_u32("seeds", 3)?;

        let duration_ms = doc
            .get("duration_ms")
            .map(|v| finite_positive(v, "duration_ms"))
            .transpose()?
            .unwrap_or(2.0);

        let max_events = match doc.get("max_events") {
            None => 0,
            Some(v) => {
                let n = finite_positive(v, "max_events")?;
                if n.fract() != 0.0 || n > u64::MAX as f64 {
                    return Err(ServiceError::InvalidParameter {
                        parameter: "max_events".into(),
                        reason: "must be a whole number".into(),
                    });
                }
                n as u64
            }
        };

        let nics = whole_u32("nics", 4)?;
        let shards = whole_u32("shards", 1)?;

        Ok(Request {
            id: salvage_id(doc),
            kind,
            graph,
            rate_gbps,
            deadline_ms,
            deny_warnings,
            horizon_ms,
            faults,
            fractions,
            seeds,
            duration_ms,
            max_events,
            nics,
            shards,
        })
    }

    /// The deterministic demand the admission layer charges this
    /// request with, in logical milliseconds of service. A pure
    /// function of the request — never of the wall clock — so
    /// deadline refusals and load shedding are reproducible
    /// byte-for-byte across runs and thread counts.
    pub fn cost(&self) -> u64 {
        match self.kind {
            RequestKind::Health | RequestKind::Stats => 0,
            RequestKind::Estimate | RequestKind::Analyze | RequestKind::DebugPanic => 1,
            RequestKind::EstimateDegraded => 2,
            RequestKind::Sweep => self.fractions.len() as u64,
            RequestKind::Simulate => {
                (self.seeds as u64).saturating_mul(self.duration_ms.ceil() as u64)
            }
            RequestKind::FleetSimulate => {
                (self.nics as u64).saturating_mul(self.duration_ms.ceil() as u64)
            }
        }
    }

    /// The inline fault plan, cloned: `None` when the request
    /// declares no window (the workload's bundled plan applies
    /// instead).
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.clone()
    }
}

/// Decodes one inline fault window onto `plan`.
fn decode_fault(
    plan: FaultPlan,
    v: &Json,
    default_until_ms: f64,
) -> Result<FaultPlan, ServiceError> {
    let node =
        v.get("node")
            .and_then(Json::as_str)
            .ok_or_else(|| ServiceError::InvalidRequest {
                reason: "each fault needs a string `node`".into(),
            })?;
    let kind =
        v.get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| ServiceError::InvalidRequest {
                reason: "each fault needs a string `kind`".into(),
            })?;
    let kind = match kind {
        "outage" => FaultKind::Outage,
        "degrade" => FaultKind::RateDegradation {
            factor: finite_positive(
                v.get("factor")
                    .ok_or_else(|| ServiceError::InvalidRequest {
                        reason: "`degrade` fault needs a `factor`".into(),
                    })?,
                "faults.factor",
            )?,
        },
        "drop" => FaultKind::PacketDrop {
            probability: probability(
                v.get("probability")
                    .ok_or_else(|| ServiceError::InvalidRequest {
                        reason: "`drop` fault needs a `probability`".into(),
                    })?,
                "faults.probability",
            )?,
        },
        other => {
            return Err(ServiceError::InvalidRequest {
                reason: format!("unknown fault kind `{other}` (outage, degrade, drop)"),
            })
        }
    };
    let from_ms = v
        .get("from_ms")
        .map(|n| finite_non_negative(n, "faults.from_ms"))
        .transpose()?
        .unwrap_or(0.0);
    let until_ms = v
        .get("until_ms")
        .map(|n| finite_positive(n, "faults.until_ms"))
        .transpose()?
        .unwrap_or(default_until_ms);
    Ok(plan.with_fault(
        node,
        kind,
        Seconds::millis(from_ms),
        Seconds::millis(until_ms),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn decode(src: &str) -> Result<Request, ServiceError> {
        Request::decode(&parse(src).expect("test inputs are valid JSON"))
    }

    #[test]
    fn decodes_a_full_estimate_request() {
        let r = decode(
            r#"{"id":"q1","kind":"estimate","graph":"nvmeof","rate_gbps":5.0,"deadline_ms":10,"deny_warnings":true}"#,
        )
        .unwrap();
        assert_eq!(r.kind, RequestKind::Estimate);
        assert_eq!(r.graph.as_deref(), Some("nvmeof"));
        assert_eq!(r.rate_gbps, Some(5.0));
        assert_eq!(r.deadline_ms, Some(10.0));
        assert!(r.deny_warnings);
        assert_eq!(r.cost(), 1);
    }

    #[test]
    fn rejects_unknown_fields_and_kinds() {
        let err = decode(r#"{"kind":"estimate","graph":"x","rate_gpbs":5}"#).unwrap_err();
        assert_eq!(err.code(), "invalid_request");
        assert!(err.to_string().contains("rate_gpbs"), "{err}");
        let err = decode(r#"{"kind":"estimat","graph":"x"}"#).unwrap_err();
        assert_eq!(err.code(), "unknown_kind");
    }

    #[test]
    fn rejects_hostile_numerics() {
        for src in [
            r#"{"kind":"estimate","graph":"x","rate_gbps":-5}"#,
            r#"{"kind":"estimate","graph":"x","rate_gbps":0}"#,
            r#"{"kind":"estimate","graph":"x","rate_gbps":"fast"}"#,
            r#"{"kind":"estimate","graph":"x","rate_gbps":1e300}"#,
            r#"{"kind":"simulate","graph":"x","seeds":2.5}"#,
            r#"{"kind":"sweep","graph":"x","fractions":[0.5,-1]}"#,
            r#"{"kind":"estimate","graph":"x","deadline_ms":-1}"#,
        ] {
            let err = decode(src).unwrap_err();
            assert_eq!(err.code(), "invalid_parameter", "{src}");
        }
        // Extreme magnitudes print in `{:e}` form, not as their
        // 301-digit decimal expansion.
        for src in [
            r#"{"kind":"estimate","graph":"x","rate_gbps":1e300}"#,
            r#"{"kind":"estimate","graph":"x","rate_gbps":-1e300}"#,
            r#"{"kind":"simulate","graph":"x","duration_ms":-1e300}"#,
            r#"{"kind":"estimate","graph":"x","deadline_ms":-1e300}"#,
            r#"{"kind":"sweep","graph":"x","fractions":[1e300]}"#,
        ] {
            let message = decode(src).unwrap_err().to_string();
            assert!(message.len() <= 80, "{src}: {message}");
            assert!(message.contains("e300"), "{src}: {message}");
        }
    }

    #[test]
    fn sweep_and_simulate_costs_scale_with_demand() {
        let sweep = decode(r#"{"kind":"sweep","graph":"x","fractions":[0.2,0.4,0.6]}"#).unwrap();
        assert_eq!(sweep.cost(), 3);
        let sim = decode(r#"{"kind":"simulate","graph":"x","seeds":4,"duration_ms":3}"#).unwrap();
        assert_eq!(sim.cost(), 12);
        let probe = decode(r#"{"kind":"health"}"#).unwrap();
        assert_eq!(probe.cost(), 0);
    }

    #[test]
    fn inline_faults_become_a_plan() {
        let r = decode(
            r#"{"kind":"estimate_degraded","graph":"x","horizon_ms":8,"faults":[{"node":"ip","kind":"drop","probability":0.2},{"node":"ip","kind":"outage","from_ms":1,"until_ms":2}],"retry":{"budget":3,"backoff_us":5}}"#,
        )
        .unwrap();
        let plan = r.fault_plan().expect("two windows declared");
        let kinds: Vec<FaultKind> = plan.windows().iter().map(|w| w.kind()).collect();
        assert_eq!(
            kinds,
            [
                FaultKind::PacketDrop { probability: 0.2 },
                FaultKind::Outage
            ]
        );
        assert_eq!(plan.windows()[0].until(), Seconds::millis(8.0), "horizon");
        assert_eq!(plan.retry().map(|rp| rp.budget()), Some(3));
        assert_eq!(r.cost(), 2);
        // A retry policy alone declares no plan.
        let r = decode(r#"{"kind":"simulate","graph":"x","retry":{"budget":3}}"#).unwrap();
        assert_eq!(r.fault_plan(), None);
    }

    #[test]
    fn fleet_simulate_decodes_and_costs_by_rack_size() {
        let r = decode(r#"{"kind":"fleet_simulate","nics":8,"shards":4,"duration_ms":3}"#).unwrap();
        assert_eq!(r.kind, RequestKind::FleetSimulate);
        assert_eq!((r.nics, r.shards), (8, 4));
        assert_eq!(r.cost(), 24, "nics x ceil(duration_ms)");
        assert!(r.graph.is_none(), "the rack needs no graph");
        let defaults = decode(r#"{"kind":"fleet_simulate"}"#).unwrap();
        assert_eq!((defaults.nics, defaults.shards), (4, 1));
        for src in [
            r#"{"kind":"fleet_simulate","nics":0}"#,
            r#"{"kind":"fleet_simulate","nics":2.5}"#,
            r#"{"kind":"fleet_simulate","shards":-1}"#,
        ] {
            assert_eq!(
                decode(src).unwrap_err().code(),
                "invalid_parameter",
                "{src}"
            );
        }
    }

    #[test]
    fn missing_graph_on_evaluating_kinds_is_typed() {
        let err = decode(r#"{"kind":"analyze"}"#).unwrap_err();
        assert_eq!(err.code(), "invalid_request");
        assert!(
            decode(r#"{"kind":"stats"}"#).is_ok(),
            "stats needs no graph"
        );
    }
}
