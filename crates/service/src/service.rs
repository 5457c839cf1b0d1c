//! The hardened request loop: admission control, deadlines, load
//! shedding, fault isolation, and the JSON-lines protocol itself.
//!
//! # Determinism
//!
//! Every response is a pure function of the request stream. The three
//! places a naive service would consult the wall clock — deadline
//! enforcement, overload detection, and latency statistics — all run
//! on the deterministic cost model instead (see
//! [`Request::cost`]): deadlines are checked at admission against
//! predicted logical demand, the [`LoadGauge`] tracks logical
//! occupancy, and under [`ServeConfig::deterministic`] the `stats`
//! clock is the logical clock. Requests are processed strictly in
//! arrival order; `threads` only parallelizes *inside* a replicated
//! simulation, whose aggregation is already seed-ordered. The result:
//! byte-identical transcripts across runs and across thread counts,
//! which is what the golden tests pin.

use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};

use lognic_model::analyze::AnalysisConfig;
use lognic_model::error::shown;
use lognic_model::estimate::Estimate;
use lognic_model::sweep::{knee_of, rate_sweep};
use lognic_model::units::{Bandwidth, Seconds};
use lognic_sim::fleet::FleetBuilder;
use lognic_sim::replicate::Replication;
use lognic_sim::sim::SimConfig;
use lognic_sim::stats::MetricSummary;
use lognic_workloads::rack;
use lognic_workloads::registry;
use lognic_workloads::scenario::Scenario;

use crate::error::{render_diagnostics, render_error_response, ServiceError};
use crate::json::{escape, parse, render_number};
use crate::request::{Request, RequestKind};
use crate::shed::LoadGauge;
use crate::stats::ServiceStats;

/// Deadline-to-event-budget conversion: how many events one simulation
/// gets per millisecond of a request's deadline. A request with a
/// `deadline_ms` gets its event budget capped at `ceil(deadline_ms) ×`
/// this, so a pathological simulation trips the watchdog
/// deterministically instead of outliving its deadline.
///
/// Derived from the performance ledger (`BENCH_sim.json`): its slowest
/// single-NIC row, `doorbell_burst`, simulates 11.08 M events per wall
/// second on the 2-core x86 host that recorded it — 11 k events per
/// millisecond, rounded down. A run stopped at this budget has spent
/// about its deadline on that host.
///
/// A `simulate` request's budget applies to each replica, and each
/// replica runs under its own watchdog, so `seeds` replicas on
/// `threads` workers may take up to `ceil(seeds / threads)` deadlines
/// of wall time. A `fleet_simulate` request's budget is split: one
/// thread steps every NIC, so each NIC's watchdog gets
/// `ceil(budget / nics)` and the whole rack stays near one deadline.
const EVENTS_PER_DEADLINE_MS: u64 = 11_000;

/// Tunables for one service process.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Logical-occupancy mark past which requests are shed.
    pub high_water: u64,
    /// Logical work drained at every arrival (completed service).
    pub drain_per_request: u64,
    /// Longest accepted request line, bytes; longer lines are
    /// answered with a `parse_error` and skipped without buffering.
    pub max_line_bytes: usize,
    /// Most points one sweep may request.
    pub max_sweep_points: usize,
    /// Most replicas one simulate may request.
    pub max_seeds: u32,
    /// Longest simulated horizon one simulate may request, ms.
    pub max_sim_ms: f64,
    /// Most NICs one `fleet_simulate` rack may request.
    pub max_fleet_nics: u32,
    /// Hard per-request event budget for the simulation watchdog
    /// (given whole to each `simulate` replica, split evenly across
    /// the NICs of a `fleet_simulate`).
    pub max_events_per_request: u64,
    /// Worker threads inside replicated simulations (0 = available
    /// parallelism). Has no effect on responses.
    pub threads: usize,
    /// Report logical time instead of wall time in `health`/`stats`
    /// responses, making transcripts byte-reproducible.
    pub deterministic: bool,
    /// Enable the `debug_panic` request kind (isolation-boundary
    /// testing only).
    pub allow_debug_panic: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            high_water: 64,
            drain_per_request: 4,
            max_line_bytes: 64 * 1024,
            max_sweep_points: 64,
            max_seeds: 16,
            max_sim_ms: 200.0,
            max_fleet_nics: 64,
            max_events_per_request: 5_000_000,
            threads: 1,
            deterministic: false,
            allow_debug_panic: false,
        }
    }
}

/// One registered, pre-built graph the service can evaluate. Its
/// scenario carries the workload's bundled fault plan, if any.
struct GraphEntry {
    name: &'static str,
    scenario: Scenario,
}

/// The capacity-planning service: a registry of named graphs plus
/// the robustness envelope around their evaluation.
pub struct Service {
    config: ServeConfig,
    graphs: Vec<GraphEntry>,
    gauge: LoadGauge,
    stats: ServiceStats,
    started: std::time::Instant,
}

impl Service {
    /// A service over the full workload registry
    /// ([`lognic_workloads::registry::ALL`]).
    pub fn new(config: ServeConfig) -> Self {
        let graphs = registry::ALL
            .iter()
            .map(|e| GraphEntry {
                name: e.name,
                scenario: e.scenario(),
            })
            .collect();
        let gauge = LoadGauge::new(config.high_water, config.drain_per_request);
        Service {
            config,
            graphs,
            gauge,
            stats: ServiceStats::new(),
            started: std::time::Instant::now(),
        }
    }

    /// The service's counters so far.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Answers one request line with exactly one response line
    /// (without the trailing newline). Never panics: anything that
    /// escapes evaluation is contained and answered as an
    /// `internal` error.
    pub fn handle_line(&mut self, line: &str) -> String {
        self.stats.received += 1;
        let wall = std::time::Instant::now();
        let doc = match parse(line) {
            Ok(doc) => doc,
            Err(e) => {
                self.stats.failed += 1;
                return render_error_response(
                    None,
                    &ServiceError::Parse {
                        reason: e.to_string(),
                    },
                );
            }
        };
        let req = match Request::decode(&doc) {
            Ok(req) => req,
            Err(e) => {
                self.stats.failed += 1;
                return render_error_response(crate::request::salvage_id(&doc).as_ref(), &e);
            }
        };
        let id = req.id.clone();
        let cost = req.cost();
        let response = match self.dispatch(req) {
            Ok(body) => {
                self.stats.served += 1;
                self.stats.logical_ms += cost;
                let mut out = String::with_capacity(body.len() + 32);
                out.push('{');
                if let Some(id) = &id {
                    out.push_str("\"id\":");
                    id.render(&mut out);
                    out.push(',');
                }
                out.push_str("\"ok\":true,");
                out.push_str(&body);
                out.push('}');
                out
            }
            Err(e) => {
                if e.is_shed() {
                    self.stats.shed += 1;
                } else {
                    self.stats.failed += 1;
                }
                render_error_response(id.as_ref(), &e)
            }
        };
        let sample_ms = if self.config.deterministic {
            cost as f64
        } else {
            wall.elapsed().as_secs_f64() * 1e3
        };
        self.stats.record_latency_ms(sample_ms);
        response
    }

    /// Admission control plus evaluation for one decoded request.
    fn dispatch(&mut self, req: Request) -> Result<String, ServiceError> {
        self.enforce_limits(&req)?;
        let cost = req.cost();
        if let Some(deadline_ms) = req.deadline_ms {
            let predicted_ms = cost as f64;
            if deadline_ms < predicted_ms {
                return Err(ServiceError::DeadlineExceeded {
                    deadline_ms,
                    predicted_ms,
                });
            }
        }
        self.gauge.admit(cost)?;
        match req.kind {
            RequestKind::Health => return Ok(self.render_health()),
            RequestKind::Stats => return Ok(self.render_stats()),
            RequestKind::DebugPanic if !self.config.allow_debug_panic => {
                return Err(ServiceError::InvalidRequest {
                    reason: "debug_panic is disabled (start with --allow-debug-panic)".into(),
                });
            }
            _ => {}
        }
        // Everything past this point runs behind the isolation
        // boundary: a panic in model or simulator code is contained
        // and answered, and the loop keeps serving.
        let outcome = catch_unwind(AssertUnwindSafe(|| self.evaluate(&req)));
        match outcome {
            Ok(result) => result,
            Err(payload) => {
                self.stats.isolated_panics += 1;
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                Err(ServiceError::Internal { message })
            }
        }
    }

    /// Static resource caps, checked before any capacity is charged.
    fn enforce_limits(&self, req: &Request) -> Result<(), ServiceError> {
        if req.fractions.len() > self.config.max_sweep_points {
            return Err(ServiceError::OversizedSweep {
                points: req.fractions.len(),
                limit: self.config.max_sweep_points,
            });
        }
        if req.kind == RequestKind::Simulate {
            if req.seeds > self.config.max_seeds {
                return Err(ServiceError::InvalidParameter {
                    parameter: "seeds".into(),
                    reason: format!(
                        "{} exceeds the {}-replica limit",
                        req.seeds, self.config.max_seeds
                    ),
                });
            }
            if req.duration_ms > self.config.max_sim_ms {
                return Err(ServiceError::InvalidParameter {
                    parameter: "duration_ms".into(),
                    reason: format!(
                        "{} exceeds the {}ms horizon limit",
                        shown(req.duration_ms),
                        self.config.max_sim_ms
                    ),
                });
            }
        }
        if req.kind == RequestKind::FleetSimulate {
            if req.nics == 0 || req.nics > self.config.max_fleet_nics {
                return Err(ServiceError::InvalidParameter {
                    parameter: "nics".into(),
                    reason: format!(
                        "{} is outside the 1..={} rack-size limit",
                        req.nics, self.config.max_fleet_nics
                    ),
                });
            }
            if req.duration_ms > self.config.max_sim_ms {
                return Err(ServiceError::InvalidParameter {
                    parameter: "duration_ms".into(),
                    reason: format!(
                        "{} exceeds the {}ms horizon limit",
                        shown(req.duration_ms),
                        self.config.max_sim_ms
                    ),
                });
            }
        }
        // Costlier than the high-water mark: the gauge would shed it
        // even when idle, with a retry hint that could never succeed.
        let cost = req.cost();
        if cost > self.config.high_water {
            return Err(ServiceError::OversizedRequest {
                cost,
                limit: self.config.high_water,
            });
        }
        Ok(())
    }

    /// Evaluates an admitted request. Runs inside the isolation
    /// boundary.
    fn evaluate(&self, req: &Request) -> Result<String, ServiceError> {
        if req.kind == RequestKind::DebugPanic {
            panic!("debug_panic requested");
        }
        if req.kind == RequestKind::FleetSimulate {
            // The rack targets every registered workload at once; its
            // admission gate is the fleet analyzer in
            // `FleetBuilder::build`, not the per-graph analyzer below.
            return self.evaluate_fleet(req);
        }
        let graph = req.graph.as_deref().unwrap_or_default();
        let entry = self
            .graphs
            .iter()
            .find(|g| g.name == graph)
            .ok_or_else(|| ServiceError::UnknownGraph {
                graph: graph.to_owned(),
            })?;
        let mut scenario = match req.rate_gbps {
            Some(r) => entry.scenario.at_rate(Bandwidth::gbps(r)),
            None => entry.scenario.clone(),
        };
        // The request runs under its inline `faults`, else the graph's
        // bundled plan, and one analysis lints that plan.
        if req.faults.is_some() {
            scenario.faults.clone_from(&req.faults);
        }
        let analysis = AnalysisConfig::new().deny_warnings(req.deny_warnings);
        let report = scenario.analyze(&analysis);
        if req.kind == RequestKind::Analyze {
            return Ok(render_analysis(&report));
        }
        // The admission gate proper: any Deny-level finding refuses
        // the request before model math or simulation runs.
        report.check()?;
        match req.kind {
            RequestKind::Estimate => {
                let est = scenario.estimator().request().evaluate()?;
                Ok(render_estimate("estimate", entry.name, &est))
            }
            RequestKind::EstimateDegraded => {
                let Some(plan) = &scenario.faults else {
                    return Err(ServiceError::InvalidRequest {
                        reason: format!(
                            "`{}` declares no `faults` and ships no bundled fault plan",
                            entry.name
                        ),
                    });
                };
                let est = scenario
                    .estimator()
                    .request()
                    .with_faults(plan, Seconds::millis(req.horizon_ms))
                    .evaluate()?;
                Ok(render_estimate("estimate_degraded", entry.name, &est))
            }
            RequestKind::Sweep => {
                let reference = scenario.traffic.ingress_bandwidth();
                let points = rate_sweep(
                    &scenario.graph,
                    &scenario.hardware,
                    &scenario.traffic,
                    reference,
                    &req.fractions,
                )?;
                let knee = knee_of(&points, 0.01);
                let mut out = String::with_capacity(64 + points.len() * 96);
                push_kind(&mut out, "sweep", entry.name);
                out.push_str(",\"points\":[");
                for (i, p) in points.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"offered_gbps\":");
                    render_number(p.offered.as_gbps(), &mut out);
                    out.push_str(",\"delivered_gbps\":");
                    render_number(p.delivered.as_gbps(), &mut out);
                    out.push_str(",\"latency_us\":");
                    render_number(p.latency.as_secs() * 1e6, &mut out);
                    out.push_str(",\"peak_utilization\":");
                    render_number(p.peak_utilization, &mut out);
                    out.push('}');
                }
                out.push_str("],\"knee_index\":");
                match knee {
                    Some(i) => render_number(i as f64, &mut out),
                    None => out.push_str("null"),
                }
                Ok(out)
            }
            RequestKind::Simulate => self.evaluate_simulate(req, entry.name, &scenario, analysis),
            RequestKind::Analyze
            | RequestKind::FleetSimulate
            | RequestKind::Health
            | RequestKind::Stats
            | RequestKind::DebugPanic => {
                unreachable!("handled before evaluation")
            }
        }
    }

    /// The run configuration of a `simulate` or `fleet_simulate`
    /// request: its horizon with a 20% warmup, and an event budget
    /// that is the tightest of the service cap, the request's own
    /// `max_events` and its deadline converted at
    /// [`EVENTS_PER_DEADLINE_MS`]. A fleet splits that budget evenly
    /// across its NICs, rounding up.
    fn sim_config(&self, req: &Request) -> SimConfig {
        let duration = Seconds::millis(req.duration_ms);
        let mut budget = self.config.max_events_per_request;
        if req.max_events > 0 {
            budget = budget.min(req.max_events);
        }
        if let Some(deadline_ms) = req.deadline_ms {
            let from_deadline = (deadline_ms.ceil() as u64)
                .saturating_mul(EVENTS_PER_DEADLINE_MS)
                .max(1);
            budget = budget.min(from_deadline);
        }
        if req.kind == RequestKind::FleetSimulate {
            budget = budget.div_ceil(u64::from(req.nics));
        }
        SimConfig {
            duration,
            warmup: duration.scaled(0.2),
            max_events: budget,
            ..SimConfig::default()
        }
    }

    /// Runs the registry rack through the fleet runtime, gated by the
    /// fleet analyzer under the request's analysis policy. The
    /// response is a pure function of `(nics, duration_ms, max_events,
    /// deadline_ms, deny_warnings)`; the accepted `shards` field is
    /// ignored.
    fn evaluate_fleet(&self, req: &Request) -> Result<String, ServiceError> {
        let report = FleetBuilder::new(rack::topology(req.nics as usize))
            .config(self.sim_config(req))
            .analysis(AnalysisConfig::new().deny_warnings(req.deny_warnings))
            .build()?
            .run()?;
        let mut out = String::with_capacity(256);
        use core::fmt::Write as _;
        let _ = write!(
            out,
            "\"kind\":\"fleet_simulate\",\"topology\":\"{}\",\"nics\":{},\"rounds\":{}",
            escape(&report.name),
            report.nics.len(),
            report.rounds
        );
        let _ = write!(
            out,
            ",\"injected\":{},\"completed\":{},\"dropped\":{},\"forwarded\":{},\"events\":{}",
            report.injected, report.completed, report.dropped, report.forwarded, report.events
        );
        out.push_str(",\"throughput_gbps\":");
        render_number(report.throughput.as_gbps(), &mut out);
        out.push_str(",\"goodput_gbps\":");
        render_number(report.goodput.as_gbps(), &mut out);
        let busiest = report
            .links
            .iter()
            .map(|l| l.utilization)
            .fold(0.0f64, f64::max);
        out.push_str(",\"peak_link_utilization\":");
        render_number(busiest, &mut out);
        Ok(out)
    }

    /// Replicates `scenario` under its fault plan (compiled once and
    /// shared by every seed) and the request's analysis policy.
    fn evaluate_simulate(
        &self,
        req: &Request,
        graph: &str,
        scenario: &Scenario,
        analysis: AnalysisConfig,
    ) -> Result<String, ServiceError> {
        let config = self.sim_config(req);
        let compiled = scenario.compile()?;
        let report = Replication::new(req.seeds)
            .threads(self.config.threads)
            .run(|| compiled.builder().config(config).analysis(analysis.clone()))?;
        let mut out = String::with_capacity(256);
        push_kind(&mut out, "simulate", graph);
        use core::fmt::Write as _;
        let _ = write!(out, ",\"seeds\":{}", report.seeds.len());
        // A replica in which no packet completed measured no latency;
        // its zero would read as a zero-latency device.
        out.push_str(",\"latency_s\":");
        if report.reports.iter().any(|r| r.latency.count == 0) {
            out.push_str("null");
        } else {
            render_summary(&report.latency_mean, &mut out);
        }
        out.push_str(",\"throughput_gbps\":");
        render_summary(&report.throughput_gbps, &mut out);
        out.push_str(",\"loss_rate\":");
        render_summary(&report.loss_rate, &mut out);
        Ok(out)
    }

    fn render_health(&self) -> String {
        let mut out = String::with_capacity(96);
        use core::fmt::Write as _;
        let _ = write!(
            out,
            "\"kind\":\"health\",\"status\":\"ok\",\"graphs\":{},\"uptime_ms\":",
            self.graphs.len()
        );
        render_number(self.uptime_ms(), &mut out);
        out
    }

    /// Counters *before* this stats request itself is accounted.
    fn render_stats(&self) -> String {
        let s = &self.stats;
        let mut out = String::with_capacity(256);
        use core::fmt::Write as _;
        let _ = write!(
            out,
            "\"kind\":\"stats\",\"received\":{},\"served\":{},\"shed\":{},\"failed\":{},\
             \"isolated_panics\":{},\"occupancy\":{},\"uptime_ms\":",
            s.received,
            s.served,
            s.shed,
            s.failed,
            s.isolated_panics,
            self.gauge.occupancy()
        );
        render_number(self.uptime_ms(), &mut out);
        out.push_str(",\"latency_mean_ms\":");
        render_number(s.latency_mean_ms(), &mut out);
        out.push_str(",\"latency_p50_ms\":");
        render_number(s.latency_quantile_ms(0.5), &mut out);
        out.push_str(",\"latency_p99_ms\":");
        render_number(s.latency_quantile_ms(0.99), &mut out);
        out
    }

    fn uptime_ms(&self) -> f64 {
        if self.config.deterministic {
            self.stats.logical_ms as f64
        } else {
            self.started.elapsed().as_secs_f64() * 1e3
        }
    }
}

fn push_kind(out: &mut String, kind: &str, graph: &str) {
    use core::fmt::Write as _;
    let _ = write!(out, "\"kind\":\"{kind}\",\"graph\":\"{}\"", escape(graph));
}

fn render_summary(m: &MetricSummary, out: &mut String) {
    out.push_str("{\"mean\":");
    render_number(m.mean, out);
    out.push_str(",\"ci_lo\":");
    render_number(m.ci_lo, out);
    out.push_str(",\"ci_hi\":");
    render_number(m.ci_hi, out);
    out.push('}');
}

fn render_estimate(kind: &str, graph: &str, est: &Estimate) -> String {
    let mut out = String::with_capacity(256);
    push_kind(&mut out, kind, graph);
    out.push_str(",\"attainable_gbps\":");
    render_number(est.throughput.attainable().as_gbps(), &mut out);
    out.push_str(",\"delivered_gbps\":");
    render_number(est.delivered.as_gbps(), &mut out);
    out.push_str(",\"latency_us\":");
    render_number(est.latency.mean().as_secs() * 1e6, &mut out);
    use core::fmt::Write as _;
    let _ = write!(
        out,
        ",\"saturated\":{},\"bottleneck\":\"{}\"",
        est.throughput.is_saturated(),
        escape(&est.throughput.bottleneck().component.to_string())
    );
    if let Some(d) = &est.degraded {
        out.push_str(",\"availability\":");
        render_number(d.availability, &mut out);
        out.push_str(",\"retry_inflation\":");
        render_number(d.retry_inflation, &mut out);
        out.push_str(",\"residual_loss\":");
        render_number(d.residual_loss, &mut out);
        out.push_str(",\"goodput_gbps\":");
        render_number(d.goodput.as_gbps(), &mut out);
    }
    out
}

fn render_analysis(report: &lognic_model::analyze::AnalysisReport) -> String {
    let mut out = String::with_capacity(128);
    use core::fmt::Write as _;
    let _ = write!(
        out,
        "\"kind\":\"analyze\",\"rejected\":{}",
        report.is_rejected()
    );
    render_diagnostics(report.diagnostics(), &mut out);
    out
}

/// Outcome of one pass over an input stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Request lines answered.
    pub responses: u64,
}

/// Runs the JSON-lines loop: one response line per request line,
/// flushing after every response so a piped driver can interleave.
///
/// Lines longer than [`ServeConfig::max_line_bytes`] are answered
/// with a `parse_error` and skipped without ever being buffered in
/// full; invalid UTF-8 likewise gets a typed response. Blank lines
/// are ignored. The loop only ends at end-of-input.
///
/// # Errors
///
/// Propagates I/O errors on the underlying streams; protocol-level
/// problems never abort the loop.
pub fn serve<R: BufRead, W: Write>(
    service: &mut Service,
    input: &mut R,
    output: &mut W,
) -> std::io::Result<ServeSummary> {
    let mut responses = 0u64;
    let max = service.config.max_line_bytes;
    let mut line: Vec<u8> = Vec::with_capacity(256);
    loop {
        line.clear();
        let mut oversized = false;
        // Bounded line reader: consume up to (and including) the next
        // newline, retaining at most `max` bytes.
        let saw_line = loop {
            let buf = input.fill_buf()?;
            if buf.is_empty() {
                break !line.is_empty() || oversized;
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if !oversized {
                        if line.len() + pos > max {
                            oversized = true;
                        } else {
                            line.extend_from_slice(&buf[..pos]);
                        }
                    }
                    input.consume(pos + 1);
                    break true;
                }
                None => {
                    let len = buf.len();
                    if !oversized {
                        if line.len() + len > max {
                            oversized = true;
                        } else {
                            line.extend_from_slice(buf);
                        }
                    }
                    input.consume(len);
                }
            }
        };
        if !saw_line {
            break;
        }
        let response = if oversized {
            service.stats.received += 1;
            service.stats.failed += 1;
            render_error_response(
                None,
                &ServiceError::Parse {
                    reason: format!("request line exceeds {max} bytes"),
                },
            )
        } else {
            match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => service.handle_line(text),
                Err(_) => {
                    service.stats.received += 1;
                    service.stats.failed += 1;
                    render_error_response(
                        None,
                        &ServiceError::Parse {
                            reason: "request line is not valid UTF-8".into(),
                        },
                    )
                }
            }
        };
        output.write_all(response.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        responses += 1;
    }
    Ok(ServeSummary { responses })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det_service() -> Service {
        Service::new(ServeConfig {
            deterministic: true,
            allow_debug_panic: true,
            ..ServeConfig::default()
        })
    }

    #[test]
    fn estimate_round_trip_is_valid_json() {
        let mut s = det_service();
        let out = s.handle_line(r#"{"id":1,"kind":"estimate","graph":"nvmeof","rate_gbps":4.0}"#);
        assert!(out.contains("\"ok\":true"), "{out}");
        assert!(out.contains("\"delivered_gbps\":"), "{out}");
        parse(&out).expect("valid JSON");
        assert_eq!(s.stats().served, 1);
    }

    #[test]
    fn unknown_graph_and_kind_are_typed() {
        let mut s = det_service();
        let out = s.handle_line(r#"{"kind":"estimate","graph":"no-such"}"#);
        assert!(out.contains("\"code\":\"unknown_graph\""), "{out}");
        let out = s.handle_line(r#"{"kind":"frobnicate"}"#);
        assert!(out.contains("\"code\":\"unknown_kind\""), "{out}");
        assert_eq!(s.stats().failed, 2);
    }

    #[test]
    fn deadline_shorter_than_predicted_cost_is_refused_at_admission() {
        let mut s = det_service();
        let out = s.handle_line(
            r#"{"kind":"simulate","graph":"nvmeof","seeds":4,"duration_ms":10,"deadline_ms":5}"#,
        );
        assert!(out.contains("\"code\":\"deadline_exceeded\""), "{out}");
        assert!(out.contains("\"predicted_ms\":40"), "{out}");
        // health with deadline 0 still passes: zero predicted cost.
        let out = s.handle_line(r#"{"kind":"health","deadline_ms":0}"#);
        assert!(out.contains("\"ok\":true"), "{out}");
    }

    /// The per-simulation event budget `sim_config` derives for a
    /// request line.
    fn event_budget(line: &str) -> u64 {
        let req = Request::decode(&parse(line).unwrap()).unwrap();
        det_service().sim_config(&req).max_events
    }

    #[test]
    fn deadline_budget_is_whole_deadline_ms_times_the_ledger_rate() {
        assert_eq!(
            event_budget(
                r#"{"kind":"simulate","graph":"nvmeof","duration_ms":2,"deadline_ms":2.5}"#
            ),
            3 * EVENTS_PER_DEADLINE_MS
        );
        // The tightest cap wins: a request's own `max_events`…
        assert_eq!(
            event_budget(
                r#"{"kind":"simulate","graph":"nvmeof","deadline_ms":20,"max_events":500}"#
            ),
            500
        );
        // …and the service-wide cap, when no deadline is declared.
        assert_eq!(
            event_budget(r#"{"kind":"simulate","graph":"nvmeof"}"#),
            ServeConfig::default().max_events_per_request
        );
    }

    #[test]
    fn fleet_nics_share_the_request_budget() {
        // 3 NICs share one 1 ms deadline: ceil(11,000 / 3) each.
        assert_eq!(
            event_budget(r#"{"kind":"fleet_simulate","nics":3,"duration_ms":1,"deadline_ms":1}"#),
            EVENTS_PER_DEADLINE_MS.div_ceil(3)
        );
        assert_eq!(
            event_budget(r#"{"kind":"fleet_simulate","nics":4,"max_events":10}"#),
            3
        );
        assert_eq!(
            event_budget(r#"{"kind":"fleet_simulate","nics":8}"#),
            ServeConfig::default().max_events_per_request / 8
        );
    }

    #[test]
    fn requests_costlier_than_the_high_water_mark_are_refused_not_shed() {
        let mut s = det_service();
        // 16 NICs × 5 ms = cost 80 against the default high water of 64.
        let out = s.handle_line(r#"{"kind":"fleet_simulate","nics":16,"duration_ms":5}"#);
        assert!(out.contains("\"code\":\"oversized_request\""), "{out}");
        assert!(out.contains("\"cost\":80,\"limit\":64"), "{out}");
        assert!(!out.contains("retry_after_ms"), "{out}");
        assert_eq!((s.stats().failed, s.stats().shed), (1, 0));
        // Nothing was charged: a request at exactly the mark still fits.
        let out =
            s.handle_line(r#"{"kind":"simulate","graph":"nvmeof","seeds":16,"duration_ms":4}"#);
        assert!(out.contains("\"ok\":true"), "{out}");
    }

    #[test]
    fn sustained_load_sheds_with_retry_hints_and_recovers() {
        let mut s = Service::new(ServeConfig {
            deterministic: true,
            high_water: 8,
            drain_per_request: 1,
            ..ServeConfig::default()
        });
        let mut shed = 0;
        for i in 0..10 {
            let out = s.handle_line(
                r#"{"kind":"sweep","graph":"nvmeof","fractions":[0.2,0.4,0.6,0.8,1.0]}"#,
            );
            if out.contains("\"code\":\"overloaded\"") {
                assert!(out.contains("\"retry_after_ms\":"), "{out}");
                shed += 1;
            } else {
                assert!(out.contains("\"ok\":true"), "request {i}: {out}");
            }
        }
        assert!(
            shed > 0,
            "sustained 5-point sweeps must trip an 8-unit gauge"
        );
        assert_eq!(s.stats().shed, shed);
        // Zero-cost probes are never shed even at the mark.
        let out = s.handle_line(r#"{"kind":"health"}"#);
        assert!(out.contains("\"ok\":true"), "{out}");
    }

    #[test]
    fn panics_are_contained_and_the_loop_keeps_serving() {
        let mut s = det_service();
        let out = s.handle_line(r#"{"id":"p","kind":"debug_panic"}"#);
        assert!(out.contains("\"code\":\"internal\""), "{out}");
        assert!(out.contains("\"id\":\"p\""), "{out}");
        assert_eq!(s.stats().isolated_panics, 1);
        let out = s.handle_line(r#"{"kind":"health"}"#);
        assert!(out.contains("\"ok\":true"), "still serving: {out}");
    }

    #[test]
    fn debug_panic_is_disabled_by_default() {
        let mut s = Service::new(ServeConfig {
            deterministic: true,
            ..ServeConfig::default()
        });
        let out = s.handle_line(r#"{"kind":"debug_panic"}"#);
        assert!(out.contains("\"code\":\"invalid_request\""), "{out}");
        assert_eq!(s.stats().isolated_panics, 0);
    }

    #[test]
    fn serve_loop_answers_every_line_and_survives_garbage() {
        let mut s = det_service();
        let input = b"{\"kind\":\"health\"}\nnot json at all\n\n{\"kind\":\"stats\"}\n\xff\xfe\n";
        let mut out = Vec::new();
        let summary = serve(&mut s, &mut &input[..], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(summary.responses, 4, "blank line ignored: {text}");
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("parse_error"), "{text}");
        assert!(lines[3].contains("not valid UTF-8"), "{text}");
        for l in &lines {
            parse(l).expect("every response line is valid JSON");
        }
    }

    #[test]
    fn oversized_lines_are_refused_without_buffering() {
        let mut s = Service::new(ServeConfig {
            deterministic: true,
            max_line_bytes: 128,
            ..ServeConfig::default()
        });
        let mut input = Vec::new();
        input.extend_from_slice(&vec![b'x'; 1 << 20]);
        input.extend_from_slice(b"\n{\"kind\":\"health\"}\n");
        let mut out = Vec::new();
        let summary = serve(&mut s, &mut &input[..], &mut out).unwrap();
        assert_eq!(summary.responses, 2);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("exceeds 128 bytes"), "{text}");
        assert!(text.contains("\"status\":\"ok\""), "{text}");
    }

    #[test]
    fn deterministic_transcripts_are_byte_identical_across_runs_and_threads() {
        let requests = [
            r#"{"id":1,"kind":"estimate","graph":"nvmeof"}"#,
            r#"{"id":2,"kind":"simulate","graph":"switch-kv","seeds":3,"duration_ms":2}"#,
            r#"{"id":3,"kind":"stats"}"#,
            r#"{"id":4,"kind":"analyze","graph":"chaos"}"#,
        ];
        let run = |threads: usize| {
            let mut s = Service::new(ServeConfig {
                deterministic: true,
                threads,
                ..ServeConfig::default()
            });
            requests
                .iter()
                .map(|r| s.handle_line(r))
                .collect::<Vec<_>>()
        };
        let one = run(1);
        assert_eq!(one, run(1), "same thread count, same bytes");
        assert_eq!(one, run(4), "thread count must not leak into responses");
    }

    #[test]
    fn fleet_simulate_accepts_and_ignores_shards() {
        let run = |line: &str| det_service().handle_line(line);
        let plain = run(r#"{"id":"f","kind":"fleet_simulate","nics":4,"duration_ms":2}"#);
        assert!(plain.contains("\"ok\":true"), "{plain}");
        assert!(plain.contains("\"topology\":\"rack-4\""), "{plain}");
        assert!(plain.contains("\"forwarded\":"), "{plain}");
        parse(&plain).expect("valid JSON");
        for shards in [1, 8] {
            let line = format!(
                r#"{{"id":"f","kind":"fleet_simulate","nics":4,"shards":{shards},"duration_ms":2}}"#
            );
            assert_eq!(
                run(&line),
                plain,
                "shards={shards} must not change the response"
            );
        }
    }

    #[test]
    fn fleet_simulate_enforces_the_rack_size_limit() {
        let mut s = det_service();
        let out = s.handle_line(r#"{"kind":"fleet_simulate","nics":65}"#);
        assert!(out.contains("\"code\":\"invalid_parameter\""), "{out}");
        assert!(out.contains("rack-size limit"), "{out}");
    }

    #[test]
    fn watchdog_abort_surfaces_as_structured_response() {
        let mut s = det_service();
        let out = s.handle_line(
            r#"{"id":"w","kind":"simulate","graph":"nvmeof","seeds":2,"duration_ms":20,"max_events":500}"#,
        );
        assert!(
            out.contains("\"code\":\"watchdog_abort\"") || out.contains("\"events\":"),
            "a 500-event budget cannot finish 20ms: {out}"
        );
        parse(&out).expect("valid JSON");
        let out = s.handle_line(r#"{"kind":"health"}"#);
        assert!(out.contains("\"ok\":true"), "still serving: {out}");
    }
}
