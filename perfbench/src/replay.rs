//! The traced run's replay of one request line.
//!
//! The benchmark calls each layer's public functions itself, in the
//! order `Service::evaluate` does, with a span around every call. The
//! replay produces the same numbers the service rendered, which
//! [`Outcome::check`] compares against the served response.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use lognic_model::analyze::{AnalysisConfig, Analyzer, Severity};
use lognic_model::error::LogNicResult;
use lognic_model::estimate::Estimate;
use lognic_model::fault::FaultPlan;
use lognic_model::sweep::{knee_of, rate_sweep, SweepPoint};
use lognic_model::units::{Bandwidth, Seconds};
use lognic_service::json::{self, Json};
use lognic_service::request::{Request, RequestKind};
use lognic_service::ServeConfig;
use lognic_sim::faults::CompiledFaultPlan;
use lognic_sim::fleet::{FleetBuilder, FleetReport};
use lognic_sim::metrics::SimReport;
use lognic_sim::replicate::Replication;
use lognic_sim::sim::{SimConfig, Simulation};
use lognic_sim::stats::{MetricSummary, Welford};
use lognic_workloads::rack;
use lognic_workloads::registry;
use lognic_workloads::scenario::Scenario;

use crate::span::{Span, Tracer};
use crate::stream::Line;

/// One registry graph, built once per run as `Service::new` does.
pub struct Entry {
    name: &'static str,
    scenario: Scenario,
    plan: Option<FaultPlan>,
}

/// Builds the graph catalog from `registry::ALL`.
pub fn catalog() -> Vec<Entry> {
    registry::ALL
        .iter()
        .map(|e| {
            let (scenario, plan) = e.build();
            Entry {
                name: e.name,
                scenario,
                plan,
            }
        })
        .collect()
}

/// What the replay computed for one request.
pub enum Outcome {
    Estimate(Estimate),
    Analyze {
        rejected: bool,
        /// Diagnostics at warning level or above (the ones rendered).
        shown: usize,
    },
    Sweep {
        points: Vec<SweepPoint>,
        knee: Option<usize>,
    },
    Simulate {
        latency: MetricSummary,
        throughput: MetricSummary,
        loss: MetricSummary,
        seeds: usize,
        events: u64,
        /// Worker threads the replication ran on.
        workers: usize,
    },
    Fleet(FleetReport),
}

/// Replays request lines against a catalog under one service config.
pub struct Replayer<'a> {
    pub catalog: &'a [Entry],
    pub config: &'a ServeConfig,
}

impl Replayer<'_> {
    /// Replays `line` under a root span named `root`. Fleet requests are
    /// then run once more at one shard, under a separate
    /// `fleet.reference` root, and the two reports must be equal.
    pub fn replay(
        &self,
        t: &mut Tracer,
        line: &Line,
        root: &'static str,
    ) -> Result<Outcome, String> {
        let id = line.id;
        let root = t.enter(root, id);
        let result = self.layers(t, line);
        t.exit(root);
        let outcome = result?;
        if let Outcome::Fleet(report) = &outcome {
            let reference = t.enter("fleet.reference", id);
            let one = self.fleet_at_one_shard(t, line);
            t.exit(reference);
            if &one? != report {
                return Err(format!("request {id}: fleet report differs at 1 shard"));
            }
        }
        Ok(outcome)
    }

    fn layers(&self, t: &mut Tracer, line: &Line) -> Result<Outcome, String> {
        let id = line.id;
        let doc = t
            .time("service.json.parse", id, || json::parse(&line.text))
            .map_err(|e| format!("request {id}: {e}"))?;
        let req = t
            .time("service.request.decode", id, || Request::decode(&doc))
            .map_err(|e| format!("request {id}: {e}"))?;
        if req.deadline_ms.is_some() {
            return Err(format!("request {id}: streams carry no deadline"));
        }
        let fail = |e: lognic_model::error::LogNicError| format!("request {id}: {e}");
        if req.kind == RequestKind::FleetSimulate {
            let config = sim_config(&req, self.config);
            let fleet = t
                .time("fleet.build", id, || {
                    FleetBuilder::new(rack::topology(req.nics as usize))
                        .config(config)
                        .shards(req.shards as usize)
                        .build()
                })
                .map_err(fail)?;
            let report = t.time("fleet.run", id, || fleet.run()).map_err(fail)?;
            return Ok(Outcome::Fleet(report));
        }
        let graph = req.graph.as_deref().unwrap_or_default();
        let entry = self
            .catalog
            .iter()
            .find(|e| e.name == graph)
            .ok_or_else(|| format!("request {id}: unknown graph `{graph}`"))?;
        let rate = req
            .rate_gbps
            .ok_or_else(|| format!("request {id}: streams always set rate_gbps"))?;
        let scenario = t.time("workloads.scenario.at_rate", id, || {
            entry.scenario.at_rate(Bandwidth::gbps(rate))
        });
        let analysis = AnalysisConfig::new().deny_warnings(req.deny_warnings);
        let report = t.time("model.analyze.run", id, || {
            Analyzer::new(&scenario.graph)
                .with_hardware(&scenario.hardware)
                .with_traffic(&scenario.traffic)
                .run(&analysis)
        });
        t.count(
            "model.analyze.diagnostics",
            id,
            report.diagnostics().len() as u64,
        );
        if req.kind == RequestKind::Analyze {
            return Ok(Outcome::Analyze {
                rejected: report.is_rejected(),
                shown: report
                    .diagnostics()
                    .iter()
                    .filter(|d| d.severity >= Severity::Warn)
                    .count(),
            });
        }
        if report.is_rejected() {
            return Err(format!("request {id}: analyzer rejected the scenario"));
        }
        let inline = req.fault_plan();
        let plan = inline.as_ref().or(entry.plan.as_ref());
        match req.kind {
            RequestKind::Estimate => t
                .time("model.estimate.evaluate", id, || {
                    scenario.estimator().request().evaluate()
                })
                .map(Outcome::Estimate)
                .map_err(fail),
            RequestKind::EstimateDegraded => {
                let plan = plan.ok_or_else(|| format!("request {id}: no fault plan"))?;
                t.time("model.estimate.degraded", id, || {
                    scenario
                        .estimator()
                        .request()
                        .with_faults(plan, Seconds::millis(req.horizon_ms))
                        .evaluate()
                })
                .map(Outcome::Estimate)
                .map_err(fail)
            }
            RequestKind::Sweep => {
                let points = t
                    .time("model.sweep", id, || {
                        rate_sweep(
                            &scenario.graph,
                            &scenario.hardware,
                            &scenario.traffic,
                            scenario.traffic.ingress_bandwidth(),
                            &req.fractions,
                        )
                    })
                    .map_err(|e| format!("request {id}: {e}"))?;
                let knee = knee_of(&points, 0.01);
                Ok(Outcome::Sweep { points, knee })
            }
            RequestKind::Simulate => self.replicate(t, id, &req, &scenario, plan),
            other => Err(format!(
                "request {id}: `{}` is not in any stream",
                other.as_str()
            )),
        }
    }

    /// `Replication::run_sim{,_faulted}` with every seed's build and run
    /// timed separately on the workers.
    fn replicate(
        &self,
        t: &mut Tracer,
        id: u64,
        req: &Request,
        scenario: &Scenario,
        plan: Option<&FaultPlan>,
    ) -> Result<Outcome, String> {
        let fail = |e: lognic_model::error::LogNicError| format!("request {id}: {e}");
        let parent = t.enter("sim.replicate", id);
        let config = sim_config(req, self.config);
        let seeds = Replication::new(req.seeds).seeds().to_vec();
        let compiled = plan
            .map(|p| CompiledFaultPlan::compile(p, &scenario.graph))
            .transpose();
        let workers = self.config.threads.clamp(1, seeds.len());
        let slots: Mutex<Vec<Option<LogNicResult<SimReport>>>> =
            Mutex::new((0..seeds.len()).map(|_| None).collect());
        let next = AtomicUsize::new(0);
        let epoch = t.epoch();
        let clock = || epoch.elapsed().as_nanos() as u64;
        let mut worker_spans: Vec<Span> = Vec::new();
        if let Ok(compiled) = &compiled {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut spans = Vec::new();
                            let span = |name, start, end| Span {
                                name,
                                start,
                                end,
                                parent: Some(parent),
                                request: id,
                            };
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(&seed) = seeds.get(i) else {
                                    break spans;
                                };
                                let mut builder = Simulation::builder(
                                    &scenario.graph,
                                    &scenario.hardware,
                                    &scenario.traffic,
                                )
                                .config(SimConfig { seed, ..config });
                                if let Some(c) = compiled {
                                    builder = builder.with_compiled_faults(c);
                                }
                                let t0 = clock();
                                let built = builder.build();
                                let t1 = clock();
                                spans.push(span("sim.build", t0, t1));
                                let report = built.and_then(Simulation::run);
                                spans.push(span("sim.run", t1, clock()));
                                slots.lock().expect("no worker panicked")[i] = Some(report);
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    worker_spans.extend(h.join().expect("replica workers do not panic"));
                }
            });
        }
        t.adopt(worker_spans);
        t.exit(parent);
        compiled.map_err(fail)?;
        let mut reports = Vec::with_capacity(seeds.len());
        for slot in slots.into_inner().expect("workers joined") {
            reports.push(slot.expect("every seed ran").map_err(fail)?);
        }
        let summary = |f: &dyn Fn(&SimReport) -> f64| {
            let mut w = Welford::new();
            for r in &reports {
                w.push(f(r));
            }
            MetricSummary::from_accumulator(&w)
        };
        Ok(Outcome::Simulate {
            latency: summary(&|r| r.latency.mean.as_secs()),
            throughput: summary(&|r| r.throughput.as_gbps()),
            loss: summary(&|r| r.loss_rate()),
            seeds: reports.len(),
            events: reports.iter().map(|r| r.events).sum(),
            workers,
        })
    }

    fn fleet_at_one_shard(&self, t: &mut Tracer, line: &Line) -> Result<FleetReport, String> {
        let fail = |e: lognic_model::error::LogNicError| format!("request {}: {e}", line.id);
        let doc = json::parse(&line.text).map_err(|e| e.to_string())?;
        let req = Request::decode(&doc).map_err(|e| e.to_string())?;
        let fleet = FleetBuilder::new(rack::topology(req.nics as usize))
            .config(sim_config(&req, self.config))
            .shards(1)
            .build()
            .map_err(fail)?;
        t.time("fleet.run_1shard", line.id, || fleet.run())
            .map_err(fail)
    }
}

/// The run configuration `Service` derives for a simulation request
/// that carries no deadline.
fn sim_config(req: &Request, config: &ServeConfig) -> SimConfig {
    let duration = Seconds::millis(req.duration_ms);
    let mut budget = config.max_events_per_request;
    if req.max_events > 0 {
        budget = budget.min(req.max_events);
    }
    SimConfig {
        duration,
        warmup: duration.scaled(0.2),
        max_events: budget,
        ..SimConfig::default()
    }
}

fn field<'j>(doc: &'j Json, path: &[&str]) -> Result<&'j Json, String> {
    let mut at = doc;
    for key in path {
        at = at
            .get(key)
            .ok_or_else(|| format!("response lacks `{}`", path.join(".")))?;
    }
    Ok(at)
}

fn expect_num(doc: &Json, path: &[&str], want: f64) -> Result<(), String> {
    let got = field(doc, path)?
        .as_f64()
        .ok_or_else(|| format!("`{}` is not a number", path.join(".")))?;
    if got != want {
        return Err(format!(
            "`{}`: served {got}, replayed {want}",
            path.join(".")
        ));
    }
    Ok(())
}

impl Outcome {
    /// Compares the replayed numbers with the served response.
    pub fn check(&self, response: &Json) -> Result<(), String> {
        match self {
            Outcome::Estimate(est) => {
                expect_num(
                    response,
                    &["attainable_gbps"],
                    est.throughput.attainable().as_gbps(),
                )?;
                expect_num(response, &["delivered_gbps"], est.delivered.as_gbps())?;
                expect_num(
                    response,
                    &["latency_us"],
                    est.latency.mean().as_secs() * 1e6,
                )?;
                if let Some(d) = &est.degraded {
                    expect_num(response, &["goodput_gbps"], d.goodput.as_gbps())?;
                }
                Ok(())
            }
            Outcome::Analyze { rejected, shown } => {
                if field(response, &["rejected"])?.as_bool() != Some(*rejected) {
                    return Err("`rejected` differs".into());
                }
                let served = field(response, &["diagnostics"])?
                    .as_arr()
                    .map_or(usize::MAX, <[Json]>::len);
                if served != *shown {
                    return Err(format!("served {served} diagnostics, replayed {shown}"));
                }
                Ok(())
            }
            Outcome::Sweep { points, knee } => {
                let served = field(response, &["points"])?
                    .as_arr()
                    .ok_or("`points` is not an array")?;
                if served.len() != points.len() {
                    return Err("sweep point count differs".into());
                }
                for (s, p) in served.iter().zip(points) {
                    expect_num(s, &["delivered_gbps"], p.delivered.as_gbps())?;
                    expect_num(s, &["latency_us"], p.latency.as_secs() * 1e6)?;
                }
                let served_knee = field(response, &["knee_index"])?.as_f64();
                if served_knee != knee.map(|k| k as f64) {
                    return Err("sweep knee differs".into());
                }
                Ok(())
            }
            Outcome::Simulate {
                latency,
                throughput,
                loss,
                seeds,
                ..
            } => {
                expect_num(response, &["seeds"], *seeds as f64)?;
                for (name, m) in [
                    ("latency_s", latency),
                    ("throughput_gbps", throughput),
                    ("loss_rate", loss),
                ] {
                    expect_num(response, &[name, "mean"], m.mean)?;
                    expect_num(response, &[name, "ci_lo"], m.ci_lo)?;
                    expect_num(response, &[name, "ci_hi"], m.ci_hi)?;
                }
                Ok(())
            }
            Outcome::Fleet(report) => {
                expect_num(response, &["events"], report.events as f64)?;
                expect_num(response, &["rounds"], report.rounds as f64)?;
                expect_num(response, &["forwarded"], report.forwarded as f64)?;
                Ok(())
            }
        }
    }
}
