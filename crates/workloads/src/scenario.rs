//! A scenario bundles the model inputs so that one description drives
//! the static analysis, the analytical estimate and the simulation,
//! and pairs the results for validation.
//!
//! A workload may ship a fault plan ([`Scenario::faults`]). It stays
//! declarative here: [`Scenario::analyze`] lints it, a degraded
//! estimate reads it (`estimator().request().with_faults(..)`), and
//! [`Scenario::compile`] compiles it once for the simulator.

use lognic_model::analyze::{AnalysisConfig, AnalysisReport, Analyzer};
use lognic_model::error::LogNicResult;
use lognic_model::estimate::{Estimate, Estimator};
use lognic_model::fault::FaultPlan;
use lognic_model::graph::ExecutionGraph;
use lognic_model::params::{HardwareModel, TrafficProfile};
use lognic_model::units::{Bandwidth, Seconds};
use lognic_sim::faults::CompiledFaultPlan;
use lognic_sim::metrics::SimReport;
use lognic_sim::sim::{SimConfig, Simulation, SimulationBuilder};

/// One evaluable workload configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (used in reports).
    pub name: String,
    /// The program's execution graph.
    pub graph: ExecutionGraph,
    /// The device's hardware model.
    pub hardware: HardwareModel,
    /// The offered traffic.
    pub traffic: TrafficProfile,
    /// The faults the workload runs under, if it ships any
    /// (uncompiled).
    pub faults: Option<FaultPlan>,
}

/// A scenario whose fault plan is compiled for the simulator, ready to
/// hand out any number of builders that share the compiled tables.
#[derive(Debug)]
pub struct CompiledScenario<'a> {
    scenario: &'a Scenario,
    faults: Option<CompiledFaultPlan>,
}

impl CompiledScenario<'_> {
    /// A simulation builder over the scenario, with its compiled fault
    /// plan installed.
    pub fn builder(&self) -> SimulationBuilder<'_> {
        let s = self.scenario;
        let builder = Simulation::builder(&s.graph, &s.hardware, &s.traffic);
        match &self.faults {
            Some(faults) => builder.with_compiled_faults(faults),
            None => builder,
        }
    }
}

impl Scenario {
    /// Creates a fault-free scenario.
    pub fn new(
        name: &str,
        graph: ExecutionGraph,
        hardware: HardwareModel,
        traffic: TrafficProfile,
    ) -> Self {
        Scenario {
            name: name.to_owned(),
            graph,
            hardware,
            traffic,
            faults: None,
        }
    }

    /// Returns a copy at a different offered rate.
    pub fn at_rate(&self, rate: Bandwidth) -> Scenario {
        let mut s = self.clone();
        s.traffic = s.traffic.at_rate(rate);
        s
    }

    /// The analytical estimator over this scenario.
    pub fn estimator(&self) -> Estimator<'_> {
        Estimator::new(&self.graph, &self.hardware, &self.traffic)
    }

    /// Runs the static analyzer over the graph, hardware, traffic and
    /// fault plan under `config`.
    pub fn analyze(&self, config: &AnalysisConfig) -> AnalysisReport {
        let analyzer = Analyzer::new(&self.graph)
            .with_hardware(&self.hardware)
            .with_traffic(&self.traffic);
        match &self.faults {
            Some(plan) => analyzer.with_fault_plan(plan),
            None => analyzer,
        }
        .run(config)
    }

    /// Runs the analytical model, fault-free whatever the plan.
    ///
    /// # Errors
    ///
    /// Propagates model-evaluation errors.
    pub fn estimate(&self) -> LogNicResult<Estimate> {
        self.estimator().request().evaluate()
    }

    /// Compiles the fault plan once; every builder the result hands
    /// out shares it, so replicated runs compile once for all seeds.
    ///
    /// # Errors
    ///
    /// Propagates [`CompiledFaultPlan::compile`] errors: a window on a
    /// node the graph lacks, an empty window, an out-of-range fault
    /// parameter.
    pub fn compile(&self) -> LogNicResult<CompiledScenario<'_>> {
        let faults = self
            .faults
            .as_ref()
            .map(|plan| CompiledFaultPlan::compile(plan, &self.graph))
            .transpose()?;
        Ok(CompiledScenario {
            scenario: self,
            faults,
        })
    }

    /// Runs the simulator with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the scenario description is invalid; scenarios built
    /// by this crate's constructors always are valid. Use
    /// [`Scenario::try_simulate`] to handle the error instead.
    pub fn simulate(&self, config: SimConfig) -> SimReport {
        self.try_simulate(config)
            .expect("workload scenarios are valid by construction")
    }

    /// Runs the simulator under the fault plan with the given
    /// configuration, propagating errors instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`lognic_model::error::LogNicError`]
    /// when the fault plan, the scenario or the configuration is
    /// rejected, or when the run trips the event watchdog.
    pub fn try_simulate(&self, config: SimConfig) -> LogNicResult<SimReport> {
        self.compile()?.builder().config(config).run()
    }

    /// Runs both the model (fault-free) and the simulator (under the
    /// fault plan) and pairs the results.
    ///
    /// # Errors
    ///
    /// Propagates model-evaluation errors.
    pub fn compare(&self, config: SimConfig) -> LogNicResult<Comparison> {
        let est = self.estimate()?;
        let sim = self.simulate(config);
        Ok(Comparison {
            model_throughput: est.delivered,
            model_latency: est.latency.mean(),
            sim_throughput: sim.throughput,
            sim_latency: sim.latency.mean,
        })
    }
}

/// Model-vs-simulation result pair for one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// The model's delivered-throughput estimate.
    pub model_throughput: Bandwidth,
    /// The model's mean-latency estimate.
    pub model_latency: Seconds,
    /// The simulator's measured throughput.
    pub sim_throughput: Bandwidth,
    /// The simulator's measured mean latency.
    pub sim_latency: Seconds,
}

impl Comparison {
    /// Relative throughput error of the model against the simulation.
    pub fn throughput_error(&self) -> f64 {
        relative_error(self.model_throughput.as_bps(), self.sim_throughput.as_bps())
    }

    /// Relative latency error of the model against the simulation.
    pub fn latency_error(&self) -> f64 {
        relative_error(self.model_latency.as_secs(), self.sim_latency.as_secs())
    }
}

/// `|predicted − measured| / measured`, with a zero measurement
/// treated as zero error only when the prediction is also zero.
pub fn relative_error(predicted: f64, measured: f64) -> f64 {
    if measured == 0.0 {
        if predicted == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (predicted - measured).abs() / measured
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lognic_model::error::LogNicError;
    use lognic_model::params::IpParams;
    use lognic_model::units::Bytes;

    fn scenario() -> Scenario {
        let g = ExecutionGraph::chain(
            "t",
            &[(
                "ip",
                IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(64),
            )],
        )
        .unwrap();
        Scenario::new(
            "test",
            g,
            HardwareModel::default(),
            TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1500)),
        )
    }

    #[test]
    fn compare_model_and_sim_agree_at_half_load() {
        let s = scenario();
        let cfg = SimConfig {
            duration: Seconds::millis(20.0),
            warmup: Seconds::millis(4.0),
            ..SimConfig::default()
        };
        let c = s.compare(cfg).unwrap();
        assert!(
            c.throughput_error() < 0.05,
            "tput err = {}",
            c.throughput_error()
        );
        assert!(c.latency_error() < 0.10, "lat err = {}", c.latency_error());
    }

    #[test]
    fn at_rate_changes_only_the_rate() {
        let s = scenario();
        let s2 = s.at_rate(Bandwidth::gbps(1.0));
        assert_eq!(s2.traffic.ingress_bandwidth(), Bandwidth::gbps(1.0));
        assert_eq!(s2.name, s.name);
        assert_eq!(s2.graph, s.graph);
    }

    /// A plan naming a node the graph lacks stays declarative: the
    /// analyzer warns (L0601), and only the simulation entry, which
    /// compiles it, refuses it.
    #[test]
    fn unknown_node_plan_is_a_warning_to_analyze_and_an_error_to_simulate() {
        let s = Scenario {
            faults: Some(FaultPlan::new().outage("ghost", Seconds::ZERO, Seconds::millis(1.0))),
            ..scenario()
        };
        let report = s.analyze(&AnalysisConfig::new());
        assert!(!report.is_rejected(), "{:?}", report.diagnostics());
        assert!(
            report.warnings().iter().any(|d| d.code.as_str() == "L0601"),
            "{:?}",
            report.diagnostics()
        );
        let err = s.compile().expect_err("compiling validates the plan");
        assert!(
            matches!(&err, LogNicError::UnknownNode { node, .. } if node == "ghost"),
            "{err}"
        );
        assert!(s.try_simulate(SimConfig::default()).is_err());
    }

    #[test]
    fn a_bundled_plan_reaches_the_simulation() {
        let plain = scenario();
        let faulted = Scenario {
            faults: Some(FaultPlan::new().outage("ip", Seconds::millis(2.0), Seconds::millis(6.0))),
            ..plain.clone()
        };
        let cfg = SimConfig {
            duration: Seconds::millis(8.0),
            warmup: Seconds::ZERO,
            ..SimConfig::default()
        };
        assert_eq!(plain.simulate(cfg).dropped, 0);
        assert!(faulted.simulate(cfg).dropped > 0, "the outage must drop");
    }

    #[test]
    fn relative_error_edge_cases() {
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(1.0, 0.0), f64::INFINITY);
        assert!((relative_error(11.0, 10.0) - 0.1).abs() < 1e-12);
    }
}
