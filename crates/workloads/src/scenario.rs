//! A scenario bundles the three model inputs so that one description
//! drives both the analytical estimate and the simulation, and pairs
//! the two results for validation.

use lognic_model::error::LogNicResult;
use lognic_model::estimate::{Estimate, Estimator};
use lognic_model::graph::ExecutionGraph;
use lognic_model::params::{HardwareModel, TrafficProfile};
use lognic_model::units::{Bandwidth, Seconds};
use lognic_sim::metrics::SimReport;
use lognic_sim::sim::{SimConfig, Simulation};

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
}

impl Scenario {
    /// Creates a scenario.
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

    /// Runs the analytical model.
    ///
    /// # Errors
    ///
    /// Propagates model-evaluation errors.
    pub fn estimate(&self) -> LogNicResult<Estimate> {
        self.estimator().request().evaluate()
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

    /// Runs the simulator with the given configuration, propagating
    /// configuration errors instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`lognic_model::error::LogNicError`]
    /// when the scenario or configuration is rejected, or when the
    /// run trips the event watchdog.
    pub fn try_simulate(&self, config: SimConfig) -> LogNicResult<SimReport> {
        Simulation::builder(&self.graph, &self.hardware, &self.traffic)
            .config(config)
            .run()
    }

    /// Runs both the model and the simulator and pairs the results.
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

    #[test]
    fn relative_error_edge_cases() {
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(1.0, 0.0), f64::INFINITY);
        assert!((relative_error(11.0, 10.0) - 0.1).abs() < 1e-12);
    }
}
