//! # lognic
//!
//! A Rust reproduction of **LogNIC: A High-Level Performance Model for
//! SmartNICs** (MICRO '23). This facade crate re-exports the whole
//! workspace:
//!
//! * [`model`] — the analytical LogNIC model: execution graphs,
//!   throughput/latency estimation, M/M/1/N (and M/M/c/N) queueing,
//!   multi-tenant and mixed-traffic extensions, extended rooflines.
//! * [`sim`] — a packet-level discrete-event simulator of the same
//!   hardware abstraction, standing in for the paper's physical
//!   SmartNIC testbeds.
//! * [`devices`] — calibrated profiles of the paper's four devices
//!   (LiquidIO-II, Stingray + SSD, BlueField-2, PANIC).
//! * [`workloads`] — the five case-study scenarios (inline
//!   acceleration, NVMe-oF target, E3 microservices, NF placement,
//!   PANIC design exploration).
//! * [`optimizer`] — the optimizer mode: one suggestion per case
//!   study, searched over the model's configurable parameters.
//! * [`service`] — the hardened `lognic serve` JSON-lines loop:
//!   admission control, deadlines, budgets and load shedding around
//!   the model and simulator.
//!
//! ## Quick start
//!
//! ```
//! use lognic::model::prelude::*;
//!
//! # fn main() -> lognic::model::error::LogNicResult<()> {
//! let graph = ExecutionGraph::chain(
//!     "udp-echo",
//!     &[("nic-cores", IpParams::new(Bandwidth::gbps(18.0)).with_parallelism(8))],
//! )?;
//! let hw = HardwareModel::new(Bandwidth::gbps(50.0), Bandwidth::gbps(40.0));
//! let traffic = TrafficProfile::fixed(Bandwidth::gbps(25.0), Bytes::new(1500));
//! let estimate = Estimator::new(&graph, &hw, &traffic).request().evaluate()?;
//! assert_eq!(estimate.throughput.attainable(), Bandwidth::gbps(18.0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use lognic_devices as devices;
pub use lognic_model as model;
pub use lognic_optimizer as optimizer;
pub use lognic_service as service;
pub use lognic_sim as sim;
pub use lognic_workloads as workloads;

/// The blessed API surface of the whole workspace, aggregated: the
/// analytical model ([`model::prelude`]), the simulator and its trace
/// observers ([`sim::prelude`]) and the calibrated scenarios
/// ([`workloads::prelude`]) behind one glob import. The optimizer's
/// suggestions are reached by path, [`optimizer::suggest`].
///
/// ```
/// use lognic::prelude::*;
///
/// # fn main() -> LogNicResult<()> {
/// let g = ExecutionGraph::chain("echo", &[("core", IpParams::new(Bandwidth::gbps(10.0)))])?;
/// let hw = HardwareModel::default();
/// let t = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1500));
/// let estimate = Estimator::new(&g, &hw, &t).request().evaluate()?;
/// let report = Simulation::builder(&g, &hw, &t).run()?;
/// assert!((estimate.delivered.as_gbps() - report.throughput.as_gbps()).abs() < 1.0);
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use lognic_model::prelude::*;
    pub use lognic_sim::prelude::*;
    pub use lognic_workloads::prelude::*;

    pub use lognic_devices::prelude::CostModel;
}
