//! # lognic-sim
//!
//! A packet-level discrete-event simulator of the LogNIC SmartNIC
//! hardware model. In the paper, model predictions are validated
//! against real SmartNICs (LiquidIO-II, BlueField-2, Stingray, PANIC);
//! this crate plays the role of that hardware: it executes the *same*
//! scenario description (execution graph + hardware model + traffic
//! profile) with explicit packets, bounded queues, parallel engines
//! and bandwidth-serialized media, and reports measured throughput,
//! latency distributions and drops.
//!
//! The simulator deliberately mirrors the analytical model's
//! structural assumptions (Poisson arrivals, exponential service,
//! virtual shared queues, FIFO media) so that model-vs-sim deviations
//! isolate *modeling* error rather than description mismatch — while
//! still supporting the behaviours the model cannot express (tail
//! latencies, bursty arrivals, stateful devices such as SSDs with
//! garbage collection).
//!
//! ## Quick start
//!
//! ```
//! use lognic_model::prelude::*;
//! use lognic_sim::prelude::*;
//!
//! # fn main() -> LogNicResult<()> {
//! let graph = ExecutionGraph::chain(
//!     "udp-echo",
//!     &[("nic-cores", IpParams::new(Bandwidth::gbps(10.0)).with_parallelism(8))],
//! )?;
//! let hw = HardwareModel::new(Bandwidth::gbps(50.0), Bandwidth::gbps(40.0));
//! let traffic = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1500));
//!
//! let report = Simulation::builder(&graph, &hw, &traffic)
//!     .seed(7)
//!     .duration(Seconds::millis(5.0))
//!     .warmup(Seconds::millis(1.0))
//!     .run()?;
//! assert!((report.throughput.as_gbps() - 5.0).abs() < 0.5);
//! # Ok(())
//! # }
//! ```
//!
//! ## Fault injection
//!
//! Runs degrade gracefully under a [`faults::FaultPlan`]: outages,
//! rate degradation, probabilistic drop/corruption and credit loss
//! are scheduled per node, while a [`faults::RetryPolicy`] re-submits
//! refused packets with exponential backoff. A plan is compiled once
//! against its graph ([`faults::CompiledFaultPlan::compile`]) and
//! installed with [`sim::SimulationBuilder::with_compiled_faults`].

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(clippy::perf)]

pub mod arena;
pub mod calendar;
pub mod faults;
pub mod fleet;
pub mod histogram;
pub mod medium;
pub mod metrics;
pub mod packet;
pub mod replicate;
pub mod rng;
pub mod sanitize;
pub mod service;
pub mod sim;
mod size_table;
pub mod stats;
pub mod time;
pub mod trace;
pub mod traffic;
pub mod wrr;

/// The most commonly used items, layered on the workspace-wide
/// blessed surface (`lognic_model::prelude`) — one glob import covers
/// both the analytical model and the simulator.
pub mod prelude {
    pub use lognic_model::prelude::*;

    pub use crate::arena::{PacketArena, PacketHandle, NO_PACKET};
    pub use crate::calendar::CalendarQueue;
    pub use crate::faults::{CompiledFaultPlan, FaultKind, FaultPlan, FaultWindow, RetryPolicy};
    pub use crate::fleet::{nic_seed, FleetBuilder, FleetReport, FleetSim, LinkReport, NicReport};
    pub use crate::histogram::LatencyRecorder;
    pub use crate::metrics::{LatencySummary, MediumReport, NodeReport, SimReport};
    pub use crate::packet::Packet;
    pub use crate::replicate::{ReplicatedReport, Replication};
    pub use crate::rng::SimRng;
    pub use crate::sanitize::{Invariant, Sanitizer, SanitizerReport, Violation};
    pub use crate::service::{FixedService, RateService, ServiceDist, ServiceModel};
    pub use crate::sim::{SimConfig, Simulation, SimulationBuilder};
    pub use crate::stats::{MetricSummary, Welford};
    pub use crate::time::SimTime;
    pub use crate::trace::{
        ArrivalRecorder, ChromeTrace, DropReason, NodeAudit, NodeMeta, NoopObserver, RingLog,
        RunAudit, RunMeta, Sample, SimEvent, SimObserver, TimeSeriesSampler, Timeline,
    };
    pub use crate::traffic::{ArrivalProcess, Injection, PacketTrace, TraceEntry, TrafficSource};
    pub use crate::wrr::{QueuePlan, QueueSpec};
}
