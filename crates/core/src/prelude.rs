//! The blessed public surface of the LogNIC workspace, re-exported
//! for convenient glob import.
//!
//! Every workspace crate re-exports this module from its own
//! `prelude` (extended with its crate-local additions), and the root
//! `lognic` package aggregates all of them — so
//! `use lognic::prelude::*;` is the one import an application needs
//! for the blessed API: [`Estimator`] / [`EstimateRequest`] for the
//! analytical model, `SimulationBuilder` / `SimObserver` /
//! `Replication` for the simulator, [`FaultPlan`] for fault
//! injection, [`AnalysisConfig`] for the static analyzer, and
//! [`LogNicError`] as the workspace-wide error type.

pub use crate::analyze::{
    AnalysisConfig, AnalysisReport, Analyzer, Code, Diagnostic, Severity, Span,
};
pub use crate::error::{LogNicError, LogNicResult};
pub use crate::estimate::{Degradation, Estimate, EstimateRequest, Estimator};
pub use crate::extensions::{consolidate, delivered_throughput, estimate_mixed, Tenant};
pub use crate::fault::{FaultKind, FaultPlan, FaultWindow, RetryPolicy};
pub use crate::graph::{EdgeId, ExecutionGraph, NodeId, NodeKind};
pub use crate::latency::{estimate_latency, LatencyEstimate};
pub use crate::params::{EdgeParams, HardwareModel, IpParams, PacketSizeDist, TrafficProfile};
pub use crate::queueing::Mm1n;
pub use crate::roofline::IpRoofline;
pub use crate::sweep::{knee_of, rate_sweep, SweepPoint};
pub use crate::throughput::{estimate_throughput, ThroughputEstimate};
pub use crate::topology::{FleetLink, NicId, NicSpec, Topology};
pub use crate::transform::{insert_rate_limiter, unroll_recirculation, with_bypass};
pub use crate::units::{Bandwidth, Bytes, OpsRate, Seconds};
