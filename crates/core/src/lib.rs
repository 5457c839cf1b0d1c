//! # lognic-model
//!
//! An implementation of **LogNIC** — the high-level performance model
//! for SmartNICs from *"LogNIC: A High-Level Performance Model for
//! SmartNICs"* (MICRO '23).
//!
//! LogNIC analyzes a SmartNIC-offloaded program *packet-centrically*:
//! instead of tracing an execution flow through compute units, it
//! models how packets traverse the hardware entities of the SmartNIC
//! SoC — IP blocks, on-/off-chip interconnects and non-cache-coherent
//! memory regions. The program is a directed acyclic
//! [`graph::ExecutionGraph`]; the device is a small
//! [`params::HardwareModel`]; the workload is a
//! [`params::TrafficProfile`]. From these the model produces:
//!
//! * **throughput** ([`throughput`]) — the minimum over the capacity
//!   bounds of every traversed component (Eq. 1–4), with bottleneck
//!   attribution;
//! * **latency** ([`latency`]) — per-path accumulation of queueing,
//!   execution, computation-transfer overhead and data movement
//!   (Eq. 5–8), with intra-IP queueing from an M/M/1/N model
//!   ([`queueing`], Eq. 9–12);
//! * **extensions** ([`extensions`]) — multi-tenant graph
//!   consolidation, interleaved traffic profiles and drop-aware
//!   delivered throughput (§3.7);
//! * the **extended roofline** of an IP ([`roofline`]) — multiple
//!   bandwidth ceilings and packet intensity (§3.2).
//!
//! ## Quick start
//!
//! ```
//! use lognic_model::prelude::*;
//!
//! # fn main() -> lognic_model::error::LogNicResult<()> {
//! // A UDP echo server whose packets visit one NIC-core stage.
//! let graph = ExecutionGraph::chain(
//!     "udp-echo",
//!     &[("nic-cores", IpParams::new(Bandwidth::gbps(18.0)).with_parallelism(8))],
//! )?;
//! let hw = HardwareModel::new(Bandwidth::gbps(50.0), Bandwidth::gbps(40.0));
//! let traffic = TrafficProfile::fixed(Bandwidth::gbps(25.0), Bytes::new(1500));
//!
//! let estimate = Estimator::new(&graph, &hw, &traffic).request().evaluate()?;
//! assert_eq!(estimate.throughput.attainable(), Bandwidth::gbps(18.0));
//! println!("bottleneck: {}", estimate.throughput.bottleneck().component);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyze;
pub mod baselines;
pub mod error;
pub mod estimate;
pub mod extensions;
pub mod fault;
pub mod graph;
pub mod json;
pub mod latency;
pub mod params;
pub mod prelude;
pub mod queueing;
pub mod roofline;
pub mod sweep;
pub mod throughput;
pub mod topology;
pub mod transform;
pub mod units;
