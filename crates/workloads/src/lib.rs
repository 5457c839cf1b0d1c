//! # lognic-workloads
//!
//! The five case-study workloads of the LogNIC paper, each expressed
//! as a [`scenario::Scenario`] (execution graph + hardware model +
//! traffic profile) that drives both the analytical model and the
//! discrete-event simulator:
//!
//! * [`inline_accel`] — bump-in-the-wire acceleration on the
//!   LiquidIO-II (§4.2, Figs. 5/9/10);
//! * [`nvmeof`] — the NVMe-oF target on the Stingray (§4.3,
//!   Figs. 6/7);
//! * [`microservices`] — E3 microservice chains and core-allocation
//!   schemes (§4.4, Figs. 11/12);
//! * [`nf_placement`] — the BlueField-2 network-function chain and
//!   placement strategies (§4.5, Figs. 13/14);
//! * [`panic_scenarios`] — PANIC hardware design exploration (§4.6,
//!   Figs. 15–19);
//! * [`switch_kv`] — the §5.3 future-work extension: a programmable
//!   RMT switch running a NetCache-style in-network KV cache;
//! * [`chaos`] — the robustness counterpart: the inline-acceleration
//!   pipeline under an accelerator brownout with retry/backoff
//!   recovery, driving the chaos-sweep experiment;
//! * [`corpus`] — the protocol workload corpus (TLS handshake, DNS/KV,
//!   storage RPC, HTTP/2 multiplexing) plus the seeded random-scenario
//!   generator and differential oracle ([`corpus::gen`]);
//! * [`registry`] — the single scenario registry every CLI fixture
//!   set (trace_dump, lognic-lint) resolves through;
//! * [`cli`] — the command-line contract every binary keeps: one
//!   flag reader, one fallible stdout writer and one set of exit
//!   codes.

#![warn(missing_docs)]

pub mod broken;
pub mod chaos;
pub mod cli;
pub mod compression;
pub mod corpus;
pub mod doorbell;
pub mod inline_accel;
pub mod microservices;
pub mod nf_placement;
pub mod nvmeof;
pub mod panic_scenarios;
pub mod rack;
pub mod registry;
pub mod scenario;
pub mod switch_kv;
pub mod witness;

pub use scenario::{Comparison, Scenario};

/// The workspace-wide blessed surface (model + simulator preludes)
/// plus this crate's scenario entry points.
pub mod prelude {
    pub use lognic_sim::prelude::*;

    pub use crate::chaos::{accelerator_brownout, duty_cycle_sweep, ChaosPoint};
    pub use crate::corpus::gen::{differential_check, fuzz_config, ScenarioSpec};
    pub use crate::doorbell::{doorbell_burst, BurstPlan};
    pub use crate::rack;
    pub use crate::registry::{self, RegistryEntry};
    pub use crate::scenario::{Comparison, Scenario};
    pub use crate::witness::{synthesize, ConfirmedWitness, WitnessParams};
}
