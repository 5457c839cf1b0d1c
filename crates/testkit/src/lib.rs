//! # lognic-testkit
//!
//! Hermetic, dependency-free test infrastructure for the LogNIC
//! workspace. The repo's core claim is *reproducible* model-vs-sim
//! agreement, so the validation pipeline itself must build and run
//! with no network and no crates.io registry. This crate replaces the
//! external test dependencies the seed carried:
//!
//! * [`rng`] — a 40-line xoshiro256++ generator (replacing
//!   `rand::SmallRng`), validated against the reference test vectors.
//! * [`gen`] + [`check`] — a seeded property-check harness (replacing
//!   `proptest`): deterministic case generation, failure-seed
//!   reporting, and explicit named regression cases.
//!
//! Timing lives in one place, the `perf_baseline` ledger of the
//! `lognic-bench` crate.
//!
//! Everything here is deterministic by construction: the same seed
//! always produces the same cases, the same simulation stream, the
//! same failure report.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod fuzz;
pub mod gen;
pub mod rng;

pub use check::{CaseResult, Property};
pub use fuzz::{Counterexample, Fuzz, FuzzOutcome, FuzzReport};
pub use gen::Gen;
pub use rng::Xoshiro256pp;
