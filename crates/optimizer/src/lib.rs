//! # lognic-optimizer
//!
//! The optimizer mode of LogNIC (§3.8, Fig. 4b): given a scenario
//! whose configurable parameters (Table 2) are open — parallelism
//! degrees, traffic splits, queue credits, placements — search for the
//! configuration satisfying the stipulated performance goals.
//!
//! * [`suggest`] — per-case-study entry points reproducing the
//!   paper's suggestions: core allocations (§4.4), NF placements
//!   (§4.5), credits, steering splits and parallel degrees (§4.6).
//! * [`search`] — the two search primitives they run on the model:
//!   golden-section minimization for a continuous knob (the steering
//!   split) and a minimal-satisfying scan for a discrete one (credits,
//!   parallel degrees, cores). The paper solves these with SciPy's
//!   SLSQP; every study is one-dimensional, so a direct search finds
//!   the same answer.

#![warn(missing_docs)]

pub mod search;
pub mod suggest;
