//! Seeded random-scenario generation and the differential oracle.
//!
//! This is the scenario-shaped half of the fuzzing harness: the
//! generic shrink-capable driver lives in `lognic_testkit::fuzz`,
//! while this module knows how to *generate* a LogNIC scenario from a
//! [`Gen`] stream, how to *shrink* one toward a minimal
//! counterexample, how to *render* one as JSON for a CI artifact, and
//! what the standing correctness oracle is:
//!
//! 1. Realize the spec and run the static analyzer. Scenarios the
//!    analyzer flags are **skipped** (out of domain — the harness
//!    generates replacements), because the pipeline's contract is
//!    only claimed for analyzer-clean inputs.
//! 2. **run** — simulate once with the spec's seed. The run must
//!    terminate without a watchdog abort and complete packets.
//! 3. **sanitizer** — rerun the same recipe twice under
//!    `Simulation::run_sanitized`. Each run must hold every engine
//!    invariant and report the plain run's bytes (the sanitizer is
//!    passive); the first audit's event count must equal the report's,
//!    and draws and events must match across the two audits.
//! 4. **model** — replicate the run across 5 seeds and require the
//!    analytical model's delivered throughput to land inside the
//!    replicated 95 % confidence interval (±3 % slack for
//!    finite-horizon noise).
//!
//! A failure message starts with the stage that caught it (`run:`,
//! `sanitizer:` or `model:`), so a shrink that drifts to another stage
//! shows it.
//!
//! Loads are expressed as a fraction of the realized scenario's
//! saturation bound (the `lognic-lint` derating discipline), so
//! generated scenarios are clean by construction most of the time and
//! the skip rate stays low.
//!
//! Generated graphs deliberately avoid per-node overhead: the
//! analytical throughput bound charges only the computing throughput
//! `P_vi`, while the simulator charges overhead to engine occupancy,
//! so a dominant overhead opens a model-vs-sim gap that is a known
//! modeling limitation, not a defect the fuzzer should report.

use crate::scenario::Scenario;
use lognic_model::analyze::AnalysisConfig;
use lognic_model::graph::ExecutionGraph;
use lognic_model::params::{EdgeParams, HardwareModel, IpParams, PacketSizeDist, TrafficProfile};
use lognic_model::throughput::estimate_throughput;
use lognic_model::units::{Bandwidth, Bytes, Seconds};
use lognic_sim::replicate::Replication;
use lognic_sim::sim::{SimConfig, Simulation};
use lognic_testkit::fuzz::FuzzOutcome;
use lognic_testkit::Gen;

/// Packet-size palette the generator draws mixture buckets from:
/// minimum frames through jumbo, the spread real protocol mixes span.
const SIZE_PALETTE: [u64; 8] = [64, 128, 256, 512, 1024, 1500, 4096, 9000];

/// One service stage of a generated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Computing throughput `P_vi` in Gb/s.
    pub peak_gbps: f64,
    /// Parallelism degree `D_vi`.
    pub parallelism: u32,
    /// Virtual-queue capacity `N_vi` (kept ≥ parallelism so the
    /// generator never trips the L0302 lint by construction).
    pub queue_capacity: u32,
}

/// Topology of a generated scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `ingress → s0 → s1 → … → egress`.
    Chain,
    /// The second stage is split into two parallel copies carrying
    /// δ = 0.5 each (exercises fan-out/fan-in bookkeeping). Falls
    /// back to a chain when the spec has fewer than two nodes.
    Fanout,
}

/// A complete, serializable description of one generated scenario:
/// everything needed to rebuild and replay it by hand from a CI
/// artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Service stages, ingress-to-egress order.
    pub nodes: Vec<NodeSpec>,
    /// Graph topology.
    pub shape: Shape,
    /// Offered load as a fraction of the realized scenario's
    /// saturation bound.
    pub load: f64,
    /// Per-edge interface fraction α.
    pub alpha: f64,
    /// Packet-size mixture as `(bytes, weight)` buckets.
    pub sizes: Vec<(u64, f64)>,
    /// Simulation seed for the differential run.
    pub seed: u64,
}

impl ScenarioSpec {
    /// Draws a random spec from the generator stream.
    pub fn arbitrary(g: &mut Gen) -> Self {
        let nodes = g.vec(1..5, |g| NodeSpec {
            peak_gbps: g.f64(2.0..60.0),
            parallelism: g.u32(1..9),
            queue_capacity: g.u32(8..129),
        });
        let nodes = nodes
            .into_iter()
            .map(|mut n| {
                n.queue_capacity = n.queue_capacity.max(n.parallelism);
                n
            })
            .collect::<Vec<_>>();
        let shape = if nodes.len() >= 2 && g.bool(0.25) {
            Shape::Fanout
        } else {
            Shape::Chain
        };
        let buckets = g.vec(1..4, |g| (*g.pick(&SIZE_PALETTE), g.u32(1..5) as f64));
        let mut sizes: Vec<(u64, f64)> = Vec::new();
        for (b, w) in buckets {
            match sizes.iter_mut().find(|(s, _)| *s == b) {
                Some((_, acc)) => *acc += w,
                None => sizes.push((b, w)),
            }
        }
        sizes.sort_unstable_by_key(|(s, _)| *s);
        ScenarioSpec {
            nodes,
            shape,
            load: g.f64(0.1..0.8),
            alpha: g.f64(0.0..0.1),
            sizes,
            seed: g.u64(0..u64::MAX),
        }
    }

    /// Shrink candidates, most aggressive first: drop a stage,
    /// collapse the fan-out, drop a size bucket, halve the load,
    /// simplify node parameters, zero the interface fraction. Each
    /// candidate stays within the generator's own domain so the
    /// shrink walk never wanders into specs [`arbitrary`] could not
    /// have produced.
    ///
    /// [`arbitrary`]: ScenarioSpec::arbitrary
    pub fn shrink(&self) -> Vec<ScenarioSpec> {
        let mut out = Vec::new();
        if self.nodes.len() > 1 {
            for i in 0..self.nodes.len() {
                let mut c = self.clone();
                c.nodes.remove(i);
                if c.nodes.len() < 2 {
                    c.shape = Shape::Chain;
                }
                out.push(c);
            }
        }
        if self.shape == Shape::Fanout {
            let mut c = self.clone();
            c.shape = Shape::Chain;
            out.push(c);
        }
        if self.sizes.len() > 1 {
            for i in 0..self.sizes.len() {
                let mut c = self.clone();
                c.sizes.remove(i);
                out.push(c);
            }
        }
        if self.load > 0.2 {
            let mut c = self.clone();
            c.load = (self.load * 0.5).max(0.1);
            out.push(c);
        }
        for i in 0..self.nodes.len() {
            if self.nodes[i].parallelism > 1 {
                let mut c = self.clone();
                c.nodes[i].parallelism = 1;
                out.push(c);
            }
            if self.nodes[i].queue_capacity > 16 {
                let mut c = self.clone();
                c.nodes[i].queue_capacity = 16.max(c.nodes[i].parallelism);
                out.push(c);
            }
            if self.nodes[i].peak_gbps > 4.0 {
                let mut c = self.clone();
                c.nodes[i].peak_gbps = (self.nodes[i].peak_gbps * 0.5).max(2.0);
                out.push(c);
            }
        }
        if self.alpha > 1e-9 {
            let mut c = self.clone();
            c.alpha = 0.0;
            out.push(c);
        }
        out
    }

    /// Renders the spec as a self-contained JSON object — the CI
    /// artifact format for failing scenarios.
    pub fn to_json(&self) -> String {
        let nodes: Vec<String> = self
            .nodes
            .iter()
            .map(|n| {
                format!(
                    "{{\"peak_gbps\":{},\"parallelism\":{},\"queue_capacity\":{}}}",
                    n.peak_gbps, n.parallelism, n.queue_capacity
                )
            })
            .collect();
        let sizes: Vec<String> = self
            .sizes
            .iter()
            .map(|(b, w)| format!("{{\"bytes\":{b},\"weight\":{w}}}"))
            .collect();
        format!(
            "{{\"shape\":\"{}\",\"load\":{},\"alpha\":{},\"seed\":{},\
             \"nodes\":[{}],\"sizes\":[{}]}}",
            match self.shape {
                Shape::Chain => "chain",
                Shape::Fanout => "fanout",
            },
            self.load,
            self.alpha,
            self.seed,
            nodes.join(","),
            sizes.join(",")
        )
    }

    /// Builds the execution graph described by the spec.
    fn build_graph(&self) -> ExecutionGraph {
        let params = |n: &NodeSpec| {
            IpParams::new(Bandwidth::gbps(n.peak_gbps))
                .with_parallelism(n.parallelism)
                .with_queue_capacity(n.queue_capacity.max(n.parallelism))
        };
        let edge = |delta: f64| {
            EdgeParams::new(delta)
                .expect("generated deltas lie in (0, 1]")
                .with_interface_fraction(self.alpha * delta)
        };
        let mut b = ExecutionGraph::builder("fuzz");
        let ing = b.ingress("rx");
        let node_params: Vec<IpParams> = self.nodes.iter().map(params).collect();
        if self.shape == Shape::Fanout && self.nodes.len() >= 2 {
            // s0 feeds two copies of s1 (δ = 0.5 each), which merge
            // into the rest of the chain (or straight into egress).
            let head = b.ip("s0", node_params[0]);
            b.edge(ing, head, edge(1.0));
            let left = b.ip("s1a", node_params[1]);
            let right = b.ip("s1b", node_params[1]);
            b.edge(head, left, edge(0.5));
            b.edge(head, right, edge(0.5));
            if self.nodes.len() > 2 {
                let mut prev = b.ip("s2", node_params[2]);
                b.edge(left, prev, edge(0.5));
                b.edge(right, prev, edge(0.5));
                for (i, p) in node_params.iter().enumerate().skip(3) {
                    let node = b.ip(&format!("s{i}"), *p);
                    b.edge(prev, node, edge(1.0));
                    prev = node;
                }
                let eg = b.egress("tx");
                b.edge(prev, eg, edge(1.0));
            } else {
                let eg = b.egress("tx");
                b.edge(left, eg, edge(0.5));
                b.edge(right, eg, edge(0.5));
            }
        } else {
            let mut prev = ing;
            for (i, p) in node_params.iter().enumerate() {
                let node = b.ip(&format!("s{i}"), *p);
                b.edge(prev, node, edge(1.0));
                prev = node;
            }
            let eg = b.egress("tx");
            b.edge(prev, eg, edge(1.0));
        }
        b.build().expect("generated graphs are valid")
    }

    /// Realizes the spec into a concrete scenario: builds the graph,
    /// derives the size mixture, probes the saturation bound at a
    /// nominal rate and re-rates the traffic to `load ×` that bound.
    pub fn realize(&self) -> Scenario {
        let graph = self.build_graph();
        let hw = HardwareModel::default();
        let dist = PacketSizeDist::mix(self.sizes.iter().map(|(b, w)| (Bytes::new(*b), *w)))
            .expect("generated mixtures are valid");
        let probe = TrafficProfile::new(Bandwidth::gbps(1.0), dist);
        let bound = estimate_throughput(&graph, &hw, &probe)
            .expect("generated scenarios estimate")
            .saturation_bound()
            .expect("generated scenarios have capacity bounds")
            .limit;
        let traffic = probe.at_rate(bound.scaled(self.load));
        Scenario::new("fuzz", graph, hw, traffic)
    }
}

/// The differential fuzz config: short horizons keep a 32-scenario
/// budget inside a CI smoke job while leaving enough packets per run
/// for stable replication statistics.
pub fn fuzz_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        duration: Seconds::millis(3.0),
        warmup: Seconds::millis(1.0),
        ..SimConfig::default()
    }
}

/// The standing oracle over one generated spec: the analyzer gate,
/// then the run, sanitizer and model stages of the module docs, in
/// that order. Returns [`FuzzOutcome::Skip`] for analyzer-flagged
/// specs and [`FuzzOutcome::Fail`] with a stage-prefixed, replay-ready
/// description for the first violated invariant.
pub fn differential_check(spec: &ScenarioSpec) -> FuzzOutcome {
    let scenario = spec.realize();

    // Gate: the pipeline contract is claimed for analyzer-clean
    // scenarios only.
    let report = scenario.estimator().analyze(&AnalysisConfig::default());
    if !report.is_clean() {
        let codes: Vec<&str> = report
            .diagnostics()
            .iter()
            .map(|d| d.code.as_str())
            .collect();
        return FuzzOutcome::Skip(format!("analyzer flagged: {}", codes.join(",")));
    }
    let builder = || {
        Simulation::builder(&scenario.graph, &scenario.hardware, &scenario.traffic)
            .config(fuzz_config(spec.seed))
    };

    // Run: the simulation terminates (no watchdog abort) and delivers
    // packets.
    let plain = match builder().run() {
        Ok(r) => r,
        Err(e) => return FuzzOutcome::Fail(format!("run: simulation failed: {e}")),
    };
    if plain.completed == 0 {
        return FuzzOutcome::Fail("run: clean scenario completed no packets".into());
    }

    // Sanitizer: two sanitized runs hold every engine invariant, report
    // the plain run's bytes, and reproduce their audits.
    let mut audits = Vec::with_capacity(2);
    for _ in 0..2 {
        match builder().build().and_then(Simulation::run_sanitized) {
            Ok((report, audit)) => {
                if report != plain || format!("{report:?}") != format!("{plain:?}") {
                    return FuzzOutcome::Fail(format!(
                        "sanitizer: perturbed the run: plain {plain:?} vs sanitized {report:?}"
                    ));
                }
                audits.push(audit);
            }
            Err(e) => return FuzzOutcome::Fail(format!("sanitizer: {e}")),
        }
    }
    let (first, second) = (&audits[0], &audits[1]);
    if first.events != plain.events {
        return FuzzOutcome::Fail(format!(
            "sanitizer: event audit disagrees with the report: audited {} vs reported {}",
            first.events, plain.events
        ));
    }
    if (first.rng_draws, first.events) != (second.rng_draws, second.events) {
        return FuzzOutcome::Fail(format!(
            "sanitizer: audit not reproducible: {} draws / {} events vs {} / {}",
            first.rng_draws, first.events, second.rng_draws, second.events
        ));
    }

    // Model: the delivered throughput lands inside the replicated 95 %
    // CI (±3 % slack), converted to egress volume.
    let estimate = match scenario.estimate() {
        Ok(e) => e,
        Err(e) => return FuzzOutcome::Fail(format!("model: failed to estimate: {e}")),
    };
    let egress_fraction = scenario.graph.delta_in_sum(scenario.graph.egress());
    let predicted = estimate.delivered.as_gbps() * egress_fraction;
    let rep = match Replication::new(5).run(builder) {
        Ok(r) => r,
        Err(e) => return FuzzOutcome::Fail(format!("model: replication failed: {e}")),
    };
    let slack = predicted * 0.03;
    if rep.throughput_gbps.ci_lo - slack > predicted
        || predicted > rep.throughput_gbps.ci_hi + slack
    {
        return FuzzOutcome::Fail(format!(
            "model: predicted {predicted:.4} Gb/s outside replicated CI [{:.4}, {:.4}] \
             (±3% slack)",
            rep.throughput_gbps.ci_lo, rep.throughput_gbps.ci_hi
        ));
    }
    FuzzOutcome::Pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use lognic_testkit::fuzz::Fuzz;

    #[test]
    fn arbitrary_specs_are_deterministic_and_valid() {
        let mut a = Gen::new(7);
        let mut b = Gen::new(7);
        for _ in 0..16 {
            let sa = ScenarioSpec::arbitrary(&mut a);
            let sb = ScenarioSpec::arbitrary(&mut b);
            assert_eq!(sa, sb, "same seed must generate the same spec");
            assert!(!sa.nodes.is_empty() && sa.nodes.len() <= 4);
            assert!(!sa.sizes.is_empty());
            for n in &sa.nodes {
                assert!(n.queue_capacity >= n.parallelism);
            }
            // Every spec realizes into a buildable scenario.
            let s = sa.realize();
            assert!(s.traffic.ingress_bandwidth().as_bps() > 0.0);
        }
    }

    #[test]
    fn shrink_candidates_stay_in_domain_and_get_smaller() {
        let mut g = Gen::new(11);
        let spec = ScenarioSpec::arbitrary(&mut g);
        for c in spec.shrink() {
            assert!(!c.nodes.is_empty());
            assert!(!c.sizes.is_empty());
            assert!(c.load >= 0.1 - 1e-12);
            for n in &c.nodes {
                assert!(n.queue_capacity >= n.parallelism, "{c:?}");
            }
            // Candidates still realize.
            let _ = c.realize();
        }
    }

    #[test]
    fn json_rendering_is_complete() {
        let mut g = Gen::new(13);
        let spec = ScenarioSpec::arbitrary(&mut g);
        let json = spec.to_json();
        assert!(json.contains("\"shape\""));
        assert!(json.contains("\"nodes\""));
        assert!(json.contains("\"sizes\""));
        assert!(json.contains("\"seed\""));
        assert!(json.contains(&format!("\"seed\":{}", spec.seed)));
    }

    #[test]
    fn differential_check_passes_a_known_good_spec() {
        let spec = ScenarioSpec {
            nodes: vec![NodeSpec {
                peak_gbps: 10.0,
                parallelism: 2,
                queue_capacity: 64,
            }],
            shape: Shape::Chain,
            load: 0.5,
            alpha: 0.02,
            sizes: vec![(1500, 1.0)],
            seed: 42,
        };
        assert_eq!(differential_check(&spec), FuzzOutcome::Pass);
    }

    #[test]
    fn differential_smoke_runs_a_small_budget() {
        // A fast in-crate smoke of the full harness, sanitizer stage
        // included; the 32-case run lives in tests/properties.rs and
        // the fuzz_smoke CI binary.
        Fuzz::new("gen_differential_smoke")
            .cases(4)
            .run(
                ScenarioSpec::arbitrary,
                ScenarioSpec::shrink,
                differential_check,
            )
            .assert_ok(ScenarioSpec::to_json);
    }
}
