//! Property-based tests of the model's invariants, on the in-repo
//! `lognic-testkit` harness (hermetic replacement for `proptest`).
//!
//! Historically interesting shrunk cases from the proptest era are
//! carried over as explicit, named functions (`regression_*`) instead
//! of an opaque `*.proptest-regressions` corpus file, so they are
//! visible in review and always run.

use lognic::model::queueing::MmcN;
use lognic::prelude::*;
use lognic_testkit::{ensure, CaseResult, Gen, Property};

fn arb_chain(g: &mut Gen) -> ExecutionGraph {
    // 1–4 stages with peaks in [1, 100] Gbps, parallelism 1–16,
    // queues 1–256.
    let named: Vec<(String, IpParams)> = g
        .vec(1..5, |g| (g.f64(1.0..100.0), g.u32(1..17), g.u32(1..257)))
        .into_iter()
        .enumerate()
        .map(|(i, (peak, d, q))| {
            (
                format!("s{i}"),
                IpParams::new(Bandwidth::gbps(peak))
                    .with_parallelism(d)
                    .with_queue_capacity(q),
            )
        })
        .collect();
    let refs: Vec<(&str, IpParams)> = named.iter().map(|(n, p)| (n.as_str(), *p)).collect();
    ExecutionGraph::chain("prop", &refs).expect("chains are always valid")
}

#[test]
fn throughput_never_exceeds_offered_or_any_bound() {
    Property::new("throughput_never_exceeds_offered_or_any_bound")
        .cases(128)
        .check(|g| {
            let graph = arb_chain(g);
            let offered = g.f64(0.1..200.0);
            let size = g.u64(64..9000);
            let hw = HardwareModel::default();
            let t = TrafficProfile::fixed(Bandwidth::gbps(offered), Bytes::new(size));
            let est = estimate_throughput(&graph, &hw, &t).unwrap();
            ensure!(est.attainable().as_bps() <= t.ingress_bandwidth().as_bps() + 1e-6);
            for bound in est.bounds() {
                ensure!(est.attainable().as_bps() <= bound.limit.as_bps() + 1e-6);
            }
            // The bottleneck is the first (smallest) bound.
            ensure!((est.bottleneck().limit.as_bps() - est.attainable().as_bps()).abs() < 1e-6);
            Ok(())
        });
}

#[test]
fn delivered_between_zero_and_attainable() {
    Property::new("delivered_between_zero_and_attainable")
        .cases(128)
        .check(|g| {
            let graph = arb_chain(g);
            let offered = g.f64(0.1..200.0);
            let hw = HardwareModel::default();
            let t = TrafficProfile::fixed(Bandwidth::gbps(offered), Bytes::new(1500));
            let est = Estimator::new(&graph, &hw, &t)
                .request()
                .evaluate()
                .unwrap();
            ensure!(est.delivered.as_bps() >= 0.0);
            ensure!(est.delivered.as_bps() <= est.throughput.attainable().as_bps() + 1e-6);
            Ok(())
        });
}

#[test]
fn latency_at_least_sum_of_services_and_grows_with_load() {
    Property::new("latency_at_least_sum_of_services_and_grows_with_load")
        .cases(128)
        .check(|g| {
            let graph = arb_chain(g);
            let size = g.u64(64..9000);
            let hw = HardwareModel::default();
            let cap = {
                let probe = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(size));
                estimate_throughput(&graph, &hw, &probe)
                    .unwrap()
                    .saturation_bound()
                    .map(|b| b.limit)
                    .unwrap_or(Bandwidth::gbps(1000.0))
            };
            let low = TrafficProfile::fixed(cap * 0.2, Bytes::new(size));
            let high = TrafficProfile::fixed(cap * 0.9, Bytes::new(size));
            let l_low = estimate_latency(&graph, &hw, &low).unwrap();
            let l_high = estimate_latency(&graph, &hw, &high).unwrap();
            // Latency grows with load (monotone queueing).
            ensure!(l_high.mean().as_secs() >= l_low.mean().as_secs() - 1e-15);
            // Latency is at least the pure execution time.
            let service_floor: f64 = l_low.per_node().iter().map(|n| n.service.as_secs()).sum();
            ensure!(l_low.mean().as_secs() >= service_floor - 1e-15);
            Ok(())
        });
}

fn check_mm1n_invariants(rho: f64, n: u32) -> CaseResult {
    let q = Mm1n::new(rho, n).unwrap();
    let block = q.blocking_probability();
    ensure!((0.0..=1.0).contains(&block), "blocking {block}");
    ensure!(q.mean_occupancy() >= -1e-12);
    ensure!(q.mean_occupancy() <= n as f64 + 1e-9);
    ensure!(q.queueing_factor() >= 0.0);
    ensure!(q.queueing_factor() <= n as f64 - 1.0 + 1e-9);
    // Occupancy distribution sums to 1.
    let total: f64 = (0..=n).map(|k| q.occupancy_probability(k)).sum();
    ensure!((total - 1.0).abs() < 1e-6, "occupancy sums to {total}");
    Ok(())
}

/// Shrunk counterexample the proptest era recorded in
/// `tests/properties.proptest-regressions` (an overloaded short
/// queue): keep it pinned by value, not by corpus file.
#[test]
fn regression_mm1n_overloaded_short_queue() {
    check_mm1n_invariants(1.2763746574866055, 8).unwrap();
}

/// Second pinned shrink from the proptest corpus: near-saturation at a
/// 16-entry queue.
#[test]
fn regression_mm1n_near_saturation() {
    check_mm1n_invariants(0.9150531798676376, 16).unwrap();
}

#[test]
fn mm1n_invariants() {
    Property::new("mm1n_invariants").cases(128).check(|g| {
        let (rho, n) = (g.f64(0.0..5.0), g.u32(1..512));
        check_mm1n_invariants(rho, n).map_err(|e| format!("rho={rho} n={n}: {e}"))
    });
}

fn check_mmcn_matches_mm1n(rho: f64, n: u32) -> CaseResult {
    let single = Mm1n::new(rho, n).unwrap();
    let multi = MmcN::new(rho, 1, n).unwrap();
    ensure!((single.blocking_probability() - multi.blocking_probability()).abs() < 1e-8);
    let s = lognic::model::units::Seconds::micros(10.0);
    ensure!((single.queueing_delay(s).as_secs() - multi.queueing_delay(s).as_secs()).abs() < 1e-10);
    Ok(())
}

/// The two historical shrinks exercised the single-engine M/M/c/N
/// equivalence too; pinned here by value.
#[test]
fn regression_mmcn_matches_mm1n_at_pinned_shrinks() {
    check_mmcn_matches_mm1n(1.2763746574866055, 8).unwrap();
    check_mmcn_matches_mm1n(0.9150531798676376, 16).unwrap();
}

#[test]
fn mmcn_matches_mm1n_at_one_engine() {
    Property::new("mmcn_matches_mm1n_at_one_engine")
        .cases(128)
        .check(|g| {
            let (rho, n) = (g.f64(0.0..3.0), g.u32(1..128));
            check_mmcn_matches_mm1n(rho, n).map_err(|e| format!("rho={rho} n={n}: {e}"))
        });
}

#[test]
fn mmcn_waiting_delay_decreases_with_engines() {
    // Pooling reduces *waiting delay* at the same utilization.
    // (Blocking probability is NOT monotone in the engine count at
    // fixed ρ and capacity — the arrival rate scales with c, and the
    // proptest era found counterexamples even below saturation; only
    // the delay claim is true in general. The near-saturation shrink
    // rho=0.9150531798676376, n=16 stays pinned.)
    let body = |rho: f64, n: u32| -> CaseResult {
        let s = lognic::model::units::Seconds::micros(10.0);
        let one = MmcN::new(rho, 1, n).unwrap().queueing_delay(s).as_secs();
        let four = MmcN::new(rho, 4, n).unwrap().queueing_delay(s).as_secs();
        ensure!(four <= one + 1e-12, "rho={rho} n={n}: {four} > {one}");
        // Basic sanity across engine counts.
        for c in [1u32, 2, 8, 32] {
            let q = MmcN::new(rho, c, n).unwrap();
            ensure!((0.0..=1.0).contains(&q.blocking_probability()));
            ensure!(q.mean_occupancy() <= q.capacity() as f64 + 1e-9);
        }
        Ok(())
    };
    body(0.9150531798676376, 16).unwrap();
    Property::new("mmcn_waiting_delay_decreases_with_engines")
        .cases(128)
        .check(|g| body(g.f64(0.05..0.98), g.u32(16..128)));
}

#[test]
fn path_weights_form_distribution() {
    Property::new("path_weights_form_distribution")
        .cases(128)
        .check(|g| {
            let d1 = g.f64(0.01..0.99);
            let peak = g.f64(1.0..50.0);
            let mut b = ExecutionGraph::builder("w");
            let ing = b.ingress("in");
            let x = b.ip("x", IpParams::new(Bandwidth::gbps(peak)));
            let y = b.ip("y", IpParams::new(Bandwidth::gbps(peak)));
            let eg = b.egress("out");
            b.edge(ing, x, EdgeParams::new(d1).unwrap());
            b.edge(ing, y, EdgeParams::new(1.0 - d1).unwrap());
            b.edge(x, eg, EdgeParams::new(d1).unwrap());
            b.edge(y, eg, EdgeParams::new(1.0 - d1).unwrap());
            let graph = b.build().unwrap();
            let paths = graph.paths().unwrap();
            let total: f64 = paths.iter().map(|p| p.weight).sum();
            ensure!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
            ensure!(paths.iter().all(|p| p.weight > 0.0));
            Ok(())
        });
}

#[test]
fn packet_size_dist_mean_within_range() {
    Property::new("packet_size_dist_mean_within_range")
        .cases(128)
        .check(|g| {
            let sizes = g.vec(1..6, |g| (g.u64(64..9000), g.f64(0.01..10.0)));
            let dist =
                PacketSizeDist::mix(sizes.iter().map(|(s, w)| (Bytes::new(*s), *w))).unwrap();
            let mean = dist.mean_size().get();
            let lo = sizes.iter().map(|(s, _)| *s).min().unwrap();
            let hi = sizes.iter().map(|(s, _)| *s).max().unwrap();
            ensure!(mean >= lo && mean <= hi, "mean {mean} outside [{lo}, {hi}]");
            let total: f64 = dist.entries().iter().map(|(_, w)| w).sum();
            ensure!((total - 1.0).abs() < 1e-9);
            Ok(())
        });
}

#[test]
fn acceleration_knob_never_hurts() {
    Property::new("acceleration_knob_never_hurts")
        .cases(128)
        .check(|g| {
            // Speeding up one kernel (the LogCA-style A knob) cannot
            // lower the attainable throughput.
            let graph = arb_chain(g);
            let accel = g.f64(1.0..8.0);
            let hw = HardwareModel::default();
            let t = TrafficProfile::fixed(Bandwidth::gbps(500.0), Bytes::new(1500));
            let base = estimate_throughput(&graph, &hw, &t).unwrap().attainable();
            let mut accelerated = graph.clone();
            let node = accelerated.node_by_name("s0").unwrap();
            let params = *accelerated.node(node).params().unwrap();
            accelerated
                .set_ip_params(node, params.with_acceleration(accel))
                .unwrap();
            let after = estimate_throughput(&accelerated, &hw, &t)
                .unwrap()
                .attainable();
            ensure!(after.as_bps() >= base.as_bps() - 1e-6);
            Ok(())
        });
}

mod differential_fuzz {
    use lognic::workloads::corpus::gen::{differential_check, ScenarioSpec};
    use lognic_testkit::Fuzz;

    /// The tentpole property, run at the CI budget: 32 seeded random
    /// scenarios through analyzer → simulator → sanitizer → model.
    /// Every analyzer-clean case must simulate without a watchdog
    /// abort, run sanitizer-clean, passive and reproducible, and the
    /// model's delivered throughput must land inside the replicated
    /// simulation's 95 % confidence interval. On failure the harness
    /// shrinks to a minimal counterexample and panics with its JSON
    /// spec.
    #[test]
    fn seeded_scenarios_agree_with_the_model() {
        let report = Fuzz::new("properties::differential_scenario_fuzz")
            .cases(32)
            .run(
                ScenarioSpec::arbitrary,
                ScenarioSpec::shrink,
                differential_check,
            );
        assert!(
            report.checked >= 32,
            "only {} of 32 analyzer-clean scenarios ({} attempts, {} skipped): \
             the generator's clean rate regressed",
            report.checked,
            report.attempts,
            report.skipped
        );
        report.assert_ok(ScenarioSpec::to_json);
    }
}

mod sim_properties {
    use super::*;

    #[test]
    fn conservation_and_sanity() {
        Property::new("sim_conservation_and_sanity")
            .cases(24)
            .check(|g| {
                let peak = g.f64(2.0..30.0);
                let load = g.f64(0.2..1.5);
                let queue = g.u32(2..64);
                let seed = g.u64(0..1000);
                let graph = ExecutionGraph::chain(
                    "c",
                    &[(
                        "ip",
                        IpParams::new(Bandwidth::gbps(peak)).with_queue_capacity(queue),
                    )],
                )
                .unwrap();
                let hw = HardwareModel::default();
                let t = TrafficProfile::fixed(Bandwidth::gbps(peak * load), Bytes::new(1000));
                let r = Simulation::builder(&graph, &hw, &t)
                    .seed(seed)
                    .duration(Seconds::millis(10.0))
                    .warmup(Seconds::ZERO)
                    .run()
                    .expect("valid scenario");
                // Conservation: with zero warmup and a full drain, every
                // injected packet completed or dropped.
                ensure!(
                    r.injected == r.completed + r.dropped,
                    "injected {} != completed {} + dropped {}",
                    r.injected,
                    r.completed,
                    r.dropped
                );
                // Delivered rate can never exceed the node capacity by
                // more than stochastic noise.
                ensure!(r.throughput.as_bps() <= peak * 1e9 * 1.10);
                // Latencies are sane.
                ensure!(r.latency.p50 <= r.latency.p99);
                ensure!(r.latency.p99 <= r.latency.max);
                Ok(())
            });
    }

    #[test]
    fn reproducibility() {
        Property::new("sim_reproducibility").cases(16).check(|g| {
            let seed = g.u64(0..500);
            let graph = ExecutionGraph::chain(
                "r",
                &[(
                    "ip",
                    IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(16),
                )],
            )
            .unwrap();
            let hw = HardwareModel::default();
            let t = TrafficProfile::fixed(Bandwidth::gbps(7.0), Bytes::new(700));
            let run = || {
                Simulation::builder(&graph, &hw, &t)
                    .seed(seed)
                    .duration(Seconds::millis(5.0))
                    .warmup(Seconds::millis(1.0))
                    .run()
                    .expect("valid scenario")
            };
            ensure!(run() == run(), "seed {seed} not reproducible");
            Ok(())
        });
    }
}

/// The latency walks reuse the timings an evaluation has already
/// built. This module keeps the walks as they were before that reuse
/// — a fresh [`node_timing`] for every stage a path visits — as a
/// test-only oracle, and holds every registry graph and random
/// resizing chains to it bit for bit.
mod latency_oracle {
    use lognic::model::estimate::degraded_graph;
    use lognic::model::graph::NodeId;
    use lognic::model::latency::{
        edge_transfer_time, mixture_node_timing, node_timing, NodeTiming,
    };
    use lognic::prelude::*;
    use lognic::workloads::registry;
    use lognic_testkit::{ensure, CaseResult, Property};

    /// What the oracle computes of a [`LatencyEstimate`].
    struct Walk {
        mean: Seconds,
        per_path: Vec<Seconds>,
        per_node: Vec<NodeTiming>,
    }

    /// Eq. 6–8 the direct way, one walk per profile shape.
    fn oracle(graph: &ExecutionGraph, hw: &HardwareModel, traffic: &TrafficProfile) -> Walk {
        let ids: Vec<NodeId> = graph
            .nodes()
            .iter()
            .map(|n| graph.node_by_name(n.name()).expect("names resolve"))
            .collect();
        let entries = traffic.sizes().entries();
        if entries.len() == 1 {
            single_class(
                graph,
                hw,
                traffic,
                &ids,
                traffic.granularity_for(entries[0].0),
            )
        } else {
            mixture(graph, hw, traffic, &ids)
        }
    }

    /// One size: every stage builds its timing at the size it sees.
    fn single_class(
        graph: &ExecutionGraph,
        hw: &HardwareModel,
        traffic: &TrafficProfile,
        ids: &[NodeId],
        granularity: Bytes,
    ) -> Walk {
        let mut per_path = Vec::new();
        let mut mean = Seconds::ZERO;
        for path in graph.paths().expect("built graphs have paths") {
            let mut latency = Seconds::ZERO;
            let mut g_cur = granularity;
            for eid in &path.edges {
                let src = graph.edge(*eid).src();
                if let Some(t) = node_timing(graph, src, traffic, g_cur) {
                    latency += t.queueing_delay;
                    latency += t.service;
                }
                if let Some(p) = graph.node(src).params() {
                    latency += p.overhead();
                }
                g_cur = g_cur.scaled(graph.edge(*eid).params().size_factor());
                latency += edge_transfer_time(graph, *eid, hw, g_cur);
            }
            let last = *path.nodes.last().expect("paths have at least one node");
            if let Some(t) = node_timing(graph, last, traffic, g_cur) {
                latency += t.queueing_delay;
                latency += t.service;
            }
            mean += latency.scaled(path.weight);
            per_path.push(latency);
        }
        let per_node = ids
            .iter()
            .filter_map(|&id| node_timing(graph, id, traffic, granularity))
            .collect();
        Walk {
            mean,
            per_path,
            per_node,
        }
    }

    /// A size mixture: each class queues behind the mixture and reads
    /// its service from a fresh timing at its own size.
    fn mixture(
        graph: &ExecutionGraph,
        hw: &HardwareModel,
        traffic: &TrafficProfile,
        ids: &[NodeId],
    ) -> Walk {
        let timings: Vec<Option<NodeTiming>> = ids
            .iter()
            .map(|&id| mixture_node_timing(graph, id, traffic))
            .collect();
        let mut per_path = Vec::new();
        let mut mean = Seconds::ZERO;
        for path in graph.paths().expect("built graphs have paths") {
            let mut latency = Seconds::ZERO;
            for (size, weight) in traffic.sizes().entries() {
                let mut g_cur = traffic.granularity_for(*size);
                let mut class_latency = Seconds::ZERO;
                for eid in &path.edges {
                    let src = graph.edge(*eid).src();
                    if let Some(t) = &timings[src.index()] {
                        class_latency += t.queueing_delay;
                        if let Some(ct) = node_timing(graph, src, traffic, g_cur) {
                            class_latency += ct.service;
                        }
                    }
                    if let Some(p) = graph.node(src).params() {
                        class_latency += p.overhead();
                    }
                    g_cur = g_cur.scaled(graph.edge(*eid).params().size_factor());
                    class_latency += edge_transfer_time(graph, *eid, hw, g_cur);
                }
                let last = *path.nodes.last().expect("paths have at least one node");
                if let Some(t) = &timings[last.index()] {
                    class_latency += t.queueing_delay;
                    if let Some(ct) = node_timing(graph, last, traffic, g_cur) {
                        class_latency += ct.service;
                    }
                }
                latency += class_latency.scaled(*weight);
            }
            mean += latency.scaled(path.weight);
            per_path.push(latency);
        }
        Walk {
            mean,
            per_path,
            per_node: timings.into_iter().flatten().collect(),
        }
    }

    fn bits(s: Seconds) -> u64 {
        s.as_secs().to_bits()
    }

    /// Holds `got` to the oracle's walk on the same inputs, bit for bit.
    fn same_bits(got: &LatencyEstimate, want: &Walk) -> CaseResult {
        ensure!(bits(got.mean()) == bits(want.mean), "mean");
        ensure!(got.per_path().len() == want.per_path.len(), "path count");
        for (i, (g, w)) in got.per_path().iter().zip(&want.per_path).enumerate() {
            ensure!(bits(g.latency) == bits(*w), "path {i}");
        }
        ensure!(got.per_node().len() == want.per_node.len(), "node count");
        for (g, w) in got.per_node().iter().zip(&want.per_node) {
            let at = w.node.index();
            ensure!(g.node == w.node, "node {at}: id");
            ensure!(bits(g.service) == bits(w.service), "node {at}: service");
            ensure!(
                g.utilization.to_bits() == w.utilization.to_bits(),
                "node {at}: utilization"
            );
            ensure!(
                bits(g.queueing_delay) == bits(w.queueing_delay),
                "node {at}: queueing delay"
            );
            ensure!(
                g.drop_probability.to_bits() == w.drop_probability.to_bits(),
                "node {at}: drop probability"
            );
        }
        Ok(())
    }

    /// The plan a graph's degraded estimate runs under: its bundled
    /// plan, else a rate dip, a credit loss and a drop window with
    /// retries on its first computing vertex.
    fn plan_for(entry: &registry::RegistryEntry, graph: &ExecutionGraph) -> FaultPlan {
        if let Some(plan) = entry.scenario().faults {
            return plan;
        }
        let node = graph
            .nodes()
            .iter()
            .find(|n| n.params().is_some())
            .expect("registry graphs compute")
            .name();
        let ms = Seconds::millis;
        FaultPlan::new()
            .degrade_rate(node, 0.5, ms(0.0), ms(4.0))
            .lose_credits(node, 4, ms(4.0), ms(5.0))
            .drop_packets(node, 0.1, ms(5.0), ms(10.0))
            .with_retry(RetryPolicy::new(3, Seconds::micros(10.0)))
    }

    /// Every registry graph at the 11 load fractions 0.2–1.2 of its
    /// capacity, plain and under its degraded plan. `http2-mux` carries
    /// a size mixture and `compression` resizes requests, so both walks
    /// run.
    #[test]
    fn latency_walks_match_the_oracle_bit_for_bit() {
        let horizon = Seconds::millis(10.0);
        let (mut resized, mut mixed) = (false, false);
        for entry in registry::ALL {
            let base = entry.scenario();
            let capacity = base
                .estimator()
                .throughput()
                .expect("registry graphs evaluate")
                .saturation_bound()
                .expect("registry graphs saturate")
                .limit;
            let plan = plan_for(entry, &base.graph);
            for step in 2..=12 {
                let load = step as f64 / 10.0;
                let s = base.at_rate(capacity.scaled(load));
                let (graph, hw, traffic) = (&s.graph, &s.hardware, &s.traffic);
                let what = format!("{} at {load}", entry.name);
                let plain = s.estimate().expect("plain estimate");
                same_bits(&plain.latency, &oracle(graph, hw, traffic))
                    .unwrap_or_else(|e| panic!("{what}: {e}"));

                let degraded = s
                    .estimator()
                    .request()
                    .with_faults(&plan, horizon)
                    .evaluate()
                    .expect("degraded estimate");
                let inflation = degraded
                    .degraded
                    .as_ref()
                    .expect("fault bookkeeping")
                    .retry_inflation;
                let d_graph = degraded_graph(graph, &plan, horizon).expect("plan validates");
                let d_traffic = traffic.at_rate(traffic.ingress_bandwidth().scaled(inflation));
                same_bits(&degraded.latency, &oracle(&d_graph, hw, &d_traffic))
                    .unwrap_or_else(|e| panic!("{what}, degraded: {e}"));
            }
            mixed |= base.traffic.sizes().entries().len() > 1;
            resized |= base.graph.paths().expect("paths").iter().any(|p| {
                p.edges
                    .iter()
                    .any(|e| base.graph.edge(*e).params().size_factor() != 1.0)
            });
        }
        assert!(mixed, "some registry graph must carry a size mixture");
        assert!(resized, "some registry graph must resize requests");
    }

    /// No registry graph computes after a resizing edge (`compression`
    /// resizes on its way to egress), so random chains with resizing
    /// edges, at one size or a mixture, hold the walk's fresh-timing
    /// fallback to the oracle.
    #[test]
    fn resized_chains_match_the_oracle_bit_for_bit() {
        Property::new("resized_chains_match_the_oracle_bit_for_bit")
            .cases(128)
            .check(|g| {
                let mut b = ExecutionGraph::builder("resize");
                let mut prev = b.ingress("in");
                for i in 0..g.usize(1..5) {
                    let params = IpParams::new(Bandwidth::gbps(g.f64(1.0..100.0)))
                        .with_parallelism(g.u32(1..9))
                        .with_queue_capacity(g.u32(1..129));
                    let ip = b.ip(&format!("s{i}"), params);
                    let factor = *g.pick(&[1.0, 1.0, 0.5, 2.0, 0.3]);
                    b.edge(prev, ip, EdgeParams::full().with_size_factor(factor));
                    prev = ip;
                }
                let out = b.egress("out");
                b.edge(prev, out, EdgeParams::full());
                let graph = b.build().expect("chains are valid");
                let sizes = g.vec(1..4, |g| (Bytes::new(g.u64(64..9000)), g.f64(0.1..1.0)));
                let dist = PacketSizeDist::mix(sizes).expect("positive weights");
                let traffic = TrafficProfile::new(Bandwidth::gbps(g.f64(0.1..120.0)), dist);
                let hw = HardwareModel::default();
                let got = estimate_latency(&graph, &hw, &traffic).expect("chains evaluate");
                same_bits(&got, &oracle(&graph, &hw, &traffic))
            });
    }
}
