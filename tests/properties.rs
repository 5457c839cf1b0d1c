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
