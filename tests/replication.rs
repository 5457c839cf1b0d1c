//! Integration tests of the multi-seed replication engine: the
//! determinism contract and the statistical behaviour the CI-based
//! validation assertions rely on.

use lognic::prelude::*;

fn hw() -> HardwareModel {
    HardwareModel::new(Bandwidth::gbps(10_000.0), Bandwidth::gbps(10_000.0))
}

fn mm1_chain(queue: u32) -> ExecutionGraph {
    ExecutionGraph::chain(
        "rep",
        &[(
            "ip",
            IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(queue),
        )],
    )
    .unwrap()
}

fn cfg(ms: f64) -> SimConfig {
    SimConfig {
        duration: Seconds::millis(ms),
        warmup: Seconds::millis(ms * 0.2),
        ..SimConfig::default()
    }
}

/// The acceptance-criteria contract: two invocations of
/// `Replication::run` over the same seed set produce bit-identical
/// aggregates — every mean, stddev and CI bound, and every per-seed
/// report, compares equal — at any thread count, and each per-seed
/// report is a standalone run of its seed.
fn assert_replication_is_deterministic<'a>(n: u32, sim: impl Fn() -> SimulationBuilder<'a> + Sync) {
    let first = Replication::new(n).run(&sim).expect("valid scenario");
    let second = Replication::new(n).run(&sim).expect("valid scenario");
    assert_eq!(first, second, "replication must be invocation-stable");
    for threads in [1, 4] {
        let again = Replication::new(n)
            .threads(threads)
            .run(&sim)
            .expect("valid scenario");
        assert_eq!(first, again, "thread schedule must not leak into bits");
    }
    for (&seed, report) in first.seeds.iter().zip(&first.reports) {
        let standalone = sim().seed(seed).build().and_then(|s| s.run());
        assert_eq!(Ok(report), standalone.as_ref(), "seed {seed}");
    }
}

#[test]
fn same_seed_set_gives_bit_identical_aggregates() {
    let g = mm1_chain(64);
    let hw = hw();
    let t = TrafficProfile::fixed(Bandwidth::gbps(7.0), Bytes::new(1250));
    assert_replication_is_deterministic(8, || Simulation::builder(&g, &hw, &t).config(cfg(4.0)));
    // A stateful service override (an SSD with garbage collection):
    // every replica builds its own fresh model from the recipe.
    use lognic::devices::stingray::{IoPattern, SsdProfile};
    use lognic::workloads::nvmeof::{nvmeof, rate_for_iops};
    let pattern = IoPattern::MixedRand4k { read_ratio: 0.7 };
    let profile = SsdProfile::for_pattern(pattern);
    let ssd = nvmeof(pattern, rate_for_iops(pattern, 0.5 * profile.peak_iops()));
    assert_replication_is_deterministic(3, || {
        Simulation::builder(&ssd.graph, &ssd.hardware, &ssd.traffic)
            .config(cfg(2.0))
            .override_service(
                "ssd",
                Box::new(profile.service_model(ServiceDist::Exponential, true)),
            )
    });
}

/// Distinct seed sets genuinely explore different randomness.
#[test]
fn different_base_seeds_give_different_samples() {
    let g = mm1_chain(64);
    let hw = hw();
    let t = TrafficProfile::fixed(Bandwidth::gbps(7.0), Bytes::new(1250));
    let a = Replication::with_base_seed(1, 4)
        .run(|| Simulation::builder(&g, &hw, &t).config(cfg(2.0)))
        .expect("valid scenario");
    let b = Replication::with_base_seed(2, 4)
        .run(|| Simulation::builder(&g, &hw, &t).config(cfg(2.0)))
        .expect("valid scenario");
    assert_ne!(
        a.latency_mean.mean, b.latency_mean.mean,
        "different seeds must not collide"
    );
}

/// The 95 % confidence interval tightens as the number of replicas
/// grows: quadrupling N roughly halves the half-width (1/√N scaling,
/// helped further by the shrinking t quantile).
#[test]
fn confidence_interval_shrinks_with_more_replicas() {
    let g = mm1_chain(64);
    let hw = hw();
    let t = TrafficProfile::fixed(Bandwidth::gbps(7.0), Bytes::new(1250));
    let small = Replication::new(4)
        .run(|| Simulation::builder(&g, &hw, &t).config(cfg(3.0)))
        .expect("valid scenario");
    let large = Replication::new(16)
        .run(|| Simulation::builder(&g, &hw, &t).config(cfg(3.0)))
        .expect("valid scenario");
    let hw_small = small.latency_mean.half_width();
    let hw_large = large.latency_mean.half_width();
    assert!(
        hw_large < hw_small,
        "CI must tighten: half-width {hw_large} at N=16 vs {hw_small} at N=4"
    );
    // The N=16 interval is still a valid interval around its mean.
    assert!(large.latency_mean.contains(large.latency_mean.mean));
    assert!(large.latency_mean.ci_lo <= large.latency_mean.ci_hi);
}

/// The replicated CI brackets the analytical M/M/1/N prediction — the
/// statistically-sound form of the old hand-tuned-tolerance
/// model-vs-sim checks (the full suite lives in `model_vs_sim.rs`).
#[test]
fn replicated_ci_brackets_analytical_mean_latency() {
    use lognic::model::latency::estimate_latency;
    let g = mm1_chain(64);
    let hw = hw();
    let t = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1250));
    let model = estimate_latency(&g, &hw, &t).unwrap().mean().as_secs();
    // Runs must be long enough that the residual finite-horizon bias
    // (in-flight packets at the cut-off are unobserved) stays well
    // inside the across-seed noise; 40 ms ≈ 19k packets per replica.
    let rep = Replication::new(12)
        .run(|| Simulation::builder(&g, &hw, &t).config(cfg(40.0)))
        .expect("valid scenario");
    assert!(
        rep.latency_mean.contains(model),
        "model {model} outside {}",
        rep.latency_mean
    );
}

/// One pathological seed tripping the event-budget watchdog while the
/// rest complete must surface as a structured
/// [`LogNicError::ReplicationPartial`] naming both sides in seed
/// order — not as a bare watchdog abort that hides how close the
/// replication came to finishing.
#[test]
fn partial_watchdog_failure_names_completed_and_aborted_seeds() {
    let g = mm1_chain(64);
    let hw = hw();
    let t = TrafficProfile::fixed(Bandwidth::gbps(7.0), Bytes::new(1250));
    let rep = Replication::new(4);
    let victim = rep.seeds()[1];
    let run_with_budget_on = |rep: &Replication, victim: u64| {
        rep.try_run(|seed| {
            // The victim gets a 50-event budget (a 2 ms run needs
            // thousands); everyone else runs uncapped.
            let max_events = if seed == victim { 50 } else { 0 };
            Simulation::builder(&g, &hw, &t)
                .config(SimConfig {
                    seed,
                    max_events,
                    ..cfg(2.0)
                })
                .run()
        })
    };
    let err = run_with_budget_on(&rep, victim).expect_err("one replica must trip the watchdog");
    let LogNicError::ReplicationPartial { completed, failed } = &err else {
        panic!("expected ReplicationPartial, got {err}");
    };
    let expected_completed: Vec<u64> = rep
        .seeds()
        .iter()
        .copied()
        .filter(|&s| s != victim)
        .collect();
    assert_eq!(
        completed, &expected_completed,
        "completed seeds, in seed order"
    );
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].0, victim);
    assert!(
        matches!(*failed[0].1, LogNicError::WatchdogAbort { .. }),
        "the per-seed error keeps its structure: {}",
        failed[0].1
    );
    // The message names the aborted seed.
    assert!(err.to_string().contains(&victim.to_string()), "{err}");
    // The structured report is independent of the thread schedule.
    let serial = Replication::new(4).threads(1);
    let serial_err = run_with_budget_on(&serial, victim).expect_err("same failure on one thread");
    assert_eq!(err, serial_err, "seed-order report, not completion-order");
    // When *every* replica aborts, the first seed's error propagates
    // as-is: uniformly broken runs keep their pre-partial behaviour.
    let all = rep
        .try_run(|seed| {
            Simulation::builder(&g, &hw, &t)
                .config(SimConfig {
                    seed,
                    max_events: 50,
                    ..cfg(2.0)
                })
                .run()
        })
        .expect_err("every replica aborts");
    assert!(matches!(all, LogNicError::WatchdogAbort { .. }), "{all}");
    // So does a strict analysis policy on a warn-only (saturated)
    // scenario: every replica is rejected alike, at any thread count.
    let hot = TrafficProfile::fixed(Bandwidth::gbps(25.0), Bytes::new(1250));
    assert!(
        Simulation::builder(&g, &hw, &hot).build().is_ok(),
        "the default policy only warns"
    );
    for threads in [1, 4] {
        let err = Replication::new(4)
            .threads(threads)
            .run(|| {
                Simulation::builder(&g, &hw, &hot)
                    .config(cfg(2.0))
                    .analysis(AnalysisConfig::new().deny_warnings(true))
            })
            .expect_err("warnings are denied");
        assert!(
            matches!(err, LogNicError::AnalysisRejected { .. }),
            "{threads} threads: {err}"
        );
    }
}

/// Custom metrics aggregate through the same machinery.
#[test]
fn summarize_custom_metric_is_deterministic() {
    let g = mm1_chain(64);
    let hw = hw();
    let t = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1000));
    let rep = Replication::new(6)
        .run(|| Simulation::builder(&g, &hw, &t).config(cfg(2.0)))
        .expect("valid scenario");
    let util_a = rep.summarize(|r| r.node("ip").unwrap().utilization);
    let util_b = rep.summarize(|r| r.node("ip").unwrap().utilization);
    assert_eq!(util_a, util_b);
    assert!(util_a.mean > 0.3 && util_a.mean < 0.7, "util {util_a}");
}
