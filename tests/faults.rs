//! Integration tests of the fault-injection and graceful-degradation
//! subsystem: recovery after outages, model-vs-sim agreement under
//! degraded service, determinism of fault outcomes, and the typed
//! error surface of malformed plans.

use lognic::prelude::*;

fn hw() -> HardwareModel {
    HardwareModel::new(Bandwidth::gbps(10_000.0), Bandwidth::gbps(10_000.0))
}

fn chain(gbps: f64, queue: u32) -> ExecutionGraph {
    ExecutionGraph::chain(
        "faulted",
        &[(
            "ip",
            IpParams::new(Bandwidth::gbps(gbps)).with_queue_capacity(queue),
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

/// Replicates `g` under `plan`, compiled once and shared by every
/// seed.
fn replicate_faulted(
    rep: Replication,
    g: &ExecutionGraph,
    t: &TrafficProfile,
    config: SimConfig,
    plan: &FaultPlan,
) -> LogNicResult<ReplicatedReport> {
    let hw = hw();
    let compiled = CompiledFaultPlan::compile(plan, g)?;
    rep.run(|| {
        Simulation::builder(g, &hw, t)
            .config(config)
            .with_compiled_faults(&compiled)
    })
}

/// The tentpole recovery claim: a mid-run outage must not leave any
/// residue once its window closes. We measure throughput only *after*
/// the outage (warmup cutoff past the window) and require the faulted
/// replication's mean to land inside the replicated 95 % CI of the
/// no-fault baseline.
#[test]
fn post_outage_throughput_recovers_to_baseline_ci() {
    let g = chain(10.0, 64);
    let t = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(1000));
    // Outage inside [1 ms, 3 ms); measurement window starts at 4 ms.
    let config = SimConfig {
        duration: Seconds::millis(20.0),
        warmup: Seconds::millis(4.0),
        ..SimConfig::default()
    };
    let hw = hw();
    let baseline = Replication::new(8)
        .run(|| Simulation::builder(&g, &hw, &t).config(config))
        .expect("valid baseline");
    let plan = FaultPlan::new().outage("ip", Seconds::millis(1.0), Seconds::millis(3.0));
    let faulted = replicate_faulted(Replication::new(8), &g, &t, config, &plan)
        .expect("valid faulted scenario");
    assert!(
        baseline
            .throughput_gbps
            .contains(faulted.throughput_gbps.mean),
        "post-outage throughput {} outside baseline CI {}",
        faulted.throughput_gbps.mean,
        baseline.throughput_gbps
    );
    // Nothing in the measurement window was dropped: the outage ended
    // a full millisecond before it opened.
    assert_eq!(faulted.loss_rate.mean, 0.0);
}

/// The availability-adjusted model must land inside the simulator's
/// replicated 95 % CI under a persistent rate degradation, just as the
/// healthy model does for healthy runs.
#[test]
fn degraded_model_inside_sim_ci_under_rate_degradation() {
    let g = chain(10.0, 64);
    let t = TrafficProfile::fixed(Bandwidth::gbps(8.0), Bytes::new(1000));
    let horizon = Seconds::millis(20.0);
    // The node serves at half rate over the whole horizon: the 8 Gb/s
    // offer saturates the degraded 5 Gb/s capacity.
    let plan = FaultPlan::new().degrade_rate("ip", 0.5, Seconds::ZERO, horizon);

    let est = Estimator::new(&g, &hw(), &t)
        .request()
        .with_faults(&plan, horizon)
        .evaluate()
        .expect("valid degraded scenario");
    assert!(
        (est.throughput.attainable().as_gbps() - 5.0).abs() < 1e-9,
        "degraded capacity should be 5 Gb/s, got {}",
        est.throughput.attainable()
    );

    let config = SimConfig {
        duration: horizon,
        warmup: Seconds::millis(4.0),
        ..SimConfig::default()
    };
    let rep = replicate_faulted(Replication::new(8), &g, &t, config, &plan)
        .expect("valid faulted scenario");
    let predicted = est.delivered.as_gbps();
    // Loose containment: CI half-widths at N=8 are sub-percent, so
    // allow the usual model-error margin on top of the interval.
    let err = (predicted - rep.throughput_gbps.mean).abs() / rep.throughput_gbps.mean;
    assert!(
        rep.throughput_gbps.contains(predicted) || err < 0.05,
        "degraded model {predicted} vs sim {}",
        rep.throughput_gbps
    );
}

/// Fault outcomes are a pure function of the seed: the same seed set
/// must aggregate to bit-identical replicated reports at any thread
/// count.
#[test]
fn faulted_replication_is_bit_deterministic() {
    let g = chain(10.0, 64);
    let t = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1000));
    let plan = FaultPlan::new()
        .outage("ip", Seconds::millis(1.0), Seconds::millis(2.0))
        .drop_packets("ip", 0.2, Seconds::millis(3.0), Seconds::millis(6.0))
        .with_retry(RetryPolicy::new(3, Seconds::micros(100.0)));
    let wide = replicate_faulted(Replication::new(6), &g, &t, cfg(8.0), &plan).expect("valid");
    let narrow =
        replicate_faulted(Replication::new(6).threads(1), &g, &t, cfg(8.0), &plan).expect("valid");
    assert_eq!(wide, narrow, "thread schedule must not leak into results");
}

/// Retries raise delivered throughput over the same plan without
/// retries when drops are transient.
#[test]
fn retries_improve_delivery_under_probabilistic_drops() {
    let g = chain(10.0, 64);
    let t = TrafficProfile::fixed(Bandwidth::gbps(3.0), Bytes::new(1000));
    let horizon = Seconds::millis(20.0);
    let lossy = FaultPlan::new().drop_packets("ip", 0.3, Seconds::ZERO, horizon);
    let config = SimConfig {
        duration: horizon,
        warmup: Seconds::millis(4.0),
        ..SimConfig::default()
    };
    let without = replicate_faulted(Replication::new(6), &g, &t, config, &lossy).expect("valid");
    let with = replicate_faulted(
        Replication::new(6),
        &g,
        &t,
        config,
        &lossy
            .clone()
            .with_retry(RetryPolicy::new(5, Seconds::micros(20.0))),
    )
    .expect("valid");
    assert!(
        with.loss_rate.mean < without.loss_rate.mean * 0.05,
        "5 retries at p=0.3 leave ~0.24% residual: {} vs {}",
        with.loss_rate.mean,
        without.loss_rate.mean
    );
    assert!(with.throughput_gbps.mean > without.throughput_gbps.mean);

    // And the model's retry algebra agrees on the residual.
    let policy = RetryPolicy::new(5, Seconds::micros(20.0));
    let residual = policy.residual_loss(0.3);
    assert!(
        (with.loss_rate.mean - residual).abs() < 0.005,
        "sim residual {} vs analytical {residual}",
        with.loss_rate.mean
    );
}

/// Malformed plans are rejected with typed errors at every entry
/// point — compilation, replication, and model — never with a panic.
#[test]
fn typed_errors_on_every_entry_point() {
    let g = chain(10.0, 64);
    let t = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(1000));
    let ghost = FaultPlan::new().outage("ghost", Seconds::ZERO, Seconds::millis(1.0));

    let err = CompiledFaultPlan::compile(&ghost, &g).unwrap_err();
    assert!(matches!(err, LogNicError::UnknownNode { .. }), "{err}");

    let err = replicate_faulted(Replication::new(2), &g, &t, cfg(2.0), &ghost).unwrap_err();
    assert!(matches!(err, LogNicError::UnknownNode { .. }), "{err}");

    let hw = hw();
    let err = Estimator::new(&g, &hw, &t)
        .request()
        .with_faults(&ghost, Seconds::millis(2.0))
        .evaluate()
        .unwrap_err();
    assert!(matches!(err, LogNicError::UnknownNode { .. }), "{err}");

    let bad_factor = FaultPlan::new().degrade_rate("ip", 0.0, Seconds::ZERO, Seconds::millis(1.0));
    let err = CompiledFaultPlan::compile(&bad_factor, &g).unwrap_err();
    assert!(
        matches!(err, LogNicError::InvalidFaultParameter { .. }),
        "{err}"
    );
}

/// The watchdog turns a runaway run into a structured error instead of
/// a hang.
#[test]
fn watchdog_aborts_runaway_runs() {
    let g = chain(10.0, 64);
    let t = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1000));
    let err = lognic::sim::sim::Simulation::builder(&g, &hw(), &t)
        .config(SimConfig {
            max_events: 100,
            ..cfg(10.0)
        })
        .run()
        .unwrap_err();
    let LogNicError::WatchdogAbort {
        events,
        sim_time,
        injected,
        ..
    } = err
    else {
        panic!("expected WatchdogAbort, got {err}");
    };
    assert_eq!(events, 101);
    assert!(sim_time > 0.0);
    assert!(injected > 0);
}

/// The analyzer's fault pass flags the misconfigurations the runtime
/// would otherwise silently tolerate.
#[test]
fn fault_pass_flags_silent_misconfigurations() {
    let g = chain(10.0, 64);
    let horizon = Seconds::millis(10.0);
    let plan = FaultPlan::new()
        .outage("ghost", Seconds::ZERO, Seconds::millis(1.0))
        .outage("ip", Seconds::millis(1.0), Seconds::millis(3.0))
        .outage("ip", Seconds::millis(2.0), Seconds::millis(4.0))
        .drop_packets("ip", 0.5, Seconds::ZERO, horizon)
        .with_retry(RetryPolicy::new(0, Seconds::micros(10.0)));
    let report = Analyzer::new(&g)
        .with_fault_plan(&plan)
        .run(&AnalysisConfig::default());
    let rendered: Vec<String> = report.warnings().iter().map(|d| d.to_string()).collect();
    assert!(
        rendered.iter().any(|w| w.contains("unknown node `ghost`")),
        "{rendered:?}"
    );
    assert!(
        rendered.iter().any(|w| w.contains("overlaps")),
        "{rendered:?}"
    );
    assert!(
        rendered.iter().any(|w| w.contains("zero retry")),
        "{rendered:?}"
    );
}
