//! Differential property tests of the simulation sanitizer and the
//! other run observers.
//!
//! Three claims:
//!
//! 1. **Passivity** — attaching the [`Sanitizer`] or a live
//!    [`RingLog`] never changes the report: an observed run is
//!    byte-identical to the plain run of the same scenario and seed,
//!    and a rerun emits the identical event stream.
//! 2. **Cleanliness** — the healthy engine never trips an invariant:
//!    packet conservation, credit balance, arena discipline, event
//!    monotonicity and the end-of-run audit all hold across random
//!    graphs, traffic, fault plans, WRR queue plans and burst traces.
//! 3. **Audit agreement** — the [`SanitizerReport`] counters agree
//!    with the report (dispatched events) and reproduce exactly on a
//!    rerun (RNG draws, events, ledger totals).
//!
//! The event order itself is checked where it is defined, against a
//! binary heap in the calendar queue's unit tests; the committed
//! golden files pin whole reports end to end. Scenarios come from the
//! in-repo `lognic-testkit` harness; a failing case panics with its
//! seed for exact replay.

use lognic::prelude::*;
use lognic_testkit::{ensure, Gen, Property};

/// A random 1–4 stage chain with varied peaks, parallelism and queues.
fn arb_chain(g: &mut Gen) -> ExecutionGraph {
    let named: Vec<(String, IpParams)> = g
        .vec(1..5, |g| (g.f64(1.0..60.0), g.u32(1..9), g.u32(2..129)))
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
    ExecutionGraph::chain("sanitize", &refs).expect("chains are always valid")
}

/// Random traffic spanning underload through heavy overload.
fn arb_traffic(g: &mut Gen) -> TrafficProfile {
    let rate = Bandwidth::gbps(g.f64(0.5..80.0));
    if g.bool(0.5) {
        TrafficProfile::fixed(rate, Bytes::new(g.u64(64..9000)))
    } else {
        let sizes = PacketSizeDist::mix([
            (Bytes::new(g.u64(64..256)), g.f64(0.5..2.0)),
            (Bytes::new(g.u64(1000..9000)), g.f64(0.5..2.0)),
        ])
        .expect("positive weights");
        TrafficProfile::new(rate, sizes)
    }
}

/// A random fault plan, biased towards the windows the sanitizer
/// models directly: credit loss appears alongside the outage / drop /
/// degrade mix, and deadlines (which reap queued packets without a
/// dequeue hook) fire in a third of the cases.
fn arb_plan(g: &mut Gen, graph: &ExecutionGraph) -> Option<FaultPlan> {
    if g.bool(0.4) {
        return None;
    }
    let stages: Vec<String> = graph
        .nodes()
        .iter()
        .filter(|n| n.params().is_some())
        .map(|n| n.name().to_owned())
        .collect();
    let mut plan = FaultPlan::new();
    let node = g.pick(&stages).clone();
    match g.u32(0..4) {
        0 => {
            plan = plan.outage(
                &node,
                Seconds::millis(g.f64(1.0..4.0)),
                Seconds::millis(g.f64(4.0..8.0)),
            );
        }
        1 => {
            plan = plan.drop_packets(
                &node,
                g.f64(0.01..0.2),
                Seconds::millis(0.0),
                Seconds::millis(10.0),
            );
        }
        2 => {
            plan = plan.degrade_rate(
                &node,
                g.f64(0.2..0.9),
                Seconds::millis(g.f64(0.0..3.0)),
                Seconds::millis(g.f64(5.0..10.0)),
            );
        }
        _ => {
            plan = plan.lose_credits(
                &node,
                g.u32(1..16),
                Seconds::millis(g.f64(0.0..2.0)),
                Seconds::millis(g.f64(4.0..10.0)),
            );
        }
    }
    if g.bool(0.5) {
        plan = plan.with_retry(RetryPolicy::new(g.u32(1..4), Seconds::micros(50.0)));
    }
    if g.bool(0.3) {
        plan = plan.with_deadline(Seconds::millis(g.f64(0.5..5.0)));
    }
    Some(plan)
}

/// A random zero-gap burst trace exercising the `drain_burst`
/// arena-alloc path: groups of same-timestamp packets, each record's
/// flow tag mirroring its class.
fn arb_burst_trace(g: &mut Gen) -> PacketTrace {
    let bursts = g.u64(4..24);
    let gap_us = g.f64(5.0..80.0);
    let mut entries = Vec::new();
    for b in 0..bursts {
        let t = SimTime::from_micros(b as f64 * gap_us);
        let len = g.u64(1..96);
        for _ in 0..len {
            let size = Bytes::new(g.u64(64..4000));
            let class = g.u32(0..3);
            entries.push(TraceEntry::new(t, size, class, class));
        }
    }
    PacketTrace::new(entries).expect("sorted bursts of positive sizes")
}

fn builder<'a>(
    graph: &'a ExecutionGraph,
    hw: &'a HardwareModel,
    traffic: &'a TrafficProfile,
    faults: Option<&'a CompiledFaultPlan>,
    seed: u64,
) -> SimulationBuilder<'a> {
    let mut b = Simulation::builder(graph, hw, traffic)
        .seed(seed)
        .duration(Seconds::millis(10.0))
        .warmup(Seconds::millis(2.0));
    if let Some(c) = faults {
        b = b.with_compiled_faults(c);
    }
    b
}

/// Compiles a generated plan once, as every faulted caller does.
fn compile(plan: &Option<FaultPlan>, graph: &ExecutionGraph) -> Option<CompiledFaultPlan> {
    plan.as_ref()
        .map(|p| CompiledFaultPlan::compile(p, graph).expect("generated plans are valid"))
}

#[test]
fn sanitized_runs_are_passive_clean_and_bit_identical() {
    Property::new("sanitized_runs_are_passive_clean_and_bit_identical")
        .cases(32)
        .check(|g| {
            let graph = arb_chain(g);
            let traffic = arb_traffic(g);
            let plan = arb_plan(g, &graph);
            let faults = compile(&plan, &graph);
            let seed = g.u64(0..u64::MAX - 1);
            let hw = HardwareModel::new(Bandwidth::gbps(400.0), Bandwidth::gbps(400.0));

            let plain = builder(&graph, &hw, &traffic, faults.as_ref(), seed)
                .run()
                .expect("generated scenarios are valid");
            let mut audits: Vec<SanitizerReport> = Vec::new();
            for _ in 0..2 {
                let (sanitized, audit) = builder(&graph, &hw, &traffic, faults.as_ref(), seed)
                    .build()
                    .expect("generated scenarios are valid")
                    .run_sanitized()
                    .expect("healthy runs are sanitizer-clean");
                ensure!(
                    plain == sanitized,
                    "sanitizer perturbed the run (faulted: {})",
                    plan.is_some()
                );
                ensure!(
                    format!("{plain:?}") == format!("{sanitized:?}"),
                    "debug renderings diverged"
                );
                ensure!(
                    audit.is_clean(),
                    "violations on a healthy run: {:?}",
                    audit.violations
                );
                ensure!(
                    audit.events == plain.events,
                    "audited {} events, report says {}",
                    audit.events,
                    plain.events
                );
                audits.push(audit);
            }
            // The audit counters reproduce exactly on a rerun:
            // identical RNG draw counts, event counts, ledger totals.
            let (a, b) = (&audits[0], &audits[1]);
            ensure!(
                a.rng_draws == b.rng_draws,
                "RNG draw counts diverged on a rerun: {} vs {}",
                a.rng_draws,
                b.rng_draws
            );
            ensure!(
                (a.events, a.injected, a.delivered, a.dropped)
                    == (b.events, b.injected, b.delivered, b.dropped),
                "audit counters diverged on a rerun"
            );
            // The ledger must close: every injected packet was
            // delivered or dropped by end of run.
            let a = &audits[0];
            ensure!(
                a.injected == a.delivered + a.dropped,
                "ledger did not close: {} != {} + {}",
                a.injected,
                a.delivered,
                a.dropped
            );
            Ok(())
        });
}

/// Property: zero-gap burst traces run sanitizer-clean, and every
/// run path — plain, traced and sanitized — reports the same bytes.
#[test]
fn burst_trace_runs_are_sanitizer_clean_on_all_paths() {
    Property::new("burst_trace_runs_are_sanitizer_clean_on_all_paths")
        .cases(16)
        .check(|g| {
            let graph = arb_chain(g);
            let trace = arb_burst_trace(g);
            let traffic = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(1024));
            let seed = g.u64(0..u64::MAX - 1);
            let hw = HardwareModel::new(Bandwidth::gbps(400.0), Bandwidth::gbps(400.0));
            let builder = || {
                Simulation::builder(&graph, &hw, &traffic)
                    .with_trace(trace.clone())
                    .seed(seed)
                    .duration(Seconds::millis(10.0))
                    .warmup(Seconds::ZERO)
            };

            let plain = builder().run().expect("generated scenarios are valid");
            let mut ring = RingLog::with_capacity(1 << 12);
            let traced = builder()
                .run_with(&mut ring)
                .expect("generated scenarios are valid");
            let (sanitized, audit) = builder()
                .build()
                .expect("generated scenarios are valid")
                .run_sanitized()
                .expect("healthy trace runs are sanitizer-clean");
            ensure!(
                audit.is_clean(),
                "violations on a burst trace: {:?}",
                audit.violations
            );
            ensure!(plain == traced, "ring log perturbed a burst run");
            ensure!(plain == sanitized, "sanitizer perturbed a burst run");
            ensure!(
                audit.events == plain.events,
                "audited {} events, report says {}",
                audit.events,
                plain.events
            );
            Ok(())
        });
}

/// Property: attaching a live ring-log observer never changes the
/// report, and a rerun emits the identical event stream — the
/// observability layer is passive and deterministic over the whole
/// randomized scenario space, not just the pinned fixtures in
/// `tests/trace.rs`. A quarter of the cases replay a burst trace
/// instead of sampling the traffic profile.
#[test]
fn traced_runs_match_untraced_on_all_paths() {
    Property::new("traced_runs_match_untraced_on_all_paths")
        .cases(24)
        .check(|g| {
            let graph = arb_chain(g);
            let traffic = arb_traffic(g);
            let plan = arb_plan(g, &graph);
            let faults = compile(&plan, &graph);
            let trace = g.bool(0.25).then(|| arb_burst_trace(g));
            let seed = g.u64(0..u64::MAX - 1);
            let hw = HardwareModel::new(Bandwidth::gbps(400.0), Bandwidth::gbps(400.0));
            let builder = || {
                let b = builder(&graph, &hw, &traffic, faults.as_ref(), seed);
                match &trace {
                    Some(t) => b.with_trace(t.clone()),
                    None => b,
                }
            };

            let untraced = builder().run().expect("generated scenarios are valid");
            let mut rings = Vec::new();
            for _ in 0..2 {
                let mut ring = RingLog::with_capacity(1 << 16);
                let traced = builder()
                    .run_with(&mut ring)
                    .expect("generated scenarios are valid");
                ensure!(
                    untraced == traced,
                    "observer perturbed the run (faulted: {}, trace: {})",
                    plan.is_some(),
                    trace.is_some()
                );
                ensure!(
                    format!("{untraced:?}") == format!("{traced:?}"),
                    "debug renderings diverged"
                );
                rings.push(ring);
            }
            ensure!(
                rings[0].records() == rings[1].records(),
                "reruns emitted different event streams"
            );
            Ok(())
        });
}

/// Pinned chaos anchor: WRR per-class queues on one node, a credit
/// squeeze on its shared-queue neighbour, probabilistic drops, retry
/// and a deadline — every sanitizer code path (per-class admission,
/// credit windows, queue reaps without dequeue, retry re-injection)
/// in one deterministic scenario, sanitized twice and compared with
/// the plain run path.
#[test]
fn chaos_anchor_is_sanitizer_clean_and_identical_across_paths() {
    let graph = ExecutionGraph::chain(
        "chaos-anchor",
        &[
            (
                "parse",
                IpParams::new(Bandwidth::gbps(20.0)).with_queue_capacity(24),
            ),
            (
                "crypto",
                IpParams::new(Bandwidth::gbps(14.0))
                    .with_parallelism(2)
                    .with_queue_capacity(16),
            ),
        ],
    )
    .unwrap();
    let dist = PacketSizeDist::mix([(Bytes::new(256), 0.5), (Bytes::new(1500), 0.5)]).unwrap();
    let traffic = TrafficProfile::new(Bandwidth::gbps(18.0), dist);
    let hw = HardwareModel::new(Bandwidth::gbps(400.0), Bandwidth::gbps(400.0));
    let plan = FaultPlan::new()
        .lose_credits("parse", 20, Seconds::millis(1.0), Seconds::millis(6.0))
        .drop_packets("crypto", 0.05, Seconds::millis(0.0), Seconds::millis(10.0))
        .with_retry(RetryPolicy::new(2, Seconds::micros(80.0)))
        .with_deadline(Seconds::millis(1.5));
    let queues = QueuePlan::weighted(vec![
        QueueSpec {
            capacity: 8,
            weight: 3,
        },
        QueueSpec {
            capacity: 8,
            weight: 1,
        },
    ]);

    let faults = CompiledFaultPlan::compile(&plan, &graph).unwrap();
    let builder = || {
        Simulation::builder(&graph, &hw, &traffic)
            .seed(31)
            .duration(Seconds::millis(10.0))
            .warmup(Seconds::millis(2.0))
            .with_compiled_faults(&faults)
            .override_queues("crypto", queues.clone())
    };
    let plain = builder().run().unwrap();
    let mut audits = Vec::new();
    for _ in 0..2 {
        let (report, audit) = builder()
            .build()
            .unwrap()
            .run_sanitized()
            .unwrap_or_else(|e| panic!("chaos anchor tripped: {e}"));
        assert!(audit.is_clean(), "violations: {:?}", audit.violations);
        assert_eq!(report, plain, "sanitizer perturbed the chaos anchor");
        assert_eq!(audit.events, plain.events);
        audits.push(audit);
    }
    assert_eq!(audits[0].rng_draws, audits[1].rng_draws);
    assert_eq!(audits[0].events, audits[1].events);
    // The scenario really exercised the interesting paths.
    let a = &audits[0];
    assert!(a.injected > 0, "nothing injected");
    assert!(a.dropped > 0, "no drops: the credit squeeze did nothing");
    assert_eq!(a.injected, a.delivered + a.dropped, "ledger did not close");
    assert!(a.rng_draws > 0, "probabilistic faults never drew");
}

/// The curated workload registry — the scenarios every other suite
/// leans on — runs sanitizer-clean end to end.
#[test]
fn registry_workloads_are_sanitizer_clean() {
    for entry in lognic_workloads::registry::ALL {
        let scenario = entry.scenario();
        let (report, audit) = scenario
            .compile()
            .unwrap_or_else(|e| panic!("workload `{}` has an invalid plan: {e}", entry.name))
            .builder()
            .seed(7)
            .duration(Seconds::millis(5.0))
            .warmup(Seconds::millis(1.0))
            .build()
            .unwrap_or_else(|e| panic!("workload `{}` failed to build: {e}", entry.name))
            .run_sanitized()
            .unwrap_or_else(|e| panic!("workload `{}` tripped the sanitizer: {e}", entry.name));
        assert!(
            audit.is_clean(),
            "workload `{}` violations: {:?}",
            entry.name,
            audit.violations
        );
        assert!(
            report.events > 0,
            "workload `{}` simulated nothing",
            entry.name
        );
    }
}
