//! Differential property test of the observability layer over
//! randomized scenarios.
//!
//! Attaching a live observer must never change a run: the traced
//! report is byte-identical to the untraced one for every scenario —
//! random graph shapes, IP parameters, traffic, fault plans, and
//! zero-gap burst traces whose records tie on time by the dozens. The
//! event order itself is checked where it is defined, against a
//! binary heap in the calendar queue's unit tests; the committed
//! golden files pin whole reports end to end.
//!
//! Scenarios are randomized via the in-repo `lognic-testkit` harness;
//! a failing case panics with its seed for exact replay.

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
    ExecutionGraph::chain("diff", &refs).expect("chains are always valid")
}

/// Random traffic: fixed or mixed packet sizes, load spanning
/// underload through heavy overload so drops, queueing and idle gaps
/// all appear in the case mix.
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

/// A random fault plan over the chain's stage names (present in half
/// the cases; the other half runs fault-free).
fn arb_plan(g: &mut Gen, graph: &ExecutionGraph) -> Option<FaultPlan> {
    if g.bool(0.5) {
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
    match g.u32(0..3) {
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
        _ => {
            plan = plan.degrade_rate(
                &node,
                g.f64(0.2..0.9),
                Seconds::millis(g.f64(0.0..3.0)),
                Seconds::millis(g.f64(5.0..10.0)),
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

/// A random zero-gap burst trace: groups of same-timestamp packets.
fn arb_burst_trace(g: &mut Gen) -> Trace {
    let bursts = g.u64(4..24);
    let gap_us = g.f64(5.0..80.0);
    let mut events = Vec::new();
    for b in 0..bursts {
        let t = SimTime::from_micros(b as f64 * gap_us);
        let len = g.u64(1..96);
        for _ in 0..len {
            events.push((t, Bytes::new(g.u64(64..4000)), g.u32(0..3)));
        }
    }
    Trace::from_events(events)
}

/// Property: attaching a live ring-log observer never changes the
/// report, and a rerun emits the byte-identical event stream — the
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
            let trace = g.bool(0.25).then(|| arb_burst_trace(g));
            let seed = g.u64(0..u64::MAX - 1);
            let hw = HardwareModel::new(Bandwidth::gbps(400.0), Bandwidth::gbps(400.0));
            let builder = || {
                let mut b = Simulation::builder(&graph, &hw, &traffic)
                    .seed(seed)
                    .duration(Seconds::millis(10.0))
                    .warmup(Seconds::millis(2.0));
                if let Some(p) = &plan {
                    b = b.with_fault_plan(p.clone());
                }
                if let Some(t) = &trace {
                    b = b.with_trace(t.clone());
                }
                b
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
                rings[0].bytes() == rings[1].bytes(),
                "reruns emitted different event streams"
            );
            Ok(())
        });
}
