//! End-to-end tests of the architecture features beyond the plain
//! DAG: bypass paths, recirculation, rate limiters, WRR multi-queue
//! isolation and trace replay — each validated model-vs-simulation
//! where both sides exist.

use lognic::prelude::*;

fn hw() -> HardwareModel {
    HardwareModel::new(Bandwidth::gbps(10_000.0), Bandwidth::gbps(10_000.0))
}

fn base_chain(gbps: f64) -> ExecutionGraph {
    ExecutionGraph::chain(
        "base",
        &[(
            "cores",
            IpParams::new(Bandwidth::gbps(gbps))
                .with_parallelism(4)
                .with_queue_capacity(128),
        )],
    )
    .unwrap()
}

fn run(g: &ExecutionGraph, t: &TrafficProfile, seed: u64) -> SimReport {
    Simulation::builder(g, &hw(), t)
        .seed(seed)
        .duration(Seconds::millis(30.0))
        .warmup(Seconds::millis(6.0))
        .run()
        .expect("valid scenario")
}

#[test]
fn bypass_raises_capacity_in_model_and_sim() {
    let g = base_chain(10.0);
    let bypassed = with_bypass(&g, 0.5).unwrap();
    let t = TrafficProfile::fixed(Bandwidth::gbps(18.0), Bytes::new(1500));

    // Model: SoC path sees half the load → capacity doubles to 20.
    let est = Estimator::new(&bypassed, &hw(), &t).throughput().unwrap();
    assert!(est.bottleneck().component.is_offered_load());

    // Sim: 18 Gb/s offered flows with negligible loss (the plain chain
    // would drop ~45%).
    let with_b = run(&bypassed, &t, 3);
    let without = run(&g, &t, 3);
    assert!(
        with_b.loss_rate() < 0.02,
        "bypassed loss {}",
        with_b.loss_rate()
    );
    assert!(
        without.loss_rate() > 0.3,
        "plain loss {}",
        without.loss_rate()
    );
    // Bypassed packets skip the queueing entirely → lower mean latency.
    assert!(with_b.latency.mean < without.latency.mean);
}

#[test]
fn recirculation_costs_proportional_cycles() {
    let g = base_chain(12.0);
    let cores = g.node_by_name("cores").unwrap();
    let unrolled = unroll_recirculation(&g, cores, 3).unwrap();
    let t = TrafficProfile::fixed(Bandwidth::gbps(20.0), Bytes::new(1500));

    let est = Estimator::new(&unrolled, &hw(), &t).throughput().unwrap();
    assert!(
        (est.attainable().as_gbps() - 4.0).abs() < 1e-6,
        "12/3 = 4 Gb/s"
    );

    let sim = run(&unrolled, &t, 5);
    let err = (est.attainable().as_bps() - sim.throughput.as_bps()).abs() / sim.throughput.as_bps();
    assert!(
        err < 0.08,
        "model {} sim {}",
        est.attainable(),
        sim.throughput
    );
}

#[test]
fn rate_limiter_caps_model_and_sim_alike() {
    let g = base_chain(20.0);
    let cores = g.node_by_name("cores").unwrap();
    let shaped = insert_rate_limiter(&g, cores, Bandwidth::gbps(6.0), 32).unwrap();
    let t = TrafficProfile::fixed(Bandwidth::gbps(15.0), Bytes::new(1500));

    let est = Estimator::new(&shaped, &hw(), &t).throughput().unwrap();
    assert_eq!(est.attainable(), Bandwidth::gbps(6.0));

    let sim = run(&shaped, &t, 7);
    let err = (6e9 - sim.throughput.as_bps()).abs() / sim.throughput.as_bps();
    assert!(err < 0.08, "sim {}", sim.throughput);
}

#[test]
fn wrr_queues_isolate_a_flooding_tenant() {
    // Class 1 (20% share) keeps its latency and completions when class
    // 0 floods, provided each class has its own queue.
    let g = base_chain(5.0);
    let dist = PacketSizeDist::mix([(Bytes::new(1000), 0.8), (Bytes::new(1000), 0.2)]).unwrap();
    let t = TrafficProfile::new(Bandwidth::gbps(9.0), dist);
    let plan = lognic::sim::wrr::QueuePlan::weighted(vec![
        lognic::sim::wrr::QueueSpec {
            capacity: 16,
            weight: 1,
        },
        lognic::sim::wrr::QueueSpec {
            capacity: 16,
            weight: 1,
        },
    ]);
    let r = Simulation::builder(&g, &hw(), &t)
        .seed(11)
        .duration(Seconds::millis(30.0))
        .warmup(Seconds::millis(6.0))
        .override_queues("cores", plan)
        .run()
        .expect("valid scenario");
    // The node is overloaded; equal WRR splits its 5 Gb/s roughly in
    // half, so the victim's 1.8 Gb/s demand is fully served while the
    // aggressor is clipped.
    let victim = &r.classes[1];
    let victim_rate = victim.bytes.as_f64() * 8.0 / (r.window.as_secs());
    assert!(
        victim_rate > 0.95 * 1.8e9,
        "victim delivered only {victim_rate} b/s of its 1.8 Gb/s demand"
    );
    let aggressor = &r.classes[0];
    let aggressor_rate = aggressor.bytes.as_f64() * 8.0 / r.window.as_secs();
    assert!(
        aggressor_rate < 0.6 * 7.2e9,
        "aggressor must be clipped, got {aggressor_rate}"
    );
}

#[test]
fn trace_replay_matches_synthetic_statistics() {
    // Record a paced stream as a trace; replaying it must reproduce
    // the paced run's throughput.
    let g = base_chain(10.0);
    let t = TrafficProfile::fixed(Bandwidth::gbps(6.0), Bytes::new(1200));
    let entries: Vec<TraceEntry> = (0..12_000)
        .map(|i| {
            let gap_s = 1200.0 * 8.0 / 6e9;
            TraceEntry::new(SimTime::from_secs(gap_s * i as f64), Bytes::new(1200), 0, 0)
        })
        .collect();
    let trace = PacketTrace::new(entries).expect("paced 1200 B records");
    assert!((trace.mean_rate_bps() - 6e9).abs() / 6e9 < 0.01);

    let replay = Simulation::builder(&g, &hw(), &t)
        .with_trace(trace)
        .duration(Seconds::millis(15.0))
        .warmup(Seconds::millis(3.0))
        .run()
        .expect("valid scenario");
    let paced = Simulation::builder(&g, &hw(), &t)
        .arrival(ArrivalProcess::Paced)
        .duration(Seconds::millis(15.0))
        .warmup(Seconds::millis(3.0))
        .run()
        .expect("valid scenario");
    let err =
        (replay.throughput.as_bps() - paced.throughput.as_bps()).abs() / paced.throughput.as_bps();
    assert!(
        err < 0.02,
        "replay {} vs paced {}",
        replay.throughput,
        paced.throughput
    );
}

#[test]
fn consolidation_matches_two_tenant_simulation() {
    // Two tenants on one device: the consolidated model's aggregate
    // equals the sum of the simulated per-tenant runs (they share only
    // over-provisioned media here).
    use lognic::model::extensions::{consolidate, Tenant};
    let a = ExecutionGraph::chain(
        "a",
        &[(
            "ip",
            IpParams::new(Bandwidth::gbps(8.0)).with_queue_capacity(64),
        )],
    )
    .unwrap();
    let b = ExecutionGraph::chain(
        "b",
        &[(
            "ip",
            IpParams::new(Bandwidth::gbps(4.0)).with_queue_capacity(64),
        )],
    )
    .unwrap();
    let aggregate = TrafficProfile::fixed(Bandwidth::gbps(30.0), Bytes::new(1500));
    let est = consolidate(
        &[Tenant::new(a.clone(), 0.5), Tenant::new(b.clone(), 0.5)],
        &hw(),
        &aggregate,
    )
    .unwrap();
    // Tenant b binds: 4 / 0.5 = 8 Gb/s aggregate.
    assert!((est.total_throughput.as_gbps() - 8.0).abs() < 1e-6);

    // Simulate each tenant at its share of the admissible aggregate.
    let ta = TrafficProfile::fixed(est.total_throughput * 0.5, Bytes::new(1500));
    let ra = run(&a, &ta, 13);
    let rb = run(&b, &ta, 17);
    let sum = ra.throughput.as_bps() + rb.throughput.as_bps();
    let err = (est.total_throughput.as_bps() - sum).abs() / sum;
    assert!(
        err < 0.10,
        "model {} vs sim sum {}",
        est.total_throughput,
        sum / 1e9
    );
}
