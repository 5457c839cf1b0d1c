//! Model-vs-simulation agreement: the reproduction's core validation.
//! The analytical estimates must track the discrete-event measurements
//! across load levels, topologies and parallelism — the property the
//! paper validates against real hardware.

use lognic::prelude::*;

fn hw() -> HardwareModel {
    HardwareModel::new(Bandwidth::gbps(10_000.0), Bandwidth::gbps(10_000.0))
}

fn run(graph: &ExecutionGraph, hw: &HardwareModel, t: &TrafficProfile, seed: u64) -> SimReport {
    Simulation::builder(graph, hw, t)
        .seed(seed)
        .duration(Seconds::millis(60.0))
        .warmup(Seconds::millis(12.0))
        .run()
        .expect("valid scenario")
}

#[test]
fn mm1_latency_agreement_across_loads() {
    // Formerly a hand-tuned per-load tolerance against one seed; now a
    // statistical claim: at every load the analytical mean latency must
    // fall inside the 95 % confidence interval of 12 independent
    // replicated runs. The interval is derived from the across-seed
    // variance (Welford + Student-t), so the assertion tightens or
    // loosens with the sim's actual noise instead of a magic number.
    let g = ExecutionGraph::chain(
        "mm1",
        &[(
            "ip",
            IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(64),
        )],
    )
    .unwrap();
    let cfg = SimConfig {
        duration: Seconds::millis(40.0),
        warmup: Seconds::millis(8.0),
        ..SimConfig::default()
    };
    for load in [0.3, 0.5, 0.7, 0.85] {
        let t = TrafficProfile::fixed(Bandwidth::gbps(10.0 * load), Bytes::new(1250));
        let model = estimate_latency(&g, &hw(), &t).unwrap().mean().as_secs();
        let hw = hw();
        let rep = Replication::new(12)
            .run(|| Simulation::builder(&g, &hw, &t).config(cfg))
            .expect("valid scenario");
        assert!(
            rep.latency_mean.contains(model),
            "load {load}: model {model} outside replicated 95% CI {}",
            rep.latency_mean
        );
    }
}

#[test]
fn mmc_latency_agreement_for_parallel_engines() {
    // 8 engines: the M/M/c/N refinement must track the simulator,
    // where the paper's single-server Eq. 12 would overpredict.
    let g = ExecutionGraph::chain(
        "mmc",
        &[(
            "ip",
            IpParams::new(Bandwidth::gbps(10.0))
                .with_parallelism(8)
                .with_queue_capacity(128),
        )],
    )
    .unwrap();
    for load in [0.4, 0.7, 0.85] {
        let t = TrafficProfile::fixed(Bandwidth::gbps(10.0 * load), Bytes::new(1250));
        let model = estimate_latency(&g, &hw(), &t).unwrap().mean();
        let sim = run(&g, &hw(), &t, 5).latency.mean;
        let err = (model.as_secs() - sim.as_secs()).abs() / sim.as_secs();
        assert!(err < 0.08, "load {load}: model {model} sim {sim} err {err}");
    }
}

#[test]
fn pipeline_throughput_agreement_under_overload() {
    let g = ExecutionGraph::chain(
        "pipe",
        &[
            (
                "a",
                IpParams::new(Bandwidth::gbps(20.0))
                    .with_parallelism(4)
                    .with_queue_capacity(128),
            ),
            (
                "b",
                IpParams::new(Bandwidth::gbps(8.0))
                    .with_parallelism(2)
                    .with_queue_capacity(128),
            ),
            (
                "c",
                IpParams::new(Bandwidth::gbps(30.0))
                    .with_parallelism(4)
                    .with_queue_capacity(128),
            ),
        ],
    )
    .unwrap();
    let t = TrafficProfile::fixed(Bandwidth::gbps(25.0), Bytes::new(1500));
    let model = Estimator::new(&g, &hw(), &t)
        .throughput()
        .unwrap()
        .attainable();
    assert_eq!(model, Bandwidth::gbps(8.0), "stage b binds");
    let sim = run(&g, &hw(), &t, 7);
    let err = (model.as_bps() - sim.throughput.as_bps()).abs() / sim.throughput.as_bps();
    assert!(err < 0.06, "model {model} sim {} err {err}", sim.throughput);
}

#[test]
fn shared_interface_contention_agreement() {
    // Every hop crosses the interface; the Eq. 2 bound must match the
    // simulated contention.
    let g = ExecutionGraph::chain(
        "intf",
        &[
            (
                "a",
                IpParams::new(Bandwidth::gbps(1000.0)).with_queue_capacity(256),
            ),
            (
                "b",
                IpParams::new(Bandwidth::gbps(1000.0)).with_queue_capacity(256),
            ),
        ],
    )
    .unwrap();
    let hw = HardwareModel::new(Bandwidth::gbps(12.0), Bandwidth::gbps(10_000.0));
    let t = TrafficProfile::fixed(Bandwidth::gbps(30.0), Bytes::new(1500));
    // Σα = 3 → bound = 4 Gb/s.
    let model = Estimator::new(&g, &hw, &t).throughput().unwrap();
    assert_eq!(model.attainable(), Bandwidth::gbps(4.0));
    let sim = run(&g, &hw, &t, 9);
    let err =
        (model.attainable().as_bps() - sim.throughput.as_bps()).abs() / sim.throughput.as_bps();
    assert!(
        err < 0.15,
        "model {} sim {} err {err}",
        model.attainable(),
        sim.throughput
    );
}

#[test]
fn fanout_split_agreement() {
    let mut b = ExecutionGraph::builder("split");
    let ing = b.ingress("in");
    let x = b.ip(
        "x",
        IpParams::new(Bandwidth::gbps(30.0)).with_queue_capacity(128),
    );
    let y = b.ip(
        "y",
        IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(128),
    );
    let eg = b.egress("out");
    b.edge(ing, x, EdgeParams::new(0.7).unwrap());
    b.edge(ing, y, EdgeParams::new(0.3).unwrap());
    b.edge(x, eg, EdgeParams::new(0.7).unwrap());
    b.edge(y, eg, EdgeParams::new(0.3).unwrap());
    let g = b.build().unwrap();
    let t = TrafficProfile::fixed(Bandwidth::gbps(20.0), Bytes::new(1000));
    // Bounds: x at 30/0.7 = 42.9, y at 10/0.3 = 33.3, offered 20.
    let model = Estimator::new(&g, &hw(), &t).request().evaluate().unwrap();
    assert!(model.throughput.bottleneck().component.is_offered_load());
    let sim = run(&g, &hw(), &t, 11);
    let err = (model.delivered.as_bps() - sim.throughput.as_bps()).abs() / sim.throughput.as_bps();
    assert!(
        err < 0.05,
        "model {} sim {} err {err}",
        model.delivered,
        sim.throughput
    );
}

#[test]
fn mixed_packet_sizes_agreement() {
    let g = ExecutionGraph::chain(
        "mix",
        &[(
            "ip",
            IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(128),
        )],
    )
    .unwrap();
    let dist = PacketSizeDist::mix([(Bytes::new(64), 0.5), (Bytes::new(1500), 0.5)]).unwrap();
    let t = TrafficProfile::new(Bandwidth::gbps(6.0), dist);
    let model = estimate_latency(&g, &hw(), &t).unwrap().mean();
    let sim = run(&g, &hw(), &t, 13).latency.mean;
    let err = (model.as_secs() - sim.as_secs()).abs() / sim.as_secs();
    assert!(err < 0.12, "model {model} sim {sim} err {err}");
}

#[test]
fn drop_rates_agree_with_blocking_probability() {
    // A tiny queue at high load: the M/M/c/N blocking probability must
    // predict the simulator's loss rate.
    let g = ExecutionGraph::chain(
        "drops",
        &[(
            "ip",
            IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(4),
        )],
    )
    .unwrap();
    let t = TrafficProfile::fixed(Bandwidth::gbps(9.0), Bytes::new(1250));
    let est = estimate_latency(&g, &hw(), &t).unwrap();
    let node = g.node_by_name("ip").unwrap();
    let predicted = est.node_timing(node).unwrap().drop_probability;
    let sim = run(&g, &hw(), &t, 17);
    let measured = sim.loss_rate();
    assert!(
        (predicted - measured).abs() < 0.03,
        "predicted {predicted} vs measured {measured}"
    );
}

#[test]
fn mean_occupancy_matches_closed_form() {
    // The simulator's time-averaged in-system count must match the
    // M/M/c/N mean occupancy L (Eq. 9's numerator).
    use lognic::model::queueing::MmcN;
    for (engines, rho) in [(1u32, 0.6), (4, 0.75), (16, 0.85)] {
        let g = ExecutionGraph::chain(
            "occ",
            &[(
                "ip",
                IpParams::new(Bandwidth::gbps(10.0))
                    .with_parallelism(engines)
                    .with_queue_capacity(128),
            )],
        )
        .unwrap();
        let t = TrafficProfile::fixed(Bandwidth::gbps(10.0 * rho), Bytes::new(1250));
        let r = Simulation::builder(&g, &hw(), &t)
            .seed(19)
            .duration(Seconds::millis(80.0))
            .warmup(Seconds::ZERO)
            .run()
            .expect("valid scenario");
        let measured = r.node("ip").unwrap().mean_occupancy;
        let expected = MmcN::new(rho, engines, 128).unwrap().mean_occupancy();
        let err = (measured - expected).abs() / expected;
        assert!(
            err < 0.08,
            "c={engines} rho={rho}: measured {measured} vs L {expected} (err {err})"
        );
    }
}

#[test]
fn deterministic_service_beats_exponential_latency() {
    // Sanity on the simulator's service-distribution knob: M/D/1
    // queues roughly half as much as M/M/1.
    let g = ExecutionGraph::chain(
        "dist",
        &[(
            "ip",
            IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(256),
        )],
    )
    .unwrap();
    let t = TrafficProfile::fixed(Bandwidth::gbps(8.0), Bytes::new(1250));
    let exp = Simulation::builder(&g, &hw(), &t)
        .duration(Seconds::millis(40.0))
        .warmup(Seconds::millis(8.0))
        .service_dist(ServiceDist::Exponential)
        .run()
        .expect("valid scenario");
    let det = Simulation::builder(&g, &hw(), &t)
        .duration(Seconds::millis(40.0))
        .warmup(Seconds::millis(8.0))
        .service_dist(ServiceDist::Deterministic)
        .run()
        .expect("valid scenario");
    assert!(det.latency.mean < exp.latency.mean);
}
