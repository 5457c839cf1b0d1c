//! The paper's §2.3 motivation: SmartNIC performance is inseparable
//! from the traffic profile. An implementation optimized for MTU
//! traffic collapses under 64 B packets, and architecture features —
//! an off-path bypass, a rate limiter, recirculation — reshape the
//! curve.
//!
//! Run with `cargo run --release --example traffic_sensitivity`.

use lognic::prelude::*;

fn offload() -> lognic::model::error::LogNicResult<ExecutionGraph> {
    // A per-packet-cost-heavy offload: great at MTU, terrible at 64 B.
    let mut b = ExecutionGraph::builder("per-packet-heavy");
    let ing = b.ingress("rx");
    // 0.8 µs per request regardless of size → peak depends on size.
    let cores = b.ip(
        "cores",
        IpParams::new(Bandwidth::gbps(15.0))
            .with_parallelism(8)
            .with_queue_capacity(128),
    );
    let eg = b.egress("tx");
    b.edge(ing, cores, EdgeParams::full().with_interface_fraction(0.0));
    b.edge(cores, eg, EdgeParams::full());
    b.build()
}

fn main() -> lognic::model::error::LogNicResult<()> {
    let hw = HardwareModel::new(Bandwidth::gbps(50.0), Bandwidth::gbps(100.0));
    let graph = offload()?;

    // 1. Packet-size sensitivity: the same graph under different sizes
    //    (per-size peaks would normally come from characterization; we
    //    emulate a fixed per-request cost by scaling the peak).
    println!("=== packet-size sensitivity (fixed 0.8 us/request on 8 cores) ===");
    println!(
        "{:>8} {:>14} {:>12}",
        "pktsize", "capacity Gbps", "lat @70% us"
    );
    for size in [64u64, 256, 1024, 1500] {
        let size_b = Bytes::new(size);
        let mut g = graph.clone();
        let cores = g.node_by_name("cores").unwrap();
        // peak = 8 engines × size / 0.8 µs.
        let peak = Bandwidth::bps(8.0 * size_b.bits() as f64 / 0.8e-6);
        g.set_ip_params(
            cores,
            IpParams::new(peak)
                .with_parallelism(8)
                .with_queue_capacity(128),
        )?;
        let t = TrafficProfile::fixed(peak * 0.7, size_b);
        let est = Estimator::new(&g, &hw, &t).request().evaluate()?;
        println!(
            "{:>8} {:>14.2} {:>12.2}",
            size_b.to_string(),
            peak.as_gbps(),
            est.latency.mean().as_micros()
        );
    }

    // 2. An off-path bypass: forwarding 70% of the traffic straight to
    //    TX triples the sustainable ingress rate.
    println!();
    println!("=== off-path bypass (fraction of traffic skipping the SoC) ===");
    for frac in [0.0, 0.3, 0.7] {
        let g = with_bypass(&graph, frac)?;
        let t = TrafficProfile::fixed(Bandwidth::gbps(200.0), Bytes::new(1500));
        let est = Estimator::new(&g, &hw, &t).throughput()?;
        println!(
            "bypass {:>3.0}%: attainable {} (binds at {})",
            frac * 100.0,
            est.attainable(),
            est.bottleneck().component
        );
    }

    // 3. Traffic shaping in front of the cores (extension #3).
    println!();
    println!("=== rate limiter in front of the cores ===");
    let cores = graph.node_by_name("cores").unwrap();
    let shaped = insert_rate_limiter(&graph, cores, Bandwidth::gbps(8.0), 16)?;
    let t = TrafficProfile::fixed(Bandwidth::gbps(40.0), Bytes::new(1500));
    let est = Estimator::new(&shaped, &hw, &t).throughput()?;
    println!(
        "shaped attainable: {} ({})",
        est.attainable(),
        est.bottleneck().component
    );

    // 4. Recirculation: three passes through the cores cost 3× the
    //    cycles.
    println!();
    println!("=== recirculation (3 passes through the cores) ===");
    let unrolled = unroll_recirculation(&graph, cores, 3)?;
    let est = Estimator::new(&unrolled, &hw, &t).throughput()?;
    println!("recirculated attainable: {}", est.attainable());

    // 5. A latency-throughput sweep of the base graph.
    println!();
    println!("=== load sweep (MTU) ===");
    let base = TrafficProfile::fixed(Bandwidth::gbps(15.0), Bytes::new(1500));
    let pts = rate_sweep(
        &graph,
        &hw,
        &base,
        Bandwidth::gbps(15.0),
        &[0.2, 0.4, 0.6, 0.8, 0.9, 0.95],
    )?;
    println!("{:>12} {:>12} {:>10}", "offered", "delivered", "latency");
    for p in pts {
        println!(
            "{:>12} {:>12} {:>10}",
            p.offered.to_string(),
            p.delivered.to_string(),
            p.latency.to_string()
        );
    }
    Ok(())
}
