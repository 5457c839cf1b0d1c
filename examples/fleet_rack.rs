//! Fleet simulation: a hand-built NIC pair, then the 32-NIC registry
//! rack, through the deterministic fleet event loop.
//!
//! The headline property on display: the aggregate `FleetReport` is
//! a pure function of topology, configuration and seed. This example
//! runs the rack twice and asserts the reports match byte for byte.
//!
//! ```console
//! $ cargo run --release --example fleet_rack
//! ```

use lognic::prelude::*;
use lognic::workloads::rack;

fn main() -> Result<(), LogNicError> {
    // --- A minimal hand-built topology: two NICs, one link. ---
    // `a` routes a quarter of its egress to `b` over a 100 Gb/s link
    // with 2 µs of propagation latency.
    let g = ExecutionGraph::chain(
        "fwd",
        &[(
            "cores",
            IpParams::new(Bandwidth::gbps(10.0)).with_parallelism(4),
        )],
    )?;
    let hw = HardwareModel::new(Bandwidth::gbps(50.0), Bandwidth::gbps(40.0));
    let t = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(1024));

    let mut topo = Topology::new("pair");
    let a = topo.add_nic("a", g.clone(), hw, t.clone());
    let b = topo.add_nic("b", g, hw, t);
    topo.link(a, b, Bandwidth::gbps(100.0), Seconds::micros(2.0), 0.25);

    let report = FleetBuilder::new(topo)
        .duration(Seconds::millis(2.0))
        .warmup(Seconds::ZERO)
        .build()?
        .run()?;
    println!(
        "pair: {} NICs, {} boundary packets forwarded, throughput {}",
        report.nics.len(),
        report.forwarded,
        report.throughput
    );

    // --- The registry rack: 32 NICs cycling the workload corpus on
    // a ToR ring, byte-compared across two runs. ---
    let run = || -> Result<FleetReport, LogNicError> { rack::smoke_fleet(32).build()?.run() };
    let one = run()?;
    assert_eq!(
        format!("{one:?}"),
        format!("{:?}", run()?),
        "a rerun must reproduce the aggregate report"
    );
    println!(
        "rack-32: {} rounds, {} completed, {} forwarded, identical across two runs",
        one.rounds, one.completed, one.forwarded
    );
    for link in one.links.iter().take(3) {
        println!(
            "  link {} -> {}: {} packets, utilization {:.4}%",
            link.src,
            link.dst,
            link.forwarded,
            link.utilization * 100.0
        );
    }
    Ok(())
}
