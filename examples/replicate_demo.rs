//! Replicated simulation in a dozen lines: run one scenario across
//! eight seeds, print the per-metric 95 % confidence intervals, and
//! demonstrate the bit-identical-aggregate guarantee.
//!
//! ```console
//! $ cargo run --release --example replicate_demo
//! ```
use lognic::prelude::*;

fn main() {
    let g = ExecutionGraph::chain(
        "demo",
        &[(
            "ip",
            IpParams::new(Bandwidth::gbps(10.0)).with_queue_capacity(64),
        )],
    )
    .unwrap();
    let hw = HardwareModel::new(Bandwidth::gbps(10_000.0), Bandwidth::gbps(10_000.0));
    let t = TrafficProfile::fixed(Bandwidth::gbps(7.0), Bytes::new(1250));
    let cfg = SimConfig {
        duration: Seconds::millis(10.0),
        warmup: Seconds::millis(2.0),
        ..SimConfig::default()
    };
    let sim = || Simulation::builder(&g, &hw, &t).config(cfg);
    let a = Replication::new(8).run(sim).expect("valid scenario");
    let b = Replication::new(8)
        .threads(1)
        .run(sim)
        .expect("valid scenario");
    println!("seeds            = {:x?}", &a.seeds[..3]);
    println!("latency mean     = {}", a.latency_mean);
    println!("latency p99      = {}", a.latency_p99);
    println!("throughput gbps  = {}", a.throughput_gbps);
    println!("loss rate        = {}", a.loss_rate);
    println!("bit-identical across thread counts: {}", a == b);
}
