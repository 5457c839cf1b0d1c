//! Extension #1: consolidating multiple tenant programs on one
//! SmartNIC.
//!
//! Two tenants share the device: a crypto-offload pipeline and a
//! key-value cache. The consolidation analysis shows the aggregate
//! attainable throughput, which shared component binds, and what each
//! tenant gets.
//!
//! Run with `cargo run --release --example multi_tenant`.

use lognic::prelude::*;

fn crypto_pipeline() -> lognic::model::error::LogNicResult<ExecutionGraph> {
    let mut b = ExecutionGraph::builder("tenant-crypto");
    let ing = b.ingress("rx");
    // The crypto tenant holds 60% of the shared core complex.
    let cores = b.ip(
        "cores",
        IpParams::new(Bandwidth::gbps(40.0))
            .with_parallelism(8)
            .with_partition(0.6),
    );
    let aes = b.ip(
        "aes",
        IpParams::new(Bandwidth::gbps(28.0)).with_parallelism(4),
    );
    let eg = b.egress("tx");
    b.edge(ing, cores, EdgeParams::full().with_interface_fraction(0.0));
    b.edge(cores, aes, EdgeParams::full());
    b.edge(aes, eg, EdgeParams::full().with_interface_fraction(0.1));
    b.build()
}

fn kv_cache() -> lognic::model::error::LogNicResult<ExecutionGraph> {
    let mut b = ExecutionGraph::builder("tenant-kv");
    let ing = b.ingress("rx");
    // The KV tenant holds the remaining 40% of the cores and hits DRAM.
    let cores = b.ip(
        "cores",
        IpParams::new(Bandwidth::gbps(40.0))
            .with_parallelism(8)
            .with_partition(0.4),
    );
    let eg = b.egress("tx");
    b.edge(ing, cores, EdgeParams::full().with_interface_fraction(0.0));
    b.edge(
        cores,
        eg,
        EdgeParams::full()
            .with_interface_fraction(0.2)
            .with_memory_fraction(2.5),
    );
    b.build()
}

fn main() -> lognic::model::error::LogNicResult<()> {
    let hw = HardwareModel::new(Bandwidth::gbps(50.0), Bandwidth::gbps(60.0));
    let aggregate = TrafficProfile::fixed(Bandwidth::gbps(60.0), Bytes::new(1024));

    for (wa, wb) in [(0.5, 0.5), (0.7, 0.3), (0.3, 0.7)] {
        let tenants = [
            Tenant::new(crypto_pipeline()?, wa),
            Tenant::new(kv_cache()?, wb),
        ];
        let est = consolidate(&tenants, &hw, &aggregate)?;
        println!("weights crypto/kv = {wa}/{wb}:");
        println!("  aggregate throughput: {}", est.total_throughput);
        println!("  binding component   : {}", est.bottleneck);
        println!("  mean latency        : {}", est.mean_latency);
        for t in &est.per_tenant {
            println!("    {:<14} {} @ {}", t.name, t.throughput, t.latency);
        }
        println!();
    }
    Ok(())
}
