//! Determinism and composition properties of the fleet runtime.
//!
//! The fleet event loop's headline guarantee is that sharding is
//! *invisible*: for a given topology, configuration and seed, the
//! aggregate [`FleetReport`] is byte-identical at any shard count.
//! These tests pin that guarantee by comparing the `Debug` rendering
//! of whole reports, so any drifting float or counter anywhere in the
//! report fails loudly.
//!
//! The composition anchor pins the fleet/single-NIC boundary from the
//! other side: a fleet whose links carry no traffic is exactly a set
//! of independent single-NIC simulations, and a one-NIC fleet is
//! exactly `SimulationBuilder`.

use lognic::prelude::*;

fn run_rack(nics: usize, shards: usize) -> FleetReport {
    rack::smoke_fleet(nics, shards)
        .build()
        .expect("rack builds")
        .run()
        .expect("rack runs")
}

#[test]
fn fleet_reports_are_bit_identical_across_shard_counts() {
    // A 6-NIC rack crosses shard boundaries cheaply: over 8 shards it
    // clamps, over 2 shards it interleaves producers and consumers.
    let reference = format!("{:?}", run_rack(6, 1));
    for shards in [2usize, 8] {
        let got = format!("{:?}", run_rack(6, shards));
        assert_eq!(got, reference, "FleetReport diverged at shards={shards}");
    }
}

#[test]
fn rack32_is_bit_identical_at_1_and_8_shards() {
    // The acceptance-criterion rack: >= 32 NICs, byte-compared at the
    // shard-count extremes.
    let one = run_rack(32, 1);
    assert!(one.completed > 0, "rack must complete packets");
    assert!(one.forwarded > 0, "ring links must carry traffic");
    assert_eq!(one.nics.len(), 32);
    let eight = run_rack(32, 8);
    assert_eq!(format!("{one:?}"), format!("{eight:?}"));
}

#[test]
fn traffic_free_links_compose_independent_single_nic_runs() {
    // A 2-NIC fleet joined by a share-0 link (even a degenerate
    // zero-latency, infinite-bandwidth one) must decompose exactly
    // into two standalone runs under the fleet's per-NIC seeds: the
    // egress uplink draw only exists when a link carries traffic, so
    // the RNG streams — and therefore every report byte — match.
    let g = ExecutionGraph::chain(
        "fwd",
        &[(
            "cores",
            IpParams::new(Bandwidth::gbps(10.0)).with_parallelism(4),
        )],
    )
    .expect("chain builds");
    let hw = HardwareModel::new(Bandwidth::gbps(50.0), Bandwidth::gbps(40.0));
    let t = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(1024));
    let config = SimConfig {
        seed: 7,
        duration: Seconds::millis(2.0),
        warmup: Seconds::ZERO,
        ..SimConfig::default()
    };

    let mut topo = Topology::new("idle-pair");
    let a = topo.add_nic("a", g.clone(), hw, t.clone());
    let b = topo.add_nic("b", g.clone(), hw, t.clone());
    topo.link(a, b, Bandwidth::INFINITE, Seconds::ZERO, 0.0);

    let fleet = FleetBuilder::new(topo)
        .config(config)
        .shards(2)
        .build()
        .expect("idle pair builds")
        .run()
        .expect("idle pair runs");

    assert_eq!(fleet.forwarded, 0, "a share-0 link must carry nothing");
    for (i, nic) in fleet.nics.iter().enumerate() {
        let mut standalone_config = config;
        standalone_config.seed = nic_seed(config.seed, i);
        let standalone = Simulation::builder(&g, &hw, &t)
            .config(standalone_config)
            .build()
            .expect("standalone builds")
            .run()
            .expect("standalone runs");
        assert_eq!(
            format!("{:?}", nic.report),
            format!("{standalone:?}"),
            "NIC {i} diverged from its standalone run"
        );
    }
}

#[test]
fn single_nic_fleet_is_the_simulation_builder_special_case() {
    let g = ExecutionGraph::chain(
        "solo",
        &[(
            "cores",
            IpParams::new(Bandwidth::gbps(8.0)).with_parallelism(2),
        )],
    )
    .expect("chain builds");
    let hw = HardwareModel::default();
    let t = TrafficProfile::fixed(Bandwidth::gbps(3.0), Bytes::new(1500));
    let config = SimConfig {
        seed: 21,
        duration: Seconds::millis(2.0),
        warmup: Seconds::millis(0.5),
        ..SimConfig::default()
    };

    let fleet = FleetBuilder::new(Topology::single("solo", g.clone(), hw, t.clone()))
        .config(config)
        .shards(8)
        .build()
        .expect("single builds")
        .run()
        .expect("single runs");
    assert_eq!(fleet.rounds, 1, "no links means one infinite window");

    let standalone = Simulation::builder(&g, &hw, &t)
        .config(config)
        .build()
        .expect("standalone builds")
        .run()
        .expect("standalone runs");
    assert_eq!(
        format!("{:?}", fleet.nics[0].report),
        format!("{standalone:?}")
    );
}

#[test]
fn zero_latency_traffic_link_is_rejected_at_build() {
    let g = ExecutionGraph::chain("fwd", &[("cores", IpParams::new(Bandwidth::gbps(10.0)))])
        .expect("chain builds");
    let hw = HardwareModel::default();
    let t = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(1024));
    let mut topo = Topology::new("degenerate");
    let a = topo.add_nic("a", g.clone(), hw, t.clone());
    let b = topo.add_nic("b", g, hw, t);
    topo.link(a, b, Bandwidth::gbps(100.0), Seconds::ZERO, 0.5);

    let err = FleetBuilder::new(topo).build().expect_err("must be denied");
    match err {
        LogNicError::AnalysisRejected { diagnostics } => {
            assert!(
                diagnostics.iter().any(|d| d.code.as_str() == "L0701"),
                "expected L0701 in {diagnostics:?}"
            );
        }
        other => panic!("expected an analysis rejection, got {other}"),
    }
}
