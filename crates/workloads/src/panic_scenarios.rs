//! Case study #5: hardware design-space exploration on PANIC
//! (§4.6, Figs. 15–19).
//!
//! Three scenarios on the PANIC prototype:
//!
//! 1. **Credit sizing** (Fig. 15, "Pipelined Chain" / Model 1): a
//!    compute unit's credit count is its in-flight window; delivered
//!    bandwidth saturates once the window covers the unit's
//!    rate × credit-return-delay product. LogNIC finds the minimal
//!    credit count that preserves throughput.
//! 2. **Traffic steering** (Figs. 16/17, "Parallelized Chain" /
//!    Model 2): traffic splits 20 % / X % / (80−X) % across three
//!    accelerators with capacity ratio 4:7:3; LogNIC steers in
//!    proportion to capacity.
//! 3. **Parallelism sizing** (Figs. 18/19, "Hybrid Chain" / Model 3):
//!    three execution paths share IP4; LogNIC suggests its minimal
//!    adequate parallel degree for each traffic split.
//!
//! This module builds the scenarios; the searches over them are
//! `lognic_optimizer::suggest::{suggest_credits,
//! suggest_steering_split, suggest_ip4_degree}`.

use crate::scenario::Scenario;
use lognic_devices::panic::Panic;
use lognic_model::graph::ExecutionGraph;
use lognic_model::params::{EdgeParams, IpParams, PacketSizeDist, TrafficProfile};
use lognic_model::units::{Bandwidth, Bytes, Seconds};

/// The four mixed traffic profiles of Fig. 15 (equal bandwidth split
/// across flow sizes).
pub const CREDIT_PROFILES: [&[u64]; 4] = [
    &[64, 512],
    &[64, 512, 1024],
    &[64, 256, 512, 1500],
    &[64, 128, 256, 1024, 1500],
];

/// Per-engine rate of the credited compute units (Model 1).
pub fn unit_rate() -> Bandwidth {
    Bandwidth::gbps(89.6)
}

/// The credit-return delay of the PANIC scheduler loop.
pub fn credit_return_delay() -> Seconds {
    Seconds::nanos(50.0)
}

/// Builds a traffic profile that splits `rate` equally **by bytes**
/// across the given flow sizes (the paper's profile construction).
///
/// # Panics
///
/// Panics if `sizes` is empty.
pub fn equal_bandwidth_profile(sizes: &[u64], rate: Bandwidth) -> TrafficProfile {
    let dist = PacketSizeDist::mix(sizes.iter().map(|&s| (Bytes::new(s), 1.0 / s as f64)))
        .expect("non-empty size list");
    TrafficProfile::new(rate, dist)
}

/// A credited compute unit as an execution-graph vertex: `credits`
/// concurrent slots, each occupied for the credit-return delay, with
/// the unit's actual processing rate enforced by the dedicated link
/// feeding it. The scheduler holds (rather than drops) packets waiting
/// for a credit, with buffering proportional to the credit provision —
/// which is why the paper observes *lower latency* at the minimal
/// credit count.
fn credited_unit(credits: u32, mean_size: Bytes) -> IpParams {
    let slot_rate = Bandwidth::bps(mean_size.bits() as f64 / credit_return_delay().as_secs());
    IpParams::new(slot_rate * credits as f64)
        .with_parallelism(credits)
        .with_queue_capacity(credits * 8)
}

/// Scenario 1 (Fig. 15): the Model-1 pipelined chain
/// `RMT → scheduler → CU1 → CU2` with `credits` per compute unit,
/// under traffic profile `sizes` at `rate`.
pub fn pipelined_chain(credits: u32, sizes: &[u64], rate: Bandwidth) -> Scenario {
    let traffic = equal_bandwidth_profile(sizes, rate);
    let mean = traffic.sizes().mean_size();
    let mut b = ExecutionGraph::builder("panic-model1");
    let ing = b.ingress("rx");
    let rmt = b.ip("rmt", Panic::rmt_params(mean));
    let sched = b.ip("scheduler", Panic::scheduler_params(mean));
    let cu1 = b.ip("cu1", credited_unit(credits, mean));
    let cu2 = b.ip("cu2", credited_unit(credits, mean));
    let eg = b.egress("tx");
    b.edge(ing, rmt, EdgeParams::full().with_interface_fraction(0.2));
    b.edge(rmt, sched, EdgeParams::full().with_interface_fraction(0.2));
    b.edge(
        sched,
        cu1,
        EdgeParams::full()
            .with_interface_fraction(0.0)
            .with_dedicated_bandwidth(unit_rate()),
    );
    b.edge(
        cu1,
        cu2,
        EdgeParams::full()
            .with_interface_fraction(0.0)
            .with_dedicated_bandwidth(unit_rate()),
    );
    b.edge(cu2, eg, EdgeParams::full().with_interface_fraction(0.2));
    let graph = b.build().expect("model-1 graph is valid by construction");
    Scenario::new(
        &format!("panic-credits-{credits}"),
        graph,
        Panic::hardware(),
        traffic,
    )
}

/// Scenario 2 (Figs. 16/17): the Model-2 parallelized chain. Traffic
/// splits 20 % to A1, `split_a2` to A2 and the rest of 80 % to A3
/// (capacities 4 : 7 : 3).
///
/// # Panics
///
/// Panics if `split_a2` is outside `[0, 0.8]`.
pub fn steering(split_a2: f64, size: Bytes, rate: Bandwidth) -> Scenario {
    assert!(
        (0.0..=0.8).contains(&split_a2),
        "A2 share must lie in [0, 0.8]"
    );
    let split_a3 = 0.8 - split_a2;
    let [a1p, a2p, a3p] = Panic::steering_units(Panic::DEFAULT_CREDITS);
    let mut b = ExecutionGraph::builder("panic-model2");
    let ing = b.ingress("rx");
    let rmt = b.ip("rmt", Panic::rmt_params(size));
    let sched = b.ip("scheduler", Panic::scheduler_params(size));
    let a1 = b.ip("a1", a1p.with_queue_capacity(64));
    let a2 = b.ip("a2", a2p.with_queue_capacity(64));
    let a3 = b.ip("a3", a3p.with_queue_capacity(64));
    let eg = b.egress("tx");
    b.edge(ing, rmt, EdgeParams::full().with_interface_fraction(0.2));
    b.edge(rmt, sched, EdgeParams::full().with_interface_fraction(0.2));
    b.edge(
        sched,
        a1,
        EdgeParams::new(0.2)
            .expect("valid")
            .with_interface_fraction(0.2),
    );
    b.edge(
        sched,
        a2,
        EdgeParams::new(split_a2)
            .expect("valid")
            .with_interface_fraction(split_a2),
    );
    b.edge(
        sched,
        a3,
        EdgeParams::new(split_a3)
            .expect("valid")
            .with_interface_fraction(split_a3),
    );
    b.edge(
        a1,
        eg,
        EdgeParams::new(0.2)
            .expect("valid")
            .with_interface_fraction(0.2),
    );
    b.edge(
        a2,
        eg,
        EdgeParams::new(split_a2)
            .expect("valid")
            .with_interface_fraction(split_a2),
    );
    b.edge(
        a3,
        eg,
        EdgeParams::new(split_a3)
            .expect("valid")
            .with_interface_fraction(split_a3),
    );
    let graph = b.build().expect("model-2 graph is valid by construction");
    Scenario::new(
        &format!("panic-steering-{split_a2:.2}-{size}"),
        graph,
        Panic::hardware(),
        TrafficProfile::fixed(rate, size),
    )
}

/// The static A2 shares compared against LogNIC in Figs. 16/17
/// (the paper's 10/70, 30/50, 50/30, 70/10 partitions of the 80 %).
pub const STATIC_SPLITS: [f64; 4] = [0.1, 0.3, 0.5, 0.7];

/// The LogNIC-suggested A2 share: proportional to the A2 : A3
/// capacity ratio, `0.8 × 52.5 / (52.5 + 22.5) = 0.56`.
pub fn lognic_steering_split() -> f64 {
    let [_, a2, a3] = Panic::steering_units(Panic::DEFAULT_CREDITS);
    0.8 * a2.peak().as_bps() / (a2.peak().as_bps() + a3.peak().as_bps())
}

/// Per-engine rate of IP4 in the hybrid chain.
pub fn ip4_engine_rate() -> Bandwidth {
    Bandwidth::gbps(11.0)
}

/// The two traffic splits of Figs. 18/19: the fraction of IP1's
/// output going to IP3 (the rest goes to IP4).
pub const HYBRID_SPLITS: [f64; 2] = [0.5, 0.8];

/// Scenario 3 (Figs. 18/19): the Model-3 hybrid chain with execution
/// paths IP1→IP3, IP1→IP4 and IP2→IP4. 60 % of ingress traffic enters
/// IP1, 40 % enters IP2; `ip3_share` of IP1's output goes to IP3.
pub fn hybrid(ip4_degree: u32, ip3_share: f64, size: Bytes, rate: Bandwidth) -> Scenario {
    assert!((0.0..=1.0).contains(&ip3_share), "share must lie in [0, 1]");
    assert!(ip4_degree >= 1, "IP4 needs at least one engine");
    let d1 = 0.6 * ip3_share; // ingress fraction on IP1→IP3
    let d2 = 0.6 * (1.0 - ip3_share); // ingress fraction on IP1→IP4
    let mut b = ExecutionGraph::builder("panic-model3");
    let ing = b.ingress("rx");
    let rmt = b.ip("rmt", Panic::rmt_params(size));
    let sched = b.ip("scheduler", Panic::scheduler_params(size));
    let ip1 = b.ip(
        "ip1",
        IpParams::new(Bandwidth::gbps(60.0))
            .with_parallelism(4)
            .with_queue_capacity(64),
    );
    let ip2 = b.ip(
        "ip2",
        IpParams::new(Bandwidth::gbps(40.0))
            .with_parallelism(4)
            .with_queue_capacity(64),
    );
    let ip3 = b.ip(
        "ip3",
        IpParams::new(Bandwidth::gbps(40.0))
            .with_parallelism(4)
            .with_queue_capacity(64),
    );
    let ip4 = b.ip(
        "ip4",
        IpParams::new(ip4_engine_rate() * ip4_degree as f64)
            .with_parallelism(ip4_degree)
            .with_queue_capacity(64),
    );
    let eg = b.egress("tx");
    let e = |d: f64| {
        EdgeParams::new(d)
            .expect("valid")
            .with_interface_fraction(d * 0.2)
    };
    b.edge(ing, rmt, e(1.0));
    b.edge(rmt, sched, e(1.0));
    b.edge(sched, ip1, e(0.6));
    b.edge(sched, ip2, e(0.4));
    b.edge(ip1, ip3, e(d1));
    b.edge(ip1, ip4, e(d2));
    b.edge(ip2, ip4, e(0.4));
    b.edge(ip3, eg, e(d1));
    b.edge(ip4, eg, e(d2 + 0.4));
    let graph = b.build().expect("model-3 graph is valid by construction");
    Scenario::new(
        &format!("panic-hybrid-d{ip4_degree}-{ip3_share:.1}"),
        graph,
        Panic::hardware(),
        TrafficProfile::fixed(rate, size),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const OFFERED: f64 = 80.0;
    /// The credit scan drives the chain at the full line rate so the
    /// compute units' 89.6 Gb/s feed link (not the offered load) is
    /// the saturation reference.
    const CREDIT_OFFERED: f64 = 100.0;

    #[test]
    fn equal_bandwidth_profile_mean_sizes() {
        // Profile 1 (64/512 equal bytes): mean packet ≈ 113.8 B.
        let t = equal_bandwidth_profile(CREDIT_PROFILES[0], Bandwidth::gbps(10.0));
        assert!((t.sizes().mean_size().as_f64() - 114.0).abs() <= 1.0);
    }

    #[test]
    fn fewer_credits_reduce_model_throughput() {
        let rate = Bandwidth::gbps(CREDIT_OFFERED);
        let att = |c: u32| {
            pipelined_chain(c, CREDIT_PROFILES[0], rate)
                .estimator()
                .throughput()
                .unwrap()
                .attainable()
                .as_bps()
        };
        assert!(att(1) < att(3));
        assert!(att(3) < att(5));
        assert!(
            (att(5) - att(8)).abs() / att(8) < 0.005,
            "saturated by 5 credits"
        );
    }

    #[test]
    fn steering_lognic_split_is_proportional() {
        assert!((lognic_steering_split() - 0.56).abs() < 1e-9);
    }

    #[test]
    fn steering_lognic_beats_static_splits_in_model_throughput() {
        let rate = Bandwidth::gbps(OFFERED);
        let size = Bytes::new(512);
        let tput = |x: f64| {
            steering(x, size, rate)
                .estimator()
                .throughput()
                .unwrap()
                .attainable()
                .as_bps()
        };
        let ours = tput(lognic_steering_split());
        for x in STATIC_SPLITS {
            assert!(ours >= tput(x), "x={x}");
        }
        // The extreme splits are far worse.
        assert!(ours / tput(0.1) > 1.5);
    }

    #[test]
    fn steering_bottleneck_shifts_with_split() {
        let rate = Bandwidth::gbps(OFFERED);
        let size = Bytes::new(512);
        // A3 binds when starved of share going to A2... i.e. when A3
        // receives 0.7 of traffic at x = 0.1.
        let est = steering(0.1, size, rate).estimator().throughput().unwrap();
        let b = est.bottleneck();
        assert!(format!("{}", b.component).contains("a3"), "{}", b.component);
    }

    #[test]
    #[should_panic(expected = "[0, 0.8]")]
    fn steering_rejects_bad_split() {
        let _ = steering(0.9, Bytes::new(64), Bandwidth::gbps(10.0));
    }

    #[test]
    fn hybrid_has_three_paths() {
        let s = hybrid(4, 0.5, Bytes::new(1024), Bandwidth::gbps(10.0));
        assert_eq!(s.graph.paths().unwrap().len(), 3);
        let total: f64 = s.graph.paths().unwrap().iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hybrid_throughput_grows_then_saturates_with_degree() {
        let rate = Bandwidth::gbps(OFFERED);
        let size = Bytes::new(1024);
        let att = |d: u32| {
            hybrid(d, 0.5, size, rate)
                .estimator()
                .throughput()
                .unwrap()
                .attainable()
                .as_bps()
        };
        assert!(att(2) > att(1));
        assert!(att(6) > att(4));
        assert!((att(7) - att(6)).abs() / att(6) < 0.005);
    }
}
