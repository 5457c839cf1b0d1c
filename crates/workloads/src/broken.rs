//! Deliberately broken scenarios: the analyzer's regression corpus.
//!
//! Each [`BrokenCase`] is a misconfiguration users actually write — a
//! traffic split that loses flow, a partition that saturates before
//! the run starts, consolidated tenants that can deadlock — paired
//! with the diagnostic codes the analyzer must raise for it. The
//! `lognic-lint` CLI ships them as its `broken` fixture set, and the
//! golden-rendering tests pin their human and JSON output.

use lognic_model::analyze::Code;
use lognic_model::fault::FaultPlan;
use lognic_model::graph::ExecutionGraph;
use lognic_model::params::{EdgeParams, HardwareModel, IpParams, TrafficProfile};
use lognic_model::units::{Bandwidth, Bytes, Seconds};

use crate::scenario::Scenario;

/// One curated misconfiguration and the codes it must trip.
#[derive(Debug, Clone)]
pub struct BrokenCase {
    /// The scenario, named after its defect. Its fault plan carries
    /// the defect when that lives in the chaos schedule.
    pub scenario: Scenario,
    /// The diagnostic codes the analyzer must report for this case.
    pub expect: &'static [Code],
}

fn hw() -> HardwareModel {
    HardwareModel::new(Bandwidth::gbps(400.0), Bandwidth::gbps(300.0))
}

fn traffic(gbps: f64) -> TrafficProfile {
    TrafficProfile::fixed(Bandwidth::gbps(gbps), Bytes::new(1500))
}

/// Conservation violations: a parser that amplifies traffic out of
/// thin air, a starved scrubber behind a zero-δ edge, and an edge
/// charging the interface for data that never flows.
pub fn leaky_pipeline() -> BrokenCase {
    let mut b = ExecutionGraph::builder("leaky-pipeline");
    let ing = b.ingress("in");
    let parser = b.ip("parser", IpParams::new(Bandwidth::gbps(100.0)));
    let scrubber = b.ip("scrubber", IpParams::new(Bandwidth::gbps(100.0)));
    let eg = b.egress("out");
    b.edge(ing, parser, EdgeParams::new(0.4).unwrap());
    b.edge(parser, eg, EdgeParams::new(1.0).unwrap());
    b.edge(ing, scrubber, EdgeParams::new(0.0).unwrap());
    b.edge(
        scrubber,
        eg,
        EdgeParams::new(0.0).unwrap().with_interface_fraction(0.3),
    );
    BrokenCase {
        scenario: Scenario::new("leaky-pipeline", b.build().unwrap(), hw(), traffic(10.0)),
        expect: &[
            Code::TrafficCreated,
            Code::StarvedNode,
            Code::MediumOnEmptyEdge,
        ],
    }
}

/// A 4 KB-random-read NVMe-oF target offered twice what its SSD
/// partition can absorb: ρ ≥ 1 on the compute bound before any
/// simulation is run.
pub fn saturated_nvmeof() -> BrokenCase {
    use lognic_devices::stingray::IoPattern;
    let mut scenario = crate::nvmeof::nvmeof(IoPattern::RandRead4k, Bandwidth::gbps(1.0));
    let est = scenario.estimate().expect("nvmeof scenario estimates");
    let sat = est
        .throughput
        .saturation_bound()
        .expect("nvmeof has a capacity bound")
        .limit;
    scenario.traffic = scenario.traffic.at_rate(sat * 2.0);
    scenario.name = "saturated-nvmeof".to_owned();
    BrokenCase {
        scenario,
        expect: &[Code::SaturatedPartition],
    }
}

/// Two consolidated tenants traversing shared crypto and compression
/// engines in opposite orders: a credit cycle that can deadlock under
/// back-pressure, on engines whose queues cannot even feed all their
/// lanes.
pub fn deadlocked_tenants() -> BrokenCase {
    let engine = |peak: f64| {
        IpParams::new(Bandwidth::gbps(peak))
            .with_partition(0.5)
            .with_parallelism(16)
            .with_queue_capacity(8)
    };
    let mut b = ExecutionGraph::builder("deadlocked-tenants");
    let ing = b.ingress("in");
    let c1 = b.ip("crypto", engine(80.0));
    let z1 = b.ip("zip", engine(60.0));
    let z2 = b.ip("zip", engine(60.0));
    let c2 = b.ip("crypto", engine(80.0));
    let eg = b.egress("out");
    b.edge(ing, c1, EdgeParams::new(0.5).unwrap());
    b.edge(c1, z1, EdgeParams::new(0.5).unwrap());
    b.edge(z1, eg, EdgeParams::new(0.5).unwrap());
    b.edge(ing, z2, EdgeParams::new(0.5).unwrap());
    b.edge(z2, c2, EdgeParams::new(0.5).unwrap());
    b.edge(c2, eg, EdgeParams::new(0.5).unwrap());
    BrokenCase {
        scenario: Scenario::new(
            "deadlocked-tenants",
            b.build().unwrap(),
            hw(),
            traffic(20.0),
        ),
        expect: &[Code::CreditCycle, Code::QueueBelowParallelism],
    }
}

/// A profile whose quantities are dimensionally degenerate: a
/// zero-bandwidth memory, a zero offered rate, and an edge whose data
/// teleports (δ > 0 with no medium).
pub fn degenerate_units() -> BrokenCase {
    let mut b = ExecutionGraph::builder("degenerate-units");
    let ing = b.ingress("in");
    let core = b.ip("core", IpParams::new(Bandwidth::gbps(50.0)));
    let eg = b.egress("out");
    b.edge(ing, core, EdgeParams::full());
    b.edge(core, eg, EdgeParams::full().with_interface_fraction(0.0));
    BrokenCase {
        scenario: Scenario::new(
            "degenerate-units",
            b.build().unwrap(),
            HardwareModel::new(Bandwidth::gbps(400.0), Bandwidth::ZERO),
            TrafficProfile::fixed(Bandwidth::ZERO, Bytes::new(1500)),
        ),
        expect: &[
            Code::DegenerateMedium,
            Code::ZeroIngressRate,
            Code::EdgeWithoutMedium,
        ],
    }
}

/// Three tenants packed onto one physical core complex: their γ
/// partitions sum to 1.5 and their joint demand exceeds the engine's
/// peak even though each fits alone.
pub fn oversubscribed_consolidation() -> BrokenCase {
    let core = |gamma: f64| {
        IpParams::new(Bandwidth::gbps(30.0))
            .with_partition(gamma)
            .with_queue_capacity(64)
    };
    let mut b = ExecutionGraph::builder("oversubscribed-consolidation");
    let ing = b.ingress("in");
    let t1 = b.ip("arm-cores", core(0.5));
    let t2 = b.ip("arm-cores", core(0.5));
    let t3 = b.ip("arm-cores", core(0.5));
    let eg = b.egress("out");
    for t in [t1, t2, t3] {
        b.edge(ing, t, EdgeParams::new(1.0 / 3.0).unwrap());
        b.edge(t, eg, EdgeParams::new(1.0 / 3.0).unwrap());
    }
    BrokenCase {
        scenario: Scenario::new(
            "oversubscribed-consolidation",
            b.build().unwrap(),
            hw(),
            traffic(100.0),
        ),
        expect: &[Code::OversubscribedPartition, Code::ConsolidationOverload],
    }
}

/// A chaos schedule misaligned with the data path: one window targets
/// a node that does not exist, another a node traffic never reaches,
/// two overlap, and the retry budget is zero for a loss-inducing drop.
pub fn dead_chaos() -> BrokenCase {
    use lognic_model::fault::RetryPolicy;
    let mut b = ExecutionGraph::builder("dead-chaos");
    let ing = b.ingress("in");
    let live = b.ip("datapath", IpParams::new(Bandwidth::gbps(50.0)));
    let idle = b.ip("standby", IpParams::new(Bandwidth::gbps(50.0)));
    let eg = b.egress("out");
    b.edge(ing, live, EdgeParams::full());
    b.edge(live, eg, EdgeParams::full());
    b.edge(ing, idle, EdgeParams::new(0.0).unwrap());
    b.edge(idle, eg, EdgeParams::new(0.0).unwrap());
    let plan = FaultPlan::new()
        .outage("standby", Seconds::ZERO, Seconds::millis(5.0))
        .outage("ghost", Seconds::ZERO, Seconds::millis(1.0))
        .drop_packets("datapath", 0.2, Seconds::millis(1.0), Seconds::millis(4.0))
        .drop_packets("datapath", 0.2, Seconds::millis(3.0), Seconds::millis(6.0))
        .with_retry(RetryPolicy::new(0, Seconds::micros(10.0)));
    BrokenCase {
        scenario: Scenario {
            faults: Some(plan),
            ..Scenario::new("dead-chaos", b.build().unwrap(), hw(), traffic(10.0))
        },
        expect: &[
            Code::DeadFaultWindow,
            Code::FaultUnknownNode,
            Code::FaultOverlappingWindows,
            Code::FaultZeroRetryBudget,
        ],
    }
}

/// Every curated broken case, in rendering order.
pub fn all_broken() -> Vec<BrokenCase> {
    vec![
        leaky_pipeline(),
        saturated_nvmeof(),
        deadlocked_tenants(),
        degenerate_units(),
        oversubscribed_consolidation(),
        dead_chaos(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lognic_model::analyze::AnalysisConfig;
    use std::collections::BTreeSet;

    #[test]
    fn every_case_trips_exactly_its_expected_codes() {
        for case in all_broken() {
            let report = case.scenario.analyze(&AnalysisConfig::default());
            let got: BTreeSet<&str> = report
                .diagnostics()
                .iter()
                .map(|d| d.code.as_str())
                .collect();
            for code in case.expect {
                assert!(
                    got.contains(code.as_str()),
                    "case `{}` missing {} — reported {:?}",
                    case.scenario.name,
                    code.as_str(),
                    got
                );
            }
        }
    }

    #[test]
    fn corpus_covers_all_six_pass_families() {
        let mut families = BTreeSet::new();
        for case in all_broken() {
            let report = case.scenario.analyze(&AnalysisConfig::default());
            for d in report.diagnostics() {
                families.insert(&d.code.as_str()[..3]);
            }
        }
        for family in ["L01", "L02", "L03", "L04", "L05", "L06"] {
            assert!(families.contains(family), "missing family {family}");
        }
    }

    #[test]
    fn every_case_is_rejected_under_deny_warnings() {
        let strict = AnalysisConfig::default().deny_warnings(true);
        for case in all_broken() {
            assert!(
                case.scenario.analyze(&strict).is_rejected(),
                "case `{}` not rejected under --deny warnings",
                case.scenario.name
            );
        }
    }
}
