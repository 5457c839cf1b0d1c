//! The single scenario registry: every named workload the tooling
//! exposes, in one place.
//!
//! `trace_dump --workload <name>`, the `lognic-lint` clean fixture set
//! and the `lognic` CLI used to hardcode their own scenario lists,
//! which silently drifted apart as workloads were added. All of them,
//! and `lognic serve`, now resolve through this registry, so a new
//! corpus entry automatically appears in the CLI, the service, the
//! trace exporter, the lint clean set, the README corpus table and
//! the corpus round-trip tests.
//!
//! Each entry carries a one-line provenance string (where the shape
//! comes from — paper section or protocol family) that doubles as the
//! README table's description column.

use crate::chaos::accelerator_brownout;
use crate::corpus;
use crate::microservices::{self, AllocationScheme, App};
use crate::nf_placement::{self, Placement};
use crate::scenario::Scenario;
use crate::{compression, nvmeof, panic_scenarios, switch_kv};
use lognic_devices::stingray::IoPattern;
use lognic_model::fault::FaultPlan;
use lognic_model::units::{Bandwidth, Bytes, Seconds};

/// One registered workload: a named constructor plus provenance.
#[derive(Debug, Clone, Copy)]
pub struct RegistryEntry {
    /// The stable lookup name (`trace_dump --workload <name>`).
    pub name: &'static str,
    /// One-line provenance: which paper section or protocol family
    /// the scenario reproduces.
    pub provenance: &'static str,
    build: fn() -> Scenario,
}

impl RegistryEntry {
    /// Builds the scenario with a copy of its fault plan beside it.
    /// The plan is [`Scenario::faults`]; prefer
    /// [`RegistryEntry::scenario`].
    pub fn build(&self) -> (Scenario, Option<FaultPlan>) {
        let scenario = self.scenario();
        let plan = scenario.faults.clone();
        (scenario, plan)
    }

    /// Builds the scenario, carrying its fault plan if the workload
    /// ships one.
    pub fn scenario(&self) -> Scenario {
        (self.build)()
    }
}

/// Every registered workload, in display order: the paper's case
/// studies first, then the protocol corpus.
pub const ALL: &[RegistryEntry] = &[
    RegistryEntry {
        name: "chaos",
        provenance: "§4.2 inline-accel pipeline under an accelerator brownout with retry/backoff",
        // The exact trace_dump default: outage + brownout inside a
        // 12 ms horizon. Changing these arguments changes the
        // perf-smoke trace artifact, so they are pinned here rather
        // than at the call site.
        build: || {
            accelerator_brownout(
                Bandwidth::gbps(8.0),
                Seconds::millis(4.0),
                Seconds::millis(2.0),
                Seconds::millis(3.0),
            )
        },
    },
    RegistryEntry {
        name: "microservices",
        provenance: "§4.4 E3 NFV-FIN microservice chain, round-robin core allocation",
        build: || microservices::scenario(App::NfvFin, AllocationScheme::RoundRobin, 2.0e6),
    },
    RegistryEntry {
        name: "nvmeof",
        provenance: "§4.3 Stingray NVMe-oF target, random 4 KiB reads",
        build: || nvmeof::nvmeof(IoPattern::RandRead4k, Bandwidth::gbps(5.0)),
    },
    RegistryEntry {
        name: "switch-kv",
        provenance: "§5.3 NetCache-style in-network KV cache on an RMT switch (80% hit rate)",
        build: || switch_kv::netcache(0.8, Bandwidth::gbps(1.0)),
    },
    RegistryEntry {
        name: "compression",
        provenance: "§4.2 LiquidIO-II inline ZIP offload, 2:1 ratio on 4 KiB blocks",
        build: || compression::compress(0.5, 8, Bytes::new(4096), Bandwidth::gbps(1.0)),
    },
    RegistryEntry {
        name: "nf-placement",
        provenance: "§4.5 BlueField-2 NF chain, ARM-only placement",
        build: || {
            nf_placement::scenario(
                Placement::arm_only(),
                Bytes::new(1024),
                Bandwidth::gbps(1.0),
            )
        },
    },
    RegistryEntry {
        name: "panic-chain",
        provenance: "§4.6 PANIC pipelined accelerator chain, 64 B offload units",
        build: || panic_scenarios::pipelined_chain(64, &[1500], Bandwidth::gbps(1.0)),
    },
    RegistryEntry {
        name: "tls-handshake",
        provenance: "protocol corpus: TLS 1.3 handshake records through inline asymmetric crypto",
        build: || corpus::tls_handshake(Bandwidth::gbps(4.0)),
    },
    RegistryEntry {
        name: "dns-kv",
        provenance: "protocol corpus: DNS/KV request-response (NetCache/λ-NIC small-packet shape)",
        build: || corpus::dns_kv(Bandwidth::gbps(4.0)),
    },
    RegistryEntry {
        name: "storage-rpc",
        provenance:
            "protocol corpus: NVMe/SMB storage RPC with 4 KiB blocks over a dedicated DMA fabric",
        build: || corpus::storage_rpc(Bandwidth::gbps(6.0)),
    },
    RegistryEntry {
        name: "http2-mux",
        provenance:
            "protocol corpus: HTTP/2 multiplexed streams, control/data frame mixture over fan-out",
        build: || corpus::http2_mux(Bandwidth::gbps(6.0)),
    },
];

/// Looks a workload up by its registry name.
pub fn find(name: &str) -> Option<&'static RegistryEntry> {
    ALL.iter().find(|e| e.name == name)
}

/// The registered names, in display order.
pub fn names() -> Vec<&'static str> {
    ALL.iter().map(|e| e.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_builds_and_names_are_unique() {
        let mut seen = Vec::new();
        for entry in ALL {
            assert!(!seen.contains(&entry.name), "duplicate {}", entry.name);
            seen.push(entry.name);
            let scenario = entry.scenario();
            assert!(
                !scenario.name.is_empty(),
                "{}: scenario has no name",
                entry.name
            );
            assert!(!entry.provenance.is_empty());
            // Every registered scenario must estimate (the lint set
            // derates via the estimator).
            entry
                .scenario()
                .estimate()
                .unwrap_or_else(|e| panic!("{}: does not estimate: {e}", entry.name));
        }
    }

    #[test]
    fn find_resolves_registered_names() {
        assert!(find("chaos").is_some());
        assert!(find("tls-handshake").is_some());
        assert!(find("http2-mux").is_some());
        assert!(find("no-such-workload").is_none());
        assert_eq!(names().len(), ALL.len());
    }

    #[test]
    fn node_service_is_node_timing_service_bit_for_bit() {
        use lognic_model::latency::{node_service, node_timing};
        let mut rescaled = 0;
        for entry in ALL {
            let s = entry.scenario();
            let (graph, traffic) = (&s.graph, &s.traffic);
            // Every granularity the latency walk reaches a vertex at:
            // each size class's, rescaled by the edges (compression)
            // along each path.
            let mut granularities = Vec::new();
            for path in graph.paths().expect("registry graphs have paths") {
                for (size, _) in traffic.sizes().entries() {
                    let class = traffic.granularity_for(*size);
                    let mut g = class;
                    granularities.push(g);
                    for eid in &path.edges {
                        g = g.scaled(graph.edge(*eid).params().size_factor());
                        if g != class {
                            rescaled += 1;
                        }
                        granularities.push(g);
                    }
                }
            }
            for vertex in graph.nodes() {
                let node = graph.node_by_name(vertex.name()).expect("names resolve");
                for &g in &granularities {
                    let service = node_service(graph, node, g);
                    let timing = node_timing(graph, node, traffic, g).map(|t| t.service);
                    assert_eq!(
                        service.map(|s| s.as_secs().to_bits()),
                        timing.map(|s| s.as_secs().to_bits()),
                        "{}: {} at {g:?}",
                        entry.name,
                        vertex.name()
                    );
                }
            }
        }
        assert!(rescaled > 0, "some registry graph must rescale requests");
    }

    /// `Scenario::analyze` is the analyzer over the graph, hardware,
    /// traffic and bundled plan, and `build()`'s plan is a copy of the
    /// scenario's.
    #[test]
    fn scenario_analysis_lints_the_bundled_plan() {
        use lognic_model::analyze::{AnalysisConfig, Analyzer};
        for entry in ALL {
            let scenario = entry.scenario();
            let (built, plan) = entry.build();
            assert_eq!(plan, scenario.faults, "{}", entry.name);
            assert_eq!(built.faults, scenario.faults, "{}", entry.name);
            for config in [
                AnalysisConfig::new(),
                AnalysisConfig::new().deny_warnings(true),
            ] {
                let analyzer = Analyzer::new(&scenario.graph)
                    .with_hardware(&scenario.hardware)
                    .with_traffic(&scenario.traffic);
                let by_hand = match &plan {
                    Some(p) => analyzer.with_fault_plan(p),
                    None => analyzer,
                }
                .run(&config);
                assert_eq!(scenario.analyze(&config), by_hand, "{}", entry.name);
            }
        }
    }

    #[test]
    fn chaos_entry_carries_the_trace_dump_default_plan() {
        let scenario = find("chaos").expect("registered").scenario();
        assert!(scenario.faults.is_some(), "chaos must ship its fault plan");
        assert_eq!(scenario.traffic.ingress_bandwidth(), Bandwidth::gbps(8.0));
    }
}
