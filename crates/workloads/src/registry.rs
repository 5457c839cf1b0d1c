//! The single scenario registry: every named workload the tooling
//! exposes, in one place.
//!
//! `trace_dump --workload <name>` and the `lognic-lint` clean fixture
//! set used to hardcode their own scenario lists, which silently
//! drifted apart as workloads were added. Both now resolve through
//! this registry, so a new corpus entry automatically appears in the
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

/// A typed handle to one registered workload.
///
/// The registry's consumers fall into two camps: boundaries that
/// receive *strings* (`trace_dump --workload <name>`, the `graph`
/// field of a serve request) and internal code that wants a scenario
/// it already knows exists. Boundaries parse once via
/// [`ScenarioId::parse`] and get a typed handle or a typed miss;
/// everything past the parse moves `Copy`able ids around instead of
/// re-validating strings, so an unknown workload can only be reported
/// at the edge, never deep inside a sweep.
///
/// Variants are declared in registry display order — the same order
/// as [`ALL`] — which a test pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioId {
    /// §4.2 inline-accel pipeline under an accelerator brownout.
    Chaos,
    /// §4.4 E3 NFV-FIN microservice chain.
    Microservices,
    /// §4.3 Stingray NVMe-oF target.
    Nvmeof,
    /// §5.3 NetCache-style in-network KV cache.
    SwitchKv,
    /// §4.2 LiquidIO-II inline ZIP offload.
    Compression,
    /// §4.5 BlueField-2 NF chain.
    NfPlacement,
    /// §4.6 PANIC pipelined accelerator chain.
    PanicChain,
    /// Protocol corpus: TLS 1.3 handshake records.
    TlsHandshake,
    /// Protocol corpus: DNS/KV request-response.
    DnsKv,
    /// Protocol corpus: NVMe/SMB storage RPC.
    StorageRpc,
    /// Protocol corpus: HTTP/2 multiplexed streams.
    Http2Mux,
}

impl ScenarioId {
    /// Every id, in registry display order.
    pub const ALL: [ScenarioId; 11] = [
        ScenarioId::Chaos,
        ScenarioId::Microservices,
        ScenarioId::Nvmeof,
        ScenarioId::SwitchKv,
        ScenarioId::Compression,
        ScenarioId::NfPlacement,
        ScenarioId::PanicChain,
        ScenarioId::TlsHandshake,
        ScenarioId::DnsKv,
        ScenarioId::StorageRpc,
        ScenarioId::Http2Mux,
    ];

    /// The stable registry name (the wire/CLI spelling).
    pub const fn name(self) -> &'static str {
        match self {
            ScenarioId::Chaos => "chaos",
            ScenarioId::Microservices => "microservices",
            ScenarioId::Nvmeof => "nvmeof",
            ScenarioId::SwitchKv => "switch-kv",
            ScenarioId::Compression => "compression",
            ScenarioId::NfPlacement => "nf-placement",
            ScenarioId::PanicChain => "panic-chain",
            ScenarioId::TlsHandshake => "tls-handshake",
            ScenarioId::DnsKv => "dns-kv",
            ScenarioId::StorageRpc => "storage-rpc",
            ScenarioId::Http2Mux => "http2-mux",
        }
    }

    /// Resolves a registry name to its typed id. This is the *only*
    /// string-to-id crossing; boundary code calls it exactly once.
    pub fn parse(name: &str) -> Option<ScenarioId> {
        ScenarioId::ALL.into_iter().find(|id| id.name() == name)
    }

    /// The registry row behind this id.
    pub fn entry(self) -> &'static RegistryEntry {
        &ALL[self as usize]
    }

    /// Builds the scenario and its bundled fault plan (if any).
    pub fn build(self) -> (Scenario, Option<FaultPlan>) {
        self.entry().build()
    }

    /// Builds just the scenario.
    pub fn scenario(self) -> Scenario {
        self.entry().scenario()
    }
}

impl core::fmt::Display for ScenarioId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

impl core::str::FromStr for ScenarioId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ScenarioId::parse(s).ok_or_else(|| {
            format!(
                "unknown workload {s:?} (expected one of: {})",
                names().join(", ")
            )
        })
    }
}

/// One registered workload: a named constructor plus provenance.
#[derive(Debug, Clone, Copy)]
pub struct RegistryEntry {
    /// The stable lookup name (`trace_dump --workload <name>`).
    pub name: &'static str,
    /// One-line provenance: which paper section or protocol family
    /// the scenario reproduces.
    pub provenance: &'static str,
    build: fn() -> (Scenario, Option<FaultPlan>),
}

impl RegistryEntry {
    /// Builds the scenario and its fault plan (if the workload ships
    /// with one).
    pub fn build(&self) -> (Scenario, Option<FaultPlan>) {
        (self.build)()
    }

    /// Builds just the scenario.
    pub fn scenario(&self) -> Scenario {
        self.build().0
    }
}

fn chaos_entry() -> (Scenario, Option<FaultPlan>) {
    // The exact trace_dump default: outage + brownout inside a 12 ms
    // horizon. Changing these arguments changes the perf-smoke trace
    // artifact, so they are pinned here rather than at the call site.
    let chaos = accelerator_brownout(
        Bandwidth::gbps(8.0),
        Seconds::millis(4.0),
        Seconds::millis(2.0),
        Seconds::millis(3.0),
    );
    (chaos.scenario, Some(chaos.plan))
}

fn microservices_entry() -> (Scenario, Option<FaultPlan>) {
    (
        microservices::scenario(App::NfvFin, AllocationScheme::RoundRobin, 2.0e6),
        None,
    )
}

fn nvmeof_entry() -> (Scenario, Option<FaultPlan>) {
    (
        nvmeof::nvmeof(IoPattern::RandRead4k, Bandwidth::gbps(5.0)),
        None,
    )
}

fn switch_kv_entry() -> (Scenario, Option<FaultPlan>) {
    (switch_kv::netcache(0.8, Bandwidth::gbps(1.0)), None)
}

fn compression_entry() -> (Scenario, Option<FaultPlan>) {
    (
        compression::compress(0.5, 8, Bytes::new(4096), Bandwidth::gbps(1.0)),
        None,
    )
}

fn nf_placement_entry() -> (Scenario, Option<FaultPlan>) {
    (
        nf_placement::scenario(
            Placement::arm_only(),
            Bytes::new(1024),
            Bandwidth::gbps(1.0),
        ),
        None,
    )
}

fn panic_entry() -> (Scenario, Option<FaultPlan>) {
    (
        panic_scenarios::pipelined_chain(64, &[1500], Bandwidth::gbps(1.0)),
        None,
    )
}

fn tls_entry() -> (Scenario, Option<FaultPlan>) {
    (corpus::tls_handshake(Bandwidth::gbps(4.0)), None)
}

fn dns_kv_entry() -> (Scenario, Option<FaultPlan>) {
    (corpus::dns_kv(Bandwidth::gbps(4.0)), None)
}

fn storage_rpc_entry() -> (Scenario, Option<FaultPlan>) {
    (corpus::storage_rpc(Bandwidth::gbps(6.0)), None)
}

fn http2_mux_entry() -> (Scenario, Option<FaultPlan>) {
    (corpus::http2_mux(Bandwidth::gbps(6.0)), None)
}

/// Every registered workload, in display order: the paper's case
/// studies first, then the protocol corpus.
pub const ALL: &[RegistryEntry] = &[
    RegistryEntry {
        name: "chaos",
        provenance: "§4.2 inline-accel pipeline under an accelerator brownout with retry/backoff",
        build: chaos_entry,
    },
    RegistryEntry {
        name: "microservices",
        provenance: "§4.4 E3 NFV-FIN microservice chain, round-robin core allocation",
        build: microservices_entry,
    },
    RegistryEntry {
        name: "nvmeof",
        provenance: "§4.3 Stingray NVMe-oF target, random 4 KiB reads",
        build: nvmeof_entry,
    },
    RegistryEntry {
        name: "switch-kv",
        provenance: "§5.3 NetCache-style in-network KV cache on an RMT switch (80% hit rate)",
        build: switch_kv_entry,
    },
    RegistryEntry {
        name: "compression",
        provenance: "§4.2 LiquidIO-II inline ZIP offload, 2:1 ratio on 4 KiB blocks",
        build: compression_entry,
    },
    RegistryEntry {
        name: "nf-placement",
        provenance: "§4.5 BlueField-2 NF chain, ARM-only placement",
        build: nf_placement_entry,
    },
    RegistryEntry {
        name: "panic-chain",
        provenance: "§4.6 PANIC pipelined accelerator chain, 64 B offload units",
        build: panic_entry,
    },
    RegistryEntry {
        name: "tls-handshake",
        provenance: "protocol corpus: TLS 1.3 handshake records through inline asymmetric crypto",
        build: tls_entry,
    },
    RegistryEntry {
        name: "dns-kv",
        provenance: "protocol corpus: DNS/KV request-response (NetCache/λ-NIC small-packet shape)",
        build: dns_kv_entry,
    },
    RegistryEntry {
        name: "storage-rpc",
        provenance:
            "protocol corpus: NVMe/SMB storage RPC with 4 KiB blocks over a dedicated DMA fabric",
        build: storage_rpc_entry,
    },
    RegistryEntry {
        name: "http2-mux",
        provenance:
            "protocol corpus: HTTP/2 multiplexed streams, control/data frame mixture over fan-out",
        build: http2_mux_entry,
    },
];

/// Looks a workload up by its registry name (string boundary;
/// internal code should hold a [`ScenarioId`] instead).
pub fn find(name: &str) -> Option<&'static RegistryEntry> {
    ScenarioId::parse(name).map(ScenarioId::entry)
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
            let (scenario, _plan) = entry.build();
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
    fn scenario_ids_mirror_the_registry_in_order() {
        assert_eq!(ScenarioId::ALL.len(), ALL.len());
        for (i, id) in ScenarioId::ALL.into_iter().enumerate() {
            assert_eq!(id as usize, i, "{id:?} out of declaration order");
            assert_eq!(id.name(), ALL[i].name, "id/registry order mismatch");
            assert_eq!(ScenarioId::parse(id.name()), Some(id));
            assert_eq!(id.to_string(), id.name());
            assert_eq!(id.entry().name, ALL[i].name);
        }
        assert_eq!(ScenarioId::parse("no-such-workload"), None);
        let err = "bogus".parse::<ScenarioId>().unwrap_err();
        assert!(err.contains("chaos"), "error lists valid names: {err}");
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

    #[test]
    fn chaos_entry_carries_the_trace_dump_default_plan() {
        let (scenario, plan) = find("chaos").expect("registered").build();
        assert!(plan.is_some(), "chaos must ship its fault plan");
        assert_eq!(scenario.traffic.ingress_bandwidth(), Bandwidth::gbps(8.0));
    }
}
