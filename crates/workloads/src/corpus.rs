//! The protocol workload corpus: request-shaped scenarios beyond the
//! paper's five case studies.
//!
//! The LogNIC validation (§4) runs on curated accelerator pipelines;
//! the application breadth that motivates the model — λ-NIC's
//! per-request serverless NFs, NetCache-style in-network services,
//! storage targets — is request/response traffic with protocol-shaped
//! size mixtures. This module contributes four such scenarios, each a
//! [`Scenario`] driving both the analytical model and the simulator,
//! and each registered in [`crate::registry`] so `trace_dump`, the
//! `lognic-lint` clean fixture set and the corpus tests all see them
//! automatically:
//!
//! * [`tls_handshake`] — inline asymmetric crypto on handshake
//!   records (the LiquidIO-II crypto-offload shape of §4.2, applied
//!   to TLS 1.3 record sizes);
//! * [`dns_kv`] — a small-packet request/response service in the
//!   NetCache/λ-NIC mold: parse, hash lookup, respond;
//! * [`storage_rpc`] — an NVMe/SMB-style storage target: command
//!   capsules and 4 KiB data blocks crossing a dedicated DMA fabric
//!   (the Stingray shape of §4.3 without the SSD state machine);
//! * [`http2_mux`] — multiplexed streams: a frame demultiplexer
//!   fanning out to parallel stream processors, mixing tiny control
//!   frames with MTU and bulk data frames.
//!
//! The random-scenario generator that fuzzes the analyzer → engines →
//! model pipeline lives in the [`gen`] submodule.

pub mod gen;

use crate::scenario::Scenario;
use lognic_model::graph::ExecutionGraph;
use lognic_model::params::{EdgeParams, HardwareModel, IpParams, PacketSizeDist, TrafficProfile};
use lognic_model::units::{Bandwidth, Bytes, Seconds};

/// TLS-handshake inline crypto: NIC cores parse handshake records and
/// hand the asymmetric work (signature, key exchange) to a crypto
/// engine, the §4.2 bump-in-the-wire shape at TLS 1.3 record sizes —
/// small ClientHello/Finished records mixed with multi-KiB
/// certificate chains.
///
/// The crypto engine is the deliberate bottleneck: its peak is far
/// below the parser cores', and its per-record overhead models the
/// fixed cost of scheduling a private-key operation. (Overheads here
/// are kept small relative to the per-record service time: the
/// analytical throughput bound charges only `P_vi`, so a dominant
/// overhead would open a model-vs-sim gap by construction.)
pub fn tls_handshake(rate: Bandwidth) -> Scenario {
    let sizes = PacketSizeDist::mix([
        // ClientHello / ServerHello records.
        (Bytes::new(512), 0.40),
        // Certificate chains (split across records).
        (Bytes::new(2048), 0.20),
        // CertificateVerify / Finished / session tickets.
        (Bytes::new(128), 0.40),
    ])
    .expect("static mixture is valid");

    let mut b = ExecutionGraph::builder("tls-handshake");
    let ing = b.ingress("rx-port");
    let parser = b.ip(
        "record-parser",
        IpParams::new(Bandwidth::gbps(40.0))
            .with_parallelism(4)
            .with_queue_capacity(128),
    );
    let crypto = b.ip(
        "crypto-engine",
        IpParams::new(Bandwidth::gbps(12.0))
            .with_parallelism(2)
            .with_queue_capacity(64)
            .with_overhead(Seconds::micros(0.2)),
    );
    let eg = b.egress("tx-port");
    b.edge(ing, parser, EdgeParams::full().with_interface_fraction(0.0));
    b.edge(
        parser,
        crypto,
        EdgeParams::full().with_interface_fraction(0.1),
    );
    b.edge(crypto, eg, EdgeParams::full().with_interface_fraction(0.1));
    let graph = b.build().expect("corpus graph is valid by construction");

    Scenario::new(
        "tls-handshake",
        graph,
        HardwareModel::new(Bandwidth::gbps(50.0), Bandwidth::gbps(100.0)),
        TrafficProfile::new(rate, sizes),
    )
}

/// DNS/KV request-response: the λ-NIC / NetCache small-packet shape.
/// A UDP parser feeds a memory-resident hash lookup; the lookup stage
/// leans on the memory subsystem (β = 0.5 on its in-edge), so at high
/// rates the Eq. 3 memory bound — not any compute stage — binds.
pub fn dns_kv(rate: Bandwidth) -> Scenario {
    let sizes = PacketSizeDist::mix([
        // Queries: QNAME + fixed header.
        (Bytes::new(80), 0.55),
        // Responses with a couple of records / small KV values.
        (Bytes::new(240), 0.35),
        // EDNS0 / larger values.
        (Bytes::new(512), 0.10),
    ])
    .expect("static mixture is valid");

    let mut b = ExecutionGraph::builder("dns-kv");
    let ing = b.ingress("rx-port");
    let parser = b.ip(
        "udp-parser",
        IpParams::new(Bandwidth::gbps(25.0))
            .with_parallelism(4)
            .with_queue_capacity(128),
    );
    let lookup = b.ip(
        "kv-lookup",
        IpParams::new(Bandwidth::gbps(15.0))
            .with_parallelism(8)
            .with_queue_capacity(256),
    );
    let eg = b.egress("tx-port");
    b.edge(ing, parser, EdgeParams::full().with_interface_fraction(0.0));
    b.edge(
        parser,
        lookup,
        EdgeParams::full()
            .with_interface_fraction(0.1)
            .with_memory_fraction(0.5),
    );
    b.edge(lookup, eg, EdgeParams::full().with_interface_fraction(0.1));
    let graph = b.build().expect("corpus graph is valid by construction");

    Scenario::new(
        "dns-kv",
        graph,
        HardwareModel::new(Bandwidth::gbps(40.0), Bandwidth::gbps(30.0)),
        TrafficProfile::new(rate, sizes),
    )
}

/// NVMe/SMB-style storage RPC: command capsules and 4 KiB blocks flow
/// through protocol parsing into a DMA engine whose link to the
/// egress is a dedicated fabric (the PCIe/DDR path of the §4.3
/// Stingray target), with a per-command doorbell overhead.
pub fn storage_rpc(rate: Bandwidth) -> Scenario {
    let sizes = PacketSizeDist::mix([
        // Command/response capsules.
        (Bytes::new(192), 0.45),
        // 4 KiB data blocks (with headers).
        (Bytes::new(4224), 0.50),
        // Jumbo multi-block transfers.
        (Bytes::new(8320), 0.05),
    ])
    .expect("static mixture is valid");

    let mut b = ExecutionGraph::builder("storage-rpc");
    let ing = b.ingress("rx-port");
    let proto = b.ip(
        "rpc-parser",
        IpParams::new(Bandwidth::gbps(35.0))
            .with_parallelism(4)
            .with_queue_capacity(128),
    );
    let dma = b.ip(
        "dma-engine",
        IpParams::new(Bandwidth::gbps(20.0))
            .with_parallelism(4)
            .with_queue_capacity(128)
            .with_overhead(Seconds::micros(0.5)),
    );
    let eg = b.egress("tx-port");
    b.edge(ing, proto, EdgeParams::full().with_interface_fraction(0.0));
    b.edge(
        proto,
        dma,
        EdgeParams::full()
            .with_interface_fraction(0.0)
            .with_dedicated_bandwidth(Bandwidth::gbps(32.0)),
    );
    b.edge(dma, eg, EdgeParams::full().with_interface_fraction(0.1));
    let graph = b.build().expect("corpus graph is valid by construction");

    Scenario::new(
        "storage-rpc",
        graph,
        HardwareModel::new(Bandwidth::gbps(60.0), Bandwidth::gbps(100.0)),
        TrafficProfile::new(rate, sizes),
    )
}

/// HTTP/2-style multiplexed streams: a frame demultiplexer splits
/// traffic across two parallel stream processors (δ = 0.5 each), and
/// the size mixture spans tiny HEADERS/WINDOW_UPDATE control frames,
/// MTU-sized DATA frames and 16 KiB bulk DATA frames — the widest
/// size spread in the corpus, which is what stresses the Eq. 4 mean
/// service-size machinery.
pub fn http2_mux(rate: Bandwidth) -> Scenario {
    let sizes = PacketSizeDist::mix([
        // HEADERS / SETTINGS / WINDOW_UPDATE frames.
        (Bytes::new(64), 0.50),
        // MTU-bounded DATA frames.
        (Bytes::new(1380), 0.35),
        // Max-size bulk DATA frames.
        (Bytes::new(16384), 0.15),
    ])
    .expect("static mixture is valid");

    let mut b = ExecutionGraph::builder("http2-mux");
    let ing = b.ingress("rx-port");
    let demux = b.ip(
        "frame-demux",
        IpParams::new(Bandwidth::gbps(30.0))
            .with_parallelism(2)
            .with_queue_capacity(128),
    );
    let s0 = b.ip(
        "stream-proc-0",
        IpParams::new(Bandwidth::gbps(12.0))
            .with_parallelism(4)
            .with_queue_capacity(128),
    );
    let s1 = b.ip(
        "stream-proc-1",
        IpParams::new(Bandwidth::gbps(12.0))
            .with_parallelism(4)
            .with_queue_capacity(128),
    );
    let eg = b.egress("tx-port");
    let half = || EdgeParams::new(0.5).expect("0.5 is a valid delta");
    b.edge(ing, demux, EdgeParams::full().with_interface_fraction(0.0));
    b.edge(demux, s0, half().with_interface_fraction(0.05));
    b.edge(demux, s1, half().with_interface_fraction(0.05));
    b.edge(s0, eg, half().with_interface_fraction(0.05));
    b.edge(s1, eg, half().with_interface_fraction(0.05));
    let graph = b.build().expect("corpus graph is valid by construction");

    Scenario::new(
        "http2-mux",
        graph,
        HardwareModel::new(Bandwidth::gbps(50.0), Bandwidth::gbps(80.0)),
        TrafficProfile::new(rate, sizes),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lognic_model::analyze::AnalysisConfig;
    use lognic_sim::sim::SimConfig;

    fn all_corpus(rate: Bandwidth) -> Vec<Scenario> {
        vec![
            tls_handshake(rate),
            dns_kv(rate),
            storage_rpc(rate),
            http2_mux(rate),
        ]
    }

    /// Half the saturating rate: the posture corpus scenarios ship in.
    fn derate(s: Scenario) -> Scenario {
        let limit = s
            .estimate()
            .expect("corpus scenario estimates")
            .throughput
            .saturation_bound()
            .expect("finite bound")
            .limit;
        let name = s.name.clone();
        let mut d = s.at_rate(limit * 0.5);
        d.name = name;
        d
    }

    #[test]
    fn corpus_scenarios_are_analyzer_clean_when_derated() {
        for s in all_corpus(Bandwidth::gbps(1.0)) {
            let s = derate(s);
            let report = s.analyze(&AnalysisConfig::default().deny_warnings(true));
            assert!(report.is_clean(), "{}: {:?}", s.name, report.diagnostics());
        }
    }

    #[test]
    fn corpus_scenarios_simulate_and_agree_with_the_model() {
        let cfg = SimConfig {
            duration: Seconds::millis(30.0),
            warmup: Seconds::millis(6.0),
            ..SimConfig::default()
        };
        for s in all_corpus(Bandwidth::gbps(1.0)) {
            let s = derate(s);
            let c = s.compare(cfg).expect("derated corpus scenario runs");
            assert!(
                c.throughput_error().abs() < 0.05,
                "{}: model {} sim {} err {}",
                s.name,
                c.model_throughput,
                c.sim_throughput,
                c.throughput_error()
            );
        }
    }

    #[test]
    fn crypto_engine_binds_tls_throughput() {
        let est = tls_handshake(Bandwidth::gbps(30.0))
            .estimator()
            .throughput()
            .expect("estimates");
        // Crypto peak 12 Gb/s with δ = 1 through it.
        assert!(
            est.attainable() <= Bandwidth::gbps(12.0),
            "attainable {}",
            est.attainable()
        );
    }

    #[test]
    fn dns_kv_hits_the_memory_wall() {
        // β = 0.5 over BW_MEM = 30 Gb/s caps the lookup path at
        // 60 Gb/s of offered load — but compute binds earlier; what
        // matters is that the memory term participates in the bound
        // set at all.
        let s = dns_kv(Bandwidth::gbps(10.0));
        let est = s.estimator().throughput().expect("estimates");
        assert!(est.attainable() <= Bandwidth::gbps(15.0));
    }

    #[test]
    fn http2_mux_splits_load_evenly() {
        let s = http2_mux(Bandwidth::gbps(8.0));
        let cfg = SimConfig {
            duration: Seconds::millis(20.0),
            warmup: Seconds::millis(4.0),
            ..SimConfig::default()
        };
        let r = s.simulate(cfg);
        let s0 = r.node("stream-proc-0").expect("s0").served;
        let s1 = r.node("stream-proc-1").expect("s1").served;
        let skew = (s0 as f64 - s1 as f64).abs() / (s0 + s1) as f64;
        assert!(skew < 0.05, "stream split skew {skew} ({s0} vs {s1})");
    }
}
