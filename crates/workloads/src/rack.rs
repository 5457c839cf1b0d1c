//! A rack-scale fleet topology built from the registry's workloads.
//!
//! The `rack` scenario is the fleet runtime's canonical testbed: `n`
//! NICs (32 by default) cycle through the scenario registry, each
//! routing a slice of its egress traffic to its ring successor over a
//! 100 Gb/s ToR link with a realistic intra-rack propagation latency.
//! The ring keeps every NIC both a producer and a consumer of
//! boundary traffic, so determinism tests exercise the boundary
//! exchange of every lookahead window at every NIC, rather than a
//! star that funnels everything into one NIC.
//!
//! Deliberately *not* a [`crate::registry`] entry: the registry's
//! consumers (trace_dump, the lint clean set, the corpus round-trip
//! tests) all operate on single-NIC scenarios.
//!
//! Rack NICs run fault-free: a topology NIC has no fault-plan slot, so
//! a registry scenario's bundled plan (the `chaos` brownout) stays
//! behind when the scenario joins the rack.

use crate::registry;
use lognic_model::topology::Topology;
use lognic_model::units::{Bandwidth, Seconds};
use lognic_sim::prelude::{FleetBuilder, SimConfig};

/// Fraction of each NIC's egress routed to its ring successor.
pub const RING_SHARE: f64 = 0.1;

/// ToR link bandwidth between rack neighbours.
pub fn ring_bandwidth() -> Bandwidth {
    Bandwidth::gbps(100.0)
}

/// Intra-rack propagation latency (ToR hop + cabling).
pub fn ring_latency() -> Seconds {
    Seconds::micros(1.5)
}

/// Builds an `n`-NIC rack topology: NIC `i` runs registry scenario
/// `i mod |registry|` and routes [`RING_SHARE`] of its egress to NIC
/// `(i+1) mod n` over a [`ring_bandwidth`] / [`ring_latency`] link.
///
/// NIC names are `<scenario>-<i>`, so a 32-NIC rack reads as
/// `chaos-00`, `microservices-01`, … around the ring.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn topology(n: usize) -> Topology {
    assert!(n > 0, "a rack has at least one NIC");
    let entries = registry::ALL;
    let mut topo = Topology::new(format!("rack-{n}"));
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let entry = &entries[i % entries.len()];
        let scenario = entry.scenario();
        ids.push(topo.add_nic(
            format!("{}-{i:02}", entry.name),
            scenario.graph,
            scenario.hardware,
            scenario.traffic,
        ));
    }
    if n > 1 {
        for i in 0..n {
            topo.link(
                ids[i],
                ids[(i + 1) % n],
                ring_bandwidth(),
                ring_latency(),
                RING_SHARE,
            );
        }
    }
    topo
}

/// The default 32-NIC rack.
pub fn default_topology() -> Topology {
    topology(32)
}

/// A short, deterministic run configuration for rack smoke tests and
/// benchmarks: 2 ms horizon, no warmup, seed 7.
pub fn smoke_config() -> SimConfig {
    SimConfig {
        seed: 7,
        duration: Seconds::millis(2.0),
        warmup: Seconds::ZERO,
        ..SimConfig::default()
    }
}

/// Builds an `n`-NIC rack's fleet simulation under [`smoke_config`].
pub fn smoke_fleet(n: usize) -> FleetBuilder {
    FleetBuilder::new(topology(n)).config(smoke_config())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lognic_model::analyze::AnalysisConfig;

    #[test]
    fn rack_topology_is_valid_and_cycles_the_registry() {
        let topo = default_topology();
        topo.validate().expect("rack topology is well-formed");
        assert_eq!(topo.nics().len(), 32);
        assert_eq!(topo.links().len(), 32);
        assert!(topo.nics()[0].name().starts_with("chaos-"));
        let wrap = &topo.nics()[registry::ALL.len()];
        assert!(
            wrap.name().starts_with(registry::ALL[0].name),
            "NIC {} should cycle back to {}",
            wrap.name(),
            registry::ALL[0].name
        );
    }

    #[test]
    fn single_nic_rack_has_no_links() {
        let topo = topology(1);
        topo.validate().expect("valid");
        assert!(topo.links().is_empty());
    }

    /// The ring forwards a tenth of each NIC's egress, far below every
    /// NIC's saturation bound: no rack the service accepts (1–64 NICs)
    /// draws a warning, so a `deny_warnings` rack request is served.
    #[test]
    fn racks_are_free_of_fleet_warnings() {
        let strict = AnalysisConfig::default().deny_warnings(true);
        for n in 1..=64 {
            let report = topology(n).analyze(&strict);
            assert!(report.is_clean(), "rack-{n}: {:?}", report.diagnostics());
        }
        // An 11-NIC rack runs every registry workload once, so its
        // build runs every per-NIC analysis.
        smoke_fleet(registry::ALL.len())
            .analysis(strict)
            .build()
            .expect("every registry NIC is warning-free");
    }

    #[test]
    fn small_rack_smoke_runs() {
        let report = smoke_fleet(4).build().expect("builds").run().expect("runs");
        assert_eq!(report.nics.len(), 4);
        assert!(report.completed > 0);
        assert!(report.forwarded > 0, "ring links must carry traffic");
        assert!(
            report.rounds > 1,
            "a 1.5us-lookahead rack takes many rounds"
        );
    }
}
