//! Doorbell-burst workload: zero-gap packet trains.
//!
//! Real SmartNIC datapaths are rung, not trickled: a host writes a
//! doorbell and the NIC drains a whole submission queue of descriptors
//! in one go (the NVMe-oF target of §4.3), or a multi-tenant
//! consolidation point receives a line-rate burst from a switch port.
//! In the discrete-event simulator those bursts materialize as many
//! arrivals sharing one timestamp: hundreds of same-time events that
//! the scheduler must order by sequence number alone.
//!
//! This module builds a deterministic burst trace plus a matching
//! scenario: `rings × depth` packets, each ring's packets at an
//! identical timestamp, rings spaced evenly across the horizon. The
//! graph's edges move no interface/memory bytes (the descriptors are
//! already on the NIC when the doorbell rings), so the same-timestamp
//! cascade survives to the compute stage instead of being serialized
//! by the media model. The perf baseline times it as the scheduler's
//! worst case for ties, and a golden test pins its report.

use crate::scenario::Scenario;
use lognic_model::graph::ExecutionGraph;
use lognic_model::params::{EdgeParams, HardwareModel, IpParams, TrafficProfile};
use lognic_model::units::{Bandwidth, Bytes};
use lognic_sim::time::SimTime;
use lognic_sim::traffic::Trace;

/// One doorbell ring: `depth` same-timestamp packets.
#[derive(Debug, Clone, Copy)]
pub struct BurstPlan {
    /// Number of doorbell rings across the horizon.
    pub rings: u64,
    /// Descriptors drained per ring (packets sharing one timestamp).
    pub depth: u64,
    /// Time between consecutive rings.
    pub ring_gap: SimTime,
    /// Descriptor payload size.
    pub size: Bytes,
}

impl Default for BurstPlan {
    /// The committed perf-baseline shape: 1 000 rings of 512
    /// descriptors (a deep NVMe-style submission queue), 60 µs apart
    /// (60 ms span), 512 B payloads — ≈ 35 Gb/s offered to a 40 Gb/s
    /// stage whose 512 engines drain a whole ring in parallel, so
    /// every ring is a 512-long same-timestamp train end to end.
    fn default() -> Self {
        BurstPlan {
            rings: 1_000,
            depth: 512,
            ring_gap: SimTime::from_micros(60.0),
            size: Bytes::new(512),
        }
    }
}

impl BurstPlan {
    /// Total packets in the trace.
    pub fn packets(&self) -> u64 {
        self.rings * self.depth
    }

    /// Mean offered rate of the burst pattern.
    pub fn mean_rate(&self) -> Bandwidth {
        let bits = (self.packets() * self.size.get() * 8) as f64;
        let span = (self.rings * self.ring_gap.as_picos()) as f64 / 1e12;
        Bandwidth::bps(bits / span)
    }

    /// Builds the deterministic zero-gap trace: ring `r`'s packets all
    /// arrive at `r × ring_gap`, classes cycling 0/1/2 so WRR-style
    /// policies see a class mix.
    pub fn trace(&self) -> Trace {
        let mut events = Vec::with_capacity(self.packets() as usize);
        for r in 0..self.rings {
            let t = SimTime::from_picos(r * self.ring_gap.as_picos());
            for d in 0..self.depth {
                events.push((t, self.size, (d % 3) as u32));
            }
        }
        Trace::from_events(events)
    }
}

/// The doorbell-burst scenario: one 40 Gb/s massively parallel drain
/// stage between ingress and egress, edges moving no media bytes,
/// traffic profile pinned at the trace's mean rate (the trace drives
/// the actual injection; the profile feeds the analytical model). The
/// stage's parallelism covers a whole default ring so burst arrivals
/// start service together instead of trickling through a queue.
pub fn doorbell_burst(plan: &BurstPlan) -> (Scenario, Trace) {
    let mut b = ExecutionGraph::builder("doorbell_burst");
    let ing = b.ingress("doorbell");
    let sq = b.ip(
        "sq_drain",
        IpParams::new(Bandwidth::gbps(40.0))
            .with_parallelism(512)
            .with_queue_capacity(512),
    );
    let eg = b.egress("tx");
    let wire = EdgeParams::full()
        .with_interface_fraction(0.0)
        .with_memory_fraction(0.0);
    b.edge(ing, sq, wire);
    b.edge(sq, eg, wire);
    let graph = b.build().expect("static burst graph is valid");
    let hardware = HardwareModel::new(Bandwidth::gbps(400.0), Bandwidth::gbps(400.0));
    let traffic = TrafficProfile::fixed(plan.mean_rate(), plan.size);
    (
        Scenario::new("doorbell_burst", graph, hardware, traffic),
        plan.trace(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BurstPlan {
        BurstPlan {
            rings: 50,
            depth: 64,
            ring_gap: SimTime::from_micros(30.0),
            size: Bytes::new(512),
        }
    }

    #[test]
    fn trace_shape_matches_the_plan() {
        let plan = small();
        let trace = plan.trace();
        assert_eq!(trace.len() as u64, plan.packets());
        assert_eq!(trace.span(), SimTime::from_micros(30.0 * 49.0));
        let gbps = plan.mean_rate().as_gbps();
        assert!(gbps > 1.0 && gbps < 40.0, "mean rate = {gbps} Gb/s");
    }
}
