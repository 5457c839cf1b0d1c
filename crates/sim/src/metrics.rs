//! Measurement results of a simulation run.

use crate::histogram::LatencyRecorder;
use crate::time::SimTime;
use lognic_model::units::{Bandwidth, Bytes, Seconds};

/// Order statistics over observed packet latencies.
///
/// Computed by the engine from a streaming [`LatencyRecorder`] —
/// Welford moments for mean/stddev and a log-scale histogram for the
/// percentiles — so runs never buffer per-packet samples.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: Seconds,
    /// Population standard deviation.
    pub stddev: Seconds,
    /// Median.
    pub p50: Seconds,
    /// 90th percentile.
    pub p90: Seconds,
    /// 99th percentile.
    pub p99: Seconds,
    /// Maximum observed.
    pub max: Seconds,
}

impl LatencySummary {
    /// Summarizes a streaming recorder's accumulated statistics.
    pub fn from_recorder(rec: &LatencyRecorder) -> Self {
        LatencySummary {
            count: rec.count(),
            mean: rec.mean(),
            stddev: rec.stddev(),
            p50: rec.quantile(0.50),
            p90: rec.quantile(0.90),
            p99: rec.quantile(0.99),
            max: rec.max().to_seconds(),
        }
    }

    /// Summarizes a set of latency samples by feeding them through a
    /// [`LatencyRecorder`] — one code path with the engine's streaming
    /// statistics.
    pub fn from_samples(samples: Vec<SimTime>) -> Self {
        let mut rec = LatencyRecorder::new();
        for s in samples {
            rec.record(s);
        }
        Self::from_recorder(&rec)
    }
}

/// Per-node counters.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Vertex name.
    pub name: String,
    /// Requests that reached the node.
    pub arrivals: u64,
    /// Requests completed by the node's engines.
    pub served: u64,
    /// Requests dropped because the queue was full.
    pub drops: u64,
    /// Largest queue depth observed (waiting requests, excluding those
    /// in service).
    pub max_queue: usize,
    /// Fraction of the run the node's engines spent busy, averaged
    /// over engines.
    pub utilization: f64,
    /// Time-averaged requests in system (waiting + in service) — the
    /// measured counterpart of the model's `L` (Eq. 9).
    pub mean_occupancy: f64,
}

impl NodeReport {
    /// The node's observed drop rate.
    pub fn drop_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.drops as f64 / self.arrivals as f64
        }
    }
}

/// Per-medium counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MediumReport {
    /// Medium name (`"interface"`, `"memory"`, or an edge link name).
    pub name: String,
    /// Total bytes moved.
    pub transferred: Bytes,
    /// Fraction of the run spent transferring.
    pub utilization: f64,
}

/// Per-traffic-class counters (classes index the profile's
/// `dist_size` entries).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// Packets of this class that completed.
    pub completed: u64,
    /// Bytes of this class that completed.
    pub bytes: Bytes,
    /// Mean latency of this class's completed packets.
    pub mean_latency: Seconds,
}

/// The complete result of one simulation run.
///
/// Rates and latency are measured over packets injected after the
/// warmup cutoff.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Configured run length.
    pub duration: Seconds,
    /// Length of the measurement window (duration − warmup).
    pub window: Seconds,
    /// Packets injected inside the window.
    pub injected: u64,
    /// Packets that reached the egress inside the window.
    pub completed: u64,
    /// Packets dropped at some node.
    pub dropped: u64,
    /// Offered ingress rate over the window.
    pub offered: Bandwidth,
    /// Delivered egress rate over the window.
    pub throughput: Bandwidth,
    /// Delivered egress rate counting only uncorrupted packets.
    /// Equals `throughput` unless a packet-corruption fault window
    /// was active during the run.
    pub goodput: Bandwidth,
    /// Retry attempts consumed by the fault-recovery policy inside
    /// the window (0 without a [`RetryPolicy`]).
    ///
    /// [`RetryPolicy`]: lognic_model::fault::RetryPolicy
    pub retries: u64,
    /// Packets abandoned because their sojourn exceeded the plan
    /// deadline. Also counted in `dropped`.
    pub timed_out: u64,
    /// Completed packets whose payload a corruption window flipped.
    /// Also counted in `completed`.
    pub corrupted: u64,
    /// Delivered packet rate over the window (packets per second).
    pub packet_rate: f64,
    /// Discrete events the engine processed over the whole run —
    /// the denominator of the perf baseline's events/sec metric.
    pub events: u64,
    /// Latency statistics of completed packets.
    pub latency: LatencySummary,
    /// Per-class completion breakdown.
    pub classes: Vec<ClassReport>,
    /// Per-node counters, indexed like the execution graph's vertices.
    pub nodes: Vec<NodeReport>,
    /// Shared-media counters (interface, memory, dedicated links).
    pub media: Vec<MediumReport>,
}

impl SimReport {
    /// The measured packet loss fraction.
    pub fn loss_rate(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            self.dropped as f64 / self.injected as f64
        }
    }

    /// Looks up a node report by vertex name.
    pub fn node(&self, name: &str) -> Option<&NodeReport> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// Looks up a medium report by name.
    pub fn medium(&self, name: &str) -> Option<&MediumReport> {
        self.media.iter().find(|m| m.name == name)
    }

    /// The completion share of one traffic class.
    pub fn class_share(&self, class: u32) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.classes
            .get(class as usize)
            .map(|c| c.completed as f64 / self.completed as f64)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zero() {
        let s = LatencySummary::from_samples(vec![]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, Seconds::ZERO);
        assert_eq!(s.max, Seconds::ZERO);
    }

    #[test]
    fn summary_statistics() {
        let samples: Vec<SimTime> = (1..=100).map(|i| SimTime::from_micros(i as f64)).collect();
        let s = LatencySummary::from_samples(samples);
        assert_eq!(s.count, 100);
        assert!((s.mean.as_micros() - 50.5).abs() < 1e-9);
        assert!((s.p50.as_micros() - 50.0).abs() < 1.01);
        assert!((s.p90.as_micros() - 90.0).abs() < 1.01);
        assert!((s.p99.as_micros() - 99.0).abs() < 1.01);
        assert!((s.max.as_micros() - 100.0).abs() < 1e-9);
        // Population stddev of 1..=100 µs is sqrt((100²−1)/12) ≈ 28.87.
        assert!((s.stddev.as_micros() - 28.866).abs() < 0.01);
    }

    #[test]
    fn summary_single_sample() {
        let s = LatencySummary::from_samples(vec![SimTime::from_micros(3.0)]);
        assert_eq!(s.count, 1);
        assert_eq!(s.p50, s.max);
        assert_eq!(s.p99, s.max);
    }

    #[test]
    fn node_drop_rate() {
        let n = NodeReport {
            name: "x".into(),
            arrivals: 100,
            served: 90,
            drops: 10,
            max_queue: 5,
            utilization: 0.5,
            mean_occupancy: 1.5,
        };
        assert!((n.drop_rate() - 0.1).abs() < 1e-12);
        let empty = NodeReport { arrivals: 0, ..n };
        assert_eq!(empty.drop_rate(), 0.0);
    }
}
