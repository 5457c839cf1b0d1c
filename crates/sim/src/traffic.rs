//! Traffic generation: arrival processes and packet-size sampling.
//!
//! The generator realizes a [`TrafficProfile`] as a packet stream whose
//! long-run byte rate equals the profile's `BW_in` and whose sizes
//! follow `dist_size`. Three arrival processes are provided; the
//! analytical model assumes Poisson (§3.6).

use crate::rng::SimRng;
use crate::time::SimTime;
use lognic_model::error::{LogNicError, LogNicResult};
use lognic_model::params::{PacketSizeDist, TrafficProfile};
use lognic_model::units::{Bandwidth, Bytes};

/// The packet arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArrivalProcess {
    /// Poisson arrivals (exponential inter-arrival gaps) — the
    /// data-center default and the model's assumption.
    #[default]
    Poisson,
    /// Fully paced arrivals: each packet is spaced by exactly its own
    /// serialization time at `BW_in`.
    Paced,
    /// Bursts of `burst` back-to-back packets, with the inter-burst
    /// gap sized to preserve the average rate.
    Bursty {
        /// Packets per burst (≥ 1).
        burst: u32,
    },
}

/// Generates the packet stream for one ingress port.
#[derive(Debug, Clone)]
pub struct TrafficSource {
    byte_rate: f64,
    mean_size: f64,
    sizes: Vec<Bytes>,
    cumulative: Vec<f64>,
    process: ArrivalProcess,
    next_id: u64,
    burst_left: u32,
}

/// One generated packet descriptor: the gap since the previous
/// injection, the wire size and the traffic class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Time gap from the previous injection.
    pub gap: SimTime,
    /// Packet id.
    pub id: u64,
    /// Packet size.
    pub size: Bytes,
    /// Traffic class (index into the profile's `dist_size`).
    pub class: u32,
}

impl TrafficSource {
    /// Creates a source for the given profile and arrival process.
    pub fn new(profile: &TrafficProfile, process: ArrivalProcess) -> Self {
        let entries = profile.sizes().entries();
        let mut cumulative = Vec::with_capacity(entries.len());
        let mut acc = 0.0;
        for (_, w) in entries {
            acc += w;
            cumulative.push(acc);
        }
        TrafficSource {
            byte_rate: profile.ingress_bandwidth().as_bytes_per_sec(),
            mean_size: entries.iter().map(|(s, w)| s.as_f64() * w).sum(),
            sizes: entries.iter().map(|(s, _)| *s).collect(),
            cumulative,
            process,
            next_id: 0,
            burst_left: 0,
        }
    }

    /// True when the source will never produce a packet (zero rate).
    pub fn is_silent(&self) -> bool {
        self.byte_rate <= 0.0
    }

    /// Draws the next injection.
    pub fn next_injection(&mut self, rng: &mut SimRng) -> Injection {
        let class = rng.pick_cumulative(&self.cumulative) as u32;
        let size = self.sizes[class as usize];
        let mean_gap_secs = size.as_f64() / self.byte_rate;
        // A mean gap past the clock (a vanishing rate) saturates: that
        // packet never arrives inside any horizon.
        let gap = match self.process {
            // A true (marked) Poisson process: inter-arrival gaps are
            // iid at the mean packet rate, independent of the size
            // just drawn. Size-correlated gaps would cluster small
            // packets and break the model's M/M/1 assumption.
            ArrivalProcess::Poisson => SimTime::try_from_secs(self.mean_size / self.byte_rate)
                .map_or(SimTime::MAX, |mean| rng.exponential(mean)),
            ArrivalProcess::Paced => SimTime::try_from_secs(mean_gap_secs).unwrap_or(SimTime::MAX),
            ArrivalProcess::Bursty { burst } => {
                let burst = burst.max(1);
                if self.burst_left > 0 {
                    self.burst_left -= 1;
                    SimTime::ZERO
                } else {
                    self.burst_left = burst - 1;
                    SimTime::try_from_secs(mean_gap_secs * burst as f64).unwrap_or(SimTime::MAX)
                }
            }
        };
        let id = self.next_id;
        self.next_id += 1;
        Injection {
            gap,
            id,
            size,
            class,
        }
    }
}

// ---------------------------------------------------------------------------
// Packet-trace corpus files
// ---------------------------------------------------------------------------

/// One record of a packet-trace corpus file: an absolute arrival
/// timestamp, the wire size, a flow tag and a traffic class.
///
/// The flow tag is opaque to the simulator (the engine keys behaviour
/// on `class` alone) but survives the file round trip, so captures
/// from multi-flow sources keep their per-flow structure for offline
/// analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Absolute arrival time.
    pub arrival: SimTime,
    /// Wire size in bytes (must be positive).
    pub size: Bytes,
    /// Opaque flow identifier.
    pub flow: u32,
    /// Traffic class (drives WRR queue mapping and per-class reports).
    pub class: u32,
}

impl TraceEntry {
    /// Creates a record.
    pub fn new(arrival: SimTime, size: Bytes, flow: u32, class: u32) -> Self {
        TraceEntry {
            arrival,
            size,
            flow,
            class,
        }
    }
}

/// A validated packet-trace corpus: the empirical counterpart of a
/// synthetic [`TrafficProfile`]. Traces are recorded from live runs
/// (via [`crate::trace::ArrivalRecorder`]) or written by external
/// tools, persisted as CSV, and replayed as-is by
/// [`SimulationBuilder::with_trace`] — or fed through
/// [`PacketTrace::empirical_profile`] to the analytical model's
/// size-mixture machinery.
///
/// Construction always validates: arrivals must be non-decreasing and
/// sizes positive; defects are reported as typed
/// [`LogNicError::InvalidTrace`] values, never panics — a corrupt
/// capture file is user input, not a programming error.
///
/// # File format
///
/// CSV is the one persisted framing: a header line
/// `arrival_ps,size_bytes,flow,class` followed by one integer row per
/// record; blank lines and `#` comments are ignored. `flow` and
/// `class` must fit in a `u32`.
///
/// [`SimulationBuilder::with_trace`]: crate::sim::SimulationBuilder::with_trace
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PacketTrace {
    entries: Vec<TraceEntry>,
}

impl PacketTrace {
    /// The CSV header line.
    pub const CSV_HEADER: &'static str = "arrival_ps,size_bytes,flow,class";

    /// Builds a trace from records, validating order and sizes.
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::InvalidTrace`] naming the first record
    /// with a zero size or a timestamp behind its predecessor.
    pub fn new(entries: Vec<TraceEntry>) -> LogNicResult<Self> {
        let mut last = SimTime::ZERO;
        for (i, e) in entries.iter().enumerate() {
            if e.size.get() == 0 {
                return Err(LogNicError::InvalidTrace {
                    reason: "zero-byte packet".into(),
                    record: Some(i as u64),
                });
            }
            if i > 0 && e.arrival < last {
                return Err(LogNicError::InvalidTrace {
                    reason: format!(
                        "arrival timestamps run backwards ({} ps after {} ps)",
                        e.arrival.as_picos(),
                        last.as_picos()
                    ),
                    record: Some(i as u64),
                });
            }
            last = e.arrival;
        }
        Ok(PacketTrace { entries })
    }

    /// The validated records, in arrival order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of packets in the trace.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the trace holds no packets.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes across the trace.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.size.get()).sum()
    }

    /// The trace's span (time of the last arrival).
    pub fn span(&self) -> SimTime {
        self.entries
            .last()
            .map(|e| e.arrival)
            .unwrap_or(SimTime::ZERO)
    }

    /// Mean byte rate over the trace span, in bits per second (zero
    /// for traces spanning no time).
    pub fn mean_rate_bps(&self) -> f64 {
        let span = self.span().as_secs();
        if span <= 0.0 {
            return 0.0;
        }
        self.total_bytes() as f64 * 8.0 / span
    }

    /// Renders the trace as CSV (header + one row per record).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(32 + self.entries.len() * 24);
        out.push_str(Self::CSV_HEADER);
        out.push('\n');
        for e in &self.entries {
            out.push_str(&format!(
                "{},{},{},{}\n",
                e.arrival.as_picos(),
                e.size.get(),
                e.flow,
                e.class
            ));
        }
        out
    }

    /// Parses a CSV-framed trace. The header line is required; blank
    /// lines and lines starting with `#` are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::InvalidTrace`] on a missing or wrong
    /// header, a row with the wrong field count, a field that is not an
    /// unsigned integer, a `flow` or `class` above `u32::MAX`, or any
    /// record that fails [`PacketTrace::new`] validation.
    pub fn from_csv(text: &str) -> LogNicResult<Self> {
        let mut rows = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'));
        match rows.next() {
            Some(header) if header.trim() == Self::CSV_HEADER => {}
            other => {
                return Err(LogNicError::InvalidTrace {
                    reason: format!(
                        "missing CSV header `{}` (got {:?})",
                        Self::CSV_HEADER,
                        other.unwrap_or("<empty>")
                    ),
                    record: None,
                })
            }
        }
        let mut entries = Vec::new();
        for (i, row) in rows.enumerate() {
            let fields: Vec<&str> = row.trim().split(',').collect();
            if fields.len() != 4 {
                return Err(LogNicError::InvalidTrace {
                    reason: format!("expected 4 fields, found {} in `{row}`", fields.len()),
                    record: Some(i as u64),
                });
            }
            let field = |idx: usize, name: &str, max: u64| -> LogNicResult<u64> {
                let text = fields[idx].trim();
                text.parse()
                    .ok()
                    .filter(|&v| v <= max)
                    .ok_or_else(|| LogNicError::InvalidTrace {
                        reason: format!("{name} `{text}` is not an integer in [0, {max}]"),
                        record: Some(i as u64),
                    })
            };
            let tag = |idx: usize, name: &str| field(idx, name, u32::MAX.into()).map(|v| v as u32);
            entries.push(TraceEntry::new(
                SimTime::from_picos(field(0, "arrival_ps", u64::MAX)?),
                Bytes::new(field(1, "size_bytes", u64::MAX)?),
                tag(2, "flow")?,
                tag(3, "class")?,
            ));
        }
        PacketTrace::new(entries)
    }

    /// Derives an empirical [`TrafficProfile`] from the trace: the
    /// observed size mixture (weighted by packet count) at the trace's
    /// mean byte rate — the ingest path into the analytical model's
    /// size-mixture machinery.
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::InvalidTrace`] for traces spanning no
    /// time (fewer than two distinct arrival instants), whose mean
    /// rate is undefined.
    pub fn empirical_profile(&self) -> LogNicResult<TrafficProfile> {
        let rate = self.mean_rate_bps();
        if rate <= 0.0 {
            return Err(LogNicError::InvalidTrace {
                reason: "trace spans no time; its mean rate is undefined".into(),
                record: None,
            });
        }
        let mut counts: Vec<(u64, f64)> = Vec::new();
        for e in &self.entries {
            match counts.iter_mut().find(|(s, _)| *s == e.size.get()) {
                Some((_, w)) => *w += 1.0,
                None => counts.push((e.size.get(), 1.0)),
            }
        }
        counts.sort_unstable_by_key(|(s, _)| *s);
        let dist = PacketSizeDist::mix(counts.into_iter().map(|(s, w)| (Bytes::new(s), w)))
            .map_err(|e| LogNicError::InvalidTrace {
                reason: format!("size mixture rejected: {e}"),
                record: None,
            })?;
        Ok(TrafficProfile::new(Bandwidth::bps(rate), dist))
    }
}

/// Replays a [`PacketTrace`] as a sequence of [`Injection`]s: the gap
/// since the previous arrival, the record index as packet id, and the
/// record's size and class (the flow tag is not simulated).
#[derive(Debug)]
pub(crate) struct TraceCursor {
    entries: Vec<TraceEntry>,
    idx: usize,
    last: SimTime,
}

impl TraceCursor {
    /// A cursor owning the trace's records.
    pub(crate) fn new(trace: PacketTrace) -> Self {
        TraceCursor {
            entries: trace.entries,
            idx: 0,
            last: SimTime::ZERO,
        }
    }

    /// The next injection, or `None` when the trace is exhausted.
    pub(crate) fn next_injection(&mut self) -> Option<Injection> {
        let e = *self.entries.get(self.idx)?;
        let gap = e.arrival.since(self.last);
        self.last = e.arrival;
        let id = self.idx as u64;
        self.idx += 1;
        Some(Injection {
            gap,
            id,
            size: e.size,
            class: e.class,
        })
    }

    /// The absolute arrival time of the next record without consuming
    /// it, or `None` when the trace is exhausted. The simulator uses
    /// this to drain a whole same-timestamp burst in one injection
    /// step so downstream nodes see it as one event train.
    pub(crate) fn peek_arrival(&self) -> Option<SimTime> {
        self.entries.get(self.idx).map(|e| e.arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lognic_model::params::PacketSizeDist;
    use lognic_model::units::Bandwidth;

    fn profile(gbps: f64, size: u64) -> TrafficProfile {
        TrafficProfile::fixed(Bandwidth::gbps(gbps), Bytes::new(size))
    }

    fn long_run_rate(src: &mut TrafficSource, rng: &mut SimRng, n: usize) -> f64 {
        let mut t = SimTime::ZERO;
        let mut bytes = 0u64;
        for _ in 0..n {
            let inj = src.next_injection(rng);
            t += inj.gap;
            bytes += inj.size.get();
        }
        bytes as f64 * 8.0 / t.as_secs()
    }

    #[test]
    fn paced_rate_is_exact() {
        let mut src = TrafficSource::new(&profile(10.0, 1000), ArrivalProcess::Paced);
        let mut rng = SimRng::seed_from(1);
        let rate = long_run_rate(&mut src, &mut rng, 1000);
        assert!((rate - 10e9).abs() / 10e9 < 1e-6, "rate = {rate}");
    }

    #[test]
    fn poisson_rate_converges() {
        let mut src = TrafficSource::new(&profile(10.0, 1000), ArrivalProcess::Poisson);
        let mut rng = SimRng::seed_from(2);
        let rate = long_run_rate(&mut src, &mut rng, 50_000);
        assert!((rate - 10e9).abs() / 10e9 < 0.02, "rate = {rate}");
    }

    #[test]
    fn bursty_rate_converges_and_bursts_are_back_to_back() {
        let mut src = TrafficSource::new(&profile(10.0, 1000), ArrivalProcess::Bursty { burst: 4 });
        let mut rng = SimRng::seed_from(3);
        // First injection opens a burst with a gap; next 3 have zero gap.
        let first = src.next_injection(&mut rng);
        assert!(first.gap > SimTime::ZERO);
        for _ in 0..3 {
            assert_eq!(src.next_injection(&mut rng).gap, SimTime::ZERO);
        }
        assert!(src.next_injection(&mut rng).gap > SimTime::ZERO);
        let rate = long_run_rate(&mut src, &mut rng, 10_000);
        assert!((rate - 10e9).abs() / 10e9 < 0.01, "rate = {rate}");
    }

    #[test]
    fn mixture_classes_follow_weights() {
        let dist = PacketSizeDist::mix([(Bytes::new(64), 0.25), (Bytes::new(1500), 0.75)]).unwrap();
        let t = TrafficProfile::new(Bandwidth::gbps(10.0), dist);
        let mut src = TrafficSource::new(&t, ArrivalProcess::Paced);
        let mut rng = SimRng::seed_from(4);
        let n = 20_000;
        let mut class1 = 0;
        for _ in 0..n {
            let inj = src.next_injection(&mut rng);
            if inj.class == 1 {
                class1 += 1;
                assert_eq!(inj.size, Bytes::new(1500));
            } else {
                assert_eq!(inj.size, Bytes::new(64));
            }
        }
        let frac = class1 as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn ids_are_sequential() {
        let mut src = TrafficSource::new(&profile(1.0, 64), ArrivalProcess::Paced);
        let mut rng = SimRng::seed_from(5);
        for want in 0..10 {
            assert_eq!(src.next_injection(&mut rng).id, want);
        }
    }

    #[test]
    fn trace_replays_exact_times() {
        let at = SimTime::from_micros;
        let trace = PacketTrace::new(vec![
            TraceEntry::new(at(1.0), Bytes::new(64), 0, 0),
            TraceEntry::new(at(3.0), Bytes::new(128), 1, 1),
            TraceEntry::new(at(3.0), Bytes::new(256), 0, 0),
        ])
        .expect("sorted records of positive size");
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.total_bytes(), 448);
        assert_eq!(trace.span(), at(3.0));
        let mut c = TraceCursor::new(trace);
        assert_eq!(c.peek_arrival(), Some(at(1.0)));
        let a = c.next_injection().unwrap();
        assert_eq!((a.gap, a.id, a.size), (at(1.0), 0, Bytes::new(64)));
        let b = c.next_injection().unwrap();
        assert_eq!((b.gap, b.id, b.class), (at(2.0), 1, 1));
        assert_eq!(c.peek_arrival(), Some(at(3.0)), "peek does not consume");
        let d = c.next_injection().unwrap();
        assert_eq!(d.gap, SimTime::ZERO, "simultaneous arrivals");
        assert_eq!((d.id, d.class), (2, 0));
        assert!(c.next_injection().is_none());
        assert_eq!(c.peek_arrival(), None);
    }

    #[test]
    fn trace_mean_rate() {
        let trace = PacketTrace::new(vec![
            TraceEntry::new(SimTime::from_micros(0.0), Bytes::new(1000), 0, 0),
            TraceEntry::new(SimTime::from_micros(8.0), Bytes::new(1000), 0, 0),
        ])
        .expect("valid trace");
        // 2000 B over 8 µs = 2 Gb/s.
        assert!((trace.mean_rate_bps() - 2e9).abs() < 1e-3);
        assert_eq!(PacketTrace::default().mean_rate_bps(), 0.0);
        assert!(PacketTrace::default().is_empty());
    }

    #[test]
    fn zero_rate_is_silent() {
        let t = TrafficProfile::fixed(Bandwidth::ZERO, Bytes::new(64));
        let src = TrafficSource::new(&t, ArrivalProcess::Poisson);
        assert!(src.is_silent());
        assert!(!TrafficSource::new(&profile(1.0, 64), ArrivalProcess::Poisson).is_silent());
    }

    #[test]
    fn gap_past_the_clock_saturates() {
        let t = profile(1e-300, 1500);
        let mut rng = SimRng::seed_from(3);
        for process in [
            ArrivalProcess::Poisson,
            ArrivalProcess::Paced,
            ArrivalProcess::Bursty { burst: 1 },
        ] {
            let mut src = TrafficSource::new(&t, process);
            assert_eq!(
                src.next_injection(&mut rng).gap,
                SimTime::MAX,
                "{process:?}"
            );
        }
    }

    fn sample_trace() -> PacketTrace {
        PacketTrace::new(vec![
            TraceEntry::new(SimTime::from_picos(0), Bytes::new(64), 1, 0),
            TraceEntry::new(SimTime::from_picos(4_000), Bytes::new(1500), 2, 1),
            TraceEntry::new(SimTime::from_picos(4_000), Bytes::new(64), 1, 0),
            TraceEntry::new(SimTime::from_picos(9_500), Bytes::new(512), 3, 2),
        ])
        .expect("valid trace")
    }

    #[test]
    fn packet_trace_csv_round_trips() {
        let trace = sample_trace();
        let csv = trace.to_csv();
        assert!(csv.starts_with(PacketTrace::CSV_HEADER));
        let back = PacketTrace::from_csv(&csv).expect("round trip");
        assert_eq!(trace, back);
        // Comments and blank lines are tolerated.
        let commented = format!("# capture\n\n{csv}");
        assert_eq!(PacketTrace::from_csv(&commented).expect("comments"), trace);
    }

    #[test]
    fn packet_trace_rejects_malformed_input() {
        let backwards = PacketTrace::new(vec![
            TraceEntry::new(SimTime::from_picos(10), Bytes::new(64), 0, 0),
            TraceEntry::new(SimTime::from_picos(5), Bytes::new(64), 0, 0),
        ]);
        assert!(matches!(
            backwards,
            Err(LogNicError::InvalidTrace {
                record: Some(1),
                ..
            })
        ));
        let zero = PacketTrace::new(vec![TraceEntry::new(SimTime::ZERO, Bytes::new(0), 0, 0)]);
        assert!(matches!(
            zero,
            Err(LogNicError::InvalidTrace {
                record: Some(0),
                ..
            })
        ));
        // CSV defects.
        assert!(PacketTrace::from_csv("").is_err());
        assert!(PacketTrace::from_csv("wrong,header\n1,2,3,4\n").is_err());
        let rows = format!("{}\n1,2,3\n", PacketTrace::CSV_HEADER);
        assert!(PacketTrace::from_csv(&rows).is_err());
        let rows = format!("{}\n1,nope,3,4\n", PacketTrace::CSV_HEADER);
        assert!(PacketTrace::from_csv(&rows).is_err());
    }

    #[test]
    fn packet_trace_empty_is_valid_and_round_trips() {
        let empty = PacketTrace::new(Vec::new()).expect("empty is valid");
        assert!(empty.is_empty());
        assert_eq!(empty.span(), SimTime::ZERO);
        assert_eq!(empty.mean_rate_bps(), 0.0);
        let back = PacketTrace::from_csv(&empty.to_csv()).expect("csv");
        assert!(back.is_empty());
        // But its mean rate is undefined, so no empirical profile.
        assert!(empty.empirical_profile().is_err());
    }

    #[test]
    fn packet_trace_feeds_the_empirical_profile() {
        let trace = sample_trace();
        let profile = trace.empirical_profile().expect("spanning trace");
        // Mean rate: 2140 B over 9.5 ns.
        let expected = 2140.0 * 8.0 / 9.5e-9;
        assert!(
            (profile.ingress_bandwidth().as_bps() - expected).abs() / expected < 1e-9,
            "rate {}",
            profile.ingress_bandwidth()
        );
        // Size mixture: three distinct sizes, 64 B carrying half the weight.
        let entries = profile.sizes().entries();
        assert_eq!(entries.len(), 3);
        let w64 = entries
            .iter()
            .find(|(s, _)| s.get() == 64)
            .map(|(_, w)| *w)
            .expect("64 B bucket");
        assert!((w64 - 0.5).abs() < 1e-12, "weight {w64}");
    }
}
