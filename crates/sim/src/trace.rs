//! Zero-cost-when-disabled observability for simulation runs.
//!
//! The engine's hot loop reports every state transition — injections,
//! enqueues/dequeues, service starts, completions, deliveries, drops,
//! retries, dispatches, arena traffic and fault windows — as one
//! [`SimEvent`] to a [`SimObserver`]. The observer is a
//! *monomorphized generic* of [`Simulation::run_with`], and every hook
//! site in the engine is guarded by the observer's associated
//! `const ENABLED`: with the default [`NoopObserver`] the guard is a
//! compile-time `false`, so the event construction and the call are
//! eliminated entirely and `run()` compiles to the exact pre-trace hot
//! loop (`run()` *is* `run_with(&mut NoopObserver)`).
//!
//! Observers are passive: they receive interned node ids and
//! [`SimTime`] stamps but never touch the RNG or the event queue, so a
//! traced run's [`SimReport`] is byte-identical to an untraced run of
//! the same scenario and seed (the differential suite asserts this).
//!
//! Four sinks ship with this module (the [`Sanitizer`] is a fifth):
//!
//! * [`RingLog`] — a bounded ring of typed `(SimTime, SimEvent)`
//!   records. Memory is fixed at construction; once full, the oldest
//!   records are overwritten and counted in [`RingLog::dropped`].
//! * [`TimeSeriesSampler`] — per-node time series (queue depth, busy
//!   engines, instantaneous utilization ρ(t), cumulative drop/retry
//!   counters) sampled every Δt, rendered to CSV or JSON by the
//!   resulting [`Timeline`].
//! * [`ChromeTrace`] — a Chrome `trace_event` JSON exporter (one track
//!   per node plus a packet track and per-node queue-depth counters)
//!   whose output opens directly in Perfetto / `chrome://tracing`.
//! * [`ArrivalRecorder`] — captures the injection stream as a
//!   replayable packet trace.
//!
//! [`Simulation::run_with`]: crate::sim::Simulation::run_with
//! [`SimReport`]: crate::metrics::SimReport
//! [`Sanitizer`]: crate::sanitize::Sanitizer

use crate::time::SimTime;
use lognic_model::units::Seconds;

/// Immutable description of the run an observer is attached to,
/// delivered once by [`SimObserver::on_run_start`] before the first
/// event. Sinks size their per-node state from it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// RNG seed of the run.
    pub seed: u64,
    /// Injection horizon (the run then drains in-flight packets).
    pub duration: SimTime,
    /// Measurement cutoff.
    pub warmup: SimTime,
    /// Per-node metadata, indexed by interned node id — the same dense
    /// index every event's `node` field uses.
    pub nodes: Vec<NodeMeta>,
    /// Interned id of the ingress engine.
    pub ingress: u32,
    /// Interned id of the egress engine.
    pub egress: u32,
}

/// One node's static properties, as seen by trace sinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMeta {
    /// Vertex name from the execution graph.
    pub name: String,
    /// Parallel engines (`D`); `0` for pure movers (ingress/egress).
    pub engines: u32,
    /// Bounded queue capacity (total across WRR queues); `0` for
    /// movers.
    pub queue_capacity: u32,
    /// Whether the node runs a weighted-round-robin queue plan. WRR
    /// bounds *waiting* packets per class queue, while the shared
    /// queue's credit account bounds waiting *plus* in-service — the
    /// sanitizer picks its credit invariant off this flag.
    pub wrr: bool,
}

/// Why the engine discarded a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The node's bounded queue (or WRR queue) was full.
    QueueFull,
    /// An outage fault window refused the arrival.
    Outage,
    /// A probabilistic packet-drop fault window fired.
    FaultDrop,
    /// The packet's sojourn exceeded the plan-wide deadline.
    DeadlineExpired,
    /// A shared medium's reservation backlog overflowed (RX overflow).
    MediaBacklog,
}

impl DropReason {
    /// A short stable label (used by the Chrome exporter and CSV).
    pub fn label(self) -> &'static str {
        match self {
            DropReason::QueueFull => "queue_full",
            DropReason::Outage => "outage",
            DropReason::FaultDrop => "fault_drop",
            DropReason::DeadlineExpired => "deadline",
            DropReason::MediaBacklog => "media_backlog",
        }
    }
}

/// The effect of one scheduled fault window, as reported by
/// [`SimEvent::FaultWindow`] at run start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultWindowKind {
    /// The node refuses every arrival.
    Outage,
    /// The node serves at this fraction of its nominal rate.
    RateDegradation {
        /// Remaining service-rate fraction in `(0, 1)`.
        factor: f64,
    },
    /// Arrivals are refused with this probability.
    PacketDrop {
        /// Per-arrival drop probability.
        probability: f64,
    },
    /// Arrivals are corrupted with this probability.
    PacketCorruption {
        /// Per-arrival corruption probability.
        probability: f64,
    },
    /// Credits removed from the node's bounded queue.
    CreditLoss {
        /// Credits removed while the window is active.
        credits: u32,
    },
}

/// End-of-run snapshot of the engine's internal accounting, delivered
/// by [`SimObserver::on_run_audit`] immediately before
/// [`SimObserver::on_run_end`]. The sanitizer cross-checks the
/// counters it reconstructed from the event stream against this
/// ground truth; other sinks are free to ignore it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunAudit {
    /// Per-node accounting, indexed by interned node id.
    pub nodes: Vec<NodeAudit>,
    /// Packets still resident in the arena when the queue drained
    /// (zero for a run that terminated naturally).
    pub arena_live: usize,
    /// High-water mark of concurrently live arena slots.
    pub arena_high_water: usize,
    /// Uniform draws the run's RNG performed, in total. Reruns of the
    /// same scenario and seed must report the same count.
    pub rng_draws: u64,
    /// Events dispatched (the watchdog's counter).
    pub events: u64,
    /// Packets injected, all-time (unfiltered by warmup).
    pub total_injected: u64,
    /// Packets delivered at the egress, all-time.
    pub total_delivered: u64,
    /// Packets discarded, all-time.
    pub total_dropped: u64,
}

/// One node's end-of-run accounting inside a [`RunAudit`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAudit {
    /// Engines still marked busy when the queue drained.
    pub busy: u32,
    /// Packets still waiting in the node's queue.
    pub queued: u32,
    /// Accumulated engine occupancy (service plus overhead), the
    /// numerator of the utilization report. Integer picosecond
    /// arithmetic — the sanitizer's recomputation must match exactly.
    pub busy_time: SimTime,
    /// The ∫(busy + queued) dt integral behind `mean_occupancy`.
    /// `f64` accumulation; the sanitizer's reconstruction partitions
    /// it differently, so cross-checks use a relative tolerance.
    pub occupancy_integral: f64,
    /// Arrival events the node observed.
    pub arrivals: u64,
    /// Service completions at the node.
    pub served: u64,
    /// Packets the node discarded.
    pub drops: u64,
}

impl FaultWindowKind {
    /// A short stable label.
    pub fn label(self) -> &'static str {
        match self {
            FaultWindowKind::Outage => "outage",
            FaultWindowKind::RateDegradation { .. } => "rate_degradation",
            FaultWindowKind::PacketDrop { .. } => "packet_drop",
            FaultWindowKind::PacketCorruption { .. } => "packet_corruption",
            FaultWindowKind::CreditLoss { .. } => "credit_loss",
        }
    }

    /// The window's scalar parameter (1.0 for outages).
    pub fn parameter(self) -> f64 {
        match self {
            FaultWindowKind::Outage => 1.0,
            FaultWindowKind::RateDegradation { factor } => factor,
            FaultWindowKind::PacketDrop { probability } => probability,
            FaultWindowKind::PacketCorruption { probability } => probability,
            FaultWindowKind::CreditLoss { credits } => credits as f64,
        }
    }
}

/// One packet-level engine event, delivered by [`SimObserver::on`]
/// together with its timestamp.
///
/// The timestamp is the dispatch clock, with two exceptions noted on
/// their variants: a fault window is stamped with its opening instant,
/// and an arena allocation with the packet's scheduled arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// A scheduled fault window on `node`, open from the event's
    /// timestamp until `until`. Reported per node at run start, in
    /// node order, before any packet event.
    FaultWindow {
        /// Interned node id.
        node: u32,
        /// The window's effect.
        kind: FaultWindowKind,
        /// When the window closes.
        until: SimTime,
    },
    /// An event is about to dispatch. `seq` is the running dispatch
    /// count (the watchdog's counter, starting at 1). The scheduler
    /// contract makes `seq` increase by exactly one per dispatch and
    /// the timestamp non-decreasing — the sanitizer's monotonicity
    /// invariant.
    Dispatch {
        /// Dispatch sequence number.
        seq: u64,
    },
    /// A packet entered the pipeline at the ingress engine.
    Inject {
        /// Packet injection id.
        pkt: u64,
        /// Wire size in bytes.
        size: u64,
        /// Traffic class.
        class: u32,
    },
    /// A packet slab was allocated. Stamped with the packet's
    /// scheduled arrival, which may lie *ahead* of the dispatch clock
    /// (injection schedules one gap into the future), so it is not
    /// covered by the monotonicity invariant.
    ArenaAlloc {
        /// Arena slot.
        handle: u32,
        /// Packet injection id.
        pkt: u64,
    },
    /// A packet slab is about to be released back to the arena. On
    /// delivery the release precedes [`SimEvent::Deliver`]; on a drop
    /// it follows [`SimEvent::Drop`].
    ArenaFree {
        /// Arena slot.
        handle: u32,
    },
    /// A packet joined `node`'s queue.
    Enqueue {
        /// Interned node id.
        node: u32,
        /// Packet injection id.
        pkt: u64,
        /// Waiting count after admission.
        depth: u32,
    },
    /// A packet left `node`'s queue for service.
    Dequeue {
        /// Interned node id.
        node: u32,
        /// Packet injection id.
        pkt: u64,
        /// Waiting count after removal.
        depth: u32,
    },
    /// An engine of `node` started serving the packet.
    ServiceStart {
        /// Interned node id.
        node: u32,
        /// Packet injection id.
        pkt: u64,
        /// How long the engine stays occupied (service plus overhead).
        occupancy: SimTime,
    },
    /// `node` finished serving the packet.
    Complete {
        /// Interned node id.
        node: u32,
        /// Packet injection id.
        pkt: u64,
    },
    /// The packet reached the egress.
    Deliver {
        /// Packet injection id.
        pkt: u64,
        /// End-to-end sojourn.
        latency: SimTime,
    },
    /// The packet was discarded at `node`.
    Drop {
        /// Interned node id.
        node: u32,
        /// Packet injection id.
        pkt: u64,
        /// Why it was discarded.
        reason: DropReason,
    },
    /// A refused packet was rescheduled.
    Retry {
        /// Interned node id.
        node: u32,
        /// Packet injection id.
        pkt: u64,
        /// Retries consumed so far, this one included.
        attempt: u32,
        /// When the packet re-presents.
        resume_at: SimTime,
    },
}

/// A passive observer of engine state transitions.
///
/// All methods default to no-ops, so a sink overrides only what it
/// needs, and a sink reacts to packet-level events with one `match`
/// over [`SimEvent`]. The associated `ENABLED` constant is the
/// zero-cost switch: the engine guards every hook site (including the
/// construction of the event) with `if O::ENABLED`, which the compiler
/// resolves per monomorphization — [`NoopObserver`] sets it to
/// `false` and the whole tracing surface vanishes from the generated
/// code.
///
/// Observers must be passive: they see interned node ids and
/// timestamps but cannot influence the run, so the report of a traced
/// run is byte-identical to the untraced run.
#[allow(unused_variables)]
pub trait SimObserver {
    /// Compile-time switch; hook sites are elided when `false`.
    const ENABLED: bool = true;

    /// The run is about to start; `meta` describes its shape.
    fn on_run_start(&mut self, meta: &RunMeta) {}

    /// One packet-level event at `now`.
    fn on(&mut self, now: SimTime, event: SimEvent) {}

    /// The event queue drained; `audit` snapshots the engine's final
    /// internal accounting. Delivered immediately before
    /// [`SimObserver::on_run_end`] (never after a watchdog abort).
    fn on_run_audit(&mut self, audit: &RunAudit) {}

    /// The event queue drained; `last` is the final event's timestamp
    /// (at least the injection horizon).
    fn on_run_end(&mut self, last: SimTime) {}
}

/// The default observer: every method is a no-op *and* `ENABLED` is
/// `false`, so traced and untraced code paths are literally the same
/// machine code. [`Simulation::run`] is `run_with(&mut NoopObserver)`.
///
/// [`Simulation::run`]: crate::sim::Simulation::run
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {
    const ENABLED: bool = false;
}

/// Fan-out: a pair of observers receives every event in order
/// (`self.0` first). Nest pairs to attach any number of sinks:
/// `(&mut ring, (&mut sampler, &mut chrome))`-style composition via
/// owned tuples.
impl<A: SimObserver, B: SimObserver> SimObserver for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn on_run_start(&mut self, meta: &RunMeta) {
        self.0.on_run_start(meta);
        self.1.on_run_start(meta);
    }

    fn on(&mut self, now: SimTime, event: SimEvent) {
        self.0.on(now, event);
        self.1.on(now, event);
    }

    fn on_run_audit(&mut self, audit: &RunAudit) {
        self.0.on_run_audit(audit);
        self.1.on_run_audit(audit);
    }

    fn on_run_end(&mut self, last: SimTime) {
        self.0.on_run_end(last);
        self.1.on_run_end(last);
    }
}

/// Forwarding: a mutable reference to an observer is itself an
/// observer, so sinks can be attached without giving up ownership.
impl<O: SimObserver> SimObserver for &mut O {
    const ENABLED: bool = O::ENABLED;

    fn on_run_start(&mut self, meta: &RunMeta) {
        (**self).on_run_start(meta);
    }

    fn on(&mut self, now: SimTime, event: SimEvent) {
        (**self).on(now, event);
    }

    fn on_run_audit(&mut self, audit: &RunAudit) {
        (**self).on_run_audit(audit);
    }

    fn on_run_end(&mut self, last: SimTime) {
        (**self).on_run_end(last);
    }
}

// ---------------------------------------------------------------------------
// Ring-buffered event log
// ---------------------------------------------------------------------------

/// A bounded event log: the newest `capacity` packet events as typed
/// `(SimTime, SimEvent)` records in a preallocated ring.
///
/// The buffer is allocated once at construction, so attaching a ring
/// log preserves the engine's zero-allocation steady state; when the
/// ring wraps, the oldest records are overwritten ([`RingLog::dropped`]
/// counts them). The ring skips dispatch and arena events and keeps a
/// fault window as one record. Records are written in event order, so
/// [`RingLog::records`] returns them in the order the engine emitted
/// them.
///
/// # Examples
///
/// ```
/// use lognic_sim::time::SimTime;
/// use lognic_sim::trace::{RingLog, SimEvent, SimObserver};
///
/// let mut log = RingLog::with_capacity(2);
/// for pkt in 0..3 {
///     let now = SimTime::from_nanos(pkt as f64);
///     log.on(now, SimEvent::Inject { pkt, size: 1500, class: 0 });
/// }
/// let recs = log.records();
/// assert_eq!(recs.len(), 2, "bounded: oldest record was evicted");
/// assert_eq!(log.dropped(), 1);
/// assert!(matches!(recs[0].1, SimEvent::Inject { pkt: 1, .. }));
/// ```
#[derive(Debug, Clone)]
pub struct RingLog {
    buf: Vec<(SimTime, SimEvent)>,
    capacity: usize,
    written: u64,
}

impl RingLog {
    /// A ring holding the newest `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring log needs at least one record slot");
        RingLog {
            buf: Vec::with_capacity(capacity),
            capacity,
            written: 0,
        }
    }

    /// The slot the next record lands in (the oldest once full).
    fn next_slot(&self) -> usize {
        (self.written % self.capacity as u64) as usize
    }

    /// Total records observed (including evicted ones).
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Record slots in the ring.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records evicted by wraparound.
    pub fn dropped(&self) -> u64 {
        self.written.saturating_sub(self.capacity as u64)
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> Vec<(SimTime, SimEvent)> {
        let (newer, older) = self.buf.split_at(self.next_slot());
        older.iter().chain(newer).copied().collect()
    }
}

impl SimObserver for RingLog {
    fn on(&mut self, now: SimTime, event: SimEvent) {
        if matches!(
            event,
            SimEvent::Dispatch { .. } | SimEvent::ArenaAlloc { .. } | SimEvent::ArenaFree { .. }
        ) {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push((now, event));
        } else {
            let slot = self.next_slot();
            self.buf[slot] = (now, event);
        }
        self.written += 1;
    }
}

// ---------------------------------------------------------------------------
// Per-node time-series sampler
// ---------------------------------------------------------------------------

/// One sample of one node's state at a tick instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Sample {
    /// Waiting packets in the node's queue.
    pub depth: u32,
    /// Engines busy serving.
    pub busy: u32,
    /// Instantaneous utilization `busy / engines` (0 for movers).
    pub rho: f64,
    /// Cumulative drops at the node since the run started.
    pub drops: u64,
    /// Cumulative retries charged to the node since the run started.
    pub retries: u64,
}

/// A [`SimObserver`] that samples every node's state on a fixed Δt
/// grid.
///
/// State is piecewise constant between events, so sampling at event
/// boundaries is exact: whenever an event advances past one or more
/// tick instants, the sampler records the state *as of each tick*
/// (i.e. before applying events stamped exactly at the tick — the
/// "state at `t⁻`" convention, which makes the series independent of
/// intra-tick event ordering).
///
/// Memory grows with `nodes × ticks`; pick Δt accordingly. Attach the
/// sampler with [`Simulation::run_with`] and convert the collected
/// series with [`TimeSeriesSampler::into_timeline`].
///
/// [`Simulation::run_with`]: crate::sim::Simulation::run_with
#[derive(Debug, Clone)]
pub struct TimeSeriesSampler {
    dt: SimTime,
    next_tick: SimTime,
    names: Vec<String>,
    engines: Vec<u32>,
    state: Vec<Sample>,
    ticks: Vec<SimTime>,
    /// `series[node][tick]`, parallel to `ticks`.
    series: Vec<Vec<Sample>>,
}

impl TimeSeriesSampler {
    /// A sampler on a `dt` grid (first sample at `dt`, not 0).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn new(dt: Seconds) -> Self {
        let dt = SimTime::from_secs(dt.as_secs());
        assert!(dt > SimTime::ZERO, "sampler needs a positive Δt");
        TimeSeriesSampler {
            dt,
            next_tick: dt,
            names: Vec::new(),
            engines: Vec::new(),
            state: Vec::new(),
            ticks: Vec::new(),
            series: Vec::new(),
        }
    }

    #[inline]
    fn flush(&mut self, now: SimTime) {
        while self.next_tick <= now {
            self.ticks.push(self.next_tick);
            for (node, s) in self.state.iter().enumerate() {
                self.series[node].push(*s);
            }
            self.next_tick += self.dt;
        }
    }

    /// Updates `node`'s busy-engine count and its instantaneous ρ.
    fn set_busy(&mut self, node: u32, update: impl FnOnce(u32) -> u32) {
        let s = &mut self.state[node as usize];
        s.busy = update(s.busy);
        s.rho = s.busy as f64 / self.engines[node as usize].max(1) as f64;
    }

    /// Finishes the run and returns the collected timeline.
    pub fn into_timeline(self) -> Timeline {
        Timeline {
            dt: self.dt,
            names: self.names,
            engines: self.engines,
            ticks: self.ticks,
            series: self.series,
        }
    }
}

impl SimObserver for TimeSeriesSampler {
    fn on_run_start(&mut self, meta: &RunMeta) {
        self.names = meta.nodes.iter().map(|n| n.name.clone()).collect();
        self.engines = meta.nodes.iter().map(|n| n.engines).collect();
        self.state = vec![Sample::default(); meta.nodes.len()];
        self.series = vec![Vec::new(); meta.nodes.len()];
        self.ticks.clear();
        self.next_tick = self.dt;
    }

    fn on(&mut self, now: SimTime, event: SimEvent) {
        match event {
            SimEvent::Enqueue { node, depth, .. } | SimEvent::Dequeue { node, depth, .. } => {
                self.flush(now);
                self.state[node as usize].depth = depth;
            }
            SimEvent::ServiceStart { node, .. } => {
                self.flush(now);
                self.set_busy(node, |busy| busy + 1);
            }
            SimEvent::Complete { node, .. } => {
                self.flush(now);
                self.set_busy(node, |busy| busy.saturating_sub(1));
            }
            SimEvent::Deliver { .. } => self.flush(now),
            SimEvent::Drop { node, .. } => {
                self.flush(now);
                self.state[node as usize].drops += 1;
            }
            SimEvent::Retry { node, .. } => {
                self.flush(now);
                self.state[node as usize].retries += 1;
            }
            _ => {}
        }
    }

    fn on_run_end(&mut self, last: SimTime) {
        self.flush(last);
    }
}

/// The per-node time series a [`TimeSeriesSampler`] collected:
/// `nodes × ticks` samples on a fixed Δt grid, renderable to CSV or
/// JSON for the EXPERIMENTS figures.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    dt: SimTime,
    names: Vec<String>,
    engines: Vec<u32>,
    ticks: Vec<SimTime>,
    series: Vec<Vec<Sample>>,
}

impl Timeline {
    /// The sampling interval.
    pub fn dt(&self) -> Seconds {
        self.dt.to_seconds()
    }

    /// Node names, indexed by interned node id.
    pub fn node_names(&self) -> &[String] {
        &self.names
    }

    /// The tick instants, in order.
    pub fn ticks(&self) -> &[SimTime] {
        &self.ticks
    }

    /// One node's samples (parallel to [`Timeline::ticks`]), by name.
    pub fn node(&self, name: &str) -> Option<&[Sample]> {
        let idx = self.names.iter().position(|n| n == name)?;
        Some(&self.series[idx])
    }

    /// Renders `time_s,node,depth,busy,rho,drops,retries` rows, one
    /// per `(tick, node)` pair, tick-major.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s,node,depth,busy,rho,drops,retries\n");
        for (k, t) in self.ticks.iter().enumerate() {
            for (node, name) in self.names.iter().enumerate() {
                let s = self.series[node][k];
                out.push_str(&format!(
                    "{:.9},{},{},{},{:.6},{},{}\n",
                    t.as_secs(),
                    name,
                    s.depth,
                    s.busy,
                    s.rho,
                    s.drops,
                    s.retries
                ));
            }
        }
        out
    }

    /// Renders the series as one JSON object:
    /// `{"dt_s": .., "ticks_s": [..], "nodes": [{"name", "engines",
    /// "depth", "busy", "rho", "drops", "retries"}, ..]}` with one
    /// column array per metric (compact and plot-ready).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"dt_s\":{:.9},\"ticks_s\":[", self.dt.as_secs()));
        for (i, t) in self.ticks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{:.9}", t.as_secs()));
        }
        out.push_str("],\"nodes\":[");
        for (node, name) in self.names.iter().enumerate() {
            if node > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"engines\":{}",
                json_string(name),
                self.engines[node]
            ));
            let col = |f: &dyn Fn(&Sample) -> String| -> String {
                self.series[node]
                    .iter()
                    .map(f)
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.push_str(&format!(",\"depth\":[{}]", col(&|s| s.depth.to_string())));
            out.push_str(&format!(",\"busy\":[{}]", col(&|s| s.busy.to_string())));
            out.push_str(&format!(",\"rho\":[{}]", col(&|s| format!("{:.6}", s.rho))));
            out.push_str(&format!(",\"drops\":[{}]", col(&|s| s.drops.to_string())));
            out.push_str(&format!(
                ",\"retries\":[{}]}}",
                col(&|s| s.retries.to_string())
            ));
        }
        out.push_str("]}");
        out
    }
}

// ---------------------------------------------------------------------------
// Chrome trace_event exporter
// ---------------------------------------------------------------------------

/// Escapes a string for inclusion in JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats picoseconds as the Chrome trace format's microsecond
/// timestamps, exactly (six fractional digits = picosecond precision).
fn ts_us(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

/// A [`SimObserver`] exporting the run as Chrome `trace_event` JSON —
/// openable in [Perfetto](https://ui.perfetto.dev) or
/// `chrome://tracing`.
///
/// Track layout: `tid 0` is the packet track (injections and
/// deliveries as instants); each node gets its own named track
/// (`tid = node + 1`) carrying service spans, fault-window spans and
/// drop/retry instants; queue depths are emitted as counter tracks
/// (`queue@<node>`).
///
/// Memory is proportional to the number of exported events; cap it
/// with [`ChromeTrace::with_limit`] (further packet events are counted
/// in [`ChromeTrace::truncated`] and skipped — fault windows and
/// metadata are always kept).
#[derive(Debug, Clone)]
pub struct ChromeTrace {
    events: Vec<String>,
    names: Vec<String>,
    limit: usize,
    packet_events: usize,
    truncated: u64,
}

impl Default for ChromeTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl ChromeTrace {
    /// An unbounded exporter.
    pub fn new() -> Self {
        ChromeTrace {
            events: Vec::new(),
            names: Vec::new(),
            limit: usize::MAX,
            packet_events: 0,
            truncated: 0,
        }
    }

    /// Caps the exported packet-event count; subsequent events are
    /// dropped (and counted) instead of growing the buffer.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }

    /// Packet events dropped by the [`ChromeTrace::with_limit`] cap.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Exported events so far (including metadata records).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been exported yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    #[inline]
    fn emit(&mut self, event: String) {
        if self.packet_events >= self.limit {
            self.truncated += 1;
            return;
        }
        self.packet_events += 1;
        self.events.push(event);
    }

    fn node_name(&self, node: u32) -> &str {
        self.names
            .get(node as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }

    fn fault_window(&mut self, node: u32, kind: FaultWindowKind, from: SimTime, until: SimTime) {
        // Fault windows are structural (reported at run start); they
        // bypass the packet-event limit.
        self.events.push(format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"fault:{}\",\
             \"cat\":\"fault\",\"args\":{{\"parameter\":{:.6}}}}}",
            node + 1,
            ts_us(from.as_picos()),
            ts_us(until.since(from).as_picos()),
            kind.label(),
            kind.parameter()
        ));
    }

    fn inject(&mut self, now: SimTime, pkt: u64, size: u64, class: u32) {
        self.emit(format!(
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":{},\"name\":\"inject\",\"s\":\"t\",\
             \"args\":{{\"pkt\":{pkt},\"size\":{size},\"class\":{class}}}}}",
            ts_us(now.as_picos())
        ));
    }

    fn queue_depth(&mut self, now: SimTime, node: u32, depth: u32) {
        self.emit(format!(
            "{{\"ph\":\"C\",\"pid\":1,\"ts\":{},\"name\":{},\"args\":{{\"depth\":{depth}}}}}",
            ts_us(now.as_picos()),
            json_string(&format!("queue@{}", self.node_name(node)))
        ));
    }

    fn service_start(&mut self, now: SimTime, node: u32, pkt: u64, occupancy: SimTime) {
        self.emit(format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"service\",\
             \"cat\":\"service\",\"args\":{{\"pkt\":{pkt}}}}}",
            node + 1,
            ts_us(now.as_picos()),
            ts_us(occupancy.as_picos())
        ));
    }

    fn deliver(&mut self, now: SimTime, pkt: u64, latency: SimTime) {
        self.emit(format!(
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":{},\"name\":\"deliver\",\"s\":\"t\",\
             \"args\":{{\"pkt\":{pkt},\"latency_us\":{}}}}}",
            ts_us(now.as_picos()),
            ts_us(latency.as_picos())
        ));
    }

    fn drop_packet(&mut self, now: SimTime, node: u32, pkt: u64, reason: DropReason) {
        self.emit(format!(
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"drop:{}\",\"s\":\"t\",\
             \"args\":{{\"pkt\":{pkt}}}}}",
            node + 1,
            ts_us(now.as_picos()),
            reason.label()
        ));
    }

    fn retry(&mut self, now: SimTime, node: u32, pkt: u64, attempt: u32, resume_at: SimTime) {
        self.emit(format!(
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"retry\",\"s\":\"t\",\
             \"args\":{{\"pkt\":{pkt},\"attempt\":{attempt},\"resume_us\":{}}}}}",
            node + 1,
            ts_us(now.as_picos()),
            ts_us(resume_at.as_picos())
        ));
    }

    /// Serializes the collected events as a Chrome JSON object
    /// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`).
    pub fn into_json(self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(e);
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

impl SimObserver for ChromeTrace {
    fn on_run_start(&mut self, meta: &RunMeta) {
        self.names = meta.nodes.iter().map(|n| n.name.clone()).collect();
        self.events.push(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"lognic-sim\"}}"
                .to_owned(),
        );
        self.events.push(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\
             \"args\":{\"name\":\"packets\"}}"
                .to_owned(),
        );
        for (i, n) in meta.nodes.iter().enumerate() {
            self.events.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                i + 1,
                json_string(&n.name)
            ));
        }
    }

    fn on(&mut self, now: SimTime, event: SimEvent) {
        match event {
            SimEvent::FaultWindow { node, kind, until } => {
                self.fault_window(node, kind, now, until)
            }
            SimEvent::Inject { pkt, size, class } => self.inject(now, pkt, size, class),
            SimEvent::Enqueue { node, depth, .. } | SimEvent::Dequeue { node, depth, .. } => {
                self.queue_depth(now, node, depth)
            }
            SimEvent::ServiceStart {
                node,
                pkt,
                occupancy,
            } => self.service_start(now, node, pkt, occupancy),
            SimEvent::Deliver { pkt, latency } => self.deliver(now, pkt, latency),
            SimEvent::Drop { node, pkt, reason } => self.drop_packet(now, node, pkt, reason),
            SimEvent::Retry {
                node,
                pkt,
                attempt,
                resume_at,
            } => self.retry(now, node, pkt, attempt, resume_at),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Arrival recorder — the corpus capture sink
// ---------------------------------------------------------------------------

/// An observer that records every injection as a corpus
/// [`TraceEntry`], turning a live run into a replayable
/// [`PacketTrace`] file. This closes the round-trip loop: a synthetic
/// scenario's arrival stream is captured here, persisted via
/// [`PacketTrace::to_binary`] or [`PacketTrace::to_csv`], and
/// replayed as a regression input by
/// [`SimulationBuilder::with_trace`].
///
/// The simulator keys behaviour on traffic class, so the recorded
/// flow tag mirrors the class tag; external captures are free to carry
/// finer flow structure.
///
/// [`PacketTrace`]: crate::traffic::PacketTrace
/// [`PacketTrace::to_binary`]: crate::traffic::PacketTrace::to_binary
/// [`PacketTrace::to_csv`]: crate::traffic::PacketTrace::to_csv
/// [`TraceEntry`]: crate::traffic::TraceEntry
/// [`SimulationBuilder::with_trace`]: crate::sim::SimulationBuilder::with_trace
#[derive(Debug, Clone, Default)]
pub struct ArrivalRecorder {
    entries: Vec<crate::traffic::TraceEntry>,
}

impl ArrivalRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Injections recorded so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True before the first injection.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Consumes the recorder into a validated [`PacketTrace`].
    ///
    /// The engine injects in time order with positive sizes, so
    /// recorded arrivals always validate; the `Result` only surfaces
    /// defects if the recorder was fed by hand.
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::InvalidTrace`] for hand-built entries
    /// that violate trace invariants.
    ///
    /// [`PacketTrace`]: crate::traffic::PacketTrace
    /// [`LogNicError::InvalidTrace`]: lognic_model::error::LogNicError::InvalidTrace
    pub fn into_trace(self) -> lognic_model::error::LogNicResult<crate::traffic::PacketTrace> {
        crate::traffic::PacketTrace::new(self.entries)
    }
}

impl SimObserver for ArrivalRecorder {
    fn on(&mut self, now: SimTime, event: SimEvent) {
        if let SimEvent::Inject { size, class, .. } = event {
            self.entries.push(crate::traffic::TraceEntry::new(
                now,
                lognic_model::units::Bytes::new(size),
                class,
                class,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: f64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn ring_keeps_packet_events_and_skips_dispatch_and_arena() {
        let events = [
            (
                t(0.0),
                SimEvent::FaultWindow {
                    node: 2,
                    kind: FaultWindowKind::RateDegradation { factor: 0.25 },
                    until: t(20.0),
                },
            ),
            (
                t(1.0),
                SimEvent::Inject {
                    pkt: 7,
                    size: 1500,
                    class: 3,
                },
            ),
            (
                t(2.0),
                SimEvent::Enqueue {
                    node: 1,
                    pkt: 7,
                    depth: 4,
                },
            ),
            (
                t(3.0),
                SimEvent::Dequeue {
                    node: 1,
                    pkt: 7,
                    depth: 3,
                },
            ),
            (
                t(4.0),
                SimEvent::ServiceStart {
                    node: 1,
                    pkt: 7,
                    occupancy: t(5.0),
                },
            ),
            (t(9.0), SimEvent::Complete { node: 1, pkt: 7 }),
            (
                t(10.0),
                SimEvent::Deliver {
                    pkt: 7,
                    latency: t(9.0),
                },
            ),
            (
                t(11.0),
                SimEvent::Drop {
                    node: 1,
                    pkt: 8,
                    reason: DropReason::DeadlineExpired,
                },
            ),
            (
                t(12.0),
                SimEvent::Retry {
                    node: 1,
                    pkt: 9,
                    attempt: 2,
                    resume_at: t(15.0),
                },
            ),
        ];
        let mut log = RingLog::with_capacity(16);
        for &(now, event) in &events {
            log.on(now, event);
            log.on(now, SimEvent::Dispatch { seq: 1 });
            log.on(now, SimEvent::ArenaAlloc { handle: 0, pkt: 7 });
            log.on(now, SimEvent::ArenaFree { handle: 0 });
        }
        assert_eq!(log.records(), events, "one record per packet event");
        assert_eq!(log.written(), events.len() as u64);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_newest() {
        let mut log = RingLog::with_capacity(4);
        let inject = |pkt| SimEvent::Inject {
            pkt,
            size: 64,
            class: 0,
        };
        for i in 0..10u64 {
            log.on(t(i as f64), inject(i));
        }
        assert_eq!(log.written(), 10);
        assert_eq!(log.dropped(), 6);
        assert_eq!(log.buf.capacity(), 4, "memory stays fixed");
        let expected: Vec<_> = (6..10u64).map(|i| (t(i as f64), inject(i))).collect();
        assert_eq!(log.records(), expected);
    }

    #[test]
    fn sampler_records_state_on_the_tick_grid() {
        let mut s = TimeSeriesSampler::new(Seconds::new(1e-6));
        s.on_run_start(&RunMeta {
            seed: 0,
            duration: SimTime::from_micros(4.0),
            warmup: SimTime::ZERO,
            nodes: vec![
                NodeMeta {
                    name: "in".into(),
                    engines: 0,
                    queue_capacity: 0,
                    wrr: false,
                },
                NodeMeta {
                    name: "ip".into(),
                    engines: 2,
                    queue_capacity: 8,
                    wrr: false,
                },
            ],
            ingress: 0,
            egress: 1,
        });
        // Before the first tick: one busy engine, depth 3.
        s.on(
            SimTime::from_nanos(100.0),
            SimEvent::ServiceStart {
                node: 1,
                pkt: 0,
                occupancy: t(50.0),
            },
        );
        s.on(
            SimTime::from_nanos(200.0),
            SimEvent::Enqueue {
                node: 1,
                pkt: 1,
                depth: 3,
            },
        );
        // Crosses tick 1 µs and 2 µs: state as of those ticks is the
        // pre-event state above.
        s.on(
            SimTime::from_micros(2.5),
            SimEvent::Drop {
                node: 1,
                pkt: 2,
                reason: DropReason::QueueFull,
            },
        );
        s.on_run_end(SimTime::from_micros(4.0));
        let tl = s.into_timeline();
        assert_eq!(tl.ticks().len(), 4);
        let ip = tl.node("ip").expect("node exists");
        assert_eq!(ip[0].depth, 3);
        assert_eq!(ip[0].busy, 1);
        assert!((ip[0].rho - 0.5).abs() < 1e-12);
        assert_eq!(ip[1].drops, 0, "drop at 2.5 µs is after the 2 µs tick");
        assert_eq!(ip[2].drops, 1, "…and visible at the 3 µs tick");
        assert!(tl.node("ghost").is_none());
        // Renderings cover every (tick, node) pair.
        let csv = tl.to_csv();
        assert_eq!(csv.lines().count(), 1 + 4 * 2);
        assert!(csv.starts_with("time_s,node,depth,busy,rho,drops,retries"));
        let json = tl.to_json();
        assert!(json.contains("\"name\":\"ip\""));
        assert!(json.contains("\"depth\":[3,3,3,3]"));
    }

    #[test]
    fn chrome_trace_is_structured_and_bounded() {
        let mut c = ChromeTrace::new().with_limit(3);
        c.on_run_start(&RunMeta {
            seed: 0,
            duration: SimTime::from_micros(1.0),
            warmup: SimTime::ZERO,
            nodes: vec![NodeMeta {
                name: "crypto \"x\"".into(),
                engines: 1,
                queue_capacity: 4,
                wrr: false,
            }],
            ingress: 0,
            egress: 0,
        });
        let metadata = c.len();
        c.on(
            t(1.0),
            SimEvent::ServiceStart {
                node: 0,
                pkt: 1,
                occupancy: t(2.0),
            },
        );
        c.on(
            t(1.0),
            SimEvent::Inject {
                pkt: 1,
                size: 64,
                class: 0,
            },
        );
        c.on(
            t(3.0),
            SimEvent::Deliver {
                pkt: 1,
                latency: t(2.0),
            },
        );
        // Over the limit.
        c.on(
            t(4.0),
            SimEvent::Drop {
                node: 0,
                pkt: 2,
                reason: DropReason::Outage,
            },
        );
        assert_eq!(c.len(), metadata + 3);
        assert_eq!(c.truncated(), 1);
        let json = c.into_json();
        assert!(json.contains("\\\"x\\\""), "names are escaped: {json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn timestamps_are_exact_microseconds() {
        assert_eq!(ts_us(0), "0.000000");
        assert_eq!(ts_us(1), "0.000001");
        assert_eq!(ts_us(1_500_000), "1.500000");
        assert_eq!(ts_us(123_456_789_012), "123456.789012");
    }

    #[test]
    fn pair_observer_fans_out_in_order() {
        let mut pair = (RingLog::with_capacity(4), RingLog::with_capacity(4));
        pair.on(
            t(1.0),
            SimEvent::Inject {
                pkt: 1,
                size: 64,
                class: 0,
            },
        );
        pair.on(
            t(2.0),
            SimEvent::Deliver {
                pkt: 1,
                latency: t(1.0),
            },
        );
        assert_eq!(pair.0.records().len(), 2);
        assert_eq!(pair.0.records(), pair.1.records());
        const { assert!(<(RingLog, RingLog) as SimObserver>::ENABLED) };
        const { assert!(!NoopObserver::ENABLED) };
    }
}
