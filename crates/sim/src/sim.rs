//! The discrete-event simulation engine.
//!
//! A [`Simulation`] is built from the same three inputs as the
//! analytical model — an [`ExecutionGraph`], a [`HardwareModel`] and a
//! [`TrafficProfile`] — so that every scenario can be both estimated
//! and simulated from one description. Packets are injected at the
//! ingress engine, routed along edges (probabilistically by `δ` at
//! fan-outs), serialized across shared media, queued and served at IP
//! nodes with bounded queues and `D` parallel engines, and measured at
//! the egress.
//!
//! # Engine internals
//!
//! The hot loop is allocation-free in steady state: events are 8-byte
//! [`Ev`] records scheduled on a calendar queue ([`CalendarQueue`]),
//! packets live in a slab arena ([`PacketArena`]) addressed by dense
//! `u32` handles, and latency statistics stream through a
//! [`LatencyRecorder`] instead of a per-packet sample vector. Events
//! pop in exactly `(time, seq)` order, the order the calendar queue's
//! own tests check against a binary heap.
//!
//! [`Ev`]: self::Simulation
//! [`CalendarQueue`]: crate::calendar::CalendarQueue
//! [`PacketArena`]: crate::arena::PacketArena
//! [`LatencyRecorder`]: crate::histogram::LatencyRecorder

use std::collections::VecDeque;
use std::sync::Arc;

use lognic_model::analyze::{AnalysisConfig, Analyzer, Diagnostic};
use lognic_model::error::{LogNicError, LogNicResult};
use lognic_model::fault::{FaultPlan, RetryPolicy};
use lognic_model::graph::ExecutionGraph;
use lognic_model::intern::NameTable;
use lognic_model::params::{HardwareModel, TrafficProfile};
use lognic_model::units::{Bandwidth, Seconds};

use crate::arena::{PacketArena, PacketHandle, NO_PACKET};
use crate::calendar::CalendarQueue;
use crate::faults::{CompiledFaultPlan, CompiledKind, NodeFaults};
use crate::histogram::LatencyRecorder;
use crate::medium::Medium;
use crate::metrics::{ClassReport, LatencySummary, MediumReport, NodeReport, SimReport};
use crate::packet::Packet;
use crate::rng::SimRng;
use crate::sanitize::{Sanitizer, SanitizerReport};
use crate::service::{RateService, ServiceDist, ServiceModel};
use crate::time::SimTime;
use crate::trace::{
    DropReason, FaultWindowKind, NodeAudit, NodeMeta, NoopObserver, RunAudit, RunMeta, SimObserver,
};
use crate::traffic::{ArrivalProcess, Trace, TraceCursor, TrafficSource};
use crate::wrr::{QueuePlan, WrrQueues};

/// Run-control parameters of a simulation.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// RNG seed; identical seeds reproduce identical runs.
    pub seed: u64,
    /// Injection horizon. Packets injected in `[0, duration]`; the run
    /// then drains in-flight packets.
    pub duration: Seconds,
    /// Measurement cutoff: packets injected before this are ignored.
    pub warmup: Seconds,
    /// The arrival process realized by the traffic source.
    pub arrival: ArrivalProcess,
    /// Service-time distribution for rate-based nodes.
    pub service_dist: ServiceDist,
    /// Safety cap on total injected packets.
    pub max_packets: u64,
    /// Maximum reservation backlog tolerated on a shared medium,
    /// expressed as time-ahead-of-now; transfers beyond it are dropped
    /// (finite buffering in front of a saturated interconnect).
    pub medium_backlog: Seconds,
    /// Watchdog budget: the run aborts with a structured
    /// [`LogNicError::WatchdogAbort`] after processing this many
    /// events. `0` (the default) derives a generous bound from
    /// `max_packets`, the graph size and the retry budget — large
    /// enough that only a non-terminating run can hit it.
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 42,
            duration: Seconds::millis(20.0),
            warmup: Seconds::millis(4.0),
            arrival: ArrivalProcess::Poisson,
            service_dist: ServiceDist::Exponential,
            max_packets: 20_000_000,
            medium_backlog: Seconds::micros(50.0),
            max_events: 0,
        }
    }
}

/// Event kinds, packed into the top bits of [`Ev::kind_node`].
const K_INJECT: u32 = 0;
const K_ARRIVE: u32 = 1;
const K_DONE: u32 = 2;
const KIND_SHIFT: u32 = 30;
const NODE_MASK: u32 = (1 << KIND_SHIFT) - 1;

/// A compact 8-byte event record: the kind lives in the top two bits
/// of `kind_node`, the destination node in the low 30, and the packet
/// is an arena handle ([`NO_PACKET`] for injections). Keeping events
/// `Copy` and word-sized is what lets the calendar queue shuffle them
/// between buckets without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ev {
    kind_node: u32,
    pkt: PacketHandle,
}

impl Ev {
    #[inline]
    fn inject() -> Self {
        Ev {
            kind_node: K_INJECT << KIND_SHIFT,
            pkt: NO_PACKET,
        }
    }

    #[inline]
    fn arrive(node: usize, pkt: PacketHandle) -> Self {
        debug_assert!(node < NODE_MASK as usize);
        Ev {
            kind_node: (K_ARRIVE << KIND_SHIFT) | node as u32,
            pkt,
        }
    }

    #[inline]
    fn done(node: usize, pkt: PacketHandle) -> Self {
        debug_assert!(node < NODE_MASK as usize);
        Ev {
            kind_node: (K_DONE << KIND_SHIFT) | node as u32,
            pkt,
        }
    }

    #[inline]
    fn kind(self) -> u32 {
        self.kind_node >> KIND_SHIFT
    }

    #[inline]
    fn node(self) -> usize {
        (self.kind_node & NODE_MASK) as usize
    }
}

/// The waiting-room of a compute node. Queues hold arena handles, not
/// packets — enqueue/dequeue move 4 bytes.
enum QueueState {
    /// The default virtual shared queue: `capacity` bounds the total
    /// in system (waiting + in service), matching M/M/c/N.
    Shared {
        queue: VecDeque<PacketHandle>,
        capacity: u32,
    },
    /// An explicit multi-queue WRR plan (Fig. 2b): per-queue `k`
    /// bounds apply to *waiting* packets only.
    Wrr(WrrQueues),
}

impl QueueState {
    fn len(&self) -> usize {
        match self {
            QueueState::Shared { queue, .. } => queue.len(),
            QueueState::Wrr(w) => w.len(),
        }
    }

    /// Tries to admit a waiting packet; `busy` is the number of
    /// occupied engines (relevant to the shared total-in-system
    /// bound). `credit_penalty` removes credits from the shared bound
    /// while a credit-loss fault window is active; WRR plans model
    /// explicit per-queue buffers and are unaffected.
    fn enqueue(&mut self, h: PacketHandle, class: u32, busy: u32, credit_penalty: u32) -> bool {
        match self {
            QueueState::Shared { queue, capacity } => {
                let effective = capacity.saturating_sub(credit_penalty).max(1);
                if busy as usize + queue.len() >= effective as usize {
                    false
                } else {
                    queue.push_back(h);
                    true
                }
            }
            QueueState::Wrr(w) => w.enqueue(class, h),
        }
    }

    fn dequeue(&mut self) -> Option<PacketHandle> {
        match self {
            QueueState::Shared { queue, .. } => queue.pop_front(),
            QueueState::Wrr(w) => w.dequeue(),
        }
    }

    /// Nominal capacity, for trace metadata.
    fn capacity(&self) -> u32 {
        match self {
            QueueState::Shared { capacity, .. } => *capacity,
            QueueState::Wrr(w) => w.total_capacity(),
        }
    }
}

/// Maps a compiled fault effect to the public trace-facing kind.
fn observed_kind(kind: CompiledKind) -> FaultWindowKind {
    match kind {
        CompiledKind::Outage => FaultWindowKind::Outage,
        CompiledKind::Rate(factor) => FaultWindowKind::RateDegradation { factor },
        CompiledKind::Drop(probability) => FaultWindowKind::PacketDrop { probability },
        CompiledKind::Corrupt(probability) => FaultWindowKind::PacketCorruption { probability },
        CompiledKind::CreditLoss(credits) => FaultWindowKind::CreditLoss { credits },
    }
}

struct NodeRuntime {
    engines: u32,
    busy: u32,
    queue: QueueState,
    service: Box<dyn ServiceModel>,
    overhead: SimTime,
    work_factor: f64,
    busy_time: SimTime,
    /// Shared compiled fault table — an `Arc` so replicated runs reuse
    /// one compilation across every seed instead of cloning windows.
    faults: Arc<NodeFaults>,
    /// Time-weighted integral of requests in system (packet-seconds),
    /// accumulated up to the injection horizon.
    occupancy_integral: f64,
    occupancy_last: SimTime,
}

struct SimNode {
    name: String,
    runtime: Option<NodeRuntime>,
    arrivals: u64,
    served: u64,
    drops: u64,
    max_queue: usize,
}

struct SimEdge {
    dst: usize,
    interface_per_packet: f64,
    memory_per_packet: f64,
    dedicated: Option<usize>,
    resize: f64,
}

/// Builds a [`Simulation`], allowing per-node service-model overrides.
pub struct SimulationBuilder<'a> {
    graph: &'a ExecutionGraph,
    hw: &'a HardwareModel,
    traffic: &'a TrafficProfile,
    config: SimConfig,
    overrides: Vec<(String, Box<dyn ServiceModel>)>,
    queue_plans: Vec<(String, QueuePlan)>,
    trace: Option<Trace>,
    outages: Vec<(String, Seconds, Seconds)>,
    plan: FaultPlan,
    compiled: Option<&'a CompiledFaultPlan>,
    analysis: AnalysisConfig,
}

impl std::fmt::Debug for SimulationBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulationBuilder")
            .field("graph", &self.graph.name())
            .field("config", &self.config)
            .field("overrides", &self.overrides.len())
            .finish()
    }
}

impl<'a> SimulationBuilder<'a> {
    /// Replaces the whole run configuration.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the injection horizon.
    pub fn duration(mut self, duration: Seconds) -> Self {
        self.config.duration = duration;
        self
    }

    /// Sets the warmup cutoff.
    pub fn warmup(mut self, warmup: Seconds) -> Self {
        self.config.warmup = warmup;
        self
    }

    /// Sets the arrival process.
    pub fn arrival(mut self, arrival: ArrivalProcess) -> Self {
        self.config.arrival = arrival;
        self
    }

    /// Sets the service-time distribution of rate-based nodes.
    pub fn service_dist(mut self, dist: ServiceDist) -> Self {
        self.config.service_dist = dist;
        self
    }

    /// Overrides the service model of the named node (e.g. an SSD
    /// model with internal state).
    pub fn override_service(mut self, node_name: &str, model: Box<dyn ServiceModel>) -> Self {
        self.overrides.push((node_name.to_owned(), model));
        self
    }

    /// Replaces the named node's virtual shared queue with an explicit
    /// multi-queue WRR plan (Fig. 2b). Packets map to queues by
    /// `class mod m`; per-queue capacities bound waiting packets.
    pub fn override_queues(mut self, node_name: &str, plan: QueuePlan) -> Self {
        self.queue_plans.push((node_name.to_owned(), plan));
        self
    }

    /// Replays a recorded packet trace instead of sampling the traffic
    /// profile (the profile still supplies the nominal offered rate
    /// for reporting).
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Injects a fault: the named node drops every arriving packet
    /// during `[from, until)` (engines crashed / firmware reset).
    /// Packets already in service complete normally.
    ///
    /// Shorthand for a [`FaultPlan`] holding one outage window; use
    /// [`SimulationBuilder::with_fault_plan`] to compose richer fault
    /// scenarios (rate degradation, drops, corruption, credit loss,
    /// retry/backoff, deadlines).
    pub fn inject_outage(mut self, node_name: &str, from: Seconds, until: Seconds) -> Self {
        self.outages.push((node_name.to_owned(), from, until));
        self
    }

    /// Installs a composable fault-injection plan: scheduled fault
    /// windows plus plan-wide retry/backoff and deadline semantics.
    /// The plan is validated against the graph by
    /// [`SimulationBuilder::build`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Replaces the static-analysis severity policy the builder
    /// applies before constructing the runtime (the default policy
    /// denies hard errors — degenerate quantities, credit cycles —
    /// and records the rest as warnings on the built [`Simulation`]).
    pub fn analysis(mut self, config: AnalysisConfig) -> Self {
        self.analysis = config;
        self
    }

    /// Installs an already-compiled fault plan, sharing its per-node
    /// tables by reference. Replicated runs compile a [`FaultPlan`]
    /// once and hand the same [`CompiledFaultPlan`] to every seed.
    ///
    /// Takes precedence over [`SimulationBuilder::with_fault_plan`]
    /// and [`SimulationBuilder::inject_outage`]: when a compiled plan
    /// is installed, declarative plans/outages are ignored (their node
    /// names are still validated).
    pub fn with_compiled_faults(mut self, compiled: &'a CompiledFaultPlan) -> Self {
        self.compiled = Some(compiled);
        self
    }

    /// Builds the simulation.
    ///
    /// # Errors
    ///
    /// Returns a typed [`LogNicError`] instead of panicking when the
    /// inputs are malformed: a service override, queue plan, outage or
    /// fault window naming a node absent from the graph (one dangling
    /// name yields [`LogNicError::UnknownNode`]; several are
    /// aggregated into [`LogNicError::UnknownNodes`] so a misconfigured
    /// scenario surfaces every bad reference at once); an empty or
    /// inverted fault window; an out-of-range fault parameter; or an
    /// unusable run configuration (warmup beyond the horizon, zero
    /// packet budget). The static analyzer runs over the scenario
    /// first: findings the active [`AnalysisConfig`] puts at `Deny`
    /// level reject the build with
    /// [`LogNicError::AnalysisRejected`]; `Warn`-level findings are
    /// retained on the built simulation
    /// ([`Simulation::analysis_warnings`]).
    pub fn build(self) -> LogNicResult<Simulation> {
        let report = Analyzer::new(self.graph)
            .with_hardware(self.hw)
            .with_traffic(self.traffic)
            .with_fault_plan(&self.plan)
            .run(&self.analysis);
        if report.is_rejected() {
            return Err(LogNicError::AnalysisRejected {
                diagnostics: report.diagnostics().to_vec(),
            });
        }
        let analysis_warnings: Vec<Diagnostic> = report.warnings().into_iter().cloned().collect();

        let cfg = self.config;
        if cfg.warmup.as_secs() > cfg.duration.as_secs() {
            return Err(LogNicError::InvalidConfig {
                reason: format!(
                    "warmup {} exceeds the injection horizon {}",
                    cfg.warmup, cfg.duration
                ),
            });
        }
        if cfg.max_packets == 0 {
            return Err(LogNicError::InvalidConfig {
                reason: "max_packets must be positive".into(),
            });
        }

        // One resolve pass over the interned name table replaces the
        // old per-node linear scans through every override list, and
        // collects *all* dangling names instead of failing on the
        // first.
        let n = self.graph.nodes().len();
        let table = NameTable::for_graph(self.graph);
        let mut svc_over: Vec<Option<Box<dyn ServiceModel>>> = (0..n).map(|_| None).collect();
        let mut plan_over: Vec<Option<QueuePlan>> = vec![None; n];
        let mut unknown: Vec<(&'static str, String)> = Vec::new();
        let mut window_err: Option<LogNicError> = None;
        for (name, model) in self.overrides {
            match table.resolve(&name) {
                // First override wins, matching the old scan order.
                Some(id) => {
                    let slot = &mut svc_over[id.index()];
                    if slot.is_none() {
                        *slot = Some(model);
                    }
                }
                None => unknown.push(("service override", name)),
            }
        }
        for (name, plan) in self.queue_plans {
            match table.resolve(&name) {
                Some(id) => {
                    let slot = &mut plan_over[id.index()];
                    if slot.is_none() {
                        *slot = Some(plan);
                    }
                }
                None => unknown.push(("queue plan", name)),
            }
        }
        for (name, from, until) in &self.outages {
            if table.resolve(name).is_none() {
                unknown.push(("outage", name.clone()));
            } else if until.as_secs() <= from.as_secs() && window_err.is_none() {
                window_err = Some(LogNicError::InvalidFaultWindow {
                    node: name.clone(),
                    from: from.as_secs(),
                    until: until.as_secs(),
                });
            }
        }
        match unknown.len() {
            0 => {}
            1 => {
                let (context, node) = unknown.remove(0);
                return Err(LogNicError::UnknownNode { context, node });
            }
            _ => {
                return Err(LogNicError::UnknownNodes {
                    references: unknown,
                })
            }
        }
        if let Some(e) = window_err {
            return Err(e);
        }

        // Fault compilation: a pre-compiled plan is shared by
        // reference (Arc-cloned tables); otherwise merge the
        // `inject_outage` shorthands into the declarative plan and
        // compile here. Both paths validate window/parameter domains.
        let (per_node, retry, deadline) = match self.compiled {
            Some(c) => (c.per_node.clone(), c.retry, c.deadline),
            None => {
                let mut plan = self.plan;
                for (name, from, until) in self.outages {
                    plan = plan.outage(&name, from, until);
                }
                let c = CompiledFaultPlan::compile(&plan, self.graph)?;
                (c.per_node, c.retry, c.deadline)
            }
        };

        let nodes: Vec<SimNode> = self
            .graph
            .nodes()
            .iter()
            .zip(svc_over)
            .zip(plan_over)
            .zip(&per_node)
            .map(|(((gn, svc), qplan), faults)| {
                let runtime = gn.params().map(|p| {
                    let service = svc.unwrap_or_else(|| {
                        Box::new(RateService::new(
                            p.effective_peak() / p.parallelism() as f64,
                            cfg.service_dist,
                        ))
                    });
                    let queue = match qplan {
                        Some(plan) => QueueState::Wrr(WrrQueues::new(&plan)),
                        None => QueueState::Shared {
                            queue: VecDeque::new(),
                            capacity: p.effective_queue_capacity(),
                        },
                    };
                    NodeRuntime {
                        engines: p.parallelism(),
                        busy: 0,
                        queue,
                        service,
                        overhead: SimTime::from_secs(p.overhead().as_secs()),
                        work_factor: p.work_factor(),
                        busy_time: SimTime::ZERO,
                        faults: Arc::clone(faults),
                        occupancy_integral: 0.0,
                        occupancy_last: SimTime::ZERO,
                    }
                });
                SimNode {
                    name: gn.name().to_owned(),
                    runtime,
                    arrivals: 0,
                    served: 0,
                    drops: 0,
                    max_queue: 0,
                }
            })
            .collect();

        let mut media = vec![
            Medium::new("interface", self.hw.interface_bandwidth()),
            Medium::new("memory", self.hw.memory_bandwidth()),
        ];
        let mut edges = Vec::with_capacity(self.graph.edges().len());
        for (i, e) in self.graph.edges().iter().enumerate() {
            let p = e.params();
            let delta = if p.delta() > 0.0 { p.delta() } else { 1.0 };
            let dedicated = p.dedicated_bandwidth().map(|bw| {
                media.push(Medium::new(&format!("link#{i}"), bw));
                media.len() - 1
            });
            edges.push(SimEdge {
                dst: e.dst().index(),
                interface_per_packet: p.interface_fraction() / delta,
                memory_per_packet: p.memory_fraction() / delta,
                dedicated,
                resize: p.size_factor(),
            });
        }

        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut out_cum: Vec<Vec<f64>> = vec![Vec::new(); n];
        for (i, e) in self.graph.edges().iter().enumerate() {
            out_edges[e.src().index()].push(i);
        }
        for (v, eids) in out_edges.iter().enumerate() {
            let total: f64 = eids
                .iter()
                .map(|&i| self.graph.edges()[i].params().delta())
                .sum();
            let mut acc = 0.0;
            for &i in eids {
                let d = self.graph.edges()[i].params().delta();
                acc += if total > 0.0 { d } else { 1.0 };
                out_cum[v].push(acc);
            }
        }

        // Watchdog budget: explicit, or a generous structural bound —
        // every packet visits each node at most once per attempt, each
        // visit costs a handful of events, and retries multiply
        // attempts by at most budget + 1.
        let max_events = if cfg.max_events > 0 {
            cfg.max_events
        } else {
            let attempts = retry.map(|r| r.budget() as u64 + 1).unwrap_or(1);
            let per_packet = (n as u64 + 2).saturating_mul(4).saturating_mul(attempts);
            cfg.max_packets.saturating_mul(per_packet).max(1_000)
        };

        // Calendar-queue day width: target the mean inter-*event* gap,
        // estimated as the mean inter-packet gap divided by the events
        // a packet generates traversing the pipeline.
        let rate = self.traffic.mean_packet_rate();
        let wheel_gap_ps = if rate > 0.0 {
            (1e12 / rate / (n as f64 + 2.0)) as u64
        } else {
            0
        };

        Ok(Simulation {
            nodes,
            edges,
            out_edges,
            out_cum,
            ingress: self.graph.ingress().index(),
            egress: self.graph.egress().index(),
            media,
            source: match self.trace {
                Some(t) => Source::Trace(t.cursor()),
                None => Source::Synthetic(TrafficSource::new(self.traffic, cfg.arrival)),
            },
            rng: SimRng::seed_from(cfg.seed),
            config: cfg,
            offered: self.traffic.ingress_bandwidth(),
            backlog_cap: SimTime::from_secs(cfg.medium_backlog.as_secs()),
            retry,
            deadline,
            max_events,
            wheel_gap_ps,
            analysis_warnings,
            nic_index: 0,
            uplinks: Vec::new(),
            uplink_cum: Vec::new(),
            uplink_total_share: 0.0,
        })
    }

    /// Builds and runs the simulation.
    ///
    /// # Errors
    ///
    /// Propagates [`SimulationBuilder::build`] validation errors and
    /// the watchdog abort of [`Simulation::run`].
    pub fn run(self) -> LogNicResult<SimReport> {
        self.build()?.run()
    }

    /// Builds and runs the simulation under a trace observer (see
    /// [`Simulation::run_with`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SimulationBuilder::build`] validation errors and
    /// the watchdog abort of [`Simulation::run_with`].
    pub fn run_with<O: SimObserver>(self, obs: &mut O) -> LogNicResult<SimReport> {
        self.build()?.run_with(obs)
    }
}

enum Source {
    Synthetic(TrafficSource),
    Trace(TraceCursor),
}

impl Source {
    fn is_silent(&self) -> bool {
        match self {
            Source::Synthetic(s) => s.is_silent(),
            Source::Trace(t) => t.remaining() == 0,
        }
    }

    fn next_injection(&mut self, rng: &mut SimRng) -> Option<crate::traffic::Injection> {
        match self {
            Source::Synthetic(s) => Some(s.next_injection(rng)),
            Source::Trace(t) => t.next_injection(),
        }
    }
}

/// A runnable discrete-event simulation of one SmartNIC program.
///
/// # Examples
///
/// ```
/// use lognic_model::graph::ExecutionGraph;
/// use lognic_model::params::{HardwareModel, IpParams, TrafficProfile};
/// use lognic_model::units::{Bandwidth, Bytes, Seconds};
/// use lognic_sim::sim::Simulation;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = ExecutionGraph::chain("echo", &[("core", IpParams::new(Bandwidth::gbps(10.0)))])?;
/// let hw = HardwareModel::default();
/// let t = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1500));
/// let report = Simulation::builder(&g, &hw, &t)
///     .duration(Seconds::millis(5.0))
///     .warmup(Seconds::millis(1.0))
///     .run()?;
/// assert!(report.completed > 0);
/// # Ok(())
/// # }
/// ```
pub struct Simulation {
    nodes: Vec<SimNode>,
    edges: Vec<SimEdge>,
    out_edges: Vec<Vec<usize>>,
    out_cum: Vec<Vec<f64>>,
    ingress: usize,
    egress: usize,
    media: Vec<Medium>,
    source: Source,
    rng: SimRng,
    config: SimConfig,
    offered: Bandwidth,
    backlog_cap: SimTime,
    retry: Option<RetryPolicy>,
    deadline: Option<SimTime>,
    max_events: u64,
    /// Estimated mean inter-event gap, sizing the calendar wheel's day
    /// width.
    wheel_gap_ps: u64,
    /// Non-gating findings the pre-build static analysis surfaced.
    analysis_warnings: Vec<Diagnostic>,
    /// This NIC's index within a fleet topology (0 standalone).
    nic_index: u32,
    /// Outgoing fleet links, in topology link order. Empty standalone.
    uplinks: Vec<Uplink>,
    /// Cumulative uplink shares for the single egress routing draw.
    uplink_cum: Vec<f64>,
    /// Total egress traffic fraction routed over uplinks. `0.0` keeps
    /// the egress draw-free, preserving the standalone RNG stream.
    uplink_total_share: f64,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("nodes", &self.nodes.len())
            .field("edges", &self.edges.len())
            .field("config", &self.config)
            .finish()
    }
}

/// A packet crossing a fleet link between two NICs.
///
/// Emitted by the egress uplink hook into [`RunState::outbox`] and
/// injected into the destination NIC's ingress at the next
/// conservative-lookahead window boundary. Carries everything needed
/// to reconstruct the packet on the far side — including the original
/// injection time, so end-to-end latency spans the whole fleet path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BoundaryPacket {
    /// Absolute arrival time at the destination ingress (picoseconds):
    /// departure + link serialization + propagation latency.
    pub(crate) arrive_ps: u64,
    /// Original packet identity, preserved across the link.
    pub(crate) id: u64,
    /// Size after any in-NIC resizing edges.
    pub(crate) size: lognic_model::units::Bytes,
    /// Original injection time at the source NIC (picoseconds).
    pub(crate) injected_at_ps: u64,
    /// Traffic class, preserved across the link.
    pub(crate) class: u32,
    /// Corruption flag, preserved across the link.
    pub(crate) corrupted: bool,
    /// Topology index of the destination NIC.
    pub(crate) dst_nic: u32,
    /// Topology index of the emitting NIC (canonical sort key).
    pub(crate) src_nic: u32,
    /// Per-source emission counter (canonical sort tiebreaker).
    pub(crate) emit_seq: u64,
}

/// One outgoing fleet link of a NIC: its serialization/propagation
/// parameters plus the running transfer statistics the fleet report
/// folds into per-link rows.
#[derive(Debug, Clone)]
pub(crate) struct Uplink {
    /// Topology index of the far-end NIC.
    pub(crate) dst_nic: u32,
    /// Link bandwidth in bits/second (`f64::INFINITY` for an ideal
    /// link with zero serialization time).
    pub(crate) bandwidth_bps: f64,
    /// Propagation latency.
    pub(crate) latency: SimTime,
    /// Earliest time the link can begin the next serialization.
    pub(crate) next_free: SimTime,
    /// Packets forwarded over this link.
    pub(crate) forwarded: u64,
    /// Bytes forwarded over this link.
    pub(crate) bytes: u64,
    /// Accumulated serialization time (link busy time).
    pub(crate) busy: SimTime,
}

struct RunState {
    queue: CalendarQueue<Ev>,
    seq: u64,
    /// All in-flight packets; events reference slots by handle.
    arena: PacketArena,
    /// Reused scratch buffer for deadline-reaped handles — taken and
    /// restored by `finish` so the drain loop never allocates.
    scratch_expired: Vec<PacketHandle>,
    injected: u64,
    total_injected: u64,
    /// All-time delivery/drop counters (no warmup filter), maintained
    /// only under an enabled observer — they feed the end-of-run
    /// `RunAudit` and nothing in the report.
    total_delivered: u64,
    total_dropped: u64,
    completed: u64,
    completed_bytes_in_window: u64,
    good_bytes_in_window: u64,
    dropped: u64,
    retries: u64,
    timed_out: u64,
    corrupted: u64,
    recorder: LatencyRecorder,
    class_completed: Vec<u64>,
    class_bytes: Vec<u64>,
    class_latency: Vec<SimTime>,
    /// Boundary packets emitted over fleet uplinks this window,
    /// drained by the fleet driver between lookahead rounds. Always
    /// empty in single-NIC runs.
    outbox: Vec<BoundaryPacket>,
    /// Monotonic per-NIC emission counter; the canonical boundary sort
    /// tiebreaker.
    emitted: u64,
}

impl RunState {
    #[inline]
    fn push(&mut self, time: SimTime, ev: Ev) {
        self.seq += 1;
        self.queue.push(time.as_picos(), self.seq, ev);
    }
}

impl Simulation {
    /// Starts building a simulation over the three model inputs.
    pub fn builder<'a>(
        graph: &'a ExecutionGraph,
        hw: &'a HardwareModel,
        traffic: &'a TrafficProfile,
    ) -> SimulationBuilder<'a> {
        SimulationBuilder {
            graph,
            hw,
            traffic,
            config: SimConfig::default(),
            overrides: Vec::new(),
            queue_plans: Vec::new(),
            trace: None,
            outages: Vec::new(),
            plan: FaultPlan::new(),
            compiled: None,
            analysis: AnalysisConfig::default(),
        }
    }

    /// The `Warn`-level diagnostics the pre-build static analysis
    /// surfaced (the `Deny`-level ones reject
    /// [`SimulationBuilder::build`] outright).
    pub fn analysis_warnings(&self) -> &[Diagnostic] {
        &self.analysis_warnings
    }

    /// Wires this NIC into a fleet: sets its topology index and its
    /// outgoing links. `shares` must each be in `[0, 1]` and sum to at
    /// most 1 (validated by the topology); the remainder of egress
    /// traffic completes locally. Links with zero share are kept for
    /// reporting but never drawn, so they leave the RNG stream — and
    /// therefore the standalone report — byte-identical.
    pub(crate) fn set_uplinks(&mut self, nic_index: u32, links: Vec<(Uplink, f64)>) {
        self.nic_index = nic_index;
        self.uplinks.clear();
        self.uplink_cum.clear();
        let mut acc = 0.0;
        for (link, share) in links {
            acc += share;
            self.uplinks.push(link);
            self.uplink_cum.push(acc);
        }
        self.uplink_total_share = acc;
    }

    /// Runs the simulation to completion and reports the measurements.
    ///
    /// Equivalent to [`Simulation::run_with`] under the
    /// [`NoopObserver`] — the monomorphized no-op compiles to exactly
    /// the untraced hot loop, so this path pays nothing for the
    /// observability layer.
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::WatchdogAbort`] with a structured
    /// progress report when the run exceeds its event budget
    /// ([`SimConfig::max_events`]) instead of hanging.
    pub fn run(self) -> LogNicResult<SimReport> {
        self.run_with(&mut NoopObserver)
    }

    /// Runs the simulation to completion under a trace observer,
    /// reporting every engine state transition to `obs`.
    ///
    /// Observers are passive — they never touch the RNG or the event
    /// queue — so for a given scenario and seed the returned
    /// [`SimReport`] is bit-identical whichever observer is attached
    /// (the differential suite asserts this against [`Simulation::run`]).
    /// Every hook site is guarded by [`SimObserver::ENABLED`], which
    /// monomorphization resolves at compile time: disabled observers
    /// leave the hot loop untouched.
    ///
    /// This is the one run core behind every entry point: start a
    /// paced run, advance it with no window limit, fold the audit and
    /// the report. Fleet runs drive the same three stages with finite
    /// lookahead windows.
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::WatchdogAbort`] with a structured
    /// progress report when the run exceeds its event budget
    /// ([`SimConfig::max_events`]) instead of hanging.
    pub fn run_with<O: SimObserver>(self, obs: &mut O) -> LogNicResult<SimReport> {
        let mut run = PacedRun::start(self, obs);
        run.advance(u64::MAX, obs)?;
        Ok(run.finish(obs))
    }

    /// Runs the simulation under the full runtime [`Sanitizer`],
    /// returning the report together with the sanitizer's account of
    /// the run (violation list, RNG draw count, event count).
    ///
    /// The sanitizer is a passive observer, so the [`SimReport`] is
    /// byte-identical to an unsanitized run of the same scenario and
    /// seed — the sanitizer suite asserts this over randomized
    /// scenarios. A clean run returns
    /// `Ok`; any invariant violation surfaces as
    /// [`LogNicError::SanitizerViolation`] describing the first
    /// violation (the report carries up to
    /// [`crate::sanitize::MAX_VIOLATIONS`]).
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::WatchdogAbort`] exactly as
    /// [`Simulation::run`] does, and
    /// [`LogNicError::SanitizerViolation`] when an engine invariant
    /// breaks mid-run.
    pub fn run_sanitized(self) -> LogNicResult<(SimReport, SanitizerReport)> {
        let mut sanitizer = Sanitizer::new();
        let report = self.run_with(&mut sanitizer)?;
        let audit = sanitizer.finish();
        audit.check()?;
        Ok((report, audit))
    }
}

/// A resumable simulation run: the run loop's state lifted into a
/// struct so a run can be advanced in bounded time windows.
///
/// Single-NIC runs call `start` → `advance(u64::MAX)` → `finish`; the
/// fleet driver instead alternates `advance(limit)` with boundary
/// injection at conservative-lookahead window boundaries. Events at or
/// beyond the limit are re-pushed with their *original* sequence
/// numbers, so pausing and resuming never perturbs the `(time, seq)`
/// total order — the report stays byte-identical to an unpaced run.
pub(crate) struct PacedRun {
    sim: Simulation,
    st: RunState,
    processed: u64,
    last: SimTime,
    end: SimTime,
    warmup: SimTime,
    /// Boundary packets injected into this NIC by the fleet driver.
    received: u64,
}

impl PacedRun {
    /// Initializes run state, reports observer metadata and schedules
    /// the first injection.
    pub(crate) fn start<O: SimObserver>(mut sim: Simulation, obs: &mut O) -> PacedRun {
        let end = SimTime::from_secs(sim.config.duration.as_secs());
        let warmup = SimTime::from_secs(sim.config.warmup.as_secs());
        let mut st = RunState {
            queue: CalendarQueue::new(sim.wheel_gap_ps),
            seq: 0,
            arena: PacketArena::new(),
            scratch_expired: Vec::new(),
            injected: 0,
            total_injected: 0,
            total_delivered: 0,
            total_dropped: 0,
            completed: 0,
            completed_bytes_in_window: 0,
            good_bytes_in_window: 0,
            dropped: 0,
            retries: 0,
            timed_out: 0,
            corrupted: 0,
            recorder: LatencyRecorder::new(),
            class_completed: Vec::new(),
            class_bytes: Vec::new(),
            class_latency: Vec::new(),
            outbox: Vec::new(),
            emitted: 0,
        };

        if O::ENABLED {
            let meta = RunMeta {
                seed: sim.config.seed,
                duration: end,
                warmup,
                nodes: sim
                    .nodes
                    .iter()
                    .map(|n| NodeMeta {
                        name: n.name.clone(),
                        engines: n.runtime.as_ref().map(|rt| rt.engines).unwrap_or(0),
                        queue_capacity: n
                            .runtime
                            .as_ref()
                            .map(|rt| rt.queue.capacity())
                            .unwrap_or(0),
                        wrr: n
                            .runtime
                            .as_ref()
                            .is_some_and(|rt| matches!(rt.queue, QueueState::Wrr(_))),
                    })
                    .collect(),
                ingress: sim.ingress as u32,
                egress: sim.egress as u32,
            };
            obs.on_run_start(&meta);
            // Fault windows are static schedules: report them up front
            // (in node order) rather than detecting transitions in the
            // hot loop.
            for (i, n) in sim.nodes.iter().enumerate() {
                if let Some(rt) = n.runtime.as_ref() {
                    for &(from, until, kind) in rt.faults.windows() {
                        obs.on_fault_window(i as u32, observed_kind(kind), from, until);
                    }
                }
            }
        }

        if !sim.source.is_silent() {
            if let Some(first) = sim.source.next_injection(&mut sim.rng) {
                let t = SimTime::ZERO + first.gap;
                if t <= end {
                    let h = st
                        .arena
                        .alloc(Packet::new(first.id, first.size, t, first.class));
                    if O::ENABLED {
                        obs.on_arena_alloc(t, h, first.id);
                    }
                    st.push(t, Ev::arrive(sim.ingress, h));
                    sim.drain_burst(t, &mut st, obs);
                    st.push(t, Ev::inject());
                }
            }
        }

        PacedRun {
            sim,
            st,
            processed: 0,
            last: end,
            end,
            warmup,
            received: 0,
        }
    }

    /// Processes every pending event with `time < limit_ps`, leaving
    /// later events untouched, and returns whether any events remain.
    ///
    /// An event at or beyond the limit is re-pushed with its
    /// **original** sequence number (straight onto the queue, without
    /// minting a new one), so the `(time, seq)` total order — and with
    /// it the RNG stream, every counter and the final report — is
    /// exactly what an unpaced run would produce.
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::WatchdogAbort`] when the run exceeds its
    /// event budget, exactly as the unpaced loop does.
    pub(crate) fn advance<O: SimObserver>(
        &mut self,
        limit_ps: u64,
        obs: &mut O,
    ) -> LogNicResult<bool> {
        loop {
            let Some((time_ps, seq, ev)) = self.st.queue.pop() else {
                return Ok(false);
            };
            if time_ps >= limit_ps {
                self.st.queue.push(time_ps, seq, ev);
                return Ok(true);
            }
            self.processed += 1;
            let now = SimTime::from_picos(time_ps);
            if O::ENABLED && now > self.last {
                self.last = now;
            }
            if self.processed > self.sim.max_events {
                return Err(self.sim.watchdog_error(self.processed, now, &self.st));
            }
            if O::ENABLED {
                obs.on_event(now, self.processed);
            }
            self.sim
                .dispatch(ev, now, self.warmup, self.end, &mut self.st, obs);
        }
    }

    /// Injects a boundary packet delivered by the fleet driver: the
    /// packet re-enters at this NIC's ingress at its link arrival
    /// time and flows through the normal arrival path — ingress
    /// counting, finite buffering, faults — exactly like locally
    /// injected traffic. Its original injection time is preserved, so
    /// measured latency spans the whole fleet path.
    pub(crate) fn inject_boundary(&mut self, bp: &BoundaryPacket) {
        let h = self.st.arena.alloc(Packet::new(
            bp.id,
            bp.size,
            SimTime::from_picos(bp.injected_at_ps),
            bp.class,
        ));
        if bp.corrupted {
            self.st.arena.get_mut(h).corrupted = true;
        }
        self.st.push(
            SimTime::from_picos(bp.arrive_ps),
            Ev::arrive(self.sim.ingress, h),
        );
        self.received += 1;
    }

    /// Drains the boundary packets emitted since the last call.
    pub(crate) fn take_outbox(&mut self) -> Vec<BoundaryPacket> {
        std::mem::take(&mut self.st.outbox)
    }

    /// The outgoing links with their accumulated transfer statistics.
    pub(crate) fn uplinks(&self) -> &[Uplink] {
        &self.sim.uplinks
    }

    /// Boundary packets received from the fleet so far.
    pub(crate) fn received(&self) -> u64 {
        self.received
    }

    /// Boundary packets emitted into the fleet so far.
    pub(crate) fn emitted(&self) -> u64 {
        self.st.emitted
    }

    /// Emits the end-of-run audit and folds the final report.
    pub(crate) fn finish<O: SimObserver>(self, obs: &mut O) -> SimReport {
        let PacedRun {
            sim,
            st,
            processed,
            last,
            end,
            warmup,
            ..
        } = self;
        if O::ENABLED {
            let audit = RunAudit {
                nodes: sim
                    .nodes
                    .iter()
                    .map(|n| {
                        let rt = n.runtime.as_ref();
                        NodeAudit {
                            busy: rt.map(|rt| rt.busy).unwrap_or(0),
                            queued: rt.map(|rt| rt.queue.len() as u32).unwrap_or(0),
                            busy_time: rt.map(|rt| rt.busy_time).unwrap_or(SimTime::ZERO),
                            occupancy_integral: rt.map(|rt| rt.occupancy_integral).unwrap_or(0.0),
                            arrivals: n.arrivals,
                            served: n.served,
                            drops: n.drops,
                        }
                    })
                    .collect(),
                arena_live: st.arena.live(),
                arena_high_water: st.arena.high_water(),
                rng_draws: sim.rng.draws(),
                events: processed,
                total_injected: st.total_injected,
                total_delivered: st.total_delivered,
                total_dropped: st.total_dropped,
            };
            obs.on_run_audit(&audit);
            obs.on_run_end(last);
        }
        sim.report(end, warmup, st, processed)
    }
}

impl Simulation {
    /// Builds the structured watchdog abort for an event-budget
    /// overrun at simulation time `now`.
    fn watchdog_error(&self, processed: u64, now: SimTime, st: &RunState) -> LogNicError {
        let in_flight: u64 = self
            .nodes
            .iter()
            .filter_map(|nd| nd.runtime.as_ref())
            .map(|rt| rt.busy as u64 + rt.queue.len() as u64)
            .sum();
        LogNicError::WatchdogAbort {
            events: processed,
            sim_time: now.as_secs(),
            injected: st.total_injected,
            in_flight,
        }
    }

    /// Dispatches one popped event to its handler.
    #[inline]
    fn dispatch<O: SimObserver>(
        &mut self,
        ev: Ev,
        now: SimTime,
        warmup: SimTime,
        end: SimTime,
        st: &mut RunState,
        obs: &mut O,
    ) {
        match ev.kind() {
            K_INJECT => {
                if st.total_injected >= self.config.max_packets {
                    return;
                }
                let Some(inj) = self.source.next_injection(&mut self.rng) else {
                    return; // trace exhausted
                };
                let t = now + inj.gap;
                if t <= end {
                    let h = st.arena.alloc(Packet::new(inj.id, inj.size, t, inj.class));
                    if O::ENABLED {
                        obs.on_arena_alloc(t, h, inj.id);
                    }
                    st.push(t, Ev::arrive(self.ingress, h));
                    self.drain_burst(t, st, obs);
                    st.push(t, Ev::inject());
                }
            }
            K_ARRIVE => {
                let node = ev.node();
                if node == self.ingress {
                    st.total_injected += 1;
                    if st.arena.get(ev.pkt).injected_at >= warmup {
                        st.injected += 1;
                    }
                    // Injection is observed here — when the packet
                    // enters the system — so the event stream stays
                    // chronological (the K_INJECT handler schedules
                    // the *next* packet one gap into the future).
                    if O::ENABLED {
                        let p = st.arena.get(ev.pkt);
                        obs.on_inject(now, p.id, p.size.get(), p.class);
                    }
                }
                self.arrive(node, ev.pkt, now, warmup, end, st, obs);
            }
            _ => {
                self.finish(ev.node(), ev.pkt, now, warmup, end, st, obs);
            }
        }
    }

    /// Trace-only burst grouping: after one arrival has been scheduled
    /// at `t`, also schedules every immediately following trace record
    /// with the same arrival timestamp (respecting the `max_packets`
    /// budget), before the next injection event.
    ///
    /// This fixes the `(time, seq)` order of zero-gap trace records:
    /// the whole burst takes consecutive sequence numbers, so every
    /// record of the burst reaches the ingress before any same-time
    /// event its predecessors spawn downstream. Without the grouping,
    /// each record would be scheduled by the previous injection event
    /// and interleave with that downstream work, which changes queue
    /// admission order and therefore the report (the doorbell-burst
    /// golden test pins this). Synthetic sources are untouched: their
    /// gap draws come from the RNG and grouping would perturb the draw
    /// order.
    fn drain_burst<O: SimObserver>(&mut self, t: SimTime, st: &mut RunState, obs: &mut O) {
        let Source::Trace(cursor) = &mut self.source else {
            return;
        };
        let mut scheduled = st.total_injected + 1;
        while scheduled < self.config.max_packets && cursor.peek_arrival() == Some(t) {
            let inj = cursor.next_injection().expect("peeked trace record");
            let h = st.arena.alloc(Packet::new(inj.id, inj.size, t, inj.class));
            if O::ENABLED {
                obs.on_arena_alloc(t, h, inj.id);
            }
            st.push(t, Ev::arrive(self.ingress, h));
            scheduled += 1;
        }
    }

    /// Accumulates `node`'s in-system occupancy integral up to
    /// `min(now, horizon)`; call before any occupancy change.
    fn touch_occupancy(&mut self, node: usize, now: SimTime, horizon: SimTime) {
        if let Some(rt) = self.nodes[node].runtime.as_mut() {
            let upto = if now < horizon { now } else { horizon };
            if upto > rt.occupancy_last {
                let span = upto.since(rt.occupancy_last).as_secs();
                let in_system = rt.busy as usize + rt.queue.len();
                rt.occupancy_integral += in_system as f64 * span;
                rt.occupancy_last = upto;
            }
        }
    }

    /// Occupies one engine of `node` for `pkt`; returns the occupancy
    /// span (service plus computation-transfer overhead). Active
    /// rate-degradation windows stretch the service time by the
    /// inverse of the degradation factor.
    fn start_service(&mut self, node: usize, now: SimTime, pkt: &Packet) -> SimTime {
        let rng = &mut self.rng;
        let rt = self.nodes[node].runtime.as_mut().expect("compute node");
        rt.busy += 1;
        let work = pkt.size.scaled(rt.work_factor);
        let mut service = rt.service.service_time(now, pkt, work, rng);
        if !rt.faults.is_empty() {
            let factor = rt.faults.rate_factor_at(now);
            if factor < 1.0 {
                service = SimTime::from_secs(service.as_secs() / factor.max(1e-9));
            }
        }
        let occupancy = service + rt.overhead;
        rt.busy_time += occupancy;
        occupancy
    }

    /// Handles a packet refused at `node` (outage, probabilistic drop
    /// or queue overflow): re-presents it after exponential backoff
    /// while retry budget remains, otherwise drops it with `cause`.
    #[allow(clippy::too_many_arguments)]
    fn fail<O: SimObserver>(
        &mut self,
        node: usize,
        h: PacketHandle,
        now: SimTime,
        warmup: SimTime,
        st: &mut RunState,
        obs: &mut O,
        cause: DropReason,
    ) {
        if let Some(rp) = self.retry {
            let attempts = st.arena.get(h).attempts;
            if attempts < rp.budget() {
                let backoff = SimTime::from_secs(rp.backoff_for(attempts).as_secs());
                let pkt = st.arena.get_mut(h);
                pkt.attempts = attempts + 1;
                if pkt.injected_at >= warmup {
                    st.retries += 1;
                }
                if O::ENABLED {
                    obs.on_retry(
                        now,
                        node as u32,
                        st.arena.get(h).id,
                        attempts + 1,
                        now + backoff,
                    );
                }
                st.push(now + backoff, Ev::arrive(node, h));
                return;
            }
        }
        self.nodes[node].drops += 1;
        if O::ENABLED {
            obs.on_drop(now, node as u32, st.arena.get(h).id, cause);
            obs.on_arena_free(now, h);
            st.total_dropped += 1;
        }
        if st.arena.get(h).injected_at >= warmup {
            st.dropped += 1;
        }
        st.arena.free(h);
    }

    #[allow(clippy::too_many_arguments)]
    fn arrive<O: SimObserver>(
        &mut self,
        node: usize,
        h: PacketHandle,
        now: SimTime,
        warmup: SimTime,
        end: SimTime,
        st: &mut RunState,
        obs: &mut O,
    ) {
        self.nodes[node].arrivals += 1;
        // Deadline accounting: a packet whose sojourn (including
        // retry backoffs) exceeds the plan-wide deadline is timed out
        // wherever it is next observed, not served.
        if let Some(deadline) = self.deadline {
            let injected_at = st.arena.get(h).injected_at;
            if now.since(injected_at) > deadline {
                self.nodes[node].drops += 1;
                if O::ENABLED {
                    obs.on_drop(
                        now,
                        node as u32,
                        st.arena.get(h).id,
                        DropReason::DeadlineExpired,
                    );
                    obs.on_arena_free(now, h);
                    st.total_dropped += 1;
                }
                if injected_at >= warmup {
                    st.dropped += 1;
                    st.timed_out += 1;
                }
                st.arena.free(h);
                return;
            }
        }
        if self.nodes[node].runtime.is_none() {
            // Pure mover: forward immediately (the egress completes).
            self.forward(node, h, now, warmup, end, st, obs);
            return;
        }
        self.touch_occupancy(node, now, end);
        let (busy, engines, has_faults) = {
            let rt = self.nodes[node].runtime.as_ref().expect("compute node");
            (rt.busy, rt.engines, !rt.faults.is_empty())
        };
        let mut credit_penalty = 0;
        if has_faults {
            // Fault checks draw from the RNG only on nodes that
            // actually schedule faults, so fault-free runs keep the
            // exact RNG stream (and golden anchors) of plain builds.
            let (is_out, drop_p, corrupt_p) = {
                let rt = self.nodes[node].runtime.as_ref().expect("compute node");
                (
                    rt.faults.outage_at(now),
                    rt.faults.drop_prob_at(now),
                    rt.faults.corrupt_prob_at(now),
                )
            };
            if is_out {
                self.fail(node, h, now, warmup, st, obs, DropReason::Outage);
                return;
            }
            if drop_p > 0.0 && self.rng.uniform() < drop_p {
                self.fail(node, h, now, warmup, st, obs, DropReason::FaultDrop);
                return;
            }
            if corrupt_p > 0.0 && self.rng.uniform() < corrupt_p {
                st.arena.get_mut(h).corrupted = true;
            }
            credit_penalty = self.nodes[node]
                .runtime
                .as_ref()
                .expect("compute node")
                .faults
                .credit_loss_at(now);
        }
        if busy < engines {
            let occupancy = self.start_service(node, now, st.arena.get(h));
            if O::ENABLED {
                obs.on_service_start(now, node as u32, st.arena.get(h).id, occupancy);
            }
            st.push(now + occupancy, Ev::done(node, h));
            return;
        }
        let class = st.arena.get(h).class;
        let (admitted, depth) = {
            let rt = self.nodes[node].runtime.as_mut().expect("compute node");
            let admitted = rt.queue.enqueue(h, class, busy, credit_penalty);
            (admitted, rt.queue.len())
        };
        if admitted {
            if O::ENABLED {
                obs.on_enqueue(now, node as u32, st.arena.get(h).id, depth as u32);
            }
            if depth > self.nodes[node].max_queue {
                self.nodes[node].max_queue = depth;
            }
        } else {
            self.fail(node, h, now, warmup, st, obs, DropReason::QueueFull);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish<O: SimObserver>(
        &mut self,
        node: usize,
        h: PacketHandle,
        now: SimTime,
        warmup: SimTime,
        end: SimTime,
        st: &mut RunState,
        obs: &mut O,
    ) {
        self.nodes[node].served += 1;
        if O::ENABLED {
            obs.on_complete(now, node as u32, st.arena.get(h).id);
        }
        self.touch_occupancy(node, now, end);
        let deadline = self.deadline;
        let mut expired = std::mem::take(&mut st.scratch_expired);
        let (next, depth_after) = {
            let rt = self.nodes[node]
                .runtime
                .as_mut()
                .expect("Done only on compute nodes");
            rt.busy -= 1;
            // Head-of-line packets whose sojourn already exceeds the
            // plan deadline are reaped instead of served — serving
            // them would waste engine time on answers nobody waits
            // for.
            let next = loop {
                match rt.queue.dequeue() {
                    Some(p) => {
                        if let Some(dl) = deadline {
                            if now.since(st.arena.get(p).injected_at) > dl {
                                expired.push(p);
                                continue;
                            }
                        }
                        break Some(p);
                    }
                    None => break None,
                }
            };
            (next, rt.queue.len())
        };
        for p in expired.drain(..) {
            self.nodes[node].drops += 1;
            if O::ENABLED {
                obs.on_drop(
                    now,
                    node as u32,
                    st.arena.get(p).id,
                    DropReason::DeadlineExpired,
                );
                obs.on_arena_free(now, p);
                st.total_dropped += 1;
            }
            let injected_at = st.arena.get(p).injected_at;
            st.arena.free(p);
            if injected_at >= warmup {
                st.dropped += 1;
                st.timed_out += 1;
            }
        }
        st.scratch_expired = expired;
        if let Some(next) = next {
            if O::ENABLED {
                obs.on_dequeue(now, node as u32, st.arena.get(next).id, depth_after as u32);
            }
            let occupancy = self.start_service(node, now, st.arena.get(next));
            if O::ENABLED {
                obs.on_service_start(now, node as u32, st.arena.get(next).id, occupancy);
            }
            st.push(now + occupancy, Ev::done(node, next));
        }
        self.forward(node, h, now, warmup, end, st, obs);
    }

    #[allow(clippy::too_many_arguments)]
    fn forward<O: SimObserver>(
        &mut self,
        node: usize,
        h: PacketHandle,
        now: SimTime,
        warmup: SimTime,
        end: SimTime,
        st: &mut RunState,
        obs: &mut O,
    ) {
        if node == self.egress {
            // Fleet routing: a single uniform draw splits egress
            // traffic between local completion and the uplinks. The
            // draw happens only when a traffic-carrying uplink exists,
            // so standalone runs (and fleets whose links carry no
            // share) keep the exact standalone RNG stream.
            if self.uplink_total_share > 0.0 {
                let u = self.rng.uniform();
                if u < self.uplink_total_share {
                    let mut pick = 0;
                    while pick + 1 < self.uplink_cum.len() && u >= self.uplink_cum[pick] {
                        pick += 1;
                    }
                    self.forward_uplink(pick, h, now, st, obs);
                    return;
                }
            }
            let pkt = *st.arena.get(h);
            if O::ENABLED {
                obs.on_arena_free(now, h);
            }
            st.arena.free(h);
            if O::ENABLED {
                obs.on_deliver(now, pkt.id, pkt.latency_at(now));
                st.total_delivered += 1;
            }
            if pkt.injected_at >= warmup {
                st.completed += 1;
                if pkt.corrupted {
                    st.corrupted += 1;
                }
                let latency = pkt.latency_at(now);
                st.recorder.record(latency);
                let c = pkt.class as usize;
                if st.class_completed.len() <= c {
                    st.class_completed.resize(c + 1, 0);
                    st.class_bytes.resize(c + 1, 0);
                    st.class_latency.resize(c + 1, SimTime::ZERO);
                }
                st.class_completed[c] += 1;
                st.class_bytes[c] += pkt.size.get();
                st.class_latency[c] += latency;
            }
            // Delivered rate counts completions *by completion time*
            // inside [warmup, end]; counting by injection time would
            // credit backlog that drains after the horizon and report
            // rates above hardware capacity.
            if now >= warmup && now <= end {
                st.completed_bytes_in_window += pkt.size.get();
                if !pkt.corrupted {
                    st.good_bytes_in_window += pkt.size.get();
                }
            }
            return;
        }
        let outs = &self.out_edges[node];
        if outs.is_empty() {
            if O::ENABLED {
                obs.on_arena_free(now, h);
            }
            st.arena.free(h);
            return;
        }
        let pick = self.rng.pick_cumulative(&self.out_cum[node]);
        let eid = outs[pick];
        let (dst, interface_pp, memory_pp, dedicated, resize) = {
            let e = &self.edges[eid];
            (
                e.dst,
                e.interface_per_packet,
                e.memory_per_packet,
                e.dedicated,
                e.resize,
            )
        };
        // Compression/decompression edges resize the request in place;
        // the resized data is what crosses the media and what
        // downstream stages compute on.
        if (resize - 1.0).abs() > f64::EPSILON {
            let p = st.arena.get_mut(h);
            p.size = p.size.scaled(resize);
        }
        let size = st.arena.get(h).size;

        // Finite ingress buffering: transfers issued by the ingress
        // engine are refused (RX overflow) once a medium's backlog
        // exceeds the cap. Mid-pipeline transfers are never refused —
        // their packets already occupy on-chip resources and drain the
        // backlog, so dropping them would deadlock the pipeline's
        // share of a saturated medium.
        let cap = if node == self.ingress {
            self.backlog_cap
        } else {
            SimTime::MAX
        };
        let mut t = Some(now);
        if interface_pp > 0.0 {
            t = t.and_then(|at| self.media[0].try_acquire(at, size.scaled(interface_pp), cap));
        }
        if memory_pp > 0.0 {
            t = t.and_then(|at| self.media[1].try_acquire(at, size.scaled(memory_pp), cap));
        }
        if let Some(d) = dedicated {
            t = t.and_then(|at| self.media[d].try_acquire(at, size, cap));
        }
        match t {
            Some(at) if at != SimTime::MAX => {
                st.push(at, Ev::arrive(dst, h));
            }
            _ => {
                // Medium starved or its buffering overflowed. Media
                // rejections are not retried — the packet never held
                // node credits, and RX overflow under sustained
                // overload would retry forever.
                self.nodes[node].drops += 1;
                if O::ENABLED {
                    obs.on_drop(
                        now,
                        node as u32,
                        st.arena.get(h).id,
                        DropReason::MediaBacklog,
                    );
                    obs.on_arena_free(now, h);
                    st.total_dropped += 1;
                }
                let injected_at = st.arena.get(h).injected_at;
                st.arena.free(h);
                if injected_at >= warmup {
                    st.dropped += 1;
                }
            }
        }
    }

    /// Serializes a packet onto uplink `pick` and emits it as a
    /// [`BoundaryPacket`]: the packet leaves this NIC's arena now and
    /// reappears at the far NIC's ingress at
    /// `max(now, link free) + size/bandwidth + latency`. Link
    /// serialization is modeled as a dedicated transmit queue — FIFO,
    /// never dropped (the far NIC's ingress buffering is the loss
    /// point, exactly as for local traffic).
    fn forward_uplink<O: SimObserver>(
        &mut self,
        pick: usize,
        h: PacketHandle,
        now: SimTime,
        st: &mut RunState,
        obs: &mut O,
    ) {
        let pkt = *st.arena.get(h);
        if O::ENABLED {
            obs.on_arena_free(now, h);
        }
        st.arena.free(h);
        let link = &mut self.uplinks[pick];
        let depart = now.max(link.next_free);
        let ser_ps = if link.bandwidth_bps.is_finite() && link.bandwidth_bps > 0.0 {
            ((pkt.size.get() * 8) as f64 / link.bandwidth_bps * 1e12).round() as u64
        } else {
            0
        };
        let ser = SimTime::from_picos(ser_ps);
        link.next_free = depart + ser;
        link.forwarded += 1;
        link.bytes += pkt.size.get();
        link.busy += ser;
        let arrive = depart + ser + link.latency;
        st.outbox.push(BoundaryPacket {
            arrive_ps: arrive.as_picos(),
            id: pkt.id,
            size: pkt.size,
            injected_at_ps: pkt.injected_at.as_picos(),
            class: pkt.class,
            corrupted: pkt.corrupted,
            dst_nic: link.dst_nic,
            src_nic: self.nic_index,
            emit_seq: st.emitted,
        });
        st.emitted += 1;
    }

    fn report(&self, end: SimTime, warmup: SimTime, st: RunState, events: u64) -> SimReport {
        let window = end.since(warmup).to_seconds();
        let secs = window.as_secs().max(f64::MIN_POSITIVE);
        let nodes = self
            .nodes
            .iter()
            .map(|n| NodeReport {
                name: n.name.clone(),
                arrivals: n.arrivals,
                served: n.served,
                drops: n.drops,
                max_queue: n.max_queue,
                utilization: n
                    .runtime
                    .as_ref()
                    .map(|rt| {
                        (rt.busy_time.as_secs()
                            / (end.as_secs().max(f64::MIN_POSITIVE) * rt.engines as f64))
                            .min(1.0)
                    })
                    .unwrap_or(0.0),
                mean_occupancy: n
                    .runtime
                    .as_ref()
                    .map(|rt| rt.occupancy_integral / end.as_secs().max(f64::MIN_POSITIVE))
                    .unwrap_or(0.0),
            })
            .collect();
        let media = self
            .media
            .iter()
            .map(|m| MediumReport {
                name: m.name().to_owned(),
                transferred: m.transferred(),
                utilization: m.utilization(end),
            })
            .collect();
        let classes = st
            .class_completed
            .iter()
            .zip(&st.class_bytes)
            .zip(&st.class_latency)
            .map(|((&completed, &bytes), &latency)| ClassReport {
                completed,
                bytes: lognic_model::units::Bytes::new(bytes),
                mean_latency: if completed > 0 {
                    Seconds::new(latency.as_secs() / completed as f64)
                } else {
                    Seconds::ZERO
                },
            })
            .collect();
        SimReport {
            duration: end.to_seconds(),
            window,
            injected: st.injected,
            completed: st.completed,
            dropped: st.dropped,
            offered: self.offered,
            throughput: Bandwidth::bps(st.completed_bytes_in_window as f64 * 8.0 / secs),
            goodput: Bandwidth::bps(st.good_bytes_in_window as f64 * 8.0 / secs),
            retries: st.retries,
            timed_out: st.timed_out,
            corrupted: st.corrupted,
            packet_rate: st.completed as f64 / secs,
            events,
            latency: LatencySummary::from_recorder(&st.recorder),
            classes,
            nodes,
            media,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lognic_model::params::{EdgeParams, IpParams};
    use lognic_model::units::Bytes;

    fn chain(gbps: f64, queue: u32) -> ExecutionGraph {
        ExecutionGraph::chain(
            "t",
            &[(
                "ip",
                IpParams::new(Bandwidth::gbps(gbps)).with_queue_capacity(queue),
            )],
        )
        .unwrap()
    }

    fn fast_hw() -> HardwareModel {
        HardwareModel::new(Bandwidth::gbps(10_000.0), Bandwidth::gbps(10_000.0))
    }

    fn run(g: &ExecutionGraph, hw: &HardwareModel, t: &TrafficProfile) -> SimReport {
        Simulation::builder(g, hw, t)
            .duration(Seconds::millis(10.0))
            .warmup(Seconds::millis(2.0))
            .run()
            .unwrap()
    }

    #[test]
    fn underloaded_chain_delivers_offered_rate() {
        let g = chain(10.0, 256);
        let t = TrafficProfile::fixed(Bandwidth::gbps(2.0), Bytes::new(1500));
        let r = run(&g, &fast_hw(), &t);
        assert!(r.completed > 1000, "completed = {}", r.completed);
        let err = (r.throughput.as_gbps() - 2.0).abs() / 2.0;
        assert!(err < 0.05, "throughput = {} ({err})", r.throughput);
        assert!(r.loss_rate() < 0.01);
    }

    #[test]
    fn overloaded_chain_saturates_at_capacity() {
        let g = chain(5.0, 64);
        let t = TrafficProfile::fixed(Bandwidth::gbps(20.0), Bytes::new(1500));
        let r = run(&g, &fast_hw(), &t);
        let got = r.throughput.as_gbps();
        assert!((got - 5.0).abs() / 5.0 < 0.07, "throughput = {got}");
        assert!(r.dropped > 0, "overload must drop");
        let ip = r.node("ip").unwrap();
        assert!(ip.utilization > 0.9, "utilization = {}", ip.utilization);
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let g = chain(5.0, 16);
        let t = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(512));
        let a = run(&g, &fast_hw(), &t);
        let b = run(&g, &fast_hw(), &t);
        assert_eq!(a, b);
    }

    #[test]
    fn max_packets_injects_exactly_that_many() {
        // The admission guard stops scheduling once `max_packets` have
        // entered the system — exactly N, not N−1 (a historical
        // off-by-one pinned here).
        let g = chain(50.0, 64);
        let t = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1500));
        for n in [1u64, 2, 5, 37] {
            let r = Simulation::builder(&g, &fast_hw(), &t)
                .config(SimConfig {
                    max_packets: n,
                    warmup: Seconds::ZERO,
                    duration: Seconds::millis(50.0),
                    ..SimConfig::default()
                })
                .run()
                .unwrap();
            assert_eq!(r.injected, n, "max_packets = {n}");
        }
    }

    #[test]
    fn different_seed_differs() {
        let g = chain(5.0, 16);
        let t = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(512));
        let a = Simulation::builder(&g, &fast_hw(), &t)
            .seed(1)
            .run()
            .unwrap();
        let b = Simulation::builder(&g, &fast_hw(), &t)
            .seed(2)
            .run()
            .unwrap();
        assert_ne!(a.latency.mean, b.latency.mean);
    }

    #[test]
    fn conservation_injected_equals_completed_plus_dropped_plus_inflight() {
        let g = chain(5.0, 8);
        let t = TrafficProfile::fixed(Bandwidth::gbps(6.0), Bytes::new(1500));
        let r = Simulation::builder(&g, &fast_hw(), &t)
            .duration(Seconds::millis(5.0))
            .warmup(Seconds::ZERO)
            .run()
            .unwrap();
        // With zero warmup and full drain, every injected packet either
        // completed or was dropped.
        assert_eq!(r.injected, r.completed + r.dropped);
    }

    #[test]
    fn latency_grows_with_load() {
        let g = chain(10.0, 512);
        let low = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(1500));
        let high = TrafficProfile::fixed(Bandwidth::gbps(9.0), Bytes::new(1500));
        let rl = run(&g, &fast_hw(), &low);
        let rh = run(&g, &fast_hw(), &high);
        assert!(rh.latency.mean > rl.latency.mean);
        assert!(rh.latency.p99 >= rh.latency.p50);
    }

    #[test]
    fn tiny_queue_drops_under_bursts() {
        let g = chain(10.0, 1);
        let t = TrafficProfile::fixed(Bandwidth::gbps(8.0), Bytes::new(1500));
        let r = run(&g, &fast_hw(), &t);
        assert!(r.loss_rate() > 0.1, "loss = {}", r.loss_rate());
    }

    #[test]
    fn fanout_routes_by_delta() {
        let mut b = ExecutionGraph::builder("f");
        let ing = b.ingress("in");
        let a = b.ip(
            "a",
            IpParams::new(Bandwidth::gbps(100.0)).with_queue_capacity(256),
        );
        let c = b.ip(
            "c",
            IpParams::new(Bandwidth::gbps(100.0)).with_queue_capacity(256),
        );
        let eg = b.egress("out");
        b.edge(ing, a, EdgeParams::new(0.8).unwrap());
        b.edge(ing, c, EdgeParams::new(0.2).unwrap());
        b.edge(a, eg, EdgeParams::new(0.8).unwrap());
        b.edge(c, eg, EdgeParams::new(0.2).unwrap());
        let g = b.build().unwrap();
        let t = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1500));
        let r = run(&g, &fast_hw(), &t);
        let na = r.node("a").unwrap().arrivals as f64;
        let nc = r.node("c").unwrap().arrivals as f64;
        let frac = na / (na + nc);
        assert!((frac - 0.8).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn shared_interface_limits_throughput() {
        // IP is fast, interface is 5 Gb/s and both edges use it fully:
        // each packet crosses twice → ~2.5 Gb/s delivered.
        let g = chain(1000.0, 256);
        let hw = HardwareModel::new(Bandwidth::gbps(5.0), Bandwidth::gbps(10_000.0));
        let t = TrafficProfile::fixed(Bandwidth::gbps(20.0), Bytes::new(1500));
        let r = run(&g, &hw, &t);
        let got = r.throughput.as_gbps();
        assert!((got - 2.5).abs() / 2.5 < 0.15, "throughput = {got}");
        let m = r.medium("interface").unwrap();
        assert!(m.utilization > 0.95);
    }

    #[test]
    fn dedicated_link_is_used() {
        let mut b = ExecutionGraph::builder("d");
        let ing = b.ingress("in");
        let ip = b.ip(
            "ip",
            IpParams::new(Bandwidth::gbps(100.0)).with_queue_capacity(64),
        );
        let eg = b.egress("out");
        b.edge(
            ing,
            ip,
            EdgeParams::full()
                .with_interface_fraction(0.0)
                .with_dedicated_bandwidth(Bandwidth::gbps(3.0)),
        );
        b.edge(ip, eg, EdgeParams::full().with_interface_fraction(0.0));
        let g = b.build().unwrap();
        let t = TrafficProfile::fixed(Bandwidth::gbps(10.0), Bytes::new(1500));
        let r = run(&g, &fast_hw(), &t);
        let got = r.throughput.as_gbps();
        assert!((got - 3.0).abs() / 3.0 < 0.1, "throughput = {got}");
        assert!(r.medium("link#0").unwrap().transferred > Bytes::new(0));
    }

    #[test]
    fn zero_traffic_runs_empty() {
        use lognic_model::analyze::{Code, Severity};
        let g = chain(10.0, 16);
        let t = TrafficProfile::fixed(Bandwidth::ZERO, Bytes::new(64));
        // A zero ingress rate is denied by default; the degenerate run
        // is still reachable by explicitly allowing L0402.
        let denied = Simulation::builder(&g, &fast_hw(), &t)
            .duration(Seconds::millis(10.0))
            .run();
        assert!(matches!(denied, Err(LogNicError::AnalysisRejected { .. })));
        let r = Simulation::builder(&g, &fast_hw(), &t)
            .duration(Seconds::millis(10.0))
            .warmup(Seconds::millis(2.0))
            .analysis(
                AnalysisConfig::default().set_severity(Code::ZeroIngressRate, Severity::Allow),
            )
            .run()
            .unwrap();
        assert_eq!(r.completed, 0);
        assert_eq!(r.injected, 0);
        assert_eq!(r.latency.count, 0);
    }

    #[test]
    fn build_surfaces_analysis_warnings() {
        use lognic_model::analyze::Code;
        // ρ = 2.5 on the compute bound: warned, not denied.
        let g = chain(10.0, 256);
        let t = TrafficProfile::fixed(Bandwidth::gbps(25.0), Bytes::new(1500));
        let sim = Simulation::builder(&g, &fast_hw(), &t)
            .duration(Seconds::millis(10.0))
            .warmup(Seconds::millis(2.0))
            .build()
            .unwrap();
        assert!(sim
            .analysis_warnings()
            .iter()
            .any(|d| d.code == Code::SaturatedPartition));
        // Escalating warnings rejects the same scenario.
        let strict = Simulation::builder(&g, &fast_hw(), &t)
            .duration(Seconds::millis(10.0))
            .warmup(Seconds::millis(2.0))
            .analysis(AnalysisConfig::default().deny_warnings(true))
            .build();
        assert!(matches!(strict, Err(LogNicError::AnalysisRejected { .. })));
        // A clean scenario carries no warnings.
        let calm = TrafficProfile::fixed(Bandwidth::gbps(2.0), Bytes::new(1500));
        let sim = Simulation::builder(&g, &fast_hw(), &calm)
            .duration(Seconds::millis(10.0))
            .warmup(Seconds::millis(2.0))
            .build()
            .unwrap();
        assert!(sim.analysis_warnings().is_empty());
    }

    #[test]
    fn paced_deterministic_run_has_low_variance() {
        let g = chain(10.0, 64);
        let t = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1500));
        let r = Simulation::builder(&g, &fast_hw(), &t)
            .arrival(ArrivalProcess::Paced)
            .service_dist(ServiceDist::Deterministic)
            .duration(Seconds::millis(5.0))
            .warmup(Seconds::millis(1.0))
            .run()
            .unwrap();
        // With pacing at 50% load there is no queueing at all: every
        // packet sees the same latency.
        assert!(r.latency.max.as_secs() - r.latency.p50.as_secs() < 1e-9);
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn parallel_engines_increase_capacity() {
        // Four engines at the same per-engine rate quadruple the
        // node's aggregate capacity.
        let p1 = IpParams::new(Bandwidth::gbps(5.0)).with_queue_capacity(128);
        let p4 = IpParams::new(Bandwidth::gbps(20.0))
            .with_parallelism(4)
            .with_queue_capacity(128);
        let g1 = ExecutionGraph::chain("d1", &[("ip", p1)]).unwrap();
        let g4 = ExecutionGraph::chain("d4", &[("ip", p4)]).unwrap();
        let t = TrafficProfile::fixed(Bandwidth::gbps(18.0), Bytes::new(1500));
        let r1 = run(&g1, &fast_hw(), &t);
        let r4 = run(&g4, &fast_hw(), &t);
        assert!(
            (r1.throughput.as_gbps() - 5.0).abs() / 5.0 < 0.08,
            "{}",
            r1.throughput
        );
        assert!(
            (r4.throughput.as_gbps() - 18.0).abs() / 18.0 < 0.08,
            "{}",
            r4.throughput
        );
        assert!(
            r4.latency.mean < r1.latency.mean,
            "the overloaded D=1 node queues hard"
        );
    }

    #[test]
    fn wrr_plan_isolates_tenant_drops() {
        use crate::wrr::{QueuePlan, QueueSpec};
        use lognic_model::params::PacketSizeDist;
        // Two classes share one node; class 0 floods. With a shared
        // queue, class 1 suffers; with per-class queues it is isolated.
        let g = ExecutionGraph::chain(
            "iso",
            &[(
                "ip",
                IpParams::new(Bandwidth::gbps(5.0)).with_queue_capacity(16),
            )],
        )
        .unwrap();
        let dist = PacketSizeDist::mix([
            (Bytes::new(1000), 0.8), // class 0: the aggressor
            (Bytes::new(1000), 0.2), // class 1: the victim
        ])
        .unwrap();
        let t = TrafficProfile::new(Bandwidth::gbps(8.0), dist);
        let plan = QueuePlan::weighted(vec![
            QueueSpec {
                capacity: 8,
                weight: 1,
            },
            QueueSpec {
                capacity: 8,
                weight: 1,
            },
        ]);
        let r = Simulation::builder(&g, &fast_hw(), &t)
            .duration(Seconds::millis(10.0))
            .warmup(Seconds::millis(2.0))
            .override_queues("ip", plan)
            .run()
            .unwrap();
        // The node is overloaded (8 > 5 Gb/s): drops happen, but the
        // victim's share of completions stays near its 20% offered
        // share because the WRR scheduler serves both queues equally
        // and the victim's queue rarely fills.
        assert!(r.dropped > 0);
        let ip = r.node("ip").unwrap();
        assert!(ip.drops > 0);
        // Delivered rate equals the node capacity.
        assert!(
            (r.throughput.as_gbps() - 5.0).abs() / 5.0 < 0.08,
            "{}",
            r.throughput
        );
    }

    #[test]
    fn wrr_weights_shape_service_shares_under_overload() {
        use crate::wrr::{QueuePlan, QueueSpec};
        use lognic_model::params::PacketSizeDist;
        // Equal offered shares, 3:1 weights: completions skew 3:1.
        let g = ExecutionGraph::chain(
            "wrr",
            &[(
                "ip",
                IpParams::new(Bandwidth::gbps(4.0)).with_queue_capacity(16),
            )],
        )
        .unwrap();
        let dist = PacketSizeDist::mix([(Bytes::new(1000), 0.5), (Bytes::new(1000), 0.5)]).unwrap();
        let t = TrafficProfile::new(Bandwidth::gbps(12.0), dist);
        let plan = QueuePlan::weighted(vec![
            QueueSpec {
                capacity: 16,
                weight: 3,
            },
            QueueSpec {
                capacity: 16,
                weight: 1,
            },
        ]);
        let r = Simulation::builder(&g, &fast_hw(), &t)
            .duration(Seconds::millis(10.0))
            .warmup(Seconds::millis(2.0))
            .override_queues("ip", plan)
            .run()
            .unwrap();
        assert!(
            (r.throughput.as_gbps() - 4.0).abs() / 4.0 < 0.08,
            "{}",
            r.throughput
        );
        assert!(r.loss_rate() > 0.5, "loss = {}", r.loss_rate());
        // Completions skew toward the weight-3 class.
        let share0 = r.class_share(0);
        assert!((share0 - 0.75).abs() < 0.05, "class-0 share = {share0}");
    }

    #[test]
    fn trace_replay_drives_the_simulation() {
        use crate::traffic::Trace;
        // 1000 paced packets of 1000 B every 2 µs = 4 Gb/s.
        let events: Vec<_> = (0..1000)
            .map(|i| (SimTime::from_micros(2.0 * i as f64), Bytes::new(1000), 0u32))
            .collect();
        let trace = Trace::from_events(events);
        let g = chain(10.0, 64);
        let t = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(1000));
        let r = Simulation::builder(&g, &fast_hw(), &t)
            .with_trace(trace)
            .duration(Seconds::millis(2.0))
            .warmup(Seconds::ZERO)
            .run()
            .unwrap();
        assert_eq!(r.injected, 1000);
        assert_eq!(r.dropped, 0);
        assert!(
            (r.throughput.as_gbps() - 4.0).abs() < 0.1,
            "{}",
            r.throughput
        );
    }

    #[test]
    fn empty_trace_is_silent() {
        use crate::traffic::Trace;
        let g = chain(10.0, 16);
        let t = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(1000));
        let r = Simulation::builder(&g, &fast_hw(), &t)
            .with_trace(Trace::default())
            .duration(Seconds::millis(1.0))
            .warmup(Seconds::ZERO)
            .run()
            .unwrap();
        assert_eq!(r.injected, 0);
        assert_eq!(r.completed, 0);
    }

    #[test]
    fn outage_drops_traffic_during_the_window() {
        let g = chain(10.0, 64);
        let t = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1000));
        let healthy = Simulation::builder(&g, &fast_hw(), &t)
            .duration(Seconds::millis(10.0))
            .warmup(Seconds::ZERO)
            .run()
            .unwrap();
        let faulty = Simulation::builder(&g, &fast_hw(), &t)
            .duration(Seconds::millis(10.0))
            .warmup(Seconds::ZERO)
            .inject_outage("ip", Seconds::millis(2.0), Seconds::millis(6.0))
            .run()
            .unwrap();
        assert_eq!(healthy.dropped, 0);
        // The 4 ms outage kills ~40% of the packets.
        let loss = faulty.loss_rate();
        assert!((loss - 0.4).abs() < 0.05, "loss = {loss}");
        // Conservation still holds under faults.
        assert_eq!(faulty.injected, faulty.completed + faulty.dropped);
    }

    #[test]
    fn outage_outside_window_is_harmless() {
        let g = chain(10.0, 64);
        let t = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1000));
        let r = Simulation::builder(&g, &fast_hw(), &t)
            .duration(Seconds::millis(5.0))
            .warmup(Seconds::ZERO)
            .inject_outage("ip", Seconds::millis(50.0), Seconds::millis(60.0))
            .run()
            .unwrap();
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn builder_debug_and_config() {
        let g = chain(1.0, 4);
        let hw = fast_hw();
        let t = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(64));
        let b = Simulation::builder(&g, &hw, &t).config(SimConfig::default());
        assert!(format!("{b:?}").contains("SimulationBuilder"));
        let sim = b.build().unwrap();
        assert!(format!("{sim:?}").contains("Simulation"));
    }

    #[test]
    fn retry_recovers_outage_refusals() {
        let g = chain(10.0, 64);
        let t = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1000));
        let plan = FaultPlan::new()
            .outage("ip", Seconds::millis(2.0), Seconds::millis(3.0))
            .with_retry(RetryPolicy::new(8, Seconds::micros(200.0)));
        let r = Simulation::builder(&g, &fast_hw(), &t)
            .duration(Seconds::millis(10.0))
            .warmup(Seconds::ZERO)
            .with_fault_plan(plan)
            .run()
            .unwrap();
        // A 1 ms outage refuses ~10 % of arrivals, but exponential
        // backoff (200 µs base) re-submits them past the window: with
        // a budget of 8 the longest cumulative backoff is ~51 ms, so
        // essentially every refused packet eventually lands.
        assert!(r.retries > 0, "outage must trigger retries");
        assert!(
            r.loss_rate() < 0.01,
            "retries should recover the outage: loss {} retries {}",
            r.loss_rate(),
            r.retries
        );
        assert_eq!(r.injected, r.completed + r.dropped, "conservation");
    }

    #[test]
    fn zero_budget_matches_plain_outage() {
        let g = chain(10.0, 64);
        let t = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1000));
        let run_with = |plan: FaultPlan| {
            Simulation::builder(&g, &fast_hw(), &t)
                .duration(Seconds::millis(10.0))
                .warmup(Seconds::ZERO)
                .with_fault_plan(plan)
                .run()
                .unwrap()
        };
        let outage = FaultPlan::new().outage("ip", Seconds::millis(2.0), Seconds::millis(6.0));
        let plain = run_with(outage.clone());
        let zero_budget = run_with(outage.with_retry(RetryPolicy::new(0, Seconds::micros(100.0))));
        assert_eq!(plain.dropped, zero_budget.dropped);
        assert_eq!(zero_budget.retries, 0);
    }

    #[test]
    fn rate_degradation_throttles_the_node() {
        let g = chain(10.0, 8);
        let t = TrafficProfile::fixed(Bandwidth::gbps(8.0), Bytes::new(1000));
        let horizon = Seconds::millis(20.0);
        let plan = FaultPlan::new().degrade_rate("ip", 0.25, Seconds::ZERO, horizon);
        let r = Simulation::builder(&g, &fast_hw(), &t)
            .duration(horizon)
            .warmup(Seconds::millis(4.0))
            .with_fault_plan(plan)
            .run()
            .unwrap();
        // Serving at 25 % of 10 Gb/s caps delivery near 2.5 Gb/s; the
        // short queue sheds the rest.
        assert!(
            (r.throughput.as_gbps() - 2.5).abs() < 0.4,
            "degraded throughput {}",
            r.throughput
        );
        assert!(r.loss_rate() > 0.5, "overload must shed load");
    }

    #[test]
    fn packet_drop_probability_is_respected() {
        let g = chain(10.0, 64);
        let t = TrafficProfile::fixed(Bandwidth::gbps(2.0), Bytes::new(1000));
        let horizon = Seconds::millis(20.0);
        let plan = FaultPlan::new().drop_packets("ip", 0.3, Seconds::ZERO, horizon);
        let r = Simulation::builder(&g, &fast_hw(), &t)
            .duration(horizon)
            .warmup(Seconds::ZERO)
            .with_fault_plan(plan)
            .run()
            .unwrap();
        let loss = r.loss_rate();
        assert!((loss - 0.3).abs() < 0.03, "loss {loss} should be ~0.3");
    }

    #[test]
    fn corruption_reduces_goodput_not_throughput() {
        let g = chain(10.0, 64);
        let t = TrafficProfile::fixed(Bandwidth::gbps(2.0), Bytes::new(1000));
        let horizon = Seconds::millis(20.0);
        let plan = FaultPlan::new().corrupt_packets("ip", 0.5, Seconds::ZERO, horizon);
        let r = Simulation::builder(&g, &fast_hw(), &t)
            .duration(horizon)
            .warmup(Seconds::ZERO)
            .with_fault_plan(plan)
            .run()
            .unwrap();
        assert_eq!(r.dropped, 0, "corruption does not drop packets");
        assert!(r.corrupted > 0);
        let ratio = r.goodput.as_bps() / r.throughput.as_bps();
        assert!((ratio - 0.5).abs() < 0.05, "goodput ratio {ratio}");
    }

    #[test]
    fn credit_loss_shrinks_the_queue() {
        let g = chain(10.0, 32);
        // Push hard so the queue bound is what matters.
        let t = TrafficProfile::fixed(Bandwidth::gbps(12.0), Bytes::new(1000));
        let horizon = Seconds::millis(10.0);
        let run_with = |plan: FaultPlan| {
            Simulation::builder(&g, &fast_hw(), &t)
                .duration(horizon)
                .warmup(Seconds::ZERO)
                .with_fault_plan(plan)
                .run()
                .unwrap()
        };
        let full = run_with(FaultPlan::new());
        let starved = run_with(FaultPlan::new().lose_credits("ip", 28, Seconds::ZERO, horizon));
        assert!(
            starved.node("ip").unwrap().max_queue < full.node("ip").unwrap().max_queue,
            "lost credits must cap the backlog: {} vs {}",
            starved.node("ip").unwrap().max_queue,
            full.node("ip").unwrap().max_queue
        );
        assert!(starved.dropped > full.dropped);
    }

    #[test]
    fn deadline_times_out_backlogged_packets() {
        // 1-wide queue at heavy overload: sojourns grow until the
        // deadline reaps them.
        let g = chain(2.0, 256);
        let t = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(1000));
        let plan = FaultPlan::new().with_deadline(Seconds::micros(30.0));
        let r = Simulation::builder(&g, &fast_hw(), &t)
            .duration(Seconds::millis(10.0))
            .warmup(Seconds::ZERO)
            .with_fault_plan(plan)
            .run()
            .unwrap();
        assert!(r.timed_out > 0, "overload must breach a 30 µs deadline");
        assert!(r.timed_out <= r.dropped, "timeouts are a kind of drop");
        // A packet passes the deadline gate at dequeue and then holds
        // an engine for one (exponential) service draw, so completed
        // latency is bounded by deadline + the service tail — far
        // below the ~1 ms head-of-line delay of a full 256-deep queue.
        assert!(
            r.latency.max.as_micros() <= 150.0,
            "deadline must bound completed sojourns: {}",
            r.latency.max
        );
    }

    #[test]
    fn faulted_runs_are_deterministic_per_seed() {
        let g = chain(10.0, 64);
        let t = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1000));
        let run_seeded = |seed: u64| {
            let plan = FaultPlan::new()
                .outage("ip", Seconds::millis(1.0), Seconds::millis(2.0))
                .drop_packets("ip", 0.1, Seconds::millis(3.0), Seconds::millis(5.0))
                .corrupt_packets("ip", 0.1, Seconds::millis(5.0), Seconds::millis(7.0))
                .with_retry(RetryPolicy::new(3, Seconds::micros(50.0)));
            Simulation::builder(&g, &fast_hw(), &t)
                .seed(seed)
                .duration(Seconds::millis(8.0))
                .warmup(Seconds::ZERO)
                .with_fault_plan(plan)
                .run()
                .unwrap()
        };
        assert_eq!(run_seeded(7), run_seeded(7), "same seed, same bits");
        assert_ne!(run_seeded(7), run_seeded(8), "fault draws follow the seed");
    }

    #[test]
    fn fault_free_plan_preserves_the_rng_stream() {
        // Installing an *empty* plan (or one with a retry policy but
        // no windows) must not perturb the event sequence.
        let g = chain(10.0, 64);
        let t = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1000));
        let plain = Simulation::builder(&g, &fast_hw(), &t)
            .seed(3)
            .duration(Seconds::millis(5.0))
            .warmup(Seconds::ZERO)
            .run()
            .unwrap();
        let with_empty_plan = Simulation::builder(&g, &fast_hw(), &t)
            .seed(3)
            .duration(Seconds::millis(5.0))
            .warmup(Seconds::ZERO)
            .with_fault_plan(
                FaultPlan::new().with_retry(RetryPolicy::new(4, Seconds::micros(10.0))),
            )
            .run()
            .unwrap();
        assert_eq!(plain, with_empty_plan);
    }

    #[test]
    fn watchdog_aborts_with_a_structured_report() {
        let g = chain(10.0, 64);
        let t = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1000));
        let err = Simulation::builder(&g, &fast_hw(), &t)
            .duration(Seconds::millis(10.0))
            .config(SimConfig {
                max_events: 50,
                duration: Seconds::millis(10.0),
                warmup: Seconds::ZERO,
                ..SimConfig::default()
            })
            .run()
            .unwrap_err();
        match err {
            LogNicError::WatchdogAbort {
                events, injected, ..
            } => {
                assert_eq!(events, 51, "aborts on the first event past the budget");
                assert!(injected > 0);
            }
            other => panic!("expected WatchdogAbort, got {other}"),
        }
    }

    #[test]
    fn build_rejects_malformed_inputs_with_typed_errors() {
        let g = chain(10.0, 64);
        let hw = fast_hw();
        let t = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(1000));
        let base = || Simulation::builder(&g, &hw, &t);

        let err = base()
            .inject_outage("ghost", Seconds::ZERO, Seconds::millis(1.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, LogNicError::UnknownNode { .. }), "{err}");

        let err = base()
            .inject_outage("ip", Seconds::millis(2.0), Seconds::millis(1.0))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, LogNicError::InvalidFaultWindow { .. }),
            "{err}"
        );

        let err = base()
            .with_fault_plan(FaultPlan::new().drop_packets(
                "ip",
                1.5,
                Seconds::ZERO,
                Seconds::millis(1.0),
            ))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, LogNicError::InvalidFaultParameter { .. }),
            "{err}"
        );

        let err = base()
            .override_service(
                "ghost",
                Box::new(RateService::new(
                    Bandwidth::gbps(1.0),
                    ServiceDist::Exponential,
                )),
            )
            .build()
            .unwrap_err();
        assert!(matches!(err, LogNicError::UnknownNode { .. }), "{err}");

        let err = base()
            .config(SimConfig {
                warmup: Seconds::millis(10.0),
                duration: Seconds::millis(1.0),
                ..SimConfig::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, LogNicError::InvalidConfig { .. }), "{err}");

        let err = base()
            .config(SimConfig {
                max_packets: 0,
                ..SimConfig::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, LogNicError::InvalidConfig { .. }), "{err}");
    }
}

#[cfg(test)]
mod engine_tests {
    use super::*;

    use lognic_model::params::IpParams;
    use lognic_model::units::Bytes;

    fn pipeline() -> ExecutionGraph {
        ExecutionGraph::chain(
            "p",
            &[
                (
                    "parse",
                    IpParams::new(Bandwidth::gbps(12.0)).with_parallelism(2),
                ),
                (
                    "crypto",
                    IpParams::new(Bandwidth::gbps(8.0)).with_queue_capacity(24),
                ),
                ("dma", IpParams::new(Bandwidth::gbps(16.0))),
            ],
        )
        .unwrap()
    }

    fn hw() -> HardwareModel {
        HardwareModel::new(Bandwidth::gbps(100.0), Bandwidth::gbps(80.0))
    }

    #[test]
    fn unknown_nodes_are_aggregated() {
        let g = pipeline();
        let t = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(512));
        // One dangling name keeps the precise single-node error.
        let err = Simulation::builder(&g, &hw(), &t)
            .override_queues("ghost", QueuePlan::single(8))
            .build()
            .unwrap_err();
        assert!(matches!(err, LogNicError::UnknownNode { .. }), "{err}");
        // Several dangling names across different reference kinds come
        // back as one aggregate, in declaration order.
        let err = Simulation::builder(&g, &hw(), &t)
            .override_service(
                "phantom",
                Box::new(RateService::new(
                    Bandwidth::gbps(1.0),
                    ServiceDist::Exponential,
                )),
            )
            .override_queues("ghost", QueuePlan::single(8))
            .inject_outage("wraith", Seconds::millis(1.0), Seconds::millis(2.0))
            .build()
            .unwrap_err();
        match err {
            LogNicError::UnknownNodes { references } => {
                let got: Vec<(&str, &str)> =
                    references.iter().map(|(c, n)| (*c, n.as_str())).collect();
                assert_eq!(
                    got,
                    vec![
                        ("service override", "phantom"),
                        ("queue plan", "ghost"),
                        ("outage", "wraith"),
                    ]
                );
            }
            other => panic!("expected aggregate error, got {other}"),
        }
    }

    #[test]
    fn compiled_fault_plan_runs_like_declarative() {
        let g = pipeline();
        let t = TrafficProfile::fixed(Bandwidth::gbps(6.0), Bytes::new(1024));
        let plan = FaultPlan::new()
            .degrade_rate("crypto", 0.4, Seconds::millis(2.0), Seconds::millis(4.0))
            .with_retry(RetryPolicy::new(1, Seconds::micros(25.0)));
        let compiled = CompiledFaultPlan::compile(&plan, &g).unwrap();
        for seed in [5, 55] {
            let declarative = Simulation::builder(&g, &hw(), &t)
                .seed(seed)
                .with_fault_plan(plan.clone())
                .run()
                .unwrap();
            let shared = Simulation::builder(&g, &hw(), &t)
                .seed(seed)
                .with_compiled_faults(&compiled)
                .run()
                .unwrap();
            assert_eq!(declarative, shared, "seed {seed}");
        }
    }
}
