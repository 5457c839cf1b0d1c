//! Runtime sanitizer: engine-invariant checking over the observer
//! stream.
//!
//! [`Sanitizer`] is a [`SimObserver`] that reconstructs the engine's
//! accounting from the event stream and cross-checks it against the
//! engine's own end-of-run [`RunAudit`]. It validates, during the run:
//!
//! * **Packet conservation** — every delivered or dropped packet was
//!   injected exactly once, and the ledger
//!   `injected = delivered + dropped + in-flight` closes to zero
//!   in-flight when the event queue drains.
//! * **Credit balance** — a shared-queue admission never exceeds the
//!   node's credit account `capacity − active credit-loss`, and a node
//!   never has more packets in service than engines.
//! * **Arena discipline** — packet slab handles are never freed twice
//!   or reallocated while live, and no slab outlives the run.
//! * **Timestamp monotonicity** — dispatched events carry
//!   non-decreasing timestamps and consecutive sequence numbers.
//! * **Occupancy/busy-time accounts** — the busy-time sum recomputed
//!   from service-start occupancies matches the engine's integer
//!   accumulator *exactly*, and the reconstructed ∫(busy + queued) dt
//!   integral matches the engine's within floating-point rounding.
//! * **RNG draw audit** — the run's total uniform draw count is
//!   surfaced in the [`SanitizerReport`] so differential harnesses can
//!   assert that reruns of one scenario draw identically.
//!
//! ## Passivity
//!
//! The sanitizer only *reads* the events it is handed: it never touches the
//! RNG, the event queue or any packet, so a sanitized run's
//! [`SimReport`](crate::metrics::SimReport) is byte-identical to the
//! unsanitized run (the sanitizer suite pins this over randomized
//! scenarios). Violations are *recorded*,
//! never acted on mid-run — detection cannot perturb the stream it is
//! checking. A violation always indicates an engine (or sanitizer)
//! bug: mis-specified scenarios are rejected by the static analyzer
//! before a run ever starts.

use std::collections::{HashMap, HashSet};

use crate::time::SimTime;
use crate::trace::{RunAudit, RunMeta, SimEvent, SimObserver};
use lognic_model::error::{LogNicError, LogNicResult};
use lognic_model::fault::FaultKind;

/// Cap on recorded violations; a single broken invariant usually
/// cascades, and the first few entries carry all the signal.
pub const MAX_VIOLATIONS: usize = 32;

/// Relative tolerance for the occupancy-integral cross-check. The
/// engine and the sanitizer partition the same piecewise-constant
/// integral at different event boundaries, so the `f64` sums agree
/// only up to accumulated rounding.
const OCCUPANCY_RTOL: f64 = 1e-6;

/// Absolute floor for the occupancy-integral cross-check (covers
/// integrals near zero, where a relative bound is vacuous).
const OCCUPANCY_ATOL: f64 = 1e-9;

/// Which engine invariant a [`Violation`] broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Invariant {
    /// Dispatched event timestamps ran backwards.
    MonotonicTime,
    /// Dispatch sequence numbers skipped or repeated.
    EventSequence,
    /// The packet ledger (injected = delivered + dropped + in-flight)
    /// failed to balance, or a packet was delivered/dropped that was
    /// never injected.
    PacketConservation,
    /// A queue admission exceeded the node's credit account, or more
    /// packets were in service than the node has engines.
    CreditBalance,
    /// An arena handle was freed twice, reallocated while live, or
    /// leaked past the end of the run.
    ArenaDiscipline,
    /// The busy-time or occupancy accounts reconstructed from the
    /// stream disagree with the engine's accumulators.
    ServiceAccount,
    /// The engine's end-of-run audit disagrees with the counters the
    /// sanitizer reconstructed from the stream.
    AuditMismatch,
}

impl Invariant {
    /// Short stable kebab-case name (used in error reports).
    pub fn as_str(self) -> &'static str {
        match self {
            Invariant::MonotonicTime => "monotonic-time",
            Invariant::EventSequence => "event-sequence",
            Invariant::PacketConservation => "packet-conservation",
            Invariant::CreditBalance => "credit-balance",
            Invariant::ArenaDiscipline => "arena-discipline",
            Invariant::ServiceAccount => "service-account",
            Invariant::AuditMismatch => "audit-mismatch",
        }
    }
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The invariant that broke.
    pub invariant: Invariant,
    /// Node the violation is attributed to, when local to one.
    pub node: Option<String>,
    /// Sequence number of the last dispatched event when the
    /// violation was detected (`0` before the first event or during
    /// the end-of-run audit).
    pub event: u64,
    /// Human-readable account of the inconsistency.
    pub detail: String,
}

impl Violation {
    /// Converts the violation into the workspace error type.
    pub fn to_error(&self) -> LogNicError {
        LogNicError::SanitizerViolation {
            invariant: self.invariant.as_str().to_owned(),
            node: self.node.clone(),
            event: self.event,
            detail: self.detail.clone(),
        }
    }
}

/// The sanitizer's account of a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizerReport {
    /// Recorded violations, in detection order (empty for a clean
    /// run; capped at [`MAX_VIOLATIONS`]).
    pub violations: Vec<Violation>,
    /// Uniform RNG draws the run performed (from the engine audit).
    /// Reruns of one scenario must agree.
    pub rng_draws: u64,
    /// Events dispatched.
    pub events: u64,
    /// Packets injected (all-time, no warmup filter).
    pub injected: u64,
    /// Packets delivered at the egress (all-time).
    pub delivered: u64,
    /// Packets dropped (all-time).
    pub dropped: u64,
    /// High-water mark of concurrently live arena slots.
    pub arena_high_water: usize,
}

impl SanitizerReport {
    /// Whether the run held every invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// `Ok` for a clean run; the first violation as
    /// [`LogNicError::SanitizerViolation`] otherwise.
    ///
    /// # Errors
    ///
    /// Returns the first recorded violation.
    pub fn check(&self) -> LogNicResult<()> {
        match self.violations.first() {
            None => Ok(()),
            Some(v) => Err(v.to_error()),
        }
    }
}

/// Per-node mirror state reconstructed from the observer stream.
#[derive(Debug, Default)]
struct NodeState {
    name: String,
    engines: u32,
    capacity: u32,
    wrr: bool,
    /// Packet ids currently in service.
    busy: HashSet<u64>,
    /// Packet ids currently waiting in the node's queue.
    waiting: HashSet<u64>,
    /// Recomputed engine-occupancy sum (integer picoseconds — must
    /// match the engine's accumulator exactly).
    busy_time: SimTime,
    /// Recomputed ∫(busy + queued) dt.
    occupancy_integral: f64,
    occupancy_last: SimTime,
    /// Active credit-loss windows `(from, until, credits)`, half-open.
    credit_windows: Vec<(SimTime, SimTime, u32)>,
    served: u64,
    drops: u64,
}

impl NodeState {
    /// Sum of credits removed by windows active at `now` (mirrors
    /// `NodeFaults::credit_loss_at`).
    fn credit_loss_at(&self, now: SimTime) -> u32 {
        self.credit_windows
            .iter()
            .filter(|&&(from, until, _)| from <= now && now < until)
            .map(|&(_, _, c)| c)
            .sum()
    }
}

/// The runtime sanitizer observer. See the [module docs](self) for
/// the invariant catalogue and the passivity argument.
///
/// Attach via [`Simulation::run_sanitized`](crate::sim::Simulation::run_sanitized)
/// (which also converts violations into errors), or compose it with
/// other sinks through the tuple observer and call
/// [`Sanitizer::finish`] yourself.
#[derive(Debug, Default)]
pub struct Sanitizer {
    nodes: Vec<NodeState>,
    ingress: u32,
    horizon: SimTime,
    /// Last dispatched event's timestamp.
    last_time: SimTime,
    /// Last dispatched event's sequence number.
    last_seq: u64,
    /// Live arena handles → packet id.
    live: HashMap<u32, u64>,
    /// Injected, not yet delivered or dropped, by packet id.
    inflight: HashSet<u64>,
    injected: u64,
    delivered: u64,
    dropped: u64,
    rng_draws: u64,
    arena_high_water: usize,
    audited: bool,
    violations: Vec<Violation>,
}

impl Sanitizer {
    /// Creates a sanitizer ready to attach to one run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Consumes the sanitizer and returns its account of the run.
    pub fn finish(self) -> SanitizerReport {
        SanitizerReport {
            violations: self.violations,
            rng_draws: self.rng_draws,
            events: self.last_seq,
            injected: self.injected,
            delivered: self.delivered,
            dropped: self.dropped,
            arena_high_water: self.arena_high_water,
        }
    }

    fn record(&mut self, invariant: Invariant, node: Option<usize>, detail: String) {
        if self.violations.len() >= MAX_VIOLATIONS {
            return;
        }
        self.violations.push(Violation {
            invariant,
            node: node.and_then(|i| self.nodes.get(i)).map(|n| n.name.clone()),
            event: self.last_seq,
            detail,
        });
    }

    /// Whether `node` is a valid interned id; records a violation and
    /// returns `false` otherwise (the sanitizer never panics on a
    /// malformed stream — it reports it).
    fn check_node(&mut self, node: u32) -> bool {
        if (node as usize) < self.nodes.len() {
            true
        } else {
            self.record(
                Invariant::AuditMismatch,
                None,
                format!("hook referenced unknown node id {node}"),
            );
            false
        }
    }

    /// Advances `node`'s occupancy integral to `min(now, horizon)`;
    /// call before any change to the node's in-system count. Mirrors
    /// the engine's `touch_occupancy` (the partition points differ,
    /// which is why the final comparison carries a tolerance).
    fn advance_occupancy(&mut self, node: usize, now: SimTime) {
        let upto = if now < self.horizon {
            now
        } else {
            self.horizon
        };
        let ns = &mut self.nodes[node];
        if upto > ns.occupancy_last {
            let span = upto.since(ns.occupancy_last).as_secs();
            let in_system = ns.busy.len() + ns.waiting.len();
            ns.occupancy_integral += in_system as f64 * span;
            ns.occupancy_last = upto;
        }
    }

    fn fault_window(&mut self, node: u32, kind: FaultKind, from: SimTime, until: SimTime) {
        let credits = kind.credits_lost();
        if credits > 0 && self.check_node(node) {
            self.nodes[node as usize]
                .credit_windows
                .push((from, until, credits));
        }
    }

    fn dispatch(&mut self, now: SimTime, seq: u64) {
        if now < self.last_time {
            self.record(
                Invariant::MonotonicTime,
                None,
                format!(
                    "event #{seq} at {}s dispatched after {}s",
                    now.as_secs(),
                    self.last_time.as_secs()
                ),
            );
        }
        if seq != self.last_seq + 1 {
            self.record(
                Invariant::EventSequence,
                None,
                format!("dispatch sequence jumped from {} to {seq}", self.last_seq),
            );
        }
        self.last_time = now;
        self.last_seq = seq;
    }

    fn inject(&mut self, pkt: u64) {
        self.injected += 1;
        if !self.inflight.insert(pkt) {
            self.record(
                Invariant::PacketConservation,
                Some(self.ingress as usize),
                format!("packet {pkt} injected while already in flight"),
            );
        }
    }

    fn enqueue(&mut self, now: SimTime, node: u32, pkt: u64, depth: u32) {
        if !self.check_node(node) {
            return;
        }
        let idx = node as usize;
        self.advance_occupancy(idx, now);
        let credit_loss = self.nodes[idx].credit_loss_at(now);
        let ns = &mut self.nodes[idx];
        if !ns.waiting.insert(pkt) {
            let detail = format!("packet {pkt} enqueued while already waiting");
            self.record(Invariant::CreditBalance, Some(idx), detail);
            return;
        }
        if ns.waiting.len() != depth as usize {
            let detail = format!(
                "reported queue depth {depth} != reconstructed {}",
                ns.waiting.len()
            );
            self.record(Invariant::AuditMismatch, Some(idx), detail);
        }
        let ns = &self.nodes[idx];
        if ns.wrr {
            // WRR plans bound *waiting* packets per class queue; the
            // total can never exceed the summed nominal capacity.
            if depth > ns.capacity {
                let detail = format!("WRR depth {depth} exceeds total capacity {}", ns.capacity);
                self.record(Invariant::CreditBalance, Some(idx), detail);
            }
        } else {
            // Shared queues run a credit account over in-service plus
            // waiting: active credit-loss windows shrink it, floored
            // at one credit.
            let effective = ns.capacity.saturating_sub(credit_loss).max(1);
            let in_system = ns.busy.len() + depth as usize;
            if in_system > effective as usize {
                let detail = format!(
                    "admission left {in_system} in system against a credit \
                     account of {effective} ({} nominal − {credit_loss} \
                     credit loss)",
                    ns.capacity
                );
                self.record(Invariant::CreditBalance, Some(idx), detail);
            }
        }
    }

    fn dequeue(&mut self, now: SimTime, node: u32, pkt: u64, depth: u32) {
        if !self.check_node(node) {
            return;
        }
        let idx = node as usize;
        self.advance_occupancy(idx, now);
        let ns = &mut self.nodes[idx];
        if !ns.waiting.remove(&pkt) {
            let detail = format!("packet {pkt} dequeued but was never enqueued");
            self.record(Invariant::PacketConservation, Some(idx), detail);
            return;
        }
        if ns.waiting.len() != depth as usize {
            let detail = format!(
                "reported queue depth {depth} != reconstructed {}",
                ns.waiting.len()
            );
            self.record(Invariant::AuditMismatch, Some(idx), detail);
        }
    }

    fn service_start(&mut self, now: SimTime, node: u32, pkt: u64, occupancy: SimTime) {
        if !self.check_node(node) {
            return;
        }
        let idx = node as usize;
        self.advance_occupancy(idx, now);
        let ns = &mut self.nodes[idx];
        if !ns.busy.insert(pkt) {
            let detail = format!("packet {pkt} entered service twice");
            self.record(Invariant::CreditBalance, Some(idx), detail);
            return;
        }
        ns.busy_time += occupancy;
        if ns.busy.len() > ns.engines as usize {
            let (busy, engines) = (ns.busy.len(), ns.engines);
            let detail = format!("{busy} packets in service on {engines} engines");
            self.record(Invariant::CreditBalance, Some(idx), detail);
        }
    }

    fn complete(&mut self, now: SimTime, node: u32, pkt: u64) {
        if !self.check_node(node) {
            return;
        }
        let idx = node as usize;
        self.advance_occupancy(idx, now);
        let ns = &mut self.nodes[idx];
        ns.served += 1;
        if !ns.busy.remove(&pkt) {
            let detail = format!("packet {pkt} completed service it never started");
            self.record(Invariant::PacketConservation, Some(idx), detail);
        }
    }

    fn deliver(&mut self, pkt: u64) {
        self.delivered += 1;
        if !self.inflight.remove(&pkt) {
            self.record(
                Invariant::PacketConservation,
                None,
                format!("packet {pkt} delivered but never injected"),
            );
        }
    }

    fn drop_packet(&mut self, now: SimTime, node: u32, pkt: u64) {
        self.dropped += 1;
        if !self.check_node(node) {
            return;
        }
        let idx = node as usize;
        // A reaped head-of-line packet leaves the queue without a
        // `Dequeue`; packets dropped on arrival were never queued.
        self.advance_occupancy(idx, now);
        self.nodes[idx].waiting.remove(&pkt);
        self.nodes[idx].drops += 1;
        if !self.inflight.remove(&pkt) {
            self.record(
                Invariant::PacketConservation,
                Some(idx),
                format!("packet {pkt} dropped but never injected"),
            );
        }
    }

    fn arena_alloc(&mut self, handle: u32, pkt: u64) {
        if self.live.insert(handle, pkt).is_some() {
            self.record(
                Invariant::ArenaDiscipline,
                None,
                format!("arena handle {handle} reallocated while live (packet {pkt})"),
            );
        }
        self.arena_high_water = self.arena_high_water.max(self.live.len());
    }

    fn arena_free(&mut self, handle: u32) {
        if self.live.remove(&handle).is_none() {
            self.record(
                Invariant::ArenaDiscipline,
                None,
                format!("arena handle {handle} freed while not live (double free)"),
            );
        }
    }
}

impl SimObserver for Sanitizer {
    fn on_run_start(&mut self, meta: &RunMeta) {
        self.nodes = meta
            .nodes
            .iter()
            .map(|n| NodeState {
                name: n.name.clone(),
                engines: n.engines,
                capacity: n.queue_capacity,
                wrr: n.wrr,
                ..NodeState::default()
            })
            .collect();
        self.ingress = meta.ingress;
        self.horizon = meta.duration;
    }

    fn on(&mut self, now: SimTime, event: SimEvent) {
        match event {
            SimEvent::FaultWindow { node, kind, until } => {
                self.fault_window(node, kind, now, until)
            }
            SimEvent::Dispatch { seq } => self.dispatch(now, seq),
            SimEvent::Inject { pkt, .. } => self.inject(pkt),
            SimEvent::ArenaAlloc { handle, pkt } => self.arena_alloc(handle, pkt),
            SimEvent::ArenaFree { handle } => self.arena_free(handle),
            SimEvent::Enqueue { node, pkt, depth } => self.enqueue(now, node, pkt, depth),
            SimEvent::Dequeue { node, pkt, depth } => self.dequeue(now, node, pkt, depth),
            SimEvent::ServiceStart {
                node,
                pkt,
                occupancy,
            } => self.service_start(now, node, pkt, occupancy),
            SimEvent::Complete { node, pkt } => self.complete(now, node, pkt),
            SimEvent::Deliver { pkt, .. } => self.deliver(pkt),
            SimEvent::Drop { node, pkt, .. } => self.drop_packet(now, node, pkt),
            SimEvent::Retry { .. } => {}
        }
    }

    fn on_run_audit(&mut self, audit: &RunAudit) {
        self.audited = true;
        self.rng_draws = audit.rng_draws;

        // Packet-conservation closure: when the event queue drains,
        // every injected packet has been delivered or dropped.
        if self.injected != self.delivered + self.dropped || !self.inflight.is_empty() {
            let detail = format!(
                "ledger did not close: {} injected, {} delivered, {} dropped, \
                 {} still in flight",
                self.injected,
                self.delivered,
                self.dropped,
                self.inflight.len()
            );
            self.record(Invariant::PacketConservation, None, detail);
        }
        for (counter, mine, engine) in [
            ("injected", self.injected, audit.total_injected),
            ("delivered", self.delivered, audit.total_delivered),
            ("dropped", self.dropped, audit.total_dropped),
        ] {
            if mine != engine {
                let detail =
                    format!("stream saw {mine} {counter} packets, engine counted {engine}");
                self.record(Invariant::AuditMismatch, None, detail);
            }
        }

        // Arena closure: no live slabs past the end of the run, and
        // the engine agrees about the live count.
        if audit.arena_live != self.live.len() {
            let detail = format!(
                "engine reports {} live arena slots, stream reconstructed {}",
                audit.arena_live,
                self.live.len()
            );
            self.record(Invariant::ArenaDiscipline, None, detail);
        }
        if !self.live.is_empty() {
            let mut handles: Vec<u32> = self.live.keys().copied().collect();
            handles.sort_unstable();
            let detail = format!(
                "{} arena handles leaked past the end of the run: {handles:?}",
                handles.len()
            );
            self.record(Invariant::ArenaDiscipline, None, detail);
        }

        if audit.events != self.last_seq {
            let detail = format!(
                "engine dispatched {} events, stream observed {}",
                audit.events, self.last_seq
            );
            self.record(Invariant::AuditMismatch, None, detail);
        }

        for i in 0..self.nodes.len().min(audit.nodes.len()) {
            let na = &audit.nodes[i];
            let (busy, waiting, busy_time, integral, served, drops) = {
                let ns = &self.nodes[i];
                (
                    ns.busy.len(),
                    ns.waiting.len(),
                    ns.busy_time,
                    ns.occupancy_integral,
                    ns.served,
                    ns.drops,
                )
            };
            if na.busy as usize != busy {
                let detail = format!("engine reports {} busy engines, stream {}", na.busy, busy);
                self.record(Invariant::AuditMismatch, Some(i), detail);
            }
            if na.queued as usize != waiting {
                let detail = format!(
                    "engine reports {} queued packets, stream {}",
                    na.queued, waiting
                );
                self.record(Invariant::AuditMismatch, Some(i), detail);
            }
            if na.busy_time != busy_time {
                let detail = format!(
                    "busy-time account drifted: engine {}s, recomputed {}s",
                    na.busy_time.as_secs(),
                    busy_time.as_secs()
                );
                self.record(Invariant::ServiceAccount, Some(i), detail);
            }
            let tol =
                OCCUPANCY_ATOL + OCCUPANCY_RTOL * na.occupancy_integral.abs().max(integral.abs());
            if (na.occupancy_integral - integral).abs() > tol {
                let detail = format!(
                    "occupancy integral drifted: engine {}, recomputed {integral}",
                    na.occupancy_integral
                );
                self.record(Invariant::ServiceAccount, Some(i), detail);
            }
            if na.served != served {
                let detail = format!(
                    "engine served {} at this node, stream saw {}",
                    na.served, served
                );
                self.record(Invariant::AuditMismatch, Some(i), detail);
            }
            if na.drops != drops {
                let detail = format!(
                    "engine dropped {} at this node, stream saw {}",
                    na.drops, drops
                );
                self.record(Invariant::AuditMismatch, Some(i), detail);
            }
        }
        if audit.nodes.len() != self.nodes.len() {
            let detail = format!(
                "audit covers {} nodes, run started with {}",
                audit.nodes.len(),
                self.nodes.len()
            );
            self.record(Invariant::AuditMismatch, None, detail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{DropReason, NodeAudit, NodeMeta};

    fn t(us: f64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn meta() -> RunMeta {
        RunMeta {
            seed: 1,
            duration: t(100.0),
            warmup: SimTime::ZERO,
            nodes: vec![
                NodeMeta {
                    name: "rx".into(),
                    engines: 0,
                    queue_capacity: 0,
                    wrr: false,
                },
                NodeMeta {
                    name: "ip".into(),
                    engines: 2,
                    queue_capacity: 4,
                    wrr: false,
                },
                NodeMeta {
                    name: "tx".into(),
                    engines: 0,
                    queue_capacity: 0,
                    wrr: false,
                },
            ],
            ingress: 0,
            egress: 2,
        }
    }

    /// An audit consistent with "nothing happened".
    fn empty_audit(nodes: usize) -> RunAudit {
        RunAudit {
            nodes: (0..nodes)
                .map(|_| NodeAudit {
                    busy: 0,
                    queued: 0,
                    busy_time: SimTime::ZERO,
                    occupancy_integral: 0.0,
                    arrivals: 0,
                    served: 0,
                    drops: 0,
                })
                .collect(),
            arena_live: 0,
            arena_high_water: 0,
            rng_draws: 0,
            events: 0,
            total_injected: 0,
            total_delivered: 0,
            total_dropped: 0,
        }
    }

    #[test]
    fn clean_hand_driven_run_passes() {
        let mut s = Sanitizer::new();
        s.on_run_start(&meta());
        // Packet 7 travels rx → ip (service) → tx.
        s.on(t(1.0), SimEvent::ArenaAlloc { handle: 0, pkt: 7 });
        s.on(t(1.0), SimEvent::Dispatch { seq: 1 });
        s.on(
            t(1.0),
            SimEvent::Inject {
                pkt: 7,
                size: 64,
                class: 0,
            },
        );
        s.on(t(1.0), SimEvent::Dispatch { seq: 2 });
        s.on(
            t(1.0),
            SimEvent::ServiceStart {
                node: 1,
                pkt: 7,
                occupancy: t(2.0),
            },
        );
        s.on(t(3.0), SimEvent::Dispatch { seq: 3 });
        s.on(t(3.0), SimEvent::Complete { node: 1, pkt: 7 });
        s.on(t(3.0), SimEvent::ArenaFree { handle: 0 });
        s.on(
            t(3.0),
            SimEvent::Deliver {
                pkt: 7,
                latency: t(2.0),
            },
        );
        let mut audit = empty_audit(3);
        audit.events = 3;
        audit.total_injected = 1;
        audit.total_delivered = 1;
        audit.nodes[1].busy_time = t(2.0);
        audit.nodes[1].served = 1;
        audit.nodes[1].occupancy_integral = t(2.0).as_secs();
        s.on_run_audit(&audit);
        let report = s.finish();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.check().is_ok());
        assert_eq!(report.injected, 1);
        assert_eq!(report.delivered, 1);
        assert_eq!(report.events, 3);
    }

    #[test]
    fn silent_packet_loss_trips_the_ledger() {
        let mut s = Sanitizer::new();
        s.on_run_start(&meta());
        s.on(t(1.0), SimEvent::Dispatch { seq: 1 });
        s.on(
            t(1.0),
            SimEvent::Inject {
                pkt: 7,
                size: 64,
                class: 0,
            },
        );
        // Packet 7 vanishes: no deliver, no drop.
        let mut audit = empty_audit(3);
        audit.events = 1;
        audit.total_injected = 1;
        s.on_run_audit(&audit);
        let report = s.finish();
        assert!(!report.is_clean());
        assert_eq!(
            report.violations[0].invariant,
            Invariant::PacketConservation
        );
        assert!(report.violations[0].detail.contains("in flight"));
        let err = report.check().unwrap_err();
        assert!(matches!(
            err,
            LogNicError::SanitizerViolation { ref invariant, .. }
                if invariant == "packet-conservation"
        ));
    }

    #[test]
    fn double_free_and_leak_are_arena_violations() {
        let mut s = Sanitizer::new();
        s.on_run_start(&meta());
        s.on(t(1.0), SimEvent::ArenaAlloc { handle: 3, pkt: 1 });
        s.on(t(2.0), SimEvent::ArenaFree { handle: 3 });
        s.on(t(2.0), SimEvent::ArenaFree { handle: 3 }); // double free
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].invariant, Invariant::ArenaDiscipline);

        let mut s = Sanitizer::new();
        s.on_run_start(&meta());
        s.on(t(1.0), SimEvent::ArenaAlloc { handle: 3, pkt: 1 });
        let mut audit = empty_audit(3);
        audit.arena_live = 1; // engine agrees the slab is live…
        s.on_run_audit(&audit);
        // …but a live slab past the end of the run is still a leak.
        let report = s.finish();
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::ArenaDiscipline && v.detail.contains("leaked")));
    }

    #[test]
    fn time_regression_and_seq_skip_are_violations() {
        let mut s = Sanitizer::new();
        s.on_run_start(&meta());
        s.on(t(5.0), SimEvent::Dispatch { seq: 1 });
        s.on(t(4.0), SimEvent::Dispatch { seq: 2 }); // time runs backwards
        s.on(t(6.0), SimEvent::Dispatch { seq: 4 }); // sequence skips 3
        let kinds: Vec<Invariant> = s.violations().iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&Invariant::MonotonicTime));
        assert!(kinds.contains(&Invariant::EventSequence));
    }

    #[test]
    fn credit_overdraft_is_flagged() {
        let mut s = Sanitizer::new();
        s.on_run_start(&meta());
        // A credit-loss window removes 3 of ip's 4 credits.
        s.on(
            t(0.0),
            SimEvent::FaultWindow {
                node: 1,
                kind: FaultKind::CreditLoss { credits: 3 },
                until: t(50.0),
            },
        );
        // Admission to depth 2 at ip while the window is active:
        // 0 busy + 2 waiting > 1 effective credit.
        s.on(
            t(10.0),
            SimEvent::Enqueue {
                node: 1,
                pkt: 7,
                depth: 1,
            },
        );
        s.on(
            t(10.0),
            SimEvent::Enqueue {
                node: 1,
                pkt: 8,
                depth: 2,
            },
        );
        assert!(s
            .violations()
            .iter()
            .any(|v| v.invariant == Invariant::CreditBalance && v.node.as_deref() == Some("ip")),);
        // Outside the window the same admissions are fine.
        let mut s = Sanitizer::new();
        s.on_run_start(&meta());
        s.on(
            t(0.0),
            SimEvent::FaultWindow {
                node: 1,
                kind: FaultKind::CreditLoss { credits: 3 },
                until: t(5.0),
            },
        );
        s.on(
            t(10.0),
            SimEvent::Enqueue {
                node: 1,
                pkt: 7,
                depth: 1,
            },
        );
        s.on(
            t(10.0),
            SimEvent::Enqueue {
                node: 1,
                pkt: 8,
                depth: 2,
            },
        );
        assert!(s.violations().is_empty(), "{:?}", s.violations());
    }

    #[test]
    fn engine_overcommit_is_flagged() {
        let mut s = Sanitizer::new();
        s.on_run_start(&meta());
        s.on(
            t(1.0),
            SimEvent::Inject {
                pkt: 1,
                size: 64,
                class: 0,
            },
        );
        s.on(
            t(1.0),
            SimEvent::Inject {
                pkt: 2,
                size: 64,
                class: 0,
            },
        );
        s.on(
            t(1.0),
            SimEvent::Inject {
                pkt: 3,
                size: 64,
                class: 0,
            },
        );
        s.on(
            t(1.0),
            SimEvent::ServiceStart {
                node: 1,
                pkt: 1,
                occupancy: t(1.0),
            },
        );
        s.on(
            t(1.0),
            SimEvent::ServiceStart {
                node: 1,
                pkt: 2,
                occupancy: t(1.0),
            },
        );
        assert!(s.violations().is_empty());
        s.on(
            t(1.0),
            SimEvent::ServiceStart {
                node: 1,
                pkt: 3,
                occupancy: t(1.0),
            },
        ); // 3 on 2 engines
        assert!(s
            .violations()
            .iter()
            .any(|v| v.invariant == Invariant::CreditBalance
                && v.detail.contains("3 packets in service")));
    }

    #[test]
    fn unknown_packets_and_depth_mismatches_are_flagged() {
        let mut s = Sanitizer::new();
        s.on_run_start(&meta());
        s.on(
            t(1.0),
            SimEvent::Deliver {
                pkt: 99,
                latency: t(1.0),
            },
        );
        assert_eq!(s.violations()[0].invariant, Invariant::PacketConservation);

        let mut s = Sanitizer::new();
        s.on_run_start(&meta());
        s.on(
            t(1.0),
            SimEvent::Inject {
                pkt: 5,
                size: 64,
                class: 0,
            },
        );
        s.on(
            t(1.0),
            SimEvent::Enqueue {
                node: 1,
                pkt: 5,
                depth: 3,
            },
        ); // reported depth 3, actual 1
        assert!(s
            .violations()
            .iter()
            .any(|v| v.invariant == Invariant::AuditMismatch));

        let mut s = Sanitizer::new();
        s.on_run_start(&meta());
        s.on(
            t(1.0),
            SimEvent::Dequeue {
                node: 1,
                pkt: 5,
                depth: 0,
            },
        ); // never enqueued
        assert_eq!(s.violations()[0].invariant, Invariant::PacketConservation);
    }

    #[test]
    fn audit_counter_mismatches_are_flagged() {
        let mut s = Sanitizer::new();
        s.on_run_start(&meta());
        let mut audit = empty_audit(3);
        audit.total_injected = 5; // stream saw none
        s.on_run_audit(&audit);
        assert!(s
            .violations()
            .iter()
            .any(|v| v.invariant == Invariant::AuditMismatch && v.detail.contains("injected")));
    }

    #[test]
    fn violation_cap_bounds_memory() {
        let mut s = Sanitizer::new();
        s.on_run_start(&meta());
        for h in 0..(MAX_VIOLATIONS as u32 + 100) {
            s.on(t(1.0), SimEvent::ArenaFree { handle: h }); // every one a double free
        }
        assert_eq!(s.violations().len(), MAX_VIOLATIONS);
    }

    #[test]
    fn reaped_queue_drop_balances_without_dequeue() {
        // finish() reaps deadline-expired head-of-line packets with an
        // on_drop but no on_dequeue; the waiting set must still close.
        let mut s = Sanitizer::new();
        s.on_run_start(&meta());
        s.on(
            t(1.0),
            SimEvent::Inject {
                pkt: 5,
                size: 64,
                class: 0,
            },
        );
        s.on(
            t(1.0),
            SimEvent::Enqueue {
                node: 1,
                pkt: 5,
                depth: 1,
            },
        );
        s.on(
            t(2.0),
            SimEvent::Drop {
                node: 1,
                pkt: 5,
                reason: DropReason::DeadlineExpired,
            },
        );
        let mut audit = empty_audit(3);
        audit.total_injected = 1;
        audit.total_dropped = 1;
        audit.nodes[1].drops = 1;
        // The queue held one packet for 1 µs.
        audit.nodes[1].occupancy_integral = t(1.0).as_secs();
        s.on_run_audit(&audit);
        let report = s.finish();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }
}
