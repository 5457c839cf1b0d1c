//! Witness synthesis: a minimal concrete scenario per diagnostic code,
//! confirmed under a fully *sanitized* simulation run.
//!
//! The static analyzer reasons about the scenario description alone; a
//! sceptical reader can always ask whether the flagged defect would
//! actually bite. This module answers with evidence: for each
//! [`Code`] it searches a small parameterized scenario family for a
//! member that (a) trips the code under the default analysis config
//! and (b) *exhibits* the code's dynamic contract — its
//! [`WitnessExpectation`] — in a simulation run whose sanitizer ledger
//! closes cleanly. The [`crate::corpus::gen`]-style shrink harness
//! ([`Fuzz`]) then shrinks the witness: the reported parameters are
//! a local minimum that still both trips and exhibits.
//!
//! The sanitizer is what promotes the measured counters from "the
//! simulator said so" to evidence: a clean packet-conservation ledger,
//! balanced credit accounts and audited RNG draw counts rule out the
//! instrumentation itself as the source of the signature. A run that
//! trips the sanitizer never confirms anything.
//!
//! `lognic-lint --verify` drives [`synthesize`] for every deny-class
//! finding in its fixture sets and refuses to pass findings that
//! cannot produce a witness.

use lognic_model::analyze::{AnalysisConfig, Code, WitnessExpectation};
use lognic_model::error::{LogNicError, LogNicResult};
use lognic_model::fault::{FaultPlan, RetryPolicy};
use lognic_model::graph::ExecutionGraph;
use lognic_model::json;
use lognic_model::params::{EdgeParams, HardwareModel, IpParams, TrafficProfile};
use lognic_model::topology::Topology;
use lognic_model::units::{Bandwidth, Bytes, Seconds};
use lognic_sim::fleet::FleetBuilder;
use lognic_sim::metrics::SimReport;
use lognic_sim::sanitize::SanitizerReport;
use lognic_sim::sim::SimConfig;
use lognic_testkit::fuzz::{Fuzz, FuzzOutcome};
use lognic_testkit::Gen;

use crate::scenario::Scenario;

/// The knobs of a witness scenario family. Their meaning is
/// code-specific (documented per field), but shrinking is uniform:
/// each knob halves toward its per-code floor while the witness keeps
/// exhibiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessParams {
    /// Load / imbalance intensity in percent. For overload codes this
    /// is the offered-rate multiple of the bottleneck capacity; for
    /// conservation codes the declared amplification or survival; for
    /// oversubscription the per-tenant γ share.
    pub intensity: u32,
    /// Bounded queue capacity of the scenario's compute vertices.
    pub queue: u32,
    /// Engines per compute vertex.
    pub parallelism: u32,
}

impl WitnessParams {
    /// Renders the knobs as a compact JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"intensity_pct\":{},\"queue\":{},\"parallelism\":{}}}",
            self.intensity, self.queue, self.parallelism
        )
    }
}

/// One confirmed, shrunk witness for a static finding.
#[derive(Debug, Clone)]
pub struct ConfirmedWitness {
    /// The diagnostic code the witness confirms.
    pub code: Code,
    /// The dynamic contract the run exhibited.
    pub expectation: WitnessExpectation,
    /// The minimal scenario knobs that still exhibit it.
    pub params: WitnessParams,
    /// The generator seed that found the original witness.
    pub seed: u64,
    /// Shrink steps between the original and the minimal witness.
    pub shrink_steps: u32,
    /// What the confirming run measured, in one sentence.
    pub detail: String,
}

impl ConfirmedWitness {
    /// Renders the witness as one human-readable line.
    pub fn render_human(&self) -> String {
        format!(
            "{} [{}] confirmed: {} (minimal params {:?}, seed {}, {} shrink steps)",
            self.code,
            self.expectation,
            self.detail.replace(['\n', '\r'], " "),
            self.params,
            self.seed,
            self.shrink_steps
        )
    }

    /// Renders the witness as one JSON object on one line.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"code\":\"{}\",\"expectation\":\"{}\",\"params\":{},\"seed\":{},\"shrink_steps\":{},\"detail\":\"{}\"}}",
            self.code,
            self.expectation,
            self.params.to_json(),
            self.seed,
            self.shrink_steps,
            json::escape(&self.detail)
        )
    }
}

/// Per-code knob ranges: `(lo, hi)` half-open, matching [`Gen`]
/// ranges. The `lo` of each range doubles as the shrink floor.
struct Domain {
    intensity: (u32, u32),
    queue: (u32, u32),
    parallelism: (u32, u32),
}

fn domain(code: Code) -> Domain {
    let dom = |intensity, queue, parallelism| Domain {
        intensity,
        queue,
        parallelism,
    };
    match code {
        // intensity = declared amplification ×100 (> 100).
        Code::TrafficCreated => dom((110, 200), (8, 64), (1, 4)),
        // intensity = declared survival ×100 (< 100).
        Code::TrafficLost => dom((20, 60), (8, 64), (1, 4)),
        Code::StarvedNode | Code::MediumOnEmptyEdge => dom((100, 101), (8, 64), (1, 4)),
        // intensity = offered load as % of the bottleneck capacity.
        Code::SaturatedPartition => dom((130, 300), (4, 32), (1, 4)),
        Code::NearSaturation => dom((92, 98), (16, 64), (1, 3)),
        // Overloaded shared engines with queue < parallelism.
        Code::CreditCycle => dom((150, 400), (2, 9), (9, 34)),
        Code::QueueBelowParallelism => dom((300, 800), (1, 5), (8, 17)),
        Code::DegenerateMedium
        | Code::ZeroIngressRate
        | Code::ZeroPacketSize
        | Code::ZeroGranularity
        | Code::EdgeWithoutMedium => dom((100, 101), (8, 64), (1, 4)),
        // intensity = per-tenant γ ×200 (two tenants; Σγ = intensity/100).
        Code::OversubscribedPartition => dom((120, 190), (16, 64), (1, 4)),
        Code::ConsolidationOverload => dom((130, 300), (16, 64), (1, 4)),
        Code::FleetZeroLatencyLink => dom((100, 101), (8, 64), (1, 4)),
        // intensity = joint (local + incoming) demand as % of the
        // receiving NIC's peak.
        Code::FleetConsolidationOverload | Code::FleetUplinkSaturated => {
            dom((130, 300), (16, 64), (1, 4))
        }
        // `Code` is non-exhaustive: codes without a dedicated family
        // fall back to the fixed-knob domain (their `exhibits` arm
        // reports the missing family).
        _ => dom((100, 101), (8, 64), (1, 4)),
    }
}

/// Re-establishes cross-knob constraints after generation or a shrink
/// step (a shrink candidate mutates one knob at a time and can break
/// them).
fn normalize(code: Code, p: &mut WitnessParams) {
    if matches!(code, Code::CreditCycle | Code::QueueBelowParallelism) {
        // The starvation signature needs engines the queue provably
        // cannot feed: keep parallelism at least 2× the queue bound.
        p.parallelism = p.parallelism.max(p.queue * 2 + 1);
    }
}

fn gen_params(code: Code, g: &mut Gen) -> WitnessParams {
    let d = domain(code);
    let mut p = WitnessParams {
        intensity: g.u32(d.intensity.0..d.intensity.1),
        queue: g.u32(d.queue.0..d.queue.1),
        parallelism: g.u32(d.parallelism.0..d.parallelism.1),
    };
    normalize(code, &mut p);
    p
}

fn shrink_params(code: Code, p: &WitnessParams) -> Vec<WitnessParams> {
    let d = domain(code);
    let toward =
        |v: u32, floor: u32| -> Option<u32> { (v > floor).then(|| floor + (v - floor) / 2) };
    let mut out = Vec::new();
    if let Some(i) = toward(p.intensity, d.intensity.0) {
        out.push(WitnessParams { intensity: i, ..*p });
    }
    if let Some(q) = toward(p.queue, d.queue.0) {
        out.push(WitnessParams { queue: q, ..*p });
    }
    if let Some(par) = toward(p.parallelism, d.parallelism.0) {
        out.push(WitnessParams {
            parallelism: par,
            ..*p
        });
    }
    for cand in &mut out {
        normalize(code, cand);
    }
    out.retain(|cand| cand != p);
    out
}

const PEAK_GBPS: f64 = 10.0;

fn hw() -> HardwareModel {
    HardwareModel::new(Bandwidth::gbps(400.0), Bandwidth::gbps(400.0))
}

fn traffic(gbps: f64) -> TrafficProfile {
    TrafficProfile::fixed(Bandwidth::gbps(gbps), Bytes::new(1500))
}

fn ip(peak_gbps: f64, p: &WitnessParams) -> IpParams {
    IpParams::new(Bandwidth::gbps(peak_gbps))
        .with_queue_capacity(p.queue)
        .with_parallelism(p.parallelism)
}

fn edge(delta: f64) -> EdgeParams {
    EdgeParams::new(delta).expect("witness deltas are in range")
}

/// A single-stage chain scenario at the given offered rate.
fn chain(name: &str, p: &WitnessParams, rate_gbps: f64) -> Scenario {
    let g =
        ExecutionGraph::chain(name, &[("core", ip(PEAK_GBPS, p))]).expect("witness chain is valid");
    Scenario::new(name, g, hw(), traffic(rate_gbps))
}

/// A main path plus a vertex behind zero-δ edges (L0103/L0104/L0604).
fn starved_graph(name: &str, p: &WitnessParams, stray_alpha: f64) -> Scenario {
    let mut b = ExecutionGraph::builder(name);
    let ing = b.ingress("in");
    let work = b.ip("work", ip(PEAK_GBPS, p));
    let stray = b.ip("standby", ip(PEAK_GBPS, p));
    let eg = b.egress("out");
    b.edge(ing, work, edge(1.0));
    b.edge(work, eg, edge(1.0));
    b.edge(ing, stray, edge(0.0).with_interface_fraction(stray_alpha));
    b.edge(stray, eg, edge(0.0));
    Scenario::new(
        name,
        b.build().expect("witness graph is valid"),
        hw(),
        traffic(PEAK_GBPS * 0.5),
    )
}

/// Two tenants consolidated onto one same-named physical engine.
fn consolidated(name: &str, p: &WitnessParams, gamma: f64, rate_gbps: f64) -> Scenario {
    let mut b = ExecutionGraph::builder(name);
    let ing = b.ingress("in");
    let t1 = b.ip("shared", ip(PEAK_GBPS, p).with_partition(gamma));
    let t2 = b.ip("shared", ip(PEAK_GBPS, p).with_partition(gamma));
    let eg = b.egress("out");
    for t in [t1, t2] {
        b.edge(ing, t, edge(0.5));
        b.edge(t, eg, edge(0.5));
    }
    Scenario::new(
        name,
        b.build().expect("witness graph is valid"),
        hw(),
        traffic(rate_gbps),
    )
}

/// Builds the parameterized scenario family for a code.
///
/// The returned scenario, fault plan included, is what both the static
/// half (the analyzer must report `code` for it) and the dynamic half
/// (a sanitized run must exhibit the code's [`WitnessExpectation`])
/// are evaluated against.
pub fn witness_scenario(code: Code, p: &WitnessParams) -> Scenario {
    let f = f64::from(p.intensity) / 100.0;
    match code {
        Code::TrafficCreated => {
            let mut b = ExecutionGraph::builder("witness-l0101");
            let ing = b.ingress("in");
            let amp = b.ip("amp", ip(PEAK_GBPS, p));
            let eg = b.egress("out");
            b.edge(ing, amp, edge(0.5));
            // Outgoing δ = 0.5·f > incoming 0.5: declared amplification f.
            b.edge(amp, eg, edge((0.5 * f).min(1.0)));
            Scenario::new(
                "witness-l0101",
                b.build().expect("witness graph is valid"),
                hw(),
                traffic(PEAK_GBPS * 0.5),
            )
        }
        Code::TrafficLost => {
            let mut b = ExecutionGraph::builder("witness-l0102");
            let ing = b.ingress("in");
            let relay = b.ip("relay", ip(PEAK_GBPS, p));
            let eg = b.egress("out");
            b.edge(ing, relay, edge(1.0));
            // Outgoing δ = f < 1: declared survival f.
            b.edge(relay, eg, edge(f));
            Scenario::new(
                "witness-l0102",
                b.build().expect("witness graph is valid"),
                hw(),
                traffic(PEAK_GBPS * 0.5),
            )
        }
        Code::StarvedNode => starved_graph("witness-l0103", p, 0.0),
        Code::MediumOnEmptyEdge => starved_graph("witness-l0104", p, 0.5),
        Code::SaturatedPartition => chain("witness-l0201", p, PEAK_GBPS * f),
        Code::NearSaturation => chain("witness-l0202", p, PEAK_GBPS * f),
        Code::CreditCycle => {
            // Two tenants traverse the shared crypto/zip engines in
            // opposite orders, overloaded past the virtual capacity.
            let engine = |peak: f64| {
                IpParams::new(Bandwidth::gbps(peak))
                    .with_partition(0.5)
                    .with_parallelism(p.parallelism)
                    .with_queue_capacity(p.queue)
            };
            let mut b = ExecutionGraph::builder("witness-l0301");
            let ing = b.ingress("in");
            let c1 = b.ip("crypto", engine(8.0));
            let z1 = b.ip("zip", engine(6.0));
            let z2 = b.ip("zip", engine(6.0));
            let c2 = b.ip("crypto", engine(8.0));
            let eg = b.egress("out");
            b.edge(ing, c1, edge(0.5));
            b.edge(c1, z1, edge(0.5));
            b.edge(z1, eg, edge(0.5));
            b.edge(ing, z2, edge(0.5));
            b.edge(z2, c2, edge(0.5));
            b.edge(c2, eg, edge(0.5));
            Scenario::new(
                "witness-l0301",
                b.build().expect("witness graph is valid"),
                hw(),
                traffic(8.0 * f),
            )
        }
        Code::QueueBelowParallelism => chain("witness-l0302", p, PEAK_GBPS * f),
        Code::DegenerateMedium => {
            let mut b = ExecutionGraph::builder("witness-l0401");
            let ing = b.ingress("in");
            let core = b.ip("core", ip(PEAK_GBPS, p));
            let eg = b.egress("out");
            b.edge(ing, core, edge(1.0));
            // Every departure crosses the zero-bandwidth memory.
            b.edge(core, eg, edge(1.0).with_memory_fraction(1.0));
            Scenario::new(
                "witness-l0401",
                b.build().expect("witness graph is valid"),
                HardwareModel::new(Bandwidth::gbps(400.0), Bandwidth::ZERO),
                traffic(PEAK_GBPS * 0.5),
            )
        }
        Code::ZeroIngressRate => {
            let mut s = chain("witness-l0402", p, 1.0);
            s.traffic = TrafficProfile::fixed(Bandwidth::ZERO, Bytes::new(1500));
            s
        }
        Code::ZeroPacketSize => {
            let mut s = chain("witness-l0403", p, 1.0);
            s.traffic = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(0));
            s
        }
        Code::ZeroGranularity => {
            let mut s = chain("witness-l0404", p, PEAK_GBPS * 0.5);
            s.traffic = s.traffic.with_granularity(Bytes::new(0));
            s
        }
        Code::EdgeWithoutMedium => {
            // δ = 1 everywhere with no α/β and no dedicated link: the
            // bytes move between vertices for free.
            let mut b = ExecutionGraph::builder("witness-l0405");
            let ing = b.ingress("in");
            let core = b.ip("core", ip(PEAK_GBPS, p));
            let eg = b.egress("out");
            b.edge(ing, core, edge(1.0).with_interface_fraction(0.0));
            b.edge(core, eg, edge(1.0).with_interface_fraction(0.0));
            Scenario::new(
                "witness-l0405",
                b.build().expect("witness graph is valid"),
                hw(),
                traffic(PEAK_GBPS * 0.5),
            )
        }
        Code::OversubscribedPartition => {
            // Each tenant gets γ = f/2, so Σγ = f > 1; overload both so
            // the oversubscribed capacity is actually delivered.
            let gamma = (f / 2.0).min(1.0);
            consolidated("witness-l0501", p, gamma, PEAK_GBPS * 3.0)
        }
        Code::ConsolidationOverload => {
            // Σγ = 1 (no L0501): only the joint demand f > 1 overloads.
            consolidated("witness-l0502", p, 0.5, PEAK_GBPS * f)
        }
        Code::FaultUnknownNode => Scenario {
            faults: Some(FaultPlan::new().outage("ghost", Seconds::ZERO, Seconds::millis(1.0))),
            ..chain("witness-l0601", p, PEAK_GBPS * 0.5)
        },
        Code::FaultOverlappingWindows => Scenario {
            faults: Some(
                FaultPlan::new()
                    .outage("core", Seconds::micros(200.0), Seconds::micros(800.0))
                    .outage("core", Seconds::micros(500.0), Seconds::micros(1200.0)),
            ),
            ..chain("witness-l0602", p, PEAK_GBPS * 0.5)
        },
        Code::FaultZeroRetryBudget => Scenario {
            faults: Some(
                FaultPlan::new()
                    .drop_packets("core", 0.5, Seconds::micros(200.0), Seconds::millis(1.5))
                    .with_retry(RetryPolicy::new(0, Seconds::micros(50.0))),
            ),
            ..chain("witness-l0603", p, PEAK_GBPS * 0.5)
        },
        Code::DeadFaultWindow => Scenario {
            faults: Some(FaultPlan::new().outage("standby", Seconds::ZERO, Seconds::millis(1.0))),
            ..starved_graph("witness-l0604", p, 0.0)
        },
        // The fleet codes are topology-level: the returned scenario is
        // the *per-NIC* workload, and [`fleet_topology`] wires two
        // copies of it into the canonical defective pair the static
        // and dynamic halves are evaluated against.
        Code::FleetZeroLatencyLink => chain("witness-l0701", p, PEAK_GBPS * 0.5),
        Code::FleetConsolidationOverload => chain("witness-l0702", p, PEAK_GBPS * f / 2.0),
        Code::FleetUplinkSaturated => chain("witness-l0703", p, PEAK_GBPS * f / 2.0),
        // `Code` is non-exhaustive: a code without a dedicated family
        // gets a plain healthy chain, which never trips it — the
        // synthesizer then reports "no witness found" instead of
        // panicking.
        _ => chain("witness-unmapped", p, PEAK_GBPS * 0.5),
    }
}

/// Whether a code is witnessed at topology level rather than on a
/// single scenario.
fn is_fleet_code(code: Code) -> bool {
    matches!(
        code,
        Code::FleetZeroLatencyLink | Code::FleetConsolidationOverload | Code::FleetUplinkSaturated
    )
}

/// The canonical two-NIC pair a fleet code is witnessed on: NICs `a`
/// and `b` both run the per-NIC witness scenario, joined by one
/// `a -> b` link whose parameters realize the code's defect.
fn fleet_topology(code: Code, s: &Scenario) -> Topology {
    let mut topo = Topology::new(format!("{}-pair", s.name));
    let a = topo.add_nic("a", s.graph.clone(), s.hardware, s.traffic.clone());
    let b = topo.add_nic("b", s.graph.clone(), s.hardware, s.traffic.clone());
    match code {
        // Traffic-carrying link with zero propagation latency.
        Code::FleetZeroLatencyLink => {
            topo.link(a, b, Bandwidth::gbps(100.0), Seconds::ZERO, 0.5);
        }
        // All of `a`'s egress lands on `b`: joint demand 2x the local
        // offered rate through an adequately provisioned link.
        Code::FleetConsolidationOverload => {
            topo.link(a, b, Bandwidth::gbps(100.0), Seconds::micros(2.0), 1.0);
        }
        // The link itself is the bottleneck: 5% of the NIC peak.
        Code::FleetUplinkSaturated => {
            topo.link(
                a,
                b,
                Bandwidth::gbps(PEAK_GBPS * 0.05),
                Seconds::micros(2.0),
                0.5,
            );
        }
        _ => unreachable!("fleet_topology is only called for fleet codes"),
    }
    topo
}

/// Whether the analyzer (default config) reports `code` for the
/// scenario.
fn static_trips(code: Code, scenario: &Scenario) -> bool {
    if is_fleet_code(code) {
        return fleet_topology(code, scenario)
            .analyze(&AnalysisConfig::new())
            .diagnostics()
            .iter()
            .any(|d| d.code == code);
    }
    scenario
        .analyze(&AnalysisConfig::new())
        .diagnostics()
        .iter()
        .any(|d| d.code == code)
}

/// The fixed configuration of every confirming run: seeded, warmup
/// zero (degenerate scenarios do all their damage at t = 0), capped so
/// runaways terminate in the watchdog instead of hanging.
fn confirm_config() -> SimConfig {
    SimConfig {
        seed: 7,
        duration: Seconds::millis(2.0),
        warmup: Seconds::ZERO,
        max_packets: 50_000,
        max_events: 2_000_000,
        ..SimConfig::default()
    }
}

/// Runs the scenario under a fully sanitized simulation with the
/// analysis gate disabled (the scenarios are broken on purpose).
fn confirm_run(scenario: &Scenario) -> LogNicResult<(SimReport, SanitizerReport)> {
    scenario
        .compile()?
        .builder()
        .analysis(AnalysisConfig::permissive())
        .config(confirm_config())
        .build()?
        .run_sanitized()
}

/// A run result folded for witness evaluation: refusals and watchdog
/// aborts are evidence for some codes, sanitizer violations never are.
enum Confirmed {
    Ran(Box<SimReport>),
    Refused(String),
    Watchdog(String),
}

fn run_or_classify(scenario: &Scenario) -> Result<Confirmed, String> {
    match confirm_run(scenario) {
        Ok((report, _audit)) => Ok(Confirmed::Ran(Box::new(report))),
        Err(LogNicError::SanitizerViolation {
            invariant, detail, ..
        }) => Err(format!(
            "sanitizer violation ({invariant}) invalidates the run: {detail}"
        )),
        Err(LogNicError::WatchdogAbort { events, .. }) => Ok(Confirmed::Watchdog(format!(
            "watchdog abort after {events} events"
        ))),
        Err(e) => Ok(Confirmed::Refused(format!(
            "runtime refused the scenario: {e}"
        ))),
    }
}

/// Evaluates the dynamic half: does a sanitized run of the witness
/// scenario exhibit the code's expectation? `Ok(detail)` describes the
/// exhibited signature; `Err(why)` means this family member does not
/// exhibit it (the harness skips and tries another).
pub fn exhibits(code: Code, p: &WitnessParams) -> Result<String, String> {
    let scenario = witness_scenario(code, p);
    let f = f64::from(p.intensity) / 100.0;
    match code {
        Code::TrafficCreated => {
            let r = ran(&scenario)?;
            let amp = node(&r, "amp")?;
            if r.injected > 0 && amp.arrivals > 0 && r.completed <= amp.arrivals {
                Ok(format!(
                    "declared amplification {:.2}x at `amp`; realized {:.3}x ({} completed / {} arrivals)",
                    f,
                    r.completed as f64 / amp.arrivals as f64,
                    r.completed,
                    amp.arrivals
                ))
            } else {
                Err("amplification not contradicted by the run".into())
            }
        }
        Code::TrafficLost => {
            let r = ran(&scenario)?;
            let relay = node(&r, "relay")?;
            if relay.arrivals < 50 {
                return Err("too few arrivals to measure survival".into());
            }
            let realized = r.completed as f64 / relay.arrivals as f64;
            if realized >= f + 0.2 {
                Ok(format!(
                    "declared survival {:.2} at `relay`; realized {:.3} ({} completed / {} arrivals)",
                    f, realized, r.completed, relay.arrivals
                ))
            } else {
                Err(format!(
                    "realized survival {realized:.3} too close to declared {f:.2}"
                ))
            }
        }
        Code::StarvedNode | Code::MediumOnEmptyEdge => {
            let r = ran(&scenario)?;
            let stray = node(&r, "standby")?;
            if stray.arrivals == 0 && r.completed > 0 {
                Ok(format!(
                    "`standby` saw 0 arrivals while the run completed {} packets",
                    r.completed
                ))
            } else {
                Err(format!("`standby` saw {} arrivals", stray.arrivals))
            }
        }
        Code::SaturatedPartition => {
            let r = ran(&scenario)?;
            if r.dropped > 0 && r.throughput.as_bps() < r.offered.as_bps() * 0.95 {
                Ok(format!(
                    "offered {:.1} Gbps, delivered {:.1} Gbps, {} drops",
                    r.offered.as_gbps(),
                    r.throughput.as_gbps(),
                    r.dropped
                ))
            } else {
                Err(format!(
                    "no overload signature (drops {}, {:.1}/{:.1} Gbps)",
                    r.dropped,
                    r.throughput.as_gbps(),
                    r.offered.as_gbps()
                ))
            }
        }
        Code::NearSaturation => {
            let r = ran(&scenario)?;
            let core = node(&r, "core")?;
            if core.utilization >= 0.6 && core.max_queue >= 2 {
                Ok(format!(
                    "utilization {:.2} with standing queue (max {}) at rho = {:.2}",
                    core.utilization, core.max_queue, f
                ))
            } else {
                Err(format!(
                    "no pressure (utilization {:.2}, max queue {})",
                    core.utilization, core.max_queue
                ))
            }
        }
        Code::CreditCycle => {
            let r = ran(&scenario)?;
            // Starvation half of the deadlock: both shared engine
            // groups exhaust their credits (refuse work at full
            // queues), at least one twin sits with capacity to spare,
            // and end-to-end delivery collapses.
            let drops_of = |name: &str| -> u64 {
                r.nodes
                    .iter()
                    .filter(|n| n.name == name)
                    .map(|n| n.drops)
                    .sum()
            };
            let (crypto_drops, zip_drops) = (drops_of("crypto"), drops_of("zip"));
            let min_util = r
                .nodes
                .iter()
                .filter(|n| n.name == "crypto" || n.name == "zip")
                .map(|n| n.utilization)
                .fold(f64::INFINITY, f64::min);
            if crypto_drops > 0 && zip_drops > 0 && r.completed * 2 < r.injected && min_util < 0.9 {
                Ok(format!(
                    "both shared engine groups exhausted credits (`crypto` dropped {crypto_drops}, `zip` dropped {zip_drops}) while a twin idled at {min_util:.2} utilization; delivery collapsed to {} of {} injected",
                    r.completed, r.injected
                ))
            } else {
                Err("no starvation signature on the shared engines".into())
            }
        }
        Code::QueueBelowParallelism => {
            // Queue credits are shared with in-service packets, so a
            // capacity at or below the parallelism degree leaves zero
            // waiting room: the node refuses work without its queue
            // ever holding a single packet.
            let r = ran(&scenario)?;
            let core = node(&r, "core")?;
            if core.drops > 0 && core.max_queue == 0 && core.utilization < 1.0 {
                Ok(format!(
                    "{} arrivals refused while the waiting room never held a packet (max queue 0): all {} credits are consumed by the {} in-service engines, which still idled {:.0}% of the run",
                    core.drops,
                    p.queue,
                    p.parallelism,
                    (1.0 - core.utilization) * 100.0
                ))
            } else {
                Err(format!(
                    "no zero-buffer signature (drops {}, max queue {}, util {:.2})",
                    core.drops, core.max_queue, core.utilization
                ))
            }
        }
        Code::DegenerateMedium => match run_or_classify(&scenario)? {
            Confirmed::Ran(r) => {
                if r.injected > 0 && r.completed == 0 {
                    Ok(format!(
                        "{} injected, 0 completed: every transfer over the dead medium was shed",
                        r.injected
                    ))
                } else {
                    Err(format!("{} of {} completed", r.completed, r.injected))
                }
            }
            Confirmed::Refused(why) | Confirmed::Watchdog(why) => Ok(why),
        },
        Code::ZeroIngressRate => match run_or_classify(&scenario)? {
            Confirmed::Ran(r) => {
                if r.injected == 0 {
                    Ok("zero packets injected over the whole horizon".into())
                } else {
                    Err(format!("{} packets injected", r.injected))
                }
            }
            Confirmed::Refused(why) => Ok(why),
            Confirmed::Watchdog(why) => Err(why),
        },
        Code::ZeroPacketSize => match run_or_classify(&scenario)? {
            Confirmed::Ran(r) => {
                if r.completed > 0 && r.throughput.as_bps() == 0.0 {
                    Ok(format!(
                        "{} packets completed carrying 0 bits: data rate collapsed",
                        r.completed
                    ))
                } else {
                    Err(format!(
                        "throughput {:.3} Gbps with {} completed",
                        r.throughput.as_gbps(),
                        r.completed
                    ))
                }
            }
            Confirmed::Refused(why) | Confirmed::Watchdog(why) => Ok(why),
        },
        Code::ZeroGranularity => {
            let model_latency = scenario.estimate().map(|est| est.latency.mean());
            let r = ran(&scenario)?;
            if r.latency.mean.as_secs() <= 0.0 {
                return Err("simulated latency not positive".into());
            }
            match model_latency {
                // Zero granularity zeroes every per-unit term in the
                // model's latency pipeline: the prediction collapses
                // to a vanishing fraction of what the machine (the
                // sanitized sim) actually takes.
                Ok(m)
                    if !m.as_secs().is_finite() || m.as_secs() < r.latency.mean.as_secs() * 0.2 =>
                {
                    Ok(format!(
                        "model predicts {:.3} us latency, sanitized sim measures {:.3} us",
                        m.as_micros(),
                        r.latency.mean.as_micros()
                    ))
                }
                Ok(m) => Err(format!(
                    "model latency {:.3} us not degenerate",
                    m.as_micros()
                )),
                Err(e) => Ok(format!(
                    "model refuses the degenerate granularity ({e}); sim measures {:.3} us",
                    r.latency.mean.as_micros()
                )),
            }
        }
        Code::EdgeWithoutMedium => {
            let r = ran(&scenario)?;
            let moved: f64 = r.media.iter().map(|m| m.transferred.as_f64()).sum();
            if r.completed > 0 && moved == 0.0 {
                Ok(format!(
                    "{} packets delivered with 0 bytes on every shared medium: the data teleports",
                    r.completed
                ))
            } else {
                Err(format!("media carried {moved} bytes"))
            }
        }
        Code::OversubscribedPartition => {
            let r = ran(&scenario)?;
            if r.throughput.as_gbps() > PEAK_GBPS * 1.05 {
                Ok(format!(
                    "consolidated group delivered {:.1} Gbps through a {:.0} Gbps physical engine (sum gamma = {:.2})",
                    r.throughput.as_gbps(),
                    PEAK_GBPS,
                    f
                ))
            } else {
                Err(format!(
                    "delivered {:.1} Gbps does not exceed the physical peak",
                    r.throughput.as_gbps()
                ))
            }
        }
        Code::ConsolidationOverload => {
            let r = ran(&scenario)?;
            if r.dropped > 0 && r.throughput.as_bps() < r.offered.as_bps() * 0.95 {
                Ok(format!(
                    "joint demand {:.1} Gbps vs {:.0} Gbps engine: {} drops, delivered {:.1} Gbps",
                    r.offered.as_gbps(),
                    PEAK_GBPS,
                    r.dropped,
                    r.throughput.as_gbps()
                ))
            } else {
                Err(format!(
                    "no consolidation overload (drops {}, {:.1}/{:.1} Gbps)",
                    r.dropped,
                    r.throughput.as_gbps(),
                    r.offered.as_gbps()
                ))
            }
        }
        Code::FaultUnknownNode => match confirm_run(&scenario) {
            Err(LogNicError::UnknownNode { .. } | LogNicError::UnknownNodes { .. }) => {
                Ok("runtime refuses the plan: unknown fault target".into())
            }
            Err(e) => Err(format!("unexpected refusal: {e}")),
            Ok(_) => Err("runtime accepted a plan targeting a missing node".into()),
        },
        Code::FaultOverlappingWindows => {
            let r_overlap = ran(&scenario)?;
            let hull =
                FaultPlan::new().outage("core", Seconds::micros(200.0), Seconds::micros(1200.0));
            let r_hull = ran(&Scenario {
                faults: Some(hull),
                ..scenario.clone()
            })?;
            let r_none = ran(&Scenario {
                faults: None,
                ..scenario
            })?;
            let (o, h, n) = (
                format!("{r_overlap:?}"),
                format!("{r_hull:?}"),
                format!("{r_none:?}"),
            );
            if o == h && o != n && r_overlap.injected > 0 {
                Ok("overlapping windows are byte-identical to their merged hull (and the outage does bite)".into())
            } else if o != h {
                Err("overlap and hull runs diverge".into())
            } else {
                Err("the outage windows change nothing at all".into())
            }
        }
        Code::FaultZeroRetryBudget => {
            let r = ran(&scenario)?;
            if r.dropped > 0 && r.retries == 0 {
                Ok(format!(
                    "{} packets lost to the fault windows with 0 retry attempts",
                    r.dropped
                ))
            } else {
                Err(format!("drops {} retries {}", r.dropped, r.retries))
            }
        }
        Code::DeadFaultWindow => {
            let r_fault = ran(&scenario)?;
            let r_none = ran(&Scenario {
                faults: None,
                ..scenario
            })?;
            if format!("{r_fault:?}") == format!("{r_none:?}") && r_fault.completed > 0 {
                Ok(format!(
                    "faulted run byte-identical to the fault-free run across {} completions",
                    r_fault.completed
                ))
            } else {
                Err("the supposedly dead window changed the run".into())
            }
        }
        Code::FleetZeroLatencyLink => {
            // Degenerate contract: the fleet runtime must refuse the
            // topology outright — a zero-latency traffic link would
            // collapse the conservative lookahead to nothing.
            match FleetBuilder::new(fleet_topology(code, &scenario))
                .config(confirm_config())
                .build()
            {
                Err(LogNicError::AnalysisRejected { diagnostics })
                    if diagnostics.iter().any(|d| d.code == code) =>
                {
                    Ok(
                        "fleet runtime refused the zero-latency traffic link with a typed analysis rejection"
                            .into(),
                    )
                }
                Err(e) => Err(format!("refused for the wrong reason: {e}")),
                Ok(_) => Err("fleet runtime accepted a zero-latency traffic link".into()),
            }
        }
        Code::FleetConsolidationOverload => {
            let report = run_fleet(fleet_topology(code, &scenario))?;
            let b = &report.nics[1];
            if b.received > 0 && b.report.dropped > 0 {
                Ok(format!(
                    "NIC `b` absorbed {} boundary packets on top of its local load and dropped {} (joint demand {:.1} Gbps vs a {:.0} Gbps device)",
                    b.received,
                    b.report.dropped,
                    PEAK_GBPS * f,
                    PEAK_GBPS
                ))
            } else {
                Err(format!(
                    "no overload on the receiving NIC (received {}, drops {})",
                    b.received, b.report.dropped
                ))
            }
        }
        Code::FleetUplinkSaturated => {
            let report = run_fleet(fleet_topology(code, &scenario))?;
            let link = &report.links[0];
            if link.forwarded > 0 && link.utilization >= 0.9 {
                Ok(format!(
                    "link `a` -> `b` serialized {} packets at {:.2} utilization ({:.2} Gbps offered onto a {:.2} Gbps link)",
                    link.forwarded,
                    link.utilization,
                    PEAK_GBPS * f / 4.0,
                    PEAK_GBPS * 0.05
                ))
            } else {
                Err(format!(
                    "link not saturated (forwarded {}, utilization {:.2})",
                    link.forwarded, link.utilization
                ))
            }
        }
        _ => Err(format!("no witness family defined for {code}")),
    }
}

/// Runs the two-NIC fleet pair with the analysis gate disabled (the
/// topologies are broken on purpose).
fn run_fleet(topo: Topology) -> Result<lognic_sim::fleet::FleetReport, String> {
    FleetBuilder::new(topo)
        .config(confirm_config())
        .analysis(AnalysisConfig::permissive())
        .build()
        .map_err(|e| format!("fleet build failed: {e}"))?
        .run()
        .map_err(|e| format!("fleet run failed: {e}"))
}

/// Like [`run_or_classify`] but treats anything except a completed
/// run as non-exhibiting (for codes where the run must finish).
fn ran(scenario: &Scenario) -> Result<SimReport, String> {
    match run_or_classify(scenario)? {
        Confirmed::Ran(r) => Ok(*r),
        Confirmed::Refused(why) | Confirmed::Watchdog(why) => Err(why),
    }
}

fn node<'a>(r: &'a SimReport, name: &str) -> Result<&'a lognic_sim::metrics::NodeReport, String> {
    r.node(name)
        .ok_or_else(|| format!("node `{name}` missing from report"))
}

/// Searches the code's scenario family for a minimal confirmed
/// witness.
///
/// The harness treats "witness exhibited" as the fuzz *failure* so the
/// shrink loop reduces it: generated members that do not trip the
/// analyzer or do not exhibit the expectation are skipped, the first
/// exhibiting member is shrunk knob-by-knob toward the domain floors,
/// and the shrunk member is returned with the measured signature.
///
/// # Errors
///
/// Returns a human-readable reason when the family produced no
/// exhibiting member within the attempt budget.
pub fn synthesize(code: Code, seed: u64) -> Result<ConfirmedWitness, String> {
    let report = Fuzz::new(&format!("witness-{code}"))
        .cases(4)
        .seed(seed)
        .run(
            |g| gen_params(code, g),
            |p| shrink_params(code, p),
            |p| {
                let scenario = witness_scenario(code, p);
                if !static_trips(code, &scenario) {
                    return FuzzOutcome::Skip("analyzer does not report the code".into());
                }
                match exhibits(code, p) {
                    Ok(detail) => FuzzOutcome::Fail(detail),
                    Err(why) => FuzzOutcome::Skip(why),
                }
            },
        );
    match report.counterexample {
        Some(cx) => Ok(ConfirmedWitness {
            code,
            expectation: code.witness_expectation(),
            params: cx.minimal,
            seed: cx.seed,
            shrink_steps: cx.shrink_steps,
            detail: cx.message,
        }),
        None => Err(format!(
            "no witness found for {code} in {} attempts ({} skipped)",
            report.attempts, report.skipped
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_within_domain(code: Code, p: &WitnessParams) {
        let d = domain(code);
        assert!(
            p.intensity >= d.intensity.0 && p.intensity < d.intensity.1,
            "{code}: intensity {} outside {:?}",
            p.intensity,
            d.intensity
        );
        assert!(p.queue >= d.queue.0 && p.queue < d.queue.1, "{code}");
        assert!(p.parallelism >= d.parallelism.0, "{code}");
    }

    #[test]
    #[ignore]
    fn debug_families() {
        for code in Code::ALL {
            let d = domain(*code);
            let mut p = WitnessParams {
                intensity: d.intensity.0,
                queue: d.queue.0,
                parallelism: d.parallelism.0,
            };
            normalize(*code, &mut p);
            let s = witness_scenario(*code, &p);
            println!(
                "{code} {p:?}: static={} exhibits={:?}",
                static_trips(*code, &s),
                exhibits(*code, &p)
            );
            if let Ok(r) = ran(&s) {
                for n in &r.nodes {
                    println!(
                        "  node {} arrivals {} served {} drops {} util {:.3} maxq {} occ {:.2}",
                        n.name,
                        n.arrivals,
                        n.served,
                        n.drops,
                        n.utilization,
                        n.max_queue,
                        n.mean_occupancy
                    );
                }
                println!(
                    "  injected {} completed {} dropped {} retries {} tput {:.2} offered {:.2}",
                    r.injected,
                    r.completed,
                    r.dropped,
                    r.retries,
                    r.throughput.as_gbps(),
                    r.offered.as_gbps()
                );
            }
        }
    }

    #[test]
    fn every_code_synthesizes_a_confirmed_witness() {
        for code in Code::ALL {
            let w = synthesize(*code, 0x17E5_5EED).unwrap_or_else(|e| panic!("{code}: {e}"));
            assert_eq!(w.code, *code);
            assert_eq!(w.expectation, code.witness_expectation());
            assert!(!w.detail.is_empty(), "{code}");
            assert_within_domain(*code, &w.params);
            // The minimal witness must itself still trip and exhibit.
            let scenario = witness_scenario(*code, &w.params);
            assert!(static_trips(*code, &scenario), "{code}");
            assert!(exhibits(*code, &w.params).is_ok(), "{code}");
        }
    }

    #[test]
    fn witnesses_render_as_single_lines() {
        let w = ConfirmedWitness {
            code: Code::CreditCycle,
            expectation: Code::CreditCycle.witness_expectation(),
            params: WitnessParams {
                intensity: 150,
                queue: 2,
                parallelism: 9,
            },
            seed: 1,
            shrink_steps: 3,
            detail: "quote \" and\nnewline".into(),
        };
        assert_eq!(w.render_human().lines().count(), 1);
        let json = w.render_json();
        assert_eq!(json.lines().count(), 1);
        assert!(json.contains("\\\""), "{json}");
        assert!(json.contains("\\n"), "{json}");
        assert!(json.contains("\"expectation\":\"stall\""), "{json}");
    }

    #[test]
    fn shrink_respects_floors_and_constraints() {
        let p = WitnessParams {
            intensity: 400 - 1,
            queue: 8,
            parallelism: 33,
        };
        let mut frontier = vec![p];
        for _ in 0..64 {
            let Some(cur) = frontier.pop() else { break };
            for cand in shrink_params(Code::CreditCycle, &cur) {
                let d = domain(Code::CreditCycle);
                assert!(cand.intensity >= d.intensity.0);
                assert!(cand.queue >= d.queue.0);
                assert!(cand.parallelism > cand.queue * 2);
                frontier.push(cand);
            }
        }
    }
}
