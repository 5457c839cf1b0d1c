//! The performance ledger: every tracked timing of the workspace, one
//! row each, committed as `BENCH_sim.json` and re-measured by CI.
//!
//! The rows: the representative simulator workloads (microservices,
//! NVMe-oF, accelerator-brownout chaos, the doorbell-burst workload,
//! whose hundreds of same-timestamp arrivals are the scheduler's worst
//! case for ties, and `dns_kv`, the registry's three-class size
//! mixture, the one sim row whose packets differ in size); the
//! `sched_hold_2m` pair, which
//! times the calendar queue against a plain `BinaryHeap` on the
//! classic hold model, where the scheduler is the whole workload; the
//! `fleet_rack16` row, the 16-NIC registry rack through the fleet
//! loop (see DESIGN §5l); three analytical-model rows,
//! `model_sweep` (one pass over the figures' model points),
//! `model_registry` (one evaluation of every registry workload, four of
//! them packet-size mixtures) and `mmcn_c64_n256` (the M/M/c/N queueing
//! kernel the model evaluates per node); and `service_new`, the
//! service's start-up (`Service::new`, which builds the registry),
//! timed like the model rows with allocations per construction as its
//! counter.
//!
//! Each row carries two kinds of numbers, and `--check` gates them
//! differently:
//!
//! * **Counters** — `events`, `allocs_per_event`, and a fleet row's
//!   `rounds` and `forwarded` — are deterministic, so they must equal
//!   the committed row exactly. A change to any of them is a change in
//!   behaviour, and is committed deliberately by regenerating the file.
//!   `allocs_per_event` follows the standard library's allocation
//!   pattern as well as this workspace's code, so a rustc upgrade can
//!   move it (the model and service rows allocate per pass) with no code
//!   change; regenerate the ledger with the new toolchain then.
//! * **Wall time** is the median of the fastest eighth of
//!   [`SAMPLES`] timed samples, taken in rounds of one sample per row.
//!   One flat rule gates every row, against the committed row alone: a
//!   fresh row fails when its events per second fall below
//!   [`WALL_FLOOR`] of the committed row's. Each row also records its
//!   `spread` — how far the run's median sample sits above the
//!   statistic — and the file records `nproc`, so a fresh ledger shows
//!   how noisy the host was and how many cores it had. The gate reads
//!   neither: `spread` is the dispersion of samples within
//!   one run, not how far the statistic moves between runs, and a
//!   bound a fresh run could widen would let a slower, noisier row
//!   through.
//!
//! Rows present on only one side fail the check too.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p lognic-bench --bin perf_baseline            # write BENCH_sim.json
//! cargo run --release -p lognic-bench --bin perf_baseline -- --check # compare, no write
//! cargo run --release -p lognic-bench --bin perf_baseline -- --check --out /tmp/fresh.json
//! cargo run --release -p lognic-bench --bin perf_baseline -- --out /tmp/b.json
//! ```
//!
//! Exit status (`lognic_workloads::cli`): 0 on success or a closed
//! reader; 1 with `error: …` when a check fails, the ledger cannot be
//! written, or `--check` finds `BENCH_sim.json` missing, not JSON, or
//! not schema `lognic-perf-baseline/v2` (read before measuring); 2 with
//! `error: …` and the usage for any other argument, before anything runs.

//! Allocations are counted by a wrapping `#[global_allocator]`. For a
//! simulation the per-event figure is a *delta between two run
//! lengths* of the same scenario, so one-time costs (graph build,
//! wheel/bucket tables, report assembly) cancel and the number
//! isolates the steady-state hot loop. The zero-alloc acceptance test
//! lives in `tests/zero_alloc.rs`; this binary records the same
//! metric for trend tracking.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use lognic_devices::liquidio::{Accelerator, LiquidIo};
use lognic_devices::stingray::IoPattern;
use lognic_model::json::{self, Json};
use lognic_model::queueing::MmcN;
use lognic_model::units::{Bandwidth, Bytes, Seconds};
use lognic_optimizer::suggest;
use lognic_service::{ServeConfig, Service};
use lognic_sim::calendar::CalendarQueue;
use lognic_sim::prelude::*;
use lognic_workloads::cli::{self, Flags, Stop};
use lognic_workloads::doorbell::{doorbell_burst, BurstPlan};
use lognic_workloads::microservices::{self, scenario, AllocationScheme, App};
use lognic_workloads::nvmeof::{self, nvmeof};
use lognic_workloads::scenario::Scenario;
use lognic_workloads::{inline_accel, nf_placement, panic_scenarios, rack, registry};

/// A pass-through allocator that counts every allocation. Wrapping the
/// system allocator costs one relaxed atomic increment per call —
/// negligible next to the allocation itself, and exactly zero in an
/// allocation-free hot loop.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The scheduler key of every whole-simulation row.
const CALENDAR: &str = "calendar";
/// The scheduler key of the `BinaryHeap` hold-model row.
const HEAP: &str = "reference_heap";
/// The key of the analytical-model rows.
const MODEL: &str = "model";
/// The key of the service start-up row.
const SERVICE: &str = "service";

/// Timed samples per row.
const SAMPLES: usize = 32;
/// The least share of a committed row's events per second a fresh row
/// may show. Whole runs on a shared 2-core host drift by up to a
/// quarter together, so a tighter floor fails unchanged code.
const WALL_FLOOR: f64 = 0.75;
/// The wall statistic is the median of the fastest `1 / KEEP_ONE_IN`
/// of the samples. On a shared host, neighbours slow whole stretches
/// of a run; the quiet samples measure the program.
const KEEP_ONE_IN: usize = 8;

/// One ledger row: a workload under one engine.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    name: String,
    engine: String,
    /// Work units per timed sample: simulated events, hold-model
    /// operations, model evaluations or service constructions.
    events: u64,
    /// Steady-state allocations per work unit.
    allocs_per_event: f64,
    /// A fleet row's `(rounds, forwarded)`.
    fleet: Option<(u64, u64)>,
    /// The wall statistic of one sample, seconds.
    wall_secs: f64,
    /// `(median sample − wall_secs) / wall_secs`: how noisy the run
    /// was. Recorded for diagnosis; the gate does not read it.
    spread: f64,
}

impl Row {
    /// A row with its counters still to fill in and no timing yet.
    fn new(name: &str, engine: &str, events: u64) -> Row {
        Row {
            name: name.to_owned(),
            engine: engine.to_owned(),
            events,
            allocs_per_event: 0.0,
            fleet: None,
            wall_secs: 0.0,
            spread: 0.0,
        }
    }

    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs
    }

    /// The counters `--check` compares exactly, as they are printed.
    fn counters(&self) -> String {
        let mut out = format!(
            "events {} allocs/event {:.6}",
            self.events, self.allocs_per_event
        );
        if let Some((rounds, forwarded)) = self.fleet {
            out.push_str(&format!(" rounds {rounds} forwarded {forwarded}"));
        }
        out
    }
}

/// The median of the fastest `1 / KEEP_ONE_IN` of `samples`, and how
/// far the median of all samples sits above it, relative to it.
fn wall_statistic(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let median = |s: &[f64]| (s[(s.len() - 1) / 2] + s[s.len() / 2]) / 2.0;
    let kept = (samples.len() / KEEP_ONE_IN).max(1);
    let stat = median(&samples[..kept]);
    (stat, median(&samples) / stat - 1.0)
}

/// A row under measurement, its counters filled in while it was set
/// up, and a closure that takes one timed sample and returns its wall
/// seconds.
struct Bench {
    row: Row,
    sample: Box<dyn FnMut() -> f64>,
}

/// Runs `f` and returns its result and the allocations it made.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let a0 = allocs_now();
    let out = f();
    (out, allocs_now() - a0)
}

/// Runs `f` and returns its wall seconds.
fn secs_in(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Takes [`SAMPLES`] rounds of one sample from every bench, so each
/// row's samples spread over the whole run: a noisy stretch of a
/// shared host lands on every row alike instead of on whichever row
/// happened to run during it.
fn measure(mut benches: Vec<Bench>) -> Vec<Row> {
    let mut samples = vec![Vec::with_capacity(SAMPLES); benches.len()];
    for _ in 0..SAMPLES {
        for (i, b) in benches.iter_mut().enumerate() {
            samples[i].push((b.sample)());
        }
    }
    benches
        .into_iter()
        .zip(samples)
        .map(|(Bench { mut row, .. }, samples)| {
            (row.wall_secs, row.spread) = wall_statistic(samples);
            row
        })
        .collect()
}

struct Workload {
    name: &'static str,
    scenario: Scenario,
    /// Replayed trace injection (`None` = synthetic traffic).
    trace: Option<PacketTrace>,
    millis: f64,
}

fn workloads() -> Vec<Workload> {
    let registered = |name: &'static str, row: &'static str, millis: f64| {
        let scenario = registry::find(name)
            .unwrap_or_else(|| panic!("{name} is registered"))
            .scenario();
        Workload {
            name: row,
            scenario,
            trace: None,
            millis,
        }
    };
    let (burst, burst_trace) =
        doorbell_burst(&BurstPlan::default()).expect("the default burst plan is valid");
    vec![
        registered("microservices", "microservices", 60.0),
        registered("nvmeof", "nvmeof", 60.0),
        registered("chaos", "chaos", 40.0),
        Workload {
            name: "doorbell_burst",
            scenario: burst,
            trace: Some(burst_trace),
            millis: 60.0,
        },
        registered("dns-kv", "dns_kv", 25.0),
    ]
}

fn builder_for(w: &Workload, millis: f64) -> Simulation {
    let compiled = w
        .scenario
        .compile()
        .expect("workload fault plans are valid");
    let mut b = compiled.builder().config(SimConfig {
        seed: 42,
        duration: Seconds::millis(millis),
        warmup: Seconds::millis(millis * 0.2),
        ..SimConfig::default()
    });
    if let Some(trace) = &w.trace {
        b = b.with_trace(trace.clone());
    }
    b.build().expect("workload scenarios are valid")
}

fn run_once(w: &Workload, millis: f64) -> (SimReport, f64) {
    let sim = builder_for(w, millis);
    let start = Instant::now();
    let report = sim.run().expect("bench runs stay under the watchdog");
    (report, start.elapsed().as_secs_f64())
}

fn sim_bench(w: Workload) -> Bench {
    // Steady-state allocations: delta between a full and a half run of
    // the same scenario — build/report transients cancel.
    let (half, _) = run_once(&w, w.millis * 0.5);
    let ((full, _), full_allocs) = allocs_in(|| run_once(&w, w.millis));
    let (_, half_allocs) = allocs_in(|| run_once(&w, w.millis * 0.5));
    let delta_allocs = full_allocs.saturating_sub(half_allocs);
    let delta_events = full.events.saturating_sub(half.events).max(1);

    let row = Row {
        allocs_per_event: delta_allocs as f64 / delta_events as f64,
        ..Row::new(w.name, CALENDAR, full.events)
    };
    let sample = move || {
        let (report, secs) = run_once(&w, w.millis);
        assert_eq!(report.events, full.events, "{}: events drift", w.name);
        secs
    };
    Bench {
        row,
        sample: Box::new(sample),
    }
}

/// Hold-model pending set: large enough that a binary heap pays ~20
/// cache-missing sift levels per operation while the calendar stays
/// O(1) (a few touches regardless of size).
const HOLD_PENDING: u64 = 2_000_000;
/// Operations per pass after the fill (see [`hold_row`]).
const HOLD_OPS: u64 = 2_000_000;
/// Mean reschedule offset; with `HOLD_PENDING` events in flight the
/// mean pop-to-pop gap is `HOLD_MEAN_INC_PS / HOLD_PENDING` = 10 ps,
/// which the wheel sizes into ~3 events per day.
const HOLD_MEAN_INC_PS: u64 = 20_000_000;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Classic hold-model scheduler stress (Brown, CACM '88): keep
/// `HOLD_PENDING` events pending; every operation pops the minimum and
/// schedules a replacement a uniform random offset into the future.
/// Whole-simulation runs spend most of each event outside the queue,
/// so scheduler differences only surface here, where the scheduler
/// *is* the workload. Both queues consume the identical offset stream
/// and pop in the identical `(time, seq)` order, so the comparison is
/// work-for-work.
fn hold_bench(engine: &'static str) -> Bench {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut inc = move || 1 + rng.next() % (2 * HOLD_MEAN_INC_PS);
    let mut seq = 0u64;
    if engine == CALENDAR {
        let mut q = CalendarQueue::new((HOLD_MEAN_INC_PS / HOLD_PENDING).max(1));
        for i in 0..HOLD_PENDING {
            seq += 1;
            q.push(inc(), seq, i as u32);
        }
        hold_row(engine, move || {
            let (t, _, p) = q.pop().expect("hold set never drains");
            seq += 1;
            q.push(t + inc(), seq, p);
            p
        })
    } else {
        let mut q: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        for i in 0..HOLD_PENDING {
            seq += 1;
            q.push(Reverse((inc(), seq, i as u32)));
        }
        hold_row(engine, move || {
            let Reverse((t, _, p)) = q.pop().expect("hold set never drains");
            seq += 1;
            q.push(Reverse((t + inc(), seq, p)));
            p
        })
    }
}

/// The hold-model row over one queue operation: allocations counted
/// over a first pass of `HOLD_OPS` operations, then timed windows of
/// `HOLD_OPS / SAMPLES` operations, each scaled to a whole pass.
fn hold_row(engine: &'static str, mut op: impl FnMut() -> u32 + 'static) -> Bench {
    let mut run = move |n: u64| {
        let mut acc = 0u64;
        for _ in 0..n {
            acc = acc.wrapping_add(op() as u64);
        }
        black_box(acc);
    };
    let ((), allocs) = allocs_in(|| run(HOLD_OPS));
    Bench {
        row: Row {
            allocs_per_event: allocs as f64 / HOLD_OPS as f64,
            ..Row::new("sched_hold_2m", engine, HOLD_OPS)
        },
        sample: Box::new(move || secs_in(|| run(HOLD_OPS / SAMPLES as u64)) * SAMPLES as f64),
    }
}

/// Rack size for the fleet row.
const FLEET_NICS: usize = 16;

/// The fleet row: the 16-NIC registry rack. Timing excludes topology
/// construction and per-NIC builds, so the row measures the round
/// loop. The counters are aggregates across NICs.
fn fleet_bench() -> Bench {
    const NAME: &str = "fleet_rack16";
    let run = || {
        let fleet = rack::smoke_fleet(FLEET_NICS)
            .build()
            .expect("the registry rack builds");
        let mut counters = (0, 0, 0);
        let secs = secs_in(|| {
            let report = fleet.run().expect("bench racks stay under the watchdog");
            counters = (report.events, report.rounds, report.forwarded);
        });
        (secs, counters)
    };
    let (_, counters) = run();
    let (events, rounds, forwarded) = counters;
    let row = Row {
        fleet: Some((rounds, forwarded)),
        ..Row::new(NAME, CALENDAR, events)
    };
    let sample = move || {
        let (secs, now) = run();
        assert_eq!(now, counters, "{NAME}: counters drift");
        secs
    };
    Bench {
        row,
        sample: Box::new(sample),
    }
}

/// One pass over the analytical model points behind the evaluation
/// figures (Figs. 5–7 and 9–19): each point builds its scenario and
/// evaluates the model, or runs one optimizer suggestion — the unit of
/// work a design-space sweep repeats. Returns the points evaluated.
fn model_sweep_pass() -> u64 {
    let points = Cell::new(0u64);
    let done = |value: &dyn std::fmt::Debug| {
        black_box(value);
        points.set(points.get() + 1);
    };
    let point = |s: Scenario| done(&s.estimate().expect("figure scenarios are valid"));
    for g in inline_accel::GRANULARITIES {
        point(inline_accel::granularity(Accelerator::Md5, Bytes::new(g)));
    }
    let line = LiquidIo::line_rate();
    for cores in 1..=LiquidIo::CORES {
        point(inline_accel::inline(
            Accelerator::Md5,
            cores,
            Bytes::new(1500),
            line,
        ));
    }
    for size in inline_accel::PACKET_SIZES {
        let aes = Accelerator::Aes;
        point(inline_accel::inline(
            aes,
            LiquidIo::CORES,
            Bytes::new(size),
            line,
        ));
    }
    let read = IoPattern::RandRead4k;
    point(nvmeof(read, nvmeof::rate_for_iops(read, 400_000.0)));
    for pct in (0..=100).step_by(20) {
        let p = IoPattern::MixedRand4k {
            read_ratio: pct as f64 / 100.0,
        };
        point(nvmeof(p, nvmeof::rate_for_iops(p, 500_000.0)));
    }
    for app in App::ALL {
        for scheme in AllocationScheme::ALL {
            done(&microservices::capacity(app, scheme));
        }
    }
    point(scenario(App::NfvDin, AllocationScheme::LogNicOpt, 1e6));
    done(&nf_placement::optimal_for(Bytes::new(512)));
    let accel_only = nf_placement::Placement::accel_only();
    point(nf_placement::scenario(
        accel_only,
        Bytes::new(1500),
        Bandwidth::gbps(60.0),
    ));
    let gbps80 = Bandwidth::gbps(80.0);
    let profile = panic_scenarios::CREDIT_PROFILES[0];
    done(&suggest::suggest_credits(profile, Bandwidth::gbps(100.0)));
    for x in panic_scenarios::STATIC_SPLITS {
        point(panic_scenarios::steering(x, Bytes::new(512), gbps80));
    }
    done(&suggest::suggest_steering_split(Bytes::new(512), gbps80));
    for d in 1..=8 {
        point(panic_scenarios::hybrid(d, 0.5, Bytes::new(1024), gbps80));
    }
    done(&suggest::suggest_ip4_degree(0.5, Bytes::new(1024), gbps80));
    points.get()
}

/// One plain `request().evaluate()` of every registry workload, four of
/// them packet-size mixtures. The scenarios are built once beforehand,
/// so the pass times the model alone. Returns the evaluations made.
fn model_registry_pass() -> impl FnMut() -> u64 {
    let scenarios: Vec<Scenario> = registry::ALL.iter().map(|e| e.scenario()).collect();
    move || {
        for s in &scenarios {
            let estimate = s.estimator().request().evaluate();
            black_box(estimate.expect("registry scenarios evaluate"));
        }
        scenarios.len() as u64
    }
}

/// The queueing-kernel pass: the M/M/c/N queue of a 64-engine,
/// 256-slot IP across 19 utilizations. Returns the kernels evaluated.
fn mmcn_pass() -> u64 {
    let service = Seconds::micros(100.0);
    let mut acc = 0.0;
    for i in 1..20 {
        let queue = MmcN::new(i as f64 * 0.05, 64, 256).expect("valid queue");
        acc += queue.queueing_delay(service).as_secs();
    }
    black_box(acc);
    19
}

/// One `Service::new` over the default configuration, dropped at once.
/// Returns the services built.
fn service_new_pass() -> u64 {
    drop(black_box(Service::new(ServeConfig::default())));
    1
}

/// A pass row (the model rows and `service_new`): `repeats` passes per
/// timed sample, so one sample spans milliseconds. Allocations are
/// counted over one untimed pass.
fn pass_bench(
    name: &str,
    engine: &str,
    repeats: u64,
    mut pass: impl FnMut() -> u64 + 'static,
) -> Bench {
    let (points, allocs) = allocs_in(&mut pass);
    let sample = move || {
        secs_in(|| {
            for _ in 0..repeats {
                pass();
            }
        })
    };
    Bench {
        row: Row {
            allocs_per_event: allocs as f64 / points as f64,
            ..Row::new(name, engine, points * repeats)
        },
        sample: Box::new(sample),
    }
}

/// The `schema` of the ledger file this binary reads and writes.
const SCHEMA: &str = "lognic-perf-baseline/v2";

fn render_json(rows: &[Row], nproc: usize) -> String {
    let mut out =
        format!("{{\n  \"schema\": \"{SCHEMA}\",\n  \"nproc\": {nproc},\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"engine\": \"{}\", \"events\": {}, \"allocs_per_event\": {:.6}, ",
            json::escape(&r.name),
            json::escape(&r.engine),
            r.events,
            r.allocs_per_event,
        ));
        if let Some((rounds, forwarded)) = r.fleet {
            out.push_str(&format!(
                "\"rounds\": {rounds}, \"forwarded\": {forwarded}, "
            ));
        }
        out.push_str(&format!(
            "\"wall_secs\": {:.6}, \"spread\": {:.4}, \"events_per_sec\": {:.0}}}{}\n",
            r.wall_secs,
            r.spread,
            r.events_per_sec(),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Reads a ledger file with the workspace's JSON codec, so any layout
/// of the same document reads the same. Returns its rows and the core
/// count they were measured at; a `schema` other than [`SCHEMA`] or a
/// record missing a field is an error.
fn read_ledger(text: &str) -> Result<(Vec<Row>, usize), String> {
    let doc = json::parse(text).map_err(|e| format!("unreadable ledger: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(SCHEMA) {
        return Err(format!("ledger schema {schema:?} is not {SCHEMA:?}"));
    }
    // A count is a whole, non-negative number.
    let count = |v: &Json, key| {
        let n = v.get(key).and_then(Json::as_f64)?;
        (n.fract() == 0.0 && n >= 0.0).then_some(n as u64)
    };
    let results = doc.get("results").and_then(Json::as_arr);
    let (Some(nproc), Some(results)) = (count(&doc, "nproc"), results) else {
        return Err("the ledger lacks `nproc` or its `results` array".to_owned());
    };
    let row = |r: &Json| {
        let num = |key| r.get(key).and_then(Json::as_f64);
        let text = |key| r.get(key).and_then(Json::as_str).map(str::to_owned);
        Some(Row {
            name: text("name")?,
            engine: text("engine")?,
            events: count(r, "events")?,
            allocs_per_event: num("allocs_per_event")?,
            fleet: count(r, "rounds").zip(count(r, "forwarded")),
            wall_secs: num("wall_secs")?,
            spread: num("spread")?,
        })
    };
    let rows = results
        .iter()
        .map(|r| row(r).ok_or_else(|| format!("unreadable ledger record: {r}")))
        .collect::<Result<_, _>>()?;
    Ok((rows, nproc as usize))
}

/// Compares fresh rows against the committed ledger and returns one
/// message per failure: a counter that differs, events per second
/// below [`WALL_FLOOR`] of the committed row's, or a row present on
/// only one side.
fn compare(committed: &[Row], fresh: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    for f in fresh {
        let key = format!("{}/{}", f.name, f.engine);
        let Some(c) = committed
            .iter()
            .find(|c| c.name == f.name && c.engine == f.engine)
        else {
            failures.push(format!("{key}: measured but not in the ledger"));
            continue;
        };
        if c.counters() != f.counters() {
            failures.push(format!(
                "{key}: counters changed: ledger {} / now {}",
                c.counters(),
                f.counters()
            ));
        }
        let floor = c.events_per_sec() * WALL_FLOOR;
        if f.events_per_sec() < floor {
            failures.push(format!(
                "{key}: {:.0} ev/s is below its floor of {:.0} ev/s (ledger {:.0} ev/s, run spread {:.1}%)",
                f.events_per_sec(),
                floor,
                c.events_per_sec(),
                f.spread * 100.0
            ));
        }
    }
    for c in committed {
        if !fresh
            .iter()
            .any(|f| f.name == c.name && f.engine == c.engine)
        {
            failures.push(format!(
                "{}/{}: in the ledger but not measured",
                c.name, c.engine
            ));
        }
    }
    failures
}

const USAGE: &str = "\
usage: perf_baseline [--check] [--out PATH]

  (no arguments)  measure every row and write BENCH_sim.json
  --check         compare against BENCH_sim.json; exit 1 on a failure
  --out PATH      write the measured rows to PATH (with --check, the
                  only file written)";

/// The command line: whether to check against the committed ledger,
/// and where to write the fresh rows.
#[derive(Debug, PartialEq)]
struct Args {
    check: bool,
    out: Option<String>,
}

impl Args {
    /// Reads `--check` and `--out PATH`, each at most once; anything
    /// else is a usage error naming the offending argument.
    fn read(flags: &mut Flags) -> Result<Args, Stop> {
        let mut parsed = Args {
            check: false,
            out: None,
        };
        while let Some(flag) = flags.next() {
            match flag.as_str() {
                "--check" if !parsed.check => parsed.check = true,
                "--out" if parsed.out.is_none() => {
                    let path = flags.value(&flag)?;
                    if path.is_empty() || path.starts_with('-') {
                        return Err(Stop::Usage(format!("--out `{path}`: expected a file path")));
                    }
                    parsed.out = Some(path);
                }
                "--check" | "--out" => return Err(Stop::Usage(format!("{flag} given twice"))),
                other => return Err(cli::unknown(other)),
            }
        }
        Ok(parsed)
    }

    /// Where the fresh rows go: `--out`, else `BENCH_sim.json` unless
    /// checking (`--check` writes only where `--out` asks).
    fn out_path(&self) -> Option<&str> {
        self.out
            .as_deref()
            .or((!self.check).then_some("BENCH_sim.json"))
    }
}

fn baseline(flags: &mut Flags, out: &mut impl Write) -> Result<(), Stop> {
    let args = Args::read(flags)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Read the ledger before measuring, so a bad one fails at once.
    let committed = args
        .check
        .then(|| {
            std::fs::read_to_string("BENCH_sim.json")
                .map_err(|e| format!("cannot read BENCH_sim.json: {e}"))
                .and_then(|text| read_ledger(&text))
        })
        .transpose()
        .map_err(Stop::Failed)?;

    let mut benches: Vec<Bench> = workloads().into_iter().map(sim_bench).collect();
    benches.extend([CALENDAR, HEAP].map(hold_bench));
    benches.push(fleet_bench());
    benches.extend([
        pass_bench("model_sweep", MODEL, 4, model_sweep_pass),
        pass_bench("model_registry", MODEL, 8, model_registry_pass()),
        pass_bench("mmcn_c64_n256", MODEL, 64, mmcn_pass),
        pass_bench("service_new", SERVICE, 64, service_new_pass),
    ]);
    let rows = measure(benches);
    for r in &rows {
        writeln!(
            out,
            "{:<16} {:<15} {:>9.3} ms ±{:>5.1}%  {:>12.0} ev/s  {}",
            r.name,
            r.engine,
            r.wall_secs * 1e3,
            r.spread * 100.0,
            r.events_per_sec(),
            r.counters(),
        )?;
    }

    if let Some(path) = args.out_path() {
        std::fs::write(path, render_json(&rows, nproc))
            .map_err(|e| Stop::Failed(format!("cannot write {path}: {e}")))?;
        writeln!(out, "wrote {path}")?;
    }
    // `--check`: the measured rows against the committed ledger.
    let Some((committed, committed_nproc)) = committed else {
        return Ok(());
    };
    if committed_nproc != nproc {
        writeln!(
            out,
            "perf-smoke: the ledger was measured at nproc {committed_nproc}, this host has {nproc}"
        )?;
    }
    let failures = compare(&committed, &rows);
    for f in &failures {
        eprintln!("perf-smoke: {f}");
    }
    if !failures.is_empty() {
        let n = failures.len();
        return Err(Stop::Failed(format!("{n} ledger check(s) failed")));
    }
    writeln!(
        out,
        "perf-smoke: every counter matches and every row is above its floor"
    )?;
    Ok(())
}

fn main() -> ExitCode {
    cli::run(USAGE, baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, events: u64, wall_secs: f64, spread: f64) -> Row {
        Row {
            allocs_per_event: 0.000074,
            wall_secs,
            spread,
            ..Row::new(name, CALENDAR, events)
        }
    }

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::read(&mut Flags::new(args.iter().map(|a| a.to_string())))
            .map_err(|stop| stop.to_string())
    }

    #[test]
    fn only_check_and_out_are_accepted() {
        let write = parse(&[]).unwrap();
        assert_eq!(write.out_path(), Some("BENCH_sim.json"));
        let check = parse(&["--check"]).unwrap();
        assert!(check.check);
        assert_eq!(check.out_path(), None, "--check alone writes nothing");
        for args in [
            &["--check", "--out", "fresh.json"][..],
            &["--out", "fresh.json", "--check"],
        ] {
            let both = parse(args).unwrap();
            assert!(both.check);
            assert_eq!(both.out_path(), Some("fresh.json"));
        }
        assert_eq!(
            parse(&["--out", "b.json"]).unwrap().out_path(),
            Some("b.json")
        );

        for bad in [
            &["--help"][..],
            &["-h"],
            &["--chek"],
            &["--check", "extra"],
            &["--out"],
            &["--out", "--check"],
            &["--out", ""],
            &["--check", "--check"],
            &["--out", "a.json", "--out", "b.json"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
        assert_eq!(parse(&["--chek"]).unwrap_err(), "unknown argument `--chek`");
    }

    #[test]
    fn wall_statistic_is_the_median_of_the_fastest_eighth() {
        let samples: Vec<f64> = (1..=16).rev().map(f64::from).collect();
        let (stat, spread) = wall_statistic(samples);
        assert_eq!(stat, 1.5, "the fastest two of sixteen, averaged");
        assert_eq!(spread, 8.5 / 1.5 - 1.0, "the median sits at 8.5");
    }

    #[test]
    fn the_ledger_round_trips_through_its_file_format() {
        let mut fleet = row("fleet_rack16", 169_584, 0.036_4, 0.142_5);
        fleet.fleet = Some((1863, 2697));
        let rows = vec![row("nvmeof", 81_729, 0.006_57, 0.291), fleet];
        let text = render_json(&rows, 2);
        assert!(text.contains("\"nproc\": 2"), "{text}");
        assert_eq!(read_ledger(&text).unwrap(), (rows.clone(), 2));
        let broken = text.replace("\"spread\"", "\"spraed\"");
        assert!(
            read_ledger(&broken).is_err(),
            "a record missing a field is an error"
        );
        let pretty = text.replace(", \"", ",\n      \"");
        assert!(pretty.lines().count() > text.lines().count() + 10);
        assert_eq!(
            read_ledger(&pretty).unwrap(),
            (rows.clone(), 2),
            "rows pretty-printed across lines read the same"
        );
        let v1 = text.replace(SCHEMA, "lognic-perf-baseline/v1");
        assert_eq!(
            read_ledger(&v1).unwrap_err(),
            "ledger schema Some(\"lognic-perf-baseline/v1\") is not \"lognic-perf-baseline/v2\""
        );

        // Names are escaped, so any name reads back unchanged.
        let tricky = "quote\" backslash\\ newline\n tab\t control\u{1}";
        let odd = vec![row(tricky, 7, 0.5, 0.0)];
        assert_eq!(read_ledger(&render_json(&odd, 2)).unwrap(), (odd, 2));
    }

    #[test]
    fn a_changed_counter_fails_whatever_the_wall_time() {
        let committed = vec![row("chaos", 199_810, 0.014, 0.3)];
        assert!(compare(&committed, &committed).is_empty());

        let mut events = committed.clone();
        events[0].events += 1;
        let mut allocs = committed.clone();
        allocs[0].allocs_per_event = 0.000075;
        let mut rounds = committed.clone();
        rounds[0].fleet = Some((1863, 2697));
        for fresh in [events, allocs, rounds] {
            let failures = compare(&committed, &fresh);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].contains("counters changed"), "{failures:?}");
        }
    }

    #[test]
    fn a_wall_row_passes_above_the_floor_and_fails_below() {
        // 1,000,000 events in 100 ms: the floor is 7,500,000 ev/s,
        // i.e. 133.3 ms.
        let committed = vec![row("doorbell_burst", 1_000_000, 0.100, 0.10)];
        let inside = vec![row("doorbell_burst", 1_000_000, 0.133, 0.05)];
        assert!(compare(&committed, &inside).is_empty());
        let outside = vec![row("doorbell_burst", 1_000_000, 0.134, 0.05)];
        let failures = compare(&committed, &outside);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("below its floor of 7500000 ev/s"),
            "{failures:?}"
        );
        // Faster is always fine.
        let faster = vec![row("doorbell_burst", 1_000_000, 0.050, 0.0)];
        assert!(compare(&committed, &faster).is_empty());
    }

    #[test]
    fn no_spread_widens_the_floor() {
        // A slower row stays failed however noisy either run was: the
        // floor depends on the committed statistic alone.
        let slower = |spread| vec![row("chaos", 1_000_000, 0.134, spread)];
        for committed_spread in [0.0, 0.5, 3.0] {
            let committed = vec![row("chaos", 1_000_000, 0.100, committed_spread)];
            for fresh_spread in [0.0, 0.5, 3.0] {
                assert_eq!(compare(&committed, &slower(fresh_spread)).len(), 1);
            }
        }
    }

    #[test]
    fn a_row_present_on_only_one_side_fails() {
        let both = vec![
            row("nvmeof", 81_729, 0.007, 0.2),
            row("chaos", 199_810, 0.014, 0.2),
        ];
        let failures = compare(&both, &both[..1]);
        assert_eq!(failures, ["chaos/calendar: in the ledger but not measured"]);
        let failures = compare(&both[..1], &both);
        assert_eq!(failures, ["chaos/calendar: measured but not in the ledger"]);
    }
}
