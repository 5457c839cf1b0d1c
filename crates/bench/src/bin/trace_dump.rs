//! Export a simulator run as an inspectable trace.
//!
//! Runs a workload under the observability layer and writes one of:
//!
//! * `chrome` — Chrome `trace_event` JSON, openable in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`: service
//!   occupancy spans per node, queue-depth counter tracks, drop/retry
//!   instants and fault-window spans.
//! * `csv` / `json` — the per-node time series (queue depth, ρ(t),
//!   drop and retry counters) sampled on a fixed Δt grid.
//! * `ring` — one line per record of the bounded event ring (most
//!   recent events, oldest first).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p lognic-bench --bin trace_dump -- --out brownout.json
//! cargo run --release -p lognic-bench --bin trace_dump -- --workload nvmeof --format csv
//! trace_dump [--workload <registry name>] [--format chrome|csv|json|ring]
//!            [--seed N] [--millis M] [--dt-us D] [--limit N] [--ring-kib N] [--out FILE]
//! ```
//!
//! Workload names resolve through `lognic_workloads::registry`, so
//! every registered scenario (the paper case studies and the protocol
//! corpus alike) is exportable; `--workload help` lists them.
//!
//! The default workload is the accelerator-brownout chaos scenario —
//! the most interesting trace: outage and brownout fault windows,
//! retry storms and queue build-up are all visible on one screen.

use lognic_model::units::Seconds;
use lognic_sim::prelude::*;
use lognic_workloads::registry;
use lognic_workloads::scenario::Scenario;

/// Default Chrome-trace packet-event budget: plenty for a brownout
/// run while keeping exported files comfortably under Perfetto's
/// in-browser limits.
const DEFAULT_LIMIT: usize = 500_000;

struct Options {
    workload: String,
    format: String,
    seed: u64,
    millis: f64,
    dt_us: f64,
    limit: usize,
    ring_kib: usize,
    out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: trace_dump [--workload {}] \
         [--format chrome|csv|json|ring] [--seed N] [--millis M] \
         [--dt-us D] [--limit N] [--ring-kib N] [--out FILE]",
        registry::names().join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        workload: "chaos".to_owned(),
        format: "chrome".to_owned(),
        seed: 42,
        millis: 12.0,
        dt_us: 50.0,
        limit: DEFAULT_LIMIT,
        ring_kib: 256,
        out: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
                eprintln!("trace_dump: {} needs a value", args[i]);
                usage()
            })
        };
        match args[i].as_str() {
            "--workload" => opts.workload = value(i).to_owned(),
            "--format" => opts.format = value(i).to_owned(),
            "--seed" => opts.seed = value(i).parse().unwrap_or_else(|_| usage()),
            "--millis" => opts.millis = clock_span(value(i), Seconds::millis),
            "--dt-us" => opts.dt_us = clock_span(value(i), Seconds::micros),
            "--limit" => opts.limit = value(i).parse().unwrap_or_else(|_| usage()),
            "--ring-kib" => {
                opts.ring_kib = value(i)
                    .parse()
                    .ok()
                    .filter(|&kib| kib > 0)
                    .unwrap_or_else(|| usage());
            }
            "--out" => opts.out = Some(value(i).to_owned()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("trace_dump: unknown flag {other}");
                usage()
            }
        }
        i += 2;
    }
    opts
}

/// A span the picosecond clock can hold, in the unit `unit` reads:
/// finite, at least 1 ps once rounded, and at most `SimTime::MAX`.
/// Anything else is a usage error (a zero horizon or sampling step
/// has no run to export, and an overflowing one no clock to run on).
fn clock_span(text: &str, unit: fn(f64) -> Seconds) -> f64 {
    text.parse()
        .ok()
        .filter(|v: &f64| v.is_finite() && *v > 0.0)
        .filter(|&v| SimTime::try_from_secs(unit(v).as_secs()).is_some_and(|t| t > SimTime::ZERO))
        .unwrap_or_else(|| usage())
}

/// Resolves the workload name through the registry, so new corpus
/// entries are exportable here without touching this binary.
fn workload(name: &str) -> (Scenario, Option<FaultPlan>) {
    match registry::find(name) {
        Some(entry) => entry.build(),
        None => {
            eprintln!("trace_dump: unknown workload {name}");
            usage()
        }
    }
}

fn builder<'a>(
    scenario: &'a Scenario,
    faults: Option<&'a CompiledFaultPlan>,
    opts: &Options,
) -> SimulationBuilder<'a> {
    let mut b = Simulation::builder(&scenario.graph, &scenario.hardware, &scenario.traffic)
        .seed(opts.seed)
        .duration(Seconds::millis(opts.millis))
        .warmup(Seconds::millis(opts.millis * 0.1));
    if let Some(faults) = faults {
        b = b.with_compiled_faults(faults);
    }
    b
}

fn emit(out: &Option<String>, text: &str) {
    match out {
        Some(path) => {
            std::fs::write(path, text).unwrap_or_else(|e| {
                eprintln!("trace_dump: cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path} ({} bytes)", text.len());
        }
        None => print!("{text}"),
    }
}

fn main() {
    let opts = parse_args();
    let (scenario, plan) = workload(&opts.workload);
    let faults = plan.map(|p| {
        CompiledFaultPlan::compile(&p, &scenario.graph).expect("registry fault plans are valid")
    });

    let (report, text) = match opts.format.as_str() {
        "chrome" => {
            let mut trace = ChromeTrace::new().with_limit(opts.limit);
            let report = builder(&scenario, faults.as_ref(), &opts)
                .run_with(&mut trace)
                .expect("trace workloads are valid");
            if trace.truncated() > 0 {
                eprintln!(
                    "trace_dump: kept {} events, truncated {} past --limit {}",
                    trace.len(),
                    trace.truncated(),
                    opts.limit,
                );
            }
            (report, trace.into_json())
        }
        "csv" | "json" => {
            let mut sampler = TimeSeriesSampler::new(Seconds::micros(opts.dt_us));
            let report = builder(&scenario, faults.as_ref(), &opts)
                .run_with(&mut sampler)
                .expect("trace workloads are valid");
            let timeline = sampler.into_timeline();
            let text = if opts.format == "csv" {
                timeline.to_csv()
            } else {
                timeline.to_json()
            };
            (report, text)
        }
        "ring" => {
            // --ring-kib sizes the buffer of typed records.
            let record = std::mem::size_of::<(SimTime, SimEvent)>();
            let mut ring = RingLog::with_capacity(opts.ring_kib * 1024 / record);
            let report = builder(&scenario, faults.as_ref(), &opts)
                .run_with(&mut ring)
                .expect("trace workloads are valid");
            let records = ring.records();
            let mut text = String::new();
            for (time, event) in &records {
                text.push_str(&format!("{:>14} ps  {event:?}\n", time.as_picos()));
            }
            if ring.dropped() > 0 {
                eprintln!(
                    "trace_dump: ring retained {} of {} records (oldest overwritten)",
                    records.len(),
                    ring.written(),
                );
            }
            (report, text)
        }
        other => {
            eprintln!("trace_dump: unknown format {other}");
            usage()
        }
    };

    emit(&opts.out, &text);
    eprintln!(
        "run: {} events, {:.3} Gbps delivered, {} drops, {} retries",
        report.events,
        report.throughput.as_gbps(),
        report.dropped,
        report.retries,
    );
}
