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
//!
//! Exit status (`lognic_workloads::cli`): 0 on success, `--help` or a
//! closed reader; 1 with `error: …` when the run or the `--out` write
//! fails; 2 with `error: …` and the usage for a command-line error,
//! such as a `--millis` or `--dt-us` the picosecond clock cannot hold.

use std::io::Write;
use std::process::ExitCode;

use lognic_model::units::Seconds;
use lognic_sim::prelude::*;
use lognic_workloads::cli::{self, Flags, Stop};
use lognic_workloads::registry::{self, RegistryEntry};

/// Default Chrome-trace packet-event budget: plenty for a brownout
/// run while keeping exported files comfortably under Perfetto's
/// in-browser limits.
const DEFAULT_LIMIT: usize = 500_000;

const FORMATS: &[&str] = &["chrome", "csv", "json", "ring"];

struct Options {
    workload: &'static RegistryEntry,
    format: &'static str,
    seed: u64,
    millis: f64,
    dt_us: f64,
    limit: usize,
    ring_kib: usize,
    out: Option<String>,
}

fn read_options(flags: &mut Flags) -> Result<Options, Stop> {
    let mut opts = Options {
        workload: cli::workload("chaos")?,
        format: "chrome",
        seed: 42,
        millis: 12.0,
        dt_us: 50.0,
        limit: DEFAULT_LIMIT,
        ring_kib: 256,
        out: None,
    };
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            // Names resolve through the registry, so new corpus
            // entries are exportable here without touching this binary.
            "--workload" => opts.workload = cli::workload(&flags.value(&flag)?)?,
            "--format" => opts.format = flags.choice(&flag, FORMATS)?,
            "--seed" => opts.seed = flags.integer(&flag)?,
            "--millis" => opts.millis = flags.clock_span(&flag, Seconds::millis)?,
            "--dt-us" => opts.dt_us = flags.clock_span(&flag, Seconds::micros)?,
            "--limit" => opts.limit = flags.integer(&flag)?,
            "--ring-kib" => opts.ring_kib = flags.nonzero(&flag)?,
            "--out" => opts.out = Some(flags.value(&flag)?),
            "--help" | "-h" => return Err(Stop::Help),
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(opts)
}

fn dump(flags: &mut Flags, out: &mut impl Write) -> Result<(), Stop> {
    let opts = read_options(flags)?;
    let scenario = opts.workload.scenario();
    let compiled = scenario.compile()?;
    let sim = compiled
        .builder()
        .seed(opts.seed)
        .duration(Seconds::millis(opts.millis))
        .warmup(Seconds::millis(opts.millis * 0.1));

    // A note on what the export left out follows the export, so a
    // closed reader ends the run before anything reaches stderr.
    let (report, text, note) = match opts.format {
        "chrome" => {
            let mut trace = ChromeTrace::new().with_limit(opts.limit);
            let report = sim.run_with(&mut trace)?;
            let note = (trace.truncated() > 0).then(|| {
                format!(
                    "trace_dump: kept {} events, truncated {} past --limit {}",
                    trace.len(),
                    trace.truncated(),
                    opts.limit,
                )
            });
            (report, trace.into_json(), note)
        }
        "csv" | "json" => {
            let mut sampler = TimeSeriesSampler::new(Seconds::micros(opts.dt_us));
            let report = sim.run_with(&mut sampler)?;
            let timeline = sampler.into_timeline();
            let text = if opts.format == "csv" {
                timeline.to_csv()
            } else {
                timeline.to_json()
            };
            (report, text, None)
        }
        _ => {
            // --ring-kib sizes the buffer of typed records.
            let record = std::mem::size_of::<(SimTime, SimEvent)>();
            let mut ring = RingLog::with_capacity(opts.ring_kib * 1024 / record);
            let report = sim.run_with(&mut ring)?;
            let records = ring.records();
            let mut text = String::new();
            for (time, event) in &records {
                text.push_str(&format!("{:>14} ps  {event:?}\n", time.as_picos()));
            }
            let note = (ring.dropped() > 0).then(|| {
                format!(
                    "trace_dump: ring retained {} of {} records (oldest overwritten)",
                    records.len(),
                    ring.written(),
                )
            });
            (report, text, note)
        }
    };

    match &opts.out {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| Stop::Failed(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote {path} ({} bytes)", text.len());
        }
        None => out.write_all(text.as_bytes())?,
    }
    if let Some(note) = note {
        eprintln!("{note}");
    }
    eprintln!(
        "run: {} events, {:.3} Gbps delivered, {} drops, {} retries",
        report.events,
        report.throughput.as_gbps(),
        report.dropped,
        report.retries,
    );
    Ok(())
}

fn main() -> ExitCode {
    let usage = format!(
        "usage: trace_dump [--workload {}] \
         [--format {}] [--seed N] [--millis M] \
         [--dt-us D] [--limit N] [--ring-kib N] [--out FILE]",
        registry::names().join("|"),
        FORMATS.join("|")
    );
    cli::run(&usage, dump)
}
