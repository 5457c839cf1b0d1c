//! `lognic` — a command-line explorer for the workload registry
//! (`lognic::workloads::registry`), the one catalog `lognic serve`,
//! `trace_dump` and `lognic-lint` also resolve names through.
//!
//! ```text
//! lognic list
//! lognic estimate dns-kv [--rate-gbps 2]
//! lognic simulate chaos [--rate-gbps 4] [--seed 7] [--ms 10]
//! lognic dot nvmeof
//! lognic suggest
//! lognic serve [--threads N] [--deterministic] ...
//! ```
//!
//! `--rate-gbps` re-offers any workload at another rate
//! (`Scenario::at_rate`), and `simulate` runs a workload under its
//! bundled fault plan, if it has one. Output goes through one fallible
//! writer: when the reader closes early (`lognic list | head -1`), the
//! command ends quietly with exit 0. The case-study configurations
//! behind the paper's figures are reproduced by the `figures` binary
//! and the examples.

use std::io::{self, Write};

use lognic::devices::liquidio::Accelerator;
use lognic::optimizer::suggest;
use lognic::prelude::*;
use lognic::workloads::{microservices, panic_scenarios};

/// Why a command stopped early.
enum Stop {
    /// The command refused its input or failed; the message is
    /// printed as `error: …` with exit status 1.
    Refused(String),
    /// Writing the output failed.
    Write(io::Error),
}

impl From<String> for Stop {
    fn from(message: String) -> Self {
        Stop::Refused(message)
    }
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Self {
        Stop::Write(e)
    }
}

struct Flags {
    rate: Option<Bandwidth>,
    seed: u64,
    ms: f64,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        rate: None,
        seed: 42,
        ms: 40.0,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg.as_str();
        let mut value = || it.next().ok_or_else(|| format!("{name} needs a value"));
        match name {
            "--rate-gbps" => flags.rate = Some(rate(name, value()?)?),
            "--seed" => flags.seed = integer(name, value()?)?,
            "--ms" => flags.ms = horizon_ms(name, value()?)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(flags)
}

/// An unsigned integer flag value.
fn integer<T: std::str::FromStr<Err = std::num::ParseIntError>>(
    name: &str,
    value: &str,
) -> Result<T, String> {
    value
        .parse()
        .map_err(|e| format!("{name} `{value}`: {e} (expected an unsigned integer)"))
}

/// An offered rate in Gb/s whose bit rate is finite: `1e300` Gb/s is
/// a finite number of gigabits, but not of bits.
fn rate(name: &str, value: &str) -> Result<Bandwidth, String> {
    let gbps = positive(name, value)?;
    if !(gbps * 1e9).is_finite() {
        return Err(format!(
            "{name} `{value}`: {gbps:e} Gb/s is past any finite bit rate"
        ));
    }
    Ok(Bandwidth::gbps(gbps))
}

/// A simulated horizon in milliseconds that the picosecond clock can
/// hold: at least 1 ps once rounded, and at most `SimTime::MAX`.
fn horizon_ms(name: &str, value: &str) -> Result<f64, String> {
    let ms = positive(name, value)?;
    match SimTime::try_from_secs(Seconds::millis(ms).as_secs()) {
        Some(t) if t > SimTime::ZERO => Ok(ms),
        _ => Err(format!(
            "{name} `{value}`: expected a horizon of 1 ps to {:.4e} ms",
            SimTime::MAX.as_secs() * 1e3
        )),
    }
}

/// A finite, strictly positive number flag value.
fn positive(name: &str, value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        _ => Err(format!(
            "{name} `{value}`: expected a finite positive number"
        )),
    }
}

fn cmd_estimate(name: &str, s: &Scenario, out: &mut impl Write) -> Result<(), Stop> {
    let est = s.estimate().map_err(|e| e.to_string())?;
    writeln!(out, "scenario : {name}")?;
    writeln!(out, "offered  : {}", s.traffic.ingress_bandwidth())?;
    writeln!(out, "attain   : {}", est.throughput.attainable())?;
    writeln!(out, "delivered: {}", est.delivered)?;
    writeln!(out, "latency  : {}", est.latency.mean())?;
    writeln!(out, "binds at : {}", est.throughput.bottleneck().component)?;
    writeln!(out)?;
    writeln!(out, "capacity bounds:")?;
    for b in est.throughput.bounds() {
        writeln!(out, "  {:<28} {}", b.component.to_string(), b.limit)?;
    }
    writeln!(out)?;
    writeln!(out, "per-node timing:")?;
    for t in est.latency.per_node() {
        writeln!(
            out,
            "  {:<24} service {:>10}  queue {:>10}  rho {:>5.2}  drop {:>6.3}",
            s.graph.node(t.node).name(),
            t.service.to_string(),
            t.queueing_delay.to_string(),
            t.utilization,
            t.drop_probability
        )?;
    }
    Ok(())
}

fn cmd_simulate(
    name: &str,
    s: &Scenario,
    plan: Option<FaultPlan>,
    flags: &Flags,
    out: &mut impl Write,
) -> Result<(), Stop> {
    let cfg = SimConfig {
        seed: flags.seed,
        duration: Seconds::millis(flags.ms),
        warmup: Seconds::millis(flags.ms * 0.2),
        ..SimConfig::default()
    };
    let windows = plan.as_ref().map(|p| p.windows().len());
    let faults = plan
        .map(|p| CompiledFaultPlan::compile(&p, &s.graph))
        .transpose()
        .map_err(|e| e.to_string())?;
    let mut builder = Simulation::builder(&s.graph, &s.hardware, &s.traffic).config(cfg);
    if let Some(faults) = &faults {
        builder = builder.with_compiled_faults(faults);
    }
    let r = builder.run().map_err(|e| e.to_string())?;
    writeln!(out, "scenario  : {name}")?;
    writeln!(out, "offered   : {}", r.offered)?;
    writeln!(out, "throughput: {}", r.throughput)?;
    writeln!(
        out,
        "packets   : {} completed, {} dropped ({:.2}% loss)",
        r.completed,
        r.dropped,
        r.loss_rate() * 100.0
    )?;
    if r.latency.count == 0 {
        writeln!(out, "latency   : no packet measured")?;
    } else {
        writeln!(
            out,
            "latency   : mean {}  p50 {}  p99 {}  max {}",
            r.latency.mean, r.latency.p50, r.latency.p99, r.latency.max
        )?;
    }
    if let Some(windows) = windows {
        writeln!(
            out,
            "faults    : {windows} windows, {} retries, {} timed out",
            r.retries, r.timed_out
        )?;
    }
    writeln!(out)?;
    writeln!(out, "nodes:")?;
    for n in &r.nodes {
        writeln!(
            out,
            "  {:<24} arrivals {:>9}  drops {:>7}  util {:>5.2}  L {:>6.2}  maxq {:>4}",
            n.name, n.arrivals, n.drops, n.utilization, n.mean_occupancy, n.max_queue
        )?;
    }
    writeln!(out, "media:")?;
    for m in &r.media {
        writeln!(
            out,
            "  {:<24} {:>12}  util {:>5.2}",
            m.name,
            m.transferred.to_string(),
            m.utilization
        )?;
    }
    Ok(())
}

fn cmd_suggest(out: &mut impl Write) -> Result<(), Stop> {
    let mtu = Bytes::new(1500);
    writeln!(out, "case study 1 — inline cores to saturate (MTU):")?;
    for a in [Accelerator::Md5, Accelerator::Kasumi, Accelerator::Hfa] {
        writeln!(
            out,
            "  {:<8} {}",
            a.name(),
            suggest::suggest_inline_cores(a, mtu)
        )?;
    }
    writeln!(out, "case study 3 — E3 core allocations:")?;
    for app in microservices::App::ALL {
        writeln!(
            out,
            "  {:<8} {:?}",
            app.name(),
            suggest::suggest_core_allocation(app)
        )?;
    }
    writeln!(out, "case study 4 — NF placements by packet size:")?;
    for size in [64u64, 512, 1500] {
        let p = suggest::suggest_placement(Bytes::new(size));
        writeln!(out, "  {size:>5}B  {:?}", p.0)?;
    }
    writeln!(out, "case study 5 — PANIC:")?;
    let line = Bandwidth::gbps(100.0);
    let credits: Vec<String> = panic_scenarios::CREDIT_PROFILES
        .iter()
        .map(|s| suggest::suggest_credits(s, line).to_string())
        .collect();
    writeln!(out, "  credits per profile: {}", credits.join("/"))?;
    writeln!(
        out,
        "  steering split: {:.0}% to A2",
        suggest::suggest_steering_split(Bytes::new(512), Bandwidth::gbps(80.0)) * 100.0
    )?;
    writeln!(
        out,
        "  IP4 degrees: {} / {}",
        suggest::suggest_ip4_degree(0.5, Bytes::new(1024), Bandwidth::gbps(80.0)),
        suggest::suggest_ip4_degree(0.8, Bytes::new(1024), Bandwidth::gbps(80.0))
    )?;
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), Stop> {
    use lognic::service::{serve, ServeOptions, Service};
    let options = ServeOptions::parse(args.iter().cloned())?;
    let mut service = Service::new(options.config);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = std::io::BufReader::new(stdin.lock());
    let mut output = std::io::BufWriter::new(stdout.lock());
    let summary = serve(&mut service, &mut input, &mut output).map_err(|e| match e.kind() {
        io::ErrorKind::BrokenPipe => Stop::Write(e),
        _ => Stop::Refused(format!("I/O error: {e}")),
    })?;
    let _ = output.flush();
    let stats = service.stats();
    eprintln!(
        "lognic serve: {} responses ({} shed, {} failed, {} isolated panics)",
        summary.responses, stats.shed, stats.failed, stats.isolated_panics
    );
    Ok(())
}

/// `estimate`, `simulate` or `dot` on the registry entry `name`.
fn cmd_workload(cmd: &str, name: &str, args: &[String], out: &mut impl Write) -> Result<(), Stop> {
    let flags = parse_flags(args)?;
    let entry = registry::find(name)
        .ok_or_else(|| format!("unknown workload `{name}` (try `lognic list`)"))?;
    let (mut scenario, plan) = entry.build();
    if let Some(rate) = flags.rate {
        scenario = scenario.at_rate(rate);
    }
    match cmd {
        "estimate" => cmd_estimate(entry.name, &scenario, out),
        "simulate" => cmd_simulate(entry.name, &scenario, plan, &flags, out),
        _ => Ok(write!(out, "{}", scenario.graph.to_dot())?),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || {
        eprintln!("usage: lognic (list | estimate <workload> | simulate <workload> | dot <workload> | suggest | serve) [flags]");
        eprintln!("flags: --rate-gbps N  --seed N  --ms N");
        eprintln!("workloads: {}", registry::names().join(" "));
    };
    if args.is_empty() {
        usage();
        std::process::exit(2);
    }
    let stdout = io::stdout();
    let mut out = stdout.lock();
    let result: Result<(), Stop> = match args[0].as_str() {
        "list" => registry::ALL.iter().try_for_each(|entry| {
            writeln!(out, "{:<16} {}", entry.name, entry.provenance).map_err(Stop::Write)
        }),
        "suggest" => cmd_suggest(&mut out),
        "serve" => cmd_serve(&args[1..]),
        cmd @ ("estimate" | "simulate" | "dot") => {
            let Some(name) = args.get(1) else {
                usage();
                std::process::exit(2);
            };
            cmd_workload(cmd, name, &args[2..], &mut out)
        }
        other => Err(Stop::Refused(format!("unknown command `{other}`"))),
    };
    match result.and_then(|()| Ok(out.flush()?)) {
        Ok(()) => {}
        // The reader went away: nobody is left to tell.
        Err(Stop::Write(e)) if e.kind() == io::ErrorKind::BrokenPipe => {}
        Err(Stop::Write(e)) => {
            eprintln!("error: writing output: {e}");
            std::process::exit(1);
        }
        Err(Stop::Refused(e)) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
