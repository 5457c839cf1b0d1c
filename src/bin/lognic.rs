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
//! bundled fault plan, if it has one. The case-study configurations
//! behind the paper's figures are reproduced by the `figures` binary
//! and the examples.
//!
//! Exit status, as for every binary (`lognic_workloads::cli`): 0 on
//! success or a closed reader (`lognic list | head -1`); 1 with
//! `error: …` when a command fails; 2 with `error: …` and the usage
//! for a command-line error.

use std::io::{self, Write};
use std::process::ExitCode;

use lognic::devices::liquidio::Accelerator;
use lognic::optimizer::suggest;
use lognic::prelude::*;
use lognic::service::ServeOptions;
use lognic::workloads::cli::{self, Flags, Stop};
use lognic::workloads::{microservices, panic_scenarios};

struct Options {
    rate: Option<Bandwidth>,
    seed: u64,
    ms: f64,
}

fn read_options(flags: &mut Flags) -> Result<Options, Stop> {
    let mut options = Options {
        rate: None,
        seed: 42,
        ms: 40.0,
    };
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--rate-gbps" => options.rate = Some(rate(flags, &flag)?),
            "--seed" => options.seed = flags.integer(&flag)?,
            "--ms" => options.ms = flags.clock_span(&flag, Seconds::millis)?,
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(options)
}

/// An offered rate in Gb/s whose bit rate is finite: `1e300` Gb/s is
/// a finite number of gigabits, but not of bits.
fn rate(flags: &mut Flags, flag: &str) -> Result<Bandwidth, Stop> {
    let gbps = flags.positive(flag)?;
    if !(gbps * 1e9).is_finite() {
        return Err(Stop::Usage(format!(
            "{flag} {gbps:e} Gb/s is past any finite bit rate"
        )));
    }
    Ok(Bandwidth::gbps(gbps))
}

fn cmd_estimate(name: &str, s: &Scenario, out: &mut impl Write) -> Result<(), Stop> {
    let est = s.estimate()?;
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
    options: &Options,
    out: &mut impl Write,
) -> Result<(), Stop> {
    let cfg = SimConfig {
        seed: options.seed,
        duration: Seconds::millis(options.ms),
        warmup: Seconds::millis(options.ms * 0.2),
        ..SimConfig::default()
    };
    let r = s.try_simulate(cfg)?;
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
    if let Some(plan) = &s.faults {
        writeln!(
            out,
            "faults    : {} windows, {} retries, {} timed out",
            plan.windows().len(),
            r.retries,
            r.timed_out
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

fn cmd_serve(flags: &mut Flags, out: &mut impl Write) -> Result<(), Stop> {
    use lognic::service::{serve, Service};
    let options = ServeOptions::read(flags)?;
    let mut service = Service::new(options.config);
    let mut input = io::stdin().lock();
    let summary = serve(&mut service, &mut input, out).map_err(|e| match e.kind() {
        io::ErrorKind::BrokenPipe => Stop::Write(e),
        _ => Stop::Failed(format!("I/O error: {e}")),
    })?;
    let stats = service.stats();
    eprintln!(
        "lognic serve: {} responses ({} shed, {} failed, {} isolated panics)",
        summary.responses, stats.shed, stats.failed, stats.isolated_panics
    );
    Ok(())
}

/// `estimate`, `simulate` or `dot` on the registry entry named next.
fn cmd_workload(cmd: &str, flags: &mut Flags, out: &mut impl Write) -> Result<(), Stop> {
    let name = flags
        .next()
        .ok_or_else(|| Stop::Usage(format!("{cmd} needs a workload")))?;
    let entry = cli::workload(&name)?;
    let options = read_options(flags)?;
    let mut scenario = entry.scenario();
    if let Some(rate) = options.rate {
        scenario = scenario.at_rate(rate);
    }
    match cmd {
        "estimate" => cmd_estimate(entry.name, &scenario, out),
        "simulate" => cmd_simulate(entry.name, &scenario, &options, out),
        _ => Ok(write!(out, "{}", scenario.graph.to_dot())?),
    }
}

fn usage() -> String {
    format!(
        "usage: lognic (list | estimate <workload> | simulate <workload> | dot <workload> | suggest | serve) [flags]\n\
         flags: --rate-gbps N  --seed N  --ms N\n\
         workloads: {}\n{}",
        registry::names().join(" "),
        ServeOptions::usage()
    )
}

fn main() -> ExitCode {
    cli::run(&usage(), |flags, out| {
        let cmd = flags
            .next()
            .ok_or_else(|| Stop::Usage("no command given".to_owned()))?;
        match cmd.as_str() {
            "list" => {
                flags.end()?;
                for entry in registry::ALL {
                    writeln!(out, "{:<16} {}", entry.name, entry.provenance)?;
                }
                Ok(())
            }
            "suggest" => {
                flags.end()?;
                cmd_suggest(out)
            }
            "serve" => cmd_serve(flags, out),
            "estimate" | "simulate" | "dot" => cmd_workload(&cmd, flags, out),
            other => Err(Stop::Usage(format!("unknown command `{other}`"))),
        }
    })
}
