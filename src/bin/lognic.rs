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

use lognic::devices::liquidio::Accelerator;
use lognic::optimizer::suggest;
use lognic::prelude::*;
use lognic::workloads::{microservices, panic_scenarios};

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

fn cmd_estimate(s: &Scenario) -> Result<(), String> {
    let est = s.estimate().map_err(|e| e.to_string())?;
    println!("scenario : {}", s.name);
    println!("offered  : {}", s.traffic.ingress_bandwidth());
    println!("attain   : {}", est.throughput.attainable());
    println!("delivered: {}", est.delivered);
    println!("latency  : {}", est.latency.mean());
    println!("binds at : {}", est.throughput.bottleneck().component);
    println!();
    println!("capacity bounds:");
    for b in est.throughput.bounds() {
        println!("  {:<28} {}", b.component.to_string(), b.limit);
    }
    println!();
    println!("per-node timing:");
    for t in est.latency.per_node() {
        println!(
            "  {:<24} service {:>10}  queue {:>10}  rho {:>5.2}  drop {:>6.3}",
            s.graph.node(t.node).name(),
            t.service.to_string(),
            t.queueing_delay.to_string(),
            t.utilization,
            t.drop_probability
        );
    }
    Ok(())
}

fn cmd_simulate(s: &Scenario, plan: Option<FaultPlan>, flags: &Flags) -> Result<(), String> {
    let cfg = SimConfig {
        seed: flags.seed,
        duration: Seconds::millis(flags.ms),
        warmup: Seconds::millis(flags.ms * 0.2),
        ..SimConfig::default()
    };
    let mut builder = Simulation::builder(&s.graph, &s.hardware, &s.traffic).config(cfg);
    let windows = plan.as_ref().map(|p| p.windows().len());
    if let Some(plan) = plan {
        builder = builder.with_fault_plan(plan);
    }
    let r = builder.run().map_err(|e| e.to_string())?;
    println!("scenario  : {}", s.name);
    println!("offered   : {}", r.offered);
    println!("throughput: {}", r.throughput);
    println!(
        "packets   : {} completed, {} dropped ({:.2}% loss)",
        r.completed,
        r.dropped,
        r.loss_rate() * 100.0
    );
    if r.latency.count == 0 {
        println!("latency   : no packet measured");
    } else {
        println!(
            "latency   : mean {}  p50 {}  p99 {}  max {}",
            r.latency.mean, r.latency.p50, r.latency.p99, r.latency.max
        );
    }
    if let Some(windows) = windows {
        println!(
            "faults    : {windows} windows, {} retries, {} timed out",
            r.retries, r.timed_out
        );
    }
    println!();
    println!("nodes:");
    for n in &r.nodes {
        println!(
            "  {:<24} arrivals {:>9}  drops {:>7}  util {:>5.2}  L {:>6.2}  maxq {:>4}",
            n.name, n.arrivals, n.drops, n.utilization, n.mean_occupancy, n.max_queue
        );
    }
    println!("media:");
    for m in &r.media {
        println!(
            "  {:<24} {:>12}  util {:>5.2}",
            m.name,
            m.transferred.to_string(),
            m.utilization
        );
    }
    Ok(())
}

fn cmd_suggest() {
    let mtu = Bytes::new(1500);
    println!("case study 1 — inline cores to saturate (MTU):");
    for a in [Accelerator::Md5, Accelerator::Kasumi, Accelerator::Hfa] {
        println!(
            "  {:<8} {}",
            a.name(),
            suggest::suggest_inline_cores(a, mtu)
        );
    }
    println!("case study 3 — E3 core allocations:");
    for app in microservices::App::ALL {
        println!(
            "  {:<8} {:?}",
            app.name(),
            suggest::suggest_core_allocation(app)
        );
    }
    println!("case study 4 — NF placements by packet size:");
    for size in [64u64, 512, 1500] {
        let p = suggest::suggest_placement(Bytes::new(size));
        println!("  {size:>5}B  {:?}", p.0);
    }
    println!("case study 5 — PANIC:");
    let line = Bandwidth::gbps(100.0);
    let credits: Vec<String> = panic_scenarios::CREDIT_PROFILES
        .iter()
        .map(|s| suggest::suggest_credits(s, line).to_string())
        .collect();
    println!("  credits per profile: {}", credits.join("/"));
    println!(
        "  steering split: {:.0}% to A2",
        suggest::suggest_steering_split(Bytes::new(512), Bandwidth::gbps(80.0)) * 100.0
    );
    println!(
        "  IP4 degrees: {} / {}",
        suggest::suggest_ip4_degree(0.5, Bytes::new(1024), Bandwidth::gbps(80.0)),
        suggest::suggest_ip4_degree(0.8, Bytes::new(1024), Bandwidth::gbps(80.0))
    );
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use lognic::service::{serve, ServeOptions, Service};
    use std::io::Write as _;
    let options = ServeOptions::parse(args.iter().cloned())?;
    let mut service = Service::new(options.config);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = std::io::BufReader::new(stdin.lock());
    let mut output = std::io::BufWriter::new(stdout.lock());
    let summary =
        serve(&mut service, &mut input, &mut output).map_err(|e| format!("I/O error: {e}"))?;
    let _ = output.flush();
    let stats = service.stats();
    eprintln!(
        "lognic serve: {} responses ({} shed, {} failed, {} isolated panics)",
        summary.responses, stats.shed, stats.failed, stats.isolated_panics
    );
    Ok(())
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
    let result: Result<(), String> = match args[0].as_str() {
        "list" => {
            for entry in registry::ALL {
                println!("{:<16} {}", entry.name, entry.provenance);
            }
            Ok(())
        }
        "suggest" => {
            cmd_suggest();
            Ok(())
        }
        "serve" => cmd_serve(&args[1..]),
        cmd @ ("estimate" | "simulate" | "dot") => {
            let Some(name) = args.get(1) else {
                usage();
                std::process::exit(2);
            };
            parse_flags(&args[2..]).and_then(|flags| {
                let entry = registry::find(name)
                    .ok_or_else(|| format!("unknown workload `{name}` (try `lognic list`)"))?;
                let (mut scenario, plan) = entry.build();
                if let Some(rate) = flags.rate {
                    scenario = scenario.at_rate(rate);
                }
                match cmd {
                    "estimate" => cmd_estimate(&scenario),
                    "simulate" => cmd_simulate(&scenario, plan, &flags),
                    _ => {
                        print!("{}", scenario.graph.to_dot());
                        Ok(())
                    }
                }
            })
        }
        other => Err(format!("unknown command `{other}`")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
