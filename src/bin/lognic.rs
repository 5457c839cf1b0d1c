//! `lognic` — a command-line explorer for the built-in case-study
//! scenarios.
//!
//! ```text
//! lognic list
//! lognic estimate inline-md5 [--rate-gbps 25] [--cores 9]
//! lognic simulate nvmeof-rrd4k [--rate-gbps 15] [--seed 7] [--ms 100]
//! lognic dot nf-opt
//! lognic suggest all
//! ```

use lognic::devices::liquidio::{Accelerator, LiquidIo};
use lognic::devices::stingray::IoPattern;
use lognic::optimizer::suggest;
use lognic::prelude::*;
use lognic::workloads::{inline_accel, microservices, nf_placement, nvmeof, panic_scenarios};

struct Flags {
    rate_gbps: Option<f64>,
    size: Option<u64>,
    cores: Option<u32>,
    seed: u64,
    ms: f64,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        rate_gbps: None,
        size: None,
        cores: None,
        seed: 42,
        ms: 40.0,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg.as_str();
        let mut value = || it.next().ok_or_else(|| format!("{name} needs a value"));
        match name {
            "--rate-gbps" => flags.rate_gbps = Some(positive(name, value()?)?),
            "--size" => match integer(name, value()?)? {
                0 => return Err("--size must be at least 1 byte".to_owned()),
                size => flags.size = Some(size),
            },
            "--cores" => match integer(name, value()?)? {
                cores @ 1..=LiquidIo::CORES => flags.cores = Some(cores),
                cores => {
                    return Err(format!(
                        "--cores {cores} is outside 1..={}",
                        LiquidIo::CORES
                    ))
                }
            },
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

const SCENARIOS: [(&str, &str); 10] = [
    (
        "inline-md5",
        "LiquidIO inline MD5 at MTU line rate (case study 1)",
    ),
    ("inline-crc", "LiquidIO inline CRC at MTU line rate"),
    ("inline-hfa", "LiquidIO inline HFA (off-chip regex engine)"),
    (
        "nvmeof-rrd4k",
        "Stingray NVMe-oF target, 4KB random reads (case study 2)",
    ),
    (
        "nvmeof-swr4k",
        "Stingray NVMe-oF target, 4KB sequential writes",
    ),
    (
        "e3-nfvdin-opt",
        "E3 intrusion detection, LogNIC-opt cores (case study 3)",
    ),
    (
        "e3-nfvdin-rr",
        "E3 intrusion detection, round-robin baseline",
    ),
    (
        "nf-opt",
        "BlueField-2 NF chain, optimal placement (case study 4)",
    ),
    (
        "panic-credits",
        "PANIC pipelined chain, default credits (case study 5)",
    ),
    (
        "panic-steering",
        "PANIC parallelized chain, LogNIC steering split",
    ),
];

fn build(name: &str, flags: &Flags) -> Option<Scenario> {
    let size = Bytes::new(flags.size.unwrap_or(1500));
    let rate = |default: f64| Bandwidth::gbps(flags.rate_gbps.unwrap_or(default));
    Some(match name {
        "inline-md5" => inline_accel::inline(
            Accelerator::Md5,
            flags.cores.unwrap_or(LiquidIo::CORES),
            size,
            rate(25.0),
        ),
        "inline-crc" => inline_accel::inline(
            Accelerator::Crc,
            flags.cores.unwrap_or(LiquidIo::CORES),
            size,
            rate(25.0),
        ),
        "inline-hfa" => inline_accel::inline(
            Accelerator::Hfa,
            flags.cores.unwrap_or(LiquidIo::CORES),
            size,
            rate(25.0),
        ),
        "nvmeof-rrd4k" => nvmeof::nvmeof(IoPattern::RandRead4k, rate(15.0)),
        "nvmeof-swr4k" => nvmeof::nvmeof(IoPattern::SeqWrite4k, rate(7.0)),
        "e3-nfvdin-opt" => {
            let app = microservices::App::NfvDin;
            let rps =
                0.85 * microservices::capacity(app, microservices::AllocationScheme::LogNicOpt);
            microservices::scenario(app, microservices::AllocationScheme::LogNicOpt, rps)
        }
        "e3-nfvdin-rr" => {
            let app = microservices::App::NfvDin;
            let rps =
                0.85 * microservices::capacity(app, microservices::AllocationScheme::LogNicOpt);
            microservices::scenario(app, microservices::AllocationScheme::RoundRobin, rps)
        }
        "nf-opt" => {
            let placement = nf_placement::optimal_for(size);
            nf_placement::scenario(placement, size, rate(60.0))
        }
        "panic-credits" => {
            panic_scenarios::pipelined_chain(8, panic_scenarios::CREDIT_PROFILES[0], rate(100.0))
        }
        "panic-steering" => {
            panic_scenarios::steering(panic_scenarios::lognic_steering_split(), size, rate(80.0))
        }
        _ => return None,
    })
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

fn cmd_simulate(s: &Scenario, flags: &Flags) {
    let cfg = SimConfig {
        seed: flags.seed,
        duration: Seconds::millis(flags.ms),
        warmup: Seconds::millis(flags.ms * 0.2),
        ..SimConfig::default()
    };
    let r = s.simulate(cfg);
    println!("scenario  : {}", s.name);
    println!("offered   : {}", r.offered);
    println!("throughput: {}", r.throughput);
    println!(
        "packets   : {} completed, {} dropped ({:.2}% loss)",
        r.completed,
        r.dropped,
        r.loss_rate() * 100.0
    );
    println!(
        "latency   : mean {}  p50 {}  p99 {}  max {}",
        r.latency.mean, r.latency.p50, r.latency.p99, r.latency.max
    );
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
        eprintln!("usage: lognic (list | estimate <scenario> | simulate <scenario> | dot <scenario> | suggest | serve) [flags]");
        eprintln!("flags: --rate-gbps N  --size BYTES  --cores N  --seed N  --ms N");
        eprintln!("scenarios:");
        for (name, desc) in SCENARIOS {
            eprintln!("  {name:<16} {desc}");
        }
    };
    if args.is_empty() {
        usage();
        std::process::exit(2);
    }
    let result: Result<(), String> = match args[0].as_str() {
        "list" => {
            for (name, desc) in SCENARIOS {
                println!("{name:<16} {desc}");
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
            match parse_flags(&args[2..]) {
                Err(e) => Err(e),
                Ok(flags) => match build(name, &flags) {
                    None => Err(format!("unknown scenario `{name}` (try `lognic list`)")),
                    Some(s) => match cmd {
                        "estimate" => cmd_estimate(&s),
                        "simulate" => {
                            cmd_simulate(&s, &flags);
                            Ok(())
                        }
                        _ => {
                            print!("{}", s.graph.to_dot());
                            Ok(())
                        }
                    },
                },
            }
        }
        other => Err(format!("unknown command `{other}`")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
