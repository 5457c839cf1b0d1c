//! `perfbench`: the repository benchmark of the `lognic serve` request
//! path, end to end and layer by layer.
//!
//! One closed-loop client drives `Service::handle_line` in-process with
//! a seeded request stream (see [`stream`]) for `--seconds` seconds and
//! checks every response. With `--trace 1` every served request is
//! followed by a traced replay that calls each layer's public functions
//! directly (see [`replay`]), and the per-layer metrics come from those
//! spans. The last line of standard output is one JSON object with the
//! metrics; `perfbench/README.md` says what each one means.
//!
//! ```console
//! $ cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan_model --seed 1 --seconds 55 --trace 0
//! ```

mod replay;
mod rss;
mod span;
mod stats;
mod stream;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lognic_service::json::{self, Json};
use lognic_service::{ServeConfig, ServeOptions, Service};

use replay::{Outcome, Replayer};
use span::Tracer;
use stats::{median, quantile, ratio, supported_quantile};
use stream::{Line, Stream, Workload};

/// How often the timed loop also times one set-up (`Service::new`, or
/// the catalog build in a traced run); `setup_s` is their median over
/// the kept windows. The samples are spread over the run rather than
/// taken in a burst at its start, so a moment of noise on a shared host
/// cannot move them all. Each built value is dropped before the next
/// build, so every build starts from the same heap state.
const SETUP_EVERY: Duration = Duration::from_millis(100);

/// The timed loop is cut into windows of whole rounds, and the reported
/// figures come from the fastest `1 / KEEP_ONE_IN` of them, ranked by
/// lines served per second. On a shared host, neighbours slow every
/// request by up to a third for episodes of seconds to minutes; a
/// quantile over the whole run moves with the share of the run those
/// episodes cover, while the quiet windows measure the program. A cost
/// the program pays less often than once per `KEEP_ONE_IN` windows
/// does not show in the figures.
const KEEP_ONE_IN: usize = 8;

const USAGE: &str = "usage: perfbench --workload <plan_model|plan_simulate|rack_fleet> \
                     --seed <n> [--seconds <n>] [--trace <0|1>] [--emit <queries>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Print this many queries of the stream and exit.
    emit: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut emit) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => seconds = Some(number(value()?)?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            "--emit" => emit = Some(number(value()?)? as usize),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(55),
        trace: trace.unwrap_or(false),
        emit,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Some(n) = args.emit {
        let mut stream = Stream::new(args.workload, args.seed, threads as u32);
        for query in stream.take(n) {
            for line in query.lines {
                println!("{}", line.text);
            }
        }
        return ExitCode::SUCCESS;
    }
    let run = Run::new(&args, threads);
    let result = if run.trace {
        run.traced()
    } else {
        run.untraced()
    };
    print!("{}", result.report);
    println!("{}", result.json());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// One benchmark run: its inputs and its service configuration.
struct Run {
    workload: Workload,
    seed: u64,
    budget: Duration,
    trace: bool,
    threads: usize,
    config: ServeConfig,
}

/// Everything a run prints.
struct RunResult {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    report: String,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// What the served loop saw.
#[derive(Default)]
struct Served {
    /// Request lines sent, and those whose response failed a check.
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Time inside `handle_line`, summed over all lines, ns.
    service_ns: u128,
    /// Per query (one line, or a simulation with its estimate), ns.
    /// Kept as `u32` (up to 4.2 s) so the client's own samples add
    /// little to `peak_rss_mb`.
    query_ns: Vec<u32>,
    /// The checked prefix: its lines and their responses.
    prefix_lines: Vec<Line>,
    prefix_responses: Vec<String>,
    /// `events` summed over fleet responses, and the time serving them.
    fleet_events: u64,
    fleet_ns: u128,
    /// Served time per request id (index `id − 1`), ns; traced runs only.
    per_request_ns: Vec<u32>,
    /// Set-up times sampled during the loop, s.
    setup_s: Vec<f64>,
    /// The timed loop cut into windows of whole rounds, in order.
    windows: Vec<Window>,
    wall: Duration,
}

/// A stretch of the timed loop: its queries (indices into
/// `Served::query_ns`), the set-up samples taken during it (indices
/// into `Served::setup_s`), and the lines it served.
struct Window {
    queries: Range<usize>,
    setups: Range<usize>,
    lines: u64,
}

/// The samples of the fastest windows (see [`KEEP_ONE_IN`]).
struct Kept {
    windows: usize,
    lines: u64,
    /// Time inside `handle_line`, ns.
    service_ns: f64,
    /// Query latencies, ms, ascending.
    latency_ms: Vec<f64>,
    setup_s: Vec<f64>,
}

impl Served {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(message);
        }
    }

    /// Time inside `handle_line` during `w`, ns.
    fn service_ns(&self, w: &Window) -> f64 {
        self.query_ns[w.queries.clone()]
            .iter()
            .map(|&ns| f64::from(ns))
            .sum()
    }

    /// The fastest `1 / KEEP_ONE_IN` of the windows, at least one.
    fn kept(&self) -> Kept {
        let speed = |w: &Window| ratio(w.lines as f64, self.service_ns(w));
        let mut fastest: Vec<&Window> = self.windows.iter().collect();
        fastest.sort_by(|a, b| speed(b).total_cmp(&speed(a)));
        fastest.truncate((fastest.len() / KEEP_ONE_IN).max(1));
        let mut kept = Kept {
            windows: fastest.len(),
            lines: 0,
            service_ns: 0.0,
            latency_ms: Vec::new(),
            setup_s: Vec::new(),
        };
        for w in fastest {
            kept.lines += w.lines;
            kept.service_ns += self.service_ns(w);
            let latencies = &self.query_ns[w.queries.clone()];
            kept.latency_ms
                .extend(latencies.iter().map(|&ns| f64::from(ns) / 1e6));
            kept.setup_s
                .extend_from_slice(&self.setup_s[w.setups.clone()]);
        }
        kept.latency_ms.sort_by(f64::total_cmp);
        // A window shorter than `SETUP_EVERY` may hold no sample.
        if kept.setup_s.is_empty() {
            kept.setup_s = self.setup_s.clone();
        }
        kept
    }
}

impl Run {
    fn new(args: &Args, threads: usize) -> Run {
        let cost = args.workload.max_cost().to_string();
        let threads_flag = threads.to_string();
        let flags = [
            "--threads",
            &threads_flag,
            "--high-water",
            &cost,
            "--drain",
            &cost,
        ];
        let config = ServeOptions::parse(flags.map(str::to_owned))
            .expect("the benchmark's own serve flags parse")
            .config;
        Run {
            workload: args.workload,
            seed: args.seed,
            budget: Duration::from_secs(args.seconds),
            trace: args.trace,
            threads,
            config,
        }
    }

    /// The closed loop: serves whole windows of queries until the time
    /// budget is spent. Every `SETUP_EVERY` it also times one call of
    /// `setup` outside the served time. `after_line` sees every line
    /// whose response passed the checks, with the parsed response.
    fn serve<T>(
        &self,
        service: &mut Service,
        mut setup: impl FnMut() -> T,
        mut after_line: impl FnMut(&Line, &Json, &mut Served),
    ) -> Served {
        let mut served = Served::default();
        let mut stream = Stream::new(self.workload, self.seed, self.threads as u32);
        let round = self.workload.round_queries();
        let window = round * self.workload.window_rounds();
        let start = Instant::now();
        let mut next_setup = start;
        // Where the open window began: its first query, its first set-up
        // sample, and the lines served before it.
        let mut opened = (0, 0, 0);
        let mut queries = 0;
        while queries == 0 || queries % window != 0 || start.elapsed() < self.budget {
            if Instant::now() >= next_setup {
                let t0 = Instant::now();
                let built = setup();
                served.setup_s.push(t0.elapsed().as_secs_f64());
                drop(built);
                next_setup += SETUP_EVERY;
            }
            let query = stream.next_query();
            let mut query_ns = 0u128;
            for line in &query.lines {
                let t0 = Instant::now();
                let response = service.handle_line(&line.text);
                let ns = t0.elapsed().as_nanos();
                query_ns += ns;
                served.attempted += 1;
                served.service_ns += ns;
                if self.trace {
                    served.per_request_ns.push(saturate(ns));
                }
                match check_response(line, &response) {
                    Ok(doc) => {
                        if let Some(events) = doc.get("events").and_then(Json::as_f64) {
                            served.fleet_events += events as u64;
                            served.fleet_ns += ns;
                        }
                        after_line(line, &doc, &mut served);
                    }
                    Err(e) => served.fail(e),
                }
                if queries < round {
                    served.prefix_lines.push(line.clone());
                    served.prefix_responses.push(response);
                }
            }
            served.query_ns.push(saturate(query_ns));
            queries += 1;
            if queries % window == 0 {
                let (first_query, first_setup, lines_before) = opened;
                served.windows.push(Window {
                    queries: first_query..queries,
                    setups: first_setup..served.setup_s.len(),
                    lines: served.attempted - lines_before,
                });
                opened = (queries, served.setup_s.len(), served.attempted);
            }
        }
        served.wall = start.elapsed();
        served
    }

    fn untraced(&self) -> RunResult {
        let mut service = Service::new(self.config.clone());
        let mut served = self.serve(
            &mut service,
            || Service::new(self.config.clone()),
            |_, _, _| {},
        );
        let peak_rss_mb = rss::peak_rss_mb();
        drop(service);

        // Repeat the checked prefix on a fresh service: the bytes must
        // not change. Fleet requests repeat at one shard, which also
        // checks that the shard count never reaches a response.
        let mut fresh = Service::new(self.config.clone());
        let shards = format!("\"shards\":{}", self.threads);
        for (line, first) in served.prefix_lines.iter().zip(&served.prefix_responses) {
            let again = fresh.handle_line(&line.text.replace(&shards, "\"shards\":1"));
            if &again != first {
                served.errors.push(format!(
                    "request {}: response changed on repeat\n  first:  {first}\n  repeat: {again}",
                    line.id
                ));
            }
        }

        let kept = served.kept();
        let metrics = vec![
            (
                "throughput_rps",
                ratio(kept.lines as f64, kept.service_ns / 1e9),
                "1/s",
            ),
            ("latency_p50_ms", quantile(&kept.latency_ms, 0.5), "ms"),
            ("latency_p90_ms", quantile(&kept.latency_ms, 0.9), "ms"),
            ("setup_s", median(&kept.setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ];

        let mut report = self.header(&served);
        let _ = writeln!(
            report,
            "kept               the fastest {} of {} windows: {} queries, {} set-ups",
            kept.windows,
            served.windows.len(),
            kept.latency_ms.len(),
            kept.setup_s.len()
        );
        let mut whole: Vec<f64> = served
            .query_ns
            .iter()
            .map(|&ns| f64::from(ns) / 1e6)
            .collect();
        whole.sort_by(f64::total_cmp);
        let throughput = ratio(served.attempted as f64, served.service_ns as f64 / 1e9);
        let _ = writeln!(report, "whole run          {throughput} lines/s");
        for (name, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
            for (over, sorted) in [("kept", &kept.latency_ms), ("whole run", &whole)] {
                let value = supported_quantile(sorted, q).map_or_else(
                    || format!("n/a: fewer than {} samples beyond it", stats::MIN_BEYOND),
                    |v| format!("{v} ms"),
                );
                let _ = writeln!(
                    report,
                    "latency {name} {over:<10} {value} ({} samples)",
                    sorted.len()
                );
            }
        }
        let _ = writeln!(
            report,
            "error_rate         {} ({} of {} lines)",
            ratio(served.failed as f64, served.attempted as f64),
            served.failed,
            served.attempted
        );
        if self.workload == Workload::PlanSimulate {
            let err = model_latency_err_pct(&served);
            let _ = writeln!(
                report,
                "model_latency_err_pct {err} % (median over the prefix pairs)"
            );
        }
        if self.workload == Workload::RackFleet {
            let eps = ratio(served.fleet_events as f64, served.fleet_ns as f64 / 1e9);
            let _ = writeln!(report, "sim_events_per_s   {eps}");
        }
        finish(served, metrics, report)
    }

    fn traced(&self) -> RunResult {
        let mut service = Service::new(self.config.clone());
        let catalog = replay::catalog();
        let replayer = Replayer {
            catalog: &catalog,
            config: &self.config,
        };
        let mut tracer = Tracer::new();
        let mut served =
            self.serve(
                &mut service,
                replay::catalog,
                |line, doc, served| match replayer.replay(&mut tracer, line, "request") {
                    Ok(outcome) => {
                        if let Err(e) = outcome.check(doc) {
                            served.fail(format!("request {}: replay disagrees: {e}", line.id));
                        }
                        count_outcome(&mut tracer, line.id, &outcome);
                    }
                    Err(e) => served.fail(e),
                },
            );
        // Layers this workload's stream never calls are timed on the
        // probe lines (request id 0), so that every per-layer time is a
        // measurement on every workload. Probe spans hang under `probe`
        // roots and stay out of the prefix counts, the coverage and the
        // overhead.
        for text in Stream::probe(self.seed, self.threads as u32) {
            let line = Line { id: 0, ..text };
            match replayer.replay(&mut tracer, &line, "probe") {
                Ok(outcome) => count_outcome(&mut tracer, 0, &outcome),
                Err(e) => served.errors.push(format!("probe: {e}")),
            }
        }
        let last_prefix_id = served.prefix_lines.last().map_or(0, |l| l.id);
        let layers = Layers::new(&tracer, &served, last_prefix_id);

        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let file = format!("{dir}/{}.spans.jsonl", self.workload.name());
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::File::create(&file))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                // The checked prefix and the probe (id 0): every request
                // kind, without the hundreds of megabytes a whole
                // `plan_model` run would take.
                tracer.write(&mut w, |request| request <= last_prefix_id)?;
                std::io::Write::flush(&mut w)
            });
        if let Err(e) = written {
            served.errors.push(format!("writing {file}: {e}"));
        }

        let model_err = if self.workload == Workload::PlanSimulate {
            model_latency_err_pct(&served)
        } else {
            0.0
        };
        let mut metrics = layers.metrics(median(&served.kept().setup_s) * 1e3);
        metrics.push(("model_latency_err_pct", model_err, "%"));
        metrics.push(("sim_events_per_s", layers.sim_events_per_s, "1/s"));

        let mut report = self.header(&served);
        let _ = writeln!(
            report,
            "spans              {} spans and {} counts; prefix and probe written to {file}",
            tracer.spans().len(),
            tracer.counts().len()
        );
        let _ = writeln!(
            report,
            "{:<30} {:>9} {:>12} {:>12}",
            "span", "count", "mean us", "self us"
        );
        for (name, t) in span::totals(tracer.spans()) {
            let per_call = |ns: u64| ratio(ns as f64, t.count as f64) / 1e3;
            let _ = writeln!(
                report,
                "{name:<30} {:>9} {:>12.3} {:>12.3}",
                t.count,
                per_call(t.total),
                per_call(t.self_time)
            );
        }
        finish(served, metrics, report)
    }

    fn header(&self, served: &Served) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perfbench {} seed {} trace {} on {} cores (service threads {})",
            self.workload.name(),
            self.seed,
            u8::from(self.trace),
            self.threads,
            self.config.threads
        );
        let _ = writeln!(
            out,
            "served             {} lines in {} queries over {:.2} s",
            served.attempted,
            served.query_ns.len(),
            served.wall.as_secs_f64()
        );
        let _ = writeln!(
            out,
            "digest             {:016x} over the first {} responses",
            digest(&served.prefix_responses),
            served.prefix_responses.len()
        );
        out
    }
}

fn finish(served: Served, metrics: Vec<Metric>, mut report: String) -> RunResult {
    for (name, value, unit) in &metrics {
        let _ = writeln!(report, "{name:<30} {value} {unit}");
    }
    for e in &served.errors {
        let _ = writeln!(report, "FAILED: {e}");
    }
    RunResult {
        attempted: served.attempted,
        failed: served.failed,
        errors: served.errors,
        metrics,
        report,
    }
}

fn saturate(ns: u128) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// Parses a response and checks `"ok":true` and the echoed id.
fn check_response(line: &Line, response: &str) -> Result<Json, String> {
    let doc = json::parse(response).map_err(|e| {
        format!(
            "request {}: response is not JSON ({e}): {response}",
            line.id
        )
    })?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("request {}: not ok: {response}", line.id));
    }
    if doc.get("id").and_then(Json::as_f64) != Some(line.id as f64) {
        return Err(format!("request {}: id not echoed: {response}", line.id));
    }
    Ok(doc)
}

/// FNV-1a over the responses, each followed by a newline.
fn digest(responses: &[String]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for r in responses {
        for b in r.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Median over the prefix's (simulate, estimate) pairs of
/// |model mean latency − simulated mean latency| / simulated, percent.
fn model_latency_err_pct(served: &Served) -> f64 {
    let num = |r: &str, path: &[&str]| {
        let doc = json::parse(r).ok()?;
        let mut at = &doc;
        for key in path {
            at = at.get(key)?;
        }
        at.as_f64()
    };
    let errors: Vec<f64> = served
        .prefix_responses
        .chunks_exact(2)
        .filter_map(|pair| {
            let sim = num(&pair[0], &["latency_s", "mean"])?;
            let model = num(&pair[1], &["latency_us"])? * 1e-6;
            Some((model - sim).abs() / sim * 100.0)
        })
        .collect();
    if errors.is_empty() {
        0.0
    } else {
        median(&errors)
    }
}

/// Records the counts a replay's outcome carries.
fn count_outcome(t: &mut Tracer, id: u64, outcome: &Outcome) {
    match outcome {
        Outcome::Simulate {
            events, workers, ..
        } => {
            t.count("sim.events", id, *events);
            t.count("sim.replicate.workers", id, *workers as u64);
        }
        Outcome::Fleet(report) => {
            t.count("fleet.events", id, report.events);
            t.count("fleet.rounds", id, report.rounds);
            t.count("fleet.forwarded", id, report.forwarded);
        }
        Outcome::Sweep { points, .. } => t.count("model.sweep.points", id, points.len() as u64),
        Outcome::Estimate(_) | Outcome::Analyze { .. } => {}
    }
}

/// Per-layer figures derived from the traced run's spans and counts.
struct Layers {
    /// Per span name: mean and summed duration, ns.
    mean_ns: BTreeMap<&'static str, f64>,
    total_ns: BTreeMap<&'static str, f64>,
    /// Counts summed over all traced requests, and over the prefix.
    all: BTreeMap<&'static str, f64>,
    prefix: BTreeMap<&'static str, f64>,
    residual_us: f64,
    coverage: f64,
    overhead_pct: f64,
    parallel_eff: f64,
    sim_events_per_s: f64,
}

impl Layers {
    fn new(t: &Tracer, served: &Served, last_prefix_id: u64) -> Layers {
        let spans = t.spans();
        let totals = span::totals(spans);
        let mut all = BTreeMap::new();
        let mut prefix = BTreeMap::new();
        let mut workers = BTreeMap::new();
        let mut served_sim_events = 0.0;
        for c in t.counts() {
            *all.entry(c.name).or_insert(0.0) += c.value as f64;
            if (1..=last_prefix_id).contains(&c.request) {
                *prefix.entry(c.name).or_insert(0.0) += c.value as f64;
            }
            match c.name {
                "sim.replicate.workers" => {
                    workers.insert(c.request, c.value as f64);
                }
                "sim.events" if c.request != 0 => served_sim_events += c.value as f64,
                _ => {}
            }
        }

        // Each `request` root against the untraced time of the same line.
        let covered = span::covered_by_children(spans);
        let (mut served_ns, mut traced_ns, mut covered_ns) = (0.0, 0.0, 0.0);
        let (mut replicate_capacity, mut sim_served_ns) = (0.0, 0.0);
        for (s, cov) in spans.iter().zip(&covered) {
            match s.name {
                "request" => {
                    let untraced = f64::from(served.per_request_ns[(s.request - 1) as usize]);
                    served_ns += untraced;
                    traced_ns += s.duration() as f64;
                    covered_ns += *cov as f64;
                    if workers.contains_key(&s.request) {
                        sim_served_ns += untraced;
                    }
                }
                "sim.replicate" => {
                    replicate_capacity +=
                        workers.get(&s.request).copied().unwrap_or(1.0) * s.duration() as f64;
                }
                _ => {}
            }
        }
        let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total as f64);
        let requests = totals.get("request").map_or(0.0, |t| t.count as f64);
        Layers {
            residual_us: ratio(served_ns - covered_ns, requests) / 1e3,
            coverage: ratio(covered_ns, served_ns),
            overhead_pct: (ratio(traced_ns, served_ns) - 1.0) * 100.0,
            parallel_eff: ratio(total("sim.build") + total("sim.run"), replicate_capacity),
            // Simulated events over the untraced time of the requests
            // that simulated them: replications counted by the replay,
            // fleets by their responses.
            sim_events_per_s: ratio(
                served_sim_events + served.fleet_events as f64,
                (sim_served_ns + served.fleet_ns as f64) / 1e9,
            ),
            mean_ns: totals
                .iter()
                .map(|(k, v)| (*k, ratio(v.total as f64, v.count as f64)))
                .collect(),
            total_ns: totals.iter().map(|(k, v)| (*k, v.total as f64)).collect(),
            all,
            prefix,
        }
    }

    fn mean(&self, span: &str, scale: f64) -> f64 {
        self.mean_ns.get(span).copied().unwrap_or(0.0) / scale
    }

    /// Summed duration of `span` per unit of the count `per`, ns.
    fn per(&self, span: &str, per: &str) -> f64 {
        ratio(
            self.total_ns.get(span).copied().unwrap_or(0.0),
            self.all.get(per).copied().unwrap_or(0.0),
        )
    }

    fn prefix_count(&self, name: &str) -> f64 {
        self.prefix.get(name).copied().unwrap_or(0.0)
    }

    fn metrics(&self, registry_build_ms: f64) -> Vec<Metric> {
        const US: f64 = 1e3;
        const MS: f64 = 1e6;
        let speedup = ratio(
            self.total_ns
                .get("fleet.run_1shard")
                .copied()
                .unwrap_or(0.0),
            self.total_ns.get("fleet.run").copied().unwrap_or(0.0),
        );
        vec![
            (
                "service.json.parse_us",
                self.mean("service.json.parse", US),
                "us",
            ),
            (
                "service.request.decode_us",
                self.mean("service.request.decode", US),
                "us",
            ),
            ("service.residual_us", self.residual_us, "us"),
            ("workloads.registry.build_ms", registry_build_ms, "ms"),
            (
                "workloads.scenario.at_rate_us",
                self.mean("workloads.scenario.at_rate", US),
                "us",
            ),
            (
                "model.analyze.run_us",
                self.mean("model.analyze.run", US),
                "us",
            ),
            (
                "model.analyze.diagnostics",
                self.prefix_count("model.analyze.diagnostics"),
                "count",
            ),
            (
                "model.estimate.evaluate_us",
                self.mean("model.estimate.evaluate", US),
                "us",
            ),
            (
                "model.estimate.degraded_us",
                self.mean("model.estimate.degraded", US),
                "us",
            ),
            (
                "model.sweep.point_us",
                self.per("model.sweep", "model.sweep.points") / US,
                "us",
            ),
            ("sim.build_us", self.mean("sim.build", US), "us"),
            ("sim.run_ms", self.mean("sim.run", MS), "ms"),
            ("sim.events", self.prefix_count("sim.events"), "count"),
            ("sim.ns_per_event", self.per("sim.run", "sim.events"), "ns"),
            (
                "sim.replicate.wall_ms",
                self.mean("sim.replicate", MS),
                "ms",
            ),
            ("sim.replicate.parallel_eff", self.parallel_eff, "ratio"),
            ("fleet.build_ms", self.mean("fleet.build", MS), "ms"),
            ("fleet.run_ms", self.mean("fleet.run", MS), "ms"),
            ("fleet.rounds", self.prefix_count("fleet.rounds"), "count"),
            (
                "fleet.us_per_round",
                self.per("fleet.run", "fleet.rounds") / US,
                "us",
            ),
            (
                "fleet.forwarded",
                self.prefix_count("fleet.forwarded"),
                "count",
            ),
            (
                "fleet.ns_per_event",
                self.per("fleet.run", "fleet.events"),
                "ns",
            ),
            ("fleet.shard_speedup", speedup, "ratio"),
            ("trace.coverage", self.coverage, "ratio"),
            ("trace.overhead_pct", self.overhead_pct, "%"),
        ]
    }
}
