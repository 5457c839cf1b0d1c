//! Seeded request streams, one per workload.
//!
//! A stream is an endless sequence of *blocks*. Every block holds the
//! same mix of request kinds and parameter strata, and the seed decides
//! the exact values inside each stratum and the order of the requests.
//! A run serves whole rounds of blocks (see
//! [`Workload::round_queries`]), so its composition is nearly the same
//! from seed to seed and run-to-run spread measures the program, not
//! the luck of the draw.
//!
//! The service only ever sees the generated lines. Nothing here calls
//! the model: the per-graph capacities below are constants, so a change
//! to the model cannot change the requests it is asked.

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Interactive what-if queries; the simulator does no work.
    PlanModel,
    /// Replicated simulations, each paired with its model estimate.
    PlanSimulate,
    /// Rack-scale sharded fleet simulations.
    RackFleet,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PlanModel,
        Workload::PlanSimulate,
        Workload::RackFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanModel => "plan_model",
            Workload::PlanSimulate => "plan_simulate",
            Workload::RackFleet => "rack_fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Queries in one *round*: the blocks after which every stratum of
    /// the workload has been visited exactly once. A run serves whole
    /// rounds, so its request mix is the same for every seed. The first
    /// round is also the checked prefix: its responses are digested and
    /// repeated, and the exact counts are taken over it.
    pub fn round_queries(self) -> usize {
        match self {
            Workload::PlanModel => PLAN_MODEL_BLOCK,
            // Every graph passes through all simulation strata.
            Workload::PlanSimulate => SIM_STRATA.len() * GRAPHS.len(),
            Workload::RackFleet => FLEET_BLOCK,
        }
    }

    /// Rounds in one timing window, so that a window takes a few tenths
    /// of a second to a second untraced: long enough to hold its
    /// round's whole mix, short enough that a second of host noise
    /// spoils only a few windows.
    pub fn window_rounds(self) -> usize {
        match self {
            // A round of 132 queries takes about 10 ms.
            Workload::PlanModel => 25,
            // A round of 55 pairs, or of 8 racks, takes about 1 s.
            Workload::PlanSimulate | Workload::RackFleet => 1,
        }
    }

    /// The largest logical cost (`Request::cost`) any request of this
    /// workload carries. The benchmark sizes the load gauge's
    /// high-water mark and drain to it so that nothing is shed.
    pub fn max_cost(self) -> u64 {
        match self {
            Workload::PlanModel => *SWEEP_POINTS.iter().max().expect("non-empty") as u64,
            Workload::PlanSimulate => 8 * 10,
            Workload::RackFleet => 32 * 5,
        }
    }
}

/// One registry graph as the generator knows it.
pub struct Graph {
    pub name: &'static str,
    /// Offered rate at which the model's throughput bound binds, Gb/s
    /// (the registry scenario's saturation point). Load fractions are
    /// fractions of this.
    pub capacity_gbps: f64,
    /// A node on the packet path, the target of inline faults.
    pub fault_node: &'static str,
    /// Whether the registry bundles a fault plan with the graph.
    pub bundled_plan: bool,
}

/// All eleven `registry::ALL` graphs, in registry order.
pub const GRAPHS: [Graph; 11] = [
    graph("chaos", 20.4255, "nic-cores", true),
    graph("microservices", 16.8041, "core0", false),
    graph("nvmeof", 20.9715, "nic-core-submit", false),
    graph("switch-kv", 10.24, "rmt-pipeline", false),
    graph("compression", 29.4912, "nic-cores", false),
    graph("nf-placement", 29.0152, "arm-cores", false),
    graph("panic-chain", 89.6, "rmt", false),
    graph("tls-handshake", 12.0, "record-parser", false),
    graph("dns-kv", 15.0, "udp-parser", false),
    graph("storage-rpc", 20.0, "rpc-parser", false),
    graph("http2-mux", 24.0, "frame-demux", false),
];

const fn graph(
    name: &'static str,
    capacity_gbps: f64,
    fault_node: &'static str,
    bundled_plan: bool,
) -> Graph {
    Graph {
        name,
        capacity_gbps,
        fault_node,
        bundled_plan,
    }
}

/// Load fractions `plan_model` asks about: 0.2 to 1.2 of capacity.
const MODEL_LOADS: [f64; 11] = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2];
/// Sweep sizes: one per graph in every block, shuffled.
const SWEEP_POINTS: [usize; 11] = [4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 16];
/// Per graph and block: estimates, degraded estimates, analyses, sweeps.
const PLAN_MODEL_MIX: (usize, usize, usize, usize) = (8, 2, 1, 1);
const PLAN_MODEL_BLOCK: usize =
    GRAPHS.len() * (PLAN_MODEL_MIX.0 + PLAN_MODEL_MIX.1 + PLAN_MODEL_MIX.2 + PLAN_MODEL_MIX.3);

/// Simulation strata `(seeds, duration_ms, load fraction)`, spanning
/// 2–8 seeds, 2–10 ms and 0.3–0.9 of capacity. Each graph visits every
/// stratum once per round, starting at a seeded offset. The strata are
/// fixed rather than drawn: the cost of one simulation varies tenfold
/// with them, and a run holds only a few hundred simulations, so drawn
/// values would make the mix, not the program, set the run-to-run
/// spread. There are five, not four: with 44 pairs a round, the median
/// fell exactly between the 22nd and 23rd costliest pairs, 10 and 14 ms
/// apart on the 2-vCPU host, and host noise flipped `latency_p50_ms`
/// between the two. With 55 it falls inside the 28th.
const SIM_STRATA: [(u32, f64, f64); 5] = [
    (2, 2.0, 0.9),
    (3, 3.0, 0.8),
    (4, 5.0, 0.6),
    (6, 7.0, 0.5),
    (8, 10.0, 0.3),
];
/// Graphs whose simulations carry inline faults with a retry policy
/// (`chaos` always runs its bundled plan).
const SIM_FAULTED: [&str; 3] = ["nvmeof", "compression", "storage-rpc"];

/// `rack_fleet` strata `(NICs, duration_ms)`, spanning 8–32 NICs and
/// 2–5 ms: one request each per block, in seeded order. Fixed for the
/// reason `SIM_STRATA` is: a run holds only about 50 requests of each,
/// so drawn sizes would move the 90th percentile from seed to seed.
const FLEET_STRATA: [(u32, f64); 8] = [
    (8, 2.0),
    (12, 5.0),
    (16, 3.0),
    (20, 4.0),
    (24, 2.5),
    (28, 4.5),
    (32, 3.5),
    (32, 5.0),
];
const FLEET_BLOCK: usize = FLEET_STRATA.len();

/// One request line and the id it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub id: u64,
    pub text: String,
}

/// What a client waits for: one line, or a simulation followed by the
/// matching model estimate (`plan_simulate`).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub lines: Vec<Line>,
}

/// SplitMix64: small, seedable, and stable across platforms, so a seed
/// means the same stream everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6C6F_676E_6963_6263)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below((hi - lo + 1) as usize) as u32
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The endless, seeded request stream of one workload.
pub struct Stream {
    workload: Workload,
    rng: Rng,
    shards: u32,
    next_id: u64,
    block: usize,
    /// Per-graph stratum offsets of `plan_simulate`.
    offsets: [usize; GRAPHS.len()],
    pending: std::collections::VecDeque<Query>,
}

impl Stream {
    /// `shards` only fills the `shards` field of `fleet_simulate`
    /// requests; responses never depend on it.
    pub fn new(workload: Workload, seed: u64, shards: u32) -> Stream {
        let mut rng = Rng::new(seed);
        let mut offsets = [0; GRAPHS.len()];
        for o in &mut offsets {
            *o = rng.below(SIM_STRATA.len());
        }
        Stream {
            workload,
            rng,
            shards,
            next_id: 1,
            block: 0,
            offsets,
            pending: Default::default(),
        }
    }

    pub fn next_query(&mut self) -> Query {
        if self.pending.is_empty() {
            self.refill();
        }
        self.pending.pop_front().expect("a block is never empty")
    }

    /// The first `n` queries.
    pub fn take(&mut self, n: usize) -> Vec<Query> {
        (0..n).map(|_| self.next_query()).collect()
    }

    /// One line per request kind of any workload, for the seed: the
    /// first `estimate`, `estimate_degraded` and `sweep` of
    /// `plan_model`, the first `simulate` of `plan_simulate` and the
    /// first `fleet_simulate` of `rack_fleet`. Together they call every
    /// layer.
    pub fn probe(seed: u64, shards: u32) -> Vec<Line> {
        let mut model = Stream::new(Workload::PlanModel, seed, shards);
        let mut first = |kind: &str| loop {
            let line = model.next_query().lines.remove(0);
            if line.text.contains(&format!("\"kind\":\"{kind}\"")) {
                break line;
            }
        };
        let mut lines = vec![
            first("estimate"),
            first("estimate_degraded"),
            first("sweep"),
        ];
        for w in [Workload::PlanSimulate, Workload::RackFleet] {
            lines.push(Stream::new(w, seed, shards).next_query().lines.remove(0));
        }
        lines
    }

    fn line(&mut self, body: String) -> Line {
        let id = self.next_id;
        self.next_id += 1;
        Line {
            id,
            text: format!("{{\"id\":{id},{body}}}"),
        }
    }

    fn refill(&mut self) {
        let mut block = match self.workload {
            Workload::PlanModel => self.plan_model_block(),
            Workload::PlanSimulate => self.plan_simulate_block(),
            Workload::RackFleet => self.rack_fleet_block(),
        };
        self.rng.shuffle(&mut block);
        // Ids follow stream order, so they are assigned after shuffling.
        for body in block {
            let lines = body.into_iter().map(|b| self.line(b)).collect();
            self.pending.push_back(Query { lines });
        }
        self.block += 1;
    }

    fn plan_model_block(&mut self) -> Vec<Vec<String>> {
        let mut sizes = SWEEP_POINTS;
        self.rng.shuffle(&mut sizes);
        let (estimates, degraded, analyses, sweeps) = PLAN_MODEL_MIX;
        let mut out = Vec::with_capacity(PLAN_MODEL_BLOCK);
        for (g, points) in GRAPHS.iter().zip(sizes) {
            for _ in 0..estimates {
                let rate = rate(g, self.rng.pick(&MODEL_LOADS));
                out.push(vec![format!(
                    "\"kind\":\"estimate\",\"graph\":\"{}\",\"rate_gbps\":{rate}",
                    g.name
                )]);
            }
            for i in 0..degraded {
                let rate = rate(g, self.rng.pick(&MODEL_LOADS));
                let faults = if g.bundled_plan {
                    String::new()
                } else if i % 2 == 0 {
                    self.drop_fault(g)
                } else {
                    let from = self.rng.between(1, 4) as f64;
                    let until = from + self.rng.pick(&[0.5, 1.0, 2.0]);
                    self.outage_fault(g, from, until)
                };
                out.push(vec![format!(
                    "\"kind\":\"estimate_degraded\",\"graph\":\"{}\",\"rate_gbps\":{rate}{faults}",
                    g.name
                )]);
            }
            for _ in 0..analyses {
                let rate = rate(g, self.rng.pick(&MODEL_LOADS));
                out.push(vec![format!(
                    "\"kind\":\"analyze\",\"graph\":\"{}\",\"rate_gbps\":{rate}",
                    g.name
                )]);
            }
            for _ in 0..sweeps {
                let fractions = (0..points)
                    .map(|i| {
                        let f = 0.1 + 1.1 * i as f64 / (points - 1) as f64;
                        format!("{}", (f * 1000.0).round() / 1000.0)
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                out.push(vec![format!(
                    "\"kind\":\"sweep\",\"graph\":\"{}\",\"rate_gbps\":{},\"fractions\":[{fractions}]",
                    g.name, g.capacity_gbps
                )]);
            }
        }
        out
    }

    fn plan_simulate_block(&mut self) -> Vec<Vec<String>> {
        let mut out = Vec::with_capacity(GRAPHS.len());
        for (i, g) in GRAPHS.iter().enumerate() {
            let (seeds, ms, load) = SIM_STRATA[(self.block + self.offsets[i]) % SIM_STRATA.len()];
            let rate = rate(g, load);
            let faults = if SIM_FAULTED.contains(&g.name) {
                if g.name == "storage-rpc" {
                    self.outage_fault(g, 0.4 * ms, 0.4 * ms + 0.5)
                } else {
                    self.drop_fault(g)
                }
            } else {
                String::new()
            };
            let sim = format!(
                "\"kind\":\"simulate\",\"graph\":\"{}\",\"rate_gbps\":{rate},\"seeds\":{seeds},\"duration_ms\":{ms}{faults}",
                g.name
            );
            let estimate = if g.bundled_plan || !faults.is_empty() {
                format!(
                    "\"kind\":\"estimate_degraded\",\"graph\":\"{}\",\"rate_gbps\":{rate},\"horizon_ms\":{ms}{faults}",
                    g.name
                )
            } else {
                format!(
                    "\"kind\":\"estimate\",\"graph\":\"{}\",\"rate_gbps\":{rate}",
                    g.name
                )
            };
            out.push(vec![sim, estimate]);
        }
        out
    }

    fn rack_fleet_block(&mut self) -> Vec<Vec<String>> {
        FLEET_STRATA
            .iter()
            .map(|(nics, ms)| {
                vec![format!(
                    "\"kind\":\"fleet_simulate\",\"nics\":{nics},\"duration_ms\":{ms},\"shards\":{}",
                    self.shards
                )]
            })
            .collect()
    }

    fn drop_fault(&mut self, g: &Graph) -> String {
        let p = self.rng.pick(&[0.005, 0.01, 0.02, 0.05]);
        let retry = self.retry();
        format!(
            ",\"faults\":[{{\"node\":\"{}\",\"kind\":\"drop\",\"probability\":{p}}}]{retry}",
            g.fault_node
        )
    }

    fn outage_fault(&mut self, g: &Graph, from_ms: f64, until_ms: f64) -> String {
        let retry = self.retry();
        format!(
            ",\"faults\":[{{\"node\":\"{}\",\"kind\":\"outage\",\"from_ms\":{from_ms},\"until_ms\":{until_ms}}}]{retry}",
            g.fault_node
        )
    }

    fn retry(&mut self) -> String {
        let budget = self.rng.between(1, 4);
        let backoff = self.rng.pick(&[5, 10, 20]);
        format!(",\"retry\":{{\"budget\":{budget},\"backoff_us\":{backoff}}}")
    }
}

/// `load` of the graph's capacity, rounded to a readable wire value.
fn rate(g: &Graph, load: f64) -> f64 {
    (g.capacity_gbps * load * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(workload: Workload, seed: u64, queries: usize) -> String {
        let mut s = Stream::new(workload, seed, 2);
        let mut out = String::new();
        for q in s.take(queries) {
            for l in q.lines {
                out.push_str(&l.text);
                out.push('\n');
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_the_same_stream_bytes() {
        for w in Workload::ALL {
            let n = 3 * w.round_queries();
            assert_eq!(bytes(w, 7, n), bytes(w, 7, n), "{}", w.name());
            assert_ne!(bytes(w, 7, n), bytes(w, 8, n), "{}", w.name());
        }
    }

    #[test]
    fn ids_are_unique_and_follow_stream_order() {
        for w in Workload::ALL {
            let mut s = Stream::new(w, 3, 2);
            let ids: Vec<u64> = s
                .take(2 * w.round_queries())
                .into_iter()
                .flat_map(|q| q.lines)
                .map(|l| l.id)
                .collect();
            let expected: Vec<u64> = (1..=ids.len() as u64).collect();
            assert_eq!(ids, expected, "{}", w.name());
        }
    }

    #[test]
    fn every_block_covers_every_graph_and_kind() {
        let mut s = Stream::new(Workload::PlanModel, 11, 2);
        let block: Vec<String> = s
            .take(PLAN_MODEL_BLOCK)
            .into_iter()
            .map(|q| q.lines[0].text.clone())
            .collect();
        for g in &GRAPHS {
            let tag = format!("\"graph\":\"{}\"", g.name);
            let n = block.iter().filter(|l| l.contains(&tag)).count();
            assert_eq!(n, 12, "{}", g.name);
        }
        let sweeps = block.iter().filter(|l| l.contains("\"sweep\"")).count();
        assert_eq!(sweeps, GRAPHS.len());
        let mut s = Stream::new(Workload::PlanSimulate, 11, 2);
        for q in s.take(GRAPHS.len()) {
            assert_eq!(q.lines.len(), 2, "a simulation travels with its estimate");
            assert!(q.lines[0].text.contains("\"simulate\""));
            assert!(q.lines[1].text.contains("\"estimate"));
        }
    }

    #[test]
    fn the_probe_holds_one_line_of_every_kind() {
        let kinds: Vec<String> = Stream::probe(9, 2)
            .iter()
            .map(|l| {
                let at = l.text.find("\"kind\":\"").expect("a kind") + 8;
                let len = l.text[at..].find('"').expect("terminated");
                l.text[at..at + len].to_owned()
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "estimate",
                "estimate_degraded",
                "sweep",
                "simulate",
                "fleet_simulate"
            ]
        );
    }

    #[test]
    fn requests_stay_inside_the_gauge_budget() {
        // No request may cost more than the mark the benchmark sets.
        let mut s = Stream::new(Workload::RackFleet, 5, 2);
        for q in s.take(10 * FLEET_BLOCK) {
            let t = &q.lines[0].text;
            let field = |k: &str| -> f64 {
                let at = t.find(k).expect("field present") + k.len();
                let end = t[at..].find([',', '}']).expect("terminated") + at;
                t[at..end].parse().expect("a number")
            };
            let cost = field("\"nics\":") * field("\"duration_ms\":").ceil();
            assert!(cost <= Workload::RackFleet.max_cost() as f64, "{t}");
        }
    }
}
