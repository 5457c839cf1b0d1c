//! Multi-seed parallel replication of simulations.
//!
//! One seeded run is a single draw from the simulator's output
//! distribution; asserting a hand-tuned tolerance against it bakes the
//! noise of that particular seed into the test. A [`Replication`]
//! instead executes N independent seeds (in parallel across
//! `std::thread::scope` workers) and aggregates every scalar metric
//! into mean / standard deviation / 95 % confidence interval across
//! seeds. Model-vs-sim validation then asserts the analytical estimate
//! falls *inside the interval* — a statistically sound claim that
//! tightens automatically as N grows.
//!
//! What a replication runs is a recipe: [`Replication::run`] takes a
//! closure returning a [`SimulationBuilder`] and runs one build of it
//! per seed, so every builder option reaches every replica.
//! Observers are per run, not per replication: to trace replica `i`,
//! run `recipe().seed(rep.seeds[i]).run_with(&mut observer)` — a
//! replica is a pure function of its seed, so that traced report
//! equals `rep.reports[i]`.
//!
//! Determinism: each replica is fully determined by its seed, and the
//! aggregation folds results in seed order regardless of which worker
//! finished first — so the same seed set produces bit-identical
//! aggregates on every invocation, at any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use lognic_model::error::{LogNicError, LogNicResult};

use crate::metrics::SimReport;
use crate::rng::SimRng;
use crate::sim::SimulationBuilder;
use crate::stats::{MetricSummary, Welford};

/// The default base seed replications derive their seed sets from.
pub const DEFAULT_BASE_SEED: u64 = 0x4C6F_674E_4943_5253; // "LogNICRS"

/// A multi-seed replication plan: which seeds to run and how many
/// worker threads to spread them across.
///
/// # Examples
///
/// ```
/// use lognic_model::prelude::*;
/// use lognic_sim::prelude::*;
///
/// # fn main() -> LogNicResult<()> {
/// let g = ExecutionGraph::chain("echo", &[("core", IpParams::new(Bandwidth::gbps(10.0)))])?;
/// let hw = HardwareModel::default();
/// let t = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(1000));
/// let cfg = SimConfig {
///     duration: Seconds::millis(2.0),
///     warmup: Seconds::micros(400.0),
///     ..SimConfig::default()
/// };
/// let rep = Replication::new(4).run(|| Simulation::builder(&g, &hw, &t).config(cfg))?;
/// assert_eq!(rep.n(), 4);
/// assert!(rep.throughput_gbps.contains(rep.throughput_gbps.mean));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Replication {
    seeds: Vec<u64>,
    threads: usize,
}

impl Replication {
    /// A replication of `n` seeds derived from
    /// [`DEFAULT_BASE_SEED`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u32) -> Self {
        Replication::with_base_seed(DEFAULT_BASE_SEED, n)
    }

    /// A replication of `n` seeds derived from `base` via
    /// [`SimRng::replica_seed`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_base_seed(base: u64, n: u32) -> Self {
        assert!(n > 0, "a replication needs at least one seed");
        Replication {
            seeds: (0..n as u64)
                .map(|i| SimRng::replica_seed(base, i))
                .collect(),
            threads: 0,
        }
    }

    /// A replication over an explicit seed set.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn from_seeds(seeds: Vec<u64>) -> Self {
        assert!(!seeds.is_empty(), "a replication needs at least one seed");
        Replication { seeds, threads: 0 }
    }

    /// Caps the worker-thread count (default: available parallelism,
    /// never more than the seed count).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The seed set, in aggregation order.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    fn worker_count(&self) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let requested = if self.threads == 0 {
            auto
        } else {
            self.threads
        };
        requested.clamp(1, self.seeds.len())
    }

    /// Runs `run_one` once per seed across scoped worker threads and
    /// aggregates the reports in seed order, reporting failures *in
    /// seed order* too (not in completion order, which would make the
    /// reported error depend on the thread schedule). `run_one` must
    /// be a pure function of the seed for the determinism guarantee
    /// to hold (a `Simulation` run is).
    ///
    /// When every replica fails, the first seed's error propagates
    /// as-is (a structurally broken scenario fails the same way on
    /// every seed, and that error is the useful one). When only
    /// *some* replicas fail — one pathological seed tripping the
    /// event-budget watchdog while the rest complete — the result is
    /// a structured [`LogNicError::ReplicationPartial`] naming which
    /// seeds completed and which aborted with what, instead of a bare
    /// abort that hides how close the replication came to finishing.
    pub fn try_run<F>(&self, run_one: F) -> LogNicResult<ReplicatedReport>
    where
        F: Fn(u64) -> LogNicResult<SimReport> + Sync,
    {
        // Workers claim seed indices in turn and file each outcome in
        // its seed's slot, so `outcomes` is in seed order whatever
        // order the workers finished in.
        let slots: Mutex<Vec<Option<LogNicResult<SimReport>>>> =
            Mutex::new((0..self.seeds.len()).map(|_| None).collect());
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.worker_count() {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&seed) = self.seeds.get(i) else {
                        break;
                    };
                    let outcome = run_one(seed);
                    slots.lock().expect("no poisoned workers")[i] = Some(outcome);
                });
            }
        });
        let outcomes: Vec<_> = slots
            .into_inner()
            .expect("scope joined all workers")
            .into_iter()
            .map(|r| r.expect("every seed index was claimed exactly once"))
            .collect();
        if outcomes.iter().all(|r| r.is_ok()) {
            let reports = outcomes
                .into_iter()
                .map(|r| r.expect("checked ok"))
                .collect();
            return Ok(ReplicatedReport::aggregate(self.seeds.clone(), reports));
        }
        if outcomes.iter().all(|r| r.is_err()) {
            return Err(outcomes
                .into_iter()
                .next()
                .expect("a replication has at least one seed")
                .expect_err("checked err"));
        }
        let mut completed = Vec::new();
        let mut failed = Vec::new();
        for (seed, outcome) in self.seeds.iter().zip(outcomes) {
            match outcome {
                Ok(_) => completed.push(*seed),
                Err(e) => failed.push((*seed, Box::new(e))),
            }
        }
        Err(LogNicError::ReplicationPartial { completed, failed })
    }

    /// Replicates the simulation `sim` describes: `sim()` is called
    /// once per seed, and the builder it returns runs under that seed.
    /// Every other builder option reaches every replica — analysis
    /// policy, fault plan (install a [`CompiledFaultPlan`] with
    /// [`SimulationBuilder::with_compiled_faults`] to share its tables
    /// across seeds), queue plans, traces and service overrides, each
    /// replica getting a fresh stateful model from its own `sim()`
    /// call. Failures follow [`Replication::try_run`].
    ///
    /// [`CompiledFaultPlan`]: crate::faults::CompiledFaultPlan
    pub fn run<'a>(
        &self,
        sim: impl Fn() -> SimulationBuilder<'a> + Sync,
    ) -> LogNicResult<ReplicatedReport> {
        self.try_run(|seed| sim().seed(seed).run())
    }
}

/// The aggregate of N replicated runs: per-metric mean / stddev /
/// 95 % CI across seeds, plus the underlying per-seed reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicatedReport {
    /// The seeds, in aggregation order (parallel to `reports`).
    pub seeds: Vec<u64>,
    /// Mean packet latency, in seconds.
    pub latency_mean: MetricSummary,
    /// Median packet latency, in seconds.
    pub latency_p50: MetricSummary,
    /// 99th-percentile packet latency, in seconds.
    pub latency_p99: MetricSummary,
    /// Delivered throughput, in Gb/s.
    pub throughput_gbps: MetricSummary,
    /// Delivered packet rate, in packets per second.
    pub packet_rate: MetricSummary,
    /// Packet loss fraction.
    pub loss_rate: MetricSummary,
    /// Dropped packets per run.
    pub drops: MetricSummary,
    /// The per-seed reports backing the aggregates.
    pub reports: Vec<SimReport>,
}

impl ReplicatedReport {
    fn aggregate(seeds: Vec<u64>, reports: Vec<SimReport>) -> Self {
        let metric = |f: &dyn Fn(&SimReport) -> f64| {
            let mut w = Welford::new();
            for r in &reports {
                w.push(f(r));
            }
            MetricSummary::from_accumulator(&w)
        };
        ReplicatedReport {
            latency_mean: metric(&|r| r.latency.mean.as_secs()),
            latency_p50: metric(&|r| r.latency.p50.as_secs()),
            latency_p99: metric(&|r| r.latency.p99.as_secs()),
            throughput_gbps: metric(&|r| r.throughput.as_gbps()),
            packet_rate: metric(&|r| r.packet_rate),
            loss_rate: metric(&|r| r.loss_rate()),
            drops: metric(&|r| r.dropped as f64),
            seeds,
            reports,
        }
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.reports.len()
    }

    /// Summarizes a custom scalar metric across the replicas (e.g. a
    /// node's occupancy or a medium's utilization).
    pub fn summarize(&self, f: impl Fn(&SimReport) -> f64) -> MetricSummary {
        let mut w = Welford::new();
        for r in &self.reports {
            w.push(f(r));
        }
        MetricSummary::from_accumulator(&w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, Simulation};
    use lognic_model::graph::ExecutionGraph;
    use lognic_model::params::{HardwareModel, IpParams, TrafficProfile};
    use lognic_model::units::{Bandwidth, Bytes, Seconds};

    fn chain(gbps: f64) -> ExecutionGraph {
        ExecutionGraph::chain(
            "r",
            &[(
                "ip",
                IpParams::new(Bandwidth::gbps(gbps)).with_queue_capacity(64),
            )],
        )
        .unwrap()
    }

    fn cfg(ms: f64) -> SimConfig {
        SimConfig {
            duration: Seconds::millis(ms),
            warmup: Seconds::millis(ms * 0.2),
            ..SimConfig::default()
        }
    }

    fn fast_hw() -> HardwareModel {
        HardwareModel::new(Bandwidth::gbps(10_000.0), Bandwidth::gbps(10_000.0))
    }

    #[test]
    fn seed_sets_are_deterministic_and_distinct() {
        let a = Replication::new(8);
        let b = Replication::new(8);
        assert_eq!(a.seeds(), b.seeds());
        let mut sorted = a.seeds().to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "no duplicate seeds");
        assert_ne!(
            Replication::with_base_seed(1, 4).seeds(),
            Replication::with_base_seed(2, 4).seeds()
        );
    }

    #[test]
    fn aggregates_are_bit_identical_across_invocations_and_thread_counts() {
        let g = chain(10.0);
        let hw = fast_hw();
        let t = TrafficProfile::fixed(Bandwidth::gbps(6.0), Bytes::new(1000));
        let sim = || Simulation::builder(&g, &hw, &t).config(cfg(2.0));
        let wide = Replication::new(6).run(sim).unwrap();
        let narrow = Replication::new(6).threads(1).run(sim).unwrap();
        assert_eq!(wide, narrow, "thread schedule must not leak into results");
        let again = Replication::new(6).run(sim).unwrap();
        assert_eq!(wide, again, "same seed set, same bits");
    }

    #[test]
    fn per_seed_reports_match_single_runs_traced_or_not() {
        use crate::trace::RingLog;
        let g = chain(10.0);
        let hw = fast_hw();
        let t = TrafficProfile::fixed(Bandwidth::gbps(5.0), Bytes::new(800));
        let sim = || Simulation::builder(&g, &hw, &t).config(cfg(2.0));
        let rep = Replication::from_seeds(vec![3, 99]).run(sim).unwrap();
        assert_eq!(rep.reports[1], sim().seed(99).run().unwrap());
        // Tracing one replica is a standalone run of its seed.
        let mut log = RingLog::with_capacity(4096);
        assert_eq!(rep.reports[0], sim().seed(3).run_with(&mut log).unwrap());
        assert!(log.written() > 0, "the trace captured events");
        assert_eq!(rep.seeds, vec![3, 99]);
        assert_eq!(rep.n(), 2);
    }

    #[test]
    fn summaries_bracket_the_truth_at_light_load() {
        let g = chain(10.0);
        let hw = fast_hw();
        let t = TrafficProfile::fixed(Bandwidth::gbps(2.0), Bytes::new(1000));
        let rep = Replication::new(8)
            .run(|| Simulation::builder(&g, &hw, &t).config(cfg(4.0)))
            .unwrap();
        // Offered 2 Gb/s, no overload: the CI must cover it.
        assert!(
            rep.throughput_gbps.contains(2.0),
            "throughput {}",
            rep.throughput_gbps
        );
        assert_eq!(rep.loss_rate.mean, 0.0);
        assert!(rep.latency_p99.mean >= rep.latency_p50.mean);
    }

    #[test]
    fn custom_metric_summary() {
        let g = chain(10.0);
        let hw = fast_hw();
        let t = TrafficProfile::fixed(Bandwidth::gbps(4.0), Bytes::new(1000));
        let rep = Replication::new(4)
            .run(|| Simulation::builder(&g, &hw, &t).config(cfg(2.0)))
            .unwrap();
        let util = rep.summarize(|r| r.node("ip").unwrap().utilization);
        assert_eq!(util.n, 4);
        assert!(util.mean > 0.0 && util.mean < 1.0, "util {util}");
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_set_rejected() {
        let _ = Replication::from_seeds(vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn zero_replicas_rejected() {
        let _ = Replication::new(0);
    }
}
