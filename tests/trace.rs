//! Integration tests of the observability layer.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Passivity** — attaching any observer (ring log, sampler,
//!    Chrome exporter, all at once) never perturbs the simulation:
//!    the `SimReport` is byte-identical to the untraced run, with and
//!    without faults.
//! 2. **Determinism** — the exported traces themselves are
//!    byte-identical across repeated runs.
//! 3. **Format stability** — the Chrome `trace_event` JSON and the
//!    time-series CSV for the accelerator-brownout chaos scenario are
//!    pinned by golden files under `tests/golden/trace/`. A
//!    deliberate format change is recorded by regenerating them:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test trace
//! ```

use std::path::PathBuf;

use lognic::prelude::*;
use lognic::workloads::chaos::accelerator_brownout;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/trace")
        .join(name)
}

/// Compares `rendered` against the committed golden file, or rewrites
/// the file when `UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, rendered).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test trace",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "exported trace diverges from {}; regenerate with UPDATE_GOLDEN=1 \
         if the change is deliberate",
        path.display()
    );
}

/// A small brownout run: the full §4.2 inline pipeline with an outage
/// and a degraded window inside a 600 µs horizon — short enough for a
/// committed fixture, busy enough to exercise every record kind
/// (inject, enqueue, service, complete, deliver, drop, retry, fault
/// windows).
fn small_brownout() -> lognic::workloads::chaos::ChaosScenario {
    accelerator_brownout(
        Bandwidth::gbps(4.0),
        Seconds::micros(150.0),
        Seconds::micros(120.0),
        Seconds::micros(150.0),
    )
}

fn small_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        duration: Seconds::micros(600.0),
        warmup: Seconds::ZERO,
        ..SimConfig::default()
    }
}

/// Passivity: the fully-instrumented run (ring + sampler + Chrome
/// exporter stacked through the tuple observer) reports exactly what
/// the untraced run reports, with faults live.
#[test]
fn traced_reports_are_byte_identical_to_untraced() {
    let chaos = small_brownout();
    for seed in [7, 42, 1234] {
        let config = small_config(seed);
        let plain = chaos.simulate(config).expect("untraced run");

        let mut obs = (
            RingLog::with_capacity(1 << 15),
            (
                TimeSeriesSampler::new(Seconds::micros(25.0)),
                ChromeTrace::new(),
            ),
        );
        let traced = chaos.simulate_with(config, &mut obs).expect("traced run");

        assert_eq!(plain, traced, "seed {seed}: observer perturbed the run");
        assert_eq!(
            format!("{plain:?}"),
            format!("{traced:?}"),
            "seed {seed}: debug renderings diverged"
        );
        assert!(
            traced.retries > 0,
            "seed {seed}: brownout caused no retries"
        );
    }
}

/// Passivity holds for fault-free runs too, and across the builder's
/// `run_with` convenience path.
#[test]
fn traced_reports_match_untraced_without_faults() {
    let g = ExecutionGraph::chain(
        "echo",
        &[(
            "core",
            IpParams::new(Bandwidth::gbps(10.0))
                .with_parallelism(2)
                .with_queue_capacity(32),
        )],
    )
    .expect("chain is valid");
    let hw = HardwareModel::default();
    let t = TrafficProfile::fixed(Bandwidth::gbps(6.0), Bytes::new(1500));
    let build = || {
        Simulation::builder(&g, &hw, &t)
            .seed(99)
            .duration(Seconds::millis(2.0))
            .warmup(Seconds::millis(0.5))
    };
    let plain = build().run().expect("untraced run");
    let mut ring = RingLog::with_capacity(1 << 14);
    let traced = build().run_with(&mut ring).expect("traced run");
    assert_eq!(plain, traced);
    assert!(ring.written() > 0, "observer saw no events");
}

/// Determinism: the binary event ring is byte-identical across
/// repeated runs of the same seed.
#[test]
fn ring_traces_are_identical_across_reruns() {
    let chaos = small_brownout();
    let capture = || {
        let mut ring = RingLog::with_capacity(1 << 15);
        chaos
            .simulate_with(small_config(7), &mut ring)
            .expect("traced run");
        ring
    };
    let first = capture();
    let again = capture();
    assert_eq!(
        first.bytes(),
        again.bytes(),
        "rerun emitted a different trace"
    );
    assert_eq!(first.dropped(), 0, "fixture ring must hold the whole run");
}

/// Bounded memory: a ring sized for 64 records never grows, retains
/// exactly the most recent events in chronological order, and counts
/// what it overwrote.
#[test]
fn ring_log_is_bounded_and_keeps_the_newest_events() {
    let chaos = small_brownout();
    let mut ring = RingLog::with_capacity(64);
    chaos
        .simulate_with(small_config(7), &mut ring)
        .expect("traced run");
    assert_eq!(ring.capacity(), 64);
    assert!(ring.written() > 64, "run too small to overflow the ring");
    assert_eq!(ring.dropped(), ring.written() - 64);
    let recs = ring.decode();
    assert_eq!(recs.len(), 64);
    for pair in recs.windows(2) {
        assert!(pair[0].time <= pair[1].time, "decoded out of order");
    }
}

/// The time-series sampler lands on the exact Δt grid, covers every service node, and its ρ column
/// stays within [0, 1].
#[test]
fn timeline_samples_on_the_grid_and_within_bounds() {
    let chaos = small_brownout();
    let s = &chaos.scenario;
    let mut sampler = TimeSeriesSampler::new(Seconds::micros(25.0));
    let report = Simulation::builder(&s.graph, &s.hardware, &s.traffic)
        .config(small_config(7))
        .with_fault_plan(chaos.plan.clone())
        .run_with(&mut sampler)
        .expect("timeline run");
    let timeline = sampler.into_timeline();
    assert!(report.events > 0);
    let names = timeline.node_names();
    assert!(
        names.iter().any(|n| n == "accelerator"),
        "missing accelerator track: {names:?}"
    );
    let dt = timeline.dt().as_secs();
    for (i, tick) in timeline.ticks().iter().enumerate() {
        let expected = dt * (i + 1) as f64;
        assert!(
            (tick.as_secs() - expected).abs() < 1e-12,
            "tick {i} off the grid: {} vs {expected}",
            tick.as_secs()
        );
    }
    for name in names {
        for sample in timeline.node(name).expect("named track exists") {
            assert!(
                (0.0..=1.0).contains(&sample.rho),
                "{name}: rho out of range: {}",
                sample.rho
            );
        }
    }
}

/// The Chrome export of the brownout run, pinned byte-for-byte. The
/// fixture is what EXPERIMENTS.md tells users to open in Perfetto;
/// any change to the event shapes, names or timestamp formatting
/// shows up here first.
#[test]
fn chrome_trace_matches_golden() {
    let chaos = small_brownout();
    let mut trace = ChromeTrace::new();
    chaos
        .simulate_with(small_config(7), &mut trace)
        .expect("traced run");
    assert_eq!(trace.truncated(), 0, "fixture must not truncate");
    assert_golden("brownout.chrome.json", &trace.into_json());
}

/// The time-series CSV of the same run, pinned byte-for-byte.
#[test]
fn timeline_csv_matches_golden() {
    let chaos = small_brownout();
    let mut sampler = TimeSeriesSampler::new(Seconds::micros(25.0));
    chaos
        .simulate_with(small_config(7), &mut sampler)
        .expect("traced run");
    assert_golden("brownout.timeline.csv", &sampler.into_timeline().to_csv());
}
