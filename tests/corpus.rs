//! Trace-corpus integration tests: the capture → persist → re-ingest
//! loop, its malformed-input edge cases, and the scenario registry.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Round trip** — the arrival stream of a live chaos run,
//!    captured by the `ArrivalRecorder`, survives the CSV trace
//!    framing (the one persisted format) byte-for-byte, and
//!    re-ingesting it drives a deterministic replay whose report is
//!    pinned as a byte-golden under `tests/golden/corpus/`. A
//!    doorbell-burst replay, whose trace records tie on time by the
//!    dozens, and a size-mix scenario, whose packets reach stages at
//!    many sizes per class, are pinned the same way:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test corpus
//! ```
//!
//! 2. **Typed rejection** — corrupt capture files (zero-byte packets,
//!    backwards timestamps, mangled CSV rows, out-of-range tags)
//!    surface as `LogNicError::InvalidTrace`, never as panics.
//! 3. **Registry coverage** — the protocol corpus is registered in
//!    the single scenario registry the CLI fixture sets resolve
//!    through.

use std::path::PathBuf;

use lognic::prelude::*;
use lognic::workloads::chaos::accelerator_brownout;
use lognic::workloads::doorbell::{doorbell_burst, BurstPlan};
use lognic::workloads::registry;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/corpus")
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
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test corpus",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "corpus artifact diverges from {}; regenerate with UPDATE_GOLDEN=1 \
         if the change is deliberate",
        path.display()
    );
}

/// The same small brownout fixture the trace goldens use: the §4.2
/// inline pipeline with an outage and a degraded window inside a
/// 600 µs horizon.
fn small_brownout() -> Scenario {
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

/// Captures the brownout run's arrival stream (with the time-series
/// sampler riding along, as the corpus recipe prescribes) and returns
/// the validated corpus trace plus the original report.
fn captured_chaos_trace() -> (PacketTrace, SimReport) {
    let chaos = small_brownout();
    let mut obs = (
        ArrivalRecorder::new(),
        TimeSeriesSampler::new(Seconds::micros(25.0)),
    );
    let report = chaos
        .compile()
        .expect("valid plan")
        .builder()
        .config(small_config(7))
        .run_with(&mut obs)
        .expect("chaos capture run");
    let trace = obs.0.into_trace().expect("engine arrivals always validate");
    (trace, report)
}

/// Replays a captured trace through the chaos scenario (same graph,
/// hardware, fault plan and seed) and returns the report.
fn replay(trace: &PacketTrace) -> SimReport {
    small_brownout()
        .compile()
        .expect("valid plan")
        .builder()
        .config(small_config(7))
        .with_trace(trace.clone())
        .run()
        .expect("replayed trace simulates")
}

/// The round trip: capture → CSV → re-ingest → replay, with the
/// arrivals file and the replayed report pinned byte-for-byte.
#[test]
fn captured_arrivals_round_trip_to_golden_report() {
    let (trace, original) = captured_chaos_trace();
    assert!(
        trace.len() > 100,
        "capture too small: {} packets",
        trace.len()
    );
    assert_eq!(
        trace.len() as u64,
        original.injected,
        "recorder must see every injection"
    );

    // The CSV framing reproduces the capture byte-for-byte.
    let csv = trace.to_csv();
    assert_eq!(PacketTrace::from_csv(&csv).expect("csv round trip"), trace);

    // The arrivals file itself is a pinned artifact.
    assert_golden("chaos.arrivals.csv", &csv);

    // Re-ingest and replay: deterministic and pinned.
    let first = replay(&trace);
    assert_eq!(
        first.injected,
        trace.len() as u64,
        "replay must inject exactly the recorded arrivals"
    );
    let again = replay(&trace);
    assert_eq!(
        format!("{first:?}"),
        format!("{again:?}"),
        "replay not deterministic"
    );
    assert_golden("chaos.replay.report.txt", &format!("{first:#?}\n"));
}

/// Zero-gap trace records tie on time by the dozens at every doorbell
/// ring, so their `(time, seq)` order — set by how the simulator
/// schedules same-time trace records — decides queue admission. The
/// replayed report of a small doorbell-burst plan is pinned
/// byte-for-byte.
#[test]
fn doorbell_burst_report_matches_golden() {
    let plan = BurstPlan {
        rings: 50,
        depth: 64,
        ring_gap: SimTime::from_micros(30.0),
        size: Bytes::new(512),
    };
    let (scenario, trace) = doorbell_burst(&plan).expect("positive payloads");
    let report = Simulation::builder(&scenario.graph, &scenario.hardware, &scenario.traffic)
        .with_trace(trace)
        .config(SimConfig {
            duration: Seconds::millis(2.0),
            warmup: Seconds::ZERO,
            ..SimConfig::default()
        })
        .run()
        .expect("doorbell bursts simulate");
    assert_eq!(report.injected, plan.packets());
    assert_golden("doorbell_burst.report.txt", &format!("{report:#?}\n"));
}

/// A pipeline whose per-packet costs depend on size in every way the
/// engine knows: a work factor above 1, a fan-out whose branch crosses
/// a dedicated link into a compressor, a resizing edge, so the crypto
/// stage sees each class at two sizes, memory traffic and a
/// rate-degradation window.
fn size_mix_scenario() -> (ExecutionGraph, HardwareModel, TrafficProfile, FaultPlan) {
    let mut b = ExecutionGraph::builder("size-mix");
    let ing = b.ingress("rx-port");
    let parser = b.ip(
        "parser",
        IpParams::new(Bandwidth::gbps(30.0))
            .with_parallelism(4)
            .with_queue_capacity(64),
    );
    let zip = b.ip(
        "compressor",
        IpParams::new(Bandwidth::gbps(20.0))
            .with_parallelism(2)
            .with_queue_capacity(32)
            .with_work_factor(2.0),
    );
    let crypto = b.ip(
        "crypto",
        IpParams::new(Bandwidth::gbps(16.0))
            .with_parallelism(4)
            .with_queue_capacity(64)
            .with_overhead(Seconds::micros(0.05)),
    );
    let eg = b.egress("tx-port");
    b.edge(ing, parser, EdgeParams::full().with_interface_fraction(0.0));
    b.edge(
        parser,
        zip,
        EdgeParams::new(0.7)
            .expect("fraction within [0, 1]")
            .with_dedicated_bandwidth(Bandwidth::gbps(12.0)),
    );
    b.edge(
        parser,
        crypto,
        EdgeParams::new(0.3).expect("fraction within [0, 1]"),
    );
    b.edge(
        zip,
        crypto,
        EdgeParams::new(0.35)
            .expect("fraction within [0, 1]")
            .with_memory_fraction(0.2)
            .with_size_factor(0.5),
    );
    b.edge(crypto, eg, EdgeParams::full().with_interface_fraction(0.2));
    let graph = b.build().expect("size-mix graph is valid");
    let hw = HardwareModel::new(Bandwidth::gbps(40.0), Bandwidth::gbps(30.0));
    // Six classes: more than there are per-class table slots, so
    // classes 4 and 5 share slots with classes 0 and 1.
    let sizes = PacketSizeDist::mix([
        (Bytes::new(64), 0.30),
        (Bytes::new(128), 0.15),
        (Bytes::new(256), 0.15),
        (Bytes::new(576), 0.15),
        (Bytes::new(1024), 0.10),
        (Bytes::new(1500), 0.15),
    ])
    .expect("static mixture is valid");
    let traffic = TrafficProfile::new(Bandwidth::gbps(8.0), sizes);
    let plan = FaultPlan::new().degrade_rate(
        "crypto",
        0.5,
        Seconds::micros(800.0),
        Seconds::micros(1200.0),
    );
    (graph, hw, traffic, plan)
}

/// Every per-packet cost the simulator derives from a packet's size —
/// work bytes, service means, medium bytes and transfer times — pinned
/// under a six-class synthetic mixture and under a trace replay whose
/// sizes vary within each flow and class.
#[test]
fn size_mix_reports_match_golden() {
    let (graph, hw, traffic, plan) = size_mix_scenario();
    let config = SimConfig {
        seed: 11,
        duration: Seconds::millis(2.0),
        warmup: Seconds::micros(200.0),
        ..SimConfig::default()
    };
    let faults = CompiledFaultPlan::compile(&plan, &graph).expect("valid plan");
    let synthetic = Simulation::builder(&graph, &hw, &traffic)
        .config(config)
        .with_compiled_faults(&faults)
        .run()
        .expect("size-mix scenario simulates");
    assert_eq!(synthetic.classes.len(), 6, "every class completes");

    // Seven classes and three flows; sizes cycle through 1,437 values,
    // and every third record arrives with its predecessor.
    let gaps_ps = [0, 600_000, 1_200_000];
    let mut arrival_ps = 0u64;
    let records = (0..2_000u64)
        .map(|i| {
            arrival_ps += gaps_ps[(i % 3) as usize];
            let size = Bytes::new(64 + (i * 7_919) % 1_437);
            TraceEntry::new(
                SimTime::from_picos(arrival_ps),
                size,
                (i % 3) as u32,
                ((i / 3) % 7) as u32,
            )
        })
        .collect();
    let trace = PacketTrace::new(records).expect("ordered positive records");
    let replay = Simulation::builder(&graph, &hw, &traffic)
        .config(SimConfig {
            warmup: Seconds::ZERO,
            ..config
        })
        .with_compiled_faults(&faults)
        .with_trace(trace)
        .run()
        .expect("size-mix trace replays");
    assert_eq!(replay.injected, 2_000);
    assert_golden(
        "size_mix.report.txt",
        &format!("# synthetic\n{synthetic:#?}\n# trace replay\n{replay:#?}\n"),
    );
}

/// An empirical profile derived from the captured trace feeds the
/// analytical model: observed mixture, observed mean rate.
#[test]
fn captured_trace_feeds_the_empirical_size_mixture() {
    let (trace, _) = captured_chaos_trace();
    let profile = trace.empirical_profile().expect("spanning capture");
    assert!(profile.ingress_bandwidth().as_bps() > 0.0);
    // The capture's byte volume over its span is the profile's rate.
    let expected = trace.total_bytes() as f64 * 8.0 / trace.span().as_secs();
    let got = profile.ingress_bandwidth().as_bps();
    assert!(
        (got - expected).abs() / expected < 1e-9,
        "rate {got} vs {expected}"
    );
    // And the chaos graph estimates under it.
    let chaos = small_brownout();
    let est = Estimator::new(&chaos.graph, &chaos.hardware, &profile)
        .request()
        .evaluate()
        .expect("empirical profile estimates");
    assert!(est.delivered.as_bps() > 0.0);
}

// ---------------------------------------------------------------------------
// Malformed-input edge cases: typed errors, never panics.
// ---------------------------------------------------------------------------

#[test]
fn empty_trace_is_valid_and_simulates_silently() {
    let empty = PacketTrace::new(Vec::new()).expect("empty traces are valid");
    let s = small_brownout();
    let report = Simulation::builder(&s.graph, &s.hardware, &s.traffic)
        .config(small_config(7))
        .with_trace(empty)
        .run()
        .expect("empty trace simulates");
    assert_eq!(report.injected, 0);
    assert_eq!(report.completed, 0);
}

#[test]
fn single_record_trace_replays_one_packet() {
    let one = PacketTrace::new(vec![TraceEntry::new(
        SimTime::from_micros(10.0),
        Bytes::new(1500),
        0,
        0,
    )])
    .expect("single record is valid");
    let s = small_brownout();
    let report = Simulation::builder(&s.graph, &s.hardware, &s.traffic)
        .config(small_config(7))
        .with_trace(one)
        .run()
        .expect("single-record trace simulates");
    assert_eq!(report.injected, 1);
    assert_eq!(report.completed, 1);
}

#[test]
fn zero_byte_packets_are_a_typed_error() {
    let err = PacketTrace::new(vec![
        TraceEntry::new(SimTime::ZERO, Bytes::new(64), 0, 0),
        TraceEntry::new(SimTime::from_micros(1.0), Bytes::new(0), 0, 0),
    ])
    .expect_err("zero-byte packet must be rejected");
    assert!(
        matches!(
            &err,
            LogNicError::InvalidTrace {
                record: Some(1),
                ..
            }
        ),
        "unexpected error: {err:?}"
    );
    assert!(err.to_string().contains("record 1"), "{err}");
}

#[test]
fn out_of_order_timestamps_are_a_typed_error() {
    let err = PacketTrace::new(vec![
        TraceEntry::new(SimTime::from_micros(5.0), Bytes::new(64), 0, 0),
        TraceEntry::new(SimTime::from_micros(1.0), Bytes::new(64), 0, 0),
    ])
    .expect_err("backwards timestamps must be rejected");
    assert!(
        matches!(
            &err,
            LogNicError::InvalidTrace {
                record: Some(1),
                ..
            }
        ),
        "unexpected error: {err:?}"
    );
    // The CSV path reports the same typed error.
    let csv = format!(
        "{}\n5000000,64,0,0\n1000000,64,0,0\n",
        PacketTrace::CSV_HEADER
    );
    assert!(matches!(
        PacketTrace::from_csv(&csv),
        Err(LogNicError::InvalidTrace { .. })
    ));
}

/// Every mangled CSV row is a typed error naming its record (the
/// header is not a record), never a panic or a silently wrapped value.
#[test]
fn mangled_csv_rows_are_typed_errors() {
    for row in [
        "1,2,3",
        "1,2,3,4,5",
        "1,nope,3,4",
        "-1,64,0,0",
        "10,64,0,1.5",
        "18446744073709551616,64,0,0",
        // Flow 2^32 + 1 and class 2^32 would wrap to 1 and 0 in a `u32`.
        "10,64,4294967297,4294967296",
        "10,64,0,4294967296",
    ] {
        let csv = format!("{}\n# capture\n0,64,0,0\n{row}\n", PacketTrace::CSV_HEADER);
        let err = PacketTrace::from_csv(&csv).expect_err(row);
        assert!(
            matches!(
                err,
                LogNicError::InvalidTrace {
                    record: Some(1),
                    ..
                }
            ),
            "{row}: unexpected error {err:?}"
        );
    }
    // The largest tags still parse.
    let csv = format!("{}\n10,64,4294967295,4294967295\n", PacketTrace::CSV_HEADER);
    let trace = PacketTrace::from_csv(&csv).expect("u32::MAX tags are valid");
    assert_eq!(trace.entries()[0].flow, u32::MAX);
    assert_eq!(trace.entries()[0].class, u32::MAX);
}

// ---------------------------------------------------------------------------
// Registry coverage.
// ---------------------------------------------------------------------------

#[test]
fn protocol_corpus_is_registered() {
    for name in ["tls-handshake", "dns-kv", "storage-rpc", "http2-mux"] {
        let entry = registry::find(name)
            .unwrap_or_else(|| panic!("{name} missing from the scenario registry"));
        assert!(
            !entry.provenance.is_empty(),
            "{name}: registry entries need provenance for the README table"
        );
        let scenario = entry.scenario();
        assert!(
            scenario.faults.is_none(),
            "{name}: corpus entries ship without faults"
        );
        assert!(scenario.estimate().is_ok(), "{name} must estimate");
    }
    // The trace_dump default stays exactly the chaos brownout.
    let chaos = registry::find("chaos")
        .expect("chaos registered")
        .scenario();
    assert_eq!(chaos.traffic.ingress_bandwidth(), Bandwidth::gbps(8.0));
    assert!(chaos.faults.is_some());
}
