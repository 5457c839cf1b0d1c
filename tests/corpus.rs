//! Trace-corpus integration tests: the capture → persist → re-ingest
//! loop, its malformed-input edge cases, and the scenario registry.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Round trip** — the arrival stream of a live chaos run,
//!    captured by the `ArrivalRecorder` (and, losslessly, by the
//!    Chrome exporter), survives the binary and CSV trace framings
//!    byte-for-byte, and re-ingesting it drives a deterministic
//!    replay whose report is pinned as a byte-golden under
//!    `tests/golden/corpus/`. A doorbell-burst replay, whose trace
//!    records tie on time by the dozens, is pinned the same way:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test corpus
//! ```
//!
//! 2. **Typed rejection** — corrupt capture files (zero-byte packets,
//!    backwards timestamps, truncated binaries, mangled CSV) surface
//!    as `LogNicError::InvalidTrace`, never as panics.
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
        .simulate_with(small_config(7), &mut obs)
        .expect("chaos capture run");
    let trace = obs.0.into_trace().expect("engine arrivals always validate");
    (trace, report)
}

/// Replays a captured trace through the chaos scenario (same graph,
/// hardware, fault plan and seed) and returns the report.
fn replay(trace: &PacketTrace) -> SimReport {
    let chaos = small_brownout();
    let s = &chaos.scenario;
    Simulation::builder(&s.graph, &s.hardware, &s.traffic)
        .config(small_config(7))
        .with_fault_plan(chaos.plan.clone())
        .with_trace(trace.to_sim_trace())
        .run()
        .expect("replayed trace simulates")
}

/// The tentpole round trip: capture → binary/CSV framing → re-ingest
/// → replay, with the arrivals file and the replayed report pinned
/// byte-for-byte.
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

    // Both framings reproduce the capture byte-for-byte.
    let binary = trace.to_binary();
    assert_eq!(
        PacketTrace::from_binary(&binary).expect("binary round trip"),
        trace
    );
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

/// The Chrome `trace_event` export carries the arrival stream at full
/// picosecond precision: re-ingesting our own observability output
/// recovers exactly the trace the recorder captured, and replaying it
/// reproduces the pinned golden report.
#[test]
fn chrome_export_reingests_losslessly() {
    let chaos = small_brownout();
    let mut obs = (ArrivalRecorder::new(), ChromeTrace::new());
    chaos
        .simulate_with(small_config(7), &mut obs)
        .expect("chaos capture run");
    let (recorder, chrome) = obs;
    assert_eq!(chrome.truncated(), 0, "fixture must not truncate");

    let recovered = PacketTrace::from_chrome_trace(&chrome.into_json()).expect("chrome ingest");
    let direct = recorder.into_trace().expect("engine arrivals validate");
    assert_eq!(
        recovered, direct,
        "chrome round trip must be lossless against the direct capture"
    );

    // The chrome-derived trace replays to the same pinned report.
    let report = replay(&recovered);
    assert_golden("chaos.replay.report.txt", &format!("{report:#?}\n"));
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
    let (scenario, trace) = doorbell_burst(&plan);
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
    let est = Estimator::new(&chaos.scenario.graph, &chaos.scenario.hardware, &profile)
        .estimate()
        .expect("empirical profile estimates");
    assert!(est.delivered.as_bps() > 0.0);
}

// ---------------------------------------------------------------------------
// Malformed-input edge cases: typed errors, never panics.
// ---------------------------------------------------------------------------

#[test]
fn empty_trace_is_valid_and_simulates_silently() {
    let empty = PacketTrace::new(Vec::new()).expect("empty traces are valid");
    let chaos = small_brownout();
    let s = &chaos.scenario;
    let report = Simulation::builder(&s.graph, &s.hardware, &s.traffic)
        .config(small_config(7))
        .with_trace(empty.to_sim_trace())
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
    let chaos = small_brownout();
    let s = &chaos.scenario;
    let report = Simulation::builder(&s.graph, &s.hardware, &s.traffic)
        .config(small_config(7))
        .with_trace(one.to_sim_trace())
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

#[test]
fn truncated_and_mangled_binaries_are_typed_errors() {
    let (trace, _) = captured_chaos_trace();
    let bytes = trace.to_binary();
    // Truncations at every interesting boundary.
    for cut in [0, 4, 8, 12, bytes.len() - 1, bytes.len() - 19] {
        let err =
            PacketTrace::from_binary(&bytes[..cut]).expect_err("truncated binary must be rejected");
        assert!(
            matches!(err, LogNicError::InvalidTrace { .. }),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
    // Wrong magic and unsupported version.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        PacketTrace::from_binary(&bad),
        Err(LogNicError::InvalidTrace { record: None, .. })
    ));
    let mut bad = bytes;
    bad[4] = 0xFE;
    assert!(matches!(
        PacketTrace::from_binary(&bad),
        Err(LogNicError::InvalidTrace { record: None, .. })
    ));
}

#[test]
fn sim_trace_builder_rejects_backwards_events_without_panicking() {
    let err = Trace::try_from_events(vec![
        (SimTime::from_micros(5.0), Bytes::new(64), 0),
        (SimTime::from_micros(1.0), Bytes::new(64), 0),
    ])
    .expect_err("backwards events must be rejected");
    assert!(matches!(
        err,
        LogNicError::InvalidTrace {
            record: Some(1),
            ..
        }
    ));
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
        let (scenario, plan) = entry.build();
        assert!(plan.is_none(), "{name}: corpus entries ship without faults");
        assert!(scenario.estimate().is_ok(), "{name} must estimate");
    }
    // The trace_dump default stays exactly the chaos brownout.
    let (chaos, plan) = registry::find("chaos").expect("chaos registered").build();
    assert_eq!(chaos.traffic.ingress_bandwidth(), Bandwidth::gbps(8.0));
    assert!(plan.is_some());
}
