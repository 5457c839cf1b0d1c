//! Every JSON artifact the workspace writes reads back through the one
//! codec, `lognic::model::json`, with each string field unchanged —
//! including strings that hold a quote, a backslash, a newline, a tab
//! and a control character.
//!
//! Covered here: analyzer diagnostics, confirmed witnesses, the Chrome
//! trace export, the sampled timeline and generated scenario specs.
//! The two artifacts written by binaries (the `fuzz_smoke` failure
//! artifact and the `perf_baseline` ledger) are covered by those
//! binaries' own unit tests, where their renderers live.

use lognic::model::analyze::{Code, Diagnostic, Span, WitnessExpectation};
use lognic::model::json::{self, Json};
use lognic::prelude::*;
use lognic::workloads::corpus::gen::{ScenarioSpec, Shape};
use lognic::workloads::witness::{ConfirmedWitness, WitnessParams};
use lognic_testkit::Gen;

/// A string that needs every kind of JSON escape.
const TRICKY: &str = "quote\" backslash\\ newline\n tab\t control\u{1} end";

fn parse(text: &str) -> Json {
    json::parse(text).unwrap_or_else(|e| panic!("{e} in {text:?}"))
}

fn field<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string `{key}` in {doc}"))
}

#[test]
fn diagnostic_strings_round_trip() {
    let primary = Span::Nic {
        index: 3,
        name: TRICKY.to_owned(),
    };
    let link = Span::FleetLink {
        src: TRICKY.to_owned(),
        dst: "tor".to_owned(),
    };
    let d = Diagnostic::new(Code::SaturatedPartition, primary.clone(), TRICKY)
        .with_label(link.clone(), format!("note: {TRICKY}"))
        .with_help(format!("help: {TRICKY}"));
    let doc = parse(&d.render_json());
    assert_eq!(field(&doc, "code"), Code::SaturatedPartition.to_string());
    assert_eq!(field(&doc, "message"), TRICKY);
    assert_eq!(field(&doc, "span"), primary.to_string());
    assert_eq!(field(&doc, "help"), format!("help: {TRICKY}"));
    let notes = doc.get("notes").and_then(Json::as_arr).expect("notes");
    assert_eq!(notes.len(), 1);
    assert_eq!(field(&notes[0], "span"), link.to_string());
    assert_eq!(field(&notes[0], "note"), format!("note: {TRICKY}"));
}

#[test]
fn witness_strings_round_trip() {
    let w = ConfirmedWitness {
        code: Code::SaturatedPartition,
        expectation: WitnessExpectation::Saturation,
        params: WitnessParams {
            intensity: 150,
            queue: 16,
            parallelism: 2,
        },
        seed: 42,
        shrink_steps: 5,
        detail: TRICKY.to_owned(),
    };
    let doc = parse(&w.render_json());
    assert_eq!(field(&doc, "code"), w.code.to_string());
    assert_eq!(field(&doc, "expectation"), w.expectation.to_string());
    assert_eq!(field(&doc, "detail"), TRICKY);
    let params = doc.get("params").expect("params");
    assert_eq!(params.get("queue").and_then(Json::as_f64), Some(16.0));
}

/// A two-stage chain whose first node is named [`TRICKY`], run for a
/// short window under `obs`.
fn run_tricky_chain<O: SimObserver>(obs: &mut O) {
    let graph = ExecutionGraph::chain(
        "tricky",
        &[
            (TRICKY, IpParams::new(Bandwidth::gbps(20.0))),
            ("plain", IpParams::new(Bandwidth::gbps(20.0))),
        ],
    )
    .expect("valid chain");
    let hw = HardwareModel::new(Bandwidth::gbps(50.0), Bandwidth::gbps(40.0));
    let traffic = TrafficProfile::fixed(Bandwidth::gbps(8.0), Bytes::new(512));
    Simulation::builder(&graph, &hw, &traffic)
        .config(SimConfig {
            seed: 3,
            duration: Seconds::micros(20.0),
            warmup: Seconds::ZERO,
            ..SimConfig::default()
        })
        .run_with(obs)
        .expect("short run");
}

#[test]
fn chrome_trace_node_and_counter_names_round_trip() {
    let mut trace = ChromeTrace::new();
    run_tricky_chain(&mut trace);
    let doc = parse(&trace.into_json());
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let thread_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert!(thread_names.contains(&TRICKY), "{thread_names:?}");
    let queue = format!("queue@{TRICKY}");
    assert!(
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .any(|e| e.get("name").and_then(Json::as_str) == Some(queue.as_str())),
        "no queue-depth counter named {queue:?}"
    );
}

#[test]
fn timeline_node_names_round_trip() {
    let mut sampler = TimeSeriesSampler::new(Seconds::micros(5.0));
    run_tricky_chain(&mut sampler);
    let timeline = sampler.into_timeline();
    let doc = parse(&timeline.to_json());
    let names: Vec<&str> = doc
        .get("nodes")
        .and_then(Json::as_arr)
        .expect("nodes")
        .iter()
        .map(|n| field(n, "name"))
        .collect();
    assert_eq!(names, timeline.node_names());
    assert!(names.contains(&TRICKY), "{names:?}");
}

#[test]
fn scenario_specs_round_trip() {
    for seed in 0..16 {
        let spec = ScenarioSpec::arbitrary(&mut Gen::new(seed));
        let doc = parse(&spec.to_json());
        let shape = if spec.shape == Shape::Chain {
            "chain"
        } else {
            "fanout"
        };
        assert_eq!(field(&doc, "shape"), shape);
        // Rust prints the shortest decimal that reads back to the same
        // f64, so the numbers survive bit for bit.
        let num = |v: &Json, key| v.get(key).and_then(Json::as_f64).expect(key);
        assert_eq!(num(&doc, "load").to_bits(), spec.load.to_bits());
        assert_eq!(num(&doc, "alpha").to_bits(), spec.alpha.to_bits());
        let nodes = doc.get("nodes").and_then(Json::as_arr).expect("nodes");
        assert_eq!(nodes.len(), spec.nodes.len());
        for (got, want) in nodes.iter().zip(&spec.nodes) {
            assert_eq!(num(got, "peak_gbps").to_bits(), want.peak_gbps.to_bits());
        }
    }
}
