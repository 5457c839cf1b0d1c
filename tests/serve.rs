//! Integration tests of `lognic serve`: the golden transcript, the
//! malformed-request fuzz sweep, the 10k-line mixed-corpus
//! determinism contract, and partial replication failures surfacing
//! through the wire protocol.
//!
//! The committed corpus under `tests/golden/serve/` pins the exact
//! request/response transcript the CI `serve-smoke` job replays
//! through `lognic serve`. A deliberate protocol change is
//! recorded by regenerating it:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test serve
//! ```

use std::path::PathBuf;

use lognic::prelude::*;
use lognic::service::{serve, ServeConfig, Service};
use lognic::workloads::registry;
use lognic_testkit::fuzz::{malformed_request_line, mutate_request_line};
use lognic_testkit::Gen;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/serve")
        .join(name)
}

/// A service in transcript mode: logical clocks only, defaults
/// otherwise — exactly what the CI smoke job starts the service with
/// (`lognic serve --deterministic`).
fn det_service(threads: usize) -> Service {
    Service::new(ServeConfig {
        deterministic: true,
        threads,
        ..ServeConfig::default()
    })
}

/// Streams `input` through a fresh deterministic service and returns
/// the transcript.
fn run_transcript(input: &str, threads: usize) -> String {
    let mut service = det_service(threads);
    let mut out = Vec::new();
    serve(&mut service, &mut input.as_bytes(), &mut out).expect("in-memory I/O cannot fail");
    String::from_utf8(out).expect("responses are UTF-8")
}

fn curated_requests() -> String {
    std::fs::read_to_string(golden_path("requests.jsonl")).expect("committed corpus exists")
}

/// The curated mixed corpus produces a byte-pinned transcript: one
/// JSON response per request line, stable across releases unless the
/// protocol deliberately changes.
#[test]
fn curated_corpus_matches_golden_transcript() {
    let requests = curated_requests();
    let transcript = run_transcript(&requests, 1);
    assert_eq!(
        transcript.lines().count(),
        requests.lines().count(),
        "exactly one response per request line"
    );
    for line in transcript.lines() {
        lognic::service::json::parse(line).expect("every response is valid JSON");
    }
    let path = golden_path("transcript.jsonl");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &transcript).expect("write golden transcript");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden transcript {} ({e}); run UPDATE_GOLDEN=1 cargo test --test serve",
            path.display()
        )
    });
    // The CI smoke job diffs the binary's output against this file,
    // so every committed line must itself be valid JSON.
    for (i, line) in expected.lines().enumerate() {
        lognic::service::json::parse(line)
            .unwrap_or_else(|e| panic!("golden line {} is not JSON ({e}): {line}", i + 1));
    }
    assert_eq!(
        transcript,
        expected,
        "transcript diverges from {}; regenerate with UPDATE_GOLDEN=1 if deliberate",
        path.display()
    );
}

/// The curated corpus walks the whole typed-error surface.
#[test]
fn curated_corpus_exercises_every_error_code() {
    let transcript = run_transcript(&curated_requests(), 1);
    for code in [
        "parse_error",
        "invalid_request",
        "unknown_graph",
        "unknown_kind",
        "invalid_parameter",
        "deadline_exceeded",
        "overloaded",
        "oversized_request",
        "watchdog_abort",
        "analysis_rejected",
    ] {
        assert!(
            transcript.contains(&format!("\"code\":\"{code}\"")),
            "corpus must exercise `{code}`:\n{transcript}"
        );
    }
    assert!(transcript.contains("\"retry_after_ms\":"), "shed hint");
    assert!(transcript.contains("\"ok\":true"), "and plenty succeeds");
}

/// The determinism contract on the curated corpus: byte-identical
/// across invocations and across replication thread counts.
#[test]
fn curated_transcript_is_invocation_and_thread_stable() {
    let requests = curated_requests();
    let first = run_transcript(&requests, 1);
    assert_eq!(first, run_transcript(&requests, 1), "same run, same bytes");
    assert_eq!(
        first,
        run_transcript(&requests, 4),
        "thread count must not leak into the transcript"
    );
}

/// Every line the malformed-request generator can produce is answered
/// with a typed error — and the service keeps serving afterwards.
#[test]
fn fuzzed_malformed_requests_all_get_typed_errors() {
    let mut g = Gen::new(0xC0FFEE);
    let mut requests = String::new();
    for _ in 0..400 {
        requests.push_str(&malformed_request_line(&mut g));
        requests.push('\n');
    }
    requests.push_str("{\"id\":\"after\",\"kind\":\"health\"}\n");
    let transcript = run_transcript(&requests, 1);
    let lines: Vec<&str> = transcript.lines().collect();
    assert_eq!(lines.len(), 401, "one response per request line");
    for (i, line) in lines[..400].iter().enumerate() {
        let doc = lognic::service::json::parse(line)
            .unwrap_or_else(|e| panic!("response {i} is not JSON ({e}): {line}"));
        assert_eq!(
            doc.get("ok").and_then(lognic::service::Json::as_bool),
            Some(false),
            "hostile request {i} must be refused: {line}"
        );
        let code = doc
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(lognic::service::Json::as_str)
            .unwrap_or_else(|| panic!("response {i} has no error code: {line}"));
        assert!(
            !code.is_empty() && code != "internal",
            "request {i}: {line}"
        );
    }
    assert!(
        lines[400].contains("\"status\":\"ok\""),
        "still serving after 400 hostile lines: {}",
        lines[400]
    );
}

/// A lint-clean faulted `simulate`: an outage and a rate degradation
/// under a retry policy, so the wire arm mutates every fault field.
const FAULTED_SIMULATE: &str = r#"{"id":38,"kind":"simulate","graph":"nvmeof","seeds":2,"duration_ms":1,"faults":[{"node":"nic-core-submit","kind":"outage","from_ms":0.2,"until_ms":0.4},{"node":"ssd","kind":"degrade","factor":0.5,"from_ms":0.5,"until_ms":0.8}],"retry":{"budget":2,"backoff_us":20}}"#;

/// Wire-arm mutants per golden corpus line, and of
/// [`FAULTED_SIMULATE`], whose fault fields the golden lines reach only
/// through requests the analyzer refuses.
const MUTANTS_PER_LINE: usize = 16;
const FAULTED_MUTANTS: usize = 400;

/// The wire arm of the fuzz harness: seeded one-change mutants of the
/// golden corpus lines and of [`FAULTED_SIMULATE`] (extreme numbers,
/// 10,000-element arrays, 200-deep nesting, unknown kinds), streamed
/// through `serve` at one thread in both modes. Every line gets exactly
/// one response, each response is JSON, none is an `internal` error,
/// and no request panicked.
#[test]
fn wire_mutants_are_answered_without_internal_errors() {
    let corpus = curated_requests();
    let bases = corpus
        .lines()
        .flat_map(|line| std::iter::repeat_n(line, MUTANTS_PER_LINE))
        .chain(std::iter::repeat_n(FAULTED_SIMULATE, FAULTED_MUTANTS));
    let mut g = Gen::new(0x3A9E_F00D);
    let mutants: Vec<String> = bases
        .map(|line| mutate_request_line(&mut g, line))
        .collect();
    let input: String = mutants.iter().map(|m| format!("{m}\n")).collect();
    let shown = |line: &str| line.chars().take(240).collect::<String>();
    for deterministic in [true, false] {
        let mut service = Service::new(ServeConfig {
            deterministic,
            threads: 1,
            ..ServeConfig::default()
        });
        let mut out = Vec::new();
        serve(&mut service, &mut input.as_bytes(), &mut out).expect("in-memory I/O cannot fail");
        let transcript = String::from_utf8(out).expect("responses are UTF-8");
        let responses: Vec<&str> = transcript.lines().collect();
        assert_eq!(responses.len(), mutants.len(), "one response per line");
        for (line, response) in mutants.iter().zip(&responses) {
            let doc = lognic::service::json::parse(response).unwrap_or_else(|e| {
                panic!("not JSON ({e}): {}\n<- {}", shown(response), shown(line))
            });
            let code = doc
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(lognic::service::Json::as_str);
            assert_ne!(
                code,
                Some("internal"),
                "deterministic={deterministic}: {}\n<- {}",
                shown(response),
                shown(line)
            );
        }
        assert_eq!(
            service.stats().isolated_panics,
            0,
            "deterministic={deterministic}"
        );
    }
}

/// Builds the 10k-line mixed corpus: valid, malformed,
/// analyzer-denied, deadline-exceeding and watchdog-tripping requests
/// interleaved, with periodic overload bursts. Deterministic in the
/// seed.
fn mixed_corpus(lines: usize, seed: u64) -> String {
    let graphs = registry::names();
    let mut g = Gen::new(seed);
    let mut out = String::with_capacity(lines * 64);
    let burst_line = |out: &mut String, id: usize| {
        // Three max-width sweeps back to back: cost 64 each against a
        // 64-unit gauge draining 4 per arrival — the trailing ones
        // shed with retry hints.
        let mut fractions = String::new();
        for i in 0..64 {
            if i > 0 {
                fractions.push(',');
            }
            fractions.push_str(&format!("{:.2}", 0.05 + i as f64 * 0.015));
        }
        for k in 0..3 {
            out.push_str(&format!(
                "{{\"id\":{},\"kind\":\"sweep\",\"graph\":\"nvmeof\",\"fractions\":[{fractions}]}}\n",
                id * 10 + k
            ));
        }
    };
    let mut id = 0usize;
    while out.lines().count() < lines {
        id += 1;
        if id.is_multiple_of(500) {
            burst_line(&mut out, id);
            continue;
        }
        match g.usize(0..100) {
            // Half the stream is hostile.
            0..=49 => {
                out.push_str(&malformed_request_line(&mut g));
                out.push('\n');
            }
            50..=69 => {
                let kind = *g.pick(&["health", "stats"]);
                out.push_str(&format!("{{\"id\":{id},\"kind\":\"{kind}\"}}\n"));
            }
            70..=84 => {
                let kind = *g.pick(&["estimate", "analyze"]);
                let graph = *g.pick(&graphs);
                out.push_str(&format!(
                    "{{\"id\":{id},\"kind\":\"{kind}\",\"graph\":\"{graph}\"}}\n"
                ));
            }
            85..=89 => {
                // Analyzer-denied: a saturating rate under the strict
                // posture.
                out.push_str(&format!(
                    "{{\"id\":{id},\"kind\":\"estimate\",\"graph\":\"nvmeof\",\
                     \"rate_gbps\":40,\"deny_warnings\":true}}\n"
                ));
            }
            90..=95 => {
                let n = g.usize(1..6);
                let fractions: Vec<String> = (0..n)
                    .map(|i| format!("{:.2}", 0.2 + i as f64 * 0.2))
                    .collect();
                out.push_str(&format!(
                    "{{\"id\":{id},\"kind\":\"sweep\",\"graph\":\"switch-kv\",\
                     \"fractions\":[{}]}}\n",
                    fractions.join(",")
                ));
            }
            96..=97 => {
                out.push_str(&format!(
                    "{{\"id\":{id},\"kind\":\"estimate_degraded\",\"graph\":\"chaos\",\
                     \"horizon_ms\":12}}\n"
                ));
            }
            98 => {
                // Deadline-exceeding: predicted cost 2×1 = 2 > 1.
                out.push_str(&format!(
                    "{{\"id\":{id},\"kind\":\"simulate\",\"graph\":\"dns-kv\",\
                     \"seeds\":2,\"duration_ms\":1,\"deadline_ms\":1}}\n"
                ));
            }
            _ => {
                // Watchdog-tripping: a 300-event budget cannot finish
                // a 1 ms horizon.
                out.push_str(&format!(
                    "{{\"id\":{id},\"kind\":\"simulate\",\"graph\":\"switch-kv\",\
                     \"seeds\":2,\"duration_ms\":1,\"max_events\":300}}\n"
                ));
            }
        }
    }
    out
}

/// The acceptance-criteria contract: a 10k-line mixed corpus streams
/// through one service — every request line answered with exactly one
/// structured JSON response, overload shed with `retry_after`,
/// byte-identical across two runs and across thread counts.
#[test]
fn ten_k_mixed_corpus_is_answered_completely_and_deterministically() {
    let corpus = mixed_corpus(10_000, 0x10C0);
    let request_count = corpus.lines().count();
    assert!(request_count >= 10_000);

    let first = run_transcript(&corpus, 1);
    assert_eq!(
        first.lines().count(),
        request_count,
        "exactly one response per request line"
    );
    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut watchdog = 0u64;
    let mut deadline = 0u64;
    let mut denied = 0u64;
    let mut parse_errors = 0u64;
    for line in first.lines() {
        let doc =
            lognic::service::json::parse(line).unwrap_or_else(|e| panic!("not JSON ({e}): {line}"));
        match doc.get("ok").and_then(lognic::service::Json::as_bool) {
            Some(true) => ok += 1,
            Some(false) => {
                let code = doc
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(lognic::service::Json::as_str)
                    .expect("refusals carry a code");
                match code {
                    "overloaded" => {
                        assert!(line.contains("\"retry_after_ms\":"), "{line}");
                        shed += 1;
                    }
                    "watchdog_abort" | "replication_partial" => watchdog += 1,
                    "deadline_exceeded" => deadline += 1,
                    "analysis_rejected" => denied += 1,
                    "parse_error" => parse_errors += 1,
                    "internal" => panic!("nothing in the corpus may panic: {line}"),
                    _ => {}
                }
            }
            None => panic!("response without ok field: {line}"),
        }
    }
    assert!(ok > 1000, "plenty of the corpus succeeds: {ok}");
    assert!(shed > 0, "the bursts must shed");
    assert!(
        watchdog > 0,
        "the capped simulations must trip the watchdog"
    );
    assert!(deadline > 0, "the tight deadlines must refuse at admission");
    assert!(denied > 0, "the strict-posture estimates must be gated");
    assert!(
        parse_errors > 0,
        "the hostile half must include parse errors"
    );

    let second = run_transcript(&corpus, 1);
    assert_eq!(first, second, "same corpus, same bytes");
    let threaded = run_transcript(&corpus, 4);
    assert_eq!(first, threaded, "thread count must not leak into bytes");
}

/// A mid-range event budget that only some seeds exceed surfaces
/// through the wire as a `replication_partial` response naming both
/// seed sets — not as a bare watchdog abort.
#[test]
fn partial_replication_failure_surfaces_through_serve() {
    // Probe the per-seed event counts of exactly the run the service
    // performs for {seeds:4, duration_ms:2} on switch-kv.
    let scenario = registry::find("switch-kv").expect("registered").scenario();
    let duration = Seconds::millis(2.0);
    let base = SimConfig {
        duration,
        warmup: duration.scaled(0.2),
        ..SimConfig::default()
    };
    let rep = Replication::new(4);
    let counts: Vec<u64> = rep
        .seeds()
        .iter()
        .map(|&seed| {
            Simulation::builder(&scenario.graph, &scenario.hardware, &scenario.traffic)
                .config(SimConfig { seed, ..base })
                .run()
                .expect("uncapped run completes")
                .events
        })
        .collect();
    let min = *counts.iter().min().expect("four seeds");
    let max = *counts.iter().max().expect("four seeds");
    assert!(
        min < max,
        "Poisson replicas must differ in event count: {counts:?}"
    );
    let budget = (min + max) / 2;

    let mut service = det_service(1);
    let out = service.handle_line(&format!(
        "{{\"id\":\"partial\",\"kind\":\"simulate\",\"graph\":\"switch-kv\",\
         \"seeds\":4,\"duration_ms\":2,\"max_events\":{budget}}}"
    ));
    assert!(
        out.contains("\"code\":\"replication_partial\""),
        "budget {budget} between {min} and {max} must split the seeds: {out}"
    );
    assert!(out.contains("\"completed_seeds\":["), "{out}");
    assert!(out.contains("\"failed_seeds\":["), "{out}");
    lognic::service::json::parse(&out).expect("valid JSON");
    // And the service keeps serving.
    let health = service.handle_line("{\"kind\":\"health\"}");
    assert!(health.contains("\"ok\":true"), "{health}");
}

/// An `analyze` request lints its inline fault plan: a window on a
/// node the graph lacks reports `L0601`, the same plan `simulate` and
/// `estimate_degraded` refuse with an unknown-node error.
#[test]
fn analyze_lints_the_inline_fault_plan() {
    let mut service = det_service(1);
    let codes = |service: &mut Service, line: &str| -> Vec<String> {
        let out = service.handle_line(line);
        let doc = lognic::service::json::parse(&out).expect("valid JSON");
        assert_eq!(doc.get("ok").and_then(|v| v.as_bool()), Some(true), "{out}");
        doc.get("diagnostics")
            .and_then(|v| v.as_arr())
            .expect("a diagnostics array")
            .iter()
            .map(|d| {
                d.get("code")
                    .and_then(|c| c.as_str())
                    .unwrap_or_default()
                    .to_owned()
            })
            .collect()
    };
    let faulted = codes(
        &mut service,
        r#"{"kind":"analyze","graph":"nvmeof","faults":[{"node":"nope","kind":"outage"}]}"#,
    );
    assert!(faulted.iter().any(|c| c == "L0601"), "{faulted:?}");
    let plain = codes(&mut service, r#"{"kind":"analyze","graph":"nvmeof"}"#);
    assert!(plain.is_empty(), "{plain:?}");

    let refused = service.handle_line(
        r#"{"kind":"estimate_degraded","graph":"nvmeof","faults":[{"node":"nope","kind":"outage"}]}"#,
    );
    assert!(
        refused.contains("fault window references unknown node `nope`"),
        "{refused}"
    );
}

/// A fault window whose bounds pass the picosecond clock saturates at
/// its end instead of panicking the replica, in both modes: an outage
/// until `1e300` ms never closes inside the run, and a window opening
/// at `1e300` ms never opens, so that run answers exactly like the
/// same request without faults.
#[test]
fn fault_windows_past_the_clock_are_answered() {
    let simulate = |faults: &str| {
        format!(
            r#"{{"id":1,"kind":"simulate","graph":"nvmeof","seeds":2,"duration_ms":1{faults}}}"#
        )
    };
    let never_closes = simulate(
        r#","faults":[{"node":"nic-core-submit","kind":"outage","from_ms":0.1,"until_ms":1e300}]"#,
    );
    let never_opens = simulate(
        r#","faults":[{"node":"nic-core-submit","kind":"outage","from_ms":1e300,"until_ms":1e301}]"#,
    );
    for deterministic in [true, false] {
        let mut service = Service::new(ServeConfig {
            deterministic,
            threads: 2,
            ..ServeConfig::default()
        });
        let out = service.handle_line(&never_closes);
        let doc = lognic::service::json::parse(&out).unwrap_or_else(|e| panic!("{e}: {out}"));
        assert_eq!(doc.get("ok").and_then(|v| v.as_bool()), Some(true), "{out}");
        let loss = doc
            .get("loss_rate")
            .and_then(|l| l.get("mean"))
            .and_then(|m| m.as_f64())
            .unwrap_or_else(|| panic!("no loss rate: {out}"));
        assert!(loss > 0.5, "the outage runs to the end: {out}");
        assert_eq!(
            service.handle_line(&never_opens),
            service.handle_line(&simulate("")),
            "a window that never opens changes nothing"
        );
        assert_eq!(service.stats().isolated_panics, 0);
    }
}

/// A fault number past the plain range is printed in `{:e}` form in
/// the refusal, so `"factor":1e300` is answered with `1e300`, not its
/// 301-digit expansion.
#[test]
fn extreme_fault_numbers_print_compactly_in_errors() {
    let mut service = det_service(1);
    let out = service.handle_line(
        r#"{"id":1,"kind":"estimate_degraded","graph":"nvmeof","faults":[{"node":"ssd","kind":"degrade","factor":1e300}]}"#,
    );
    let doc = lognic::service::json::parse(&out).unwrap_or_else(|e| panic!("{e}: {out}"));
    let message = doc
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(lognic::service::Json::as_str)
        .unwrap_or_else(|| panic!("no error message: {out}"));
    assert!(message.contains("1e300"), "{message}");
    assert!(message.len() < 200, "{} bytes: {message}", message.len());
}

/// A refused request whose logical cost passes the picosecond clock
/// (about 1.8e10 ms) still gets its `invalid_parameter` answer in
/// deterministic mode, and the stream goes on to answer the next line.
#[test]
fn refused_requests_past_the_clock_are_answered() {
    let input = concat!(
        r#"{"id":1,"kind":"simulate","graph":"chaos","seeds":2,"duration_ms":1e10}"#,
        "\n",
        r#"{"id":2,"kind":"fleet_simulate","nics":8,"duration_ms":1e10}"#,
        "\n",
        r#"{"id":3,"kind":"health"}"#,
        "\n",
    );
    let transcript = run_transcript(input, 1);
    let lines: Vec<&str> = transcript.lines().collect();
    assert_eq!(lines.len(), 3, "{transcript}");
    for line in &lines[..2] {
        let doc =
            lognic::service::json::parse(line).unwrap_or_else(|e| panic!("not JSON ({e}): {line}"));
        assert_eq!(
            doc.get("ok").and_then(|v| v.as_bool()),
            Some(false),
            "{line}"
        );
        let code = doc.get("error").and_then(|e| e.get("code"));
        assert_eq!(
            code.and_then(|c| c.as_str()),
            Some("invalid_parameter"),
            "{line}"
        );
    }
    assert!(lines[2].starts_with(r#"{"id":3,"ok":true"#), "{}", lines[2]);
}

/// A rate whose bit rate overflows is refused as `invalid_parameter`,
/// one that overflows only once retries inflate it fails its degraded
/// evaluation, and a rate so small that the first packet's gap passes
/// the clock simulates a run in which nothing arrives, in both modes.
/// That run measured no latency, so it reports none rather than zero,
/// and a refused extreme horizon is named in a few bytes.
#[test]
fn extreme_rates_are_answered_in_both_modes() {
    let field = |doc: &lognic::service::Json, path: &[&str]| {
        path.iter()
            .try_fold(doc, |d, k| d.get(k))
            .cloned()
            .unwrap_or_else(|| panic!("no {path:?}"))
    };
    for deterministic in [true, false] {
        let mut service = Service::new(ServeConfig {
            deterministic,
            threads: 2,
            ..ServeConfig::default()
        });
        for line in [
            r#"{"kind":"estimate","graph":"nvmeof","rate_gbps":1e300}"#,
            r#"{"kind":"simulate","graph":"nvmeof","seeds":2,"duration_ms":1,"rate_gbps":1e300}"#,
        ] {
            let out = service.handle_line(line);
            let doc = lognic::service::json::parse(&out).expect("JSON");
            assert_eq!(
                field(&doc, &["error", "code"]).as_str(),
                Some("invalid_parameter"),
                "{out}"
            );
        }
        let out = service
            .handle_line(r#"{"kind":"estimate_degraded","graph":"chaos","rate_gbps":1.7e299}"#);
        let doc = lognic::service::json::parse(&out).expect("JSON");
        assert_eq!(
            field(&doc, &["error", "code"]).as_str(),
            Some("evaluation_error"),
            "{out}"
        );
        let out = service.handle_line(
            r#"{"kind":"simulate","graph":"nvmeof","seeds":2,"duration_ms":1,"rate_gbps":1e-300}"#,
        );
        let doc = lognic::service::json::parse(&out).expect("JSON");
        assert_eq!(field(&doc, &["ok"]).as_bool(), Some(true), "{out}");
        assert_eq!(
            field(&doc, &["throughput_gbps", "mean"]).as_f64(),
            Some(0.0),
            "{out}"
        );
        assert_eq!(
            field(&doc, &["latency_s"]),
            lognic::service::Json::Null,
            "{out}"
        );
        for line in [
            r#"{"kind":"simulate","graph":"nvmeof","duration_ms":1e300}"#,
            r#"{"kind":"simulate","graph":"nvmeof","duration_ms":-1e300}"#,
        ] {
            let out = service.handle_line(line);
            assert!(out.len() <= 160, "{line}: {out}");
            assert!(out.contains("invalid_parameter"), "{line}: {out}");
        }
    }
}

/// A one-seed `simulate` has an unbounded confidence interval; its
/// non-finite bounds render as `null`, so the response stays JSON.
#[test]
fn one_seed_simulate_answers_valid_json() {
    let mut service = det_service(1);
    let out =
        service.handle_line(r#"{"kind":"simulate","graph":"chaos","seeds":1,"duration_ms":1}"#);
    let doc =
        lognic::service::json::parse(&out).unwrap_or_else(|e| panic!("not JSON ({e}): {out}"));
    assert_eq!(doc.get("ok").and_then(|v| v.as_bool()), Some(true), "{out}");
    for metric in ["latency_s", "throughput_gbps", "loss_rate"] {
        let summary = doc.get(metric).expect("a summary per metric");
        assert!(
            summary.get("mean").and_then(|v| v.as_f64()).is_some(),
            "{out}"
        );
        assert_eq!(
            summary.get("ci_lo"),
            Some(&lognic::service::Json::Null),
            "{out}"
        );
        assert_eq!(
            summary.get("ci_hi"),
            Some(&lognic::service::Json::Null),
            "{out}"
        );
    }
}

/// `deny_warnings` reaches the lints of the fault plan a request runs
/// under. Two overlapping drop windows on one node are an `L0602`
/// warning: with the strict posture, `analyze` reports the scenario
/// rejected and `estimate_degraded` and `simulate` refuse it with
/// `analysis_rejected`; without it, all three answer.
#[test]
fn deny_warnings_reaches_fault_plan_lints() {
    let faults = r#""faults":[{"node":"accelerator","kind":"drop","probability":0.1,"from_ms":0,"until_ms":0.4},{"node":"accelerator","kind":"drop","probability":0.2,"from_ms":0.2,"until_ms":0.6}]"#;
    let requests = |posture: &str| {
        [
            format!(r#"{{"kind":"analyze","graph":"chaos",{faults}{posture}}}"#),
            format!(
                r#"{{"kind":"estimate_degraded","graph":"chaos","horizon_ms":1,{faults}{posture}}}"#
            ),
            format!(
                r#"{{"kind":"simulate","graph":"chaos","seeds":2,"duration_ms":1,{faults}{posture}}}"#
            ),
        ]
        .join("\n")
    };
    let answers = |posture: &str| -> Vec<lognic::service::Json> {
        run_transcript(&requests(posture), 1)
            .lines()
            .map(|line| lognic::service::json::parse(line).expect("valid JSON"))
            .collect()
    };
    let ok = |doc: &lognic::service::Json| doc.get("ok").and_then(|v| v.as_bool());
    let l0602 = |doc: &lognic::service::Json| {
        doc.get("diagnostics")
            .and_then(|v| v.as_arr())
            .and_then(|d| {
                d.iter()
                    .find(|d| d.get("code").and_then(|c| c.as_str()) == Some("L0602"))
            })
            .and_then(|d| d.get("severity"))
            .and_then(|s| s.as_str())
            .map(str::to_owned)
    };

    let codes = |doc: &lognic::service::Json| -> Vec<String> {
        doc.get("diagnostics")
            .and_then(|v| v.as_arr())
            .expect("a diagnostics array")
            .iter()
            .filter_map(|d| d.get("code").and_then(|c| c.as_str()).map(str::to_owned))
            .collect()
    };

    let strict = answers(r#","deny_warnings":true"#);
    assert_eq!(strict.len(), 3);
    assert_eq!(ok(&strict[0]), Some(true));
    assert_eq!(
        strict[0].get("rejected").and_then(|v| v.as_bool()),
        Some(true)
    );
    assert_eq!(l0602(&strict[0]).as_deref(), Some("error"));
    for refused in &strict[1..] {
        assert_eq!(ok(refused), Some(false), "{refused}");
        let error = refused.get("error").expect("an error body");
        assert_eq!(
            error.get("code").and_then(|c| c.as_str()),
            Some("analysis_rejected"),
            "{refused}"
        );
        assert_eq!(l0602(error).as_deref(), Some("error"), "{refused}");
        // A refusal shows the same findings `analyze` shows.
        assert_eq!(codes(error), codes(&strict[0]), "{refused}");
    }

    let lenient = answers("");
    assert_eq!(lenient.len(), 3);
    assert_eq!(
        lenient[0].get("rejected").and_then(|v| v.as_bool()),
        Some(false)
    );
    assert_eq!(l0602(&lenient[0]).as_deref(), Some("warning"));
    for answered in &lenient {
        assert_eq!(ok(answered), Some(true), "{answered}");
    }
}
