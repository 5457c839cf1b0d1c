//! Golden-file tests of the analyzer's rendered output, the
//! analyzer/simulator saturation agreement, and the property that
//! analyzer-clean scenarios simulate without incident.
//!
//! The golden files under `tests/golden/analyzer/` pin the exact
//! human-readable and JSON renderings of the curated broken-scenario
//! corpus (`lognic::workloads::broken`). A deliberate change to the
//! diagnostic format is recorded by regenerating them:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test analyzer_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use lognic::prelude::*;
use lognic::workloads::broken::all_broken;
use lognic_testkit::{ensure, Gen, Property};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/analyzer")
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
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test analyzer_golden",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "rendered diagnostics diverge from {}; regenerate with UPDATE_GOLDEN=1 \
         if the change is deliberate",
        path.display()
    );
}

/// The whole broken corpus rendered in the human span style, pinned
/// byte-for-byte.
#[test]
fn human_rendering_matches_golden() {
    let mut out = String::new();
    for case in all_broken() {
        let report = case.scenario.analyze(&AnalysisConfig::default());
        writeln!(out, "==== {} ====", case.scenario.name).unwrap();
        writeln!(out, "{}\n", report.render_human(false)).unwrap();
    }
    assert_golden("broken.human.txt", &out);
}

/// The same corpus as JSON lines, pinned byte-for-byte.
#[test]
fn json_rendering_matches_golden() {
    let mut out = String::new();
    for case in all_broken() {
        let report = case.scenario.analyze(&AnalysisConfig::default());
        let json = report.render_json();
        if !json.is_empty() {
            writeln!(out, "{json}").unwrap();
        }
    }
    assert_golden("broken.jsonl", &out);
}

/// The acceptance bar: the corpus trips at least six distinct codes
/// spanning all six pass families, and every case is denied under the
/// CI posture.
#[test]
fn corpus_reports_six_distinct_pass_codes() {
    let strict = AnalysisConfig::default().deny_warnings(true);
    let mut codes = std::collections::BTreeSet::new();
    for case in all_broken() {
        let report = case.scenario.analyze(&strict);
        assert!(report.is_rejected(), "{} must gate", case.scenario.name);
        codes.extend(report.diagnostics().iter().map(|d| d.code.as_str()));
    }
    assert!(codes.len() >= 6, "only {codes:?}");
    let families: std::collections::BTreeSet<&str> = codes.iter().map(|c| &c[..3]).collect();
    assert_eq!(
        families.into_iter().collect::<Vec<_>>(),
        vec!["L01", "L02", "L03", "L04", "L05", "L06"]
    );
}

/// A static ρ ≥ 1 verdict must agree with observed simulator
/// saturation — and the all-clear must agree with an unsaturated run —
/// on two different calibrated device profiles.
#[test]
fn static_saturation_verdict_agrees_with_simulator() {
    use lognic::devices::stingray::IoPattern;
    use lognic::workloads::{compression, nvmeof};

    // Stingray NVMe-oF target and LiquidIO-II compression offload.
    let scenarios = [
        nvmeof::nvmeof(IoPattern::RandRead4k, Bandwidth::gbps(1.0)),
        compression::compress(0.5, 8, Bytes::new(4096), Bandwidth::gbps(1.0)),
    ];
    let config = SimConfig {
        duration: Seconds::millis(8.0),
        warmup: Seconds::millis(2.0),
        ..SimConfig::default()
    };
    for base in scenarios {
        let attainable = base
            .estimate()
            .expect("scenario estimates")
            .throughput
            .saturation_bound()
            .expect("scenario has a capacity bound")
            .limit;
        // The simulator reports egress throughput, which a thinning
        // pipeline (e.g. compression, δ < 1) reduces relative to the
        // accepted ingress rate the model's `delivered` describes.
        // Σ δ into the egress node is the conversion factor.
        let egress_fraction = base.graph.delta_in_sum(base.graph.egress());

        // Offered 1.5× the binding bound: the analyzer must flag ρ ≥ 1
        // and the simulator must fail to deliver the offered load.
        let hot = base.at_rate(attainable * 1.5);
        let report = hot.estimator().analyze(&AnalysisConfig::default());
        assert!(
            report
                .diagnostics()
                .iter()
                .any(|d| d.code == Code::SaturatedPartition),
            "{}: no L0201 at 1.5x the bound: {report:?}",
            base.name
        );
        let predicted = hot
            .estimate()
            .expect("hot scenario estimates")
            .delivered
            .as_gbps()
            * egress_fraction;
        let sim = Replication::new(5)
            .run(|| Simulation::builder(&hot.graph, &hot.hardware, &hot.traffic).config(config))
            .expect("saturated scenario still simulates");
        let offered = hot.traffic.ingress_bandwidth().as_gbps() * egress_fraction;
        assert!(
            sim.throughput_gbps.ci_hi < offered,
            "{}: simulator delivered {} of offered {offered} — not saturated",
            base.name,
            sim.throughput_gbps.mean
        );
        let slack = predicted * 0.03;
        assert!(
            sim.throughput_gbps.ci_lo - slack <= predicted
                && predicted <= sim.throughput_gbps.ci_hi + slack,
            "{}: saturated CI [{}, {}] disagrees with static capacity {predicted}",
            base.name,
            sim.throughput_gbps.ci_lo,
            sim.throughput_gbps.ci_hi
        );

        // Offered half the bound: no saturation verdict, and the
        // simulator delivers the offered load within the replication
        // CI (loosened by 3 % for finite-horizon noise).
        let calm = base.at_rate(attainable * 0.5);
        let report = calm.estimator().analyze(&AnalysisConfig::default());
        assert!(
            !report
                .diagnostics()
                .iter()
                .any(|d| d.code == Code::SaturatedPartition || d.code == Code::NearSaturation),
            "{}: spurious saturation at half the bound: {report:?}",
            base.name
        );
        let sim = Replication::new(5)
            .run(|| Simulation::builder(&calm.graph, &calm.hardware, &calm.traffic).config(config))
            .expect("calm scenario simulates");
        let expected = calm.traffic.ingress_bandwidth().as_gbps() * egress_fraction;
        let slack = expected * 0.03;
        assert!(
            sim.throughput_gbps.ci_lo - slack <= expected
                && expected <= sim.throughput_gbps.ci_hi + slack,
            "{}: delivered CI [{}, {}] does not cover expected {expected}",
            base.name,
            sim.throughput_gbps.ci_lo,
            sim.throughput_gbps.ci_hi
        );
    }
}

/// Property: a random scenario the analyzer passes as clean never
/// trips the simulation watchdog — static cleanliness implies the run
/// terminates within its event budget.
#[test]
fn analyzer_clean_scenarios_never_trip_the_watchdog() {
    fn arb_graph(g: &mut Gen) -> ExecutionGraph {
        let named: Vec<(String, IpParams)> = g
            .vec(1..5, |g| (g.f64(1.0..100.0), g.u32(1..9), g.u32(1..65)))
            .into_iter()
            .enumerate()
            .map(|(i, (peak, d, q))| {
                (
                    format!("s{i}"),
                    IpParams::new(Bandwidth::gbps(peak))
                        .with_parallelism(d)
                        .with_queue_capacity(q.max(d)),
                )
            })
            .collect();
        let refs: Vec<(&str, IpParams)> = named.iter().map(|(n, p)| (n.as_str(), *p)).collect();
        ExecutionGraph::chain("prop", &refs).expect("chains are always valid")
    }

    Property::new("analyzer_clean_scenarios_never_trip_the_watchdog")
        .cases(24)
        .check(|g| {
            let graph = arb_graph(g);
            let hw = HardwareModel::default();
            // Offer a sub-saturation fraction of the binding bound so
            // the scenario is clean by construction; the analyzer
            // must agree, and the sim must then terminate within its
            // structural event budget.
            let probe = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(1500));
            let bound = lognic::model::throughput::estimate_throughput(&graph, &hw, &probe)
                .expect("probe estimates")
                .saturation_bound()
                .expect("chains have bounds")
                .limit;
            let fraction = g.f64(0.05..0.85);
            let traffic = probe.at_rate(bound * fraction);

            let report = Estimator::new(&graph, &hw, &traffic).analyze(&AnalysisConfig::default());
            ensure!(report.is_clean(), "derated scenario flagged: {report:?}");

            let outcome = Simulation::builder(&graph, &hw, &traffic)
                .duration(Seconds::millis(3.0))
                .warmup(Seconds::millis(1.0))
                .seed(g.u64(0..u64::MAX))
                .run();
            match outcome {
                Ok(r) => {
                    ensure!(r.completed > 0, "clean scenario completed no packets");
                    Ok(())
                }
                Err(e) => Err(format!("clean scenario failed to simulate: {e}")),
            }
        });
}
