//! `lognic-lint`: static analysis of LogNIC scenarios from the
//! command line.
//!
//! Runs the analyzer's pass registry over a fixture set — the `clean`
//! set (every workload family at half its saturating rate, the shape
//! scenarios should ship in) or the `broken` set (the curated
//! misconfiguration corpus from `lognic_workloads::broken`) — plus the
//! calibrated device profiles, and renders the findings in the human
//! span style or as JSON lines for CI artifacts.
//!
//! ```text
//! lognic-lint                          # clean + device profiles, human output
//! lognic-lint --set broken             # the misconfiguration corpus
//! lognic-lint --deny warnings --json   # CI gate: nonzero exit on any warning
//! lognic-lint --deny L0202 --allow starved-node
//! lognic-lint --list                   # registered passes and codes
//! lognic-lint --explain L0301          # extended docs for one code
//! lognic-lint --set broken --verify    # confirm deny findings with witnesses
//! ```
//!
//! `--verify` turns every deny-level finding into an obligation: the
//! witness synthesizer (`lognic_workloads::witness`) must produce a
//! minimal concrete scenario that trips the code statically *and*
//! exhibits its dynamic contract under a sanitizer-clean simulation
//! run. Findings that cannot produce a witness fail the run.
//!
//! Exit status: 0 when no diagnostic is at deny level (or, under
//! `--verify`, when every deny-level code carries a confirmed
//! witness), 1 otherwise, 2 on a usage error.

use std::process::ExitCode;

use lognic_devices::validate::all_profile_diagnostics;
use lognic_model::analyze::{pass_names, AnalysisConfig, Code, Diagnostic, Severity};
use lognic_model::json;
use lognic_workloads::broken::{all_broken, BrokenCase};
use lognic_workloads::scenario::Scenario;
use lognic_workloads::witness::synthesize;

/// Fixed witness-search seed: verification runs are reproducible.
const VERIFY_SEED: u64 = 0x5EED_0B5E_55ED;

struct Options {
    set: FixtureSet,
    json: bool,
    color: bool,
    list: bool,
    explain: Option<String>,
    verify: bool,
    config: AnalysisConfig,
    deny_warnings: bool,
}

#[derive(PartialEq, Clone, Copy)]
enum FixtureSet {
    Clean,
    Broken,
    All,
}

fn usage() -> String {
    "usage: lognic-lint [--set clean|broken|all] [--json] [--no-color] [--list]\n\
     \x20                  [--explain <code>] [--verify]\n\
     \x20                  [--deny warnings|<code>|<slug>]... [--warn <code>]... [--allow <code>]...\n\
     \n\
     Analyzes the fixture scenarios and the calibrated device profiles.\n\
     --explain prints the extended documentation for one diagnostic code.\n\
     --verify confirms every deny-level finding with a shrunk witness\n\
     scenario exhibited under a sanitizer-clean simulation run.\n\
     Exits 1 when any diagnostic lands at deny level (under --verify:\n\
     when any deny-level code lacks a confirmed witness), 2 on usage errors."
        .to_owned()
}

fn parse_code(spec: &str) -> Result<Code, String> {
    Code::parse(spec).ok_or_else(|| format!("unknown diagnostic code or slug `{spec}`"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        set: FixtureSet::Clean,
        json: false,
        color: true,
        list: false,
        explain: None,
        verify: false,
        config: AnalysisConfig::default(),
        deny_warnings: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--set" => {
                let v = it.next().ok_or("--set requires a value")?;
                opts.set = match v.as_str() {
                    "clean" => FixtureSet::Clean,
                    "broken" => FixtureSet::Broken,
                    "all" => FixtureSet::All,
                    other => return Err(format!("unknown fixture set `{other}`")),
                };
            }
            "--json" => opts.json = true,
            "--no-color" => opts.color = false,
            "--list" => opts.list = true,
            "--verify" => opts.verify = true,
            "--explain" => {
                let v = it.next().ok_or("--explain requires a code or slug")?;
                opts.explain = Some(v.clone());
            }
            "--deny" => {
                let v = it.next().ok_or("--deny requires a value")?;
                if v == "warnings" {
                    opts.deny_warnings = true;
                    opts.config = opts.config.clone().deny_warnings(true);
                } else {
                    opts.config = opts
                        .config
                        .clone()
                        .set_severity(parse_code(v)?, Severity::Deny);
                }
            }
            "--warn" => {
                let v = it.next().ok_or("--warn requires a value")?;
                opts.config = opts
                    .config
                    .clone()
                    .set_severity(parse_code(v)?, Severity::Warn);
            }
            "--allow" => {
                let v = it.next().ok_or("--allow requires a value")?;
                opts.config = opts
                    .config
                    .clone()
                    .set_severity(parse_code(v)?, Severity::Allow);
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(opts)
}

/// Derates a scenario to half its saturating rate: the posture clean
/// scenarios ship in (ρ = 0.5 on the binding bound).
fn derated(scenario: Scenario) -> Scenario {
    let sat = scenario
        .estimate()
        .ok()
        .and_then(|est| est.throughput.saturation_bound().map(|b| b.limit));
    match sat {
        Some(limit) => {
            let mut s = scenario.at_rate(limit * 0.5);
            s.name = scenario.name;
            s
        }
        None => scenario,
    }
}

/// The clean fixture set: every workload in the shared scenario
/// registry, each derated to half its saturating rate (fault plans
/// ride along so the L06xx hygiene passes see them). New registry
/// entries appear here automatically — and must therefore ship
/// warning-free at the derated rate to survive the CI `--deny
/// warnings` gate.
fn clean_cases() -> Vec<BrokenCase> {
    lognic_workloads::registry::ALL
        .iter()
        .map(|entry| {
            let (scenario, plan) = entry.build();
            BrokenCase {
                scenario: derated(scenario),
                plan,
                expect: &[],
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if let Some(spec) = &opts.explain {
        // rustc-style extended documentation for one code.
        match Code::parse(spec) {
            Some(code) => {
                println!(
                    "{} ({}), default {}\n",
                    code.as_str(),
                    code.slug(),
                    code.default_severity()
                );
                println!("{}", code.explain());
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!("unknown diagnostic code or slug `{spec}`; try --list");
                return ExitCode::from(2);
            }
        }
    }

    if opts.list {
        println!("passes:");
        for name in pass_names() {
            println!("  {name}");
        }
        println!("codes (lognic-lint --explain <code> for details):");
        for code in Code::ALL {
            println!(
                "  {} {:28} {:7} {}",
                code.as_str(),
                code.slug(),
                code.default_severity().to_string(),
                code.summary()
            );
        }
        return ExitCode::SUCCESS;
    }

    let mut cases = Vec::new();
    if matches!(opts.set, FixtureSet::Clean | FixtureSet::All) {
        cases.extend(clean_cases());
    }
    if matches!(opts.set, FixtureSet::Broken | FixtureSet::All) {
        cases.extend(all_broken());
    }

    let mut denied = 0usize;
    let mut warned = 0usize;
    let mut shown = 0usize;

    let mut emit = |scope: &str, diags: Vec<Diagnostic>| {
        for d in diags {
            match d.severity {
                Severity::Deny => denied += 1,
                Severity::Warn => warned += 1,
                Severity::Allow => continue,
            }
            shown += 1;
            if opts.json {
                // One JSON object per line, tagged with its scope.
                let line = d.render_json();
                let tagged = format!(
                    "{{\"scenario\":\"{}\",{}",
                    json::escape(scope),
                    line.strip_prefix('{').unwrap_or(&line)
                );
                println!("{tagged}");
            } else {
                println!(
                    "{}\n  --- in scenario `{scope}`\n",
                    d.render_human(opts.color)
                );
            }
        }
    };

    let mut deny_codes: Vec<Code> = Vec::new();
    for case in &cases {
        let report = case.analyze(&opts.config);
        for d in report.denied() {
            if !deny_codes.contains(&d.code) {
                deny_codes.push(d.code);
            }
        }
        emit(&case.scenario.name, report.diagnostics().to_vec());
    }

    // Device calibrations ride along in every set: a broken profile
    // should never survive CI regardless of which fixtures ran.
    let mut profile_diags = all_profile_diagnostics();
    if opts.deny_warnings {
        for d in &mut profile_diags {
            if d.severity == Severity::Warn {
                d.severity = Severity::Deny;
            }
        }
    }
    emit("device-profiles", profile_diags);

    if !opts.json {
        eprintln!(
            "lognic-lint: {} scenario(s) analyzed, {shown} finding(s) shown \
             ({denied} denied, {warned} warned)",
            cases.len() + 1
        );
    }

    if opts.verify {
        // Every deny-level code becomes an obligation: synthesize a
        // minimal witness scenario and confirm it under a sanitized
        // run. A finding that cannot be witnessed fails verification.
        let mut unconfirmed = 0usize;
        if deny_codes.is_empty() && !opts.json {
            eprintln!("lognic-lint: no deny-level findings to verify");
        }
        for code in &deny_codes {
            match synthesize(*code, VERIFY_SEED) {
                Ok(w) => {
                    if opts.json {
                        println!("{{\"witness\":{}}}", w.render_json());
                    } else {
                        println!("verified {}", w.render_human());
                    }
                }
                Err(why) => {
                    unconfirmed += 1;
                    if opts.json {
                        println!("{{\"witness\":{{\"code\":\"{code}\",\"confirmed\":false}}}}");
                    } else {
                        eprintln!("UNCONFIRMED {code}: {why}");
                    }
                }
            }
        }
        if !opts.json {
            eprintln!(
                "lognic-lint: {} deny-level code(s), {} confirmed, {unconfirmed} unconfirmed",
                deny_codes.len(),
                deny_codes.len() - unconfirmed
            );
        }
        return if unconfirmed > 0 {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    if denied > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
