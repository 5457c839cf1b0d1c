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
//! Exit status (`lognic_workloads::cli`): 0 with no deny-level finding
//! (under `--verify`: every deny-level code confirmed), on `--help` or
//! a closed reader; 1 with `error: …` otherwise; 2 with `error: …` and
//! the usage for a command-line error, such as an unknown code.

use std::io::{self, Write};
use std::process::ExitCode;

use lognic_devices::validate::all_profile_diagnostics;
use lognic_model::analyze::{pass_names, AnalysisConfig, Code, Diagnostic, Severity};
use lognic_model::json;
use lognic_workloads::broken::{all_broken, BrokenCase};
use lognic_workloads::cli::{self, Flags, Stop};
use lognic_workloads::scenario::Scenario;
use lognic_workloads::witness::synthesize;

/// Fixed witness-search seed: verification runs are reproducible.
const VERIFY_SEED: u64 = 0x5EED_0B5E_55ED;

struct Options {
    set: &'static str,
    json: bool,
    color: bool,
    list: bool,
    explain: Option<Code>,
    verify: bool,
    config: AnalysisConfig,
    deny_warnings: bool,
}

const USAGE: &str = "\
usage: lognic-lint [--set clean|broken|all] [--json] [--no-color] [--list]
                   [--explain <code>] [--verify]
                   [--deny warnings|<code>|<slug>]... [--warn <code>]... [--allow <code>]...";

fn parse_code(spec: &str) -> Result<Code, Stop> {
    Code::parse(spec)
        .ok_or_else(|| Stop::Usage(format!("unknown diagnostic code or slug `{spec}`")))
}

fn read_options(flags: &mut Flags) -> Result<Options, Stop> {
    let mut opts = Options {
        set: "clean",
        json: false,
        color: true,
        list: false,
        explain: None,
        verify: false,
        config: AnalysisConfig::default(),
        deny_warnings: false,
    };
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--set" => opts.set = flags.choice(&flag, &["clean", "broken", "all"])?,
            "--json" => opts.json = true,
            "--no-color" => opts.color = false,
            "--list" => opts.list = true,
            "--verify" => opts.verify = true,
            "--explain" => opts.explain = Some(parse_code(&flags.value(&flag)?)?),
            "--deny" | "--warn" | "--allow" => {
                let spec = flags.value(&flag)?;
                if flag == "--deny" && spec == "warnings" {
                    opts.deny_warnings = true;
                    opts.config = opts.config.deny_warnings(true);
                    continue;
                }
                let severity = match flag.as_str() {
                    "--deny" => Severity::Deny,
                    "--warn" => Severity::Warn,
                    _ => Severity::Allow,
                };
                opts.config = opts.config.set_severity(parse_code(&spec)?, severity);
            }
            "--help" | "-h" => return Err(Stop::Help),
            other => return Err(cli::unknown(other)),
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
/// registry, each derated to half its saturating rate (the scenarios
/// carry their fault plans, so the L06xx hygiene passes see them).
/// New registry entries appear here automatically — and must
/// therefore ship warning-free at the derated rate to survive the CI
/// `--deny warnings` gate.
fn clean_cases() -> Vec<BrokenCase> {
    lognic_workloads::registry::ALL
        .iter()
        .map(|entry| BrokenCase {
            scenario: derated(entry.scenario()),
            expect: &[],
        })
        .collect()
}

fn lint(flags: &mut Flags, out: &mut impl Write) -> Result<(), Stop> {
    let opts = read_options(flags)?;

    if let Some(code) = opts.explain {
        // rustc-style extended documentation for one code.
        writeln!(
            out,
            "{} ({}), default {}\n",
            code.as_str(),
            code.slug(),
            code.default_severity()
        )?;
        writeln!(out, "{}", code.explain())?;
        return Ok(());
    }

    if opts.list {
        writeln!(out, "passes:")?;
        for name in pass_names() {
            writeln!(out, "  {name}")?;
        }
        writeln!(out, "codes (lognic-lint --explain <code> for details):")?;
        for code in Code::ALL {
            writeln!(
                out,
                "  {} {:28} {:7} {}",
                code.as_str(),
                code.slug(),
                code.default_severity().to_string(),
                code.summary()
            )?;
        }
        return Ok(());
    }

    let mut cases = Vec::new();
    if matches!(opts.set, "clean" | "all") {
        cases.extend(clean_cases());
    }
    if matches!(opts.set, "broken" | "all") {
        cases.extend(all_broken());
    }

    let mut denied = 0usize;
    let mut warned = 0usize;
    let mut shown = 0usize;

    let mut emit = |out: &mut dyn Write, scope: &str, diags: Vec<Diagnostic>| -> io::Result<()> {
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
                writeln!(out, "{tagged}")?;
            } else {
                writeln!(
                    out,
                    "{}\n  --- in scenario `{scope}`\n",
                    d.render_human(opts.color)
                )?;
            }
        }
        Ok(())
    };

    let mut deny_codes: Vec<Code> = Vec::new();
    for case in &cases {
        let report = case.scenario.analyze(&opts.config);
        for d in report.denied() {
            if !deny_codes.contains(&d.code) {
                deny_codes.push(d.code);
            }
        }
        emit(out, &case.scenario.name, report.diagnostics().to_vec())?;
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
    emit(out, "device-profiles", profile_diags)?;

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
                        writeln!(out, "{{\"witness\":{}}}", w.render_json())?;
                    } else {
                        writeln!(out, "verified {}", w.render_human())?;
                    }
                }
                Err(why) => {
                    unconfirmed += 1;
                    if opts.json {
                        writeln!(
                            out,
                            "{{\"witness\":{{\"code\":\"{code}\",\"confirmed\":false}}}}"
                        )?;
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
        return match unconfirmed {
            0 => Ok(()),
            n => Err(Stop::Failed(format!(
                "{n} deny-level code(s) without a confirmed witness"
            ))),
        };
    }

    match denied {
        0 => Ok(()),
        n => Err(Stop::Failed(format!("{n} finding(s) at deny level"))),
    }
}

fn main() -> ExitCode {
    cli::run(USAGE, lint)
}
