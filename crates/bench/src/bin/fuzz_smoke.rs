//! `fuzz_smoke`: the standing differential fuzz harness as a CI job.
//!
//! Generates seeded random scenarios (`lognic_workloads::corpus::gen`)
//! and drives each analyzer-clean one through the one oracle,
//! `differential_check`, stage by stage:
//!
//! * **run** — the simulation finishes **without a watchdog abort**
//!   and delivers packets;
//! * **sanitizer** — two reruns under the runtime sanitizer hold every
//!   engine invariant, report the plain run's bytes, and reproduce
//!   their audited event and RNG draw counts;
//! * **model** — the model's delivered throughput lands inside the
//!   simulation's replicated 95 % confidence interval (±3 % slack).
//!
//! Everything is deterministic and offline: a fixed default seed, no
//! wall-clock, no network. On failure the shrunk minimal
//! counterexample is written as a JSON artifact (replayable by hand
//! from its spec; each message starts with its stage) and the process
//! exits 1.
//!
//! ```text
//! fuzz_smoke [--cases N] [--seed S] [--artifact FILE]
//! ```
//!
//! Exit status (`lognic_workloads::cli`): 0 when every case passes, on
//! `--help` or a closed reader; 1 with `error: …` on a counterexample
//! or a collapsed generator; 2 with `error: …` and the usage for a
//! command-line error, such as `--cases 0`.

use std::io::Write;
use std::process::ExitCode;

use lognic_model::json;
use lognic_testkit::fuzz::{Counterexample, Fuzz};
use lognic_workloads::cli::{self, Flags, Stop};
use lognic_workloads::corpus::gen::{differential_check, ScenarioSpec};

const HARNESS: &str = "differential_scenario_fuzz";
const USAGE: &str = "usage: fuzz_smoke [--cases N] [--seed S] [--artifact FILE]";

#[derive(Debug, PartialEq)]
struct Options {
    cases: u32,
    seed: u64,
    artifact: String,
}

/// Reads the flags after the program name. `--cases` must be at
/// least 1: a sweep that checks nothing must not report a pass.
fn read_options(flags: &mut Flags) -> Result<Options, Stop> {
    let mut opts = Options {
        cases: 32,
        // Fixed default so CI runs are reproducible run-to-run; any
        // historical failure replays with --seed + the logged case.
        seed: 0x10_621C_F022,
        artifact: "fuzz-failure.json".to_owned(),
    };
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--cases" => opts.cases = flags.nonzero(&flag)?,
            "--seed" => opts.seed = flags.integer(&flag)?,
            "--artifact" => opts.artifact = flags.value(&flag)?,
            "--help" | "-h" => return Err(Stop::Help),
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(opts)
}

/// The failure artifact: one JSON object naming the harness, the seeds
/// that replay the failure, both failure messages and the shrunk spec.
fn artifact(base_seed: u64, cx: &Counterexample<ScenarioSpec>) -> String {
    format!(
        "{{\"harness\":\"{HARNESS}\",\"base_seed\":{base_seed},\
         \"case\":{},\"case_seed\":{},\"shrink_steps\":{},\
         \"original_message\":\"{}\",\"message\":\"{}\",\"minimal_spec\":{}}}\n",
        cx.case,
        cx.seed,
        cx.shrink_steps,
        json::escape(&cx.original_message),
        json::escape(&cx.message),
        cx.minimal.to_json()
    )
}

fn fuzz(flags: &mut Flags, out: &mut impl Write) -> Result<(), Stop> {
    let opts = read_options(flags)?;
    let report = Fuzz::new(HARNESS).cases(opts.cases).seed(opts.seed).run(
        ScenarioSpec::arbitrary,
        ScenarioSpec::shrink,
        differential_check,
    );

    if let Some(cx) = &report.counterexample {
        if let Err(e) = std::fs::write(&opts.artifact, artifact(opts.seed, cx)) {
            eprintln!("fuzz_smoke: cannot write {}: {e}", opts.artifact);
        } else {
            eprintln!("fuzz_smoke: wrote failing scenario to {}", opts.artifact);
        }
        return Err(Stop::Failed(format!(
            "case #{} (seed {}) failed: {}\n\
             after {} shrink step(s): {}\n\
             minimal spec: {}",
            cx.case,
            cx.seed,
            cx.original_message,
            cx.shrink_steps,
            cx.message,
            cx.minimal.to_json()
        )));
    }
    if report.checked < opts.cases {
        // The attempt cap hit before the budget was met — the
        // generator's clean rate collapsed, which is itself a
        // regression worth failing on.
        return Err(Stop::Failed(format!(
            "only {} of {} analyzer-clean scenarios after {} attempts \
             ({} skipped) — generator domain regressed",
            report.checked, opts.cases, report.attempts, report.skipped
        )));
    }
    writeln!(
        out,
        "fuzz_smoke: {} scenarios checked ({} skipped as analyzer-flagged, \
         {} attempts, seed {:#x}) — no watchdog aborts, sanitizer-clean and \
         reproducible, model inside replicated 95% CIs",
        report.checked, report.skipped, report.attempts, opts.seed
    )?;
    Ok(())
}

fn main() -> ExitCode {
    cli::run(USAGE, fuzz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lognic_testkit::Gen;

    #[test]
    fn the_artifact_is_json_whatever_the_messages_hold() {
        let tricky = "quote\" backslash\\ newline\n tab\t control\u{1}";
        let cx = Counterexample {
            case: 3,
            seed: u64::MAX,
            original_message: format!("original: {tricky}"),
            minimal: ScenarioSpec::arbitrary(&mut Gen::new(7)),
            message: tricky.to_owned(),
            shrink_steps: 2,
        };
        let text = artifact(11, &cx);
        let doc = json::parse(&text).expect("the artifact parses");
        let field = |key| doc.get(key).and_then(json::Json::as_str);
        assert_eq!(field("harness"), Some(HARNESS));
        assert_eq!(
            field("original_message"),
            Some(cx.original_message.as_str())
        );
        assert_eq!(field("message"), Some(tricky));
        let spec = doc.get("minimal_spec").expect("the spec rides along");
        assert_eq!(spec, &json::parse(&cx.minimal.to_json()).unwrap());
    }

    fn parse(args: &[&str]) -> Result<Options, String> {
        read_options(&mut Flags::new(args.iter().map(|s| (*s).to_owned())))
            .map_err(|stop| stop.to_string())
    }

    #[test]
    fn flags_parse_and_bad_lines_are_refused() {
        let opts = parse(&["--cases", "8", "--seed", "7", "--artifact", "x.json"]).unwrap();
        assert_eq!(
            opts,
            Options {
                cases: 8,
                seed: 7,
                artifact: "x.json".to_owned(),
            }
        );
        assert_eq!(parse(&[]).unwrap().cases, 32);
        assert!(parse(&["--cases", "0"]).unwrap_err().contains("--cases"));
        assert!(parse(&["--cases", "-1"]).is_err());
        assert!(parse(&["--cases"]).unwrap_err().contains("needs a value"));
        // The retired sanitizer-only mode's flag is unknown now.
        let retired = concat!("--", "sanitize");
        assert_eq!(
            parse(&[retired]).unwrap_err(),
            format!("unknown argument `{retired}`")
        );
    }
}
