//! `fuzz_smoke`: the standing differential fuzz harness as a CI job.
//!
//! Generates seeded random scenarios (`lognic_workloads::corpus::gen`)
//! and drives each through the full correctness pipeline — static
//! analyzer, simulator, and the analytical model against a replicated
//! simulation:
//!
//! * analyzer-clean scenarios must simulate **without watchdog
//!   aborts** and deliver packets;
//! * the model's delivered throughput must land inside the
//!   simulation's replicated 95 % confidence interval (±3 % slack).
//!
//! Everything is deterministic and offline: a fixed default seed, no
//! wall-clock, no network. On failure the shrunk minimal
//! counterexample is written as a JSON artifact (replayable by hand
//! from its spec) and the process exits 1.
//!
//! With `--sanitize` the oracle swaps to the sanitized check: each
//! scenario runs under the runtime sanitizer with zero invariant
//! violations, its report byte-identical to a plain run, and its
//! audited event and RNG draw counts reproducible. (The
//! model-vs-replication CI stage is skipped in this mode — it gates
//! engine mechanics, not model fidelity.)
//!
//! ```text
//! fuzz_smoke [--cases N] [--seed S] [--artifact FILE] [--sanitize]
//! ```

use std::process::ExitCode;

use lognic_testkit::fuzz::Fuzz;
use lognic_workloads::corpus::gen::{
    differential_check, sanitized_differential_check, ScenarioSpec,
};

struct Options {
    cases: u32,
    seed: u64,
    artifact: String,
    sanitize: bool,
}

fn usage() -> ! {
    eprintln!("usage: fuzz_smoke [--cases N] [--seed S] [--artifact FILE] [--sanitize]");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        cases: 32,
        // Fixed default so CI runs are reproducible run-to-run; any
        // historical failure replays with --seed + the logged case.
        seed: 0x10_621C_F022,
        artifact: "fuzz-failure.json".to_owned(),
        sanitize: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
                eprintln!("fuzz_smoke: {} needs a value", args[i]);
                usage()
            })
        };
        // Value-taking flags consume two slots; boolean flags one.
        let mut took_value = true;
        match args[i].as_str() {
            "--cases" => opts.cases = value(i).parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = value(i).parse().unwrap_or_else(|_| usage()),
            "--artifact" => opts.artifact = value(i).to_owned(),
            "--sanitize" => {
                opts.sanitize = true;
                took_value = false;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("fuzz_smoke: unknown flag {other}");
                usage()
            }
        }
        i += if took_value { 2 } else { 1 };
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    let (harness, oracle): (&str, fn(&ScenarioSpec) -> _) = if opts.sanitize {
        ("sanitized_scenario_fuzz", sanitized_differential_check)
    } else {
        ("differential_scenario_fuzz", differential_check)
    };
    let report = Fuzz::new(harness).cases(opts.cases).seed(opts.seed).run(
        ScenarioSpec::arbitrary,
        ScenarioSpec::shrink,
        oracle,
    );

    match &report.counterexample {
        None => {
            if report.checked < opts.cases {
                // The attempt cap hit before the budget was met — the
                // generator's clean rate collapsed, which is itself a
                // regression worth failing on.
                eprintln!(
                    "fuzz_smoke: only {} of {} analyzer-clean scenarios after {} attempts \
                     ({} skipped) — generator domain regressed",
                    report.checked, opts.cases, report.attempts, report.skipped
                );
                return ExitCode::FAILURE;
            }
            let verdict = if opts.sanitize {
                "sanitizer-clean, passive and reproducible"
            } else {
                "no watchdog aborts, model inside replicated 95% CIs"
            };
            println!(
                "fuzz_smoke: {} scenarios checked ({} skipped as analyzer-flagged, \
                 {} attempts, seed {:#x}) — {verdict}",
                report.checked, report.skipped, report.attempts, opts.seed
            );
            ExitCode::SUCCESS
        }
        Some(cx) => {
            let artifact = format!(
                "{{\"harness\":\"{harness}\",\"base_seed\":{},\
                 \"case\":{},\"case_seed\":{},\"shrink_steps\":{},\
                 \"original_message\":{:?},\"message\":{:?},\"minimal_spec\":{}}}\n",
                opts.seed,
                cx.case,
                cx.seed,
                cx.shrink_steps,
                cx.original_message,
                cx.message,
                cx.minimal.to_json()
            );
            if let Err(e) = std::fs::write(&opts.artifact, &artifact) {
                eprintln!("fuzz_smoke: cannot write {}: {e}", opts.artifact);
            } else {
                eprintln!("fuzz_smoke: wrote failing scenario to {}", opts.artifact);
            }
            eprintln!(
                "fuzz_smoke: FAILED on case #{} (seed {}): {}\n\
                 after {} shrink step(s): {}\n\
                 minimal spec: {}",
                cx.case,
                cx.seed,
                cx.original_message,
                cx.shrink_steps,
                cx.message,
                cx.minimal.to_json()
            );
            ExitCode::FAILURE
        }
    }
}
