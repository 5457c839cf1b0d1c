//! The argv fuzz arm for the bench binaries: seeded one-change mutants
//! (`lognic_testkit::fuzz::mutate_argv`) of each binary's documented
//! invocations must keep the workspace's command-line contract
//! (`lognic_workloads::cli`). Every run exits 0, 1 or 2, never by a
//! signal; a usage error prints `error:` and the usage; a closed stdout
//! ends quietly with exit 0.
//!
//! Work is capped before anything spawns: no mutant raises a count or
//! a horizon, the bases run one fuzz case and one cheap figure (never
//! `figures all`), every run works in a fresh temporary directory with
//! `--out` and `--artifact` inside it, and `perf_baseline`, which
//! would measure for seconds and could rewrite a ledger, only runs
//! mutants that are usage errors.

use std::path::{Path, PathBuf};

use lognic_testkit::fuzz::{check_cli_contract, mutate_argv, ArgvEdit, ArgvMutant};
use lognic_testkit::Gen;

/// Seeded mutants per documented invocation.
const MUTANTS: usize = 8;

/// A temporary working directory, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("lognic-argv-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("a temporary directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn owned(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| (*a).to_owned()).collect()
}

/// Runs every documented invocation of `program`, then `MUTANTS`
/// mutants of each, under the contract.
fn fuzz_binary(name: &str, program: &str, invocations: &[&[&str]], seed: u64) {
    let dir = Scratch::new(name);
    let program = Path::new(program);
    let mut g = Gen::new(seed);
    for base in invocations {
        let out = check_cli_contract(program, &owned(base), &dir.0, false)
            .unwrap_or_else(|e| panic!("{e}"));
        assert_ne!(out.status.code(), Some(2), "{name} {base:?} is documented");
        // A run that writes nothing to stdout never meets its reader.
        let writes = !out.stdout.is_empty();
        // Mutants run until `MUTANTS` have, and one of them closed
        // stdout when the run writes there.
        let (mut ran, mut closed) = (0, !writes);
        while ran < MUTANTS || !closed {
            let ArgvMutant { args, edit } = mutate_argv(&mut g, base);
            let close = edit == ArgvEdit::CloseStdout;
            if close && !writes {
                continue;
            }
            check_cli_contract(program, &args, &dir.0, close).unwrap_or_else(|e| panic!("{e}"));
            (ran, closed) = (ran + 1, closed || close);
        }
    }
}

#[test]
fn figures_keeps_the_contract() {
    let invocations: &[&[&str]] = &[&["list"], &["--quick", "fig5"]];
    fuzz_binary("figures", env!("CARGO_BIN_EXE_figures"), invocations, 1);
}

#[test]
fn lognic_lint_keeps_the_contract() {
    let invocations: &[&[&str]] = &[
        &[],
        &["--set", "broken"],
        &["--deny", "warnings", "--json"],
        &["--deny", "L0202", "--allow", "starved-node"],
        &["--list"],
        &["--explain", "L0301"],
        &["--set", "broken", "--verify"],
    ];
    fuzz_binary("lint", env!("CARGO_BIN_EXE_lognic-lint"), invocations, 2);
}

#[test]
fn trace_dump_keeps_the_contract() {
    let invocations: &[&[&str]] = &[
        &["--workload", "nvmeof", "--format", "csv", "--millis", "1"],
        &["--out", "brownout.json"],
        &["--format", "ring", "--ring-kib", "4", "--millis", "1"],
    ];
    fuzz_binary("trace", env!("CARGO_BIN_EXE_trace_dump"), invocations, 3);
}

#[test]
fn fuzz_smoke_keeps_the_contract() {
    let invocations: &[&[&str]] = &[&[
        "--cases",
        "1",
        "--seed",
        "7",
        "--artifact",
        "fuzz-failure.json",
    ]];
    fuzz_binary("fuzz", env!("CARGO_BIN_EXE_fuzz_smoke"), invocations, 4);
}

/// `perf_baseline` runs only its usage-error mutants (a dropped value,
/// a repeated or an unknown flag), each refused with exit 2 before
/// anything is measured or written.
#[test]
fn perf_baseline_refuses_malformed_command_lines() {
    let dir = Scratch::new("perf");
    let program = Path::new(env!("CARGO_BIN_EXE_perf_baseline"));
    let base = ["--check", "--out", "fresh.json"];
    let mut g = Gen::new(5);
    let mut ran = 0;
    while ran < MUTANTS {
        let ArgvMutant { args, edit } = mutate_argv(&mut g, &base);
        if matches!(edit, ArgvEdit::Value | ArgvEdit::CloseStdout) {
            continue;
        }
        let out =
            check_cli_contract(program, &args, &dir.0, false).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        ran += 1;
    }
    let left: Vec<_> = std::fs::read_dir(&dir.0).unwrap().collect();
    assert!(left.is_empty(), "perf_baseline wrote {left:?}");
}
