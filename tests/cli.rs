//! The `lognic` command line resolves every workload through the one
//! registry, and keeps the workspace's command-line contract
//! (`lognic_workloads::cli`): a malformed flag is refused with an
//! `error: …` line, the usage and exit status 2, instead of panicking
//! or casting it into a different run, and a closed stdout ends a
//! command quietly with exit 0. The argv fuzz arm checks that contract
//! on seeded mutants of every documented invocation. (The bench
//! binaries' arm is `crates/bench/tests/argv.rs`.)

use std::path::Path;
use std::process::{Command, Output};

use lognic::workloads::registry;
use lognic_testkit::fuzz::{check_cli_contract, mutate_argv, ArgvEdit};
use lognic_testkit::Gen;

fn lognic_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_lognic"))
}

fn lognic(args: &[&str]) -> Output {
    Command::new(lognic_bin())
        .args(args)
        .output()
        .expect("the lognic binary runs")
}

/// Runs `args`, asserts exit status 0, and returns standard output.
fn ok(args: &[&str]) -> String {
    let out = lognic(args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

#[test]
fn list_prints_the_registry_in_order() {
    let stdout = ok(&["list"]);
    let listed: Vec<&str> = stdout
        .lines()
        .map(|l| l.split_whitespace().next().unwrap_or(""))
        .collect();
    assert_eq!(listed, registry::names());
    for (line, entry) in stdout.lines().zip(registry::ALL) {
        assert!(line.ends_with(entry.provenance), "{line}");
    }
}

#[test]
fn every_registry_workload_estimates_simulates_and_draws() {
    for name in registry::names() {
        assert!(ok(&["estimate", name]).contains("scenario : "), "{name}");
        assert!(
            ok(&["estimate", name, "--rate-gbps", "0.5"]).contains("offered  : 500.000Mbps"),
            "--rate-gbps must re-offer {name}"
        );
        assert!(ok(&["dot", name]).contains("digraph"), "{name}");
        assert!(
            ok(&["simulate", name, "--ms", "1"]).contains("throughput: "),
            "{name}"
        );
    }
}

#[test]
fn simulate_runs_the_bundled_fault_plan() {
    let stdout = ok(&["simulate", "chaos", "--ms", "10"]);
    let faults = stdout
        .lines()
        .find(|l| l.starts_with("faults    : "))
        .unwrap_or_else(|| panic!("no fault line:\n{stdout}"));
    assert!(faults.contains("2 windows"), "{faults}");
    assert!(!faults.contains(" 0 retries"), "{faults}");
    // A workload without a plan prints no fault line.
    assert!(!ok(&["simulate", "dns-kv", "--ms", "1"]).contains("faults"));
}

#[test]
fn a_run_with_no_arrivals_measures_no_latency() {
    let stdout = ok(&["simulate", "nvmeof", "--rate-gbps", "1e-300", "--ms", "1"]);
    assert!(
        stdout.contains("latency   : no packet measured"),
        "{stdout}"
    );
}

/// The scenario line names the registry entry, not the name the
/// scenario was built under, which for most entries embeds its
/// default rate.
#[test]
fn the_scenario_line_names_the_registry_entry() {
    let stdout = ok(&["estimate", "nvmeof", "--rate-gbps", "2"]);
    assert!(
        stdout.starts_with("scenario : nvmeof\noffered  : 2.000Gbps\n"),
        "{stdout}"
    );
    let stdout = ok(&["simulate", "nvmeof", "--rate-gbps", "2", "--ms", "1"]);
    assert!(stdout.starts_with("scenario  : nvmeof\n"), "{stdout}");
}

/// A reader that goes away before `lognic` writes ends the command
/// quietly with exit status 0, instead of a panic on the broken pipe.
/// The child's stdout is a pipe whose read end is closed before it
/// starts, so its first write always fails.
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    for args in [&["list"][..], &["estimate", "nvmeof"], &["suggest"]] {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        check_cli_contract(lognic_bin(), &args, &std::env::temp_dir(), true)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn malformed_numeric_flags_are_refused() {
    for args in [
        &["estimate", "nvmeof", "--rate-gbps", "-1"][..],
        &["estimate", "nvmeof", "--seed", "1.5"],
        // Gigabit rates whose bit rate is past `f64`.
        &["estimate", "chaos", "--rate-gbps", "1e300"],
        &["simulate", "nvmeof", "--rate-gbps", "1e300"],
        &["simulate", "nvmeof", "--ms", "-5"],
        // Horizons past the picosecond clock, or under one tick of it.
        &["simulate", "nvmeof", "--ms", "1e300"],
        &["simulate", "nvmeof", "--ms", "1e-12"],
        // Flags and scenario names that no longer exist.
        &["estimate", "chaos", "--cores", "9"],
        &["estimate", "chaos", "--size", "1500"],
        &["estimate", "inline-md5", "--seed", "1"],
        // A malformed `serve` flag, refused before any request is read.
        &["serve", "--threads", "many"],
    ] {
        let out = lognic(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains("\nusage: lognic "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// Seeded mutants per documented invocation in the argv arm.
const MUTANTS: usize = 12;

/// The argv fuzz arm: seeded one-change mutants (an extreme or empty
/// flag value, a dropped value, a repeated or unknown flag, a closed
/// stdout) of every invocation the binary documents. Each run exits 0,
/// 1 or 2, never by a signal; a usage error prints `error:` and the
/// usage; a closed stdout ends quietly with exit 0. No mutant raises a
/// count or a horizon, so no run outgrows its documented base, and
/// `serve` reads an empty stdin.
#[test]
fn argv_mutants_keep_the_exit_contract() {
    let invocations: &[&[&str]] = &[
        &["list"],
        &["estimate", "dns-kv", "--rate-gbps", "2"],
        &[
            "simulate",
            "chaos",
            "--rate-gbps",
            "4",
            "--seed",
            "7",
            "--ms",
            "10",
        ],
        &["dot", "nvmeof"],
        &["suggest"],
        &["serve", "--threads", "2", "--deterministic"],
    ];
    let dir = std::env::temp_dir();
    let mut g = Gen::new(0x0A46_FC11);
    for base in invocations {
        let args: Vec<String> = base.iter().map(|a| (*a).to_owned()).collect();
        let out =
            check_cli_contract(lognic_bin(), &args, &dir, false).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(out.status.code(), Some(0), "{base:?}");
        // A run that writes nothing to stdout never meets its reader.
        let writes = !out.stdout.is_empty();
        // Mutants run until `MUTANTS` have, and one of them closed
        // stdout when the run writes there.
        let (mut ran, mut closed) = (0, !writes);
        while ran < MUTANTS || !closed {
            let m = mutate_argv(&mut g, base);
            let close = m.edit == ArgvEdit::CloseStdout;
            if close && !writes {
                continue;
            }
            check_cli_contract(lognic_bin(), &m.args, &dir, close)
                .unwrap_or_else(|e| panic!("{e}"));
            (ran, closed) = (ran + 1, closed || close);
        }
    }
}

#[test]
fn well_formed_flags_run() {
    let stdout = ok(&[
        "simulate",
        "dns-kv",
        "--rate-gbps",
        "2",
        "--seed",
        "7",
        "--ms",
        "2",
    ]);
    assert!(stdout.contains("offered   : 2.000Gbps"), "{stdout}");
}
