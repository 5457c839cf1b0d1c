//! The `lognic` command line resolves every workload through the one
//! registry, and refuses malformed numeric flags with an `error: …`
//! line and exit status 1, instead of panicking or casting them into a
//! different run. (`trace_dump`'s flags are pinned beside its binary,
//! in `crates/bench/tests/trace_dump_cli.rs`.)

use std::process::{Command, Output, Stdio};

use lognic::workloads::registry;

fn lognic(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lognic"))
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
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_lognic"))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("the lognic binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

#[test]
fn malformed_numeric_flags_are_refused() {
    for args in [
        ["estimate", "nvmeof", "--rate-gbps", "-1"],
        ["estimate", "nvmeof", "--seed", "1.5"],
        // Gigabit rates whose bit rate is past `f64`.
        ["estimate", "chaos", "--rate-gbps", "1e300"],
        ["simulate", "nvmeof", "--rate-gbps", "1e300"],
        ["simulate", "nvmeof", "--ms", "-5"],
        // Horizons past the picosecond clock, or under one tick of it.
        ["simulate", "nvmeof", "--ms", "1e300"],
        ["simulate", "nvmeof", "--ms", "1e-12"],
        // Flags and scenario names that no longer exist.
        ["estimate", "chaos", "--cores", "9"],
        ["estimate", "chaos", "--size", "1500"],
        ["estimate", "inline-md5", "--seed", "1"],
    ] {
        let out = lognic(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
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
