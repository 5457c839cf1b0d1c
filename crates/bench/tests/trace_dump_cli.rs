//! `trace_dump` refuses numbers it cannot run with: a non-finite,
//! zero or negative `--millis` or `--dt-us`, one that rounds to 0 ps
//! or overflows the picosecond clock, and a zero `--ring-kib`, each
//! take the usage path (exit 2) instead of panicking or exporting an
//! empty run.

use std::process::{Command, Output};

fn trace_dump(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_dump"))
        .args(args)
        .output()
        .expect("trace_dump starts")
}

#[test]
fn bad_numbers_take_the_usage_path() {
    let cases: &[&[&str]] = &[
        &["--millis", "-5"],
        &["--millis", "nan"],
        &["--millis", "inf"],
        &["--millis", "0"],
        &["--millis", "1e-10"],
        &["--millis", "1e300"],
        &["--format", "csv", "--dt-us", "1e-9"],
        &["--format", "csv", "--dt-us", "1e300"],
        &["--format", "csv", "--dt-us", "0"],
        &["--format", "json", "--dt-us", "-1"],
        &["--format", "ring", "--ring-kib", "0"],
    ];
    for args in cases {
        let out = trace_dump(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: trace_dump"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} exported a run");
    }
}

#[test]
fn a_valid_short_run_exports_its_timeline() {
    let out = trace_dump(&["--workload", "nvmeof", "--format", "csv", "--millis", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!out.stdout.is_empty());
    assert!(stderr.contains("run: "), "{stderr}");
    assert!(!stderr.contains("run: 0 events"), "{stderr}");
}
