//! The `lognic` command line refuses malformed numeric flags with an
//! `error: …` line and exit status 1, instead of panicking or casting
//! them into a different scenario. (`trace_dump`'s flags are pinned
//! beside its binary, in `crates/bench/tests/trace_dump_cli.rs`.)

use std::process::{Command, Output};

fn lognic(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lognic"))
        .args(args)
        .output()
        .expect("the lognic binary runs")
}

#[test]
fn malformed_numeric_flags_are_refused() {
    for args in [
        ["estimate", "inline-md5", "--cores", "0"],
        ["estimate", "inline-md5", "--cores", "17"],
        ["estimate", "inline-md5", "--rate-gbps", "-1"],
        ["estimate", "inline-md5", "--cores", "1.5"],
        ["estimate", "inline-md5", "--size", "-5"],
        ["estimate", "inline-md5", "--size", "0"],
        ["simulate", "nvmeof-rrd4k", "--ms", "-5"],
        // Horizons past the picosecond clock, or under one tick of it.
        ["simulate", "nvmeof-rrd4k", "--ms", "1e300"],
        ["simulate", "nvmeof-rrd4k", "--ms", "1e-12"],
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
    let out = lognic(&["estimate", "inline-md5", "--cores", "9", "--size", "1500"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("scenario : "));
}
