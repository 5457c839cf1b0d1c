//! `lognic-service`: the hardened capacity-planning service behind
//! `lognic serve`.
//!
//! A JSON-lines request/response loop over arbitrary `BufRead`/
//! `Write` streams (stdin/stdout in `lognic serve`), evaluating
//! estimate, degraded-estimate, analysis, sweep and simulation
//! queries against the named workload registry — wrapped in a
//! robustness envelope:
//!
//! * **admission control** — every evaluating request passes the
//!   static analyzer; `Deny`-level findings refuse it with the full
//!   `L0xxx` diagnostics attached;
//! * **deadlines and budgets** — a declared `deadline_ms` is checked
//!   at admission against the deterministic cost model and converted
//!   into a simulation event budget, so nothing outlives its
//!   deadline or stalls (the watchdog answers instead);
//! * **overload protection** — a logical in-flight gauge sheds past
//!   its high-water mark with a deterministic `retry_after_ms` hint;
//! * **fault isolation** — a panic inside evaluation is contained to
//!   its request and answered as a typed `internal` error;
//! * **observability** — `health` and `stats` request kinds report
//!   counters and latency quantiles.
//!
//! Responses are byte-deterministic for identical request streams
//! (see the module docs in [`service`]), which is what the golden
//! transcript tests pin.

pub mod error;
pub mod request;
pub mod service;
pub mod shed;
pub mod stats;

pub use error::ServiceError;
pub use json::Json;
pub use lognic_model::json;
pub use request::{Request, RequestKind};
pub use service::{serve, ServeConfig, ServeSummary, Service};
pub use shed::LoadGauge;
pub use stats::ServiceStats;

use lognic_workloads::cli::{self, Flags, Stop};

/// Command-line options of the `lognic serve` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// The resulting service configuration.
    pub config: ServeConfig,
}

impl ServeOptions {
    /// Parses `serve` flags. Unknown flags are an error (a typo'd
    /// `--determinstic` silently running in wall-clock mode would
    /// corrupt a golden transcript).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending flag.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<ServeOptions, String> {
        Self::read(&mut Flags::new(args)).map_err(|stop| stop.to_string())
    }

    /// Reads `serve` flags to the end of `flags`, as `lognic serve`
    /// does: [`Stop::Help`] for `--help`, else [`Stop::Usage`] for an
    /// unknown flag or a missing or malformed value.
    pub fn read(flags: &mut Flags) -> Result<ServeOptions, Stop> {
        let mut config = ServeConfig::default();
        while let Some(flag) = flags.next() {
            match flag.as_str() {
                "--deterministic" => config.deterministic = true,
                "--allow-debug-panic" => config.allow_debug_panic = true,
                "--threads" => config.threads = flags.integer(&flag)?,
                "--high-water" => config.high_water = flags.integer(&flag)?,
                "--drain" => config.drain_per_request = flags.integer(&flag)?,
                "--max-line-bytes" => config.max_line_bytes = flags.integer(&flag)?,
                "--help" | "-h" => return Err(Stop::Help),
                other => return Err(cli::unknown(other)),
            }
        }
        Ok(ServeOptions { config })
    }

    /// The usage text `lognic serve` prints.
    pub fn usage() -> &'static str {
        "usage: lognic serve [--deterministic] [--threads N] [--high-water N] \
         [--drain N] [--max-line-bytes N] [--allow-debug-panic]\n\
         Reads one JSON request per line on stdin, writes one JSON response \
         per line on stdout."
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServeOptions, String> {
        ServeOptions::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults_and_flags_round_trip() {
        let o = parse(&[]).unwrap();
        assert!(!o.config.deterministic);
        assert_eq!(o.config.high_water, 64);
        let o = parse(&["--deterministic", "--threads", "4", "--high-water", "8"]).unwrap();
        assert!(o.config.deterministic);
        assert_eq!(o.config.threads, 4);
        assert_eq!(o.config.high_water, 8);
    }

    #[test]
    fn unknown_and_malformed_flags_are_refused() {
        assert!(parse(&["--determinstic"]).is_err(), "typos must not pass");
        assert!(parse(&["--threads"]).is_err(), "missing value");
        assert!(parse(&["--threads", "many"]).is_err(), "non-numeric value");
    }
}
