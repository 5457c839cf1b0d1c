//! The command-line contract every binary of the workspace keeps.
//!
//! Each binary's `main` is one call to [`run`], which hands the command
//! its arguments as [`Flags`] and stdout as a fallible writer, and maps
//! the command's result to the exit status: 0 for success or a closed
//! reader; 1 with `error: …` when the command fails after its command
//! line was accepted; 2 with `error: …` and the usage for a command-line
//! error. A `--help`, where a binary takes one, prints the usage and
//! exits 0. [`Flags`] checks each value as it reads it, so command-line
//! errors surface before any work starts and no value reaches a panic.

use std::fmt;
use std::io::{self, Write};
use std::process::ExitCode;
use std::str::FromStr;

use lognic_model::error::LogNicError;
use lognic_model::units::Seconds;
use lognic_sim::time::SimTime;

use crate::registry::{self, RegistryEntry};

/// Why a command stopped before it finished.
#[derive(Debug)]
pub enum Stop {
    /// The command line is wrong: `error: …` and the usage, exit 2.
    Usage(String),
    /// The accepted command failed: `error: …`, exit 1.
    Failed(String),
    /// The command line asked for the usage: the usage, exit 0.
    Help,
    /// Writing stdout failed: exit 0 quietly for a closed reader, else 1.
    Write(io::Error),
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Self {
        Stop::Write(e)
    }
}

impl From<LogNicError> for Stop {
    fn from(e: LogNicError) -> Self {
        Stop::Failed(e.to_string())
    }
}

impl fmt::Display for Stop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stop::Usage(message) | Stop::Failed(message) => f.write_str(message),
            Stop::Help => f.write_str("usage requested"),
            Stop::Write(e) => write!(f, "writing output: {e}"),
        }
    }
}

/// Runs `command` on the process's arguments and stdout under the
/// [module](self) contract; `usage` is the binary's usage text. Stdout
/// is flushed after a failure too, so partial output reaches its reader.
pub fn run(
    usage: &str,
    command: impl FnOnce(&mut Flags, &mut io::StdoutLock<'static>) -> Result<(), Stop>,
) -> ExitCode {
    let mut out = io::stdout().lock();
    let done = std::env::args_os()
        .skip(1)
        .map(|arg| {
            arg.into_string()
                .map_err(|arg| Stop::Usage(format!("argument {arg:?} is not UTF-8")))
        })
        .collect::<Result<Vec<String>, Stop>>()
        .and_then(|args| command(&mut Flags::new(args), &mut out));
    let flushed = out.flush();
    match done.and_then(|()| Ok(flushed?)) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away: nobody is left to tell.
        Err(Stop::Write(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Stop::Help) => {
            eprintln!("{usage}");
            ExitCode::SUCCESS
        }
        Err(stop @ Stop::Usage(_)) => {
            eprintln!("error: {stop}\n{usage}");
            ExitCode::from(2)
        }
        Err(stop) => {
            eprintln!("error: {stop}");
            ExitCode::FAILURE
        }
    }
}

/// The arguments after the program name, read front to back; the
/// typed readers take the value after a flag, checked.
#[derive(Debug)]
pub struct Flags(std::vec::IntoIter<String>);

impl Iterator for Flags {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

impl Flags {
    /// Reads `args`, which excludes the program name.
    pub fn new(args: impl IntoIterator<Item = String>) -> Flags {
        Flags(args.into_iter().collect::<Vec<_>>().into_iter())
    }

    /// Succeeds when every argument has been read.
    pub fn end(&mut self) -> Result<(), Stop> {
        self.next().map_or(Ok(()), |arg| Err(unknown(&arg)))
    }

    /// The value after `flag`, whatever it is.
    pub fn value(&mut self, flag: &str) -> Result<String, Stop> {
        self.next()
            .ok_or_else(|| Stop::Usage(format!("{flag} needs a value")))
    }

    /// The value after `flag` as `check` reads it; `expected` names
    /// what `check` takes.
    fn checked<T>(
        &mut self,
        flag: &str,
        expected: &str,
        check: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, Stop> {
        let value = self.value(flag)?;
        check(&value).ok_or_else(|| Stop::Usage(format!("{flag} `{value}`: expected {expected}")))
    }

    /// The value after `flag` as an unsigned integer.
    pub fn integer<T: FromStr>(&mut self, flag: &str) -> Result<T, Stop> {
        self.checked(flag, "an unsigned integer", |v| v.parse().ok())
    }

    /// The value after `flag` as an integer of at least 1: a count of
    /// work that must not be empty.
    pub fn nonzero<T: FromStr + Default + PartialEq>(&mut self, flag: &str) -> Result<T, Stop> {
        self.checked(flag, "a positive integer", |v| {
            v.parse().ok().filter(|n| *n != T::default())
        })
    }

    /// The value after `flag` as a finite, strictly positive number.
    pub fn positive(&mut self, flag: &str) -> Result<f64, Stop> {
        self.checked(flag, "a finite positive number", positive)
    }

    /// The value after `flag` as a span in the unit `unit` reads, that
    /// the picosecond clock holds: at least 1 ps once rounded, and at
    /// most [`SimTime::MAX`]. A zero span has nothing to run, and an
    /// overflowing one no clock to run on.
    pub fn clock_span(&mut self, flag: &str, unit: fn(f64) -> Seconds) -> Result<f64, Stop> {
        let span = format!("a span of 1 ps to {:.4e} s", SimTime::MAX.as_secs());
        self.checked(flag, &span, |v| {
            positive(v).filter(|&v| {
                SimTime::try_from_secs(unit(v).as_secs()).is_some_and(|t| t > SimTime::ZERO)
            })
        })
    }

    /// The value after `flag` as one of `choices`.
    pub fn choice(&mut self, flag: &str, choices: &[&'static str]) -> Result<&'static str, Stop> {
        let expected = format!("one of {}", choices.join("|"));
        self.checked(flag, &expected, |v| {
            choices.iter().find(|&&c| c == v).copied()
        })
    }
}

fn positive(value: &str) -> Option<f64> {
    value
        .parse()
        .ok()
        .filter(|v: &f64| v.is_finite() && *v > 0.0)
}

/// The [`registry`] entry named `name`.
pub fn workload(name: &str) -> Result<&'static RegistryEntry, Stop> {
    registry::find(name).ok_or_else(|| Stop::Usage(format!("unknown workload `{name}`")))
}

/// The usage error for an argument a binary does not take.
pub fn unknown(arg: &str) -> Stop {
    Stop::Usage(format!("unknown argument `{arg}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|a| (*a).to_owned()))
    }

    fn usage_error<T: fmt::Debug>(result: Result<T, Stop>) -> String {
        match result {
            Err(Stop::Usage(message)) => message,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn values_are_checked_as_they_are_read() {
        let mut f = flags(&["7", "3", "2.5", "1", "csv", "nvmeof"]);
        assert_eq!(f.integer::<u64>("--seed").unwrap(), 7);
        assert_eq!(f.nonzero::<u32>("--cases").unwrap(), 3);
        assert_eq!(f.positive("--rate").unwrap(), 2.5);
        assert_eq!(f.clock_span("--ms", Seconds::millis).unwrap(), 1.0);
        assert_eq!(f.choice("--format", &["chrome", "csv"]).unwrap(), "csv");
        assert_eq!(
            workload(&f.value("--workload").unwrap()).unwrap().name,
            "nvmeof"
        );
        assert_eq!(usage_error(f.value("--out")), "--out needs a value");
        assert!(f.next().is_none());
    }

    #[test]
    fn malformed_values_are_usage_errors() {
        for bad in ["", "-1", "1.5", "1e300", "NaN"] {
            assert!(usage_error(flags(&[bad]).integer::<u64>("--seed")).contains("--seed"));
        }
        assert_eq!(
            usage_error(flags(&["0"]).nonzero::<u32>("--cases")),
            "--cases `0`: expected a positive integer"
        );
        for bad in ["", "0", "-1", "NaN", "inf", "1e400"] {
            usage_error(flags(&[bad]).positive("--rate"));
        }
        // Under one tick of the clock once rounded, or past its end.
        for bad in ["1e-300", "1e-10", "1e300", "0", "NaN"] {
            usage_error(flags(&[bad]).clock_span("--ms", Seconds::millis));
        }
        assert_eq!(
            usage_error(flags(&["xml"]).choice("--format", &["chrome", "csv"])),
            "--format `xml`: expected one of chrome|csv"
        );
        assert_eq!(
            usage_error(workload("inline-md5")),
            "unknown workload `inline-md5`"
        );
        assert_eq!(
            usage_error::<()>(Err(unknown("--x"))),
            "unknown argument `--x`"
        );
    }
}
