//! A shrink-capable fuzzing harness over structured values.
//!
//! [`Property`](crate::check::Property) replays failures by seed,
//! which is perfect for cheap scalar cases but leaves the burden of
//! *understanding* a failure on whoever replays it: a seed that builds
//! a ten-node execution graph with four fault windows says nothing
//! about which part matters. [`Fuzz`] closes that gap with
//! shrink-on-failure: when a generated value fails, the harness
//! greedily walks a caller-supplied shrink relation toward a local
//! minimum that *still fails*, and reports that minimal
//! counterexample alongside the original seed.
//!
//! The harness is generic over the generated type and knows nothing
//! about the workspace's models — the scenario-specific generator and
//! shrinker live in `lognic_workloads::corpus`. Like the rest of the
//! testkit, everything is deterministic: the same name, seed and case
//! budget always generate, check and shrink the same values.
//!
//! ```
//! use lognic_testkit::fuzz::{Fuzz, FuzzOutcome};
//!
//! // "All u64 vectors sum below 300" — false, and the minimal
//! // counterexample is a single element just over the bound.
//! let report = Fuzz::new("sum_below_300").cases(64).run(
//!     |g| g.vec(1..8, |g| g.u64(0..100)),
//!     |v| {
//!         let mut cands: Vec<Vec<u64>> = (0..v.len())
//!             .map(|i| {
//!                 let mut c = v.clone();
//!                 c.remove(i);
//!                 c
//!             })
//!             .collect();
//!         cands.extend((0..v.len()).filter(|&i| v[i] > 0).map(|i| {
//!             let mut c = v.clone();
//!             c[i] /= 2;
//!             c
//!         }));
//!         cands
//!     },
//!     |v| {
//!         let sum: u64 = v.iter().sum();
//!         if sum < 300 {
//!             FuzzOutcome::Pass
//!         } else {
//!             FuzzOutcome::Fail(format!("sum {sum} >= 300"))
//!         }
//!     },
//! );
//! let cx = report.counterexample.expect("property is false");
//! assert!(cx.minimal.iter().sum::<u64>() >= 300);
//! ```

use std::path::Path;
use std::process::{Command, Output, Stdio};

use crate::check::fnv1a;
use crate::gen::Gen;
use crate::rng::splitmix64;

/// The verdict a checker returns for one generated value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuzzOutcome {
    /// The value satisfied the property.
    Pass,
    /// The value fell outside the property's domain (e.g. the static
    /// analyzer rejected the generated scenario). Skipped values do
    /// not count toward the checked-case budget; the harness generates
    /// replacements until the budget is met or the attempt cap hits.
    Skip(String),
    /// The value violated the property.
    Fail(String),
}

/// A failing value, shrunk to a local minimum that still fails.
#[derive(Debug, Clone)]
pub struct Counterexample<T> {
    /// Index of the failing generated case (0-based, counting every
    /// attempt including skips).
    pub case: u32,
    /// The case's generator seed — replays the *original* failure.
    pub seed: u64,
    /// The failure message of the originally generated value.
    pub original_message: String,
    /// The shrunk value: no candidate offered by the shrink relation
    /// still fails (or the step cap was reached).
    pub minimal: T,
    /// The failure message of the minimal value.
    pub message: String,
    /// Accepted shrink steps between the original and the minimum.
    pub shrink_steps: u32,
}

/// The result of a completed fuzz run.
#[derive(Debug, Clone)]
#[must_use = "a fuzz report carries the counterexample; check or assert it"]
pub struct FuzzReport<T> {
    /// The harness name the run was configured with.
    pub name: String,
    /// Values that passed the checker.
    pub checked: u32,
    /// Values skipped as out-of-domain.
    pub skipped: u32,
    /// Total generation attempts (checked + skipped + at most one
    /// failure).
    pub attempts: u32,
    /// The first failure, shrunk — `None` when every value passed.
    pub counterexample: Option<Counterexample<T>>,
}

impl<T> FuzzReport<T> {
    /// True when no generated value failed the property.
    pub fn is_ok(&self) -> bool {
        self.counterexample.is_none()
    }

    /// Panics with the minimal counterexample when the run failed,
    /// rendering the value with `render` (typically a JSON or Debug
    /// serialization the reader can replay).
    ///
    /// # Panics
    ///
    /// Panics when a counterexample exists, reporting the seed, the
    /// original and minimal failure messages, the shrink distance and
    /// the rendered minimal value.
    pub fn assert_ok(&self, render: impl Fn(&T) -> String) {
        if let Some(cx) = &self.counterexample {
            panic!(
                "fuzz '{}' failed on case #{} (seed {}): {}\n\
                 after {} shrink step(s) the minimal counterexample fails with: {}\n\
                 minimal counterexample:\n{}",
                self.name,
                cx.case,
                cx.seed,
                cx.original_message,
                cx.shrink_steps,
                cx.message,
                render(&cx.minimal)
            );
        }
    }
}

/// A named, seeded fuzzing schedule.
///
/// `cases` is a budget of *checked* values: skipped values trigger
/// replacement generation (up to an attempt cap of 16× the budget) so
/// that a noisy out-of-domain rate cannot silently erode coverage.
#[derive(Debug, Clone)]
pub struct Fuzz {
    name: String,
    cases: u32,
    seed: u64,
}

/// Accepted shrink steps per failure before the walk stops.
const MAX_SHRINK_STEPS: u32 = 256;

impl Fuzz {
    /// Creates a harness: 32 checked cases from a seed derived from
    /// the name, at most 256 accepted shrink steps per failure.
    pub fn new(name: &str) -> Self {
        Fuzz {
            name: name.to_owned(),
            cases: 32,
            seed: fnv1a(name.as_bytes()),
        }
    }

    /// Sets the checked-case budget.
    pub fn cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }

    /// Overrides the base seed (the default derives from the name).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the schedule: generate, check, and on the first failure
    /// shrink greedily — at each step the first failing candidate the
    /// shrink relation offers is adopted, until no candidate fails or
    /// the step cap is reached. Returns after the first (shrunk)
    /// failure; later cases are not attempted.
    pub fn run<T>(
        &self,
        generate: impl Fn(&mut Gen) -> T,
        shrink: impl Fn(&T) -> Vec<T>,
        check: impl Fn(&T) -> FuzzOutcome,
    ) -> FuzzReport<T> {
        let mut checked = 0u32;
        let mut skipped = 0u32;
        let mut attempts = 0u32;
        let attempt_cap = self.cases.saturating_mul(16).max(self.cases);
        let mut sm = self.seed;
        while checked < self.cases && attempts < attempt_cap {
            let case = attempts;
            let case_seed = splitmix64(&mut sm);
            attempts += 1;
            let value = generate(&mut Gen::new(case_seed));
            match check(&value) {
                FuzzOutcome::Pass => checked += 1,
                FuzzOutcome::Skip(_) => skipped += 1,
                FuzzOutcome::Fail(original_message) => {
                    let (minimal, message, shrink_steps) =
                        Self::shrink_failure(value, original_message.clone(), &shrink, &check);
                    return FuzzReport {
                        name: self.name.clone(),
                        checked,
                        skipped,
                        attempts,
                        counterexample: Some(Counterexample {
                            case,
                            seed: case_seed,
                            original_message,
                            minimal,
                            message,
                            shrink_steps,
                        }),
                    };
                }
            }
        }
        FuzzReport {
            name: self.name.clone(),
            checked,
            skipped,
            attempts,
            counterexample: None,
        }
    }

    /// Greedy descent: adopt the first still-failing shrink candidate,
    /// repeat from there.
    fn shrink_failure<T>(
        mut current: T,
        mut message: String,
        shrink: &impl Fn(&T) -> Vec<T>,
        check: &impl Fn(&T) -> FuzzOutcome,
    ) -> (T, String, u32) {
        let mut steps = 0u32;
        while steps < MAX_SHRINK_STEPS {
            let mut advanced = false;
            for candidate in shrink(&current) {
                if let FuzzOutcome::Fail(m) = check(&candidate) {
                    current = candidate;
                    message = m;
                    steps += 1;
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                break;
            }
        }
        (current, message, steps)
    }
}

/// One hostile `lognic serve` request line, drawn from ten attack
/// families: truncated JSON, unknown graph names, negative rates,
/// `NaN` rate literals, zero deadlines on costly kinds, oversized
/// sweeps, unknown fields, mistyped fields, depth bombs and raw
/// control-character garbage.
///
/// The testkit knows nothing about the service crate, so the
/// generator produces wire *strings*; the serve fuzz suite pipes them
/// through the loop and asserts every one is answered with a typed
/// error. Lines never contain a newline (one request per line is the
/// protocol's framing invariant) and generation is deterministic in
/// the [`Gen`] seed like everything else in the testkit.
pub fn malformed_request_line(g: &mut Gen) -> String {
    const KINDS: &[&str] = &[
        "estimate",
        "estimate_degraded",
        "analyze",
        "sweep",
        "simulate",
    ];
    const GRAPHS: &[&str] = &["nvmeof", "chaos", "switch-kv", "http2-mux"];
    match g.usize(0..10) {
        0 => {
            // Truncated JSON: a plausible request cut mid-document.
            let full = format!(
                "{{\"id\":{},\"kind\":\"{}\",\"graph\":\"{}\",\"rate_gbps\":{:.3}}}",
                g.u64(0..1000),
                g.pick(KINDS),
                g.pick(GRAPHS),
                g.f64(0.1..20.0)
            );
            let cut = g.usize(1..full.len());
            full[..cut].to_owned()
        }
        1 => format!(
            "{{\"kind\":\"{}\",\"graph\":\"no-such-graph-{}\"}}",
            g.pick(KINDS),
            g.u64(0..u64::MAX)
        ),
        2 => format!(
            "{{\"kind\":\"estimate\",\"graph\":\"{}\",\"rate_gbps\":-{:.3}}}",
            g.pick(GRAPHS),
            g.f64(0.001..100.0)
        ),
        3 => {
            // Non-finite rates: a bare NaN literal (invalid JSON) or
            // an overflowing exponent (parses to infinity, which a
            // strict number grammar must refuse).
            let literal = *g.pick(&["NaN", "-Infinity", "1e999"]);
            format!(
                "{{\"kind\":\"estimate\",\"graph\":\"{}\",\"rate_gbps\":{literal}}}",
                g.pick(GRAPHS)
            )
        }
        4 => format!(
            "{{\"kind\":\"{}\",\"graph\":\"{}\",\"deadline_ms\":0{}}}",
            g.pick(&["estimate", "sweep", "simulate"]),
            g.pick(GRAPHS),
            if *g.pick(&[true, false]) {
                ",\"fractions\":[0.5]"
            } else {
                ""
            }
        ),
        5 => {
            // Oversized sweep: far past any sane point cap.
            let n = g.usize(65..512);
            let mut fractions = String::new();
            for i in 0..n {
                if i > 0 {
                    fractions.push(',');
                }
                fractions.push_str(&format!("{:.2}", 0.1 + (i % 100) as f64 * 0.01));
            }
            format!(
                "{{\"kind\":\"sweep\",\"graph\":\"{}\",\"fractions\":[{fractions}]}}",
                g.pick(GRAPHS)
            )
        }
        6 => format!(
            "{{\"kind\":\"estimate\",\"graph\":\"{}\",\"bogus_field_{}\":1}}",
            g.pick(GRAPHS),
            g.u64(0..100)
        ),
        7 => {
            // Mistyped fields and non-object documents.
            (*g.pick(&[
                "{\"kind\":7,\"graph\":\"nvmeof\"}",
                "{\"kind\":\"estimate\",\"graph\":[\"nvmeof\"]}",
                "{\"kind\":\"simulate\",\"graph\":\"nvmeof\",\"seeds\":\"three\"}",
                "[\"estimate\",\"nvmeof\"]",
                "\"estimate\"",
                "42",
            ]))
            .to_owned()
        }
        8 => {
            // Depth bomb: nesting far past the parser's limit.
            let depth = g.usize(40..200);
            let mut s = String::with_capacity(2 * depth + 16);
            for _ in 0..depth {
                s.push('[');
            }
            s.push('1');
            for _ in 0..depth {
                s.push(']');
            }
            s
        }
        _ => {
            // Raw garbage: printable and control bytes, never '\n'.
            let len = g.usize(1..64);
            (0..len)
                .map(|_| {
                    let b = g.u32(1..127) as u8;
                    if b == b'\n' {
                        '\t'
                    } else {
                        b as char
                    }
                })
                .collect()
        }
    }
}

/// One seeded mutant of a well-formed `lognic serve` request line: the
/// wire arm of the fuzz harness. Where `malformed_request_line` draws
/// hostile lines from scratch, this arm starts from a line the service
/// answers (a golden corpus request, say) and changes one thing:
///
/// * one number becomes `0`, `-1`, `1e-300`, `1e300` or `1e400`;
/// * one array becomes 10,000 copies of its first element;
/// * one number is nested 200 arrays deep;
/// * one `"kind":"…"` value becomes a kind no one knows.
///
/// A line without the chosen mutation's target is nested 200 deep
/// whole. The testkit has no JSON parser: numbers and arrays are found
/// by a small lexer that skips strings, and kinds by their compact
/// `"kind":"` text. Mutants never contain a newline.
pub fn mutate_request_line(g: &mut Gen, line: &str) -> String {
    let (numbers, arrays) = number_and_array_spans(line);
    let kinds: Vec<Span> = line
        .match_indices("\"kind\":\"")
        .filter_map(|(i, key)| {
            let start = i + key.len() - 1;
            let len = line[start + 1..].find('"')?;
            Some((start, start + len + 2))
        })
        .collect();
    let splice =
        |(start, end): Span, with: &str| format!("{}{with}{}", &line[..start], &line[end..]);
    let nest = |value: &str| format!("{}{value}{}", "[".repeat(200), "]".repeat(200));
    match g.usize(0..4) {
        0 if !numbers.is_empty() => {
            let span = *g.pick(&numbers);
            let value = *g.pick(&["0", "-1", "1e-300", "1e300", "1e400"]);
            splice(span, value)
        }
        1 if !arrays.is_empty() => {
            let (start, end) = *g.pick(&arrays);
            let copies = vec![first_element(&line[start..end]); 10_000];
            splice((start, end), &format!("[{}]", copies.join(",")))
        }
        2 if !numbers.is_empty() => {
            let (start, end) = *g.pick(&numbers);
            splice((start, end), &nest(&line[start..end]))
        }
        3 if !kinds.is_empty() => {
            let span = *g.pick(&kinds);
            splice(span, &format!("\"no-such-kind-{}\"", g.u64(0..1000)))
        }
        _ => nest(line),
    }
}

/// A `start..end` byte span of a request line.
type Span = (usize, usize);

/// The byte spans of the numbers and of the arrays in a JSON line.
fn number_and_array_spans(line: &str) -> (Vec<Span>, Vec<Span>) {
    let b = line.as_bytes();
    let (mut numbers, mut arrays, mut open) = (Vec::new(), Vec::new(), Vec::new());
    let mut i = 0;
    while i < b.len() {
        let start = i;
        match b[i] {
            b'"' => i = string_end(b, i),
            b'[' => open.push(i),
            b']' => arrays.extend(open.pop().map(|s| (s, i + 1))),
            b'-' | b'0'..=b'9' => {
                while b
                    .get(i + 1)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    i += 1;
                }
                numbers.push((start, i + 1));
            }
            _ => {}
        }
        i += 1;
    }
    (numbers, arrays)
}

/// The first element of the JSON array `array` (brackets included),
/// or `1` when the array is empty.
fn first_element(array: &str) -> &str {
    let b = array.as_bytes();
    let (mut depth, mut i) = (0, 1);
    while i + 1 < b.len() {
        match b[i] {
            b'"' => i = string_end(b, i),
            b'[' | b'{' => depth += 1,
            b']' | b'}' => depth -= 1,
            b',' if depth == 0 => break,
            _ => {}
        }
        i += 1;
    }
    match array[1..i.min(b.len() - 1)].trim() {
        "" => "1",
        element => element,
    }
}

/// The index of the quote closing the string that opens at `b[i]`.
fn string_end(b: &[u8], mut i: usize) -> usize {
    i += 1;
    while i < b.len() && b[i] != b'"' {
        i += if b[i] == b'\\' { 2 } else { 1 };
    }
    i
}

/// The one thing an [`ArgvMutant`] changed in its base command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgvEdit {
    /// One flag's value became `0`, `-1`, `1e-300`, `1e300`, `1e400`,
    /// `NaN` or the empty string.
    Value,
    /// One flag's value was dropped.
    DropValue,
    /// One flag, with its value if it takes one, was given again at
    /// the end.
    Repeat,
    /// A flag no binary takes was added at the end.
    Unknown,
    /// Nothing in the arguments: the mutant runs with its standard
    /// output closed.
    CloseStdout,
}

/// One seeded mutant of a well-formed command line: the argv twin of
/// [`mutate_request_line`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArgvMutant {
    /// The arguments after the program name.
    pub args: Vec<String>,
    /// What changed.
    pub edit: ArgvEdit,
}

/// Values a mutant gives a flag. None parses as an integer above zero,
/// so a mutant never raises a count (`--cases`, `--threads`,
/// `--limit`): it can only refuse work or shrink it.
const ARGV_VALUES: &[&str] = &["0", "-1", "1e-300", "1e300", "1e400", "NaN", ""];

/// One seeded mutant of the command line `args` (program name
/// excluded), changing one [`ArgvEdit`] thing. An argument starting
/// `-` is a flag, and a flag followed by an argument that does not
/// start `--` takes that argument as its value. A command line without
/// the chosen edit's target gets an unknown flag instead.
pub fn mutate_argv(g: &mut Gen, args: &[&str]) -> ArgvMutant {
    let flags: Vec<usize> = (0..args.len())
        .filter(|&i| args[i].starts_with('-'))
        .collect();
    let valued: Vec<usize> = flags
        .iter()
        .copied()
        .filter(|&i| args.get(i + 1).is_some_and(|v| !v.starts_with("--")))
        .collect();
    let mut out: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
    let edit = match g.usize(0..5) {
        0 if !valued.is_empty() => {
            out[*g.pick(&valued) + 1] = (*g.pick(ARGV_VALUES)).to_owned();
            ArgvEdit::Value
        }
        1 if !valued.is_empty() => {
            out.remove(*g.pick(&valued) + 1);
            ArgvEdit::DropValue
        }
        2 if !flags.is_empty() => {
            let i = *g.pick(&flags);
            let end = if valued.contains(&i) { i + 2 } else { i + 1 };
            out.extend_from_within(i..end);
            ArgvEdit::Repeat
        }
        4 => ArgvEdit::CloseStdout,
        _ => {
            out.push(format!("--no-such-flag-{}", g.u64(0..1000)));
            ArgvEdit::Unknown
        }
    };
    ArgvMutant { args: out, edit }
}

/// Runs `program` on `args` in `dir`, with an empty standard input,
/// and checks the workspace's command-line contract: the process exits
/// 0, 1 or 2 and not by a signal, an exit 1 prints `error: `, and an
/// exit 2 prints `error: ` and a `usage:` line. With `closed_stdout`,
/// standard output is a pipe whose read end is closed before the
/// program starts, and the program must exit 0 with nothing on
/// standard error. Returns the output for further checks.
///
/// # Errors
///
/// Describes the broken rule, with the command line and its standard
/// error.
pub fn check_cli_contract(
    program: &Path,
    args: &[String],
    dir: &Path,
    closed_stdout: bool,
) -> Result<Output, String> {
    let mut command = Command::new(program);
    command
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if closed_stdout {
        let (reader, writer) = std::io::pipe().map_err(|e| format!("no pipe: {e}"))?;
        drop(reader);
        command.stdout(writer);
    }
    let out = command
        .output()
        .map_err(|e| format!("{} does not start: {e}", program.display()))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    let broken = |rule: &str| {
        Err(format!(
            "{} {args:?} (closed stdout: {closed_stdout}): {rule}, status {}\n{stderr}",
            program.display(),
            out.status
        ))
    };
    match out.status.code() {
        None => return broken("ended by a signal"),
        Some(code) if closed_stdout && (code != 0 || !stderr.is_empty()) => {
            return broken("a closed reader must end the run quietly with exit 0")
        }
        Some(0) => {}
        Some(1) if !stderr.contains("error: ") => return broken("exit 1 without `error: `"),
        Some(2) if !(stderr.contains("error: ") && stderr.contains("usage:")) => {
            return broken("exit 2 without `error: ` and a `usage:` line")
        }
        Some(1 | 2) => {}
        Some(_) => return broken("exit status outside 0, 1 and 2"),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_shrink(_: &u64) -> Vec<u64> {
        Vec::new()
    }

    #[test]
    fn passing_property_checks_full_budget() {
        let report = Fuzz::new("always_pass").cases(16).run(
            |g| g.u64(0..100),
            no_shrink,
            |_| FuzzOutcome::Pass,
        );
        assert!(report.is_ok());
        assert_eq!(report.checked, 16);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.attempts, 16);
        report.assert_ok(|v| v.to_string());
    }

    #[test]
    fn skips_are_replaced_until_budget_met() {
        // Half the domain is skipped; the harness still checks the
        // full budget by generating replacements.
        let report = Fuzz::new("skip_half").cases(16).run(
            |g| g.u64(0..100),
            no_shrink,
            |v| {
                if v % 2 == 0 {
                    FuzzOutcome::Skip("even".into())
                } else {
                    FuzzOutcome::Pass
                }
            },
        );
        assert!(report.is_ok());
        assert_eq!(report.checked, 16);
        assert!(report.skipped > 0);
        assert_eq!(report.attempts, report.checked + report.skipped);
    }

    #[test]
    fn attempt_cap_bounds_pathological_skip_rates() {
        let report = Fuzz::new("skip_all").cases(8).run(
            |g| g.u64(0..100),
            no_shrink,
            |_| FuzzOutcome::Skip("out of domain".into()),
        );
        assert!(report.is_ok());
        assert_eq!(report.checked, 0);
        assert_eq!(report.attempts, 8 * 16);
    }

    #[test]
    fn failure_shrinks_to_local_minimum() {
        // "All values are < 50": minimal counterexample is exactly 50
        // under a decrement-by-halving shrink relation.
        let report = Fuzz::new("below_fifty").cases(64).run(
            |g| g.u64(0..1000),
            |&v| {
                let mut c = Vec::new();
                if v > 0 {
                    c.push(v / 2);
                    c.push(v - 1);
                }
                c
            },
            |&v| {
                if v < 50 {
                    FuzzOutcome::Pass
                } else {
                    FuzzOutcome::Fail(format!("{v} >= 50"))
                }
            },
        );
        let cx = report.counterexample.as_ref().expect("property is false");
        assert_eq!(cx.minimal, 50, "greedy shrink should land on the boundary");
        assert!(cx.shrink_steps > 0);
        assert!(cx.message.contains("50"));
    }

    #[test]
    fn shrink_step_cap_is_respected() {
        // Every value fails and can always step down by one, so only
        // the cap stops the walk.
        let report = Fuzz::new("capped").cases(4).run(
            |g| g.u64(1000..2000),
            |&v| vec![v - 1],
            |&v| FuzzOutcome::Fail(format!("{v}")),
        );
        let cx = report.counterexample.expect("always fails");
        assert_eq!(cx.shrink_steps, MAX_SHRINK_STEPS);
        let original = cx.minimal + u64::from(MAX_SHRINK_STEPS);
        assert!((1000..2000).contains(&original), "{original}");
        assert_eq!(cx.message, cx.minimal.to_string());
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            Fuzz::new("det")
                .cases(8)
                .run(|g| g.u64(0..1_000_000), no_shrink, |_| FuzzOutcome::Pass)
        };
        let a = run();
        let b = run();
        assert_eq!(a.checked, b.checked);
        assert_eq!(a.attempts, b.attempts);
    }

    #[test]
    fn malformed_request_lines_are_single_line_and_deterministic() {
        let batch = |seed: u64| -> Vec<String> {
            let mut g = Gen::new(seed);
            (0..200).map(|_| malformed_request_line(&mut g)).collect()
        };
        let a = batch(7);
        assert_eq!(a, batch(7), "deterministic in the seed");
        assert_ne!(a, batch(8), "different seeds explore different lines");
        for line in &a {
            assert!(!line.is_empty());
            assert!(!line.contains('\n'), "framing invariant: {line:?}");
        }
        // All ten attack families appear within a modest budget.
        let truncated = a.iter().any(|l| l.starts_with('{') && !l.ends_with('}'));
        let unknown_graph = a.iter().any(|l| l.contains("no-such-graph-"));
        let negative = a.iter().any(|l| l.contains("\"rate_gbps\":-"));
        let nonfinite = a
            .iter()
            .any(|l| l.contains("NaN") || l.contains("Infinity") || l.contains("1e999"));
        let zero_deadline = a.iter().any(|l| l.contains("\"deadline_ms\":0"));
        let oversized = a.iter().any(|l| l.matches(',').count() > 64);
        assert!(
            truncated && unknown_graph && negative && nonfinite && zero_deadline && oversized,
            "families missing: truncated={truncated} unknown={unknown_graph} \
             negative={negative} nonfinite={nonfinite} deadline0={zero_deadline} \
             oversized={oversized}"
        );
    }

    #[test]
    fn wire_mutants_change_one_target() {
        let line = r#"{"id":6,"kind":"estimate_degraded","faults":[{"node":"ssd","kind":"drop","probability":0.1}],"retry":{"budget":3}}"#;
        let (numbers, arrays) = number_and_array_spans(line);
        let text: Vec<&str> = numbers.iter().map(|&(a, b)| &line[a..b]).collect();
        assert_eq!(text, ["6", "0.1", "3"]);
        assert_eq!(arrays.len(), 1);
        assert_eq!(
            first_element(&line[arrays[0].0..arrays[0].1]),
            r#"{"node":"ssd","kind":"drop","probability":0.1}"#
        );
        assert_eq!(first_element("[]"), "1");
        assert_eq!(first_element("[0.2, [1,2], 3]"), "0.2");

        let mutants: Vec<String> = {
            let mut g = Gen::new(3);
            (0..400)
                .map(|_| mutate_request_line(&mut g, line))
                .collect()
        };
        let mut g = Gen::new(3);
        assert_eq!(
            mutants,
            (0..400)
                .map(|_| mutate_request_line(&mut g, line))
                .collect::<Vec<_>>(),
            "deterministic in the seed"
        );
        assert!(mutants.iter().all(|m| !m.contains('\n') && m != line));
        let seen = |needle: &str| mutants.iter().any(|m| m.contains(needle));
        for value in ["\"id\":0,", ":-1}", "1e-300", "1e300", "1e400"] {
            assert!(seen(value), "no mutant sets a number to {value}");
        }
        assert!(seen(&"[".repeat(200)), "no nested mutant");
        assert!(seen("no-such-kind-"), "no unknown kind");
        assert!(
            mutants
                .iter()
                .any(|m| m.matches("\"ssd\"").count() == 10_000),
            "no 10,000-element array"
        );
        // A line with no target is nested whole.
        let mut g = Gen::new(1);
        let nested = mutate_request_line(&mut g, "not json");
        assert!(nested.starts_with(&"[".repeat(200)) && nested.contains("not json"));
    }

    #[test]
    fn argv_mutants_change_one_thing() {
        let base = [
            "simulate",
            "chaos",
            "--rate-gbps",
            "4",
            "--verify",
            "--ms",
            "10",
        ];
        let mut g = Gen::new(5);
        let mutants: Vec<ArgvMutant> = (0..400).map(|_| mutate_argv(&mut g, &base)).collect();
        let mut g = Gen::new(5);
        assert_eq!(
            mutants,
            (0..400)
                .map(|_| mutate_argv(&mut g, &base))
                .collect::<Vec<_>>(),
            "deterministic in the seed"
        );
        for m in &mutants {
            let n = m.args.len();
            match m.edit {
                ArgvEdit::Value => {
                    assert_eq!(n, base.len());
                    let changed: Vec<usize> = (0..n).filter(|&i| m.args[i] != base[i]).collect();
                    assert!([3, 6].contains(&changed[0]) && changed.len() == 1, "{m:?}");
                    assert!(ARGV_VALUES.contains(&m.args[changed[0]].as_str()));
                }
                ArgvEdit::DropValue => assert_eq!(n, base.len() - 1),
                ArgvEdit::Repeat => {
                    assert!(m.args[..base.len()] == base, "{m:?}");
                    assert!(["--rate-gbps 4", "--verify", "--ms 10"]
                        .contains(&m.args[base.len()..].join(" ").as_str()));
                }
                ArgvEdit::Unknown => assert!(m.args[n - 1].starts_with("--no-such-flag-")),
                ArgvEdit::CloseStdout => assert!(m.args == base),
            }
        }
        for edit in [
            ArgvEdit::Value,
            ArgvEdit::DropValue,
            ArgvEdit::Repeat,
            ArgvEdit::Unknown,
            ArgvEdit::CloseStdout,
        ] {
            assert!(mutants.iter().any(|m| m.edit == edit), "no {edit:?} mutant");
        }
        for value in ARGV_VALUES {
            assert!(value.parse::<u64>().map_or(true, |n| n == 0), "{value}");
        }
        // Without flags, only an unknown flag or a closed stdout apply.
        let mut g = Gen::new(1);
        assert!((0..50)
            .map(|_| mutate_argv(&mut g, &["list"]).edit)
            .all(|e| matches!(e, ArgvEdit::Unknown | ArgvEdit::CloseStdout)));
    }

    #[test]
    #[should_panic(expected = "minimal counterexample")]
    fn assert_ok_panics_with_rendered_minimum() {
        let report = Fuzz::new("always_fail").cases(1).run(
            |g| g.u64(0..10),
            no_shrink,
            |_| FuzzOutcome::Fail("nope".into()),
        );
        report.assert_ok(|v| format!("value = {v}"));
    }
}
