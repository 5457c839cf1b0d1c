//! Regenerates the paper's evaluation figures as plain-text tables.
//!
//! Usage:
//!
//! ```text
//! figures [--quick] all
//! figures [--quick] fig5 fig9 fig15
//! figures list
//! ```
//!
//! Exit status (`lognic_workloads::cli`): 0 on success, `help` or a
//! closed reader; 2 with `error: …` and the usage for a command-line
//! error (no figure, an unknown id or flag), before any figure runs.

use std::io::Write;
use std::process::ExitCode;

use lognic_bench::{ablation_ids, all_figure_ids, generate, Fidelity};
use lognic_workloads::cli::{self, Stop};

fn main() -> ExitCode {
    let usage = format!(
        "usage: figures [--quick] (all | ablations | list | <fig-id>...)\n\
         figures: {}\n\
         ablations: {}",
        all_figure_ids().join(" "),
        ablation_ids().join(" ")
    );
    cli::run(&usage, |flags, out| {
        let mut fidelity = Fidelity::Full;
        let mut args = Vec::new();
        for arg in flags {
            match arg.as_str() {
                "--quick" => fidelity = Fidelity::Quick,
                "help" | "--help" => return Err(Stop::Help),
                flag if flag.starts_with('-') => return Err(cli::unknown(flag)),
                _ => args.push(arg),
            }
        }
        let known: Vec<&str> = all_figure_ids().into_iter().chain(ablation_ids()).collect();
        let ids: Vec<&str> = match args.first().map(String::as_str) {
            None => return Err(Stop::Usage("no figure named".to_owned())),
            Some("list") => {
                for id in known {
                    writeln!(out, "{id}")?;
                }
                return Ok(());
            }
            Some("all") => all_figure_ids(),
            Some("ablations") => ablation_ids(),
            Some(_) => args.iter().map(String::as_str).collect(),
        };
        if let Some(id) = ids.iter().find(|id| !known.contains(id)) {
            return Err(Stop::Usage(format!(
                "unknown figure `{id}` (try `figures list`)"
            )));
        }
        for id in ids {
            let start = std::time::Instant::now();
            let table = generate(id, fidelity).expect("every listed id generates");
            writeln!(out, "{table}")?;
            eprintln!("[{} done in {:.1}s]", id, start.elapsed().as_secs_f64());
        }
        Ok(())
    })
}
