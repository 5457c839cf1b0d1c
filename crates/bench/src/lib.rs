//! # lognic-bench
//!
//! The benchmark harness that regenerates **every evaluation figure**
//! of the paper (Figs. 5–19): for each figure, the workload's scenario
//! is run through both the analytical model and the discrete-event
//! simulator, and the same rows/series the paper plots are printed,
//! together with the paper's anchor values for comparison.
//!
//! Run `cargo run -p lognic-bench --release --bin figures -- all` for
//! the full set, or pass figure ids (`fig5 fig9 …`). The cost of the
//! model evaluations and simulator runs behind the figures is tracked
//! by the `perf_baseline` binary in `BENCH_sim.json`.

#![warn(missing_docs)]

pub mod ablation;
pub mod e3_figs;
pub mod inline_figs;
pub mod nf_figs;
pub mod nvmeof_figs;
pub mod panic_figs;
pub mod table;

pub use table::{Fidelity, FigureTable};

use lognic_model::units::Seconds;
use lognic_sim::sim::SimConfig;

/// The simulation configuration used by the figure harness: a seeded
/// run of `full_ms` milliseconds (scaled by fidelity) with 20 % warmup.
pub fn sim_cfg(fidelity: Fidelity, full_ms: f64, seed: u64) -> SimConfig {
    let ms = fidelity.millis(full_ms);
    SimConfig {
        seed,
        duration: Seconds::millis(ms),
        warmup: Seconds::millis(ms * 0.2),
        ..SimConfig::default()
    }
}

/// Generates one figure by id (`"fig5"` … `"fig19"`).
///
/// Returns `None` for unknown ids.
pub fn generate(id: &str, fidelity: Fidelity) -> Option<FigureTable> {
    Some(match id {
        "fig5" => inline_figs::fig05(fidelity),
        "fig6" => nvmeof_figs::fig06(fidelity),
        "fig7" => nvmeof_figs::fig07(fidelity),
        "fig9" => inline_figs::fig09(fidelity),
        "fig10" => inline_figs::fig10(fidelity),
        "fig11" => e3_figs::fig11(fidelity),
        "fig12" => e3_figs::fig12(fidelity),
        "fig13" => nf_figs::fig13(fidelity),
        "fig14" => nf_figs::fig14(fidelity),
        "fig15" => panic_figs::fig15(fidelity),
        "fig16" => panic_figs::fig16(fidelity),
        "fig17" => panic_figs::fig17(fidelity),
        "fig18" => panic_figs::fig18(fidelity),
        "fig19" => panic_figs::fig19(fidelity),
        "ablation-queueing" => ablation::queueing_ablation(fidelity),
        "ablation-mixture" => ablation::mixture_ablation(fidelity),
        "baseline-models" => ablation::baseline_comparison(fidelity),
        _ => return None,
    })
}

/// All figure ids in paper order.
pub fn all_figure_ids() -> Vec<&'static str> {
    vec![
        "fig5", "fig6", "fig7", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
        "fig16", "fig17", "fig18", "fig19",
    ]
}

/// The reproduction's own ablation studies (DESIGN.md §5b).
pub fn ablation_ids() -> Vec<&'static str> {
    vec!["ablation-queueing", "ablation-mixture", "baseline-models"]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_figure_is_none() {
        assert!(generate("fig99", Fidelity::Quick).is_none());
        assert!(generate("", Fidelity::Quick).is_none());
    }

    #[test]
    fn cheap_figures_generate_rows() {
        // Quick-fidelity smoke for one representative (cheap) figure;
        // the full set is exercised by the binary and integration
        // tests in release mode.
        let id = "fig10";
        let t = generate(id, Fidelity::Quick).expect("known figure");
        assert!(!t.rows.is_empty(), "{id} produced no rows");
        assert!(!t.columns.is_empty());
    }

    #[test]
    fn all_ids_are_unique_and_complete() {
        let ids = all_figure_ids();
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
        assert_eq!(ids.len(), 14);
    }
}
