//! Profile validation: every calibrated device profile, checked
//! through the static analyzer's diagnostic framework.
//!
//! Device numbers are hand-calibrated against the paper's anchors; a
//! typo'd bandwidth (zero via a bad formula, a unit slip) would
//! otherwise surface only as a confusing downstream estimate.
//! [`all_profile_diagnostics`] checks each device's [`HardwareModel`]
//! and reports **every** offender at once — one broken calibration
//! does not hide the next — as [`Diagnostic`]s
//! ([`profile_diagnostics`]) that render alongside the analyzer's
//! findings.

use lognic_model::analyze::{Code, Diagnostic, Span};
use lognic_model::params::HardwareModel;

use crate::bluefield::BlueField2;
use crate::liquidio::LiquidIo;
use crate::panic::Panic;
use crate::rmt_switch::RmtSwitch;
use crate::stingray::Stingray;

/// Every calibrated device profile, by name.
pub fn all_profiles() -> Vec<(&'static str, HardwareModel)> {
    vec![
        ("liquidio-ii", LiquidIo::hardware()),
        ("stingray", Stingray::hardware()),
        ("bluefield-2", BlueField2::hardware()),
        ("panic", Panic::hardware()),
        ("rmt-switch", RmtSwitch::hardware()),
    ]
}

/// The diagnostics a named hardware profile raises: one `L0401
/// degenerate-medium` finding per zero-bandwidth medium, attributed to
/// the device. An empty vector means the profile is sound.
pub fn profile_diagnostics(name: &str, hw: &HardwareModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (medium, bw) in [
        ("interface", hw.interface_bandwidth()),
        ("memory", hw.memory_bandwidth()),
    ] {
        if bw.is_zero() {
            out.push(
                Diagnostic::new(
                    Code::DegenerateMedium,
                    Span::Hardware { medium },
                    format!("device `{name}`: the shared {medium} has zero bandwidth"),
                )
                .with_help("re-derive the calibration; a zero medium starves every path"),
            );
        }
    }
    out
}

/// The diagnostics across every calibrated device profile (empty when
/// all calibrations are sound).
pub fn all_profile_diagnostics() -> Vec<Diagnostic> {
    all_profiles()
        .iter()
        .flat_map(|(name, hw)| profile_diagnostics(name, hw))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lognic_model::units::Bandwidth;

    #[test]
    fn all_calibrated_profiles_are_valid() {
        assert_eq!(all_profiles().len(), 5);
        let diags = all_profile_diagnostics();
        assert!(
            diags.is_empty(),
            "calibrated profiles must be sound: {diags:?}"
        );
    }

    #[test]
    fn profile_diagnostics_collect_every_degenerate_medium() {
        let broken = HardwareModel::new(Bandwidth::ZERO, Bandwidth::ZERO);
        let diags = profile_diagnostics("dead-nic", &broken);
        assert_eq!(diags.len(), 2, "both media reported, not just the first");
        for d in &diags {
            assert_eq!(d.code, Code::DegenerateMedium);
            assert!(d.is_denied());
            assert!(d.message.contains("dead-nic"));
        }
        let rendered: Vec<String> = diags.iter().map(|d| d.render_json()).collect();
        assert!(rendered[0].contains("interface"));
        assert!(rendered[1].contains("memory"));
    }
}
