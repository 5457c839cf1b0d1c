//! Chaos scenario: inline acceleration under an accelerator brownout.
//!
//! The robustness counterpart of the §4.2 case study: the same
//! LiquidIO-II bump-in-the-wire pipeline, but mid-run the accelerator
//! suffers a *brownout* — a short full outage (firmware reset)
//! followed by a window of degraded service (thermal throttling) —
//! while NIC cores retry refused packets with exponential backoff.
//! Used by the chaos-sweep experiment (EXPERIMENTS.md) to chart fault
//! duty cycle against tail latency and by CI's `chaos-smoke` job.

use crate::inline_accel;
use crate::scenario::Scenario;
use lognic_devices::liquidio::Accelerator;
use lognic_model::error::LogNicResult;
use lognic_model::fault::{FaultPlan, RetryPolicy};
use lognic_model::units::{Bandwidth, Bytes, Seconds};
use lognic_sim::sim::SimConfig;

/// The accelerator-brownout chaos scenario.
///
/// The MD5 inline-acceleration pipeline offered `rate` of 1500 B
/// packets; at `at` the accelerator goes dark for `outage`, then
/// serves at 30 % rate for `brownout` while it cools. NIC cores
/// retry refused packets up to 6 times with 50 µs base backoff. The
/// returned scenario carries that fault plan.
pub fn accelerator_brownout(
    rate: Bandwidth,
    at: Seconds,
    outage: Seconds,
    brownout: Seconds,
) -> Scenario {
    let scenario = inline_accel::inline(Accelerator::Md5, 8, Bytes::new(1500), rate);
    let dark_until = Seconds::new(at.as_secs() + outage.as_secs());
    let dim_until = Seconds::new(dark_until.as_secs() + brownout.as_secs());
    // Zero-length phases are simply absent from the plan (an empty
    // window would be rejected as invalid).
    let mut plan = FaultPlan::new().with_retry(RetryPolicy::new(6, Seconds::micros(50.0)));
    if outage.as_secs() > 0.0 {
        plan = plan.outage("accelerator", at, dark_until);
    }
    if brownout.as_secs() > 0.0 {
        plan = plan.degrade_rate("accelerator", 0.3, dark_until, dim_until);
    }
    Scenario {
        faults: Some(plan),
        ..scenario
    }
}

/// One point of the chaos sweep: outage duty cycle and the measured
/// p99 latency / loss under it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPoint {
    /// Fraction of the horizon the accelerator was fully dark.
    pub duty_cycle: f64,
    /// Measured 99th-percentile latency.
    pub p99: Seconds,
    /// Measured packet-loss fraction (after retries).
    pub loss_rate: f64,
    /// Retry attempts consumed.
    pub retries: u64,
}

/// Sweeps outage duty cycle against tail latency: for each fraction
/// in `duty_cycles`, schedules one outage of that share of the
/// horizon (centred after warmup) and measures the run.
///
/// # Errors
///
/// Propagates the first failing run's error.
pub fn duty_cycle_sweep(
    rate: Bandwidth,
    duty_cycles: &[f64],
    config: SimConfig,
) -> LogNicResult<Vec<ChaosPoint>> {
    let mut out = Vec::with_capacity(duty_cycles.len());
    for &duty in duty_cycles {
        let horizon = config.duration.as_secs();
        let outage = Seconds::new(horizon * duty);
        let start = Seconds::new(config.warmup.as_secs());
        let chaos = accelerator_brownout(rate, start, outage, Seconds::ZERO);
        let report = chaos.try_simulate(config)?;
        out.push(ChaosPoint {
            duty_cycle: duty,
            p99: report.latency.p99,
            loss_rate: report.loss_rate(),
            retries: report.retries,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            duration: Seconds::millis(20.0),
            warmup: Seconds::millis(2.0),
            ..SimConfig::default()
        }
    }

    #[test]
    fn brownout_run_is_deterministic_per_seed() {
        let chaos = accelerator_brownout(
            Bandwidth::gbps(8.0),
            Seconds::millis(4.0),
            Seconds::millis(1.0),
            Seconds::millis(2.0),
        );
        let a = chaos.simulate(cfg());
        let b = chaos.simulate(cfg());
        assert_eq!(a, b, "same seed, same bits");
        assert!(a.retries > 0, "the outage must trigger retries");
        assert_eq!(a.injected, a.completed + a.dropped, "conservation");
    }

    #[test]
    fn deeper_brownouts_hurt_more() {
        let shallow = accelerator_brownout(
            Bandwidth::gbps(8.0),
            Seconds::millis(4.0),
            Seconds::millis(0.5),
            Seconds::millis(1.0),
        )
        .simulate(cfg());
        let deep = accelerator_brownout(
            Bandwidth::gbps(8.0),
            Seconds::millis(4.0),
            Seconds::millis(4.0),
            Seconds::millis(8.0),
        )
        .simulate(cfg());
        assert!(
            deep.loss_rate() >= shallow.loss_rate(),
            "deep {} vs shallow {}",
            deep.loss_rate(),
            shallow.loss_rate()
        );
    }

    #[test]
    fn duty_cycle_sweep_is_monotone_in_loss() {
        let points = duty_cycle_sweep(Bandwidth::gbps(8.0), &[0.0, 0.2, 0.5], cfg()).unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].loss_rate, 0.0, "no fault, no loss");
        assert!(
            points[2].loss_rate > points[1].loss_rate,
            "longer outages lose more: {points:?}"
        );
    }
}
