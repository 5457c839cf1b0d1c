//! Chaos fault injection: an accelerator brownout (full outage, then
//! thermal throttling) hits the inline-acceleration pipeline mid-run
//! while NIC cores retry refused packets with exponential backoff.
//! The same plan feeds the model's availability-adjusted estimate,
//! and the run is bit-deterministic per seed.
//!
//! ```console
//! $ cargo run --release --example chaos_fault_injection
//! ```
use lognic::prelude::*;

fn main() -> LogNicResult<()> {
    let rate = Bandwidth::gbps(8.0);
    let cfg = SimConfig {
        duration: Seconds::millis(20.0),
        warmup: Seconds::millis(2.0),
        ..SimConfig::default()
    };

    // One brownout: dark for 1 ms at t = 4 ms, throttled to 30 % for
    // the following 2 ms, 6 retries with 50 µs base backoff.
    let chaos = accelerator_brownout(
        rate,
        Seconds::millis(4.0),
        Seconds::millis(1.0),
        Seconds::millis(2.0),
    );
    let report = chaos.try_simulate(cfg)?;
    let again = chaos.try_simulate(cfg)?;

    println!("=== accelerator brownout (outage 1 ms + throttle 2 ms) ===");
    println!("offered          = {}", report.offered);
    println!("delivered        = {}", report.throughput);
    println!("loss rate        = {:.4}", report.loss_rate());
    println!("retries          = {}", report.retries);
    println!("p99 latency      = {}", report.latency.p99);
    println!("deterministic    = {}", report == again);

    // The model's availability-adjusted view of the same plan, which
    // the scenario carries.
    let plan = chaos.faults.as_ref().expect("the brownout ships its plan");
    let est = chaos
        .estimator()
        .request()
        .with_faults(plan, cfg.duration)
        .evaluate()?;
    let degraded = est.degraded.expect("fault plan produces a degraded view");
    println!("model availability    = {:.4}", degraded.availability);
    println!("model retry inflation = {:.4}", degraded.retry_inflation);
    println!("model goodput         = {}", degraded.goodput);

    // The chaos sweep: outage duty cycle vs tail latency and loss.
    println!();
    println!("=== duty-cycle sweep ===");
    println!("duty   p99           loss     retries");
    for p in duty_cycle_sweep(rate, &[0.0, 0.1, 0.25, 0.5], cfg)? {
        println!(
            "{:<6} {:<13} {:<8.4} {}",
            p.duty_cycle,
            p.p99.to_string(),
            p.loss_rate,
            p.retries
        );
    }
    Ok(())
}
