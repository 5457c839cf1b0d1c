//! Domain-specific optimizer entry points for the paper's case
//! studies: each wraps a workload's scenario builder with the generic
//! search primitives and returns the configuration LogNIC suggests.

use crate::search::{golden_section, min_satisfying};
use lognic_model::units::{Bandwidth, Bytes, Seconds};
use lognic_workloads::microservices::{optimal_allocation, App, TOTAL_CORES};
use lognic_workloads::nf_placement::{self, Placement};
use lognic_workloads::panic_scenarios;

/// Case study #3: the NIC-core allocation for an E3 app (Figs. 11/12).
pub fn suggest_core_allocation(app: App) -> Vec<u32> {
    let costs: Vec<Seconds> = app.stages().into_iter().map(|(_, c)| c).collect();
    optimal_allocation(&costs, TOTAL_CORES)
}

/// Case study #3 extension: the NIC/host split for an E3 app — the
/// orchestrator's migration question, answered by the model instead of
/// E3's queue-length heuristic.
pub fn suggest_nic_host_split(app: App) -> Vec<bool> {
    lognic_workloads::microservices::optimal_split(app)
}

/// Case study #4: the NF placement for a packet size (Figs. 13/14).
pub fn suggest_placement(size: Bytes) -> Placement {
    nf_placement::optimal_for(size)
}

/// Case study #5, scenario 1: the minimal credit provision that keeps
/// the Model-1 chain's throughput within 0.5 % of the 8-credit default
/// (Fig. 15).
pub fn suggest_credits(sizes: &[u64], rate: Bandwidth) -> u32 {
    let reference = panic_scenarios::pipelined_chain(8, sizes, rate)
        .estimator()
        .throughput()
        .expect("valid scenario")
        .attainable();
    min_satisfying(1, 8, |credits| {
        panic_scenarios::pipelined_chain(credits, sizes, rate)
            .estimator()
            .throughput()
            .expect("valid scenario")
            .attainable()
            .as_bps()
            >= reference.as_bps() * 0.995
    })
}

/// Case study #5, scenario 2: the A2 traffic share minimizing the
/// model's mean latency (Figs. 16/17). A continuous search over the
/// `[0, 0.8]` split.
pub fn suggest_steering_split(size: Bytes, rate: Bandwidth) -> f64 {
    golden_section(
        |x| {
            panic_scenarios::steering(x, size, rate)
                .estimator()
                .latency()
                .expect("valid scenario")
                .mean()
                .as_secs()
        },
        0.0,
        0.8,
        1e-4,
    )
}

/// Case study #5, scenario 3: the minimal IP4 parallel degree
/// preserving throughput (Figs. 18/19).
pub fn suggest_ip4_degree(ip3_share: f64, size: Bytes, rate: Bandwidth) -> u32 {
    let reference = panic_scenarios::hybrid(8, ip3_share, size, rate)
        .estimator()
        .throughput()
        .expect("valid scenario")
        .attainable();
    min_satisfying(1, 8, |degree| {
        panic_scenarios::hybrid(degree, ip3_share, size, rate)
            .estimator()
            .throughput()
            .expect("valid scenario")
            .attainable()
            .as_bps()
            >= reference.as_bps() * 0.995
    })
}

/// Case study #1 helper: the NIC-core parallelism that saturates the
/// inline path of a LiquidIO accelerator (Fig. 9's knee, found on the
/// model rather than read off the device profile).
pub fn suggest_inline_cores(accel: lognic_devices::liquidio::Accelerator, size: Bytes) -> u32 {
    use lognic_devices::liquidio::LiquidIo;
    use lognic_workloads::inline_accel::inline;
    let plateau = inline(accel, LiquidIo::CORES, size, LiquidIo::line_rate())
        .estimator()
        .throughput()
        .expect("valid scenario")
        .attainable();
    min_satisfying(1, LiquidIo::CORES, |cores| {
        inline(accel, cores, size, LiquidIo::line_rate())
            .estimator()
            .throughput()
            .expect("valid scenario")
            .attainable()
            .as_bps()
            >= plateau.as_bps() * (1.0 - 1e-9)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lognic_devices::liquidio::{Accelerator, LiquidIo};
    use lognic_workloads::microservices::pipeline_capacity;

    #[test]
    fn core_allocation_sums_and_beats_equal() {
        for app in App::ALL {
            let alloc = suggest_core_allocation(app);
            assert_eq!(alloc.iter().sum::<u32>(), TOTAL_CORES);
            let costs: Vec<Seconds> = app.stages().into_iter().map(|(_, c)| c).collect();
            let cap = pipeline_capacity(&costs, &alloc);
            assert!(cap > 0.0);
        }
    }

    #[test]
    fn nic_host_split_suggestion_is_valid() {
        for app in App::ALL {
            let split = suggest_nic_host_split(app);
            assert_eq!(split.len(), app.stages().len());
        }
    }

    #[test]
    fn placement_suggestions_flip_with_packet_size() {
        assert_eq!(suggest_placement(Bytes::new(64)), Placement::arm_only());
        assert_ne!(suggest_placement(Bytes::new(1500)), Placement::arm_only());
    }

    #[test]
    fn credit_suggestions_match_paper() {
        let rate = Bandwidth::gbps(100.0);
        let got: Vec<u32> = panic_scenarios::CREDIT_PROFILES
            .iter()
            .map(|sizes| suggest_credits(sizes, rate))
            .collect();
        assert_eq!(got, vec![5, 4, 4, 4]);
    }

    #[test]
    fn steering_split_balances_capacity() {
        let x = suggest_steering_split(Bytes::new(512), Bandwidth::gbps(80.0));
        // Proportional split of the 80 % across the 7:3 capacities.
        assert!((x - 0.56).abs() < 0.03, "x = {x}");
    }

    #[test]
    fn ip4_degree_suggestions_match_paper() {
        let rate = Bandwidth::gbps(80.0);
        assert_eq!(suggest_ip4_degree(0.5, Bytes::new(1024), rate), 6);
        assert_eq!(suggest_ip4_degree(0.8, Bytes::new(1024), rate), 4);
    }

    #[test]
    fn inline_cores_match_device_anchor() {
        let mtu = Bytes::new(1500);
        for accel in [Accelerator::Md5, Accelerator::Kasumi, Accelerator::Hfa] {
            assert_eq!(
                suggest_inline_cores(accel, mtu),
                LiquidIo::cores_to_saturate(accel, mtu),
                "{}",
                accel.name()
            );
        }
    }
}
