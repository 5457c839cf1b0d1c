//! Ablations of the reproduction's two modeling refinements:
//!
//! 1. **M/M/c/N vs the paper's Eq. 12 (M/M/1/N)** for multi-engine
//!    IPs: the single-server closed form charges queueing delay that
//!    `D` concurrent engines never exhibit.
//! 2. **Mixture queueing (Pollaczek–Khinchine correction) vs naive
//!    per-class weighting** for mixed packet sizes: a queued request
//!    waits behind the mixture, not behind its own class.
//!
//! Each ablation prints predicted-vs-simulated latency with and
//! without the refinement, quantifying why it was adopted.

use crate::sim_cfg;
use crate::table::{pct_err, Fidelity, FigureTable};
use lognic_model::extensions::{estimate_mixed, TrafficClass};
use lognic_model::graph::ExecutionGraph;
use lognic_model::latency::estimate_latency;
use lognic_model::params::{HardwareModel, IpParams, PacketSizeDist, TrafficProfile};
use lognic_model::queueing::Mm1n;
use lognic_model::units::{Bandwidth, Bytes};
use lognic_sim::sim::Simulation;

fn fast_hw() -> HardwareModel {
    HardwareModel::new(Bandwidth::gbps(100_000.0), Bandwidth::gbps(100_000.0))
}

/// Ablation 1: single-server Eq. 12 vs M/M/c/N on a 64-engine IP
/// (the SSD case) across loads.
pub fn queueing_ablation(f: Fidelity) -> FigureTable {
    let mut t = FigureTable::new(
        "ablation-queueing",
        "Eq.12 (M/M/1/N) vs M/M/c/N latency prediction for a 64-engine IP",
        &[
            "load", "sim us", "mmcn us", "mm1n us", "mmcn err", "mm1n err",
        ],
    );
    let engines = 64u32;
    let capacity = 256u32;
    let peak = Bandwidth::gbps(21.0);
    let g = ExecutionGraph::chain(
        "ssd-like",
        &[(
            "ip",
            IpParams::new(peak)
                .with_parallelism(engines)
                .with_queue_capacity(capacity),
        )],
    )
    .expect("valid chain");
    let size = Bytes::kib(4);
    // Per-request service on one engine: D · g / P.
    let service = engines as f64 * size.bits() as f64 / peak.as_bps();
    for load in [0.3, 0.5, 0.7, 0.85, 0.95] {
        let traffic = TrafficProfile::fixed(peak.scaled(load), size);
        // The model (with the refinement).
        let mmcn = estimate_latency(&g, &fast_hw(), &traffic)
            .expect("valid scenario")
            .mean()
            .as_secs();
        // The paper's literal Eq. 12: single virtual server.
        let single = Mm1n::new(load, capacity).expect("finite load");
        let mm1n = service + single.queueing_factor() * service;
        // Ground truth.
        let sim = Simulation::builder(&g, &fast_hw(), &traffic)
            .config(sim_cfg(f, 300.0, 77))
            .run()
            .expect("valid scenario")
            .latency
            .mean
            .as_secs();
        t.row([
            format!("{load:.2}"),
            format!("{:.1}", sim * 1e6),
            format!("{:.1}", mmcn * 1e6),
            format!("{:.1}", mm1n * 1e6),
            pct_err(mmcn, sim),
            pct_err(mm1n, sim),
        ]);
    }
    t.note(
        "Eq.12 treats the 64-channel device as one server and charges \
         ~rho/(1-rho) services of queueing at moderate load; the M/M/c/N \
         refinement (which reduces to Eq.12 at D=1) tracks the simulated \
         device within a few percent"
            .to_owned(),
    );
    t
}

/// Ablation 2: mixture queueing vs naive per-class weighting on a
/// 64 B / 1500 B mix.
pub fn mixture_ablation(f: Fidelity) -> FigureTable {
    let mut t = FigureTable::new(
        "ablation-mixture",
        "Mixture (PK-corrected) vs naive per-class queueing for mixed sizes",
        &[
            "load",
            "sim us",
            "mixture us",
            "naive us",
            "mixture err",
            "naive err",
        ],
    );
    let peak = Bandwidth::gbps(10.0);
    let g = ExecutionGraph::chain(
        "mix",
        &[("ip", IpParams::new(peak).with_queue_capacity(128))],
    )
    .expect("valid chain");
    let dist =
        PacketSizeDist::mix([(Bytes::new(64), 0.5), (Bytes::new(1500), 0.5)]).expect("valid");
    for load in [0.3, 0.5, 0.7, 0.85] {
        let traffic = TrafficProfile::new(peak.scaled(load), dist.clone());
        let mixture = estimate_latency(&g, &fast_hw(), &traffic)
            .expect("valid scenario")
            .mean()
            .as_secs();
        // Naive: the §3.7 interleaved-traffic combination, one
        // independent fixed-size class per size at the full rate.
        let classes: Vec<TrafficClass> = dist
            .entries()
            .iter()
            .map(|&(size, weight)| TrafficClass {
                graph: g.clone(),
                traffic: TrafficProfile::fixed(peak.scaled(load), size),
                weight,
            })
            .collect();
        let naive = estimate_mixed(&classes, &fast_hw())
            .expect("valid scenario")
            .latency
            .as_secs();
        let sim = Simulation::builder(&g, &fast_hw(), &traffic)
            .config(sim_cfg(f, 100.0, 79))
            .run()
            .expect("valid scenario")
            .latency
            .mean
            .as_secs();
        t.row([
            format!("{load:.2}"),
            format!("{:.2}", sim * 1e6),
            format!("{:.2}", mixture * 1e6),
            format!("{:.2}", naive * 1e6),
            pct_err(mixture, sim),
            pct_err(naive, sim),
        ]);
    }
    t.note(
        "small packets queue behind large ones: the naive per-class average \
         misses the hyperexponential service variability (kappa = E[S^2]/2E[S]^2) \
         and underpredicts increasingly with load"
            .to_owned(),
    );
    t
}

/// Ablation 3: prior models (Table 1 / §2.4) vs LogNIC on the inline
/// MD5 case study across packet sizes. LogCA sees one serialized
/// offload kernel; the classic Roofline sees one compute/memory pair;
/// neither sees the multi-kernel pipeline, the engine parallelism or
/// the traffic profile.
pub fn baseline_comparison(f: Fidelity) -> FigureTable {
    use lognic_devices::liquidio::{Accelerator, LiquidIo};
    use lognic_model::baselines::{LogCa, Roofline};
    use lognic_workloads::inline_accel::inline;

    let mut t = FigureTable::new(
        "baseline-models",
        "LogNIC vs LogCA vs Roofline throughput prediction (inline MD5)",
        &[
            "pktsize",
            "sim Gbps",
            "lognic Gbps",
            "logca Gbps",
            "roofline Gbps",
        ],
    );
    let accel = Accelerator::Md5;
    let spec = LiquidIo::accelerator(accel);
    // LogCA parameters characterized the way its methodology says: the
    // submission overhead is o+L, the host runs MD5 at ~2 Gb/s per
    // core, the engine accelerates ~9x at MTU.
    let logca = LogCa::new(
        lognic_model::units::Seconds::micros(1.0),
        lognic_model::units::Seconds::micros(2.35),
        lognic_model::units::Seconds::nanos(4.0),
        9.0,
    );
    // Roofline of the MD5 engine against the CMI.
    let roofline = Roofline::new(
        spec.peak_ops.as_per_sec(),
        lognic_devices::liquidio::Fabric::CoherentMemory.bandwidth(),
    );
    // Six NIC cores: the submission path (a kernel neither baseline
    // can see) binds at large packets.
    let cores = 6;
    for size in [64u64, 256, 512, 1024, 1500] {
        let size_b = lognic_model::units::Bytes::new(size);
        let s = inline(accel, cores, size_b, LiquidIo::line_rate());
        let lognic_pred = s
            .estimator()
            .throughput()
            .expect("valid")
            .attainable()
            .as_gbps();
        let sim = s.simulate(crate::sim_cfg(f, 40.0, 83)).throughput.as_gbps();
        let logca_pred = logca.throughput(size_b).as_gbps();
        // Roofline: ops at intensity = 1 op per packet-bits.
        let roof_ops = roofline.attainable_ops(1.0 / size_b.bits() as f64);
        let roof_pred = roof_ops * size_b.bits() as f64 / 1e9;
        t.row([
            size_b.to_string(),
            format!("{sim:.2}"),
            format!("{lognic_pred:.2}"),
            format!("{logca_pred:.2}"),
            format!("{roof_pred:.2}"),
        ]);
    }
    t.note(
        "LogCA serializes one offload kernel (no engine parallelism, no pipeline overlap) and collapses at small packets; the classic Roofline sees only the engine/fabric pair, missing the NIC-core submission stage that binds this 6-core configuration - only the multi-kernel, traffic-aware LogNIC graph tracks the measurement everywhere (the paper's 2.4 argument, quantified)"
            .to_owned(),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queueing_ablation_shows_mmcn_wins() {
        let t = queueing_ablation(Fidelity::Quick);
        assert_eq!(t.rows.len(), 5);
        // At moderate load, mm1n error far exceeds mmcn error: compare
        // the 0.50 row's error columns.
        let row = &t.rows[1];
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        assert!(
            parse(&row[4]) < parse(&row[5]),
            "mmcn {} should beat mm1n {}",
            row[4],
            row[5]
        );
    }

    #[test]
    fn baseline_comparison_shows_lognic_tracks_sim() {
        let t = baseline_comparison(Fidelity::Quick);
        assert_eq!(t.rows.len(), 5);
        // At 64 B LogNIC tracks the sim; LogCA is far off.
        let small = &t.rows[0];
        let sim: f64 = small[1].parse().unwrap();
        let lognic: f64 = small[2].parse().unwrap();
        let logca: f64 = small[3].parse().unwrap();
        assert!(
            (lognic - sim).abs() / sim < 0.10,
            "lognic {lognic} vs sim {sim}"
        );
        assert!(
            (logca - sim).abs() / sim > 0.5,
            "LogCA should miss badly at 64 B: {logca} vs {sim}"
        );
        // At MTU the cores bind: the engine-only Roofline overshoots.
        let mtu = &t.rows[4];
        let sim: f64 = mtu[1].parse().unwrap();
        let lognic: f64 = mtu[2].parse().unwrap();
        let roofline: f64 = mtu[4].parse().unwrap();
        assert!(
            (lognic - sim).abs() / sim < 0.10,
            "lognic {lognic} vs sim {sim}"
        );
        assert!(
            roofline > sim * 1.2,
            "Roofline should overshoot the core-bound regime: {roofline} vs {sim}"
        );
    }

    #[test]
    fn mixture_ablation_shows_pk_wins_at_load() {
        let t = mixture_ablation(Fidelity::Quick);
        let row = t.rows.last().unwrap(); // load 0.85
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        assert!(
            parse(&row[4]) < parse(&row[5]),
            "mixture {} should beat naive {}",
            row[4],
            row[5]
        );
    }
}
