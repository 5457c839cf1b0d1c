//! Model parameters (Table 2 of the paper).
//!
//! LogNIC keeps four parameter categories: **hardware** (interface,
//! memory and IP-IP bandwidths — from specs or characterization),
//! **software** (per-node and per-edge execution behaviour — user
//! supplied or characterized), **traffic** (ingress rate and packet
//! size distribution) and **output** (the throughput/latency estimates,
//! which live in [`crate::estimate`]).

use crate::error::{LogNicError, LogNicResult};
use crate::units::{Bandwidth, Bytes, Seconds};

/// Hardware-category parameters: shared communication media of the
/// SmartNIC SoC (Fig. 2a).
///
/// # Examples
///
/// ```
/// use lognic_model::params::HardwareModel;
/// use lognic_model::units::Bandwidth;
///
/// let hw = HardwareModel::new(Bandwidth::gbps(50.0), Bandwidth::gbps(100.0));
/// assert_eq!(hw.interface_bandwidth().as_gbps(), 50.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareModel {
    bw_interface: Bandwidth,
    bw_memory: Bandwidth,
}

impl HardwareModel {
    /// Creates a hardware model from the interface (`BW_INTF`) and
    /// memory (`BW_MEM`) bandwidths.
    pub fn new(bw_interface: Bandwidth, bw_memory: Bandwidth) -> Self {
        HardwareModel {
            bw_interface,
            bw_memory,
        }
    }

    /// The aggregate on-chip interface bandwidth (`BW_INTF`).
    pub fn interface_bandwidth(&self) -> Bandwidth {
        self.bw_interface
    }

    /// The aggregate memory-subsystem bandwidth (`BW_MEM`).
    pub fn memory_bandwidth(&self) -> Bandwidth {
        self.bw_memory
    }

    /// Checks the model is usable as a simulation/estimation input: a
    /// zero-bandwidth medium starves every path that touches it,
    /// which is never a meaningful configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::InvalidProfile`] naming the offending
    /// medium.
    pub fn validate(&self) -> LogNicResult<()> {
        if self.bw_interface.is_zero() {
            return Err(LogNicError::InvalidProfile {
                component: "hardware model".into(),
                reason: "interface bandwidth is zero".into(),
            });
        }
        if self.bw_memory.is_zero() {
            return Err(LogNicError::InvalidProfile {
                component: "hardware model".into(),
                reason: "memory bandwidth is zero".into(),
            });
        }
        Ok(())
    }
}

impl Default for HardwareModel {
    /// A generous default (unconstrained media) useful in tests.
    fn default() -> Self {
        HardwareModel::new(Bandwidth::gbps(1000.0), Bandwidth::gbps(1000.0))
    }
}

/// Software-category parameters attached to an IP vertex.
///
/// * `peak` — the computing throughput `P_vi` of the node at its
///   configured parallelism (data it can absorb per second).
/// * `parallelism` — the parallelism degree `D_vi` (number of engines
///   concurrently serving requests).
/// * `queue_capacity` — `N_vi`, entries in the node's virtual shared
///   queue (M/M/1/N capacity).
/// * `overhead` — `O_i`, the computation-transfer overhead paid when
///   handing work to the *next* node (Fig. 3).
/// * `partition` — `γ_vi`, the multiplexing share of the physical IP
///   granted to this vertex (virtual-IP support, §3.7).
/// * `acceleration` — `A_i`, a what-if speedup knob on the kernel
///   (adopted from LogCA).
///
/// # Examples
///
/// ```
/// use lognic_model::params::IpParams;
/// use lognic_model::units::{Bandwidth, Seconds};
///
/// let p = IpParams::new(Bandwidth::gbps(20.0))
///     .with_parallelism(8)
///     .with_queue_capacity(64)
///     .with_overhead(Seconds::micros(1.0));
/// assert_eq!(p.parallelism(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpParams {
    peak: Bandwidth,
    parallelism: u32,
    queue_capacity: u32,
    overhead: Seconds,
    partition: f64,
    acceleration: f64,
    work_factor: f64,
}

impl IpParams {
    /// Creates parameters for a node with computing throughput `peak`
    /// (`P_vi`). Parallelism defaults to 1, queue capacity to 16,
    /// overhead to zero, partition and acceleration to 1.
    pub fn new(peak: Bandwidth) -> Self {
        IpParams {
            peak,
            parallelism: 1,
            queue_capacity: 16,
            overhead: Seconds::ZERO,
            partition: 1.0,
            acceleration: 1.0,
            work_factor: 1.0,
        }
    }

    /// Sets the work factor: the fraction of each request's data this
    /// IP actually computes on (e.g. 0.04 for a header-only stage on
    /// MTU packets). Values above 1 express per-request data
    /// amplification. Default 1.
    ///
    /// # Panics
    ///
    /// Panics if `work_factor` is not positive and finite.
    pub fn with_work_factor(mut self, work_factor: f64) -> Self {
        assert!(
            work_factor > 0.0 && work_factor.is_finite(),
            "work factor must be positive and finite, got {work_factor}"
        );
        self.work_factor = work_factor;
        self
    }

    /// Sets the parallelism degree `D_vi`.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism` is zero.
    pub fn with_parallelism(mut self, parallelism: u32) -> Self {
        assert!(parallelism > 0, "parallelism degree must be at least 1");
        self.parallelism = parallelism;
        self
    }

    /// Sets the queue capacity `N_vi`.
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity` is zero.
    pub fn with_queue_capacity(mut self, queue_capacity: u32) -> Self {
        assert!(queue_capacity > 0, "queue capacity must be at least 1");
        self.queue_capacity = queue_capacity;
        self
    }

    /// Sets the computation-transfer overhead `O_i`.
    pub fn with_overhead(mut self, overhead: Seconds) -> Self {
        self.overhead = overhead;
        self
    }

    /// Sets the node-partition share `γ_vi` ∈ (0, 1].
    ///
    /// # Panics
    ///
    /// Panics if `partition` is not in `(0, 1]`.
    pub fn with_partition(mut self, partition: f64) -> Self {
        assert!(
            partition > 0.0 && partition <= 1.0,
            "partition share must lie in (0, 1], got {partition}"
        );
        self.partition = partition;
        self
    }

    /// Sets the what-if acceleration factor `A_i` (> 0).
    ///
    /// # Panics
    ///
    /// Panics if `acceleration` is not positive and finite.
    pub fn with_acceleration(mut self, acceleration: f64) -> Self {
        assert!(
            acceleration > 0.0 && acceleration.is_finite(),
            "acceleration must be positive and finite, got {acceleration}"
        );
        self.acceleration = acceleration;
        self
    }

    /// The configured computing throughput `P_vi`.
    pub fn peak(&self) -> Bandwidth {
        self.peak
    }

    /// The node's effective capacity after partitioning and
    /// acceleration: `P_vi · γ_vi · A_i`.
    pub fn effective_peak(&self) -> Bandwidth {
        self.peak.scaled(self.partition * self.acceleration)
    }

    /// The parallelism degree `D_vi`.
    pub fn parallelism(&self) -> u32 {
        self.parallelism
    }

    /// The queue capacity `N_vi`, scaled by the partition share and
    /// kept at least 1.
    pub fn effective_queue_capacity(&self) -> u32 {
        ((self.queue_capacity as f64 * self.partition).floor() as u32).max(1)
    }

    /// The raw configured queue capacity `N_vi`.
    pub fn queue_capacity(&self) -> u32 {
        self.queue_capacity
    }

    /// The computation-transfer overhead `O_i`.
    pub fn overhead(&self) -> Seconds {
        self.overhead
    }

    /// The partition share `γ_vi`.
    pub fn partition(&self) -> f64 {
        self.partition
    }

    /// The acceleration factor `A_i`.
    pub fn acceleration(&self) -> f64 {
        self.acceleration
    }

    /// The work factor (fraction of request data computed on).
    pub fn work_factor(&self) -> f64 {
        self.work_factor
    }
}

/// Software-category parameters attached to an edge of the execution
/// graph.
///
/// * `delta` — `δ_e`, fraction of the total ingress volume `W` that
///   traverses this edge.
/// * `interface_fraction` — `α_e`, fraction of `W` this edge moves
///   across the shared interface.
/// * `memory_fraction` — `β_e`, fraction of `W` this edge moves across
///   the memory subsystem. `α`/`β` may exceed `δ` to fold an IP's
///   internal memory traffic into its ingress edge (§4.7).
/// * `dedicated_bandwidth` — `BW_mn`, an optional point-to-point
///   bandwidth limit between the two IPs.
///
/// # Examples
///
/// ```
/// use lognic_model::params::EdgeParams;
///
/// let e = EdgeParams::full().with_memory_fraction(1.0);
/// assert_eq!(e.delta(), 1.0);
/// assert_eq!(e.memory_fraction(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeParams {
    delta: f64,
    interface_fraction: f64,
    memory_fraction: f64,
    dedicated_bandwidth: Option<Bandwidth>,
    size_factor: f64,
}

impl EdgeParams {
    /// Creates edge parameters that carry fraction `delta` of the
    /// ingress volume over the interface (i.e. `α = δ`, `β = 0`).
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::InvalidParameter`] if `delta` ∉ `[0, 1]`.
    pub fn new(delta: f64) -> LogNicResult<Self> {
        if !(0.0..=1.0).contains(&delta) || delta.is_nan() {
            return Err(LogNicError::InvalidParameter {
                parameter: "delta",
                value: delta,
                constraint: "must lie in [0, 1]",
            });
        }
        Ok(EdgeParams {
            delta,
            interface_fraction: delta,
            memory_fraction: 0.0,
            dedicated_bandwidth: None,
            size_factor: 1.0,
        })
    }

    /// Edge parameters for an edge that carries the entire ingress
    /// volume over the interface (`δ = α = 1`, `β = 0`).
    pub fn full() -> Self {
        EdgeParams {
            delta: 1.0,
            interface_fraction: 1.0,
            memory_fraction: 0.0,
            dedicated_bandwidth: None,
            size_factor: 1.0,
        }
    }

    /// Sets the per-request size factor: data leaving over this edge
    /// is `size_factor ×` the arriving request size (compression < 1,
    /// decompression/expansion > 1). Downstream stages see the resized
    /// request. Default 1.
    ///
    /// # Panics
    ///
    /// Panics if `size_factor` is not positive and finite.
    pub fn with_size_factor(mut self, size_factor: f64) -> Self {
        assert!(
            size_factor > 0.0 && size_factor.is_finite(),
            "size factor must be positive and finite, got {size_factor}"
        );
        self.size_factor = size_factor;
        self
    }

    /// Sets the interface fraction `α_e` (≥ 0).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or NaN.
    pub fn with_interface_fraction(mut self, alpha: f64) -> Self {
        assert!(
            alpha >= 0.0 && alpha.is_finite(),
            "alpha must be finite and >= 0"
        );
        self.interface_fraction = alpha;
        self
    }

    /// Sets the memory fraction `β_e` (≥ 0).
    ///
    /// # Panics
    ///
    /// Panics if `beta` is negative or NaN.
    pub fn with_memory_fraction(mut self, beta: f64) -> Self {
        assert!(
            beta >= 0.0 && beta.is_finite(),
            "beta must be finite and >= 0"
        );
        self.memory_fraction = beta;
        self
    }

    /// Sets a dedicated IP-IP bandwidth `BW_mn` for this edge.
    pub fn with_dedicated_bandwidth(mut self, bw: Bandwidth) -> Self {
        self.dedicated_bandwidth = Some(bw);
        self
    }

    /// The data-transfer ratio `δ_e`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The interface medium usage `α_e`.
    pub fn interface_fraction(&self) -> f64 {
        self.interface_fraction
    }

    /// The memory medium usage `β_e`.
    pub fn memory_fraction(&self) -> f64 {
        self.memory_fraction
    }

    /// The dedicated IP-IP bandwidth, if any.
    pub fn dedicated_bandwidth(&self) -> Option<Bandwidth> {
        self.dedicated_bandwidth
    }

    /// The per-request size factor across this edge.
    pub fn size_factor(&self) -> f64 {
        self.size_factor
    }
}

/// The packet-size distribution `dist_size` of a traffic profile.
///
/// # Examples
///
/// ```
/// use lognic_model::params::PacketSizeDist;
/// use lognic_model::units::Bytes;
///
/// let mix = PacketSizeDist::mix([(Bytes::new(64), 1.0), (Bytes::new(1500), 1.0)]).unwrap();
/// assert!((mix.mean_size().as_f64() - 782.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PacketSizeDist {
    // Invariant: non-empty, weights positive and summing to 1.
    entries: Vec<(Bytes, f64)>,
}

impl PacketSizeDist {
    /// A distribution where every packet has the same size.
    pub fn fixed(size: Bytes) -> Self {
        PacketSizeDist {
            entries: vec![(size, 1.0)],
        }
    }

    /// A discrete mixture of packet sizes with the given relative
    /// weights. Weights are normalized to sum to 1.
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::InvalidWeights`] when the iterator is
    /// empty, any weight is non-positive, or the weights do not sum to
    /// a positive finite value.
    pub fn mix<I>(entries: I) -> LogNicResult<Self>
    where
        I: IntoIterator<Item = (Bytes, f64)>,
    {
        let entries: Vec<(Bytes, f64)> = entries.into_iter().collect();
        if entries.is_empty() {
            return Err(LogNicError::InvalidWeights {
                reason: "no packet sizes given".into(),
            });
        }
        if let Some((size, w)) = entries.iter().find(|(_, w)| !(w.is_finite() && *w > 0.0)) {
            return Err(LogNicError::InvalidWeights {
                reason: format!("weight {w} for size {size} is not positive and finite"),
            });
        }
        let total: f64 = entries.iter().map(|(_, w)| *w).sum();
        if !total.is_finite() || total <= 0.0 {
            return Err(LogNicError::InvalidWeights {
                reason: format!("weights sum to {total}"),
            });
        }
        let entries = entries.into_iter().map(|(s, w)| (s, w / total)).collect();
        Ok(PacketSizeDist { entries })
    }

    /// An equal-share mixture of the given sizes (the paper's PANIC
    /// profiles split bandwidth equally across flow sizes).
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::InvalidWeights`] when `sizes` is empty.
    pub fn equal_mix<I>(sizes: I) -> LogNicResult<Self>
    where
        I: IntoIterator<Item = Bytes>,
    {
        Self::mix(sizes.into_iter().map(|s| (s, 1.0)))
    }

    /// The weighted entries `(size, probability)`, probabilities
    /// summing to 1.
    pub fn entries(&self) -> &[(Bytes, f64)] {
        &self.entries
    }

    /// The mean packet size of the distribution.
    pub fn mean_size(&self) -> Bytes {
        let mean: f64 = self.entries.iter().map(|(s, w)| s.as_f64() * w).sum();
        Bytes::new(mean.round() as u64)
    }

    /// True when the distribution is a single fixed size.
    pub fn is_fixed(&self) -> bool {
        self.entries.len() == 1
    }
}

/// Traffic-category parameters: the offered load seen by the SmartNIC.
///
/// `ingress_bandwidth` is `BW_in` (the data serving rate to the NIC)
/// and `sizes` is `dist_size`. The ingress granularity `g_in` defaults
/// to the packet size but can be overridden for message-granular
/// programs (e.g. 4 KB NVMe commands).
///
/// # Examples
///
/// ```
/// use lognic_model::params::TrafficProfile;
/// use lognic_model::units::{Bandwidth, Bytes};
///
/// let t = TrafficProfile::fixed(Bandwidth::gbps(25.0), Bytes::new(1500));
/// assert_eq!(t.granularity_for(Bytes::new(1500)), Bytes::new(1500));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficProfile {
    ingress_bandwidth: Bandwidth,
    sizes: PacketSizeDist,
    granularity: Option<Bytes>,
}

impl TrafficProfile {
    /// A profile with the given ingress rate and packet-size
    /// distribution.
    pub fn new(ingress_bandwidth: Bandwidth, sizes: PacketSizeDist) -> Self {
        TrafficProfile {
            ingress_bandwidth,
            sizes,
            granularity: None,
        }
    }

    /// A fixed-packet-size profile.
    pub fn fixed(ingress_bandwidth: Bandwidth, size: Bytes) -> Self {
        Self::new(ingress_bandwidth, PacketSizeDist::fixed(size))
    }

    /// Overrides the ingress data-transfer granularity `g_in`.
    pub fn with_granularity(mut self, granularity: Bytes) -> Self {
        self.granularity = Some(granularity);
        self
    }

    /// Returns a copy with a different ingress rate (used by rate
    /// sweeps).
    pub fn at_rate(&self, ingress_bandwidth: Bandwidth) -> Self {
        let mut t = self.clone();
        t.ingress_bandwidth = ingress_bandwidth;
        t
    }

    /// The offered ingress rate `BW_in`.
    pub fn ingress_bandwidth(&self) -> Bandwidth {
        self.ingress_bandwidth
    }

    /// The packet-size distribution `dist_size`.
    pub fn sizes(&self) -> &PacketSizeDist {
        &self.sizes
    }

    /// The ingress granularity used for a packet of `packet_size`:
    /// the explicit override if set, otherwise the packet size itself.
    pub fn granularity_for(&self, packet_size: Bytes) -> Bytes {
        self.granularity.unwrap_or(packet_size)
    }

    /// The explicit granularity override, if any.
    pub fn granularity_override(&self) -> Option<Bytes> {
        self.granularity
    }

    /// Checks the profile is usable as a simulation/estimation input:
    /// the offered rate must be positive (a zero rate makes Poisson
    /// inter-arrival times infinite) and packet sizes must be
    /// non-zero, as must any granularity override.
    ///
    /// # Errors
    ///
    /// Returns [`LogNicError::InvalidProfile`] describing the
    /// violation.
    pub fn validate(&self) -> LogNicResult<()> {
        if self.ingress_bandwidth.is_zero() {
            return Err(LogNicError::InvalidProfile {
                component: "traffic profile".into(),
                reason: "ingress bandwidth is zero — no packets would ever arrive".into(),
            });
        }
        if self.sizes.entries().iter().any(|(s, _)| s.get() == 0) {
            return Err(LogNicError::InvalidProfile {
                component: "traffic profile".into(),
                reason: "packet-size distribution contains a zero-byte size".into(),
            });
        }
        if self.granularity == Some(Bytes::new(0)) {
            return Err(LogNicError::InvalidProfile {
                component: "traffic profile".into(),
                reason: "ingress granularity override is zero bytes".into(),
            });
        }
        Ok(())
    }

    /// The mean packet arrival rate in packets per second.
    pub fn mean_packet_rate(&self) -> f64 {
        let mean = self.sizes.mean_size();
        if mean.get() == 0 {
            return 0.0;
        }
        self.ingress_bandwidth.as_bps() / mean.bits() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_model_accessors() {
        let hw = HardwareModel::new(Bandwidth::gbps(50.0), Bandwidth::gbps(40.0));
        assert_eq!(hw.interface_bandwidth(), Bandwidth::gbps(50.0));
        assert_eq!(hw.memory_bandwidth(), Bandwidth::gbps(40.0));
        let d = HardwareModel::default();
        assert!(d.interface_bandwidth().as_gbps() >= 100.0);
    }

    #[test]
    fn ip_params_builder_chain() {
        let p = IpParams::new(Bandwidth::gbps(10.0))
            .with_parallelism(4)
            .with_queue_capacity(32)
            .with_overhead(Seconds::micros(2.0))
            .with_partition(0.5)
            .with_acceleration(2.0);
        assert_eq!(p.peak(), Bandwidth::gbps(10.0));
        assert_eq!(p.parallelism(), 4);
        assert_eq!(p.queue_capacity(), 32);
        assert_eq!(p.effective_queue_capacity(), 16);
        assert_eq!(p.overhead(), Seconds::micros(2.0));
        assert_eq!(p.partition(), 0.5);
        assert_eq!(p.acceleration(), 2.0);
        // effective = 10 * 0.5 * 2.0 = 10
        assert!((p.effective_peak().as_gbps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ip_params_effective_queue_capacity_floor_is_one() {
        let p = IpParams::new(Bandwidth::gbps(1.0))
            .with_queue_capacity(2)
            .with_partition(0.1);
        assert_eq!(p.effective_queue_capacity(), 1);
    }

    #[test]
    fn ip_params_work_factor() {
        let p = IpParams::new(Bandwidth::gbps(10.0));
        assert_eq!(p.work_factor(), 1.0);
        let p = p.with_work_factor(0.04);
        assert_eq!(p.work_factor(), 0.04);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn ip_params_rejects_zero_work_factor() {
        let _ = IpParams::new(Bandwidth::gbps(1.0)).with_work_factor(0.0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn ip_params_rejects_zero_parallelism() {
        let _ = IpParams::new(Bandwidth::gbps(1.0)).with_parallelism(0);
    }

    #[test]
    #[should_panic(expected = "(0, 1]")]
    fn ip_params_rejects_bad_partition() {
        let _ = IpParams::new(Bandwidth::gbps(1.0)).with_partition(0.0);
    }

    #[test]
    fn edge_params_defaults_alpha_to_delta() {
        let e = EdgeParams::new(0.4).unwrap();
        assert_eq!(e.delta(), 0.4);
        assert_eq!(e.interface_fraction(), 0.4);
        assert_eq!(e.memory_fraction(), 0.0);
        assert!(e.dedicated_bandwidth().is_none());
    }

    #[test]
    fn edge_params_rejects_out_of_range_delta() {
        assert!(EdgeParams::new(-0.1).is_err());
        assert!(EdgeParams::new(1.1).is_err());
        assert!(EdgeParams::new(f64::NAN).is_err());
        assert!(EdgeParams::new(0.0).is_ok());
        assert!(EdgeParams::new(1.0).is_ok());
    }

    #[test]
    fn edge_params_size_factor() {
        let e = EdgeParams::full();
        assert_eq!(e.size_factor(), 1.0);
        let e = e.with_size_factor(0.4);
        assert_eq!(e.size_factor(), 0.4);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn edge_params_rejects_zero_size_factor() {
        let _ = EdgeParams::full().with_size_factor(0.0);
    }

    #[test]
    fn edge_params_medium_overrides() {
        let e = EdgeParams::full()
            .with_interface_fraction(0.0)
            .with_memory_fraction(2.0) // internal traffic amplification (§4.7)
            .with_dedicated_bandwidth(Bandwidth::gbps(50.0));
        assert_eq!(e.interface_fraction(), 0.0);
        assert_eq!(e.memory_fraction(), 2.0);
        assert_eq!(e.dedicated_bandwidth(), Some(Bandwidth::gbps(50.0)));
    }

    #[test]
    fn dist_fixed_and_mean() {
        let d = PacketSizeDist::fixed(Bytes::new(64));
        assert!(d.is_fixed());
        assert_eq!(d.mean_size(), Bytes::new(64));
        assert_eq!(d.entries(), &[(Bytes::new(64), 1.0)]);
    }

    #[test]
    fn dist_mix_normalizes() {
        let d = PacketSizeDist::mix([(Bytes::new(64), 2.0), (Bytes::new(128), 2.0)]).unwrap();
        assert!((d.entries()[0].1 - 0.5).abs() < 1e-12);
        assert!((d.entries()[1].1 - 0.5).abs() < 1e-12);
        assert_eq!(d.mean_size(), Bytes::new(96));
    }

    #[test]
    fn dist_mix_rejects_bad_weights() {
        assert!(PacketSizeDist::mix([]).is_err());
        assert!(PacketSizeDist::mix([(Bytes::new(64), 0.0)]).is_err());
        assert!(PacketSizeDist::mix([(Bytes::new(64), -1.0)]).is_err());
        assert!(PacketSizeDist::mix([(Bytes::new(64), f64::INFINITY)]).is_err());
    }

    #[test]
    fn dist_equal_mix() {
        let d = PacketSizeDist::equal_mix([Bytes::new(64), Bytes::new(512)]).unwrap();
        assert_eq!(d.entries().len(), 2);
        assert!((d.entries()[0].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn traffic_profile_granularity() {
        let t = TrafficProfile::fixed(Bandwidth::gbps(10.0), Bytes::new(1500));
        assert_eq!(t.granularity_for(Bytes::new(1500)), Bytes::new(1500));
        assert_eq!(t.granularity_override(), None);
        let t = t.with_granularity(Bytes::kib(4));
        assert_eq!(t.granularity_for(Bytes::new(1500)), Bytes::kib(4));
    }

    #[test]
    fn traffic_profile_at_rate_preserves_shape() {
        let t = TrafficProfile::fixed(Bandwidth::gbps(10.0), Bytes::new(64))
            .with_granularity(Bytes::new(128));
        let t2 = t.at_rate(Bandwidth::gbps(5.0));
        assert_eq!(t2.ingress_bandwidth(), Bandwidth::gbps(5.0));
        assert_eq!(t2.granularity_override(), Some(Bytes::new(128)));
        assert_eq!(t2.sizes(), t.sizes());
    }

    #[test]
    fn hardware_model_validate() {
        assert!(HardwareModel::default().validate().is_ok());
        let e = HardwareModel::new(Bandwidth::ZERO, Bandwidth::gbps(1.0))
            .validate()
            .unwrap_err();
        assert!(matches!(e, LogNicError::InvalidProfile { .. }));
        assert!(e.to_string().contains("interface"));
        assert!(HardwareModel::new(Bandwidth::gbps(1.0), Bandwidth::ZERO)
            .validate()
            .is_err());
    }

    #[test]
    fn traffic_profile_validate() {
        let ok = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(64));
        assert!(ok.validate().is_ok());
        assert!(ok.at_rate(Bandwidth::ZERO).validate().is_err());
        let zero_size = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(0));
        assert!(zero_size.validate().is_err());
        let zero_gran = ok.with_granularity(Bytes::new(0));
        assert!(matches!(
            zero_gran.validate(),
            Err(LogNicError::InvalidProfile { component, .. }) if component == "traffic profile"
        ));
    }

    #[test]
    fn traffic_profile_packet_rate() {
        // 25 Gbps of 1500 B packets = 25e9 / 12000 pps.
        let t = TrafficProfile::fixed(Bandwidth::gbps(25.0), Bytes::new(1500));
        assert!((t.mean_packet_rate() - 25e9 / 12000.0).abs() < 1e-3);
    }
}
