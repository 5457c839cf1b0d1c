//! Model extensions (§3.7): multi-tenant graph consolidation,
//! interleaved traffic profiles, and drop-aware delivered throughput.

use crate::error::{LogNicError, LogNicResult};
use crate::graph::ExecutionGraph;
use crate::latency::estimate_latency;
use crate::params::{HardwareModel, TrafficProfile};
use crate::throughput::estimate_throughput;
use crate::units::{Bandwidth, Seconds};

/// One tenant program sharing the SmartNIC (extension #1).
#[derive(Debug, Clone)]
pub struct Tenant {
    /// The tenant's execution graph. Node partitions (`γ_vi`) inside
    /// the graph express how physical IPs are shared.
    pub graph: ExecutionGraph,
    /// The tenant's share `w_Gi` of the aggregate ingress volume.
    pub weight: f64,
}

impl Tenant {
    /// Creates a tenant with the given traffic share.
    pub fn new(graph: ExecutionGraph, weight: f64) -> Self {
        Tenant { graph, weight }
    }
}

/// Per-tenant results of a consolidation.
#[derive(Debug, Clone)]
pub struct TenantEstimate {
    /// The tenant's program name.
    pub name: String,
    /// The tenant's attainable throughput (its share of the total).
    pub throughput: Bandwidth,
    /// The tenant's mean latency at its traffic share.
    pub latency: Seconds,
}

/// Whole-SmartNIC results of consolidating multiple tenants.
#[derive(Debug, Clone)]
pub struct ConsolidatedEstimate {
    /// Aggregate attainable ingress rate across all tenants.
    pub total_throughput: Bandwidth,
    /// Weighted mean latency `Σ w_Gi · T_Gi`.
    pub mean_latency: Seconds,
    /// Human-readable description of the binding component.
    pub bottleneck: String,
    /// Per-tenant breakdown, in input order.
    pub per_tenant: Vec<TenantEstimate>,
}

/// Consolidates multiple execution graphs sharing one SmartNIC
/// (§3.7, extension #1).
///
/// The aggregate volume `W` splits across tenants by their weights.
/// Shared media (interface, memory) see the *weighted* usage
/// `Σ w_Gi · α`; each tenant's node bounds see only its share of `W`.
/// Latency per tenant is evaluated at its share of the ingress rate,
/// and the overall latency is the weighted average.
///
/// # Errors
///
/// * [`LogNicError::InvalidWeights`] when the weights do not sum to 1
///   (±1e-6) or any weight is non-positive.
/// * Propagates estimation errors from the underlying models.
///
/// # Examples
///
/// ```
/// use lognic_model::extensions::{consolidate, Tenant};
/// use lognic_model::graph::ExecutionGraph;
/// use lognic_model::params::{HardwareModel, IpParams, TrafficProfile};
/// use lognic_model::units::{Bandwidth, Bytes};
///
/// # fn main() -> lognic_model::error::LogNicResult<()> {
/// let a = ExecutionGraph::chain("a", &[("ip", IpParams::new(Bandwidth::gbps(10.0)))])?;
/// let b = ExecutionGraph::chain("b", &[("ip", IpParams::new(Bandwidth::gbps(10.0)))])?;
/// let hw = HardwareModel::default();
/// let t = TrafficProfile::fixed(Bandwidth::gbps(40.0), Bytes::new(1500));
/// let est = consolidate(&[Tenant::new(a, 0.5), Tenant::new(b, 0.5)], &hw, &t)?;
/// // Each tenant is bound by its 10 Gb/s IP at half the load.
/// assert!((est.total_throughput.as_gbps() - 20.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn consolidate(
    tenants: &[Tenant],
    hw: &HardwareModel,
    aggregate: &TrafficProfile,
) -> LogNicResult<ConsolidatedEstimate> {
    if tenants.is_empty() {
        return Err(LogNicError::InvalidWeights {
            reason: "no tenants given".into(),
        });
    }
    let total_w: f64 = tenants.iter().map(|t| t.weight).sum();
    if (total_w - 1.0).abs() > 1e-6 {
        return Err(LogNicError::InvalidWeights {
            reason: format!("tenant weights sum to {total_w}, expected 1"),
        });
    }
    if let Some(t) = tenants
        .iter()
        .find(|t| !(t.weight > 0.0 && t.weight.is_finite()))
    {
        return Err(LogNicError::InvalidWeights {
            reason: format!(
                "tenant `{}` has non-positive weight {}",
                t.graph.name(),
                t.weight
            ),
        });
    }

    // Shared-medium bounds with weighted usage: BW / Σ_G w_G Σα_G.
    let mut shared_bounds: Vec<(String, Bandwidth)> = Vec::new();
    let alpha: f64 = tenants
        .iter()
        .map(|t| {
            t.weight
                * t.graph
                    .edges()
                    .iter()
                    .map(|e| e.params().interface_fraction())
                    .sum::<f64>()
        })
        .sum();
    if alpha > 0.0 {
        shared_bounds.push(("interface".into(), hw.interface_bandwidth() / alpha));
    }
    let beta: f64 = tenants
        .iter()
        .map(|t| {
            t.weight
                * t.graph
                    .edges()
                    .iter()
                    .map(|e| e.params().memory_fraction())
                    .sum::<f64>()
        })
        .sum();
    if beta > 0.0 {
        shared_bounds.push(("memory".into(), hw.memory_bandwidth() / beta));
    }

    // Per-tenant node/edge bounds, expressed as aggregate rates: a
    // tenant bound of B at its share w caps the aggregate at B / w.
    let mut per_tenant_limit: Vec<(String, Bandwidth)> = Vec::new();
    for t in tenants {
        let own_traffic = aggregate.at_rate(aggregate.ingress_bandwidth() * t.weight);
        let est = estimate_throughput(&t.graph, hw, &own_traffic)?;
        // Use the hardware saturation bound, not the offered load: the
        // consolidation decides admissible aggregate load.
        let (label, limit) = match est.saturation_bound() {
            Some(b) => (format!("{} of `{}`", b.component, t.graph.name()), b.limit),
            None => continue,
        };
        per_tenant_limit.push((label, limit / t.weight));
    }

    let mut all = shared_bounds;
    all.extend(per_tenant_limit);
    all.push(("offered load".into(), aggregate.ingress_bandwidth()));
    all.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite bounds"));
    let (bottleneck, total_throughput) = all[0].clone();

    // Per-tenant estimates at their traffic shares.
    let mut per_tenant = Vec::with_capacity(tenants.len());
    let mut mean_latency = Seconds::ZERO;
    for t in tenants {
        let own_rate = total_throughput * t.weight;
        let own_traffic = aggregate.at_rate(aggregate.ingress_bandwidth() * t.weight);
        let lat = estimate_latency(&t.graph, hw, &own_traffic)?;
        mean_latency += lat.mean().scaled(t.weight);
        per_tenant.push(TenantEstimate {
            name: t.graph.name().to_owned(),
            throughput: own_rate,
            latency: lat.mean(),
        });
    }

    Ok(ConsolidatedEstimate {
        total_throughput,
        mean_latency,
        bottleneck,
        per_tenant,
    })
}

/// One traffic class of an interleaved-traffic evaluation
/// (extension #2): a packet-size class may use its own execution
/// graph, because per-IP execution time, `δ` and `O_i` vary with size.
#[derive(Debug, Clone)]
pub struct TrafficClass {
    /// The graph handling this class.
    pub graph: ExecutionGraph,
    /// The class's traffic (rate = the class's share of ingress).
    pub traffic: TrafficProfile,
    /// The class weight from `dist_size`.
    pub weight: f64,
}

/// Combined estimate across interleaved traffic classes.
#[derive(Debug, Clone)]
pub struct MixedEstimate {
    /// `Σ dist_size · P_attainable`.
    pub throughput: Bandwidth,
    /// `Σ dist_size · T_attainable`.
    pub latency: Seconds,
    /// Per-class `(throughput, latency)` in input order.
    pub per_class: Vec<(Bandwidth, Seconds)>,
}

/// Evaluates interleaved traffic (§3.7, extension #2): each class is
/// estimated with its own graph and profile, then throughput and
/// latency combine as the `dist_size`-weighted averages of Eq. 3 and
/// Eq. 8.
///
/// # Errors
///
/// Returns [`LogNicError::InvalidWeights`] for an empty class list or
/// weights that do not sum to 1 (±1e-6); propagates estimation errors.
pub fn estimate_mixed(classes: &[TrafficClass], hw: &HardwareModel) -> LogNicResult<MixedEstimate> {
    if classes.is_empty() {
        return Err(LogNicError::InvalidWeights {
            reason: "no traffic classes given".into(),
        });
    }
    let total_w: f64 = classes.iter().map(|c| c.weight).sum();
    if (total_w - 1.0).abs() > 1e-6 {
        return Err(LogNicError::InvalidWeights {
            reason: format!("class weights sum to {total_w}, expected 1"),
        });
    }
    let mut throughput = Bandwidth::ZERO;
    let mut latency = Seconds::ZERO;
    let mut per_class = Vec::with_capacity(classes.len());
    for c in classes {
        let t = estimate_throughput(&c.graph, hw, &c.traffic)?;
        let l = estimate_latency(&c.graph, hw, &c.traffic)?;
        throughput = throughput + t.attainable() * c.weight;
        latency += l.mean().scaled(c.weight);
        per_class.push((t.attainable(), l.mean()));
    }
    Ok(MixedEstimate {
        throughput,
        latency,
        per_class,
    })
}

/// Drop-aware delivered throughput: the attainable rate (Eq. 4)
/// further reduced by finite-queue losses along each path.
///
/// Losses cascade: every node sees the rate already thinned by the
/// nodes upstream of it, so serially overloaded stages do not
/// double-charge the same lost packets. Utilization depends on rates,
/// not packet sizes (Eq. 11), so one pass serves every size class: the
/// delivered rate is the path-weighted sum of the cascaded rates,
/// capped by the Eq. 4 attainable rate. This is how the model
/// expresses the credit-sizing behaviour of §4.6 scenario #1 (too few
/// credits → drops → bandwidth loss).
///
/// # Errors
///
/// Propagates path-enumeration errors (none for builder-validated
/// graphs).
pub fn delivered_throughput(
    graph: &ExecutionGraph,
    hw: &HardwareModel,
    traffic: &TrafficProfile,
) -> LogNicResult<Bandwidth> {
    use crate::queueing::MmcN;
    use crate::throughput::effective_delta_in;

    let attainable = estimate_throughput(graph, hw, traffic)?.attainable();
    let mut delivered = 0.0;
    for path in &graph.paths()? {
        // Cascade the whole-graph-equivalent rate through the path's
        // compute nodes.
        let mut rate = traffic.ingress_bandwidth().as_bps();
        for node in &path.nodes {
            let Some(p) = graph.node(*node).params() else {
                continue;
            };
            let peak = p.effective_peak();
            if peak.is_zero() {
                rate = 0.0;
                break;
            }
            let load = effective_delta_in(graph, *node) * p.work_factor();
            if load <= 0.0 {
                continue;
            }
            let rho = rate * load / peak.as_bps();
            let q = MmcN::new(rho, p.parallelism(), p.effective_queue_capacity())
                .expect("finite non-negative utilization");
            rate *= 1.0 - q.blocking_probability();
        }
        delivered += path.weight * rate;
    }
    Ok(attainable.min(Bandwidth::bps(delivered)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::IpParams;
    use crate::units::Bytes;

    fn chain(name: &str, gbps: f64) -> ExecutionGraph {
        ExecutionGraph::chain(name, &[("ip", IpParams::new(Bandwidth::gbps(gbps)))]).unwrap()
    }

    fn chain_q(name: &str, gbps: f64, queue: u32) -> ExecutionGraph {
        ExecutionGraph::chain(
            name,
            &[(
                "ip",
                IpParams::new(Bandwidth::gbps(gbps)).with_queue_capacity(queue),
            )],
        )
        .unwrap()
    }

    #[test]
    fn consolidate_rejects_bad_weights() {
        let hw = HardwareModel::default();
        let t = TrafficProfile::fixed(Bandwidth::gbps(10.0), Bytes::new(1500));
        assert!(consolidate(&[], &hw, &t).is_err());
        let bad = [
            Tenant::new(chain("a", 1.0), 0.4),
            Tenant::new(chain("b", 1.0), 0.4),
        ];
        assert!(matches!(
            consolidate(&bad, &hw, &t),
            Err(LogNicError::InvalidWeights { .. })
        ));
    }

    #[test]
    fn consolidate_symmetric_tenants() {
        let hw = HardwareModel::default();
        let t = TrafficProfile::fixed(Bandwidth::gbps(100.0), Bytes::new(1500));
        let tenants = [
            Tenant::new(chain("a", 10.0), 0.5),
            Tenant::new(chain("b", 10.0), 0.5),
        ];
        let est = consolidate(&tenants, &hw, &t).unwrap();
        assert!((est.total_throughput.as_gbps() - 20.0).abs() < 1e-6);
        assert_eq!(est.per_tenant.len(), 2);
        assert!((est.per_tenant[0].throughput.as_gbps() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn consolidate_slow_tenant_binds_aggregate() {
        // Tenant b's 1 Gb/s IP at 50% share caps the aggregate at 2 Gb/s.
        let hw = HardwareModel::default();
        let t = TrafficProfile::fixed(Bandwidth::gbps(100.0), Bytes::new(1500));
        let tenants = [
            Tenant::new(chain("a", 50.0), 0.5),
            Tenant::new(chain("b", 1.0), 0.5),
        ];
        let est = consolidate(&tenants, &hw, &t).unwrap();
        assert!((est.total_throughput.as_gbps() - 2.0).abs() < 1e-6);
        assert!(
            est.bottleneck.contains("b"),
            "bottleneck: {}",
            est.bottleneck
        );
    }

    #[test]
    fn consolidate_shared_interface_binds() {
        // Tiny interface: Σ w·α = 0.5·2 + 0.5·2 = 2 → 10/2 = 5 Gb/s.
        let hw = HardwareModel::new(Bandwidth::gbps(10.0), Bandwidth::gbps(1000.0));
        let t = TrafficProfile::fixed(Bandwidth::gbps(100.0), Bytes::new(1500));
        let tenants = [
            Tenant::new(chain("a", 1000.0), 0.5),
            Tenant::new(chain("b", 1000.0), 0.5),
        ];
        let est = consolidate(&tenants, &hw, &t).unwrap();
        assert!((est.total_throughput.as_gbps() - 5.0).abs() < 1e-6);
        assert_eq!(est.bottleneck, "interface");
    }

    #[test]
    fn consolidate_underload_returns_offered() {
        let hw = HardwareModel::default();
        let t = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(1500));
        let tenants = [
            Tenant::new(chain("a", 50.0), 0.5),
            Tenant::new(chain("b", 50.0), 0.5),
        ];
        let est = consolidate(&tenants, &hw, &t).unwrap();
        assert!((est.total_throughput.as_gbps() - 1.0).abs() < 1e-9);
        assert_eq!(est.bottleneck, "offered load");
        assert!(est.mean_latency > Seconds::ZERO);
    }

    #[test]
    fn mixed_classes_weighted_average() {
        let hw = HardwareModel::default();
        let small = TrafficClass {
            graph: chain("small", 5.0),
            traffic: TrafficProfile::fixed(Bandwidth::gbps(10.0), Bytes::new(64)),
            weight: 0.5,
        };
        let large = TrafficClass {
            graph: chain("large", 20.0),
            traffic: TrafficProfile::fixed(Bandwidth::gbps(10.0), Bytes::new(1500)),
            weight: 0.5,
        };
        let est = estimate_mixed(&[small, large], &hw).unwrap();
        // 0.5 × 5 + 0.5 × 10 (offered binds the large class) = 7.5.
        assert!((est.throughput.as_gbps() - 7.5).abs() < 1e-6);
        assert_eq!(est.per_class.len(), 2);
        let recombined: f64 = est.per_class.iter().map(|(b, _)| b.as_gbps() * 0.5).sum();
        assert!((recombined - est.throughput.as_gbps()).abs() < 1e-9);
    }

    #[test]
    fn mixed_rejects_bad_weights() {
        let hw = HardwareModel::default();
        assert!(estimate_mixed(&[], &hw).is_err());
        let c = TrafficClass {
            graph: chain("c", 1.0),
            traffic: TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(64)),
            weight: 0.7,
        };
        assert!(estimate_mixed(&[c], &hw).is_err());
    }

    #[test]
    fn delivered_tracks_attainable_at_light_load() {
        let g = chain_q("t", 10.0, 64);
        let hw = HardwareModel::default();
        let t = TrafficProfile::fixed(Bandwidth::gbps(1.0), Bytes::new(1500));
        let d = delivered_throughput(&g, &hw, &t).unwrap();
        assert!(
            (d.as_gbps() - 1.0).abs() < 1e-3,
            "negligible drops at 10% load"
        );
    }

    #[test]
    fn delivered_shrinks_with_tiny_queues() {
        let hw = HardwareModel::default();
        let t = TrafficProfile::fixed(Bandwidth::gbps(8.0), Bytes::new(1500));
        let big = delivered_throughput(&chain_q("big", 10.0, 64), &hw, &t).unwrap();
        let tiny = delivered_throughput(&chain_q("tiny", 10.0, 1), &hw, &t).unwrap();
        assert!(
            tiny.as_gbps() < big.as_gbps(),
            "1-credit queue must lose throughput: {} vs {}",
            tiny,
            big
        );
    }

    #[test]
    fn delivered_capped_by_attainable_under_overload() {
        let g = chain_q("t", 5.0, 64);
        let hw = HardwareModel::default();
        let t = TrafficProfile::fixed(Bandwidth::gbps(50.0), Bytes::new(1500));
        let d = delivered_throughput(&g, &hw, &t).unwrap();
        assert!(d <= Bandwidth::gbps(5.0) + Bandwidth::bps(1.0));
    }
}
