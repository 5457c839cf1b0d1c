//! Order statistics over latency samples.

/// Fewest samples that must lie beyond a percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Rank of quantile `q` among `n` sorted samples, `round((n − 1)·q)` —
/// the convention of the simulator's `LatencyRecorder`.
fn rank(n: usize, q: f64) -> usize {
    ((n - 1) as f64 * q).round() as usize
}

/// Quantile `q` of `sorted` (ascending, non-empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q)]
}

/// Quantile `q`, but only when at least [`MIN_BEYOND`] samples lie
/// beyond it; `None` when the sample cannot support it.
pub fn supported_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(sorted.len(), q);
    (sorted.len() - 1 - r >= MIN_BEYOND).then(|| sorted[r])
}

/// Median of unsorted values (non-empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples sits at rank 989: ten samples beyond.
        assert_eq!(supported_quantile(&samples(1000), 0.99), Some(990.0));
        // Of 950, rank 940 leaves only nine.
        assert_eq!(supported_quantile(&samples(950), 0.99), None);
        // p90 of 100 samples: rank 89, ten beyond; of 95, rank 85, nine.
        assert_eq!(supported_quantile(&samples(100), 0.90), Some(90.0));
        assert_eq!(supported_quantile(&samples(95), 0.90), None);
        // The median of a handful is fine; of nothing, undefined.
        assert_eq!(supported_quantile(&samples(21), 0.5), Some(11.0));
        assert_eq!(supported_quantile(&[], 0.5), None);
    }

    #[test]
    fn quantiles_and_medians() {
        assert_eq!(quantile(&samples(5), 0.5), 3.0);
        assert_eq!(quantile(&samples(5), 1.0), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
