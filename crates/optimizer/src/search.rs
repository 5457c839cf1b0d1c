//! One-dimensional and discrete search primitives.

/// Golden-section minimization of a unimodal function on `[lo, hi]`.
///
/// # Panics
///
/// Panics if `lo > hi` or either bound is not finite.
pub fn golden_section<F>(mut f: F, lo: f64, hi: f64, tolerance: f64) -> f64
where
    F: FnMut(f64) -> f64,
{
    assert!(
        lo.is_finite() && hi.is_finite() && lo <= hi,
        "invalid interval [{lo}, {hi}]"
    );
    let inv_phi = (5f64.sqrt() - 1.0) / 2.0;
    let (mut a, mut b) = (lo, hi);
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let (mut fc, mut fd) = (f(c), f(d));
    while (b - a).abs() > tolerance {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d);
        }
    }
    (a + b) / 2.0
}

/// The smallest integer in `lo..=hi` satisfying a monotone predicate,
/// found by linear scan (`hi` when none satisfies it). Used for
/// minimal-resource questions: credits, parallel degrees.
pub fn min_satisfying<F>(lo: u32, hi: u32, mut predicate: F) -> u32
where
    F: FnMut(u32) -> bool,
{
    for v in lo..hi {
        if predicate(v) {
            return v;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_finds_parabola_minimum() {
        let x = golden_section(|x| (x - 0.56).powi(2), 0.0, 0.8, 1e-9);
        assert!((x - 0.56).abs() < 1e-6, "x = {x}");
    }

    #[test]
    fn golden_handles_boundary_minimum() {
        let x = golden_section(|x| x, 2.0, 5.0, 1e-9);
        assert!((x - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn golden_rejects_inverted_interval() {
        let _ = golden_section(|x| x, 5.0, 2.0, 1e-9);
    }

    #[test]
    fn min_satisfying_scans() {
        assert_eq!(min_satisfying(1, 8, |v| v * v >= 10), 4);
        assert_eq!(min_satisfying(1, 8, |_| false), 8);
        assert_eq!(min_satisfying(1, 8, |_| true), 1);
    }
}
