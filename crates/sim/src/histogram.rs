//! Streaming latency statistics: Welford moments plus a log-scale
//! histogram sized by the largest bucket it has touched.
//!
//! The original engine recorded every completed packet's latency in an
//! unbounded `Vec<SimTime>` and sorted it at report time — O(n log n)
//! and a reallocation-heavy append stream. The [`LatencyRecorder`]
//! replaces both: mean/stddev stream through Welford's algorithm and
//! percentiles come from an HDR-style histogram with `2^7 = 128`
//! sub-buckets per power of two (≤ 0.8 % relative bucket width).
//!
//! Each bucket additionally tracks the **min and max** value it has
//! absorbed, and percentile lookup interpolates linearly between them
//! by rank. Two consequences matter for the test suite:
//!
//! * a bucket holding one distinct value reports it *exactly* — so a
//!   deterministic paced run (every latency identical) yields
//!   `p50 == max` to the bit, and
//! * well-separated samples (≥ one bucket width apart) land in
//!   distinct buckets and are likewise exact.
//!
//! Rank semantics match the retired sort-based path:
//! `rank = round((count − 1) · q)`.
//!
//! The bucket layout spans the whole `u64` picosecond range, 7,424
//! buckets of 24 B, but a recorder holds only the buckets up to the
//! highest one a sample has landed in. A new recorder allocates
//! nothing. A 5 ms simulation of a registry workload, whose largest
//! latency lies between 1 µs and 3.3 ms, holds 1,752–3,268 buckets
//! (42–78 KB); the table's capacity doubles as it grows, so it may
//! reserve up to twice that. The worst case is the full table, 178,176
//! B, reached when one sample lands in the top octave: a
//! deterministic-mode service's refused request, whose logical cost
//! saturates at [`SimTime::MAX`], is one. Buckets past the end are
//! empty by definition, so how far the table has grown changes no
//! quantile, mean or standard deviation.

use crate::time::SimTime;
use lognic_model::units::Seconds;

/// Sub-bucket resolution: 2^7 buckets per power of two.
const SUB_BITS: u32 = 7;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Bucket count covering the full u64 picosecond range:
/// values < 128 get unit buckets, then (64 − 7) octaves of 128. The
/// table never grows past it.
const BUCKETS: usize = ((64 - SUB_BITS as usize) * SUB_BUCKETS as usize) + SUB_BUCKETS as usize;

#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    count: u64,
    min: u64,
    max: u64,
}

/// Streaming recorder for packet latencies (picosecond resolution).
/// Its bucket table starts empty and grows to the highest bucket a
/// sample touches (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use lognic_sim::histogram::LatencyRecorder;
/// use lognic_sim::time::SimTime;
///
/// let mut rec = LatencyRecorder::new();
/// for _ in 0..100 {
///     rec.record(SimTime::from_micros(5.0));
/// }
/// // All-equal samples are exact: p50 == max.
/// assert_eq!(rec.quantile(0.5), rec.max().to_seconds());
/// assert_eq!(rec.count(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    buckets: Vec<Bucket>,
    count: u64,
    max: u64,
    // Welford accumulators over seconds.
    mean: f64,
    m2: f64,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyRecorder {
    /// An empty recorder. Allocates nothing: the bucket table grows
    /// on the first sample that lands past its end.
    pub fn new() -> Self {
        LatencyRecorder {
            buckets: Vec::new(),
            count: 0,
            max: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    #[inline]
    fn index(v: u64) -> usize {
        if v < SUB_BUCKETS {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let shifted = (v >> (e - SUB_BITS)) - SUB_BUCKETS;
        ((e - SUB_BITS + 1) as u64 * SUB_BUCKETS + shifted) as usize
    }

    /// Records one latency sample. O(1); allocates only when the
    /// sample lands past the table's capacity, which doubles each time,
    /// so rarely.
    #[inline]
    pub fn record(&mut self, latency: SimTime) {
        let v = latency.as_picos();
        let i = Self::index(v);
        if i >= self.buckets.len() {
            self.grow(i);
        }
        let b = &mut self.buckets[i];
        if b.count == 0 {
            b.min = v;
            b.max = v;
        } else {
            b.min = b.min.min(v);
            b.max = b.max.max(v);
        }
        b.count += 1;
        self.count += 1;
        self.max = self.max.max(v);
        // Welford update over seconds.
        let x = latency.as_secs();
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Extends the table with empty buckets up to and including `i`.
    /// Capacity doubles, so a stream of ever-larger samples regrows
    /// the table a handful of times, but never past [`BUCKETS`]: the
    /// worst case is the full table, not twice it.
    #[cold]
    fn grow(&mut self, i: usize) {
        if i >= self.buckets.capacity() {
            let cap = (2 * self.buckets.capacity()).clamp(i + 1, BUCKETS);
            self.buckets.reserve_exact(cap - self.buckets.len());
        }
        self.buckets.resize(i + 1, Bucket::default());
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum recorded latency.
    pub fn max(&self) -> SimTime {
        SimTime::from_picos(self.max)
    }

    /// Streaming arithmetic mean.
    pub fn mean(&self) -> Seconds {
        Seconds::new(if self.count == 0 { 0.0 } else { self.mean })
    }

    /// Streaming (population) standard deviation.
    pub fn stddev(&self) -> Seconds {
        if self.count < 2 {
            return Seconds::ZERO;
        }
        Seconds::new((self.m2 / self.count as f64).sqrt())
    }

    /// The `q`-quantile with the same rank convention as a sorted
    /// vector: `rank = round((count − 1) · q)`. Values inside a
    /// multi-value bucket are linearly interpolated between the
    /// bucket's observed min and max; a single-value bucket is exact.
    pub fn quantile(&self, q: f64) -> Seconds {
        if self.count == 0 {
            return Seconds::ZERO;
        }
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        let mut cum = 0u64;
        for b in &self.buckets {
            if b.count == 0 {
                continue;
            }
            if cum + b.count > rank {
                let pos = rank - cum;
                let v = if b.count == 1 || b.min == b.max {
                    b.min as f64
                } else {
                    b.min as f64 + (b.max - b.min) as f64 * (pos as f64 / (b.count - 1) as f64)
                };
                return SimTime::from_picos(v.round() as u64).to_seconds();
            }
            cum += b.count;
        }
        self.max().to_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lognic_testkit::rng::Xoshiro256pp;

    /// The oracle, a dense recorder: the fixed layout the recorder grew
    /// out of, every one of the [`BUCKETS`] buckets allocated up front,
    /// so `record` never grows the table.
    fn dense_recorder() -> LatencyRecorder {
        let mut rec = LatencyRecorder::new();
        rec.buckets = vec![Bucket::default(); BUCKETS];
        rec
    }

    /// Values every stream carries: the unit-bucket edge, the first
    /// shared bucket, the first integer an `f64` cannot hold, and the
    /// top of the clock.
    const EDGES: [u64; 5] = [0, 127, 128, (1 << 53) + 1, u64::MAX];

    /// `n` picosecond samples of one distribution, plus [`EDGES`].
    fn stream(rng: &mut Xoshiro256pp, distribution: usize, n: usize) -> Vec<u64> {
        let log_uniform = |rng: &mut Xoshiro256pp| {
            // 1 ps to SimTime::MAX: a uniform octave, then a uniform
            // value inside it.
            let e = rng.next_below(64);
            (1 << e) | (rng.next_u64() & ((1 << e) - 1))
        };
        let centers: Vec<u64> = (0..4).map(|_| log_uniform(rng)).collect();
        let mut out: Vec<u64> = (0..n)
            .map(|_| match distribution {
                0 => rng.next_below(20_000_000_000),
                1 => log_uniform(rng),
                _ => {
                    let c = centers[rng.next_below(4) as usize];
                    c.saturating_add(rng.next_below(c / 1000 + 1))
                }
            })
            .collect();
        out.extend(EDGES);
        out
    }

    #[test]
    fn grown_table_matches_the_dense_oracle_bit_for_bit() {
        let mut rng = Xoshiro256pp::seed_from(0x0b5e_55ed);
        for case in 0..96 {
            let n = 1 + rng.next_below(1500) as usize;
            let mut samples = stream(&mut rng, case % 3, n);
            match case / 3 % 3 {
                0 => samples.sort_unstable(),
                1 => samples.sort_unstable_by(|a, b| b.cmp(a)),
                _ => {
                    for i in (1..samples.len()).rev() {
                        samples.swap(i, rng.next_below(i as u64 + 1) as usize);
                    }
                }
            }
            // Compared at eight prefixes as well as at the end, so
            // tables of every length meet the oracle, not only the
            // full one the `u64::MAX` edge grows them to.
            let mut grown = LatencyRecorder::new();
            let mut dense = dense_recorder();
            for (k, &ps) in samples.iter().enumerate() {
                grown.record(SimTime::from_picos(ps));
                dense.record(SimTime::from_picos(ps));
                if (k + 1) % samples.len().div_ceil(8) == 0 || k + 1 == samples.len() {
                    assert_same_statistics(&grown, &dense, case);
                }
            }
        }
    }

    fn assert_same_statistics(grown: &LatencyRecorder, dense: &LatencyRecorder, case: usize) {
        let bits = |s: Seconds| s.as_secs().to_bits();
        assert_eq!(grown.count(), dense.count(), "case {case}");
        assert_eq!(grown.max(), dense.max(), "case {case}");
        assert_eq!(bits(grown.mean()), bits(dense.mean()), "case {case}");
        assert_eq!(bits(grown.stddev()), bits(dense.stddev()), "case {case}");
        for q in [0.0, 0.001, 0.5, 0.9, 0.99, 1.0] {
            let (g, d) = (grown.quantile(q), dense.quantile(q));
            assert_eq!(bits(g), bits(d), "case {case}, q {q}");
        }
    }

    #[test]
    fn the_table_holds_only_the_buckets_up_to_the_largest_sample() {
        let len = |us: f64| LatencyRecorder::index(SimTime::from_micros(us).as_picos()) + 1;
        let table = |rec: &LatencyRecorder| (rec.buckets.len(), rec.buckets.capacity());
        let mut rec = LatencyRecorder::new();
        assert_eq!(table(&rec), (0, 0), "a new recorder allocates nothing");
        rec.record(SimTime::from_micros(50.0));
        let first = len(50.0);
        assert_eq!(table(&rec), (first, first));
        rec.record(SimTime::from_micros(1.0));
        assert_eq!(table(&rec), (first, first), "smaller samples never grow it");
        // Past the capacity it doubles; inside it only the length moves.
        rec.record(SimTime::from_micros(60.0));
        assert_eq!(table(&rec), (len(60.0), 2 * first));
        rec.record(SimTime::from_micros(80.0));
        assert_eq!(table(&rec), (len(80.0), 2 * first));
        rec.record(SimTime::MAX);
        assert_eq!(table(&rec), (BUCKETS, BUCKETS), "never past the full table");
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        for shift in 0..64 {
            let v = 1u64 << shift;
            for probe in [v, v + v / 3, v + v / 2, (v - 1).max(1)] {
                let idx = LatencyRecorder::index(probe);
                assert!(idx < BUCKETS, "index {idx} out of range for {probe}");
            }
            let idx = LatencyRecorder::index(v);
            assert!(idx >= last, "index must not decrease: {v}");
            last = idx;
        }
        assert!(LatencyRecorder::index(u64::MAX) < BUCKETS);
        assert_eq!(LatencyRecorder::index(0), 0);
        assert_eq!(LatencyRecorder::index(127), 127);
    }

    #[test]
    fn all_equal_samples_are_exact() {
        let mut rec = LatencyRecorder::new();
        for _ in 0..1000 {
            rec.record(SimTime::from_micros(42.0));
        }
        let p50 = rec.quantile(0.5);
        let max = rec.max().to_seconds();
        assert_eq!(p50, max, "deterministic runs need exact percentiles");
        assert!((rec.mean().as_micros() - 42.0).abs() < 1e-9);
        assert!(rec.stddev().as_secs() < 1e-12);
    }

    #[test]
    fn well_separated_samples_are_exact() {
        // 1..=100 µs, 1 µs apart — far wider than the 0.8 % bucket
        // width at this scale, so every sample owns its bucket.
        let mut rec = LatencyRecorder::new();
        for i in 1..=100 {
            rec.record(SimTime::from_micros(i as f64));
        }
        // rank = round((count − 1)·q): p50 → round(49.5) = index 50,
        // i.e. the 51 µs sample — the sort-based path's convention.
        assert!((rec.quantile(0.50).as_micros() - 51.0).abs() < 1e-9);
        assert!((rec.quantile(0.90).as_micros() - 90.0).abs() < 1e-9);
        assert!((rec.quantile(0.99).as_micros() - 99.0).abs() < 1e-9);
        assert!((rec.mean().as_micros() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn dense_samples_stay_within_bucket_error() {
        // 10k samples uniform in [1ms, 1.001ms): all within one power
        // of two, heavily shared buckets.
        let mut rec = LatencyRecorder::new();
        let mut sorted = Vec::new();
        let mut seed = 1u64;
        for _ in 0..10_000 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let ps = 1_000_000_000 + (seed >> 40) % 1_000_000;
            sorted.push(ps);
            rec.record(SimTime::from_picos(ps));
        }
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
            let exact = sorted[rank] as f64;
            let approx = rec.quantile(q).as_secs() * 1e12;
            let rel = (approx - exact).abs() / exact;
            assert!(rel < 0.01, "q={q}: {approx} vs {exact} (rel {rel})");
        }
    }

    #[test]
    fn empty_recorder_reports_zero() {
        let rec = LatencyRecorder::new();
        assert_eq!(rec.count(), 0);
        assert_eq!(rec.quantile(0.5), Seconds::ZERO);
        assert_eq!(rec.mean(), Seconds::ZERO);
        assert_eq!(rec.stddev(), Seconds::ZERO);
        assert_eq!(rec.max(), SimTime::ZERO);
    }
}
