//! Fixed-memory metric primitives: counters and gauges live as plain
//! map entries in the registry; this module provides the log-bucketed
//! `Histogram` behind `observe()`.

/// Sub-buckets per power-of-two octave. More sub-buckets → tighter
/// quantile error (relative error ≤ 1/SUB_BUCKETS within an octave).
const SUB_BUCKETS: usize = 8;
/// Octaves covered (the full `u64` range of scaled values).
const OCTAVES: usize = 64;
/// Fixed-point scale applied to observed `f64` values before
/// bucketing, so sub-unit observations (utilizations, seconds) still
/// resolve. One part per million.
const SCALE: f64 = 1e6;

/// A log-bucketed histogram with exact count/sum/min/max and
/// approximate quantiles (HdrHistogram-style, ~9% relative error).
///
/// Memory is fixed at construction: 64 octaves × 8 sub-buckets of
/// `u64` counts (4 KiB) regardless of how many values are recorded.
#[derive(Debug, Clone)]
pub(crate) struct Histogram {
    counts: Box<[u64; OCTAVES * SUB_BUCKETS]>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        Histogram {
            counts: Box::new([0; OCTAVES * SUB_BUCKETS]),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation. Negative and non-finite values clamp
    /// to zero (observability must never panic a hot path).
    pub(crate) fn record(&mut self, value: f64) {
        let v = if value.is_finite() {
            value.max(0.0)
        } else {
            0.0
        };
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.counts[Self::bucket_of(Self::scale(v))] += 1;
    }

    fn scale(v: f64) -> u64 {
        // Saturating fixed-point conversion.
        let s = v * SCALE;
        if s >= u64::MAX as f64 {
            u64::MAX
        } else {
            s as u64
        }
    }

    fn bucket_of(u: u64) -> usize {
        if u == 0 {
            return 0;
        }
        let octave = (63 - u.leading_zeros()) as usize;
        let sub = if octave >= 3 {
            ((u >> (octave - 3)) & 0x7) as usize
        } else {
            0
        };
        octave * SUB_BUCKETS + sub
    }

    /// Lower bound of a bucket in observed (unscaled) units.
    fn bucket_value(idx: usize) -> f64 {
        let octave = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        let base = 1u64 << octave;
        let width = base >> 3; // zero below octave 3: buckets collapse
        (base + sub * width) as f64 / SCALE
    }

    /// Approximate value at quantile `q` in `[0, 1]`; exact `min` /
    /// `max` are substituted at the extremes. `None` when empty.
    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                // Clamp the bucket estimate into the exact envelope.
                return Some(Self::bucket_value(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The summary rendered into snapshots.
    pub(crate) fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum / self.count as f64
            },
            p50: self.quantile(0.50).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
            p999: self.quantile(0.999).unwrap_or(0.0),
        }
    }
}

/// Snapshot-ready digest of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Exact sum.
    pub sum: f64,
    /// Exact minimum (0 when empty).
    pub min: f64,
    /// Exact maximum (0 when empty).
    pub max: f64,
    /// Exact mean (0 when empty).
    pub mean: f64,
    /// Approximate median.
    pub p50: f64,
    /// Approximate 99th percentile.
    pub p99: f64,
    /// Approximate 99.9th percentile.
    pub p999: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count, 0);
        assert_eq!(h.quantile(0.5), None);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn exact_stats_are_exact() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 10.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
    }

    #[test]
    fn quantiles_land_within_relative_error() {
        let mut h = Histogram::new();
        for i in 1..=10_000 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        let p999 = h.quantile(0.999).unwrap();
        assert!((p50 / 5000.0 - 1.0).abs() < 0.15, "p50 {p50}");
        assert!((p99 / 9900.0 - 1.0).abs() < 0.15, "p99 {p99}");
        assert!((p999 / 9990.0 - 1.0).abs() < 0.15, "p999 {p999}");
    }

    #[test]
    fn sub_unit_values_resolve() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(0.25);
        }
        for _ in 0..100 {
            h.record(0.75);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((0.2..0.4).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((0.6..0.8).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn hostile_values_never_panic() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-5.0);
        h.record(1e300);
        assert_eq!(h.count, 4);
        assert!(h.quantile(0.5).is_some());
    }

    #[test]
    fn quantiles_respect_min_max_envelope() {
        let mut h = Histogram::new();
        h.record(123.456);
        let s = h.summary();
        assert_eq!(s.p50, 123.456, "single value: every quantile is it");
        assert_eq!(s.p999, 123.456);
    }
}
