//! Order statistics the benchmark reports: median, quartiles (the same
//! rule as Python's `statistics.quantiles(v, n=4)`, so spreads computed
//! here match the ones the builder's driver computes), and the tail
//! rule of the choosing-metrics guide.

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v` (mean of the two middle values for even lengths).
///
/// # Panics
///
/// If `v` is empty.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the "exclusive" method
/// (`statistics.quantiles(v, n=4)`). Needs at least two samples.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(v);
    let m = s.len();
    if m < 2 {
        return None;
    }
    let mut q = [0.0; 3];
    for (i, slot) in q.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(q)
}

/// Interquartile distance as a share of the median — the spread the
/// contract bounds. `None` with fewer than two samples or a zero median.
pub fn spread(v: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(v)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The highest percentile that still has at least ten samples beyond
/// it, with the sample count it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile in `(0, 100)`, e.g. 95.0 at 200 samples.
    pub pct: f64,
    /// Value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Samples strictly beyond the reported tail value.
const TAIL_BEYOND: usize = 10;

/// Tail of `v` by the ten-samples-beyond rule; `None` below 20 samples,
/// where that percentile would sit under the median.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let n = v.len();
    if n < 2 * TAIL_BEYOND {
        return None;
    }
    let s = sorted(v);
    Some(Tail {
        pct: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        value: s[n - TAIL_BEYOND - 1],
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_and_reports_count() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&v).expect("200 samples");
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.samples, 200);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);

        let t = tail(&v[..84]).expect("84 samples");
        assert!((t.pct - 100.0 * 74.0 / 84.0).abs() < 1e-12);
        assert_eq!(v[..84].iter().filter(|&&x| x > t.value).count(), 10);

        assert_eq!(tail(&v[..19]), None);
    }
}
