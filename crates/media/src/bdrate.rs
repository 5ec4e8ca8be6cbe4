//! Bjøntegaard delta-rate (BD-rate) between rate-distortion curves.
//!
//! BD-rate is the average bitrate difference (percent) between two
//! encoders at equal quality, computed by fitting each encoder's RD
//! points with a cubic polynomial in the (PSNR → log-rate) domain and
//! integrating the gap over the overlapping quality range
//! (Bjøntegaard, VCEG-M33). The paper reports all of its Fig. 7
//! quality comparisons this way: VCU-VP9 ≈ −30% vs libx264,
//! VCU-H.264 ≈ +11.5% vs libx264, VCU-VP9 ≈ +18% vs libvpx.

use std::fmt;

/// One point of an operational rate-distortion curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RdPoint {
    /// Bitrate in bits per second (or any consistent rate unit).
    pub bitrate: f64,
    /// Quality in dB (PSNR).
    pub psnr: f64,
}

impl RdPoint {
    /// Creates an RD point.
    pub fn new(bitrate: f64, psnr: f64) -> Self {
        RdPoint { bitrate, psnr }
    }
}

/// Error from [`bd_rate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BdRateError {
    /// A curve has fewer than 4 points (cubic fit needs 4).
    TooFewPoints,
    /// A curve contains a non-finite or non-positive value.
    InvalidPoint,
    /// The PSNR ranges of the two curves do not overlap.
    NoOverlap,
}

impl fmt::Display for BdRateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BdRateError::TooFewPoints => write!(f, "curve needs at least 4 RD points"),
            BdRateError::InvalidPoint => write!(f, "RD point has non-finite or non-positive value"),
            BdRateError::NoOverlap => write!(f, "quality ranges do not overlap"),
        }
    }
}

impl std::error::Error for BdRateError {}

/// Computes BD-rate of `test` relative to `anchor`, in percent.
///
/// Negative values mean `test` needs fewer bits for the same quality
/// (better); positive means more bits (worse).
///
/// # Errors
///
/// Returns an error if either curve has fewer than 4 points, contains
/// non-finite / non-positive values, or the PSNR ranges do not overlap.
///
/// # Example
///
/// ```
/// use vcu_media::bdrate::{bd_rate, RdPoint};
///
/// // `test` achieves identical quality at exactly half the rate.
/// let anchor: Vec<_> = [1.0, 2.0, 4.0, 8.0]
///     .iter().map(|&r| RdPoint::new(r * 1e6, 30.0 + r)).collect();
/// let test: Vec<_> = [1.0, 2.0, 4.0, 8.0]
///     .iter().map(|&r| RdPoint::new(r * 0.5e6, 30.0 + r)).collect();
/// let bd = bd_rate(&anchor, &test).unwrap();
/// assert!((bd - -50.0).abs() < 1.0);
/// ```
pub fn bd_rate(anchor: &[RdPoint], test: &[RdPoint]) -> Result<f64, BdRateError> {
    let a = prepare(anchor)?;
    let t = prepare(test)?;

    let lo = a.min_psnr.max(t.min_psnr);
    let hi = a.max_psnr.min(t.max_psnr);
    // NaN-aware: any incomparable pair (NaN PSNR) is "no overlap".
    if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
        return Err(BdRateError::NoOverlap);
    }

    // Integrate both fitted log-rate polynomials over [lo, hi].
    let int_a = a.poly.integral(lo, hi);
    let int_t = t.poly.integral(lo, hi);
    let avg_diff = (int_t - int_a) / (hi - lo);
    Ok((10f64.powf(avg_diff) - 1.0) * 100.0)
}

struct FittedCurve {
    poly: Poly3,
    min_psnr: f64,
    max_psnr: f64,
}

fn prepare(points: &[RdPoint]) -> Result<FittedCurve, BdRateError> {
    if points.len() < 4 {
        return Err(BdRateError::TooFewPoints);
    }
    for p in points {
        if !p.bitrate.is_finite() || !p.psnr.is_finite() || p.bitrate <= 0.0 {
            return Err(BdRateError::InvalidPoint);
        }
    }
    let xs: Vec<f64> = points.iter().map(|p| p.psnr).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.bitrate.log10()).collect();
    let poly = Poly3::fit(&xs, &ys).ok_or(BdRateError::InvalidPoint)?;
    let min_psnr = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_psnr = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    Ok(FittedCurve {
        poly,
        min_psnr,
        max_psnr,
    })
}

/// Cubic polynomial `c0 + c1 x + c2 x^2 + c3 x^3` fit by least squares.
#[derive(Debug, Clone, Copy)]
struct Poly3 {
    c: [f64; 4],
}

impl Poly3 {
    /// Least-squares cubic fit via the normal equations. The inputs are
    /// shifted by mean(x) internally for conditioning. Returns `None`
    /// on a singular system (e.g. all x identical).
    fn fit(xs: &[f64], ys: &[f64]) -> Option<Poly3> {
        debug_assert_eq!(xs.len(), ys.len());
        let n = xs.len();
        let xbar = xs.iter().sum::<f64>() / n as f64;
        // Normal equations A c = b with A[i][j] = sum x^(i+j), b[i] = sum y x^i.
        let mut pow_sums = [0.0f64; 7];
        let mut b = [0.0f64; 4];
        for k in 0..n {
            let x = xs[k] - xbar;
            let mut xp = 1.0;
            for item in pow_sums.iter_mut() {
                *item += xp;
                xp *= x;
            }
            let mut xp = 1.0;
            for item in b.iter_mut() {
                *item += ys[k] * xp;
                xp *= x;
            }
        }
        let mut a = [[0.0f64; 5]; 4];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().take(4).enumerate() {
                *cell = pow_sums[i + j];
            }
            row[4] = b[i];
        }
        let c_shift = solve4(&mut a)?;
        // Un-shift: p(x) = q(x - xbar) where q has coefficients c_shift.
        Some(Poly3 {
            c: unshift(c_shift, xbar),
        })
    }

    /// Definite integral over [lo, hi].
    fn integral(&self, lo: f64, hi: f64) -> f64 {
        let anti = |x: f64| {
            x * (self.c[0] + x * (self.c[1] / 2.0 + x * (self.c[2] / 3.0 + x * self.c[3] / 4.0)))
        };
        anti(hi) - anti(lo)
    }
}

/// Gaussian elimination with partial pivoting on a 4x5 augmented matrix.
fn solve4(a: &mut [[f64; 5]; 4]) -> Option<[f64; 4]> {
    for col in 0..4 {
        // Pivot.
        let mut best = col;
        for row in col + 1..4 {
            if a[row][col].abs() > a[best][col].abs() {
                best = row;
            }
        }
        if a[best][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, best);
        let pivot = a[col];
        for row in a.iter_mut().skip(col + 1) {
            let f = row[col] / pivot[col];
            for (k, &pv) in pivot.iter().enumerate().skip(col) {
                row[k] -= f * pv;
            }
        }
    }
    let mut x = [0.0f64; 4];
    for i in (0..4).rev() {
        let mut s = a[i][4];
        for j in i + 1..4 {
            s -= a[i][j] * x[j];
        }
        x[i] = s / a[i][i];
    }
    Some(x)
}

/// Expands q(x - m) into standard coefficients.
fn unshift(q: [f64; 4], m: f64) -> [f64; 4] {
    // q0 + q1 (x-m) + q2 (x-m)^2 + q3 (x-m)^3
    let [q0, q1, q2, q3] = q;
    [
        q0 - q1 * m + q2 * m * m - q3 * m * m * m,
        q1 - 2.0 * q2 * m + 3.0 * q3 * m * m,
        q2 - 3.0 * q3 * m,
        q3,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(rate_mult: f64) -> Vec<RdPoint> {
        // PSNR rises with log rate: psnr = 10 log10(rate) + 5
        [0.5f64, 1.0, 2.0, 4.0, 8.0]
            .iter()
            .map(|&r| RdPoint::new(r * rate_mult * 1e6, 10.0 * (r * 1e6).log10() + 5.0))
            .collect()
    }

    #[test]
    fn identical_curves_zero() {
        let a = curve(1.0);
        let bd = bd_rate(&a, &a).unwrap();
        assert!(bd.abs() < 1e-6, "bd {bd}");
    }

    #[test]
    fn half_rate_is_minus_50() {
        let a = curve(1.0);
        let t = curve(0.5);
        let bd = bd_rate(&a, &t).unwrap();
        assert!((bd + 50.0).abs() < 0.5, "bd {bd}");
    }

    #[test]
    fn thirty_percent_more_rate() {
        let a = curve(1.0);
        let t = curve(1.3);
        let bd = bd_rate(&a, &t).unwrap();
        assert!((bd - 30.0).abs() < 0.5, "bd {bd}");
    }

    #[test]
    fn antisymmetry() {
        let a = curve(1.0);
        let t = curve(0.7);
        let ab = bd_rate(&a, &t).unwrap();
        let ba = bd_rate(&t, &a).unwrap();
        // (1+ab/100) * (1+ba/100) == 1
        let prod = (1.0 + ab / 100.0) * (1.0 + ba / 100.0);
        assert!((prod - 1.0).abs() < 1e-6, "prod {prod}");
    }

    #[test]
    fn too_few_points() {
        let a = curve(1.0);
        assert_eq!(bd_rate(&a[..3], &a), Err(BdRateError::TooFewPoints));
    }

    #[test]
    fn no_overlap() {
        let a: Vec<_> = (0..4)
            .map(|i| RdPoint::new(1e6 * (i + 1) as f64, 20.0 + i as f64))
            .collect();
        let t: Vec<_> = (0..4)
            .map(|i| RdPoint::new(1e6 * (i + 1) as f64, 40.0 + i as f64))
            .collect();
        assert_eq!(bd_rate(&a, &t), Err(BdRateError::NoOverlap));
    }

    #[test]
    fn invalid_point() {
        let mut a = curve(1.0);
        a[0].bitrate = -1.0;
        assert_eq!(bd_rate(&a, &curve(1.0)), Err(BdRateError::InvalidPoint));
    }

    #[test]
    fn fitted_log_rate_tracks_input() {
        let a = curve(1.0);
        // At psnr of the middle point, fitted log rate should be close
        // to the actual log rate.
        let mid = &a[2];
        let c = prepare(&a).unwrap().poly.c;
        let x = mid.psnr;
        let lr = c[0] + x * (c[1] + x * (c[2] + x * c[3]));
        assert!((lr - mid.bitrate.log10()).abs() < 0.05);
    }
}
