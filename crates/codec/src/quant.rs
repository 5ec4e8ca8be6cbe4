//! Scalar quantization with configurable dead-zone.
//!
//! The quantizer maps transform coefficients to integer levels. The
//! rounding bias (`deadzone`) is one of the tool-gap knobs between the
//! "software" and "hardware" encoder configurations: the paper notes
//! the VCU's pipelined architecture "cannot easily support all the same
//! tools as CPU, such as Trellis quantization" (§4.1); we model trellis
//! as a smarter level-choice pass available only to the software
//! toolset.

use crate::kernels;
use crate::types::Qp;

/// Quantizes `coeffs` into integer levels with rounding bias
/// `deadzone` in `[0, 0.5]` (0.5 = round-to-nearest, smaller values
/// zero out more coefficients, trading quality for rate).
///
/// # Panics
///
/// Panics if output slice length differs from input.
pub(crate) fn quantize(coeffs: &[f64], qp: Qp, deadzone: f64, levels: &mut [i32]) {
    assert_eq!(coeffs.len(), levels.len(), "level buffer size mismatch");
    kernels::quantize_levels(coeffs, qp.step(), deadzone, levels);
}

/// Reconstructs coefficient values from levels.
///
/// # Panics
///
/// Panics if output slice length differs from input.
pub(crate) fn dequantize(levels: &[i32], qp: Qp, coeffs: &mut [f64]) {
    assert_eq!(levels.len(), coeffs.len(), "coeff buffer size mismatch");
    kernels::dequantize_coeffs(levels, qp.step(), coeffs);
}

/// Trellis-like level optimization (software toolset only): for each
/// nonzero level, keep it only if the rate saving from dropping to the
/// next-lower magnitude does not cost more distortion than
/// `lambda * rate_per_level` justifies. A greedy approximation of
/// trellis quantization, applied coefficient-by-coefficient.
pub(crate) fn optimize_levels(coeffs: &[f64], qp: Qp, lambda: f64, levels: &mut [i32]) {
    let step = qp.step();
    // Approximate rate cost of one unit of level magnitude, in bits.
    // Levels are coded with a unary/exp-Golomb hybrid; dropping a level
    // from 1 to 0 saves roughly 2 bits (nonzero flag + sign).
    let rate_save_zero = 2.0;
    let rate_save_dec = 1.0;
    for (i, l) in levels.iter_mut().enumerate() {
        if *l == 0 {
            continue;
        }
        let c = coeffs[i];
        let cur = *l as f64 * step;
        let d_cur = (c - cur) * (c - cur);
        let lower_mag = l.abs() - 1;
        let lower = lower_mag as f64 * step * l.signum() as f64;
        let d_lower = (c - lower) * (c - lower);
        let rate_save = if lower_mag == 0 {
            rate_save_zero
        } else {
            rate_save_dec
        };
        if d_lower - d_cur < lambda * rate_save {
            *l = lower_mag * l.signum();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_error_bounded_by_step() {
        let qp = Qp::new(24);
        let step = qp.step();
        let coeffs: Vec<f64> = (-20..20).map(|i| i as f64 * 3.7).collect();
        let mut levels = vec![0i32; coeffs.len()];
        quantize(&coeffs, qp, 0.5, &mut levels);
        let mut back = vec![0.0; coeffs.len()];
        dequantize(&levels, qp, &mut back);
        for (c, b) in coeffs.iter().zip(&back) {
            assert!(
                (c - b).abs() <= step * 0.5 + 1e-9,
                "error {} > step/2",
                c - b
            );
        }
    }

    #[test]
    fn deadzone_zeroes_small_coefficients() {
        let qp = Qp::new(24);
        let step = qp.step();
        let coeffs = vec![step * 0.6, -step * 0.6];
        let mut round = vec![0i32; 2];
        quantize(&coeffs, qp, 0.5, &mut round);
        assert_eq!(round, vec![1, -1]);
        let mut dz = vec![0i32; 2];
        quantize(&coeffs, qp, 0.2, &mut dz);
        assert_eq!(dz, vec![0, 0], "deadzone should zero 0.6-step coeffs");
    }

    #[test]
    fn higher_qp_coarser() {
        let coeffs = vec![100.0; 16];
        let mut fine = vec![0i32; 16];
        let mut coarse = vec![0i32; 16];
        quantize(&coeffs, Qp::new(12), 0.5, &mut fine);
        quantize(&coeffs, Qp::new(48), 0.5, &mut coarse);
        assert!(fine[0] > coarse[0]);
    }

    #[test]
    fn sign_preserved() {
        let coeffs = vec![37.0, -37.0];
        let mut levels = vec![0i32; 2];
        quantize(&coeffs, Qp::new(24), 0.5, &mut levels);
        assert_eq!(levels[0], -levels[1]);
        assert!(levels[0] > 0);
    }

    #[test]
    fn trellis_drops_marginal_levels() {
        let qp = Qp::new(24);
        let step = qp.step();
        // Coefficient just barely above the rounding threshold: the
        // distortion cost of dropping it is small.
        let coeffs = vec![step * 0.51];
        let mut levels = vec![0i32; 1];
        quantize(&coeffs, qp, 0.5, &mut levels);
        assert_eq!(levels[0], 1);
        optimize_levels(&coeffs, qp, step * step, &mut levels);
        assert_eq!(levels[0], 0, "marginal level should be dropped");
    }

    #[test]
    fn trellis_keeps_strong_levels() {
        let qp = Qp::new(24);
        let step = qp.step();
        let coeffs = vec![step * 3.0];
        let mut levels = vec![0i32; 1];
        quantize(&coeffs, qp, 0.5, &mut levels);
        let before = levels[0];
        optimize_levels(&coeffs, qp, 0.01, &mut levels);
        assert_eq!(levels[0], before, "strong level must survive");
    }
}
