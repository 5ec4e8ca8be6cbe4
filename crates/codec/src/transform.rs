//! Separable 2-D DCT-II transforms for residual coding.
//!
//! Sizes 4/8/16/32 are supported, covering the H.264-like profile's
//! 8×8 transform and the VP9-like profile's up-to-32×32 transforms.
//! The transform is orthonormal, computed in `f64` with precomputed
//! basis matrices; encoder and decoder share the identical inverse
//! path, so reconstruction is deterministic and bit-exact between the
//! two (the property the paper's "golden transcode" fault screening
//! relies on: "relying on the core's deterministic behavior", §4.4).

use crate::kernels;
use std::sync::OnceLock;

/// Transform sizes supported by the codec.
pub const TX_SIZES: [usize; 4] = [4, 8, 16, 32];

pub(crate) fn basis(n: usize) -> &'static [f64] {
    static BASES: OnceLock<[Vec<f64>; 4]> = OnceLock::new();
    let all = BASES.get_or_init(|| {
        let make = |n: usize| {
            let mut m = vec![0.0f64; n * n];
            for k in 0..n {
                let scale = if k == 0 {
                    (1.0 / n as f64).sqrt()
                } else {
                    (2.0 / n as f64).sqrt()
                };
                for i in 0..n {
                    m[k * n + i] = scale
                        * ((std::f64::consts::PI / n as f64) * (i as f64 + 0.5) * k as f64).cos();
                }
            }
            m
        };
        [make(4), make(8), make(16), make(32)]
    });
    match n {
        4 => &all[0],
        8 => &all[1],
        16 => &all[2],
        32 => &all[3],
        _ => panic!("unsupported transform size {n}"),
    }
}

/// Transpose of [`basis`], cached per size: `basis_t(n)[i*n+k] ==
/// basis(n)[k*n+i]`. Lets both inverse passes walk contiguous rows.
pub(crate) fn basis_t(n: usize) -> &'static [f64] {
    static BASES_T: OnceLock<[Vec<f64>; 4]> = OnceLock::new();
    let all = BASES_T.get_or_init(|| {
        let make = |n: usize| {
            let b = basis(n);
            let mut m = vec![0.0f64; n * n];
            for k in 0..n {
                for i in 0..n {
                    m[i * n + k] = b[k * n + i];
                }
            }
            m
        };
        [make(4), make(8), make(16), make(32)]
    });
    match n {
        4 => &all[0],
        8 => &all[1],
        16 => &all[2],
        32 => &all[3],
        _ => panic!("unsupported transform size {n}"),
    }
}

/// Reusable intermediates for [`forward_with`]/[`inverse_with`], so the
/// per-tile transform does not heap-allocate. Buffers grow to the
/// largest size used and are reused across calls.
#[derive(Debug, Default)]
pub struct TxScratch {
    t0: Vec<f64>,
    t1: Vec<f64>,
}

impl TxScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Forward 2-D DCT of an `n x n` residual block (row-major), with
/// caller-provided scratch. Both passes run through
/// the dispatched [`kernels::tx_pass_strided`] over a transposed
/// intermediate; each output coefficient accumulates in the same index
/// order as the naive formulation in every backend, so results are
/// bit-identical regardless of `VCU_SIMD`.
///
/// # Panics
///
/// Panics if `n` is not one of [`TX_SIZES`] or `residual.len() != n*n`.
pub fn forward_with(residual: &[i16], n: usize, out: &mut [f64], scratch: &mut TxScratch) {
    assert_eq!(residual.len(), n * n, "residual size mismatch");
    assert_eq!(out.len(), n * n, "output size mismatch");
    // `basis_t` is the transpose of `basis`, so it doubles as the
    // column-major view SIMD backends load from.
    let b = basis(n);
    let bt = basis_t(n);
    let TxScratch { t0, t1 } = scratch;
    // Widen the residual once (n^2 conversions instead of n^3).
    t1.clear();
    t1.extend(residual.iter().map(|&r| r as f64));
    let rf: &[f64] = t1;
    // tt = (B * X)^T: tt[k*n+y] = sum_i b[k*n+i] * x[y*n+i].
    t0.clear();
    t0.resize(n * n, 0.0);
    kernels::tx_pass_strided(b, bt, rf, n, t0);
    // out = B * tt^T: out[k*n+x] = sum_i b[k*n+i] * tt[x*n+i].
    kernels::tx_pass_strided(b, bt, t0, n, out);
}

/// Inverse 2-D DCT producing an `n x n` residual block rounded to i16,
/// with caller-provided scratch. Transposes the coefficient
/// block once so both passes are contiguous; per-output accumulation
/// order matches the naive formulation, keeping reconstruction
/// bit-exact with the encoder-side reference path.
///
/// # Panics
///
/// Panics if `n` is not one of [`TX_SIZES`] or sizes mismatch.
pub fn inverse_with(coeffs: &[f64], n: usize, out: &mut [i16], scratch: &mut TxScratch) {
    assert_eq!(coeffs.len(), n * n, "coeff size mismatch");
    assert_eq!(out.len(), n * n, "output size mismatch");
    // Both passes multiply by B^T, whose column-major view is `basis`.
    let b = basis(n);
    let bt = basis_t(n);
    let TxScratch { t0, t1 } = scratch;
    // ct = C^T so the column pass reads rows.
    t1.clear();
    t1.resize(n * n, 0.0);
    for k in 0..n {
        for x in 0..n {
            t1[x * n + k] = coeffs[k * n + x];
        }
    }
    // tmp = B^T * C: tmp[y*n+x] = sum_k bt[y*n+k] * ct[x*n+k].
    t0.clear();
    t0.resize(n * n, 0.0);
    kernels::tx_pass_strided(bt, b, t1, n, t0);
    // out = tmp * B: out[y*n+x] = sum_k tmp[y*n+k] * bt[x*n+k],
    // computed in f64 (reusing t1), then rounded half-away-from-zero
    // and narrowed to i16 (exact in every backend).
    kernels::tx_pass_contig(bt, b, t0, n, t1);
    kernels::round_clamp_i16(t1, out);
}

/// Zigzag scan order for an `n x n` block: coefficients ordered by
/// anti-diagonal, low frequencies first. Cached per size.
pub fn zigzag(n: usize) -> &'static [usize] {
    static ZIGZAGS: OnceLock<[Vec<usize>; 4]> = OnceLock::new();
    let all = ZIGZAGS.get_or_init(|| {
        let make = |n: usize| {
            let mut order: Vec<usize> = (0..n * n).collect();
            order.sort_by_key(|&idx| {
                let (y, x) = (idx / n, idx % n);
                let d = x + y;
                // Alternate direction along each anti-diagonal.
                let pos = if d % 2 == 0 { n - 1 - x } else { x };
                (d, pos)
            });
            order
        };
        [make(4), make(8), make(16), make(32)]
    });
    match n {
        4 => &all[0],
        8 => &all[1],
        16 => &all[2],
        32 => &all[3],
        _ => panic!("unsupported transform size {n}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forward(residual: &[i16], n: usize, out: &mut [f64]) {
        forward_with(residual, n, out, &mut TxScratch::new());
    }

    fn inverse(coeffs: &[f64], n: usize, out: &mut [i16]) {
        inverse_with(coeffs, n, out, &mut TxScratch::new());
    }

    fn round_trip(n: usize) {
        let residual: Vec<i16> = (0..n * n)
            .map(|i| (((i * 37) % 255) as i16) - 128)
            .collect();
        let mut coeffs = vec![0.0; n * n];
        forward(&residual, n, &mut coeffs);
        let mut back = vec![0i16; n * n];
        inverse(&coeffs, n, &mut back);
        assert_eq!(residual, back, "lossless round trip failed for n={n}");
    }

    #[test]
    fn all_sizes_round_trip() {
        for &n in &TX_SIZES {
            round_trip(n);
        }
    }

    #[test]
    fn dc_coefficient_is_scaled_mean() {
        let n = 8;
        let residual = vec![10i16; n * n];
        let mut coeffs = vec![0.0; n * n];
        forward(&residual, n, &mut coeffs);
        // Orthonormal DCT: DC = mean * n (since scale = 1/sqrt(n) per dim).
        assert!((coeffs[0] - 10.0 * n as f64).abs() < 1e-9);
        // Everything else zero for constant input.
        assert!(coeffs[1..].iter().all(|c| c.abs() < 1e-9));
    }

    #[test]
    fn energy_preserved() {
        // Parseval: orthonormal transform preserves L2 energy.
        let n = 16;
        let residual: Vec<i16> = (0..n * n).map(|i| ((i * 13 % 41) as i16) - 20).collect();
        let mut coeffs = vec![0.0; n * n];
        forward(&residual, n, &mut coeffs);
        let e_in: f64 = residual.iter().map(|&r| (r as f64) * (r as f64)).sum();
        let e_out: f64 = coeffs.iter().map(|c| c * c).sum();
        assert!((e_in - e_out).abs() / e_in < 1e-9);
    }

    #[test]
    fn smooth_content_compacts_energy() {
        // A gradient should put nearly all energy in low frequencies.
        let n = 8;
        let residual: Vec<i16> = (0..n * n).map(|i| (i % n) as i16 * 4).collect();
        let mut coeffs = vec![0.0; n * n];
        forward(&residual, n, &mut coeffs);
        let zz = zigzag(n);
        let low: f64 = zz[..8].iter().map(|&i| coeffs[i] * coeffs[i]).sum();
        let total: f64 = coeffs.iter().map(|c| c * c).sum();
        assert!(low / total > 0.95, "energy compaction {}", low / total);
    }

    #[test]
    fn zigzag_is_permutation() {
        for &n in &TX_SIZES {
            let mut seen = vec![false; n * n];
            for &i in zigzag(n) {
                assert!(!seen[i], "duplicate index {i}");
                seen[i] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn zigzag_starts_at_dc() {
        for &n in &TX_SIZES {
            assert_eq!(zigzag(n)[0], 0);
            // Second element is one of the two d=1 anti-diagonal cells.
            assert!(
                zigzag(n)[1] == 1 || zigzag(n)[1] == n,
                "second element not on the first anti-diagonal for n={n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unsupported transform size")]
    fn bad_size_panics() {
        let mut out = vec![0.0; 9];
        forward(&[0i16; 9], 3, &mut out);
    }

    /// The contiguous-pass implementation must be *bit*-identical to
    /// the naive triple loop, not just close: recon bitstreams hash
    /// these outputs.
    #[test]
    fn fast_path_bit_identical_to_naive() {
        let mut scratch = TxScratch::new();
        for &n in &TX_SIZES {
            let residual: Vec<i16> = (0..n * n)
                .map(|i| (((i * 97 + 31) % 511) as i16) - 255)
                .collect();
            let b = basis(n);
            // Naive forward.
            let mut tmp = vec![0.0f64; n * n];
            for k in 0..n {
                for y in 0..n {
                    let mut acc = 0.0;
                    for i in 0..n {
                        acc += b[k * n + i] * residual[y * n + i] as f64;
                    }
                    tmp[y * n + k] = acc;
                }
            }
            let mut naive_f = vec![0.0f64; n * n];
            for k in 0..n {
                for x in 0..n {
                    let mut acc = 0.0;
                    for i in 0..n {
                        acc += b[k * n + i] * tmp[i * n + x];
                    }
                    naive_f[k * n + x] = acc;
                }
            }
            let mut fast_f = vec![0.0f64; n * n];
            forward_with(&residual, n, &mut fast_f, &mut scratch);
            for (a, c) in naive_f.iter().zip(&fast_f) {
                assert_eq!(a.to_bits(), c.to_bits(), "forward diverged for n={n}");
            }
            // Naive inverse.
            let mut tmp2 = vec![0.0f64; n * n];
            for y in 0..n {
                for x in 0..n {
                    let mut acc = 0.0;
                    for k in 0..n {
                        acc += b[k * n + y] * naive_f[k * n + x];
                    }
                    tmp2[y * n + x] = acc;
                }
            }
            let mut naive_i = vec![0i16; n * n];
            for y in 0..n {
                for x in 0..n {
                    let mut acc = 0.0;
                    for k in 0..n {
                        acc += tmp2[y * n + k] * b[k * n + x];
                    }
                    naive_i[y * n + x] = acc.round().clamp(i16::MIN as f64, i16::MAX as f64) as i16;
                }
            }
            let mut fast_i = vec![0i16; n * n];
            inverse_with(&fast_f, n, &mut fast_i, &mut scratch);
            assert_eq!(naive_i, fast_i, "inverse diverged for n={n}");
        }
    }
}
