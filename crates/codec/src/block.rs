//! Block/tile coding helpers shared by encoder and decoder.
//!
//! Residual tiles are transformed, quantized and entropy-coded here;
//! both sides call the same dequantize→inverse→add reconstruction path,
//! which is what makes encoder reconstruction and decoder output
//! bit-exact.

use crate::entropy::{read_int, read_uint, write_int, write_uint, BoolDecoder, BoolEncoder};
use crate::models::{tx_class, Models};
use crate::quant::{dequantize, optimize_levels, quantize};
use crate::stats::CodingStats;
use crate::transform::{forward_with, inverse_with, zigzag, TxScratch};
use crate::types::Qp;

/// Reusable buffers for tile encode/decode so the per-tile hot path
/// performs no heap allocation. One instance lives in the frame-level
/// scratch arena; buffers grow to the largest tile seen and are reused.
///
/// After [`encode_tile`]/[`decode_tile`] return, `recon` holds the
/// `tw x th` reconstructed residual.
#[derive(Debug, Default)]
pub(crate) struct TileScratch {
    padded: Vec<i16>,
    coeffs: Vec<f64>,
    levels: Vec<i32>,
    spatial: Vec<i16>,
    tx: TxScratch,
    /// Reconstructed residual of the last coded tile (`tw x th`).
    pub(crate) recon: Vec<i16>,
}

/// Iterates tiles of granularity `t` covering a `bw x bh` block,
/// calling `f(tx, ty, tw, th)` with tile-local offsets and actual
/// (possibly partial) tile dimensions.
pub(crate) fn for_each_tile(
    bw: usize,
    bh: usize,
    t: usize,
    mut f: impl FnMut(usize, usize, usize, usize),
) {
    let mut ty = 0;
    while ty < bh {
        let th = t.min(bh - ty);
        let mut tx = 0;
        while tx < bw {
            let tw = t.min(bw - tx);
            f(tx, ty, tw, th);
            tx += t;
        }
        ty += t;
    }
}

/// Encodes one residual tile; the reconstruction lands in `ts.recon`.
///
/// `residual` is the `tw x th` spatial-domain residual (row-major),
/// which is zero-padded to the full `t x t` transform internally for
/// partial tiles at frame edges. The reconstruction is `tw x th`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_tile(
    enc: &mut BoolEncoder,
    models: &mut Models,
    residual: &[i16],
    tw: usize,
    th: usize,
    t: usize,
    qp: Qp,
    deadzone: f64,
    trellis: bool,
    stats: &mut CodingStats,
    ts: &mut TileScratch,
) {
    debug_assert_eq!(residual.len(), tw * th);
    let n = t * t;
    let TileScratch {
        padded,
        coeffs,
        levels,
        spatial,
        tx,
        recon,
    } = ts;
    // Pad to full transform size.
    padded.clear();
    padded.resize(n, 0);
    for y in 0..th {
        padded[y * t..y * t + tw].copy_from_slice(&residual[y * tw..(y + 1) * tw]);
    }
    coeffs.resize(n, 0.0);
    forward_with(padded, t, &mut coeffs[..n], tx);
    stats.transform_pixels += n as u64;

    levels.resize(n, 0);
    quantize(&coeffs[..n], qp, deadzone, &mut levels[..n]);
    if trellis {
        optimize_levels(&coeffs[..n], qp, qp.lambda() * 0.15, &mut levels[..n]);
    }

    // Zigzag order, scanned in place (no gather buffer).
    let zz = zigzag(t);
    let cls = tx_class(t);
    let last = (0..n).rev().find(|&i| levels[zz[i]] != 0);
    match last {
        None => {
            models.has_coeffs.encode(enc, cls, false);
        }
        Some(last) => {
            models.has_coeffs.encode(enc, cls, true);
            write_uint(enc, &mut models.last_nz[cls], 0, last as u32);
            for (i, &zi) in zz.iter().take(last + 1).enumerate() {
                let base = if i == 0 { 0 } else { 4 };
                write_int(enc, &mut models.level[cls], base, levels[zi]);
            }
        }
    }

    // Reconstruct exactly as the decoder will.
    reconstruct_tile(levels, t, tw, th, qp, stats, coeffs, spatial, tx, recon);
}

/// Decodes one residual tile; the `tw x th` reconstruction lands in
/// `ts.recon`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decode_tile(
    dec: &mut BoolDecoder<'_>,
    models: &mut Models,
    tw: usize,
    th: usize,
    t: usize,
    qp: Qp,
    stats: &mut CodingStats,
    ts: &mut TileScratch,
) {
    let n = t * t;
    let cls = tx_class(t);
    let TileScratch {
        coeffs,
        levels,
        spatial,
        tx,
        recon,
        ..
    } = ts;
    levels.clear();
    levels.resize(n, 0);
    if models.has_coeffs.decode(dec, cls) {
        let last = read_uint(dec, &mut models.last_nz[cls], 0) as usize;
        let zz = zigzag(t);
        for i in 0..=last.min(n - 1) {
            let base = if i == 0 { 0 } else { 4 };
            levels[zz[i]] = read_int(dec, &mut models.level[cls], base);
        }
    }
    reconstruct_tile(levels, t, tw, th, qp, stats, coeffs, spatial, tx, recon);
}

/// Shared reconstruction: dequantize + inverse transform + crop.
///
/// A tile whose levels are all zero dequantizes to zero coefficients,
/// and the inverse of those rounds to an all-zero residual, so that
/// tile is written as zeros without running either. It is billed
/// `transform_pixels` all the same: the count is the device charge.
#[allow(clippy::too_many_arguments)]
fn reconstruct_tile(
    levels: &[i32],
    t: usize,
    tw: usize,
    th: usize,
    qp: Qp,
    stats: &mut CodingStats,
    coeffs: &mut Vec<f64>,
    spatial: &mut Vec<i16>,
    tx: &mut TxScratch,
    out: &mut Vec<i16>,
) {
    let n = t * t;
    stats.transform_pixels += n as u64;
    out.clear();
    out.resize(tw * th, 0);
    if levels[..n].iter().all(|&l| l == 0) {
        return;
    }
    coeffs.resize(n, 0.0);
    dequantize(&levels[..n], qp, &mut coeffs[..n]);
    spatial.resize(n, 0);
    inverse_with(&coeffs[..n], t, &mut spatial[..n], tx);
    for y in 0..th {
        out[y * tw..(y + 1) * tw].copy_from_slice(&spatial[y * t..y * t + tw]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::BoolDecoder;

    #[test]
    fn tile_iteration_covers_block() {
        let mut covered = vec![false; 20 * 12];
        for_each_tile(20, 12, 8, |tx, ty, tw, th| {
            for y in ty..ty + th {
                for x in tx..tx + tw {
                    assert!(!covered[y * 20 + x], "tile overlap at ({x},{y})");
                    covered[y * 20 + x] = true;
                }
            }
        });
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn tile_round_trip_enc_dec() {
        let tw = 8;
        let th = 8;
        let t = 8;
        let residual: Vec<i16> = (0..64).map(|i| ((i * 7) % 61) as i16 - 30).collect();
        let qp = Qp::new(20);
        let mut stats = CodingStats::new();

        let mut enc = BoolEncoder::new();
        let mut me = Models::new();
        let mut ts = TileScratch::default();
        encode_tile(
            &mut enc, &mut me, &residual, tw, th, t, qp, 0.5, false, &mut stats, &mut ts,
        );
        let recon_e = ts.recon.clone();
        let bytes = enc.finish();

        let mut dec = BoolDecoder::new(&bytes);
        let mut md = Models::new();
        decode_tile(&mut dec, &mut md, tw, th, t, qp, &mut stats, &mut ts);
        assert_eq!(recon_e, ts.recon, "encoder/decoder reconstruction mismatch");
    }

    #[test]
    fn partial_tile_round_trip() {
        // 5x3 residual in an 8x8 transform.
        let (tw, th, t) = (5, 3, 8);
        let residual: Vec<i16> = (0..15).map(|i| (i as i16) * 9 - 60).collect();
        let qp = Qp::new(8);
        let mut stats = CodingStats::new();
        let mut enc = BoolEncoder::new();
        let mut me = Models::new();
        let mut ts = TileScratch::default();
        encode_tile(
            &mut enc, &mut me, &residual, tw, th, t, qp, 0.5, false, &mut stats, &mut ts,
        );
        let recon_e = ts.recon.clone();
        let bytes = enc.finish();
        let mut dec = BoolDecoder::new(&bytes);
        let mut md = Models::new();
        decode_tile(&mut dec, &mut md, tw, th, t, qp, &mut stats, &mut ts);
        assert_eq!(recon_e, ts.recon);
        assert_eq!(recon_e.len(), tw * th);
    }

    #[test]
    fn low_qp_tile_is_near_lossless() {
        let residual: Vec<i16> = (0..64).map(|i| ((i * 13) % 41) as i16 - 20).collect();
        let mut stats = CodingStats::new();
        let mut enc = BoolEncoder::new();
        let mut me = Models::new();
        let mut ts = TileScratch::default();
        encode_tile(
            &mut enc,
            &mut me,
            &residual,
            8,
            8,
            8,
            Qp::new(0),
            0.5,
            false,
            &mut stats,
            &mut ts,
        );
        let max_err = residual
            .iter()
            .zip(&ts.recon)
            .map(|(a, b)| (a - b).abs())
            .max()
            .unwrap();
        assert!(max_err <= 1, "qp0 max error {max_err}");
    }

    #[test]
    fn zero_residual_codes_one_flag() {
        let residual = vec![0i16; 64];
        let mut stats = CodingStats::new();
        let mut enc = BoolEncoder::new();
        let mut me = Models::new();
        let mut ts = TileScratch::default();
        encode_tile(
            &mut enc,
            &mut me,
            &residual,
            8,
            8,
            8,
            Qp::new(30),
            0.5,
            false,
            &mut stats,
            &mut ts,
        );
        // Flush dominates; payload must be tiny.
        assert!(enc.finish().len() <= 6);
    }

    #[test]
    fn residual_computation() {
        let cur = vec![100u8, 200, 0, 255];
        let pred = vec![90u8, 210, 5, 250];
        let mut res = vec![0i16; 4];
        crate::kernels::compute_residual(&cur, &pred, &mut res);
        assert_eq!(res, vec![10, -10, -5, 5]);
    }
}
