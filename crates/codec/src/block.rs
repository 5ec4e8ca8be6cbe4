//! Block/tile coding helpers shared by encoder and decoder.
//!
//! The encoder transforms and quantizes a residual tile into levels;
//! both sides then call the same [`code_tile`]: it codes the levels and
//! runs the dequantize→inverse→add reconstruction, so the encoder's
//! reconstruction and the decoder's output are bit-exact.

use crate::entropy::BoolCoder;
use crate::models::{tx_class, Models};
use crate::quant::{dequantize, optimize_levels, quantize};
use crate::stats::CodingStats;
use crate::transform::{forward_with, inverse_with, zigzag, TxScratch};
use crate::types::Qp;

/// Reusable buffers for tile coding so the per-tile hot path performs
/// no heap allocation. One instance lives in the frame-level scratch
/// arena; buffers grow to the largest tile seen and are reused.
///
/// After [`code_tile`] returns, `recon` holds the `tw x th`
/// reconstructed residual.
#[derive(Debug, Default)]
pub(crate) struct TileScratch {
    padded: Vec<i16>,
    coeffs: Vec<f64>,
    /// The tile's levels in raster order: the encoder's quantized ones
    /// going into [`code_tile`], the coded ones coming out.
    levels: Vec<i32>,
    /// Zigzag index of the last nonzero level [`quantize_tile`] left.
    last: Option<usize>,
    spatial: Vec<i16>,
    tx: TxScratch,
    /// Reconstructed residual of the last coded tile (`tw x th`).
    pub(crate) recon: Vec<i16>,
}

impl TileScratch {
    /// Starts a `t x t` tile from all-zero levels, which [`code_tile`]
    /// then fills from the payload (the decoder's half of a tile).
    pub(crate) fn zero_levels(&mut self, t: usize) {
        self.levels.clear();
        self.levels.resize(t * t, 0);
    }
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

/// Transforms and quantizes one residual tile into the levels
/// [`code_tile`] codes next (the encoder's half of a tile).
///
/// The `tw x th` spatial-domain residual is read from rows `stride`
/// apart starting at `residual[0]`, and zero-padded to the full `t x t`
/// transform for partial tiles at frame edges.
#[allow(clippy::too_many_arguments)]
pub(crate) fn quantize_tile(
    residual: &[i16],
    stride: usize,
    tw: usize,
    th: usize,
    t: usize,
    qp: Qp,
    deadzone: f64,
    trellis: bool,
    stats: &mut CodingStats,
    ts: &mut TileScratch,
) {
    let n = t * t;
    let TileScratch {
        padded,
        coeffs,
        levels,
        last,
        tx,
        ..
    } = ts;
    padded.clear();
    padded.resize(n, 0);
    for y in 0..th {
        padded[y * t..y * t + tw].copy_from_slice(&residual[y * stride..y * stride + tw]);
    }
    coeffs.resize(n, 0.0);
    forward_with(padded, t, &mut coeffs[..n], tx);
    stats.transform_pixels += n as u64;

    levels.resize(n, 0);
    quantize(&coeffs[..n], qp, deadzone, &mut levels[..n]);
    if trellis {
        optimize_levels(&coeffs[..n], qp, qp.lambda() * 0.15, &mut levels[..n]);
    }
    let zz = zigzag(t);
    *last = (0..n).rev().find(|&i| levels[zz[i]] != 0);
}

/// Codes one tile's levels and reconstructs it; the `tw x th`
/// reconstruction lands in `ts.recon`. The encoder codes the levels
/// [`quantize_tile`] left in `ts`; the decoder reads them into the
/// zeros [`TileScratch::zero_levels`] left.
///
/// Syntax, in zigzag order: a has-coefficients flag, the index of the
/// last nonzero level, then every level up to it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn code_tile(
    c: &mut impl BoolCoder,
    models: &mut Models,
    tw: usize,
    th: usize,
    t: usize,
    qp: Qp,
    stats: &mut CodingStats,
    ts: &mut TileScratch,
) {
    let n = t * t;
    let (zz, cls) = (zigzag(t), tx_class(t));
    let TileScratch {
        coeffs,
        levels,
        last,
        spatial,
        tx,
        recon,
        ..
    } = ts;
    if models.has_coeffs.code(c, cls, last.is_some()) {
        let last = models.last_nz[cls].code_uint(c, 0, last.unwrap_or(0) as u32) as usize;
        for (i, &zi) in zz[..=last.min(n - 1)].iter().enumerate() {
            let base = if i == 0 { 0 } else { 4 };
            levels[zi] = models.level[cls].code_int(c, base, levels[zi]);
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
    use crate::entropy::{BoolDecoder, BoolEncoder};

    /// Encodes one `tw x th` residual tile in an `t x t` transform at
    /// `qp`; returns the payload and the encoder's reconstruction.
    fn encode(residual: &[i16], tw: usize, th: usize, t: usize, qp: Qp) -> (Vec<u8>, Vec<i16>) {
        let mut stats = CodingStats::new();
        let mut enc = BoolEncoder::new();
        let mut ts = TileScratch::default();
        quantize_tile(residual, tw, tw, th, t, qp, 0.5, false, &mut stats, &mut ts);
        code_tile(
            &mut enc,
            &mut Models::new(),
            tw,
            th,
            t,
            qp,
            &mut stats,
            &mut ts,
        );
        (enc.finish(), ts.recon)
    }

    /// Decodes what [`encode`] wrote, into a fresh scratch.
    fn decode(bytes: &[u8], tw: usize, th: usize, t: usize, qp: Qp) -> Vec<i16> {
        let mut ts = TileScratch::default();
        ts.zero_levels(t);
        let mut dec = BoolDecoder::new(bytes);
        let mut stats = CodingStats::new();
        code_tile(
            &mut dec,
            &mut Models::new(),
            tw,
            th,
            t,
            qp,
            &mut stats,
            &mut ts,
        );
        ts.recon
    }

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
        let residual: Vec<i16> = (0..64).map(|i| ((i * 7) % 61) as i16 - 30).collect();
        let qp = Qp::new(20);
        let (bytes, recon_e) = encode(&residual, 8, 8, 8, qp);
        assert_eq!(
            recon_e,
            decode(&bytes, 8, 8, 8, qp),
            "encoder/decoder reconstruction mismatch"
        );
    }

    #[test]
    fn partial_tile_round_trip() {
        // 5x3 residual in an 8x8 transform.
        let (tw, th, t) = (5, 3, 8);
        let residual: Vec<i16> = (0..15).map(|i| (i as i16) * 9 - 60).collect();
        let qp = Qp::new(8);
        let (bytes, recon_e) = encode(&residual, tw, th, t, qp);
        assert_eq!(recon_e, decode(&bytes, tw, th, t, qp));
        assert_eq!(recon_e.len(), tw * th);
    }

    /// Decoding over a scratch that still holds another tile's levels
    /// yields the same tile once `zero_levels` has cleared them.
    #[test]
    fn zero_levels_clears_a_stale_tile() {
        let residual: Vec<i16> = (0..64).map(|i| ((i * 13) % 41) as i16 - 20).collect();
        let qp = Qp::new(20);
        let (bytes, recon_e) = encode(&residual, 8, 8, 8, qp);
        let mut stats = CodingStats::new();
        let mut ts = TileScratch::default();
        let noise: Vec<i16> = (0..64).map(|i| (i % 5) as i16 * 40 - 80).collect();
        quantize_tile(
            &noise,
            8,
            8,
            8,
            8,
            Qp::new(0),
            0.5,
            false,
            &mut stats,
            &mut ts,
        );
        ts.zero_levels(8);
        let mut dec = BoolDecoder::new(&bytes);
        code_tile(
            &mut dec,
            &mut Models::new(),
            8,
            8,
            8,
            qp,
            &mut stats,
            &mut ts,
        );
        assert_eq!(recon_e, ts.recon);
    }

    #[test]
    fn low_qp_tile_is_near_lossless() {
        let residual: Vec<i16> = (0..64).map(|i| ((i * 13) % 41) as i16 - 20).collect();
        let (_, recon) = encode(&residual, 8, 8, 8, Qp::new(0));
        let max_err = residual
            .iter()
            .zip(&recon)
            .map(|(a, b)| (a - b).abs())
            .max()
            .unwrap();
        assert!(max_err <= 1, "qp0 max error {max_err}");
    }

    #[test]
    fn zero_residual_codes_one_flag() {
        let (bytes, _) = encode(&[0; 64], 8, 8, 8, Qp::new(30));
        // Flush dominates; payload must be tiny.
        assert!(bytes.len() <= 6);
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
