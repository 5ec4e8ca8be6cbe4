//! Temporal filtering for alternate reference frames.
//!
//! Builds a denoised, non-displayable synthetic frame by
//! motion-aligning 16×16 blocks from a window of source frames and
//! blending them with similarity weights — the VP9 "altref" technique
//! the paper calls out as "a great example of an optimization that we
//! added given the more relaxed die-area constraints in a data center
//! use case" (§3.2).

use crate::motion::{mc_block, search, SearchParams};
use crate::stats::CodingStats;
use crate::types::MotionVector;
use vcu_media::Frame;
#[cfg(test)]
use vcu_media::Plane;

/// Block size used for filter alignment (matches the paper's 16×16).
const FILTER_BLOCK: usize = 16;

/// Blend diagnostics from a temporal-filter run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterStats {
    /// Mean per-neighbor blend weight in [0, 1]: how well motion
    /// alignment matched the window. Low values mean the content is not
    /// temporally predictable and an altref would mostly waste bits.
    pub mean_weight: f64,
}

/// Temporally filters `frames[center]` against its neighbors, producing
/// a denoised frame suitable for use as an alternate reference.
///
/// Each 16×16 block of the center frame is motion-aligned in every
/// other frame of the window; aligned blocks whose SAD is low get a
/// high blend weight, so static content is averaged (noise reduction)
/// while moving/occluded content falls back to the center frame.
///
/// # Panics
///
/// Panics if `frames` is empty or `center` is out of range.
pub fn temporal_filter(frames: &[&Frame], center: usize, stats: &mut CodingStats) -> Frame {
    temporal_filter_with_stats(frames, center, stats).0
}

/// Like [`temporal_filter`], additionally returning blend diagnostics.
///
/// # Panics
///
/// Panics if `frames` is empty or `center` is out of range.
pub fn temporal_filter_with_stats(
    frames: &[&Frame],
    center: usize,
    stats: &mut CodingStats,
) -> (Frame, FilterStats) {
    assert!(!frames.is_empty(), "filter window must be non-empty");
    assert!(center < frames.len(), "center index out of range");
    let base = frames[center];
    let (w, h) = (base.width(), base.height());
    let mut out = Frame::new(w, h);
    // Chroma passes through unfiltered (luma dominates both quality
    // and noise); copy it from the center frame.
    *out.u_mut() = base.u().clone();
    *out.v_mut() = base.v().clone();

    let params = SearchParams::hardware();
    let mut cur = vec![0u8; FILTER_BLOCK * FILTER_BLOCK];
    let mut aligned = vec![0u8; FILTER_BLOCK * FILTER_BLOCK];
    let mut acc = vec![0.0f64; FILTER_BLOCK * FILTER_BLOCK];

    let mut weight_sum = 0.0f64;
    let mut weight_n = 0u64;
    let mut y = 0;
    while y < h {
        let mut x = 0;
        while x < w {
            let bw = FILTER_BLOCK.min(w - x);
            let bh = FILTER_BLOCK.min(h - y);
            base.y()
                .copy_block_clamped(x as isize, y as isize, bw, bh, &mut cur[..bw * bh]);
            // Start accumulation with the center block at weight 2.
            for i in 0..bw * bh {
                acc[i] = cur[i] as f64 * 2.0;
            }
            let mut weight_total = 2.0f64;

            for (fi, f) in frames.iter().enumerate() {
                if fi == center {
                    continue;
                }
                let r = search(
                    f.y(),
                    base.y(),
                    x,
                    y,
                    bw,
                    bh,
                    MotionVector::ZERO,
                    &params,
                    stats,
                );
                mc_block(f.y(), x, y, r.mv, bw, bh, &mut aligned[..bw * bh]);
                // Similarity weight: 1 for near-identical blocks,
                // decaying to ~0 as mean absolute difference grows.
                let mad = r.sad as f64 / (bw * bh) as f64;
                let weight = (1.0 - mad / 12.0).clamp(0.0, 1.0);
                if weight > 0.0 {
                    crate::kernels::blend_accumulate(
                        &mut acc[..bw * bh],
                        &aligned[..bw * bh],
                        weight,
                    );
                    weight_total += weight;
                }
                weight_sum += weight;
                weight_n += 1;
            }

            stats.temporal_filter_pixels += (bw * bh) as u64 * frames.len() as u64;
            for by in 0..bh {
                for bx in 0..bw {
                    let v = (acc[by * bw + bx] / weight_total).round().clamp(0.0, 255.0) as u8;
                    out.y_mut().set(x + bx, y + by, v);
                }
            }
            x += FILTER_BLOCK;
        }
        y += FILTER_BLOCK;
    }
    let mean_weight = if weight_n == 0 {
        1.0
    } else {
        weight_sum / weight_n as f64
    };
    (out, FilterStats { mean_weight })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_static(seed: u64) -> Frame {
        let mut f = Frame::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                let base = 100 + ((x / 8 + y / 8) * 20) as i32;
                // Deterministic "noise".
                let n = ((x as u64 * 31 + y as u64 * 17 + seed * 97) % 7) as i32 - 3;
                f.y_mut().set(x, y, (base + n).clamp(0, 255) as u8);
            }
        }
        f
    }

    fn plane_mse(a: &Plane, b: &Plane) -> f64 {
        a.sse(b) as f64 / (a.width() * a.height()) as f64
    }

    #[test]
    fn filtering_reduces_noise_on_static_content() {
        // Clean signal + per-frame noise; the filtered center frame
        // should be closer to the clean signal than the noisy center.
        let clean = {
            let mut f = Frame::new(32, 32);
            for y in 0..32 {
                for x in 0..32 {
                    f.y_mut().set(x, y, (100 + ((x / 8 + y / 8) * 20)) as u8);
                }
            }
            f
        };
        let f0 = noisy_static(1);
        let f1 = noisy_static(2);
        let f2 = noisy_static(3);
        let mut stats = CodingStats::new();
        let filtered = temporal_filter(&[&f0, &f1, &f2], 1, &mut stats);
        let before = plane_mse(f1.y(), clean.y());
        let after = plane_mse(filtered.y(), clean.y());
        assert!(
            after < before * 0.8,
            "filter did not denoise: before {before}, after {after}"
        );
        assert!(stats.temporal_filter_pixels > 0);
    }

    #[test]
    fn single_frame_window_is_identity() {
        let f = noisy_static(5);
        let mut stats = CodingStats::new();
        let out = temporal_filter(&[&f], 0, &mut stats);
        assert_eq!(out.y(), f.y());
    }

    #[test]
    fn dissimilar_frames_are_rejected() {
        // Center frame vs a wildly different frame: weight ~0, output
        // should stay close to the center frame.
        let center = noisy_static(1);
        let mut other = Frame::new(32, 32);
        other.y_mut().fill(255);
        let mut stats = CodingStats::new();
        let out = temporal_filter(&[&other, &center, &other], 1, &mut stats);
        let drift = plane_mse(out.y(), center.y());
        assert!(drift < 4.0, "output drifted {drift} from center");
    }

    #[test]
    fn chroma_passes_through() {
        let mut f = noisy_static(1);
        f.u_mut().fill(77);
        let g = noisy_static(2);
        let mut stats = CodingStats::new();
        let out = temporal_filter(&[&f, &g], 0, &mut stats);
        assert!(out.u().data().iter().all(|&v| v == 77));
    }
}
