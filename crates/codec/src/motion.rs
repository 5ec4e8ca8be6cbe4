//! Motion estimation and motion compensation.
//!
//! Estimation runs a predictor-seeded diamond search at full-pel
//! followed by an optional exhaustive refinement window and a half-pel
//! refinement step. The VCU performs "an exhaustive, multi-resolution
//! motion search (down to 1/8th pixel resolution)" in its reference
//! store (§3.2); we bound precision at half-pel and meter every SAD so
//! the device timing models can charge for the search work.

use crate::kernels;
use crate::stats::CodingStats;
use crate::types::MotionVector;
use vcu_media::Plane;

/// Motion-compensates a `bw x bh` block: fetches the block at
/// `(x, y) + mv` from `reference` into `out`, bilinearly interpolating
/// for half-pel vectors and edge-clamping at frame borders.
///
/// Half-pel taps use [`Plane::copy_block_hpel`]'s fixed-point integer
/// bilinear kernel, which is byte-identical to the old per-pixel f64
/// `sample_bilinear` path over the full u8 domain — the euclidean
/// split of the vector reproduces `floor(x + mv/2)` for negative
/// components too.
///
/// # Panics
///
/// Panics if `out.len() != bw * bh`.
pub(crate) fn mc_block(
    reference: &Plane,
    x: usize,
    y: usize,
    mv: MotionVector,
    bw: usize,
    bh: usize,
    out: &mut [u8],
) {
    assert_eq!(out.len(), bw * bh, "mc output size mismatch");
    let bx = x as isize + (mv.x as isize).div_euclid(2);
    let by = y as isize + (mv.y as isize).div_euclid(2);
    let fx = (mv.x as isize).rem_euclid(2) as u8;
    let fy = (mv.y as isize).rem_euclid(2) as u8;
    kernels::plane_copy_block_hpel(reference, bx, by, fx, fy, bw, bh, out);
}

/// Search configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SearchParams {
    /// Full-pel diamond search iteration cap.
    pub diamond_iters: u32,
    /// Exhaustive refinement radius around the diamond result
    /// (0 disables; the "software" toolset uses a positive radius).
    pub exhaustive_radius: i16,
    /// Whether to refine to half-pel precision.
    pub half_pel: bool,
    /// Hard bound on |mv| components in full pels (the hardware's
    /// bounded search window; §3.2's 128-pixel horizontal window).
    pub max_range: i16,
}

impl SearchParams {
    /// Fast hardware-like search: diamond + half-pel, bounded window.
    pub fn hardware() -> Self {
        SearchParams {
            diamond_iters: 16,
            exhaustive_radius: 0,
            half_pel: true,
            max_range: 64,
        }
    }

    /// Thorough software-like search with exhaustive refinement.
    pub fn software() -> Self {
        SearchParams {
            diamond_iters: 24,
            exhaustive_radius: 3,
            half_pel: true,
            max_range: 128,
        }
    }
}

/// Result of a motion search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchResult {
    /// Best motion vector found (half-pel units).
    pub mv: MotionVector,
    /// SAD of the best match.
    pub sad: u64,
}

/// Reusable buffers for [`search_scratch`]: the current-block copy and
/// the half-pel interpolation buffer. One instance threaded through a
/// frame encode removes two heap allocations per searched block.
#[derive(Debug, Default)]
pub(crate) struct MotionScratch {
    cur: Vec<u8>,
    buf: Vec<u8>,
}

impl MotionScratch {
    /// Empty scratch; buffers grow to the largest block searched.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

/// Searches `reference` for the best match to the `bw x bh` block of
/// `current` at `(x, y)`, seeded with `predictor` (and the zero vector).
/// SAD work is metered into `stats`.
///
/// Allocates its scratch internally; hot paths should prefer
/// `search_scratch` with a reused `MotionScratch`.
#[allow(clippy::too_many_arguments)]
pub fn search(
    reference: &Plane,
    current: &Plane,
    x: usize,
    y: usize,
    bw: usize,
    bh: usize,
    predictor: MotionVector,
    params: &SearchParams,
    stats: &mut CodingStats,
) -> SearchResult {
    let mut scratch = MotionScratch::new();
    search_scratch(
        reference,
        current,
        x,
        y,
        bw,
        bh,
        predictor,
        params,
        stats,
        &mut scratch,
    )
}

/// [`search`] with caller-provided scratch buffers (zero allocations).
///
/// Candidate SADs use [`Plane::sad_block_thresholded`] with the
/// best-so-far as the threshold: a candidate that cannot win is
/// abandoned row-by-row. Because a pruned candidate's partial sum is
/// `>= best_sad`, every `sad < best_sad` comparison — and therefore the
/// returned vector and SAD — is identical to the unthresholded search.
/// Metering policy: `sad_pixels`/`ref_bytes_read` keep charging the
/// full `bw * bh` per candidate (the device timing charge a hardware
/// SAD array would burn), while `sad_pixels_examined` records the
/// pixels the host actually touched.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_scratch(
    reference: &Plane,
    current: &Plane,
    x: usize,
    y: usize,
    bw: usize,
    bh: usize,
    predictor: MotionVector,
    params: &SearchParams,
    stats: &mut CodingStats,
    scratch: &mut MotionScratch,
) -> SearchResult {
    let MotionScratch { cur, buf } = scratch;
    cur.clear();
    cur.resize(bw * bh, 0);
    current.copy_block_clamped(x as isize, y as isize, bw, bh, cur);
    let cur: &[u8] = cur;

    let clamp_mv = |v: i16| v.clamp(-params.max_range, params.max_range);
    let eval_full = |mx: i16, my: i16, threshold: u64, stats: &mut CodingStats| -> u64 {
        stats.sad_pixels += (bw * bh) as u64;
        stats.ref_bytes_read += (bw * bh) as u64;
        let (sad, examined) = kernels::plane_sad_block_thresholded(
            reference,
            x as isize + mx as isize,
            y as isize + my as isize,
            bw,
            bh,
            cur,
            threshold,
        );
        stats.sad_pixels_examined += examined;
        sad
    };

    // Seed with zero and predictor (full-pel part).
    let mut best = (0i16, 0i16);
    let mut best_sad = eval_full(0, 0, u64::MAX, stats);
    let pred = (clamp_mv(predictor.x / 2), clamp_mv(predictor.y / 2));
    if pred != (0, 0) {
        let s = eval_full(pred.0, pred.1, best_sad, stats);
        if s < best_sad {
            best_sad = s;
            best = pred;
        }
    }

    // Large-then-small diamond pattern.
    let large: [(i16, i16); 8] = [
        (0, -2),
        (1, -1),
        (2, 0),
        (1, 1),
        (0, 2),
        (-1, 1),
        (-2, 0),
        (-1, -1),
    ];
    let small: [(i16, i16); 4] = [(0, -1), (1, 0), (0, 1), (-1, 0)];
    let mut step_large = true;
    for _ in 0..params.diamond_iters {
        let pattern: &[(i16, i16)] = if step_large { &large } else { &small };
        let mut improved = false;
        for &(dx, dy) in pattern {
            let cand = (clamp_mv(best.0 + dx), clamp_mv(best.1 + dy));
            if cand == best {
                continue;
            }
            let s = eval_full(cand.0, cand.1, best_sad, stats);
            if s < best_sad {
                best_sad = s;
                best = cand;
                improved = true;
            }
        }
        if !improved {
            if step_large {
                step_large = false; // shrink the pattern once
            } else {
                break;
            }
        }
    }

    // Optional exhaustive window around the diamond result.
    let r = params.exhaustive_radius;
    if r > 0 {
        for dy in -r..=r {
            for dx in -r..=r {
                let cand = (clamp_mv(best.0 + dx), clamp_mv(best.1 + dy));
                let s = eval_full(cand.0, cand.1, best_sad, stats);
                if s < best_sad {
                    best_sad = s;
                    best = cand;
                }
            }
        }
    }

    let mut best_mv = MotionVector::full_pel(best.0, best.1);

    // Half-pel refinement. The interpolated candidate lives in the
    // scratch buffer; its SAD early-exits row-by-row against the
    // best-so-far with the same pruning-preserves-decisions argument
    // as the full-pel candidates.
    if params.half_pel {
        buf.clear();
        buf.resize(bw * bh, 0);
        for dy in -1i16..=1 {
            for dx in -1i16..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let cand = MotionVector::new(best_mv.x + dx, best_mv.y + dy);
                mc_block(reference, x, y, cand, bw, bh, buf);
                stats.sad_pixels += (bw * bh) as u64;
                stats.ref_bytes_read += (bw * bh * 2) as u64; // subpel taps
                let (s, examined) = kernels::sad_rows_thresholded(buf, cur, bw, best_sad);
                stats.sad_pixels_examined += examined;
                if s < best_sad {
                    best_sad = s;
                    best_mv = cand;
                }
            }
        }
    }

    SearchResult {
        mv: best_mv,
        sad: best_sad,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured() -> Plane {
        Plane::from_fn(64, 64, |x, y| {
            (((x * 3) ^ (y * 7)) as u8)
                .wrapping_mul(13)
                .wrapping_add(40)
        })
    }

    #[test]
    fn mc_full_pel_matches_copy() {
        let p = textured();
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        mc_block(&p, 8, 8, MotionVector::full_pel(2, -1), 8, 8, &mut a);
        p.copy_block_clamped(10, 7, 8, 8, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn mc_half_pel_interpolates() {
        let mut p = Plane::new(4, 4);
        p.set(0, 0, 0);
        p.set(1, 0, 100);
        let mut out = vec![0u8; 1];
        mc_block(&p, 0, 0, MotionVector::new(1, 0), 1, 1, &mut out);
        assert_eq!(out[0], 50);
    }

    #[test]
    fn search_finds_pure_translation() {
        let reference = textured();
        // Current frame = reference shifted right by 3, down by 2:
        // pixel (x,y) of current = reference(x-3, y-2), so the matching
        // reference block is at offset (-3,-2)... actually mv points
        // from current block to reference position: ref_pos = pos + mv.
        let current = Plane::from_fn(64, 64, |x, y| {
            reference.get_clamped(x as isize - 3, y as isize - 2)
        });
        let mut stats = CodingStats::new();
        let r = search(
            &reference,
            &current,
            16,
            16,
            16,
            16,
            MotionVector::ZERO,
            &SearchParams::hardware(),
            &mut stats,
        );
        assert_eq!(r.mv, MotionVector::full_pel(-3, -2), "mv {:?}", r.mv);
        assert_eq!(r.sad, 0);
        assert!(stats.sad_pixels > 0);
    }

    #[test]
    fn predictor_seeding_helps_long_motion() {
        let reference = textured();
        let current = Plane::from_fn(64, 64, |x, y| {
            reference.get_clamped(x as isize - 20, y as isize)
        });
        let mut stats = CodingStats::new();
        // With an accurate predictor, the search should lock on.
        let r = search(
            &reference,
            &current,
            24,
            24,
            16,
            16,
            MotionVector::full_pel(-20, 0),
            &SearchParams::hardware(),
            &mut stats,
        );
        assert_eq!(r.mv, MotionVector::full_pel(-20, 0));
        assert_eq!(r.sad, 0);
    }

    #[test]
    fn software_search_does_more_work() {
        let reference = textured();
        let current = Plane::from_fn(64, 64, |x, y| {
            reference.get_clamped(x as isize - 5, y as isize - 4)
        });
        let mut hw_stats = CodingStats::new();
        let mut sw_stats = CodingStats::new();
        search(
            &reference,
            &current,
            16,
            16,
            16,
            16,
            MotionVector::ZERO,
            &SearchParams::hardware(),
            &mut hw_stats,
        );
        search(
            &reference,
            &current,
            16,
            16,
            16,
            16,
            MotionVector::ZERO,
            &SearchParams::software(),
            &mut sw_stats,
        );
        assert!(sw_stats.sad_pixels > hw_stats.sad_pixels);
    }

    #[test]
    fn range_clamping_respected() {
        let reference = textured();
        let current = Plane::from_fn(64, 64, |x, y| {
            reference.get_clamped(x as isize - 30, y as isize)
        });
        let params = SearchParams {
            max_range: 4,
            ..SearchParams::hardware()
        };
        let mut stats = CodingStats::new();
        let r = search(
            &reference,
            &current,
            32,
            32,
            16,
            16,
            MotionVector::ZERO,
            &params,
            &mut stats,
        );
        assert!(r.mv.x.abs() <= 4 * 2 + 1, "mv beyond range: {:?}", r.mv);
    }
}

#[cfg(test)]
mod satd_tests {
    use crate::kernels::satd;

    #[test]
    fn satd_zero_for_identical() {
        let a: Vec<u8> = (0..256).map(|i| (i * 7 % 251) as u8).collect();
        assert_eq!(satd(&a, &a, 16, 16), 0);
    }

    #[test]
    fn satd_prefers_structured_residual() {
        // A flat DC offset compacts into one coefficient; random noise
        // of the same SAD spreads across all 64 — SATD should price the
        // noise higher even at equal SAD.
        let cur = vec![128u8; 64];
        let flat: Vec<u8> = vec![120u8; 64]; // SAD 512, all DC
                                             // Pseudo-random ±8 noise: same SAD, energy smeared across the
                                             // whole spectrum instead of compacting into one coefficient.
        let noisy: Vec<u8> = (0..64u32)
            .map(|i| {
                let h = i.wrapping_mul(2654435761) >> 28;
                if h % 2 == 0 {
                    120
                } else {
                    136
                }
            })
            .collect();
        let s_flat = satd(&cur, &flat, 8, 8);
        let s_noisy = satd(&cur, &noisy, 8, 8);
        assert!(s_flat < s_noisy, "flat {s_flat} vs noisy {s_noisy}");
    }

    #[test]
    fn satd_handles_partial_blocks() {
        let cur = vec![10u8; 5 * 3];
        let pred = vec![7u8; 5 * 3];
        assert_eq!(satd(&cur, &pred, 5, 3), 45);
    }
}
