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

/// Half-width of the window [`Visited`] tracks, in full pels.
const VISITED_RANGE: i16 = 32;
const VISITED_SIDE: usize = 2 * VISITED_RANGE as usize + 1;
const VISITED_WORDS: usize = (VISITED_SIDE * VISITED_SIDE).div_ceil(64);

/// The full-pel vectors one search has scored: one bit per vector with
/// both components within ±[`VISITED_RANGE`]. A vector outside the
/// window is never recorded, so it is always scored. At 67 words it
/// lives on the stack, and a one-shot [`search`] pays only for zeroing
/// it.
struct Visited([u64; VISITED_WORDS]);

impl Visited {
    fn new() -> Self {
        Visited([0; VISITED_WORDS])
    }

    /// Records `(mx, my)`; returns `false` if it was already recorded.
    fn insert(&mut self, mx: i16, my: i16) -> bool {
        if mx.abs() > VISITED_RANGE || my.abs() > VISITED_RANGE {
            return true;
        }
        let bit = (my + VISITED_RANGE) as usize * VISITED_SIDE + (mx + VISITED_RANGE) as usize;
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        let fresh = self.0[word] & mask == 0;
        self.0[word] |= mask;
        fresh
    }
}

/// [`search`] with caller-provided scratch buffers (zero allocations).
///
/// Candidate SADs use [`Plane::sad_block_thresholded`] with the
/// best-so-far as the threshold: a candidate that cannot win is
/// abandoned row-by-row. Because a pruned candidate's partial sum is
/// `>= best_sad`, every `sad < best_sad` comparison — and therefore the
/// returned vector and SAD — is identical to the unthresholded search.
///
/// A full-pel candidate the search already scored is not scored again:
/// its SAD (or pruned partial sum) was no better than the best at the
/// time, and the best only improves, so it cannot win now either.
///
/// Metering policy: `sad_pixels`/`ref_bytes_read` keep charging the
/// full `bw * bh` per candidate, rescored ones included (the device
/// timing charge a hardware SAD array would burn), while
/// `sad_pixels_examined` records the pixels the host actually touched.
/// A caller that replays a recorded search instead of running it (the
/// frame coder's memo and aliased reference slots) replays the charge
/// but adds no examined pixels.
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
    let mut visited = Visited::new();
    let mut eval_full = |mx: i16, my: i16, threshold: u64, stats: &mut CodingStats| -> u64 {
        stats.sad_pixels += (bw * bh) as u64;
        stats.ref_bytes_read += (bw * bh) as u64;
        if !visited.insert(mx, my) {
            return u64::MAX;
        }
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

/// Differential test: the search against the search as it was before
/// the visited set, which scores every candidate it meets.
#[cfg(test)]
mod differential {
    use super::*;

    /// Every candidate scored, rescored ones included.
    #[allow(clippy::too_many_arguments)]
    fn rescoring_search(
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
        let mut cur = vec![0; bw * bh];
        current.copy_block_clamped(x as isize, y as isize, bw, bh, &mut cur);
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
                &cur,
                threshold,
            );
            stats.sad_pixels_examined += examined;
            sad
        };
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
                    step_large = false;
                } else {
                    break;
                }
            }
        }
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
        if params.half_pel {
            let mut buf = vec![0; bw * bh];
            for dy in -1i16..=1 {
                for dx in -1i16..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let cand = MotionVector::new(best_mv.x + dx, best_mv.y + dy);
                    mc_block(reference, x, y, cand, bw, bh, &mut buf);
                    stats.sad_pixels += (bw * bh) as u64;
                    stats.ref_bytes_read += (bw * bh * 2) as u64;
                    let (s, examined) = kernels::sad_rows_thresholded(&buf, &cur, bw, best_sad);
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

    /// SplitMix64 step, for seeded test inputs.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(state: &mut u64, lo: i64, hi: i64) -> i64 {
        lo + (next(state) % (hi - lo + 1) as u64) as i64
    }

    /// A smooth random texture with grain, so the diamond has slopes
    /// to walk, and a copy of it moved by up to ±48 pels (past the
    /// visited window) with fresh grain.
    fn planes(state: &mut u64) -> (Plane, Plane) {
        let (w, h) = (96, 80);
        let (a, b) = (
            range(state, 5, 40) as f64 / 100.0,
            range(state, 5, 40) as f64 / 100.0,
        );
        let (p, q) = (
            range(state, 0, 628) as f64 / 100.0,
            range(state, 0, 628) as f64 / 100.0,
        );
        let grain = range(state, 0, 12) as u64;
        let seed = next(state);
        let texture = |x: isize, y: isize, salt: u64| {
            let mut g = seed ^ salt ^ ((x as u64) << 20) ^ (y as u64);
            let n = (next(&mut g) % (grain + 1)) as f64;
            ((x as f64 * a + p).sin() * 50.0 + (y as f64 * b + q).cos() * 50.0 + 128.0 + n) as u8
        };
        let (sx, sy) = (
            range(state, -48, 48) as isize,
            range(state, -24, 24) as isize,
        );
        let reference = Plane::from_fn(w, h, |x, y| texture(x as isize, y as isize, 0));
        let current = Plane::from_fn(w, h, |x, y| texture(x as isize + sx, y as isize + sy, 1));
        (reference, current)
    }

    #[test]
    fn search_matches_the_rescoring_reference() {
        let presets = [
            SearchParams::hardware(),
            SearchParams::software(),
            // A tight window clamps many candidates onto one vector.
            SearchParams {
                max_range: 3,
                ..SearchParams::software()
            },
        ];
        let mut state = 0x5EED;
        let (mut examined, mut reference_examined) = (0u64, 0u64);
        let mut scratch = MotionScratch::new();
        for case in 0..360 {
            let (reference, current) = planes(&mut state);
            let params = presets[case % presets.len()];
            let size = [8, 16, 32, 64][range(&mut state, 0, 3) as usize];
            // Positions up to the last pixel: blocks straddle the edge.
            let (x, y) = (
                range(&mut state, 0, 95) as usize,
                range(&mut state, 0, 79) as usize,
            );
            let (bw, bh) = if case % 2 == 0 {
                (size, size)
            } else {
                (size.min(96 - x), size.min(80 - y))
            };
            // Predictors in half-pels, out to twice the widest window.
            let reach = 2 * 2 * params.max_range as i64;
            let predictor = MotionVector::new(
                range(&mut state, -reach, reach) as i16,
                range(&mut state, -reach, reach) as i16,
            );
            let mut got_stats = CodingStats::new();
            let got = search_scratch(
                &reference,
                &current,
                x,
                y,
                bw,
                bh,
                predictor,
                &params,
                &mut got_stats,
                &mut scratch,
            );
            let mut want_stats = CodingStats::new();
            let want = rescoring_search(
                &reference,
                &current,
                x,
                y,
                bw,
                bh,
                predictor,
                &params,
                &mut want_stats,
            );
            let at = format!("case {case}: {bw}x{bh} at ({x}, {y}), {predictor:?}, {params:?}");
            assert_eq!(got, want, "{at}");
            assert_eq!(got_stats.sad_pixels, want_stats.sad_pixels, "{at}");
            assert_eq!(got_stats.ref_bytes_read, want_stats.ref_bytes_read, "{at}");
            assert_eq!(
                CodingStats {
                    sad_pixels_examined: 0,
                    ..got_stats
                },
                CodingStats {
                    sad_pixels_examined: 0,
                    ..want_stats
                },
                "{at}"
            );
            assert!(
                got_stats.sad_pixels_examined <= want_stats.sad_pixels_examined,
                "{at}"
            );
            examined += got_stats.sad_pixels_examined;
            reference_examined += want_stats.sad_pixels_examined;
        }
        assert!(
            examined < reference_examined,
            "no candidate was skipped: examined {examined} vs {reference_examined}"
        );
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
