//! Single-channel 8-bit image plane.
//!
//! A [`Plane`] is the unit of pixel storage for luma and chroma
//! channels. It provides edge-clamped sampling (used by motion search
//! at frame borders), block copy in/out (used by the block-based
//! codec), and distortion kernels (SAD / SSE) that both the encoder's
//! mode decision and the quality metrics build on.

use std::fmt;

/// A single 8-bit image plane with row-major storage.
///
/// Pixels outside the plane are defined by edge clamping, matching the
/// behaviour video codecs specify for motion vectors that point outside
/// the reference picture.
///
/// # Example
///
/// ```
/// use vcu_media::Plane;
///
/// let mut p = Plane::new(4, 4);
/// p.set(1, 1, 200);
/// assert_eq!(p.get(1, 1), 200);
/// // Edge-clamped sampling: coordinates are clamped into the plane.
/// assert_eq!(p.get_clamped(-5, 1), p.get(0, 1));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Plane {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl fmt::Debug for Plane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plane")
            .field("width", &self.width)
            .field("height", &self.height)
            .finish()
    }
}

impl Plane {
    /// Creates a zero-filled plane.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be nonzero");
        Plane {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    /// Creates a plane by evaluating `f(x, y)` for every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> u8) -> Self {
        let mut p = Plane::new(width, height);
        for y in 0..height {
            for x in 0..width {
                p.data[y * width + x] = f(x, y);
            }
        }
        p
    }

    /// Plane width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Borrow the raw row-major pixel data.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutably borrow the raw row-major pixel data.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Reads the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x]
    }

    /// Writes the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x] = v;
    }

    /// Reads the pixel at signed coordinates with edge clamping.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> u8 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Borrows one row of pixels.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn row(&self, y: usize) -> &[u8] {
        assert!(y < self.height, "row out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Copies a `bw x bh` block whose top-left corner is `(x, y)` into
    /// `dst` (row-major, length `bw * bh`). Pixels outside the plane
    /// are edge-clamped, so blocks may start at negative coordinates or
    /// extend past the border — exactly what unrestricted motion
    /// vectors require.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != bw * bh`.
    pub fn copy_block_clamped(&self, x: isize, y: isize, bw: usize, bh: usize, dst: &mut [u8]) {
        assert_eq!(dst.len(), bw * bh, "destination length mismatch");
        let in_x = x >= 0 && (x as usize) + bw <= self.width;
        let in_y = y >= 0 && (y as usize) + bh <= self.height;
        if in_x && in_y {
            // Fast path: fully interior block.
            let (x, y) = (x as usize, y as usize);
            for by in 0..bh {
                let src = &self.data[(y + by) * self.width + x..(y + by) * self.width + x + bw];
                dst[by * bw..(by + 1) * bw].copy_from_slice(src);
            }
        } else {
            // Edge-clamped fallback: each output row reads one clamped
            // source row, which splits into a replicated left border, a
            // contiguous interior run, and a replicated right border.
            let left = (-x).clamp(0, bw as isize) as usize;
            let right_start = (self.width as isize - x).clamp(left as isize, bw as isize) as usize;
            for by in 0..bh {
                let cy = (y + by as isize).clamp(0, self.height as isize - 1) as usize;
                let row = &self.data[cy * self.width..(cy + 1) * self.width];
                let out = &mut dst[by * bw..(by + 1) * bw];
                out[..left].fill(row[0]);
                if right_start > left {
                    let sx = (x + left as isize) as usize;
                    out[left..right_start].copy_from_slice(&row[sx..sx + (right_start - left)]);
                }
                out[right_start..].fill(row[self.width - 1]);
            }
        }
    }

    /// Writes a `bw x bh` block at `(x, y)`; parts outside the plane
    /// are silently cropped.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != bw * bh`.
    pub fn write_block(&mut self, x: usize, y: usize, bw: usize, bh: usize, src: &[u8]) {
        assert_eq!(src.len(), bw * bh, "source length mismatch");
        for by in 0..bh {
            let py = y + by;
            if py >= self.height {
                break;
            }
            for bx in 0..bw {
                let px = x + bx;
                if px >= self.width {
                    break;
                }
                self.data[py * self.width + px] = src[by * bw + bx];
            }
        }
    }

    /// Sum of absolute differences between the block at `(x, y)` in
    /// `self` (edge-clamped) and `other` (row-major `bw x bh`).
    ///
    /// # Panics
    ///
    /// Panics if `other.len() != bw * bh`.
    pub fn sad_block(&self, x: isize, y: isize, bw: usize, bh: usize, other: &[u8]) -> u64 {
        assert_eq!(other.len(), bw * bh, "block length mismatch");
        let mut sad = 0u64;
        let in_bounds =
            x >= 0 && y >= 0 && (x as usize) + bw <= self.width && (y as usize) + bh <= self.height;
        if in_bounds {
            let (x, y) = (x as usize, y as usize);
            for by in 0..bh {
                let row = &self.data[(y + by) * self.width + x..(y + by) * self.width + x + bw];
                let oth = &other[by * bw..(by + 1) * bw];
                for (a, b) in row.iter().zip(oth) {
                    sad += (*a as i32 - *b as i32).unsigned_abs() as u64;
                }
            }
        } else {
            for by in 0..bh {
                for bx in 0..bw {
                    let a = self.get_clamped(x + bx as isize, y + by as isize) as i32;
                    let b = other[by * bw + bx] as i32;
                    sad += (a - b).unsigned_abs() as u64;
                }
            }
        }
        sad
    }

    /// Early-exit variant of [`Plane::sad_block`]: accumulates the SAD
    /// row by row and stops as soon as the running sum reaches
    /// `threshold`, returning `(sad, pixels_examined)`.
    ///
    /// Contract: if the returned SAD is `< threshold` it is the exact
    /// full-block SAD; otherwise it is a partial sum that is `>=
    /// threshold` (and therefore `>=` any best-so-far the caller is
    /// comparing against, so `sad < threshold` decisions are identical
    /// to the unthresholded kernel). `pixels_examined` counts the
    /// pixels actually read — the honest CPU-side work metric, as
    /// opposed to the fixed `bw * bh` a hardware SAD array would burn.
    ///
    /// # Panics
    ///
    /// Panics if `other.len() != bw * bh`.
    pub fn sad_block_thresholded(
        &self,
        x: isize,
        y: isize,
        bw: usize,
        bh: usize,
        other: &[u8],
        threshold: u64,
    ) -> (u64, u64) {
        assert_eq!(other.len(), bw * bh, "block length mismatch");
        let mut sad = 0u64;
        let mut examined = 0u64;
        let in_bounds =
            x >= 0 && y >= 0 && (x as usize) + bw <= self.width && (y as usize) + bh <= self.height;
        if in_bounds {
            let (x, y) = (x as usize, y as usize);
            for by in 0..bh {
                let row = &self.data[(y + by) * self.width + x..(y + by) * self.width + x + bw];
                let oth = &other[by * bw..(by + 1) * bw];
                let mut acc = 0u64;
                for (a, b) in row.iter().zip(oth) {
                    acc += (*a as i32 - *b as i32).unsigned_abs() as u64;
                }
                sad += acc;
                examined += bw as u64;
                if sad >= threshold {
                    return (sad, examined);
                }
            }
        } else {
            for by in 0..bh {
                let mut acc = 0u64;
                for bx in 0..bw {
                    let a = self.get_clamped(x + bx as isize, y + by as isize) as i32;
                    let b = other[by * bw + bx] as i32;
                    acc += (a - b).unsigned_abs() as u64;
                }
                sad += acc;
                examined += bw as u64;
                if sad >= threshold {
                    return (sad, examined);
                }
            }
        }
        (sad, examined)
    }

    /// Sum of squared errors against another plane of identical size.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn sse(&self, other: &Plane) -> u64 {
        assert_eq!(self.width, other.width, "plane width mismatch");
        assert_eq!(self.height, other.height, "plane height mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| {
                let d = *a as i64 - *b as i64;
                (d * d) as u64
            })
            .sum()
    }

    /// Fills the entire plane with a constant value.
    pub fn fill(&mut self, v: u8) {
        self.data.fill(v);
    }

    /// Mean pixel value as a float (useful for DC statistics).
    pub fn mean(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64
    }

    /// Fetches a `bw x bh` block at half-pel precision using a
    /// fixed-point integer bilinear kernel. `(x, y)` is the full-pel
    /// top-left corner; `fx`/`fy` are half-pel fraction numerators
    /// (0 or 1, i.e. offsets of 0 or 0.5 pixels). Pixels outside the
    /// plane are edge-clamped.
    ///
    /// The integer taps — `(a + b + 1) >> 1` for the 2-tap averages
    /// and `(p00 + p10 + p01 + p11 + 2) >> 2` for the 4-tap corner —
    /// reproduce [`Plane::sample_bilinear`]'s f64 lerp + `round()`
    /// byte-for-byte over the entire u8 domain at half-pel offsets
    /// (round-half-away-from-zero equals round-half-up on non-negative
    /// values), so motion compensation can use this kernel without
    /// perturbing a single bit of the bitstream.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != bw * bh` or `fx`/`fy` exceed 1.
    #[allow(clippy::too_many_arguments)]
    pub fn copy_block_hpel(
        &self,
        x: isize,
        y: isize,
        fx: u8,
        fy: u8,
        bw: usize,
        bh: usize,
        dst: &mut [u8],
    ) {
        assert_eq!(dst.len(), bw * bh, "destination length mismatch");
        assert!(fx <= 1 && fy <= 1, "fractions are half-pel numerators");
        if fx == 0 && fy == 0 {
            self.copy_block_clamped(x, y, bw, bh, dst);
            return;
        }
        let need_w = bw + fx as usize;
        let need_h = bh + fy as usize;
        let interior = x >= 0
            && y >= 0
            && (x as usize) + need_w <= self.width
            && (y as usize) + need_h <= self.height;
        if interior {
            let (x, y) = (x as usize, y as usize);
            match (fx, fy) {
                (1, 0) => {
                    for by in 0..bh {
                        let base = (y + by) * self.width + x;
                        let row = &self.data[base..base + bw + 1];
                        let out = &mut dst[by * bw..(by + 1) * bw];
                        for (o, w) in out.iter_mut().zip(row.windows(2)) {
                            *o = ((w[0] as u16 + w[1] as u16 + 1) >> 1) as u8;
                        }
                    }
                }
                (0, 1) => {
                    for by in 0..bh {
                        let base = (y + by) * self.width + x;
                        let r0 = &self.data[base..base + bw];
                        let r1 = &self.data[base + self.width..base + self.width + bw];
                        let out = &mut dst[by * bw..(by + 1) * bw];
                        for ((o, a), b) in out.iter_mut().zip(r0).zip(r1) {
                            *o = ((*a as u16 + *b as u16 + 1) >> 1) as u8;
                        }
                    }
                }
                _ => {
                    for by in 0..bh {
                        let base = (y + by) * self.width + x;
                        let r0 = &self.data[base..base + bw + 1];
                        let r1 = &self.data[base + self.width..base + self.width + bw + 1];
                        let out = &mut dst[by * bw..(by + 1) * bw];
                        for (i, o) in out.iter_mut().enumerate() {
                            let s =
                                r0[i] as u16 + r0[i + 1] as u16 + r1[i] as u16 + r1[i + 1] as u16;
                            *o = ((s + 2) >> 2) as u8;
                        }
                    }
                }
            }
        } else {
            for by in 0..bh {
                for bx in 0..bw {
                    let px = x + bx as isize;
                    let py = y + by as isize;
                    let p00 = self.get_clamped(px, py) as u16;
                    dst[by * bw + bx] = match (fx, fy) {
                        (1, 0) => ((p00 + self.get_clamped(px + 1, py) as u16 + 1) >> 1) as u8,
                        (0, 1) => ((p00 + self.get_clamped(px, py + 1) as u16 + 1) >> 1) as u8,
                        _ => {
                            let s = p00
                                + self.get_clamped(px + 1, py) as u16
                                + self.get_clamped(px, py + 1) as u16
                                + self.get_clamped(px + 1, py + 1) as u16;
                            ((s + 2) >> 2) as u8
                        }
                    };
                }
            }
        }
    }

    /// Bilinearly samples the plane at fractional coordinates, with
    /// edge clamping. Used by sub-pixel motion compensation and the
    /// synthetic video generator.
    pub fn sample_bilinear(&self, x: f64, y: f64) -> u8 {
        let x0 = x.floor() as isize;
        let y0 = y.floor() as isize;
        let fx = x - x0 as f64;
        let fy = y - y0 as f64;
        let p00 = self.get_clamped(x0, y0) as f64;
        let p10 = self.get_clamped(x0 + 1, y0) as f64;
        let p01 = self.get_clamped(x0, y0 + 1) as f64;
        let p11 = self.get_clamped(x0 + 1, y0 + 1) as f64;
        let top = p00 * (1.0 - fx) + p10 * fx;
        let bot = p01 * (1.0 - fx) + p11 * fx;
        (top * (1.0 - fy) + bot * fy).round().clamp(0.0, 255.0) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zero_filled() {
        let p = Plane::new(3, 2);
        assert_eq!(p.data(), &[0; 6]);
        assert_eq!(p.width(), 3);
        assert_eq!(p.height(), 2);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dims_panic() {
        Plane::new(0, 4);
    }

    #[test]
    fn from_fn_populates() {
        let p = Plane::from_fn(4, 3, |x, y| (x + 10 * y) as u8);
        assert_eq!(p.get(2, 1), 12);
        assert_eq!(p.get(3, 2), 23);
    }

    #[test]
    fn clamped_access() {
        let p = Plane::from_fn(4, 4, |x, y| (x * 4 + y) as u8);
        assert_eq!(p.get_clamped(-3, 0), p.get(0, 0));
        assert_eq!(p.get_clamped(100, 100), p.get(3, 3));
        assert_eq!(p.get_clamped(2, -1), p.get(2, 0));
    }

    #[test]
    fn block_copy_interior_and_edge() {
        let p = Plane::from_fn(8, 8, |x, y| (y * 8 + x) as u8);
        let mut b = vec![0u8; 4];
        p.copy_block_clamped(2, 3, 2, 2, &mut b);
        assert_eq!(b, vec![26, 27, 34, 35]);
        // Edge-clamped block at negative coordinates replicates column 0.
        p.copy_block_clamped(-1, 0, 2, 2, &mut b);
        assert_eq!(b, vec![0, 0, 8, 8]);
    }

    #[test]
    fn write_block_crops() {
        let mut p = Plane::new(4, 4);
        p.write_block(3, 3, 2, 2, &[9, 9, 9, 9]);
        assert_eq!(p.get(3, 3), 9);
        // No panic, pixels outside are dropped.
    }

    #[test]
    fn sad_matches_manual() {
        let p = Plane::from_fn(4, 4, |x, _| (x * 10) as u8);
        let other = vec![0u8, 10, 20, 30];
        assert_eq!(p.sad_block(0, 0, 4, 1, &other), 0);
        let other2 = vec![5u8, 5, 25, 25];
        assert_eq!(p.sad_block(0, 0, 4, 1, &other2), 5 + 5 + 5 + 5);
    }

    #[test]
    fn sad_interior_equals_clamped_path() {
        let p = Plane::from_fn(16, 16, |x, y| ((x * 7 + y * 13) % 251) as u8);
        let mut blk = vec![0u8; 16];
        p.copy_block_clamped(4, 4, 4, 4, &mut blk);
        assert_eq!(p.sad_block(4, 4, 4, 4, &blk), 0);
    }

    #[test]
    fn sse_zero_for_identical() {
        let p = Plane::from_fn(5, 5, |x, y| (x ^ y) as u8);
        assert_eq!(p.sse(&p.clone()), 0);
    }

    #[test]
    fn bilinear_midpoint() {
        let mut p = Plane::new(2, 1);
        p.set(0, 0, 0);
        p.set(1, 0, 100);
        assert_eq!(p.sample_bilinear(0.5, 0.0), 50);
    }

    #[test]
    fn hpel_two_tap_matches_f64_exhaustively() {
        // Every (a, b) pair of u8 values through the horizontal and
        // vertical 2-tap kernels must equal the f64 bilinear path.
        for a in 0..=255u16 {
            for b in 0..=255u16 {
                let mut ph = Plane::new(2, 1);
                ph.set(0, 0, a as u8);
                ph.set(1, 0, b as u8);
                let mut out = [0u8];
                ph.copy_block_hpel(0, 0, 1, 0, 1, 1, &mut out);
                assert_eq!(out[0], ph.sample_bilinear(0.5, 0.0), "h {a},{b}");
                let mut pv = Plane::new(1, 2);
                pv.set(0, 0, a as u8);
                pv.set(0, 1, b as u8);
                pv.copy_block_hpel(0, 0, 0, 1, 1, 1, &mut out);
                assert_eq!(out[0], pv.sample_bilinear(0.0, 0.5), "v {a},{b}");
            }
        }
    }

    #[test]
    fn hpel_four_tap_matches_f64_over_sum_domain() {
        // The 4-tap corner only depends on the pixel sum; sweep every
        // reachable sum (0..=1020) with a generator hitting all
        // residues mod 4, plus a pseudo-random quad sweep.
        for s in 0..=1020u16 {
            let q = [
                (s / 4) as u8,
                ((s + 1) / 4) as u8,
                ((s + 2) / 4) as u8,
                s.div_ceil(4) as u8,
            ];
            assert_eq!(q.iter().map(|&v| v as u16).sum::<u16>(), s);
            let p = Plane::from_fn(2, 2, |x, y| q[y * 2 + x]);
            let mut out = [0u8];
            p.copy_block_hpel(0, 0, 1, 1, 1, 1, &mut out);
            assert_eq!(out[0], p.sample_bilinear(0.5, 0.5), "sum {s}");
        }
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..4096 {
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            };
            let q = [next(), next(), next(), next()];
            let p = Plane::from_fn(2, 2, |x, y| q[y * 2 + x]);
            let mut out = [0u8];
            p.copy_block_hpel(0, 0, 1, 1, 1, 1, &mut out);
            assert_eq!(out[0], p.sample_bilinear(0.5, 0.5), "quad {q:?}");
        }
    }

    #[test]
    fn hpel_edge_clamped_matches_f64() {
        let p = Plane::from_fn(8, 8, |x, y| ((x * 31 + y * 17) % 256) as u8);
        let mut got = vec![0u8; 16];
        let mut want = vec![0u8; 16];
        for (x0, y0) in [(-2isize, -1isize), (5, 6), (-1, 5), (7, 7)] {
            for (fx, fy) in [(1u8, 0u8), (0, 1), (1, 1)] {
                p.copy_block_hpel(x0, y0, fx, fy, 4, 4, &mut got);
                for by in 0..4 {
                    for bx in 0..4 {
                        want[by * 4 + bx] = p.sample_bilinear(
                            x0 as f64 + fx as f64 / 2.0 + bx as f64,
                            y0 as f64 + fy as f64 / 2.0 + by as f64,
                        );
                    }
                }
                assert_eq!(got, want, "at ({x0},{y0}) frac ({fx},{fy})");
            }
        }
    }

    #[test]
    fn thresholded_sad_exact_below_threshold() {
        let p = Plane::from_fn(8, 8, |x, y| (x * 8 + y) as u8);
        let mut blk = vec![0u8; 16];
        p.copy_block_clamped(2, 2, 4, 4, &mut blk);
        blk[0] = blk[0].wrapping_add(10);
        let full = p.sad_block(2, 2, 4, 4, &blk);
        let (sad, examined) = p.sad_block_thresholded(2, 2, 4, 4, &blk, u64::MAX);
        assert_eq!(sad, full);
        assert_eq!(examined, 16);
        // Same at a clamped (out-of-bounds) position.
        let full_edge = p.sad_block(-2, -2, 4, 4, &blk);
        let (sad_edge, _) = p.sad_block_thresholded(-2, -2, 4, 4, &blk, u64::MAX);
        assert_eq!(sad_edge, full_edge);
    }

    #[test]
    fn thresholded_sad_early_exits() {
        let p = Plane::from_fn(8, 8, |_, _| 200);
        let blk = vec![0u8; 64]; // SAD 200 per pixel
        let (sad, examined) = p.sad_block_thresholded(0, 0, 8, 8, &blk, 1);
        assert!(sad >= 1);
        assert_eq!(examined, 8, "one row should be enough to cross threshold 1");
        let (sad2, examined2) = p.sad_block_thresholded(0, 0, 8, 8, &blk, u64::MAX);
        assert_eq!(sad2, p.sad_block(0, 0, 8, 8, &blk));
        assert_eq!(examined2, 64);
    }

    #[test]
    fn mean_of_constant() {
        let mut p = Plane::new(3, 3);
        p.fill(42);
        assert!((p.mean() - 42.0).abs() < 1e-12);
    }
}
