//! Intra prediction modes.
//!
//! Predicts a block from already-reconstructed neighboring pixels in
//! the same frame (the row above and column left of the block). The
//! H.264-like profile codes DC / horizontal / vertical; the VP9-like
//! profile adds a TrueMotion-style gradient mode.

use vcu_media::Plane;

/// Available intra prediction modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum IntraMode {
    /// Average of available neighbors.
    Dc,
    /// Copy the left column rightwards.
    Horizontal,
    /// Copy the top row downwards.
    Vertical,
    /// TrueMotion: `top[x] + left[y] - topleft`, clamped (VP9 profile).
    TrueMotion,
}

impl IntraMode {
    /// Modes available to the H.264-like profile.
    pub(crate) const H264_MODES: [IntraMode; 3] =
        [IntraMode::Dc, IntraMode::Horizontal, IntraMode::Vertical];

    /// Modes available to the VP9-like profile.
    pub(crate) const VP9_MODES: [IntraMode; 4] = [
        IntraMode::Dc,
        IntraMode::Horizontal,
        IntraMode::Vertical,
        IntraMode::TrueMotion,
    ];

    /// Compact index used in the bitstream: the mode's place in
    /// [`IntraMode::VP9_MODES`], which lists the modes in declaration
    /// order.
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`IntraMode::index`]. Returns `None` for invalid indices.
    pub(crate) fn from_index(i: usize) -> Option<IntraMode> {
        Self::VP9_MODES.get(i).copied()
    }
}

/// Neighbor context for predicting a block at `(x, y)`.
///
/// Holds the top row (length `bw`), left column (length `bh`), and the
/// top-left corner pixel, each falling back to 128 where the frame
/// border makes neighbors unavailable.
#[derive(Debug, Clone)]
pub(crate) struct IntraNeighbors {
    top: Vec<u8>,
    left: Vec<u8>,
    top_left: u8,
    has_top: bool,
    has_left: bool,
}

impl IntraNeighbors {
    /// Gathers neighbors from the reconstruction plane for a `bw x bh`
    /// block at `(x, y)`.
    pub(crate) fn gather(recon: &Plane, x: usize, y: usize, bw: usize, bh: usize) -> Self {
        let has_top = y > 0;
        let has_left = x > 0;
        let top = (0..bw)
            .map(|i| {
                if has_top {
                    recon.get_clamped((x + i) as isize, y as isize - 1)
                } else {
                    128
                }
            })
            .collect();
        let left = (0..bh)
            .map(|i| {
                if has_left {
                    recon.get_clamped(x as isize - 1, (y + i) as isize)
                } else {
                    128
                }
            })
            .collect();
        let top_left = if has_top && has_left {
            recon.get_clamped(x as isize - 1, y as isize - 1)
        } else {
            128
        };
        IntraNeighbors {
            top,
            left,
            top_left,
            has_top,
            has_left,
        }
    }

    /// Produces the prediction for `mode` into `out` (row-major `bw x bh`).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != top.len() * left.len()`.
    pub(crate) fn predict(&self, mode: IntraMode, out: &mut [u8]) {
        let bw = self.top.len();
        let bh = self.left.len();
        assert_eq!(out.len(), bw * bh, "prediction buffer size mismatch");
        match mode {
            IntraMode::Dc => {
                let dc = match (self.has_top, self.has_left) {
                    (true, true) => {
                        let s: u32 = self.top.iter().map(|&v| v as u32).sum::<u32>()
                            + self.left.iter().map(|&v| v as u32).sum::<u32>();
                        ((s + (bw + bh) as u32 / 2) / (bw + bh) as u32) as u8
                    }
                    (true, false) => {
                        let s: u32 = self.top.iter().map(|&v| v as u32).sum();
                        ((s + bw as u32 / 2) / bw as u32) as u8
                    }
                    (false, true) => {
                        let s: u32 = self.left.iter().map(|&v| v as u32).sum();
                        ((s + bh as u32 / 2) / bh as u32) as u8
                    }
                    (false, false) => 128,
                };
                out.fill(dc);
            }
            IntraMode::Horizontal => {
                for yy in 0..bh {
                    out[yy * bw..(yy + 1) * bw].fill(self.left[yy]);
                }
            }
            IntraMode::Vertical => {
                for yy in 0..bh {
                    out[yy * bw..(yy + 1) * bw].copy_from_slice(&self.top);
                }
            }
            IntraMode::TrueMotion => {
                for yy in 0..bh {
                    for xx in 0..bw {
                        let v = self.top[xx] as i32 + self.left[yy] as i32 - self.top_left as i32;
                        out[yy * bw + xx] = v.clamp(0, 255) as u8;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recon_with_border() -> Plane {
        // Row 0 = 10..., column 0 = 200...
        Plane::from_fn(16, 16, |x, y| {
            if y == 0 {
                (10 + x) as u8
            } else if x == 0 {
                200
            } else {
                0
            }
        })
    }

    #[test]
    fn vertical_copies_top_row() {
        let r = recon_with_border();
        let n = IntraNeighbors::gather(&r, 1, 1, 4, 4);
        let mut out = vec![0u8; 16];
        n.predict(IntraMode::Vertical, &mut out);
        assert_eq!(&out[..4], &[11, 12, 13, 14]);
        assert_eq!(&out[12..], &[11, 12, 13, 14]);
    }

    #[test]
    fn horizontal_copies_left_column() {
        let r = recon_with_border();
        let n = IntraNeighbors::gather(&r, 1, 1, 4, 4);
        let mut out = vec![0u8; 16];
        n.predict(IntraMode::Horizontal, &mut out);
        assert!(out.iter().all(|&v| v == 200));
    }

    #[test]
    fn dc_averages_both_sides() {
        let r = recon_with_border();
        let n = IntraNeighbors::gather(&r, 1, 1, 2, 2);
        let mut out = vec![0u8; 4];
        n.predict(IntraMode::Dc, &mut out);
        // top = [11,12], left = [200,200] -> (11+12+400+2)/4 = 106.
        assert!(out.iter().all(|&v| v == 106), "{out:?}");
    }

    #[test]
    fn dc_without_neighbors_is_128() {
        let r = Plane::new(8, 8);
        let n = IntraNeighbors::gather(&r, 0, 0, 4, 4);
        let mut out = vec![0u8; 16];
        n.predict(IntraMode::Dc, &mut out);
        assert!(out.iter().all(|&v| v == 128));
    }

    #[test]
    fn true_motion_gradient() {
        let mut r = Plane::new(8, 8);
        r.set(0, 0, 100); // top-left
        r.set(1, 0, 110); // top
        r.set(0, 1, 120); // left
        let n = IntraNeighbors::gather(&r, 1, 1, 1, 1);
        let mut out = vec![0u8; 1];
        n.predict(IntraMode::TrueMotion, &mut out);
        assert_eq!(out[0], (110 + 120 - 100) as u8);
    }

    #[test]
    fn mode_index_round_trip() {
        for m in IntraMode::VP9_MODES {
            assert_eq!(IntraMode::from_index(m.index()), Some(m));
        }
        assert_eq!(IntraMode::from_index(9), None);
    }
}
