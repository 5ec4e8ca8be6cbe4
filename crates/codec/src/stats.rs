//! Compute-work accounting for encodes and decodes.
//!
//! Every encode/decode meters the operations it performs. The timing
//! models in `vcu-chip` convert these counts into CPU-seconds, GPU
//! time, or VCU pipeline cycles — so the same measured workload drives
//! every device model in Table 1, rather than each device getting its
//! own hand-waved constant.

use std::ops::{Add, AddAssign, Sub};

/// Operation counts accumulated while coding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodingStats {
    /// Luma pixels processed (sum over frames of width × height).
    pub pixels: u64,
    /// Frames coded.
    pub frames: u64,
    /// SAD operations, in pixel-difference units (block pixels summed
    /// per SAD evaluation) — the motion-estimation work metric. This is
    /// the *device timing charge*: a hardware SAD array evaluates the
    /// whole block regardless of early exit, so every candidate is
    /// billed at full `bw * bh` and the chip model's calibration is
    /// independent of host-side search optimizations.
    pub sad_pixels: u64,
    /// SAD pixels actually examined by the host implementation after
    /// early-exit thresholding — the honest CPU-side work metric. A
    /// candidate or search the encoder skips or replays adds nothing
    /// here. Always `<= sad_pixels`; excluded from
    /// [`CodingStats::work_units`] so the device models keep billing
    /// the fixed-function cost above.
    pub sad_pixels_examined: u64,
    /// Pixels run through forward+inverse transform pairs.
    pub transform_pixels: u64,
    /// Pixels fetched by motion compensation (including subpel taps).
    pub mc_pixels: u64,
    /// Pixels predicted by intra modes.
    pub intra_pixels: u64,
    /// Pixels passed through the temporal filter.
    pub temporal_filter_pixels: u64,
    /// Pixels touched by the in-loop deblocking filter.
    pub deblock_pixels: u64,
    /// Entropy-coded output bits.
    pub bits: u64,
    /// Blocks coded as intra.
    pub intra_blocks: u64,
    /// Blocks coded as inter.
    pub inter_blocks: u64,
    /// Reference-frame bytes read (before reference compression).
    pub ref_bytes_read: u64,
}

impl CodingStats {
    /// An empty stats record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Output size in bytes (bits rounded up).
    pub fn bytes(&self) -> u64 {
        self.bits.div_ceil(8)
    }

    /// Average bits per pixel — the compression headline number.
    pub fn bits_per_pixel(&self) -> f64 {
        if self.pixels == 0 {
            0.0
        } else {
            self.bits as f64 / self.pixels as f64
        }
    }

    /// Total abstract compute work in "pixel-ops": a weighted sum of
    /// the metered operations. The weights reflect relative per-pixel
    /// cost of each kernel on a general-purpose CPU; device models
    /// apply their own per-kernel scaling on top.
    pub fn work_units(&self) -> f64 {
        self.sad_pixels as f64 * 1.0
            + self.transform_pixels as f64 * 4.0
            + self.mc_pixels as f64 * 1.5
            + self.intra_pixels as f64 * 1.0
            + self.temporal_filter_pixels as f64 * 6.0
            + self.deblock_pixels as f64 * 1.0
            + self.bits as f64 * 1.2
    }
}

impl Add for CodingStats {
    type Output = CodingStats;

    fn add(self, rhs: CodingStats) -> CodingStats {
        CodingStats {
            pixels: self.pixels + rhs.pixels,
            frames: self.frames + rhs.frames,
            sad_pixels: self.sad_pixels + rhs.sad_pixels,
            sad_pixels_examined: self.sad_pixels_examined + rhs.sad_pixels_examined,
            transform_pixels: self.transform_pixels + rhs.transform_pixels,
            mc_pixels: self.mc_pixels + rhs.mc_pixels,
            intra_pixels: self.intra_pixels + rhs.intra_pixels,
            temporal_filter_pixels: self.temporal_filter_pixels + rhs.temporal_filter_pixels,
            deblock_pixels: self.deblock_pixels + rhs.deblock_pixels,
            bits: self.bits + rhs.bits,
            intra_blocks: self.intra_blocks + rhs.intra_blocks,
            inter_blocks: self.inter_blocks + rhs.inter_blocks,
            ref_bytes_read: self.ref_bytes_read + rhs.ref_bytes_read,
        }
    }
}

impl AddAssign for CodingStats {
    fn add_assign(&mut self, rhs: CodingStats) {
        *self = *self + rhs;
    }
}

impl Sub for CodingStats {
    type Output = CodingStats;

    /// Componentwise difference — used to capture the exact metering
    /// delta of a unit of work (e.g. one motion search) so a cached
    /// result can replay the identical charge.
    fn sub(self, rhs: CodingStats) -> CodingStats {
        CodingStats {
            pixels: self.pixels - rhs.pixels,
            frames: self.frames - rhs.frames,
            sad_pixels: self.sad_pixels - rhs.sad_pixels,
            sad_pixels_examined: self.sad_pixels_examined - rhs.sad_pixels_examined,
            transform_pixels: self.transform_pixels - rhs.transform_pixels,
            mc_pixels: self.mc_pixels - rhs.mc_pixels,
            intra_pixels: self.intra_pixels - rhs.intra_pixels,
            temporal_filter_pixels: self.temporal_filter_pixels - rhs.temporal_filter_pixels,
            deblock_pixels: self.deblock_pixels - rhs.deblock_pixels,
            bits: self.bits - rhs.bits,
            intra_blocks: self.intra_blocks - rhs.intra_blocks,
            inter_blocks: self.inter_blocks - rhs.inter_blocks,
            ref_bytes_read: self.ref_bytes_read - rhs.ref_bytes_read,
        }
    }
}

impl std::iter::Sum for CodingStats {
    fn sum<I: Iterator<Item = CodingStats>>(iter: I) -> Self {
        iter.fold(CodingStats::new(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_componentwise() {
        let a = CodingStats {
            pixels: 10,
            bits: 100,
            ..CodingStats::new()
        };
        let b = CodingStats {
            pixels: 5,
            bits: 50,
            sad_pixels: 7,
            ..CodingStats::new()
        };
        let c = a + b;
        assert_eq!(c.pixels, 15);
        assert_eq!(c.bits, 150);
        assert_eq!(c.sad_pixels, 7);
    }

    #[test]
    fn bytes_rounds_up() {
        let s = CodingStats {
            bits: 9,
            ..CodingStats::new()
        };
        assert_eq!(s.bytes(), 2);
    }

    #[test]
    fn bits_per_pixel_safe_on_empty() {
        assert_eq!(CodingStats::new().bits_per_pixel(), 0.0);
    }

    #[test]
    fn work_units_monotone() {
        let mut a = CodingStats::new();
        a.sad_pixels = 1000;
        let mut b = a;
        b.transform_pixels = 500;
        assert!(b.work_units() > a.work_units());
    }

    #[test]
    fn sub_inverts_add() {
        let a = CodingStats {
            sad_pixels: 100,
            sad_pixels_examined: 60,
            bits: 40,
            ..CodingStats::new()
        };
        let b = CodingStats {
            sad_pixels: 30,
            sad_pixels_examined: 12,
            bits: 8,
            ..CodingStats::new()
        };
        assert_eq!((a + b) - b, a);
    }

    #[test]
    fn examined_pixels_do_not_change_device_billing() {
        let mut a = CodingStats::new();
        a.sad_pixels = 1000;
        let w = a.work_units();
        a.sad_pixels_examined = 400;
        assert_eq!(
            a.work_units(),
            w,
            "early-exit metering must not move device charges"
        );
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![
            CodingStats {
                frames: 1,
                ..CodingStats::new()
            };
            5
        ];
        let total: CodingStats = parts.into_iter().sum();
        assert_eq!(total.frames, 5);
    }
}
