//! YUV 4:2:0 frames and raw video sequences.

use crate::plane::Plane;
use crate::resolution::Resolution;

/// One 8-bit YUV 4:2:0 picture: a full-resolution luma plane and two
/// half-resolution chroma planes.
///
/// # Example
///
/// ```
/// use vcu_media::Frame;
///
/// let f = Frame::new(64, 36);
/// assert_eq!(f.y().width(), 64);
/// assert_eq!(f.u().width(), 32);
/// assert_eq!(f.raw_bytes(), 64 * 36 * 3 / 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    y: Plane,
    u: Plane,
    v: Plane,
}

impl Frame {
    /// Creates a black frame (Y=0, chroma neutral 128).
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero or odd (4:2:0 chroma
    /// subsampling requires even luma dimensions).
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be nonzero");
        assert!(
            width.is_multiple_of(2) && height.is_multiple_of(2),
            "4:2:0 frames require even dimensions"
        );
        let mut u = Plane::new(width / 2, height / 2);
        let mut v = Plane::new(width / 2, height / 2);
        u.fill(128);
        v.fill(128);
        Frame {
            y: Plane::new(width, height),
            u,
            v,
        }
    }

    /// Creates a frame at a ladder resolution.
    pub fn at(res: Resolution) -> Self {
        let (w, h) = res.dims();
        Frame::new(w, h)
    }

    /// Builds a frame from three planes.
    ///
    /// # Panics
    ///
    /// Panics if the chroma planes are not exactly half the luma size.
    pub fn from_planes(y: Plane, u: Plane, v: Plane) -> Self {
        assert_eq!(u.width(), y.width() / 2, "u plane width");
        assert_eq!(u.height(), y.height() / 2, "u plane height");
        assert_eq!(v.width(), y.width() / 2, "v plane width");
        assert_eq!(v.height(), y.height() / 2, "v plane height");
        Frame { y, u, v }
    }

    /// Luma width in pixels.
    pub fn width(&self) -> usize {
        self.y.width()
    }

    /// Luma height in pixels.
    pub fn height(&self) -> usize {
        self.y.height()
    }

    /// Luma plane.
    pub fn y(&self) -> &Plane {
        &self.y
    }

    /// Cb chroma plane (half resolution).
    pub fn u(&self) -> &Plane {
        &self.u
    }

    /// Cr chroma plane (half resolution).
    pub fn v(&self) -> &Plane {
        &self.v
    }

    /// Mutable luma plane.
    pub fn y_mut(&mut self) -> &mut Plane {
        &mut self.y
    }

    /// Mutable Cb plane.
    pub fn u_mut(&mut self) -> &mut Plane {
        &mut self.u
    }

    /// Mutable Cr plane.
    pub fn v_mut(&mut self) -> &mut Plane {
        &mut self.v
    }

    /// Pixels in the luma plane (the paper's Mpix accounting counts
    /// luma pixels only).
    pub fn pixels(&self) -> u64 {
        (self.width() as u64) * (self.height() as u64)
    }

    /// Size of the raw frame in bytes (1.5 bytes per luma pixel for
    /// 8-bit 4:2:0) — the quantity behind the paper's "each raw
    /// 2160p frame is 11.9 MiB".
    pub fn raw_bytes(&self) -> u64 {
        self.pixels() * 3 / 2
    }
}

/// A raw decoded video: an ordered sequence of equally-sized frames
/// plus a frame rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Video {
    /// Frames in display order.
    pub frames: Vec<Frame>,
    /// Frames per second.
    pub fps: f64,
}

impl Video {
    /// Creates a video from frames.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty, frames disagree in size, or `fps`
    /// is not finite and positive.
    pub fn new(frames: Vec<Frame>, fps: f64) -> Self {
        assert!(!frames.is_empty(), "video must have at least one frame");
        assert!(fps.is_finite() && fps > 0.0, "fps must be positive");
        let (w, h) = (frames[0].width(), frames[0].height());
        assert!(
            frames.iter().all(|f| f.width() == w && f.height() == h),
            "all frames must have identical dimensions"
        );
        Video { frames, fps }
    }

    /// Luma width in pixels.
    pub fn width(&self) -> usize {
        self.frames[0].width()
    }

    /// Luma height in pixels.
    pub fn height(&self) -> usize {
        self.frames[0].height()
    }

    /// Total luma pixels across all frames.
    pub fn total_pixels(&self) -> u64 {
        self.frames.iter().map(Frame::pixels).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chroma_is_half_size() {
        let f = Frame::new(16, 8);
        assert_eq!(f.u().width(), 8);
        assert_eq!(f.v().height(), 4);
    }

    #[test]
    #[should_panic(expected = "even dimensions")]
    fn odd_dims_rejected() {
        Frame::new(15, 8);
    }

    #[test]
    fn new_frame_is_black_neutral() {
        let f = Frame::new(4, 4);
        assert!(f.y().data().iter().all(|&p| p == 0));
        assert!(f.u().data().iter().all(|&p| p == 128));
    }

    #[test]
    fn raw_bytes_2160p_matches_paper() {
        let f = Frame::at(Resolution::R2160);
        let mib = f.raw_bytes() as f64 / (1024.0 * 1024.0);
        assert!((mib - 11.86).abs() < 0.1, "2160p raw frame {mib} MiB");
    }

    #[test]
    fn video_invariants() {
        let v = Video::new(vec![Frame::new(8, 8); 30], 30.0);
        assert_eq!(v.total_pixels(), 30 * 64);
    }

    #[test]
    #[should_panic(expected = "identical dimensions")]
    fn mixed_sizes_rejected() {
        Video::new(vec![Frame::new(8, 8), Frame::new(16, 8)], 30.0);
    }
}
