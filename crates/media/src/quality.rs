//! Distortion metrics: MSE and PSNR.
//!
//! The paper reports encoder quality as PSNR rate-distortion curves
//! (Fig. 7) with a 45 dB "perceptual ceiling". These functions are the
//! measurement side of that figure.

use crate::frame::{Frame, Video};
use crate::plane::Plane;

/// Mean squared error between two planes of identical size.
///
/// # Panics
///
/// Panics if dimensions differ.
pub fn mse_plane(a: &Plane, b: &Plane) -> f64 {
    let n = (a.width() * a.height()) as f64;
    a.sse(b) as f64 / n
}

/// PSNR in dB from an MSE value, for 8-bit content (peak 255).
/// Returns `f64::INFINITY` for zero MSE.
pub fn psnr_from_mse(mse: f64) -> f64 {
    if mse <= 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }
}

/// Luma-only PSNR between two frames (the conventional "Y-PSNR" used
/// for RD curves).
///
/// # Panics
///
/// Panics if frame dimensions differ.
pub fn psnr_y(a: &Frame, b: &Frame) -> f64 {
    psnr_from_mse(mse_plane(a.y(), b.y()))
}

/// Sequence-level luma PSNR: computed from the *pooled* MSE over all
/// frames (the standard for video, avoiding infinite per-frame values
/// dominating an average).
///
/// # Panics
///
/// Panics if the videos differ in frame count or dimensions.
pub fn psnr_y_video(a: &Video, b: &Video) -> f64 {
    assert_eq!(a.frames.len(), b.frames.len(), "frame count mismatch");
    let mut sse = 0u64;
    let mut n = 0u64;
    for (fa, fb) in a.frames.iter().zip(&b.frames) {
        sse += fa.y().sse(fb.y());
        n += fa.pixels();
    }
    psnr_from_mse(sse as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::Plane;

    fn textured(seed: u8) -> Frame {
        let y = Plane::from_fn(32, 32, |x, yy| {
            ((x * 31 + yy * 17) as u8).wrapping_add(seed)
        });
        let u = Plane::from_fn(16, 16, |_, _| 128);
        let v = Plane::from_fn(16, 16, |_, _| 128);
        Frame::from_planes(y, u, v)
    }

    #[test]
    fn identical_frames_infinite_psnr() {
        let f = textured(0);
        assert!(psnr_y(&f, &f).is_infinite());
    }

    #[test]
    fn psnr_known_value() {
        // Uniform error of 1 everywhere: MSE = 1, PSNR = 20*log10(255) ≈ 48.13 dB.
        let a = Frame::new(16, 16);
        let mut b = Frame::new(16, 16);
        b.y_mut().fill(1);
        let p = psnr_y(&a, &b);
        assert!((p - 48.130).abs() < 1e-3, "psnr {p}");
    }

    #[test]
    fn psnr_monotone_in_error() {
        let a = Frame::new(16, 16);
        let mut b1 = Frame::new(16, 16);
        let mut b2 = Frame::new(16, 16);
        b1.y_mut().fill(2);
        b2.y_mut().fill(8);
        assert!(psnr_y(&a, &b1) > psnr_y(&a, &b2));
    }

    #[test]
    fn video_psnr_pools_mse() {
        let a = Video::new(vec![Frame::new(8, 8); 2], 30.0);
        let mut f2 = Frame::new(8, 8);
        f2.y_mut().fill(2); // MSE 4 on one frame, 0 on the other -> pooled 2.
        let b = Video::new(vec![Frame::new(8, 8), f2], 30.0);
        let expect = psnr_from_mse(2.0);
        assert!((psnr_y_video(&a, &b) - expect).abs() < 1e-9);
    }
}
