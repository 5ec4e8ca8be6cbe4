//! In-loop deblocking filter.
//!
//! Smooths blocking artifacts across transform-block edges in the
//! reconstructed frame. Runs identically in encoder and decoder (it is
//! part of the reconstruction loop), which is why the paper's final
//! pipeline stage applies "loop filtering" before frame-buffer
//! compression (§3.2). Filter strength scales with QP: coarse
//! quantization produces stronger edges that need more smoothing, while
//! near-lossless frames are left almost untouched.

use crate::types::Qp;
use vcu_media::Plane;

/// Applies the deblocking filter to `plane` along a grid of `grid`
/// pixel edges (typically the transform size), with strength derived
/// from `qp`. Returns the number of pixels modified (for stats).
pub(crate) fn deblock_plane(plane: &mut Plane, grid: usize, qp: Qp) -> u64 {
    assert!(grid >= 2, "grid must be at least 2");
    let alpha = (qp.step() * 2.0) as i32 + 2; // edge-detection threshold
    let beta = (qp.step() * 0.5) as i32 + 1; // gradient threshold
    let (w, h) = (plane.width(), plane.height());
    let mut touched = 0u64;

    // Vertical edges (filter horizontally across columns x = grid, 2*grid, ...).
    let mut x = grid;
    while x < w {
        for y in 0..h {
            touched += filter_pair(plane, x, y, true, alpha, beta);
        }
        x += grid;
    }
    // Horizontal edges.
    let mut y = grid;
    while y < h {
        for x in 0..w {
            touched += filter_pair(plane, x, y, false, alpha, beta);
        }
        y += grid;
    }
    touched
}

/// Filters one edge-crossing pixel quad `p1 p0 | q0 q1` where `q0` is
/// at `(x, y)` and the edge is vertical (`horiz_filter = true`, pixels
/// along a row) or horizontal (pixels along a column).
fn filter_pair(plane: &mut Plane, x: usize, y: usize, horiz: bool, alpha: i32, beta: i32) -> u64 {
    let (xi, yi) = (x as isize, y as isize);
    let fetch = |dx: isize, dy: isize| -> i32 {
        if horiz {
            plane.get_clamped(xi + dx, yi) as i32
        } else {
            plane.get_clamped(xi, yi + dy) as i32
        }
    };
    let p1 = fetch(-2, -2);
    let p0 = fetch(-1, -1);
    let q0 = fetch(0, 0);
    let q1 = fetch(1, 1);

    // Only filter true blocking edges: a step across the edge that is
    // significant but not a real image feature (gradients on each side
    // must be small).
    if (p0 - q0).abs() >= alpha || (p1 - p0).abs() >= beta || (q1 - q0).abs() >= beta {
        return 0;
    }
    // 4-tap smoothing pulling p0/q0 towards each other.
    let delta = ((q0 - p0) * 3 + (p1 - q1) + 4) >> 3;
    let delta = delta.clamp(-beta, beta);
    let new_p0 = (p0 + delta).clamp(0, 255) as u8;
    let new_q0 = (q0 - delta).clamp(0, 255) as u8;
    if horiz {
        if x >= 1 {
            plane.set(x - 1, y, new_p0);
        }
        plane.set(x, y, new_q0);
    } else {
        if y >= 1 {
            plane.set(x, y - 1, new_p0);
        }
        plane.set(x, y, new_q0);
    }
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_edge() -> Plane {
        // Flat 100 left of x=8, flat 120 right: a classic blocking edge.
        Plane::from_fn(16, 16, |x, _| if x < 8 { 100 } else { 120 })
    }

    #[test]
    fn blocking_edge_is_smoothed() {
        let mut p = step_edge();
        let touched = deblock_plane(&mut p, 8, Qp::new(40));
        assert!(touched > 0);
        // The step across the x=8 edge should have shrunk.
        let gap_after = p.get(8, 4) as i32 - p.get(7, 4) as i32;
        assert!(gap_after.abs() < 20, "edge gap still {gap_after}");
    }

    #[test]
    fn strong_feature_edges_preserved() {
        // A 200-level step is a real image feature at low QP: alpha is
        // small, so the filter must leave it alone.
        let mut p = Plane::from_fn(16, 16, |x, _| if x < 8 { 20 } else { 220 });
        let before = p.clone();
        deblock_plane(&mut p, 8, Qp::new(10));
        assert_eq!(p, before, "feature edge was filtered");
    }

    #[test]
    fn flat_area_untouched() {
        let mut p = Plane::new(16, 16);
        p.fill(50);
        let before = p.clone();
        deblock_plane(&mut p, 8, Qp::new(50));
        assert_eq!(p, before);
    }

    #[test]
    fn higher_qp_filters_more() {
        let mut low = step_edge();
        let mut high = step_edge();
        let t_low = deblock_plane(&mut low, 8, Qp::new(8));
        let t_high = deblock_plane(&mut high, 8, Qp::new(45));
        assert!(t_high >= t_low, "qp45 touched {t_high} < qp8 {t_low}");
    }

    #[test]
    fn deterministic() {
        let mut a = step_edge();
        let mut b = step_edge();
        deblock_plane(&mut a, 8, Qp::new(30));
        deblock_plane(&mut b, 8, Qp::new(30));
        assert_eq!(a, b);
    }
}
