//! Rate control: first-pass analysis, frame-type planning, QP assignment.
//!
//! Mirrors the paper's encoding regimes (§2.1): one-pass low-latency,
//! two-pass low-latency, lagged two-pass, and offline two-pass. The
//! first pass collects per-frame complexity statistics (cheap intra and
//! inter costs on a coarse grid); the second pass uses whatever window
//! of those statistics the latency mode permits to place keyframes and
//! allocate bits, with a feedback loop absorbing model error.

use crate::config::{EncoderConfig, PassMode, RateControl, KEYFRAME_INTERVAL};
use crate::types::{FrameKind, Qp};
use vcu_media::{Frame, Video};

/// Per-frame first-pass statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameStats {
    /// Mean absolute deviation from block means (intra complexity).
    pub intra_cost: f64,
    /// Mean absolute zero-motion difference from the previous frame
    /// (inter complexity; equals `intra_cost` for the first frame).
    pub inter_cost: f64,
}

impl FrameStats {
    /// Ratio of inter to intra cost; near/above 1 means the previous
    /// frame does not predict this one (scene cut).
    pub fn cut_score(&self) -> f64 {
        if self.intra_cost <= 1e-9 {
            0.0
        } else {
            self.inter_cost / self.intra_cost
        }
    }
}

/// Grid granularity for first-pass analysis.
const FP_GRID: usize = 16;

/// Runs the (cheap) first pass over a video.
pub fn first_pass(video: &Video) -> Vec<FrameStats> {
    let mut out = Vec::with_capacity(video.frames.len());
    let mut prev: Option<&Frame> = None;
    for f in &video.frames {
        let intra = intra_complexity(f);
        let inter = match prev {
            Some(p) => inter_complexity(f, p),
            None => intra,
        };
        out.push(FrameStats {
            intra_cost: intra,
            inter_cost: inter,
        });
        prev = Some(f);
    }
    out
}

fn intra_complexity(f: &Frame) -> f64 {
    let (w, h) = (f.width(), f.height());
    let mut total = 0.0;
    let mut blocks = 0u64;
    let mut blk = vec![0u8; FP_GRID * FP_GRID];
    let mut y = 0;
    while y + FP_GRID <= h {
        let mut x = 0;
        while x + FP_GRID <= w {
            f.y()
                .copy_block_clamped(x as isize, y as isize, FP_GRID, FP_GRID, &mut blk);
            let mean = blk.iter().map(|&v| v as u64).sum::<u64>() / blk.len() as u64;
            let mad: u64 = blk
                .iter()
                .map(|&v| (v as i64 - mean as i64).unsigned_abs())
                .sum();
            total += mad as f64 / blk.len() as f64;
            blocks += 1;
            x += FP_GRID;
        }
        y += FP_GRID;
    }
    if blocks == 0 {
        0.0
    } else {
        total / blocks as f64
    }
}

fn inter_complexity(f: &Frame, prev: &Frame) -> f64 {
    let n = (f.width() * f.height()) as f64;
    let sad: u64 = f
        .y()
        .data()
        .iter()
        .zip(prev.y().data())
        .map(|(a, b)| (*a as i32 - *b as i32).unsigned_abs() as u64)
        .sum();
    sad as f64 / n
}

/// Scene-cut threshold on [`FrameStats::cut_score`].
const CUT_THRESHOLD: f64 = 0.9;

/// Plans the frame kind for every source frame.
///
/// Keyframes are forced at frame 0 and every [`KEYFRAME_INTERVAL`];
/// adaptive scene-cut keyframes additionally fire when first-pass
/// statistics are available and show an unpredictable frame.
pub fn plan_frame_kinds(n_frames: usize, stats: Option<&[FrameStats]>) -> Vec<FrameKind> {
    let mut kinds = Vec::with_capacity(n_frames);
    let mut since_key = 0usize;
    for i in 0..n_frames {
        let forced = i == 0 || since_key >= KEYFRAME_INTERVAL;
        let cut = stats
            .and_then(|s| s.get(i))
            .map(|s| s.cut_score() > CUT_THRESHOLD)
            .unwrap_or(false);
        if forced || (cut && since_key > 4) {
            kinds.push(FrameKind::Key);
            since_key = 1;
        } else {
            kinds.push(FrameKind::Inter);
            since_key += 1;
        }
    }
    kinds
}

/// Stateful QP assigner for a single encode.
#[derive(Debug)]
pub struct RateController {
    mode: RateControl,
    /// Target bits per displayable frame (bitrate mode).
    target_bpf: f64,
    /// Accumulated overshoot in bits (positive = over budget).
    excess: f64,
    /// Current base QP estimate.
    base_qp: f64,
    /// Per-frame complexity statistics, when a first pass ran.
    stats: Vec<FrameStats>,
    /// Mean complexity over the window the pass mode may see.
    pass: PassMode,
}

impl RateController {
    /// Creates a controller for a video of `n_frames` at `fps`.
    pub fn new(cfg: &EncoderConfig, fps: f64, stats: Vec<FrameStats>) -> Self {
        match cfg.rc {
            RateControl::ConstQp(qp) => RateController {
                mode: cfg.rc,
                target_bpf: 0.0,
                excess: 0.0,
                base_qp: qp.value() as f64,
                stats,
                pass: PassMode::TwoPassOffline,
            },
            RateControl::Bitrate { bps, pass } => RateController {
                mode: cfg.rc,
                target_bpf: bps as f64 / fps,
                excess: 0.0,
                // Initial guess; feedback converges within a few frames.
                base_qp: 34.0,
                stats,
                pass,
            },
        }
    }

    /// QP for frame `i` of kind `kind` (before toolset offsets).
    pub fn frame_qp(&self, i: usize, kind: FrameKind, n_frames: usize) -> Qp {
        let mut qp = self.base_qp;
        if let RateControl::Bitrate { .. } = self.mode {
            // Complexity-aware allocation: allocate more bits (lower
            // QP) to frames more complex than the visible-window mean.
            if !self.stats.is_empty() {
                let lookahead = self.pass.lookahead(i, n_frames);
                let lo = i.saturating_sub(16);
                let hi = (i + lookahead + 1).min(self.stats.len());
                let window = &self.stats[lo..hi];
                let mean: f64 =
                    window.iter().map(|s| s.inter_cost).sum::<f64>() / window.len() as f64;
                let this = self.stats[i].inter_cost;
                if mean > 1e-9 && this > 1e-9 {
                    // +/- up to ~4 QP steps of redistribution.
                    qp -= 6.0 * (this / mean).log2().clamp(-0.7, 0.7);
                }
            }
        }
        let q = Qp::new(qp.round().clamp(0.0, 63.0) as u8);
        match kind {
            FrameKind::Key => q, // toolset applies its own keyframe boost
            FrameKind::Inter => q,
            FrameKind::AltRef => q,
        }
    }

    /// Feedback after coding a displayable frame of `actual_bits`.
    pub fn update(&mut self, actual_bits: u64) {
        if let RateControl::Bitrate { .. } = self.mode {
            self.excess += actual_bits as f64 - self.target_bpf;
            // Proportional controller: each frame of accumulated
            // overshoot nudges QP up by ~2 steps (rate roughly halves
            // every 6 QP, so this converges quickly without ringing).
            let frames_of_excess = (self.excess / self.target_bpf).clamp(-8.0, 8.0);
            self.base_qp = (self.base_qp + 0.6 * frames_of_excess).clamp(2.0, 62.0);
            // Bleed the integrator so ancient history stops dominating.
            self.excess *= 0.9;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Profile;
    use vcu_media::synth::{ContentClass, SynthSpec};
    use vcu_media::Resolution;

    fn video_with_cut() -> Video {
        let content = ContentClass {
            scene_cut_period: Some(6),
            ..ContentClass::talking_head()
        };
        SynthSpec::new(Resolution::R144, 12, content, 3).generate()
    }

    #[test]
    fn first_pass_detects_scene_cut() {
        let v = video_with_cut();
        let stats = first_pass(&v);
        // Frame 6 is the cut: inter cost spikes relative to intra.
        assert!(
            stats[6].cut_score() > stats[3].cut_score() * 2.0,
            "cut {} vs steady {}",
            stats[6].cut_score(),
            stats[3].cut_score()
        );
    }

    #[test]
    fn plan_places_key_at_cut() {
        let v = video_with_cut();
        let stats = first_pass(&v);
        let kinds = plan_frame_kinds(v.frames.len(), Some(&stats));
        assert_eq!(kinds[0], FrameKind::Key);
        assert_eq!(kinds[6], FrameKind::Key, "kinds: {kinds:?}");
        assert_eq!(kinds[3], FrameKind::Inter);
    }

    #[test]
    fn plan_respects_max_interval() {
        let kinds = plan_frame_kinds(2 * KEYFRAME_INTERVAL + 2, None);
        assert_eq!(kinds[0], FrameKind::Key);
        assert_eq!(kinds[KEYFRAME_INTERVAL], FrameKind::Key);
        assert_eq!(kinds[2 * KEYFRAME_INTERVAL], FrameKind::Key);
        assert_eq!(kinds.iter().filter(|k| **k == FrameKind::Key).count(), 3);
    }

    #[test]
    fn const_qp_is_constant() {
        let cfg = EncoderConfig::const_qp(Profile::H264Sim, Qp::new(33));
        let rc = RateController::new(&cfg, 30.0, Vec::new());
        for i in 0..5 {
            assert_eq!(rc.frame_qp(i, FrameKind::Inter, 10), Qp::new(33));
        }
    }

    #[test]
    fn feedback_raises_qp_on_overshoot() {
        let cfg = EncoderConfig::bitrate(Profile::H264Sim, 300_000, PassMode::OnePassLowLatency);
        let mut rc = RateController::new(&cfg, 30.0, Vec::new());
        let q0 = rc.base_qp;
        for _ in 0..10 {
            rc.update(100_000); // 10x over the 10k target
        }
        assert!(rc.base_qp > q0 + 3.0, "qp {} -> {}", q0, rc.base_qp);
    }

    #[test]
    fn feedback_lowers_qp_on_undershoot() {
        let cfg = EncoderConfig::bitrate(Profile::H264Sim, 300_000, PassMode::OnePassLowLatency);
        let mut rc = RateController::new(&cfg, 30.0, Vec::new());
        let q0 = rc.base_qp;
        for _ in 0..10 {
            rc.update(100);
        }
        assert!(rc.base_qp < q0 - 2.0);
    }

    #[test]
    fn offline_mode_redistributes_by_complexity() {
        let v = video_with_cut();
        let stats = first_pass(&v);
        let cfg = EncoderConfig::bitrate(Profile::Vp9Sim, 500_000, PassMode::TwoPassOffline);
        let rc = RateController::new(&cfg, 30.0, stats.clone());
        // The cut frame (high complexity) should get a lower QP than a
        // calm frame.
        let qp_cut = rc.frame_qp(6, FrameKind::Inter, v.frames.len());
        let qp_calm = rc.frame_qp(3, FrameKind::Inter, v.frames.len());
        assert!(
            qp_cut < qp_calm,
            "cut qp {qp_cut} should be below calm qp {qp_calm}"
        );
    }
}
