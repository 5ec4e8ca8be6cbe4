//! A vbench-like benchmark suite.
//!
//! vbench (Lottarini et al., ASPLOS'18) is 15 videos spanning a 3-D
//! space of resolution, frame rate and entropy; the paper uses it for
//! all of §4.1. The suite is not redistributable, so we synthesize 15
//! clips with the same *axes*: each named clip mirrors the qualitative
//! content class visible in the paper's Fig. 7 legend (easy
//! `presentation`/`desktop` at the top, hard `holi` at the bottom).
//!
//! Resolutions are scaled down from vbench's (≤2160p) so that real
//! pixel-level encodes stay tractable; throughput experiments use the
//! chip timing models at full resolution instead, so nothing is lost.

use vcu_media::synth::{ContentClass, SynthSpec};
use vcu_media::{Resolution, Video};

/// One suite entry.
#[derive(Debug, Clone)]
pub struct VbenchClip {
    /// Clip name (mirrors the paper's Fig. 7 legend).
    pub name: &'static str,
    /// Generator specification.
    pub spec: SynthSpec,
}

impl VbenchClip {
    /// Generates the clip's frames.
    pub fn video(&self) -> Video {
        self.spec.generate()
    }
}

/// Builds the 15-clip suite: ~1 second per clip at 144p–240p, short
/// enough that the quality experiments can encode every pixel.
pub fn suite() -> Vec<VbenchClip> {
    let (frames_lo, frames_hi) = (24, 36);
    // vbench's 240p-and-below clips at 144p, its 360p clips at 240p.
    let (small, large) = (Resolution::R144, Resolution::R240);

    let mk = |name: &'static str,
              r: Resolution,
              frames: usize,
              fps: f64,
              content: ContentClass,
              seed: u64| VbenchClip {
        name,
        spec: SynthSpec::new(r, frames, content, seed).with_fps(fps),
    };

    let screen = ContentClass::screen_content();
    let talk = ContentClass::talking_head();
    let ugc = ContentClass::ugc();
    let game = ContentClass::gaming();
    let wild = ContentClass::high_motion();

    vec![
        mk("presentation", small, frames_lo, 24.0, screen, 101),
        mk("desktop", small, frames_lo, 24.0, screen, 102),
        mk("bike", small, frames_hi, 30.0, ugc, 103),
        mk("funny", small, frames_lo, 30.0, talk, 104),
        mk("house", small, frames_lo, 24.0, talk, 105),
        mk("cricket", large, frames_hi, 30.0, wild, 106),
        mk("girl", small, frames_lo, 24.0, talk, 107),
        mk("game_1", small, frames_hi, 60.0, game, 108),
        mk("chicken", small, frames_hi, 30.0, ugc, 109),
        mk("hall", small, frames_lo, 24.0, talk, 110),
        mk("game_2", large, frames_hi, 60.0, game, 111),
        mk("cat", small, frames_lo, 30.0, ugc, 112),
        mk("landscape", large, frames_lo, 24.0, ugc, 113),
        mk("game_3", small, frames_hi, 60.0, game, 114),
        mk("holi", large, frames_hi, 30.0, wild, 115),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_fifteen_clips() {
        assert_eq!(suite().len(), 15);
    }

    #[test]
    fn names_are_unique() {
        let s = suite();
        let mut names: Vec<_> = s.iter().map(|c| c.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 15);
    }

    #[test]
    fn axes_are_spread() {
        let s = suite();
        let fps: std::collections::BTreeSet<_> = s.iter().map(|c| c.spec.fps as u32).collect();
        assert!(fps.len() >= 3, "frame-rate axis collapsed: {fps:?}");
        let res: std::collections::BTreeSet<_> = s.iter().map(|c| c.spec.resolution).collect();
        assert!(res.len() >= 2, "resolution axis collapsed");
    }

    #[test]
    fn clips_generate() {
        let c = &suite()[0];
        let v = c.video();
        assert_eq!(v.frames.len(), c.spec.frames);
    }

    #[test]
    fn deterministic_suite() {
        let a = suite()[5].video();
        let b = suite()[5].video();
        assert_eq!(a, b);
    }
}
