//! Encoder configuration: profiles, toolsets, rate-control modes.
//!
//! The *toolset* axis models the paper's hardware/software quality gap
//! (Fig. 7: VCU H.264 launched ~11.5% worse BD-rate than libx264) and
//! the post-deployment tuning story (Fig. 10: rate-control iteration on
//! the host closed that gap over ~16 months). `Toolset::Software` is
//! the libx264/libvpx stand-in; `Toolset::Hardware { tuning }` is the
//! VCU with a maturity level that unlocks encoder features the way
//! Google's "launch-and-iterate" userspace rate-control updates did.

use crate::motion::SearchParams;
use crate::types::{CodecError, Profile, Qp};

/// Hardware rate-control/tooling maturity, `0..=6`.
///
/// Level 0 is launch silicon with conservative firmware defaults; each
/// level enables one post-deployment optimization called out in §4.3
/// ("improved group-of-pictures structure selection, better use of
/// hardware statistics, introduction of additional reference frames,
/// and importing rate control ideas from the equivalent software
/// encoders").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TuningLevel(u8);

impl TuningLevel {
    /// Launch-day tuning.
    pub const LAUNCH: TuningLevel = TuningLevel(0);
    /// Fully tuned (months of production iteration).
    pub const MATURE: TuningLevel = TuningLevel(6);

    /// Creates a tuning level, clamped to `0..=6`.
    pub fn new(level: u8) -> Self {
        TuningLevel(level.min(6))
    }

    /// Raw level.
    pub fn level(self) -> u8 {
        self.0
    }
}

/// Which encoder implementation style is in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Toolset {
    /// CPU reference encoder (libx264/libvpx stand-in): exhaustive
    /// refinement, trellis quantization, best-known defaults.
    Software,
    /// VCU-style hardware encoder at a given tuning maturity.
    Hardware {
        /// Post-deployment rate-control maturity.
        tuning: TuningLevel,
    },
}

impl Toolset {
    /// Search parameters for this toolset.
    pub(crate) fn search_params(self) -> SearchParams {
        match self {
            Toolset::Software => SearchParams::software(),
            Toolset::Hardware { .. } => SearchParams::hardware(),
        }
    }

    /// Quantizer dead-zone (rounding bias). Launch firmware rounds to
    /// nearest (0.5), which is *not* RD-optimal; tuning tightens the
    /// dead zone towards the software encoders' ~0.38.
    pub fn deadzone(self) -> f64 {
        match self {
            Toolset::Software => 0.38,
            Toolset::Hardware { tuning } => 0.50 - 0.02 * tuning.0 as f64,
        }
    }

    /// Whether the greedy trellis-like level optimization runs
    /// (imported from the software encoders at high maturity).
    pub fn trellis(self) -> bool {
        match self {
            Toolset::Software => true,
            Toolset::Hardware { tuning } => tuning.0 >= 5,
        }
    }

    /// Keyframe QP offset — launch rate control *starves* keyframes
    /// (positive offset), degrading every frame predicted from them;
    /// GOP-structure tuning removes the misallocation.
    pub(crate) fn keyframe_qp_boost(self) -> i32 {
        match self {
            Toolset::Software => 0,
            Toolset::Hardware { tuning } => match tuning.0 {
                0 => 2,
                1 => 1,
                _ => 0,
            },
        }
    }

    /// Whether the GOP structure adapts to first-pass statistics
    /// ("improved group-of-pictures structure selection", §4.3, from
    /// level 1).
    pub(crate) fn adaptive_gop(self) -> bool {
        match self {
            Toolset::Software => true,
            Toolset::Hardware { tuning } => tuning.0 >= 1,
        }
    }

    /// Whether mode decisions rank candidates by SATD (transform-domain
    /// cost, a better rate proxy) instead of plain SAD — "better use of
    /// hardware statistics" arrives with tuning (§4.3).
    pub(crate) fn satd_ranking(self) -> bool {
        match self {
            Toolset::Software => true,
            Toolset::Hardware { tuning } => tuning.0 >= 3,
        }
    }

    /// RDO Lagrange-multiplier miscalibration factor (1.0 = well
    /// calibrated). Launch firmware shipped with a lambda tuned on
    /// pre-silicon models; production tuning ("importing rate control
    /// ideas from the equivalent software encoders", §4.3) converges it
    /// to 1.0.
    pub(crate) fn lambda_scale(self) -> f64 {
        match self {
            Toolset::Software => 1.0,
            Toolset::Hardware { tuning } => match tuning.0 {
                0 => 1.6,
                1 => 1.4,
                2 => 1.25,
                3 => 1.15,
                4 => 1.05,
                _ => 1.0,
            },
        }
    }

    /// Whether altref frames are produced (profile permitting; level 2+
    /// on hardware).
    pub(crate) fn altref_enabled(self) -> bool {
        match self {
            Toolset::Software => true,
            Toolset::Hardware { tuning } => tuning.0 >= 2,
        }
    }
}

/// Pass structure / latency mode (paper §2.1's four encoding regimes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassMode {
    /// One pass, frame-by-frame: videoconferencing / cloud gaming.
    OnePassLowLatency,
    /// Two passes but statistics only from current and prior frames.
    TwoPassLowLatency,
    /// Two-pass with a bounded future window of first-pass statistics
    /// (live streams).
    TwoPassLagged(usize),
    /// Two-pass over the entire video (upload / archival; best quality).
    TwoPassOffline,
}

impl PassMode {
    /// Frames of future statistics available at frame `i` of `n`.
    pub fn lookahead(self, i: usize, n: usize) -> usize {
        match self {
            PassMode::OnePassLowLatency | PassMode::TwoPassLowLatency => 0,
            PassMode::TwoPassLagged(w) => w.min(n - i - 1),
            PassMode::TwoPassOffline => n - i - 1,
        }
    }

    /// Whether a first pass runs at all.
    pub(crate) fn has_first_pass(self) -> bool {
        !matches!(self, PassMode::OnePassLowLatency)
    }
}

/// Rate-control mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateControl {
    /// Fixed quantizer (used for RD-curve sweeps).
    ConstQp(Qp),
    /// Target average bitrate in bits/second.
    Bitrate {
        /// Target bits per second.
        bps: u64,
        /// Pass structure.
        pass: PassMode,
    },
}

/// Maximum keyframe interval in frames.
pub(crate) const KEYFRAME_INTERVAL: usize = 150;

/// Frames between altref insertions, for configurations whose
/// [`EncoderConfig::altref_active`] holds.
pub(crate) const ALTREF_PERIOD: usize = 16;

/// Full encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncoderConfig {
    /// Coding profile (H.264-like or VP9-like).
    pub profile: Profile,
    /// Hardware or software toolset.
    pub toolset: Toolset,
    /// Rate control.
    pub rc: RateControl,
    /// Worker threads for a batch of chunks (see
    /// [`crate::encode_batch`]). `1` encodes them sequentially; every
    /// bitstream is byte-identical for every thread count.
    pub threads: usize,
}

impl EncoderConfig {
    /// A sensible default configuration for `profile` at constant QP.
    pub fn const_qp(profile: Profile, qp: Qp) -> Self {
        EncoderConfig {
            profile,
            toolset: Toolset::Software,
            rc: RateControl::ConstQp(qp),
            threads: 1,
        }
    }

    /// A bitrate-targeted configuration.
    pub fn bitrate(profile: Profile, bps: u64, pass: PassMode) -> Self {
        EncoderConfig {
            profile,
            toolset: Toolset::Software,
            rc: RateControl::Bitrate { bps, pass },
            threads: 1,
        }
    }

    /// Switches to the hardware toolset at the given tuning level.
    pub fn with_hardware(mut self, tuning: TuningLevel) -> Self {
        self.toolset = Toolset::Hardware { tuning };
        self
    }

    /// Sets the worker-thread count for chunk-parallel encoding
    /// (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidConfig`] for a zero-bitrate target.
    pub fn validate(&self) -> Result<(), CodecError> {
        if let RateControl::Bitrate { bps, .. } = self.rc {
            if bps == 0 {
                return Err(CodecError::InvalidConfig("bitrate target must be > 0"));
            }
        }
        Ok(())
    }

    /// Whether this configuration produces altref frames.
    pub(crate) fn altref_active(&self) -> bool {
        self.profile.supports_altref()
            && self.toolset.altref_enabled()
            && match self.rc {
                // Altrefs need future frames: not in one-pass low latency.
                RateControl::Bitrate {
                    pass: PassMode::OnePassLowLatency,
                    ..
                } => false,
                _ => true,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuning_progression_is_monotone() {
        // Each knob should move towards the software value as level rises.
        let hw = |tuning| Toolset::Hardware { tuning };
        let (launch, mature) = (hw(TuningLevel::LAUNCH), hw(TuningLevel::MATURE));
        let mut prev_dz = 1.0;
        for l in 0..=6 {
            let t = hw(TuningLevel::new(l));
            assert!(t.deadzone() <= prev_dz);
            prev_dz = t.deadzone();
        }
        assert!(mature.deadzone() >= Toolset::Software.deadzone() - 1e-9);
        assert!(launch.keyframe_qp_boost() > mature.keyframe_qp_boost());
        assert!(!launch.satd_ranking());
        assert!(mature.satd_ranking());
        assert!(!launch.altref_enabled());
        assert!(mature.altref_enabled());
        assert!(mature.trellis());
    }

    #[test]
    fn tuning_clamps() {
        assert_eq!(TuningLevel::new(99).level(), 6);
    }

    #[test]
    fn lookahead_per_mode() {
        assert_eq!(PassMode::OnePassLowLatency.lookahead(0, 100), 0);
        assert_eq!(PassMode::TwoPassLagged(5).lookahead(0, 100), 5);
        assert_eq!(PassMode::TwoPassLagged(5).lookahead(97, 100), 2);
        assert_eq!(PassMode::TwoPassOffline.lookahead(10, 100), 89);
    }

    #[test]
    fn validation() {
        let c = EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(30));
        assert!(c.validate().is_ok());
        let b = EncoderConfig::bitrate(Profile::H264Sim, 0, PassMode::TwoPassOffline);
        assert!(b.validate().is_err());
    }

    #[test]
    fn altref_requires_everything() {
        // H264 profile: never.
        let h = EncoderConfig::const_qp(Profile::H264Sim, Qp::new(30));
        assert!(!h.altref_active());
        // VP9 software: yes.
        let v = EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(30));
        assert!(v.altref_active());
        // VP9 hardware at launch: no (tuning gate).
        let hw = v.with_hardware(TuningLevel::LAUNCH);
        assert!(!hw.altref_active());
        // VP9 hardware mature: yes.
        let hw2 = v.with_hardware(TuningLevel::MATURE);
        assert!(hw2.altref_active());
        // One-pass low latency: no future frames, no altref.
        let ll = EncoderConfig::bitrate(Profile::Vp9Sim, 1_000_000, PassMode::OnePassLowLatency);
        assert!(!ll.altref_active());
    }
}
