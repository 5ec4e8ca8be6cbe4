//! Core codec types: profiles, QPs, motion vectors, frame kinds.

use std::fmt;

/// Coding specification profile implemented by the codec.
///
/// The paper's VCU encodes H.264 and VP9. We implement one from-scratch
/// block codec with two *profiles* whose toolsets mirror the relevant
/// differences: `Vp9Sim` has larger blocks, recursive partitioning,
/// more reference frames, compound prediction and temporal-filtered
/// alternate reference frames — so it compresses better and costs more
/// compute, exactly the relationship the paper's results depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Profile {
    /// H.264-like: 16×16 macroblocks, 8×8 transform, 1 reference frame.
    H264Sim,
    /// VP9-like: 64×64 superblocks, recursive partitioning to 16×16,
    /// 16×16/8×8 transforms, up to 3 reference frames, compound
    /// prediction, temporal-filter altref.
    Vp9Sim,
}

impl Profile {
    /// Superblock size in luma pixels (the "basic element of the
    /// pipelined computation", paper §3.2).
    pub const fn superblock_size(self) -> usize {
        match self {
            Profile::H264Sim => 16,
            Profile::Vp9Sim => 64,
        }
    }

    /// Maximum number of reference frames searched.
    pub const fn max_references(self) -> usize {
        match self {
            Profile::H264Sim => 1,
            Profile::Vp9Sim => 3,
        }
    }

    /// Whether compound (two-reference averaged) prediction is available.
    pub const fn supports_compound(self) -> bool {
        matches!(self, Profile::Vp9Sim)
    }

    /// Whether temporal-filtered alternate reference frames are available.
    pub const fn supports_altref(self) -> bool {
        matches!(self, Profile::Vp9Sim)
    }

    /// Short lowercase name ("h264" / "vp9").
    pub const fn name(self) -> &'static str {
        match self {
            Profile::H264Sim => "h264",
            Profile::Vp9Sim => "vp9",
        }
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Quantization parameter, 0 (near lossless) to 63 (coarsest).
///
/// The quantizer step size doubles every 6 QP steps, like H.264/VP9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Qp(u8);

impl Qp {
    /// Minimum QP.
    pub const MIN: Qp = Qp(0);
    /// Maximum QP.
    pub const MAX: Qp = Qp(63);

    /// Creates a QP, clamping into `[0, 63]`.
    pub fn new(v: u8) -> Qp {
        Qp(v.min(63))
    }

    /// Raw value.
    pub fn value(self) -> u8 {
        self.0
    }

    /// Quantizer step size: `2^((qp-12)/6)` scaled so QP 24 has step 4.
    pub fn step(self) -> f64 {
        4.0 * 2f64.powf((self.0 as f64 - 24.0) / 6.0)
    }

    /// The RDO Lagrange multiplier conventionally tracks step².
    pub fn lambda(self) -> f64 {
        0.57 * self.step() * self.step()
    }

    /// Returns a QP offset by `d`, clamped to the valid range.
    pub fn offset(self, d: i32) -> Qp {
        Qp((self.0 as i32 + d).clamp(0, 63) as u8)
    }
}

impl fmt::Display for Qp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qp{}", self.0)
    }
}

/// A motion vector in half-pel units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MotionVector {
    /// Horizontal component, half-pel units (positive = right).
    pub x: i16,
    /// Vertical component, half-pel units (positive = down).
    pub y: i16,
}

impl MotionVector {
    /// The zero vector.
    pub const ZERO: MotionVector = MotionVector { x: 0, y: 0 };

    /// Creates a motion vector from half-pel components.
    pub fn new(x: i16, y: i16) -> Self {
        MotionVector { x, y }
    }

    /// Creates a full-pel motion vector.
    pub fn full_pel(x: i16, y: i16) -> Self {
        MotionVector { x: x * 2, y: y * 2 }
    }
}

/// How a frame is coded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Intra-only keyframe; resets the reference buffer.
    Key,
    /// Inter-predicted frame.
    Inter,
    /// Non-displayable synthetic alternate reference frame built by the
    /// temporal filter (VP9 profile only; paper §3.2).
    AltRef,
}

impl FrameKind {
    /// Whether this frame is shown to the viewer (altrefs are not).
    pub fn is_displayable(self) -> bool {
        !matches!(self, FrameKind::AltRef)
    }
}

/// Errors reported by encode/decode entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The bitstream ended prematurely or failed a consistency check.
    CorruptBitstream(&'static str),
    /// Header declared a profile/dimension combination we cannot decode.
    Unsupported(&'static str),
    /// Encoder configuration rejected.
    InvalidConfig(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::CorruptBitstream(m) => write!(f, "corrupt bitstream: {m}"),
            CodecError::Unsupported(m) => write!(f, "unsupported stream: {m}"),
            CodecError::InvalidConfig(m) => write!(f, "invalid encoder config: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qp_step_doubles_every_six() {
        let a = Qp::new(24).step();
        let b = Qp::new(30).step();
        assert!((b / a - 2.0).abs() < 1e-12);
    }

    #[test]
    fn qp_clamps() {
        assert_eq!(Qp::new(200), Qp::MAX);
        assert_eq!(Qp::new(5).offset(-100), Qp::MIN);
        assert_eq!(Qp::new(60).offset(100), Qp::MAX);
    }

    #[test]
    fn lambda_monotone() {
        assert!(Qp::new(40).lambda() > Qp::new(20).lambda());
    }

    #[test]
    fn profile_parameters() {
        assert_eq!(Profile::H264Sim.superblock_size(), 16);
        assert_eq!(Profile::Vp9Sim.superblock_size(), 64);
        assert!(Profile::Vp9Sim.supports_compound());
        assert!(!Profile::H264Sim.supports_altref());
        assert_eq!(Profile::Vp9Sim.max_references(), 3);
    }

    #[test]
    fn mv_full_pel() {
        assert_eq!(MotionVector::full_pel(3, -2), MotionVector::new(6, -4));
        assert_eq!(MotionVector::ZERO, MotionVector::default());
    }

    #[test]
    fn altref_not_displayable() {
        assert!(!FrameKind::AltRef.is_displayable());
        assert!(FrameKind::Key.is_displayable());
    }

    #[test]
    fn error_display() {
        let e = CodecError::CorruptBitstream("bad magic");
        assert!(e.to_string().contains("bad magic"));
    }
}
