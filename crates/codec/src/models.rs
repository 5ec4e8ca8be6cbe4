//! Entropy-model bank of the frame syntax.
//!
//! One `Models` instance is created per coded frame on each side. The
//! syntax that codes through it is written once — `frame_coder`'s
//! `FrameCoder` walk with `code_mode` and `code_mv`, and
//! `block::code_tile` — generic over
//! [`crate::entropy::BoolCoder`], so the encoder and the decoder code
//! the same symbol sequence by construction, and because
//! [`crate::entropy::AdaptiveModel`] adapts deterministically their
//! models stay in lockstep.

use crate::entropy::AdaptiveModel;

/// Number of transform-size classes (4, 8, 16, 32).
pub(crate) const TX_CLASSES: usize = 4;

/// Maps a transform size to its class index.
///
/// # Panics
///
/// Panics on sizes other than 4/8/16/32.
pub(crate) fn tx_class(n: usize) -> usize {
    match n {
        4 => 0,
        8 => 1,
        16 => 2,
        32 => 3,
        _ => panic!("unsupported transform size {n}"),
    }
}

/// All adaptive contexts used by the frame syntax.
#[derive(Debug, Clone)]
pub(crate) struct Models {
    /// Partition-split flags, one context per depth (64→32, 32→16).
    pub partition: AdaptiveModel,
    /// Inter-vs-intra flag.
    pub is_inter: AdaptiveModel,
    /// Intra mode (uint contexts).
    pub intra_mode: AdaptiveModel,
    /// Reference index (uint contexts).
    pub ref_idx: AdaptiveModel,
    /// Compound-prediction flag.
    pub compound: AdaptiveModel,
    /// Motion-vector X component (int contexts).
    pub mv_x: AdaptiveModel,
    /// Motion-vector Y component (int contexts).
    pub mv_y: AdaptiveModel,
    /// Transform-size split flag (use T/2 tiles instead of T), one
    /// context per tx class of the full-size transform.
    pub tx_split: AdaptiveModel,
    /// "Block has nonzero coefficients" flag per tx class.
    pub has_coeffs: AdaptiveModel,
    /// Last-nonzero-index (uint contexts) per tx class.
    pub last_nz: Vec<AdaptiveModel>,
    /// Coefficient magnitude (int contexts) per tx class.
    pub level: Vec<AdaptiveModel>,
}

impl Models {
    /// Creates a fresh model bank (all probabilities 1/2).
    pub(crate) fn new() -> Self {
        Models {
            partition: AdaptiveModel::new(2),
            is_inter: AdaptiveModel::new(1),
            intra_mode: AdaptiveModel::new(8),
            ref_idx: AdaptiveModel::new(8),
            compound: AdaptiveModel::new(1),
            mv_x: AdaptiveModel::new(8),
            mv_y: AdaptiveModel::new(8),
            tx_split: AdaptiveModel::new(TX_CLASSES),
            has_coeffs: AdaptiveModel::new(TX_CLASSES),
            last_nz: (0..TX_CLASSES).map(|_| AdaptiveModel::new(8)).collect(),
            level: (0..TX_CLASSES).map(|_| AdaptiveModel::new(8)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_class_mapping() {
        assert_eq!(tx_class(4), 0);
        assert_eq!(tx_class(32), 3);
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn tx_class_rejects_odd_sizes() {
        tx_class(12);
    }

    #[test]
    fn fresh_models_identical() {
        // Encoder and decoder construct Models::new() independently;
        // they must match exactly.
        let a = Models::new();
        let b = Models::new();
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.level, b.level);
    }
}
