//! From-scratch block-based video codec with two profiles.
//!
//! Implements the transcoding substrate the VCU accelerates: a real
//! (simplified) hybrid video codec — motion-compensated prediction,
//! integer transform, scalar quantization, adaptive binary arithmetic
//! entropy coding, in-loop deblocking — with an [`types::Profile`] axis
//! mirroring the H.264 vs VP9 tool gap and full encode/decode
//! round-trip fidelity (the decoder reproduces the encoder's
//! reconstruction bit-exactly).
//!
//! The encoder additionally meters its own work ([`stats::CodingStats`])
//! so the chip/CPU timing models in `vcu-chip` can price software and
//! hardware transcodes from the same measured operation counts.
#![deny(clippy::undocumented_unsafe_blocks)]
#![deny(clippy::multiple_unsafe_ops_per_block)]

pub mod api;
pub(crate) mod block;
pub mod config;
pub mod deblock;
pub mod entropy;
pub mod frame_coder;
pub mod intra;
pub mod kernels;
pub mod models;
pub mod motion;
pub mod quant;
pub mod rc;
pub mod stats;
pub mod tempfilter;
pub mod transform;
pub mod types;

pub use api::{
    decode, encode, encode_batch, encode_parallel, encode_parallel_traced, encode_traced,
    CodedFrameInfo, Decoded, Encoded, MAX_DIM,
};
pub use config::{env_threads, EncoderConfig, PassMode, RateControl, Toolset, TuningLevel};
pub use stats::CodingStats;
pub use types::{CodecError, FrameKind, MotionVector, Profile, Qp};
