//! Pixel-level media substrate for the VCU reproduction.
//!
//! This crate provides the raw-video foundation that the rest of the
//! workspace builds on:
//!
//! - [`Plane`] / [`Frame`]: 8-bit YUV 4:2:0 frame storage with safe
//!   block access and edge-clamped sampling,
//! - [`Resolution`]: the standard 16:9 output ladder (144p … 4320p)
//!   used by the paper's multiple-output transcoding (MOT) pipelines,
//! - [`quality`]: MSE / PSNR distortion metrics,
//! - [`bdrate`]: Bjøntegaard delta-rate between rate-distortion curves
//!   (the metric behind the paper's "30% BD-rate improvement" claims),
//! - [`scale`]: area-average downscaling and bilinear upscaling,
//! - [`synth`]: a deterministic synthetic video generator with
//!   controllable spatial detail, motion and noise. The paper evaluates
//!   on vbench and proprietary uploads; we have neither, so synthetic
//!   content with matched *entropy/motion spread* stands in (see
//!   DESIGN.md "Substitutions").
//!
//! # Example
//!
//! ```
//! use vcu_media::{synth::{SynthSpec, ContentClass}, quality::psnr_y, Resolution};
//!
//! let spec = SynthSpec::new(Resolution::R144, 8, ContentClass::talking_head(), 7);
//! let video = spec.generate();
//! assert_eq!(video.frames.len(), 8);
//! let p = psnr_y(&video.frames[0], &video.frames[0]);
//! assert!(p.is_infinite()); // identical frames
//! ```
#![forbid(unsafe_code)]

pub mod bdrate;
pub mod frame;
pub mod plane;
pub mod quality;
pub mod resolution;
pub mod scale;
pub mod synth;

pub use frame::{Frame, Video};
pub use plane::Plane;
pub use resolution::Resolution;
