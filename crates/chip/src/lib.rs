//! Functional + timing model of the Video Coding Unit (VCU) ASIC and
//! the baseline systems it is compared against.
//!
//! Two complementary layers:
//!
//! - **Functional**: the real `vcu-codec` encoder with the hardware
//!   toolset produces real bitstreams, and [`faults`] can corrupt them
//!   the way failing silicon would — this is what quality experiments
//!   and golden-test screening run on.
//! - **Timing**: closed-form capacity models calibrated once in
//!   [`calib`] from numbers the paper states — encoder-core pipeline
//!   ([`encoder_core`]), DRAM bandwidth/footprints ([`dram`]),
//!   whole-chip capacity and the §3.3.3 millicore resource mapping
//!   ([`vcu`]), and the Table-1 contender systems ([`devices`]).
//!
//! The timing layer is parameterized by a [`DesignPoint`] (encoder
//! cores × decoder cores × DRAM bandwidth × reference-store SRAM,
//! plus a cost/area/power model), so `vcu-dse` can sweep the design
//! space while the shipped configuration stays bit-identical.
#![forbid(unsafe_code)]

pub mod calib;
pub mod design;
pub mod devices;
pub mod dram;
pub mod encoder_core;
pub mod faults;
pub mod job;
pub mod refstore;
pub mod vcu;

pub use design::DesignPoint;
pub use devices::System;
pub use job::{OutputVariant, Outputs, TranscodeJob};
pub use vcu::{ResourceDemand, VcuModel, WorkloadShape};
