//! `vcu-serve`: the online transcode-on-demand serving layer.
//!
//! The batch half of the repo answers "how fast can the fleet chew
//! through a queue"; this crate answers the viewer-facing question the
//! paper's deployment actually ships: what TTFF, rebuffer rate, and
//! egress-vs-transcode cost does a fleet of VCUs deliver to a
//! population of *live* viewers?
//!
//! - [`cache`]: capacity-bounded segment cache — slab-backed LRU with
//!   a popularity-protected tier so scans of the cold tail cannot
//!   evict the head,
//! - [`sim`]: the serving simulator — Poisson viewer arrivals over a
//!   Zipf catalog, per-segment playback with deadline tracking,
//!   deadline-class transcode priorities, miss coalescing, and
//!   admission control that sheds load *before* the cluster's
//!   graceful-degradation ladder arms,
//! - [`campaign`]: the deterministic cache-size × fleet-scale sweep
//!   behind `results/serve_campaign.json`.
//!
//! Everything is a function of the seed: same seed → byte-identical
//! campaign JSON and telemetry snapshots, for any `VCU_THREADS`.
#![forbid(unsafe_code)]

pub mod cache;
pub mod campaign;
pub mod sim;

pub use cache::{key_video, seg_key, SegmentCache};
pub use campaign::{
    run_serve_campaign, run_serve_cell, ServeCampaignCell, ServeCampaignConfig, ServeCellSpec,
};
pub use sim::{ServeConfig, ServeReport, ServeSim};
