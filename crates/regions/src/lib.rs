//! `vcu-regions`: planet-scale multi-region simulation on top of the
//! cluster DES.
//!
//! The paper deploys VCUs across many clusters in many regions; this
//! crate scales the single-cluster DES to that shape without giving up
//! byte-identical replay:
//!
//! - [`region`]: one [`region::RegionSim`] runs N open-world cluster
//!   cells (the event queue sharded by pool/cell) and merges their job
//!   resolutions through a deterministic cross-shard merge whose order
//!   is invariant in the shard count;
//! - [`planet`]: [`planet::PlanetSim`] steps regions in lockstep
//!   epochs over phase-shifted diurnal demand, routes overflow between
//!   regions on backlog pressure, and schedules rolling
//!   firmware-upgrade waves plus correlated rack/power failure domains
//!   feeding the §4.4 blast-radius metric;
//! - [`campaign`]: the regions × fleet × traffic sweep behind
//!   `results/region_campaign.json`, including the isolated-regions
//!   counterfactual the overflow-routing CI gate compares against.
#![forbid(unsafe_code)]

pub mod campaign;
pub mod planet;
pub mod region;

pub use campaign::{run_region_campaign, RegionCampaignCell, RegionCampaignConfig, RegionCellSpec};
pub use planet::{OverflowPolicy, PlanetConfig, PlanetReport, PlanetSim};
pub use region::{region_job, RegionReport, RegionSim, RegionSpec};
