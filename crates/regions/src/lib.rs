//! `vcu-regions`: planet-scale multi-region simulation on top of the
//! cluster DES.
//!
//! The paper deploys VCUs across many clusters in many regions; this
//! crate scales the single-cluster DES to that shape without giving up
//! byte-identical replay:
//!
//! - [`region`]: one [`region::RegionSim`] runs N open-world cluster
//!   cells, each with its own event queue, and merges their job
//!   resolutions into one timeline with a stable sort by time — the
//!   order one event queue would pop them in;
//! - [`planet`]: [`planet::PlanetSim`] steps regions in lockstep
//!   epochs over phase-shifted diurnal demand, routes overflow between
//!   regions on backlog pressure, and schedules rolling
//!   firmware-upgrade waves plus correlated rack/power failure domains
//!   feeding the §4.4 blast-radius metric.
//!
//! `vcu-bench` sweeps [`PlanetSim`] over regions × fleet × traffic,
//! with the isolated-regions counterfactual, for
//! `results/region_campaign.json`.
#![forbid(unsafe_code)]

pub mod planet;
pub mod region;

pub use planet::{OverflowPolicy, PlanetConfig, PlanetReport, PlanetSim};
pub use region::{region_job, RegionReport, RegionSim, RegionSpec};
