//! Workload generators for the VCU reproduction.
//!
//! The paper evaluates on vbench plus production traffic we cannot
//! redistribute; this crate synthesizes both: a [`vbench`]-like
//! 15-clip suite spanning resolution × frame-rate × entropy, a
//! [`popularity`] model (stretched power law, three buckets, §2.2),
//! [`traffic`] generators for upload and live request streams, a
//! [`viewing`] model (popularity-weighted catalog + viewer-session
//! arrivals) feeding the online serving layer, and [`diurnal`]
//! time-of-day demand curves that phase-shift per region for the
//! multi-region simulation.
#![forbid(unsafe_code)]

pub mod diurnal;
pub mod popularity;
pub mod traffic;
pub mod vbench;
pub mod viewing;

pub use diurnal::{DiurnalCurve, DAY_S};
pub use popularity::{PopularityBucket, PopularityModel, Treatment};
pub use traffic::{LiveTraffic, Request, UploadTraffic, WorkloadFamily};
pub use vbench::{suite, VbenchClip};
pub use viewing::{Catalog, CatalogVideo, ViewerSessions};
