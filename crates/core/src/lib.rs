//! The warehouse-scale video acceleration system (ASPLOS'21 VCU
//! reproduction) — the paper's contribution as a public API.
//!
//! This crate is the top of the stack: it turns platform requests into
//! [`graph::TaskGraph`]s and chunk-level cluster jobs ([`platform`]),
//! shards videos into closed GOPs and reassembles them with integrity
//! checks ([`chunking`]), and reproduces the Appendix-A provisioning
//! math ([`balance`]). The experiments that measure it against the
//! paper live in `vcu-bench`'s `paper` campaign.
//!
//! # Quickstart
//!
//! ```
//! use vcu_system::platform::Platform;
//! use vcu_workloads::{Request, WorkloadFamily, PopularityBucket};
//! use vcu_media::Resolution;
//!
//! let platform = Platform::default();
//! let req = Request {
//!     arrival_s: 0.0,
//!     family: WorkloadFamily::Upload,
//!     resolution: Resolution::R1080,
//!     fps: 30.0,
//!     duration_s: 10.0,
//!     popularity: PopularityBucket::Middle,
//! };
//! let jobs = platform.jobs_for(&req);
//! assert!(!jobs.is_empty());
//! ```
#![forbid(unsafe_code)]

pub mod balance;
pub mod chunking;
pub mod graph;
pub mod mot;
pub mod platform;

pub use chunking::ChunkPlan;
pub use graph::{StepKind, TaskGraph};
pub use platform::{Platform, PlatformConfig};
