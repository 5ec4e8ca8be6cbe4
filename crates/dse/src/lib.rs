//! Chip design-space exploration: the co-design loop the paper runs
//! before tape-out (§3), reproduced as a deterministic sweep.
//!
//! The paper's central claim is that the VCU's configuration — ten
//! encoder cores, three decoder cores, a 4×LPDDR4 memory system and a
//! small on-chip reference store — was *chosen* by evaluating candidate
//! chips against production workloads on warehouse-scale models, not
//! picked by rule of thumb. This crate closes that loop in-repo:
//!
//! - [`campaign::DseConfig`] spans a grid over encoder cores × decoder
//!   cores × raw DRAM bandwidth × reference-store SRAM, each cell a
//!   [`vcu_chip::DesignPoint`] with area/power/cost and derated
//!   throughput models,
//! - every candidate is evaluated on the full [`vcu_cluster::ClusterSim`]
//!   (§3.3.3 scheduler, retries, watchdogs, degradation ladder) under a
//!   fixed offered load and again under the fault campaign's fault mix,
//! - [`pareto::frontier_flags`] extracts the non-dominated set over
//!   (steady perf/VCU, fault-campaign goodput, perf/TCO), and
//! - [`campaign::check_anchor`] gates the sweep on the shipped VCU
//!   landing on (or within tolerance of) its own frontier — if the
//!   model says a strictly better chip was left on the table, the model
//!   is broken, and CI fails.
//!
//! Determinism contract: same seed ⇒ identical [`run_dse`] candidates
//! (so byte-identical artifact) at any `VCU_THREADS` — the
//! candidate fan-out over [`vcu_exec::pool`] reassembles in index
//! order and every simulation seed derives from the campaign seed, not
//! from which thread ran the cell.
#![forbid(unsafe_code)]

pub mod campaign;
pub mod pareto;

pub use campaign::{
    arrival_span_s, check_anchor, run_dse, DseCandidate, DseConfig, DEFAULT_ANCHOR_TOL,
    OFFERED_LOAD,
};
pub use pareto::{dominates, frontier_flags};
