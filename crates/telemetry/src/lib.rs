//! Deterministic fleet-observability subsystem.
//!
//! The paper's deployment story (§4) rests on fleet observability:
//! utilization time-series (Fig. 9), per-core health screening,
//! blast-radius accounting, and throughput/power reporting. This crate
//! is the instrumentation spine the chip, cluster and codec layers
//! report through:
//!
//! - [`metrics`]: fixed-memory counters, gauges, and log-bucketed
//!   histograms with p50/p99/p999,
//! - [`series`]: sim-clock time-series ring buffers (bounded memory,
//!   oldest points dropped first),
//! - [`trace`]: structured trace events and spans keyed by
//!   job/video/VCU id,
//! - [`registry`]: the cheap [`Registry`] handle everything records
//!   through — a no-op when disabled, so hot paths pay one branch,
//! - [`snapshot`]: a deterministic JSON snapshot writer.
//!
//! # Determinism contract
//!
//! Everything is driven by the caller's simulation clock, never
//! wall-clock. All map keys iterate in sorted (`BTreeMap`) order, all
//! floats render through one shortest-round-trip formatter, and no
//! capacity decision depends on allocation addresses — so two runs
//! with the same seed produce **byte-identical** snapshots.
//!
//! # Example
//!
//! ```
//! use vcu_telemetry::{Registry, Scope};
//!
//! let reg = Registry::new();
//! reg.counter_add("jobs.completed", 1);
//! reg.gauge_set("util.encode", 0.83);
//! reg.observe("frame.psnr_y", 41.7);
//! reg.series_record("util.encode", 60.0, 0.83);
//! reg.span("job", Scope::job(7).with_vcu(2), 0.0, 5.5, 1.0);
//! let json = reg.snapshot_json(&[("seed", "42")]);
//! assert!(json.contains("jobs.completed"));
//!
//! // Disabled handles are free: every record call is a no-op.
//! let off = Registry::disabled();
//! off.counter_add("jobs.completed", 1);
//! assert_eq!(off.counter("jobs.completed"), 0);
//! ```
#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod registry;
pub mod series;
pub mod snapshot;
pub mod trace;

pub use metrics::HistogramSummary;
pub use registry::Registry;
pub use trace::{Scope, TraceEvent};
