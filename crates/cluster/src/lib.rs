//! Warehouse-cluster simulation: the distributed-systems half of the
//! paper's co-design.
//!
//! - [`des`]: deterministic discrete-event core,
//! - [`scheduler`]: the §3.3.3 multi-dimensional bin-packing work
//!   scheduler with a sharded availability cache (plus the legacy
//!   single-slot baseline for ablations),
//! - [`sim`]: the cluster simulator — a dispatch core (event loop,
//!   pending queues, placement, the open-world stepping API) over
//!   state-owning components for retry backoff, fleet health
//!   (watchdog strikes, draining, golden screening, quarantine), the
//!   graceful-degradation ladder, and accounting,
//! - [`faultsim`]: the seeded fault generators and the armed cluster
//!   configuration every fault sweep shares (§4.4's failure
//!   management under load),
//! - [`tco`]: the capex + 3-year-opex cost model behind Table 1's
//!   perf/TCO column.
#![forbid(unsafe_code)]

pub mod des;
pub mod faultsim;
pub mod scheduler;
pub mod sim;
pub mod tco;

pub use des::{EventQueue, ShardedEventQueue};
pub use faultsim::{
    cell_cluster_config, correlated_domain_faults, fault_schedule, slots_per_worker,
    uniform_stream, upgrade_wave_faults,
};
pub use scheduler::{PlacementMode, Scheduler, SchedulerKind};
pub use sim::{
    ClusterConfig, ClusterReport, ClusterSim, ConfigError, DegradePolicy, FaultInjection,
    FaultKind, HealthPolicy, JobResolution, JobSpec, Priority, RetryPolicy, Sample, WatchdogPolicy,
    BACKOFF_FACTOR, MAX_ATTEMPTS,
};
pub use tco::{fleet_tco_usd, perf_per_tco, perf_per_tco_normalized, system_tco, Tco};
