//! What a run is given: jobs, their priority classes, and the cluster
//! configuration with its validity rules.

use super::{DegradePolicy, HealthPolicy, RetryPolicy, WatchdogPolicy};
use crate::scheduler::{PlacementMode, SchedulerKind};
use vcu_chip::{TranscodeJob, VcuModel};

/// Priority classes (§3.3.3's pools).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Live / latency-critical.
    Critical,
    /// Normal uploads.
    Normal,
    /// Batch / backfill.
    Batch,
}

impl Priority {
    /// Stable index of this class in per-pool arrays
    /// ([`Sample::queued_per_pool`](super::Sample::queued_per_pool),
    /// the internal priority queues).
    pub fn index(self) -> usize {
        match self {
            Priority::Critical => 0,
            Priority::Normal => 1,
            Priority::Batch => 2,
        }
    }
}

/// One job submitted to the cluster.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Arrival time (seconds).
    pub arrival_s: f64,
    /// The transcode work.
    pub job: TranscodeJob,
    /// Priority class.
    pub priority: Priority,
    /// Identifier of the source video this chunk belongs to (used by
    /// consistent-hash placement and blast-radius accounting). Chunks
    /// of unrelated videos may share 0.
    pub video_id: u64,
}

/// Cluster configuration and feature toggles.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of VCU workers (one worker per VCU; §3.1).
    pub vcus: usize,
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
    /// Placement search path: the O(log n) availability index, or the
    /// O(n) linear-scan oracle it is differential-tested against.
    pub placement: PlacementMode,
    /// §4.4 black-holing mitigation: on a detected hardware failure the
    /// worker aborts and the VCU must pass a golden test before reuse.
    pub blackhole_mitigation: bool,
    /// High-level integrity checks on outputs (detect most corruption).
    pub integrity_checks: bool,
    /// Fig. 9c: shift decode to host CPU when hardware decode blocks
    /// placement.
    pub opportunistic_sw_decode: bool,
    /// Probability an integrity check catches a corrupted chunk.
    pub detection_rate: f64,
    /// Exponential-backoff retry policy with a per-job attempt budget.
    pub retry: RetryPolicy,
    /// Per-job watchdog timeouts (§4.4: a hung firmware never reports
    /// completion — only a deadline notices).
    pub watchdog: WatchdogPolicy,
    /// Worker health scoring: strikes, draining, screening cadence.
    pub health: HealthPolicy,
    /// Graceful-degradation ladder (disabled by default).
    pub degrade: DegradePolicy,
    /// Metrics sampling period in seconds.
    pub sample_period_s: f64,
    /// Software-stack overhead multiplier on service times (>1 models
    /// the pre-NUMA-fix launch stack of §4.3; 1.0 is the tuned stack).
    pub service_time_factor: f64,
    /// §4.4 future-work enhancement: consistent-hash each video onto a
    /// bounded subset of this many VCUs (0 disables), so one failing
    /// VCU can only ever touch a few videos.
    pub consistent_hash_window: usize,
    /// Capacity model of every worker's VCU. Defaults to the shipped
    /// silicon; the DSE driver substitutes candidate design points,
    /// which changes how many concurrent jobs a worker fits (the
    /// §3.3.3 millicore demands scale with the design's capacity).
    pub model: VcuModel,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            vcus: 20,
            scheduler: SchedulerKind::MultiDim,
            placement: PlacementMode::Indexed,
            blackhole_mitigation: true,
            integrity_checks: true,
            opportunistic_sw_decode: false,
            detection_rate: 0.9,
            retry: RetryPolicy::default(),
            watchdog: WatchdogPolicy::default(),
            health: HealthPolicy::default(),
            degrade: DegradePolicy::default(),
            sample_period_s: 60.0,
            service_time_factor: 1.0,
            consistent_hash_window: 0,
            model: VcuModel::new(),
            seed: 1,
        }
    }
}

/// A [`ClusterConfig`] value the simulator cannot run with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field, as a path from [`ClusterConfig`].
    pub field: &'static str,
    /// What the field must be.
    pub requirement: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid ClusterConfig: {} must be {}",
            self.field, self.requirement
        )
    }
}

impl std::error::Error for ConfigError {}

impl ClusterConfig {
    /// Checks the values the event loop's termination and the report's
    /// arithmetic depend on. A zero or NaN period reschedules its
    /// event at the same instant forever, an empty fleet divides by
    /// zero, a NaN duration corrupts the event queue's order.
    ///
    /// # Errors
    ///
    /// Returns the first offending field as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        let rule = |ok: bool, field, requirement| {
            ok.then_some(()).ok_or(ConfigError { field, requirement })
        };
        let (retry, watchdog) = (&self.retry, &self.watchdog);
        rule(self.vcus >= 1, "vcus", "at least 1")?;
        rule(retry.max_attempts >= 1, "retry.max_attempts", "at least 1")?;
        let detection_ok = (0.0..=1.0).contains(&self.detection_rate);
        rule(detection_ok, "detection_rate", "in [0, 1]")?;
        for (field, v) in [
            ("sample_period_s", self.sample_period_s),
            ("service_time_factor", self.service_time_factor),
        ] {
            rule(v.is_finite() && v > 0.0, field, "finite and > 0")?;
        }
        for (field, v) in [
            ("retry.base_s", retry.base_s),
            ("retry.jitter_frac", retry.jitter_frac),
            ("watchdog.grace_s", watchdog.grace_s),
            ("watchdog.service_factor", watchdog.service_factor),
            ("health.golden_period_s", self.health.golden_period_s),
        ] {
            rule(v.is_finite() && v >= 0.0, field, "finite and >= 0")?;
        }
        let ladder_ok = self
            .degrade
            .backlog_per_worker
            .windows(2)
            .all(|w| w[0] <= w[1]);
        rule(ladder_ok, "degrade.backlog_per_worker", "non-decreasing")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultsim::cell_cluster_config;

    #[test]
    fn shipped_configurations_validate() {
        assert_eq!(ClusterConfig::default().validate(), Ok(()));
        assert_eq!(cell_cluster_config(64, 7).validate(), Ok(()));
    }

    #[test]
    fn each_bad_field_is_rejected_by_name() {
        type Break = fn(&mut ClusterConfig);
        let table: [(&str, Break); 15] = [
            ("vcus", |c| c.vcus = 0),
            ("sample_period_s", |c| c.sample_period_s = 0.0),
            ("sample_period_s", |c| c.sample_period_s = f64::NAN),
            ("service_time_factor", |c| c.service_time_factor = -1.0),
            ("detection_rate", |c| c.detection_rate = 1.5),
            ("detection_rate", |c| c.detection_rate = f64::NAN),
            ("retry.max_attempts", |c| c.retry.max_attempts = 0),
            ("retry.base_s", |c| c.retry.base_s = -0.5),
            ("retry.jitter_frac", |c| c.retry.jitter_frac = f64::NAN),
            ("watchdog.grace_s", |c| c.watchdog.grace_s = f64::INFINITY),
            ("watchdog.service_factor", |c| {
                c.watchdog.service_factor = -8.0
            }),
            ("health.golden_period_s", |c| {
                c.health.golden_period_s = f64::NAN
            }),
            ("health.golden_period_s", |c| {
                c.health.golden_period_s = -30.0
            }),
            ("degrade.backlog_per_worker", |c| {
                c.degrade.backlog_per_worker = [8.0, 4.0, 2.0]
            }),
            ("degrade.backlog_per_worker", |c| {
                c.degrade.backlog_per_worker[1] = f64::NAN
            }),
        ];
        for (field, break_it) in table {
            let mut cfg = ClusterConfig::default();
            break_it(&mut cfg);
            let err = cfg.validate().expect_err(field);
            assert_eq!(err.field, field);
            assert!(
                err.to_string().contains(field) && err.to_string().contains(err.requirement),
                "{err}"
            );
        }
    }

    #[test]
    fn the_edges_shipped_configurations_sit_on_are_accepted() {
        // Immediate retries, no periodic screening, certain or absent
        // detection, a flat ladder: all in use today.
        let mut cfg = ClusterConfig::default();
        cfg.retry.base_s = 0.0;
        cfg.health.golden_period_s = 0.0;
        cfg.detection_rate = 0.0;
        cfg.degrade.backlog_per_worker = [4.0, 4.0, 4.0];
        assert_eq!(cfg.validate(), Ok(()));
        cfg.detection_rate = 1.0;
        assert_eq!(cfg.validate(), Ok(()));
    }
}
