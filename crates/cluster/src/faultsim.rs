//! `vcu-faultsim`: the deterministic fault-campaign harness.
//!
//! A *campaign* sweeps fault rate × mean-time-to-repair over a fleet
//! and measures how the §4.4 failure-management machinery holds up:
//! goodput (completed minus corrupt-escaped work), black-holed chunks,
//! blast radius, tail waits, and time spent on each rung of the
//! graceful-degradation ladder. Every cell derives its RNG stream,
//! fault schedule, and cluster seed from the campaign seed through
//! [`vcu_rng::mix64`], so a campaign is a replayable artifact: the
//! same seed produces identical cells, which `vcu-bench` renders into
//! the byte-pinned `results/fault_campaign.json`.

use crate::sim::{
    ClusterConfig, ClusterReport, ClusterSim, DegradePolicy, FaultInjection, FaultKind,
    HealthPolicy, JobSpec, Priority, RetryPolicy, WatchdogPolicy,
};
use vcu_chip::{TranscodeJob, VcuModel};
use vcu_codec::Profile;
use vcu_media::Resolution;
use vcu_rng::{mix64, Rng};

/// Campaign sweep configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Fleet size (workers).
    pub vcus: usize,
    /// Jobs submitted per VCU over the run.
    pub jobs_per_vcu: usize,
    /// Campaign seed; every cell mixes its own stream out of this.
    pub seed: u64,
    /// Fraction of the fleet hit by a fault, one cell per value.
    pub fault_rates: Vec<f64>,
    /// Mean time to repair (seconds) sweep; `f64::INFINITY` means
    /// faults are never repaired within the run.
    pub mttr_s: Vec<f64>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            vcus: 1000,
            jobs_per_vcu: 240,
            seed: 42,
            fault_rates: vec![0.0, 0.02, 0.05, 0.10],
            mttr_s: vec![60.0, f64::INFINITY],
        }
    }
}

/// One (fault-rate, MTTR) campaign cell: the sweep point and the
/// simulator's report.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Fraction of the fleet faulted.
    pub fault_rate: f64,
    /// Mean time to repair, seconds (infinite = never).
    pub mttr_s: f64,
    /// Jobs submitted.
    pub jobs: u64,
    /// The cell's cluster report.
    pub report: ClusterReport,
}

/// The fault kinds a campaign cycles through, in severity-mixed order
/// so every rate bucket gets a representative mix.
const CAMPAIGN_FAULTS: [FaultKind; 6] = [
    FaultKind::SilentCorruption,
    FaultKind::FirmwareHang,
    FaultKind::SlowCore { factor_pct: 1600 },
    FaultKind::EccStorm {
        correctable_per_tick: 100,
    },
    FaultKind::CrashLoop,
    FaultKind::Dead,
];

/// Fleet utilization the offered load targets: high enough that
/// faulting 10% of the fleet pushes it just past saturation (the
/// regime where the degradation ladder and shedding earn their keep),
/// low enough that a healthy fleet keeps up with slack.
const TARGET_UTIL: f64 = 0.97;

/// The uniform campaign chunk: 1080p30, 5 s, VP9 MOT — heavy enough
/// that one worker holds only a few concurrently and losing workers
/// moves the needle.
pub fn campaign_job() -> TranscodeJob {
    TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0)
}

/// Concurrent copies of `job` one healthy shipped VCU fits (the
/// binding scheduler dimension) — what every campaign sizes its
/// offered load against.
pub fn slots_per_worker(job: &TranscodeJob) -> u64 {
    VcuModel::new().job_demand(job).slots_per_vcu()
}

/// Time span over which the cell's jobs arrive, seconds: the offered
/// load holds the healthy fleet at [`TARGET_UTIL`] of its true
/// multi-slot capacity.
pub fn arrival_span_s(jobs_per_vcu: usize) -> f64 {
    let job = campaign_job();
    jobs_per_vcu as f64 * job.duration_s / (slots_per_worker(&job) as f64 * TARGET_UTIL)
}

/// Deterministic job list of a campaign: `total` jobs cycling through
/// `mix`, evenly spaced over `span_s`, four chunks per video, with the
/// §3.3.3 priority mix (1 Critical : 2 Normal : 1 Batch).
pub fn uniform_stream(mix: &[TranscodeJob], total: usize, span_s: f64) -> Vec<JobSpec> {
    (0..total)
        .map(|i| JobSpec {
            arrival_s: i as f64 * span_s / total as f64,
            job: mix[i % mix.len()].clone(),
            priority: match i % 4 {
                0 => Priority::Critical,
                3 => Priority::Batch,
                _ => Priority::Normal,
            },
            video_id: (i / 4) as u64,
        })
        .collect()
}

/// The campaign's representative fault mix over an explicit time span:
/// `fault_rate` of the fleet (seeded shuffle) faults at a seeded time
/// in the first half of `span_s`, cycling through the six
/// [`FaultKind`]s, with a repair `mttr_s` later when finite. Public so
/// other harnesses (the DSE driver) can stress candidates under the
/// exact fault mix the PR-5 campaign calibrated.
pub fn fault_schedule(
    vcus: usize,
    span_s: f64,
    fault_rate: f64,
    mttr_s: f64,
    rng: &mut Rng,
) -> Vec<FaultInjection> {
    let n_faulted = ((vcus as f64 * fault_rate).round() as usize).min(vcus);
    let mut workers: Vec<usize> = (0..vcus).collect();
    rng.shuffle(&mut workers);
    let mut faults = Vec::with_capacity(n_faulted * 2);
    for (k, &w) in workers.iter().take(n_faulted).enumerate() {
        let time_s = rng.gen_range(10.0..(span_s * 0.5).max(11.0));
        faults.push(FaultInjection {
            time_s,
            worker: w,
            kind: CAMPAIGN_FAULTS[k % CAMPAIGN_FAULTS.len()],
        });
        if mttr_s.is_finite() {
            faults.push(FaultInjection {
                time_s: time_s + mttr_s,
                worker: w,
                kind: FaultKind::Repair,
            });
        }
    }
    faults
}

/// Correlated failure domains: workers are laid out in contiguous
/// domains of `domain_workers` (a rack sharing a ToR switch, a power
/// bus, or — with `domain_workers == vcus` — a whole cell). A seeded
/// shuffle picks `domains_hit` distinct domains; every worker in a hit
/// domain goes [`FaultKind::Dead`] at the same instant (drawn in the
/// first 60% of `span_s`) and is repaired `outage_s` later. Because
/// the whole domain shares one timestamp, retries of its in-flight
/// chunks scatter across surviving domains — exactly the §4.4
/// blast-radius pressure the mean-VCUs-per-video metric measures.
pub fn correlated_domain_faults(
    vcus: usize,
    domain_workers: usize,
    domains_hit: usize,
    outage_s: f64,
    span_s: f64,
    rng: &mut Rng,
) -> Vec<FaultInjection> {
    let domain_workers = domain_workers.clamp(1, vcus.max(1));
    let n_domains = vcus.div_ceil(domain_workers);
    let mut domains: Vec<usize> = (0..n_domains).collect();
    rng.shuffle(&mut domains);
    let mut faults = Vec::new();
    for &d in domains.iter().take(domains_hit.min(n_domains)) {
        let time_s = rng.gen_range(10.0..(span_s * 0.6).max(11.0));
        for w in (d * domain_workers)..((d + 1) * domain_workers).min(vcus) {
            faults.push(FaultInjection {
                time_s,
                worker: w,
                kind: FaultKind::Dead,
            });
            faults.push(FaultInjection {
                time_s: time_s + outage_s,
                worker: w,
                kind: FaultKind::Repair,
            });
        }
    }
    faults
}

/// Rolling firmware-upgrade wave: the fleet is swept in worker order,
/// `wave_workers` at a time. Wave `k` drains at
/// `start_s + k * wave_gap_s` (modeled as [`FaultKind::Dead`] — the
/// worker stops taking and finishing work while its firmware reloads)
/// and returns `outage_s` later via [`FaultKind::Repair`]. Fully
/// deterministic (no RNG): an upgrade is a plan, not an accident.
/// Keeping `wave_workers` well under the fleet size bounds the
/// capacity dip to one wave at a time when `outage_s <= wave_gap_s`.
pub fn upgrade_wave_faults(
    vcus: usize,
    wave_workers: usize,
    start_s: f64,
    wave_gap_s: f64,
    outage_s: f64,
) -> Vec<FaultInjection> {
    let wave_workers = wave_workers.clamp(1, vcus.max(1));
    let mut faults = Vec::with_capacity(vcus * 2);
    for w in 0..vcus {
        let wave = (w / wave_workers) as f64;
        let time_s = start_s + wave * wave_gap_s;
        faults.push(FaultInjection {
            time_s,
            worker: w,
            kind: FaultKind::Dead,
        });
        faults.push(FaultInjection {
            time_s: time_s + outage_s,
            worker: w,
            kind: FaultKind::Repair,
        });
    }
    faults
}

/// The cluster configuration every campaign cell runs: backoff retry,
/// watchdogs, periodic screening, bounded recoveries, and the
/// degradation ladder all armed. Public so the multi-region layer
/// (`vcu-regions`) runs its cells under the exact same policies.
pub fn cell_cluster_config(vcus: usize, seed: u64) -> ClusterConfig {
    ClusterConfig {
        vcus,
        detection_rate: 0.9,
        retry: RetryPolicy {
            base_s: 5.0,
            max_attempts: 5,
            jitter_frac: 0.1,
        },
        watchdog: WatchdogPolicy {
            grace_s: 10.0,
            service_factor: 4.0,
        },
        health: HealthPolicy {
            max_recoveries: 1,
            golden_period_s: 60.0,
        },
        degrade: DegradePolicy {
            enabled: true,
            ..DegradePolicy::default()
        },
        sample_period_s: 15.0,
        seed,
        ..ClusterConfig::default()
    }
}

/// Runs one campaign cell.
fn run_cell(cfg: &CampaignConfig, fault_rate: f64, mttr_s: f64, cell: u64) -> CampaignCell {
    let cell_seed = mix64(cfg.seed, cell);
    let mut rng = Rng::seed_from_u64(cell_seed);
    let span_s = arrival_span_s(cfg.jobs_per_vcu);
    let jobs = uniform_stream(&[campaign_job()], cfg.vcus * cfg.jobs_per_vcu, span_s);
    let n_jobs = jobs.len() as u64;
    let faults = fault_schedule(cfg.vcus, span_s, fault_rate, mttr_s, &mut rng);
    CampaignCell {
        fault_rate,
        mttr_s,
        jobs: n_jobs,
        report: ClusterSim::new(cell_cluster_config(cfg.vcus, cell_seed), jobs, faults).run(),
    }
}

/// Runs the full sweep: one cell per (MTTR, fault-rate) pair.
///
/// Cells fan out across the process-wide `vcu-exec` pool at
/// [`vcu_exec::env_threads`] parallelism. Each cell derives its RNG
/// from `mix64(cfg.seed, cell_idx)` alone and the pool returns results
/// in cell-index order, so the sweep is byte-identical to the
/// sequential order for every `VCU_THREADS` value.
pub fn run_campaign(cfg: &CampaignConfig) -> Vec<CampaignCell> {
    let grid: Vec<(f64, f64)> = cfg
        .mttr_s
        .iter()
        .flat_map(|&mttr| cfg.fault_rates.iter().map(move |&rate| (mttr, rate)))
        .collect();
    vcu_exec::pool().run_batch(
        vcu_exec::env_threads(),
        grid.iter()
            .enumerate()
            .map(|(cell_idx, &(mttr, rate))| move || run_cell(cfg, rate, mttr, cell_idx as u64))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CampaignConfig {
        CampaignConfig {
            vcus: 8,
            jobs_per_vcu: 4,
            seed: 7,
            fault_rates: vec![0.0, 0.25],
            mttr_s: vec![60.0],
        }
    }

    #[test]
    fn different_seeds_produce_different_fault_schedules() {
        // Aggregate cell metrics can coincide at toy scale, so the
        // seed sensitivity is asserted where it is deterministic: the
        // generated schedule (which workers fault, when).
        let cfg = tiny();
        let schedule = |seed: u64| {
            let mut rng = Rng::seed_from_u64(mix64(seed, 1));
            fault_schedule(
                cfg.vcus,
                arrival_span_s(cfg.jobs_per_vcu),
                0.25,
                60.0,
                &mut rng,
            )
        };
        let a = schedule(cfg.seed);
        assert_eq!(a, schedule(cfg.seed), "same seed, same schedule");
        assert_ne!(a, schedule(cfg.seed + 1), "seed must steer the schedule");
    }

    #[test]
    fn zero_fault_rate_is_clean() {
        let cfg = CampaignConfig {
            fault_rates: vec![0.0],
            ..tiny()
        };
        let cells = run_campaign(&cfg);
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        assert_eq!(
            c.report.goodput_frac(c.jobs),
            1.0,
            "healthy fleet completes everything"
        );
        assert_eq!(c.report.escaped_corruptions, 0);
        assert_eq!(c.report.watchdog_fired, 0);
        assert_eq!(c.report.quarantined_workers, 0);
    }

    #[test]
    fn every_cell_resolves_all_jobs() {
        let cfg = CampaignConfig {
            vcus: 8,
            jobs_per_vcu: 4,
            seed: 3,
            fault_rates: vec![0.0, 0.5],
            mttr_s: vec![30.0, f64::INFINITY],
        };
        for c in run_campaign(&cfg) {
            assert_eq!(c.jobs, 32);
            // goodput + failures account for everything; nothing hangs
            // the DES loop (termination is the property test's job —
            // this is the smoke version).
            let goodput = c.report.goodput_frac(c.jobs);
            assert!((0.0..=1.0).contains(&goodput));
        }
    }

    #[test]
    fn correlated_domains_fault_together_and_repair() {
        let mut rng = Rng::seed_from_u64(5);
        let faults = correlated_domain_faults(32, 8, 2, 45.0, 300.0, &mut rng);
        // 2 domains × 8 workers × (Dead + Repair).
        assert_eq!(faults.len(), 32);
        let deaths: Vec<_> = faults
            .iter()
            .filter(|f| f.kind == FaultKind::Dead)
            .collect();
        assert_eq!(deaths.len(), 16);
        // Workers in the same domain share one outage instant.
        for f in &deaths {
            let domain_start = (f.worker / 8) * 8;
            let peer = deaths.iter().find(|g| g.worker == domain_start).unwrap();
            assert_eq!(f.time_s, peer.time_s, "domain must fail as a unit");
        }
        // Every death has a repair exactly outage_s later.
        for d in &deaths {
            assert!(faults.iter().any(|r| r.kind == FaultKind::Repair
                && r.worker == d.worker
                && r.time_s == d.time_s + 45.0));
        }
        // Seeded: same seed reproduces, different seed moves the plan.
        let mut a = Rng::seed_from_u64(5);
        let mut b = Rng::seed_from_u64(6);
        assert_eq!(
            faults,
            correlated_domain_faults(32, 8, 2, 45.0, 300.0, &mut a)
        );
        assert_ne!(
            faults,
            correlated_domain_faults(32, 8, 2, 45.0, 300.0, &mut b)
        );
    }

    #[test]
    fn upgrade_waves_roll_through_the_whole_fleet() {
        let faults = upgrade_wave_faults(10, 4, 100.0, 60.0, 30.0);
        assert_eq!(faults.len(), 20, "every worker gets Dead + Repair");
        // Wave k = workers [4k, 4k+4) drains at 100 + 60k.
        for f in &faults {
            let expect = 100.0 + (f.worker / 4) as f64 * 60.0;
            match f.kind {
                FaultKind::Dead => assert_eq!(f.time_s, expect),
                FaultKind::Repair => assert_eq!(f.time_s, expect + 30.0),
                other => panic!("unexpected fault kind {other:?}"),
            }
        }
        // A wave returns before the next drains (outage < gap), so the
        // capacity dip is bounded to one wave.
        let touched: std::collections::BTreeSet<usize> = faults.iter().map(|f| f.worker).collect();
        assert_eq!(touched.len(), 10);
    }
}
