//! Seeded fault generators and the cluster configuration every fault
//! sweep runs under.
//!
//! The fault campaign, the design-space sweep, the planet and the
//! serving layer all stress a fleet the same way: a uniform job stream
//! sized against [`slots_per_worker`], a seeded [`fault_schedule`] (or
//! correlated domain outages and upgrade waves), and the armed
//! [`cell_cluster_config`]. Every generator takes its RNG from the
//! caller, so a sweep that seeds cell `i` with `mix64(seed, i)` is a
//! replayable artifact.

use crate::sim::{
    ClusterConfig, DegradePolicy, FaultInjection, FaultKind, HealthPolicy, JobSpec, Priority,
    RetryPolicy, WatchdogPolicy,
};
use vcu_chip::{TranscodeJob, VcuModel};
use vcu_rng::Rng;

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

/// Concurrent copies of `job` one healthy shipped VCU fits (the
/// binding scheduler dimension) — what every campaign sizes its
/// offered load against.
pub fn slots_per_worker(job: &TranscodeJob) -> u64 {
    VcuModel::new().job_demand(job).slots_per_vcu()
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

#[cfg(test)]
mod tests {
    use super::*;

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
