//! The multi-region ("planet") layer: phase-shifted diurnal demand,
//! epoch-stepped lockstep across regions, cross-region overflow
//! routing, rolling firmware-upgrade waves, and correlated failure
//! domains.
//!
//! Time advances in epochs. At each epoch boundary every region's
//! cells have reached the boundary, so the router reads backlog
//! pressure at a consistent cut, decides overflow routing for the
//! epoch's arrivals, injects them, and releases all cells to run the
//! epoch in parallel, as one batch across every region. All randomness
//! comes from per-region streams split out of the planet seed with
//! [`vcu_rng::mix64`], routing is a pure function of the pressure
//! readings, and cell advancement reassembles in index order — so a
//! planet run is byte-identical for every `VCU_THREADS` value.

use crate::region::{advance_regions, RegionReport, RegionSim, RegionSpec};
use vcu_chip::DesignPoint;
use vcu_cluster::{correlated_domain_faults, fleet_tco_usd, upgrade_wave_faults, FaultInjection};
use vcu_rng::{mix64, Rng};
use vcu_workloads::DiurnalCurve;

/// Hard cap on the fraction of an epoch's arrivals routed away.
const MAX_ROUTED_FRAC: f64 = 0.5;

/// Cross-region transfer latency added to a routed job's arrival,
/// seconds.
const ROUTE_RTT_S: f64 = 0.15;

/// Cross-region overflow routing policy.
#[derive(Debug, Clone, Copy)]
pub struct OverflowPolicy {
    /// Master switch; disabled = isolated regions.
    pub enabled: bool,
    /// Backlog-per-usable-worker pressure above which a region routes
    /// part of its new arrivals away.
    pub pressure_threshold: f64,
}

impl Default for OverflowPolicy {
    fn default() -> Self {
        OverflowPolicy {
            enabled: true,
            pressure_threshold: 4.0,
        }
    }
}

/// Planet-level configuration.
#[derive(Debug, Clone)]
pub struct PlanetConfig {
    /// Planet seed; region `r` derives everything from
    /// `mix64(seed, r)`.
    pub seed: u64,
    /// Demand window, seconds: arrivals stop here, cells then drain.
    pub horizon_s: f64,
    /// Lockstep epoch, seconds.
    pub epoch_s: f64,
    /// Diurnal period, seconds (a compressed day: one full swing per
    /// `period_s` of sim time).
    pub period_s: f64,
    /// Chunk duration of every job, seconds.
    pub chunk_s: f64,
    /// Demand multiplier applied to every region's mean rate (the
    /// traffic-growth axis of the campaign sweep).
    pub traffic_scale: f64,
    /// Physical shard count of each region's resolution merge; any
    /// value yields the same merged order.
    pub merge_shards: usize,
    /// Overflow routing policy.
    pub overflow: OverflowPolicy,
    /// Schedule rolling firmware-upgrade waves through every cell.
    pub upgrades: bool,
    /// Schedule one correlated rack/power-domain outage per region.
    pub domain_failures: bool,
    /// The regions.
    pub regions: Vec<RegionSpec>,
}

/// Outcome of one planet run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanetReport {
    /// Per-region reports, in region order.
    pub regions: Vec<RegionReport>,
    /// Fleet size across all regions.
    pub total_vcus: u64,
    /// Jobs offered across all regions.
    pub jobs: u64,
    /// Jobs completed.
    pub completed: u64,
    /// (completed − black-holed) / jobs across the planet.
    pub goodput_frac: f64,
    /// Jobs moved between regions by the overflow router.
    pub routed_jobs: u64,
    /// routed / jobs.
    pub routed_frac: f64,
    /// Job-weighted blast radius across regions.
    pub blast_radius: f64,
    /// Worst region p99 queueing wait, seconds.
    pub p99_wait_s: f64,
    /// Total delivered output, Mpix.
    pub total_output_mpix: f64,
    /// Sim time at which the last cell drained, seconds.
    pub drained_at_s: f64,
    /// Delivered Mpix/s over the drained horizon.
    pub perf_mpix_per_s: f64,
    /// 3-year fleet TCO, USD (20-VCU hosts, Table 1 row 4).
    pub tco_usd: f64,
    /// Delivered Mpix/s per TCO dollar.
    pub perf_per_tco: f64,
    /// Digest folding every region's merge digest in region order.
    pub merge_digest: u64,
}

/// Drain guard: a planet that has not resolved every job within this
/// many demand-horizons after the demand stops is wedged — fail loud
/// instead of looping forever.
const DRAIN_HORIZONS: f64 = 20.0;

/// The planet simulator. Build with [`PlanetSim::new`], then
/// [`PlanetSim::run`].
#[derive(Debug)]
pub struct PlanetSim {
    cfg: PlanetConfig,
    regions: Vec<RegionSim>,
    /// Per-region arrival RNG streams (persist across epochs, so the
    /// concatenated epoch windows draw one continuous stream).
    arrival_rngs: Vec<Rng>,
    curves: Vec<DiurnalCurve>,
}

impl PlanetSim {
    /// Builds every region: cell seeds, diurnal curves, and the
    /// pre-scheduled fault plans (upgrade waves staggered per region
    /// and cell; one seeded correlated-domain outage per region) all
    /// derive from `cfg.seed`.
    pub fn new(cfg: PlanetConfig) -> Self {
        assert!(!cfg.regions.is_empty(), "a planet needs regions");
        assert!(cfg.epoch_s > 0.0 && cfg.horizon_s > 0.0);
        let mut regions = Vec::with_capacity(cfg.regions.len());
        let mut arrival_rngs = Vec::new();
        let mut curves = Vec::new();
        for (r, spec) in cfg.regions.iter().enumerate() {
            let region_seed = mix64(cfg.seed, r as u64);
            let mut fault_rng = Rng::seed_from_u64(mix64(region_seed, 0xFA));
            let faults_per_cell = (0..spec.cells)
                .map(|c| Self::cell_faults(&cfg, spec, r, c, &mut fault_rng))
                .collect();
            regions.push(RegionSim::new(
                spec.clone(),
                region_seed,
                cfg.chunk_s,
                cfg.merge_shards,
                faults_per_cell,
            ));
            arrival_rngs.push(Rng::seed_from_u64(mix64(region_seed, 0xA1)));
            curves.push(DiurnalCurve {
                mean_rate_per_s: spec.mean_rate_per_s * cfg.traffic_scale,
                amplitude: spec.amplitude,
                peak_hour: spec.peak_hour,
                period_s: cfg.period_s,
            });
        }
        PlanetSim {
            cfg,
            regions,
            arrival_rngs,
            curves,
        }
    }

    /// Fault plan for one cell: a rolling upgrade wave (one eighth of
    /// the cell at a time, staggered so no two cells of a region — and
    /// no two regions — drain simultaneously) plus, in the region's
    /// seeded victim cell, one correlated rack-domain outage.
    fn cell_faults(
        cfg: &PlanetConfig,
        spec: &RegionSpec,
        region: usize,
        cell: usize,
        fault_rng: &mut Rng,
    ) -> Vec<FaultInjection> {
        let mut faults = Vec::new();
        if cfg.upgrades {
            let wave = (spec.vcus_per_cell / 8).max(1);
            let start = cfg.horizon_s * 0.1
                + (region * spec.cells + cell) as f64 * cfg.epoch_s / spec.cells as f64;
            faults.extend(upgrade_wave_faults(
                spec.vcus_per_cell,
                wave,
                start,
                cfg.epoch_s / 4.0,
                cfg.epoch_s / 8.0,
            ));
        }
        if cfg.domain_failures {
            // One victim cell per region; the rng draws below happen
            // for every cell so the stream stays aligned.
            let victim = fault_rng.gen_range(0u64..spec.cells as u64) as usize;
            let domain = (spec.vcus_per_cell / 16).max(1);
            let outage = fault_rng.gen_range((cfg.epoch_s * 0.5)..(cfg.epoch_s * 2.0));
            let plan = correlated_domain_faults(
                spec.vcus_per_cell,
                domain,
                1,
                outage,
                cfg.horizon_s,
                fault_rng,
            );
            if victim == cell {
                faults.extend(plan);
            }
        }
        faults.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
        faults
    }

    /// Runs demand epochs then drains, returning the planet report.
    pub fn run(mut self) -> PlanetReport {
        let epochs = (self.cfg.horizon_s / self.cfg.epoch_s).ceil() as usize;
        let mut routed_jobs: u64 = 0;
        for e in 0..epochs {
            let t0 = e as f64 * self.cfg.epoch_s;
            let t1 = ((e + 1) as f64 * self.cfg.epoch_s).min(self.cfg.horizon_s);
            // Pressure at the epoch cut (all cells are at t0).
            let pressures: Vec<f64> = self.regions.iter().map(RegionSim::pressure).collect();
            for (r, &p) in pressures.iter().enumerate() {
                self.regions[r].note_pressure(p);
            }
            // Per-region arrivals for this epoch, then routing.
            let arrivals: Vec<Vec<f64>> = (0..self.regions.len())
                .map(|r| self.curves[r].arrivals_in(t0, t1, &mut self.arrival_rngs[r]))
                .collect();
            for (r, mut local) in arrivals.into_iter().enumerate() {
                let overflow = self.route_fraction(r, &pressures);
                if overflow > 0.0 {
                    let target = Self::route_target(r, &pressures, &self.cfg.overflow);
                    if let Some(tgt) = target {
                        let n_route = (local.len() as f64 * overflow).floor() as usize;
                        // Hand away the tail (the latest arrivals —
                        // the ones an admission controller would see
                        // after the backlog formed), with the RTT.
                        let routed: Vec<f64> = local
                            .split_off(local.len() - n_route)
                            .into_iter()
                            .map(|t| t + ROUTE_RTT_S)
                            .collect();
                        routed_jobs += routed.len() as u64;
                        self.regions[r].note_routed_out(routed.len() as u64);
                        self.regions[tgt].inject_epoch(&routed, true);
                    }
                }
                self.regions[r].inject_epoch(&local, false);
            }
            advance_regions(&mut self.regions, t1);
        }
        // Drain: demand is over; step epochs until every cell resolves
        // its backlog (Repair events revive upgraded/faulted workers,
        // so queued work always finishes).
        let mut t = self.cfg.horizon_s;
        let deadline = self.cfg.horizon_s * (1.0 + DRAIN_HORIZONS);
        while self.regions.iter().any(RegionSim::busy) {
            assert!(
                t < deadline,
                "planet failed to drain by {deadline}s — jobs wedged"
            );
            t += self.cfg.epoch_s;
            advance_regions(&mut self.regions, t);
        }
        self.reduce(t, routed_jobs)
    }

    /// Fraction of region `r`'s epoch arrivals to route away, from the
    /// pressure cut: proportional to the excess over the threshold,
    /// capped at [`MAX_ROUTED_FRAC`].
    fn route_fraction(&self, r: usize, pressures: &[f64]) -> f64 {
        let pol = &self.cfg.overflow;
        if !pol.enabled || pressures[r] <= pol.pressure_threshold {
            return 0.0;
        }
        ((pressures[r] - pol.pressure_threshold) / pressures[r]).min(MAX_ROUTED_FRAC)
    }

    /// Overflow destination for region `r`: the lowest-pressure region
    /// still under the threshold (ties to the lowest index); none if
    /// the whole planet is hot.
    fn route_target(r: usize, pressures: &[f64], pol: &OverflowPolicy) -> Option<usize> {
        pressures
            .iter()
            .enumerate()
            .filter(|&(i, &p)| i != r && p < pol.pressure_threshold)
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
    }

    fn reduce(self, drained_at_s: f64, routed_jobs: u64) -> PlanetReport {
        let reports: Vec<RegionReport> = self.regions.into_iter().map(RegionSim::finish).collect();
        let jobs: u64 = reports.iter().map(|r| r.jobs).sum();
        let completed: u64 = reports.iter().map(|r| r.completed).sum();
        let black_holed: u64 = reports.iter().map(|r| r.black_holed).sum();
        let total_vcus: u64 = reports.iter().map(|r| r.vcus).sum();
        let total_output_mpix: f64 = reports.iter().map(|r| r.total_output_mpix).sum();
        let blast_radius = {
            let w: f64 = jobs.max(1) as f64;
            reports
                .iter()
                .map(|r| r.blast_radius * r.jobs as f64)
                .sum::<f64>()
                / w
        };
        let merge_digest = reports.iter().fold(0u64, |h, r| mix64(h, r.merge_digest));
        let tco_usd = fleet_tco_usd(&DesignPoint::shipped(), total_vcus as usize);
        let perf_mpix_per_s = total_output_mpix / drained_at_s.max(1.0);
        PlanetReport {
            total_vcus,
            jobs,
            completed,
            goodput_frac: completed.saturating_sub(black_holed) as f64 / jobs.max(1) as f64,
            routed_jobs,
            routed_frac: routed_jobs as f64 / jobs.max(1) as f64,
            blast_radius,
            p99_wait_s: reports.iter().map(|r| r.p99_wait_s).fold(0.0, f64::max),
            total_output_mpix,
            drained_at_s,
            perf_mpix_per_s,
            tco_usd,
            perf_per_tco: perf_mpix_per_s / tco_usd.max(1.0),
            merge_digest,
            regions: reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64, overflow: bool, merge_shards: usize) -> PlanetConfig {
        PlanetConfig {
            seed,
            horizon_s: 60.0,
            epoch_s: 15.0,
            period_s: 60.0,
            chunk_s: 10.0,
            traffic_scale: 1.0,
            merge_shards,
            overflow: OverflowPolicy {
                enabled: overflow,
                pressure_threshold: 1.0,
            },
            upgrades: true,
            domain_failures: true,
            regions: (0..2)
                .map(|r| RegionSpec {
                    name: format!("r{r}"),
                    cells: 2,
                    vcus_per_cell: 8,
                    peak_hour: if r == 0 { 6.0 } else { 18.0 },
                    // Peak ≈ 1.9× mean: well past a 16-VCU cell pair's
                    // service rate, so the peaking region must overflow.
                    mean_rate_per_s: 8.0,
                    amplitude: 0.9,
                })
                .collect(),
        }
    }

    #[test]
    fn planet_accounts_and_is_deterministic() {
        let a = PlanetSim::new(tiny(5, true, 4)).run();
        let b = PlanetSim::new(tiny(5, true, 4)).run();
        assert_eq!(a, b, "same seed, same planet");
        assert!(a.jobs > 0);
        assert_eq!(
            a.completed + a.regions.iter().map(|r| r.failed).sum::<u64>(),
            a.jobs,
            "every offered job resolves"
        );
        assert_eq!(
            a.regions.iter().map(|r| r.merged_resolutions).sum::<u64>(),
            a.jobs,
            "every resolution crosses the merge"
        );
        assert!(a.total_output_mpix > 0.0);
        assert!(a.tco_usd > 0.0);
        // The pre-scheduled upgrade waves + domain outage repair.
        assert!(a.regions.iter().all(|r| r.repairs > 0));
    }

    #[test]
    fn seed_steers_the_planet() {
        let a = PlanetSim::new(tiny(5, true, 4)).run();
        let b = PlanetSim::new(tiny(6, true, 4)).run();
        assert_ne!(
            a.merge_digest, b.merge_digest,
            "seed must move the timeline"
        );
    }

    #[test]
    fn merge_shard_count_never_changes_the_outcome() {
        // The tentpole invariant at planet scope: the physical shard
        // count of the cross-shard merge is unobservable.
        let one = PlanetSim::new(tiny(9, true, 1)).run();
        for shards in [2, 4, 7] {
            let k = PlanetSim::new(tiny(9, true, shards)).run();
            assert_eq!(one, k, "merge_shards={shards} changed the planet");
        }
    }

    #[test]
    fn overflow_routes_under_phase_shifted_peaks() {
        let routed = PlanetSim::new(tiny(11, true, 4)).run();
        let isolated = PlanetSim::new(tiny(11, false, 4)).run();
        assert!(routed.routed_jobs > 0, "anti-phased peaks must overflow");
        assert_eq!(isolated.routed_jobs, 0);
        assert_eq!(routed.jobs, isolated.jobs, "same demand either way");
        assert!(
            routed.goodput_frac >= isolated.goodput_frac,
            "routing must not lose goodput: {} vs {}",
            routed.goodput_frac,
            isolated.goodput_frac
        );
    }
}
