//! The region campaign: a sweep of [`PlanetSim`] runs over regions ×
//! fleet size × traffic growth (`vcu-bench` renders the cells as JSON).
//!
//! Every campaign cell runs its planet **twice** from the same seed —
//! overflow routing enabled, then disabled — so the artifact carries
//! the routing counterfactual the CI gate checks: overflow must never
//! reduce total goodput versus isolated regions. Each planet derives
//! everything from `mix64(campaign_seed, cell_idx)` and all
//! parallelism reassembles in index order, so
//! `results/region_campaign.json` is byte-identical for every
//! `VCU_THREADS` value.

use crate::planet::{OverflowPolicy, PlanetConfig, PlanetReport, PlanetSim};
use crate::region::{region_job, RegionSpec};
use vcu_cluster::slots_per_worker;
use vcu_rng::mix64;

/// One cell of the sweep: a planet shape plus a traffic multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionCellSpec {
    /// Regions on the planet.
    pub regions: usize,
    /// Cluster cells (event-queue shards) per region.
    pub cells_per_region: usize,
    /// VCUs per cell.
    pub vcus_per_cell: usize,
    /// Demand multiplier (1.0 = the baseline 75%-mean-utilization
    /// offered load).
    pub traffic_scale: f64,
}

impl RegionCellSpec {
    /// Total VCUs on the planet.
    pub fn total_vcus(&self) -> usize {
        self.regions * self.cells_per_region * self.vcus_per_cell
    }
}

/// Campaign configuration: a seed, the shared planet timing, and the
/// cell list.
#[derive(Debug, Clone)]
pub struct RegionCampaignConfig {
    /// Campaign seed; cell `i` runs with `mix64(seed, i)`.
    pub seed: u64,
    /// Demand window per planet, seconds (also the compressed diurnal
    /// period: one full day of swing per run).
    pub horizon_s: f64,
    /// Lockstep epoch, seconds.
    pub epoch_s: f64,
    /// Chunk duration, seconds.
    pub chunk_s: f64,
    /// Mean offered load as a fraction of fleet capacity.
    pub util: f64,
    /// Diurnal swing in `[0, 1]`.
    pub amplitude: f64,
    /// Cells, run in order.
    pub cells: Vec<RegionCellSpec>,
}

impl RegionCampaignConfig {
    /// The full sweep behind `results/region_campaign.json`: regions ×
    /// fleet size × traffic growth, topping out at a 102,400-VCU
    /// four-region planet (the ≥100k end-to-end cell). Long chunks
    /// keep the job count tractable at that scale.
    pub fn full(seed: u64) -> Self {
        RegionCampaignConfig {
            seed,
            horizon_s: 600.0,
            epoch_s: 60.0,
            chunk_s: 240.0,
            util: 0.75,
            amplitude: 0.85,
            cells: vec![
                RegionCellSpec {
                    regions: 1,
                    cells_per_region: 4,
                    vcus_per_cell: 400,
                    traffic_scale: 1.0,
                },
                RegionCellSpec {
                    regions: 2,
                    cells_per_region: 8,
                    vcus_per_cell: 400,
                    traffic_scale: 1.0,
                },
                RegionCellSpec {
                    regions: 4,
                    cells_per_region: 8,
                    vcus_per_cell: 800,
                    traffic_scale: 1.0,
                },
                RegionCellSpec {
                    regions: 4,
                    cells_per_region: 8,
                    vcus_per_cell: 800,
                    traffic_scale: 1.3,
                },
                RegionCellSpec {
                    regions: 4,
                    cells_per_region: 16,
                    vcus_per_cell: 1_600,
                    traffic_scale: 1.0,
                },
            ],
        }
    }

    /// A seconds-scale sweep with the same shape (multi-region, one
    /// traffic-growth cell) for CI smoke and tests.
    pub fn smoke(seed: u64) -> Self {
        RegionCampaignConfig {
            seed,
            horizon_s: 120.0,
            epoch_s: 30.0,
            chunk_s: 20.0,
            util: 0.75,
            amplitude: 0.85,
            cells: vec![
                RegionCellSpec {
                    regions: 2,
                    cells_per_region: 2,
                    vcus_per_cell: 16,
                    traffic_scale: 1.0,
                },
                RegionCellSpec {
                    regions: 2,
                    cells_per_region: 2,
                    vcus_per_cell: 16,
                    traffic_scale: 1.3,
                },
            ],
        }
    }

    /// Planet configuration for one campaign cell. Region peaks are
    /// spread evenly around the (compressed) clock, so the planet's
    /// total demand is flatter than any one region's — the premise of
    /// overflow routing.
    pub fn planet_config(
        &self,
        spec: &RegionCellSpec,
        cell: u64,
        overflow_enabled: bool,
    ) -> PlanetConfig {
        let region_vcus = spec.cells_per_region * spec.vcus_per_cell;
        let mean_rate_per_s =
            self.util * region_vcus as f64 * slots_per_worker(&region_job(self.chunk_s)) as f64
                / self.chunk_s;
        PlanetConfig {
            seed: mix64(self.seed, cell),
            horizon_s: self.horizon_s,
            epoch_s: self.epoch_s,
            period_s: self.horizon_s,
            chunk_s: self.chunk_s,
            traffic_scale: spec.traffic_scale,
            merge_shards: 4,
            // At fleet scale a diurnal peak plateaus well under one
            // backlog job per worker (queueing wait ~ a fraction of a
            // chunk), so the campaign arms the router at 0.2 rather
            // than the conservative library default: anti-phased peaks
            // trip it, the off-peak trough stays below it.
            overflow: OverflowPolicy {
                enabled: overflow_enabled,
                pressure_threshold: 0.2,
            },
            upgrades: true,
            domain_failures: true,
            regions: (0..spec.regions)
                .map(|r| RegionSpec {
                    name: format!("region{r}"),
                    cells: spec.cells_per_region,
                    vcus_per_cell: spec.vcus_per_cell,
                    peak_hour: (20.0 + 24.0 * r as f64 / spec.regions as f64) % 24.0,
                    mean_rate_per_s,
                    amplitude: self.amplitude,
                })
                .collect(),
        }
    }
}

/// One campaign cell: the sweep point, the overflow-enabled planet and
/// the isolated counterfactual from the same seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionCampaignCell {
    /// The cell's sweep point.
    pub spec: RegionCellSpec,
    /// The planet with overflow routing.
    pub overflow: PlanetReport,
    /// The same planet with isolated regions.
    pub isolated: PlanetReport,
}

/// Runs one campaign cell: the same planet seed with overflow routing
/// on, then off.
fn run_region_cell(
    cfg: &RegionCampaignConfig,
    spec: &RegionCellSpec,
    cell: u64,
) -> RegionCampaignCell {
    let overflow = PlanetSim::new(cfg.planet_config(spec, cell, true)).run();
    let isolated = PlanetSim::new(cfg.planet_config(spec, cell, false)).run();
    assert_eq!(
        overflow.jobs, isolated.jobs,
        "both runs draw the same arrival streams"
    );
    RegionCampaignCell {
        spec: *spec,
        overflow,
        isolated,
    }
}

/// Runs the sweep. Cells run in order — each planet already saturates
/// the pool with its own cell shards, so the outer loop stays
/// sequential (and memory stays bounded at one planet at a time).
pub fn run_region_campaign(cfg: &RegionCampaignConfig) -> Vec<RegionCampaignCell> {
    cfg.cells
        .iter()
        .enumerate()
        .map(|(i, spec)| run_region_cell(cfg, spec, i as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RegionCampaignConfig {
        RegionCampaignConfig {
            seed: 13,
            horizon_s: 60.0,
            epoch_s: 15.0,
            chunk_s: 10.0,
            util: 0.8,
            amplitude: 0.9,
            cells: vec![
                RegionCellSpec {
                    regions: 2,
                    cells_per_region: 2,
                    vcus_per_cell: 8,
                    traffic_scale: 1.0,
                },
                RegionCellSpec {
                    regions: 2,
                    cells_per_region: 2,
                    vcus_per_cell: 8,
                    traffic_scale: 1.3,
                },
            ],
        }
    }

    #[test]
    fn seed_steers_the_campaign() {
        let a = run_region_campaign(&tiny());
        let b = run_region_campaign(&RegionCampaignConfig { seed: 14, ..tiny() });
        assert_ne!(a, b, "a different seed must move some metric");
    }

    #[test]
    fn overflow_never_reduces_goodput() {
        for c in run_region_campaign(&tiny()) {
            assert!(
                c.overflow.goodput_frac >= c.isolated.goodput_frac,
                "cell {:?}: overflow {} < isolated {}",
                c.spec,
                c.overflow.goodput_frac,
                c.isolated.goodput_frac
            );
            assert!(c.overflow.jobs > 0);
            assert!(c.overflow.perf_per_tco > 0.0);
        }
    }

    #[test]
    fn traffic_growth_raises_offered_load() {
        let cells = run_region_campaign(&tiny());
        let (base, grown) = (cells[0].overflow.jobs, cells[1].overflow.jobs);
        assert!(
            grown > base,
            "1.3x traffic must offer more jobs: {grown} vs {base}"
        );
    }
}
