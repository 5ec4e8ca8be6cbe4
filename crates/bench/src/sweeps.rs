//! The three simulator sweeps [`campaign`](crate::campaign) drives
//! besides the design-space sweep: fault rate × MTTR over a faulted
//! fleet, cache size × fleet scale for live viewers, and regions ×
//! fleet × traffic with the isolated-regions counterfactual. Each is a
//! config with its `full`/`smoke` tables, a cell type (the sweep point
//! plus the simulator's report) and a one-cell run; [`cells`] is the
//! one fan-out they share.
//!
//! Every cell derives everything from `mix64(seed, cell_idx)` and the
//! pool returns results in cell-index order, so a sweep is
//! byte-identical for every `VCU_THREADS` value.

use vcu_chip::TranscodeJob;
use vcu_cluster::{
    cell_cluster_config, fault_schedule, slots_per_worker, uniform_stream, ClusterReport,
    ClusterSim,
};
use vcu_codec::Profile;
use vcu_media::Resolution;
use vcu_regions::{region_job, OverflowPolicy, PlanetConfig, PlanetReport, PlanetSim, RegionSpec};
use vcu_rng::{mix64, Rng};
use vcu_serve::{ServeConfig, ServeReport, ServeSim};

/// Runs `run(point, mix64(seed, i))` for every point `i` on the
/// process-wide `vcu-exec` pool at `parallelism`, returning the cells
/// in point order.
pub fn cells<P: Sync, C: Send>(
    seed: u64,
    points: &[P],
    parallelism: usize,
    run: impl Fn(&P, u64) -> C + Sync,
) -> Vec<C> {
    let run = &run;
    vcu_exec::pool().run_batch(
        parallelism,
        points
            .iter()
            .enumerate()
            .map(|(i, point)| move || run(point, mix64(seed, i as u64)))
            .collect(),
    )
}

// ---- fault campaign ------------------------------------------------

/// Fault-campaign sweep configuration.
#[derive(Debug, Clone)]
pub struct FaultCampaignConfig {
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

impl FaultCampaignConfig {
    /// The full sweep behind `results/fault_campaign.json`.
    pub(crate) fn full(seed: u64) -> Self {
        FaultCampaignConfig {
            vcus: 1000,
            jobs_per_vcu: 240,
            seed,
            fault_rates: vec![0.0, 0.02, 0.05, 0.10],
            mttr_s: vec![60.0, f64::INFINITY],
        }
    }

    /// A seconds-scale sweep for CI smoke.
    pub(crate) fn smoke(seed: u64) -> Self {
        FaultCampaignConfig {
            vcus: 64,
            jobs_per_vcu: 60,
            seed,
            fault_rates: vec![0.0, 0.05, 0.10],
            mttr_s: vec![20.0, f64::INFINITY],
        }
    }

    /// The sweep points, `(mttr_s, fault_rate)`, MTTR-major.
    pub(crate) fn grid(&self) -> Vec<(f64, f64)> {
        self.mttr_s
            .iter()
            .flat_map(|&mttr| self.fault_rates.iter().map(move |&rate| (mttr, rate)))
            .collect()
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

/// Fleet utilization the offered load targets: high enough that
/// faulting 10% of the fleet pushes it just past saturation (the
/// regime where the degradation ladder and shedding earn their keep),
/// low enough that a healthy fleet keeps up with slack.
const TARGET_UTIL: f64 = 0.97;

/// The uniform campaign chunk: 1080p30, 5 s, VP9 MOT — heavy enough
/// that one worker holds only a few concurrently and losing workers
/// moves the needle.
fn campaign_job() -> TranscodeJob {
    TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0)
}

/// Time span over which the cell's jobs arrive, seconds: the offered
/// load holds the healthy fleet at [`TARGET_UTIL`] of its true
/// multi-slot capacity.
pub(crate) fn arrival_span_s(jobs_per_vcu: usize) -> f64 {
    let job = campaign_job();
    jobs_per_vcu as f64 * job.duration_s / (slots_per_worker(&job) as f64 * TARGET_UTIL)
}

/// Runs one fault-campaign cell from its cell seed.
pub(crate) fn run_fault_cell(
    cfg: &FaultCampaignConfig,
    (mttr_s, fault_rate): (f64, f64),
    seed: u64,
) -> CampaignCell {
    let mut rng = Rng::seed_from_u64(seed);
    let span_s = arrival_span_s(cfg.jobs_per_vcu);
    let jobs = uniform_stream(&[campaign_job()], cfg.vcus * cfg.jobs_per_vcu, span_s);
    let n_jobs = jobs.len() as u64;
    let faults = fault_schedule(cfg.vcus, span_s, fault_rate, mttr_s, &mut rng);
    CampaignCell {
        fault_rate,
        mttr_s,
        jobs: n_jobs,
        report: ClusterSim::new(cell_cluster_config(cfg.vcus, seed), jobs, faults).run(),
    }
}

// ---- serve campaign ------------------------------------------------

/// One cell of the serve sweep: a viewer population against a fleet +
/// cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeCellSpec {
    /// Target steady-state concurrent viewers.
    pub viewers: usize,
    /// Transcode fleet size.
    pub vcus: usize,
    /// Segment-cache capacity, segments.
    pub cache_segments: usize,
    /// Catalog size, videos.
    pub catalog_videos: usize,
    /// Arrival window, seconds.
    pub horizon_s: f64,
}

/// Serve-campaign configuration: a seed and the cell list.
#[derive(Debug, Clone)]
pub struct ServeCampaignConfig {
    /// Campaign seed; cell `i` runs with `mix64(seed, i)`.
    pub seed: u64,
    /// Cells, run in order.
    pub cells: Vec<ServeCellSpec>,
}

impl ServeCampaignConfig {
    /// The full sweep behind `results/serve_campaign.json`: a cache
    /// sweep at fixed scale (TTFF p99 and the egress-vs-transcode cost
    /// split as the hit ratio climbs), then a scale sweep up to 1.2M
    /// target concurrent viewers (≥ 1M observed peak).
    pub(crate) fn full(seed: u64) -> Self {
        let cache_sweep = [8_192usize, 32_768, 131_072]
            .into_iter()
            .map(|cache| ServeCellSpec {
                viewers: 100_000,
                vcus: 1_024,
                cache_segments: cache,
                catalog_videos: 20_000,
                horizon_s: 60.0,
            });
        let scale_sweep = [
            (250_000usize, 2_048usize, 98_304usize, 30_000usize),
            (500_000, 4_096, 196_608, 40_000),
            (1_200_000, 8_192, 393_216, 60_000),
        ]
        .into_iter()
        .map(|(viewers, vcus, cache, catalog)| ServeCellSpec {
            viewers,
            vcus,
            cache_segments: cache,
            catalog_videos: catalog,
            horizon_s: 60.0,
        });
        ServeCampaignConfig {
            seed,
            cells: cache_sweep.chain(scale_sweep).collect(),
        }
    }

    /// A seconds-scale sweep with the same shape (cache sweep + one
    /// larger cell) for CI smoke and tests.
    pub fn smoke(seed: u64) -> Self {
        ServeCampaignConfig {
            seed,
            cells: vec![
                ServeCellSpec {
                    viewers: 1_500,
                    vcus: 32,
                    cache_segments: 256,
                    catalog_videos: 600,
                    horizon_s: 30.0,
                },
                ServeCellSpec {
                    viewers: 1_500,
                    vcus: 32,
                    cache_segments: 1_024,
                    catalog_videos: 600,
                    horizon_s: 30.0,
                },
                ServeCellSpec {
                    viewers: 3_000,
                    vcus: 64,
                    cache_segments: 2_048,
                    catalog_videos: 1_000,
                    horizon_s: 30.0,
                },
            ],
        }
    }
}

/// One serve cell: the sweep point and the simulator's report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCampaignCell {
    /// The cell's sweep point.
    pub spec: ServeCellSpec,
    /// The cell's serving report.
    pub report: ServeReport,
}

/// Runs one serve cell from its cell seed.
pub fn run_serve_cell(spec: &ServeCellSpec, seed: u64) -> ServeCampaignCell {
    let report = ServeSim::new(ServeConfig {
        viewers: spec.viewers,
        horizon_s: spec.horizon_s,
        catalog_videos: spec.catalog_videos,
        cache_segments: spec.cache_segments,
        vcus: spec.vcus,
        seed,
        ..ServeConfig::default()
    })
    .run();
    ServeCampaignCell {
        spec: *spec,
        report,
    }
}

// ---- region campaign -----------------------------------------------

/// One cell of the region sweep: a planet shape plus a traffic
/// multiplier.
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
    pub(crate) fn total_vcus(&self) -> usize {
        self.regions * self.cells_per_region * self.vcus_per_cell
    }
}

/// Region-campaign configuration: a seed, the shared planet timing,
/// and the cell list.
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
    pub(crate) fn full(seed: u64) -> Self {
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
    pub(crate) fn smoke(seed: u64) -> Self {
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
    pub(crate) fn planet_config(
        &self,
        spec: &RegionCellSpec,
        seed: u64,
        overflow_enabled: bool,
    ) -> PlanetConfig {
        let region_vcus = spec.cells_per_region * spec.vcus_per_cell;
        let mean_rate_per_s =
            self.util * region_vcus as f64 * slots_per_worker(&region_job(self.chunk_s)) as f64
                / self.chunk_s;
        PlanetConfig {
            seed,
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

/// One region-campaign cell: the sweep point, the overflow-enabled
/// planet and the isolated counterfactual from the same seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionCampaignCell {
    /// The cell's sweep point.
    pub spec: RegionCellSpec,
    /// The planet with overflow routing.
    pub overflow: PlanetReport,
    /// The same planet with isolated regions.
    pub isolated: PlanetReport,
}

/// Runs one region cell from its cell seed: the same planet with
/// overflow routing on, then off (the counterfactual the overflow
/// gate compares against).
pub(crate) fn run_region_cell(
    cfg: &RegionCampaignConfig,
    spec: &RegionCellSpec,
    seed: u64,
) -> RegionCampaignCell {
    let overflow = PlanetSim::new(cfg.planet_config(spec, seed, true)).run();
    let isolated = PlanetSim::new(cfg.planet_config(spec, seed, false)).run();
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
