//! The serving campaign: a sweep of [`ServeSim`] cells over cache
//! size and fleet scale (`vcu-bench` renders the cells as JSON).
//!
//! Mirrors the fault-campaign harness in `vcu_cluster::faultsim`: each
//! cell derives everything from `mix64(campaign_seed, cell_idx)` and
//! runs independently, so the sweep fans out across the process-wide
//! `vcu-exec` pool and returns in cell-index order — byte-identical
//! output for every `VCU_THREADS` value. `results/serve_campaign.json`
//! pins the full sweep in CI; the smoke variant runs in seconds.
//!
//! The full sweep answers the headline questions:
//!
//! - **cache sweep** (fixed viewers/fleet, growing cache): TTFF p99
//!   and the egress-vs-transcode cost split as the hit ratio climbs;
//! - **scale sweep** (growing everything): does the co-designed stack
//!   hold TTFF and rebuffer rate at ≥ 1M concurrent viewers?

use crate::sim::{ServeConfig, ServeReport, ServeSim};
use vcu_rng::mix64;

/// One cell of the sweep: a viewer population against a fleet + cache.
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

/// Campaign configuration: a seed and the cell list.
#[derive(Debug, Clone)]
pub struct ServeCampaignConfig {
    /// Campaign seed; cell `i` runs with `mix64(seed, i)`.
    pub seed: u64,
    /// Cells, run in order.
    pub cells: Vec<ServeCellSpec>,
}

impl ServeCampaignConfig {
    /// The full sweep behind `results/serve_campaign.json`: a cache
    /// sweep at fixed scale, then a scale sweep up to 1.2M target
    /// concurrent viewers (≥ 1M observed peak).
    pub fn full(seed: u64) -> Self {
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

/// Runs one cell; everything derives from `mix64(cfg.seed, cell)`.
pub fn run_serve_cell(
    cfg: &ServeCampaignConfig,
    spec: &ServeCellSpec,
    cell: u64,
) -> ServeCampaignCell {
    let report = ServeSim::new(ServeConfig {
        viewers: spec.viewers,
        horizon_s: spec.horizon_s,
        catalog_videos: spec.catalog_videos,
        cache_segments: spec.cache_segments,
        vcus: spec.vcus,
        seed: mix64(cfg.seed, cell),
        ..ServeConfig::default()
    })
    .run();
    ServeCampaignCell {
        spec: *spec,
        report,
    }
}

/// Runs the sweep across the `vcu-exec` pool; results come back in
/// cell-index order regardless of `VCU_THREADS`.
pub fn run_serve_campaign(cfg: &ServeCampaignConfig) -> Vec<ServeCampaignCell> {
    vcu_exec::pool().run_batch(
        vcu_exec::env_threads(),
        cfg.cells
            .iter()
            .enumerate()
            .map(|(i, spec)| move || run_serve_cell(cfg, spec, i as u64))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeCampaignConfig {
        ServeCampaignConfig {
            seed: 11,
            cells: vec![
                ServeCellSpec {
                    viewers: 300,
                    vcus: 16,
                    cache_segments: 128,
                    catalog_videos: 200,
                    horizon_s: 20.0,
                },
                ServeCellSpec {
                    viewers: 300,
                    vcus: 16,
                    cache_segments: 512,
                    catalog_videos: 200,
                    horizon_s: 20.0,
                },
            ],
        }
    }

    #[test]
    fn seed_steers_the_campaign() {
        let a = run_serve_campaign(&tiny());
        let b = run_serve_campaign(&ServeCampaignConfig { seed: 12, ..tiny() });
        assert_ne!(a, b, "a different seed must move some metric");
    }

    #[test]
    fn cells_account_exactly() {
        for c in run_serve_campaign(&tiny()) {
            let r = &c.report;
            assert_eq!(r.arrivals, r.admitted + r.shed_sessions);
            assert_eq!(r.admitted, r.completed_sessions + r.aborted_sessions);
            assert!(r.segments_served > 0);
            assert!(r.peak_concurrent > 0);
        }
    }

    #[test]
    fn hit_ratio_rises_across_the_cache_sweep() {
        let cells = run_serve_campaign(&tiny());
        let (small, large) = (&cells[0].report, &cells[1].report);
        assert!(
            large.hit_ratio >= small.hit_ratio,
            "4x cache should not hit less: {} vs {}",
            large.hit_ratio,
            small.hit_ratio
        );
    }
}
