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

use crate::sim::{ServeConfig, ServeSim};
use vcu_rng::mix64;

/// One cell of the sweep: a viewer population against a fleet + cache.
#[derive(Debug, Clone, Copy)]
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

/// Reduced metrics of one serve cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCampaignCell {
    /// Target concurrent viewers of the cell.
    pub viewers: u64,
    /// Fleet size.
    pub vcus: u64,
    /// Cache capacity, segments.
    pub cache_segments: u64,
    /// Sessions that arrived.
    pub arrivals: u64,
    /// Sessions admitted.
    pub admitted: u64,
    /// Sessions shed by admission control.
    pub shed: u64,
    /// Sessions that watched to the end.
    pub completed: u64,
    /// Sessions aborted on permanent transcode failure.
    pub aborted: u64,
    /// Peak concurrent in-playback sessions.
    pub peak_concurrent: u64,
    /// TTFF p50, seconds.
    pub ttff_p50_s: f64,
    /// TTFF p99, seconds.
    pub ttff_p99_s: f64,
    /// Stall time / watch time.
    pub rebuffer_ratio: f64,
    /// Late mid-stream deliveries.
    pub rebuffer_events: u64,
    /// Cache hits / lookups.
    pub hit_ratio: f64,
    /// On-demand transcodes injected.
    pub transcodes: u64,
    /// Transcodes that failed permanently.
    pub transcode_failures: u64,
    /// Segments delivered.
    pub segments_served: u64,
    /// Delivered bytes, GB.
    pub egress_gb: f64,
    /// Egress cost, USD.
    pub egress_cost_usd: f64,
    /// Amortized transcode cost, USD.
    pub transcode_cost_usd: f64,
    /// Fraction of cluster samples above degradation rung 0 (admission
    /// should keep this at zero).
    pub degraded_frac: f64,
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
        viewers: spec.viewers as u64,
        vcus: spec.vcus as u64,
        cache_segments: spec.cache_segments as u64,
        arrivals: report.arrivals,
        admitted: report.admitted,
        shed: report.shed_sessions,
        completed: report.completed_sessions,
        aborted: report.aborted_sessions,
        peak_concurrent: report.peak_concurrent,
        ttff_p50_s: report.ttff_p50_s,
        ttff_p99_s: report.ttff_p99_s,
        rebuffer_ratio: report.rebuffer_ratio,
        rebuffer_events: report.rebuffer_events,
        hit_ratio: report.hit_ratio,
        transcodes: report.transcodes,
        transcode_failures: report.transcode_failures,
        segments_served: report.segments_served,
        egress_gb: report.egress_gb,
        egress_cost_usd: report.egress_cost_usd,
        transcode_cost_usd: report.transcode_cost_usd,
        degraded_frac: 1.0 - report.cluster.degrade_time_frac[0],
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
            assert_eq!(c.arrivals, c.admitted + c.shed);
            assert_eq!(c.admitted, c.completed + c.aborted);
            assert!(c.segments_served > 0);
            assert!(c.peak_concurrent > 0);
        }
    }

    #[test]
    fn hit_ratio_rises_across_the_cache_sweep() {
        let cells = run_serve_campaign(&tiny());
        assert!(
            cells[1].hit_ratio >= cells[0].hit_ratio,
            "4x cache should not hit less: {} vs {}",
            cells[1].hit_ratio,
            cells[0].hit_ratio
        );
    }
}
