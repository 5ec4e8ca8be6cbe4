//! Online serving quick-start: 10 000 concurrent viewers on 64 VCUs.
//!
//! Viewers arrive as a Poisson stream over a Zipf-popular catalog and
//! stream segment by segment. The popularity-protected segment cache
//! absorbs the head; misses become on-demand transcodes with
//! deadline-class priorities (first segment = Critical, prefetch =
//! Normal); admission control sheds sessions before the cluster's
//! degradation ladder would have to engage.
//!
//! Run with: `cargo run --release --example serve`
//! (set `VCU_SEED` to vary arrivals, catalog, and fleet noise).

use vcu_serve::{ServeConfig, ServeSim};
use vcu_telemetry::json::JsonObj;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = vcu_rng::env_seed(42);
    let cfg = ServeConfig {
        viewers: 10_000,
        horizon_s: 60.0,
        catalog_videos: 2_000,
        cache_segments: 4_096,
        vcus: 64,
        seed,
        ..ServeConfig::default()
    };
    println!(
        "online serving: target {} concurrent viewers, {} VCUs, {}-segment cache, seed {}\n",
        cfg.viewers, cfg.vcus, cfg.cache_segments, seed
    );

    let slots = vcu_cluster::slots_per_worker(&cfg.transcode_job());
    let report = ServeSim::new(cfg).run();

    println!(
        "arrived   {:>8}  (shed {} at the door)",
        report.arrivals, report.shed_sessions
    );
    println!(
        "completed {:>8}  (aborted {})",
        report.completed_sessions, report.aborted_sessions
    );
    println!("peak concurrent viewers: {}", report.peak_concurrent);
    println!(
        "TTFF p50/p99: {:.3}s / {:.3}s   rebuffer ratio: {:.4}%",
        report.ttff_p50_s,
        report.ttff_p99_s,
        report.rebuffer_ratio * 100.0
    );
    println!(
        "cache: {:.1}% hit ratio ({} hits / {} misses); {} on-demand transcodes ({} slots/VCU)",
        report.hit_ratio * 100.0,
        report.cache_hits,
        report.cache_misses,
        report.transcodes,
        slots
    );
    println!(
        "cost: {:.2} GB egress = ${:.2}; transcode = ${:.4}",
        report.egress_gb, report.egress_cost_usd, report.transcode_cost_usd
    );

    assert_eq!(report.arrivals, report.admitted + report.shed_sessions);
    assert_eq!(
        report.admitted,
        report.completed_sessions + report.aborted_sessions
    );
    assert!(report.peak_concurrent > 0);
    assert!(report.hit_ratio > 0.0, "head traffic must hit the cache");

    println!(
        "{}",
        JsonObj::new()
            .str("example", "serve")
            .u64("seed", seed)
            .u64("arrivals", report.arrivals)
            .u64("peak_concurrent", report.peak_concurrent)
            .u64("shed", report.shed_sessions)
            .f64("ttff_p50_s", report.ttff_p50_s)
            .f64("ttff_p99_s", report.ttff_p99_s)
            .f64("rebuffer_ratio", report.rebuffer_ratio)
            .f64("hit_ratio", report.hit_ratio)
            .f64("egress_cost_usd", report.egress_cost_usd)
            .f64("transcode_cost_usd", report.transcode_cost_usd)
            .finish()
    );
    Ok(())
}
