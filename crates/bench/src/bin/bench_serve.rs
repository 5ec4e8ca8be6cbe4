//! `results/serve_campaign.json`: TTFF, rebuffer rate, cache hit ratio
//! and the egress-vs-transcode cost split for live viewers — a cache
//! sweep at 100k viewers, then a scale sweep to a 1.2M-viewer target.
//! Gated on exact session accounting, a monotone hit ratio and no TTFF
//! p99 cliff as the cache grows, and ≥ 1M peak concurrent viewers.
//!
//! Everything but the sweep itself is `vcu_bench::campaign::drive`.
//! Run with: `cargo run --release -p vcu-bench --bin bench_serve`
//! (`VCU_BENCH_SMOKE=1`: seconds-long, writes to the temp directory).

fn main() {
    vcu_bench::campaign::drive::<vcu_bench::campaign::Serve>();
}
