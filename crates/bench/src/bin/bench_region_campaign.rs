//! `results/region_campaign.json`: multi-region planets over regions ×
//! fleet size × traffic growth, up to 102,400 VCUs in four regions.
//! Each cell runs its planet twice from one seed — overflow routing
//! on, then off. Gated on routing never losing goodput to the isolated
//! counterfactual and on anti-phased regions actually routing work.
//!
//! Everything but the sweep itself is `vcu_bench::campaign::drive`.
//! Run with: `cargo run --release -p vcu-bench --bin bench_region_campaign`
//! (`VCU_BENCH_SMOKE=1`: seconds-long, writes to the temp directory).

fn main() {
    vcu_bench::campaign::drive::<vcu_bench::campaign::Region>();
}
