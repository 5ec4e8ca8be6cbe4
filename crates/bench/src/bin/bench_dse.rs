//! `results/dse_frontier.json`: the co-design Pareto frontier over
//! encoder cores × decoder cores × DRAM bandwidth × reference-store
//! SRAM, every candidate run on the cluster simulator under a steady
//! and a faulted leg. The sweep runs at parallelism 1 and again wide,
//! and the two artifacts must be byte-identical. Gated on the shipped
//! VCU sitting on the independently recomputed frontier, undominated
//! within tolerance.
//!
//! Everything but the sweep itself is `vcu_bench::campaign::drive`.
//! Run with: `cargo run --release -p vcu-bench --bin bench_dse`
//! (`VCU_BENCH_SMOKE=1`: seconds-long 3×3 sweep, writes to the temp
//! directory).

fn main() {
    vcu_bench::campaign::drive::<vcu_bench::campaign::Dse>();
}
