//! `results/fault_campaign.json`: goodput, black-holing and tail
//! latency under injected fleet faults, swept over fault rate × MTTR
//! on a 1,000-VCU fleet with the full §4.4 failure-management
//! machinery armed. Gated on graceful degradation: no goodput cliff
//! between adjacent fault rates, and a floor at the highest.
//!
//! Everything but the sweep itself is `vcu_bench::campaign::drive`.
//! Run with: `cargo run --release -p vcu-bench --bin bench_fault_campaign`
//! (`VCU_BENCH_SMOKE=1`: seconds-long, writes to the temp directory).

fn main() {
    vcu_bench::campaign::drive::<vcu_bench::campaign::Fault>();
}
