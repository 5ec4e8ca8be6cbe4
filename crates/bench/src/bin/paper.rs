//! `results/fidelity.json`: every paper number EXPERIMENTS.md quotes
//! (Table 1, §4.1, Figs. 7–10, Table 2, the DESIGN.md ablations), its
//! measurement, tolerance, baseline and status. Gated on each recorded
//! status equalling the one its numbers earn, and on a reason for every
//! row short of a match.
//!
//! Everything but the measurements is `vcu_bench::campaign::drive`.
//! Run with: `cargo run --release -p vcu-bench --bin paper` (minutes:
//! Figs. 7 and 10 encode real pixels; `VCU_BENCH_SMOKE=1`: seconds-long
//! two-clip subset, writes to the temp directory).

fn main() {
    vcu_bench::campaign::drive::<vcu_bench::campaign::Paper>();
}
