//! Experiment harness crate: see the `bin/` targets (one per paper
//! table/figure, one per campaign, and `check_results`) and `benches/`
//! (plain `fn main` wall-clock microbenchmarks writing JSON to
//! `results/`; run with `cargo bench -p vcu-bench --offline`). The
//! library provides [`timing`], the dependency-free median-of-K
//! measurement harness the benches share; [`campaign`], the one driver
//! and artifact format of the four deterministic campaigns; and
//! [`gates`], the CI gates over everything under `results/`.

pub mod campaign;
pub mod gates;
pub mod timing;
