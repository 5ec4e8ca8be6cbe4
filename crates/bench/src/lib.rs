//! Experiment harness crate: see the `bin/` targets (one per paper
//! table/figure, one per campaign, and `check_results`). The library
//! provides [`campaign`], the one driver and artifact format of the four
//! deterministic campaigns plus the `results/` and smoke-mode paths, and
//! [`gates`], the CI gates over the campaign artifacts under `results/`.
//! Host timings live in `benchmark/`, not here.

pub mod campaign;
pub mod gates;
