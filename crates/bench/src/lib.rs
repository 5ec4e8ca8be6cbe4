//! Experiment harness crate: see the `bin/` targets (one per paper
//! table/figure, one per campaign, `bench_cluster_scale` and
//! `check_results`). The library provides [`campaign`], the one driver
//! and artifact format of the four deterministic campaigns; [`gates`],
//! the CI gates over the campaign artifacts under `results/`; and
//! [`timing`], the median-of-K wall-clock harness `bench_cluster_scale`
//! uses plus the `results/` and smoke-mode paths. Host timings that
//! judge a change live in `benchmark/`, not here.

pub mod campaign;
pub mod gates;
pub mod timing;
