//! Experiment harness crate: one `bin/` target per campaign, and
//! `check_results`. The library provides [`campaign`], the one driver
//! and artifact format of the five deterministic campaigns plus the
//! `results/` and smoke-mode paths; [`paper`], the experiments behind
//! the paper's tables and figures and the row table of
//! `results/fidelity.json`; and [`gates`], the CI gates over the
//! campaign artifacts under `results/`. Host timings live in
//! `benchmark/`, not here.
#![forbid(unsafe_code)]

pub mod campaign;
pub mod gates;
pub mod paper;
