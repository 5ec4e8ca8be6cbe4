//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics, each with unit, direction, clock and — where one applies —
//! the bound by which it may worsen. `BENCHMARK.json` at the repo root
//! is `manifest()` written out; a unit test keeps the two equal.

use crate::json::{obj, Json};

/// Seconds one run measures (the contract's `run_seconds`).
pub const RUN_SECONDS: u64 = 18;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock or memory of the host: noisy, compared within a bound.
    Host,
    /// Simulated or otherwise deterministic value: same seed, same bits.
    Sim,
    /// An exact count of work done: same seed, same count.
    Count,
}

/// A workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Permanent name.
    pub name: &'static str,
    /// One line: what it isolates.
    pub why: &'static str,
}

/// A metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Clock.
    pub clock: Clock,
    /// Share of the baseline median by which a host metric may worsen
    /// before `compare` calls it a regression; `None` = reported only.
    pub bound: Option<f64>,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock: Clock::Host,
        bound: None,
    }
}

const fn bounded(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock: Clock::Host,
        bound: Some(bound),
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock: Clock::Sim,
        bound: None,
    }
}

const fn count(name: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit: "count",
        better,
        clock: Clock::Count,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The five workloads. Names are permanent.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "transcode",
        why: "pixel path on real frames: codec, kernels, media and exec do all the work and the DES none, so a kernel or entropy-coder change shows here and nowhere else",
    },
    WorkloadDef {
        name: "fleet",
        why: "one large batch ClusterSim (10,000 VCUs, faults live): event loop, placement index and per-job accounting dominate and the codec does nothing",
    },
    WorkloadDef {
        name: "serve",
        why: "open-world stepping of the same cluster under ServeSim, cache below vs above the working set: separates the inject/step path from SegmentCache and from fleet's batch run",
    },
    WorkloadDef {
        name: "planet",
        why: "PlanetSim over many mid-size cells in lockstep epochs: routing, diurnal thinning, cross-shard merge and exec fan-out, the composition a one-kernel refactor replaces",
    },
    WorkloadDef {
        name: "dse",
        why: "run_dse over 80 candidates, 160 tiny ClusterSim runs: per-simulation set-up, VcuModel::for_design and pool scheduling dominate, queue depth does not",
    },
];

/// End-to-end metrics every workload reports from the untraced run.
///
/// The contract has every workload print every end-to-end metric, so
/// these are the four a user sees on any of them; the workload-specific
/// rates and simulated results (the `e2e.*` names) ride in `PER_LAYER`.
pub const END_TO_END: [MetricDef; 4] = [
    // Generating the inputs (median of SETUP_ROUNDS) plus the cold
    // first repetition (see `drive`): everything a run pays before its
    // timed region.
    bounded("setup_s", "s", Lower, 0.25),
    // Wall-clock of one repetition of the workload's fixed work: each
    // phase's fastest time, summed (see harness.rs).
    bounded("rep_wall_s", "s", Lower, 0.25),
    // CPU seconds (user + system, all threads) of the same fastest
    // phases: the cost side of a parallel speed-up.
    bounded("rep_cpu_s", "s", Lower, 0.25),
    // VmHWM of the workload's process.
    bounded("peak_rss_mb", "MB", Lower, 0.20),
];

/// Per-layer metrics, reported from the traced run. Layers are the
/// crates. Every name is printed by every workload; a layer the
/// workload does not drive reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // The workload-specific end-to-end metrics, taken from the untraced
    // repetitions that the traced run interleaves with its traced ones.
    // Their bounds are the issue's, applied by `compare`; the contract's
    // `per_layer` list has no place for them.
    bounded("e2e.encode_mpix_per_s", "Mpix/s", Higher, 0.10),
    bounded("e2e.decode_mpix_per_s", "Mpix/s", Higher, 0.10),
    bounded("e2e.batch_mpix_per_s", "Mpix/s", Higher, 0.10),
    bounded("e2e.chunk_p50_ms", "ms", Lower, 0.10),
    // The highest percentile with ten samples beyond it: p95 at the 200
    // samples (40 chunks, MIN_REPS repetitions) a full-size run reads.
    bounded("e2e.chunk_p95_ms", "ms", Lower, 0.15),
    count("e2e.chunk_samples", Higher),
    sim("e2e.psnr_y_db", "dB", Higher),
    sim("e2e.bits_per_pixel", "bit/px", Lower),
    bounded("e2e.sim_jobs_per_s", "1/s", Higher, 0.10),
    bounded("e2e.sim_sessions_per_s", "1/s", Higher, 0.10),
    sim("e2e.sim_goodput", "frac", Higher),
    sim("e2e.sim_wait_p99_s", "s", Lower),
    sim("e2e.sim_ttff_p99_s", "s", Lower),
    // media
    host("media.synth_s", "s", Lower),
    host("media.scale_s", "s", Lower),
    count("media.frames", Lower),
    // codec: spans, stage work counts, unit costs through the selected backend
    host("codec.encode_s", "s", Lower),
    count("codec.encode_calls", Lower),
    count("codec.encode_failed", Lower),
    host("codec.decode_s", "s", Lower),
    count("codec.decode_calls", Lower),
    count("codec.sad_pixels_examined", Lower),
    count("codec.transform_pixels", Lower),
    count("codec.mc_pixels", Lower),
    count("codec.intra_pixels", Lower),
    count("codec.tempfilter_pixels", Lower),
    count("codec.deblock_pixels", Lower),
    count("codec.bits", Lower),
    host("codec.kern_sad_ns", "ns", Lower),
    host("codec.kern_satd_ns", "ns", Lower),
    host("codec.kern_hpel_ns", "ns", Lower),
    host("codec.kern_tx_ns", "ns", Lower),
    host("codec.search16_ns", "ns", Lower),
    host("codec.entropy_ns_per_bit", "ns", Lower),
    host("codec.tempfilter_ns_per_px", "ns", Lower),
    // system (crates/core)
    host("system.mot_self_s", "s", Lower),
    host("system.split_s", "s", Lower),
    // exec
    host("exec.batch_t1_s", "s", Lower),
    host("exec.batch_tn_s", "s", Lower),
    host("exec.batch_speedup_x", "x", Higher),
    host("exec.planet_speedup_x", "x", Higher),
    host("exec.dse_speedup_x", "x", Higher),
    host("exec.tasks", "count", Lower),
    host("exec.steals", "count", Lower),
    // chip
    host("chip.job_demand_ns", "ns", Lower),
    host("chip.for_design_ns", "ns", Lower),
    // cluster
    host("cluster.new_s", "s", Lower),
    host("cluster.step_s", "s", Lower),
    host("cluster.finish_s", "s", Lower),
    count("cluster.events", Lower),
    host("cluster.ns_per_event", "ns", Lower),
    count("cluster.jobs", Higher),
    count("cluster.retries", Lower),
    count("cluster.failed", Lower),
    count("cluster.watchdog_fired", Lower),
    host("cluster.place_ns", "ns", Lower),
    host("cluster.queue_ns_per_op", "ns", Lower),
    host("cluster.small_sim_ms", "ms", Lower),
    host("cluster.openworld_replay_s", "s", Lower),
    // serve
    host("serve.new_s", "s", Lower),
    host("serve.run_small_s", "s", Lower),
    host("serve.run_large_s", "s", Lower),
    count("serve.sessions", Higher),
    count("serve.segments_served", Higher),
    count("serve.cache_hits", Higher),
    count("serve.cache_misses", Lower),
    count("serve.transcodes", Lower),
    count("serve.shed", Lower),
    host("serve.cache_ns_per_op", "ns", Lower),
    host("serve.self_s", "s", Lower),
    // regions
    host("regions.new_s", "s", Lower),
    host("regions.run_s", "s", Lower),
    host("regions.run_t1_s", "s", Lower),
    count("regions.jobs", Higher),
    count("regions.routed_jobs", Lower),
    count("regions.epochs", Lower),
    // workloads
    host("workloads.zipf_ns_per_draw", "ns", Lower),
    host("workloads.diurnal_ns_per_arrival", "ns", Lower),
    host("workloads.catalog_s", "s", Lower),
    // dse
    host("dse.run_t1_s", "s", Lower),
    host("dse.run_tn_s", "s", Lower),
    count("dse.candidates", Higher),
    count("dse.frontier_size", Higher),
    host("dse.pareto_us", "us", Lower),
    // telemetry
    host("telemetry.overhead_frac", "frac", Lower),
    host("telemetry.snapshot_ms", "ms", Lower),
    count("telemetry.events", Lower),
    // sim-rng
    host("rng.ns_per_u64", "ns", Lower),
    // bench (this harness)
    host("bench.trace_overhead_frac", "frac", Lower),
    host("bench.threads", "count", Higher),
    host("bench.reps", "count", Higher),
];

/// Definition of the metric `name`, end-to-end or per-layer.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// `BENCHMARK.json`, in the shape the builder's contract gives.
pub fn manifest() -> Json {
    let metric = |m: &MetricDef, with_bound: bool| {
        let mut pairs = vec![
            ("name", Json::from(m.name)),
            ("unit", Json::from(m.unit)),
            ("better", Json::from(m.better.word())),
        ];
        if with_bound {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            pairs.push(("bound", Json::from(bound)));
        }
        obj(pairs)
    };
    obj([
        (
            "command",
            Json::Arr(vec![Json::from("bash"), Json::from("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "bad name {}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} on {}",
                m.unit,
                m.name
            );
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            let b = m.bound.expect("bounded");
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(Json::parse(&text), Ok(manifest()));
    }
}
