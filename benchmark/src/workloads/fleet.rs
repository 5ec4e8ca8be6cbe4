//! `fleet` — one large batch DES: `ClusterSim::new(..).run()` over
//! 10,000 VCUs and 500,000 uniform 1080p MOT jobs at about 0.9
//! utilisation, 5 % of workers faulted and repaired, so retry, watchdog,
//! health and the degradation ladder are all live. Event loop,
//! placement index and per-job accounting dominate; the codec does
//! nothing. This is the regime where ROADMAP records jobs/s falling
//! from 532k (1k VCUs) to 185k (10k VCUs).

use super::{fnv64, slots_per_worker};
use crate::harness::{best_wall, fastest, Ctx, Named, Ops, Rep, Stopwatch, Workload};
use crate::probes;
use crate::trace::Tracer;
use std::time::Instant;
use vcu_chip::VcuModel;
use vcu_cluster::{
    cell_cluster_config, fault_schedule, ClusterConfig, ClusterReport, ClusterSim, FaultInjection,
    JobSpec, Priority,
};
use vcu_rng::{mix64, Rng};
use vcu_telemetry::Registry;

/// Jobs offered per VCU.
const JOBS_PER_VCU: usize = 50;
/// Chunk length, seconds.
const CHUNK_S: f64 = 5.0;
/// Offered load as a share of the healthy fleet's capacity.
const TARGET_UTIL: f64 = 0.9;
/// Share of workers that fault, and how long each stays down.
const FAULT_RATE: f64 = 0.05;
const MTTR_S: f64 = 60.0;

/// Generated inputs.
pub struct Input {
    cfg: ClusterConfig,
    jobs: Vec<JobSpec>,
    faults: Vec<FaultInjection>,
}

/// What one run resolved. `digest` covers the whole `ClusterReport`.
#[derive(Debug, PartialEq)]
pub struct Report {
    digest: u64,
    completed: u64,
    failed: u64,
    escaped: u64,
    retries: u64,
    watchdog_fired: u64,
    p99_wait_s: f64,
}

impl Report {
    fn of(r: &ClusterReport) -> Self {
        Report {
            digest: fnv64(&format!("{r:?}")),
            completed: r.completed,
            failed: r.failed,
            escaped: r.escaped_corruptions,
            retries: r.retries,
            watchdog_fired: r.watchdog_fired,
            p99_wait_s: r.p99_wait_s,
        }
    }
}

/// The workload.
pub struct Fleet;

impl Workload for Fleet {
    type Input = Input;
    type Report = Report;

    fn setup(ctx: &Ctx, _tr: &mut Tracer) -> Input {
        let vcus = if ctx.smoke { 64 } else { 10_000 };
        let total = vcus * JOBS_PER_VCU;
        let job = probes::mot_1080p(CHUNK_S);
        let span_s = JOBS_PER_VCU as f64 * CHUNK_S / (slots_per_worker(&job) as f64 * TARGET_UTIL);
        // Poisson arrivals in simulated time over the span.
        let mut rng = Rng::seed_from_u64(mix64(ctx.seed, 1));
        let rate = total as f64 / span_s;
        let mut now = 0.0;
        let jobs = (0..total)
            .map(|i| {
                now += rng.exponential(rate);
                JobSpec {
                    arrival_s: now,
                    job: job.clone(),
                    priority: match i % 10 {
                        0 => Priority::Critical,
                        9 => Priority::Batch,
                        _ => Priority::Normal,
                    },
                    video_id: (i / 4) as u64,
                }
            })
            .collect();
        let faults = fault_schedule(vcus, span_s, FAULT_RATE, MTTR_S, &mut rng);
        Input {
            cfg: cell_cluster_config(vcus, ctx.seed),
            jobs,
            faults,
        }
    }

    fn rep(_ctx: &Ctx, input: &Input, tr: &mut Tracer) -> (Report, Rep) {
        // The simulator consumes its job list; the copy is not timed.
        let (cfg, jobs, faults) = (input.cfg.clone(), input.jobs.clone(), input.faults.clone());
        let watch = Stopwatch::start();
        let report = if tr.enabled() {
            // `run()` is `while step() {}` then `finish()`: the same
            // calls, with a span around each.
            let mut sim = tr.span("cluster.new", |_| ClusterSim::new(cfg, jobs, faults));
            let events = tr.span("cluster.step", |_| {
                let mut n = 0u64;
                while sim.step() {
                    n += 1;
                }
                n
            });
            tr.count("cluster.events", events);
            tr.span("cluster.finish", |_| sim.finish())
        } else {
            ClusterSim::new(cfg, jobs, faults).run()
        };
        let watch = watch.stop();
        (Report::of(&report), Rep::timed(vec![watch], tr))
    }

    fn verify(_ctx: &Ctx, input: &Input, report: &Report, ops: &mut Ops) {
        ops.check(
            report.completed + report.failed == input.jobs.len() as u64,
            "completed + failed = jobs",
        );
    }

    fn named(_ctx: &Ctx, input: &Input, r: &Report, reps: &[Rep]) -> Vec<Named> {
        let jobs = input.jobs.len() as f64;
        vec![
            ("e2e.sim_jobs_per_s", jobs / best_wall(reps)),
            ("e2e.sim_goodput", (r.completed - r.escaped) as f64 / jobs),
            ("e2e.sim_wait_p99_s", r.p99_wait_s),
        ]
    }

    fn layers(
        _ctx: &Ctx,
        input: &Input,
        tr: &mut Tracer,
        r: &Report,
        untraced: &[Rep],
        traced: &[Rep],
        _ops: &mut Ops,
    ) -> Vec<Named> {
        // Spans of the fastest traced repetition; counts repeat exactly,
        // so any repetition's share of the total is the count.
        let spans = tr.of(fastest(traced).op);
        let (new_s, step_s, finish_s) = (
            spans.total_s("cluster.new"),
            spans.total_s("cluster.step"),
            spans.total_s("cluster.finish"),
        );
        let events = tr.counted("cluster.events") as f64 / traced.len() as f64;

        // The same run with a live registry attached: what turning
        // telemetry on costs, and what one snapshot costs.
        let registry = Registry::new();
        let (cfg, jobs, faults) = (input.cfg.clone(), input.jobs.clone(), input.faults.clone());
        let attached_s = tr.span("telemetry.attached_run", |_| {
            let t0 = Instant::now();
            let sim = ClusterSim::new(cfg, jobs, faults).with_telemetry(registry.clone());
            std::hint::black_box(sim.run());
            t0.elapsed().as_secs_f64()
        });
        let snap0 = Instant::now();
        std::hint::black_box(registry.snapshot_json(&[]));
        let snapshot_ms = snap0.elapsed().as_secs_f64() * 1e3;

        let job = &input.jobs[0].job;
        vec![
            ("cluster.new_s", new_s),
            ("cluster.step_s", step_s),
            ("cluster.finish_s", finish_s),
            ("cluster.events", events),
            ("cluster.ns_per_event", step_s * 1e9 / events),
            ("cluster.jobs", input.jobs.len() as f64),
            ("cluster.retries", r.retries as f64),
            ("cluster.failed", r.failed as f64),
            ("cluster.watchdog_fired", r.watchdog_fired as f64),
            (
                "cluster.place_ns",
                probes::cluster_place_ns(input.cfg.vcus, VcuModel::new().job_demand(job)),
            ),
            (
                "cluster.queue_ns_per_op",
                probes::cluster_queue_ns_per_op(input.jobs.len()),
            ),
            ("chip.job_demand_ns", probes::chip_job_demand_ns(job)),
            (
                "telemetry.overhead_frac",
                attached_s / best_wall(untraced) - 1.0,
            ),
            ("telemetry.snapshot_ms", snapshot_ms),
            ("telemetry.events", registry.events().len() as f64),
            ("rng.ns_per_u64", probes::rng_ns_per_u64()),
        ]
    }
}
