//! `planet` — `PlanetSim::new(cfg).run()`: four regions of eight cells
//! stepped in lockstep epochs at `VCU_THREADS`, with phase-shifted
//! diurnal demand, overflow routing, upgrade waves and domain failures.
//! `vcu-regions` (routing, thinning, cross-shard merge), `run_until`
//! epochs and the `vcu-exec` fan-out over many mid-size cells do the
//! work — the composition mechanism a one-kernel refactor replaces, so
//! that refactor has a number to hold.

use super::slots_per_worker;
use crate::harness::{best_wall, fastest, Ctx, Named, Ops, Rep, Stopwatch, Workload};
use crate::probes;
use crate::trace::Tracer;
use vcu_chip::VcuModel;
use vcu_regions::{region_job, OverflowPolicy, PlanetConfig, PlanetReport, PlanetSim, RegionSpec};

/// Regions, cells per region, VCUs per cell, demand horizon (s), chunk (s).
/// Long chunks keep a 10,240-VCU planet under a million jobs.
type Shape = (usize, usize, usize, f64, f64);
const SHAPE: Shape = (4, 8, 320, 600.0, 60.0);
const SMOKE_SHAPE: Shape = (2, 2, 8, 100.0, 20.0);
/// Mean offered load as a share of capacity, before the traffic scale.
const UTIL: f64 = 0.75;
const TRAFFIC_SCALE: f64 = 1.3;

/// Generated inputs.
pub struct Input {
    cfg: PlanetConfig,
}

/// The workload.
pub struct Planet;

/// Runs the planet once under `VCU_THREADS = threads`. `PlanetSim`
/// reads its parallelism from the environment on every epoch; no pool
/// batch is in flight between runs, so nothing reads it concurrently.
fn run_at(
    threads: usize,
    cfg: &PlanetConfig,
    tr: &mut Tracer,
    run_span: &'static str,
) -> (PlanetReport, Rep) {
    std::env::set_var("VCU_THREADS", threads.to_string());
    let cfg = cfg.clone();
    let watch = Stopwatch::start();
    let sim = tr.span("regions.new", |_| PlanetSim::new(cfg));
    let report = tr.span(run_span, |_| sim.run());
    let watch = watch.stop();
    (report, Rep::timed(vec![watch], tr))
}

impl Workload for Planet {
    type Input = Input;
    type Report = PlanetReport;

    fn setup(ctx: &Ctx, _tr: &mut Tracer) -> Input {
        let (regions, cells, vcus_per_cell, horizon_s, chunk_s) =
            if ctx.smoke { SMOKE_SHAPE } else { SHAPE };
        let region_vcus = cells * vcus_per_cell;
        let mean_rate_per_s =
            UTIL * region_vcus as f64 * slots_per_worker(&region_job(chunk_s)) as f64 / chunk_s;
        let cfg = PlanetConfig {
            seed: ctx.seed,
            horizon_s,
            epoch_s: horizon_s / 10.0,
            // One compressed day per run; peaks spread around the clock,
            // so the planet's demand is flatter than any region's.
            period_s: horizon_s,
            chunk_s,
            traffic_scale: TRAFFIC_SCALE,
            merge_shards: 4,
            overflow: OverflowPolicy {
                enabled: true,
                pressure_threshold: 0.2,
                ..OverflowPolicy::default()
            },
            upgrades: true,
            domain_failures: true,
            regions: (0..regions)
                .map(|r| RegionSpec {
                    name: format!("region{r}"),
                    cells,
                    vcus_per_cell,
                    peak_hour: (20.0 + 24.0 * r as f64 / regions as f64) % 24.0,
                    mean_rate_per_s,
                    amplitude: 0.85,
                })
                .collect(),
        };
        Input { cfg }
    }

    fn rep(ctx: &Ctx, input: &Input, tr: &mut Tracer) -> (PlanetReport, Rep) {
        run_at(ctx.threads, &input.cfg, tr, "regions.run")
    }

    fn verify(_ctx: &Ctx, _input: &Input, report: &PlanetReport, ops: &mut Ops) {
        let resolved: u64 = report.regions.iter().map(|r| r.completed + r.failed).sum();
        ops.check(resolved == report.jobs, "completed + failed = jobs");
        let merged: u64 = report.regions.iter().map(|r| r.merged_resolutions).sum();
        ops.check(merged == report.jobs, "every resolution crossed the merge");
    }

    fn named(_ctx: &Ctx, _input: &Input, r: &PlanetReport, reps: &[Rep]) -> Vec<Named> {
        vec![
            ("e2e.sim_jobs_per_s", r.jobs as f64 / best_wall(reps)),
            ("e2e.sim_goodput", r.goodput_frac),
            ("e2e.sim_wait_p99_s", r.p99_wait_s),
        ]
    }

    fn layers(
        ctx: &Ctx,
        input: &Input,
        tr: &mut Tracer,
        r: &PlanetReport,
        _untraced: &[Rep],
        traced: &[Rep],
        ops: &mut Ops,
    ) -> Vec<Named> {
        let best = fastest(traced);
        tr.next_op();
        let (one, one_rep) = run_at(1, &input.cfg, tr, "regions.run_t1");
        std::env::set_var("VCU_THREADS", ctx.threads.to_string());
        ops.check(one == *r, "planet at 1 thread equals VCU_THREADS");
        let spans = tr.of(best.op);
        let cfg = &input.cfg;
        let job = region_job(cfg.chunk_s);
        let cell_vcus = cfg.regions[0].vcus_per_cell;
        let cells: usize = cfg.regions.iter().map(|r| r.cells).sum();
        vec![
            ("regions.new_s", spans.total_s("regions.new")),
            ("regions.run_s", spans.total_s("regions.run")),
            ("regions.run_t1_s", tr.all().total_s("regions.run_t1")),
            ("regions.jobs", r.jobs as f64),
            ("regions.routed_jobs", r.routed_jobs as f64),
            ("regions.epochs", (r.drained_at_s / cfg.epoch_s).ceil()),
            ("exec.planet_speedup_x", one_rep.wall_s / best.wall_s),
            (
                "workloads.diurnal_ns_per_arrival",
                probes::workloads_diurnal_ns_per_arrival(
                    cfg.regions[0].mean_rate_per_s * cfg.traffic_scale,
                    cfg.period_s,
                ),
            ),
            (
                "cluster.place_ns",
                probes::cluster_place_ns(cell_vcus, VcuModel::new().job_demand(&job)),
            ),
            (
                "cluster.queue_ns_per_op",
                probes::cluster_queue_ns_per_op((r.jobs as usize / cells).max(1)),
            ),
            ("rng.ns_per_u64", probes::rng_ns_per_u64()),
        ]
    }
}
