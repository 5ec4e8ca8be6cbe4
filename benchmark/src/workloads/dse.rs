//! `dse` — `run_dse(&cfg, VCU_THREADS)` over an 80-candidate grid that
//! contains the shipped chip: 160 tiny heterogeneous-mix `ClusterSim`
//! runs (a steady and a fault leg per candidate). The same DES as
//! `fleet` in the opposite regime: per-simulation set-up,
//! `VcuModel::for_design` and pool scheduling dominate, queue depth
//! does not.

use crate::harness::{best_wall, Ctx, Named, Ops, Rep, Stopwatch, Workload};
use crate::probes;
use crate::trace::Tracer;
use std::time::Instant;
use vcu_dse::{check_anchor, frontier_flags, run_dse, DseCandidate, DseConfig, DEFAULT_ANCHOR_TOL};

/// Generated inputs.
pub struct Input {
    cfg: DseConfig,
}

/// The workload.
pub struct Dse;

/// The 3×3 slice through the shipped point that `DseConfig::smoke`
/// sweeps, on this run's fleet: small enough to run at two
/// parallelisms in the warm-up.
fn slice(cfg: &DseConfig) -> DseConfig {
    DseConfig {
        encoder_cores: vec![8, 10, 12],
        decoder_cores: vec![3],
        dram_gib_s: vec![27.0, 36.0, 45.0],
        refstore_pixels: vec![147_456],
        ..cfg.clone()
    }
}

impl Workload for Dse {
    type Input = Input;
    type Report = Vec<DseCandidate>;

    fn setup(ctx: &Ctx, _tr: &mut Tracer) -> Input {
        let full = DseConfig {
            seed: ctx.seed,
            vcus: 32,
            jobs_per_vcu: 120,
            fault_rate: 0.30,
            mttr_s: 600.0,
            encoder_cores: vec![6, 8, 10, 12, 14],
            decoder_cores: vec![1, 2, 3, 4],
            dram_gib_s: vec![27.0, 36.0],
            refstore_pixels: vec![73_728, 147_456],
        };
        let cfg = if ctx.smoke {
            DseConfig {
                vcus: 8,
                jobs_per_vcu: 16,
                ..slice(&full)
            }
        } else {
            full
        };
        Input { cfg }
    }

    fn rep(ctx: &Ctx, input: &Input, tr: &mut Tracer) -> (Vec<DseCandidate>, Rep) {
        let watch = Stopwatch::start();
        let report = tr.span("dse.run_tn", |_| run_dse(&input.cfg, ctx.threads));
        let watch = watch.stop();
        (report, Rep::timed(vec![watch], tr))
    }

    fn verify(ctx: &Ctx, input: &Input, report: &Vec<DseCandidate>, ops: &mut Ops) {
        ops.check(
            report.len() == input.cfg.design_grid().len(),
            "every grid point was evaluated",
        );
        let anchor = check_anchor(report, DEFAULT_ANCHOR_TOL);
        ops.check(anchor.is_ok(), &format!("check_anchor: {anchor:?}"));
        let slice = slice(&input.cfg);
        ops.check(
            run_dse(&slice, 1) == run_dse(&slice, ctx.threads),
            "run_dse at parallelism 1 equals VCU_THREADS",
        );
    }

    fn named(
        _ctx: &Ctx,
        input: &Input,
        candidates: &Vec<DseCandidate>,
        reps: &[Rep],
    ) -> Vec<Named> {
        let cfg = &input.cfg;
        // Two legs per candidate, each resolving the whole job list.
        let jobs = (candidates.len() * 2 * cfg.vcus * cfg.jobs_per_vcu) as f64;
        let anchor = candidates.iter().find(|c| c.anchor);
        vec![
            ("e2e.sim_jobs_per_s", jobs / best_wall(reps)),
            ("e2e.sim_goodput", anchor.map_or(0.0, |a| a.goodput_fault)),
            ("e2e.sim_wait_p99_s", anchor.map_or(0.0, |a| a.p99_wait_s)),
        ]
    }

    fn layers(
        _ctx: &Ctx,
        input: &Input,
        tr: &mut Tracer,
        candidates: &Vec<DseCandidate>,
        _untraced: &[Rep],
        traced: &[Rep],
        ops: &mut Ops,
    ) -> Vec<Named> {
        let cfg = &input.cfg;
        let t0 = Instant::now();
        let one = tr.span("dse.run_t1", |_| run_dse(cfg, 1));
        let t1_s = t0.elapsed().as_secs_f64();
        ops.check(one == *candidates, "run_dse at 1 thread equals VCU_THREADS");
        let tn_s = best_wall(traced);
        let objectives: Vec<[f64; 4]> = candidates.iter().map(DseCandidate::objectives).collect();
        let job = probes::mot_1080p(5.0);
        vec![
            ("dse.run_t1_s", t1_s),
            ("dse.run_tn_s", tn_s),
            ("dse.candidates", candidates.len() as f64),
            (
                "dse.frontier_size",
                candidates.iter().filter(|c| c.on_frontier).count() as f64,
            ),
            (
                "dse.pareto_us",
                probes::median_secs(7, || frontier_flags(&objectives)) * 1e6,
            ),
            ("exec.dse_speedup_x", t1_s / tn_s),
            ("chip.for_design_ns", probes::chip_for_design_ns(&job)),
            (
                "cluster.small_sim_ms",
                probes::cluster_small_sim_ms(&job, cfg.vcus * cfg.jobs_per_vcu),
            ),
            ("rng.ns_per_u64", probes::rng_ns_per_u64()),
        ]
    }
}
