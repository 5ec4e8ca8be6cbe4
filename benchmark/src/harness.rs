//! The measurement loop every workload shares: generate the inputs
//! (several times, so the time is a median), run one discarded warm-up
//! repetition, then timed repetitions of the same fixed work until the
//! run's seconds are spent. A traced run interleaves each untraced
//! repetition with a traced one, so tracing overhead compares two sets
//! of repetitions taken under the same conditions.
//!
//! A host time is the **fastest** a piece of the fixed work took over
//! the timed repetitions, not the median. The shared two-core sandbox
//! this was built on has slow spells of +15–70 % that last from part of
//! a repetition to minutes, and they only ever add time. Over two sets
//! of ten runs per workload the two statistics spread about alike within
//! a set, but between the sets the median of the fastest repetitions
//! moved by 3–13 % and the median of the median repetitions by 6–21 %
//! (README.md, "Steadiness") — and that drift is what a later change is
//! judged against. A repetition made of phases (`serve`'s two cache
//! sizes, `transcode`'s three) is timed phase by phase and reported as
//! the sum of each phase's fastest time: a spell that outlasts one phase
//! seldom covers the same phase of every repetition.

use crate::host;
use crate::stats::median;
use crate::trace::Tracer;
use std::time::Instant;

/// Times a run generates its inputs; `setup_s` takes the median. The
/// warm-up repetition is not repeated: it costs as much as a timed one.
pub const SETUP_ROUNDS: usize = 3;

/// Fewest timed repetitions, however short `--seconds` is. Per-operation
/// latencies are read from exactly this many (the first), so their
/// sample count does not depend on how fast the host is.
pub const MIN_REPS: usize = 5;

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed: feeds the input generators only.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Record spans and per-layer metrics.
    pub traced: bool,
    /// Tiny sizes through the same code paths.
    pub smoke: bool,
    /// Threads a parallel phase uses (`VCU_THREADS`).
    pub threads: usize,
}

/// Operations attempted and failed. An operation is one checked result:
/// a chunk that must decode, a report whose accounting must add up, a
/// repetition that must equal the first.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
}

impl Ops {
    /// Records one check; prints what failed so a red run explains itself.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: FAILED check: {what}");
        }
    }
}

/// Wall-clock and CPU time of a region, started together.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Stopwatch {
            cpu_s: host::cpu_seconds(),
            wall: Instant::now(),
        }
    }

    /// `(wall seconds, CPU seconds)` since the start.
    pub fn stop(self) -> (f64, f64) {
        let wall_s = self.wall.elapsed().as_secs_f64();
        (wall_s, host::cpu_seconds() - self.cpu_s)
    }
}

/// The clocks of one repetition of a workload's fixed work. The
/// repetition's report is checked against the first and dropped, so
/// memory does not grow with the number of repetitions.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall-clock of the timed region, seconds: the phases' sum. A traced
    /// repetition counts only the phases an untraced one also runs.
    pub wall_s: f64,
    /// `(wall-clock, CPU)` seconds of the workload's phases, in its own
    /// fixed order. CPU is user + system, every thread.
    pub phases: Vec<(f64, f64)>,
    /// The tracer operation the repetition's spans carry.
    pub op: u64,
    /// Per-operation latencies inside the repetition, milliseconds.
    pub samples_ms: Vec<f64>,
}

impl Rep {
    /// A repetition of the phases timed by `phases` (`Stopwatch::stop`
    /// of each, in order), whose spans (if any) carry `tr`'s current
    /// operation.
    pub fn timed(phases: Vec<(f64, f64)>, tr: &Tracer) -> Self {
        Rep {
            wall_s: phases.iter().map(|p| p.0).sum(),
            phases,
            op: tr.current_op(),
            samples_ms: Vec::new(),
        }
    }
}

/// Name and value of one reported metric.
pub type Named = (&'static str, f64);

/// A workload: how to build its inputs, run one repetition, check a
/// report, and turn repetitions and spans into metrics.
pub trait Workload {
    /// Generated inputs, built from the seed alone.
    type Input;
    /// The result of one repetition, compared across repetitions.
    type Report: PartialEq;

    /// Generates the inputs. Spans go to `tr` (media, system layers).
    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self::Input;

    /// Runs the fixed work once. With a disabled tracer it calls the
    /// public entry points as a user would; with an enabled one it does
    /// the same work with a span around each call into a layer.
    fn rep(ctx: &Ctx, input: &Self::Input, tr: &mut Tracer) -> (Self::Report, Rep);

    /// Checks that a report is correct. Run on the warm-up repetition's
    /// report, which every timed repetition must then equal.
    fn verify(ctx: &Ctx, input: &Self::Input, report: &Self::Report, ops: &mut Ops);

    /// The workload's own end-to-end metrics (`e2e.*`): simulated values
    /// from the report, host rates from untraced repetitions only.
    fn named(ctx: &Ctx, input: &Self::Input, report: &Self::Report, reps: &[Rep]) -> Vec<Named>;

    /// Per-layer metrics: the spans of the fastest traced repetition,
    /// counts, and the unit-cost probes this workload's layers call for.
    /// Runs after the timed loop and may record further spans
    /// (single-thread legs) and checks.
    fn layers(
        ctx: &Ctx,
        input: &Self::Input,
        tr: &mut Tracer,
        report: &Self::Report,
        untraced: &[Rep],
        traced: &[Rep],
        ops: &mut Ops,
    ) -> Vec<Named>;
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Checks made and failed.
    pub ops: Ops,
    /// The four end-to-end metrics of the contract.
    pub end_to_end: Vec<Named>,
    /// The workload's own `e2e.*` metrics.
    pub named: Vec<Named>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Named>,
    /// Wall-clock of each timed untraced repetition, seconds, in order.
    pub walls_s: Vec<f64>,
    /// Generating the inputs (median) and the warm-up repetition, seconds.
    pub setup_parts_s: (f64, f64),
    /// The spans behind `layers`.
    pub tracer: Tracer,
}

/// The repetition with the least wall-clock: per-layer spans are read
/// from it.
///
/// # Panics
///
/// If `reps` is empty.
pub fn fastest(reps: &[Rep]) -> &Rep {
    reps.iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one repetition")
}

/// `(wall-clock, CPU)` seconds of phase `i` in the repetition that ran
/// it in the least wall-clock.
pub fn best_phase(reps: &[Rep], i: usize) -> (f64, f64) {
    reps.iter()
        .map(|r| r.phases[i])
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one repetition")
}

/// `(wall-clock, CPU)` seconds of one repetition: each phase's fastest
/// time, summed.
pub fn best_rep(reps: &[Rep]) -> (f64, f64) {
    (0..reps[0].phases.len())
        .map(|i| best_phase(reps, i))
        .fold((0.0, 0.0), |sum, p| (sum.0 + p.0, sum.1 + p.1))
}

/// Wall-clock of one repetition, seconds: `best_rep`'s.
pub fn best_wall(reps: &[Rep]) -> f64 {
    best_rep(reps).0
}

/// Runs workload `W` once under `ctx`.
pub fn drive<W: Workload>(ctx: &Ctx) -> Outcome {
    let mut tr = if ctx.traced {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let mut off = Tracer::off();
    let mut ops = Ops::default();

    // Set-up: the inputs are generated several times over so that time
    // is a median; the previous round's inputs are dropped first, so
    // peak memory is one input set's. Only the last round is traced:
    // set-up spans then describe one set-up. Then one discarded
    // repetition (pool threads spawn, kernels dispatch, the allocator
    // grows to the working set).
    let mut rounds_s = Vec::with_capacity(SETUP_ROUNDS);
    let mut input = None;
    for round in 0..SETUP_ROUNDS {
        drop(input.take());
        let t0 = Instant::now();
        let last = round + 1 == SETUP_ROUNDS;
        input = Some(W::setup(ctx, if last { &mut tr } else { &mut off }));
        rounds_s.push(t0.elapsed().as_secs_f64());
    }
    let input = input.expect("SETUP_ROUNDS >= 1");
    let inputs_s = median(&rounds_s);
    let warm0 = Instant::now();
    let (report, _) = W::rep(ctx, &input, &mut off);
    let warmup_s = warm0.elapsed().as_secs_f64();
    W::verify(ctx, &input, &report, &mut ops);

    let pool = vcu_exec::pool();
    let mut pool_delta = (0u64, 0u64);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let loop0 = Instant::now();
    loop {
        let round0 = Instant::now();
        let (again, rep) = W::rep(ctx, &input, &mut off);
        ops.check(again == report, "repetition equals the first");
        untraced.push(rep);
        if ctx.traced {
            let before = (pool.tasks_executed(), pool.tasks_stolen());
            tr.next_op();
            let (again, rep) = W::rep(ctx, &input, &mut tr);
            pool_delta.0 += pool.tasks_executed() - before.0;
            pool_delta.1 += pool.tasks_stolen() - before.1;
            ops.check(again == report, "traced repetition equals the first");
            traced.push(rep);
        }
        // Stop before a round that would overrun the budget.
        let next_end = loop0.elapsed().as_secs_f64() + round0.elapsed().as_secs_f64();
        if untraced.len() >= MIN_REPS && next_end > ctx.seconds {
            break;
        }
    }

    let walls_s: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let reps = walls_s.len();
    let named = W::named(ctx, &input, &report, &untraced);
    let mut end_to_end = Vec::new();
    let mut layers = Vec::new();
    if ctx.traced {
        layers = W::layers(ctx, &input, &mut tr, &report, &untraced, &traced, &mut ops);
        let n = traced.len() as f64;
        // Each traced repetition against the untraced one run just
        // before it: a slow spell on a shared host covers both alike.
        let ratios: Vec<f64> = untraced
            .iter()
            .zip(&traced)
            .map(|(u, t)| t.wall_s / u.wall_s)
            .collect();
        layers.extend([
            ("exec.tasks", pool_delta.0 as f64 / n),
            ("exec.steals", pool_delta.1 as f64 / n),
            ("bench.trace_overhead_frac", median(&ratios) - 1.0),
            ("bench.threads", ctx.threads as f64),
            ("bench.reps", reps as f64),
        ]);
    } else {
        // Set-up is the inputs plus the first, cold repetition, so that
        // work a change moves into first use shows. That repetition is a
        // single sample, so a slow spell of the host would move it by
        // the spell's full size; the first timed repetition, run right
        // after it, sits in the same spell. So: the repetition's time
        // as reported, plus what the warm-up took over its neighbour.
        let first_use_s = warmup_s - untraced[0].wall_s;
        let (rep_wall_s, rep_cpu_s) = best_rep(&untraced);
        end_to_end = vec![
            ("setup_s", inputs_s + rep_wall_s + first_use_s),
            ("rep_wall_s", rep_wall_s),
            ("rep_cpu_s", rep_cpu_s),
            ("peak_rss_mb", host::peak_rss_mb()),
        ];
    }
    Outcome {
        ops,
        end_to_end,
        named,
        layers,
        walls_s,
        setup_parts_s: (inputs_s, warmup_s),
        tracer: tr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repetition_counts_each_phase_at_its_fastest() {
        let tr = Tracer::off();
        let reps = [
            Rep::timed(vec![(1.0, 1.5), (4.0, 4.0)], &tr),
            Rep::timed(vec![(2.0, 2.5), (3.0, 3.5)], &tr),
        ];
        assert_eq!(reps[0].wall_s, 5.0);
        assert_eq!(fastest(&reps).wall_s, 5.0);
        assert_eq!(best_phase(&reps, 1), (3.0, 3.5));
        assert_eq!(best_rep(&reps), (4.0, 5.0));
        assert_eq!(best_wall(&reps[1..]), 5.0);
    }
}
