//! The design-space sweep: grid construction, candidate evaluation on
//! the cluster simulator, frontier extraction, and the anchor gate
//! (`vcu-bench` renders the candidates as `results/dse_frontier.json`).
//!
//! Methodology (the V&V-in-the-loop shape): every candidate chip is
//! evaluated against the *same* deterministic workload and fault
//! schedule on the full [`ClusterSim`] — scheduler, retries,
//! watchdogs, degradation ladder and all — never against a closed-form
//! proxy. Candidates differ **only** in their [`DesignPoint`]; the
//! offered load is fixed (sized against the shipped anchor's
//! capacity), so weaker silicon shows up as backlog, shedding and lost
//! goodput while stronger silicon saturates the offered load and pays
//! for capacity it cannot use. Four maximize-objectives span the
//! trade space:
//!
//! 1. delivered Mpix/s per VCU under steady offered load,
//! 2. goodput under the PR-5 fault campaign's fault mix,
//! 3. delivered Mpix/s per TCO dollar (fleet capex + 3-year power),
//! 4. queueing-latency headroom, `1 / (1 + p99 wait)` — the axis where
//!    overprovisioned silicon earns its cost back as tail latency.
//!
//! Every cell derives from the campaign seed via [`vcu_rng::mix64`]
//! and the candidate fan-out reassembles in index order, so the
//! artifact is byte-identical at any `VCU_THREADS`.

use crate::pareto;
use vcu_chip::{DesignPoint, ResourceDemand, TranscodeJob, VcuModel};
use vcu_cluster::{
    cell_cluster_config, fault_schedule, fleet_tco_usd, uniform_stream, ClusterConfig, ClusterSim,
    FaultInjection, JobSpec,
};
use vcu_codec::Profile;
use vcu_media::Resolution;
use vcu_rng::{mix64, Rng};

/// Default anchor tolerance: a frontier point may beat the shipped
/// design on *every* objective by up to this relative margin before
/// the anchor gate calls the model miscalibrated.
pub const DEFAULT_ANCHOR_TOL: f64 = 0.02;

/// Offered load as a fraction of the shipped anchor's steady capacity
/// on its most-loaded dimension: right at saturation. The anchor is by
/// construction the chip *sized for this demand* — undersized designs
/// shed and backlog superlinearly, oversized designs tie on delivered
/// pixels (the offered load caps them) and pay for idle silicon, and
/// the fault leg is where headroom earns its keep: capacity dips push
/// a right-sized fleet past saturation while overprovisioned fleets
/// absorb them.
pub const OFFERED_LOAD: f64 = 1.02;

/// Design-space sweep configuration. The grid is the cross product of
/// the four axis vectors and must contain the shipped point.
#[derive(Debug, Clone)]
pub struct DseConfig {
    /// Campaign seed; cluster seeds and the fault schedule mix out of
    /// this (identically for every candidate — candidates differ only
    /// in silicon).
    pub seed: u64,
    /// Fleet size every candidate is evaluated at.
    pub vcus: usize,
    /// Jobs offered per VCU over the run.
    pub jobs_per_vcu: usize,
    /// Fraction of the fleet faulted in the fault leg.
    pub fault_rate: f64,
    /// Mean time to repair in the fault leg, seconds.
    pub mttr_s: f64,
    /// Encoder-core axis (shipped: 10).
    pub encoder_cores: Vec<usize>,
    /// Decoder-core axis (shipped: 3).
    pub decoder_cores: Vec<usize>,
    /// Raw DRAM bandwidth axis in GiB/s (shipped: 36.0).
    pub dram_gib_s: Vec<f64>,
    /// Reference-store axis in pixels (shipped: 147,456).
    pub refstore_pixels: Vec<usize>,
}

impl DseConfig {
    /// The full sweep `results/dse_frontier.json` pins: 320 candidates
    /// over a 32-VCU fleet.
    pub fn full(seed: u64) -> Self {
        DseConfig {
            seed,
            vcus: 32,
            jobs_per_vcu: 120,
            fault_rate: 0.30,
            mttr_s: 600.0,
            encoder_cores: vec![6, 8, 10, 12, 14],
            decoder_cores: vec![1, 2, 3, 4],
            dram_gib_s: vec![18.0, 27.0, 36.0, 45.0],
            refstore_pixels: vec![36_864, 73_728, 147_456, 294_912],
        }
    }

    /// The seconds-long CI smoke sweep: a 3×3 (encoder cores × DRAM
    /// bandwidth) slice through the shipped point on a 16-VCU fleet.
    pub fn smoke(seed: u64) -> Self {
        DseConfig {
            seed,
            vcus: 16,
            jobs_per_vcu: 56,
            fault_rate: 0.40,
            mttr_s: 600.0,
            encoder_cores: vec![8, 10, 12],
            decoder_cores: vec![3],
            dram_gib_s: vec![27.0, 36.0, 45.0],
            refstore_pixels: vec![147_456],
        }
    }

    /// The candidate grid in deterministic axis-major order.
    ///
    /// # Panics
    ///
    /// If the grid does not contain the shipped design point — a sweep
    /// without its validation anchor cannot be gated.
    pub fn design_grid(&self) -> Vec<DesignPoint> {
        let mut grid = Vec::new();
        for &enc in &self.encoder_cores {
            for &dec in &self.decoder_cores {
                for &bw in &self.dram_gib_s {
                    for &rs in &self.refstore_pixels {
                        grid.push(DesignPoint::new(enc, dec, bw, rs));
                    }
                }
            }
        }
        assert!(
            grid.iter().any(|d| d.is_shipped()),
            "design grid must contain the shipped anchor (10e/3d/36G/144K)"
        );
        grid
    }
}

/// One evaluated candidate: the design, its cost model, and the
/// workload-loop metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct DseCandidate {
    /// The silicon configuration.
    pub design: DesignPoint,
    /// Die area, mm².
    pub area_mm2: f64,
    /// Card (2 VCUs) active power, watts.
    pub card_power_w: f64,
    /// Card capital cost, dollars.
    pub card_capex_usd: f64,
    /// Fleet TCO (capex + 3-year power) in dollars, priced as full
    /// 20-VCU hosts.
    pub fleet_tco_usd: f64,
    /// Motion-search DRAM traffic vs the shipped reference store.
    pub traffic_factor: f64,
    /// Worst-case §3.3.1 bandwidth envelope over usable bandwidth.
    pub bandwidth_pressure: f64,
    /// Mean encoder-millicore utilization in the steady leg.
    pub util_steady: f64,
    /// (completed − escaped-corrupt) / offered, steady leg.
    pub goodput_steady: f64,
    /// Same under the fault-campaign leg.
    pub goodput_fault: f64,
    /// p99 queueing wait in the steady leg, seconds.
    pub p99_wait_s: f64,
    /// Objective 1: delivered output Mpix/s per VCU, steady leg.
    pub perf_mpix_s_per_vcu: f64,
    /// Objective 3: delivered fleet Mpix/s per thousand TCO dollars.
    pub perf_per_tco: f64,
    /// True for the shipped anchor.
    pub anchor: bool,
    /// True if no other candidate dominates this one.
    pub on_frontier: bool,
}

impl DseCandidate {
    /// The maximize-objective vector the frontier is computed over:
    /// steady delivered perf per VCU, goodput under the fault campaign,
    /// perf per TCO dollar, and queueing-latency headroom. The latency
    /// axis enters as `1/(1 + p99_wait_s)` — a strictly monotone
    /// transform of "minimize p99 wait", so the frontier is identical
    /// to the one over raw p99 while every objective stays a positive
    /// maximize value (which keeps the anchor gate's relative-tolerance
    /// inflation meaningful on all axes).
    pub fn objectives(&self) -> [f64; 4] {
        [
            self.perf_mpix_s_per_vcu,
            self.goodput_fault,
            self.perf_per_tco,
            1.0 / (1.0 + self.p99_wait_s),
        ]
    }
}

/// The four-shape workload mix every candidate is scored on, cycled in
/// order. Index `i % 4` also fixes the priority class (the §3.3.3
/// 1 Critical : 2 Normal : 1 Batch mix), so the shapes land as:
/// live one-pass → Critical, decode-heavy SOT and the 1080p MOT →
/// Normal, the 4K MOT → Batch (the first work the ladder sheds).
fn job_mix() -> [TranscodeJob; 4] {
    [
        // Live 1080p30 one-pass: latency-critical, light.
        TranscodeJob::sot(
            Resolution::R1080,
            Resolution::R1080,
            Profile::Vp9Sim,
            30.0,
            2.0,
        )
        .low_latency(),
        // 2160p60 decode to a thumbnail-sized output: the *decode*-bound
        // shape — input pixel rate dwarfs output, so decoder cores are
        // the binding axis for this job.
        TranscodeJob::sot(
            Resolution::R2160,
            Resolution::R360,
            Profile::Vp9Sim,
            60.0,
            12.0,
        ),
        // 2160p30 MOT: heavyweight on encode millicores *and* DRAM
        // footprint. Rides as Normal priority — it carries most of the
        // mix's output pixels, so it must degrade gradually, not be the
        // first thing the ladder sheds.
        TranscodeJob::mot(Resolution::R2160, Profile::Vp9Sim, 30.0, 5.0),
        // The PR-5 campaign chunk: 1080p30 MOT, encoder-bound. Slot 3 is
        // the Batch class: the first work shed under overload.
        TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0),
    ]
}

/// VCU-seconds of work one pass through the mix puts on each §3.3.3
/// scheduler dimension of the *anchor*: Σ duration × demand/capacity.
fn mix_dim_work(model: &VcuModel) -> [f64; 4] {
    let cap = ResourceDemand::vcu_capacity();
    let mut work = [0.0f64; 4];
    for job in &job_mix() {
        let d = model.job_demand(job);
        work[0] += job.duration_s * d.millidecode as f64 / cap.millidecode as f64;
        work[1] += job.duration_s * d.milliencode as f64 / cap.milliencode as f64;
        work[2] += job.duration_s * d.dram_mib as f64 / cap.dram_mib as f64;
        work[3] += job.duration_s * d.host_mcpu as f64 / cap.host_mcpu as f64;
    }
    work
}

/// Arrival span that offers [`OFFERED_LOAD`] of the *shipped anchor's*
/// capacity on its most-loaded scheduler dimension (encode millicores
/// for this mix) — identical for every candidate, so the sweep compares
/// designs against one fixed demand, not demand scaled to flatter each
/// chip. Jobs binding on different dimensions pack complementarily, so
/// the load that matters is per-dimension aggregate, not the sum of
/// per-job binding maxima.
pub fn arrival_span_s(cfg: &DseConfig) -> f64 {
    let work = mix_dim_work(&VcuModel::new());
    let agg = work.iter().cloned().fold(0.0, f64::max);
    cfg.jobs_per_vcu as f64 * agg / (job_mix().len() as f64 * OFFERED_LOAD)
}

/// The cluster configuration a candidate runs under: the PR-5 cell
/// policies (backoff, watchdogs, screening, degradation ladder) with
/// the candidate's silicon substituted.
fn candidate_config(cfg: &DseConfig, design: DesignPoint, leg_seed: u64) -> ClusterConfig {
    ClusterConfig {
        model: VcuModel::for_design(design),
        // Finer than the cell default: the report horizon snaps to the
        // sampling grid, and candidate runs differ by queueing tails
        // smaller than the 15 s fleet cadence.
        sample_period_s: 5.0,
        ..cell_cluster_config(cfg.vcus, leg_seed)
    }
}

/// Quantizes a metric to the artifact's published 6-decimal precision
/// (the exact value a reader parses back out of the JSON). Every
/// candidate metric is quantized *before* frontier and anchor
/// computation so the committed `on_frontier` flags are reproducible
/// from the artifact alone: full-precision f64 near-ties that collapse
/// at 6 decimals would otherwise make the published frontier
/// unverifiable by downstream gates.
fn q6(x: f64) -> f64 {
    if x.is_finite() {
        format!("{x:.6}").parse().expect("q6 round-trip")
    } else {
        x
    }
}

/// Evaluates one candidate: a steady leg and a fault leg over the
/// shared workload, then the cost model.
fn evaluate_candidate(
    cfg: &DseConfig,
    design: DesignPoint,
    jobs: &[JobSpec],
    faults: &[FaultInjection],
) -> DseCandidate {
    let offered = jobs.len() as u64;
    let steady = ClusterSim::new(
        candidate_config(cfg, design, mix64(cfg.seed, 1)),
        jobs.to_vec(),
        Vec::new(),
    )
    .run();
    let faulted = ClusterSim::new(
        candidate_config(cfg, design, mix64(cfg.seed, 2)),
        jobs.to_vec(),
        faults.to_vec(),
    )
    .run();

    let util_steady = if steady.samples.is_empty() {
        0.0
    } else {
        steady.samples.iter().map(|s| s.encode_util).sum::<f64>() / steady.samples.len() as f64
    };
    let fleet_tco_usd = fleet_tco_usd(&design, cfg.vcus);
    let perf_mpix_s_per_vcu = steady.mean_mpix_s_per_vcu(cfg.vcus);
    DseCandidate {
        design,
        area_mm2: q6(design.silicon_area_mm2()),
        card_power_w: q6(design.card_power_w()),
        card_capex_usd: q6(design.card_capex_usd()),
        fleet_tco_usd: q6(fleet_tco_usd),
        traffic_factor: q6(design.refstore_traffic_factor()),
        bandwidth_pressure: q6(design.bandwidth_pressure()),
        util_steady: q6(util_steady),
        goodput_steady: q6(steady.goodput_frac(offered)),
        goodput_fault: q6(faulted.goodput_frac(offered)),
        p99_wait_s: q6(steady.p99_wait_s),
        perf_mpix_s_per_vcu: q6(perf_mpix_s_per_vcu),
        perf_per_tco: q6(perf_mpix_s_per_vcu * cfg.vcus as f64 / (fleet_tco_usd / 1_000.0)),
        anchor: design.is_shipped(),
        on_frontier: false,
    }
}

/// Runs the sweep: evaluates every grid candidate (fanned out over the
/// `vcu-exec` pool at the given parallelism, reassembled in index
/// order) and marks the Pareto frontier. Output is independent of
/// `parallelism`.
pub fn run_dse(cfg: &DseConfig, parallelism: usize) -> Vec<DseCandidate> {
    let designs = cfg.design_grid();
    // The job list every candidate shares.
    let jobs = uniform_stream(&job_mix(), cfg.vcus * cfg.jobs_per_vcu, arrival_span_s(cfg));
    // One fault schedule, shared: every candidate sees the same
    // workers fault at the same times with the same kinds.
    let mut fault_rng = Rng::seed_from_u64(mix64(cfg.seed, 3));
    let faults = fault_schedule(
        cfg.vcus,
        arrival_span_s(cfg),
        cfg.fault_rate,
        cfg.mttr_s,
        &mut fault_rng,
    );
    let mut candidates: Vec<DseCandidate> = vcu_exec::pool().run_batch(
        parallelism,
        designs
            .into_iter()
            .map(|d| {
                let (cfg, jobs, faults) = (&*cfg, &jobs[..], &faults[..]);
                move || evaluate_candidate(cfg, d, jobs, faults)
            })
            .collect(),
    );
    let objectives: Vec<[f64; 4]> = candidates.iter().map(|c| c.objectives()).collect();
    for (c, flag) in candidates
        .iter_mut()
        .zip(pareto::frontier_flags(&objectives))
    {
        c.on_frontier = flag;
    }
    candidates
}

/// Checks the sweep's two structural gates:
///
/// 1. exactly one anchor (the shipped point) is present, and
/// 2. no candidate dominates the anchor even after inflating the
///    anchor's objectives by `(1 + tol)` — i.e. the shipped VCU lands
///    on (or within tolerance of) the frontier. A violation means the
///    cost/performance model thinks a strictly better chip was left on
///    the table, which is a calibration bug, not a discovery.
pub fn check_anchor(candidates: &[DseCandidate], tol: f64) -> Result<(), String> {
    assert!(tol >= 0.0 && tol.is_finite(), "tolerance must be ≥ 0");
    let anchors: Vec<&DseCandidate> = candidates.iter().filter(|c| c.anchor).collect();
    if anchors.len() != 1 {
        return Err(format!(
            "expected exactly 1 anchor, found {}",
            anchors.len()
        ));
    }
    let inflated: Vec<f64> = anchors[0]
        .objectives()
        .iter()
        .map(|o| o * (1.0 + tol))
        .collect();
    for c in candidates.iter().filter(|c| !c.anchor) {
        if pareto::dominates(&c.objectives(), &inflated) {
            return Err(format!(
                "candidate {} dominates the shipped anchor beyond tol {tol}: {:?} vs anchor {:?}",
                c.design.label(),
                c.objectives(),
                anchors[0].objectives()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DseConfig {
        DseConfig {
            seed: 7,
            vcus: 8,
            jobs_per_vcu: 12,
            fault_rate: 0.25,
            mttr_s: 15.0,
            encoder_cores: vec![8, 10],
            decoder_cores: vec![3],
            dram_gib_s: vec![27.0, 36.0],
            refstore_pixels: vec![147_456],
        }
    }

    #[test]
    fn grid_is_axis_major_and_contains_anchor() {
        let grid = tiny().design_grid();
        assert_eq!(grid.len(), 4);
        assert_eq!(grid[0].label(), "8e3d27G144K");
        assert_eq!(grid[3].label(), "10e3d36G144K");
        assert_eq!(grid.iter().filter(|d| d.is_shipped()).count(), 1);
    }

    #[test]
    #[should_panic(expected = "shipped anchor")]
    fn grid_without_anchor_panics() {
        DseConfig {
            encoder_cores: vec![8],
            ..tiny()
        }
        .design_grid();
    }

    #[test]
    fn smoke_sweep_passes_its_own_gates() {
        let cfg = DseConfig::smoke(42);
        let cands = run_dse(&cfg, 1);
        assert_eq!(cands.len(), 9);
        check_anchor(&cands, DEFAULT_ANCHOR_TOL).unwrap();
        // The frontier flags must be exactly the non-dominated set.
        let objs: Vec<[f64; 4]> = cands.iter().map(|c| c.objectives()).collect();
        for (c, expect) in cands.iter().zip(pareto::frontier_flags(&objs)) {
            assert_eq!(c.on_frontier, expect, "{}", c.design.label());
        }
        // The anchor itself must sit on the frontier, not merely
        // within tolerance of it: the shipped point is supposed to be
        // the perf/TCO sweet spot of its own model.
        let anchor = cands.iter().find(|c| c.anchor).unwrap();
        assert!(anchor.on_frontier, "anchor off frontier: {anchor:?}");
    }

    #[test]
    fn weaker_and_stronger_designs_bracket_the_anchor() {
        // The smoke grid (not `tiny()`): its load is heavy enough that
        // a bandwidth-starved design visibly sheds at the published
        // 6-decimal precision, not just in f64 dust.
        let cfg = DseConfig::smoke(42);
        let cands = run_dse(&cfg, 1);
        let anchor = cands.iter().find(|c| c.anchor).unwrap();
        let starved = cands
            .iter()
            .find(|c| c.design.label() == "10e3d27G144K")
            .unwrap();
        // Less bandwidth than the envelope → stalls → less delivered
        // work under the same offered load.
        assert!(starved.perf_mpix_s_per_vcu < anchor.perf_mpix_s_per_vcu);
        assert!(starved.bandwidth_pressure > anchor.bandwidth_pressure);
    }

    #[test]
    fn seed_steers_the_campaign() {
        let cfg_a = tiny();
        let cfg_b = DseConfig { seed: 8, ..tiny() };
        assert_ne!(
            run_dse(&cfg_a, 1),
            run_dse(&cfg_b, 1),
            "different seeds must produce different campaigns"
        );
    }

    #[test]
    fn check_anchor_rejects_dominating_candidates() {
        let cfg = tiny();
        let mut cands = run_dse(&cfg, 1);
        // Forge a candidate strictly better than the anchor everywhere.
        let anchor = cands.iter().find(|c| c.anchor).unwrap().clone();
        let mut forged = anchor.clone();
        forged.anchor = false;
        forged.perf_mpix_s_per_vcu *= 2.0;
        forged.goodput_fault = (forged.goodput_fault * 1.5).max(0.01);
        forged.perf_per_tco *= 2.0;
        forged.p99_wait_s = 0.0;
        cands.push(forged);
        assert!(check_anchor(&cands, DEFAULT_ANCHOR_TOL).is_err());
        // And a missing anchor is its own failure.
        cands.retain(|c| !c.anchor);
        assert!(check_anchor(&cands, DEFAULT_ANCHOR_TOL).is_err());
    }
}
