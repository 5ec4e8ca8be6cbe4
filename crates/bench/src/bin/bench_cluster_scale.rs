//! Warehouse-scale cluster throughput: the O(log n) availability index
//! vs the O(n) linear-scan oracle, swept over fleet sizes.
//!
//! The paper's scheduler serves placement from "a sharded, in-memory
//! availability cache of all workers" (§3.3.3, Fig. 6); simulation
//! infrastructure has to scale the same way or it silently caps the
//! experiments we can run. This bench pins that property into the
//! trajectory:
//!
//! 1. **Placement microbench** — a pre-filled fleet at ~90% occupancy,
//!    churned with release+place pairs, measured in placements/sec for
//!    both `PlacementMode`s at each scale. The `speedup_10k` ratio is
//!    the headline number (target ≥10×).
//! 2. **Full-simulation runs** — proportional load (50 jobs/VCU, 500k
//!    jobs at 10k VCUs) through `ClusterSim`, recording jobs/sec.
//! 3. **Saturated run** — the same fleet offered 1.3× what it can carry
//!    with the degradation ladder armed: the regime the DSE sweep, the
//!    planet and the serve campaign run in, where nearly every
//!    scheduling pass ends on the head-of-line miss cap.
//! 4. **Equivalence gate** — at every scale the indexed and linear
//!    paths must produce *identical* `ClusterReport`s (first-fit order
//!    is observable behaviour); the bench aborts if they diverge.
//!
//! Run with: `cargo run --release -p vcu-bench --bin bench_cluster_scale`
//! Set `VCU_BENCH_SMOKE=1` for a seconds-long CI configuration that
//! writes to a temp directory instead of `results/`.

use vcu_bench::timing::{output_path, smoke, Harness};
use vcu_chip::{ResourceDemand, TranscodeJob, VcuModel};
use vcu_cluster::{
    ClusterConfig, ClusterReport, ClusterSim, DegradePolicy, JobSpec, PlacementMode, Priority,
    Scheduler, SchedulerKind,
};
use vcu_codec::Profile;
use vcu_media::Resolution;

/// Proportional load: enough identical 1080p jobs to hold the fleet at
/// roughly `target_util` occupancy for the whole run, first-fit from
/// worker 0 so free capacity pools at the high indices — the regime
/// where a linear scan degrades to O(n) per placement.
fn fleet_jobs(vcus: usize, jobs_per_vcu: usize, target_util: f64) -> Vec<JobSpec> {
    let job = TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0);
    // Jobs one worker fits concurrently (binding dimension).
    let per_worker = VcuModel::new().job_demand(&job).slots_per_vcu() as f64;
    let in_flight_target = (vcus as f64 * per_worker * target_util).max(1.0);
    let spacing = job.duration_s / in_flight_target;
    let n = vcus * jobs_per_vcu;
    (0..n)
        .map(|i| JobSpec {
            arrival_s: i as f64 * spacing,
            job: job.clone(),
            priority: match i % 10 {
                0 => Priority::Critical,
                9 => Priority::Batch,
                _ => Priority::Normal,
            },
            video_id: (i / 4) as u64,
        })
        .collect()
}

/// `saturated` arms the degradation ladder and samples often enough
/// for it to climb while the overload lasts.
fn run_sim(
    vcus: usize,
    jobs: Vec<JobSpec>,
    placement: PlacementMode,
    saturated: bool,
) -> ClusterReport {
    let cfg = ClusterConfig {
        vcus,
        placement,
        sample_period_s: if saturated { 5.0 } else { 60.0 },
        degrade: DegradePolicy {
            enabled: saturated,
            ..DegradePolicy::default()
        },
        ..ClusterConfig::default()
    };
    ClusterSim::new(cfg, jobs, vec![]).run()
}

/// One timed whole-simulation rep recorded as `name`; returns its
/// report.
fn timed_sim(
    h: &mut Harness,
    name: &str,
    vcus: usize,
    jobs: &[JobSpec],
    placement: PlacementMode,
    saturated: bool,
) -> ClusterReport {
    let n_jobs = jobs.len() as u64;
    // bench_reps closures are Fn + Sync (they may fan out across the
    // pool), so the result slot sits behind a lock.
    let slot = std::sync::Mutex::new(None);
    let r = h.bench_reps(name, Some(n_jobs), 1, || {
        *slot.lock().unwrap() = Some(run_sim(vcus, jobs.to_vec(), placement, saturated))
    });
    println!(
        "  {vcus:>6} VCUs ({name}): {n_jobs} jobs at {:.0} jobs/s",
        r.elems_per_s().unwrap_or(0.0)
    );
    let report: ClusterReport = slot.into_inner().unwrap().expect("bench ran at least once");
    assert_eq!(
        report.completed + report.failed,
        n_jobs,
        "every job must resolve"
    );
    report
}

/// The observable placement behaviour both paths must share exactly.
fn fingerprint(r: &ClusterReport) -> ([u64; 7], &[u64]) {
    (
        [
            r.completed,
            r.failed,
            r.retries,
            r.shed,
            r.sw_decoded_jobs,
            r.sw_encoded_jobs,
            r.sw_full_jobs,
        ],
        &r.attempts_per_worker,
    )
}

/// Placements/sec on a pre-filled fleet: fill ~90% of workers from the
/// front (first-fit shape), then churn release+place pairs cycling
/// through distinct start offsets. Every placement searches past the
/// filled prefix, so the scan path pays O(n) and the index O(log n).
fn placement_churn(h: &mut Harness, vcus: usize, mode: PlacementMode, ops: u64) -> f64 {
    let demand = ResourceDemand {
        millidecode: 500,
        milliencode: 2_000,
        dram_mib: 512,
        host_mcpu: 800,
    };
    let mut s = Scheduler::with_placement(SchedulerKind::MultiDim, vcus, 1, mode);
    let mut placed = Vec::new();
    // Fill until ~90% of the fleet rejects further identical demands.
    let slots_per_worker =
        (ResourceDemand::vcu_capacity().milliencode / demand.milliencode) as usize;
    let fill = vcus * slots_per_worker * 9 / 10;
    for _ in 0..fill {
        match s.place_from(demand, 0, vcus) {
            Some(w) => placed.push(w),
            None => break,
        }
    }
    assert!(!placed.is_empty(), "fill must place at least one job");
    let name = format!(
        "cluster_scale/place_{}_{}",
        match mode {
            PlacementMode::Indexed => "indexed",
            PlacementMode::LinearScan => "linear",
        },
        vcus
    );
    let mut cursor = 0usize;
    let r = h.bench_elements(&name, Some(ops), || {
        let mut last = 0usize;
        for _ in 0..ops {
            let idx = cursor % placed.len();
            let w = placed[idx];
            s.release(w, demand);
            // Start away from the released worker so the search has to
            // cover ground before finding the hole.
            let hole = s
                .place_from(demand, (w + 1) % vcus, vcus)
                .expect("released capacity must be re-placeable");
            placed[idx] = hole;
            cursor += 1;
            last = hole;
        }
        last
    });
    r.elems_per_s().expect("elements set")
}

fn main() {
    let smoke = smoke();
    let (scales, jobs_per_vcu, churn_ops): (&[usize], usize, u64) = if smoke {
        (&[16, 64], 10, 64)
    } else {
        (&[100, 1_000, 10_000], 50, 1_024)
    };
    let mut h = Harness::new();
    let mut speedup_at_max_scale = 0.0;

    println!("placement microbench: ~90% full fleet, release+place churn\n");
    for &vcus in scales {
        let indexed = placement_churn(&mut h, vcus, PlacementMode::Indexed, churn_ops);
        let linear = placement_churn(&mut h, vcus, PlacementMode::LinearScan, churn_ops);
        let speedup = indexed / linear;
        speedup_at_max_scale = speedup;
        println!(
            "  {vcus:>6} VCUs: indexed {:>10.0} placements/s, linear {:>10.0}/s  ({speedup:.1}x)\n",
            indexed, linear
        );
    }

    println!("full simulation: proportional load, both placement paths\n");
    for &vcus in scales {
        let jobs = fleet_jobs(vcus, jobs_per_vcu, 0.9);
        // One timed rep per mode (a whole-sim macro-run), plus the
        // equivalence gate on the reports.
        let mut reports: Vec<ClusterReport> = Vec::new();
        for (tag, mode) in [
            ("indexed", PlacementMode::Indexed),
            ("linear", PlacementMode::LinearScan),
        ] {
            // The linear baseline at full scale is the quadratic
            // collapse this PR removes; cap its timed run so the bench
            // finishes, but keep the gate at every scale it runs.
            if mode == PlacementMode::LinearScan && vcus > 1_000 && !smoke {
                let gate_jobs = fleet_jobs(vcus, 2, 0.9);
                let gn = gate_jobs.len() as u64;
                let mut gate_reports = Vec::new();
                for m in [PlacementMode::Indexed, PlacementMode::LinearScan] {
                    gate_reports.push(run_sim(vcus, gate_jobs.clone(), m, false));
                }
                assert_eq!(
                    fingerprint(&gate_reports[0]),
                    fingerprint(&gate_reports[1]),
                    "placement paths diverged at {vcus} VCUs ({gn} jobs)"
                );
                println!("  {vcus:>6} VCUs: linear full run skipped (gate on {gn} jobs passed)");
                continue;
            }
            let name = format!("cluster_scale/sim_{tag}_{vcus}");
            reports.push(timed_sim(&mut h, &name, vcus, &jobs, mode, false));
        }
        if reports.len() == 2 {
            assert_eq!(
                fingerprint(&reports[0]),
                fingerprint(&reports[1]),
                "placement paths diverged at {vcus} VCUs"
            );
        }
        println!();
    }

    println!("saturated simulation: 1.3x offered load, ladder armed\n");
    let vcus = if smoke { 64 } else { 1_000 };
    // Four times the jobs of the runs above: the backlog has to
    // outgrow the miss cap and hold long enough for the ladder to move.
    let jobs = fleet_jobs(vcus, 4 * jobs_per_vcu, 1.3);
    let name = format!("cluster_scale/sim_saturated_{vcus}");
    let indexed = timed_sim(&mut h, &name, vcus, &jobs, PlacementMode::Indexed, true);
    let deepest = indexed.samples.iter().map(|s| s.queued).max().unwrap_or(0);
    assert!(
        deepest >= 48,
        "the queue must outgrow the miss cap: {deepest}"
    );
    assert!(
        indexed.degrade_time_frac[0] < 1.0,
        "1.3x load must move the ladder"
    );
    let linear = run_sim(vcus, jobs, PlacementMode::LinearScan, true);
    assert_eq!(
        fingerprint(&indexed),
        fingerprint(&linear),
        "placement paths diverged on the saturated {vcus}-VCU run"
    );
    println!();

    if !smoke {
        assert!(
            speedup_at_max_scale >= 10.0,
            "index must be >=10x the linear scan at {} VCUs, got {speedup_at_max_scale:.1}x",
            scales.last().unwrap()
        );
    }

    h.write_json(&output_path("bench_cluster_scale"))
        .expect("write bench json");
}
