//! Determinism regression tests: the whole pipeline — traffic
//! generation through cluster simulation to the TCO summary — must be
//! bit-stable for a fixed seed. Every randomness source is the
//! vendored `vcu-rng` stream, so two runs with the same seed produce
//! byte-identical reports, and different seeds genuinely differ.
//!
//! The simulators are also pinned *across commits*: the tests that
//! already compute a report, a telemetry snapshot or a campaign's cells
//! compare its FNV-1a64 (the function `tests/golden.rs` uses) against a
//! constant. A refactor must leave every constant alone; a deliberate
//! behaviour change re-captures them and says so, as for the golden
//! bitstreams.

use vcu_chip::faults::checksum as fnv1a64;
use vcu_chip::{System, WorkloadShape};
use vcu_cluster::tco::{perf_per_tco_normalized, system_tco};
use vcu_cluster::{
    uniform_stream, ClusterConfig, ClusterReport, ClusterSim, FaultInjection, FaultKind, JobSpec,
    PlacementMode,
};
use vcu_codec::Profile;
use vcu_system::platform::jobs_for_all;
use vcu_telemetry::Registry;
use vcu_workloads::UploadTraffic;

/// Seeded workload: expand an upload-traffic stream through the
/// platform into cluster jobs.
fn jobs_for_seed(seed: u64) -> Vec<JobSpec> {
    let reqs = UploadTraffic::new(1.5, seed).generate(120.0);
    jobs_for_all(&reqs)
}

/// One full simulation with corruption in play, so the detection
/// coin-flips (the simulator's only runtime randomness) matter.
fn run(seed: u64) -> ClusterReport {
    let cfg = ClusterConfig {
        vcus: 6,
        detection_rate: 0.6,
        seed,
        ..ClusterConfig::default()
    };
    let faults = vec![FaultInjection {
        time_s: 5.0,
        worker: 1,
        kind: FaultKind::SilentCorruption,
    }];
    ClusterSim::new(cfg, jobs_for_seed(seed), faults).run()
}

/// Same simulation with a telemetry registry attached; returns the
/// serialized snapshot so determinism can be checked at the byte level.
fn snapshot(seed: u64) -> String {
    let reg = Registry::new();
    let cfg = ClusterConfig {
        vcus: 6,
        detection_rate: 0.6,
        seed,
        ..ClusterConfig::default()
    };
    let faults = vec![FaultInjection {
        time_s: 5.0,
        worker: 1,
        kind: FaultKind::SilentCorruption,
    }];
    ClusterSim::new(cfg, jobs_for_seed(seed), faults)
        .with_telemetry(reg.clone())
        .run();
    reg.snapshot_json(&[("seed", &seed.to_string())])
}

/// Bit-exact image of a report: per-sample fields (f64 bits), attempts
/// per worker, and total output Mpix (f64 bits).
type Trace = (Vec<(u64, u64, u64, u64, u64)>, Vec<u64>, u64);

/// The full job-completion trace and TCO summary of a report, as
/// comparable values. Floats are compared bit-exactly: determinism
/// here means *byte-identical*, not approximately equal.
fn trace(r: &ClusterReport) -> Trace {
    let samples = r
        .samples
        .iter()
        .map(|s| {
            (
                s.time_s.to_bits(),
                s.encode_util.to_bits(),
                s.decode_util.to_bits(),
                s.mpix_s_per_vcu.to_bits(),
                s.queued as u64,
            )
        })
        .collect();
    (
        samples,
        r.attempts_per_worker.clone(),
        r.total_output_mpix.to_bits(),
    )
}

#[test]
fn same_seed_is_byte_identical() {
    let a = run(42);
    let b = run(42);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.failed, b.failed);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.escaped_corruptions, b.escaped_corruptions);
    assert_eq!(a.caught_corruptions, b.caught_corruptions);
    assert_eq!(a.sw_decoded_jobs, b.sw_decoded_jobs);
    assert_eq!(
        trace(&a),
        trace(&b),
        "job-completion traces must be identical"
    );
    assert_eq!(
        fnv1a64(format!("{a:?}").as_bytes()),
        0xE5C0E9FDC6F729CF,
        "seed-42 faulted report drifted from the pinned run"
    );
    assert_eq!(
        a.mean_wait_s.to_bits(),
        b.mean_wait_s.to_bits(),
        "mean wait must be bit-identical"
    );
    assert_eq!(
        a.mean_vcus_per_video.to_bits(),
        b.mean_vcus_per_video.to_bits()
    );
    // TCO summary over the same fleet: identical inputs, identical
    // dollars and perf/TCO.
    let sys = System::VcuHost { vcus: 6 };
    let t1 = system_tco(sys);
    let t2 = system_tco(sys);
    assert_eq!(t1.total().to_bits(), t2.total().to_bits());
    let p1 = perf_per_tco_normalized(sys, Profile::Vp9Sim, WorkloadShape::SotTwoPass).unwrap();
    let p2 = perf_per_tco_normalized(sys, Profile::Vp9Sim, WorkloadShape::SotTwoPass).unwrap();
    assert_eq!(
        p1.to_bits(),
        p2.to_bits(),
        "TCO summary must be bit-identical"
    );
}

#[test]
fn different_seeds_differ() {
    let a = run(42);
    let b = run(43);
    // Different seeds generate different traffic and different
    // detection outcomes; the traces cannot coincide.
    assert_ne!(
        trace(&a),
        trace(&b),
        "different seeds must produce different traces"
    );
}

#[test]
fn telemetry_snapshot_is_byte_identical_for_same_seed() {
    let a = snapshot(42);
    let b = snapshot(42);
    assert_eq!(a, b, "same-seed telemetry snapshots must be byte-identical");
    assert_eq!(
        fnv1a64(a.as_bytes()),
        0xC767FF0775E7D478,
        "seed-42 telemetry snapshot drifted from the pinned bytes"
    );
    // The snapshot is substantive, not vacuously equal: it carries
    // counters, utilization series, and fault events from the run.
    assert!(a.contains("\"cluster.jobs.completed\""));
    assert!(a.contains("\"cluster.util.decode\""));
    assert!(a.contains("\"cluster.fault.silent_corruption\""));
}

#[test]
fn telemetry_snapshot_diverges_across_seeds() {
    // Strip the meta block (it embeds the seed label) before comparing,
    // so divergence has to come from the recorded metrics themselves.
    let body = |s: String| {
        s.split_once("\"counters\"")
            .map(|(_, b)| b.to_owned())
            .unwrap()
    };
    let a = body(snapshot(42));
    let b = body(snapshot(43));
    assert_ne!(a, b, "different seeds must produce different telemetry");
}

#[test]
fn attaching_telemetry_does_not_perturb_the_simulation() {
    let plain = run(42);
    let cfg = ClusterConfig {
        vcus: 6,
        detection_rate: 0.6,
        seed: 42,
        ..ClusterConfig::default()
    };
    let faults = vec![FaultInjection {
        time_s: 5.0,
        worker: 1,
        kind: FaultKind::SilentCorruption,
    }];
    let traced = ClusterSim::new(cfg, jobs_for_seed(42), faults)
        .with_telemetry(Registry::new())
        .run();
    assert_eq!(
        trace(&plain),
        trace(&traced),
        "observation must not change the run"
    );
    assert_eq!(plain.completed, traced.completed);
    assert_eq!(plain.retries, traced.retries);
}

#[test]
fn warehouse_scale_run_is_byte_identical() {
    // The tentpole scale: 10,000 VCUs through the O(log n) availability
    // index must stay exactly as deterministic as the 6-VCU runs above
    // — and exactly as deterministic as the linear-scan oracle, since
    // first-fit order is observable behaviour.
    use vcu_cluster::Priority;
    use vcu_codec::Profile as P;
    use vcu_media::Resolution;

    let jobs: Vec<JobSpec> = (0..30_000)
        .map(|i| JobSpec {
            arrival_s: i as f64 * 0.001,
            job: vcu_chip::TranscodeJob::mot(Resolution::R1080, P::Vp9Sim, 30.0, 5.0),
            priority: match i % 10 {
                0 => Priority::Critical,
                9 => Priority::Batch,
                _ => Priority::Normal,
            },
            video_id: (i / 4) as u64,
        })
        .collect();
    let run = |placement: PlacementMode| {
        let cfg = ClusterConfig {
            vcus: 10_000,
            placement,
            detection_rate: 0.6,
            seed: 42,
            ..ClusterConfig::default()
        };
        let faults = vec![FaultInjection {
            time_s: 5.0,
            worker: 17,
            kind: FaultKind::SilentCorruption,
        }];
        ClusterSim::new(cfg, jobs.clone(), faults).run()
    };
    let a = run(PlacementMode::Indexed);
    let b = run(PlacementMode::Indexed);
    assert_eq!(trace(&a), trace(&b), "10k-VCU runs must be byte-identical");
    assert_eq!(a.mean_wait_s.to_bits(), b.mean_wait_s.to_bits());
    let c = run(PlacementMode::LinearScan);
    assert_eq!(a.completed, c.completed);
    assert_eq!(a.failed, c.failed);
    assert_eq!(a.retries, c.retries);
    assert_eq!(
        trace(&a),
        trace(&c),
        "index and linear oracle must agree at warehouse scale"
    );
}

/// First-fit order is observable behaviour, so the O(log n)
/// availability index and the linear-scan oracle must produce the same
/// run, whole report: 1080p MOT chunks holding the fleet at 90 % of
/// its slots at 16, 64 and 1,000 VCUs (first-fit from worker 0 pools
/// the free capacity at the high indices, where a scan pays O(n) per
/// placement), and 64 VCUs offered 1.3× what they carry with the
/// ladder armed, where nearly every scheduling pass ends on the
/// head-of-line miss cap.
#[test]
fn placement_index_and_linear_oracle_agree_on_whole_reports() {
    use vcu_cluster::{slots_per_worker, DegradePolicy};
    use vcu_media::Resolution;

    let job = vcu_chip::TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0);
    let run = |vcus: usize, jobs_per_vcu: usize, load: f64, placement| {
        let saturated = load > 1.0;
        let in_flight = vcus as f64 * slots_per_worker(&job) as f64 * load;
        let total = vcus * jobs_per_vcu;
        let span_s = total as f64 * job.duration_s / in_flight;
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
        let jobs = uniform_stream(std::slice::from_ref(&job), total, span_s);
        let r = ClusterSim::new(cfg, jobs, vec![]).run();
        assert_eq!(r.completed + r.failed, total as u64, "every job resolves");
        r
    };
    for (vcus, jobs_per_vcu, load) in [
        (16, 50, 0.9),
        (64, 50, 0.9),
        (1_000, 50, 0.9),
        (64, 200, 1.3),
    ] {
        let indexed = run(vcus, jobs_per_vcu, load, PlacementMode::Indexed);
        if load > 1.0 {
            let deepest = indexed.samples.iter().map(|s| s.queued).max().unwrap_or(0);
            assert!(
                deepest >= 48,
                "the queue must outgrow the miss cap: {deepest}"
            );
            assert!(
                indexed.degrade_time_frac[0] < 1.0,
                "{load}x load must move the ladder"
            );
        }
        let linear = run(vcus, jobs_per_vcu, load, PlacementMode::LinearScan);
        // Not `assert_eq!`: a failure would print two whole reports.
        let (a, b) = (format!("{indexed:?}"), format!("{linear:?}"));
        let at = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
        let near = |s: &str| s[at.saturating_sub(60)..s.len().min(at + 60)].to_owned();
        assert!(
            a == b,
            "placement paths diverged at {vcus} VCUs, {load}x load, byte {at}:\n indexed …{}…\n linear  …{}…",
            near(&a),
            near(&b)
        );
    }
}

/// Every §4.4 mechanism in one small pinned run: the fault set
/// `examples/chaos.rs` injects (all six fault kinds, two field repairs)
/// against an overloaded fleet, with jittered retry backoff, periodic
/// golden screening, an armed degradation ladder, opportunistic
/// software decode and consistent-hash placement all live. The report
/// and the telemetry snapshot are pinned across commits; the asserts
/// before the hashes prove the run still reaches the paths it is there
/// to pin.
#[test]
fn chaos_run_is_pinned() {
    use vcu_cluster::{DegradePolicy, HealthPolicy, Priority, RetryPolicy, WatchdogPolicy};
    use vcu_media::Resolution;

    let jobs: Vec<JobSpec> = (0..600)
        .map(|i| JobSpec {
            arrival_s: i as f64 * 0.05,
            job: if i % 2 == 0 {
                vcu_chip::TranscodeJob::sot(
                    Resolution::R2160,
                    Resolution::R240,
                    Profile::Vp9Sim,
                    30.0,
                    5.0,
                )
            } else {
                vcu_chip::TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0)
            },
            priority: match i % 4 {
                0 => Priority::Critical,
                3 => Priority::Batch,
                _ => Priority::Normal,
            },
            video_id: (i / 4) as u64,
        })
        .collect();
    let fault = |time_s, worker, kind| FaultInjection {
        time_s,
        worker,
        kind,
    };
    let faults = vec![
        fault(5.0, 0, FaultKind::SilentCorruption),
        fault(10.0, 1, FaultKind::FirmwareHang),
        fault(15.0, 2, FaultKind::SlowCore { factor_pct: 1600 }),
        fault(
            20.0,
            3,
            FaultKind::EccStorm {
                correctable_per_tick: 200,
            },
        ),
        fault(25.0, 4, FaultKind::CrashLoop),
        fault(30.0, 5, FaultKind::Dead),
        fault(70.0, 1, FaultKind::Repair),
        fault(90.0, 5, FaultKind::Repair),
    ];
    let cfg = ClusterConfig {
        vcus: 8,
        detection_rate: 0.7,
        opportunistic_sw_decode: true,
        consistent_hash_window: 5,
        retry: RetryPolicy {
            base_s: 2.0,
            jitter_frac: 0.1,
        },
        watchdog: WatchdogPolicy {
            grace_s: 5.0,
            service_factor: 4.0,
        },
        health: HealthPolicy {
            max_recoveries: 1,
            golden_period_s: 30.0,
        },
        degrade: DegradePolicy {
            enabled: true,
            backlog_per_worker: [1.0, 2.0, 4.0],
        },
        sample_period_s: 10.0,
        seed: 11,
        ..ClusterConfig::default()
    };
    let reg = Registry::new();
    let r = ClusterSim::new(cfg, jobs, faults)
        .with_telemetry(reg.clone())
        .run();
    assert_eq!(r.completed + r.failed, 600);
    assert_eq!(r.repairs, 2);
    assert!(r.watchdog_fired > 0 && r.crash_aborts > 0 && r.retries > 0);
    assert!(r.caught_corruptions > 0 && r.quarantined_workers > 0);
    assert!(r.shed > 0 && r.sw_decoded_jobs > 0 && r.sw_encoded_jobs > 0 && r.sw_full_jobs > 0);
    assert!(r.degrade_time_frac.iter().all(|&f| f > 0.0));
    assert_eq!(
        fnv1a64(format!("{r:?}").as_bytes()),
        0xDCC88323EBD83067,
        "chaos report drifted from the pinned run"
    );
    assert_eq!(
        fnv1a64(reg.snapshot_json(&[]).as_bytes()),
        0xE01BCC617EFA50A4,
        "chaos telemetry snapshot drifted from the pinned bytes"
    );
}

/// The regime the DSE sweep, the planet and the serve campaign live
/// in: the DSE four-shape job mix (live 1080p one-pass → Critical,
/// decode-bound 4K60→360p and 4K30 MOT → Normal, 1080p MOT → Batch)
/// offered at ~1.3× what a 12-VCU fleet can carry on its most-loaded
/// dimension, with faults and a repair, an armed ladder, opportunistic
/// software decode and jittered backoff. Nearly every scheduling pass
/// of this run ends on the head-of-line miss cap. Returns the report
/// and the telemetry snapshot, which first-fit order makes the same
/// under either `placement`.
fn saturated_mix_run(
    consistent_hash_window: usize,
    placement: PlacementMode,
) -> (ClusterReport, String) {
    use vcu_chip::{ResourceDemand, TranscodeJob, VcuModel};
    use vcu_cluster::{DegradePolicy, RetryPolicy};
    use vcu_media::Resolution;

    const VCUS: usize = 12;
    const JOBS: usize = 1920;
    const OFFERED_LOAD: f64 = 1.3;
    let mix = [
        TranscodeJob::sot(
            Resolution::R1080,
            Resolution::R1080,
            Profile::Vp9Sim,
            30.0,
            2.0,
        )
        .low_latency(),
        TranscodeJob::sot(
            Resolution::R2160,
            Resolution::R360,
            Profile::Vp9Sim,
            60.0,
            12.0,
        ),
        TranscodeJob::mot(Resolution::R2160, Profile::Vp9Sim, 30.0, 5.0),
        TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0),
    ];
    // VCU-seconds one pass through the mix puts on the most-loaded
    // scheduler dimension; the arrival span follows from the load.
    let cap = ResourceDemand::vcu_capacity();
    let model = VcuModel::new();
    let mut work = [0.0f64; 4];
    for job in &mix {
        let d = model.job_demand(job);
        work[0] += job.duration_s * d.millidecode as f64 / cap.millidecode as f64;
        work[1] += job.duration_s * d.milliencode as f64 / cap.milliencode as f64;
        work[2] += job.duration_s * d.dram_mib as f64 / cap.dram_mib as f64;
        work[3] += job.duration_s * d.host_mcpu as f64 / cap.host_mcpu as f64;
    }
    let busiest = work.iter().cloned().fold(0.0, f64::max);
    let span_s = (JOBS / VCUS) as f64 * busiest / (mix.len() as f64 * OFFERED_LOAD);
    let jobs = uniform_stream(&mix, JOBS, span_s);
    let fault = |time_s, worker, kind| FaultInjection {
        time_s,
        worker,
        kind,
    };
    let faults = vec![
        fault(8.0, 2, FaultKind::Dead),
        fault(12.0, 5, FaultKind::SilentCorruption),
        fault(16.0, 7, FaultKind::CrashLoop),
        fault(20.0, 9, FaultKind::FirmwareHang),
        fault(0.6 * span_s, 2, FaultKind::Repair),
    ];
    let cfg = ClusterConfig {
        vcus: VCUS,
        placement,
        detection_rate: 0.9,
        opportunistic_sw_decode: true,
        consistent_hash_window,
        retry: RetryPolicy {
            base_s: 2.0,
            jitter_frac: 0.1,
        },
        degrade: DegradePolicy {
            enabled: true,
            backlog_per_worker: [2.0, 4.0, 8.0],
        },
        sample_period_s: 5.0,
        seed: 15,
        ..ClusterConfig::default()
    };
    let reg = Registry::new();
    let r = ClusterSim::new(cfg, jobs, faults)
        .with_telemetry(reg.clone())
        .run();
    assert_eq!(r.completed + r.failed, JOBS as u64);
    assert_eq!(r.repairs, 1);
    let deepest = r.samples.iter().map(|s| s.queued).max().unwrap_or(0);
    assert!(
        deepest >= 48,
        "the queue must outgrow the miss cap: {deepest}"
    );
    let rungs = r.degrade_time_frac.iter().filter(|&&f| f > 0.0).count();
    assert!(
        rungs >= 2,
        "the ladder must move: {:?}",
        r.degrade_time_frac
    );
    assert!(r.shed > 0, "the top rung must shed Batch work");
    (r, reg.snapshot_json(&[]))
}

/// Asserts the saturated run's two pins under both placement modes.
fn assert_saturated_pins(consistent_hash_window: usize, report: u64, snapshot: u64) {
    for placement in [PlacementMode::Indexed, PlacementMode::LinearScan] {
        let (r, snap) = saturated_mix_run(consistent_hash_window, placement);
        assert_eq!(
            fnv1a64(format!("{r:?}").as_bytes()),
            report,
            "saturated report drifted from the pinned run ({placement:?})"
        );
        assert_eq!(
            fnv1a64(snap.as_bytes()),
            snapshot,
            "saturated telemetry snapshot drifted from the pinned bytes ({placement:?})"
        );
    }
}

#[test]
fn saturated_mix_run_is_pinned() {
    assert_saturated_pins(0, 0x8EFDD5E7704C9127, 0x47A9DE4700AECDBE);
}

/// The same run with consistent-hash placement: bounded windows are
/// the queries the blocked-demand memo must not generalise over.
#[test]
fn saturated_mix_run_with_hash_windows_is_pinned() {
    assert_saturated_pins(5, 0xCA2281DE6D314EB9, 0x04A80B725AEB0B9A);
}

/// Wide blast radius under periodic screening: 64 VCUs with
/// consistent-hash placement off, 48-chunk videos offered faster than
/// the fleet drains them (so a video's chunks land wherever capacity
/// frees and its set of touching workers passes 32), and a golden
/// screen every 10 s that meets one worker of each kind — a corruptor
/// it quarantines, a hung core a functional reset cures, a dead worker
/// it must skip, a crash-looping core. The asserts before the hashes
/// prove those outcomes; the snapshot carries the blast-radius series,
/// so the mean is pinned sample by sample.
#[test]
fn wide_blast_radius_under_periodic_screening_is_pinned() {
    use vcu_cluster::{HealthPolicy, Priority};
    use vcu_media::Resolution;

    const VIDEOS: usize = 32;
    const CHUNKS: usize = 48;
    let jobs: Vec<JobSpec> = (0..VIDEOS * CHUNKS)
        .map(|i| JobSpec {
            arrival_s: i as f64 * 0.03,
            job: vcu_chip::TranscodeJob::mot(
                Resolution::R2160,
                Profile::Vp9Sim,
                60.0,
                [4.0, 5.0, 6.5][i % 3],
            ),
            priority: Priority::Normal,
            video_id: (i / CHUNKS) as u64,
        })
        .collect();
    let fault = |time_s, worker, kind| FaultInjection {
        time_s,
        worker,
        kind,
    };
    let (corruptor, hung, dead, looping) = (3, 5, 9, 7);
    let faults = vec![
        fault(12.0, hung, FaultKind::FirmwareHang),
        fault(15.0, dead, FaultKind::Dead),
        // Lands between a screen and the first completion a corrupting
        // core could report: only the 20 s screen can catch it.
        fault(19.5, corruptor, FaultKind::SilentCorruption),
        fault(25.0, looping, FaultKind::CrashLoop),
        fault(45.0, dead, FaultKind::Repair),
    ];
    let cfg = ClusterConfig {
        vcus: 64,
        consistent_hash_window: 0,
        health: HealthPolicy {
            golden_period_s: 10.0,
            ..HealthPolicy::default()
        },
        sample_period_s: 5.0,
        seed: 22,
        ..ClusterConfig::default()
    };
    let reg = Registry::new();
    let r = ClusterSim::new(cfg, jobs, faults)
        .with_telemetry(reg.clone())
        .run();
    assert_eq!(r.completed + r.failed, (VIDEOS * CHUNKS) as u64);
    assert_eq!(r.repairs, 1);
    assert!(
        r.mean_vcus_per_video > 32.0,
        "blast-radius sets must pass 32 workers: {}",
        r.mean_vcus_per_video
    );
    let quarantines = reg.events_named("cluster.quarantine");
    let quarantined_at = |w: u32| {
        let of_w = |e: &&vcu_telemetry::TraceEvent| e.scope.vcu == Some(w);
        quarantines.iter().find(of_w).map(|e| e.start_s)
    };
    assert_eq!(
        quarantined_at(corruptor as u32),
        Some(20.0),
        "the periodic screen, not an integrity check, finds the corruptor"
    );
    assert_eq!(
        reg.counter("cluster.screen.reset_recovered"),
        1,
        "a functional reset cures the hung core"
    );
    assert_eq!(
        quarantined_at(dead as u32),
        None,
        "an unusable worker is not screened"
    );
    assert!(quarantined_at(looping as u32).is_some());
    let series = reg
        .series("cluster.blast_radius.mean_vcus_per_video")
        .expect("series recorded");
    assert_eq!(series.len(), r.samples.len());
    assert_eq!(
        fnv1a64(format!("{r:?}").as_bytes()),
        0x57C909682BBC3654,
        "wide-blast-radius report drifted from the pinned run"
    );
    assert_eq!(
        fnv1a64(reg.snapshot_json(&[]).as_bytes()),
        0x449A0F9C1B09C379,
        "wide-blast-radius telemetry snapshot drifted from the pinned bytes"
    );
}

/// A small faulted cluster for the two event-order pins below: every
/// recurring event sits on whole seconds (samples every 5 s, golden
/// screens every 10 s, unjittered 1 s retry backoff, watchdog deadlines
/// `2 + 2 × duration`), so arrivals on whole seconds tie with all of
/// them and the `(time, seq)` tie-break decides the run.
fn tie_heavy_cluster() -> (ClusterConfig, Vec<FaultInjection>) {
    use vcu_cluster::{HealthPolicy, RetryPolicy, WatchdogPolicy};
    let cfg = ClusterConfig {
        vcus: 6,
        detection_rate: 0.7,
        retry: RetryPolicy {
            base_s: 1.0,
            ..RetryPolicy::default()
        },
        watchdog: WatchdogPolicy {
            grace_s: 2.0,
            service_factor: 2.0,
        },
        health: HealthPolicy {
            golden_period_s: 10.0,
            ..HealthPolicy::default()
        },
        sample_period_s: 5.0,
        seed: 16,
        ..ClusterConfig::default()
    };
    let fault = |time_s, worker, kind| FaultInjection {
        time_s,
        worker,
        kind,
    };
    let faults = vec![
        fault(5.0, 1, FaultKind::SilentCorruption),
        fault(11.0, 2, FaultKind::FirmwareHang),
        fault(15.0, 3, FaultKind::Dead),
        fault(21.0, 4, FaultKind::CrashLoop),
        fault(35.0, 3, FaultKind::Repair),
    ];
    (cfg, faults)
}

/// Job `i` of the tie-heavy pins: three shapes with three service times
/// (so watchdog deadlines are not monotone in placement order) over the
/// three priority classes.
fn tie_heavy_job(i: usize, arrival_s: f64) -> JobSpec {
    use vcu_chip::TranscodeJob;
    use vcu_cluster::Priority;
    use vcu_media::Resolution;
    JobSpec {
        arrival_s,
        job: match i % 3 {
            0 => TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0),
            1 => TranscodeJob::sot(
                Resolution::R1080,
                Resolution::R720,
                Profile::Vp9Sim,
                30.0,
                2.0,
            ),
            _ => TranscodeJob::mot(Resolution::R2160, Profile::Vp9Sim, 30.0, 10.0),
        },
        priority: match i % 5 {
            0 => Priority::Critical,
            4 => Priority::Batch,
            _ => Priority::Normal,
        },
        video_id: (i / 4) as u64,
    }
}

/// A batch job vector that is *not* sorted by arrival: whole-second
/// arrival times, each held by several jobs far apart in the vector,
/// colliding with samples, golden screens, faults, completions,
/// watchdog deadlines and backoff retries. Arrivals at one instant run
/// in vector order, before every other event of that instant. The vector
/// also holds a `-0.0` arrival behind a `0.0` one: the queue has always
/// ordered times by `f64::total_cmp`, under which `-0.0` is earlier.
#[test]
fn unsorted_batch_arrivals_with_time_ties_are_pinned() {
    const JOBS: usize = 360;
    let mut jobs: Vec<JobSpec> = (0..JOBS)
        .map(|i| tie_heavy_job(i, ((i * 7) % 45) as f64))
        .collect();
    jobs[45].arrival_s = -0.0;
    assert_eq!(jobs[0].arrival_s.to_bits(), 0.0f64.to_bits());
    assert!(jobs.windows(2).any(|w| w[0].arrival_s > w[1].arrival_s));
    let (cfg, faults) = tie_heavy_cluster();
    let reg = Registry::new();
    let r = ClusterSim::new(cfg, jobs, faults)
        .with_telemetry(reg.clone())
        .run();
    assert_eq!(r.completed + r.failed, JOBS as u64);
    assert_eq!(r.repairs, 1);
    assert!(r.watchdog_fired > 0 && r.crash_aborts > 0 && r.retries > 0);
    assert!(r.caught_corruptions > 0);
    let deepest = r.samples.iter().map(|s| s.queued).max().unwrap_or(0);
    assert!(deepest > 0, "arrivals must queue behind one another");
    assert_eq!(
        fnv1a64(format!("{r:?}").as_bytes()),
        0x5CA5F2BC64455A29,
        "unsorted-batch report drifted from the pinned run"
    );
    assert_eq!(
        fnv1a64(reg.snapshot_json(&[]).as_bytes()),
        0xEB78BAD6F8762A61,
        "unsorted-batch telemetry snapshot drifted from the pinned bytes"
    );
}

/// A simulator built over a batch job vector, switched to open-world
/// mode, then fed `inject_job` arrivals between `run_until` epochs:
/// earlier than batch arrivals still to come, equal to pending arrival,
/// sample, fault, completion and golden-screen times, and three times
/// out of order (a later injection with an earlier time). A batch
/// arrival beats an injected one at the same instant; injected ones run
/// in injection order. The resolution log (order included), the report
/// and the telemetry snapshot are pinned.
#[test]
fn open_world_injection_over_a_batch_vector_is_pinned() {
    const BATCH: usize = 180;
    let batch: Vec<JobSpec> = (0..BATCH)
        .map(|i| tie_heavy_job(i, (i / 6) as f64 * 1.5))
        .collect();
    let (cfg, faults) = tie_heavy_cluster();
    let reg = Registry::new();
    let mut sim = ClusterSim::new(cfg, batch, faults)
        .open_world()
        .with_telemetry(reg.clone());
    // (advance to, arrival times injected there, in this order).
    let epochs: [(f64, &[f64]); 5] = [
        // 3.0 = now and a handled batch arrival; 4.5 and 6.0 = batch
        // arrivals to come; 3.5 is earlier than both and out of order;
        // 5.0 = the first sample and the first fault; 8.0 = a pending
        // completion (the 5 s job placed at 3.0).
        (3.0, &[3.0, 4.5, 6.0, 3.5, 5.0, 8.0]),
        // 10.0 = sample + golden screen + fault, injected twice.
        (9.0, &[10.0, 10.0, 9.0, 12.0, 12.0]),
        (20.0, &[20.0, 26.0, 25.0, 25.0, 30.0, 44.5]),
        // Past the last batch arrival (43.5): the queue alone.
        (50.0, &[50.0, 50.0, 55.0, 52.5, 60.0]),
        (70.0, &[]),
    ];
    let mut injected = 0;
    let mut resolutions = Vec::new();
    for (t, arrivals) in epochs {
        sim.run_until(t);
        assert!(sim.now() <= t);
        resolutions.extend(sim.drain_resolutions());
        for &arrival_s in arrivals {
            let j = sim.inject_job(tie_heavy_job(injected, arrival_s));
            assert_eq!(j, BATCH + injected);
            injected += 1;
        }
    }
    while sim.unresolved_jobs() > 0 {
        assert!(sim.step(), "queue exhausted with jobs outstanding");
    }
    resolutions.extend(sim.drain_resolutions());
    let r = sim.finish();
    assert_eq!(injected, 22);
    assert_eq!(r.completed + r.failed, (BATCH + injected) as u64);
    assert_eq!(resolutions.len(), BATCH + injected);
    assert!(r.watchdog_fired > 0 && r.retries > 0);
    assert_eq!(
        fnv1a64(format!("{resolutions:?}").as_bytes()),
        0x5D00BB9E68B65887,
        "open-world resolution log drifted from the pinned run"
    );
    assert_eq!(
        fnv1a64(format!("{r:?}").as_bytes()),
        0xA43F55DC25044904,
        "open-world report drifted from the pinned run"
    );
    assert_eq!(
        fnv1a64(reg.snapshot_json(&[]).as_bytes()),
        0x026DC9C40C192AF5,
        "open-world telemetry snapshot drifted from the pinned bytes"
    );
}

/// An open world fed three job shapes interleaved A,A,B,A,C,B,… — a
/// 1080p MOT of 5 s, a 720p MOT of 10 s and a one-pass 1080p→480p SOT
/// of 5 s (A's length, another ladder) — so equal shapes both follow
/// one another and alternate, injected an epoch at a time between
/// `run_until` calls. The ladder is armed and a slow core, a corruptor
/// and a hung core (repaired later) are in the fleet, so attempts end
/// at the nominal service time, at 1.5× it, at 0.2× it and at the
/// software rungs' multiples of it. The asserts before the hashes prove
/// each of those happened.
#[test]
fn interleaved_shapes_in_an_open_world_are_pinned() {
    use vcu_chip::TranscodeJob;
    use vcu_cluster::{DegradePolicy, Priority, RetryPolicy};
    use vcu_media::Resolution;

    const JOBS: usize = 900;
    const EPOCH_S: f64 = 7.5;
    let (slow, corruptor, hung) = (1u32, 4, 6);
    let shapes = [
        TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0),
        TranscodeJob::mot(Resolution::R720, Profile::Vp9Sim, 30.0, 10.0),
        TranscodeJob::sot(
            Resolution::R1080,
            Resolution::R480,
            Profile::H264Sim,
            30.0,
            5.0,
        )
        .low_latency(),
    ];
    let job = |i: usize| JobSpec {
        // Slow, a burst that outruns the fleet, slow again.
        arrival_s: match i {
            0..300 => i as f64 * 0.1,
            300..700 => 30.0 + (i - 300) as f64 * 0.02,
            _ => 38.0 + (i - 700) as f64 * 0.15,
        },
        job: shapes[[0, 0, 1, 0, 2, 1][i % 6]].clone(),
        priority: match i % 4 {
            0 => Priority::Critical,
            3 => Priority::Batch,
            _ => Priority::Normal,
        },
        video_id: (i / 5) as u64,
    };
    let fault = |time_s, worker: u32, kind| FaultInjection {
        time_s,
        worker: worker as usize,
        kind,
    };
    let faults = vec![
        fault(2.0, slow, FaultKind::SlowCore { factor_pct: 150 }),
        fault(6.0, corruptor, FaultKind::SilentCorruption),
        fault(9.0, hung, FaultKind::FirmwareHang),
        fault(55.0, hung, FaultKind::Repair),
    ];
    let cfg = ClusterConfig {
        vcus: 8,
        detection_rate: 0.8,
        blackhole_mitigation: false,
        retry: RetryPolicy {
            base_s: 1.0,
            jitter_frac: 0.1,
        },
        degrade: DegradePolicy {
            enabled: true,
            backlog_per_worker: [1.0, 2.0, 6.0],
        },
        sample_period_s: 2.5,
        seed: 23,
        ..ClusterConfig::default()
    };
    let reg = Registry::new();
    let mut sim = ClusterSim::new(cfg, Vec::new(), faults)
        .open_world()
        .with_telemetry(reg.clone());
    let mut resolutions = Vec::new();
    let mut next = 0;
    let mut t = 0.0;
    while next < JOBS || sim.unresolved_jobs() > 0 {
        t += EPOCH_S;
        while next < JOBS && job(next).arrival_s < t {
            assert_eq!(sim.inject_job(job(next)), next);
            next += 1;
        }
        sim.run_until(t);
        resolutions.extend(sim.drain_resolutions());
    }
    let r = sim.finish();
    assert_eq!(r.completed + r.failed, JOBS as u64);
    assert_eq!(resolutions.len(), JOBS);
    assert_eq!(r.repairs, 1);
    assert!(r.watchdog_fired > 0, "the hung core strands attempts");
    assert!(
        r.caught_corruptions > 0 && r.escaped_corruptions > 0,
        "attempts complete at 0.2x on the corruptor"
    );
    assert!(
        r.sw_encoded_jobs > 0 && r.sw_full_jobs > 0,
        "attempts complete at the software rungs' service times"
    );
    let spans = reg.events_named("cluster.job");
    let on_slow = |e: &vcu_telemetry::TraceEvent| e.scope.vcu == Some(slow) && e.start_s > 2.0;
    assert!(
        spans.iter().any(on_slow),
        "attempts complete at 1.5x on the slow core"
    );
    assert!(
        r.completed
            > r.sw_encoded_jobs
                + r.sw_full_jobs
                + r.attempts_per_worker[slow as usize]
                + r.attempts_per_worker[corruptor as usize],
        "attempts complete at the nominal service time"
    );
    assert_eq!(
        fnv1a64(format!("{resolutions:?}").as_bytes()),
        0x6F96706DBEA2EF87,
        "interleaved-shapes resolution log drifted from the pinned run"
    );
    assert_eq!(
        fnv1a64(format!("{r:?}").as_bytes()),
        0x4425E6FE3BB81736,
        "interleaved-shapes report drifted from the pinned run"
    );
    assert_eq!(
        fnv1a64(reg.snapshot_json(&[]).as_bytes()),
        0x77637B480628DAB7,
        "interleaved-shapes telemetry snapshot drifted from the pinned bytes"
    );
}

#[test]
fn chunk_parallel_encode_honors_vcu_threads_deterministically() {
    // The verify script runs this suite under VCU_THREADS=1 and
    // VCU_THREADS=4: whatever the knob says, chunk-parallel encoding
    // and its telemetry snapshot must be byte-identical. The encoder is
    // the one pipeline stage with real thread parallelism, so this is
    // where scheduling nondeterminism would leak in if it could.
    use vcu_codec::{encode_parallel_traced, EncoderConfig, Qp};
    use vcu_media::synth::{ContentClass, SynthSpec};
    use vcu_media::Resolution;

    let threads = vcu_exec::env_threads();
    let video = SynthSpec::new(Resolution::R144, 8, ContentClass::ugc(), 42).generate();
    let cfg = EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(32)).with_threads(threads);
    let encode_once = || {
        let reg = Registry::new();
        let e = encode_parallel_traced(&cfg, &video, 3, &reg).expect("encode");
        (e, reg.snapshot_json(&[("threads", &threads.to_string())]))
    };
    let (a, snap_a) = encode_once();
    let (b, snap_b) = encode_once();
    assert_eq!(a.bytes, b.bytes, "same-seed encodes must be byte-identical");
    assert_eq!(a.stats, b.stats);
    assert_eq!(snap_a, snap_b, "telemetry snapshots must be byte-identical");
    // The bitstream is also invariant across thread counts, not just
    // across runs: pin against a single-threaded reference encode.
    let seq = vcu_codec::encode_parallel(&cfg.with_threads(1), &video, 3).expect("t1");
    assert_eq!(
        a.bytes, seq.bytes,
        "VCU_THREADS={threads} changed the bitstream"
    );
    // The snapshot is substantive: chunk spans and counters landed.
    assert!(snap_a.contains("codec.chunk.encode"));
    assert!(snap_a.contains("\"codec.chunks\""));
}

/// Every plane `SynthSpec::generate` emits, for each content class at
/// two resolutions plus one custom class whose pan hits the
/// background-margin cap and whose scene cuts rebuild the background
/// twice. The golden rows reach only three classes at 144p.
#[test]
fn synth_clips_are_pinned() {
    use vcu_media::synth::{ContentClass, SynthSpec};
    use vcu_media::Resolution;
    let fast_cuts = ContentClass {
        spatial_detail: 0.6,
        pan_speed: 48.0,
        objects: 10,
        object_speed: 5.0,
        noise_sigma: 3.0,
        scene_cut_period: Some(4),
    };
    let clips = [
        ("screen_content", ContentClass::screen_content()),
        ("talking_head", ContentClass::talking_head()),
        ("ugc", ContentClass::ugc()),
        ("gaming", ContentClass::gaming()),
        ("high_motion", ContentClass::high_motion()),
    ]
    .into_iter()
    .flat_map(|(name, class)| {
        [(Resolution::R144, 8), (Resolution::R240, 4)]
            .map(|(res, frames)| (name, class, res, frames))
    })
    .chain([("fast_cuts", fast_cuts, Resolution::R144, 12)]);
    let got: Vec<(String, u64)> = clips
        .enumerate()
        .map(|(i, (name, class, res, frames))| {
            let video = SynthSpec::new(res, frames, class, 100 + i as u64).generate();
            let planes: Vec<u64> = video
                .frames
                .iter()
                .flat_map(|f| [f.y(), f.u(), f.v()])
                .map(|p| fnv1a64(p.data()))
                .collect();
            (
                format!("{name}@{res}"),
                fnv1a64(format!("{planes:?}").as_bytes()),
            )
        })
        .collect();
    let want: [(&str, u64); 11] = [
        ("screen_content@144p", 12512241244190234929),
        ("screen_content@240p", 6044075069788937841),
        ("talking_head@144p", 14266613468424083682),
        ("talking_head@240p", 2514435083477474353),
        ("ugc@144p", 6636131072018388551),
        ("ugc@240p", 3934339841925134973),
        ("gaming@144p", 10939920033194333217),
        ("gaming@240p", 17247903484548362468),
        ("high_motion@144p", 1304660960017741883),
        ("high_motion@240p", 9725168920069612936),
        ("fast_cuts@144p", 14102636158145628832),
    ];
    let want: Vec<(String, u64)> = want.iter().map(|&(c, h)| (c.to_string(), h)).collect();
    assert_eq!(got, want, "synth clips moved");
}

/// Every job the platform emits, for each workload family and at two
/// resolutions: the per-family priority, the Live/Gaming arrival
/// staggering, and the formats each request fans out to.
/// `UploadTraffic` above reaches only `Upload`.
#[test]
fn platform_jobs_for_every_family_are_pinned() {
    use vcu_media::Resolution;
    use vcu_workloads::{PopularityBucket, Request, WorkloadFamily};
    let mut reqs = Vec::new();
    for (i, family) in [
        WorkloadFamily::Upload,
        WorkloadFamily::Archival,
        WorkloadFamily::Live,
        WorkloadFamily::Gaming,
    ]
    .into_iter()
    .enumerate()
    {
        for (j, (resolution, popularity)) in [
            (Resolution::R720, PopularityBucket::Tail),
            (Resolution::R2160, PopularityBucket::Head),
            (Resolution::R1080, PopularityBucket::Middle),
        ]
        .into_iter()
        .enumerate()
        {
            reqs.push(Request {
                arrival_s: 3.0 * (4 - i) as f64 + 0.5 * j as f64,
                family,
                resolution,
                fps: if j == 1 { 60.0 } else { 30.0 },
                duration_s: 4.0 + 7.5 * j as f64,
                popularity,
            });
        }
    }
    let jobs = jobs_for_all(&reqs);
    assert_eq!(
        fnv1a64(format!("{jobs:?}").as_bytes()),
        5385235699001675223,
        "platform jobs moved"
    );
}

#[test]
fn traffic_generation_is_deterministic() {
    let a = UploadTraffic::new(3.0, 7).generate(200.0);
    let b = UploadTraffic::new(3.0, 7).generate(200.0);
    assert_eq!(a, b);
    let c = UploadTraffic::new(3.0, 8).generate(200.0);
    assert_ne!(a, c, "different traffic seeds must differ");
}

/// The fault campaign is a replayable build product: two same-seed
/// campaigns produce identical cells (which `vcu-bench` renders into
/// the byte-pinned `results/fault_campaign.json`; rendered-bytes
/// identity is asserted there, over this same sweep too), and the seed
/// is load-bearing. The pin hashes the `{:?}` text of the cells, whole
/// cluster reports included, so it moves with the cell's layout.
#[test]
fn fault_campaign_is_deterministic() {
    use vcu_bench::campaign::{Campaign, Fault};
    use vcu_bench::sweeps::FaultCampaignConfig;
    let run_campaign = Fault::RUN;
    let cfg = FaultCampaignConfig {
        vcus: 24,
        jobs_per_vcu: 16,
        seed: 1234,
        fault_rates: vec![0.0, 0.2],
        mttr_s: vec![15.0, f64::INFINITY],
    };
    let a = run_campaign(&cfg);
    assert_eq!(a, run_campaign(&cfg), "same-seed campaigns must agree");
    assert_eq!(
        fnv1a64(format!("{a:?}").as_bytes()),
        0xE98DF6D73024E728,
        "fault-campaign cells drifted from the pinned sweep"
    );
    let c = run_campaign(&FaultCampaignConfig { seed: 4321, ..cfg });
    assert_ne!(a, c, "campaign seed must steer the fault schedule");
}

/// The serve campaign pins like the fault campaign: two same-seed
/// sweeps produce identical cells, the seed is load-bearing, and the
/// result is invariant under the `vcu-exec` pool's thread count.
#[test]
fn serve_campaign_is_deterministic() {
    use vcu_bench::campaign::{Campaign, Serve};
    use vcu_bench::sweeps::{ServeCampaignConfig, ServeCellSpec};
    let run_serve_campaign = Serve::RUN;
    let cfg = ServeCampaignConfig {
        seed: 1234,
        cells: vec![
            ServeCellSpec {
                viewers: 250,
                vcus: 16,
                cache_segments: 128,
                catalog_videos: 150,
                horizon_s: 20.0,
            },
            ServeCellSpec {
                viewers: 250,
                vcus: 16,
                cache_segments: 512,
                catalog_videos: 150,
                horizon_s: 20.0,
            },
        ],
    };
    let a = run_serve_campaign(&cfg);
    assert_eq!(a, run_serve_campaign(&cfg), "same-seed sweeps must agree");
    let c = run_serve_campaign(&ServeCampaignConfig { seed: 4321, ..cfg });
    assert_ne!(a, c, "campaign seed must steer the serving trace");
}

#[test]
fn serve_campaign_is_thread_invariant() {
    // The serve campaign fans cells out at `vcu_exec::env_threads()`
    // parallelism; pin the 1-thread and 4-thread fan-outs against each
    // other directly (the verify script additionally runs this suite
    // under VCU_THREADS=1 and VCU_THREADS=4).
    use vcu_bench::sweeps::{cells, run_serve_cell, ServeCampaignConfig};
    let cfg = ServeCampaignConfig::smoke(77);
    let sweep = |threads: usize| cells(cfg.seed, &cfg.cells, threads, run_serve_cell);
    assert_eq!(
        sweep(1),
        sweep(4),
        "VCU_THREADS must not change the campaign cells"
    );
}

/// The serving telemetry snapshot is part of the replayable artifact:
/// same seed, same bytes — counters, histograms, series, and trace
/// events all ride the DES clock, never the wall clock.
#[test]
fn serve_telemetry_snapshot_is_byte_identical() {
    use vcu_serve::{ServeConfig, ServeSim};
    let snap = |seed: u64| {
        let reg = Registry::new();
        ServeSim::new(ServeConfig {
            viewers: 300,
            horizon_s: 25.0,
            catalog_videos: 200,
            cache_segments: 256,
            vcus: 16,
            seed,
            ..ServeConfig::default()
        })
        .with_telemetry(reg.clone())
        .run();
        reg.snapshot_json(&[("artifact", "serve-determinism")])
    };
    let a = snap(9);
    assert_eq!(a, snap(9), "same-seed snapshots must be byte-identical");
    assert_eq!(
        fnv1a64(a.as_bytes()),
        0x0A5E346715D2414F,
        "serve telemetry snapshot drifted from the pinned bytes"
    );
    assert_ne!(a, snap(10), "seed must steer the snapshot");
    assert!(a.contains("serve.ttff_s"), "TTFF histogram must land");
    assert!(
        a.contains("serve.concurrent"),
        "concurrency series must land"
    );
}

/// The region campaign pins like the fault and serve campaigns: two
/// same-seed sweeps — each running every planet twice for the
/// overflow/isolated counterfactual — produce identical cells, merge
/// digest included, and the seed is load-bearing. The verify script
/// runs this suite under VCU_THREADS=1 and VCU_THREADS=4; every planet
/// advance fans out through the `vcu-exec` pool, so those two runs
/// double as the thread-invariance check.
#[test]
fn region_campaign_is_deterministic() {
    use vcu_bench::campaign::{Campaign, Region};
    use vcu_bench::sweeps::{RegionCampaignConfig, RegionCellSpec};
    let run_region_campaign = Region::RUN;
    let cfg = RegionCampaignConfig {
        seed: 1234,
        horizon_s: 60.0,
        epoch_s: 15.0,
        chunk_s: 10.0,
        util: 0.8,
        amplitude: 0.85,
        cells: vec![RegionCellSpec {
            regions: 2,
            cells_per_region: 2,
            vcus_per_cell: 8,
            traffic_scale: 1.0,
        }],
    };
    let a = run_region_campaign(&cfg);
    assert_eq!(a, run_region_campaign(&cfg), "same-seed sweeps must agree");
    let c = run_region_campaign(&RegionCampaignConfig { seed: 4321, ..cfg });
    assert_ne!(a, c, "campaign seed must steer the planet");
}

/// The region merge digest is order-sensitive, so it pins the merged
/// event order of a tiny two-region planet, not just its aggregates.
#[test]
fn region_merge_order_is_pinned() {
    use vcu_regions::{OverflowPolicy, PlanetConfig, PlanetSim, RegionSpec};
    let cfg = PlanetConfig {
        seed: 77,
        horizon_s: 60.0,
        epoch_s: 15.0,
        period_s: 60.0,
        chunk_s: 10.0,
        traffic_scale: 1.0,
        merge_shards: 1,
        overflow: OverflowPolicy {
            pressure_threshold: 1.0,
            ..OverflowPolicy::default()
        },
        upgrades: true,
        domain_failures: true,
        regions: (0..2)
            .map(|r| RegionSpec {
                name: format!("r{r}"),
                cells: 2,
                vcus_per_cell: 8,
                peak_hour: 6.0 + 12.0 * r as f64,
                mean_rate_per_s: 6.0,
                amplitude: 0.9,
            })
            .collect(),
    };
    assert_eq!(
        PlanetSim::new(cfg).run().merge_digest,
        0xEEDDB01F6F9D339D,
        "tiny planet's merged event order drifted from the pinned run"
    );
}

/// A planet of two regions and three cells (two and one), anti-phased
/// so each region overflows into the other in turn. When region 0 is
/// the hot one, region 1 takes the routed tail of region 0's epoch —
/// times the cross-region RTT past it — *before* its own arrivals of the same
/// epoch, which start back at the epoch's beginning: two injections
/// ahead of one `advance_to`, the second behind the first. The verify
/// script runs this suite at `VCU_THREADS` 1 and 4.
#[test]
fn routed_arrivals_ahead_of_a_regions_own_are_pinned() {
    use vcu_regions::{OverflowPolicy, PlanetConfig, PlanetSim, RegionSpec};
    let cfg = PlanetConfig {
        seed: 23,
        horizon_s: 90.0,
        epoch_s: 15.0,
        period_s: 90.0,
        chunk_s: 10.0,
        traffic_scale: 1.0,
        merge_shards: 1,
        overflow: OverflowPolicy {
            pressure_threshold: 1.0,
            ..OverflowPolicy::default()
        },
        upgrades: true,
        domain_failures: true,
        regions: [(2, 6.0), (1, 18.0)]
            .into_iter()
            .enumerate()
            .map(|(r, (cells, peak_hour))| RegionSpec {
                name: format!("r{r}"),
                cells,
                vcus_per_cell: 8,
                peak_hour,
                mean_rate_per_s: 5.0 * cells as f64,
                amplitude: 0.9,
            })
            .collect(),
    };
    let planet = PlanetSim::new(cfg).run();
    let [r0, r1] = &planet.regions[..] else {
        panic!("two regions");
    };
    assert!(
        r1.routed_in > 0 && r1.routed_in == r0.routed_out,
        "region 0 must overflow into region 1, ahead of region 1's own arrivals"
    );
    assert!(
        r0.routed_in > 0 && r0.routed_in == r1.routed_out,
        "region 1 must overflow into region 0, behind region 0's own arrivals"
    );
    assert_eq!(planet.routed_jobs, r0.routed_in + r1.routed_in);
    assert_eq!(
        planet.completed + planet.regions.iter().map(|r| r.failed).sum::<u64>(),
        planet.jobs
    );
    assert_eq!(
        planet.merge_digest, 0x8ED3A218E6A249B4,
        "routed planet's merged event order drifted from the pinned run"
    );
    assert_eq!(
        fnv1a64(format!("{planet:?}").as_bytes()),
        0xD556059EDB2ECFCC,
        "routed planet's report drifted from the pinned run"
    );
}

/// A seconds-long design-space sweep for the determinism suite: four
/// candidates bracketing the shipped anchor on the encoder-count and
/// DRAM-bandwidth axes.
fn tiny_dse(seed: u64) -> vcu_dse::DseConfig {
    vcu_dse::DseConfig {
        seed,
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
fn dse_sweep_is_deterministic() {
    use vcu_dse::run_dse;
    let a = run_dse(&tiny_dse(9), 1);
    assert_eq!(a, run_dse(&tiny_dse(9), 1), "same-seed sweeps must agree");
    assert!(
        a.iter().any(|c| c.anchor),
        "the shipped design must appear in every grid"
    );
    // Cells, not rendered bytes: the artifact's header carries the
    // seed, so comparing bytes could never fail. At this toy scale
    // some seed pairs do coincide (9 and 10 draw fault schedules with
    // the same outcome); 11 does not.
    assert_ne!(
        a,
        run_dse(&tiny_dse(11), 1),
        "campaign seed must steer the sweep"
    );
}

#[test]
fn dse_sweep_is_thread_invariant() {
    // run_dse fans candidates out over the shared worker pool and
    // reassembles in grid order; pin sequential against wide fan-out
    // directly, honoring VCU_THREADS when the suite runs under the
    // varied leg (the verify script runs this suite at VCU_THREADS=1
    // and VCU_THREADS=4).
    use vcu_dse::run_dse;
    let cfg = tiny_dse(9);
    let wide = vcu_exec::env_threads().max(4);
    assert_eq!(
        run_dse(&cfg, 1),
        run_dse(&cfg, wide),
        "VCU_THREADS must not change the sweep"
    );
}
