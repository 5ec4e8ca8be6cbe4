//! Cross-crate integration tests: the full stack from pixels to fleet.

use vcu_chip::faults::{golden_expected, golden_test, FaultyVcu};
use vcu_chip::{System, TranscodeJob, VcuModel, WorkloadShape};
use vcu_cluster::tco::perf_per_tco_normalized;
use vcu_cluster::{
    ClusterConfig, ClusterSim, FaultInjection, FaultKind, JobSpec, Priority, SchedulerKind,
};
use vcu_codec::{decode, encode, encode_batch, EncoderConfig, PassMode, Profile, Qp, TuningLevel};
use vcu_media::quality::psnr_y_video;
use vcu_media::synth::{ContentClass, SynthSpec};
use vcu_media::Resolution;
use vcu_system::chunking::{assemble, split, ChunkPlan};
use vcu_system::platform::{live_latency_s, Platform};
use vcu_telemetry::Registry;
use vcu_workloads::{PopularityBucket, Request, WorkloadFamily};

/// The headline claim: 20-33x perf/TCO over the CPU baseline.
#[test]
fn headline_perf_per_tco_band() {
    let shape = WorkloadShape::SotTwoPass;
    let h264 = perf_per_tco_normalized(System::VcuHost { vcus: 20 }, Profile::H264Sim, shape)
        .expect("h264 runs everywhere");
    let vp9 = perf_per_tco_normalized(System::VcuHost { vcus: 20 }, Profile::Vp9Sim, shape)
        .expect("vp9 runs on vcu");
    // Paper: 7.0x (H.264) and 33.3x (VP9); 8xVCU gives 4.4x / 20.8x.
    assert!((5.0..9.0).contains(&h264), "h264 perf/TCO {h264}");
    assert!((25.0..42.0).contains(&vp9), "vp9 perf/TCO {vp9}");
    let v8 = perf_per_tco_normalized(System::VcuHost { vcus: 8 }, Profile::Vp9Sim, shape).unwrap();
    assert!((15.0..28.0).contains(&v8), "8xVCU vp9 perf/TCO {v8}");
}

/// End-to-end upload: chunk, encode on "hardware", pass through a
/// faulty and a healthy VCU, decode, reassemble, verify.
#[test]
fn upload_end_to_end_with_fault_screening() {
    let video = SynthSpec::new(Resolution::R144, 12, ContentClass::talking_head(), 31).generate();
    let plan = ChunkPlan::uniform(12, 4);
    let chunks = split(&video, &plan);
    let cfg =
        EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(30)).with_hardware(TuningLevel::MATURE);
    let encoded = encode_batch(&cfg, &chunks).expect("encode");

    // A corrupting VCU taints one chunk; the container checksum (the
    // §4.4 integrity check) must catch it.
    let mut bad_vcu = FaultyVcu::new(3);
    bad_vcu.inject_silent_corruption();
    assert!(!golden_test(&bad_vcu, golden_expected()));
    let tainted = bad_vcu.taint(encoded[1].bytes.clone());
    assert!(decode(&tainted).is_err(), "corruption must not decode");

    // Retry path: decode the clean copy, reassemble all chunks.
    let decoded: Vec<_> = encoded
        .iter()
        .map(|e| decode(&e.bytes).expect("clean chunk").video)
        .collect();
    let out = assemble(decoded, 12).expect("length check");
    let psnr = psnr_y_video(&video, &out);
    assert!(psnr > 30.0, "end-to-end quality {psnr}");
}

/// The platform expansion feeds the cluster and everything completes.
#[test]
fn platform_to_cluster_pipeline() {
    let platform = Platform::default();
    let reqs: Vec<Request> = (0..6)
        .map(|i| Request {
            arrival_s: i as f64 * 2.0,
            family: WorkloadFamily::Upload,
            resolution: Resolution::R1080,
            fps: 30.0,
            duration_s: 20.0,
            popularity: PopularityBucket::Tail,
        })
        .collect();
    let jobs = platform.jobs_for_all(&reqs);
    assert!(!jobs.is_empty());
    let cfg = ClusterConfig {
        vcus: 4,
        ..ClusterConfig::default()
    };
    let report = ClusterSim::new(cfg, jobs, vec![]).run();
    assert_eq!(report.failed, 0);
    assert!(report.completed > 0);
}

/// §4.5 live latency claims.
#[test]
fn live_latency_enables_new_use_cases() {
    assert!(live_latency_s(2.0, 5.0, 6.0) > 20.0);
    assert!(live_latency_s(2.0, 0.4, 0.6) < 7.0);
    // Stadia fits one VCU.
    let model = VcuModel::new();
    let stadia = TranscodeJob::sot(
        Resolution::R2160,
        Resolution::R2160,
        Profile::Vp9Sim,
        60.0,
        1.0,
    )
    .low_latency_two_pass();
    assert!(model
        .job_demand(&stadia)
        .fits_in(vcu_chip::ResourceDemand::vcu_capacity()));
}

/// Multi-dimensional packing beats single-slot under a mixed load.
#[test]
fn bin_packing_outperforms_single_slot() {
    let jobs = |n: usize| -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                arrival_s: i as f64 * 0.05,
                job: if i % 2 == 0 {
                    TranscodeJob::mot(Resolution::R2160, Profile::Vp9Sim, 30.0, 5.0)
                } else {
                    TranscodeJob::sot(
                        Resolution::R720,
                        Resolution::R360,
                        Profile::H264Sim,
                        30.0,
                        5.0,
                    )
                },
                priority: Priority::Normal,
                video_id: 0,
            })
            .collect()
    };
    let run = |kind| {
        let cfg = ClusterConfig {
            vcus: 4,
            scheduler: kind,
            ..ClusterConfig::default()
        };
        ClusterSim::new(cfg, jobs(200), vec![]).run()
    };
    let multi = run(SchedulerKind::MultiDim);
    let single = run(SchedulerKind::SingleSlot { slots: 2 });
    assert!(
        multi.mean_wait_s < single.mean_wait_s,
        "bin packing should cut queueing: {} vs {}",
        multi.mean_wait_s,
        single.mean_wait_s
    );
}

/// One-pass low-latency encodes hit bitrate targets without altrefs —
/// the live-streaming configuration end to end.
#[test]
fn low_latency_bitrate_mode() {
    let v = SynthSpec::new(Resolution::R144, 24, ContentClass::gaming(), 5).generate();
    let cfg = EncoderConfig::bitrate(Profile::Vp9Sim, 800_000, PassMode::OnePassLowLatency)
        .with_hardware(TuningLevel::MATURE);
    let e = encode(&cfg, &v).expect("encode");
    assert!(e.frames.iter().all(|f| f.kind.is_displayable()));
    let err = (e.bitrate_bps() - 800_000.0).abs() / 800_000.0;
    assert!(err < 0.5, "one-pass rate error {err:.2}");
    let d = decode(&e.bytes).expect("decode");
    assert_eq!(d.video.frames.len(), 24);
}

/// The report and the telemetry counters are two views of one tally:
/// `ClusterReport` fields are derived from the same single-site
/// bookkeeping that feeds the registry, so they can never disagree.
#[test]
fn report_agrees_with_telemetry_counters() {
    let platform = Platform::default();
    let reqs: Vec<Request> = (0..8)
        .map(|i| Request {
            arrival_s: i as f64 * 1.5,
            family: WorkloadFamily::Upload,
            resolution: Resolution::R1080,
            fps: 30.0,
            duration_s: 20.0,
            popularity: PopularityBucket::Middle,
        })
        .collect();
    let reg = Registry::new();
    let cfg = ClusterConfig {
        vcus: 4,
        detection_rate: 0.7,
        seed: 11,
        ..ClusterConfig::default()
    };
    let faults = vec![FaultInjection {
        time_s: 3.0,
        worker: 2,
        kind: FaultKind::SilentCorruption,
    }];
    let report = ClusterSim::new(cfg, platform.jobs_for_all(&reqs), faults)
        .with_telemetry(reg.clone())
        .run();

    assert!(report.completed > 0);
    assert_eq!(reg.counter("cluster.jobs.completed"), report.completed);
    assert_eq!(reg.counter("cluster.jobs.failed"), report.failed);
    assert_eq!(reg.counter("cluster.retries"), report.retries);
    assert_eq!(reg.counter("cluster.sw_decode"), report.sw_decoded_jobs);
    assert_eq!(
        reg.counter("cluster.corruption.caught"),
        report.caught_corruptions
    );
    assert_eq!(
        reg.counter("cluster.corruption.escaped"),
        report.escaped_corruptions
    );
    assert_eq!(reg.counter("cluster.jobs.stranded"), report.stranded);
    let attempts: u64 = report.attempts_per_worker.iter().sum();
    assert_eq!(reg.counter("cluster.attempts"), attempts);
    // Queueing wait is observed once per *job* at its first placement
    // (retries don't re-enter), so the histogram counts placed jobs —
    // every resolved job here was placed at least once.
    let wait = reg.histogram("cluster.wait_s").expect("waits observed");
    assert_eq!(
        wait.count,
        report.completed + report.failed - report.stranded
    );
}

/// Black-holing + golden screening at integration scale.
#[test]
fn failure_management_containment() {
    let jobs: Vec<JobSpec> = (0..60)
        .map(|i| JobSpec {
            arrival_s: i as f64 * 0.3,
            job: TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0),
            priority: Priority::Normal,
            video_id: 0,
        })
        .collect();
    let cfg = ClusterConfig {
        vcus: 4,
        detection_rate: 1.0,
        ..ClusterConfig::default()
    };
    let faults = vec![FaultInjection {
        time_s: 2.0,
        worker: 1,
        kind: FaultKind::SilentCorruption,
    }];
    let report = ClusterSim::new(cfg, jobs, faults).run();
    assert_eq!(report.escaped_corruptions, 0);
    assert_eq!(report.failed, 0, "retries must absorb the fault");
    assert!(report.caught_corruptions >= 1);
}
