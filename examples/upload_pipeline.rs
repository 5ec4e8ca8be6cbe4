//! End-to-end upload pipeline: chunk → parallel MOT transcode →
//! assemble, with the cluster simulator carrying the fleet-scale view.
//!
//! Mirrors §2.2/§3.1: an upload is split into closed GOPs, each chunk
//! becomes a MOT job, VCU workers process chunks in parallel, and the
//! platform reassembles and integrity-checks the result. The
//! pixel-level path runs the real codec; the fleet-scale path runs the
//! discrete-event cluster simulation on the same job shapes.
//!
//! Run with: `cargo run --release --example upload_pipeline`
//! (set `VCU_SEED` to vary the generated content, `VCU_THREADS` to
//! fan chunk encodes across worker threads — the output bitstreams
//! are byte-identical at any thread count).

use vcu_cluster::{ClusterConfig, ClusterSim};
use vcu_codec::{decode, encode_batch, EncoderConfig, Profile, Qp, TuningLevel};
use vcu_media::quality::psnr_y_video;
use vcu_media::synth::{ContentClass, SynthSpec};
use vcu_media::{Resolution, Video};
use vcu_system::chunking::{assemble, chunks_are_independent, split, ChunkPlan};
use vcu_system::platform;
use vcu_telemetry::json::JsonObj;
use vcu_workloads::{PopularityBucket, Request, WorkloadFamily};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = vcu_rng::env_seed(9);
    // ---- Pixel-level path: one real upload through the real codec ----
    let upload: Video =
        SynthSpec::new(Resolution::R144, 18, ContentClass::talking_head(), seed).generate();
    let plan = ChunkPlan::uniform(upload.frames.len(), 6);
    let chunks = split(&upload, &plan);
    println!(
        "chunked {} frames into {} closed GOPs",
        upload.frames.len(),
        plan.len()
    );

    let threads = vcu_exec::env_threads();
    let cfg = EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(30))
        .with_hardware(TuningLevel::MATURE)
        .with_threads(threads);
    let enc_start = std::time::Instant::now();
    let encoded = encode_batch(&cfg, &chunks)?;
    let enc_elapsed = enc_start.elapsed().as_secs_f64();
    let chunks_per_s = plan.len() as f64 / enc_elapsed.max(1e-9);
    println!(
        "encoded {} chunks on {threads} thread(s): {chunks_per_s:.2} chunks/s",
        plan.len()
    );
    assert!(
        chunks_are_independent(&encoded),
        "chunks must decode standalone"
    );

    // Chunks decode in parallel (here: any order), then reassemble.
    let mut decoded: Vec<Video> = Vec::new();
    for e in &encoded {
        decoded.push(decode(&e.bytes)?.video);
    }
    let assembled = assemble(decoded, upload.frames.len())?;
    let psnr = psnr_y_video(&upload, &assembled);
    println!("assembled output passes integrity check, Y-PSNR {psnr:.2} dB");

    // ---- Fleet-level path: the same request at warehouse scale ----
    let request = Request {
        arrival_s: 0.0,
        family: WorkloadFamily::Upload,
        resolution: Resolution::R1080,
        fps: 30.0,
        duration_s: 60.0,
        popularity: PopularityBucket::Middle,
    };
    let jobs = platform::jobs_for(&request);
    println!(
        "expanded into {} chunk-level VCU jobs (MOT, H.264+VP9)",
        jobs.len()
    );
    let cluster = ClusterConfig {
        vcus: 4,
        sample_period_s: 10.0,
        ..ClusterConfig::default()
    };
    let report = ClusterSim::new(cluster, jobs, vec![]).run();
    println!(
        "cluster: {} jobs completed, 0 failed = {}, mean wait {:.2}s, {:.0} Mpix total",
        report.completed,
        report.failed == 0,
        report.mean_wait_s,
        report.total_output_mpix
    );
    assert_eq!(report.failed, 0);

    println!(
        "{}",
        JsonObj::new()
            .str("example", "upload_pipeline")
            .u64("seed", seed)
            .u64("chunks", plan.len() as u64)
            .u64("threads", threads as u64)
            .f64("chunks_per_s", chunks_per_s)
            .f64("psnr_y_db", psnr)
            .u64("cluster_jobs_completed", report.completed)
            .u64("cluster_jobs_failed", report.failed)
            .f64("mean_wait_s", report.mean_wait_s)
            .finish()
    );
    Ok(())
}
