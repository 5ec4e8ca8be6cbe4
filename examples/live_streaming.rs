//! Live streaming: why VCUs turned 30-second VP9 live latency into ~5 s.
//!
//! §4.5: software VP9 could only serve live by encoding many short
//! chunks in parallel — a 2-second chunk took ~10 s to encode, so 5-6
//! chunks ran concurrently and camera-to-eyeball latency ballooned.
//! One VCU encodes the full MOT faster than real time, so a small
//! buffer suffices. This example computes both latency budgets and
//! runs a real low-latency two-pass encode to show the mode works.
//!
//! Run with: `cargo run --release --example live_streaming`
//! (set `VCU_SEED` to vary the generated content).

use vcu_chip::{TranscodeJob, VcuModel, WorkloadShape};
use vcu_codec::{decode, encode, EncoderConfig, PassMode, Profile, Qp, TuningLevel};
use vcu_media::quality::psnr_y_video;
use vcu_media::synth::{ContentClass, SynthSpec};
use vcu_media::Resolution;
use vcu_system::platform::live_latency_s;
use vcu_telemetry::json::JsonObj;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = vcu_rng::env_seed(3);
    let chunk_s = 2.0;

    // Software: VP9 encodes ~5x slower than real time on CPU; deep
    // buffering needed to ride out throughput variance (§4.5).
    let sw_latency = live_latency_s(chunk_s, 5.0, 6.0);
    // VCU: faster than real time, shallow buffer.
    let hw_latency = live_latency_s(chunk_s, 0.4, 0.6);
    println!("camera-to-eyeball latency, 1080p VP9 live:");
    println!("  software pipeline: {sw_latency:>5.1} s  (chunk-parallel, deep buffer)");
    println!("  VCU pipeline:      {hw_latency:>5.1} s  (single VCU, real-time MOT)");
    assert!(sw_latency > 20.0 && hw_latency < 7.0);

    // A single VCU really does fit the whole 1080p live MOT (§4.5).
    let model = VcuModel::new();
    let job = TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, chunk_s);
    let demand = model.job_demand(&job);
    let fits = demand.fits_in(vcu_chip::ResourceDemand::vcu_capacity());
    println!(
        "1080p30 VP9 live MOT on one VCU: {} (demand {:?})",
        if fits {
            "fits in real time"
        } else {
            "DOES NOT FIT"
        },
        demand
    );
    assert!(fits);
    let sustained = model.sustained_mpix_s(Profile::Vp9Sim, WorkloadShape::OnePass);
    println!("one-pass sustained rate per VCU: {sustained:.0} Mpix/s");

    // Run the actual low-latency two-pass encoder mode on a live-ish
    // clip: no altref (needs future frames), statistics from past only.
    let clip = SynthSpec::new(Resolution::R144, 30, ContentClass::gaming(), seed).generate();
    let cfg = EncoderConfig::bitrate(Profile::Vp9Sim, 900_000, PassMode::TwoPassLowLatency)
        .with_hardware(TuningLevel::MATURE);
    let e = encode(&cfg, &clip)?;
    assert!(
        e.frames.iter().all(|f| f.kind.is_displayable()),
        "low-latency mode must not emit altrefs"
    );
    let d = decode(&e.bytes)?;
    let psnr = psnr_y_video(&clip, &d.video);
    println!(
        "low-latency two-pass encode: {:.0} kbps (target 900), Y-PSNR {psnr:.2} dB",
        e.bitrate_bps() / 1e3,
    );
    let _ = Qp::new(30); // silence unused import lint paths in minimal builds

    println!(
        "{}",
        JsonObj::new()
            .str("example", "live_streaming")
            .u64("seed", seed)
            .f64("sw_latency_s", sw_latency)
            .f64("hw_latency_s", hw_latency)
            .f64("bitrate_kbps", e.bitrate_bps() / 1e3)
            .f64("psnr_y_db", psnr)
            .finish()
    );
    Ok(())
}
