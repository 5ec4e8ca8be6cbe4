//! Cloud gaming (Stadia): 4K60 low-latency two-pass VP9 on one VCU.
//!
//! §4.5: "By using the low-latency two-pass VCU based VP9 encoding,
//! Stadia can achieve these goals and deliver 4K 60 FPS game play on
//! connections of 35 Mbps." This example checks the capacity math at
//! 2160p60, then runs the real encoder in the gaming configuration on
//! a downscaled clip and reports the per-frame latency budget and
//! bitrate against the 35 Mbps figure (scaled by resolution).
//!
//! Run with: `cargo run --release --example cloud_gaming`
//! (set `VCU_SEED` to vary the generated content).

use vcu_chip::{ResourceDemand, TranscodeJob, VcuModel};
use vcu_codec::{decode, encode, EncoderConfig, PassMode, Profile, Qp};
use vcu_media::quality::psnr_y_video;
use vcu_media::synth::{ContentClass, SynthSpec};
use vcu_media::Resolution;
use vcu_telemetry::json::JsonObj;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = vcu_rng::env_seed(17);
    // Capacity: a 2160p60 low-latency two-pass SOT stream on one VCU.
    let model = VcuModel::new();
    let job = TranscodeJob::sot(
        Resolution::R2160,
        Resolution::R2160,
        Profile::Vp9Sim,
        60.0,
        1.0,
    );
    let demand = model.job_demand(&job);
    println!("Stadia stream demand on one VCU: {demand:?}");
    assert!(
        demand.fits_in(ResourceDemand::vcu_capacity()),
        "4K60 low-latency stream must fit a single VCU"
    );
    // Frame budget at 60 FPS.
    println!("frame budget at 60 FPS: 16.7 ms; VCU encodes 2160p60 in real time (§3.3.1)");

    // Real encode in the gaming configuration, scaled down so the
    // pixel-level codec runs quickly (bitrate scales with pixels).
    let res = Resolution::R240;
    let fps = 60.0;
    let clip = SynthSpec::new(res, 60, ContentClass::gaming(), seed).with_fps(fps);
    let video = clip.generate();
    // 35 Mbps at 2160p60 ≈ 35e6 × (240p pixels / 2160p pixels) here.
    let target = (35e6 * res.pixels() as f64 / Resolution::R2160.pixels() as f64) as u64;
    let cfg = EncoderConfig::bitrate(Profile::Vp9Sim, target, PassMode::TwoPassLowLatency)
        .with_hardware(vcu_codec::TuningLevel::MATURE);
    let e = encode(&cfg, &video)?;
    let d = decode(&e.bytes)?;
    let psnr = psnr_y_video(&video, &d.video);
    println!(
        "gaming encode at {res}{}fps: {:.2} Mbps (target {:.2}), Y-PSNR {:.2} dB",
        fps,
        e.bitrate_bps() / 1e6,
        target as f64 / 1e6,
        psnr
    );
    // Low-latency mode: every frame displayable, one pass of lookahead
    // only from the past.
    assert!(e.frames.iter().all(|f| f.kind.is_displayable()));
    let err = (e.bitrate_bps() - target as f64).abs() / target as f64;
    println!(
        "rate-control error vs target: {:.0}% ({})",
        err * 100.0,
        if err < 0.5 { "ok" } else { "out of band" }
    );
    let _ = Qp::new(30);

    println!(
        "{}",
        JsonObj::new()
            .str("example", "cloud_gaming")
            .u64("seed", seed)
            .f64("bitrate_mbps", e.bitrate_bps() / 1e6)
            .f64("target_mbps", target as f64 / 1e6)
            .f64("rc_error", err)
            .f64("psnr_y_db", psnr)
            .finish()
    );
    Ok(())
}
