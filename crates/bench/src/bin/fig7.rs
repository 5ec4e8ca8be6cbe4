//! Figure 7: rate-distortion curves on the vbench-like suite, software
//! vs VCU encodings, plus the §4.1 BD-rate summary.
//!
//! Set `VCU_FULL=1` for the larger suite (slower); default is the quick
//! suite. Run with: `cargo run --release -p vcu-bench --bin fig7`

use vcu_codec::{EncoderConfig, Profile, Qp, TuningLevel};
use vcu_media::bdrate::{bd_rate, RdPoint};
use vcu_system::experiments::clip_rd_curve;
use vcu_workloads::{suite, SuiteScale};

const QPS: [u8; 4] = [18, 26, 34, 42];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = if std::env::var("VCU_FULL").is_ok() {
        SuiteScale::Full
    } else {
        SuiteScale::Quick
    };
    let clips = suite(scale);
    println!(
        "Figure 7: RD curves (bitrate kbps @ PSNR dB), {} suite\n",
        clips.len()
    );

    let configs: [(&str, EncoderConfig); 4] = [
        (
            "sw-h264",
            EncoderConfig::const_qp(Profile::H264Sim, Qp::new(30)),
        ),
        (
            "vcu-h264",
            EncoderConfig::const_qp(Profile::H264Sim, Qp::new(30))
                .with_hardware(TuningLevel::LAUNCH),
        ),
        (
            "sw-vp9",
            EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(30)),
        ),
        (
            "vcu-vp9",
            EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(30))
                .with_hardware(TuningLevel::LAUNCH),
        ),
    ];

    // name -> config -> curve
    let mut curves: Vec<Vec<Vec<RdPoint>>> = Vec::new();
    for clip in &clips {
        let video = clip.video();
        let mut per_cfg = Vec::new();
        for (_, cfg) in &configs {
            per_cfg.push(clip_rd_curve(*cfg, &video, &QPS)?);
        }
        print!("{:<14}", clip.name);
        for (ci, (name, _)) in configs.iter().enumerate() {
            let c = &per_cfg[ci];
            print!(" | {name}:");
            for p in c {
                print!(" {:.0}@{:.1}", p.bitrate / 1e3, p.psnr);
            }
        }
        println!();
        curves.push(per_cfg);
    }

    // BD-rate summary averaged across the suite (paper §4.1):
    //   VCU-VP9 vs sw-H264 ≈ -30%; VCU-H264 vs sw-H264 ≈ +11.5%;
    //   VCU-VP9 vs sw-VP9 ≈ +18%.
    let avg_bd = |anchor: usize, test: usize| -> f64 {
        let mut acc = 0.0;
        let mut n = 0;
        for per_cfg in &curves {
            if let Ok(v) = bd_rate(&per_cfg[anchor], &per_cfg[test]) {
                acc += v;
                n += 1;
            }
        }
        acc / n.max(1) as f64
    };
    println!("\nBD-rate suite averages (negative = fewer bits at iso quality):");
    println!(
        "  VCU-VP9  vs sw-H264: {:>7.1}%   (paper ≈ -30%)",
        avg_bd(0, 3)
    );
    println!(
        "  VCU-H264 vs sw-H264: {:>7.1}%   (paper ≈ +11.5%)",
        avg_bd(0, 1)
    );
    println!(
        "  VCU-VP9  vs sw-VP9:  {:>7.1}%   (paper ≈ +18%)",
        avg_bd(2, 3)
    );
    println!(
        "  sw-VP9   vs sw-H264: {:>7.1}%   (VP9 coding gain)",
        avg_bd(0, 2)
    );
    Ok(())
}
