//! Experiment drivers for the paper's production figures.
//!
//! Each function produces the data series behind one figure; the
//! `vcu-bench` harness binaries print them, and the integration tests
//! assert their shape. Everything is deterministic in its seed.

use vcu_chip::TranscodeJob;
use vcu_cluster::{ClusterConfig, ClusterSim, JobSpec, Priority};
use vcu_codec::{decode, encode, EncoderConfig, Profile, Qp, RateControl, TuningLevel};
use vcu_media::bdrate::{bd_rate, RdPoint};
use vcu_media::quality::psnr_y_video;
use vcu_media::{Resolution, Video};

/// Generates a saturating production-like chunk-job stream for `vcus`
/// workers over `horizon_s` seconds.
///
/// Chunk jobs are emitted directly (rather than expanding full upload
/// requests through [`Platform`]) so the simulated population stays
/// bounded; the mix follows the upload resolution distribution.
fn saturating_jobs(vcus: usize, horizon_s: f64, mot: bool, seed: u64) -> Vec<JobSpec> {
    // Offered load ≈ 1.3× the fleet's sustainable rate so queues stay
    // non-empty (measuring capacity, not arrival luck).
    let chunk_s = 5.0;
    let resolutions = [
        Resolution::R2160,
        Resolution::R1080,
        Resolution::R1080,
        Resolution::R720,
        Resolution::R720,
        Resolution::R480,
    ];
    // Mean output Mpix/s of a chunk job under this mix.
    let mean_rate: f64 = resolutions
        .iter()
        .map(|r| {
            if mot {
                TranscodeJob::mot(*r, Profile::Vp9Sim, 30.0, chunk_s).output_mpix_s()
            } else {
                let rung = r.ladder().get(1).copied().unwrap_or(*r);
                TranscodeJob::sot(*r, rung, Profile::Vp9Sim, 30.0, chunk_s).output_mpix_s()
            }
        })
        .sum::<f64>()
        / resolutions.len() as f64;
    let per_vcu_mpix = if mot { 950.0 } else { 700.0 };
    let jobs_per_s = 1.3 * vcus as f64 * per_vcu_mpix / (mean_rate * chunk_s);

    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut i = 0usize;
    while t < horizon_s {
        let r = resolutions[(i + seed as usize) % resolutions.len()];
        let profile = if i.is_multiple_of(2) {
            Profile::Vp9Sim
        } else {
            Profile::H264Sim
        };
        let job = if mot {
            TranscodeJob::mot(r, profile, 30.0, chunk_s)
        } else {
            let rung = r.ladder().get(1).copied().unwrap_or(r);
            TranscodeJob::sot(r, rung, profile, 30.0, chunk_s)
        };
        out.push(JobSpec {
            arrival_s: t,
            job,
            priority: Priority::Normal,
            video_id: 0,
        });
        i += 1;
        t += 1.0 / jobs_per_s.max(0.05);
    }
    out
}

/// Figure 8: per-VCU production throughput, MOT vs SOT workers.
#[derive(Debug, Clone)]
pub struct Fig8Data {
    /// Per-sample MOT throughput (Mpix/s per VCU).
    pub mot: Vec<f64>,
    /// Per-sample SOT throughput (Mpix/s per VCU).
    pub sot: Vec<f64>,
}

/// Runs the Fig. 8 experiment.
pub fn fig8(vcus: usize, horizon_s: f64, seed: u64) -> Fig8Data {
    let run = |mot: bool| {
        let cfg = ClusterConfig {
            vcus,
            sample_period_s: horizon_s / 12.0,
            seed,
            ..ClusterConfig::default()
        };
        let jobs = saturating_jobs(vcus, horizon_s, mot, seed);
        let report = ClusterSim::new(cfg, jobs, vec![]).run();
        report
            .samples
            .iter()
            .filter(|s| s.time_s <= horizon_s * 1.05)
            .skip(1) // warm-up
            .map(|s| s.mpix_s_per_vcu)
            .collect::<Vec<f64>>()
    };
    Fig8Data {
        mot: run(true),
        sot: run(false),
    }
}

/// Mean of a series.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Coefficient of variation of a series.
pub fn cov(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 || xs.len() < 2 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt() / m
}

/// One month of the Fig. 9a/9b ramp.
#[derive(Debug, Clone, Copy)]
pub struct RampPoint {
    /// Month since launch (1-based).
    pub month: usize,
    /// Normalized total VCU throughput (month 1 = 1.0 for 9a's VCU
    /// series).
    pub normalized_throughput: f64,
}

/// Figure 9a: chunked upload workload scaling post-launch.
///
/// Drivers of the ramp, per §4.3: fleet growth, the share of the
/// workload moved onto VCUs (50% at launch → 100% in month 7), and
/// software-stack fixes (NUMA-aware scheduling: +16–25%).
pub fn fig9a(months: usize, seed: u64) -> Vec<RampPoint> {
    let mut out = Vec::new();
    let mut baseline = None;
    for m in 1..=months {
        // Fleet grows as racks land.
        let vcus = 2 + m * 2;
        // Fraction of the upload workload enabled on VCU.
        let share = (0.5 + 0.5 * (m as f64 - 1.0) / 6.0).min(1.0);
        // Stack overhead: pre-NUMA-fix until month 4.
        let stf = if m < 4 { 1.22 } else { 1.0 };
        let horizon = 600.0;
        let cfg = ClusterConfig {
            vcus,
            service_time_factor: stf,
            sample_period_s: horizon / 6.0,
            seed: seed + m as u64,
            ..ClusterConfig::default()
        };
        let mut jobs = saturating_jobs(vcus, horizon, true, seed + m as u64);
        // Only `share` of the workload is VCU-enabled.
        let keep = (jobs.len() as f64 * share) as usize;
        jobs.truncate(keep);
        let report = ClusterSim::new(cfg, jobs, vec![]).run();
        let total = report.total_output_mpix / report.horizon_s.max(1.0);
        let base = *baseline.get_or_insert(total.max(1e-9));
        out.push(RampPoint {
            month: m,
            normalized_throughput: total / base,
        });
    }
    out
}

/// Figure 9b: live transcoding on VCU vs the fixed software fleet.
#[derive(Debug, Clone, Copy)]
pub struct LivePoint {
    /// Month since launch.
    pub month: usize,
    /// Normalized VCU live throughput.
    pub vcu: f64,
    /// Normalized software live throughput (flat: the software fleet
    /// stopped growing once VCUs landed).
    pub software: f64,
}

/// Runs the Fig. 9b ramp.
pub fn fig9b(months: usize, seed: u64) -> Vec<LivePoint> {
    let mut out = Vec::new();
    let mut base = None;
    for m in 1..=months {
        let vcus = 1 + m;
        let horizon = 400.0;
        let cfg = ClusterConfig {
            vcus,
            sample_period_s: horizon / 4.0,
            seed: seed + m as u64,
            ..ClusterConfig::default()
        };
        // Live sessions arrive evenly over the horizon; offered load
        // grows with the landed fleet.
        let n_jobs = vcus * 40;
        let spacing = horizon / n_jobs as f64;
        let jobs: Vec<JobSpec> = (0..n_jobs)
            .map(|i| JobSpec {
                arrival_s: i as f64 * spacing,
                job: TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 4.0)
                    .low_latency_two_pass(),
                priority: Priority::Critical,
                video_id: 0,
            })
            .collect();
        let report = ClusterSim::new(cfg, jobs, vec![]).run();
        let total = report.total_output_mpix / horizon;
        let b = *base.get_or_insert(total.max(1e-9));
        out.push(LivePoint {
            month: m,
            vcu: total / b,
            software: 1.0,
        });
    }
    out
}

/// One month of the Fig. 9c decode-offload experiment.
#[derive(Debug, Clone, Copy)]
pub struct DecodePoint {
    /// Month since launch.
    pub month: usize,
    /// Mean hardware-decoder utilization in 0..=1.
    pub hw_decode_util: f64,
    /// Per-VCU throughput (Mpix/s).
    pub mpix_s_per_vcu: f64,
}

/// Figure 9c: opportunistic software decoding lands in month 6.
///
/// The workload mixes decode-heavy SOT steps (low-resolution outputs
/// from high-resolution inputs) with MOT work, saturating the hardware
/// decoders; from `switch_month` on, the scheduler may shift decode to
/// the host CPU.
pub fn fig9c(months: usize, switch_month: usize, seed: u64) -> Vec<DecodePoint> {
    let vcus = 8;
    let horizon = 500.0;
    let mut out = Vec::new();
    for m in 1..=months {
        let cfg = ClusterConfig {
            vcus,
            opportunistic_sw_decode: m >= switch_month,
            sample_period_s: horizon / 8.0,
            seed: seed + m as u64,
            ..ClusterConfig::default()
        };
        // Decode-heavy mix: 2160p inputs producing only a 240p rung
        // (re-processing old popular videos at a new low-rate point),
        // plus normal 1080p MOTs.
        let mut jobs = Vec::new();
        let mut t = 0.0;
        let mut i = 0usize;
        while t < horizon {
            let job = if i.is_multiple_of(4) {
                TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0)
            } else {
                TranscodeJob::sot(
                    Resolution::R2160,
                    Resolution::R240,
                    Profile::H264Sim,
                    30.0,
                    5.0,
                )
            };
            jobs.push(JobSpec {
                arrival_s: t,
                job,
                priority: Priority::Normal,
                video_id: 0,
            });
            i += 1;
            t += 0.03; // heavily offered, decode-bound load
        }
        let report = ClusterSim::new(cfg, jobs, vec![]).run();
        let samples: Vec<_> = report
            .samples
            .iter()
            .skip(1)
            .filter(|s| s.time_s <= horizon)
            .collect();
        let util = mean(&samples.iter().map(|s| s.decode_util).collect::<Vec<_>>());
        let thr = mean(&samples.iter().map(|s| s.mpix_s_per_vcu).collect::<Vec<_>>());
        out.push(DecodePoint {
            month: m,
            hw_decode_util: util,
            mpix_s_per_vcu: thr,
        });
    }
    out
}

/// One point of the Fig. 10 tuning trajectory.
#[derive(Debug, Clone, Copy)]
pub struct TuningPoint {
    /// Month since launch.
    pub month: usize,
    /// Hardware tuning level active that month.
    pub level: u8,
    /// BD-rate of hardware vs software for H.264, percent (positive =
    /// hardware spends more bits at iso quality).
    pub h264_delta_pct: f64,
    /// Same for VP9.
    pub vp9_delta_pct: f64,
}

/// The tuning level deployed in a given month (two-month cadence,
/// mirroring Fig. 10's ~16-month convergence).
pub fn tuning_schedule(month: usize) -> TuningLevel {
    TuningLevel::new(((month.saturating_sub(1)) / 2).min(6) as u8)
}

/// Computes an RD curve for a config over a set of clips (rates summed,
/// PSNR pooled — a corpus-level curve).
///
/// # Errors
///
/// Propagates encode failures (invalid config).
pub fn corpus_rd_curve(
    base: EncoderConfig,
    clips: &[Video],
    qps: &[u8],
) -> Result<Vec<RdPoint>, vcu_codec::CodecError> {
    let mut points = Vec::new();
    for &qp in qps {
        let mut cfg = base;
        cfg.rc = RateControl::ConstQp(Qp::new(qp));
        let mut bits = 0.0;
        let mut psnr_acc = 0.0;
        for v in clips {
            let e = encode(&cfg, v)?;
            let d = decode(&e.bytes).expect("own bitstream must decode");
            bits += e.bitrate_bps();
            psnr_acc += psnr_y_video(v, &d.video);
        }
        points.push(RdPoint::new(
            bits / clips.len() as f64,
            psnr_acc / clips.len() as f64,
        ));
    }
    Ok(points)
}

/// Runs the Fig. 10 experiment over `months` months on `clips`.
///
/// # Errors
///
/// Propagates encode/BD-rate failures.
pub fn fig10(
    months: usize,
    clips: &[Video],
    qps: &[u8],
) -> Result<Vec<TuningPoint>, Box<dyn std::error::Error>> {
    let mut out = Vec::new();
    let sw_h264 = corpus_rd_curve(
        EncoderConfig::const_qp(Profile::H264Sim, Qp::new(30)),
        clips,
        qps,
    )?;
    let sw_vp9 = corpus_rd_curve(
        EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(30)),
        clips,
        qps,
    )?;
    let mut cache: Vec<Option<(f64, f64)>> = vec![None; 7];
    for m in 1..=months {
        let level = tuning_schedule(m);
        let li = level.level() as usize;
        if cache[li].is_none() {
            let hw_h264 = corpus_rd_curve(
                EncoderConfig::const_qp(Profile::H264Sim, Qp::new(30)).with_hardware(level),
                clips,
                qps,
            )?;
            let hw_vp9 = corpus_rd_curve(
                EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(30)).with_hardware(level),
                clips,
                qps,
            )?;
            let d264 = bd_rate(&sw_h264, &hw_h264)?;
            let dvp9 = bd_rate(&sw_vp9, &hw_vp9)?;
            cache[li] = Some((d264, dvp9));
        }
        let (h264_delta_pct, vp9_delta_pct) = cache[li].expect("just filled");
        out.push(TuningPoint {
            month: m,
            level: level.level(),
            h264_delta_pct,
            vp9_delta_pct,
        });
    }
    Ok(out)
}

/// Per-clip RD curves for Fig. 7.
///
/// # Errors
///
/// Propagates encode/decode failures.
pub fn clip_rd_curve(
    base: EncoderConfig,
    video: &Video,
    qps: &[u8],
) -> Result<Vec<RdPoint>, vcu_codec::CodecError> {
    let mut points = Vec::new();
    for &qp in qps {
        let mut cfg = base;
        cfg.rc = RateControl::ConstQp(Qp::new(qp));
        let e = encode(&cfg, video)?;
        let d = decode(&e.bytes).expect("own bitstream must decode");
        points.push(RdPoint::new(e.bitrate_bps(), psnr_y_video(video, &d.video)));
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_mot_beats_sot() {
        let data = fig8(4, 400.0, 11);
        let mot = mean(&data.mot);
        let sot = mean(&data.sot);
        assert!(
            mot > sot * 1.1,
            "MOT {mot:.0} should beat SOT {sot:.0} per VCU"
        );
        // The paper highlights MOT's low variance.
        assert!(cov(&data.mot) < 0.35, "MOT cov {}", cov(&data.mot));
    }

    #[test]
    fn fig9a_ramps_up() {
        let ramp = fig9a(8, 5);
        assert!((ramp[0].normalized_throughput - 1.0).abs() < 1e-9);
        let last = ramp.last().unwrap().normalized_throughput;
        assert!(last > 3.0, "ramp should grow severalfold: {last}");
        // Mostly monotone.
        let increases = ramp
            .windows(2)
            .filter(|w| w[1].normalized_throughput >= w[0].normalized_throughput * 0.95)
            .count();
        assert!(increases >= ramp.len() - 2, "ramp too noisy");
    }

    #[test]
    fn fig9c_offload_reduces_decode_util() {
        let pts = fig9c(4, 3, 9);
        let before = pts[..2].iter().map(|p| p.hw_decode_util).sum::<f64>() / 2.0;
        let after = pts[2..].iter().map(|p| p.hw_decode_util).sum::<f64>() / 2.0;
        assert!(
            after < before - 0.02,
            "decode util should drop: {before:.3} -> {after:.3}"
        );
        let thr_before = pts[..2].iter().map(|p| p.mpix_s_per_vcu).sum::<f64>() / 2.0;
        let thr_after = pts[2..].iter().map(|p| p.mpix_s_per_vcu).sum::<f64>() / 2.0;
        assert!(
            thr_after >= thr_before,
            "offload must not hurt throughput: {thr_before:.0} -> {thr_after:.0}"
        );
    }

    #[test]
    fn tuning_schedule_reaches_mature() {
        assert_eq!(tuning_schedule(1).level(), 0);
        assert_eq!(tuning_schedule(13).level(), 6);
        assert_eq!(tuning_schedule(16).level(), 6);
    }
}
