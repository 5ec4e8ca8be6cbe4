//! The paper's evaluation as one campaign: every number EXPERIMENTS.md
//! quotes from Table 1, §4.1, Figs. 7–10, Table 2 and the ablations of
//! DESIGN.md "Experiment index", measured and set beside the paper's
//! value as one row of `results/fidelity.json`.
//!
//! [`run`] holds the row table. A row carries the paper's value (`None`
//! where the paper gives no number), the measurement, a relative
//! tolerance, a baseline and the status the table expects, with the
//! reason for anything short of a match. [`crate::gates::fidelity`] recomputes
//! each status from the numbers, so a measurement that crosses a status
//! boundary fails until its row is re-baselined.
//!
//! The cluster figures keep their own seeds (Fig. 8: 7, Fig. 9a: 5,
//! Fig. 9b: 11, Fig. 9c: 9); `VCU_SEED` does not steer this campaign.

use crate::gates::{DEVIATES, MATCH, SHAPE_ONLY};
use vcu_chip::dram::DramModel;
use vcu_chip::encoder_core::PipelineSim;
use vcu_chip::refstore::{simulate_frame_search, RefStore, STORE_PIXELS};
use vcu_chip::{System, TranscodeJob, VcuModel, WorkloadShape};
use vcu_cluster::tco::perf_per_tco_normalized;
use vcu_cluster::{ClusterConfig, ClusterSim, JobSpec, Priority, SchedulerKind};
use vcu_codec::{decode, encode, EncoderConfig, Profile, Qp, RateControl, TuningLevel};
use vcu_media::bdrate::{bd_rate, RdPoint};
use vcu_media::quality::psnr_y_video;
use vcu_media::{Resolution, Video};
use vcu_system::balance::{attachment_limits, dram_sizing, host_scaling, network_ceiling_gpix_s};

/// Relative tolerance of a model-plane row (Table 1, §4.1, Figs. 8–9,
/// Table 2): the paper's numbers are measurements read to two or three
/// significant figures, often off a plot.
const MODEL_TOL: f64 = 0.10;
/// Relative tolerance of a BD-rate row (Figs. 7 and 10).
const CODEC_TOL: f64 = 0.25;
/// Fig. 7's constant QPs.
const FIG7_QPS: [u8; 4] = [18, 26, 34, 42];
/// Fig. 10's constant QPs.
const FIG10_QPS: [u8; 4] = [20, 28, 36, 44];
/// The Fig. 10 months quoted, one per tuning level 0, 2, 4 and 6.
const FIG10_MONTHS: [usize; 4] = [1, 5, 9, 13];

/// One paper number: a record of `fidelity.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Stable name, cited by EXPERIMENTS.md and DESIGN.md "Experiment index".
    pub id: &'static str,
    /// The paper's value; `None` where it gives none (the ablations).
    pub paper: Option<f64>,
    /// This reproduction's value.
    pub measured: f64,
    /// `match` holds while |measured − paper| ≤ tolerance × |paper|.
    pub tolerance: f64,
    /// The line both values must sit on the same side of for
    /// `shape-only`: 0 for a delta, 1 for a ratio, or the other arm of
    /// a paired comparison.
    pub baseline: f64,
    /// The status the row table expects (see `crate::gates::fidelity_status`).
    pub status: &'static str,
    /// Why the row is not a match, or what anchors it.
    pub reason: &'static str,
}

/// What the paper campaign measures.
#[derive(Debug, Clone)]
pub struct PaperConfig {
    /// Leading clips of the vbench-like suite Fig. 7 encodes; Fig. 10
    /// encodes every third of them.
    pub clips: usize,
    /// Frames kept per clip (`None`: the whole clip).
    pub frames: Option<usize>,
    /// Fig. 8's fleet size and horizon in seconds.
    pub fig8: (usize, f64),
    /// Months of the Fig. 9 ramps (the offload lands in month 6).
    pub months: usize,
}

/// Generates a saturating production-like chunk-job stream for `vcus`
/// workers over `horizon_s` seconds.
///
/// Chunk jobs are emitted directly (rather than expanding full upload
/// requests through `vcu_system::platform`) so the simulated population
/// stays bounded; the mix follows the upload resolution distribution.
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
    let job = |r: Resolution, profile| {
        if mot {
            TranscodeJob::mot(r, profile, 30.0, chunk_s)
        } else {
            let rung = r.ladder().get(1).copied().unwrap_or(r);
            TranscodeJob::sot(r, rung, profile, 30.0, chunk_s)
        }
    };
    // Mean output Mpix/s of a chunk job under this mix.
    let mean_rate: f64 = resolutions
        .iter()
        .map(|r| job(*r, Profile::Vp9Sim).output_mpix_s())
        .sum::<f64>()
        / resolutions.len() as f64;
    let per_vcu_mpix = if mot { 950.0 } else { 700.0 };
    let jobs_per_s = 1.3 * vcus as f64 * per_vcu_mpix / (mean_rate * chunk_s);

    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut i = 0usize;
    while t < horizon_s {
        let r = resolutions[(i + seed as usize) % resolutions.len()];
        out.push(JobSpec {
            arrival_s: t,
            job: job(r, [Profile::Vp9Sim, Profile::H264Sim][i % 2]),
            priority: Priority::Normal,
            video_id: 0,
        });
        i += 1;
        t += 1.0 / jobs_per_s.max(0.05);
    }
    out
}

/// Figure 8: per-sample production throughput per VCU (Mpix/s) of
/// saturated `(MOT, SOT)` workers.
fn fig8(vcus: usize, horizon_s: f64, seed: u64) -> (Vec<f64>, Vec<f64>) {
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
    (run(true), run(false))
}

/// Mean of a series.
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Coefficient of variation of a series.
fn cov(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 || xs.len() < 2 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt() / m
}

/// Figure 9a: chunked upload workload scaling post-launch — total VCU
/// throughput per month, normalized to month 1.
///
/// Drivers of the ramp, per §4.3: fleet growth, the share of the
/// workload moved onto VCUs (50% at launch → 100% in month 7), and
/// software-stack fixes (NUMA-aware scheduling: +16–25%).
fn fig9a(months: usize, seed: u64) -> Vec<f64> {
    let totals = (1..=months).map(|m| {
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
        report.total_output_mpix / report.horizon_s.max(1.0)
    });
    growth(totals.collect())
}

/// Each month's total over month 1's (Figs. 9a and 9b plot growth).
fn growth(totals: Vec<f64>) -> Vec<f64> {
    let base = totals.first().map_or(1.0, |t| t.max(1e-9));
    totals.iter().map(|t| t / base).collect()
}

/// Figure 9b: live transcoding throughput on VCU per month, normalized
/// to month 1 (the software fleet it is set against stays flat).
fn fig9b(months: usize, seed: u64) -> Vec<f64> {
    let totals = (1..=months).map(|m| {
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
                job: TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 4.0),
                priority: Priority::Critical,
                video_id: 0,
            })
            .collect();
        ClusterSim::new(cfg, jobs, vec![]).run().total_output_mpix / horizon
    });
    growth(totals.collect())
}

/// Figure 9c: opportunistic software decoding lands in `switch_month`;
/// per month, the mean hardware-decoder utilization in 0..=1 and the
/// per-VCU throughput in Mpix/s.
///
/// The workload mixes decode-heavy SOT steps (low-resolution outputs
/// from high-resolution inputs) with MOT work, saturating the hardware
/// decoders; from `switch_month` on, the scheduler may shift decode to
/// the host CPU.
fn fig9c(months: usize, switch_month: usize, seed: u64) -> Vec<(f64, f64)> {
    let vcus = 8;
    let horizon = 500.0;
    let month = |m| {
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
        (util, thr)
    };
    (1..=months).map(month).collect()
}

/// The tuning level deployed in a given month (two-month cadence,
/// mirroring Fig. 10's ~16-month convergence).
fn tuning_schedule(month: usize) -> TuningLevel {
    TuningLevel::new(((month.saturating_sub(1)) / 2).min(6) as u8)
}

/// An RD curve for a config over a set of clips: rates and PSNRs
/// averaged per QP (a corpus-level curve; one clip gives its own).
///
/// # Errors
///
/// Propagates encode failures (invalid config).
fn rd_curve(
    base: EncoderConfig,
    clips: &[Video],
    qps: &[u8],
) -> Result<Vec<RdPoint>, vcu_codec::CodecError> {
    let point = |&qp: &u8| {
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
        let n = clips.len() as f64;
        Ok(RdPoint::new(bits / n, psnr_acc / n))
    };
    qps.iter().map(point).collect()
}

/// Software and launch-tuned hardware encoders of both profiles, in
/// Fig. 7's column order.
fn fig7_configs() -> [EncoderConfig; 4] {
    let sw = |p| EncoderConfig::const_qp(p, Qp::new(30));
    let hw = |p| sw(p).with_hardware(TuningLevel::LAUNCH);
    [
        sw(Profile::H264Sim),
        hw(Profile::H264Sim),
        sw(Profile::Vp9Sim),
        hw(Profile::Vp9Sim),
    ]
}

/// Figure 7: per clip, the RD curves of [`fig7_configs`].
fn fig7(clips: &[Video]) -> Vec<[Vec<RdPoint>; 4]> {
    clips
        .iter()
        .map(|clip| {
            fig7_configs().map(|cfg| {
                rd_curve(cfg, std::slice::from_ref(clip), &FIG7_QPS).expect("valid config")
            })
        })
        .collect()
}

/// Suite-mean BD-rate of config `test` against config `anchor` over the
/// clips where the curves overlap (§4.1's summary).
fn mean_bd(curves: &[[Vec<RdPoint>; 4]], anchor: usize, test: usize) -> f64 {
    let deltas: Vec<f64> = curves
        .iter()
        .filter_map(|c| bd_rate(&c[anchor], &c[test]).ok())
        .collect();
    deltas.iter().sum::<f64>() / deltas.len().max(1) as f64
}

/// Figure 10: `(H.264, VP9)` BD-rate of hardware against software, in
/// percent, at each month's tuning level over the `clips` corpus.
///
/// # Errors
///
/// Propagates encode/BD-rate failures.
fn fig10(
    months: &[usize],
    clips: &[Video],
    qps: &[u8],
) -> Result<Vec<(f64, f64)>, Box<dyn std::error::Error>> {
    let sw = |p| EncoderConfig::const_qp(p, Qp::new(30));
    let sw_h264 = rd_curve(sw(Profile::H264Sim), clips, qps)?;
    let sw_vp9 = rd_curve(sw(Profile::Vp9Sim), clips, qps)?;
    let month = |&m: &usize| -> Result<_, Box<dyn std::error::Error>> {
        let level = tuning_schedule(m);
        let hw_h264 = rd_curve(sw(Profile::H264Sim).with_hardware(level), clips, qps)?;
        let hw_vp9 = rd_curve(sw(Profile::Vp9Sim).with_hardware(level), clips, qps)?;
        Ok((bd_rate(&sw_h264, &hw_h264)?, bd_rate(&sw_vp9, &hw_vp9)?))
    };
    months.iter().map(month).collect()
}

/// Ablation 1 (§3.3.3): `(mean encoder utilization, mean wait s)` of a
/// mixed load on 8 VCUs under `kind`.
fn scheduler_ablation(kind: SchedulerKind) -> (f64, f64) {
    let jobs = (0..600)
        .map(|i| {
            // A mix of small and large jobs so packing quality matters.
            let job = match i % 4 {
                0 => TranscodeJob::mot(Resolution::R2160, Profile::Vp9Sim, 30.0, 5.0),
                1 => TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0),
                2 => TranscodeJob::mot(Resolution::R720, Profile::H264Sim, 30.0, 5.0),
                _ => TranscodeJob::sot(
                    Resolution::R1080,
                    Resolution::R360,
                    Profile::H264Sim,
                    30.0,
                    5.0,
                ),
            };
            JobSpec {
                arrival_s: i as f64 * 0.05,
                job,
                priority: Priority::Normal,
                video_id: 0,
            }
        })
        .collect();
    let cfg = ClusterConfig {
        vcus: 8,
        scheduler: kind,
        sample_period_s: 30.0,
        ..ClusterConfig::default()
    };
    let report = ClusterSim::new(cfg, jobs, vec![]).run();
    let util: Vec<f64> = report
        .samples
        .iter()
        .skip(1)
        .take(10)
        .map(|s| s.encode_util)
        .collect();
    (mean(&util), report.mean_wait_s)
}

/// Ablation 3 (§3.2): concurrent 2160p60 MOTs one VCU's DRAM admits.
fn refcomp_streams(refcomp: bool) -> f64 {
    let mut d = DramModel::new(refcomp);
    let job = TranscodeJob::mot(Resolution::R2160, Profile::Vp9Sim, 60.0, 5.0);
    let mut n = 0;
    while d.admit(&job) {
        n += 1;
    }
    n as f64
}

/// Ablation 4 (§3.2): `(MiB of DRAM reads, hit rate)` of one 720p frame
/// search through a reference store of `pixels`.
fn refstore_search(pixels: usize) -> (f64, f64) {
    let mut s = RefStore::new(pixels);
    simulate_frame_search(&mut s, 1280, 720, 512, 64, 64);
    (s.dram_bytes_read as f64 / (1024.0 * 1024.0), s.hit_rate())
}

/// Ablation 5 (§4.4 future work): mean distinct VCUs per video on 12
/// VCUs with a consistent-hash window of `window` (0: first fit).
fn vcus_per_video(window: usize) -> f64 {
    let jobs = (0..200)
        .map(|i| JobSpec {
            arrival_s: (i / 5) as f64 * 0.5,
            job: TranscodeJob::mot(Resolution::R720, Profile::Vp9Sim, 30.0, 5.0),
            priority: Priority::Normal,
            video_id: (i / 5) as u64 + 1,
        })
        .collect();
    let cfg = ClusterConfig {
        vcus: 12,
        consistent_hash_window: window,
        ..ClusterConfig::default()
    };
    ClusterSim::new(cfg, jobs, vec![]).run().mean_vcus_per_video
}

/// The leading `cfg.clips` clips of the suite, cut to `cfg.frames`.
fn suite_videos(cfg: &PaperConfig) -> Vec<Video> {
    let suite = vcu_workloads::suite();
    let videos = suite.iter().take(cfg.clips).map(|clip| clip.video());
    let cut = |v: Video| match cfg.frames {
        Some(n) if n < v.frames.len() => Video::new(v.frames[..n].to_vec(), v.fps),
        _ => v,
    };
    videos.map(cut).collect()
}

/// Measures every row and sets it beside the paper: the row table.
pub fn run(cfg: &PaperConfig) -> Vec<Row> {
    let row = |id, paper, (measured, baseline), tolerance, status, reason| Row {
        id,
        paper,
        measured,
        tolerance,
        baseline,
        status,
        reason,
    };
    let (h264, vp9) = (Profile::H264Sim, Profile::Vp9Sim);
    let sot = WorkloadShape::SotTwoPass;
    let mot = WorkloadShape::MotTwoPass;
    let [cpu, t4, vcu8, vcu20] = System::table1();
    let mpix = |sys: System, p, shape| sys.throughput_mpix_s(p, shape).expect("runs");
    let ptco = |sys, p| perf_per_tco_normalized(sys, p, sot).expect("runs");
    let per_watt = |p, shape| {
        let watt = |sys: System| sys.perf_per_watt(p, shape).expect("runs");
        watt(vcu20) / watt(cpu)
    };
    let vcu = System::VcuHost { vcus: 1 };

    let videos = suite_videos(cfg);
    let f7 = fig7(&videos);
    let bd = |anchor, test| (mean_bd(&f7, anchor, test), 0.0);
    let per_clip = f7.iter().filter_map(|c| bd_rate(&c[0], &c[2]).ok());
    let (best, worst) = per_clip.fold((f64::MAX, f64::MIN), |(lo, hi), d| (lo.min(d), hi.max(d)));
    let (f8_mot, f8_sot) = fig8(cfg.fig8.0, cfg.fig8.1, 7);
    let (f8_cov, f8_mot, f8_sot) = ((cov(&f8_sot), cov(&f8_mot)), mean(&f8_mot), mean(&f8_sot));
    let f9a = fig9a(cfg.months, 5);
    let f9b = fig9b(cfg.months, 11);
    let f9c = fig9c(cfg.months, 6, 9);
    let ((util_first, mpix_first), (util_last, mpix_last)) = (f9c[0], f9c[f9c.len() - 1]);
    let corpus: Vec<Video> = videos.iter().step_by(3).cloned().collect();
    let f10 = fig10(&FIG10_MONTHS, &corpus, &FIG10_QPS).expect("valid configs");
    let (h264_gap, vp9_gap) = (|i: usize| f10[i].0, |i: usize| f10[i].1);
    let host = host_scaling(153.0);
    let dram = dram_sizing(153.0, 150);
    let attach = attachment_limits();
    let (multi, single) = (
        scheduler_ablation(SchedulerKind::MultiDim),
        scheduler_ablation(SchedulerKind::SingleSlot { slots: 2 }),
    );
    let sticky = VcuModel {
        stateless: false,
        ..VcuModel::new()
    };
    let (store, eighth, no_store) = (
        refstore_search(STORE_PIXELS),
        refstore_search(STORE_PIXELS / 8),
        refstore_search(0),
    );
    let fifo = |depth, variability| PipelineSim::new(depth, variability).relative_throughput(4000);

    const ANCHOR: &str = "calibration anchor: the model is fitted to this number";
    const NO_IO: &str = "no per-job chunk I/O or host mux time is modelled; the paper blames the gap on I/O and workload mix";
    const LAUNCH_GAP: &str = "the launch toolset lacks altref, SATD ranking, a calibrated lambda, deadzone and trellis, which costs this simple codec more than the paper's encoders";
    const NO_NUMBER: &str = "the paper shows this direction without a number";
    const ZERO_PAPER: &str = "the paper reads ~0 off the figure, and a zero has no relative tolerance; the gap closes from month 1's";
    vec![
        row("table1.skylake_h264_mpix_s", Some(714.0), (mpix(cpu, h264, sot), 0.0), MODEL_TOL, MATCH, ANCHOR),
        row("table1.skylake_vp9_mpix_s", Some(154.0), (mpix(cpu, vp9, sot), 0.0), MODEL_TOL, MATCH, ANCHOR),
        row("table1.t4_h264_mpix_s", Some(2_484.0), (mpix(t4, h264, sot), 0.0), MODEL_TOL, MATCH, ANCHOR),
        row("table1.vcu8_h264_mpix_s", Some(5_973.0), (mpix(vcu8, h264, sot), 0.0), MODEL_TOL, MATCH, ""),
        row("table1.vcu8_vp9_mpix_s", Some(6_122.0), (mpix(vcu8, vp9, sot), 0.0), MODEL_TOL, MATCH, ""),
        row("table1.vcu20_h264_mpix_s", Some(14_932.0), (mpix(vcu20, h264, sot), 0.0), MODEL_TOL, MATCH, ""),
        row("table1.vcu20_vp9_mpix_s", Some(15_306.0), (mpix(vcu20, vp9, sot), 0.0), MODEL_TOL, MATCH, ""),
        row("table1.vcu20_over_skylake_vp9", Some(15_306.0 / 154.0), (mpix(vcu20, vp9, sot) / mpix(cpu, vp9, sot), 1.0), MODEL_TOL, MATCH, ""),
        row("table1.t4_h264_perf_per_tco", Some(1.5), (ptco(t4, h264), 1.0), MODEL_TOL, MATCH, ""),
        row("table1.vcu8_h264_perf_per_tco", Some(4.4), (ptco(vcu8, h264), 1.0), MODEL_TOL, MATCH, ""),
        row("table1.vcu8_vp9_perf_per_tco", Some(20.8), (ptco(vcu8, vp9), 1.0), MODEL_TOL, MATCH, ""),
        row("table1.vcu20_h264_perf_per_tco", Some(7.0), (ptco(vcu20, h264), 1.0), MODEL_TOL, MATCH, ""),
        row("table1.vcu20_vp9_perf_per_tco", Some(33.3), (ptco(vcu20, vp9), 1.0), MODEL_TOL, MATCH, ""),
        row("mot.sot_h264_mpix_s_per_vcu", Some(5_973.0 / 8.0), (mpix(vcu, h264, sot), 0.0), MODEL_TOL, MATCH, "paper: Table 1's 8xVCU row per VCU"),
        row("mot.sot_vp9_mpix_s_per_vcu", Some(6_122.0 / 8.0), (mpix(vcu, vp9, sot), 0.0), MODEL_TOL, MATCH, "paper: Table 1's 8xVCU row per VCU"),
        row("mot.mot_h264_mpix_s_per_vcu", Some(976.0), (mpix(vcu, h264, mot), 0.0), MODEL_TOL, MATCH, ""),
        row("mot.mot_vp9_mpix_s_per_vcu", Some(927.0), (mpix(vcu, vp9, mot), 0.0), MODEL_TOL, MATCH, ""),
        row("mot.mot_over_sot_h264", Some(1.25), (mpix(vcu, h264, mot) / mpix(vcu, h264, sot), 1.0), MODEL_TOL, MATCH, "paper: 1.2-1.3x"),
        row("mot.mot_over_sot_vp9", Some(1.25), (mpix(vcu, vp9, mot) / mpix(vcu, vp9, sot), 1.0), MODEL_TOL, MATCH, "paper: 1.2-1.3x"),
        row("watt.h264_sot_vs_skylake", Some(6.7), (per_watt(h264, sot), 1.0), MODEL_TOL, MATCH, ""),
        row("watt.vp9_mot_vs_skylake", Some(68.9), (per_watt(vp9, mot), 1.0), MODEL_TOL, SHAPE_ONLY, "the VCU host's power is fitted to the H.264 SOT ratio, and the CPU MOT derate lands this one 17% low"),
        row("fig7.vcu_vp9_vs_sw_h264_pct", Some(-30.0), bd(0, 3), CODEC_TOL, DEVIATES, "the VP9 profile's tools gain far less over H.264 here than libvpx over libx264, and the launch toolset's loss on top flips the sign"),
        row("fig7.vcu_h264_vs_sw_h264_pct", Some(11.5), bd(0, 1), CODEC_TOL, SHAPE_ONLY, LAUNCH_GAP),
        row("fig7.vcu_vp9_vs_sw_vp9_pct", Some(18.0), bd(2, 3), CODEC_TOL, SHAPE_ONLY, LAUNCH_GAP),
        row("fig7.sw_vp9_vs_sw_h264_pct", Some(-40.0), bd(0, 2), CODEC_TOL, SHAPE_ONLY, "paper value implied by its other rows; the entropy coder and mode search are far simpler than libvpx's"),
        row("fig7.sw_vp9_vs_sw_h264_worst_clip_pct", None, (worst, best), CODEC_TOL, SHAPE_ONLY, "baseline: the best clip, screen-content presentation; the worst is high-motion game_3, as in Fig. 7's order"),
        row("fig8.mot_mpix_s_per_vcu", Some(400.0), (f8_mot, 0.0), MODEL_TOL, SHAPE_ONLY, NO_IO),
        row("fig8.sot_mpix_s_per_vcu", Some(250.0), (f8_sot, 0.0), MODEL_TOL, SHAPE_ONLY, NO_IO),
        row("fig8.mot_over_sot", Some(400.0 / 250.0), (f8_mot / f8_sot, 1.0), MODEL_TOL, SHAPE_ONLY, NO_IO),
        row("fig8.sot_cov_vs_mot_cov", None, f8_cov, MODEL_TOL, DEVIATES, "the simulated SOT stream cycles one fixed job mix, so it runs steadier than MOT instead of noisier"),
        row("fig9a.growth", Some(9.5), (f9a[f9a.len() - 1], 1.0), MODEL_TOL, MATCH, "paper: ~9-10x by month 12"),
        row("fig9b.growth", None, (f9b[f9b.len() - 1], 1.0), MODEL_TOL, SHAPE_ONLY, NO_NUMBER),
        row("fig9c.decode_util_before", Some(0.98), (util_first, 0.0), MODEL_TOL, MATCH, ""),
        row("fig9c.decode_util_after", Some(0.91), (util_last, util_first), MODEL_TOL, MATCH, ""),
        row("fig9c.mpix_s_per_vcu_after", None, (mpix_last, mpix_first), MODEL_TOL, SHAPE_ONLY, NO_NUMBER),
        row("fig10.h264_month1_pct", Some(10.0), (h264_gap(0), 0.0), CODEC_TOL, SHAPE_ONLY, LAUNCH_GAP),
        row("fig10.vp9_month1_pct", Some(12.0), (vp9_gap(0), 0.0), CODEC_TOL, SHAPE_ONLY, LAUNCH_GAP),
        row("fig10.h264_month5_pct", None, (h264_gap(1), 0.0), CODEC_TOL, SHAPE_ONLY, NO_NUMBER),
        row("fig10.vp9_month5_pct", None, (vp9_gap(1), 0.0), CODEC_TOL, SHAPE_ONLY, NO_NUMBER),
        row("fig10.h264_month9_pct", None, (h264_gap(2), 0.0), CODEC_TOL, SHAPE_ONLY, NO_NUMBER),
        row("fig10.vp9_month9_pct", None, (vp9_gap(2), 0.0), CODEC_TOL, SHAPE_ONLY, NO_NUMBER),
        row("fig10.h264_month13_pct", Some(0.0), (h264_gap(3), h264_gap(0)), CODEC_TOL, SHAPE_ONLY, ZERO_PAPER),
        row("fig10.vp9_month13_pct", Some(0.0), (vp9_gap(3), vp9_gap(0)), CODEC_TOL, SHAPE_ONLY, ZERO_PAPER),
        row("table2.network_ceiling_gpix_s", Some(153.0), (network_ceiling_gpix_s(), 0.0), MODEL_TOL, MATCH, ""),
        row("table2.transcode_cores", Some(42.0), (host.transcode_cores, 0.0), MODEL_TOL, MATCH, ANCHOR),
        row("table2.network_cores", Some(13.0), (host.network_cores, 0.0), MODEL_TOL, MATCH, ANCHOR),
        row("table2.host_cores", Some(55.0), (host.total_cores(), 0.0), MODEL_TOL, MATCH, ANCHOR),
        row("table2.host_dram_gbps", Some(514.0), (host.total_dram_gbps(), 0.0), MODEL_TOL, MATCH, ANCHOR),
        row("table2.vcu_dram_low_latency_gib", Some(150.0), (dram.sot_low_latency_gib, 0.0), MODEL_TOL, MATCH, ""),
        row("table2.vcu_dram_two_pass_gib", Some(750.0), (dram.offline_two_pass_gib, 0.0), MODEL_TOL, MATCH, ""),
        row("table2.realtime_vcus", Some(30.0), (attach.realtime_vcus, 0.0), MODEL_TOL, MATCH, ""),
        row("table2.offline_vcus", Some(150.0), (attach.offline_vcus, 0.0), MODEL_TOL, MATCH, ""),
        row("table2.chosen_vcus", Some(20.0), (attach.chosen as f64, 0.0), MODEL_TOL, MATCH, ANCHOR),
        row("ablation.bin_packing_encode_util", None, (multi.0, single.0), MODEL_TOL, SHAPE_ONLY, "baseline: single-slot, 2 per worker"),
        row("ablation.single_slot_wait_s", None, (single.1, multi.1), MODEL_TOL, SHAPE_ONLY, "baseline: bin packing"),
        row("ablation.stateless_h264_mot_mpix_s", None, (VcuModel::new().sustained_mpix_s(h264, mot), sticky.sustained_mpix_s(h264, mot)), MODEL_TOL, SHAPE_ONLY, "baseline: sticky cores"),
        row("ablation.refcomp_2160p60_mots", None, (refcomp_streams(true), refcomp_streams(false)), MODEL_TOL, SHAPE_ONLY, "baseline: no reference compression"),
        row("ablation.no_refstore_dram_mib", None, (no_store.0, store.0), MODEL_TOL, SHAPE_ONLY, "baseline: the 144K-pixel store"),
        row("ablation.refstore_hit_rate", None, (store.1, eighth.1), MODEL_TOL, SHAPE_ONLY, "baseline: a store 1/8 the size"),
        row("ablation.first_fit_vcus_per_video", None, (vcus_per_video(0), vcus_per_video(3)), MODEL_TOL, SHAPE_ONLY, "baseline: a consistent-hash window of 3"),
        row("ablation.fifo_relative_throughput", None, (fifo(6, 0.6), fifo(0, 0.6)), MODEL_TOL, SHAPE_ONLY, "baseline: lock-step stages at the same variability"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_mot_beats_sot() {
        let (mot, sot) = fig8(4, 400.0, 11);
        let (mot_cov, mot, sot) = (cov(&mot), mean(&mot), mean(&sot));
        assert!(
            mot > sot * 1.1,
            "MOT {mot:.0} should beat SOT {sot:.0} per VCU"
        );
        // The paper highlights MOT's low variance.
        assert!(mot_cov < 0.35, "MOT cov {mot_cov}");
    }

    #[test]
    fn fig9a_ramps_up() {
        let ramp = fig9a(8, 5);
        assert!((ramp[0] - 1.0).abs() < 1e-9);
        let last = ramp[ramp.len() - 1];
        assert!(last > 3.0, "ramp should grow severalfold: {last}");
        // Mostly monotone.
        let increases = ramp.windows(2).filter(|w| w[1] >= w[0] * 0.95).count();
        assert!(increases >= ramp.len() - 2, "ramp too noisy");
    }

    #[test]
    fn fig9c_offload_reduces_decode_util() {
        let pts = fig9c(4, 3, 9);
        let before = pts[..2].iter().map(|p| p.0).sum::<f64>() / 2.0;
        let after = pts[2..].iter().map(|p| p.0).sum::<f64>() / 2.0;
        assert!(
            after < before - 0.02,
            "decode util should drop: {before:.3} -> {after:.3}"
        );
        let thr_before = pts[..2].iter().map(|p| p.1).sum::<f64>() / 2.0;
        let thr_after = pts[2..].iter().map(|p| p.1).sum::<f64>() / 2.0;
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

    /// Fig. 7 band: VP9 software beats H.264 software on predictable
    /// content by a healthy BD-rate margin.
    #[test]
    fn vp9_bd_rate_win_on_predictable_content() {
        let v = [vcu_workloads::suite()[0].video()]; // presentation
        let [h264, _, vp9, _] = fig7_configs();
        let h = rd_curve(h264, &v, &FIG7_QPS).expect("h264 curve");
        let g = rd_curve(vp9, &v, &FIG7_QPS).expect("vp9 curve");
        let d = bd_rate(&h, &g).expect("bd-rate");
        assert!(d < -25.0, "VP9 should save >25% on screen content: {d:.1}%");
    }

    /// Fig. 10 mechanism: hardware tuning monotonically closes the gap.
    #[test]
    fn tuning_closes_hardware_gap() {
        use vcu_media::synth::{ContentClass, SynthSpec};
        let v = [SynthSpec::new(Resolution::R144, 16, ContentClass::talking_head(), 77).generate()];
        let base = EncoderConfig::const_qp(Profile::H264Sim, Qp::new(30));
        let sw = rd_curve(base, &v, &FIG10_QPS).expect("sw curve");
        let gap = |level: TuningLevel| {
            let hw = rd_curve(base.with_hardware(level), &v, &FIG10_QPS).expect("hw curve");
            bd_rate(&sw, &hw).expect("bd")
        };
        let launch = gap(TuningLevel::LAUNCH);
        let mature = gap(TuningLevel::MATURE);
        assert!(
            launch > mature,
            "tuning must reduce the gap: launch {launch:.1}% vs mature {mature:.1}%"
        );
        assert!(
            launch > 0.0,
            "launch hardware should trail software: {launch:.1}%"
        );
        assert_eq!(tuning_schedule(16).level(), 6);
    }

    /// Fig. 8 shape at integration scale.
    #[test]
    fn mot_beats_sot_at_fleet_scale() {
        let (mot, sot) = fig8(4, 300.0, 3);
        let (mot, sot) = (mean(&mot), mean(&sot));
        assert!(mot > sot, "{mot} vs {sot}");
    }
}
