//! Fleet observability drill: regenerate Fig. 9-shaped utilization
//! curves from the telemetry subsystem.
//!
//! §4.2/Fig. 9: the fleet dashboards plot encoder vs decoder
//! utilization over time; decode-heavy workloads (high-resolution
//! inputs transcoded to small outputs) saturate the hardware decoders
//! long before the encoders, and the Fig. 9c mitigation —
//! opportunistic software decode on the host CPU — moves that
//! bottleneck off the chip. This example runs the cluster simulator
//! twice (toggle off/on) with a telemetry [`Registry`] attached, dumps
//! the utilization time series as an aligned table under `results/`,
//! and writes the full deterministic snapshots next to it. A third
//! registry drills into one node: encoder-core pipeline occupancy and
//! per-frame codec metrics.
//!
//! Run with: `cargo run --release --example observe`
//! (set `VCU_SEED` to vary detection coin-flips and content).

use vcu_bench::campaign::results_path;
use vcu_chip::encoder_core::PipelineSim;
use vcu_chip::TranscodeJob;
use vcu_cluster::{ClusterConfig, ClusterReport, ClusterSim, JobSpec, Priority};
use vcu_codec::{encode_traced, EncoderConfig, Profile, Qp, TuningLevel};
use vcu_media::synth::{ContentClass, SynthSpec};
use vcu_media::Resolution;
use vcu_telemetry::json::JsonObj;
use vcu_telemetry::Registry;

/// Decode-heavy fleet: 2160p UGC inputs transcoded down to 240p.
/// Input pixel rate (decode demand) dwarfs output pixel rate (encode
/// demand), which is exactly the Fig. 9 hardware-decode bottleneck.
fn decode_heavy_jobs(n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec {
            // Arrivals far outpace service: each 2160p30 input needs
            // ~227 of 3,000 millidecode, so ~13 jobs pin one VCU's
            // decoders and the queue builds — the Fig. 9 regime.
            arrival_s: i as f64 * 0.1,
            job: TranscodeJob::sot(
                Resolution::R2160,
                Resolution::R240,
                Profile::Vp9Sim,
                30.0,
                8.0,
            ),
            priority: Priority::Normal,
            video_id: (i / 4) as u64,
        })
        .collect()
}

fn run_fleet(seed: u64, sw_offload: bool) -> (Registry, ClusterReport) {
    let reg = Registry::new();
    let cfg = ClusterConfig {
        vcus: 6,
        opportunistic_sw_decode: sw_offload,
        sample_period_s: 5.0,
        seed,
        ..ClusterConfig::default()
    };
    let report = ClusterSim::new(cfg, decode_heavy_jobs(240), vec![])
        .with_telemetry(reg.clone())
        .run();
    (reg, report)
}

fn peak(series: &[(f64, f64)]) -> f64 {
    series.iter().map(|&(_, v)| v).fold(0.0, f64::max)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = vcu_rng::env_seed(21);

    // ---- Fleet level: Fig. 9 utilization curves, toggle off vs on ----
    let (hw_reg, hw_report) = run_fleet(seed, false);
    let (sw_reg, sw_report) = run_fleet(seed, true);

    let series = |reg: &Registry, name: &str| reg.series(name).unwrap_or_default();
    let hw_enc = series(&hw_reg, "cluster.util.encode");
    let hw_dec = series(&hw_reg, "cluster.util.decode");
    let hw_queue = series(&hw_reg, "cluster.queue.depth");
    let sw_enc = series(&sw_reg, "cluster.util.encode");
    let sw_dec = series(&sw_reg, "cluster.util.decode");
    let sw_queue = series(&sw_reg, "cluster.queue.depth");

    println!("decode-heavy fleet (2160p in → 240p out), 6 VCUs, 240 chunks:");
    println!(
        "  hw-only:    peak encode {:.2}, peak decode {:.2}, peak queue {:.0}, {} done",
        peak(&hw_enc),
        peak(&hw_dec),
        peak(&hw_queue),
        hw_report.completed,
    );
    println!(
        "  sw-offload: peak encode {:.2}, peak decode {:.2}, peak queue {:.0}, {} done ({} sw-decoded)",
        peak(&sw_enc),
        peak(&sw_dec),
        peak(&sw_queue),
        sw_report.completed,
        sw_report.sw_decoded_jobs,
    );

    // The Fig. 9 shape: hardware decode pins at its ceiling while
    // encoders idle; the offload toggle visibly changes the curve.
    assert!(
        peak(&hw_dec) > 0.9,
        "decode must bottleneck: {}",
        peak(&hw_dec)
    );
    assert!(
        peak(&hw_dec) > peak(&hw_enc) + 0.2,
        "decode should lead encode by a wide margin"
    );
    assert!(sw_report.sw_decoded_jobs > 0, "offload must engage");
    assert_ne!(
        hw_dec, sw_dec,
        "toggling sw offload must change the decode curve"
    );

    // Aligned utilization-over-time table.
    let rows = hw_enc.len().min(sw_enc.len());
    let mut table = String::new();
    table.push_str(&format!("# decode-heavy fleet utilization, seed {seed}\n"));
    table.push_str("# t_s  enc_hw  dec_hw  queue_hw  enc_sw  dec_sw  queue_sw\n");
    for i in 0..rows {
        table.push_str(&format!(
            "{:>6.0} {:>7.3} {:>7.3} {:>9.0} {:>7.3} {:>7.3} {:>9.0}\n",
            hw_enc[i].0,
            hw_enc[i].1,
            hw_dec[i].1,
            hw_queue[i].1,
            sw_enc[i].1,
            sw_dec[i].1,
            sw_queue[i].1,
        ));
    }
    let table_path = results_path("observe_utilization.txt");
    std::fs::create_dir_all(std::path::Path::new(&table_path).parent().unwrap())?;
    std::fs::write(&table_path, &table)?;

    let seed_str = seed.to_string();
    hw_reg.write_snapshot(
        &results_path("observe_telemetry_hw.json"),
        &[("seed", seed_str.as_str()), ("mode", "hw_decode_only")],
    )?;
    sw_reg.write_snapshot(
        &results_path("observe_telemetry_sw_offload.json"),
        &[("seed", seed_str.as_str()), ("mode", "sw_offload")],
    )?;

    // ---- Node level: one VCU's pipeline + codec, same registry ----
    let node_reg = Registry::new();
    let pipeline = PipelineSim::new(4, 0.5);
    let rel = pipeline.relative_throughput_traced(4000, &node_reg);
    let clip = SynthSpec::new(Resolution::R144, 12, ContentClass::ugc(), seed).generate();
    let cfg =
        EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(30)).with_hardware(TuningLevel::MATURE);
    let encoded = encode_traced(&cfg, &clip, &node_reg)?;
    node_reg.write_snapshot(
        &results_path("observe_telemetry_node.json"),
        &[("seed", seed_str.as_str()), ("mode", "node_drilldown")],
    )?;
    let psnr = node_reg
        .histogram("codec.frame.psnr_y")
        .expect("traced encode records psnr");
    println!(
        "node drill-down: pipeline throughput {:.2} of ideal, {} coded frames, p50 Y-PSNR {:.1} dB",
        rel,
        encoded.frames.len(),
        psnr.p50,
    );

    println!("wrote {table_path} and 3 telemetry snapshots");

    println!(
        "{}",
        JsonObj::new()
            .str("example", "observe")
            .u64("seed", seed)
            .f64("peak_decode_util_hw", peak(&hw_dec))
            .f64("peak_encode_util_hw", peak(&hw_enc))
            .u64("sw_decoded_jobs", sw_report.sw_decoded_jobs)
            .u64("hw_completed", hw_report.completed)
            .u64("sw_completed", sw_report.completed)
            .f64("pipeline_rel_throughput", rel)
            .f64("psnr_y_p50_db", psnr.p50)
            .finish()
    );
    Ok(())
}
