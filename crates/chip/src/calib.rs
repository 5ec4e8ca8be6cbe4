//! Calibration constants for every device timing model.
//!
//! All free parameters of the reproduction live here, set **once**
//! from numbers the paper states (cited inline) or first-principles
//! estimates — the experiment harnesses then *measure* against these
//! models. Nothing elsewhere in the workspace re-tunes per table cell.
//!
//! Paper anchors used:
//! - "Each encoder core can encode 2160p in real-time, up to 60 FPS
//!   using three reference frames" (§3.3.1) → ~498 Mpix/s per core,
//!   one-pass.
//! - "At 2160p, each raw frame is 11.9 MiB, giving an average DRAM
//!   bandwidth of 3.5 GiB/s … lossless reference compression reduces
//!   the worst-case bandwidth to ~3 GiB/s and typical to 2 GiB/s. The
//!   decoder consistently uses 2.2 GiB/s, so the VCU needs ~27-37
//!   GiB/s … four 32b LPDDR4-3200 channels (~36 GiB/s raw)" (§3.3.1).
//! - Table 1 throughput/perf-TCO ratios (see `tco` in `vcu-cluster`).
//! - "3,000 millidecode cores and 10,000 milliencode cores" (§3.3.3).

/// Encoder cores per VCU ASIC (§3.3.1, Figure 5a).
pub const ENCODER_CORES_PER_VCU: usize = 10;

/// Decoder cores per VCU ASIC (Figure 3b).
pub const DECODER_CORES_PER_VCU: usize = 3;

/// VCUs per card (Figure 5b) and cards/hosts (§3.3.1).
pub const VCUS_PER_CARD: usize = 2;
/// Cards per accelerator tray.
pub const CARDS_PER_TRAY: usize = 5;
/// Trays per host machine.
pub const TRAYS_PER_HOST: usize = 2;
/// VCUs per host machine (= 2 trays × 5 cards × 2 VCUs).
pub const VCUS_PER_HOST: usize = VCUS_PER_CARD * CARDS_PER_TRAY * TRAYS_PER_HOST;

/// Encoder core clock in Hz (chosen so the cycle budget below hits the
/// paper's real-time 2160p60 rate).
pub const CORE_CLOCK_HZ: f64 = 800e6;

/// Pipeline stage cycle budgets per 16×16 macroblock (H.264 profile).
/// The bottleneck stage sets the core's throughput:
/// 800 MHz / 410 cycles/MB × 256 px/MB ≈ 500 Mpix/s ≈ 2160p60.
pub mod stage_cycles {
    /// Motion estimation + partitioning + RDO (the memory-heavy first
    /// stage of Figure 4).
    pub const MOTION_RDO: u32 = 410;
    /// Entropy coding + macroblock decode + temporal filter.
    pub const ENTROPY: u32 = 360;
    /// Loop filter + lossless frame-buffer compression.
    pub const LOOPFILTER: u32 = 240;
    /// DRAM reader/writer (hidden behind prefetch when bandwidth holds).
    pub const DMA: u32 = 180;
}

/// VP9 per-pixel cycle efficiency relative to H.264 on the VCU.
/// Larger superblocks amortize control overhead, so the hardware
/// encodes VP9 slightly *faster* per pixel (Table 1: 15,306 vs 14,932
/// Mpix/s for the 20-VCU system).
pub const VP9_HW_EFFICIENCY: f64 = 1.025;

/// Fraction of peak core throughput reachable in a loaded system
/// (queueing, stream switch overheads, host I/O) — calibrated so a
/// 20-VCU host lands near Table 1's 14.9 Gpix/s for offline two-pass
/// SOT vbench rather than the 50 Gpix/s silicon peak.
pub const SYSTEM_DERATE: f64 = 0.30;

/// Decoder core throughput in Mpix/s (a decoder core comfortably
/// outruns an encoder core; decode is ~10× cheaper than encode).
pub const DECODER_CORE_MPIX_S: f64 = 1100.0;

/// DRAM subsystem.
pub mod dram {
    /// Raw LPDDR4-3200 bandwidth, 4 × 32-bit channels (§3.3.1).
    pub const RAW_GIB_S: f64 = 36.0;
    /// Usable fraction of raw bandwidth (refresh, bank conflicts).
    pub const EFFICIENCY: f64 = 0.85;
    /// Usable VCU DRAM capacity in GiB (§3.3.1: "8 GiB usable").
    pub const CAPACITY_GIB: f64 = 8.0;
    /// Encoder stream bandwidth at 2160p60 with 3 refs, no reference
    /// compression (§3.3.1: "average DRAM bandwidth of 3.5 GiB/s").
    pub const ENCODE_2160P60_GIB_S: f64 = 3.5;
    /// Same with lossless reference-frame compression ("typical
    /// bandwidth to 2 GiB/s").
    pub const ENCODE_2160P60_REFCOMP_GIB_S: f64 = 2.0;
    /// Decoder stream bandwidth ("the decoder consistently uses
    /// 2.2 GiB/s").
    pub const DECODE_2160P60_GIB_S: f64 = 2.2;
    /// DRAM footprint of a 2160p MOT job in MiB (Appendix A.4).
    pub const MOT_2160P_FOOTPRINT_MIB: f64 = 700.0;
    /// DRAM footprint of a 2160p SOT job in MiB (Appendix A.4).
    pub const SOT_2160P_FOOTPRINT_MIB: f64 = 500.0;
}

/// Reference pixel rate of a 2160p60 stream (Mpix/s) used to scale
/// per-stream DRAM bandwidth to other resolutions/frame rates.
pub const REF_STREAM_MPIX_S: f64 = 3840.0 * 2160.0 * 60.0 / 1e6;

/// Scheduler resource dimensions (§3.3.3, Figure 6).
pub mod millicores {
    /// Milli-decode cores per VCU.
    pub const DECODE_PER_VCU: u32 = 3_000;
    /// Milli-encode cores per VCU.
    pub const ENCODE_PER_VCU: u32 = 10_000;
}

/// CPU baseline: dual-socket Skylake, both sockets (Table 1 note 8).
pub mod cpu {
    /// Offline two-pass H.264 software encode throughput of the whole
    /// machine (Table 1: 714 Mpix/s).
    pub const H264_MPIX_S: f64 = 714.0;
    /// Offline two-pass VP9 software throughput (Table 1: 154 Mpix/s).
    pub const VP9_MPIX_S: f64 = 154.0;
    /// CPU MOT derate: chunk-parallel MOT on CPU runs slower per pixel
    /// than SOT due to memory pressure and load imbalance (derived from
    /// the paper's 68.9× VP9-MOT perf/watt claim; §4.1).
    pub const MOT_FACTOR: f64 = 0.56;
    /// Active power draw of the dual-socket host under transcode load,
    /// watts (idle subtracted, as the paper's perf/W comparison does).
    pub const ACTIVE_POWER_W: f64 = 400.0;
}

/// GPU baseline: Nvidia T4 with NVENC-style fixed-function encoders.
pub mod gpu {
    /// H.264 encode throughput per T4 (Table 1: 4 GPUs = 2,484 Mpix/s).
    pub const H264_MPIX_S_PER_GPU: f64 = 621.0;
    /// T4s per baseline system.
    pub const GPUS_PER_SYSTEM: usize = 4;
    /// VP9 encoding support: none (Table 1's dash).
    pub const SUPPORTS_VP9_ENCODE: bool = false;
}

/// VCU host power (active), watts: host CPU + trays; calibrated so the
/// 20-VCU system reproduces the paper's 6.7× H.264-SOT perf/W claim.
pub const VCU_HOST_BASE_POWER_W: f64 = 250.0;
/// Active power per VCU card (2 VCUs), watts.
pub const VCU_CARD_POWER_W: f64 = 100.0;

/// Host network interface (Appendix A.2): 100 Gbps.
pub const HOST_NIC_GBPS: f64 = 100.0;
/// Network-bound transcoding ceiling per host (Appendix A.2:
/// "~153 Gpixel/s for each accelerator host").
pub const HOST_NET_CEILING_GPIX_S: f64 = 153.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_core_hits_2160p60() {
        let bottleneck = [
            stage_cycles::MOTION_RDO,
            stage_cycles::ENTROPY,
            stage_cycles::LOOPFILTER,
            stage_cycles::DMA,
        ]
        .into_iter()
        .max()
        .unwrap();
        let mpix_s = CORE_CLOCK_HZ / bottleneck as f64 * 256.0 / 1e6;
        // Must cover 2160p60 (≈ 498 Mpix/s) with a little headroom.
        assert!(
            mpix_s >= REF_STREAM_MPIX_S,
            "core rate {mpix_s:.0} below 2160p60 {REF_STREAM_MPIX_S:.0}"
        );
        assert!(
            mpix_s < REF_STREAM_MPIX_S * 1.2,
            "core unrealistically fast"
        );
    }

    #[test]
    fn dram_budget_matches_paper_envelope() {
        // §3.3.1: "the VCU needs ~27-37 GiB/s of DRAM bandwidth".
        let enc_typ = dram::ENCODE_2160P60_REFCOMP_GIB_S;
        let dec = dram::DECODE_2160P60_GIB_S;
        // 10 encoder streams + a few decodes in flight.
        let demand = 10.0 * enc_typ + 3.0 * dec;
        assert!(demand > 25.0 && demand < 38.0, "demand {demand}");
        assert!(dram::RAW_GIB_S * dram::EFFICIENCY > demand * 0.8);
    }

    #[test]
    fn table1_cpu_ratio() {
        // VP9 is 4-5x slower than H.264 in software (Table 1).
        let ratio = cpu::H264_MPIX_S / cpu::VP9_MPIX_S;
        assert!((4.0..5.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn host_has_twenty_vcus() {
        assert_eq!(VCUS_PER_HOST, 20);
    }
}
