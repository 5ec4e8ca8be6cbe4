//! Appendix-A system balance analytics.
//!
//! Closed-form reproductions of the host-level provisioning math:
//! the network-bound transcoding ceiling (A.2), host CPU / DRAM
//! bandwidth scaling (Table 2), VCU DRAM capacity sizing (A.4), and
//! the aggregate attachment limits (A.5).

use vcu_chip::calib;

/// Appendix A.2's upload-bitrate assumption: pixels per bit across the
/// recommended upload ladder ("an average of 6.1 pixels-per-bit").
pub(crate) const PIXELS_PER_BIT: f64 = 6.1;

/// Network-bound transcoding ceiling of a host in Gpix/s.
///
/// A.2: 100 Gbps NIC × 6.1 pix/bit ≈ 610 Gpix/s raw; allowing 2×
/// upload headroom and 50% RPC/unrelated-traffic overhead gives
/// ~153 Gpix/s.
pub fn network_ceiling_gpix_s() -> f64 {
    let raw = calib::HOST_NIC_GBPS * 1e9 * PIXELS_PER_BIT / 1e9; // Gpix/s
    raw / 2.0 / 2.0
}

/// Table 2: host resources scaled to a target throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostScaling {
    /// Logical cores for transcoding overheads (mux/demux, audio,
    /// process management, accelerator ops).
    pub transcode_cores: f64,
    /// Logical cores for network + RPC.
    pub network_cores: f64,
    /// Host DRAM bandwidth for transcoding overheads, Gbps.
    pub transcode_dram_gbps: f64,
    /// Host DRAM bandwidth for network (six accesses/byte), Gbps.
    pub network_dram_gbps: f64,
}

impl HostScaling {
    /// Total logical cores.
    pub fn total_cores(&self) -> f64 {
        self.transcode_cores + self.network_cores
    }

    /// Total host DRAM bandwidth, Gbps.
    pub fn total_dram_gbps(&self) -> f64 {
        self.transcode_dram_gbps + self.network_dram_gbps
    }
}

/// Scales host resource needs to a target throughput in Gpix/s.
///
/// Anchored to Table 2 at 153 Gpix/s: 42 + 13 logical cores and
/// 214 + 300 Gbps of DRAM bandwidth.
pub fn host_scaling(target_gpix_s: f64) -> HostScaling {
    let f = target_gpix_s / calib::HOST_NET_CEILING_GPIX_S;
    // Network side (A.2 footnote 12): 25 Gbps sustained with six DRAM
    // accesses per network byte → 300 Gbps at full target, and 13
    // cores of RPC handling.
    HostScaling {
        transcode_cores: 42.0 * f,
        network_cores: 13.0 * f,
        transcode_dram_gbps: 214.0 * f,
        network_dram_gbps: 300.0 * f,
    }
}

/// A.4: worst-case VCU DRAM demand for a host at the network ceiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramSizing {
    /// GiB needed for low-latency SOT across the host.
    pub sot_low_latency_gib: f64,
    /// GiB needed for offline two-pass across the host.
    pub offline_two_pass_gib: f64,
    /// GiB available from `vcus` × 8 GiB.
    pub available_gib: f64,
}

/// Sizes VCU DRAM for a host driving `target_gpix_s` of 2160p-like
/// streams on `vcus` VCUs (A.4's arithmetic).
pub fn dram_sizing(target_gpix_s: f64, vcus: usize) -> DramSizing {
    // One 2160p60 stream is ~0.5 Gpix/s and needs ~500 MiB (SOT) /
    // ~700 MiB (MOT); lagged/offline two-pass keeps ~15 extra frames,
    // scaling the SOT footprint by ~5x (A.4: 150 GiB vs 750 GiB at the
    // network limit).
    let streams = target_gpix_s / (calib::REF_STREAM_MPIX_S / 1e3);
    let sot = streams * 500.0 / 1024.0;
    let offline = streams * 2500.0 / 1024.0;
    DramSizing {
        sot_low_latency_gib: sot,
        offline_two_pass_gib: offline,
        available_gib: vcus as f64 * calib::dram::CAPACITY_GIB,
    }
}

/// A.2/A.5: encoder-throughput-based VCU count ceilings per host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttachmentLimits {
    /// VCUs per host for real-time (one-pass) work at the network
    /// ceiling (A.2: "a ceiling of 30 VCUs per host for real-time").
    pub realtime_vcus: f64,
    /// VCUs for offline two-pass ("or 150 VCUs for offline two-pass").
    pub offline_vcus: f64,
    /// The conservative production choice.
    pub chosen: usize,
}

/// Computes attachment limits at the network ceiling.
pub fn attachment_limits() -> AttachmentLimits {
    let ceiling_mpix_s = calib::HOST_NET_CEILING_GPIX_S * 1e3;
    // A VCU's encoder silicon sustains ~0.5 Gpix/s per core × 10 ≈
    // 5 Gpix/s one-pass; the paper's A.2 uses the per-VCU "equivalent
    // to ~0.5 Gpixel/s" *system-level sustained* number.
    let per_vcu_realtime = 5_000.0; // Mpix/s silicon peak, one-pass
    let per_vcu_offline = 1_000.0; // with two passes and derates
    AttachmentLimits {
        realtime_vcus: ceiling_mpix_s / per_vcu_realtime,
        offline_vcus: ceiling_mpix_s / per_vcu_offline,
        chosen: calib::VCUS_PER_HOST,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_ceiling_near_153() {
        let c = network_ceiling_gpix_s();
        assert!((140.0..170.0).contains(&c), "ceiling {c}");
    }

    #[test]
    fn table2_totals() {
        // Table 2: 55 logical cores and 514 Gbps at 153 Gpix/s —
        // "about half of what the target host system provides".
        let h = host_scaling(153.0);
        assert!(
            (50.0..60.0).contains(&h.total_cores()),
            "{}",
            h.total_cores()
        );
        assert!(
            (480.0..550.0).contains(&h.total_dram_gbps()),
            "{}",
            h.total_dram_gbps()
        );
        // Appendix A: "~100 usable logical cores" per host.
        assert!(h.total_cores() < 100.0 * 0.6);
        assert!(h.total_dram_gbps() < 1600.0 * 0.4);
    }

    #[test]
    fn scaling_is_linear() {
        let h1 = host_scaling(153.0);
        let h2 = host_scaling(76.5);
        assert!((h1.total_cores() / h2.total_cores() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dram_sizing_matches_a4() {
        // A.4: 150 GiB (low-latency SOT) / 750 GiB (offline) at the
        // network limit; 8 GiB per VCU suffices, 4 GiB would not.
        let s = dram_sizing(153.0, 150);
        assert!(
            (120.0..180.0).contains(&s.sot_low_latency_gib),
            "sot {}",
            s.sot_low_latency_gib
        );
        assert!(
            (600.0..900.0).contains(&s.offline_two_pass_gib),
            "offline {}",
            s.offline_two_pass_gib
        );
        assert!(s.available_gib >= s.offline_two_pass_gib);
        // Halving per-VCU DRAM to 4 GiB breaks the offline case.
        assert!(s.available_gib / 2.0 < s.offline_two_pass_gib);
    }

    #[test]
    fn attachment_limits_match_a2() {
        let l = attachment_limits();
        assert!(
            (25.0..35.0).contains(&l.realtime_vcus),
            "{}",
            l.realtime_vcus
        );
        assert!(
            (120.0..180.0).contains(&l.offline_vcus),
            "{}",
            l.offline_vcus
        );
        // Production choice (20) is comfortably under both.
        assert!((l.chosen as f64) < l.realtime_vcus * 1.5);
        assert!((l.chosen as f64) < l.offline_vcus);
    }
}
