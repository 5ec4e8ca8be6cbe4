//! VCU DRAM bandwidth and capacity model.
//!
//! Scales the paper's 2160p60 anchor numbers (§3.3.1) to arbitrary
//! stream shapes, models the lossless reference-compression saving, and
//! computes per-job DRAM footprints (Appendix A.4) that the scheduler
//! treats as a resource dimension.

use crate::calib::{self, dram};
use crate::job::TranscodeJob;

/// Per-stream encoder DRAM bandwidth in GiB/s for a stream of
/// `mpix_s` (output pixel rate), with or without reference-frame
/// compression.
pub(crate) fn encode_stream_bw_gib_s(mpix_s: f64, refcomp: bool) -> f64 {
    let anchor = if refcomp {
        dram::ENCODE_2160P60_REFCOMP_GIB_S
    } else {
        dram::ENCODE_2160P60_GIB_S
    };
    anchor * mpix_s / calib::REF_STREAM_MPIX_S
}

/// Per-stream decoder DRAM bandwidth in GiB/s.
pub(crate) fn decode_stream_bw_gib_s(mpix_s: f64) -> f64 {
    dram::DECODE_2160P60_GIB_S * mpix_s / calib::REF_STREAM_MPIX_S
}

/// DRAM footprint of a job in MiB (Appendix A.4: ~700 MiB per 2160p
/// MOT, ~500 MiB per 2160p SOT, scaling with input resolution).
pub(crate) fn job_footprint_mib(job: &TranscodeJob) -> f64 {
    let anchor = if job.is_mot() {
        dram::MOT_2160P_FOOTPRINT_MIB
    } else {
        dram::SOT_2160P_FOOTPRINT_MIB
    };
    let scale = job.input.pixels() as f64 / (3840.0 * 2160.0);
    // Buffers have fixed overheads; don't scale below 10% of anchor.
    anchor * scale.max(0.1)
}

/// Aggregate DRAM state of one VCU.
#[derive(Debug, Clone)]
pub struct DramModel {
    /// Whether reference-frame compression is enabled (ablation knob;
    /// production hardware always enables it).
    pub refcomp: bool,
    streams_bw_gib_s: f64,
    used_mib: f64,
}

impl DramModel {
    /// A fresh DRAM model with the shipped four-channel bandwidth.
    pub fn new(refcomp: bool) -> Self {
        DramModel {
            refcomp,
            streams_bw_gib_s: 0.0,
            used_mib: 0.0,
        }
    }

    /// Usable bandwidth budget in GiB/s.
    pub(crate) fn bandwidth_budget_gib_s(&self) -> f64 {
        dram::RAW_GIB_S * dram::EFFICIENCY
    }

    /// Capacity budget in MiB.
    pub(crate) fn capacity_budget_mib(&self) -> f64 {
        dram::CAPACITY_GIB * 1024.0
    }

    /// Attempts to admit a job's DRAM demands (bandwidth for all its
    /// encode outputs + one decode stream, plus footprint). Returns
    /// `false` (without reserving) if either budget would be exceeded.
    pub fn admit(&mut self, job: &TranscodeJob) -> bool {
        let bw = self.job_bandwidth_gib_s(job);
        let mib = job_footprint_mib(job);
        if self.streams_bw_gib_s + bw > self.bandwidth_budget_gib_s()
            || self.used_mib + mib > self.capacity_budget_mib()
        {
            return false;
        }
        self.streams_bw_gib_s += bw;
        self.used_mib += mib;
        true
    }

    /// Total DRAM bandwidth a job needs on this VCU.
    pub(crate) fn job_bandwidth_gib_s(&self, job: &TranscodeJob) -> f64 {
        let enc: f64 = job
            .outputs
            .iter()
            .map(|o| {
                encode_stream_bw_gib_s(o.resolution.pixels() as f64 * job.fps / 1e6, self.refcomp)
            })
            .sum();
        enc + decode_stream_bw_gib_s(job.input_mpix_s())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcu_codec::Profile;
    use vcu_media::Resolution;

    #[test]
    fn anchor_rates_match_paper() {
        // 2160p60 stream: 3.5 GiB/s uncompressed, 2.0 with refcomp.
        let r = calib::REF_STREAM_MPIX_S;
        assert!((encode_stream_bw_gib_s(r, false) - 3.5).abs() < 1e-9);
        assert!((encode_stream_bw_gib_s(r, true) - 2.0).abs() < 1e-9);
        assert!((decode_stream_bw_gib_s(r) - 2.2).abs() < 1e-9);
    }

    #[test]
    fn refcomp_roughly_halves_encode_bw() {
        let bw_on = encode_stream_bw_gib_s(500.0, true);
        let bw_off = encode_stream_bw_gib_s(500.0, false);
        let saving = 1.0 - bw_on / bw_off;
        assert!((0.35..0.55).contains(&saving), "saving {saving}");
    }

    #[test]
    fn footprints_match_appendix() {
        let mot = TranscodeJob::mot(Resolution::R2160, Profile::Vp9Sim, 30.0, 5.0);
        let sot = TranscodeJob::sot(
            Resolution::R2160,
            Resolution::R2160,
            Profile::Vp9Sim,
            30.0,
            5.0,
        );
        assert!((job_footprint_mib(&mot) - 700.0).abs() < 1.0);
        assert!((job_footprint_mib(&sot) - 500.0).abs() < 1.0);
        // 8 GiB VCU fits ~11 2160p MOTs; 4 GiB would not fit the
        // Appendix-A worst case mix comfortably.
        let per_vcu = DramModel::new(true).capacity_budget_mib() / 700.0;
        assert!(per_vcu > 10.0);
    }

    #[test]
    fn admission_enforces_budgets() {
        let mut d = DramModel::new(true);
        let big = TranscodeJob::mot(Resolution::R2160, Profile::Vp9Sim, 60.0, 5.0);
        let mut admitted = 0;
        while d.admit(&big) {
            admitted += 1;
            assert!(admitted < 100, "admission never saturates");
        }
        assert!(
            admitted >= 2,
            "should fit at least a couple of 2160p60 MOTs"
        );
        assert!(d.streams_bw_gib_s <= d.bandwidth_budget_gib_s());
        assert!(d.used_mib <= d.capacity_budget_mib());
    }

    #[test]
    fn without_refcomp_fewer_streams_fit() {
        let job = TranscodeJob::mot(Resolution::R2160, Profile::Vp9Sim, 60.0, 5.0);
        let count = |refcomp: bool| {
            let mut d = DramModel::new(refcomp);
            let mut n = 0;
            while d.admit(&job) {
                n += 1;
            }
            n
        };
        assert!(
            count(true) > count(false),
            "refcomp {} vs none {}",
            count(true),
            count(false)
        );
    }
}
