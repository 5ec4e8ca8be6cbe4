//! Whole-VCU capacity model and scheduler resource mapping.
//!
//! Combines the encoder-core, decoder-core and DRAM models into the
//! per-VCU numbers the rest of the system uses: sustained Mpix/s by
//! workload shape, and the millicore resource demands (§3.3.3) the
//! cluster's bin-packing scheduler packs against.

use crate::calib::{self, millicores};
use crate::design::DesignPoint;
use crate::dram::job_footprint_mib;
use crate::job::TranscodeJob;
use vcu_codec::Profile;

/// Workload shape for capacity queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadShape {
    /// Single-output, offline two-pass (Table 1's benchmark shape):
    /// every output frame is encoded twice at output resolution.
    SotTwoPass,
    /// Multiple-output two-pass: the first pass runs once on the
    /// *input* and is shared across the ladder (§3.1), so per output
    /// pixel the encoder does `1 + input/output ≈ 1.55` passes instead
    /// of 2 — the structural source of the paper's 1.2–1.3× MOT win.
    MotTwoPass,
    /// One-pass low latency (live, gaming).
    OnePass,
}

impl WorkloadShape {
    /// Encoder passes per output pixel for this shape.
    pub(crate) fn passes_per_output_pixel(self) -> f64 {
        match self {
            WorkloadShape::SotTwoPass => 2.0,
            WorkloadShape::MotTwoPass => {
                // input/output pixel ratio for a full ladder ≈ 0.55.
                1.0 + 0.55
            }
            WorkloadShape::OnePass => 1.0,
        }
    }
}

/// Static capacity model of one VCU.
#[derive(Debug, Clone)]
pub struct VcuModel {
    /// Stateless core dispatch (ablation knob): stateless cores let
    /// firmware run any stream on any idle core; sticky cores strand
    /// capacity when their stream stalls (§3.2 "Control and Stateless
    /// Operation").
    pub stateless: bool,
    /// Silicon configuration. Defaults to [`DesignPoint::shipped`],
    /// which reproduces the production model bit-for-bit; the DSE
    /// driver sweeps candidates here.
    pub design: DesignPoint,
}

impl Default for VcuModel {
    fn default() -> Self {
        VcuModel {
            stateless: true,
            design: DesignPoint::shipped(),
        }
    }
}

impl VcuModel {
    /// Production configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// A production-featured VCU built on a candidate design point.
    pub fn for_design(design: DesignPoint) -> Self {
        VcuModel {
            design,
            ..Self::default()
        }
    }

    /// Peak silicon encode rate (one-pass) in Mpix/s.
    pub(crate) fn peak_encode_mpix_s(&self, profile: Profile) -> f64 {
        self.design.encoder_cores as f64 * self.design.core_rate_mpix_s(profile)
    }

    /// Hardware decode capacity in Mpix/s (input pixels). Decoder
    /// cores share the DRAM bus, so a bandwidth-starved design stalls
    /// them by the same envelope factor as the encoders.
    pub(crate) fn decode_capacity_mpix_s(&self) -> f64 {
        self.design.decoder_cores as f64
            * calib::DECODER_CORE_MPIX_S
            * self.design.mem_stall_factor()
    }

    /// Sustained system-level encode rate in Mpix/s of output for a
    /// workload shape — includes the pass structure, the loaded-system
    /// derate, the stateless-dispatch factor, and (off the shipped
    /// design point) the chip-level memory stall.
    pub fn sustained_mpix_s(&self, profile: Profile, shape: WorkloadShape) -> f64 {
        let stateless_factor = if self.stateless { 1.0 } else { 0.72 };
        self.peak_encode_mpix_s(profile)
            * calib::SYSTEM_DERATE
            * stateless_factor
            * self.design.mem_stall_factor()
            / shape.passes_per_output_pixel()
    }

    /// Millicore demand of a job (the §3.3.3 resource mapping): how
    /// much of this VCU's decode/encode capacity the job consumes,
    /// expressed in the scheduler's units (3,000 millidecode / 10,000
    /// milliencode per VCU).
    pub fn job_demand(&self, job: &TranscodeJob) -> ResourceDemand {
        let profile = job.outputs[0].profile;
        let shape = match (job.is_mot(), job.two_pass) {
            (true, true) => WorkloadShape::MotTwoPass,
            (false, true) => WorkloadShape::SotTwoPass,
            (_, false) => WorkloadShape::OnePass,
        };
        // Real-time factor: the job must process duration_s of video in
        // duration_s (live) — batch jobs consume capacity at full rate
        // while running, so demand is the fraction of the VCU they use.
        let encode_frac = job.output_mpix_s() / self.sustained_mpix_s(profile, shape);
        let decode_frac = job.input_mpix_s() / self.decode_capacity_mpix_s();
        ResourceDemand {
            millidecode: (decode_frac * millicores::DECODE_PER_VCU as f64).ceil() as u32,
            milliencode: (encode_frac * millicores::ENCODE_PER_VCU as f64).ceil() as u32,
            dram_mib: job_footprint_mib(job).ceil() as u32,
            host_mcpu: (job.output_mpix_s() * 0.15).ceil() as u32,
        }
    }
}

/// Scheduler-visible resource demand of one transcode step, in the
/// named scalar dimensions of §3.3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceDemand {
    /// Milli decoder cores (3,000 per VCU).
    pub millidecode: u32,
    /// Milli encoder cores (10,000 per VCU).
    pub milliencode: u32,
    /// VCU DRAM megabytes.
    pub dram_mib: u32,
    /// Host milli-CPU (synthetic dimension; §3.3.3).
    pub host_mcpu: u32,
}

impl ResourceDemand {
    /// The all-zero demand: identity for [`ResourceDemand::plus`], and
    /// what a worker holding no placement has used.
    pub const ZERO: ResourceDemand = ResourceDemand {
        millidecode: 0,
        milliencode: 0,
        dram_mib: 0,
        host_mcpu: 0,
    };

    /// Component-wise sum.
    pub fn plus(self, other: ResourceDemand) -> ResourceDemand {
        ResourceDemand {
            millidecode: self.millidecode + other.millidecode,
            milliencode: self.milliencode + other.milliencode,
            dram_mib: self.dram_mib + other.dram_mib,
            host_mcpu: self.host_mcpu + other.host_mcpu,
        }
    }

    /// True if `self` fits within `capacity`.
    pub fn fits_in(self, capacity: ResourceDemand) -> bool {
        self.millidecode <= capacity.millidecode
            && self.milliencode <= capacity.milliencode
            && self.dram_mib <= capacity.dram_mib
            && self.host_mcpu <= capacity.host_mcpu
    }

    /// Component-wise saturating subtraction.
    pub fn minus(self, other: ResourceDemand) -> ResourceDemand {
        ResourceDemand {
            millidecode: self.millidecode.saturating_sub(other.millidecode),
            milliencode: self.milliencode.saturating_sub(other.milliencode),
            dram_mib: self.dram_mib.saturating_sub(other.dram_mib),
            host_mcpu: self.host_mcpu.saturating_sub(other.host_mcpu),
        }
    }

    /// The full capacity of one VCU worker (plus a host CPU share).
    pub fn vcu_capacity() -> ResourceDemand {
        ResourceDemand {
            millidecode: millicores::DECODE_PER_VCU,
            milliencode: millicores::ENCODE_PER_VCU,
            dram_mib: (calib::dram::CAPACITY_GIB * 1024.0) as u32,
            host_mcpu: 5_000,
        }
    }

    /// Concurrent copies of this demand one healthy VCU fits: capacity
    /// over demand on the binding scheduler dimension, at least 1.
    pub fn slots_per_vcu(self) -> u64 {
        let cap = Self::vcu_capacity();
        let slots = [
            cap.millidecode / self.millidecode.max(1),
            cap.milliencode / self.milliencode.max(1),
            cap.dram_mib / self.dram_mib.max(1),
            cap.host_mcpu / self.host_mcpu.max(1),
        ];
        slots.into_iter().min().map_or(1, |s| u64::from(s.max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcu_media::Resolution;

    #[test]
    fn sot_two_pass_lands_near_table1() {
        // Table 1: 14,932 Mpix/s for 20 VCUs → ~747 per VCU (H.264).
        let v = VcuModel::new();
        let per_vcu = v.sustained_mpix_s(Profile::H264Sim, WorkloadShape::SotTwoPass);
        assert!(
            (650.0..850.0).contains(&per_vcu),
            "per-VCU SOT rate {per_vcu}"
        );
        let vp9 = v.sustained_mpix_s(Profile::Vp9Sim, WorkloadShape::SotTwoPass);
        assert!(vp9 > per_vcu, "VP9 hardware rate should be ≥ H.264");
    }

    #[test]
    fn mot_is_1_2_to_1_3x_sot() {
        let v = VcuModel::new();
        let sot = v.sustained_mpix_s(Profile::H264Sim, WorkloadShape::SotTwoPass);
        let mot = v.sustained_mpix_s(Profile::H264Sim, WorkloadShape::MotTwoPass);
        let ratio = mot / sot;
        assert!((1.15..1.35).contains(&ratio), "MOT/SOT ratio {ratio}");
    }

    #[test]
    fn one_pass_doubles_two_pass() {
        let v = VcuModel::new();
        let one = v.sustained_mpix_s(Profile::Vp9Sim, WorkloadShape::OnePass);
        let two = v.sustained_mpix_s(Profile::Vp9Sim, WorkloadShape::SotTwoPass);
        assert!((one / two - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sticky_cores_strand_capacity() {
        let sticky = VcuModel {
            stateless: false,
            ..VcuModel::new()
        };
        let stateless = VcuModel::new();
        assert!(
            sticky.sustained_mpix_s(Profile::Vp9Sim, WorkloadShape::MotTwoPass)
                < stateless.sustained_mpix_s(Profile::Vp9Sim, WorkloadShape::MotTwoPass) * 0.8
        );
    }

    #[test]
    fn single_vcu_handles_1080p_mot_in_realtime() {
        // §4.5: "today, a single VCU can handle this MOT in real time".
        let v = VcuModel::new();
        let job = TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 2.0);
        let d = v.job_demand(&job);
        assert!(
            d.fits_in(ResourceDemand::vcu_capacity()),
            "1080p MOT demand {d:?} exceeds one VCU"
        );
    }

    #[test]
    fn demand_scales_with_resolution() {
        let v = VcuModel::new();
        let small = v.job_demand(&TranscodeJob::mot(
            Resolution::R360,
            Profile::Vp9Sim,
            30.0,
            5.0,
        ));
        let big = v.job_demand(&TranscodeJob::mot(
            Resolution::R2160,
            Profile::Vp9Sim,
            30.0,
            5.0,
        ));
        assert!(big.milliencode > small.milliencode * 10);
        assert!(big.millidecode > small.millidecode);
    }

    #[test]
    fn demand_arithmetic() {
        let a = ResourceDemand {
            millidecode: 100,
            milliencode: 200,
            dram_mib: 50,
            host_mcpu: 10,
        };
        let cap = ResourceDemand::vcu_capacity();
        assert!(a.fits_in(cap));
        assert!(!cap.plus(a).fits_in(cap));
        assert_eq!(cap.minus(cap), ResourceDemand::default());
    }

    #[test]
    fn slots_follow_the_binding_dimension() {
        let cap = ResourceDemand::vcu_capacity();
        let d = ResourceDemand {
            millidecode: 1,
            milliencode: cap.milliencode / 3,
            dram_mib: 1,
            host_mcpu: 1,
        };
        assert_eq!(d.slots_per_vcu(), 3, "encode millicores bind");
        assert_eq!(cap.plus(cap).slots_per_vcu(), 1, "oversized still gets 1");
    }

    #[test]
    fn paper_example_fig6_fits() {
        // Figure 6's example request: {D 500, E 3,750} fits a fresh
        // VCU worker but not one with only {D 0 / D 1,000 partially}.
        let req = ResourceDemand {
            millidecode: 500,
            milliencode: 3750,
            dram_mib: 100,
            host_mcpu: 100,
        };
        let worker0 = ResourceDemand {
            millidecode: 0,
            milliencode: 7000,
            dram_mib: 8000,
            host_mcpu: 5000,
        };
        let worker1 = ResourceDemand {
            millidecode: 1000,
            milliencode: 7000,
            dram_mib: 8000,
            host_mcpu: 5000,
        };
        assert!(!req.fits_in(worker0));
        assert!(req.fits_in(worker1));
    }
}
