//! System-level device models: the three Table-1 contenders.
//!
//! Each system reports sustained transcoding throughput for a workload
//! shape plus its power draw; cost lives in `vcu-cluster`'s TCO model.
//! CPU and GPU rates are anchored to Table 1's measurements; the VCU
//! system's rate comes out of the chip model in [`crate::vcu`].

use crate::calib::{self, cpu, gpu};
use crate::design::DesignPoint;
use crate::vcu::{VcuModel, WorkloadShape};
use vcu_codec::Profile;

/// A transcoding system under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Dual-socket Skylake server, software encoding (Table 1 row 1).
    SkylakeCpu,
    /// The same server with 4 Nvidia T4 GPUs (Table 1 row 2).
    GpuT4x4,
    /// VCU host with `vcus` VCUs (Table 1 rows 3–4: 8 and 20).
    VcuHost {
        /// Number of VCUs attached.
        vcus: usize,
    },
}

impl System {
    /// Table 1's four systems in row order.
    pub fn table1() -> [System; 4] {
        [
            System::SkylakeCpu,
            System::GpuT4x4,
            System::VcuHost { vcus: 8 },
            System::VcuHost { vcus: 20 },
        ]
    }

    /// Human-readable row label.
    pub fn label(&self) -> String {
        match self {
            System::SkylakeCpu => "Skylake".to_string(),
            System::GpuT4x4 => "4xNvidia T4".to_string(),
            System::VcuHost { vcus } => format!("{vcus}xVCU"),
        }
    }

    /// Whether the system can encode `profile` at all (the GPU's VP9
    /// encode gap is Table 1's dash).
    pub(crate) fn supports_encode(&self, profile: Profile) -> bool {
        match (self, profile) {
            (System::GpuT4x4, Profile::Vp9Sim) => gpu::SUPPORTS_VP9_ENCODE,
            _ => true,
        }
    }

    /// Sustained transcoding throughput in Mpix/s of output for the
    /// given profile and workload shape. Returns `None` where the
    /// system cannot run the workload (GPU VP9 encode).
    pub fn throughput_mpix_s(&self, profile: Profile, shape: WorkloadShape) -> Option<f64> {
        if !self.supports_encode(profile) {
            return None;
        }
        Some(match self {
            System::SkylakeCpu => {
                let base = match profile {
                    Profile::H264Sim => cpu::H264_MPIX_S,
                    Profile::Vp9Sim => cpu::VP9_MPIX_S,
                };
                match shape {
                    WorkloadShape::SotTwoPass => base,
                    WorkloadShape::MotTwoPass => base * cpu::MOT_FACTOR / 0.5 * 0.645,
                    // One-pass skips the second encode and the stats
                    // pass; measured software speedups land near 1.8×.
                    WorkloadShape::OnePass => base * 1.8,
                }
            }
            System::GpuT4x4 => {
                let base = gpu::H264_MPIX_S_PER_GPU * gpu::GPUS_PER_SYSTEM as f64;
                match shape {
                    WorkloadShape::SotTwoPass => base,
                    // The GPU baseline never supported MOT (§4.1).
                    WorkloadShape::MotTwoPass => return None,
                    WorkloadShape::OnePass => base * 1.6,
                }
            }
            System::VcuHost { vcus } => {
                let v = VcuModel::new();
                *vcus as f64 * v.sustained_mpix_s(profile, shape)
            }
        })
    }

    /// Active power draw in watts under transcode load.
    pub fn power_w(&self) -> f64 {
        match self {
            System::SkylakeCpu => cpu::ACTIVE_POWER_W,
            // The paper collected no GPU active power; we model the
            // host plus 70 W per T4 for completeness.
            System::GpuT4x4 => cpu::ACTIVE_POWER_W + 70.0 * gpu::GPUS_PER_SYSTEM as f64,
            System::VcuHost { vcus } => {
                let cards = (*vcus as f64 / calib::VCUS_PER_CARD as f64).ceil();
                calib::VCU_HOST_BASE_POWER_W + cards * DesignPoint::shipped().card_power_w()
            }
        }
    }

    /// Perf/watt in Mpix/s per watt, if the workload is supported.
    pub fn perf_per_watt(&self, profile: Profile, shape: WorkloadShape) -> Option<f64> {
        Some(self.throughput_mpix_s(profile, shape)? / self.power_w())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_h264_throughput_shape() {
        let cpu = System::SkylakeCpu
            .throughput_mpix_s(Profile::H264Sim, WorkloadShape::SotTwoPass)
            .unwrap();
        let gpu = System::GpuT4x4
            .throughput_mpix_s(Profile::H264Sim, WorkloadShape::SotTwoPass)
            .unwrap();
        let v8 = System::VcuHost { vcus: 8 }
            .throughput_mpix_s(Profile::H264Sim, WorkloadShape::SotTwoPass)
            .unwrap();
        let v20 = System::VcuHost { vcus: 20 }
            .throughput_mpix_s(Profile::H264Sim, WorkloadShape::SotTwoPass)
            .unwrap();
        // Paper: 714 / 2,484 / 5,973 / 14,932 → ratios 3.5x / 8.4x / 20.9x.
        assert!((3.0..4.0).contains(&(gpu / cpu)), "gpu/cpu {}", gpu / cpu);
        assert!((7.0..10.0).contains(&(v8 / cpu)), "v8/cpu {}", v8 / cpu);
        assert!((17.0..25.0).contains(&(v20 / cpu)), "v20/cpu {}", v20 / cpu);
    }

    #[test]
    fn table1_vp9_two_orders_of_magnitude() {
        let cpu = System::SkylakeCpu
            .throughput_mpix_s(Profile::Vp9Sim, WorkloadShape::SotTwoPass)
            .unwrap();
        let v20 = System::VcuHost { vcus: 20 }
            .throughput_mpix_s(Profile::Vp9Sim, WorkloadShape::SotTwoPass)
            .unwrap();
        // Paper: 99.4x.
        let ratio = v20 / cpu;
        assert!((80.0..120.0).contains(&ratio), "vp9 ratio {ratio}");
    }

    #[test]
    fn gpu_cannot_encode_vp9() {
        assert!(System::GpuT4x4
            .throughput_mpix_s(Profile::Vp9Sim, WorkloadShape::SotTwoPass)
            .is_none());
        assert!(!System::GpuT4x4.supports_encode(Profile::Vp9Sim));
    }

    #[test]
    fn perf_per_watt_h264_sot() {
        // Paper: "6.7x better perf/watt than the CPU baseline for
        // single output H.264".
        let cpu = System::SkylakeCpu
            .perf_per_watt(Profile::H264Sim, WorkloadShape::SotTwoPass)
            .unwrap();
        let vcu = System::VcuHost { vcus: 20 }
            .perf_per_watt(Profile::H264Sim, WorkloadShape::SotTwoPass)
            .unwrap();
        let ratio = vcu / cpu;
        assert!((5.0..9.0).contains(&ratio), "perf/W ratio {ratio}");
    }

    #[test]
    fn perf_per_watt_vp9_mot() {
        // Paper: "68.9x higher perf/watt on multi-output VP9".
        let cpu = System::SkylakeCpu
            .perf_per_watt(Profile::Vp9Sim, WorkloadShape::MotTwoPass)
            .unwrap();
        let vcu = System::VcuHost { vcus: 20 }
            .perf_per_watt(Profile::Vp9Sim, WorkloadShape::MotTwoPass)
            .unwrap();
        let ratio = vcu / cpu;
        assert!(
            (50.0..90.0).contains(&ratio),
            "VP9 MOT perf/W ratio {ratio}"
        );
    }

    #[test]
    fn labels() {
        assert_eq!(System::VcuHost { vcus: 20 }.label(), "20xVCU");
        assert_eq!(System::SkylakeCpu.label(), "Skylake");
    }
}
