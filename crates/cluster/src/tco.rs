//! Total-cost-of-ownership model and perf/TCO.
//!
//! The paper cannot publish its TCO methodology (Table 1 note 9); it
//! reports only *normalized* perf/TCO. We therefore build a simple
//! capex + 3-year-power-opex model (the structure the paper describes:
//! "capital expense plus 3 years of operational expenses, primarily
//! power") with component prices in the public ballpark, chosen once
//! so the *ratios* between systems land near Table 1's implied values
//! (CPU 1.0×, 4×T4 ≈ 2.3×, 8×VCU ≈ 1.9×, 20×VCU ≈ 3.0×).

use vcu_chip::calib::{VCUS_PER_CARD, VCUS_PER_HOST, VCU_HOST_BASE_POWER_W};
use vcu_chip::{DesignPoint, System, WorkloadShape};
use vcu_codec::Profile;

/// Cost breakdown in dollars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tco {
    /// Capital expense.
    pub capex: f64,
    /// 3-year operational expense (power, cooling, provisioning).
    pub opex_3yr: f64,
}

impl Tco {
    /// Total cost.
    pub fn total(&self) -> f64 {
        self.capex + self.opex_3yr
    }
}

/// All-in data-center cost per watt over 3 years (energy + cooling +
/// power provisioning amortization).
pub(crate) const OPEX_PER_WATT_3YR: f64 = 5.0;

/// Dual-socket Skylake server capex.
const SERVER_CAPEX: f64 = 10_000.0;
/// T4 GPU capex (card + integration).
const T4_CAPEX: f64 = 3_800.0;

/// TCO of a system at the data-center power price
/// (`OPEX_PER_WATT_3YR`). A VCU host is priced by
/// `vcu_host_tco_for` at the shipped design.
pub fn system_tco(system: System) -> Tco {
    let capex = match system {
        System::SkylakeCpu => SERVER_CAPEX,
        System::GpuT4x4 => SERVER_CAPEX + 4.0 * T4_CAPEX,
        System::VcuHost { vcus } => return vcu_host_tco_for(&DesignPoint::shipped(), vcus),
    };
    Tco {
        capex,
        opex_3yr: system.power_w() * OPEX_PER_WATT_3YR,
    }
}

/// TCO of a VCU host whose cards carry an arbitrary chip design: card
/// capex and power come from the design's cost/area/power model.
pub(crate) fn vcu_host_tco_for(design: &DesignPoint, vcus: usize) -> Tco {
    let cards = (vcus as f64 / VCUS_PER_CARD as f64).ceil();
    let power = VCU_HOST_BASE_POWER_W + cards * design.card_power_w();
    Tco {
        capex: SERVER_CAPEX + cards * design.card_capex_usd(),
        opex_3yr: power * OPEX_PER_WATT_3YR,
    }
}

/// TCO of a fleet of `vcus` VCUs carrying `design`, priced as whole
/// [`VCUS_PER_HOST`]-VCU hosts (the shipped packaging): a partial host
/// rounds up.
pub fn fleet_tco_usd(design: &DesignPoint, vcus: usize) -> f64 {
    vcus.div_ceil(VCUS_PER_HOST) as f64 * vcu_host_tco_for(design, VCUS_PER_HOST).total()
}

/// Absolute perf/TCO in Mpix/s per dollar, if the workload runs.
pub fn perf_per_tco(system: System, profile: Profile, shape: WorkloadShape) -> Option<f64> {
    Some(system.throughput_mpix_s(profile, shape)? / system_tco(system).total())
}

/// Perf/TCO normalized to the Skylake baseline (Table 1's metric).
pub fn perf_per_tco_normalized(
    system: System,
    profile: Profile,
    shape: WorkloadShape,
) -> Option<f64> {
    let base = perf_per_tco(System::SkylakeCpu, profile, shape)?;
    Some(perf_per_tco(system, profile, shape)? / base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tco_ratios_match_table1_band() {
        let base = system_tco(System::SkylakeCpu).total();
        let gpu = system_tco(System::GpuT4x4).total() / base;
        let v8 = system_tco(System::VcuHost { vcus: 8 }).total() / base;
        let v20 = system_tco(System::VcuHost { vcus: 20 }).total() / base;
        // Implied by Table 1: ≈2.3×, ≈1.9×, ≈3.0×.
        assert!((2.0..2.7).contains(&gpu), "gpu ratio {gpu}");
        assert!((1.6..2.2).contains(&v8), "8xVCU ratio {v8}");
        assert!((2.6..3.6).contains(&v20), "20xVCU ratio {v20}");
    }

    #[test]
    fn table1_perf_per_tco_h264() {
        let s = WorkloadShape::SotTwoPass;
        let p = Profile::H264Sim;
        let gpu = perf_per_tco_normalized(System::GpuT4x4, p, s).unwrap();
        let v8 = perf_per_tco_normalized(System::VcuHost { vcus: 8 }, p, s).unwrap();
        let v20 = perf_per_tco_normalized(System::VcuHost { vcus: 20 }, p, s).unwrap();
        // Paper: 1.5x / 4.4x / 7.0x.
        assert!((1.1..2.0).contains(&gpu), "gpu {gpu}");
        assert!((3.3..5.5).contains(&v8), "v8 {v8}");
        assert!((5.5..9.0).contains(&v20), "v20 {v20}");
    }

    #[test]
    fn table1_perf_per_tco_vp9() {
        let s = WorkloadShape::SotTwoPass;
        let p = Profile::Vp9Sim;
        let v8 = perf_per_tco_normalized(System::VcuHost { vcus: 8 }, p, s).unwrap();
        let v20 = perf_per_tco_normalized(System::VcuHost { vcus: 20 }, p, s).unwrap();
        // Paper: 20.8x / 33.3x.
        assert!((15.0..28.0).contains(&v8), "v8 {v8}");
        assert!((25.0..42.0).contains(&v20), "v20 {v20}");
        assert!(perf_per_tco_normalized(System::GpuT4x4, p, s).is_none());
    }

    #[test]
    fn known_answer_8xvcu() {
        // 8 VCUs = 4 cards: capex is exactly server + 4 cards, and the
        // opex term is power × price with nothing else folded in.
        let sys = System::VcuHost { vcus: 8 };
        let t = system_tco(sys);
        assert_eq!(t.capex, SERVER_CAPEX + 4.0 * 2_200.0);
        assert_eq!(t.opex_3yr, sys.power_w() * OPEX_PER_WATT_3YR);
        assert_eq!(t.total(), t.capex + t.opex_3yr);
    }

    vcu_rng::prop_cases! {
        /// Every system pays the one power price: its opex is its
        /// active power times [`OPEX_PER_WATT_3YR`], so TCO is monotone
        /// in that price for every system shape, and a VCU host with
        /// more VCUs never costs less.
        #[cases(128)]
        fn tco_monotone_in_power_price(rng) {
            let vcus = rng.gen_range(1u32..33) as usize;
            for sys in [
                System::SkylakeCpu,
                System::GpuT4x4,
                System::VcuHost { vcus },
            ] {
                let t = system_tco(sys);
                assert!(sys.power_w() > 0.0, "{sys:?}");
                assert_eq!(t.opex_3yr, sys.power_w() * OPEX_PER_WATT_3YR, "{sys:?}");
            }
            let (small, large) = (
                system_tco(System::VcuHost { vcus }),
                system_tco(System::VcuHost { vcus: vcus + 1 }),
            );
            assert!(small.capex <= large.capex && small.opex_3yr <= large.opex_3yr);
        }

        /// For any design, opex is linear in the number of cards over
        /// the host's base power, and capex is the server plus whole
        /// cards at the design's card price.
        #[cases(128)]
        fn tco_opex_linear_capex_fixed(rng) {
            let design = DesignPoint::new(
                rng.gen_range(6u32..15) as usize,
                rng.gen_range(2u32..5) as usize,
                rng.gen_range(20.0..50.0),
                147_456,
            );
            let cards = rng.gen_range(1u32..17) as usize;
            let tco = |cards: usize| vcu_host_tco_for(&design, cards * VCUS_PER_CARD);
            let (base, one, k) = (tco(0), tco(1), tco(cards));
            assert_eq!(k.capex, SERVER_CAPEX + cards as f64 * design.card_capex_usd());
            let per_card = one.opex_3yr - base.opex_3yr;
            assert!(
                (k.opex_3yr - base.opex_3yr - cards as f64 * per_card).abs()
                    <= 1e-9 * k.opex_3yr,
                "opex not linear in cards: {} vs {}",
                k.opex_3yr - base.opex_3yr,
                cards as f64 * per_card
            );
        }
    }

    #[test]
    fn shipped_design_prices_like_the_constant_card() {
        // The design model must price the shipped card at exactly the
        // Table-1 calibration ($2,200 and 100 W per two-VCU card) —
        // this is what lets the DSE frontier anchor on the same
        // dollars the rest of the repo reports.
        let shipped = DesignPoint::shipped();
        for vcus in [1usize, 8, 19, 20, 40] {
            let cards = vcus.div_ceil(VCUS_PER_CARD) as f64;
            let t = system_tco(System::VcuHost { vcus });
            assert_eq!(t.capex, SERVER_CAPEX + cards * 2_200.0, "vcus = {vcus}");
            assert_eq!(
                t.opex_3yr,
                (VCU_HOST_BASE_POWER_W + cards * 100.0) * OPEX_PER_WATT_3YR,
                "vcus = {vcus}"
            );
            assert_eq!(vcu_host_tco_for(&shipped, vcus), t, "vcus = {vcus}");
        }
        // A fleet is priced as whole 20-VCU hosts.
        let host = system_tco(System::VcuHost { vcus: 20 }).total();
        assert_eq!(fleet_tco_usd(&shipped, 20), host);
        assert_eq!(fleet_tco_usd(&shipped, 21), 2.0 * host);
        // A beefier design strictly raises both cost terms.
        let big = vcu_host_tco_for(&DesignPoint::new(14, 4, 45.0, 2 * 147_456), 20);
        let base = vcu_host_tco_for(&shipped, 20);
        assert!(big.capex > base.capex && big.opex_3yr > base.opex_3yr);
    }

    #[test]
    fn baseline_is_unity() {
        let n = perf_per_tco_normalized(
            System::SkylakeCpu,
            Profile::H264Sim,
            WorkloadShape::SotTwoPass,
        )
        .unwrap();
        assert!((n - 1.0).abs() < 1e-12);
    }
}
