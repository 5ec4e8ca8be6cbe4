//! Chip design points: the axes the DSE driver sweeps.
//!
//! The shipped VCU fixes one point in a four-dimensional space —
//! encoder cores × decoder cores × DRAM bandwidth × reference-store
//! SRAM (§3.3.1 sizes each axis against the worst-case workload
//! envelope). [`DesignPoint`] makes that space explicit: every axis is
//! a parameter, performance derates are derived from the same
//! calibrated sub-models the shipped configuration uses
//! ([`PipelineSim`], [`RefStore`], the §3.3.1 bandwidth envelope), and
//! a cost/area/power model prices each candidate so `vcu-dse` can
//! trade performance against TCO.
//!
//! Calibration invariant: [`DesignPoint::shipped`] must reproduce the
//! production model bit-for-bit — same core rate, same sustained
//! throughput, and exactly the $2,200 card capex / 100 W card power
//! that `vcu-cluster::tco` prices `System::VcuHost` with. Every derate
//! in this module is expressed *relative to the shipped point* and
//! short-circuits to exactly 1.0 there, so adding the design axis
//! changed no committed artifact byte.

use crate::calib::{self, dram, stage_cycles};
use crate::encoder_core::PipelineSim;
use crate::refstore::{simulate_frame_search, RefStore, STORE_PIXELS};
use std::sync::OnceLock;
use vcu_codec::Profile;

/// Area model, mm² in a 7 nm-class process. Absolute values only
/// matter through the shipped-point calibration below; the *relative*
/// costs (an encoder core ≈ 3× a decoder core, SRAM and PHYs are
/// cheap but not free) are what shape the frontier.
mod area {
    /// Control processor, firmware SRAM, host interface, I/O ring.
    pub(super) const BASE_MM2: f64 = 30.0;
    /// One encoder core (motion search arrays dominate; Figure 5a).
    pub(super) const ENCODER_CORE_MM2: f64 = 6.0;
    /// One decoder core (~10× cheaper than encode; §3.3.1).
    pub(super) const DECODER_CORE_MM2: f64 = 2.0;
    /// One shipped-size (144K-pixel) reference store, per encoder core.
    pub(super) const REFSTORE_MM2: f64 = 1.0;
    /// One 32-bit LPDDR4 channel PHY + controller.
    pub(super) const DRAM_CHANNEL_MM2: f64 = 4.0;
}

/// Power model, watts per VCU under transcode load.
mod power {
    /// Control, firmware CPU, I/O.
    pub(super) const BASE_W: f64 = 9.0;
    /// One encoder core, active.
    pub(super) const ENCODER_CORE_W: f64 = 3.0;
    /// One decoder core, active.
    pub(super) const DECODER_CORE_W: f64 = 1.0;
    /// One LPDDR4 channel (PHY + device).
    pub(super) const DRAM_CHANNEL_W: f64 = 2.0;
}

/// Cost model, dollars per card.
mod cost {
    /// Board, packaging, passives, host interface — per card (2 VCUs).
    pub(super) const CARD_BOARD_USD: f64 = 376.0;
    /// One LPDDR4 channel's DRAM devices.
    pub(super) const DRAM_CHANNEL_USD: f64 = 45.0;
    /// Die cost of the shipped 122 mm² VCU — chosen so a shipped card
    /// prices at exactly the $2,200 card of Table 1's TCO calibration
    /// (`vcu-cluster::tco`): 376 + 2×732 + 2×4×$45 = 2,200.
    pub(super) const SHIPPED_DIE_USD: f64 = 732.0;
    /// Yield roll-off scale: die cost grows ∝ area·e^(Δarea/A₀)
    /// (Poisson defect yield), so big dies cost superlinearly — the
    /// pressure that keeps "just add cores" from dominating.
    pub(super) const YIELD_AREA_MM2: f64 = 60.0;
}

/// Raw bandwidth of one 32-bit LPDDR4-3200 channel in GiB/s (§3.3.1:
/// four channels ≈ 36 GiB/s).
pub(crate) const DRAM_CHANNEL_GIB_S: f64 = 9.0;

/// FIFO depth / variability / blocks for the pipeline-interaction
/// probe: the production FIFO depth with moderate content variability,
/// long enough for the steady state to dominate warm-up.
const PIPE_FIFO_DEPTH: usize = 4;
const PIPE_VARIABILITY: f64 = 0.5;
const PIPE_BLOCKS: u64 = 2048;

/// Fixed frame geometry for the reference-store traffic probe: one
/// 640×360 frame searched in 512-pixel tile columns with ±64 search
/// range (the refstore unit-test geometry). The probe only produces a
/// *ratio* of DRAM bytes vs the shipped store, so the absolute frame
/// size cancels out.
const PROBE_FRAME: (usize, usize, usize, usize, usize) = (640, 360, 512, 64, 64);

/// One point in the VCU design space.
///
/// Construct via [`DesignPoint::new`] (which derives the cached
/// performance factors) or [`DesignPoint::shipped`]. The derived
/// fields are private so a point can never carry factors inconsistent
/// with its axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Encoder cores per VCU (shipped: 10).
    pub encoder_cores: usize,
    /// Decoder cores per VCU (shipped: 3).
    pub decoder_cores: usize,
    /// Raw DRAM bandwidth in GiB/s (shipped: 36.0 = 4 channels).
    pub dram_raw_gib_s: f64,
    /// Reference-store SRAM per encoder core, pixels (shipped: 147,456).
    pub refstore_pixels: usize,
    /// Motion-search DRAM traffic relative to the shipped store
    /// (derived from an LRU [`RefStore`] probe; 1.0 at shipped).
    traffic_factor: f64,
    /// Pipeline throughput relative to shipped once DMA slows under
    /// bandwidth pressure (derived from [`PipelineSim`]; 1.0 at
    /// shipped).
    pipeline_eff: f64,
}

impl Default for DesignPoint {
    fn default() -> Self {
        Self::shipped()
    }
}

/// DRAM bytes the traffic probe reads through a store of `pixels`.
fn probe_traffic_bytes(pixels: usize) -> u64 {
    let (w, h, tile, mb, range) = PROBE_FRAME;
    let mut store = RefStore::new(pixels);
    simulate_frame_search(&mut store, w, h, tile, mb, range);
    store.dram_bytes_read
}

/// Probe traffic of the shipped store, computed once.
fn shipped_traffic_bytes() -> u64 {
    static BYTES: OnceLock<u64> = OnceLock::new();
    *BYTES.get_or_init(|| probe_traffic_bytes(STORE_PIXELS))
}

/// Pipeline relative throughput at a given DMA slowdown, production
/// FIFO depth. The shipped baseline (slowdown 1.0) is cached.
fn pipeline_throughput(dma_slowdown: f64) -> f64 {
    PipelineSim::with_dma_pressure(PIPE_FIFO_DEPTH, PIPE_VARIABILITY, dma_slowdown)
        .relative_throughput(PIPE_BLOCKS)
}

fn shipped_pipeline_throughput() -> f64 {
    static EFF: OnceLock<f64> = OnceLock::new();
    *EFF.get_or_init(|| pipeline_throughput(1.0))
}

impl DesignPoint {
    /// The production VCU: 10 encoder cores, 3 decoder cores, 4 LPDDR4
    /// channels (36 GiB/s), a 144K-pixel reference store per core.
    pub fn shipped() -> Self {
        DesignPoint {
            encoder_cores: calib::ENCODER_CORES_PER_VCU,
            decoder_cores: calib::DECODER_CORES_PER_VCU,
            dram_raw_gib_s: dram::RAW_GIB_S,
            refstore_pixels: STORE_PIXELS,
            traffic_factor: 1.0,
            pipeline_eff: 1.0,
        }
    }

    /// A candidate design. Derives the reference-store traffic factor
    /// (one LRU probe per distinct store size) and the
    /// pipeline-under-pressure factor; both are exactly 1.0 when the
    /// corresponding axis matches the shipped value.
    pub fn new(
        encoder_cores: usize,
        decoder_cores: usize,
        dram_raw_gib_s: f64,
        refstore_pixels: usize,
    ) -> Self {
        assert!(encoder_cores >= 1, "at least one encoder core");
        assert!(decoder_cores >= 1, "at least one decoder core");
        assert!(
            dram_raw_gib_s > 0.0 && dram_raw_gib_s.is_finite(),
            "DRAM bandwidth must be positive and finite, got {dram_raw_gib_s}"
        );
        let traffic_factor = if refstore_pixels == STORE_PIXELS {
            1.0
        } else {
            probe_traffic_bytes(refstore_pixels) as f64 / shipped_traffic_bytes() as f64
        };
        let mut point = DesignPoint {
            encoder_cores,
            decoder_cores,
            dram_raw_gib_s,
            refstore_pixels,
            traffic_factor,
            pipeline_eff: 1.0,
        };
        // DMA slows in proportion to how far this design's §3.3.1
        // pressure exceeds the shipped envelope; prefetch hides it
        // entirely below that (the calib::stage_cycles::DMA comment).
        let slowdown = point.dma_slowdown();
        if slowdown > 1.0 {
            point.pipeline_eff =
                (pipeline_throughput(slowdown) / shipped_pipeline_throughput()).min(1.0);
        }
        point
    }

    /// Compact display label, e.g. `10e3d36G144K`.
    pub fn label(&self) -> String {
        format!(
            "{}e{}d{:.0}G{}K",
            self.encoder_cores,
            self.decoder_cores,
            self.dram_raw_gib_s,
            self.refstore_pixels / 1024
        )
    }

    /// True if this point has the shipped axes.
    pub fn is_shipped(&self) -> bool {
        *self == Self::shipped()
    }

    /// Motion-search DRAM traffic multiplier vs the shipped store.
    pub fn refstore_traffic_factor(&self) -> f64 {
        self.traffic_factor
    }

    /// Worst-case DRAM demand in GiB/s (the §3.3.1 envelope): every
    /// encoder core streaming a reference-compressed 2160p60 worst case
    /// (scaled by this store's traffic factor) plus every decoder core
    /// at 2.2 GiB/s.
    pub(crate) fn dram_demand_gib_s(&self) -> f64 {
        self.encoder_cores as f64 * dram::ENCODE_2160P60_REFCOMP_GIB_S * self.traffic_factor
            + self.decoder_cores as f64 * dram::DECODE_2160P60_GIB_S
    }

    /// Worst-case demand over usable bandwidth. The shipped point sits
    /// just under 1.0 — the paper sized four channels to exactly this
    /// envelope.
    pub fn bandwidth_pressure(&self) -> f64 {
        self.dram_demand_gib_s() / (self.dram_raw_gib_s * dram::EFFICIENCY)
    }

    /// How much slower each DMA transfer runs than on the shipped
    /// design (≥ 1; exactly 1 when pressure is at or below shipped).
    fn dma_slowdown(&self) -> f64 {
        (self.bandwidth_pressure() / Self::shipped().bandwidth_pressure()).max(1.0)
    }

    /// Chip-level memory stall derate in (0, 1]: when this design's
    /// worst-case envelope exceeds the shipped pressure the calibrated
    /// `SYSTEM_DERATE` already absorbs, cross-stream contention eats
    /// sustained throughput proportionally. Extra bandwidth beyond the
    /// envelope buys nothing (exactly the §3.3.1 sizing argument).
    pub(crate) fn mem_stall_factor(&self) -> f64 {
        let shipped = Self::shipped().bandwidth_pressure();
        (shipped / self.bandwidth_pressure()).min(1.0)
    }

    /// Closed-form single-core one-pass rate in Mpix/s for this design:
    /// the Figure 4 bottleneck stage with DMA under pressure, scaled by
    /// the FIFO-decoupled pipeline's efficiency relative to shipped.
    pub(crate) fn core_rate_mpix_s(&self, profile: Profile) -> f64 {
        let dma = stage_cycles::DMA as f64 * self.dma_slowdown();
        let bottleneck = (stage_cycles::MOTION_RDO as f64)
            .max(stage_cycles::ENTROPY as f64)
            .max(stage_cycles::LOOPFILTER as f64)
            .max(dma);
        let base = calib::CORE_CLOCK_HZ / bottleneck * 256.0 / 1e6;
        let rate = match profile {
            Profile::H264Sim => base,
            Profile::Vp9Sim => base * calib::VP9_HW_EFFICIENCY,
        };
        rate * self.pipeline_eff
    }

    /// LPDDR4 channels needed for this bandwidth (9 GiB/s each).
    pub(crate) fn dram_channels(&self) -> usize {
        (self.dram_raw_gib_s / DRAM_CHANNEL_GIB_S).ceil() as usize
    }

    /// Die area in mm².
    pub fn silicon_area_mm2(&self) -> f64 {
        let refstore_frac = self.refstore_pixels as f64 / STORE_PIXELS as f64;
        area::BASE_MM2
            + self.encoder_cores as f64 * area::ENCODER_CORE_MM2
            + self.decoder_cores as f64 * area::DECODER_CORE_MM2
            + self.encoder_cores as f64 * refstore_frac * area::REFSTORE_MM2
            + self.dram_channels() as f64 * area::DRAM_CHANNEL_MM2
    }

    /// Die cost in dollars: linear in area, times a Poisson-yield
    /// roll-off that makes large dies superlinearly expensive.
    pub(crate) fn die_cost_usd(&self) -> f64 {
        let area = self.silicon_area_mm2();
        let shipped_area = Self::shipped().silicon_area_mm2();
        cost::SHIPPED_DIE_USD
            * (area / shipped_area)
            * ((area - shipped_area) / cost::YIELD_AREA_MM2).exp()
    }

    /// Card (2 VCUs) capital cost in dollars. Exactly $2,200 at the
    /// shipped point — the constant `vcu-cluster::tco` uses.
    pub fn card_capex_usd(&self) -> f64 {
        cost::CARD_BOARD_USD
            + calib::VCUS_PER_CARD as f64 * self.die_cost_usd()
            + calib::VCUS_PER_CARD as f64 * self.dram_channels() as f64 * cost::DRAM_CHANNEL_USD
    }

    /// Active power of one VCU in watts.
    pub(crate) fn vcu_power_w(&self) -> f64 {
        power::BASE_W
            + self.encoder_cores as f64 * power::ENCODER_CORE_W
            + self.decoder_cores as f64 * power::DECODER_CORE_W
            + self.dram_channels() as f64 * power::DRAM_CHANNEL_W
    }

    /// Active power of one card (2 VCUs) in watts. Exactly 100 W at
    /// the shipped point, the card power Table 1's VCU systems draw.
    pub fn card_power_w(&self) -> f64 {
        calib::VCUS_PER_CARD as f64 * self.vcu_power_w()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder_core::Stage;

    #[test]
    fn shipped_reproduces_production_constants() {
        let s = DesignPoint::shipped();
        assert!(s.is_shipped());
        assert_eq!(s.silicon_area_mm2(), 122.0);
        assert_eq!(s.die_cost_usd(), cost::SHIPPED_DIE_USD);
        // The exact card constants the TCO model prices VcuHost with.
        assert_eq!(s.card_capex_usd(), 2_200.0);
        assert_eq!(s.card_power_w(), 100.0, "Table 1's 100 W per two-VCU card");
        assert_eq!(s.dram_channels(), 4);
        // All derates are exactly 1 — the shipped point is the anchor.
        assert_eq!(s.refstore_traffic_factor(), 1.0);
        assert_eq!(s.mem_stall_factor(), 1.0);
    }

    #[test]
    fn new_with_shipped_axes_is_bitwise_shipped() {
        let built = DesignPoint::new(10, 3, 36.0, STORE_PIXELS);
        assert_eq!(built, DesignPoint::shipped());
        // The Figure 4 bottleneck stage at the core clock, 256 pixels
        // per macroblock.
        let bottleneck = Stage::ALL.iter().map(|s| s.mean_cycles()).max().unwrap();
        let closed_form = calib::CORE_CLOCK_HZ / bottleneck as f64 * 256.0 / 1e6;
        assert_eq!(
            built.core_rate_mpix_s(Profile::Vp9Sim),
            closed_form * calib::VP9_HW_EFFICIENCY,
            "design-aware core rate must equal the production closed form"
        );
    }

    #[test]
    fn shipped_sits_at_the_envelope_knee() {
        // §3.3.1: the envelope (~27 GiB/s typical demand) fits in four
        // channels' usable bandwidth, with little to spare.
        let p = DesignPoint::shipped().bandwidth_pressure();
        assert!((0.75..1.0).contains(&p), "shipped pressure {p}");
    }

    #[test]
    fn starved_bandwidth_derates_smoothly() {
        let half = DesignPoint::new(10, 3, 18.0, STORE_PIXELS);
        let stall = half.mem_stall_factor();
        assert!((0.3..0.8).contains(&stall), "stall {stall}");
        // Sustained rate scales with the stall; the per-core closed
        // form also feels DMA pressure once it exceeds the bottleneck.
        assert!(
            half.core_rate_mpix_s(Profile::H264Sim) <= {
                let s = DesignPoint::shipped();
                s.core_rate_mpix_s(Profile::H264Sim)
            }
        );
    }

    #[test]
    fn extra_bandwidth_buys_nothing_but_costs() {
        let fat = DesignPoint::new(10, 3, 54.0, STORE_PIXELS);
        let s = DesignPoint::shipped();
        assert_eq!(fat.mem_stall_factor(), 1.0);
        assert_eq!(
            fat.core_rate_mpix_s(Profile::Vp9Sim),
            s.core_rate_mpix_s(Profile::Vp9Sim)
        );
        assert!(fat.card_capex_usd() > s.card_capex_usd());
        assert!(fat.card_power_w() > s.card_power_w());
    }

    #[test]
    fn smaller_refstore_raises_traffic_and_pressure() {
        let small = DesignPoint::new(10, 3, 36.0, STORE_PIXELS / 4);
        let big = DesignPoint::new(10, 3, 36.0, STORE_PIXELS * 2);
        assert!(
            small.refstore_traffic_factor() > 1.2,
            "quarter store traffic {}",
            small.refstore_traffic_factor()
        );
        assert!(big.refstore_traffic_factor() <= 1.0);
        assert!(small.bandwidth_pressure() > big.bandwidth_pressure());
        // More misses → more demand → deeper stall on the same DRAM.
        assert!(small.mem_stall_factor() < 1.0);
    }

    #[test]
    fn cost_model_is_monotone_in_every_axis() {
        let s = DesignPoint::shipped();
        for bigger in [
            DesignPoint::new(12, 3, 36.0, STORE_PIXELS),
            DesignPoint::new(10, 4, 36.0, STORE_PIXELS),
            DesignPoint::new(10, 3, 45.0, STORE_PIXELS),
            DesignPoint::new(10, 3, 36.0, STORE_PIXELS * 2),
        ] {
            assert!(
                bigger.silicon_area_mm2() > s.silicon_area_mm2(),
                "{}",
                bigger.label()
            );
            assert!(
                bigger.card_capex_usd() > s.card_capex_usd(),
                "{}",
                bigger.label()
            );
        }
    }

    #[test]
    fn yield_rolloff_makes_big_dies_superlinear() {
        let s = DesignPoint::shipped();
        let big = DesignPoint::new(20, 3, 36.0, STORE_PIXELS);
        let area_ratio = big.silicon_area_mm2() / s.silicon_area_mm2();
        let cost_ratio = big.die_cost_usd() / s.die_cost_usd();
        assert!(
            cost_ratio > area_ratio * 1.5,
            "yield roll-off too shallow: area ×{area_ratio:.2}, cost ×{cost_ratio:.2}"
        );
    }

    #[test]
    fn label_is_compact() {
        assert_eq!(DesignPoint::shipped().label(), "10e3d36G144K");
    }
}
