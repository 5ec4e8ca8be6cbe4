//! Encoder-core pipeline timing model.
//!
//! [`PipelineSim`] is a cycle-accurate-ish queue simulation of the
//! four pipeline stages of Figure 4 with FIFO decoupling and
//! backpressure, exercising §3.2's claim that "the wide variety of
//! blocks and modes can lead to significant variability. To address
//! this, the pipeline stages are decoupled with FIFOs" — the ablation
//! bench measures exactly that effect. The closed-form core rate the
//! capacity math uses is `DesignPoint::core_rate_mpix_s`.

use crate::calib::stage_cycles;
use vcu_telemetry::Registry;

/// Pipeline stages of Figure 4, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Motion estimation, partitioning, rate-distortion optimization.
    MotionRdo,
    /// Entropy coding, macroblock decode, temporal filter.
    Entropy,
    /// Loop filter and frame-buffer compression.
    LoopFilter,
    /// DRAM read/write.
    Dma,
}

impl Stage {
    /// All stages in pipeline order.
    pub(crate) const ALL: [Stage; 4] = [
        Stage::MotionRdo,
        Stage::Entropy,
        Stage::LoopFilter,
        Stage::Dma,
    ];

    /// Mean cycles per 16×16 macroblock for this stage.
    pub(crate) fn mean_cycles(self) -> u32 {
        match self {
            Stage::MotionRdo => stage_cycles::MOTION_RDO,
            Stage::Entropy => stage_cycles::ENTROPY,
            Stage::LoopFilter => stage_cycles::LOOPFILTER,
            Stage::Dma => stage_cycles::DMA,
        }
    }

    /// Telemetry metric name for this stage's occupancy gauge.
    fn occupancy_metric(self) -> &'static str {
        match self {
            Stage::MotionRdo => "chip.pipeline.occupancy.motion_rdo",
            Stage::Entropy => "chip.pipeline.occupancy.entropy",
            Stage::LoopFilter => "chip.pipeline.occupancy.loop_filter",
            Stage::Dma => "chip.pipeline.occupancy.dma",
        }
    }
}

/// Per-macroblock cycle simulation of the 4-stage pipeline.
///
/// Each stage's per-block service time varies deterministically around
/// its mean (block content variability). Stages are connected by FIFOs
/// of configurable depth; a full downstream FIFO backpressures the
/// producer, and depth 0 degenerates to lock-step operation where every
/// stage waits for the slowest stage on *each block*.
#[derive(Debug, Clone)]
pub struct PipelineSim {
    /// FIFO capacity between adjacent stages (blocks).
    pub fifo_depth: usize,
    /// Variability amplitude: stage time = mean × (1 ± amplitude).
    pub variability: f64,
    /// DMA service-time multiplier (≥ 1): how much slower DRAM
    /// transfers run than the calibrated budget. 1.0 is the shipped
    /// design, where prefetch hides DMA entirely; design-space
    /// candidates with less bandwidth than the §3.3.1 envelope push
    /// this up until DMA intermittently becomes the bottleneck.
    pub dma_pressure: f64,
}

impl PipelineSim {
    /// A simulator with the production FIFO depth.
    pub fn new(fifo_depth: usize, variability: f64) -> Self {
        Self::with_dma_pressure(fifo_depth, variability, 1.0)
    }

    /// A simulator whose DMA stage runs `dma_pressure`× slower than
    /// the calibrated budget (bandwidth-starved design candidates).
    pub(crate) fn with_dma_pressure(
        fifo_depth: usize,
        variability: f64,
        dma_pressure: f64,
    ) -> Self {
        assert!((0.0..1.0).contains(&variability), "variability in [0,1)");
        assert!(dma_pressure >= 1.0, "dma_pressure is a slowdown (≥ 1)");
        PipelineSim {
            fifo_depth,
            variability,
            dma_pressure,
        }
    }

    /// Deterministic per-block service time for `stage` on block `i`.
    fn service_cycles(&self, stage: Stage, block: u64) -> f64 {
        // The wobble hash keys on the *calibrated* mean so the same
        // block sees the same content variability at any pressure.
        let pressure = if stage == Stage::Dma {
            self.dma_pressure
        } else {
            1.0
        };
        let mean = stage.mean_cycles() as f64 * pressure;
        // Deterministic pseudo-random wobble per (stage, block).
        let h = block
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(stage.mean_cycles() as u64)
            .wrapping_mul(0xBF58476D1CE4E5B9);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        mean * (1.0 + self.variability * (2.0 * u - 1.0))
    }

    /// Simulates `blocks` macroblocks through the pipeline and returns
    /// achieved throughput in macroblocks per mean-bottleneck-period
    /// (1.0 = ideal: the pipeline sustains the bottleneck stage's mean
    /// rate despite variability).
    pub fn relative_throughput(&self, blocks: u64) -> f64 {
        self.simulate(blocks).relative_throughput
    }

    /// Like [`PipelineSim::relative_throughput`], additionally
    /// recording per-stage occupancy (busy fraction of the makespan)
    /// and throughput into `telemetry` — the encoder-core half of the
    /// Fig. 9-style fleet dashboards.
    pub fn relative_throughput_traced(&self, blocks: u64, telemetry: &Registry) -> f64 {
        let outcome = self.simulate(blocks);
        if telemetry.is_enabled() {
            for (si, st) in Stage::ALL.iter().enumerate() {
                telemetry.gauge_set(
                    st.occupancy_metric(),
                    outcome.busy_cycles[si] / outcome.makespan_cycles.max(1.0),
                );
            }
            telemetry.gauge_set(
                "chip.pipeline.relative_throughput",
                outcome.relative_throughput,
            );
            telemetry.counter_add("chip.pipeline.blocks", blocks);
        }
        outcome.relative_throughput
    }

    /// Runs `blocks` macroblocks through the four stages.
    fn simulate(&self, blocks: u64) -> PipelineOutcome {
        assert!(blocks > 0, "must simulate at least one block");
        let stages = Stage::ALL;
        let n = blocks as usize;
        // starts[s][b] = cycle when block b begins service at stage s.
        let mut starts: Vec<Vec<f64>> = vec![Vec::with_capacity(n); stages.len()];
        // finish[s] = cycle when stage s finished its latest block.
        let mut finish = [0.0f64; 4];
        let mut busy = [0.0f64; 4];
        let mut last_done = 0.0f64;
        for b in 0..n {
            let mut t_avail = 0.0f64; // when the block reaches stage 0
            for (si, st) in stages.iter().enumerate() {
                // Block b can start at stage si when: it has arrived,
                // the stage is free, and — backpressure — the FIFO
                // between si and si+1 has room, i.e. block
                // `b - 1 - fifo_depth` has already *entered* stage si+1
                // (otherwise block b would finish into a full FIFO and
                // stall the stage anyway; we model the stall as a
                // delayed start).
                let mut start = t_avail.max(finish[si]);
                if si + 1 < stages.len() {
                    if let Some(gate_block) = b.checked_sub(1 + self.fifo_depth) {
                        start = start.max(starts[si + 1][gate_block]);
                    }
                }
                let service = self.service_cycles(*st, b as u64);
                let done = start + service;
                busy[si] += service;
                starts[si].push(start);
                finish[si] = done;
                t_avail = done;
            }
            last_done = t_avail;
        }
        let bottleneck = stages.iter().map(|s| s.mean_cycles()).max().unwrap() as f64;
        PipelineOutcome {
            relative_throughput: (blocks as f64 * bottleneck) / last_done,
            busy_cycles: busy,
            makespan_cycles: last_done,
        }
    }
}

/// Raw result of one pipeline simulation.
#[derive(Debug, Clone, Copy)]
struct PipelineOutcome {
    relative_throughput: f64,
    /// Cycles each stage spent in service (occupancy numerator).
    busy_cycles: [f64; 4],
    /// Total cycles from first block in to last block out.
    makespan_cycles: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib;
    use crate::design::DesignPoint;
    use vcu_codec::Profile;

    fn core_rate_mpix_s(profile: Profile) -> f64 {
        DesignPoint::shipped().core_rate_mpix_s(profile)
    }

    #[test]
    fn core_rate_covers_2160p60() {
        let r = core_rate_mpix_s(Profile::H264Sim);
        assert!(r >= calib::REF_STREAM_MPIX_S, "rate {r}");
    }

    #[test]
    fn vp9_slightly_faster_per_pixel() {
        assert!(core_rate_mpix_s(Profile::Vp9Sim) > core_rate_mpix_s(Profile::H264Sim));
    }

    #[test]
    fn no_variability_no_fifo_needed() {
        let sim0 = PipelineSim::new(0, 0.0);
        let sim4 = PipelineSim::new(4, 0.0);
        let t0 = sim0.relative_throughput(2000);
        let t4 = sim4.relative_throughput(2000);
        assert!((t0 - t4).abs() < 0.02, "t0 {t0} t4 {t4}");
        assert!(t0 > 0.95, "deterministic pipeline should hit ~1.0: {t0}");
    }

    #[test]
    fn fifos_recover_variability_loss() {
        // With variability, a lock-step pipeline (depth 0) loses
        // throughput; FIFO decoupling recovers most of it (§3.2).
        let lockstep = PipelineSim::new(0, 0.6).relative_throughput(4000);
        let decoupled = PipelineSim::new(6, 0.6).relative_throughput(4000);
        assert!(
            decoupled > lockstep * 1.05,
            "decoupled {decoupled} vs lockstep {lockstep}"
        );
        assert!(decoupled > 0.85, "decoupled too slow: {decoupled}");
    }

    #[test]
    fn deeper_fifos_monotone() {
        let t1 = PipelineSim::new(1, 0.6).relative_throughput(3000);
        let t8 = PipelineSim::new(8, 0.6).relative_throughput(3000);
        assert!(t8 >= t1 * 0.999, "t1 {t1} t8 {t8}");
    }

    #[test]
    fn deterministic_simulation() {
        let a = PipelineSim::new(4, 0.5).relative_throughput(1000);
        let b = PipelineSim::new(4, 0.5).relative_throughput(1000);
        assert_eq!(a, b);
    }

    #[test]
    fn traced_run_records_stage_occupancy() {
        let reg = Registry::new();
        let sim = PipelineSim::new(4, 0.5);
        let traced = sim.relative_throughput_traced(2000, &reg);
        assert_eq!(
            traced,
            sim.relative_throughput(2000),
            "tracing is observation-only"
        );
        for st in Stage::ALL {
            let occ = reg
                .gauge(st.occupancy_metric())
                .unwrap_or_else(|| panic!("missing occupancy gauge for {st:?}"));
            assert!((0.0..=1.0).contains(&occ), "{st:?}: {occ}");
        }
        // The bottleneck stage (largest mean cycles) must show the
        // highest occupancy of the four.
        let bottleneck = Stage::ALL
            .iter()
            .copied()
            .max_by_key(|s| s.mean_cycles())
            .unwrap();
        let b_occ = reg.gauge(bottleneck.occupancy_metric()).unwrap();
        for st in Stage::ALL {
            assert!(b_occ >= reg.gauge(st.occupancy_metric()).unwrap() - 1e-12);
        }
        assert!(
            b_occ > 0.9,
            "bottleneck stage should be nearly saturated: {b_occ}"
        );
        assert_eq!(reg.counter("chip.pipeline.blocks"), 2000);
    }

    #[test]
    fn disabled_registry_skips_recording() {
        let reg = Registry::disabled();
        PipelineSim::new(4, 0.5).relative_throughput_traced(500, &reg);
        assert_eq!(reg.counter("chip.pipeline.blocks"), 0);
    }
}
