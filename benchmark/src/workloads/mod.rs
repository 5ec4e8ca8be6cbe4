//! The five workloads. Each builds its configuration from struct fields
//! and drives only public API; the campaign helpers (`run_cell`,
//! `run_serve_cell`, `planet_config`) are deliberately not used, so the
//! footprint a refactor must keep is the one README.md lists.

pub mod dse;
pub mod fleet;
pub mod planet;
pub mod serve;
pub mod transcode;

use vcu_chip::{ResourceDemand, TranscodeJob, VcuModel};

/// FNV-1a over `text`: folds a `Debug`-rendered report into one word,
/// for reports whose types do not implement `PartialEq`.
pub fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Concurrent copies of `job` one shipped VCU fits (the binding
/// scheduler dimension) — sizes offered load to a target utilisation.
pub fn slots_per_worker(job: &TranscodeJob) -> u64 {
    let d = VcuModel::new().job_demand(job);
    let cap = ResourceDemand::vcu_capacity();
    [
        cap.millidecode / d.millidecode.max(1),
        cap.milliencode / d.milliencode.max(1),
        cap.dram_mib / d.dram_mib.max(1),
        cap.host_mcpu / d.host_mcpu.max(1),
    ]
    .into_iter()
    .min()
    .map_or(1, |s| u64::from(s.max(1)))
}
