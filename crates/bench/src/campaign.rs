//! The one campaign harness behind `bench_fault_campaign`,
//! `bench_serve`, `bench_region_campaign`, `bench_dse` and `paper`.
//!
//! A deterministic campaign is [`drive`]n the same way whatever it
//! sweeps: pick the smoke or full configuration, run it with the seed
//! from `VCU_SEED`, render the cells as one table through
//! `vcu_telemetry::json`, **parse those bytes back and gate them**,
//! print them, and write them to `results/<name>.json` (or
//! `$TMPDIR/<name>_smoke.json`). What differs per campaign — the two
//! configurations, the header record, the cell → record mapping and
//! the gate — is one [`Campaign`] impl. The libraries keep configs
//! and `run_*`; a cell is the sweep point plus the simulator's report,
//! and each column is named once, in the impl's `FIELDS`, which reads
//! or derives it from that report. The artifact format lives here,
//! once.

use crate::gates::{self, GateResult};
use crate::paper::{self, PaperConfig};
use vcu_cluster::{run_campaign, CampaignCell, CampaignConfig};
use vcu_dse::{run_dse, DseCandidate, DseConfig, OFFERED_LOAD};
use vcu_regions::{run_region_campaign, RegionCampaignCell, RegionCampaignConfig};
use vcu_serve::{run_serve_campaign, ServeCampaignCell, ServeCampaignConfig};
use vcu_telemetry::json::{parse, render_table, JsonObj, Value};

/// Decimals of every float in a campaign artifact: lossless at the
/// magnitudes involved, and free of shortest-representation jitter.
const DECIMALS: usize = 6;

/// One value of a campaign record.
pub enum Field {
    /// An exact integer (counts, sizes, digests, 0/1 flags).
    Int(u64),
    /// A float, rendered at [`DECIMALS`]; non-finite becomes `null`.
    Num(f64),
    /// An array of such floats.
    Nums(Vec<f64>),
    /// A string.
    Str(&'static str),
}
use Field::{Int, Num, Nums, Str};

/// The cell → record mapping: key and value of each field, in order.
pub type Fields<Cell> = &'static [(&'static str, fn(&Cell) -> Field)];

/// What one deterministic campaign adds to the shared driver.
pub trait Campaign {
    /// Sweep configuration.
    type Config;
    /// One evaluated cell of the sweep.
    type Cell: 'static;
    /// Artifact stem: the full sweep is `results/<NAME>.json`.
    const NAME: &'static str;
    /// Key of the record array in the artifact.
    const ROWS: &'static str;
    /// The record schema.
    const FIELDS: Fields<Self::Cell>;
    /// The artifact's gate over the parsed bytes (see [`gates`]).
    const GATE: fn(&Value, bool) -> GateResult;

    /// The seconds-long CI configuration, by seed.
    const SMOKE: fn(u64) -> Self::Config;
    /// The full sweep behind the committed artifact, by seed.
    const FULL: fn(u64) -> Self::Config;
    /// Runs the sweep.
    const RUN: fn(&Self::Config) -> Vec<Self::Cell>;

    /// The artifact's `campaign` header record.
    fn header(cfg: &Self::Config, rows: usize) -> JsonObj;

    /// The artifact bytes for `cells`.
    fn render(cfg: &Self::Config, cells: &[Self::Cell]) -> String {
        let rows = cells.iter().map(|cell| {
            Self::FIELDS
                .iter()
                .fold(JsonObj::new(), |row, &(key, value)| match value(cell) {
                    Int(i) => row.u64(key, i),
                    Num(x) => row.fixed(key, x, DECIMALS),
                    Nums(xs) => row.fixed_array(key, &xs, DECIMALS),
                    Str(text) => row.str(key, text),
                })
        });
        render_table(
            JsonObj::new().obj("campaign", Self::header(cfg, cells.len())),
            Self::ROWS,
            rows.collect(),
        )
    }

    /// What both the driver and `check_results` call: the schema (every
    /// record carries every [`Campaign::FIELDS`] key), then the gate.
    fn check(doc: &Value, full: bool) -> GateResult {
        let rows = doc.get(Self::ROWS).and_then(Value::as_array);
        let mut missing = Vec::new();
        for (i, row) in rows.unwrap_or(&[]).iter().enumerate() {
            for (key, _) in Self::FIELDS.iter().filter(|f| row.get(f.0).is_none()) {
                missing.push(format!("{}.keys: cell {i}: \"{key}\" missing", Self::NAME));
            }
        }
        if !missing.is_empty() {
            return Err(missing);
        }
        (Self::GATE)(doc, full)
    }
}

/// True when `VCU_BENCH_SMOKE` requests the seconds-long CI
/// configuration (any non-empty value other than `"0"`).
fn smoke() -> bool {
    std::env::var("VCU_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Absolute path of `file` inside the workspace-level `results/`
/// directory (bench binaries run with the package dir as CWD, so a
/// relative `results/` would land inside `crates/bench`).
pub fn results_path(file: &str) -> String {
    format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// Prints a gate's verdict; true if it passed.
pub fn report(result: GateResult) -> bool {
    match &result {
        Ok(summary) => println!("{summary}"),
        Err(fails) => fails.iter().for_each(|f| eprintln!("GATE FAILED: {f}")),
    }
    result.is_ok()
}

/// The whole life of one campaign binary. Exits non-zero, writing
/// nothing, if the gate rejects the fresh artifact.
pub fn drive<C: Campaign>() {
    let quick = smoke();
    let seed = vcu_rng::env_seed(42);
    println!(
        "{}: seed {seed}{}",
        C::NAME,
        if quick { " (smoke)" } else { "" }
    );
    let cfg = if quick { C::SMOKE } else { C::FULL }(seed);
    let json = C::render(&cfg, &(C::RUN)(&cfg));
    print!("{json}");
    let doc = parse(&json).expect("the artifact writer must emit JSON the reader accepts");
    if !report(C::check(&doc, !quick)) {
        std::process::exit(1);
    }
    // A smoke run never writes `results/`.
    let path = if quick {
        let file = format!("{}_smoke.json", C::NAME);
        std::env::temp_dir().join(file).display().to_string()
    } else {
        results_path(&format!("{}.json", C::NAME))
    };
    std::fs::write(&path, json).expect("write campaign json");
    println!("wrote {path}");
}

/// Fault rate × MTTR over a faulted fleet → `fault_campaign.json`.
pub struct Fault;

impl Campaign for Fault {
    type Config = CampaignConfig;
    type Cell = CampaignCell;
    const NAME: &'static str = "fault_campaign";
    const ROWS: &'static str = "cells";
    const GATE: fn(&Value, bool) -> GateResult = gates::fault;
    const SMOKE: fn(u64) -> CampaignConfig = |seed| CampaignConfig {
        vcus: 64,
        jobs_per_vcu: 60,
        seed,
        fault_rates: vec![0.0, 0.05, 0.10],
        mttr_s: vec![20.0, f64::INFINITY],
    };
    const FULL: fn(u64) -> CampaignConfig = |seed| CampaignConfig {
        seed,
        ..CampaignConfig::default()
    };
    const RUN: fn(&CampaignConfig) -> Vec<CampaignCell> = run_campaign;
    const FIELDS: Fields<CampaignCell> = &[
        ("fault_rate", |c| Num(c.fault_rate)),
        ("mttr_s", |c| Num(c.mttr_s)),
        ("jobs", |c| Int(c.jobs)),
        ("goodput_frac", |c| Num(c.report.goodput_frac(c.jobs))),
        ("black_holed", |c| Int(c.report.escaped_corruptions)),
        ("blast_radius", |c| Num(c.report.mean_vcus_per_video)),
        ("mean_wait_s", |c| Num(c.report.mean_wait_s)),
        ("p99_wait_s", |c| Num(c.report.p99_wait_s)),
        ("stranded", |c| Int(c.report.stranded)),
        ("shed", |c| Int(c.report.shed)),
        ("watchdog_fired", |c| Int(c.report.watchdog_fired)),
        ("crash_aborts", |c| Int(c.report.crash_aborts)),
        ("repairs", |c| Int(c.report.repairs)),
        ("quarantined_workers", |c| Int(c.report.quarantined_workers)),
        ("degrade_time_frac", |c| {
            Nums(c.report.degrade_time_frac.to_vec())
        }),
    ];

    fn header(cfg: &CampaignConfig, _rows: usize) -> JsonObj {
        JsonObj::new()
            .u64("vcus", cfg.vcus as u64)
            .u64("jobs_per_vcu", cfg.jobs_per_vcu as u64)
            .u64("seed", cfg.seed)
    }
}

/// Cache size × fleet scale for live viewers → `serve_campaign.json`.
pub struct Serve;

impl Campaign for Serve {
    type Config = ServeCampaignConfig;
    type Cell = ServeCampaignCell;
    const NAME: &'static str = "serve_campaign";
    const ROWS: &'static str = "cells";
    const GATE: fn(&Value, bool) -> GateResult = gates::serve;
    const SMOKE: fn(u64) -> ServeCampaignConfig = ServeCampaignConfig::smoke;
    const FULL: fn(u64) -> ServeCampaignConfig = ServeCampaignConfig::full;
    const RUN: fn(&ServeCampaignConfig) -> Vec<ServeCampaignCell> = run_serve_campaign;
    const FIELDS: Fields<ServeCampaignCell> = &[
        ("viewers", |c| Int(c.spec.viewers as u64)),
        ("vcus", |c| Int(c.spec.vcus as u64)),
        ("cache_segments", |c| Int(c.spec.cache_segments as u64)),
        ("arrivals", |c| Int(c.report.arrivals)),
        ("admitted", |c| Int(c.report.admitted)),
        ("shed", |c| Int(c.report.shed_sessions)),
        ("completed", |c| Int(c.report.completed_sessions)),
        ("aborted", |c| Int(c.report.aborted_sessions)),
        ("peak_concurrent", |c| Int(c.report.peak_concurrent)),
        ("ttff_p50_s", |c| Num(c.report.ttff_p50_s)),
        ("ttff_p99_s", |c| Num(c.report.ttff_p99_s)),
        ("rebuffer_ratio", |c| Num(c.report.rebuffer_ratio)),
        ("rebuffer_events", |c| Int(c.report.rebuffer_events)),
        ("hit_ratio", |c| Num(c.report.hit_ratio)),
        ("transcodes", |c| Int(c.report.transcodes)),
        ("transcode_failures", |c| Int(c.report.transcode_failures)),
        ("segments_served", |c| Int(c.report.segments_served)),
        ("egress_gb", |c| Num(c.report.egress_gb)),
        ("egress_cost_usd", |c| Num(c.report.egress_cost_usd)),
        ("transcode_cost_usd", |c| Num(c.report.transcode_cost_usd)),
        // Share of cluster samples above degradation rung 0: admission
        // should keep it at zero.
        ("degraded_frac", |c| {
            Num(1.0 - c.report.cluster.degrade_time_frac[0])
        }),
    ];

    fn header(cfg: &ServeCampaignConfig, rows: usize) -> JsonObj {
        JsonObj::new()
            .u64("seed", cfg.seed)
            .u64("cells", rows as u64)
    }
}

/// Regions × fleet × traffic, with the isolated-regions counterfactual
/// → `region_campaign.json`.
pub struct Region;

impl Campaign for Region {
    type Config = RegionCampaignConfig;
    type Cell = RegionCampaignCell;
    const NAME: &'static str = "region_campaign";
    const ROWS: &'static str = "cells";
    const GATE: fn(&Value, bool) -> GateResult = gates::region;
    const SMOKE: fn(u64) -> RegionCampaignConfig = RegionCampaignConfig::smoke;
    const FULL: fn(u64) -> RegionCampaignConfig = RegionCampaignConfig::full;
    const RUN: fn(&RegionCampaignConfig) -> Vec<RegionCampaignCell> = run_region_campaign;
    const FIELDS: Fields<RegionCampaignCell> = &[
        ("regions", |c| Int(c.spec.regions as u64)),
        ("cells_per_region", |c| Int(c.spec.cells_per_region as u64)),
        ("vcus_per_cell", |c| Int(c.spec.vcus_per_cell as u64)),
        ("total_vcus", |c| Int(c.spec.total_vcus() as u64)),
        ("traffic_scale", |c| Num(c.spec.traffic_scale)),
        ("jobs", |c| Int(c.overflow.jobs)),
        ("routed_jobs", |c| Int(c.overflow.routed_jobs)),
        ("routed_frac", |c| Num(c.overflow.routed_frac)),
        ("goodput_overflow", |c| Num(c.overflow.goodput_frac)),
        ("goodput_isolated", |c| Num(c.isolated.goodput_frac)),
        ("p99_wait_overflow_s", |c| Num(c.overflow.p99_wait_s)),
        ("p99_wait_isolated_s", |c| Num(c.isolated.p99_wait_s)),
        ("blast_radius", |c| Num(c.overflow.blast_radius)),
        ("perf_mpix_per_s", |c| Num(c.overflow.perf_mpix_per_s)),
        ("tco_usd", |c| Num(c.overflow.tco_usd)),
        ("perf_per_tco", |c| Num(c.overflow.perf_per_tco)),
        ("merge_digest", |c| Int(c.overflow.merge_digest)),
    ];

    fn header(cfg: &RegionCampaignConfig, rows: usize) -> JsonObj {
        JsonObj::new()
            .u64("seed", cfg.seed)
            .fixed("horizon_s", cfg.horizon_s, DECIMALS)
            .fixed("epoch_s", cfg.epoch_s, DECIMALS)
            .fixed("chunk_s", cfg.chunk_s, DECIMALS)
            .fixed("util", cfg.util, DECIMALS)
            .fixed("amplitude", cfg.amplitude, DECIMALS)
            .u64("cells", rows as u64)
    }
}

/// The chip design-space sweep → `dse_frontier.json`.
pub struct Dse;

impl Campaign for Dse {
    type Config = DseConfig;
    type Cell = DseCandidate;
    const NAME: &'static str = "dse_frontier";
    const ROWS: &'static str = "candidates";
    const GATE: fn(&Value, bool) -> GateResult = gates::dse;
    const SMOKE: fn(u64) -> DseConfig = DseConfig::smoke;
    const FULL: fn(u64) -> DseConfig = DseConfig::full;
    /// Sequential, then again fanned out over the worker pool: the two
    /// artifacts must agree byte for byte before anything is gated.
    const RUN: fn(&DseConfig) -> Vec<DseCandidate> = |cfg| {
        let wide = vcu_exec::env_threads().max(4);
        let candidates = run_dse(cfg, 1);
        assert_eq!(
            Self::render(cfg, &candidates),
            Self::render(cfg, &run_dse(cfg, wide)),
            "DSE artifact differs between parallelism 1 and {wide}"
        );
        println!("byte-identity held: parallelism 1 == parallelism {wide}");
        candidates
    };
    const FIELDS: Fields<DseCandidate> = &[
        ("encoder_cores", |c| Int(c.design.encoder_cores as u64)),
        ("decoder_cores", |c| Int(c.design.decoder_cores as u64)),
        ("dram_gib_s", |c| Num(c.design.dram_raw_gib_s)),
        ("refstore_kpix", |c| {
            Int(c.design.refstore_pixels as u64 / 1024)
        }),
        ("area_mm2", |c| Num(c.area_mm2)),
        ("card_power_w", |c| Num(c.card_power_w)),
        ("card_capex_usd", |c| Num(c.card_capex_usd)),
        ("fleet_tco_usd", |c| Num(c.fleet_tco_usd)),
        ("traffic_factor", |c| Num(c.traffic_factor)),
        ("bandwidth_pressure", |c| Num(c.bandwidth_pressure)),
        ("util_steady", |c| Num(c.util_steady)),
        ("goodput_steady", |c| Num(c.goodput_steady)),
        ("goodput_fault", |c| Num(c.goodput_fault)),
        ("p99_wait_s", |c| Num(c.p99_wait_s)),
        ("perf_mpix_s_per_vcu", |c| Num(c.perf_mpix_s_per_vcu)),
        ("perf_per_tco", |c| Num(c.perf_per_tco)),
        ("anchor", |c| Int(c.anchor.into())),
        ("on_frontier", |c| Int(c.on_frontier.into())),
    ];

    fn header(cfg: &DseConfig, rows: usize) -> JsonObj {
        JsonObj::new()
            .u64("seed", cfg.seed)
            .u64("vcus", cfg.vcus as u64)
            .u64("jobs_per_vcu", cfg.jobs_per_vcu as u64)
            .fixed("load", OFFERED_LOAD, DECIMALS)
            .fixed("fault_rate", cfg.fault_rate, DECIMALS)
            .fixed("mttr_s", cfg.mttr_s, DECIMALS)
            .u64("candidates", rows as u64)
    }
}

/// Every paper number beside its measurement → `fidelity.json`.
pub struct Paper;

impl Campaign for Paper {
    type Config = PaperConfig;
    type Cell = paper::Row;
    const NAME: &'static str = "fidelity";
    const ROWS: &'static str = "rows";
    const GATE: fn(&Value, bool) -> GateResult = gates::fidelity;
    /// Seconds in a release build: two clips cut to four frames.
    const SMOKE: fn(u64) -> PaperConfig = |_| PaperConfig {
        clips: 2,
        frames: Some(4),
        fig8: (4, 300.0),
        months: 7,
    };
    /// The whole 15-clip suite.
    const FULL: fn(u64) -> PaperConfig = |_| PaperConfig {
        clips: 15,
        frames: None,
        fig8: (8, 1_200.0),
        months: 12,
    };
    const RUN: fn(&PaperConfig) -> Vec<paper::Row> = paper::run;
    const FIELDS: Fields<paper::Row> = &[
        ("id", |r| Str(r.id)),
        ("paper", |r| Num(r.paper.unwrap_or(f64::NAN))),
        ("measured", |r| Num(r.measured)),
        ("tolerance", |r| Num(r.tolerance)),
        ("baseline", |r| Num(r.baseline)),
        ("status", |r| Str(r.status)),
        ("reason", |r| Str(r.reason)),
    ];

    fn header(cfg: &PaperConfig, rows: usize) -> JsonObj {
        JsonObj::new()
            .u64("clips", cfg.clips as u64)
            .u64("months", cfg.months as u64)
            .u64("rows", rows as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcu_regions::RegionCellSpec;
    use vcu_serve::ServeCellSpec;

    /// Runs `cfg` twice and asserts the artifacts are the same bytes
    /// (the one place per campaign where rendered-bytes identity is
    /// pinned; `tests/determinism.rs` compares cells), that those bytes
    /// are the ones pinned across commits (`fnv1a64`, the hash
    /// `tests/golden.rs` uses — a deliberate behaviour change
    /// re-captures it and says so), and that they parse.
    fn rendered<C: Campaign>(cfg: &C::Config, fnv1a64: u64) -> Value {
        let json = C::render(cfg, &(C::RUN)(cfg));
        assert_eq!(
            json,
            C::render(cfg, &(C::RUN)(cfg)),
            "{}: same-seed artifacts must be byte-identical",
            C::NAME
        );
        assert_eq!(
            vcu_chip::faults::checksum(json.as_bytes()),
            fnv1a64,
            "{}: artifact bytes drifted from the pinned run",
            C::NAME
        );
        parse(&json).expect("rendered artifacts must parse")
    }

    #[test]
    fn fault_artifact_is_byte_deterministic() {
        let cfg = CampaignConfig {
            vcus: 8,
            jobs_per_vcu: 4,
            seed: 7,
            fault_rates: vec![0.0, 0.25],
            mttr_s: vec![60.0, f64::INFINITY],
        };
        let doc = rendered::<Fault>(&cfg, 0x4E683DA65DDFEDE7);
        let cells = doc.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].get("mttr_s").unwrap().as_f64(), Some(60.0));
        // A never-repaired fleet renders its MTTR as null.
        assert_eq!(cells[3].get("mttr_s"), Some(&Value::Null));
        assert_eq!(
            doc.get("campaign").unwrap().get("seed").unwrap().as_u64(),
            Some(7)
        );
    }

    /// The sweep `tests/determinism.rs::fault_campaign_is_deterministic`
    /// runs, pinned as rendered bytes: a pin on the artifact that does
    /// not depend on how a campaign cell is laid out in memory.
    #[test]
    fn fault_artifact_of_the_determinism_sweep_is_pinned() {
        let cfg = CampaignConfig {
            vcus: 24,
            jobs_per_vcu: 16,
            seed: 1234,
            fault_rates: vec![0.0, 0.2],
            mttr_s: vec![15.0, f64::INFINITY],
        };
        rendered::<Fault>(&cfg, 0xF0D049432BFB52A4);
    }

    #[test]
    fn serve_artifact_is_byte_deterministic() {
        let cfg = ServeCampaignConfig {
            seed: 11,
            cells: vec![ServeCellSpec {
                viewers: 300,
                vcus: 16,
                cache_segments: 128,
                catalog_videos: 200,
                horizon_s: 20.0,
            }],
        };
        rendered::<Serve>(&cfg, 0xAADD947B3AA52F83);
    }

    #[test]
    fn region_artifact_is_byte_deterministic() {
        let cfg = RegionCampaignConfig {
            seed: 13,
            horizon_s: 60.0,
            epoch_s: 15.0,
            chunk_s: 10.0,
            util: 0.8,
            amplitude: 0.9,
            cells: vec![RegionCellSpec {
                regions: 2,
                cells_per_region: 2,
                vcus_per_cell: 8,
                traffic_scale: 1.0,
            }],
        };
        let doc = rendered::<Region>(&cfg, 0xCAC38D5E9DC72A69);
        let digest = doc.get("cells").unwrap().as_array().unwrap()[0].get("merge_digest");
        assert!(
            digest.unwrap().as_u64().is_some(),
            "digest must stay an exact u64"
        );
    }

    #[test]
    fn dse_artifact_is_byte_deterministic() {
        let cfg = DseConfig {
            seed: 7,
            vcus: 8,
            jobs_per_vcu: 12,
            fault_rate: 0.25,
            mttr_s: 15.0,
            encoder_cores: vec![8, 10],
            decoder_cores: vec![3],
            dram_gib_s: vec![27.0, 36.0],
            refstore_pixels: vec![147_456],
        };
        let doc = rendered::<Dse>(&cfg, 0x429F818308E2ED0E);
        let anchors = doc.get("candidates").unwrap().as_array().unwrap().iter();
        assert_eq!(
            anchors
                .filter(|c| c.get("anchor").unwrap().as_u64() == Some(1))
                .count(),
            1
        );
    }

    #[test]
    fn fidelity_artifact_is_byte_deterministic() {
        let cfg = PaperConfig {
            clips: 1,
            frames: Some(1),
            fig8: (2, 120.0),
            months: 1,
        };
        let doc = rendered::<Paper>(&cfg, 0xDAB634AF914AA0A6);
        let rows = doc.get("rows").unwrap().as_array().unwrap();
        // An ablation has no paper value and renders it as null.
        let last = &rows[rows.len() - 1];
        assert_eq!(last.get("paper"), Some(&Value::Null));
        assert!(last.get("reason").unwrap().as_str().is_some());
    }

    fn committed<C: Campaign>() -> Value {
        let path = results_path(&format!("{}.json", C::NAME));
        parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn every_committed_json_parses_and_the_artifacts_pass_their_gates() {
        for entry in std::fs::read_dir(results_path("")).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read_to_string(&path).unwrap();
                parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            }
        }
        for stem in [
            Fault::NAME,
            Serve::NAME,
            Region::NAME,
            Dse::NAME,
            Paper::NAME,
            "observe_telemetry_hw",
            "observe_telemetry_node",
            "observe_telemetry_sw_offload",
        ] {
            let path = results_path(&format!("{stem}.json"));
            assert!(std::path::Path::new(&path).exists(), "{path} is missing");
        }
        Fault::check(&committed::<Fault>(), true).unwrap();
        Serve::check(&committed::<Serve>(), true).unwrap();
        Region::check(&committed::<Region>(), true).unwrap();
        Dse::check(&committed::<Dse>(), true).unwrap();
        Paper::check(&committed::<Paper>(), true).unwrap();
    }

    /// Record `idx` of the `rows_key` array of `doc`, for editing.
    fn record<'a>(doc: &'a mut Value, rows_key: &str, idx: usize) -> &'a mut Vec<(String, Value)> {
        let Value::Obj(top) = doc else { panic!() };
        let Value::Arr(rows) = &mut top.iter_mut().find(|f| f.0 == rows_key).unwrap().1 else {
            panic!()
        };
        let Value::Obj(row) = &mut rows[idx] else {
            panic!()
        };
        row
    }

    #[test]
    fn a_key_deleted_from_a_committed_artifact_fails_its_check() {
        // `egress_gb` is read by no gate: only the schema catches it.
        let mut doc = committed::<Serve>();
        record(&mut doc, "cells", 2).retain(|f| f.0 != "egress_gb");
        assert_eq!(
            Serve::check(&doc, true).unwrap_err(),
            ["serve_campaign.keys: cell 2: \"egress_gb\" missing"]
        );
    }

    #[test]
    fn a_flipped_status_or_a_blank_reason_in_the_committed_fidelity_fails_its_check() {
        let doc = committed::<Paper>();
        let rows = doc.get("rows").unwrap().as_array().unwrap();
        let id = "fig7.vcu_vp9_vs_sw_h264_pct";
        let i = rows
            .iter()
            .position(|r| r.get("id").unwrap().as_str() == Some(id))
            .unwrap();
        let edited = |key: &str, text: &str| {
            let mut doc = doc.clone();
            let field = record(&mut doc, "rows", i).iter_mut().find(|f| f.0 == key);
            field.unwrap().1 = Value::Str(text.to_owned());
            Paper::check(&doc, true).unwrap_err()
        };
        assert_eq!(
            edited("status", "shape-only"),
            [format!(
                "fidelity.status: cell {i}: {id} is recorded shape-only, its numbers earn deviates"
            )]
        );
        assert_eq!(
            edited("reason", " "),
            [format!(
                "fidelity.reason: cell {i}: {id} is deviates with no reason"
            )]
        );
    }
}
