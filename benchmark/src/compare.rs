//! `benchmark compare <a.json> <b.json>`: two result files of `run.sh`,
//! baseline first. One row per (workload, metric), judged by the
//! metric's own direction and bound; simulated values and counts must be
//! equal; a non-zero exit on any regression.

use crate::catalog::{self, Better, Clock, MetricDef};
use crate::json::Json;
use crate::stats::{median, spread};
use std::collections::BTreeMap;

/// How one metric on one workload moved from baseline to candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Moved the good way by more than the bound.
    Better,
    /// Within the bound either way.
    WithinBound,
    /// Moved the bad way by more than the bound.
    Worse,
    /// Run-to-run spread on either side is wider than the bound: the
    /// runs cannot tell.
    Unresolved,
    /// Exact metric, same value.
    Same,
    /// Exact metric (simulated value or count), different value.
    Differs,
    /// Host metric without a bound: reported, never judged.
    Info,
}

impl Verdict {
    /// Whether this row fails the comparison.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs)
    }

    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Differs => "DIFFERS",
            Verdict::Info => "info",
        }
    }
}

/// Judges one metric from its values over the runs of each side.
pub fn judge(def: &MetricDef, base: &[f64], cand: &[f64]) -> Verdict {
    let (b, c) = (median(base), median(cand));
    match (def.clock, def.bound) {
        (Clock::Sim | Clock::Count, _) => {
            // Bit equality up to 1e-9 relative: results pass through a
            // decimal file.
            let same = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs());
            if base.iter().chain(cand).all(|&v| same(v, b)) {
                Verdict::Same
            } else {
                Verdict::Differs
            }
        }
        (Clock::Host, None) => Verdict::Info,
        (Clock::Host, Some(bound)) => {
            let wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
            if wide(base) || wide(cand) {
                return Verdict::Unresolved;
            }
            if b == 0.0 {
                return if c == 0.0 {
                    Verdict::WithinBound
                } else {
                    Verdict::Unresolved
                };
            }
            // Positive = worse, as a share of the baseline median.
            let worsening = match def.better {
                Better::Lower => (c - b) / b.abs(),
                Better::Higher => (b - c) / b.abs(),
            };
            if worsening > bound {
                Verdict::Worse
            } else if worsening < -bound {
                Verdict::Better
            } else {
                Verdict::WithinBound
            }
        }
    }
}

/// Per workload: per metric, the values over the file's runs; plus the
/// failed share of operations.
struct Side {
    metrics: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    failed_share: BTreeMap<String, f64>,
}

fn read_side(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array (is this a results.json of run.sh?)"))?;
    let mut side = Side {
        metrics: BTreeMap::new(),
        failed_share: BTreeMap::new(),
    };
    let mut ops: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for run in runs {
        let workloads = run
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{path}: run without \"workloads\""))?;
        for (name, w) in workloads {
            let num = |key: &str| {
                w.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{path}: {name} has no {key}"))
            };
            let entry = ops.entry(name.clone()).or_default();
            entry.0 += num("ops_attempted")?;
            entry.1 += num("ops_failed")?;
            let metrics = w
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{path}: {name} has no metrics"))?;
            for (metric, value) in metrics {
                if let Some(v) = value.as_f64() {
                    side.metrics
                        .entry(name.clone())
                        .or_default()
                        .entry(metric.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    for (name, (attempted, failed)) in ops {
        side.failed_share.insert(name, failed / attempted.max(1.0));
    }
    Ok(side)
}

/// Compares two result files, prints the rows, and returns whether the
/// candidate holds (no worse row, no higher failed share).
///
/// # Errors
///
/// Returns a message if a file is missing or is not a results file.
pub fn run(base_path: &str, cand_path: &str) -> Result<bool, String> {
    let (base, cand) = (read_side(base_path)?, read_side(cand_path)?);
    let mut holds = true;
    println!(
        "{:<10} {:<34} {:>16} {:>16} {:>8}  verdict",
        "workload", "metric", "baseline", "candidate", "change"
    );
    for (workload, base_metrics) in &base.metrics {
        let Some(cand_metrics) = cand.metrics.get(workload) else {
            println!("{workload:<10} missing from {cand_path}");
            holds = false;
            continue;
        };
        for (metric, b) in base_metrics {
            let (Some(c), Some(def)) = (cand_metrics.get(metric), catalog::find(metric)) else {
                continue;
            };
            let verdict = judge(def, b, c);
            let (bm, cm) = (median(b), median(c));
            // A layer this workload does not drive reports 0 on both sides.
            if bm == 0.0 && cm == 0.0 {
                continue;
            }
            holds &= !verdict.fails();
            println!(
                "{workload:<10} {metric:<34} {bm:>16.6} {cm:>16.6} {:>+7.1}%  {}",
                if bm == 0.0 {
                    0.0
                } else {
                    100.0 * (cm - bm) / bm.abs()
                },
                verdict.word()
            );
        }
        let (bf, cf) = (
            base.failed_share[workload],
            cand.failed_share.get(workload).copied().unwrap_or(1.0),
        );
        if cf > bf {
            println!("{workload:<10} ops_failed/ops_attempted rose from {bf} to {cf}: FAILS");
            holds = false;
        }
    }
    println!(
        "{}",
        if holds {
            "compare: holds"
        } else {
            "compare: REGRESSION"
        }
    );
    Ok(holds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        catalog::find(name).expect("metric in catalog")
    }

    #[test]
    fn host_metric_within_better_worse_by_direction() {
        let setup = def("setup_s"); // lower is better, bound 0.25
        assert_eq!(judge(setup, &[1.0], &[1.2]), Verdict::WithinBound);
        assert_eq!(judge(setup, &[1.0], &[1.3]), Verdict::Worse);
        assert_eq!(judge(setup, &[1.0], &[0.7]), Verdict::Better);
        let rate = def("e2e.sim_jobs_per_s"); // higher is better, bound 0.10
        assert_eq!(judge(rate, &[100.0], &[92.0]), Verdict::WithinBound);
        assert_eq!(judge(rate, &[100.0], &[88.0]), Verdict::Worse);
        assert_eq!(judge(rate, &[100.0], &[112.0]), Verdict::Better);
    }

    #[test]
    fn medians_are_compared_and_wide_spread_is_unresolved() {
        let rate = def("e2e.sim_jobs_per_s");
        // Medians 100 vs 101; one outlier run does not decide.
        let base = [100.0; 9];
        let cand = [101.0, 101.0, 101.0, 60.0, 101.0, 101.0, 101.0, 101.0, 101.0];
        assert_eq!(judge(rate, &base, &cand), Verdict::WithinBound);
        // Quartiles 75..125 around 100: spread 0.5 > bound 0.10.
        let noisy = [70.0, 80.0, 100.0, 120.0, 130.0];
        assert_eq!(judge(rate, &noisy, &[50.0; 5]), Verdict::Unresolved);
        assert_eq!(judge(rate, &[100.0; 5], &noisy), Verdict::Unresolved);
    }

    #[test]
    fn simulated_values_and_counts_must_be_equal() {
        let goodput = def("e2e.sim_goodput");
        assert_eq!(judge(goodput, &[0.98, 0.98], &[0.98]), Verdict::Same);
        assert_eq!(judge(goodput, &[0.98], &[0.9800001]), Verdict::Differs);
        assert_eq!(judge(goodput, &[0.98, 0.97], &[0.98]), Verdict::Differs);
        let events = def("cluster.events");
        assert_eq!(judge(events, &[1_510_017.0], &[1_510_017.0]), Verdict::Same);
        assert_eq!(
            judge(events, &[1_510_017.0], &[1_510_018.0]),
            Verdict::Differs
        );
        assert!(Verdict::Differs.fails() && Verdict::Worse.fails());
        assert!(!Verdict::Unresolved.fails() && !Verdict::Better.fails());
    }

    #[test]
    fn unbounded_host_metrics_are_reported_only() {
        assert_eq!(judge(def("cluster.step_s"), &[1.0], &[9.0]), Verdict::Info);
        assert_eq!(judge(def("bench.reps"), &[5.0], &[6.0]), Verdict::Info);
        assert!(!Verdict::Info.fails());
    }

    fn results(jobs_per_s: f64, events: u64, failed: u64, reps: u64) -> String {
        format!(
            r#"{{"host":{{}},"runs":[{{"workloads":{{"fleet":{{"ops_attempted":10,"ops_failed":{failed},
            "metrics":{{"e2e.sim_jobs_per_s":{jobs_per_s},"cluster.events":{events},"codec.bits":0,
            "bench.reps":{reps}}}}}}}}}]}}"#
        )
    }

    #[test]
    fn files_compare_end_to_end() {
        // Under the package's own ignored output directory.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let write = |name: &str, body: String| {
            let p = dir.join(name);
            std::fs::write(&p, body).expect("write");
            p.to_string_lossy().into_owned()
        };
        let base = write("base.json", results(400_000.0, 1_510_017, 0, 5));
        let same = write("same.json", results(390_000.0, 1_510_017, 0, 5));
        // A faster host fits more repetitions into a run: not a change.
        let more_reps = write("more_reps.json", results(400_000.0, 1_510_017, 0, 6));
        let slow = write("slow.json", results(340_000.0, 1_510_017, 0, 5));
        let moved = write("moved.json", results(400_000.0, 1_510_018, 0, 5));
        let failing = write("failing.json", results(400_000.0, 1_510_017, 1, 5));
        assert_eq!(run(&base, &same), Ok(true));
        assert_eq!(run(&base, &more_reps), Ok(true));
        assert_eq!(run(&base, &slow), Ok(false));
        assert_eq!(run(&base, &moved), Ok(false));
        assert_eq!(run(&base, &failing), Ok(false));
        assert!(run(&base, "/nonexistent/results.json").is_err());
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
