//! Plain wall-clock timing for `bench_cluster_scale`, plus the
//! `results/` and smoke-mode paths every bin and campaign shares.
//!
//! Each benchmark auto-calibrates an iteration count so one repetition
//! takes a measurable slice of wall-clock time, runs K repetitions,
//! and records the median per-iteration time. Reports are printed as a
//! table and written as machine-readable JSON under `results/`. The
//! rows describe the host that wrote them and nothing gates them;
//! regressions are judged by `benchmark/`, same host on both sides.

use std::hint::black_box;
use std::time::{Duration, Instant};
use vcu_telemetry::json::{render_table, JsonObj};

/// Target wall-clock per repetition during calibration.
const TARGET_REP: Duration = Duration::from_millis(40);
/// Repetitions per benchmark (median-of-K).
const DEFAULT_REPS: usize = 9;

/// One benchmark's measurements.
#[derive(Debug, Clone)]
pub struct Record {
    /// Benchmark name, e.g. `"cluster/sim_indexed_1000"`.
    pub name: String,
    /// Iterations per repetition (after calibration).
    pub iters: u64,
    /// Repetitions measured.
    pub reps: usize,
    /// Median per-iteration nanoseconds.
    pub median_ns: f64,
    /// Fastest repetition's per-iteration nanoseconds.
    pub min_ns: f64,
    /// Mean per-iteration nanoseconds.
    pub mean_ns: f64,
    /// Optional elements-per-iteration for throughput reporting.
    pub elements: Option<u64>,
}

impl Record {
    /// Elements per second at the median time, if elements were set.
    pub fn elems_per_s(&self) -> Option<f64> {
        self.elements.map(|e| e as f64 / (self.median_ns / 1e9))
    }
}

/// True when `VCU_BENCH_SMOKE` requests the seconds-long CI
/// configuration (any non-empty value other than `"0"`).
pub fn smoke() -> bool {
    std::env::var("VCU_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// A suite of benchmarks accumulating records, flushed to JSON.
///
/// Under `VCU_BENCH_SMOKE` the harness switches to a quick mode —
/// calibration is skipped and fewer repetitions run — so CI can
/// exercise every bench path in seconds. Quick-mode numbers are noisy
/// by design; smoke runs write to temp paths, never `results/`.
#[derive(Debug, Default)]
pub struct Harness {
    records: Vec<Record>,
    quick: bool,
}

impl Harness {
    /// Creates an empty harness, in quick mode when [`smoke`] is set.
    pub fn new() -> Self {
        Harness {
            records: Vec::new(),
            quick: smoke(),
        }
    }

    /// Times `f`, printing and recording the result, with an optional
    /// elements-per-iteration count for throughput reporting (jobs,
    /// events…). The closure's return value is passed through
    /// [`black_box`] so the work cannot be optimized away.
    pub fn bench_elements<R>(
        &mut self,
        name: &str,
        elements: Option<u64>,
        mut f: impl FnMut() -> R,
    ) -> &Record {
        // Calibrate: grow the iteration count until one rep is slow
        // enough to time reliably.
        let mut iters: u64 = 1;
        if !self.quick {
            loop {
                let t = time_iters(iters, &mut f);
                if t >= TARGET_REP || iters >= 1 << 24 {
                    break;
                }
                // Aim straight at the target with 2x headroom.
                let scale = TARGET_REP.as_secs_f64() / t.as_secs_f64().max(1e-9);
                iters = (iters as f64 * scale.clamp(2.0, 100.0)).ceil() as u64;
            }
        }
        let reps = if self.quick { 3 } else { DEFAULT_REPS };
        let per_iter_ns = (0..reps)
            .map(|_| time_iters(iters, &mut f).as_nanos() as f64 / iters as f64)
            .collect();
        self.record(name, iters, elements, per_iter_ns)
    }

    /// Times `reps` single-shot runs of `f` — no calibration, one
    /// iteration per repetition. For macro-benchmarks (whole simulator
    /// runs) where one execution already takes long enough to time and
    /// calibrating would multiply the runtime.
    ///
    /// Repetitions fan out across the process-wide work-stealing pool
    /// at `min(VCU_THREADS, reps)` parallelism — each repetition times
    /// only its own execution, so the statistic stays per-run
    /// wall-clock (concurrent reps contend for cores; run with
    /// `VCU_THREADS=1` when measuring an already-parallel workload).
    pub fn bench_reps<R>(
        &mut self,
        name: &str,
        elements: Option<u64>,
        reps: usize,
        f: impl Fn() -> R + Sync,
    ) -> &Record {
        let reps = reps.max(1);
        let f = &f;
        let per_iter_ns = vcu_exec::pool().run_batch(
            vcu_exec::env_threads().min(reps),
            (0..reps)
                .map(|_| {
                    move || {
                        let start = Instant::now();
                        black_box(f());
                        start.elapsed().as_nanos() as f64
                    }
                })
                .collect(),
        );
        self.record(name, 1, elements, per_iter_ns)
    }

    /// Reduces one benchmark's per-repetition times (ns per iteration,
    /// at least one) to a [`Record`], prints its row and keeps it.
    fn record(
        &mut self,
        name: &str,
        iters: u64,
        elements: Option<u64>,
        mut per_iter_ns: Vec<f64>,
    ) -> &Record {
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        let record = Record {
            name: name.to_string(),
            iters,
            reps: per_iter_ns.len(),
            median_ns: per_iter_ns[per_iter_ns.len() / 2],
            min_ns: per_iter_ns[0],
            mean_ns: per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64,
            elements,
        };
        let throughput = record
            .elems_per_s()
            .map(|t| format!("  ({:.3} Melem/s)", t / 1e6))
            .unwrap_or_default();
        println!(
            "{:<40} median {:>12}  min {:>12}{}",
            record.name,
            fmt_ns(record.median_ns),
            fmt_ns(record.min_ns),
            throughput
        );
        self.records.push(record);
        self.records.last().expect("just pushed")
    }

    /// Writes all records as JSON to `path` (creating parent dirs) and
    /// prints where they went, in the one table shape of
    /// `vcu_telemetry::json::render_table`.
    ///
    /// The header's `host_cores` stamps the capture machine's
    /// parallelism on the rows (a reader comparing two files sees
    /// whether they came from like hosts), and `records` holds one
    /// row per benchmark.
    ///
    /// A telemetry snapshot (`<stem>_telemetry.json`) is written next
    /// to the raw records, so bench runs and simulator runs share one
    /// observability format for downstream tooling.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let rows = self.records.iter().map(|r| {
            let mut row = JsonObj::new()
                .str("name", &r.name)
                .u64("iters", r.iters)
                .u64("reps", r.reps as u64)
                .fixed("median_ns", r.median_ns, 1)
                .fixed("min_ns", r.min_ns, 1)
                .fixed("mean_ns", r.mean_ns, 1);
            if let Some(e) = r.elements {
                row = row.u64("elements", e);
            }
            if let Some(t) = r.elems_per_s() {
                row = row.fixed("throughput", t, 1);
            }
            row
        });
        let header = JsonObj::new().u64("host_cores", host_cores() as u64);
        let out = render_table(header, "records", rows.collect());
        if let Some(parent) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, out)?;
        println!("\nwrote {} records to {path}", self.records.len());
        self.write_telemetry(&telemetry_sibling(path))
    }

    /// Mirrors the records into a telemetry registry — plus the
    /// work-stealing pool's scheduler metering (steals, queue depths,
    /// per-worker busy time) from any pool-backed benchmarks — and
    /// writes its snapshot to `path`.
    fn write_telemetry(&self, path: &str) -> std::io::Result<()> {
        let reg = vcu_telemetry::Registry::new();
        for r in &self.records {
            reg.counter_add(&format!("bench.{}.iters", r.name), r.iters);
            reg.gauge_set(&format!("bench.{}.median_ns", r.name), r.median_ns);
            reg.gauge_set(&format!("bench.{}.min_ns", r.name), r.min_ns);
            reg.gauge_set(&format!("bench.{}.mean_ns", r.name), r.mean_ns);
            if let Some(t) = r.elems_per_s() {
                reg.gauge_set(&format!("bench.{}.elems_per_s", r.name), t);
            }
        }
        vcu_exec::pool().record_telemetry(&reg);
        reg.write_snapshot(path, &[("records", &self.records.len().to_string())])
    }
}

/// The capture machine's available parallelism, recorded in every
/// bench JSON.
fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `results/bench_foo.json` → `results/bench_foo_telemetry.json`.
fn telemetry_sibling(path: &str) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}_telemetry.json"),
        None => format!("{path}_telemetry.json"),
    }
}

/// Absolute path of `file` inside the workspace-level `results/`
/// directory (bench binaries run with the package dir as CWD, so a
/// relative `results/` would land inside `crates/bench`).
pub fn results_path(file: &str) -> String {
    format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// Where this run writes the artifact `stem`: `results/<stem>.json`,
/// or `$TMPDIR/<stem>_smoke.json` under [`smoke`] — a smoke run never
/// writes `results/`.
pub fn output_path(stem: &str) -> String {
    if smoke() {
        std::env::temp_dir()
            .join(format!("{stem}_smoke.json"))
            .to_string_lossy()
            .into_owned()
    } else {
        results_path(&format!("{stem}.json"))
    }
}

fn time_iters<R>(iters: u64, f: &mut impl FnMut() -> R) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed()
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_records() {
        let mut h = Harness::new();
        let r = h.bench_elements("smoke/sum", Some(1000), || (0..1000u64).sum::<u64>());
        assert!(r.median_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert_eq!(r.elements, Some(1000));
        assert!(r.elems_per_s().unwrap() > 0.0);
    }

    #[test]
    fn bench_reps_fans_out_and_records() {
        let mut h = Harness::new();
        // Fn + Sync: shared state goes behind a lock, like the
        // cluster-scale bench's result slot.
        let acc = std::sync::Mutex::new(0u64);
        let r = h.bench_reps("smoke/reps", Some(10), 5, || {
            *acc.lock().unwrap() += (0..1000u64).sum::<u64>();
        });
        assert_eq!(r.reps, 5);
        assert_eq!(r.iters, 1);
        assert!(r.median_ns > 0.0);
        assert_eq!(*acc.lock().unwrap(), 5 * 499_500);
    }

    #[test]
    fn json_is_written() {
        let mut h = Harness::new();
        h.bench_elements("smoke/nop", None, || 1u8);
        h.bench_elements("smoke/elems", Some(64), || 1u8);
        let path = std::env::temp_dir().join("vcu_bench_smoke.json");
        let path = path.to_str().unwrap();
        h.write_json(path).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"smoke/nop\""));
        // Top level is an object carrying capture-host metadata.
        assert!(body.trim_start().starts_with('{'));
        assert!(body.contains(&format!("\"host_cores\": {}", host_cores())));
        assert!(body.contains("\"records\": ["));
        // Rows with elements carry a derived elements/s throughput.
        let elems_row = body.lines().find(|l| l.contains("smoke/elems")).unwrap();
        assert!(elems_row.contains("\"throughput\":"));
        assert!(!body
            .lines()
            .any(|l| l.contains("smoke/nop") && l.contains("throughput")));
        // The telemetry twin lands next to the records.
        let twin = std::fs::read_to_string(telemetry_sibling(path)).unwrap();
        assert!(twin.contains("\"bench.smoke/nop.median_ns\""));
        assert!(twin.contains("\"telemetry_version\""));
    }

    #[test]
    fn telemetry_sibling_paths() {
        assert_eq!(
            telemetry_sibling("results/bench_x.json"),
            "results/bench_x_telemetry.json"
        );
        assert_eq!(telemetry_sibling("raw"), "raw_telemetry.json");
    }
}
