//! The repo's benchmark. Five workloads, each driving one part of the
//! stack through its public API only, measured from outside:
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! benchmark [all] [--seed <n>] [--seconds <s>] [--runs <k>] [--smoke]
//! benchmark compare <baseline.json> <candidate.json>
//! benchmark manifest
//! ```
//!
//! The first form is the builder's contract: one workload, one run, one
//! JSON object as the last line of stdout. The second runs every
//! workload untraced then traced, each in its own child process, and
//! writes `benchmark/out/results.json`. See README.md.

pub mod catalog;
pub mod compare;
pub mod harness;
pub mod host;
pub mod json;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;

use harness::{drive, Ctx, Outcome};
use json::{obj, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Seed when none is given.
const DEFAULT_SEED: u64 = 42;

/// Where result and trace files go: `benchmark/out/`, beside the
/// sources; smoke runs keep to `out/smoke/` so they never overwrite
/// measured results.
fn out_dir(smoke: bool) -> PathBuf {
    // The package directory is known at build time, and the build and
    // the sources belong to one checkout.
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if smoke {
        out.join("smoke")
    } else {
        out
    }
}

fn write_out(smoke: bool, name: &str, doc: &Json) -> Result<PathBuf, String> {
    let dir = out_dir(smoke);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// `--key value` options after the subcommand, and the `--smoke` flag.
struct Options {
    pairs: Vec<(String, String)>,
    smoke: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Options {
            pairs: Vec::new(),
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                None => return Err(format!("unexpected argument {a:?}")),
                Some("smoke") => opts.smoke = true,
                Some(key) => {
                    let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    opts.pairs.push((key.to_owned(), v.clone()));
                }
            }
        }
        Ok(opts)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.pairs.iter().rev().find(|(k, _)| k == key) {
            None => Ok(default),
            Some((_, v)) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
        }
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    use workloads::{dse::Dse, fleet::Fleet, planet::Planet, serve::Serve, transcode::Transcode};
    Ok(match name {
        "transcode" => drive::<Transcode>(ctx),
        "fleet" => drive::<Fleet>(ctx),
        "serve" => drive::<Serve>(ctx),
        "planet" => drive::<Planet>(ctx),
        "dse" => drive::<Dse>(ctx),
        _ => {
            let names: Vec<_> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name:?}; one of {names:?}"));
        }
    })
}

/// Every metric of `defs` with its unit; one this run did not produce
/// (a layer the workload does not drive) reads 0.
fn metrics_object(defs: &[catalog::MetricDef], values: &[harness::Named]) -> Json {
    obj(defs.iter().map(|d| {
        let v = values
            .iter()
            .find(|(n, _)| *n == d.name)
            .map_or(0.0, |(_, v)| *v);
        (
            d.name,
            obj([("value", Json::from(v)), ("unit", Json::from(d.unit))]),
        )
    }))
}

/// One workload, one run: the contract's form.
fn single(args: &[String]) -> Result<ExitCode, String> {
    let opts = Options::parse(args)?;
    opts.only(&["workload", "seed", "seconds", "trace"])?;
    let name: String = opts.get("workload", String::new())?;
    let trace: u8 = opts.get("trace", 0)?;
    let seconds: f64 = opts.get("seconds", catalog::RUN_SECONDS as f64)?;
    if trace > 1 || !(0.0..=600.0).contains(&seconds) {
        return Err("--trace is 0 or 1, --seconds is 0 to 600".to_owned());
    }
    let ctx = Ctx {
        seed: opts.get("seed", DEFAULT_SEED)?,
        seconds,
        traced: trace == 1,
        smoke: opts.smoke,
        threads: host::bench_threads(),
    };
    // The planet reads its parallelism from here; set it before any
    // thread exists.
    std::env::set_var("VCU_THREADS", ctx.threads.to_string());

    let out = run_workload(&name, &ctx)?;
    if let Some((n, _)) = out
        .named
        .iter()
        .chain(&out.layers)
        .find(|(n, _)| catalog::find(n).is_none())
    {
        return Err(format!(
            "{name} reported {n}, which the catalog does not define"
        ));
    }
    let values: Vec<harness::Named> = if ctx.traced {
        out.named.iter().chain(&out.layers).copied().collect()
    } else {
        out.end_to_end.clone()
    };
    let defs: &[catalog::MetricDef] = if ctx.traced {
        catalog::PER_LAYER
    } else {
        &catalog::END_TO_END
    };

    // Every metric by name and unit, for a reader; the untraced run also
    // shows the workload's own end-to-end metrics.
    println!(
        "# {name} seed={} trace={trace} threads={} reps={} ops_attempted={} ops_failed={}",
        ctx.seed,
        ctx.threads,
        out.walls_s.len(),
        out.ops.attempted,
        out.ops.failed
    );
    let walls: Vec<String> = out.walls_s.iter().map(|w| format!("{w:.4}")).collect();
    println!("# rep walls (s): {}", walls.join(" "));
    println!(
        "# set-up (s): inputs {:.4} warm-up {:.4}",
        out.setup_parts_s.0, out.setup_parts_s.1
    );
    for (n, v) in out.end_to_end.iter().chain(&out.named).chain(&out.layers) {
        let unit = catalog::find(n).map_or("?", |d| d.unit);
        println!("{n:<34} {v:>18.6} {unit}");
    }

    let metrics = metrics_object(defs, &values);
    let mut record = vec![
        ("host", host::stamp(ctx.seed, out.walls_s.len())),
        ("workload", Json::from(name.as_str())),
        ("traced", Json::from(ctx.traced)),
        ("seconds", Json::from(ctx.seconds)),
        ("ops_attempted", Json::from(out.ops.attempted)),
        ("ops_failed", Json::from(out.ops.failed)),
        ("metrics", metrics.clone()),
    ];
    if !ctx.traced {
        // The workload's own end-to-end metrics, measured with the whole
        // run spent on untraced repetitions.
        let own: Vec<_> = catalog::PER_LAYER
            .iter()
            .filter(|d| d.name.starts_with("e2e."))
            .copied()
            .collect();
        record.push(("named", metrics_object(&own, &out.named)));
    } else {
        record.push(("trace", out.tracer.to_json()));
    }
    let file = format!(
        "{name}.{}.json",
        if ctx.traced { "trace" } else { "result" }
    );
    write_out(ctx.smoke, &file, &obj(record))?;

    println!(
        "{}",
        obj([
            ("correct", Json::from(out.ops.failed == 0)),
            ("attempted", Json::from(out.ops.attempted)),
            ("failed", Json::from(out.ops.failed)),
            ("metrics", metrics),
        ])
        .line()
    );
    Ok(ExitCode::SUCCESS)
}

/// Runs one workload in a child process and returns its metric values
/// and operation counts, read back from the file the child wrote.
fn child_run(name: &str, traced: bool, pass: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args([
            "--workload",
            name,
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .args(pass)
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!(
            "{name} (trace {}) exited with {status}",
            u8::from(traced)
        ));
    }
    let file = format!("{name}.{}.json", if traced { "trace" } else { "result" });
    let path = out_dir(pass.iter().any(|a| a == "--smoke")).join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
}

/// Flattens `{"name": {"value": v, ..}}` into `(name, v)` pairs.
fn values_of(record: &Json, key: &str) -> Vec<(String, Json)> {
    record
        .get(key)
        .and_then(Json::as_obj)
        .into_iter()
        .flatten()
        .filter_map(|(n, m)| Some((n.clone(), m.get("value")?.clone())))
        .collect()
}

/// Every workload, untraced then traced, each in its own process (so
/// peak memory is that workload's alone), `--runs` times over.
fn all(args: &[String]) -> Result<ExitCode, String> {
    let opts = Options::parse(args)?;
    opts.only(&["seed", "seconds", "runs"])?;
    let seed: u64 = opts.get("seed", DEFAULT_SEED)?;
    let runs: usize = opts.get("runs", 1)?;
    let mut pass = vec!["--seed".to_owned(), seed.to_string()];
    if let Some((_, s)) = opts.pairs.iter().find(|(k, _)| k == "seconds") {
        pass.extend(["--seconds".to_owned(), s.clone()]);
    }
    if opts.smoke {
        pass.push("--smoke".to_owned());
    }

    let mut run_docs = Vec::new();
    let mut failed_ops = 0.0;
    for _ in 0..runs.max(1) {
        let mut per_workload = Vec::new();
        for w in catalog::WORKLOADS {
            let untraced = child_run(w.name, false, &pass)?;
            let traced = child_run(w.name, true, &pass)?;
            // End-to-end numbers, the workload's own ones included, come
            // from the untraced process; everything else from the traced.
            let mut metrics = values_of(&untraced, "metrics");
            let named = values_of(&untraced, "named");
            for (n, v) in values_of(&traced, "metrics") {
                let from_untraced = named.iter().find(|(k, _)| *k == n);
                metrics.push(from_untraced.cloned().unwrap_or((n, v)));
            }
            let count = |key: &str| {
                [&untraced, &traced]
                    .iter()
                    .filter_map(|r| r.get(key).and_then(Json::as_f64))
                    .sum::<f64>()
            };
            failed_ops += count("ops_failed");
            per_workload.push((
                w.name,
                obj([
                    ("ops_attempted", Json::from(count("ops_attempted"))),
                    ("ops_failed", Json::from(count("ops_failed"))),
                    ("metrics", Json::Obj(metrics)),
                ]),
            ));
        }
        run_docs.push(obj([("workloads", obj(per_workload))]));
    }
    let doc = obj([
        ("host", host::stamp(seed, runs)),
        ("runs", Json::Arr(run_docs)),
    ]);
    let path = write_out(opts.smoke, "results.json", &doc)?;
    println!("# wrote {}", path.display());
    Ok(if failed_ops == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => Ok(if compare::run(a, b)? {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }),
            _ => Err("usage: benchmark compare <baseline.json> <candidate.json>".to_owned()),
        },
        Some("manifest") => {
            print!("{}", catalog::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("all") => all(&args[1..]),
        _ if args.iter().any(|a| a == "--workload") => single(args),
        _ => all(args),
    }
}

/// Runs the command line `args` (without the program name).
pub fn cli(args: &[String]) -> ExitCode {
    dispatch(args).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
