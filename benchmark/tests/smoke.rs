//! Drives the built binary the way the builder's driver does, in
//! `--smoke` mode: seconds, tiny sizes, the same code paths. One test,
//! because every run writes under `out/smoke/`.

use std::collections::BTreeSet;
use std::process::Command;
use vcu_benchmark::catalog::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use vcu_benchmark::json::Json;

fn benchmark(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("spawn the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    (out.status.success(), stdout)
}

/// Checks one run's result object against the contract.
fn check_result(workload: &str, traced: bool, line: &str) {
    let defs: &[MetricDef] = if traced { PER_LAYER } else { &END_TO_END };
    let doc = Json::parse(line).unwrap_or_else(|e| panic!("{workload}: result line: {e}"));
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        doc.get("correct"),
        Some(&Json::Bool(true)),
        "{workload} traced={traced}"
    );
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
    let attempted = doc
        .get("attempted")
        .and_then(Json::as_f64)
        .expect("attempted");
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);

    let metrics = doc.get("metrics").and_then(Json::as_obj).expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(
        names, expected,
        "{workload} traced={traced} prints exactly the declared metrics"
    );
    for ((name, m), def) in metrics.iter().zip(defs) {
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} is not a number"
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(def.unit),
            "{name}"
        );
        if !traced {
            assert!(
                value > Some(0.0),
                "{workload}: end-to-end {name} must never be 0"
            );
        }
    }
}

#[test]
fn smoke_runs_meet_the_output_contract() {
    // The one-command form: all five workloads, untraced then traced,
    // each a child process whose output is what the driver would see.
    let (ok, stdout) = benchmark(&["--smoke", "--seconds", "0", "--seed", "7"]);
    assert!(ok, "all --smoke failed");

    let mut produced = BTreeSet::new();
    let mut results = Vec::new();
    let mut current = None;
    for line in stdout.lines() {
        if let Some(header) = line.strip_prefix("# ") {
            let mut words = header.split_whitespace();
            if let (Some(name), Some(_seed), Some(trace)) =
                (words.next(), words.next(), words.next())
            {
                if let Some(w) = WORKLOADS.iter().find(|w| w.name == name) {
                    current = Some((w.name, trace == "trace=1"));
                }
            }
        } else if line.starts_with('{') {
            let (workload, traced) = current.expect("a header precedes every result");
            check_result(workload, traced, line);
            results.push((workload, traced));
        } else if let Some(name) = line.split_whitespace().next() {
            produced.insert(name.to_owned());
        }
    }
    let expected: Vec<_> = WORKLOADS
        .iter()
        .flat_map(|w| [(w.name, false), (w.name, true)])
        .collect();
    assert_eq!(results, expected, "every workload ran untraced then traced");
    // Every per-layer metric is driven by at least one workload.
    for def in PER_LAYER {
        assert!(
            produced.contains(def.name),
            "no workload reports {}",
            def.name
        );
    }

    // One results file, host-stamped, which `compare` accepts against itself.
    let path = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# wrote "))
        .expect("results path");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("results file")).expect("JSON");
    assert_eq!(
        doc.get("host").and_then(|h| h.get("deterministic")),
        Some(&Json::Bool(false))
    );
    let run = &doc.get("runs").and_then(Json::as_arr).expect("runs")[0];
    let workloads = run
        .get("workloads")
        .and_then(Json::as_obj)
        .expect("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    let (ok, table) = benchmark(&["compare", path, path]);
    assert!(ok && table.contains("compare: holds"), "{table}");

    // A run that fits more repetitions reads its latency percentile
    // from the same number of samples.
    let reps_and_samples = |seconds: &str| {
        let (ok, stdout) = benchmark(&[
            "--smoke",
            "--workload",
            "transcode",
            "--trace",
            "0",
            "--seconds",
            seconds,
        ]);
        assert!(ok, "transcode --smoke --seconds {seconds} failed");
        let word_after = |key: &str| -> f64 {
            let rest = &stdout[stdout.find(key).expect(key) + key.len()..];
            let word = rest.split_whitespace().next().expect("a value");
            word.parse().expect("a number")
        };
        (word_after(" reps="), word_after("\ne2e.chunk_samples"))
    };
    let (short, long) = (reps_and_samples("0"), reps_and_samples("8"));
    assert!(long.0 > short.0, "8 s fit no more repetitions than 0 s");
    assert_eq!(long.1, short.1, "sample count moved with repetitions");

    // Misuse exits non-zero without a result line.
    let (ok, stdout) = benchmark(&["--workload", "nonesuch", "--trace", "0"]);
    assert!(!ok && !stdout.contains("\"correct\""));
}
