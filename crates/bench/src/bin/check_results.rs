//! Gates the five committed campaign artifacts under `results/`
//! through the same `Campaign::check` their drivers run on fresh
//! bytes. Reads only; exits non-zero naming each failed gate and cell.

use vcu_bench::campaign::{report, results_path, Campaign, Dse, Fault, Paper, Region, Serve};
use vcu_telemetry::json::{parse, Value};

fn load(path: &str) -> Result<Value, Vec<String>> {
    let text = std::fs::read_to_string(path).map_err(|e| vec![format!("{path}: {e}")])?;
    parse(&text).map_err(|e| vec![format!("{path}: {e}")])
}

fn campaign<C: Campaign>() -> bool {
    println!("--> results/{}.json", C::NAME);
    let path = results_path(&format!("{}.json", C::NAME));
    report(load(&path).and_then(|doc| C::check(&doc, true)))
}

fn main() {
    let passed = [
        campaign::<Fault>(),
        campaign::<Serve>(),
        campaign::<Region>(),
        campaign::<Dse>(),
        campaign::<Paper>(),
    ];
    if passed.contains(&false) {
        eprintln!("check_results: FAILED");
        std::process::exit(1);
    }
    println!("check_results: all gates passed");
}
