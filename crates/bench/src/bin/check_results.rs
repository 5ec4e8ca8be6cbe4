//! Gates every committed artifact under `results/`: the four campaign
//! files through the same `Campaign::check` their drivers run on fresh
//! bytes, and `bench_codec.json` against a fresh smoke run of the
//! codec bench (`VCU_BENCH_SMOKE=1 cargo bench -p vcu-bench --bench
//! codec`, which must have run first). Reads only; exits non-zero
//! naming each failed gate and cell.

use vcu_bench::campaign::{report, Campaign, Dse, Fault, Region, Serve};
use vcu_bench::gates::bench;
use vcu_bench::timing::{host_cores, results_path, smoke_path};
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

fn bench_rows() -> bool {
    println!("--> results/bench_codec.json vs fresh smoke run");
    let backends = vcu_codec::kernels::available_backends();
    let backends: Vec<&str> = backends.iter().map(|b| b.name()).collect();
    report(
        load(&results_path("bench_codec.json")).and_then(|committed| {
            let fresh = load(&smoke_path("bench_codec"))?;
            bench(&committed, &fresh, host_cores(), &backends)
        }),
    )
}

fn main() {
    let passed = [
        campaign::<Fault>(),
        campaign::<Serve>(),
        campaign::<Region>(),
        campaign::<Dse>(),
        bench_rows(),
    ];
    if passed.contains(&false) {
        eprintln!("check_results: FAILED");
        std::process::exit(1);
    }
    println!("check_results: all gates passed");
}
