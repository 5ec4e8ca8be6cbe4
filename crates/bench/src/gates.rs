//! The CI gates over `results/` artifacts, as plain functions of the
//! parsed JSON.
//!
//! Each artifact has one gate, called from exactly two places: the
//! campaign driver (on the bytes it just rendered, `full` only off
//! smoke mode) and the `check_results` binary (on the committed files,
//! `full = true`). A gate reads every value through `Row`, so a
//! missing or mistyped key is a failure, never a default. A failure
//! reads `<gate>.<check>: cell <n>: …`; every threshold is a constant
//! in this file and nowhere else.

use vcu_dse::DEFAULT_ANCHOR_TOL;
use vcu_telemetry::json::Value;

/// A passed gate's summary, or every failure it found.
pub type GateResult = Result<String, Vec<String>>;

/// Fault: max goodput drop between adjacent fault rates at one MTTR.
const MAX_STEP_DROP: f64 = 0.20;
/// Fault: goodput floor at each MTTR group's highest fault rate.
const GOODPUT_FLOOR: f64 = 0.55;
/// Serve: TTFF p99 may grow by this factor plus the slack between
/// adjacent cache sizes (a different miss mix, never a cliff).
const TTFF_CLIFF_FACTOR: f64 = 1.25;
const TTFF_CLIFF_SLACK_S: f64 = 0.05;
/// Serve: peak concurrent viewers the full sweep must demonstrate.
const FULL_PEAK_FLOOR: u64 = 1_000_000;
/// Region: fleet size the full sweep's largest planet must reach.
const FULL_FLEET_FLOOR: u64 = 100_000;
/// Fidelity: the three statuses a `fidelity.json` row can hold.
pub(crate) const MATCH: &str = "match";
pub(crate) const SHAPE_ONLY: &str = "shape-only";
pub(crate) const DEVIATES: &str = "deviates";

/// One record of an artifact's array, with its index for messages.
struct Row<'a> {
    idx: usize,
    value: &'a Value,
}

impl<'a> Row<'a> {
    fn read<T>(&self, key: &str, as_t: fn(&'a Value) -> Option<T>) -> Result<T, String> {
        let field = self.value.get(key).and_then(as_t);
        field.ok_or_else(|| format!("cell {}: \"{key}\" missing or mistyped", self.idx))
    }

    /// The numbers under `keys`, in order.
    fn nums<const N: usize>(&self, keys: [&str; N]) -> Result<[f64; N], String> {
        let mut out = [0.0; N];
        for (slot, key) in out.iter_mut().zip(keys) {
            *slot = self.read(key, Value::as_f64)?;
        }
        Ok(out)
    }

    /// The exact non-negative integers under `keys`, in order.
    fn ints<const N: usize>(&self, keys: [&str; N]) -> Result<[u64; N], String> {
        let mut out = [0; N];
        for (slot, key) in out.iter_mut().zip(keys) {
            *slot = self.read(key, Value::as_u64)?;
        }
        Ok(out)
    }
}

/// Reads `doc[array_key]` record by record. A missing or empty array
/// and every record `read` rejects are failures of `gate`.
fn read_rows<'a, T>(
    gate: &str,
    doc: &'a Value,
    array_key: &str,
    read: impl Fn(&Row<'a>) -> Result<T, String>,
) -> Result<Vec<T>, Vec<String>> {
    let rows = doc.get(array_key).and_then(Value::as_array).unwrap_or(&[]);
    if rows.is_empty() {
        return Err(vec![format!("{gate}.rows: no \"{array_key}\" records")]);
    }
    let (mut out, mut fails) = (Vec::new(), Vec::new());
    for (idx, value) in rows.iter().enumerate() {
        match read(&Row { idx, value }) {
            Ok(t) => out.push(t),
            Err(e) => fails.push(format!("{gate}.keys: {e}")),
        }
    }
    finish(fails, out)
}

fn finish<T>(fails: Vec<String>, passed: T) -> Result<T, Vec<String>> {
    if fails.is_empty() {
        Ok(passed)
    } else {
        Err(fails)
    }
}

/// `fault_campaign.json`: goodput decays gracefully with the fault
/// rate. Cells arrive grouped by MTTR with the fault rate ascending in
/// each group, so a group ends where the rate stops rising.
pub fn fault(doc: &Value, _full: bool) -> GateResult {
    let cells = read_rows("fault", doc, "cells", |r| {
        r.nums(["fault_rate", "goodput_frac"])
    })?;
    let mut fails = Vec::new();
    for (i, &[rate, goodput]) in cells.iter().enumerate() {
        match cells.get(i + 1).filter(|next| next[0] > rate) {
            Some(&[_, next]) if goodput - next > MAX_STEP_DROP => fails.push(format!(
                "fault.cliff: cell {}: goodput {goodput:.3} -> {next:.3} from the rate before",
                i + 1
            )),
            None if goodput < GOODPUT_FLOOR => fails.push(format!(
                "fault.floor: cell {i}: goodput {goodput:.3} at its MTTR's highest fault rate"
            )),
            _ => {}
        }
    }
    let n = cells.len();
    let summary = format!("fault: {n} cells, steps <= {MAX_STEP_DROP}, floor {GOODPUT_FLOOR}");
    finish(fails, summary)
}

/// `serve_campaign.json`: exact session accounting in every cell; hit
/// ratio monotone and no TTFF p99 cliff across each ascending-cache
/// group (consecutive cells on one fleet), at least one such pair;
/// full sweeps reach `FULL_PEAK_FLOOR` concurrent viewers.
pub fn serve(doc: &Value, full: bool) -> GateResult {
    const INTS: [&str; 9] = [
        "viewers",
        "vcus",
        "cache_segments",
        "peak_concurrent",
        "arrivals",
        "admitted",
        "shed",
        "completed",
        "aborted",
    ];
    let cells = read_rows("serve", doc, "cells", |r| {
        Ok((r.ints(INTS)?, r.nums(["hit_ratio", "ttff_p99_s"])?))
    })?;
    let mut fails = Vec::new();
    for (i, &([.., arrivals, admitted, shed, completed, aborted], _)) in cells.iter().enumerate() {
        if admitted.checked_add(shed) != Some(arrivals) {
            fails.push(format!(
                "serve.arrivals: cell {i}: arrivals != admitted + shed"
            ));
        }
        if completed.checked_add(aborted) != Some(admitted) {
            fails.push(format!(
                "serve.sessions: cell {i}: admitted != completed + aborted"
            ));
        }
    }
    let mut pairs = 0;
    for (i, pair) in cells.windows(2).enumerate() {
        let ([viewers, vcus, cache, ..], [hit, p99]) = pair[0];
        let ([next_viewers, next_vcus, next_cache, ..], [next_hit, next_p99]) = pair[1];
        if (viewers, vcus) != (next_viewers, next_vcus) || cache >= next_cache {
            continue;
        }
        pairs += 1;
        let at = format!("cell {}: cache {cache} -> {next_cache}", i + 1);
        if next_hit < hit {
            fails.push(format!("serve.hit_ratio: {at}: {hit:.4} -> {next_hit:.4}"));
        }
        if next_p99 > p99 * TTFF_CLIFF_FACTOR + TTFF_CLIFF_SLACK_S {
            fails.push(format!(
                "serve.ttff_cliff: {at}: p99 {p99:.3}s -> {next_p99:.3}s"
            ));
        }
    }
    if pairs == 0 {
        fails.push("serve.pairs: no adjacent cache-sweep pair to compare".to_owned());
    }
    let peaks = cells.iter().map(|&([_, _, _, peak, ..], _)| peak);
    let peak = peaks.max().unwrap_or(0);
    if full && peak < FULL_PEAK_FLOOR {
        fails.push(format!("serve.peak: max peak {peak} < {FULL_PEAK_FLOOR}"));
    }
    let n = cells.len();
    let summary = format!("serve: {n} cells account exactly, {pairs} cache pairs, peak {peak}");
    finish(fails, summary)
}

/// `region_campaign.json`: overflow routing never loses goodput to the
/// isolated-regions counterfactual, anti-phased regions actually route
/// work, and full sweeps reach a `FULL_FLEET_FLOOR`-VCU planet.
pub fn region(doc: &Value, full: bool) -> GateResult {
    let cells = read_rows("region", doc, "cells", |r| {
        let ints = r.ints(["regions", "total_vcus", "routed_jobs"])?;
        Ok((ints, r.nums(["goodput_overflow", "goodput_isolated"])?))
    })?;
    let mut fails = Vec::new();
    for (i, &([regions, _, routed], [overflow, isolated])) in cells.iter().enumerate() {
        if overflow < isolated {
            fails.push(format!(
                "region.goodput: cell {i}: overflow {overflow:.6} < isolated {isolated:.6}"
            ));
        }
        if regions > 1 && routed == 0 {
            fails.push(format!(
                "region.routed: cell {i}: {regions} regions routed nothing"
            ));
        }
    }
    let fleets = cells.iter().map(|&([_, vcus, _], _)| vcus);
    let max_vcus = fleets.max().unwrap_or(0);
    if full && max_vcus < FULL_FLEET_FLOOR {
        fails.push(format!(
            "region.fleet: largest planet {max_vcus} VCUs < {FULL_FLEET_FLOOR}"
        ));
    }
    let n = cells.len();
    let summary = format!("region: {n} cells, overflow >= isolated, largest {max_vcus} VCUs");
    finish(fails, summary)
}

/// True if `a` Pareto-dominates `b` over maximize-objectives.
///
/// Written here from the definition and deliberately not a call into
/// `vcu_dse::pareto`: the DSE gate re-derives the frontier that
/// `run_dse` recorded, and a check that shared the code under test
/// would agree with its bugs. The independence is of logic, not of
/// language.
fn dominates(a: &[f64; 4], b: &[f64; 4]) -> bool {
    a.iter().zip(b).all(|(x, y)| x >= y) && a.iter().zip(b).any(|(x, y)| x > y)
}

/// `dse_frontier.json`: exactly one shipped anchor, on the frontier and
/// not dominated even after inflating its objectives by
/// [`DEFAULT_ANCHOR_TOL`]; the `on_frontier` flags equal the frontier
/// recomputed from the four recorded objectives.
pub fn dse(doc: &Value, _full: bool) -> GateResult {
    const DESIGN: [&str; 5] = [
        "encoder_cores",
        "decoder_cores",
        "refstore_kpix",
        "anchor",
        "on_frontier",
    ];
    const METRICS: [&str; 5] = [
        "dram_gib_s",
        "perf_mpix_s_per_vcu",
        "goodput_fault",
        "perf_per_tco",
        "p99_wait_s",
    ];
    struct Candidate {
        label: String,
        objectives: [f64; 4],
        anchor: bool,
        on_frontier: bool,
    }
    let cands = read_rows("dse", doc, "candidates", |r| {
        let [enc, dec, kpix, anchor, on_frontier] = r.ints(DESIGN)?;
        let [dram, perf, goodput, per_tco, p99] = r.nums(METRICS)?;
        Ok(Candidate {
            label: format!("{enc}e{dec}d{dram}G{kpix}K"),
            objectives: [perf, goodput, per_tco, 1.0 / (1.0 + p99)],
            anchor: anchor != 0,
            on_frontier: on_frontier != 0,
        })
    })?;
    let mut fails = Vec::new();
    for (i, c) in cands.iter().enumerate() {
        let mut others = cands.iter().enumerate().filter(|&(j, _)| j != i);
        let dominated = others.any(|(_, o)| dominates(&o.objectives, &c.objectives));
        if c.on_frontier == dominated {
            let (label, flag) = (&c.label, c.on_frontier);
            fails.push(format!(
                "dse.frontier: {label}: on_frontier={flag}, recomputed {}",
                !dominated
            ));
        }
    }
    let anchors: Vec<_> = cands.iter().filter(|c| c.anchor).collect();
    let [anchor] = anchors[..] else {
        let n = anchors.len();
        fails.push(format!("dse.anchor_count: {n} shipped anchors, expected 1"));
        return Err(fails);
    };
    let name = &anchor.label;
    if !anchor.on_frontier {
        fails.push(format!("dse.anchor_frontier: {name} is off the frontier"));
    }
    let inflated = anchor.objectives.map(|o| o * (1.0 + DEFAULT_ANCHOR_TOL));
    for c in cands.iter().filter(|c| !c.anchor) {
        if dominates(&c.objectives, &inflated) {
            let label = &c.label;
            fails.push(format!(
                "dse.anchor_dominated: {label} beats {name} by > {DEFAULT_ANCHOR_TOL}"
            ));
        }
    }
    let (n, front) = (cands.len(), cands.iter().filter(|c| c.on_frontier).count());
    let summary = format!("dse: {n} candidates, {front} on the frontier with anchor {name}");
    finish(fails, summary)
}

/// The status a `fidelity.json` row's numbers earn: `match` while
/// |measured − paper| ≤ tolerance × |paper|; otherwise `shape-only`
/// when measured and paper lie strictly on the same side of the
/// baseline or, with no paper value, when measured exceeds it;
/// otherwise `deviates`.
pub(crate) fn fidelity_status(
    paper: Option<f64>,
    measured: f64,
    tolerance: f64,
    baseline: f64,
) -> &'static str {
    match paper {
        Some(p) if (measured - p).abs() <= tolerance * p.abs() => MATCH,
        Some(p) if (measured - baseline) * (p - baseline) > 0.0 => SHAPE_ONLY,
        None if measured > baseline => SHAPE_ONLY,
        _ => DEVIATES,
    }
}

/// `fidelity.json`: any row short of a match gives its reason; full runs
/// also recompute each status with `fidelity_status` and fail where
/// the recorded one differs (smoke-sized numbers earn no paper status).
pub fn fidelity(doc: &Value, full: bool) -> GateResult {
    let rows = read_rows("fidelity", doc, "rows", |r| {
        let paper = r.read("paper", |v| match v {
            Value::Null => Some(None),
            v => v.as_f64().map(Some),
        })?;
        let [measured, tolerance, baseline] = r.nums(["measured", "tolerance", "baseline"])?;
        let [id, status, reason] = ["id", "status", "reason"].map(|k| r.read(k, Value::as_str));
        let earned = fidelity_status(paper, measured, tolerance, baseline);
        Ok((id?, status?, reason?, earned))
    })?;
    let mut fails = Vec::new();
    for (i, &(id, status, reason, earned)) in rows.iter().enumerate() {
        if full && status != earned {
            fails.push(format!(
                "fidelity.status: cell {i}: {id} is recorded {status}, its numbers earn {earned}"
            ));
        }
        if status != MATCH && reason.trim().is_empty() {
            fails.push(format!(
                "fidelity.reason: cell {i}: {id} is {status} with no reason"
            ));
        }
    }
    let deviate = rows.iter().filter(|r| r.1 == DEVIATES).count();
    let summary = format!("fidelity: {} rows, {deviate} deviate", rows.len());
    finish(fails, summary)
}

#[cfg(test)]
mod tests {
    //! Every gate is shown a passing artifact and then the same
    //! artifact with exactly one property sabotaged: a gate that cannot
    //! go red is not a gate.
    use super::*;

    type Cells = Vec<Vec<(&'static str, f64)>>;

    /// An artifact holding `rows` under `array_key`; integral values
    /// become JSON integers, as the real writer emits counts.
    fn table(array_key: &str, rows: &Cells) -> Value {
        let number = |x: f64| match x.fract() == 0.0 && x >= 0.0 {
            true => Value::Int(x as i128),
            false => Value::Num(x),
        };
        let records = rows.iter().map(|row| {
            Value::Obj(
                row.iter()
                    .map(|&(k, x)| (k.to_owned(), number(x)))
                    .collect(),
            )
        });
        Value::Obj(vec![(array_key.to_owned(), Value::Arr(records.collect()))])
    }

    fn set(rows: &mut Cells, row: usize, key: &str, x: f64) {
        rows[row].iter_mut().find(|f| f.0 == key).unwrap().1 = x;
    }

    /// Asserts `result` failed, and only on `checks` (each a
    /// `gate.check` prefix).
    #[track_caller]
    fn assert_fails(result: GateResult, checks: &[&str]) {
        let fails = result.expect_err("a sabotaged artifact must fail its gate");
        for check in checks {
            let named = fails.iter().any(|f| f.starts_with(&format!("{check}:")));
            assert!(named, "no {check} failure in {fails:?}");
        }
        assert_eq!(
            fails.len(),
            checks.len(),
            "unexpected extra failures: {fails:?}"
        );
    }

    /// Two MTTR groups of three ascending fault rates each.
    fn fault_cells(goodputs: [f64; 6]) -> Value {
        let rows = goodputs
            .iter()
            .enumerate()
            .map(|(i, &g)| vec![("fault_rate", 0.05 * (i % 3) as f64), ("goodput_frac", g)]);
        table("cells", &rows.collect())
    }

    #[test]
    fn fault_gate_trips_on_a_cliff_and_on_the_floor() {
        let summary = fault(&fault_cells([1.0, 0.9, 0.8, 1.0, 0.85, 0.7]), true).unwrap();
        assert!(summary.contains("6 cells"), "{summary}");
        // A 0.25 drop inside the second group; its last cell stays
        // above the floor.
        assert_fails(
            fault(&fault_cells([1.0, 0.9, 0.8, 1.0, 0.75, 0.6]), true),
            &["fault.cliff"],
        );
        // Gentle steps all the way under the floor.
        assert_fails(
            fault(&fault_cells([1.0, 0.9, 0.8, 0.9, 0.72, 0.54]), true),
            &["fault.floor"],
        );
    }

    fn serve_cells() -> Cells {
        let cell = |viewers: f64, cache: f64, hit: f64, p99: f64| {
            vec![
                ("viewers", viewers),
                ("vcus", 32.0),
                ("cache_segments", cache),
                ("arrivals", 110.0),
                ("admitted", 100.0),
                ("shed", 10.0),
                ("completed", 99.0),
                ("aborted", 1.0),
                ("peak_concurrent", viewers),
                ("hit_ratio", hit),
                ("ttff_p99_s", p99),
            ]
        };
        vec![
            cell(1_500.0, 256.0, 0.4, 4.0),
            cell(1_500.0, 1_024.0, 0.6, 4.5),
            cell(1_200_000.0, 2_048.0, 0.5, 9.0),
        ]
    }

    fn serve_with(row: usize, key: &str, x: f64, full: bool) -> GateResult {
        let mut rows = serve_cells();
        set(&mut rows, row, key, x);
        serve(&table("cells", &rows), full)
    }

    #[test]
    fn serve_gate_trips_on_each_property() {
        let summary = serve(&table("cells", &serve_cells()), true).unwrap();
        assert!(summary.contains("1 cache pairs"), "{summary}");
        // `admitted` off by one breaks both accounting identities.
        assert_fails(
            serve_with(2, "admitted", 101.0, true),
            &["serve.arrivals", "serve.sessions"],
        );
        assert_fails(serve_with(0, "shed", 9.0, true), &["serve.arrivals"]);
        assert_fails(serve_with(1, "hit_ratio", 0.39, true), &["serve.hit_ratio"]);
        // TTFF p99 doubled between the two cache sizes; 5.05 s is the
        // most the gate allows after 4.0 s.
        assert!(serve_with(1, "ttff_p99_s", 5.05, true).is_ok());
        assert_fails(
            serve_with(1, "ttff_p99_s", 8.0, true),
            &["serve.ttff_cliff"],
        );
        // No cell left on the first fleet: nothing to compare.
        assert_fails(serve_with(1, "vcus", 64.0, true), &["serve.pairs"]);
        // The peak floor binds full sweeps only.
        assert_fails(
            serve_with(2, "peak_concurrent", 999_999.0, true),
            &["serve.peak"],
        );
        assert!(serve_with(2, "peak_concurrent", 999_999.0, false).is_ok());
    }

    fn region_with(row: usize, key: &str, x: f64, full: bool) -> GateResult {
        let cell = |regions: f64, vcus: f64, routed: f64| {
            vec![
                ("regions", regions),
                ("total_vcus", vcus),
                ("routed_jobs", routed),
                ("goodput_overflow", 0.99),
                ("goodput_isolated", 0.98),
            ]
        };
        let mut rows = vec![cell(1.0, 1_600.0, 0.0), cell(2.0, 102_400.0, 7.0)];
        set(&mut rows, row, key, x);
        region(&table("cells", &rows), full)
    }

    #[test]
    fn region_gate_trips_on_each_property() {
        assert!(region_with(0, "regions", 1.0, true).is_ok());
        assert_fails(
            region_with(1, "goodput_overflow", 0.979, true),
            &["region.goodput"],
        );
        assert_fails(region_with(1, "routed_jobs", 0.0, true), &["region.routed"]);
        assert_fails(
            region_with(1, "total_vcus", 99_999.0, true),
            &["region.fleet"],
        );
        assert!(region_with(1, "total_vcus", 99_999.0, false).is_ok());
    }

    /// Anchor (row 1) between a cheaper and a faster trade-off, plus a
    /// point the anchor dominates.
    fn dse_cells() -> Cells {
        let cand = |enc: f64, perf: f64, tco: f64, anchor: f64, front: f64| {
            vec![
                ("encoder_cores", enc),
                ("decoder_cores", 3.0),
                ("dram_gib_s", 36.0),
                ("refstore_kpix", 144.0),
                ("perf_mpix_s_per_vcu", perf),
                ("goodput_fault", 0.9),
                ("perf_per_tco", tco),
                ("p99_wait_s", 1.0),
                ("anchor", anchor),
                ("on_frontier", front),
            ]
        };
        vec![
            cand(8.0, 80.0, 3.0, 0.0, 1.0),
            cand(10.0, 100.0, 2.0, 1.0, 1.0),
            cand(12.0, 120.0, 1.0, 0.0, 1.0),
            cand(6.0, 90.0, 1.5, 0.0, 0.0),
        ]
    }

    fn dse_with(edits: &[(usize, &str, f64)]) -> GateResult {
        let mut rows = dse_cells();
        for &(row, key, x) in edits {
            set(&mut rows, row, key, x);
        }
        dse(&table("candidates", &rows), true)
    }

    #[test]
    fn dse_gate_trips_on_each_property() {
        let summary = dse_with(&[]).unwrap();
        assert!(summary.contains("anchor 10e3d36G144K"), "{summary}");
        // A dominated point flagged on-frontier, and a frontier point
        // flagged off it.
        assert_fails(dse_with(&[(3, "on_frontier", 1.0)]), &["dse.frontier"]);
        assert_fails(dse_with(&[(0, "on_frontier", 0.0)]), &["dse.frontier"]);
        // The anchor removed, and a second one added.
        assert_fails(dse_with(&[(1, "anchor", 0.0)]), &["dse.anchor_count"]);
        assert_fails(dse_with(&[(2, "anchor", 1.0)]), &["dse.anchor_count"]);
        // A candidate 1% better everywhere knocks the anchor off the
        // frontier but is inside the 2% tolerance; 3% better is not.
        let better = |by: f64| {
            dse_with(&[
                (3, "perf_mpix_s_per_vcu", 100.0 * by),
                (3, "goodput_fault", 0.9 * by),
                (3, "perf_per_tco", 2.0 * by),
                (3, "p99_wait_s", 0.5),
                (3, "on_frontier", 1.0),
                (1, "on_frontier", 0.0),
            ])
        };
        assert_fails(better(1.01), &["dse.anchor_frontier"]);
        assert_fails(
            better(1.03),
            &["dse.anchor_frontier", "dse.anchor_dominated"],
        );
    }

    #[test]
    fn fidelity_status_is_one_rule() {
        // (paper, measured, tolerance, baseline) → the status earned.
        let table = [
            (Some(100.0), 110.0, 0.1, 0.0, MATCH),
            (Some(100.0), 111.0, 0.1, 0.0, SHAPE_ONLY),
            // Fig. 7's VCU-VP9 vs sw-H.264: a saving measured as a cost.
            (Some(-30.0), 12.1, 0.25, 0.0, DEVIATES),
            (Some(-40.0), -14.3, 0.25, 0.0, SHAPE_ONLY),
            // A ratio on the far side of 1, and one on the line itself.
            (Some(1.6), 0.9, 0.1, 1.0, DEVIATES),
            (Some(1.6), 1.0, 0.1, 1.0, DEVIATES),
            // A zero paper value matches only exactly.
            (Some(0.0), 0.0, 0.25, 32.5, MATCH),
            (Some(0.0), 0.8, 0.25, 32.5, SHAPE_ONLY),
            (None, 6.5, 0.1, 1.0, SHAPE_ONLY),
            (None, 1.0, 0.1, 1.0, DEVIATES),
            (Some(100.0), f64::NAN, 0.1, 0.0, DEVIATES),
        ];
        for (paper, measured, tolerance, baseline, want) in table {
            let got = fidelity_status(paper, measured, tolerance, baseline);
            assert_eq!(
                got, want,
                "{paper:?} vs {measured} (tol {tolerance}, base {baseline})"
            );
        }
    }

    #[test]
    fn fidelity_gate_checks_reasons_always_and_statuses_in_full_runs() {
        let doc = |status: &str, reason: &str| {
            let text = |s: &str| Value::Str(s.to_owned());
            let fields = [
                ("id", text("fig7.x")),
                ("paper", Value::Num(-30.0)),
                ("measured", Value::Num(12.1)),
                ("tolerance", Value::Num(0.25)),
                ("baseline", Value::Int(0)),
                ("status", text(status)),
                ("reason", text(reason)),
            ];
            let row = Value::Obj(fields.map(|(k, v)| (k.to_owned(), v)).to_vec());
            Value::Obj(vec![("rows".to_owned(), Value::Arr(vec![row]))])
        };
        assert!(fidelity(&doc(DEVIATES, "wrong sign"), true).is_ok());
        assert_fails(fidelity(&doc(SHAPE_ONLY, "x"), true), &["fidelity.status"]);
        // Smoke-sized numbers earn no paper status; the reason still counts.
        assert!(fidelity(&doc(SHAPE_ONLY, "x"), false).is_ok());
        assert_fails(fidelity(&doc(DEVIATES, ""), false), &["fidelity.reason"]);
        assert_fails(fidelity(&doc("close", "x"), true), &["fidelity.status"]);
    }

    #[test]
    fn a_missing_key_or_an_empty_table_fails_every_gate() {
        let mut rows = serve_cells();
        rows[1].retain(|f| f.0 != "hit_ratio");
        assert_fails(serve(&table("cells", &rows), true), &["serve.keys"]);
        type Gate = fn(&Value, bool) -> GateResult;
        for (name, gate) in [
            ("fault", fault as Gate),
            ("serve", serve),
            ("region", region),
            ("fidelity", fidelity),
        ] {
            assert_fails(
                gate(&table("cells", &Vec::new()), true),
                &[&format!("{name}.rows")],
            );
            assert_fails(gate(&Value::Null, true), &[&format!("{name}.rows")]);
        }
        assert_fails(dse(&table("cells", &dse_cells()), true), &["dse.rows"]);
    }
}
