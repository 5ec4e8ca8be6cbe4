//! Deterministic JSON snapshot rendering.
//!
//! # Schema (version 1)
//!
//! ```json
//! {
//!   "telemetry_version": 1,
//!   "meta":       {"<key>": "<value>", ...},
//!   "counters":   {"<name>": <u64>, ...},
//!   "gauges":     {"<name>": <f64>, ...},
//!   "histograms": {"<name>": {"count", "sum", "min", "max", "mean",
//!                             "p50", "p99", "p999"}, ...},
//!   "series":     {"<name>": {"dropped": <u64>,
//!                             "points": [[t_s, value], ...]}, ...},
//!   "events":     [{"name", "job", "video", "vcu",
//!                   "start_s", "end_s", "value"}, ...],
//!   "dropped_events": <u64>
//! }
//! ```
//!
//! Determinism: map sections iterate in `BTreeMap` (sorted) order,
//! `meta` is sorted by key before rendering, events render in
//! recording order (which is itself deterministic under the sim
//! clock), and every float goes through [`crate::json::fmt_f64`]. Two
//! same-seed runs therefore produce byte-identical files — the
//! property `tests/determinism.rs` locks in.

use crate::json::{escape, fmt_f64};
use crate::registry::Store;

/// Schema version stamped into every snapshot.
pub(crate) const SNAPSHOT_VERSION: u32 = 1;

pub(crate) fn render(store: &Store, meta: &[(&str, &str)]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str(&format!("  \"telemetry_version\": {SNAPSHOT_VERSION},\n"));

    // meta, sorted by key for stability regardless of caller order.
    let mut meta: Vec<(&str, &str)> = meta.to_vec();
    meta.sort();
    out.push_str("  \"meta\": {");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": \"{}\"", escape(k), escape(v)));
    }
    out.push_str("},\n");

    out.push_str("  \"counters\": {");
    for (i, (k, v)) in store.counters.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {v}", escape(k)));
    }
    out.push_str("},\n");

    out.push_str("  \"gauges\": {");
    for (i, (k, v)) in store.gauges.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {}", escape(k), fmt_f64(*v)));
    }
    out.push_str("},\n");

    out.push_str("  \"histograms\": {\n");
    for (i, (k, h)) in store.histograms.iter().enumerate() {
        let s = h.summary();
        out.push_str(&format!(
            "    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
             \"mean\": {}, \"p50\": {}, \"p99\": {}, \"p999\": {}}}",
            escape(k),
            s.count,
            fmt_f64(s.sum),
            fmt_f64(s.min),
            fmt_f64(s.max),
            fmt_f64(s.mean),
            fmt_f64(s.p50),
            fmt_f64(s.p99),
            fmt_f64(s.p999),
        ));
        out.push_str(if i + 1 < store.histograms.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  },\n");

    out.push_str("  \"series\": {\n");
    for (i, (k, ts)) in store.series.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"dropped\": {}, \"points\": [",
            escape(k),
            ts.dropped()
        ));
        for (j, (t, v)) in ts.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[{}, {}]", fmt_f64(t), fmt_f64(v)));
        }
        out.push_str("]}");
        out.push_str(if i + 1 < store.series.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  },\n");

    out.push_str("  \"events\": [\n");
    for (i, e) in store.events.iter().enumerate() {
        let id = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_else(|| "null".into());
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"job\": {}, \"video\": {}, \"vcu\": {}, \
             \"start_s\": {}, \"end_s\": {}, \"value\": {}}}",
            escape(&e.name),
            id(e.scope.job),
            id(e.scope.video),
            id(e.scope.vcu.map(u64::from)),
            fmt_f64(e.start_s),
            fmt_f64(e.end_s),
            fmt_f64(e.value),
        ));
        out.push_str(if i + 1 < store.events.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");

    out.push_str(&format!("  \"dropped_events\": {}\n", store.dropped_events));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use crate::{Registry, Scope};

    fn populated() -> Registry {
        let r = Registry::new();
        r.counter_add("jobs.completed", 12);
        r.counter_add("jobs.failed", 1);
        r.gauge_set("util.encode", 0.875);
        r.observe("wait_s", 1.5);
        r.observe("wait_s", 2.5);
        r.series_record("util", 60.0, 0.5);
        r.series_record("util", 120.0, 0.75);
        r.span(
            "job",
            Scope::job(3).with_video(1).with_vcu(0),
            0.0,
            4.0,
            1.0,
        );
        r.event("quarantine", Scope::vcu(2), 9.0, 1.0);
        r
    }

    #[test]
    fn snapshot_is_reproducible() {
        let a = populated().snapshot_json(&[("seed", "42"), ("run", "x")]);
        let b = populated().snapshot_json(&[("run", "x"), ("seed", "42")]);
        assert_eq!(a, b, "same data + same meta (any order) → same bytes");
    }

    #[test]
    fn snapshot_contains_all_sections() {
        let s = populated().snapshot_json(&[("seed", "42")]);
        for needle in [
            "\"telemetry_version\": 1",
            "\"meta\": {\"seed\": \"42\"}",
            "\"jobs.completed\": 12",
            "\"util.encode\": 0.875",
            "\"wait_s\"",
            "\"p999\"",
            "[60, 0.5], [120, 0.75]",
            "\"quarantine\"",
            "\"vcu\": 2",
            "\"dropped_events\": 0",
        ] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn snapshot_is_valid_enough_json() {
        // No serde in-tree: sanity-check bracket balance and that the
        // file parses as a single object by a tiny structural scan.
        let s = populated().snapshot_json(&[]);
        let mut depth = 0i32;
        let mut in_str = false;
        let mut prev = ' ';
        for c in s.chars() {
            if in_str {
                if c == '"' && prev != '\\' {
                    in_str = false;
                }
            } else {
                match c {
                    '"' => in_str = true,
                    '{' | '[' => depth += 1,
                    '}' | ']' => depth -= 1,
                    _ => {}
                }
            }
            prev = c;
        }
        assert_eq!(depth, 0, "unbalanced brackets");
        assert!(!in_str, "unterminated string");
        assert!(s.trim_start().starts_with('{') && s.trim_end().ends_with('}'));
    }

    #[test]
    fn empty_registry_renders_empty_sections() {
        let s = Registry::new().snapshot_json(&[]);
        assert!(s.contains("\"counters\": {}"));
        assert!(s.contains("\"events\": [\n  ]"));
    }
}
