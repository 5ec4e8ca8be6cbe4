//! The [`Registry`] handle every layer records through.
//!
//! A `Registry` is a cheap clonable handle (one `Option<Arc>`): clones
//! share the same store, so a cluster simulation, the chip models it
//! drives, and the codec below them can all report into one snapshot.
//! [`Registry::disabled`] carries no store at all — every record call
//! is a single branch and returns, which is what lets instrumentation
//! live permanently on hot paths (the bench gate: disabled telemetry
//! must cost < 5% on the cluster-sim benchmark).
//!
//! Metric names are plain `&str`; the store allocates a key once on
//! first use and never again on the hot path (lookups borrow).

use crate::metrics::{Histogram, HistogramSummary};
use crate::series::{TimeSeries, DEFAULT_SERIES_CAPACITY};
use crate::trace::{Scope, TraceEvent};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Bound on retained trace events (fixed memory; overflow counts as
/// `dropped_events` in the snapshot instead of growing).
const MAX_EVENTS: usize = 1 << 16;

#[derive(Debug, Default)]
pub(crate) struct Store {
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, f64>,
    pub(crate) histograms: BTreeMap<String, Histogram>,
    pub(crate) series: BTreeMap<String, TimeSeries>,
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) dropped_events: u64,
}

/// The observability handle. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Mutex<Store>>>,
}

impl Registry {
    /// An enabled registry with an empty store.
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(Mutex::new(Store::default()))),
        }
    }

    /// A disabled handle: every record call is a no-op. This is also
    /// the `Default`, so embedding a `Registry` in a model struct
    /// costs nothing until a caller attaches a real one.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_store<R>(&self, f: impl FnOnce(&mut Store) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|m| f(&mut m.lock().expect("telemetry store poisoned")))
    }

    // ---- counters -------------------------------------------------

    /// Adds `delta` to a monotonic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.with_store(|s| match s.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                s.counters.insert(name.to_string(), delta);
            }
        });
    }

    /// Increments a counter by one.
    pub fn counter_inc(&self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Reads a counter (0 when absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.with_store(|s| s.counters.get(name).copied().unwrap_or(0))
            .unwrap_or(0)
    }

    // ---- gauges ---------------------------------------------------

    /// Sets a gauge to its latest value.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.with_store(|s| match s.gauges.get_mut(name) {
            Some(g) => *g = value,
            None => {
                s.gauges.insert(name.to_string(), value);
            }
        });
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.with_store(|s| s.gauges.get(name).copied()).flatten()
    }

    // ---- histograms -----------------------------------------------

    /// Records an observation into a log-bucketed histogram.
    pub fn observe(&self, name: &str, value: f64) {
        self.with_store(|s| match s.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::new();
                h.record(value);
                s.histograms.insert(name.to_string(), h);
            }
        });
    }

    /// Summarizes a histogram.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.with_store(|s| s.histograms.get(name).map(|h| h.summary()))
            .flatten()
    }

    // ---- time series ----------------------------------------------

    /// Appends a `(time_s, value)` point to a sim-clock time-series
    /// ring buffer (capacity [`DEFAULT_SERIES_CAPACITY`], oldest
    /// points dropped on overflow).
    pub fn series_record(&self, name: &str, time_s: f64, value: f64) {
        self.with_store(|s| match s.series.get_mut(name) {
            Some(ts) => ts.record(time_s, value),
            None => {
                let mut ts = TimeSeries::new(DEFAULT_SERIES_CAPACITY);
                ts.record(time_s, value);
                s.series.insert(name.to_string(), ts);
            }
        });
    }

    /// A series' points, oldest → newest.
    pub fn series(&self, name: &str) -> Option<Vec<(f64, f64)>> {
        self.with_store(|s| s.series.get(name).map(|ts| ts.to_vec()))
            .flatten()
    }

    // ---- traces ---------------------------------------------------

    /// Records a point trace event at `time_s`.
    pub fn event(&self, name: &str, scope: Scope, time_s: f64, value: f64) {
        self.push_trace(TraceEvent {
            name: name.to_string(),
            scope,
            start_s: time_s,
            end_s: time_s,
            value,
        });
    }

    /// Records a span from `start_s` to `end_s` carrying an arbitrary
    /// `value` payload (e.g. attempt count, bytes, quality score).
    pub fn span(&self, name: &str, scope: Scope, start_s: f64, end_s: f64, value: f64) {
        self.push_trace(TraceEvent {
            name: name.to_string(),
            scope,
            start_s,
            end_s,
            value,
        });
    }

    fn push_trace(&self, ev: TraceEvent) {
        self.with_store(|s| {
            if s.events.len() < MAX_EVENTS {
                s.events.push(ev);
            } else {
                s.dropped_events += 1;
            }
        });
    }

    /// All retained trace events, in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.with_store(|s| s.events.clone()).unwrap_or_default()
    }

    /// Events with the given name.
    pub fn events_named(&self, name: &str) -> Vec<TraceEvent> {
        self.with_store(|s| {
            s.events
                .iter()
                .filter(|e| e.name == name)
                .cloned()
                .collect()
        })
        .unwrap_or_default()
    }

    // ---- snapshots ------------------------------------------------

    /// Renders the deterministic JSON snapshot; see
    /// [`crate::snapshot`] for the schema. `meta` key/value pairs are
    /// embedded under `"meta"` (sorted by key).
    pub fn snapshot_json(&self, meta: &[(&str, &str)]) -> String {
        self.with_store(|s| crate::snapshot::render(s, meta))
            .unwrap_or_else(|| crate::snapshot::render(&Store::default(), meta))
    }

    /// Writes the snapshot to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from directory creation or the write.
    pub fn write_snapshot(&self, path: &str, meta: &[(&str, &str)]) -> std::io::Result<()> {
        let body = self.snapshot_json(meta);
        if let Some(parent) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_a_no_op() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        r.counter_add("c", 5);
        r.gauge_set("g", 1.0);
        r.observe("h", 2.0);
        r.series_record("s", 0.0, 1.0);
        r.event("e", Scope::none(), 0.0, 1.0);
        assert_eq!(r.counter("c"), 0);
        assert_eq!(r.gauge("g"), None);
        assert_eq!(r.histogram("h"), None);
        assert_eq!(r.series("s"), None);
        assert!(r.events().is_empty());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Registry::default().is_enabled());
    }

    #[test]
    fn clones_share_one_store() {
        let a = Registry::new();
        let b = a.clone();
        a.counter_inc("jobs");
        b.counter_add("jobs", 2);
        assert_eq!(a.counter("jobs"), 3);
        b.gauge_set("u", 0.5);
        assert_eq!(a.gauge("u"), Some(0.5));
    }

    #[test]
    fn metrics_round_trip() {
        let r = Registry::new();
        r.observe("lat", 10.0);
        r.observe("lat", 20.0);
        let h = r.histogram("lat").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 30.0);
        r.series_record("util", 60.0, 0.8);
        r.series_record("util", 120.0, 0.9);
        assert_eq!(r.series("util").unwrap().len(), 2);
    }

    #[test]
    fn events_filter_by_name() {
        let r = Registry::new();
        r.span("job", Scope::job(1), 0.0, 2.0, 1.0);
        r.event("quarantine", Scope::vcu(3), 5.0, 1.0);
        assert_eq!(r.events().len(), 2);
        let q = r.events_named("quarantine");
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].scope.vcu, Some(3));
        assert_eq!(q[0].end_s, q[0].start_s);
    }

    #[test]
    fn event_cap_counts_drops() {
        let r = Registry::new();
        for i in 0..(MAX_EVENTS + 10) {
            r.event("e", Scope::none(), i as f64, 1.0);
        }
        assert_eq!(r.events().len(), MAX_EVENTS);
        let snap = r.snapshot_json(&[]);
        assert!(
            snap.contains("\"dropped_events\": 10"),
            "snapshot records drops"
        );
    }
}
