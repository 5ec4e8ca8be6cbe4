//! Spans recorded in the benchmark's own code around each call into a
//! layer's public function. They are kept in memory and written out
//! when the run ends; a disabled tracer runs the closure and records
//! nothing, so the untraced run pays one branch per call site.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`, e.g. `codec.encode`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation the span belongs to (one chunk, one repetition): all
    /// spans of one operation share it.
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span and count recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next operation; spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. `f` gets the tracer back so it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.origin.elapsed().as_nanos() as u64;
        let r = f(self);
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        r
    }

    /// Adds `n` to the count `name` (a no-op when disabled).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// The count `name`, 0 if never touched.
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// The id of the current operation.
    pub fn current_op(&self) -> u64 {
        self.op
    }

    /// The spans of every operation.
    pub fn all(&self) -> View<'_> {
        View {
            tracer: self,
            op: None,
        }
    }

    /// The spans of operation `op` only.
    pub fn of(&self, op: u64) -> View<'_> {
        View {
            tracer: self,
            op: Some(op),
        }
    }

    /// Spans and counts as JSON.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                obj([
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("op", Json::from(s.op)),
                ])
            })
            .collect();
        let counts = obj(self.counts.iter().map(|(k, v)| (*k, Json::from(*v))));
        obj([("spans", Json::Arr(spans)), ("counts", counts)])
    }
}

/// Queries over a tracer's spans, all of them or one operation's.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    tracer: &'a Tracer,
    op: Option<u64>,
}

impl View<'_> {
    fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = (usize, &'s Span)> + 's {
        self.tracer
            .spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name && self.op.is_none_or(|op| s.op == op))
    }

    /// Total seconds inside spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|(_, s)| s.dur_ns()).sum::<u64>() as f64 / 1e9
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    /// Self time of the spans named `name`, seconds: their duration
    /// minus the part their direct children cover. Children of one
    /// parent never overlap (single-threaded recording), so that part
    /// is the children's summed duration.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.tracer.spans.len()];
        for s in &self.tracer.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.named(name)
            .map(|(i, s)| s.dur_ns().saturating_sub(child_ns[i]))
            .sum::<u64>() as f64
            / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tracer with hand-set times: spans are
    /// `(name, start, end, parent)`.
    fn fixed(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::on();
        t.spans = spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent)| Span {
                name,
                start_ns,
                end_ns,
                parent,
                op: 0,
            })
            .collect();
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // mot [0, 100): decode [0, 20), encode [30, 90) with a nested
        // entropy [40, 60) inside encode.
        let t = fixed(&[
            ("mot", 0, 100_000_000_000, None),
            ("decode", 0, 20_000_000_000, Some(0)),
            ("encode", 30_000_000_000, 90_000_000_000, Some(0)),
            ("entropy", 40_000_000_000, 60_000_000_000, Some(2)),
        ]);
        let v = t.all();
        assert_eq!(v.total_s("mot"), 100.0);
        assert_eq!(v.self_s("mot"), 20.0); // 100 − 20 − 60; entropy is encode's
        assert_eq!(v.self_s("encode"), 40.0); // 60 − 20
        assert_eq!(v.self_s("entropy"), 20.0);
        assert_eq!(v.self_s("absent"), 0.0);
    }

    #[test]
    fn same_named_spans_sum_and_split_by_operation() {
        let mut t = fixed(&[
            ("mot", 0, 10_000_000_000, None),
            ("encode", 1_000_000_000, 4_000_000_000, Some(0)),
            ("mot", 10_000_000_000, 30_000_000_000, None),
            ("encode", 12_000_000_000, 29_000_000_000, Some(2)),
        ]);
        (t.spans[2].op, t.spans[3].op) = (1, 1);
        assert_eq!(t.all().total_s("mot"), 30.0);
        assert_eq!(t.all().total_s("encode"), 20.0);
        assert_eq!(t.all().self_s("mot"), 10.0);
        assert_eq!(t.all().calls("mot"), 2);
        assert_eq!(t.of(0).total_s("mot"), 10.0);
        assert_eq!(t.of(1).self_s("mot"), 3.0);
        assert_eq!(t.of(1).calls("encode"), 1);
        assert_eq!(t.of(2).total_s("mot"), 0.0);
    }

    #[test]
    fn records_nesting_ops_and_counts() {
        let mut t = Tracer::on();
        t.next_op();
        let r = t.span("outer", |t| {
            t.count("calls", 2);
            t.span("inner", |t| {
                t.count("calls", 1);
                7
            })
        });
        t.next_op();
        t.span("outer", |_| ());
        assert_eq!(r, 7);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, None);
        assert_eq!((t.spans[0].op, t.spans[1].op, t.spans[2].op), (1, 1, 2));
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        assert_eq!(t.counted("calls"), 3);
        let json = t.to_json();
        assert_eq!(
            json.get("spans").and_then(Json::as_arr).map(<[_]>::len),
            Some(3)
        );
    }

    #[test]
    fn disabled_tracer_runs_the_closure_and_keeps_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |t| t.span("y", |_| 3)), 3);
        t.count("n", 5);
        assert!(t.spans.is_empty());
        assert_eq!(t.counted("n"), 0);
    }
}
