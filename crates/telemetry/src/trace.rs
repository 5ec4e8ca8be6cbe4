//! Structured trace events.
//!
//! A [`TraceEvent`] is either a point event (`start_s == end_s`) or a
//! span; both carry a [`Scope`] keying them to the job / video / VCU
//! they describe, which is what lets blast-radius and per-core health
//! questions ("which chunks did VCU 3 touch?") be answered from a
//! snapshot instead of ad-hoc struct fields.

/// What a trace event is about: any combination of job, video and VCU
/// identifiers. Unset ids render as `null` in snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scope {
    /// Job (chunk) identifier.
    pub job: Option<u64>,
    /// Source video identifier.
    pub video: Option<u64>,
    /// VCU / worker identifier.
    pub vcu: Option<u32>,
}

impl Scope {
    /// An empty scope (system-wide event).
    pub fn none() -> Self {
        Scope::default()
    }

    /// Scope keyed by a job id.
    pub fn job(id: u64) -> Self {
        Scope {
            job: Some(id),
            ..Scope::default()
        }
    }

    /// Scope keyed by a VCU id.
    pub fn vcu(id: u32) -> Self {
        Scope {
            vcu: Some(id),
            ..Scope::default()
        }
    }

    /// Adds a video id.
    pub fn with_video(mut self, id: u64) -> Self {
        self.video = Some(id);
        self
    }

    /// Adds a VCU id.
    pub fn with_vcu(mut self, id: u32) -> Self {
        self.vcu = Some(id);
        self
    }
}

/// One structured trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name, e.g. `"cluster.job"` or `"cluster.quarantine"`.
    pub name: String,
    /// What the event is about.
    pub scope: Scope,
    /// Span start (simulation seconds). Point events: `start_s == end_s`.
    pub start_s: f64,
    /// Span end (simulation seconds).
    pub end_s: f64,
    /// Free payload (attempt count, magnitude, 1.0 for markers…).
    pub value: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_builders() {
        let s = Scope::job(7).with_video(9).with_vcu(2);
        assert_eq!(s.job, Some(7));
        assert_eq!(s.video, Some(9));
        assert_eq!(s.vcu, Some(2));
        assert_eq!(Scope::none(), Scope::default());
        assert_eq!(Scope::vcu(3).vcu, Some(3));
    }

    #[test]
    fn point_vs_span() {
        let p = TraceEvent {
            name: "mark".into(),
            scope: Scope::none(),
            start_s: 2.0,
            end_s: 2.0,
            value: 1.0,
        };
        assert_eq!(p.end_s, p.start_s);
        let s = TraceEvent {
            name: "job".into(),
            start_s: 1.0,
            end_s: 4.5,
            ..p.clone()
        };
        assert!((s.end_s - s.start_s - 3.5).abs() < 1e-12);
    }
}
