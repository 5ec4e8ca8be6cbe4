//! The viewer-facing serving simulation.
//!
//! Viewers arrive as a Poisson stream sized by Little's law, pick a
//! video from the popularity-weighted catalog, and play it back as a
//! sequence of fixed-duration segment requests:
//!
//! - **cache hit** → the segment is delivered after a small edge
//!   latency;
//! - **cache miss** → an on-demand transcode job is injected into the
//!   open-world [`ClusterSim`] with a deadline-class priority
//!   (TTFF-critical first segment → `Critical`, steady-state prefetch
//!   → `Normal`); concurrent misses for the same segment coalesce onto
//!   the one in-flight job;
//! - **admission control** → when outstanding transcode work exceeds
//!   the fleet's near-term capacity, new sessions are shed at the door
//!   — deliberately *before* the cluster's graceful-degradation ladder
//!   would engage (the admission threshold sits below the ladder's
//!   first backlog rung), so overload degrades the edge metric
//!   (sessions turned away) instead of the fleet's health machinery.
//!
//! The two event queues — the serve queue and the cluster's — advance
//! in lockstep by always processing the earlier next event, cluster
//! first on ties so a transcode resolving at time `t` is visible to
//! every serve event at `t`. Everything is deterministic in the seed;
//! the campaign layer fans independent cells out across threads
//! without breaking byte-identity.

use crate::cache::{key_video, seg_key, SegmentCache};
use std::collections::HashMap;
use vcu_chip::calib::VCUS_PER_HOST;
use vcu_chip::{DesignPoint, TranscodeJob};
use vcu_cluster::des::EventQueue;
use vcu_cluster::faultsim::slots_per_worker;
use vcu_cluster::sim::{
    ClusterConfig, ClusterReport, ClusterSim, JobResolution, JobSpec, Priority,
};
use vcu_cluster::tco::fleet_tco_usd;
use vcu_codec::Profile;
use vcu_media::Resolution;
use vcu_rng::{mix64, Rng};
use vcu_telemetry::{Registry, Scope};
use vcu_workloads::{Catalog, PopularityModel, ViewerSessions};

/// Seconds in the TCO model's 3-year amortization window.
const THREE_YEARS_S: f64 = 3.0 * 365.25 * 24.0 * 3600.0;

/// Egress price, $/GB (public-cloud CDN ballpark).
const EGRESS_USD_PER_GB: f64 = 0.02;

/// Encoded bits per output pixel (≈2.5 Mb/s at 720p30).
const BITS_PER_PIXEL: f64 = 0.09;

/// Edge delivery latency on a cache hit, seconds.
const HIT_LATENCY_S: f64 = 0.05;

/// Segment duration, seconds.
const SEGMENT_S: f64 = 4.0;

/// Fraction of the segment cache reserved for popularity-head segments.
const PROTECTED_FRAC: f64 = 0.2;

/// Output resolution of on-demand transcodes.
const OUTPUT_RESOLUTION: Resolution = Resolution::R720;

/// Output frame rate of on-demand transcodes.
const OUTPUT_FPS: f64 = 30.0;

/// Outstanding transcodes allowed per VCU *beyond* its concurrent slots
/// before admission control sheds arrivals. Must sit below the
/// degradation ladder's first backlog rung (4.0 queued per worker by
/// default) for shed-before-degrade to hold.
const MAX_QUEUED_PER_WORKER: f64 = 2.0;

/// Serving-simulation configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Target steady-state concurrent viewers (Little's law sizes the
    /// arrival rate).
    pub viewers: usize,
    /// Arrival window, seconds: sessions arrive in `[0, horizon_s)`
    /// and the sim drains every admitted session afterwards.
    pub horizon_s: f64,
    /// Catalog size in videos.
    pub catalog_videos: usize,
    /// Segment count per video, inclusive range.
    pub seg_min: u32,
    /// Upper bound of the per-video segment count.
    pub seg_max: u32,
    /// Segment-cache capacity in segments.
    pub cache_segments: usize,
    /// Transcode fleet size (VCUs).
    pub vcus: usize,
    /// Telemetry sampling period, seconds.
    pub sample_period_s: f64,
    /// Seed; catalog, arrivals, and cluster all derive from it.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            viewers: 10_000,
            horizon_s: 60.0,
            catalog_videos: 2_000,
            seg_min: 4,
            seg_max: 8,
            cache_segments: 4_096,
            vcus: 64,
            sample_period_s: 5.0,
            seed: 42,
        }
    }
}

impl ServeConfig {
    /// The uniform on-demand transcode job a cache miss injects.
    pub fn transcode_job(&self) -> TranscodeJob {
        TranscodeJob::mot(OUTPUT_RESOLUTION, Profile::Vp9Sim, OUTPUT_FPS, SEGMENT_S)
    }
}

/// End-of-run report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeReport {
    /// Sessions that arrived during the window.
    pub arrivals: u64,
    /// Sessions admitted (`arrivals - shed_sessions`).
    pub admitted: u64,
    /// Sessions shed by admission control.
    pub shed_sessions: u64,
    /// Admitted sessions that received every segment.
    pub completed_sessions: u64,
    /// Admitted sessions aborted by a permanently failed transcode.
    pub aborted_sessions: u64,
    /// Maximum concurrent in-playback sessions observed.
    pub peak_concurrent: u64,
    /// Time-to-first-frame percentiles over admitted sessions that got
    /// a first segment, seconds.
    pub ttff_p50_s: f64,
    /// TTFF p99, seconds.
    pub ttff_p99_s: f64,
    /// Mid-stream deliveries that arrived after their playback
    /// deadline.
    pub rebuffer_events: u64,
    /// Total stall time / total watch time.
    pub rebuffer_ratio: f64,
    /// Segment-cache hits.
    pub cache_hits: u64,
    /// Segment-cache misses.
    pub cache_misses: u64,
    /// Hits / lookups.
    pub hit_ratio: f64,
    /// On-demand transcode jobs injected.
    pub transcodes: u64,
    /// Transcode jobs that failed permanently.
    pub transcode_failures: u64,
    /// Segments delivered to viewers.
    pub segments_served: u64,
    /// Delivered bytes, GB.
    pub egress_gb: f64,
    /// Egress cost at `EGRESS_USD_PER_GB`.
    pub egress_cost_usd: f64,
    /// VCU time spent transcoding, amortized against the fleet's TCO.
    pub transcode_cost_usd: f64,
    /// The underlying cluster's report.
    pub cluster: ClusterReport,
}

/// [`EventQueue`] lane for [`Ev::Deliver`]: always the fixed edge
/// latency past the lockstep clock, which only rises.
const DELIVER_LANE: usize = 0;

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// One viewer arrives (chains the next arrival).
    Arrival,
    /// Segment `segment` reaches session `session`.
    Deliver { session: u32, segment: u32 },
    /// Session `session` finishes playing its last segment and leaves.
    Finish { session: u32 },
    /// Telemetry sampling tick.
    Sample,
}

#[derive(Debug, Clone, Copy)]
struct Session {
    video: u32,
    arrival_s: f64,
    /// Playback deadline of the next segment (valid once segment 0
    /// delivered).
    next_due_s: f64,
    delivered: u32,
    total: u32,
    stall_s: f64,
}

/// The serving simulator. Build with [`ServeSim::new`], optionally
/// attach telemetry, then [`ServeSim::run`].
pub struct ServeSim {
    cfg: ServeConfig,
    /// The transcode every cache miss injects
    /// ([`ServeConfig::transcode_job`]), built once.
    job: TranscodeJob,
    catalog: Catalog,
    arrivals_model: ViewerSessions,
    cache: SegmentCache,
    cluster: ClusterSim,
    queue: EventQueue<Ev>,
    rng: Rng,
    sessions: Vec<Session>,
    free_slots: Vec<u32>,
    /// Segment key → sessions waiting on its transcode, one entry per
    /// transcode injected and not yet resolved: later misses for the
    /// same segment coalesce here instead of injecting duplicate jobs.
    in_flight: HashMap<u64, Vec<u32>>,
    /// Cluster job ordinal → segment key, for the jobs in flight.
    job_seg: HashMap<usize, u64>,
    /// The resolutions of the last cluster step, being applied: a
    /// buffer kept across steps so draining allocates nothing.
    resolved: Vec<JobResolution>,
    /// Admission threshold in absolute outstanding transcodes.
    admit_limit: f64,
    more_arrivals: bool,
    /// The counted fields of the report, accumulated in place;
    /// [`ServeSim::finish`] fills in the derived ones.
    report: ServeReport,
    active: u64,
    ttff: Vec<f64>,
    stall_s_total: f64,
    watch_s_total: f64,
    telemetry: Registry,
}

impl ServeSim {
    /// Builds the simulator: catalog, cache, and an open-world cluster,
    /// all seeded from `cfg.seed`.
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(cfg.viewers > 0, "no viewers");
        assert!(cfg.horizon_s > 0.0, "empty horizon");
        let catalog = Catalog::generate(
            cfg.catalog_videos,
            &PopularityModel::default(),
            cfg.seg_min,
            cfg.seg_max,
            mix64(cfg.seed, 1),
        );
        let arrivals_model = ViewerSessions {
            target_concurrent: cfg.viewers as f64,
            mean_session_s: catalog.mean_segments() * SEGMENT_S,
        };
        let cluster = ClusterSim::new(
            ClusterConfig {
                vcus: cfg.vcus,
                sample_period_s: cfg.sample_period_s,
                degrade: vcu_cluster::DegradePolicy {
                    enabled: true,
                    ..vcu_cluster::DegradePolicy::default()
                },
                seed: mix64(cfg.seed, 2),
                ..ClusterConfig::default()
            },
            Vec::new(),
            Vec::new(),
        )
        .open_world();
        let cache = SegmentCache::new(cfg.cache_segments, PROTECTED_FRAC);
        let rng = Rng::seed_from_u64(mix64(cfg.seed, 3));
        let job = cfg.transcode_job();
        let slots = slots_per_worker(&job) as f64;
        let admit_limit = cfg.vcus as f64 * (slots + MAX_QUEUED_PER_WORKER);
        ServeSim {
            job,
            cfg,
            catalog,
            arrivals_model,
            cache,
            cluster,
            queue: EventQueue::new(),
            rng,
            sessions: Vec::new(),
            free_slots: Vec::new(),
            in_flight: HashMap::new(),
            job_seg: HashMap::new(),
            resolved: Vec::new(),
            admit_limit,
            more_arrivals: true,
            report: ServeReport::default(),
            active: 0,
            ttff: Vec::new(),
            stall_s_total: 0.0,
            watch_s_total: 0.0,
            telemetry: Registry::disabled(),
        }
    }

    /// Attaches a telemetry registry (shared with the inner cluster):
    /// TTFF and rebuffer histograms, concurrency / hit-ratio / backlog
    /// series, shed counters and events — all on the DES sim clock, so
    /// same-seed snapshots are byte-identical.
    pub fn with_telemetry(mut self, telemetry: Registry) -> Self {
        self.cluster.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// Runs to completion: arrivals stop at the horizon, every
    /// admitted session drains (all segments delivered or the session
    /// aborted on a failed transcode), and the report closes over both
    /// layers.
    pub fn run(mut self) -> ServeReport {
        let t0 = self.arrivals_model.next_interarrival_s(&mut self.rng);
        if t0 < self.cfg.horizon_s {
            self.queue.schedule(t0, Ev::Arrival);
        } else {
            self.more_arrivals = false;
        }
        if self.telemetry.is_enabled() {
            self.queue.schedule(self.cfg.sample_period_s, Ev::Sample);
        }
        loop {
            let ts = self.queue.next_time();
            let tc = self.cluster.next_event_time();
            // Process the earlier queue; the cluster wins ties so a
            // transcode resolving at `t` is cached before any serve
            // event at `t` looks for it.
            let step_cluster = match (ts, tc) {
                (Some(s), Some(c)) => c <= s,
                // Only the cluster's recurring samples remain; step it
                // only while it still owes us resolutions.
                (None, Some(_)) => !self.in_flight.is_empty(),
                (Some(_), None) => false,
                (None, None) => false,
            };
            if step_cluster {
                self.cluster.step();
                let mut resolved = std::mem::take(&mut self.resolved);
                resolved.extend(self.cluster.drain_resolutions());
                for r in resolved.drain(..) {
                    self.on_resolution(r);
                }
                self.resolved = resolved;
            } else if let Some(ev) = self.queue.pop() {
                match ev.event {
                    Ev::Arrival => self.handle_arrival(ev.time),
                    Ev::Deliver { session, segment } => {
                        self.handle_deliver(ev.time, session, segment)
                    }
                    Ev::Finish { session } => self.handle_finish(session),
                    Ev::Sample => self.handle_sample(ev.time),
                }
            } else {
                break;
            }
        }
        self.finish()
    }

    fn handle_arrival(&mut self, now: f64) {
        self.report.arrivals += 1;
        // Chain the next arrival first so the arrival process never
        // depends on admission state.
        let gap = self.arrivals_model.next_interarrival_s(&mut self.rng);
        if now + gap < self.cfg.horizon_s {
            self.queue.schedule(now + gap, Ev::Arrival);
        } else {
            self.more_arrivals = false;
        }
        self.telemetry.counter_inc("serve.sessions.arrived");
        // Admission control: shed before the fleet's own ladder would
        // have to react.
        let outstanding = self.in_flight.len() as f64;
        if outstanding > self.admit_limit {
            self.report.shed_sessions += 1;
            self.telemetry.counter_inc("serve.shed");
            self.telemetry
                .event("serve.shed", Scope::none(), now, outstanding);
            return;
        }
        self.report.admitted += 1;
        self.active += 1;
        self.report.peak_concurrent = self.report.peak_concurrent.max(self.active);
        self.telemetry.counter_inc("serve.sessions.admitted");
        let video = self.catalog.sample(&mut self.rng);
        let session = Session {
            video,
            arrival_s: now,
            next_due_s: f64::INFINITY,
            delivered: 0,
            total: self.catalog.segments(video),
            stall_s: 0.0,
        };
        let sid = match self.free_slots.pop() {
            Some(i) => {
                self.sessions[i as usize] = session;
                i
            }
            None => {
                self.sessions.push(session);
                (self.sessions.len() - 1) as u32
            }
        };
        self.request_segment(now, sid, 0);
    }

    /// Issues the request for `segment` of session `sid`: cache hit →
    /// delivery after the edge latency; miss → coalesce onto (or
    /// inject) the transcode.
    fn request_segment(&mut self, now: f64, sid: u32, segment: u32) {
        let video = self.sessions[sid as usize].video;
        let key = seg_key(video, segment);
        if self.cache.lookup(key) {
            self.queue.schedule_on(
                DELIVER_LANE,
                now + HIT_LATENCY_S,
                Ev::Deliver {
                    session: sid,
                    segment,
                },
            );
            return;
        }
        if let Some(waiters) = self.in_flight.get_mut(&key) {
            waiters.push(sid);
            return;
        }
        // Deadline classes: the first segment gates TTFF (Critical);
        // the rest are prefetches running one segment ahead of
        // playback (Normal).
        let priority = if segment == 0 {
            Priority::Critical
        } else {
            Priority::Normal
        };
        let job = self.cluster.inject_job(JobSpec {
            arrival_s: now,
            job: self.job.clone(),
            priority,
            video_id: video as u64,
        });
        self.in_flight.insert(key, vec![sid]);
        self.job_seg.insert(job, key);
        self.report.transcodes += 1;
        self.telemetry.counter_inc("serve.transcodes");
    }

    fn handle_deliver(&mut self, now: f64, sid: u32, segment: u32) {
        self.report.segments_served += 1;
        let s = &mut self.sessions[sid as usize];
        if segment == 0 {
            let ttff = now - s.arrival_s;
            s.next_due_s = now + SEGMENT_S;
            self.ttff.push(ttff);
            self.telemetry.observe("serve.ttff_s", ttff);
        } else {
            // The segment was due when its predecessor finished
            // playing; a late delivery is a rebuffer stall.
            if now > s.next_due_s {
                let stall = now - s.next_due_s;
                s.stall_s += stall;
                self.report.rebuffer_events += 1;
                self.telemetry.observe("serve.rebuffer_s", stall);
            }
            s.next_due_s = now.max(s.next_due_s) + SEGMENT_S;
        }
        s.delivered = segment + 1;
        if s.delivered == s.total {
            // All segments buffered; the viewer stays until the last
            // one finishes *playing* (that's what "concurrent
            // viewers" measures), which is exactly `next_due_s`.
            let end = s.next_due_s;
            self.queue.schedule(end, Ev::Finish { session: sid });
        } else {
            self.request_segment(now, sid, segment + 1);
        }
    }

    fn handle_finish(&mut self, sid: u32) {
        let s = self.sessions[sid as usize];
        self.watch_s_total += s.total as f64 * SEGMENT_S;
        self.stall_s_total += s.stall_s;
        self.report.completed_sessions += 1;
        self.active -= 1;
        self.free_slots.push(sid);
        self.telemetry.counter_inc("serve.sessions.completed");
    }

    /// Applies one cluster job resolution: cache + deliver to all
    /// coalesced waiters on success; abort the waiting sessions on
    /// permanent failure.
    fn on_resolution(&mut self, r: JobResolution) {
        let key = self
            .job_seg
            .remove(&r.job)
            .expect("every cluster job is injected by request_segment");
        let waiters = self
            .in_flight
            .remove(&key)
            .expect("resolution without in-flight entry");
        if r.completed {
            self.cache.insert(key, self.catalog.is_head(key_video(key)));
            for sid in waiters {
                self.queue.schedule_on(
                    DELIVER_LANE,
                    r.time_s + HIT_LATENCY_S,
                    Ev::Deliver {
                        session: sid,
                        segment: key as u32,
                    },
                );
            }
        } else {
            self.report.transcode_failures += 1;
            self.telemetry.counter_inc("serve.transcode.failed");
            for sid in waiters {
                self.abort_session(r.time_s, sid);
            }
        }
    }

    /// Ends a session whose segment can never be produced. The partial
    /// watch still counts toward watch time (its stalls were real).
    fn abort_session(&mut self, now: f64, sid: u32) {
        let s = self.sessions[sid as usize];
        self.watch_s_total += s.delivered as f64 * SEGMENT_S;
        self.stall_s_total += s.stall_s;
        self.report.aborted_sessions += 1;
        self.active -= 1;
        self.free_slots.push(sid);
        self.telemetry.counter_inc("serve.sessions.aborted");
        self.telemetry
            .event("serve.session.aborted", Scope::none(), now, 1.0);
    }

    fn handle_sample(&mut self, now: f64) {
        self.telemetry
            .series_record("serve.concurrent", now, self.active as f64);
        self.telemetry
            .series_record("serve.cache.hit_ratio", now, self.cache.hit_ratio());
        self.telemetry.series_record(
            "serve.backlog_per_worker",
            now,
            self.in_flight.len() as f64 / self.cfg.vcus.max(1) as f64,
        );
        if self.more_arrivals || self.active > 0 {
            self.queue.schedule_in(self.cfg.sample_period_s, Ev::Sample);
        }
    }

    fn finish(mut self) -> ServeReport {
        let r = &self.report;
        assert_eq!(
            r.arrivals,
            r.admitted + r.shed_sessions,
            "arrival accounting broke"
        );
        assert_eq!(
            r.admitted,
            r.completed_sessions + r.aborted_sessions,
            "session accounting broke: {} admitted vs {} completed + {} aborted",
            r.admitted,
            r.completed_sessions,
            r.aborted_sessions
        );
        assert_eq!(self.active, 0, "sessions still live at drain");
        assert!(
            self.in_flight.is_empty(),
            "transcodes still in flight at drain"
        );
        self.ttff.sort_by(f64::total_cmp);
        let pct = |v: &[f64], p: f64| -> f64 {
            if v.is_empty() {
                return 0.0;
            }
            let idx = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len());
            v[idx - 1]
        };
        let ttff_p50_s = pct(&self.ttff, 0.50);
        let ttff_p99_s = pct(&self.ttff, 0.99);
        let rebuffer_ratio = if self.watch_s_total > 0.0 {
            self.stall_s_total / self.watch_s_total
        } else {
            0.0
        };
        // Cost model. Egress: every delivered segment ships its
        // encoded bytes. Transcode: each job holds 1/slots of a VCU
        // for the segment's real-time duration; a VCU-second costs its
        // share of the host's 3-year TCO.
        let seg_bytes = self.job.output_pixels() * BITS_PER_PIXEL / 8.0;
        let egress_gb = self.report.segments_served as f64 * seg_bytes / 1e9;
        let egress_cost_usd = egress_gb * EGRESS_USD_PER_GB;
        let usd_per_vcu_s = fleet_tco_usd(&DesignPoint::shipped(), VCUS_PER_HOST)
            / VCUS_PER_HOST as f64
            / THREE_YEARS_S;
        let transcode_cost_usd = self.report.transcodes as f64 * SEGMENT_S
            / slots_per_worker(&self.job) as f64
            * usd_per_vcu_s;
        self.telemetry
            .counter_add("serve.cache.hits", self.cache.hits());
        self.telemetry
            .counter_add("serve.cache.misses", self.cache.misses());
        self.telemetry
            .counter_add("serve.segments.served", self.report.segments_served);
        self.telemetry
            .counter_add("serve.rebuffer.events", self.report.rebuffer_events);
        self.telemetry
            .gauge_set("serve.peak_concurrent", self.report.peak_concurrent as f64);
        self.telemetry.gauge_set("serve.egress_gb", egress_gb);
        ServeReport {
            ttff_p50_s,
            ttff_p99_s,
            rebuffer_ratio,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            hit_ratio: self.cache.hit_ratio(),
            egress_gb,
            egress_cost_usd,
            transcode_cost_usd,
            cluster: self.cluster.finish(),
            ..self.report
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> ServeConfig {
        ServeConfig {
            viewers: 400,
            horizon_s: 40.0,
            catalog_videos: 300,
            cache_segments: 512,
            vcus: 16,
            seed,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn healthy_run_accounts_exactly() {
        let r = ServeSim::new(small(5)).run();
        assert!(r.arrivals > 0);
        assert_eq!(r.arrivals, r.admitted + r.shed_sessions);
        assert_eq!(r.admitted, r.completed_sessions + r.aborted_sessions);
        assert_eq!(r.transcode_failures, 0, "healthy fleet fails nothing");
        assert_eq!(r.aborted_sessions, 0);
        assert!(r.hit_ratio > 0.0, "repeat traffic must hit the cache");
        assert!(r.ttff_p50_s > 0.0);
        assert!(r.ttff_p99_s >= r.ttff_p50_s);
        assert!(r.peak_concurrent > 0);
        assert!(r.segments_served > 0);
        assert!(r.egress_gb > 0.0);
        assert!(r.transcode_cost_usd > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = ServeSim::new(small(9)).run();
        let b = ServeSim::new(small(9)).run();
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.segments_served, b.segments_served);
        assert_eq!(a.ttff_p99_s, b.ttff_p99_s);
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.rebuffer_events, b.rebuffer_events);
    }

    #[test]
    fn seeds_diverge() {
        let a = ServeSim::new(small(1)).run();
        let b = ServeSim::new(small(2)).run();
        assert!(
            a.arrivals != b.arrivals || a.segments_served != b.segments_served,
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn bigger_cache_never_hits_less() {
        // End-to-end echo of the cache's stack property: same seed,
        // growing cache, monotone hit count. (The request *trace*
        // itself is identical across cache sizes until transcode
        // queueing shifts delivery times; hits compare on totals.)
        let run = |cache: usize| {
            ServeSim::new(ServeConfig {
                cache_segments: cache,
                ..small(33)
            })
            .run()
        };
        let small_c = run(128);
        let big_c = run(1024);
        assert!(
            big_c.hit_ratio >= small_c.hit_ratio,
            "hit ratio fell with a bigger cache: {} vs {}",
            big_c.hit_ratio,
            small_c.hit_ratio
        );
    }

    #[test]
    fn overload_sheds_before_ladder_engages() {
        // An arrival rate far beyond the fleet's transcode capacity
        // with a cold tiny cache: admission must shed, and because its
        // threshold sits below the ladder's first rung, the cluster
        // must never leave rung 0.
        let reg = Registry::new();
        let overload = ServeConfig {
            viewers: 4_000,
            horizon_s: 30.0,
            catalog_videos: 4_000, // cold: nearly every request is a new segment
            cache_segments: 64,
            vcus: 4,
            sample_period_s: 2.0,
            seed: 17,
            ..ServeConfig::default()
        };
        let r = ServeSim::new(overload).with_telemetry(reg.clone()).run();
        assert!(r.shed_sessions > 0, "overload must shed");
        assert!(reg.counter("serve.shed") == r.shed_sessions);
        // The first serve.shed trace event precedes the first nonzero
        // point of the cluster's degrade-level series.
        let shed_events = reg.events_named("serve.shed");
        assert!(!shed_events.is_empty());
        let first_shed_ev = shed_events
            .iter()
            .map(|e| e.start_s)
            .fold(f64::INFINITY, f64::min);
        if let Some(series) = reg.series("cluster.degrade.level") {
            if let Some(&(t, _)) = series.iter().find(|&&(_, v)| v > 0.0) {
                assert!(
                    first_shed_ev < t,
                    "serve.shed at {first_shed_ev} must precede cluster degrade at {t}"
                );
            }
        }
    }

    #[test]
    fn telemetry_snapshot_is_deterministic() {
        let snap = |seed: u64| {
            let reg = Registry::new();
            ServeSim::new(small(seed)).with_telemetry(reg.clone()).run();
            reg.snapshot_json(&[("run", "serve-test")])
        };
        assert_eq!(snap(4), snap(4), "same-seed snapshots must be identical");
        assert_ne!(snap(4), snap(5));
    }
}
