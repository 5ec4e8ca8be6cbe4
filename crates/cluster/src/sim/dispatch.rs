//! Event handlers of [`ClusterSim`]: everything that schedules an
//! event, draws from the RNG, places a job, or emits telemetry.
//!
//! The components ([`super::fleet`], [`super::degrade`],
//! [`super::tally`], [`super::retry`]) change their own state and
//! report what happened; the functions here turn that into
//! `scheduler.set_accepting`, `queue.schedule` and telemetry records.
//! Byte-identity of a run therefore depends on the order of statements
//! in this file alone.

use super::degrade::AttemptMode;
use super::fleet::{FaultKind, WorkerEvent};
use super::tally::{Incident, Sample};
use super::{Attempt, ClusterSim, Event, JobResolution, Priority, COMPLETION_LANE, WATCHDOG_LANE};
use std::collections::VecDeque;
use vcu_chip::faults::HealthState;
use vcu_chip::ResourceDemand;
use vcu_telemetry::Scope;

/// How far a crash-looping firmware gets into an attempt before
/// aborting, seconds (capped at the attempt's own service time).
const CRASH_ABORT_S: f64 = 2.0;

/// What the scheduling passes since capacity last grew have learned
/// cannot be placed, so a saturated cluster does not re-ask the
/// scheduler the same unanswerable question on every event.
///
/// A failed placement is monotone. Until capacity is freed
/// ([`Scheduler::capacity_epoch`](crate::scheduler::Scheduler::capacity_epoch)
/// moves) or the ladder changes rung (a different candidate set), a
/// job that missed still misses — and so does any job whose hardware
/// demand is at least as large in every dimension, asked over the same
/// workers: each [`AttemptMode`]'s demand is monotone in the hardware
/// demand, and `decode_hot` reorders the candidates without changing
/// the set. Release builds trust this; debug builds re-check every
/// skipped job against the real index (`ClusterSim::still_misses`).
#[derive(Debug, Default)]
pub(super) struct Blocked {
    /// `(capacity epoch, ladder level)` the facts below hold under.
    key: (u64, u8),
    /// Hardware demands that missed over the whole fleet, none at
    /// least as large as another. Bounded windows (consistent-hash
    /// placement) look at different workers and are never generalised.
    demands: Vec<ResourceDemand>,
    /// Per priority class, how many jobs at the head of the pending
    /// queue are known to miss, whatever their window. Entries only
    /// leave a pending queue from behind this prefix, or all at once
    /// through `ClusterSim::drain_pending`, which resets it.
    prefix: [usize; 3],
}

impl Blocked {
    /// Forgets everything unless `key` is the one the facts were
    /// learned under.
    fn sync(&mut self, key: (u64, u8)) {
        if self.key != key {
            self.key = key;
            self.demands.clear();
            self.prefix = [0; 3];
        }
    }

    /// Whether a job with hardware demand `hw`, asked over the whole
    /// fleet, is known to miss.
    fn covers(&self, hw: ResourceDemand) -> bool {
        self.demands.iter().any(|blocked| blocked.fits_in(hw))
    }

    /// Records that `hw` (not yet covered) missed over the whole fleet.
    fn record(&mut self, hw: ResourceDemand) {
        self.demands.retain(|&larger| !hw.fits_in(larger));
        self.demands.push(hw);
    }
}

impl ClusterSim {
    pub(super) fn handle_event(&mut self, now: f64, event: Event) {
        match event {
            Event::Arrival(j) | Event::Retry(j) => {
                self.reviving_events -= 1;
                self.enqueue_pending(now, j);
                self.try_schedule(now);
            }
            Event::Completion(a, corrupted) => {
                // Stale if a watchdog/abort already resolved the
                // attempt. If the firmware wedged mid-flight this
                // completion never actually reported: the still-pending
                // watchdog reclaims the attempt.
                if !self.is_live(a) || self.fleet.vcu(a.worker).is_hung() {
                    return;
                }
                self.end_attempt(now, a);
                self.handle_completion(now, a.job, a.worker, corrupted);
                self.try_schedule(now);
            }
            Event::Watchdog(a) => self.attempt_lost(now, a, Incident::WatchdogFired),
            Event::CrashAbort(a) => self.attempt_lost(now, a, Incident::CrashAbort),
            Event::Fault(w, kind) => {
                self.reviving_events -= 1;
                self.apply_fault(now, w, kind);
            }
            Event::EccTick(w, correctable) => match self.fleet.ecc_tick(w, correctable) {
                Some(ev) => self.worker_event(now, w, ev),
                None if self.recurring_live() => {
                    self.queue.schedule_in(1.0, Event::EccTick(w, correctable));
                }
                None => {}
            },
            Event::GoldenScreen => {
                for (w, ev) in self.fleet.screen_pass() {
                    self.worker_event(now, w, ev);
                }
                if self.recurring_live() {
                    self.queue
                        .schedule_in(self.cfg.health.golden_period_s, Event::GoldenScreen);
                }
            }
            Event::Sample => self.handle_sample(now),
        }
    }

    /// Whether `a` still holds its resources (no other event ended it).
    fn is_live(&self, a: Attempt) -> bool {
        self.jobs[a.job].live_attempt == Some(a.number)
    }

    /// Counts `incident` in the report and, under the same name, in
    /// telemetry.
    fn count(&mut self, incident: Incident) -> &'static str {
        let name = self.tally.count(incident);
        self.telemetry.counter_inc(name);
        name
    }

    /// A live attempt ended without completing: its watchdog deadline
    /// fired (stale if the attempt completed in time) or crash-looping
    /// firmware aborted it. Reclaim the resources, strike the worker,
    /// retry the job.
    fn attempt_lost(&mut self, now: f64, a: Attempt, how: Incident) {
        if !self.is_live(a) {
            return;
        }
        self.end_attempt(now, a);
        if matches!(how, Incident::CrashAbort) {
            // The firmware resets itself — that is the loop.
            self.fleet.crash_reset(a.worker);
        }
        let name = self.count(how);
        let scope = self.job_scope(a.job, Some(a.worker));
        self.telemetry.event(name, scope, now, a.number as f64);
        let idle = self.scheduler.worker(a.worker).jobs == 0;
        for ev in self.fleet.strike(a.worker, idle).into_iter().flatten() {
            self.worker_event(now, a.worker, ev);
        }
        self.retry_or_fail(now, a.job, a.worker);
        self.try_schedule(now);
    }

    /// Acts on something the fleet reports about worker `w`: the
    /// scheduler stops or resumes placing on it, and the transition is
    /// recorded.
    fn worker_event(&mut self, now: f64, w: usize, ev: WorkerEvent) {
        let (name, accepting) = match ev {
            WorkerEvent::Draining => ("cluster.worker.draining", false),
            WorkerEvent::Reactivated => ("cluster.worker.reactivated", true),
            WorkerEvent::Quarantined => ("cluster.quarantine", false),
            WorkerEvent::EccDisabled => ("cluster.ecc.disabled", false),
            WorkerEvent::ResetRecovered => {
                return self.telemetry.counter_inc("cluster.screen.reset_recovered");
            }
        };
        self.scheduler.set_accepting(w, accepting);
        self.telemetry.counter_inc(name);
        self.telemetry.event(name, Scope::vcu(w as u32), now, 1.0);
        if accepting {
            // A returning worker may unblock queued work right now.
            self.try_schedule(now);
        }
    }

    /// Applies an injected fault to worker `w` at time `now`.
    fn apply_fault(&mut self, now: f64, w: usize, kind: FaultKind) {
        let fx = self.fleet.apply_fault(w, kind);
        self.telemetry
            .event(fx.event, Scope::vcu(w as u32), now, fx.value);
        if let Some(accepting) = fx.accepting {
            self.scheduler.set_accepting(w, accepting);
        }
        if let Some(correctable) = fx.ecc_per_tick {
            self.queue
                .schedule(now + 1.0, Event::EccTick(w, correctable));
        }
        if kind == FaultKind::Repair {
            self.count(Incident::Repair);
            // A repaired worker may unblock queued work right now.
            self.try_schedule(now);
        }
    }

    /// One metrics sample: advance the degradation ladder, record, and
    /// run the stranded-jobs guard.
    fn handle_sample(&mut self, now: f64) {
        let dt = self.cfg.sample_period_s;
        let usable_workers = self.fleet.usable_count();
        let backlog = self.backlog_jobs() as f64 / usable_workers.max(1) as f64;
        let degrade_level = self.ladder.observe(backlog);
        if degrade_level == 3 {
            // The top rung sheds every queued Batch job.
            for j in self.drain_pending(Priority::Batch.index()) {
                self.shed_job(now, j);
            }
        }
        let queued_per_pool = [0, 1, 2].map(|class| self.pending[class].len());
        let s = Sample {
            time_s: now,
            encode_util: self.scheduler.encode_utilization(),
            decode_util: self.scheduler.decode_utilization(),
            mpix_s_per_vcu: self.tally.take_window_mpix() / dt / self.cfg.vcus as f64,
            queued: queued_per_pool.iter().sum(),
            queued_per_pool,
            degrade_level,
            usable_workers,
        };
        self.tally.sample(s);
        self.record_sample(&s);
        // Stranded-jobs guard: with jobs queued, nothing in flight, and
        // no event left that could hand the cluster work (no arrival,
        // no backoff retry, no fault — a pending Repair counts as
        // hope), no completion can ever release capacity. One last
        // unbounded scheduling pass (the regular path gives up after a
        // bounded number of head-of-line misses), then whatever is
        // still queued can never run: resolve it as failed.
        if self.backlog_jobs() > 0 && self.in_flight() == 0 && self.reviving_events == 0 {
            self.try_schedule_capped(now, usize::MAX);
            if self.in_flight() == 0 {
                self.strand_pending(now);
            }
        }
        if self.recurring_live() {
            self.queue.schedule_in(dt, Event::Sample);
        }
    }

    /// Records one metrics sample as telemetry time series (sim-clock
    /// timestamps). Feeds the Fig. 9-style utilization dashboards.
    fn record_sample(&self, s: &Sample) {
        let series = |name, v| self.telemetry.series_record(name, s.time_s, v);
        series("cluster.util.encode", s.encode_util);
        series("cluster.util.decode", s.decode_util);
        series("cluster.throughput.mpix_s_per_vcu", s.mpix_s_per_vcu);
        series("cluster.queue.depth", s.queued as f64);
        series(
            "cluster.blast_radius.mean_vcus_per_video",
            self.tally.mean_blast_radius(),
        );
        series("cluster.degrade.level", s.degrade_level as f64);
        series("cluster.workers.usable", s.usable_workers as f64);
        for (class, [running, queued]) in POOL_SERIES.into_iter().enumerate() {
            series(running, self.running_per_pool[class] as f64);
            series(queued, s.queued_per_pool[class] as f64);
        }
    }

    /// Job attempts currently holding worker resources.
    fn in_flight(&self) -> u64 {
        self.running_per_pool.iter().sum()
    }

    fn enqueue_pending(&mut self, now: f64, j: usize) {
        let priority = self.jobs[j].priority;
        // Ladder level 3: Batch work is shed at the door instead of
        // queueing into a cluster that cannot keep up.
        if self.ladder.level() == 3 && priority == Priority::Batch {
            self.shed_job(now, j);
        } else {
            self.pending[priority.index()].push_back(j);
        }
    }

    /// Sheds one Batch job (ladder level 3): resolved as failed, with
    /// a dedicated tally so shed load is distinguishable from faults.
    fn shed_job(&mut self, now: f64, j: usize) {
        self.resolve_job(now, j, None, true, false);
        self.count(Incident::Shed);
    }

    fn try_schedule(&mut self, now: f64) {
        // Bounded head-of-line scan: once this many queued jobs fail to
        // place we stop — the cluster is saturated and later jobs are
        // no more likely to fit (keeps saturated runs near O(n)).
        self.try_schedule_capped(now, 48);
    }

    fn try_schedule_capped(&mut self, now: f64, max_misses: usize) {
        if self.backlog_jobs() == 0 {
            return;
        }
        // Whether hardware decoders run hot. O(1) — the scheduler
        // maintains cluster-wide used millicores incrementally — but a
        // float divide, and only a placement moves it: worked out when
        // a job is first asked about and again after each placement.
        let mut decode_hot: Option<bool> = None;
        self.blocked.sync(self.blocked_key());
        let mut misses = 0;
        'classes: for class in 0..self.pending.len() {
            // Remembered misses count toward the cap exactly as if they
            // had been asked again, so the jobs tried below — and their
            // order — are the ones a pass without the memo would try.
            let known = self.blocked.prefix[class].min(max_misses - misses);
            debug_assert!(self.pending[class]
                .iter()
                .take(known)
                .all(|&j| self.still_misses(j)));
            misses += known;
            let mut i = known;
            while i < self.pending[class].len() {
                if misses >= max_misses {
                    break 'classes;
                }
                let j = self.pending[class][i];
                let hw_demand = self.jobs[j].shape.demand;
                let (start, window) = self.placement_window(j);
                let full_window = window >= self.cfg.vcus;
                let placed = if full_window && self.blocked.covers(hw_demand) {
                    debug_assert!(self.still_misses(j));
                    None
                } else {
                    let sw_decode = self.cfg.opportunistic_sw_decode;
                    let hot = *decode_hot
                        .get_or_insert_with(|| self.scheduler.decode_utilization() > 0.9);
                    let candidates = self.ladder.candidates(hw_demand, sw_decode, hot);
                    let placed = candidates.into_iter().flatten().find_map(|(mode, demand)| {
                        let w = self.scheduler.place_from(demand, start, window)?;
                        Some((w, mode, demand))
                    });
                    if placed.is_none() && full_window {
                        self.blocked.record(hw_demand);
                    }
                    placed
                };
                match placed {
                    Some((w, mode, demand)) if self.fleet.usable(w) => {
                        // `i` is bounded by the miss cap, so this
                        // removal shifts at most `max_misses` entries.
                        self.pending[class].remove(i);
                        self.start_job(now, j, w, demand, mode);
                        decode_hot = None;
                    }
                    Some((w, _, demand)) => {
                        // Worker exists but its VCU is quarantined or
                        // disabled; release and stop it from accepting
                        // further work. Retry the same job in the next
                        // loop iteration. The release moved the
                        // capacity epoch: forget what was learned.
                        self.scheduler.release(w, demand);
                        self.scheduler.set_accepting(w, false);
                        self.blocked.sync(self.blocked_key());
                    }
                    None => {
                        // Job stays queued; try the next one.
                        if i == self.blocked.prefix[class] {
                            self.blocked.prefix[class] += 1;
                        }
                        i += 1;
                        misses += 1;
                    }
                }
            }
        }
    }

    /// What [`Blocked`]'s facts are valid under.
    fn blocked_key(&self) -> (u64, u8) {
        (self.scheduler.capacity_epoch(), self.ladder.level())
    }

    /// Debug oracle for [`Blocked`]: asks the real availability index,
    /// read-only, whether queued job `j` still has no candidate that
    /// places.
    fn still_misses(&self, j: usize) -> bool {
        let hw_demand = self.jobs[j].shape.demand;
        let (start, window) = self.placement_window(j);
        // `decode_hot` orders the candidates; it never changes the set.
        let sw_decode = self.cfg.opportunistic_sw_decode;
        let candidates = self.ladder.candidates(hw_demand, sw_decode, false);
        candidates
            .into_iter()
            .flatten()
            .all(|(_, demand)| self.scheduler.probe_from(demand, start, window).is_none())
    }

    /// Takes every queued job of `class` out of its pending queue.
    fn drain_pending(&mut self, class: usize) -> VecDeque<usize> {
        self.blocked.prefix[class] = 0;
        std::mem::take(&mut self.pending[class])
    }

    /// Where the scheduler may look for job `j`: `(first worker,
    /// window length)`. With consistent-hash placement (§4.4 future
    /// work) chunks of a video only consider a bounded worker subset
    /// keyed by the video id; otherwise the scan covers the fleet from
    /// worker 0.
    fn placement_window(&self, j: usize) -> (usize, usize) {
        let n = self.cfg.vcus;
        if self.cfg.consistent_hash_window > 0 {
            let h = self.jobs[j]
                .video_id
                .wrapping_mul(0x9E3779B97F4A7C15)
                .rotate_left(17)
                .wrapping_mul(0xBF58476D1CE4E5B9);
            ((h % n as u64) as usize, self.cfg.consistent_hash_window)
        } else {
            (0, n)
        }
    }

    fn start_job(
        &mut self,
        now: f64,
        j: usize,
        w: usize,
        demand: ResourceDemand,
        mode: AttemptMode,
    ) {
        let job = &mut self.jobs[j];
        job.attempts += 1;
        // Per-attempt, not sticky: a retry that lands on hardware
        // after a software-path attempt must rewrite the mode, or the
        // per-mode job tallies (taken at resolution from the *final*
        // attempt) over-count.
        job.mode = mode;
        job.live_attempt = Some(job.attempts);
        let a = Attempt {
            job: j,
            number: job.attempts,
            worker: w,
            demand,
        };
        let duration_s = job.shape.duration_s;
        let wait_s = (a.number == 1).then_some(now - job.arrival_s);
        self.tally.placed(w, job.video_slot, wait_s);
        self.running_per_pool[job.priority.index()] += 1;
        self.telemetry.counter_inc("cluster.attempts");
        if let Some(wait) = wait_s {
            self.telemetry.observe("cluster.wait_s", wait);
        }

        let vcu = self.fleet.vcu(w);
        let corrupting = vcu.state() == HealthState::SilentlyCorrupting;
        // A failing-but-fast VCU races through work (§4.4's black-hole
        // hazard); healthy VCUs take the chunk's real-time duration,
        // scaled by the codec path and any slow-core fault.
        let nominal = duration_s * self.cfg.service_time_factor;
        let base = if corrupting {
            duration_s * 0.2
        } else {
            nominal
        };
        let service = base * self.ladder.service_factor(mode) * vcu.slow_factor();
        if vcu.is_crash_looping() {
            // The firmware gets partway in and crashes; the attempt
            // never completes cleanly.
            let abort_at = now + service.clamp(0.01, CRASH_ABORT_S);
            self.queue.schedule(abort_at, Event::CrashAbort(a));
        } else if !vcu.is_hung() {
            let done_at = now + service.max(0.01);
            let done = Event::Completion(a, corrupting);
            if service == nominal {
                self.queue.schedule_on(COMPLETION_LANE, done_at, done);
            } else {
                self.queue.schedule(done_at, done);
            }
        }
        // A hung VCU schedules nothing: only this deadline notices.
        let watchdog = &self.cfg.watchdog;
        let deadline = now + watchdog.grace_s + nominal * watchdog.service_factor;
        self.queue
            .schedule_on(WATCHDOG_LANE, deadline, Event::Watchdog(a));
    }

    /// Releases the resources of live attempt `a`; if that was a
    /// draining worker's last in-flight attempt its drain completes
    /// here. Exactly one of completion / watchdog / crash-abort reaches
    /// this per attempt.
    fn end_attempt(&mut self, now: f64, a: Attempt) {
        let job = &mut self.jobs[a.job];
        job.live_attempt = None;
        self.running_per_pool[job.priority.index()] -= 1;
        self.scheduler.release(a.worker, a.demand);
        if self.scheduler.worker(a.worker).jobs == 0 {
            if let Some(ev) = self.fleet.idle(a.worker) {
                self.worker_event(now, a.worker, ev);
            }
        }
    }

    /// Retries job `j` (with backoff) or resolves it failed when its
    /// attempt budget is spent. `w` is the worker of the failing
    /// attempt.
    fn retry_or_fail(&mut self, now: f64, j: usize, w: usize) {
        if self.jobs[j].attempts >= self.cfg.retry.max_attempts {
            self.resolve_job(now, j, Some(w), true, false);
            return;
        }
        self.count(Incident::Retry);
        let delay = self.cfg.retry.delay_s(self.jobs[j].attempts, &mut self.rng);
        if delay <= 0.0 {
            self.enqueue_pending(now, j);
        } else {
            self.reviving_events += 1;
            self.queue.schedule(now + delay, Event::Retry(j));
        }
    }

    /// Telemetry scope for job `j`, optionally pinned to the worker `w`
    /// that ran its final attempt (stranded jobs never had one).
    fn job_scope(&self, j: usize, w: Option<usize>) -> Scope {
        let scope = Scope::job(j as u64).with_video(self.jobs[j].video_id);
        match w {
            Some(w) => scope.with_vcu(w as u32),
            None => scope,
        }
    }

    /// Marks job `j` resolved (success or permanent failure) — the
    /// single resolution point, so outcomes are tallied exactly once.
    /// `w` is the worker of the final attempt, `None` for never-placed
    /// (shed or stranded) jobs.
    fn resolve_job(&mut self, now: f64, j: usize, w: Option<usize>, failed: bool, escaped: bool) {
        if self.open_world {
            self.resolutions.push(JobResolution {
                job: j,
                time_s: now,
                completed: !failed,
            });
        }
        let job = &self.jobs[j];
        let sw_path = self
            .tally
            .resolve(now, failed, escaped, job.mode, job.shape.output_mpix);
        // Guarded: a span allocates its name before the registry can
        // decline it, and this runs once per job.
        if self.telemetry.is_enabled() {
            if let Some(name) = sw_path {
                self.telemetry.counter_inc(name);
            }
            let (counter, span) = if failed {
                ("cluster.jobs.failed", "cluster.job.failed")
            } else {
                ("cluster.jobs.completed", "cluster.job")
            };
            self.telemetry.counter_inc(counter);
            if escaped {
                self.telemetry.counter_inc("cluster.corruption.escaped");
            }
            let scope = self.job_scope(j, w);
            self.telemetry
                .span(span, scope, job.arrival_s, now, job.attempts as f64);
        }
    }

    /// Stranded-jobs policy: every queued job is unplaceable (no usable
    /// worker, nothing in flight, no future events), so resolve them
    /// all as failed rather than sampling forever. See DESIGN.md.
    fn strand_pending(&mut self, now: f64) {
        let mut count: u64 = 0;
        for class in 0..self.pending.len() {
            for j in self.drain_pending(class) {
                self.resolve_job(now, j, None, true, false);
                count += 1;
            }
        }
        self.tally.stranded(count);
        if count > 0 {
            self.telemetry.counter_add("cluster.jobs.stranded", count);
            self.telemetry
                .event("cluster.jobs.stranded", Scope::none(), now, count as f64);
        }
    }

    fn handle_completion(&mut self, now: f64, j: usize, w: usize, corrupted: bool) {
        let detected =
            corrupted && self.cfg.integrity_checks && self.rng.gen_bool(self.cfg.detection_rate);
        if !detected {
            // Clean — or undetected corruption, which ships (the paper
            // admits "the system will have bad video chunks escape").
            return self.resolve_job(now, j, Some(w), false, corrupted);
        }
        self.count(Incident::CorruptionCaught);
        if self.cfg.blackhole_mitigation {
            if let Some(ev) = self.fleet.corruption_detected(w) {
                self.worker_event(now, w, ev);
            }
        }
        // Retry at cluster level, with backoff.
        self.retry_or_fail(now, j, w);
    }
}

/// Per-class `[running, queued]` telemetry series, indexed by
/// [`Priority::index`].
const POOL_SERIES: [[&str; 2]; 3] = [
    [
        "cluster.pool.critical.running",
        "cluster.pool.critical.queued",
    ],
    ["cluster.pool.normal.running", "cluster.pool.normal.queued"],
    ["cluster.pool.batch.running", "cluster.pool.batch.queued"],
];

#[cfg(test)]
mod tests {
    use super::super::tests::upload_jobs;
    use super::super::*;
    use vcu_chip::TranscodeJob;
    use vcu_codec::Profile;
    use vcu_media::Resolution;

    #[test]
    fn corrupting_vcu_is_quarantined_with_mitigation() {
        let cfg = ClusterConfig {
            vcus: 4,
            blackhole_mitigation: true,
            detection_rate: 1.0,
            ..ClusterConfig::default()
        };
        let faults = vec![FaultInjection {
            time_s: 0.0,
            worker: 0,
            kind: FaultKind::SilentCorruption,
        }];
        let report = ClusterSim::new(cfg, upload_jobs(60, 0.2, true), faults).run();
        assert_eq!(report.escaped_corruptions, 0, "detection_rate 1.0");
        assert!(report.caught_corruptions >= 1);
        // After quarantine, worker 0 stops accumulating attempts: it
        // should have far fewer than an equal share.
        let w0 = report.attempts_per_worker[0];
        let total: u64 = report.attempts_per_worker.iter().sum();
        assert!(
            (w0 as f64) < total as f64 * 0.15,
            "worker 0 kept taking work: {w0}/{total}"
        );
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn blackholing_emerges_without_mitigation() {
        // Without mitigation the fast-failing VCU keeps winning the
        // first-fit race and reprocesses a disproportionate share.
        let mk = |mitigate: bool| {
            let cfg = ClusterConfig {
                vcus: 4,
                blackhole_mitigation: mitigate,
                detection_rate: 1.0,
                retry: RetryPolicy {
                    max_attempts: 11,
                    ..RetryPolicy::default()
                },
                seed: 7,
                ..ClusterConfig::default()
            };
            let faults = vec![FaultInjection {
                time_s: 0.0,
                worker: 0,
                kind: FaultKind::SilentCorruption,
            }];
            ClusterSim::new(cfg, upload_jobs(60, 0.2, true), faults).run()
        };
        let with = mk(true);
        let without = mk(false);
        assert!(
            without.retries > with.retries * 2,
            "mitigation should slash retries: {} vs {}",
            without.retries,
            with.retries
        );
        let share = |r: &ClusterReport| {
            r.attempts_per_worker[0] as f64 / r.attempts_per_worker.iter().sum::<u64>() as f64
        };
        assert!(
            share(&without) > share(&with),
            "black-hole share {} vs mitigated {}",
            share(&without),
            share(&with)
        );
    }

    #[test]
    fn corruption_escapes_without_integrity_checks() {
        let cfg = ClusterConfig {
            vcus: 4,
            integrity_checks: false,
            blackhole_mitigation: false,
            ..ClusterConfig::default()
        };
        let faults = vec![FaultInjection {
            time_s: 0.0,
            worker: 0,
            kind: FaultKind::SilentCorruption,
        }];
        let report = ClusterSim::new(cfg, upload_jobs(40, 0.3, true), faults).run();
        assert!(
            report.escaped_corruptions > 0,
            "without checks corruption must ship"
        );
    }

    #[test]
    fn dead_vcu_work_reroutes() {
        let cfg = ClusterConfig {
            vcus: 2,
            ..ClusterConfig::default()
        };
        let faults = vec![FaultInjection {
            time_s: 5.0,
            worker: 0,
            kind: FaultKind::Dead,
        }];
        let report = ClusterSim::new(cfg, upload_jobs(30, 1.0, true), faults).run();
        assert_eq!(report.completed + report.failed, 30);
        assert_eq!(report.failed, 0, "redundancy absorbs a dead VCU");
        assert_eq!(report.stranded, 0);
    }

    #[test]
    fn stranded_jobs_terminate_instead_of_livelocking() {
        // Regression: the lone VCU dies before any job arrives, so no
        // placement and no completion can ever happen. The sampler used
        // to reschedule itself forever on the non-empty queue and
        // `run()` never returned; the stranded-jobs policy must fail
        // the queued work and terminate.
        let cfg = ClusterConfig {
            vcus: 1,
            ..ClusterConfig::default()
        };
        let faults = vec![FaultInjection {
            time_s: 0.0,
            worker: 0,
            kind: FaultKind::Dead,
        }];
        let mut jobs = upload_jobs(8, 1.0, false);
        for j in &mut jobs {
            // Strictly after the fault: same-time arrivals pop before
            // the fault event and would be placed on the then-healthy
            // VCU.
            j.arrival_s += 1.0;
        }
        let reg = Registry::new();
        let report = ClusterSim::new(cfg, jobs, faults)
            .with_telemetry(reg.clone())
            .run();
        assert_eq!(report.completed, 0);
        assert_eq!(report.failed, 8, "every queued job fails as stranded");
        assert_eq!(report.stranded, 8);
        assert_eq!(reg.counter("cluster.jobs.stranded"), 8);
        assert_eq!(
            report.mean_wait_s, 0.0,
            "never-placed jobs contribute no queueing wait"
        );
    }

    #[test]
    fn critical_jobs_jump_the_queue() {
        // Saturate a tiny cluster, then submit one critical job; its
        // wait should be shorter than the average batch wait.
        let mut jobs = upload_jobs(40, 0.0, true);
        for j in &mut jobs {
            j.priority = Priority::Batch;
        }
        jobs.push(JobSpec {
            arrival_s: 1.0,
            job: TranscodeJob::mot(Resolution::R720, Profile::Vp9Sim, 30.0, 2.0),
            priority: Priority::Critical,
            video_id: 0,
        });
        let cfg = ClusterConfig {
            vcus: 2,
            ..ClusterConfig::default()
        };
        let sim = ClusterSim::new(cfg, jobs, vec![]);
        let report = sim.run();
        assert_eq!(report.completed, 41);
        // (Detailed per-job wait assertions live in integration tests;
        // here we check the run stays healthy under priority inserts.)
        assert!(report.mean_wait_s >= 0.0);
    }

    #[test]
    fn retries_do_not_inflate_mean_wait() {
        // One job arriving into an idle cluster is placed the instant
        // it arrives: its queueing wait is exactly zero. A corrupting
        // first-fit worker forces a retry; that retry must not record
        // a second, later "wait" for the same job.
        let cfg = ClusterConfig {
            vcus: 2,
            detection_rate: 1.0,
            blackhole_mitigation: true,
            ..ClusterConfig::default()
        };
        let faults = vec![FaultInjection {
            time_s: 0.0,
            worker: 0,
            kind: FaultKind::SilentCorruption,
        }];
        let jobs = vec![JobSpec {
            arrival_s: 1.0,
            job: TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0),
            priority: Priority::Normal,
            video_id: 0,
        }];
        let report = ClusterSim::new(cfg, jobs, faults).run();
        assert_eq!(report.completed, 1);
        assert!(report.retries >= 1, "corruption must force a retry");
        assert_eq!(
            report.mean_wait_s, 0.0,
            "wait is measured once, at first placement"
        );
    }

    #[test]
    fn sw_decoded_jobs_counts_final_attempt_mode() {
        // `sw_decoded_jobs` is documented as "jobs whose *successful*
        // attempt used software decode". Engineer a job whose FIRST
        // attempt is software-decoded on a corrupting VCU and whose
        // successful retry is hardware-decoded: it must not be counted.
        //
        // 24 decode-heavy background chunks (2160p in, 240p out) placed
        // at t=0 pin hardware decode above the 90% offload threshold
        // until t=0.8. The victim arrives at t=0.5 → software decode →
        // first-fit onto the corrupting worker 0 → fast corrupt
        // completion at t=1.5, detected, worker quarantined. By then
        // the background has drained, decode is cold, and the retry
        // runs hardware-decoded on worker 1.
        let mut jobs: Vec<JobSpec> = (0..24)
            .map(|i| JobSpec {
                arrival_s: 0.0,
                job: TranscodeJob::sot(
                    Resolution::R2160,
                    Resolution::R240,
                    Profile::Vp9Sim,
                    30.0,
                    0.8,
                ),
                priority: Priority::Normal,
                video_id: i as u64,
            })
            .collect();
        jobs.push(JobSpec {
            arrival_s: 0.5,
            job: TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0),
            priority: Priority::Normal,
            video_id: 99,
        });
        let cfg = ClusterConfig {
            vcus: 2,
            opportunistic_sw_decode: true,
            detection_rate: 1.0,
            blackhole_mitigation: true,
            ..ClusterConfig::default()
        };
        let faults = vec![FaultInjection {
            time_s: 0.0,
            worker: 0,
            kind: FaultKind::SilentCorruption,
        }];
        let report = ClusterSim::new(cfg, jobs, faults).run();
        assert_eq!(report.completed, 25);
        assert_eq!(report.retries, 1, "victim must retry exactly once");
        assert_eq!(
            report.sw_decoded_jobs, 0,
            "the successful attempt was hardware-decoded; the sw attempt must not count"
        );
    }

    #[test]
    fn consistent_hashing_bounds_blast_radius() {
        // Many videos, several chunks each: with consistent hashing the
        // mean number of distinct VCUs per video must shrink (§4.4's
        // future-work enhancement).
        let jobs = |_| -> Vec<JobSpec> {
            (0..120)
                .map(|i| JobSpec {
                    arrival_s: (i / 4) as f64 * 0.6,
                    job: TranscodeJob::mot(Resolution::R720, Profile::Vp9Sim, 30.0, 5.0),
                    priority: Priority::Normal,
                    video_id: (i / 4) as u64 + 1, // 4 chunks per video
                })
                .collect()
        };
        let run = |window: usize| {
            let cfg = ClusterConfig {
                vcus: 12,
                consistent_hash_window: window,
                ..ClusterConfig::default()
            };
            ClusterSim::new(cfg, jobs(()), vec![]).run()
        };
        let spread = run(0);
        let hashed = run(3);
        assert_eq!(hashed.failed, 0, "hashing must not fail jobs");
        assert!(
            hashed.mean_vcus_per_video < spread.mean_vcus_per_video,
            "blast radius should shrink: {} vs {}",
            hashed.mean_vcus_per_video,
            spread.mean_vcus_per_video
        );
        assert!(hashed.mean_vcus_per_video <= 3.0);
    }

    #[test]
    fn firmware_hang_is_rescued_by_the_watchdog() {
        // Worker 0 hangs before the only job arrives; the completion
        // never fires and only the watchdog deadline reclaims the
        // attempt, retrying onto worker 1.
        let cfg = ClusterConfig {
            vcus: 2,
            consistent_hash_window: 0,
            ..ClusterConfig::default()
        };
        let faults = vec![FaultInjection {
            time_s: 0.0,
            worker: 0,
            kind: FaultKind::FirmwareHang,
        }];
        let jobs = vec![JobSpec {
            arrival_s: 1.0,
            job: TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0),
            priority: Priority::Normal,
            video_id: 0,
        }];
        let report = ClusterSim::new(cfg, jobs, faults).run();
        assert_eq!(report.completed, 1);
        assert_eq!(report.failed, 0);
        // First-fit keeps feeding worker 0 until three strikes demote
        // it to draining; the post-drain functional reset clears the
        // hang, the screen passes, and the reactivated worker finishes
        // the job.
        assert_eq!(report.watchdog_fired, 3, "one deadline per strike");
        assert_eq!(report.retries, 3);
        assert_eq!(report.attempts_per_worker, vec![4, 0]);
        assert_eq!(
            report.quarantined_workers, 0,
            "a reset-curable wedge recovers"
        );
    }

    #[test]
    fn hang_mid_flight_suppresses_the_scheduled_completion() {
        // The job starts on a healthy worker 0, then the firmware
        // wedges mid-service: the already-scheduled completion must not
        // count, and the watchdog rescues the attempt.
        let cfg = ClusterConfig {
            vcus: 2,
            ..ClusterConfig::default()
        };
        let faults = vec![FaultInjection {
            time_s: 1.0,
            worker: 0,
            kind: FaultKind::FirmwareHang,
        }];
        let jobs = vec![JobSpec {
            arrival_s: 0.0,
            job: TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0),
            priority: Priority::Normal,
            video_id: 0,
        }];
        let report = ClusterSim::new(cfg, jobs, faults).run();
        assert_eq!(report.completed, 1);
        assert!(
            report.watchdog_fired >= 1,
            "the completion at t≈5 must be suppressed in favour of the deadline"
        );
        assert!(
            report.horizon_s > 30.0,
            "resolution waits for the watchdog deadline"
        );
    }

    #[test]
    fn slow_core_attempts_time_out_and_reroute() {
        // A 16× slow core turns a 5 s job into 80 s — past the 30+8×5
        // = 70 s watchdog deadline. The attempt is reclaimed and
        // retried; repeated strikes demote the slow worker.
        let cfg = ClusterConfig {
            vcus: 2,
            ..ClusterConfig::default()
        };
        let faults = vec![FaultInjection {
            time_s: 0.0,
            worker: 0,
            kind: FaultKind::SlowCore { factor_pct: 1600 },
        }];
        let report = ClusterSim::new(cfg, upload_jobs(20, 1.0, true), faults).run();
        // A slow core *passes* its screen (slow output is correct
        // output), so it bounces back `max_recoveries` times before
        // quarantine — a handful of jobs can burn their whole attempt
        // budget on it meanwhile.
        assert_eq!(report.completed + report.failed, 20);
        assert!(
            report.completed >= 18,
            "completed only {}",
            report.completed
        );
        assert!(
            report.watchdog_fired >= 3,
            "slow attempts must hit the deadline"
        );
        assert_eq!(
            report.watchdog_fired,
            report.retries + report.failed,
            "every deadline either retried the job or spent its final attempt"
        );
        // The healthy worker ends up with the overwhelming share.
        assert!(
            report.attempts_per_worker[1] > report.attempts_per_worker[0],
            "attempts: {:?}",
            report.attempts_per_worker
        );
    }

    #[test]
    fn crash_loop_is_quarantined_after_strikes() {
        let cfg = ClusterConfig {
            vcus: 2,
            ..ClusterConfig::default()
        };
        let faults = vec![FaultInjection {
            time_s: 0.0,
            worker: 0,
            kind: FaultKind::CrashLoop,
        }];
        let report = ClusterSim::new(cfg, upload_jobs(20, 1.0, true), faults).run();
        assert_eq!(report.completed, 20, "crashes only cost retries");
        assert!(
            report.crash_aborts >= 3,
            "strikes accumulate: {}",
            report.crash_aborts
        );
        assert_eq!(
            report.quarantined_workers, 1,
            "the post-drain screen fails a crash-looping core"
        );
    }

    #[test]
    fn ecc_storm_disables_the_vcu_and_work_reroutes() {
        let cfg = ClusterConfig {
            vcus: 2,
            ..ClusterConfig::default()
        };
        // 100 correctable/s trips the 1000-error limit after 10 ticks.
        let faults = vec![FaultInjection {
            time_s: 0.0,
            worker: 0,
            kind: FaultKind::EccStorm {
                correctable_per_tick: 100,
            },
        }];
        let report = ClusterSim::new(cfg, upload_jobs(40, 1.0, true), faults).run();
        assert_eq!(report.completed, 40);
        assert_eq!(report.failed, 0, "redundancy absorbs the disabled VCU");
        // After the storm disables worker 0 (t≈10), everything runs on
        // worker 1.
        assert!(
            report.attempts_per_worker[1] > report.attempts_per_worker[0],
            "attempts: {:?}",
            report.attempts_per_worker
        );
    }

    #[test]
    fn repair_revives_a_dead_fleet_instead_of_stranding() {
        // The lone VCU dies before any job arrives — the old stranding
        // scenario — but a field repair is scheduled: the sim must wait
        // for it rather than failing the queue.
        let cfg = ClusterConfig {
            vcus: 1,
            ..ClusterConfig::default()
        };
        let faults = vec![
            FaultInjection {
                time_s: 0.0,
                worker: 0,
                kind: FaultKind::Dead,
            },
            FaultInjection {
                time_s: 200.0,
                worker: 0,
                kind: FaultKind::Repair,
            },
        ];
        let mut jobs = upload_jobs(8, 1.0, false);
        for j in &mut jobs {
            j.arrival_s += 1.0;
        }
        let report = ClusterSim::new(cfg, jobs, faults).run();
        assert_eq!(report.completed, 8, "repair must revive the fleet");
        assert_eq!(report.stranded, 0);
        assert_eq!(report.repairs, 1);
        assert!(report.mean_wait_s > 100.0, "jobs waited out the outage");
    }

    #[test]
    fn periodic_screening_catches_a_corruptor_without_integrity_checks() {
        // No integrity checks and no detected failures: only the
        // periodic golden screen can find the silently corrupting VCU.
        let run = |golden_period_s: f64| {
            let cfg = ClusterConfig {
                vcus: 4,
                integrity_checks: false,
                health: HealthPolicy {
                    golden_period_s,
                    ..HealthPolicy::default()
                },
                ..ClusterConfig::default()
            };
            let faults = vec![FaultInjection {
                time_s: 0.0,
                worker: 0,
                kind: FaultKind::SilentCorruption,
            }];
            ClusterSim::new(cfg, upload_jobs(200, 0.2, true), faults).run()
        };
        let unscreened = run(0.0);
        let screened = run(10.0);
        assert!(unscreened.escaped_corruptions > 0);
        assert_eq!(unscreened.quarantined_workers, 0);
        assert_eq!(
            screened.quarantined_workers, 1,
            "screening quarantines the VCU"
        );
        assert!(
            screened.escaped_corruptions < unscreened.escaped_corruptions,
            "screening bounds the blast radius: {} vs {}",
            screened.escaped_corruptions,
            unscreened.escaped_corruptions
        );
    }

    #[test]
    fn degradation_ladder_sheds_batch_only_at_the_top_rung() {
        // Swamp a tiny cluster far beyond its capacity with mixed
        // priorities and a ladder that arms quickly: levels must rise
        // one rung per sample, software fallbacks must carry jobs, and
        // Batch work is shed while Critical work survives.
        let mut jobs: Vec<JobSpec> = (0..400)
            .map(|i| JobSpec {
                arrival_s: (i as f64) * 0.05,
                job: TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0),
                priority: match i % 4 {
                    0 => Priority::Critical,
                    3 => Priority::Batch,
                    _ => Priority::Normal,
                },
                video_id: i as u64 / 4,
            })
            .collect();
        jobs.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        let cfg = ClusterConfig {
            vcus: 2,
            sample_period_s: 10.0,
            degrade: DegradePolicy {
                enabled: true,
                backlog_per_worker: [2.0, 6.0, 12.0],
            },
            ..ClusterConfig::default()
        };
        let report = ClusterSim::new(cfg, jobs, vec![]).run();
        let max_level = report
            .samples
            .iter()
            .map(|s| s.degrade_level)
            .max()
            .unwrap();
        assert_eq!(max_level, 3, "the overload must climb the whole ladder");
        // One rung per sample in either direction.
        for w in report.samples.windows(2) {
            assert!(
                (w[1].degrade_level as i32 - w[0].degrade_level as i32).abs() <= 1,
                "ladder moved more than one rung per sample"
            );
        }
        assert!(report.shed > 0, "level 3 must shed Batch work");
        assert!(
            report.sw_encoded_jobs > 0,
            "level ≥1 must run software encodes"
        );
        assert!(
            report.degrade_time_frac.iter().sum::<f64>() > 0.999,
            "rung time fractions must partition the run"
        );
        // Shedding hits Batch only: all failures are shed Batch jobs.
        assert_eq!(report.failed, report.shed);
        assert_eq!(report.completed + report.failed, 400);
    }

    #[test]
    fn degraded_ladder_preserves_goodput_under_quarantine_wave() {
        // Kill most of the fleet mid-run. Without the ladder the
        // backlog explodes against the survivors; with it, software
        // fallback keeps goodput flowing and nothing is stranded.
        let jobs: Vec<JobSpec> = (0..300)
            .map(|i| JobSpec {
                arrival_s: i as f64 * 0.2,
                job: TranscodeJob::mot(Resolution::R720, Profile::Vp9Sim, 30.0, 5.0),
                priority: Priority::Normal,
                video_id: i as u64,
            })
            .collect();
        let faults: Vec<FaultInjection> = (0..6)
            .map(|w| FaultInjection {
                time_s: 10.0,
                worker: w,
                kind: FaultKind::Dead,
            })
            .collect();
        let cfg = ClusterConfig {
            vcus: 8,
            sample_period_s: 10.0,
            degrade: DegradePolicy {
                enabled: true,
                backlog_per_worker: [2.0, 6.0, 12.0],
            },
            ..ClusterConfig::default()
        };
        let report = ClusterSim::new(cfg, jobs, faults).run();
        assert_eq!(report.completed + report.failed, 300);
        assert_eq!(report.stranded, 0);
        assert!(
            report.samples.iter().any(|s| s.usable_workers == 2),
            "samples must expose the shrunken fleet"
        );
        assert!(
            report.completed >= 290,
            "no Normal-priority collapse: {}",
            report.completed
        );
    }

    /// Placement questions the scheduler has been asked so far.
    fn asks(sim: &ClusterSim) -> u64 {
        sim.scheduler.placements + sim.scheduler.rejections
    }

    /// `n` identical long-running 1080p MOT jobs arriving at `at_s`.
    fn long_jobs(n: usize, at_s: f64, priority: Priority) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                arrival_s: at_s,
                job: TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 100.0),
                priority,
                video_id: i as u64,
            })
            .collect()
    }

    /// A job small enough to fit beside a VCU full of `long_jobs`.
    fn small_job(at_s: f64, priority: Priority) -> JobSpec {
        JobSpec {
            arrival_s: at_s,
            job: TranscodeJob::sot(
                Resolution::R360,
                Resolution::R240,
                Profile::H264Sim,
                30.0,
                1.0,
            ),
            priority,
            video_id: 999,
        }
    }

    #[test]
    fn a_blocked_queue_is_asked_once_and_again_after_a_release() {
        let cfg = ClusterConfig {
            vcus: 1,
            ..ClusterConfig::default()
        };
        let mut jobs = long_jobs(12, 0.0, Priority::Normal);
        jobs[0].job.duration_s = 5.0; // the first release
        let mut sim = ClusterSim::new(cfg, jobs, vec![]);
        sim.run_until(0.0);
        let running = sim.scheduler.placements;
        let queued = sim.pending[1].len();
        assert_eq!(running as usize + queued, 12);
        assert!(queued >= 3, "the VCU must saturate: {queued} queued");
        // The first job that did not fit asked and missed; every later
        // arrival asks for at least as much and was answered from memory.
        assert_eq!(sim.scheduler.rejections, 1);
        assert_eq!(sim.blocked.prefix, [0, queued, 0]);
        // The completion frees capacity: the head of the queue places,
        // the next job is asked afresh and misses, the rest follow it.
        sim.run_until(5.0);
        assert_eq!(sim.scheduler.placements, running + 1);
        assert_eq!(sim.scheduler.rejections, 2);
        assert_eq!(sim.blocked.prefix, [0, queued - 1, 0]);
    }

    #[test]
    fn a_repair_re_asks_the_blocked_queue() {
        let cfg = ClusterConfig {
            vcus: 1,
            ..ClusterConfig::default()
        };
        let fault = |time_s, kind| FaultInjection {
            time_s,
            worker: 0,
            kind,
        };
        let faults = vec![fault(0.0, FaultKind::Dead), fault(50.0, FaultKind::Repair)];
        let mut sim = ClusterSim::new(cfg, long_jobs(4, 1.0, Priority::Normal), faults);
        sim.run_until(49.0);
        assert_eq!((sim.scheduler.placements, sim.scheduler.rejections), (0, 1));
        assert_eq!(sim.blocked.prefix, [0, 4, 0]);
        sim.run_until(50.0);
        assert_eq!(
            sim.scheduler.placements, 4,
            "the repaired VCU takes the queue"
        );
        assert_eq!(sim.blocked.prefix, [0, 0, 0]);
    }

    #[test]
    fn a_ladder_step_re_asks_the_blocked_queue() {
        let cfg = ClusterConfig {
            vcus: 1,
            sample_period_s: 10.0,
            degrade: DegradePolicy {
                enabled: true,
                backlog_per_worker: [1.0, 100.0, 100.0],
            },
            ..ClusterConfig::default()
        };
        let mut jobs = long_jobs(12, 0.0, Priority::Normal);
        jobs.push(small_job(15.0, Priority::Batch));
        let mut sim = ClusterSim::new(cfg, jobs, vec![]);
        sim.run_until(10.0);
        assert_eq!(sim.ladder.level(), 1, "the backlog arms rung 1");
        let queued = sim.pending[1].len();
        assert_eq!(sim.blocked.prefix, [0, queued, 0]);
        let placed = sim.scheduler.placements;
        // No capacity was freed, but rung 1 offers software encode:
        // the next pass must ask the remembered jobs again.
        sim.run_until(15.0);
        assert!(
            sim.scheduler.placements > placed + 1,
            "queued jobs must place on the software-encode path"
        );
        assert!(sim.pending[1].len() < queued);
    }

    #[test]
    fn a_critical_arrival_is_tried_past_a_blocked_queue() {
        let cfg = ClusterConfig {
            vcus: 1,
            ..ClusterConfig::default()
        };
        let mut jobs = long_jobs(12, 0.0, Priority::Normal);
        jobs.push(small_job(1.0, Priority::Critical));
        let mut sim = ClusterSim::new(cfg, jobs, vec![]);
        sim.run_until(0.0);
        let (placed, asked) = (sim.scheduler.placements, asks(&sim));
        sim.run_until(1.0);
        assert_eq!(sim.scheduler.placements, placed + 1);
        assert_eq!(asks(&sim), asked + 1, "only the new job is asked about");
        assert!(sim.pending[0].is_empty());
    }

    #[test]
    fn remembered_misses_count_toward_the_head_of_line_cap() {
        // A small job that would fit, queued behind `blocked` jobs that
        // do not: tried when fewer than 48 misses precede it, never
        // reached once 48 do — remembered or not.
        let run = |blocked: usize| {
            let cfg = ClusterConfig {
                vcus: 1,
                ..ClusterConfig::default()
            };
            let mut jobs = long_jobs(blocked, 0.0, Priority::Normal);
            jobs.push(small_job(1.0, Priority::Normal));
            let mut sim = ClusterSim::new(cfg, jobs, vec![]);
            sim.run_until(0.0);
            let placed = sim.scheduler.placements;
            let queued = sim.pending[1].len();
            sim.run_until(1.0);
            (queued, sim.scheduler.placements - placed)
        };
        let (queued, placed) = run(50);
        assert!(
            queued < 48 && placed == 1,
            "{queued} queued, {placed} placed"
        );
        let (queued, placed) = run(70);
        assert!(
            queued >= 48 && placed == 0,
            "{queued} queued, {placed} placed"
        );
    }

    #[test]
    fn shedding_and_stranding_forget_the_queue_prefix() {
        // Shed: Batch jobs wait behind a full VCU until rung 3 drains
        // their queue.
        let cfg = ClusterConfig {
            vcus: 1,
            sample_period_s: 1.0,
            degrade: DegradePolicy {
                enabled: true,
                backlog_per_worker: [1.0, 1.0, 1.0],
            },
            ..ClusterConfig::default()
        };
        let mut sim = ClusterSim::new(cfg, long_jobs(40, 0.0, Priority::Batch), vec![]);
        sim.run_until(2.0);
        assert!(sim.blocked.prefix[2] > 0 && sim.ladder.level() == 2);
        sim.run_until(3.0);
        assert!(sim.tally.resolved() > 0, "rung 3 sheds the Batch queue");
        assert_eq!(sim.blocked.prefix, [0, 0, 0]);

        // Strand: an open-world cell whose lone VCU is dead fails its
        // queue at the next sample. A job injected afterwards is at the
        // head of an empty queue and must be asked about, not skipped
        // as part of a prefix that no longer exists.
        let cfg = ClusterConfig {
            vcus: 1,
            ..ClusterConfig::default()
        };
        let dead = vec![FaultInjection {
            time_s: 0.0,
            worker: 0,
            kind: FaultKind::Dead,
        }];
        let mut sim = ClusterSim::new(cfg, vec![], dead).open_world();
        for job in long_jobs(3, 1.0, Priority::Normal) {
            sim.inject_job(job);
        }
        sim.run_until(1.0);
        assert_eq!(sim.blocked.prefix, [0, 3, 0]);
        sim.run_until(60.0);
        assert_eq!(sim.unresolved_jobs(), 0, "the queue was stranded");
        assert_eq!(sim.blocked.prefix, [0, 0, 0]);
        let asked = asks(&sim);
        sim.inject_job(small_job(61.0, Priority::Normal));
        sim.run_until(61.0);
        assert_eq!(asks(&sim), asked + 1);
    }
}
