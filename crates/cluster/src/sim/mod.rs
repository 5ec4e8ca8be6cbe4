//! The warehouse cluster simulator.
//!
//! Drives [`crate::scheduler::Scheduler`] with a discrete-event loop:
//! transcode jobs arrive, get placed on VCU workers, hold resources for
//! their service time, and complete — possibly corrupted, retried,
//! offloaded, or rescheduled, exercising the §3.3.3/§4.4 machinery:
//!
//! - multi-dimensional bin packing vs the legacy single-slot model,
//! - opportunistic software decode when hardware decode is the
//!   bottleneck (Fig. 9c),
//! - black-holing: a silently-corrupting VCU completes work *fast* and
//!   attracts a disproportionate share of retries unless the §4.4
//!   mitigation (abort + golden screening) quarantines it,
//! - blast-radius accounting: which VCUs touched which chunks, and how
//!   many corrupted chunks escape the integrity checks.
//!
//! [`ClusterSim`] is a small **dispatch core**: the event queue, the
//! cursor over batch arrivals merged with it, the pending queues and
//! the open-world stepping API (this file), with the event handlers
//! and placement in `dispatch`. The mechanisms it
//! dispatches to each own their state in a sibling module and never
//! touch the queue, the scheduler, the RNG or telemetry — they return
//! what happened and the core acts on it, so event `seq` assignment,
//! the two runtime RNG draws (retry jitter, the detection coin) and
//! telemetry emission order are all decided in `dispatch`:
//!
//! - `retry`: [`RetryPolicy`] — pure backoff arithmetic,
//! - `fleet`: the VCUs and their management state (strikes, draining,
//!   golden screening, quarantine, fault application),
//! - `degrade`: the degradation ladder's rung and the per-rung
//!   placement candidates,
//! - `tally`: every counter, the samples, and the final
//!   [`ClusterReport`],
//! - `config`: [`ClusterConfig`] and its validity rules.

mod config;
mod degrade;
mod dispatch;
mod fleet;
mod retry;
mod tally;

pub use config::{ClusterConfig, ConfigError, JobSpec, Priority};
pub(crate) use degrade::AttemptMode;
pub use degrade::DegradePolicy;
pub use fleet::{FaultInjection, FaultKind, HealthPolicy, WatchdogPolicy};
pub use retry::{RetryPolicy, BACKOFF_FACTOR, MAX_ATTEMPTS};
pub use tally::{ClusterReport, Sample};

use crate::des::{EventQueue, Head};
use crate::scheduler::Scheduler;
use degrade::Ladder;
use dispatch::Blocked;
use fleet::Fleet;
use std::collections::VecDeque;
use tally::Tally;
use vcu_chip::{ResourceDemand, TranscodeJob, VcuModel};
use vcu_rng::Rng;
use vcu_telemetry::Registry;

/// One placement of a job on a worker: what the one pending event that
/// ends it (completion, watchdog or crash-abort) needs to release it.
/// The demand it holds is not stored: an attempt ends only as its job's
/// latest, whose mode and shape give it back (`end_attempt`).
#[derive(Debug, Clone, Copy)]
struct Attempt {
    /// The job's slot in `ClusterSim::jobs`.
    job: u32,
    /// 1-based attempt number.
    number: u32,
    worker: u32,
    /// The watchdog deadline, fixed at placement: where the attempt is
    /// declared lost if no outcome ends it first.
    deadline_s: f64,
}

#[derive(Debug, Clone)]
enum Event {
    Arrival(usize),
    /// The attempt ran to its end; the flag says its output is corrupt.
    Completion(Attempt, bool),
    /// An injected fault lands on a worker.
    Fault(usize, FaultKind),
    Sample,
    /// Per-attempt deadline, scheduled only where nothing ends the
    /// attempt before it: no outcome by then, or a hung VCU.
    Watchdog(Attempt),
    /// Crash-looping firmware aborts the attempt partway through.
    CrashAbort(Attempt),
    /// Backoff expiry: the job re-enters the pending queue.
    Retry(usize),
    /// One tick of an ECC storm: this many correctable errors on a
    /// worker.
    EccTick(usize, u64),
    /// Periodic fleet-wide golden screening pass.
    GoldenScreen,
}

/// What the simulator reads of a job's work — a function of its
/// [`TranscodeJob`] and the fleet's [`VcuModel`], not of the individual
/// chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Shape {
    duration_s: f64,
    /// Output delivered by a completed job, Mpix.
    output_mpix: f64,
    /// Full-hardware resource demand.
    demand: ResourceDemand,
}

impl Shape {
    fn of(job: &TranscodeJob, model: &VcuModel) -> Self {
        Shape {
            duration_s: job.duration_s,
            output_mpix: job.output_pixels() / 1e6,
            demand: model.job_demand(job),
        }
    }
}

/// The last four distinct jobs submitted and their [`Shape`]s. Streams
/// mostly cycle a few shapes (a campaign's uniform chunk, a video's
/// chunks, the DSE's four-job mix), so four entries turn such a stream
/// into one [`VcuModel::job_demand`] per shape; a stream where every job
/// differs computes one per job, as it would without the memo, and
/// nothing grows with the number of shapes. Debug builds check every
/// remembered shape against a fresh one.
#[derive(Debug, Default)]
struct ShapeMemo {
    recent: [Option<(TranscodeJob, Shape)>; 4],
    /// The entry the next new job replaces, oldest first.
    next: usize,
}

impl ShapeMemo {
    fn shape_of(&mut self, job: &TranscodeJob, model: &VcuModel) -> Shape {
        // A NaN field is unequal to itself and simply recomputes.
        let hit = self.recent.iter().flatten().find(|(seen, _)| seen == job);
        if let Some((_, shape)) = hit {
            debug_assert_eq!(*shape, Shape::of(job, model));
            return *shape;
        }
        let shape = Shape::of(job, model);
        self.recent[self.next] = Some((job.clone(), shape));
        self.next = (self.next + 1) % self.recent.len();
        shape
    }
}

/// A submitted job: what the simulator reads of its [`JobSpec`], and
/// where its attempts stand.
#[derive(Debug, Clone)]
struct JobState {
    arrival_s: f64,
    video_id: u64,
    shape: Shape,
    /// The blast-radius slot [`Tally::submitted`] gave this job's video.
    video_slot: u32,
    attempts: u32,
    /// Submission ordinal: the handle [`ClusterSim::inject_job`]
    /// returned and [`JobResolution::job`] reports. It sits in what
    /// would be padding, and it is the slot's index only until an
    /// open world reuses the slot; [`JobState::FREED`] marks a free one.
    ordinal: u32,
    priority: Priority,
    /// Codec path of the *most recent* attempt — rewritten at every
    /// placement, so at resolution it reads as the final attempt's
    /// mode.
    mode: AttemptMode,
}

impl JobState {
    /// The ordinal of a slot on the free list. No job is given it, so
    /// debug builds can tell a freed slot from a live one.
    const FREED: u32 = u32::MAX;

    fn new(spec: &JobSpec, shape: Shape, video_slot: u32, ordinal: u32) -> Self {
        JobState {
            arrival_s: spec.arrival_s,
            video_id: spec.video_id,
            shape,
            video_slot,
            attempts: 0,
            ordinal,
            priority: spec.priority,
            mode: AttemptMode::Hw,
        }
    }
}

/// The next submission ordinal after `submitted` jobs; one below
/// [`JobState::FREED`] at most.
fn ordinal(submitted: usize) -> u32 {
    u32::try_from(submitted)
        .ok()
        .filter(|&n| n != JobState::FREED)
        .expect("a run submits fewer than u32::MAX jobs")
}

/// The batch arrivals still to come: a cursor over the job vector the
/// simulator was built with, in the order the event queue would have
/// popped them had each been scheduled — by arrival time, then by
/// position in the vector (their reserved sequence numbers are
/// `0..n`, so at equal times they precede every other event).
#[derive(Debug)]
struct Arrivals {
    /// Job indices sorted by `(arrival_s, index)`; empty when the job
    /// vector already is, and the cursor walks it directly.
    order: Vec<u32>,
    /// Arrivals handled so far.
    next: usize,
    /// Jobs in the batch vector.
    len: usize,
}

impl Arrivals {
    /// Reserves the batch's place in `queue`'s order, which also runs
    /// every arrival time past the queue's door checks.
    fn new(jobs: &[JobSpec], queue: &mut EventQueue<Event>) -> Self {
        for (i, j) in jobs.iter().enumerate() {
            let seq = queue.reserve(j.arrival_s);
            debug_assert_eq!(seq, i as u64, "batch arrivals are reserved first");
        }
        let earlier = |a: &JobSpec, b: &JobSpec| a.arrival_s.total_cmp(&b.arrival_s);
        let mut order = Vec::new();
        if !jobs.is_sorted_by(|a, b| earlier(a, b).is_le()) {
            let n = u32::try_from(jobs.len()).expect("a batch holds at most u32::MAX jobs");
            order.extend(0..n);
            // Stable: equal times keep vector order, which is `seq` order.
            order.sort_by(|&a, &b| earlier(&jobs[a as usize], &jobs[b as usize]));
        }
        Arrivals {
            order,
            next: 0,
            len: jobs.len(),
        }
    }

    /// Index of the next job to arrive, if any remain.
    fn peek(&self) -> Option<usize> {
        (self.next < self.len).then(|| match self.order.get(self.next) {
            Some(&j) => j as usize,
            None => self.next,
        })
    }
}

/// The event [`ClusterSim::step`] handles next, as peeked.
#[derive(Debug, Clone, Copy)]
enum Next {
    /// Batch arrival of job `.0` at time `.1`.
    Arrival(usize, f64),
    /// The queue's head.
    Queued(Head),
}

impl Next {
    fn time(self) -> f64 {
        match self {
            Next::Arrival(_, time) => time,
            Next::Queued(head) => head.time,
        }
    }
}

/// [`EventQueue`] lane for arrivals injected into an open world: drivers
/// submit them in time order.
const ARRIVAL_LANE: usize = 0;
/// [`EventQueue`] lane for completions at the nominal service time — a
/// healthy core on the hardware path, which is nearly all of them: the
/// chunk's length past a clock that only rises, in order whenever
/// chunk lengths are alike. Every other completion (slow core,
/// corrupting core at 0.2×, software rungs) goes to the heap: one
/// slowed attempt on the lane would park a far-future tail there and
/// send every nominal completion behind it to the heap anyway.
const COMPLETION_LANE: usize = 1;

/// One job reaching its terminal state, reported through
/// [`ClusterSim::drain_resolutions`] so an open-world driver (the
/// serving front end) can react to transcode outcomes as they happen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobResolution {
    /// The job's submission ordinal: the handle
    /// [`ClusterSim::inject_job`] returned, or the position in the
    /// up-front job vector. Ordinals are never reused, although an
    /// open world reuses the storage of resolved jobs.
    pub job: usize,
    /// Sim time of the resolution, seconds.
    pub time_s: f64,
    /// True on success; false for permanent failure (retries exhausted,
    /// shed, or stranded).
    pub completed: bool,
}

/// The simulator.
#[derive(Debug)]
pub struct ClusterSim {
    cfg: ClusterConfig,
    /// Every pending event but the batch arrivals.
    queue: EventQueue<Event>,
    /// The batch arrivals, merged with `queue` in [`ClusterSim::step`].
    arrivals: Arrivals,
    scheduler: Scheduler,
    fleet: Fleet,
    ladder: Ladder,
    tally: Tally,
    /// Job slots. A batch run keeps one per job, at its position in the
    /// vector; an open world frees a slot when its job resolves and
    /// reuses it, so the table grows with work in flight, not with work
    /// submitted.
    jobs: Vec<JobState>,
    /// Freed slots, reused last in, first out (open-world mode only).
    free_slots: Vec<u32>,
    /// Jobs submitted so far; the next one's ordinal.
    submitted: usize,
    shapes: ShapeMemo,
    /// Pending job indices, one FIFO ring per priority class (indexed
    /// by [`Priority::index`]): O(1) enqueue and O(1) per-class depth.
    /// Scheduling visits classes Critical → Normal → Batch, so
    /// cross-class order is positional and within-class order is
    /// enqueue order.
    pending: [VecDeque<usize>; 3],
    /// Placements known to fail until a worker grows or the ladder
    /// moves, and the demands queued per class (see
    /// [`dispatch::Blocked`]).
    blocked: Blocked,
    rng: Rng,
    /// Events still in the queue that can hand work to the cluster
    /// (arrivals, backoff retries, fault injections — a pending
    /// `Repair` can revive a dead fleet). While any remain, queued
    /// jobs are not stranded.
    reviving_events: usize,
    /// Jobs currently in service, per priority pool.
    running_per_pool: [u64; 3],
    /// Open-world mode: jobs keep arriving via [`ClusterSim::inject_job`]
    /// after construction, so recurring events (sampling, ECC ticks,
    /// golden screens) reschedule unconditionally and every resolution
    /// is logged for [`ClusterSim::drain_resolutions`].
    open_world: bool,
    /// Resolutions since the last drain (open-world mode only).
    resolutions: Vec<JobResolution>,
    /// Observability sink (disabled by default: every record is then a
    /// single branch).
    telemetry: Registry,
}

impl ClusterSim {
    /// Builds a simulator over `jobs` and `faults`.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`]'s message if
    /// [`ClusterConfig::validate`] rejects `cfg` — such a configuration
    /// would hang the event loop or put NaN in the report.
    pub fn new(cfg: ClusterConfig, jobs: Vec<JobSpec>, faults: Vec<FaultInjection>) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        // The heap holds the faults, the two recurring events and
        // whatever is in flight — never the arrivals.
        let mut queue = EventQueue::with_capacity(faults.len() + 2);
        let arrivals = Arrivals::new(&jobs, &mut queue);
        for f in &faults {
            queue.schedule(f.time_s, Event::Fault(f.worker, f.kind));
        }
        queue.schedule(cfg.sample_period_s, Event::Sample);
        if cfg.health.golden_period_s > 0.0 {
            queue.schedule(cfg.health.golden_period_s, Event::GoldenScreen);
        }
        let mut tally = Tally::new(cfg.vcus);
        let mut shapes = ShapeMemo::default();
        let submitted = jobs.len();
        let mut next = 0;
        let submit = |spec: JobSpec| {
            let shape = shapes.shape_of(&spec.job, &cfg.model);
            let state = JobState::new(&spec, shape, tally.submitted(spec.video_id), ordinal(next));
            next += 1;
            state
        };
        ClusterSim {
            queue,
            arrivals,
            scheduler: Scheduler::with_placement(cfg.scheduler, cfg.vcus, cfg.placement),
            fleet: Fleet::new(cfg.vcus, cfg.seed, cfg.health),
            ladder: Ladder::new(cfg.degrade.clone()),
            reviving_events: jobs.len() + faults.len(),
            jobs: jobs.into_iter().map(submit).collect(),
            free_slots: Vec::new(),
            submitted,
            shapes,
            tally,
            pending: Default::default(),
            blocked: Blocked::default(),
            rng: Rng::seed_from_u64(cfg.seed),
            running_per_pool: [0; 3],
            open_world: false,
            resolutions: Vec::new(),
            telemetry: Registry::disabled(),
            cfg,
        }
    }

    /// Switches the simulator into open-world mode: jobs may be
    /// injected at any time via [`ClusterSim::inject_job`], recurring
    /// events keep rescheduling even while no job is unresolved, and
    /// every resolution is logged for [`ClusterSim::drain_resolutions`].
    /// Drive it with [`ClusterSim::step`] / [`ClusterSim::next_event_time`]
    /// and close with [`ClusterSim::finish`]; `run()` would spin on the
    /// recurring events.
    pub fn open_world(mut self) -> Self {
        self.open_world = true;
        self
    }

    /// Attaches a telemetry registry. Counters, per-pool utilization
    /// series, job spans, and fault/quarantine events are then recorded
    /// against the DES sim clock (never wall-clock), so same-seed runs
    /// produce bit-identical snapshots.
    pub fn with_telemetry(mut self, telemetry: Registry) -> Self {
        self.set_telemetry(telemetry);
        self
    }

    /// Non-consuming form of [`ClusterSim::with_telemetry`], for
    /// drivers that hold the simulator as a field.
    pub fn set_telemetry(&mut self, telemetry: Registry) {
        self.telemetry = telemetry;
    }

    /// Runs to completion (all jobs resolved or event queue exhausted)
    /// and returns the report.
    pub fn run(mut self) -> ClusterReport {
        while self.step() {}
        self.finish()
    }

    /// Submits one more job to an open-world simulator. `arrival_s`
    /// must not precede the current sim time. Returns the job's
    /// submission ordinal — `0, 1, 2, …` in submission order, counting
    /// the up-front job vector first — which [`JobResolution::job`]
    /// reports. The job's storage is freed when it resolves, so an
    /// open world holds state for the work in flight only.
    pub fn inject_job(&mut self, spec: JobSpec) -> usize {
        let ordinal = ordinal(self.submitted);
        let j = match self.free_slots.pop() {
            Some(slot) => slot as usize,
            None => self.jobs.len(),
        };
        self.queue
            .schedule_on(ARRIVAL_LANE, spec.arrival_s, Event::Arrival(j));
        self.reviving_events += 1;
        self.submitted += 1;
        let shape = self.shapes.shape_of(&spec.job, &self.cfg.model);
        let video_slot = self.tally.submitted(spec.video_id);
        let state = JobState::new(&spec, shape, video_slot, ordinal);
        match self.jobs.get_mut(j) {
            Some(slot) => *slot = state,
            None => self.jobs.push(state),
        }
        ordinal as usize
    }

    /// Time of the next pending event, if any — the merge point for a
    /// driver interleaving this queue with its own.
    pub fn next_event_time(&self) -> Option<f64> {
        self.peek_next().map(|next| next.time())
    }

    /// The next event: the earliest of the next batch arrival and the
    /// queue's head.
    fn peek_next(&self) -> Option<Next> {
        let head = self.queue.peek();
        match self.arrivals.peek() {
            // Batch arrival `j` was reserved as `(arrival_s, j)`.
            Some(j) => {
                let time = self.jobs[j].arrival_s;
                Some(match head {
                    Some(h) if h.before(time, j as u64) => Next::Queued(h),
                    _ => Next::Arrival(j, time),
                })
            }
            None => head.map(Next::Queued),
        }
    }

    /// Handles the next event if there is one and `due` accepts its
    /// time, looking at the lane heads once; returns whether it did.
    fn step_if(&mut self, due: impl FnOnce(f64) -> bool) -> bool {
        let Some(next) = self.peek_next().filter(|next| due(next.time())) else {
            return false;
        };
        let (time, event) = match next {
            Next::Arrival(j, time) => {
                self.queue.advance_to(time, j as u64);
                self.arrivals.next += 1;
                (time, Event::Arrival(j))
            }
            Next::Queued(head) => {
                let ev = self.queue.take(head);
                (ev.time, ev.event)
            }
        };
        self.handle_event(time, event);
        true
    }

    /// Current sim time (time of the last processed event).
    pub fn now(&self) -> f64 {
        self.queue.now()
    }

    /// Jobs submitted so far whose terminal state is still open.
    pub fn unresolved_jobs(&self) -> u64 {
        self.submitted as u64 - self.tally.resolved()
    }

    /// Processes exactly one event, the earliest of the next batch
    /// arrival and the queue's head. Returns false when neither is
    /// left.
    pub fn step(&mut self) -> bool {
        self.step_if(|_| true)
    }

    /// Takes the job resolutions accumulated since the last call
    /// (open-world mode; empty otherwise), in resolution order. The
    /// buffer keeps its capacity, so draining after every step costs no
    /// allocation.
    pub fn drain_resolutions(&mut self) -> std::vec::Drain<'_, JobResolution> {
        self.resolutions.drain(..)
    }

    /// Processes every event with time ≤ `t` (epoch-stepping for
    /// drivers that interleave many open-world cells). The sim clock
    /// never passes `t`, so jobs injected afterwards may arrive at any
    /// time ≥ `t`.
    pub fn run_until(&mut self, t: f64) {
        while self.step_if(|next| next <= t) {}
    }

    /// Jobs waiting across all priority classes (the backlog an
    /// admission controller reads).
    pub fn backlog_jobs(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }

    /// Workers currently usable (active management state and a chip
    /// that accepts work) — the denominator of backlog pressure.
    pub fn usable_worker_count(&self) -> usize {
        self.fleet.usable_count()
    }

    /// Final accounting: consumes the simulator and returns the report.
    /// `run()` calls this after the queue drains; open-world drivers
    /// call it directly once their own workload is exhausted (the
    /// recurring events would keep an open-world queue alive forever).
    pub fn finish(self) -> ClusterReport {
        let report = self.tally.into_report(self.fleet.quarantined_count());
        self.telemetry.gauge_set(
            "cluster.blast_radius.mean_vcus_per_video",
            report.mean_vcus_per_video,
        );
        self.telemetry
            .gauge_set("cluster.horizon_s", report.horizon_s);
        self.telemetry.gauge_set(
            "cluster.workers.quarantined",
            report.quarantined_workers as f64,
        );
        report
    }

    /// True while recurring events (sampling, ECC ticks, golden
    /// screens) should keep rescheduling: always in open-world mode,
    /// else only while some job is unresolved.
    fn recurring_live(&self) -> bool {
        self.open_world || self.unresolved_jobs() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcu_chip::TranscodeJob;
    use vcu_codec::Profile;
    use vcu_media::Resolution;

    pub(super) fn upload_jobs(n: usize, spacing_s: f64, mot: bool) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                arrival_s: i as f64 * spacing_s,
                job: if mot {
                    TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0)
                } else {
                    TranscodeJob::sot(
                        Resolution::R1080,
                        Resolution::R720,
                        Profile::Vp9Sim,
                        30.0,
                        5.0,
                    )
                },
                priority: Priority::Normal,
                video_id: 0,
            })
            .collect()
    }

    #[test]
    fn all_jobs_complete_on_healthy_cluster() {
        let cfg = ClusterConfig {
            vcus: 4,
            ..ClusterConfig::default()
        };
        let report = ClusterSim::new(cfg, upload_jobs(50, 0.5, true), vec![]).run();
        assert_eq!(report.completed, 50);
        assert_eq!(report.failed, 0);
        assert_eq!(report.escaped_corruptions, 0);
        assert!(report.total_output_mpix > 0.0);
    }

    #[test]
    fn deterministic_runs() {
        let cfg = ClusterConfig {
            vcus: 3,
            ..ClusterConfig::default()
        };
        let a = ClusterSim::new(cfg.clone(), upload_jobs(30, 1.0, true), vec![]).run();
        let b = ClusterSim::new(cfg, upload_jobs(30, 1.0, true), vec![]).run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.total_output_mpix, b.total_output_mpix);
        assert_eq!(a.attempts_per_worker, b.attempts_per_worker);
    }

    #[test]
    fn telemetry_counters_match_report() {
        let reg = Registry::new();
        let cfg = ClusterConfig {
            vcus: 4,
            detection_rate: 1.0,
            ..ClusterConfig::default()
        };
        let faults = vec![FaultInjection {
            time_s: 0.0,
            worker: 0,
            kind: FaultKind::SilentCorruption,
        }];
        let report = ClusterSim::new(cfg, upload_jobs(60, 0.2, true), faults)
            .with_telemetry(reg.clone())
            .run();
        assert_eq!(reg.counter("cluster.jobs.completed"), report.completed);
        assert_eq!(reg.counter("cluster.jobs.failed"), report.failed);
        assert_eq!(reg.counter("cluster.retries"), report.retries);
        assert_eq!(
            reg.counter("cluster.corruption.caught"),
            report.caught_corruptions
        );
        assert_eq!(
            reg.counter("cluster.corruption.escaped"),
            report.escaped_corruptions
        );
        assert_eq!(
            reg.counter("cluster.attempts"),
            report.attempts_per_worker.iter().sum::<u64>()
        );
        // The quarantine shows up as both a counter and a trace event.
        assert_eq!(reg.counter("cluster.quarantine"), 1);
        assert_eq!(reg.events_named("cluster.quarantine").len(), 1);
        assert_eq!(reg.events_named("cluster.fault.silent_corruption").len(), 1);
        // Utilization series carry one point per sample.
        let util = reg.series("cluster.util.encode").expect("series recorded");
        assert_eq!(util.len(), report.samples.len());
        // Job spans cover every resolved job.
        let spans = reg.events_named("cluster.job");
        assert_eq!(spans.len() as u64, report.completed);
        assert!(spans.iter().all(|e| e.end_s >= e.start_s && e.value >= 1.0));
    }

    #[test]
    fn disabled_telemetry_changes_nothing() {
        let cfg = ClusterConfig {
            vcus: 3,
            ..ClusterConfig::default()
        };
        let plain = ClusterSim::new(cfg.clone(), upload_jobs(30, 1.0, true), vec![]).run();
        let traced = ClusterSim::new(cfg, upload_jobs(30, 1.0, true), vec![])
            .with_telemetry(Registry::new())
            .run();
        assert_eq!(plain.completed, traced.completed);
        assert_eq!(plain.total_output_mpix, traced.total_output_mpix);
        assert_eq!(plain.attempts_per_worker, traced.attempts_per_worker);
        assert_eq!(plain.mean_vcus_per_video, traced.mean_vcus_per_video);
    }

    #[test]
    fn samples_are_collected() {
        let cfg = ClusterConfig {
            vcus: 4,
            sample_period_s: 5.0,
            ..ClusterConfig::default()
        };
        let report = ClusterSim::new(cfg, upload_jobs(100, 0.5, true), vec![]).run();
        assert!(report.samples.len() >= 5);
        assert!(report.samples.iter().any(|s| s.encode_util > 0.0));
    }

    #[test]
    fn open_world_injection_matches_batch_run() {
        // The same workload submitted up front (closed world, run())
        // and injected incrementally (open world, step()) must resolve
        // the same jobs with the same outcomes.
        let cfg = ClusterConfig {
            vcus: 3,
            ..ClusterConfig::default()
        };
        let jobs = upload_jobs(40, 0.5, true);
        // The batch arrivals never enter the event queue, yet the clock
        // and `next_event_time` follow them like any other event: the
        // first completion is at 5.0, so the second event is the
        // arrival at 0.5.
        let mut batch = ClusterSim::new(cfg.clone(), jobs.clone(), vec![]);
        assert_eq!(batch.next_event_time(), Some(0.0));
        assert!(batch.step() && batch.step());
        assert_eq!(batch.now(), 0.5);
        while let Some(next) = batch.next_event_time() {
            assert!(batch.step());
            assert_eq!(batch.now(), next);
        }
        let batch = batch.finish();

        let mut sim = ClusterSim::new(cfg, vec![], vec![]).open_world();
        let mut resolutions = Vec::new();
        let mut pending = jobs.into_iter().peekable();
        loop {
            // Inject each job no later than its arrival time, stepping
            // the cluster in between — the serving front end's pattern.
            while let Some(spec) = pending.peek() {
                let next = sim.next_event_time().unwrap_or(f64::INFINITY);
                if spec.arrival_s <= next {
                    let spec = pending.next().unwrap();
                    sim.inject_job(spec);
                } else {
                    break;
                }
            }
            if sim.unresolved_jobs() == 0 && pending.peek().is_none() {
                break;
            }
            assert!(sim.step(), "queue exhausted with jobs outstanding");
            resolutions.extend(sim.drain_resolutions());
        }
        let report = sim.finish();
        assert_eq!(report.completed, batch.completed);
        assert_eq!(report.failed, batch.failed);
        assert_eq!(report.total_output_mpix, batch.total_output_mpix);
        assert_eq!(resolutions.len() as u64, report.completed + report.failed);
        assert!(resolutions.iter().all(|r| r.completed));
        // Resolutions surface in event order.
        assert!(resolutions.windows(2).all(|w| w[0].time_s <= w[1].time_s));
    }

    #[test]
    #[should_panic(expected = "event time is NaN")]
    fn a_nan_batch_arrival_is_rejected() {
        let mut jobs = upload_jobs(3, 1.0, true);
        jobs[1].arrival_s = f64::NAN;
        ClusterSim::new(ClusterConfig::default(), jobs, vec![]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past: -1 < 0")]
    fn a_negative_batch_arrival_is_rejected() {
        let mut jobs = upload_jobs(3, 1.0, true);
        jobs[2].arrival_s = -1.0;
        ClusterSim::new(ClusterConfig::default(), jobs, vec![]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past: 1.5 < 2")]
    fn injecting_behind_a_batch_arrival_is_rejected() {
        // Nothing but batch arrivals has happened by 2.0, so the clock
        // the door check reads was moved by the cursor alone.
        let mut sim = ClusterSim::new(ClusterConfig::default(), upload_jobs(4, 1.0, true), vec![])
            .open_world();
        sim.run_until(2.0);
        sim.inject_job(upload_jobs(2, 1.5, true).remove(1));
    }

    #[test]
    fn an_unsorted_batch_runs_like_its_sorted_self() {
        // Arrival order, not vector order, decides the run: reversing
        // the vector (distinct times, one shape) changes job indices
        // and nothing else.
        let cfg = ClusterConfig {
            vcus: 2,
            sample_period_s: 5.0,
            ..ClusterConfig::default()
        };
        let sorted = upload_jobs(30, 0.4, true);
        let reversed: Vec<JobSpec> = sorted.iter().rev().cloned().collect();
        let a = ClusterSim::new(cfg.clone(), sorted, vec![]).run();
        let b = ClusterSim::new(cfg, reversed, vec![]).run();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn closed_world_run_logs_no_resolutions() {
        let cfg = ClusterConfig {
            vcus: 2,
            ..ClusterConfig::default()
        };
        let mut sim = ClusterSim::new(cfg, upload_jobs(10, 0.5, true), vec![]);
        while sim.step() {}
        assert_eq!(sim.drain_resolutions().len(), 0);
        let report = sim.finish();
        assert_eq!(report.completed, 10);
    }

    vcu_rng::prop_cases! {
        /// The memo is storage, never a different answer: over random
        /// streams of 1–6 shapes — runs, alternations, pairs that differ
        /// only in `fps` or only in `two_pass`, a per-job chunk length,
        /// and a NaN `fps` that is unequal even to itself — submitted
        /// partly as the batch vector and partly through `inject_job`,
        /// every job holds exactly the `Shape` computed for it alone —
        /// and, through the last-video memo, its video's slot.
        #[cases(128)]
        fn stored_shapes_match_fresh_ones(rng) {
            let base = || TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, 5.0);
            let mut pool = [
                base(),
                TranscodeJob { fps: 60.0, ..base() },
                TranscodeJob { two_pass: false, ..base() },
                TranscodeJob { fps: f64::NAN, ..base() },
                TranscodeJob::sot(
                    Resolution::R1080,
                    Resolution::R480,
                    Profile::H264Sim,
                    30.0,
                    5.0,
                )
                .low_latency(),
                TranscodeJob::mot(Resolution::R720, Profile::Vp9Sim, 30.0, 10.0),
            ];
            rng.shuffle(&mut pool);
            let shapes = &pool[..rng.gen_range(1usize..=pool.len())];
            let per_job_length = rng.gen_bool(0.25);
            let (mut last, mut before) = (0, 0);
            let stream: Vec<JobSpec> = (0..rng.gen_range(1usize..200))
                .map(|i| {
                    let pick = match rng.gen_range(0..4) {
                        0 | 1 => last,
                        2 => before,
                        _ => rng.gen_range(0..shapes.len()),
                    };
                    (before, last) = (last, pick);
                    let mut job = shapes[pick].clone();
                    if per_job_length {
                        job.duration_s = rng.gen_range(1.0..20.0);
                    }
                    JobSpec {
                        arrival_s: i as f64 * 0.25,
                        job,
                        priority: Priority::Normal,
                        video_id: rng.gen_range(0u64..8),
                    }
                })
                .collect();
            let batch = rng.gen_range(0..=stream.len());
            let cfg = ClusterConfig::default();
            let mut sim = ClusterSim::new(cfg.clone(), stream[..batch].to_vec(), vec![]).open_world();
            for spec in &stream[batch..] {
                sim.inject_job(spec.clone());
            }
            assert_eq!(sim.jobs.len(), stream.len());
            // Video slots are dense, in order of first submission.
            let mut videos: Vec<u64> = Vec::new();
            for (state, spec) in sim.jobs.iter().zip(&stream) {
                let slot = videos.iter().position(|&v| v == spec.video_id).unwrap_or_else(|| {
                    videos.push(spec.video_id);
                    videos.len() - 1
                });
                assert_eq!(state.video_slot as usize, slot);
                let Shape { duration_s, output_mpix, demand } = state.shape;
                assert_eq!(duration_s.to_bits(), spec.job.duration_s.to_bits());
                assert_eq!(
                    output_mpix.to_bits(),
                    (spec.job.output_pixels() / 1e6).to_bits()
                );
                assert_eq!(demand, cfg.model.job_demand(&spec.job));
            }
        }
    }

    #[test]
    fn a_job_state_has_a_job_specs_size_and_align() {
        // Equal layouts are what let `ClusterSim::new` build the job
        // table in the caller's `JobSpec` buffer.
        use std::mem::{align_of, size_of};
        assert_eq!(size_of::<JobState>(), size_of::<JobSpec>());
        assert_eq!(align_of::<JobState>(), align_of::<JobSpec>());
    }

    #[test]
    fn attempts_and_events_are_small() {
        // Every pending event is one of these, on a lane or the heap.
        use std::mem::size_of;
        assert!(size_of::<Attempt>() <= 24, "{}", size_of::<Attempt>());
        assert!(size_of::<Event>() <= 32, "{}", size_of::<Event>());
        let queued = size_of::<crate::des::Scheduled<Event>>();
        assert!(queued <= 48, "{queued}");
    }

    #[test]
    fn an_open_world_job_table_holds_only_the_jobs_in_flight() {
        // Waves of 40 jobs, 40 s apart, on four VCUs, one hung and one
        // corrupting, so watchdogs and retries carry jobs of one wave
        // into the next: the table grows to the peak of unresolved
        // jobs and no further, although 400 jobs pass through it.
        let cfg = ClusterConfig {
            vcus: 4,
            detection_rate: 0.5,
            ..ClusterConfig::default()
        };
        let fault = |worker, kind| FaultInjection {
            time_s: 0.0,
            worker,
            kind,
        };
        let faults = vec![
            fault(0, FaultKind::FirmwareHang),
            fault(1, FaultKind::SilentCorruption),
        ];
        let mut sim = ClusterSim::new(cfg, vec![], faults).open_world();
        let mut peak = 0;
        let mut resolved = 0;
        for wave in 0..10 {
            let t = wave as f64 * 40.0;
            for mut spec in upload_jobs(40, 0.25, true) {
                spec.arrival_s += t;
                sim.inject_job(spec);
            }
            peak = peak.max(sim.unresolved_jobs());
            sim.run_until(t + 40.0);
            resolved += sim.drain_resolutions().len();
        }
        while sim.unresolved_jobs() > 0 {
            assert!(sim.step());
        }
        resolved += sim.drain_resolutions().len();
        assert_eq!(resolved, 400);
        assert!(peak > 40 && peak < 400, "the waves overlap: {peak}");
        assert_eq!(sim.jobs.len() as u64, peak);
        assert_eq!(
            sim.free_slots.len() as u64,
            peak,
            "every slot is free again"
        );
        let report = sim.finish();
        assert!(report.watchdog_fired > 0 && report.retries > 0);
    }

    #[test]
    fn ordinals_count_submissions_and_each_resolves_once() {
        // Five batch jobs, then 200 injected in bursts on reused slots:
        // handles run 5, 6, 7, … and every one resolves exactly once,
        // in the resolution log and as a telemetry span's job.
        let reg = Registry::new();
        let mut sim = ClusterSim::new(
            ClusterConfig {
                vcus: 2,
                ..ClusterConfig::default()
            },
            upload_jobs(5, 0.5, true),
            vec![],
        )
        .open_world()
        .with_telemetry(reg.clone());
        let mut seen = vec![0u32; 205];
        for burst in 0..20 {
            let t = burst as f64 * 12.0;
            for (i, mut spec) in upload_jobs(10, 0.1, true).into_iter().enumerate() {
                spec.arrival_s += t;
                assert_eq!(sim.inject_job(spec), 5 + burst * 10 + i);
            }
            sim.run_until(t + 12.0);
            for r in sim.drain_resolutions() {
                seen[r.job] += 1;
            }
        }
        while sim.unresolved_jobs() > 0 {
            assert!(sim.step());
        }
        for r in sim.drain_resolutions() {
            seen[r.job] += 1;
        }
        assert!(sim.jobs.len() < 50, "slots were reused: {}", sim.jobs.len());
        assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
        let mut spans: Vec<u64> = reg
            .events_named("cluster.job")
            .iter()
            .map(|e| e.scope.job.expect("a job span names its job"))
            .collect();
        spans.sort_unstable();
        assert_eq!(spans, (0..205).collect::<Vec<u64>>());
    }

    #[test]
    fn the_job_table_reuses_the_job_spec_buffer() {
        let jobs = upload_jobs(100, 0.5, true);
        let buffer = jobs.as_ptr().cast::<u8>();
        let sim = ClusterSim::new(ClusterConfig::default(), jobs, vec![]);
        assert_eq!(sim.jobs.as_ptr().cast::<u8>(), buffer);
    }

    #[test]
    #[should_panic(expected = "invalid ClusterConfig: sample_period_s must be finite and > 0")]
    fn a_zero_sample_period_panics_instead_of_livelocking() {
        // `Sample` would reschedule itself at `now` forever while a job
        // is unresolved.
        let cfg = ClusterConfig {
            sample_period_s: 0.0,
            ..ClusterConfig::default()
        };
        ClusterSim::new(cfg, upload_jobs(1, 0.0, true), vec![]);
    }
}
