//! `vcu-exec`: the persistent work-stealing executor behind every
//! multi-core path in the workspace (chunk-parallel encoding, the
//! fault-campaign cell sweep, bench repetitions).
//!
//! The paper's fleet throughput comes from keeping a fixed worker set
//! saturated with independent chunks (§3), not from spawning threads
//! per request. This crate is that discipline in miniature: a process
//! lives with one [`Pool`] of persistent workers, callers submit
//! *batches* of independent tasks, and the pool returns results in
//! task-index order — so output is byte-identical to sequential
//! execution for any worker count, while wall-clock tracks the
//! critical path instead of the worst static share.
//!
//! # Architecture
//!
//! A batch of `n` tasks at parallelism `p` is seeded round-robin into
//! `p` *lane* deques (task `i` starts in lane `i % p` — the old static
//! assignment survives only as the initial distribution). The batch is
//! then published to the shared injector, where idle workers claim
//! lanes. Each participant pops its own lane **LIFO** (back) and, when
//! empty, steals **FIFO** (front) from sibling lanes — oldest-first
//! stealing moves the biggest remaining prefix of work, which is what
//! erases the tail imbalance of static round-robin (the last partial
//! chunk, the variable-cost fault-campaign cell).
//!
//! The submitting thread always participates as lane 0, which makes
//! the pool deadlock-free by construction: even with zero free
//! workers the caller drains its whole batch by stealing. It also
//! means parallelism 1 never crosses a thread boundary.
//!
//! # Determinism
//!
//! Tasks share nothing and every result lands in its own index-ordered
//! slot, so scheduling order — however steal-heavy — cannot perturb
//! what the caller observes. Panics are *joined*: the batch always
//! runs to completion, then the panic of the lowest-index failed task
//! is re-raised via [`std::panic::resume_unwind`].
//!
//! # Telemetry
//!
//! The pool meters itself (push/steal counters, queue-depth samples,
//! per-worker busy time, wall-clock `exec.tasks` spans) into internal
//! buffers. These are wall-clock facts and therefore *not*
//! deterministic, so they are never written into a caller's registry
//! implicitly; call [`Pool::record_telemetry`] to dump them into a
//! registry whose snapshot is allowed to vary run-to-run (the bench
//! harness does this for every `*_telemetry.json` sibling).
#![deny(clippy::undocumented_unsafe_blocks)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;
use vcu_telemetry::{Registry, Scope};

/// Hard ceiling on spawned worker threads (the caller thread is free).
const MAX_WORKERS: usize = 64;
/// Cap on detailed telemetry samples (spans, busy stints, depth
/// samples) retained per pool; counters keep counting past it.
const DETAIL_CAP: usize = 4096;

/// Reads the `VCU_THREADS` environment variable: the fleet-style
/// parallelism knob shared by chunk-parallel encoding, the campaign
/// sweep, and bench repetitions. Unset, empty, unparsable, or zero all
/// fall back to 1 (sequential).
pub fn env_threads() -> usize {
    std::env::var("VCU_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// The process-wide pool. Workers are spawned lazily up to the highest
/// parallelism ever requested and then persist for the process
/// lifetime, parked on a condvar between batches.
pub fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(Pool::new)
}

/// An erased, lifetime-laundered task plus its pool-lifetime id (used
/// only to label telemetry spans).
type Job = (u64, Box<dyn FnOnce() + Send + 'static>);

/// One published batch: `p` lane deques plus completion bookkeeping.
struct BatchCore {
    /// Per-participant deques; own pops are LIFO, steals FIFO.
    lanes: Vec<Mutex<VecDeque<Job>>>,
    /// Tasks not yet finished.
    remaining: AtomicUsize,
    /// Completion latch the submitter blocks on.
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl BatchCore {
    fn new(p: usize, n: usize) -> Self {
        BatchCore {
            lanes: (0..p).map(|_| Mutex::new(VecDeque::new())).collect(),
            remaining: AtomicUsize::new(n),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }

    /// Marks one task finished; the last one flips the latch. The
    /// AcqRel RMW chain on `remaining` is what publishes every task's
    /// slot write to the submitter before it reads results.
    fn finish_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.done.lock().expect("done latch") = true;
            self.done_cv.notify_all();
        }
    }

    fn wait_done(&self) {
        let mut done = self.done.lock().expect("done latch");
        while !*done {
            done = self.done_cv.wait(done).expect("done latch");
        }
    }
}

/// A batch sitting in the shared injector with lanes still unclaimed.
struct Pending {
    batch: Arc<BatchCore>,
    next_lane: usize,
}

struct PoolState {
    /// The shared injector: batches whose lanes workers can still claim.
    injector: VecDeque<Pending>,
    /// Spawned worker threads (the submitting thread is id 0).
    workers: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
    shutdown: bool,
}

/// Pool-lifetime scheduler metering. Counters are cheap atomics on the
/// per-task path; the detailed buffers are bounded by [`DETAIL_CAP`].
struct Stats {
    pushes: AtomicU64,
    steals: AtomicU64,
    own_pops: AtomicU64,
    tasks: AtomicU64,
    batches: AtomicU64,
    next_task_id: AtomicU64,
    /// Tasks pushed but not yet started, across all live batches.
    queued: AtomicUsize,
    detail: Mutex<Detail>,
}

#[derive(Default)]
struct Detail {
    /// (worker, busy ms) per lane stint.
    busy_ms: Vec<(usize, f64)>,
    /// (elapsed s since pool creation, queued tasks) at task starts.
    depth: Vec<(f64, f64)>,
    /// (task id, worker, start s, end s) wall-clock execution spans.
    spans: Vec<(u64, usize, f64, f64)>,
}

struct Shared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    epoch: Instant,
    stats: Stats,
}

/// A persistent work-stealing worker pool. Most code should use the
/// process-wide [`pool()`]; tests construct private instances.
pub struct Pool {
    shared: Arc<Shared>,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

/// Writes `Some(result)` into a result slot it does not own by Rust
/// lifetime rules; soundness is the batch barrier (see `run_batch`).
struct SlotPtr<T>(*const Mutex<Option<std::thread::Result<T>>>);
// SAFETY: the pointee is only accessed by the one task holding the
// pointer (unique index) and by the submitter strictly after the
// completion latch, so sending the pointer across threads is safe
// whenever the result itself is.
unsafe impl<T: Send> Send for SlotPtr<T> {}

/// Blocks until the batch completes, *even if the submitting frame
/// unwinds* — the borrows captured by still-running tasks must not be
/// invalidated by an early return.
struct WaitGuard<'a> {
    batch: &'a BatchCore,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.batch.wait_done();
    }
}

impl Pool {
    /// Creates an empty pool; workers spawn lazily on first demand.
    pub fn new() -> Self {
        Pool {
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState {
                    injector: VecDeque::new(),
                    workers: 0,
                    handles: Vec::new(),
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                epoch: Instant::now(),
                stats: Stats {
                    pushes: AtomicU64::new(0),
                    steals: AtomicU64::new(0),
                    own_pops: AtomicU64::new(0),
                    tasks: AtomicU64::new(0),
                    batches: AtomicU64::new(0),
                    next_task_id: AtomicU64::new(0),
                    queued: AtomicUsize::new(0),
                    detail: Mutex::new(Detail::default()),
                },
            }),
        }
    }

    /// Runs `tasks` at the given parallelism and returns their results
    /// **in task-index order**, exactly as a sequential
    /// `tasks.into_iter().map(|t| t()).collect()` would — scheduling
    /// can never reorder or perturb what the caller observes.
    ///
    /// `parallelism` bounds concurrency for this batch only (clamped to
    /// `1..=tasks.len()`); the submitting thread always participates,
    /// so parallelism `p` occupies the caller plus at most `p - 1`
    /// pool workers. At parallelism 1 the batch runs inline on the
    /// caller with no queues or locks touched.
    ///
    /// # Panics
    ///
    /// If tasks panic, the batch still runs to completion (all sibling
    /// tasks finish — nothing is cancelled or leaked mid-scope), then
    /// the panic payload of the *lowest-index* failed task is re-raised
    /// on the caller. At parallelism 1 a panic propagates immediately,
    /// matching plain sequential iteration.
    pub fn run_batch<T, F>(&self, parallelism: usize, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let p = parallelism.max(1).min(n);
        if p == 1 {
            return tasks.into_iter().map(|t| t()).collect();
        }
        self.ensure_workers(p - 1);
        let stats = &self.shared.stats;
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats.pushes.fetch_add(n as u64, Ordering::Relaxed);
        stats.queued.fetch_add(n, Ordering::Relaxed);
        let base_id = stats.next_task_id.fetch_add(n as u64, Ordering::Relaxed);

        type Slot<T> = Mutex<Option<std::thread::Result<T>>>;
        let slots: Vec<Slot<T>> = (0..n).map(|_| Mutex::new(None)).collect();
        let batch = Arc::new(BatchCore::new(p, n));
        for (i, task) in tasks.into_iter().enumerate() {
            let slot = SlotPtr(&slots[i] as *const Slot<T>);
            let core = Arc::clone(&batch);
            // Completion is signalled by `run_lane` (not here) so that
            // per-task metering lands before the batch latch flips —
            // otherwise a telemetry dump could race lagging samples.
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                // Capture the whole wrapper, not its raw-pointer field
                // (disjoint capture would sidestep SlotPtr's Send).
                let slot = slot;
                let _core = core; // keep the batch alive through the task
                let result = catch_unwind(AssertUnwindSafe(task));
                // SAFETY: unique writer (one task per slot); the
                // submitter reads only after the completion latch.
                unsafe {
                    *(*slot.0).lock().expect("result slot") = Some(result);
                }
            });
            // SAFETY: `WaitGuard` below guarantees this frame does not
            // return (normally or by unwinding) until every job has run
            // and dropped, so the non-'static borrows captured by
            // `task` and `slot` strictly outlive all uses.
            let job: Box<dyn FnOnce() + Send + 'static> = unsafe {
                std::mem::transmute::<
                    Box<dyn FnOnce() + Send + '_>,
                    Box<dyn FnOnce() + Send + 'static>,
                >(job)
            };
            batch.lanes[i % p]
                .lock()
                .expect("lane")
                .push_back((base_id + i as u64, job));
        }

        {
            let _barrier = WaitGuard { batch: &batch };
            {
                let mut st = self.shared.state.lock().expect("pool state");
                st.injector.push_back(Pending {
                    batch: Arc::clone(&batch),
                    next_lane: 1, // lane 0 is the submitter's
                });
            }
            self.shared.work_cv.notify_all();
            run_lane(&self.shared, &batch, 0, 0);
            // `_barrier` drops here, blocking until `remaining == 0`.
        }

        let mut out = Vec::with_capacity(n);
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        for slot in slots {
            match slot
                .into_inner()
                .expect("result slot")
                .expect("batch barrier guarantees every task ran")
            {
                Ok(v) => out.push(v),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        out
    }

    /// Spawns workers until `needed` are alive (capped at
    /// [`MAX_WORKERS`]). Idle workers park on the injector condvar, so
    /// over-provisioning costs memory, not CPU.
    fn ensure_workers(&self, needed: usize) {
        let needed = needed.min(MAX_WORKERS);
        let mut st = self.shared.state.lock().expect("pool state");
        while st.workers < needed {
            st.workers += 1;
            let id = st.workers; // submitter is 0, workers are 1..
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("vcu-exec-{id}"))
                .spawn(move || worker_main(&shared, id))
                .expect("spawn vcu-exec worker");
            st.handles.push(handle);
        }
    }

    /// Worker threads currently alive (not counting submitters).
    pub fn workers_spawned(&self) -> usize {
        self.shared.state.lock().expect("pool state").workers
    }

    /// Total tasks the pool has executed.
    pub fn tasks_executed(&self) -> u64 {
        self.shared.stats.tasks.load(Ordering::Relaxed)
    }

    /// Tasks obtained by stealing from a sibling lane.
    pub fn tasks_stolen(&self) -> u64 {
        self.shared.stats.steals.load(Ordering::Relaxed)
    }

    /// Dumps the pool's scheduler metering into `reg`:
    /// `exec.{pushes,steals,pops.own,tasks.completed,batches}`
    /// counters, an `exec.workers` gauge, the `exec.worker.busy_ms`
    /// per-stint busy-time histogram, the `exec.queue.depth` series
    /// (sampled at task starts, seconds since pool creation), and
    /// wall-clock `exec.tasks` spans scoped by task id and worker.
    ///
    /// These are wall-clock measurements — **not** deterministic across
    /// runs — which is why they are pulled explicitly instead of being
    /// written into the registries that deterministic paths snapshot.
    pub fn record_telemetry(&self, reg: &Registry) {
        if !reg.is_enabled() {
            return;
        }
        let s = &self.shared.stats;
        reg.counter_add("exec.pushes", s.pushes.load(Ordering::Relaxed));
        reg.counter_add("exec.steals", s.steals.load(Ordering::Relaxed));
        reg.counter_add("exec.pops.own", s.own_pops.load(Ordering::Relaxed));
        reg.counter_add("exec.tasks.completed", s.tasks.load(Ordering::Relaxed));
        reg.counter_add("exec.batches", s.batches.load(Ordering::Relaxed));
        reg.gauge_set("exec.workers", self.workers_spawned() as f64);
        let d = s.detail.lock().expect("stats detail");
        for &(_, ms) in &d.busy_ms {
            reg.observe("exec.worker.busy_ms", ms);
        }
        for &(t, v) in &d.depth {
            reg.series_record("exec.queue.depth", t, v);
        }
        for &(id, worker, start, end) in &d.spans {
            reg.span(
                "exec.tasks",
                Scope::job(id).with_vcu(worker as u32),
                start,
                end,
                1.0,
            );
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let handles = {
            let mut st = self.shared.state.lock().expect("pool state");
            st.shutdown = true;
            std::mem::take(&mut st.handles)
        };
        self.shared.work_cv.notify_all();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Claims the next unclaimed lane from the injector, pruning batches
/// that already completed.
fn claim_lane(st: &mut PoolState) -> Option<(Arc<BatchCore>, usize)> {
    while let Some(front) = st.injector.front_mut() {
        if front.batch.remaining.load(Ordering::Acquire) == 0 {
            st.injector.pop_front();
            continue;
        }
        let lane = front.next_lane;
        front.next_lane += 1;
        let batch = Arc::clone(&front.batch);
        if front.next_lane >= batch.lanes.len() {
            st.injector.pop_front();
        }
        return Some((batch, lane));
    }
    None
}

fn worker_main(shared: &Arc<Shared>, worker_id: usize) {
    loop {
        let (batch, lane) = {
            let mut st = shared.state.lock().expect("pool state");
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(claim) = claim_lane(&mut st) {
                    break claim;
                }
                st = shared.work_cv.wait(st).expect("pool state");
            }
        };
        run_lane(shared, &batch, lane, worker_id);
    }
}

/// Works one lane of a batch to exhaustion: own lane LIFO, then steal
/// FIFO from sibling lanes in cyclic order. Returns when no queued
/// task remains anywhere in the batch (tasks still *running* on other
/// participants are theirs to finish).
fn run_lane(shared: &Shared, batch: &BatchCore, lane: usize, worker_id: usize) {
    let p = batch.lanes.len();
    let stint = Instant::now();
    let mut ran = 0u64;
    loop {
        let mut job = batch.lanes[lane].lock().expect("lane").pop_back();
        if job.is_some() {
            shared.stats.own_pops.fetch_add(1, Ordering::Relaxed);
        } else {
            for victim in (lane + 1..p).chain(0..lane) {
                if let Some(j) = batch.lanes[victim].lock().expect("lane").pop_front() {
                    shared.stats.steals.fetch_add(1, Ordering::Relaxed);
                    job = Some(j);
                    break;
                }
            }
        }
        let Some((task_id, job)) = job else { break };
        let depth = shared.stats.queued.fetch_sub(1, Ordering::Relaxed) - 1;
        let start_s = shared.epoch.elapsed().as_secs_f64();
        job();
        let end_s = shared.epoch.elapsed().as_secs_f64();
        ran += 1;
        {
            let mut d = shared.stats.detail.lock().expect("stats detail");
            if d.depth.len() < DETAIL_CAP {
                d.depth.push((start_s, depth as f64));
            }
            if d.spans.len() < DETAIL_CAP {
                d.spans.push((task_id, worker_id, start_s, end_s));
            }
        }
        shared.stats.tasks.fetch_add(1, Ordering::Relaxed);
        // Everything above must precede this: the submitter may return
        // (and dump telemetry) the moment the last task finishes.
        batch.finish_one();
    }
    if ran > 0 {
        let mut d = shared.stats.detail.lock().expect("stats detail");
        if d.busy_ms.len() < DETAIL_CAP {
            d.busy_ms
                .push((worker_id, stint.elapsed().as_secs_f64() * 1e3));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_index_order() {
        let pool = Pool::new();
        let tasks: Vec<_> = (0..64usize)
            .map(|i| {
                move || {
                    // Later tasks finish first, so execution order and
                    // result order genuinely decouple.
                    std::thread::sleep(Duration::from_micros((64 - i) as u64 * 10));
                    i * i
                }
            })
            .collect();
        let out = pool.run_batch(4, tasks);
        assert_eq!(out, (0..64usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallelism_one_runs_inline_on_the_caller() {
        let pool = Pool::new();
        let caller = std::thread::current().id();
        let out = pool.run_batch(
            1,
            (0..5)
                .map(|i| move || (i, std::thread::current().id()))
                .collect(),
        );
        assert!(out.iter().all(|&(_, tid)| tid == caller));
        assert_eq!(pool.workers_spawned(), 0, "no threads for sequential work");
    }

    #[test]
    fn parallelism_exceeding_task_count_is_clamped() {
        let pool = Pool::new();
        let out = pool.run_batch(8, (0..3usize).map(|i| move || i + 1).collect());
        assert_eq!(out, vec![1, 2, 3]);
        assert!(pool.workers_spawned() <= 2);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = Pool::new();
        let out: Vec<u32> = pool.run_batch(4, Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn borrows_survive_the_batch() {
        // Tasks borrow caller-stack data; the barrier keeps it alive.
        let pool = Pool::new();
        let data: Vec<u64> = (0..100).collect();
        let chunks: Vec<&[u64]> = data.chunks(13).collect();
        let sums = pool.run_batch(
            3,
            chunks
                .iter()
                .map(|c| move || c.iter().sum::<u64>())
                .collect(),
        );
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn panic_joins_all_siblings_then_propagates_lowest_index() {
        let pool = Pool::new();
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_batch(
                4,
                (0..8usize)
                    .map(|i| {
                        let completed = &completed;
                        move || {
                            if i == 2 {
                                std::panic::panic_any("boom-2");
                            }
                            if i == 5 {
                                // Panics *before* task 2 does, but task
                                // 2 wins propagation by index.
                                std::panic::panic_any("boom-5");
                            }
                            std::thread::sleep(Duration::from_millis(5));
                            completed.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                    .collect(),
            )
        }));
        let payload = result.expect_err("batch must re-raise the panic");
        assert_eq!(*payload.downcast_ref::<&str>().unwrap(), "boom-2");
        assert_eq!(
            completed.load(Ordering::SeqCst),
            6,
            "every non-panicking sibling must run to completion first"
        );
    }

    #[test]
    fn steal_heavy_schedules_do_not_perturb_results() {
        // Many tiny tasks across many workers: maximal scheduling
        // nondeterminism, identical observable output every time.
        let pool = Pool::new();
        let reference: Vec<u64> = (0..200u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        for round in 0..5 {
            let out = pool.run_batch(
                8,
                (0..200u64)
                    .map(|i| move || i.wrapping_mul(0x9E37))
                    .collect(),
            );
            assert_eq!(out, reference, "round {round} diverged");
        }
        assert_eq!(pool.tasks_executed(), 1000);
    }

    #[test]
    fn unbalanced_batch_tracks_critical_path_not_static_share() {
        // Thirteen tasks at parallelism 4: task 12 is 4x the others and
        // pins lane 0 (LIFO pops it first), leaving three small tasks
        // queued behind it. Static round-robin would serialize lane 0
        // at 400 + 3x100 = 700 ms; stealing must redistribute the
        // queued smalls so wall-clock tracks the ~400 ms critical
        // path. Sleep-based work parallelizes even on a 1-core host,
        // so this regression test is host-independent.
        let pool = Pool::new();
        let t0 = Instant::now();
        pool.run_batch(
            4,
            (0..13u64)
                .map(|i| {
                    move || {
                        let ms = if i == 12 { 400 } else { 100 };
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                })
                .collect(),
        );
        let wall = t0.elapsed();
        assert!(
            wall >= Duration::from_millis(400),
            "critical path is a lower bound"
        );
        assert!(
            wall < Duration::from_millis(550),
            "wall-clock {wall:?} tracks the static share (~700 ms), not \
             the critical path: lane 0's queued tasks were never stolen"
        );
        assert!(pool.tasks_stolen() > 0, "the fix-up must be actual steals");
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        let pool = pool(); // the global pool, shared workers
        let out = pool.run_batch(
            2,
            (0..2u64)
                .map(|i| {
                    move || {
                        super::pool()
                            .run_batch(2, (0..4u64).map(|j| move || i * 10 + j).collect())
                            .iter()
                            .sum::<u64>()
                    }
                })
                .collect(),
        );
        assert_eq!(out, vec![6, 46]);
    }

    #[test]
    fn workers_persist_across_batches() {
        let pool = Pool::new();
        pool.run_batch(3, (0..6u32).map(|i| move || i).collect());
        let after_first = pool.workers_spawned();
        assert_eq!(after_first, 2);
        for _ in 0..10 {
            pool.run_batch(3, (0..6u32).map(|i| move || i).collect());
        }
        assert_eq!(
            pool.workers_spawned(),
            after_first,
            "batches reuse the persistent worker set"
        );
    }

    #[test]
    fn telemetry_dump_carries_scheduler_metering() {
        let pool = Pool::new();
        pool.run_batch(
            4,
            (0..32u64)
                .map(|i| {
                    move || {
                        std::thread::sleep(Duration::from_millis(1 + i % 3));
                    }
                })
                .collect(),
        );
        let reg = Registry::new();
        pool.record_telemetry(&reg);
        assert_eq!(reg.counter("exec.pushes"), 32);
        assert_eq!(reg.counter("exec.tasks.completed"), 32);
        assert_eq!(reg.counter("exec.batches"), 1);
        assert_eq!(
            reg.counter("exec.pops.own") + reg.counter("exec.steals"),
            32,
            "every task was either an own pop or a steal"
        );
        let busy = reg.histogram("exec.worker.busy_ms").unwrap();
        assert!(busy.count >= 1 && busy.sum > 0.0);
        let depth = reg.series("exec.queue.depth").unwrap();
        assert_eq!(depth.len(), 32, "one depth sample per task start");
        assert_eq!(reg.events_named("exec.tasks").len(), 32);
        // Disabled registries cost nothing and record nothing.
        pool.record_telemetry(&Registry::disabled());
    }

    #[test]
    fn env_threads_parses_and_defaults() {
        // Only read, never set: tests in this binary run concurrently
        // and the variable is process-global.
        let n = env_threads();
        assert!(n >= 1);
    }
}
