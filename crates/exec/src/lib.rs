//! `vcu-exec`: the persistent worker pool behind every multi-core path
//! in the workspace (chunk-parallel encoding, the campaign sweeps, the
//! planet's region and cell fan-out).
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
//! A batch of `n` tasks at parallelism `p` is one stack of unstarted
//! tasks plus `p - 1` *seats* published to the shared injector, where
//! idle workers claim them. The submitting thread and every seated
//! worker pop the top of the stack until it is empty, so at most `p`
//! tasks run at once and no participant idles while a task is still
//! unstarted — the tail imbalance of a static round-robin (the last
//! partial chunk, the variable-cost campaign cell) cannot arise.
//!
//! The top of the stack is the highest index, so task `n - 1` starts
//! first. A sweep whose cells grow (the serve campaign ends on its
//! largest cell) thus starts its longest task first; a front-first
//! cursor would start it last and leave it alone on the critical path.
//!
//! The submitting thread always participates, which makes the pool
//! deadlock-free by construction: even with zero free workers the
//! caller drains its whole batch itself. It also means parallelism 1
//! never crosses a thread boundary.
//!
//! # Determinism
//!
//! Tasks share nothing and every result lands in its own index-ordered
//! slot, so which participant ran which task cannot perturb what the
//! caller observes. Panics are *joined*: the batch always runs to
//! completion, then the panic of the lowest-index failed task is
//! re-raised via [`std::panic::resume_unwind`].
#![deny(clippy::undocumented_unsafe_blocks)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard ceiling on spawned worker threads (the caller thread is free).
const MAX_WORKERS: usize = 64;

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

/// An erased, lifetime-laundered task.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One published batch: its unstarted tasks plus completion
/// bookkeeping.
struct BatchCore {
    /// Unstarted tasks in index order; participants pop the top.
    stack: Mutex<Vec<Job>>,
    /// Tasks not yet finished.
    remaining: AtomicUsize,
    /// Completion latch the submitter blocks on.
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl BatchCore {
    /// Takes the highest-index unstarted task. A method so the stack
    /// lock is released before the task runs.
    fn pop(&self) -> Option<Job> {
        self.stack.lock().expect("batch stack").pop()
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

struct PoolState {
    /// The shared injector: one entry per unclaimed seat.
    injector: VecDeque<Arc<BatchCore>>,
    /// Spawned worker threads.
    workers: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    /// Tasks run, by anyone.
    tasks: AtomicU64,
    /// Tasks a pool worker ran instead of their submitter.
    stolen: AtomicU64,
}

/// A persistent worker pool. Most code should use the process-wide
/// [`pool()`]; tests construct private instances.
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
                tasks: AtomicU64::new(0),
                stolen: AtomicU64::new(0),
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

        type Slot<T> = Mutex<Option<std::thread::Result<T>>>;
        let slots: Vec<Slot<T>> = (0..n).map(|_| Mutex::new(None)).collect();
        let jobs: Vec<Job> = tasks
            .into_iter()
            .zip(&slots)
            .map(|(task, slot)| {
                let slot = SlotPtr(slot as *const Slot<T>);
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    // Capture the whole wrapper, not its raw-pointer
                    // field (disjoint capture would sidestep SlotPtr's
                    // Send).
                    let slot = slot;
                    let result = catch_unwind(AssertUnwindSafe(task));
                    // SAFETY: unique writer (one job per slot, run at
                    // most once); the submitter reads the slot only
                    // after the completion latch, which this job's
                    // `finish_one` precedes.
                    unsafe {
                        *(*slot.0).lock().expect("result slot") = Some(result);
                    }
                });
                // SAFETY: the laundered job lives in the batch's
                // `stack`, which the injector's `Arc`s may outlive.
                // `WaitGuard` below keeps this frame from returning
                // (normally or by unwinding) until `remaining` is 0, and
                // the stack is empty by then: each job is popped, run
                // and dropped before its `finish_one`. So the
                // non-'static borrows captured by `task` and `slot`
                // strictly outlive every use of them.
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) }
            })
            .collect();
        let batch = Arc::new(BatchCore {
            stack: Mutex::new(jobs),
            remaining: AtomicUsize::new(n),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });

        {
            let _barrier = WaitGuard { batch: &batch };
            self.shared
                .state
                .lock()
                .expect("pool state")
                .injector
                .extend((1..p).map(|_| Arc::clone(&batch)));
            self.shared.work_cv.notify_all();
            run_tasks(&self.shared, &batch, false);
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
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("vcu-exec-{}", st.workers))
                .spawn(move || worker_main(&shared))
                .expect("spawn vcu-exec worker");
            st.handles.push(handle);
        }
    }

    /// Total tasks the pool has executed.
    pub fn tasks_executed(&self) -> u64 {
        self.shared.tasks.load(Ordering::Relaxed)
    }

    /// Tasks a pool worker ran instead of their submitter.
    pub fn tasks_stolen(&self) -> u64 {
        self.shared.stolen.load(Ordering::Relaxed)
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

fn worker_main(shared: &Shared) {
    loop {
        let batch = {
            let mut st = shared.state.lock().expect("pool state");
            loop {
                if st.shutdown {
                    return;
                }
                // Seats of batches that already completed are dropped.
                if let Some(batch) = st.injector.pop_front() {
                    if batch.remaining.load(Ordering::Acquire) > 0 {
                        break batch;
                    }
                    continue;
                }
                st = shared.work_cv.wait(st).expect("pool state");
            }
        };
        run_tasks(shared, &batch, true);
    }
}

/// Pops and runs the batch's tasks until none is left unstarted (tasks
/// still running on other participants are theirs to finish).
fn run_tasks(shared: &Shared, batch: &BatchCore, by_worker: bool) {
    while let Some(job) = batch.pop() {
        job();
        shared.tasks.fetch_add(1, Ordering::Relaxed);
        if by_worker {
            shared.stolen.fetch_add(1, Ordering::Relaxed);
        }
        // Everything above must precede this: the submitter may return
        // (and read the counters) the moment the last task finishes.
        batch.finish_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    impl Pool {
        /// Worker threads currently alive (not counting submitters).
        fn workers_spawned(&self) -> usize {
            self.shared.state.lock().expect("pool state").workers
        }
    }

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
    fn parallelism_bounds_live_tasks_even_with_idle_workers() {
        // Seven warm workers, a batch at parallelism 3: only two seats
        // are published, so the submitter plus two workers are the only
        // participants however many workers sit idle.
        let pool = Pool::new();
        pool.run_batch(8, (0..8u32).map(|i| move || i).collect());
        assert_eq!(pool.workers_spawned(), 7);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.run_batch(
            3,
            (0..24)
                .map(|_| {
                    let (live, peak) = (&live, &peak);
                    move || {
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(2));
                        live.fetch_sub(1, Ordering::SeqCst);
                    }
                })
                .collect(),
        );
        let peak = peak.into_inner();
        assert!(peak <= 3, "{peak} tasks ran at once at parallelism 3");
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
        // Thirteen tasks at parallelism 4: task 12 is 4x the others.
        // Static round-robin would queue three small tasks behind it on
        // one participant (400 + 3x100 = 700 ms), and so would a stack
        // drained front-first, which starts task 12 last. Top-first,
        // task 12 starts at once and the other three participants
        // drain the smalls, so wall-clock tracks the ~400 ms critical
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
             the critical path: the longest task did not start first"
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
    fn env_threads_parses_and_defaults() {
        // Only read, never set: tests in this binary run concurrently
        // and the variable is process-global.
        let n = env_threads();
        assert!(n >= 1);
    }
}
