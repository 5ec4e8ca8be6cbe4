//! `vcu-exec`: the scoped fork-join behind every multi-core path in the
//! workspace (chunk-parallel encoding, the campaign sweeps, the DSE
//! candidates, the planet's cell fan-out).
//!
//! The paper's throughput comes from independent closed-GOP chunks
//! fanned out and reassembled in order (§2.2, §3). This crate is that
//! shape in miniature: a caller hands [`Pool::run_batch`] a batch of
//! independent tasks and gets their results back in task-index order,
//! so output is byte-identical to sequential execution for any
//! parallelism, while wall-clock tracks the critical path instead of
//! the worst static share.
//!
//! # Architecture
//!
//! A batch of `n` tasks at parallelism `p` is one stack of unstarted
//! tasks, tagged with their indices. Inside a [`std::thread::scope`],
//! the calling thread and `p - 1` helper threads (at most 63) pop the
//! top of the stack until it is empty, so at most `p` tasks run at
//! once and no participant idles while a task is still unstarted —
//! the tail imbalance of a static round-robin (the last partial chunk,
//! the variable-cost campaign cell) cannot arise.
//! The scope joins every helper before `run_batch` returns, so tasks
//! may borrow from the caller's stack.
//!
//! The top of the stack is the highest index, so task `n - 1` starts
//! first. A sweep whose cells grow (the serve campaign ends on its
//! largest cell) thus starts its longest task first; a front-first
//! cursor would start it last and leave it alone on the critical path.
//!
//! Each batch brings its own helpers, so a task that submits a nested
//! batch never waits on a thread some other batch holds: nesting cannot
//! deadlock. Parallelism 1 never crosses a thread boundary.
//!
//! # Determinism
//!
//! Tasks share nothing and every participant returns `(index, result)`
//! pairs, which the caller sorts by index, so which thread ran which
//! task cannot perturb what the caller observes. Panics are *joined*:
//! each task runs under [`catch_unwind`], the batch always runs to
//! completion, then the panic of the lowest-index failed task is
//! re-raised via [`resume_unwind`].
#![forbid(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Ceiling on helper threads per batch (the caller makes 64):
/// `VCU_THREADS` is outside input.
const MAX_HELPERS: usize = 63;

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

/// The process-wide pool: the counters every batch reports into.
pub fn pool() -> &'static Pool {
    static POOL: Pool = Pool {
        tasks: AtomicU64::new(0),
        stolen: AtomicU64::new(0),
    };
    &POOL
}

/// Runs index-ordered batches and counts what they ran. Most code
/// should use the process-wide [`pool()`]; tests construct private
/// instances.
#[derive(Default)]
pub struct Pool {
    /// Tasks run, by anyone, at parallelism above 1.
    tasks: AtomicU64,
    /// Tasks a helper ran instead of the submitter.
    stolen: AtomicU64,
}

impl Pool {
    /// Creates a pool with zeroed counters.
    pub fn new() -> Self {
        Pool::default()
    }

    /// Runs `tasks` at the given parallelism and returns their results
    /// **in task-index order**, exactly as a sequential
    /// `tasks.into_iter().map(|t| t()).collect()` would — scheduling
    /// can never reorder or perturb what the caller observes.
    ///
    /// `parallelism` bounds concurrency for this batch only (clamped to
    /// `1..=tasks.len()`); the submitting thread always participates,
    /// so parallelism `p` occupies the caller plus at most `p - 1`
    /// scoped helpers. At parallelism 1 the batch runs inline on the
    /// caller with no threads or locks touched.
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
        let p = parallelism.clamp(1, tasks.len().max(1));
        if p == 1 {
            return tasks.into_iter().map(|t| t()).collect();
        }
        let stack = Mutex::new(tasks.into_iter().enumerate().collect::<Vec<_>>());
        let drain = |helper: bool| {
            let mut done = Vec::new();
            loop {
                // A statement of its own, so the lock is released
                // before the task runs.
                let top = stack.lock().expect("task stack").pop();
                let Some((i, task)) = top else {
                    return done;
                };
                done.push((i, catch_unwind(AssertUnwindSafe(task))));
                self.tasks.fetch_add(1, Ordering::Relaxed);
                if helper {
                    self.stolen.fetch_add(1, Ordering::Relaxed);
                }
            }
        };
        let mut done = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..p.min(MAX_HELPERS + 1))
                .map(|_| s.spawn(|| drain(true)))
                .collect();
            let mut done = drain(false);
            for h in helpers {
                done.extend(h.join().expect("helpers catch their tasks' panics"));
            }
            done
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter()
            .map(|(_, r)| r.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }

    /// Total tasks the pool has executed at parallelism above 1.
    pub fn tasks_executed(&self) -> u64 {
        self.tasks.load(Ordering::Relaxed)
    }

    /// Tasks a helper ran instead of their submitter.
    pub fn tasks_stolen(&self) -> u64 {
        self.stolen.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

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
    }

    #[test]
    fn parallelism_exceeding_task_count_is_clamped() {
        let pool = Pool::new();
        let out = pool.run_batch(8, (0..3usize).map(|i| move || i + 1).collect());
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn parallelism_bounds_live_tasks_even_with_idle_workers() {
        // Peak concurrency of `n` sleeping tasks at `parallelism`. At 3,
        // the submitter plus two helpers are the only participants; at
        // 1,000, outside input, the helper cap holds it to 64.
        fn peak_live(parallelism: usize, n: usize) -> usize {
            let pool = Pool::new();
            let live = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            pool.run_batch(
                parallelism,
                (0..n)
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
            peak.into_inner()
        }
        let peak = peak_live(3, 24);
        assert!(peak <= 3, "{peak} tasks ran at once at parallelism 3");
        let peak = peak_live(1_000, 200);
        assert!(peak <= 64, "{peak} tasks ran at once past the helper cap");
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
    fn env_threads_parses_and_defaults() {
        // Only read, never set: tests in this binary run concurrently
        // and the variable is process-global.
        let n = env_threads();
        assert!(n >= 1);
    }
}
