//! # wwt-pool
//!
//! A **persistent** worker pool behind the workspace's `fan_out`
//! primitive.
//!
//! The original `fan_out` spawned scoped threads per call, which made
//! every probe pay thread start-up and — worse — gave each probe fresh
//! threads, so `thread_local!` scratch (the index's epoch-tagged score
//! accumulator) was never actually reused on the parallel path. This
//! crate keeps one process-wide set of workers alive
//! ([`WorkerPool::global`]) and hands them batches of indexed units:
//!
//! * results come back **in input order** (`Vec<R>` with `result[i] =
//!   f(i)`), exactly like the scoped version, so every byte-identity
//!   guarantee built on deterministic fan-out order carries over;
//! * the **caller participates**: the submitting thread drains the same
//!   shared cursor as the workers, so a batch always makes progress even
//!   when every worker is busy — nested `run` calls (a pooled unit that
//!   itself fans out) cannot deadlock;
//! * unit panics are caught per unit, so a panicking unit can never
//!   leave a worker touching freed caller state: [`WorkerPool::run`]
//!   (and [`try_fan_out`]) return them as [`UnitPanic`]s, and
//!   [`fan_out`] re-raises the first one **after** the batch fully
//!   settles.
//!
//! ## Soundness of the borrowed closure
//!
//! `run` executes a caller-stack closure on pool threads without scoped
//! threads. The lifetime erasure is sound because `run` does not return
//! until every helper job it enqueued is **provably done
//! with the closure**: jobs still queued are removed under the queue
//! lock (workers bump a per-batch `started` counter under that same lock
//! when they claim a job, so after removal the started count is final),
//! and the caller then blocks until `exited == started` — every started
//! helper's last touch of caller state happens before its `exited`
//! increment.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A caught panic from one fan-out unit: which unit, and the payload it
/// panicked with. Returned by [`WorkerPool::run`] / [`try_fan_out`] so
/// callers can isolate a crashing unit instead of dying with it;
/// [`fan_out`] re-raises the payload instead.
#[derive(Debug)]
pub struct UnitPanic {
    /// Input index of the unit that panicked.
    pub unit: usize,
    /// The payload the unit panicked with, for re-raising unchanged.
    pub payload: Box<dyn std::any::Any + Send>,
}

impl UnitPanic {
    /// The panic message ([`panic_message`] of the payload).
    pub fn message(&self) -> String {
        panic_message(self.payload.as_ref())
    }
}

impl std::fmt::Display for UnitPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unit {} panicked: {}", self.unit, self.message())
    }
}

impl std::error::Error for UnitPanic {}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One queued helper slot of a [`WorkerPool::run`] batch. The closure
/// reference is lifetime-erased; see the module docs for why that is
/// sound.
struct Batch {
    /// Drains the batch's shared cursor until empty. Points into the
    /// submitting caller's stack frame.
    work: &'static (dyn Fn() + Sync),
    /// Helper jobs claimed by a worker, bumped under the pool's queue
    /// lock at claim time — final once the caller has purged the queue.
    started: AtomicUsize,
    /// Helper jobs that finished draining (their last touch of caller
    /// state is before this increment).
    exited: Mutex<usize>,
    /// Signalled on every `exited` increment.
    settled: Condvar,
}

struct PoolState {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    task_ready: Condvar,
    stop: AtomicBool,
}

/// A fixed set of persistent worker threads executing indexed fan-out
/// batches. One instance serves any number of threads; batches from
/// concurrent callers interleave in the shared queue.
pub struct WorkerPool {
    state: Arc<PoolState>,
    threads: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool with `threads` persistent workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let state = Arc::new(PoolState {
            queue: Mutex::new(VecDeque::new()),
            task_ready: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("wwt-pool-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            state,
            threads,
            handles,
        }
    }

    /// The process-wide pool, sized to the machine (one worker per
    /// core). Created on first use and kept alive for the process — its
    /// threads are what make `thread_local!` scratch in pooled code
    /// actually persistent.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            WorkerPool::new(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4),
            )
        })
    }

    /// Number of persistent workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0..n)` across at most `max_threads` concurrent executors
    /// (the caller plus pool workers) and returns the results in input
    /// order. `max_threads <= 1` runs serially on the caller with no
    /// queue traffic. A panicking unit is **isolated**: every unit always
    /// runs, and `result[i]` is `Err(UnitPanic)` for exactly the units
    /// that panicked — on the serial path as on the pooled one.
    pub fn run<R, F>(&self, n: usize, max_threads: usize, f: F) -> Vec<Result<R, UnitPanic>>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let unit = |i: usize| {
            catch_unwind(AssertUnwindSafe(|| f(i)))
                .map_err(|payload| UnitPanic { unit: i, payload })
        };
        if n == 0 {
            return Vec::new();
        }
        if max_threads <= 1 || n == 1 {
            return (0..n).map(unit).collect();
        }

        let results: Vec<Mutex<Option<Result<R, UnitPanic>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        // The per-unit closure never unwinds (the catch is inside), so a
        // helper always reaches its `exited` increment.
        let drain = || loop {
            let i = cursor.fetch_add(1, Ordering::SeqCst);
            if i >= n {
                return;
            }
            *results[i].lock().unwrap() = Some(unit(i));
        };

        // The caller is one executor; enqueue the rest as helper jobs.
        // Helpers beyond the worker count would only ever be cancelled,
        // so don't bother queueing them.
        let helpers = (max_threads.min(n) - 1).min(self.threads);
        let work: &(dyn Fn() + Sync) = &drain;
        // SAFETY: the settle protocol below guarantees no pool thread
        // holds (or will ever again call) this reference once `run`
        // returns; see the module docs.
        let work =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(work) };
        let batch = Arc::new(Batch {
            work,
            started: AtomicUsize::new(0),
            exited: Mutex::new(0),
            settled: Condvar::new(),
        });
        {
            let mut queue = self.state.queue.lock().unwrap();
            for _ in 0..helpers {
                queue.push_back(Arc::clone(&batch));
            }
        }
        // notify_all: `helpers` may exceed the waiters; surplus wakes
        // re-park harmlessly.
        self.state.task_ready.notify_all();

        // Participate until the cursor is exhausted.
        drain();

        // Settle: purge still-queued helper jobs (claims bump `started`
        // under this same lock, so after the purge `started` is final),
        // then wait out every claimed helper.
        {
            let mut queue = self.state.queue.lock().unwrap();
            queue.retain(|queued| !Arc::ptr_eq(queued, &batch));
        }
        let started = batch.started.load(Ordering::SeqCst);
        let mut exited = batch.exited.lock().unwrap();
        while *exited < started {
            exited = batch.settled.wait(exited).unwrap();
        }
        drop(exited);

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every unit index is claimed exactly once")
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        self.state.task_ready.notify_all();
        for handle in self.handles.drain(..) {
            drop(handle.join());
        }
    }
}

fn worker_loop(state: &PoolState) {
    loop {
        let batch = {
            let mut queue = state.queue.lock().unwrap();
            loop {
                if let Some(batch) = queue.pop_front() {
                    // Claimed: the submitting caller now waits for this
                    // helper instead of cancelling it. Must happen under
                    // the queue lock (see `Batch::started`).
                    batch.started.fetch_add(1, Ordering::SeqCst);
                    break batch;
                }
                if state.stop.load(Ordering::SeqCst) {
                    return;
                }
                queue = state.task_ready.wait(queue).unwrap();
            }
        };
        (batch.work)();
        let mut exited = batch.exited.lock().unwrap();
        *exited += 1;
        batch.settled.notify_all();
    }
}

/// Runs `f(i)` for `i in 0..n` across up to `threads` concurrent
/// executors of the [`WorkerPool::global`] pool (the calling thread
/// included) and returns the results in input order. `threads <= 1`
/// runs serially on the caller. If any unit panics, the first panicking
/// unit (in input order) is re-raised on the caller with its original
/// payload, after the whole batch has settled. The workers (and their
/// `thread_local!` state) persist across calls.
pub fn fan_out<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    WorkerPool::global()
        .run(n, threads, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| resume_unwind(p.payload)))
        .collect()
}

/// [`fan_out`], but panic-isolating: `result[i]` is `Err(UnitPanic)` for
/// exactly the units that panicked, and every unit always runs. Use this
/// wherever one crashing unit must not take the whole batch (or the
/// calling worker) down with it.
pub fn try_fan_out<R, F>(n: usize, threads: usize, f: F) -> Vec<Result<R, UnitPanic>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    WorkerPool::global().run(n, threads, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_keep_input_order() {
        for threads in [1, 2, 3, 8, 64] {
            let out = fan_out(17, threads, |i| i * 10);
            assert_eq!(out, (0..17).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(fan_out(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(fan_out(1, 4, |i| i + 1), vec![1]);
    }

    #[test]
    fn every_unit_runs_exactly_once() {
        let hits: Vec<AtomicU64> = (0..200).map(|_| AtomicU64::new(0)).collect();
        let out = fan_out(200, 7, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(out.len(), 200);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "unit {i}");
        }
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        // Outer batch saturates the pool; each unit fans out again.
        // Caller participation guarantees progress regardless of how
        // many workers exist.
        let out = fan_out(6, 8, |i| fan_out(5, 8, move |j| i * 100 + j));
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(*inner, (0..5).map(|j| i * 100 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        let totals: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|c| {
                    scope.spawn(move || fan_out(50, 4, |i| (c * 1000 + i) as u64).iter().sum())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (c, total) in totals.iter().enumerate() {
            let want: u64 = (0..50).map(|i| (c * 1000 + i) as u64).sum();
            assert_eq!(*total, want);
        }
    }

    #[test]
    fn panics_propagate_after_the_batch_settles() {
        for threads in [1, 4] {
            let ran = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                fan_out(12, threads, |i| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i == 5 || i == 9 {
                        panic!("unit {i} exploded");
                    }
                    i
                })
            }));
            // The first panicking unit in input order is re-raised with
            // its own payload, whichever unit panicked first in time.
            let payload = result.expect_err("panic must surface to the caller");
            assert_eq!(panic_message(payload.as_ref()), "unit 5 exploded");
            // Every unit was claimed (the cursor never skips), and the
            // pool stays usable afterwards.
            assert_eq!(ran.load(Ordering::SeqCst), 12, "threads={threads}");
            assert_eq!(fan_out(3, threads, |i| i), vec![0, 1, 2]);
        }
    }

    #[test]
    fn try_fan_out_isolates_panicking_units() {
        for threads in [1, 4] {
            let out = try_fan_out(12, threads, |i| {
                if i % 5 == 2 {
                    panic!("unit {i} exploded");
                }
                i * 10
            });
            assert_eq!(out.len(), 12);
            for (i, slot) in out.iter().enumerate() {
                if i % 5 == 2 {
                    let err = slot.as_ref().unwrap_err();
                    assert_eq!(err.unit, i);
                    assert!(err.message().contains("exploded"), "got {err}");
                } else {
                    assert_eq!(slot.as_ref().ok(), Some(&(i * 10)));
                }
            }
        }
        // The pool survives and keeps answering.
        assert_eq!(fan_out(3, 4, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn try_fan_out_all_ok_matches_fan_out() {
        for threads in [1, 2, 8] {
            let out: Vec<usize> = try_fan_out(17, threads, |i| i * 3)
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(out, fan_out(17, threads, |i| i * 3));
        }
    }

    #[test]
    fn unit_panic_message_extraction() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("str payload");
        assert_eq!(panic_message(boxed.as_ref()), "str payload");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(String::from("string payload"));
        assert_eq!(panic_message(boxed.as_ref()), "string payload");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(boxed.as_ref()), "non-string panic payload");
        let p = UnitPanic {
            unit: 7,
            payload: Box::new("boom"),
        };
        assert_eq!(p.to_string(), "unit 7 panicked: boom");
    }

    #[test]
    fn private_pool_drops_cleanly() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        let out: Vec<usize> = pool
            .run(9, 3, |i| i * i)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(out, (0..9).map(|i| i * i).collect::<Vec<_>>());
        drop(pool); // joins its workers
    }

    #[test]
    fn borrowed_state_survives_the_batch() {
        // Results may borrow from the caller's stack (R: Send, not
        // 'static-bounded in spirit): stress with owned Strings built
        // from borrowed input.
        let words = ["alpha", "beta", "gamma", "delta"];
        let out = fan_out(words.len(), 4, |i| format!("{}-{}", words[i], i));
        assert_eq!(out, vec!["alpha-0", "beta-1", "gamma-2", "delta-3"]);
    }
}
