//! The process-wide thread budget and the one batch executor that uses it.
//!
//! [`WorkerPool`] is a thread budget, not a set of threads: the binaries'
//! `--threads N` installs it once through [`WorkerPool::configure_global`],
//! and otherwise [`WorkerPool::global`] sizes it to the host's available
//! parallelism. [`WorkerPool::run_in_order`] is how every batch of
//! independent, deterministic runs (the evaluation matrix, Fig. 7, the
//! sweep cells) spends that budget: it spawns at most `workers` scoped
//! threads for the batch and joins them before it returns, so a budget of
//! N means exactly N runs at once.
//!
//! Spawning per batch is cheap next to the runs it carries. On a 2-core
//! host a `std::thread::scope` that spawns and joins 2 threads costs about
//! 57 µs (mean of 200; 16 threads: about 0.5 ms), while the smallest
//! `reproduce --smoke` matrix takes about 257 ms, so keeping threads alive
//! between batches would save under 0.03 % there.

use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// The process-wide budget, fixed on first use.
static GLOBAL_POOL: OnceLock<WorkerPool> = OnceLock::new();

/// A thread budget for batches of independent jobs.
#[derive(Debug)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A budget of `workers` threads (clamped to at least one).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// Cap the process-wide budget *before* its first use.
    ///
    /// Returns `true` if the cap was installed; `false` if the global budget
    /// already exists (or was already configured), in which case the call
    /// has no effect. The binaries call this once, with the last `--threads N`
    /// given, right after parsing their arguments and before anything
    /// touches the budget, so matrix, Fig. 7 and sweep runs draw from one
    /// budget instead of oversubscribing.
    pub fn configure_global(workers: usize) -> bool {
        GLOBAL_POOL.set(WorkerPool::new(workers)).is_ok()
    }

    /// The process-wide budget, fixed on first use to
    /// `std::thread::available_parallelism()` (or to the
    /// [`Self::configure_global`] cap, when one was installed first).
    pub fn global() -> &'static WorkerPool {
        GLOBAL_POOL.get_or_init(|| {
            WorkerPool::new(
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1),
            )
        })
    }

    /// Number of threads in the budget.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `job(0)`, …, `job(n - 1)` on at most [`Self::workers`] scoped
    /// threads and hand each result to `sink` on the calling thread, strictly
    /// in index order.
    ///
    /// Each thread claims the next unclaimed index, so the jobs start in
    /// index order, but they may finish in any order; a finished result
    /// waits in its slot until every lower index has reached `sink`. A job
    /// that panics is caught on its thread and its payload reaches `sink` as
    /// the `Err` of its index, so the sink never waits on a slot that will
    /// never fill; to propagate it, `sink` can `resume_unwind` it.
    ///
    /// Once `sink` returns [`ControlFlow::Break`] (or panics), no thread
    /// claims another index; jobs already running finish and their results
    /// are dropped. `sink` itself is dropped only after that stop is
    /// visible to the threads. The call returns after every thread has
    /// been joined, so jobs may borrow from the caller's stack.
    pub fn run_in_order<T: Send>(
        &self,
        n: usize,
        job: impl Fn(usize) -> T + Sync,
        sink: impl FnMut(usize, std::thread::Result<T>) -> ControlFlow<()>,
    ) {
        let slots: Mutex<Vec<Option<std::thread::Result<T>>>> =
            Mutex::new((0..n).map(|_| None).collect());
        let ready = Condvar::new();
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n) {
                scope.spawn(|| {
                    while !stop.load(Ordering::Acquire) {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        let result = catch_unwind(AssertUnwindSafe(|| job(idx)));
                        slots.lock().expect("executor slots")[idx] = Some(result);
                        ready.notify_all();
                    }
                });
            }
            deliver(n, &slots, &ready, &stop, sink);
        });
    }
}

/// The calling thread's half of [`WorkerPool::run_in_order`]: wait for each
/// slot in index order and pass its result to `sink`. `stop` is raised
/// when this returns or unwinds, before `sink` (a parameter, so dropped
/// after the locals) goes.
fn deliver<T>(
    n: usize,
    slots: &Mutex<Vec<Option<std::thread::Result<T>>>>,
    ready: &Condvar,
    stop: &AtomicBool,
    mut sink: impl FnMut(usize, std::thread::Result<T>) -> ControlFlow<()>,
) {
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let _stop = StopOnDrop(stop);
    for idx in 0..n {
        let result = {
            let mut guard = slots.lock().expect("executor slots");
            loop {
                if let Some(result) = guard[idx].take() {
                    break result;
                }
                guard = ready.wait(guard).expect("executor slots");
            }
        };
        if sink(idx, result).is_break() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::resume_unwind;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Run a batch and collect every result in delivery order, re-raising a
    /// job's panic.
    fn collect<T: Send>(pool: &WorkerPool, n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let mut out = Vec::with_capacity(n);
        pool.run_in_order(n, job, |_, result| {
            out.push(result.unwrap_or_else(|payload| resume_unwind(payload)));
            ControlFlow::Continue(())
        });
        out
    }

    #[test]
    fn borrowing_jobs_all_complete_in_order() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        let inputs: Vec<usize> = (0..64).collect();
        let outputs = collect(&pool, inputs.len(), |i| {
            hits.fetch_add(1, Ordering::SeqCst);
            inputs[i] * 2
        });
        assert_eq!(hits.load(Ordering::SeqCst), 64);
        assert!(outputs.iter().enumerate().all(|(i, &v)| v == i * 2));
    }

    #[test]
    fn nested_calls_on_a_one_worker_budget_do_not_deadlock() {
        let pool = WorkerPool::new(1);
        let total = AtomicUsize::new(0);
        collect(&pool, 4, |_| {
            collect(&pool, 4, |_| total.fetch_add(1, Ordering::SeqCst));
        });
        assert_eq!(total.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn a_job_panic_reaches_the_caller_with_its_payload() {
        let pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            collect(&pool, 2, |i| {
                if i == 1 {
                    panic!("lane failed");
                }
            })
        }));
        let payload = caught.expect_err("the sink re-raises the job panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert_eq!(msg, "lane failed");
    }

    #[test]
    fn global_budget_is_shared_and_sized() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.workers() >= 1);
        assert!(!WorkerPool::configure_global(1), "the budget is fixed");
    }

    #[test]
    fn a_one_worker_budget_never_runs_two_jobs_at_once() {
        let pool = WorkerPool::new(1);
        let (job_1_started, job_0_hears) = mpsc::channel();
        let job_0_hears = Mutex::new(job_0_hears);
        let overlapped = collect(&pool, 2, |i| {
            if i == 0 {
                // A second thread (or a helping caller) would start job 1
                // now; the one worker cannot until job 0 returns.
                let heard = job_0_hears
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_millis(100));
                heard.is_ok()
            } else {
                job_1_started.send(()).unwrap();
                false
            }
        });
        assert_eq!(overlapped, [false, false]);
    }

    #[test]
    fn results_reach_the_sink_in_index_order_when_job_1_finishes_first() {
        let pool = WorkerPool::new(2);
        let (done_1, wait_for_1) = mpsc::channel();
        let wait_for_1 = Mutex::new(wait_for_1);
        let finished = Mutex::new(Vec::new());
        let delivered = collect(&pool, 2, |i| {
            if i == 0 {
                // Job 0 cannot finish before job 1 has.
                wait_for_1.lock().unwrap().recv().unwrap();
            }
            finished.lock().unwrap().push(i);
            if i == 1 {
                done_1.send(()).unwrap();
            }
            i
        });
        assert_eq!(*finished.lock().unwrap(), [1, 0]);
        assert_eq!(delivered, [0, 1]);
    }

    #[test]
    fn break_stops_unclaimed_jobs_from_running() {
        let pool = WorkerPool::new(1);
        let (sink_alive, sink_dropped) = mpsc::channel::<()>();
        let sink_dropped = Mutex::new(sink_dropped);
        let ran = Mutex::new(Vec::new());
        let mut delivered = Vec::new();
        let delivered_to = &mut delivered;
        pool.run_in_order(
            8,
            |i| {
                ran.lock().unwrap().push(i);
                if i == 1 {
                    // Hold job 1 (if it was claimed at all) until the sink
                    // is gone, so the thread's next claim sees the stop.
                    let _ = sink_dropped.lock().unwrap().recv();
                }
            },
            move |i, _| {
                let _owned_by_the_sink = &sink_alive;
                delivered_to.push(i);
                ControlFlow::Break(())
            },
        );
        assert_eq!(delivered, [0]);
        let ran = ran.into_inner().unwrap();
        assert!(ran == [0] || ran == [0, 1], "ran {ran:?}");
    }
}
