//! A persistent, process-wide worker pool with a scoped-spawn API.
//!
//! The evaluation-matrix driver fans a batch of independent, deterministic
//! jobs out over host threads and waits for every one before merging.
//! Spawning an OS thread per job (the original `std::thread::scope`
//! pattern) is correct but pays thread start-up and teardown on every run.
//! [`WorkerPool::global`] amortises that cost into one process-lifetime set
//! of workers, sized to the host's available parallelism (or to an explicit
//! [`WorkerPool::configure_global`] cap, which is what the binaries'
//! `--threads` flag sets; the sweep executor sizes its own scoped threads
//! from the same budget).
//!
//! [`WorkerPool::scope`] mirrors `std::thread::scope`: jobs may borrow from
//! the caller's stack, every job is finished (or was never started) before
//! the scope returns, and a panicking job re-raises its payload at the scope
//! boundary. The borrow-soundness argument is the same as std's — the scope
//! cannot be exited (normally *or* by unwinding) until the pending-job count
//! reaches zero, which the `WaitGuard` enforces in its `Drop`.
//!
//! Waiting scopes *help*: while a scope owner blocks on its pending count it
//! pops queued jobs — anyone's — and runs them inline. So the calling thread
//! works alongside the pool instead of parking, the pool degrades to plain
//! serial execution, never a hang, on a single-core host, and a job that
//! opens a scope of its own cannot deadlock. No runner nests scopes: a job
//! that waited on a nested scope could run other jobs inline meanwhile,
//! which would inflate its own measured wall time.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The process-wide pool singleton plus the pre-creation size override.
static GLOBAL_POOL: OnceLock<WorkerPool> = OnceLock::new();
static GLOBAL_WORKERS: OnceLock<usize> = OnceLock::new();

/// A fixed set of persistent worker threads executing queued jobs.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
}

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawn a pool with `workers` persistent threads (clamped to at least
    /// one). The threads live for the life of the pool value; the global
    /// pool's live for the process.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        });
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("htm-pool-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawning a pool worker thread");
        }
        Self { shared, workers }
    }

    /// Cap the size of the process-wide pool *before* its first use.
    ///
    /// Returns `true` if the cap was installed; `false` if the global pool
    /// already exists (or was already configured), in which case the call
    /// has no effect. The binaries call this once, with the last `--threads N`
    /// given, right after parsing their arguments and before anything
    /// touches the pool, so matrix and sweep cells draw from one budget
    /// instead of oversubscribing.
    pub fn configure_global(workers: usize) -> bool {
        GLOBAL_WORKERS.set(workers.max(1)).is_ok() && GLOBAL_POOL.get().is_none()
    }

    /// The process-wide pool, created on first use and sized to
    /// `std::thread::available_parallelism()` (or to the
    /// [`Self::configure_global`] cap, when one was installed first).
    pub fn global() -> &'static WorkerPool {
        GLOBAL_POOL.get_or_init(|| {
            WorkerPool::new(GLOBAL_WORKERS.get().copied().unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            }))
        })
    }

    /// Number of worker threads in the pool.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `f` with a [`Scope`] on which borrowed jobs can be spawned.
    ///
    /// Returns only after every spawned job has finished. If a job panicked,
    /// the first payload is re-raised here; if `f` itself panics, its unwind
    /// still waits for all jobs before propagating.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let state = Arc::new(ScopeState::new());
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _env: PhantomData,
        };
        let guard = WaitGuard {
            pool: self,
            state: &state,
        };
        let out = f(&scope);
        drop(guard); // Blocks until pending == 0; jobs' borrows end here.
        if let Some(payload) = state.take_panic() {
            resume_unwind(payload);
        }
        out
    }

    fn push(&self, job: Job) {
        self.shared.queue.lock().expect("pool queue").push_back(job);
        self.shared.available.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        self.shared.queue.lock().expect("pool queue").pop_front()
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.available.wait(queue).expect("pool queue");
            }
        };
        job();
    }
}

struct ScopeState {
    inner: Mutex<ScopeInner>,
    done: Condvar,
}

struct ScopeInner {
    pending: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl ScopeState {
    fn new() -> Self {
        Self {
            inner: Mutex::new(ScopeInner {
                pending: 0,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut inner = self.inner.lock().expect("scope state");
        inner.pending -= 1;
        if inner.panic.is_none() {
            inner.panic = panic;
        }
        self.done.notify_all();
    }

    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.inner.lock().expect("scope state").panic.take()
    }

    /// Block until every job of this scope has completed, executing queued
    /// jobs (of any scope) inline while waiting so that nested scopes on
    /// pool workers cannot deadlock.
    fn wait(&self, pool: &WorkerPool) {
        loop {
            if let Some(job) = pool.try_pop() {
                job();
                continue;
            }
            // Queue drained: every remaining pending job of ours is being
            // executed by some thread right now and will signal `done`.
            let inner = self.inner.lock().expect("scope state");
            if inner.pending == 0 {
                return;
            }
            drop(self.done.wait(inner).expect("scope state"));
        }
    }
}

/// Waits for the scope's jobs on drop — including during unwinding — so the
/// lifetime-erasing spawn below stays sound.
struct WaitGuard<'a> {
    pool: &'a WorkerPool,
    state: &'a ScopeState,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.state.wait(self.pool);
    }
}

/// Spawn handle passed to the closure of [`WorkerPool::scope`].
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, exactly like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Queue `f` for execution on the pool. `f` may borrow from the
    /// enclosing scope; the borrow is released when the scope ends.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'env) {
        self.state.inner.lock().expect("scope state").pending += 1;
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            state.complete(result.err());
        });
        // SAFETY: erasing `'env` to `'static` is sound because the job
        // cannot outlive the borrows it captures: the `WaitGuard` inside
        // `WorkerPool::scope` blocks (on the normal path and during unwind)
        // until this job has run to completion, and the job itself drops
        // `f` before signalling completion.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.push(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scoped_jobs_borrow_and_all_complete() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        let inputs: Vec<usize> = (0..64).collect();
        let mut outputs = vec![0usize; inputs.len()];
        pool.scope(|scope| {
            for (slot, &x) in outputs.iter_mut().zip(&inputs) {
                let hits = &hits;
                scope.spawn(move || {
                    *slot = x * 2;
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 64);
        assert!(outputs.iter().enumerate().all(|(i, &v)| v == i * 2));
    }

    #[test]
    fn nested_scopes_on_pool_workers_do_not_deadlock() {
        let pool = WorkerPool::new(1); // One worker forces inline helping.
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                let total = &total;
                outer.spawn(move || {
                    WorkerPool::global().scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(move || {
                                total.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn a_panicking_job_reraises_at_the_scope_boundary() {
        let pool = WorkerPool::new(2);
        let after = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(|| panic!("lane failed"));
                scope.spawn(|| {
                    after.fetch_add(1, Ordering::SeqCst);
                });
            });
        }));
        let payload = caught.expect_err("scope re-raises the job panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert_eq!(msg, "lane failed");
        // The sibling job still ran to completion before the re-raise.
        assert_eq!(after.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.workers() >= 1);
    }
}
