//! A std-only work-stealing worker pool for the append/proof pipeline.
//!
//! The request-wide work of a verifiable ledger — admission ECDSA and
//! payload digesting for a batch of appends, proofs for a batch of
//! reads — decomposes into independent units whose *results* are
//! order-insensitive (digests are pure functions of their inputs). This
//! pool gives the rest of the workspace one primitive for both:
//!
//! * [`Pool::scope`] — structured fork/join over borrowed data: every
//!   task spawned inside the scope completes before `scope` returns,
//!   even when the scope body or a task panics;
//! * [`Pool::map`] / [`Pool::try_map`] — deterministic parallel map:
//!   results land by index, so output order never depends on execution
//!   order, and `try_map` converts a per-item panic into a typed
//!   [`TaskPanic`] instead of poisoning the batch;
//! * helping joins — a thread waiting on its scope *executes queued
//!   tasks* instead of sleeping, and a `try_map` caller claims items
//!   itself, so a map keeps making progress while every worker is busy
//!   on another caller's batch, even on a single-worker pool.
//!
//! Tasks are pushed round-robin across per-worker queues and idle
//! workers steal from their siblings, so one long task (a large
//! payload's digest) does not strand the short ones queued behind it.
//!
//! Telemetry: `ledger_pool_tasks_total`, `ledger_pool_queue_depth`,
//! `ledger_pool_panics_total`, `ledger_pool_workers`.

use ledgerdb_telemetry::{Counter, Gauge, Registry};
use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A task panicked inside [`Pool::try_map`]; carries the panic message
/// so the failure is attributable per item instead of batch-wide.
#[derive(Debug, Clone)]
pub struct TaskPanic {
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Ignore lock poisoning: every task runs under `catch_unwind`, so a
/// panicking task never leaves shared pool state torn.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Inner {
    /// One queue per worker; pushes rotate, idle workers steal.
    queues: Vec<Mutex<VecDeque<Task>>>,
    push_cursor: AtomicUsize,
    /// Paired with `wake`. A pusher notifies under this lock and a
    /// worker re-checks the queues under it before sleeping, so a push
    /// can never slip between the check and the wait (no lost wakeup).
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    tasks_total: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    panics_total: Arc<Counter>,
}

impl Inner {
    fn push(&self, task: Task) {
        let i = self.push_cursor.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        lock(&self.queues[i]).push_back(task);
        self.queue_depth.add(1);
        let _guard = lock(&self.sleep);
        self.wake.notify_one();
    }

    /// Pop from `start`'s own queue, else steal from a sibling.
    fn try_pop(&self, start: usize) -> Option<Task> {
        let n = self.queues.len();
        for k in 0..n {
            if let Some(task) = lock(&self.queues[(start + k) % n]).pop_front() {
                self.queue_depth.add(-1);
                return Some(task);
            }
        }
        None
    }

    fn has_queued(&self) -> bool {
        self.queues.iter().any(|q| !lock(q).is_empty())
    }

    /// Execute one task; a panic is contained here so the worker thread
    /// survives (scope-spawned tasks additionally record their payload
    /// for propagation to the scope owner).
    fn run(&self, task: Task) {
        self.tasks_total.inc();
        if catch_unwind(AssertUnwindSafe(task)).is_err() {
            self.panics_total.inc();
        }
    }
}

fn worker_loop(inner: Arc<Inner>, me: usize) {
    loop {
        if let Some(task) = inner.try_pop(me) {
            inner.run(task);
            continue;
        }
        let guard = lock(&inner.sleep);
        // Drain-then-exit: queued work outranks the shutdown flag.
        if inner.shutdown.load(Ordering::Acquire) {
            if inner.has_queued() {
                continue;
            }
            return;
        }
        if inner.has_queued() {
            continue; // a push raced our empty-queue check
        }
        // The timeout is a belt-and-braces backstop only; the
        // notify-under-lock protocol above makes wakeups reliable.
        let _ = inner.wake.wait_timeout(guard, Duration::from_millis(50));
    }
}

/// Fork/join state for one [`Pool::scope`] call.
struct ScopeState {
    pending: AtomicUsize,
    done: Mutex<()>,
    completed: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

/// Handle for spawning borrowed tasks inside [`Pool::scope`].
pub struct Scope<'pool, 'env> {
    pool: &'pool Pool,
    state: Arc<ScopeState>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Queue a task that may borrow from the enclosing scope. The first
    /// panicking task's payload is re-raised by `scope` after the join.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let state = self.state.clone();
        let panics = self.pool.inner.panics_total.clone();
        // Before the push, so an instantly-finishing task can't race the
        // join to a false zero.
        state.pending.fetch_add(1, Ordering::AcqRel);
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                panics.inc();
                let mut slot = lock(&state.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if state.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _guard = lock(&state.done);
                state.completed.notify_all();
            }
        });
        // SAFETY: `Pool::scope` joins every spawned task before it
        // returns — including when the scope body panics (the join
        // guard's Drop waits) — so no borrow captured by `f` can outlive
        // its referent despite the erased lifetime.
        let task: Task = unsafe { std::mem::transmute(task) };
        self.pool.inner.push(task);
    }
}

/// Waits for the scope's tasks on all exits from `scope`, panicking or
/// not — the lifetime-erasure safety argument hangs on this Drop.
struct JoinGuard<'a> {
    pool: &'a Pool,
    state: &'a ScopeState,
}

impl Drop for JoinGuard<'_> {
    fn drop(&mut self) {
        self.pool.wait_scope(self.state);
    }
}

/// A fixed-size worker pool. Cheap to share (`Arc<Pool>`); dropping the
/// last handle drains the queues and joins the workers.
pub struct Pool {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("workers", &self.workers()).finish_non_exhaustive()
    }
}

impl Pool {
    /// Spawn `workers` (min 1) threads, recording into the process-global
    /// telemetry registry.
    pub fn new(workers: usize) -> Arc<Pool> {
        Self::with_registry(workers, Registry::global())
    }

    /// As [`Pool::new`] with an explicit registry (test isolation).
    pub fn with_registry(workers: usize, registry: &Registry) -> Arc<Pool> {
        let workers = workers.max(1);
        registry.gauge("ledger_pool_workers").set(workers as i64);
        let inner = Arc::new(Inner {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            push_cursor: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tasks_total: registry.counter("ledger_pool_tasks_total"),
            queue_depth: registry.gauge("ledger_pool_queue_depth"),
            panics_total: registry.counter("ledger_pool_panics_total"),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("ledger-pool-{i}"))
                    .spawn(move || worker_loop(inner, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(Pool { inner, handles: Mutex::new(handles) })
    }

    /// Worker-thread count (the scope/map caller helps on top of this).
    pub fn workers(&self) -> usize {
        self.inner.queues.len()
    }

    /// Structured fork/join: run `f` with a [`Scope`] whose spawned
    /// tasks may borrow anything alive across this call; all of them
    /// complete before `scope` returns. The calling thread *helps* —
    /// it executes queued tasks while waiting — so scopes nest without
    /// deadlock on any pool size. The first task panic is re-raised
    /// here after the join.
    pub fn scope<'env, R>(&self, f: impl for<'p> FnOnce(&Scope<'p, 'env>) -> R) -> R {
        let state = Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            done: Mutex::new(()),
            completed: Condvar::new(),
            panic: Mutex::new(None),
        });
        let scope = Scope { pool: self, state: state.clone(), _env: PhantomData };
        let out = {
            let _join = JoinGuard { pool: self, state: &state };
            f(&scope)
        };
        if let Some(payload) = lock(&state.panic).take() {
            resume_unwind(payload);
        }
        out
    }

    /// Helping join: execute queued tasks (any scope's — that's what
    /// unblocks nested fan-outs) until this scope's pending count hits
    /// zero.
    fn wait_scope(&self, state: &ScopeState) {
        while state.pending.load(Ordering::Acquire) > 0 {
            if let Some(task) = self.inner.try_pop(0) {
                self.inner.run(task);
                continue;
            }
            let guard = lock(&state.done);
            if state.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            // Short timeout: our remaining tasks may be *running* on
            // workers (nothing to steal), or new stealable work may
            // appear that the completion condvar won't announce.
            let _ = state.completed.wait_timeout(guard, Duration::from_millis(1));
        }
    }

    /// Deterministic parallel map: `out[i] = f(i, &items[i])`, with the
    /// caller participating. Output order is positional, never
    /// scheduling-dependent. A panicking item panics the whole map
    /// (use [`Pool::try_map`] for per-item containment).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.try_map(items, f)
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| panic!("{p}")))
            .collect()
    }

    /// As [`Pool::map`], but a panicking item yields `Err(TaskPanic)`
    /// in its slot while every other item completes normally.
    pub fn try_map<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, TaskPanic>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let slots: Vec<Mutex<Option<Result<R, TaskPanic>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let work = |_worker: usize| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let out = catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))).map_err(|payload| {
                self.inner.panics_total.inc();
                TaskPanic { message: panic_message(payload.as_ref()) }
            });
            *lock(&slots[i]) = Some(out);
        };
        // The caller claims items too, so a 1-worker pool still makes
        // progress while its worker is busy elsewhere.
        let helpers = self.workers().min(n.saturating_sub(1));
        self.scope(|s| {
            let work = &work;
            for w in 0..helpers {
                s.spawn(move || work(w));
            }
            work(helpers);
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every map index is claimed exactly once")
            })
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _guard = lock(&self.inner.sleep);
            self.inner.wake.notify_all();
        }
        for handle in lock(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_runs_borrowed_tasks_to_completion() {
        let pool = Pool::with_registry(3, &Registry::new());
        let mut results = vec![0u64; 8];
        pool.scope(|s| {
            for (i, slot) in results.iter_mut().enumerate() {
                s.spawn(move || *slot = (i as u64 + 1) * 10);
            }
        });
        assert_eq!(results, vec![10, 20, 30, 40, 50, 60, 70, 80]);
    }

    #[test]
    fn map_is_deterministic_and_positional() {
        let pool = Pool::with_registry(4, &Registry::new());
        let items: Vec<u64> = (0..257).collect();
        let out = pool.map(&items, |i, v| {
            assert_eq!(i as u64, *v);
            v * v
        });
        let expected: Vec<u64> = items.iter().map(|v| v * v).collect();
        assert_eq!(out, expected);
        // Repeat runs agree byte-for-byte regardless of scheduling.
        assert_eq!(pool.map(&items, |_, v| v * v), expected);
    }

    #[test]
    fn try_map_contains_per_item_panics() {
        let pool = Pool::with_registry(2, &Registry::new());
        let items: Vec<u64> = (0..16).collect();
        let out = pool.try_map(&items, |_, v| {
            if *v == 7 {
                panic!("item seven is cursed");
            }
            *v + 1
        });
        for (i, r) in out.iter().enumerate() {
            if i == 7 {
                let e = r.as_ref().unwrap_err();
                assert!(e.message.contains("cursed"), "{e}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u64 + 1);
            }
        }
        // The pool is not wedged: later work still runs.
        assert_eq!(pool.map(&items, |_, v| *v), items);
    }

    #[test]
    fn scope_task_panic_propagates_after_join() {
        let pool = Pool::with_registry(2, &Registry::new());
        let finished = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
                for _ in 0..8 {
                    s.spawn(|| {
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(result.is_err(), "the task panic must reach the scope owner");
        // Join-before-unwind: every sibling completed despite the panic.
        assert_eq!(finished.load(Ordering::SeqCst), 8);
        assert_eq!(pool.map(&[1u64, 2, 3], |_, v| *v), vec![1, 2, 3]);
    }

    #[test]
    fn nested_scopes_do_not_deadlock_even_single_worker() {
        let pool = Pool::with_registry(1, &Registry::new());
        let total = AtomicU64::new(0);
        pool.scope(|outer| {
            for _ in 0..3 {
                let pool = &pool;
                let total = &total;
                outer.spawn(move || {
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 12);
    }

    #[test]
    fn torture_panicking_tasks_do_not_wedge_the_pool() {
        let registry = Registry::new();
        let pool = Pool::with_registry(3, &registry);
        let ok = AtomicU64::new(0);
        for round in 0..20u64 {
            // Swallow the propagated panic; the pool itself must stay up.
            let scoped = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|s| {
                    for i in 0..10u64 {
                        let ok = &ok;
                        s.spawn(move || {
                            if (round + i) % 3 == 0 {
                                panic!("round {round} item {i}");
                            }
                            ok.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            }));
            assert!(scoped.is_err(), "every round has a panicking item");
        }
        let expected: u64 = (0..20u64)
            .map(|round| (0..10u64).filter(|i| (round + i) % 3 != 0).count() as u64)
            .sum();
        assert_eq!(ok.load(Ordering::SeqCst), expected);
        let out = pool.map(&(0..100u64).collect::<Vec<_>>(), |_, v| v + 1);
        assert_eq!(out.len(), 100);
        assert!(pool.inner.panics_total.get() > 0);
        assert_eq!(pool.inner.queue_depth.get(), 0, "no task left behind");
    }

    #[test]
    fn telemetry_counts_tasks_and_settles_queue_depth() {
        let registry = Registry::new();
        let pool = Pool::with_registry(2, &registry);
        pool.scope(|s| {
            for _ in 0..32 {
                s.spawn(|| {});
            }
        });
        assert!(pool.inner.tasks_total.get() >= 1, "helping may run some tasks inline");
        assert_eq!(pool.inner.queue_depth.get(), 0);
        assert_eq!(registry.gauge("ledger_pool_workers").get(), 2);
    }
}
