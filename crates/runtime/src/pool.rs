//! The persistent work-stealing worker pool.
//!
//! One [`WorkerPool`] is created per process (or per suite run) and shared by
//! every consumer — population-batch evaluation, GA instance rounds, and
//! whole scheduler jobs. Work is organized in [`PoolScope`]s:
//!
//! * [`WorkerPool::scope`] opens a scope whose spawned closures may borrow
//!   from the caller's stack (like `std::thread::scope`), registers the
//!   scope's task queue with the pool, and — crucially — **drains its own
//!   queue on the calling thread** while waiting. The caller is always a
//!   productive worker, so a pool with zero workers still executes
//!   everything inline, and nested scopes (a job spawning population
//!   batches) can never deadlock: every scope's owner drains the tasks it
//!   created, and stolen tasks complete on whichever worker took them.
//! * Idle pool workers *steal* from the registered scope queues round-robin,
//!   oldest scope first — so concurrently running jobs have their batches
//!   interleaved fairly instead of one job monopolizing the pool.

use clapton_telemetry::metrics::{registry, Counter, Gauge};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

/// Process-wide pool metrics (pools share the global registry, so several
/// pools in one process aggregate into the same series).
struct PoolMetrics {
    spawned: Arc<Counter>,
    stolen: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    busy: Arc<Gauge>,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        spawned: registry().counter(
            "clapton_pool_tasks_spawned_total",
            "Tasks spawned onto pool scopes",
        ),
        stolen: registry().counter(
            "clapton_pool_tasks_stolen_total",
            "Tasks taken by idle pool workers (rest ran on scope owners)",
        ),
        queue_depth: registry().gauge(
            "clapton_pool_queue_depth",
            "Tasks currently queued across all live scopes",
        ),
        busy: registry().gauge(
            "clapton_pool_workers_busy",
            "Pool worker threads currently executing a task",
        ),
    })
}

/// A type-erased unit of work.
///
/// The `'static` bound is a lie told to the type system: tasks are created
/// with the scope's `'env` lifetime and transmuted. Soundness rests on
/// [`WorkerPool::scope`] never returning (even under panics) before every
/// spawned task has run to completion.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Completion state shared between a scope and its spawned tasks.
struct ScopeState {
    /// Tasks spawned but not yet finished.
    pending: Mutex<usize>,
    /// Signalled when `pending` reaches zero.
    done: Condvar,
    /// Panic payloads captured from tasks, re-raised when the scope closes.
    panics: Mutex<Vec<Box<dyn std::any::Any + Send>>>,
}

/// A scope's task queue, registered with the pool so workers can steal.
struct ScopeQueue {
    tasks: Mutex<VecDeque<Task>>,
    state: ScopeState,
}

impl ScopeQueue {
    fn new() -> ScopeQueue {
        ScopeQueue {
            tasks: Mutex::new(VecDeque::new()),
            state: ScopeState {
                pending: Mutex::new(0),
                done: Condvar::new(),
                panics: Mutex::new(Vec::new()),
            },
        }
    }

    fn pop(&self) -> Option<Task> {
        let task = self.tasks.lock().expect("scope queue").pop_front();
        if task.is_some() {
            pool_metrics().queue_depth.dec();
        }
        task
    }
}

/// State shared by all workers of a pool.
struct PoolShared {
    /// Live scope queues in creation order. Cleaned up lazily.
    scopes: Mutex<Vec<Weak<ScopeQueue>>>,
    /// Generation counter bumped on every spawn and on shutdown, so sleeping
    /// workers never miss a wakeup.
    signal: Mutex<u64>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl PoolShared {
    /// Wakes the workers after new tasks became available (or on shutdown).
    fn bump(&self) {
        let mut gen = self.signal.lock().expect("pool signal");
        *gen += 1;
        drop(gen);
        self.wake.notify_all();
    }

    /// Steals one task, scanning the live scopes round-robin from `start`.
    fn steal(&self, start: usize) -> Option<Task> {
        let queues: Vec<Arc<ScopeQueue>> = {
            let mut scopes = self.scopes.lock().expect("pool scopes");
            scopes.retain(|w| w.strong_count() > 0);
            scopes.iter().filter_map(Weak::upgrade).collect()
        };
        if queues.is_empty() {
            return None;
        }
        let n = queues.len();
        (0..n).find_map(|i| queues[(start + i) % n].pop())
    }
}

/// A persistent pool of worker threads executing scoped tasks.
///
/// Work runs in [`PoolScope`]s opened by [`WorkerPool::scope`], whose owner
/// drains its own queue while idle workers steal from every open scope.
/// The pool is cheap to share (`Arc<WorkerPool>`); dropping the last handle
/// shuts the workers down. A pool with zero workers is valid and runs every scope inline on
/// the calling thread — handy for tests and for forcing serial execution.
///
/// # Example
///
/// ```
/// use clapton_runtime::WorkerPool;
///
/// let pool = WorkerPool::with_workers(2);
/// let mut squares = vec![0u64; 8];
/// pool.scope(|s| {
///     for (i, slot) in squares.iter_mut().enumerate() {
///         s.spawn(move || *slot = (i as u64) * (i as u64));
///     }
/// });
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// A pool with one worker per available core.
    pub fn new() -> WorkerPool {
        WorkerPool::with_workers(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// A pool with exactly `workers` threads (`0` runs scopes inline).
    pub fn with_workers(workers: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            scopes: Mutex::new(Vec::new()),
            signal: Mutex::new(0),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("clapton-worker-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads (callers waiting on a scope work too, so the
    /// effective parallelism of a blocking caller is `workers() + 1`).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs `f` with a [`PoolScope`] that can spawn borrowing tasks, then
    /// executes/awaits every spawned task before returning.
    ///
    /// The calling thread drains the scope's own queue while waiting, so
    /// progress never depends on a free pool worker. Panics from tasks (and
    /// from `f` itself) are propagated after all tasks have finished.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&PoolScope<'_, 'env>) -> R) -> R {
        let queue = Arc::new(ScopeQueue::new());
        self.shared
            .scopes
            .lock()
            .expect("pool scopes")
            .push(Arc::downgrade(&queue));
        let scope = PoolScope {
            pool: self,
            queue: Arc::clone(&queue),
            _env: PhantomData,
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Drain our own queue: the caller is a worker for its own scope.
        while let Some(task) = queue.pop() {
            task();
        }
        // Await tasks stolen by pool workers.
        let mut pending = queue.state.pending.lock().expect("scope pending");
        while *pending > 0 {
            pending = queue.state.done.wait(pending).expect("scope pending");
        }
        drop(pending);
        let panics = std::mem::take(&mut *queue.state.panics.lock().expect("scope panics"));
        drop(scope);
        drop(queue);
        self.shared
            .scopes
            .lock()
            .expect("pool scopes")
            .retain(|w| w.strong_count() > 0);
        match result {
            Err(payload) => panic::resume_unwind(payload),
            Ok(value) => {
                if let Some(payload) = panics.into_iter().next() {
                    panic::resume_unwind(payload);
                }
                value
            }
        }
    }
}

impl Default for WorkerPool {
    fn default() -> WorkerPool {
        WorkerPool::new()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.bump();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Spawn handle passed to the closure of [`WorkerPool::scope`].
///
/// Tasks may borrow anything from the enclosing stack frame (`'env`). Tasks
/// cannot spawn siblings onto the same scope (the handle's lifetime forbids
/// capturing it), which is what makes the owner's drain-then-wait join
/// deadlock-free; tasks that need their own parallelism open a fresh nested
/// scope on the pool.
pub struct PoolScope<'pool, 'env> {
    pool: &'pool WorkerPool,
    queue: Arc<ScopeQueue>,
    /// Invariant in `'env`, like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> PoolScope<'pool, 'env> {
    /// Queues `f` for execution by the pool (or by the scope owner when it
    /// drains the queue at scope close).
    pub fn spawn<F: FnOnce() + Send + 'env>(&self, f: F) {
        *self.queue.state.pending.lock().expect("scope pending") += 1;
        let queue = Arc::clone(&self.queue);
        // Capture the spawning thread's telemetry context so spans created
        // inside the task attach to the spawner's trace, wherever it runs.
        let telemetry_ctx = clapton_telemetry::current_context();
        let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let _telemetry = clapton_telemetry::push_context(telemetry_ctx);
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
                queue
                    .state
                    .panics
                    .lock()
                    .expect("scope panics")
                    .push(payload);
            }
            let mut pending = queue.state.pending.lock().expect("scope pending");
            *pending -= 1;
            if *pending == 0 {
                queue.state.done.notify_all();
            }
        });
        // SAFETY: the task is erased to `'static` but only lives until
        // `WorkerPool::scope` returns — the scope drains its queue and waits
        // for `pending == 0` before returning, on success *and* on panic, so
        // no `'env` borrow is ever used after `'env` ends.
        let task: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(
                wrapped,
            )
        };
        self.queue
            .tasks
            .lock()
            .expect("scope queue")
            .push_back(task);
        let metrics = pool_metrics();
        metrics.spawned.inc();
        metrics.queue_depth.inc();
        self.pool.shared.bump();
    }
}

/// The worker thread body: steal round-robin across scopes, park when idle.
fn worker_loop(shared: &PoolShared, idx: usize) {
    let metrics = pool_metrics();
    let worker = idx.to_string();
    let busy_ns = registry().counter_with(
        "clapton_pool_worker_busy_ns_total",
        "Nanoseconds each pool worker spent executing tasks",
        &[("worker", &worker)],
    );
    let idle_ns = registry().counter_with(
        "clapton_pool_worker_idle_ns_total",
        "Nanoseconds each pool worker spent parked waiting for work",
        &[("worker", &worker)],
    );
    let mut rotate = idx;
    loop {
        let observed = *shared.signal.lock().expect("pool signal");
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Some(task) = shared.steal(rotate) {
            rotate = rotate.wrapping_add(1);
            metrics.stolen.inc();
            metrics.busy.inc();
            let started = clapton_telemetry::enabled().then(Instant::now);
            task();
            if let Some(started) = started {
                busy_ns.add(started.elapsed().as_nanos() as u64);
            }
            metrics.busy.dec();
            continue;
        }
        let parked = clapton_telemetry::enabled().then(Instant::now);
        let mut gen = shared.signal.lock().expect("pool signal");
        // Re-check under the lock: a spawn between our steal attempt and
        // here bumped the generation, so we skip the wait instead of
        // sleeping through the wakeup.
        while *gen == observed && !shared.shutdown.load(Ordering::SeqCst) {
            gen = shared.wake.wait(gen).expect("pool signal");
        }
        drop(gen);
        if let Some(parked) = parked {
            idle_ns.add(parked.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn executes_all_tasks_with_and_without_workers() {
        for workers in [0, 1, 3] {
            let pool = WorkerPool::with_workers(workers);
            let counter = AtomicUsize::new(0);
            pool.scope(|s| {
                for _ in 0..64 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::Relaxed), 64, "workers {workers}");
        }
    }

    #[test]
    fn tasks_borrow_and_mutate_disjoint_slices() {
        let pool = WorkerPool::with_workers(2);
        let mut data = vec![0usize; 100];
        pool.scope(|s| {
            for (i, chunk) in data.chunks_mut(7).enumerate() {
                s.spawn(move || {
                    for v in chunk.iter_mut() {
                        *v = i + 1;
                    }
                });
            }
        });
        assert!(data.iter().all(|&v| v > 0));
        assert_eq!(data[0], 1);
        assert_eq!(data[99], 100usize.div_ceil(7));
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // Jobs (outer tasks) each fan out an inner batch on the same pool,
        // with fewer workers than jobs — the regime of the suite runner.
        let pool = WorkerPool::with_workers(1);
        let total = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                let pool = &pool;
                let total = &total;
                s.spawn(move || {
                    pool.scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = WorkerPool::with_workers(1);
        let out = pool.scope(|s| {
            s.spawn(|| {});
            41 + 1
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn task_panics_propagate_after_all_tasks_finish() {
        let pool = WorkerPool::with_workers(1);
        let finished = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task boom"));
                for _ in 0..8 {
                    s.spawn(|| {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate");
        assert_eq!(
            finished.load(Ordering::Relaxed),
            8,
            "siblings still ran to completion"
        );
        // The pool survives and remains usable.
        let again = AtomicUsize::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                again.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(again.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_scopes_from_many_threads() {
        let pool = Arc::new(WorkerPool::with_workers(2));
        let total = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        pool.scope(|s| {
                            for _ in 0..5 {
                                let total = &total;
                                s.spawn(move || {
                                    total.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * 10 * 5);
    }
}
