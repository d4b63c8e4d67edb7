//! Fair multi-job scheduling on the shared worker pool.

use crate::{CancelToken, Interrupt, PoolScope, WorkerPool};
use clapton_telemetry::metrics::{registry, Counter, Histogram};
use serde::{Deserialize, Serialize};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

struct SchedMetrics {
    started: Arc<Counter>,
    rounds: Arc<Counter>,
    round_latency: Arc<Histogram>,
    dispatch_lag: Arc<Histogram>,
}

fn sched_metrics() -> &'static SchedMetrics {
    static METRICS: OnceLock<SchedMetrics> = OnceLock::new();
    METRICS.get_or_init(|| SchedMetrics {
        started: registry().counter(
            "clapton_jobs_started_total",
            "Scheduled jobs that began executing",
        ),
        rounds: registry().counter(
            "clapton_job_rounds_total",
            "Progress rounds emitted by scheduled jobs",
        ),
        round_latency: registry().histogram(
            "clapton_round_latency_seconds",
            "Time between consecutive round events of one job",
            &[
                0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
            ],
        ),
        dispatch_lag: registry().histogram(
            "clapton_dispatch_lag_seconds",
            "Time from job creation to the moment its body starts on the pool",
            &[1e-5, 1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0],
        ),
    })
}

/// What happened inside a scheduled job (streamed over a channel while the
/// suite runs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// The job started executing.
    Started,
    /// One unit of job progress: `(round, best loss so far)`.
    Round(usize, f64),
    /// A checkpoint for the given round was persisted.
    Checkpointed(usize),
    /// The job finished; the payload is a short human-readable outcome.
    Finished(String),
    /// The job halted early (budget exhausted / interrupt requested) after
    /// the given number of completed rounds.
    Suspended(usize),
    /// The job was cooperatively cancelled after the given number of
    /// completed rounds; this is terminal (a suspend is not).
    Cancelled(usize),
}

/// A progress event of one job in a scheduled run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunEvent {
    /// Name of the job that emitted the event.
    pub job: String,
    /// What happened.
    pub kind: EventKind,
    /// Wall-clock emit time, nanoseconds since the Unix epoch — orders
    /// events across processes (subject to clock skew).
    pub unix_ns: u64,
    /// Monotonic emit time, nanoseconds since this process's telemetry
    /// epoch — orders events within one process exactly.
    pub mono_ns: u64,
}

impl RunEvent {
    /// An event for `job` stamped with the current wall and monotonic
    /// clocks.
    pub fn now(job: impl Into<String>, kind: EventKind) -> RunEvent {
        RunEvent {
            job: job.into(),
            kind,
            unix_ns: clapton_telemetry::wall_ns(),
            mono_ns: clapton_telemetry::mono_ns(),
        }
    }
}

/// Per-job handle passed to job closures: the shared pool for nested
/// parallelism plus the event stream.
#[derive(Debug)]
pub struct JobContext {
    pool: Arc<WorkerPool>,
    name: String,
    events: Option<Sender<RunEvent>>,
    cancel: CancelToken,
    /// Monotonic timestamp of the last `Started`/`Round` emit (0: none
    /// yet), feeding the round-latency histogram.
    last_mark: AtomicU64,
}

impl JobContext {
    /// The process-wide worker pool; jobs open nested scopes or pooled
    /// evaluators on it instead of spawning threads.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The job's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The interruption requested for this job, if any. Job bodies poll this
    /// at their round boundaries (after checkpointing) and stop
    /// cooperatively — nothing is ever torn down mid-round.
    pub fn interrupt(&self) -> Interrupt {
        self.cancel.interrupt()
    }

    /// Streams a progress event (dropped silently when no listener is
    /// attached or the receiver hung up — progress must never block a job).
    /// `Started`/`Round` emits also feed the scheduler's round metrics.
    pub fn emit(&self, kind: EventKind) {
        let now = clapton_telemetry::mono_ns();
        match kind {
            EventKind::Started => {
                self.last_mark.store(now, Ordering::Relaxed);
                sched_metrics().started.inc();
            }
            EventKind::Round(..) => {
                let previous = self.last_mark.swap(now, Ordering::Relaxed);
                let metrics = sched_metrics();
                metrics.rounds.inc();
                if previous != 0 {
                    metrics
                        .round_latency
                        .observe(now.saturating_sub(previous) as f64 / 1e9);
                }
            }
            _ => {}
        }
        if let Some(events) = &self.events {
            let _ = events.send(RunEvent {
                job: self.name.clone(),
                kind,
                unix_ns: clapton_telemetry::wall_ns(),
                mono_ns: now,
            });
        }
    }
}

/// One schedulable unit of work producing a `T`.
pub struct ScheduledJob<'a, T> {
    name: String,
    cancel: CancelToken,
    /// When the job was packaged; start minus this is the dispatch lag.
    created: Instant,
    run: Box<dyn FnOnce(&JobContext) -> T + Send + 'a>,
}

impl<'a, T> ScheduledJob<'a, T> {
    /// Packages a closure as a named job (with a fresh, never-fired
    /// cancellation token).
    pub fn new(
        name: impl Into<String>,
        run: impl FnOnce(&JobContext) -> T + Send + 'a,
    ) -> ScheduledJob<'a, T> {
        ScheduledJob::with_cancel(name, CancelToken::new(), run)
    }

    /// Packages a closure as a named job observing `cancel`: the token is
    /// exposed to the job body through [`JobContext::interrupt`], and the
    /// caller keeps (clones of) it to request cooperative interruption
    /// while the job runs.
    pub fn with_cancel(
        name: impl Into<String>,
        cancel: CancelToken,
        run: impl FnOnce(&JobContext) -> T + Send + 'a,
    ) -> ScheduledJob<'a, T> {
        ScheduledJob {
            name: name.into(),
            cancel,
            created: Instant::now(),
            run: Box::new(run),
        }
    }

    /// The job's display name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl<T> std::fmt::Debug for ScheduledJob<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduledJob")
            .field("name", &self.name)
            .finish()
    }
}

/// Runs many jobs concurrently on one [`WorkerPool`] with fair interleaving.
///
/// Every job becomes a pool task; the population batches a job fans out
/// (nested scopes, [`PooledEvaluator`](crate::PooledEvaluator) chunks) land
/// in per-scope queues that idle workers drain round-robin — so concurrent
/// jobs share the machine instead of queueing behind each other, and a
/// single-core machine degrades to clean interleaved progress.
///
/// # Example
///
/// ```
/// use clapton_runtime::{JobScheduler, ScheduledJob, WorkerPool};
/// use std::sync::Arc;
///
/// let scheduler = JobScheduler::new(Arc::new(WorkerPool::with_workers(2)));
/// let jobs = (0..4)
///     .map(|i| ScheduledJob::new(format!("square-{i}"), move |_ctx| i * i))
///     .collect();
/// assert_eq!(scheduler.run_all(jobs, None), vec![0, 1, 4, 9]);
/// ```
#[derive(Debug, Clone)]
pub struct JobScheduler {
    pool: Arc<WorkerPool>,
}

impl JobScheduler {
    /// A scheduler dispatching onto `pool`.
    pub fn new(pool: Arc<WorkerPool>) -> JobScheduler {
        JobScheduler { pool }
    }

    /// The underlying pool.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Runs all jobs to completion, returning their results in job order.
    /// Progress is streamed to `events` when provided.
    ///
    /// # Panics
    ///
    /// Propagates the first job panic after every job has finished. Callers
    /// that must survive a dying job use [`JobScheduler::try_run_all`].
    pub fn run_all<'a, T: Send>(
        &self,
        jobs: Vec<ScheduledJob<'a, T>>,
        events: Option<Sender<RunEvent>>,
    ) -> Vec<T> {
        match self.try_run_all(jobs, events) {
            (results, None) => results
                .into_iter()
                .map(|r| r.expect("no panic was raised, so every job produced a result"))
                .collect(),
            (_, Some(payload)) => panic::resume_unwind(payload),
        }
    }

    /// Runs all jobs to completion like [`JobScheduler::run_all`], but never
    /// panics: a job that dies (panics) yields `None` in its result slot,
    /// and the first captured panic payload is returned alongside the
    /// results instead of being re-raised. Sibling jobs always run to
    /// completion either way.
    pub fn try_run_all<'a, T: Send>(
        &self,
        jobs: Vec<ScheduledJob<'a, T>>,
        events: Option<Sender<RunEvent>>,
    ) -> (Vec<Option<T>>, Option<Box<dyn std::any::Any + Send>>) {
        let slots: Vec<Mutex<Option<T>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            self.pool.scope(|s: &PoolScope<'_, '_>| {
                for (job, slot) in jobs.into_iter().zip(&slots) {
                    let ctx = JobContext {
                        pool: Arc::clone(&self.pool),
                        name: job.name,
                        events: events.clone(),
                        cancel: job.cancel,
                        last_mark: AtomicU64::new(0),
                    };
                    let run = job.run;
                    let created = job.created;
                    s.spawn(move || {
                        sched_metrics()
                            .dispatch_lag
                            .observe(created.elapsed().as_secs_f64());
                        ctx.emit(EventKind::Started);
                        let out = run(&ctx);
                        if let Ok(mut slot) = slot.lock() {
                            *slot = Some(out);
                        }
                    });
                }
            });
        }));
        let results = slots
            .into_iter()
            .map(|slot| match slot.into_inner() {
                Ok(value) => value,
                Err(poisoned) => poisoned.into_inner(),
            })
            .collect();
        (results, outcome.err())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn results_come_back_in_job_order() {
        let scheduler = JobScheduler::new(Arc::new(WorkerPool::with_workers(2)));
        let jobs: Vec<ScheduledJob<usize>> = (0..10)
            .map(|i| ScheduledJob::new(format!("job-{i}"), move |_| i * 7))
            .collect();
        assert_eq!(
            scheduler.run_all(jobs, None),
            (0..10).map(|i| i * 7).collect::<Vec<_>>()
        );
    }

    #[test]
    fn jobs_share_the_pool_for_nested_batches() {
        let scheduler = JobScheduler::new(Arc::new(WorkerPool::with_workers(1)));
        let touched = AtomicUsize::new(0);
        let jobs: Vec<ScheduledJob<usize>> = (0..6)
            .map(|i| {
                let touched = &touched;
                ScheduledJob::new(format!("fanout-{i}"), move |ctx: &JobContext| {
                    ctx.pool().scope(|s| {
                        for _ in 0..16 {
                            s.spawn(|| {
                                touched.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                    i
                })
            })
            .collect();
        let results = scheduler.run_all(jobs, None);
        assert_eq!(results, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(touched.load(Ordering::Relaxed), 6 * 16);
    }

    #[test]
    fn events_stream_start_and_custom_kinds() {
        let scheduler = JobScheduler::new(Arc::new(WorkerPool::with_workers(1)));
        let (tx, rx) = mpsc::channel();
        let jobs: Vec<ScheduledJob<()>> = (0..3)
            .map(|i| {
                ScheduledJob::new(format!("j{i}"), move |ctx: &JobContext| {
                    ctx.emit(EventKind::Round(1, 0.5));
                    ctx.emit(EventKind::Finished("ok".to_string()));
                })
            })
            .collect();
        scheduler.run_all(jobs, Some(tx));
        let events: Vec<RunEvent> = rx.try_iter().collect();
        assert_eq!(events.len(), 9, "3 jobs x (started + round + finished)");
        for i in 0..3 {
            let name = format!("j{i}");
            let mine: Vec<&RunEvent> = events.iter().filter(|e| e.job == name).collect();
            assert_eq!(mine[0].kind, EventKind::Started);
            assert_eq!(mine[1].kind, EventKind::Round(1, 0.5));
            assert_eq!(mine[2].kind, EventKind::Finished("ok".to_string()));
        }
    }

    #[test]
    fn try_run_all_survives_a_dying_job() {
        let scheduler = JobScheduler::new(Arc::new(WorkerPool::with_workers(1)));
        let jobs = vec![
            ScheduledJob::new("ok-1", |_: &JobContext| 1usize),
            ScheduledJob::new("boom", |_: &JobContext| -> usize {
                panic!("job body died")
            }),
            ScheduledJob::new("ok-2", |_: &JobContext| 2usize),
        ];
        let (results, payload) = scheduler.try_run_all(jobs, None);
        assert_eq!(results, vec![Some(1), None, Some(2)]);
        let payload = payload.expect("panic payload captured");
        let text = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned());
        assert_eq!(text.as_deref(), Some("job body died"));
    }

    #[test]
    fn cancel_token_reaches_the_job_context() {
        let scheduler = JobScheduler::new(Arc::new(WorkerPool::with_workers(1)));
        let token = CancelToken::new();
        token.cancel();
        let fresh = ScheduledJob::new("fresh", |ctx: &JobContext| ctx.interrupt());
        let cancelled =
            ScheduledJob::with_cancel("cancelled", token, |ctx: &JobContext| ctx.interrupt());
        assert_eq!(
            scheduler.run_all(vec![fresh, cancelled], None),
            vec![Interrupt::None, Interrupt::Cancel]
        );
    }

    #[test]
    fn events_round_trip_through_json() {
        let event = RunEvent::now("ising(J=0.25)", EventKind::Round(3, -12.625));
        assert!(event.unix_ns > 0, "wall clock stamped");
        let json = serde_json::to_string(&event).unwrap();
        assert_eq!(serde_json::from_str::<RunEvent>(&json).unwrap(), event);
    }

    #[test]
    fn emitted_events_carry_ordered_monotonic_timestamps() {
        let scheduler = JobScheduler::new(Arc::new(WorkerPool::with_workers(0)));
        let (tx, rx) = mpsc::channel();
        let job = ScheduledJob::new("stamped", |ctx: &JobContext| {
            ctx.emit(EventKind::Round(1, 0.0));
            ctx.emit(EventKind::Finished("ok".to_string()));
        });
        scheduler.run_all(vec![job], Some(tx));
        let events: Vec<RunEvent> = rx.try_iter().collect();
        assert_eq!(events.len(), 3);
        assert!(
            events.windows(2).all(|w| w[0].mono_ns <= w[1].mono_ns),
            "monotonic stamps order in-process events"
        );
        assert!(events.iter().all(|e| e.unix_ns > 0));
    }
}
