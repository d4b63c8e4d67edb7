//! The job server: HTTP endpoint routing, the in-memory job registry, the
//! dispatcher workers, durable queue records, crash recovery, and drain.
//!
//! Layering: each accepted connection parses one request ([`crate::http`])
//! and routes it here; submissions pass admission control
//! ([`crate::admission`]) and are durably recorded under `<root>/queue/`
//! *before* the client sees a 202; dispatcher threads pull admitted jobs in
//! weighted fair-share order and execute them through
//! [`ClaptonService::execute_admitted`], which owns artifacts, round
//! checkpoints, and the bit-identical resume contract. The server adds no
//! state of its own to the artifact format — that is what makes a
//! SIGKILL'd server recoverable by a plain rescan.

use crate::admission::{AdmissionConfig, AdmissionQueue, AdmitError, Shed};
use crate::events::EventLog;
use crate::http::{self, EventStream, ReadOutcome};
use clapton_error::ClaptonError;
use clapton_runtime::{failpoint, Artifact, CancelToken, RunDirectory, WorkerPool};
use clapton_service::{
    AdmittedJob, ClaptonService, FailedAttempt, JobArtifactState, JobLeaseView, JobSpec, Report,
    TELEMETRY_ARTIFACT,
};
use clapton_telemetry::SpanNode;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything a [`Server`] needs to come up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Durable state root: artifacts under `<root>/artifacts`, queue
    /// records under `<root>/queue`.
    pub root: PathBuf,
    /// Dispatcher threads executing jobs (`0` = admission-only: jobs queue
    /// but never run — used by the submission-latency benchmark).
    pub dispatchers: usize,
    /// Threads in the shared compute [`WorkerPool`].
    pub pool_workers: usize,
    /// Admission policy.
    pub admission: AdmissionConfig,
    /// How long [`ServerHandle::drain`] lets in-flight jobs run to
    /// completion before suspending them at their next round boundary.
    pub drain_timeout: Duration,
    /// Work-queue lease TTL: how long an unheartbeated `claim.json` on a
    /// job's artifact directory stays authoritative before a peer (or the
    /// next server life) may take the job over. Every process sharing the
    /// artifact root should agree on this value.
    pub lease_ttl: Duration,
    /// Per-connection socket read/write timeout. A client that stalls
    /// mid-request (slow-loris) or stops reading a response is cut off
    /// after this long instead of pinning a connection thread forever;
    /// read timeouts answer 408. Zero disables the timeouts.
    pub request_timeout: Duration,
}

impl ServerConfig {
    /// A loopback config rooted at `root` with two dispatchers.
    pub fn new(root: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            root: root.into(),
            dispatchers: 2,
            pool_workers: 2,
            admission: AdmissionConfig::default(),
            drain_timeout: Duration::from_secs(5),
            lease_ttl: clapton_runtime::DEFAULT_LEASE_TTL,
            request_timeout: Duration::from_secs(10),
        }
    }
}

/// The durable record of one admitted job, written to
/// `<root>/queue/<id>.json` before the submitter sees a 202.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueueRecord {
    /// Server-assigned job id (`job-000001`, …).
    pub id: String,
    /// Monotonic admission sequence number (recovery re-queues in order).
    pub seq: u64,
    /// Owning tenant.
    pub tenant: String,
    /// The submitted spec, verbatim.
    pub spec: JobSpec,
}

/// The JSON body of every job-describing response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobStatusBody {
    /// Server-assigned job id.
    pub id: String,
    /// Owning tenant.
    pub tenant: String,
    /// Job display name.
    pub name: String,
    /// `queued`, `running`, `cancelling`, `suspended`, `done`, `cancelled`,
    /// or `failed`.
    pub state: String,
    /// Position in the dispatch order (1-based), once a dispatcher picked
    /// the job up — the observable output of fair-share scheduling.
    pub dispatch_seq: Option<u64>,
    /// Completed GA rounds, for suspended/cancelled jobs.
    pub rounds: Option<usize>,
    /// Failure detail, for failed jobs.
    pub detail: Option<String>,
    /// The report, once the job is done.
    pub report: Option<Report>,
}

/// The JSON body of an error response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Human-readable cause.
    pub error: String,
}

/// The JSON body of `DELETE /v1/cache`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheFlushBody {
    /// Entries dropped by the flush.
    pub cleared: u64,
}

/// The JSON body of `GET /healthz`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthBody {
    /// Liveness: the process answered at all.
    pub ok: bool,
    /// Readiness: accepting new submissions (false once a drain begins).
    pub ready: bool,
}

/// The JSON body of `GET /v1/jobs/{id}/trace`: the job's reassembled
/// span forest, read back from the `telemetry.jsonl` artifact the service
/// wrote when the job executed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceBody {
    /// Server-assigned job id.
    pub id: String,
    /// Root spans (usually one `job` span), children nested and sorted by
    /// start time.
    pub spans: Vec<SpanNode>,
}

/// One tenant's row in the [`QueueBody`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantBody {
    /// Tenant name.
    pub tenant: String,
    /// Fair-share weight.
    pub weight: f64,
    /// Jobs admitted but not yet dispatched.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Jobs that reached a terminal state (done, cancelled or failed), each
    /// counted once however many dispatches it took.
    pub completed: u64,
}

/// One job's row in the [`QueueBody`]: queue state plus whatever lease the
/// work-queue protocol currently records on its artifact directory (the
/// owner may be this server, a `suite-runner` shard worker, or a peer
/// server sharing the artifact root).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobQueueRow {
    /// Server-assigned job id.
    pub id: String,
    /// Job display name.
    pub name: String,
    /// `queued`, `running`, `cancelling`, `suspended`, `done`, `cancelled`,
    /// or `failed`.
    pub state: String,
    /// Lease owner, heartbeat age, staleness, and completed rounds read
    /// from the job's artifact directory.
    pub lease: JobLeaseView,
}

/// The JSON body of `GET /v1/queue`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueueBody {
    /// Jobs admitted but not yet dispatched, across tenants.
    pub depth: usize,
    /// The admission bound on `depth`.
    pub capacity: usize,
    /// Whether submissions are currently admitted.
    pub accepting: bool,
    /// Dispatcher threads.
    pub dispatchers: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Threads in the shared compute pool.
    pub pool_workers: usize,
    /// `running / dispatchers` (0 when admission-only).
    pub saturation: f64,
    /// Per-tenant usage, sorted by tenant name.
    pub tenants: Vec<TenantBody>,
    /// Per-job state and lease rows, sorted by job id.
    pub jobs: Vec<JobQueueRow>,
}

/// What [`ServerHandle::drain`] left behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainSummary {
    /// Jobs that reached `done` over the server's lifetime.
    pub completed: usize,
    /// Jobs suspended at a round checkpoint for the next server life.
    pub suspended: usize,
    /// Jobs still queued on disk for the next server life.
    pub requeued: usize,
}

#[derive(Debug)]
enum JobState {
    Queued,
    Running,
    Suspended(usize),
    Done(Box<Report>),
    Cancelled(usize),
    Failed(String),
}

impl JobState {
    /// The terminal state a settled job answers with, or `None` when it
    /// still has work ahead of it.
    fn settled(state: JobArtifactState) -> Option<JobState> {
        match state {
            JobArtifactState::Done(report) => Some(JobState::Done(report)),
            JobArtifactState::Cancelled { rounds } => Some(JobState::Cancelled(rounds)),
            JobArtifactState::Failed { detail } => Some(JobState::Failed(detail)),
            JobArtifactState::Fresh | JobArtifactState::InFlight => None,
        }
    }
}

struct JobEntry {
    id: String,
    tenant: String,
    name: String,
    admitted: AdmittedJob,
    cancel: CancelToken,
    events: Arc<EventLog>,
    state: Mutex<JobState>,
    dispatched: Mutex<Option<u64>>,
}

impl JobEntry {
    /// An entry in `state`; its event log stays open only for a queued job.
    fn new(id: String, tenant: String, admitted: AdmittedJob, state: JobState) -> Arc<JobEntry> {
        let events = EventLog::new();
        if !matches!(state, JobState::Queued) {
            events.close();
        }
        Arc::new(JobEntry {
            id,
            tenant,
            name: admitted.job().name.clone(),
            admitted,
            cancel: CancelToken::new(),
            events: Arc::new(events),
            state: Mutex::new(state),
            dispatched: Mutex::new(None),
        })
    }

    fn status_body(&self) -> JobStatusBody {
        let state = self.state.lock().expect("job state");
        let (state_name, rounds, detail, report) = match &*state {
            JobState::Queued => ("queued", None, None, None),
            JobState::Running if self.cancel.is_cancelled() => ("cancelling", None, None, None),
            JobState::Running => ("running", None, None, None),
            JobState::Suspended(rounds) => ("suspended", Some(*rounds), None, None),
            JobState::Done(report) => ("done", None, None, Some((**report).clone())),
            JobState::Cancelled(rounds) => ("cancelled", Some(*rounds), None, None),
            JobState::Failed(detail) => ("failed", None, Some(detail.clone()), None),
        };
        JobStatusBody {
            id: self.id.clone(),
            tenant: self.tenant.clone(),
            name: self.name.clone(),
            state: state_name.to_string(),
            dispatch_seq: *self.dispatched.lock().expect("dispatch seq"),
            rounds,
            detail,
            report,
        }
    }

    fn state_label(&self) -> &'static str {
        match &*self.state.lock().expect("job state") {
            JobState::Queued => "queued",
            JobState::Running if self.cancel.is_cancelled() => "cancelling",
            JobState::Running => "running",
            JobState::Suspended(_) => "suspended",
            JobState::Done(_) => "done",
            JobState::Cancelled(_) => "cancelled",
            JobState::Failed(_) => "failed",
        }
    }

    fn is_terminal(&self) -> bool {
        matches!(
            &*self.state.lock().expect("job state"),
            JobState::Done(_) | JobState::Cancelled(_) | JobState::Failed(_)
        )
    }
}

/// The registry key claiming an artifact directory for a live job.
fn dir_key(admitted: &AdmittedJob) -> String {
    admitted
        .artifact_dir()
        .expect("server always persists artifacts")
        .display()
        .to_string()
}

/// Bumps `clapton_jobs_admitted_total{tenant}` — fresh admissions only
/// (joins of an already-active job and answered-from-artifact replays
/// consume no queue slot and are not counted).
fn count_admitted(tenant: &str) {
    clapton_telemetry::registry()
        .counter_with(
            "clapton_jobs_admitted_total",
            "Jobs freshly admitted to the durable queue, by tenant.",
            &[("tenant", tenant)],
        )
        .inc();
}

/// Bumps `clapton_jobs_rejected_total{tenant,reason}` for a shed or
/// conflicting submission.
fn count_rejected(tenant: &str, reason: &str) {
    clapton_telemetry::registry()
        .counter_with(
            "clapton_jobs_rejected_total",
            "Submissions refused at admission, by tenant and reason.",
            &[("tenant", tenant), ("reason", reason)],
        )
        .inc();
}

/// Bumps `clapton_jobs_recovery_leased_defers_total{owner}` when the
/// startup recovery scan finds a queue record whose artifact lease is
/// held by a peer: the job re-registers under its original id, but
/// dispatch defers until the lease is released or goes stale.
fn count_recovery_leased_defer(owner: &str) {
    clapton_telemetry::registry()
        .counter_with(
            "clapton_jobs_recovery_leased_defers_total",
            "Queue records found peer-leased at recovery; dispatch deferred.",
            &[("owner", owner)],
        )
        .inc();
}

/// Bumps `clapton_http_request_timeouts_total` when a connection's read
/// timeout fires before a complete request arrives.
fn count_request_timeout() {
    clapton_telemetry::registry()
        .counter(
            "clapton_http_request_timeouts_total",
            "Connections cut off by the per-request socket read timeout.",
        )
        .inc();
}

/// Bumps `clapton_jobs_finished_total{tenant,outcome}` when a dispatched
/// job reaches a terminal (or drain-suspended) state.
fn count_finished(tenant: &str, outcome: &str) {
    clapton_telemetry::registry()
        .counter_with(
            "clapton_jobs_finished_total",
            "Jobs that left the dispatcher, by tenant and outcome.",
            &[("tenant", tenant), ("outcome", outcome)],
        )
        .inc();
}

#[derive(Default)]
struct Registry {
    jobs: HashMap<String, Arc<JobEntry>>,
    /// Artifact-directory path → active (queued/running) job id, so a
    /// resubmission of an in-flight spec joins the existing job instead of
    /// double-running against the same artifact directory.
    active_by_dir: HashMap<String, String>,
}

struct ServerInner {
    config: ServerConfig,
    service: ClaptonService,
    queue: AdmissionQueue,
    registry: Mutex<Registry>,
    seq: AtomicU64,
    dispatch_counter: AtomicU64,
    running: AtomicUsize,
    shutting_down: AtomicBool,
    stopped: AtomicBool,
    queue_dir: PathBuf,
    dispatchers: Mutex<Vec<JoinHandle<()>>>,
}

/// The job server. [`Server::bind`] recovers durable state and starts the
/// dispatchers; [`Server::serve`] runs the accept loop until
/// [`ServerHandle::begin_shutdown`] (or [`ServerHandle::drain`]) stops it.
pub struct Server {
    inner: Arc<ServerInner>,
    listener: TcpListener,
    addr: SocketAddr,
}

/// A cloneable control handle: address introspection and shutdown/drain.
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
}

impl Server {
    /// Builds the service, scans `<root>/queue` to re-admit every job a
    /// previous server life accepted but did not finish, binds the
    /// listener, and starts the dispatcher threads.
    ///
    /// # Errors
    ///
    /// Root/artifact directory creation, queue-record parsing, or socket
    /// binding failures.
    pub fn bind(config: ServerConfig) -> Result<Server, ClaptonError> {
        let pool = Arc::new(WorkerPool::with_workers(config.pool_workers.max(1)));
        let service = ClaptonService::with_pool(pool)
            .with_lease_ttl(config.lease_ttl)
            .with_artifacts(config.root.join("artifacts"))?
            .with_cache_under(config.root.join("artifacts"))?;
        let queue_dir = config.root.join("queue");
        std::fs::create_dir_all(&queue_dir).map_err(ClaptonError::Io)?;
        let listener = TcpListener::bind(&config.addr).map_err(ClaptonError::Io)?;
        let addr = listener.local_addr().map_err(ClaptonError::Io)?;
        let inner = Arc::new(ServerInner {
            queue: AdmissionQueue::new(config.admission.clone()),
            registry: Mutex::new(Registry::default()),
            seq: AtomicU64::new(0),
            dispatch_counter: AtomicU64::new(0),
            running: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            queue_dir,
            dispatchers: Mutex::new(Vec::new()),
            service,
            config,
        });
        inner.recover()?;
        let mut dispatchers = inner.dispatchers.lock().expect("dispatcher handles");
        for idx in 0..inner.config.dispatchers {
            let inner = Arc::clone(&inner);
            dispatchers.push(
                std::thread::Builder::new()
                    .name(format!("clapton-dispatch-{idx}"))
                    .spawn(move || inner.dispatcher_loop())
                    .map_err(ClaptonError::Io)?,
            );
        }
        drop(dispatchers);
        Ok(Server {
            inner,
            listener,
            addr,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A control handle that outlives the accept loop.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            inner: Arc::clone(&self.inner),
            addr: self.addr,
        }
    }

    /// Accepts and serves connections until shutdown begins. Each
    /// connection is one request (`Connection: close`), handled on its own
    /// thread.
    ///
    /// # Errors
    ///
    /// Fatal listener failures only; per-connection errors are contained.
    pub fn serve(self) -> io::Result<()> {
        for conn in self.listener.incoming() {
            // The acceptor outlives `begin_shutdown` so `/healthz` (and
            // status queries) keep answering — with `ready: false` — for
            // the whole drain window; only a finished drain stops it.
            if self.inner.stopped.load(Ordering::SeqCst) {
                // The wake connection (or any racer) is dropped unanswered.
                return Ok(());
            }
            let mut stream = match conn {
                Ok(stream) => stream,
                Err(_) => continue,
            };
            let timeout = self.inner.config.request_timeout;
            if !timeout.is_zero() {
                // A stalled or slow-loris peer times out instead of pinning
                // this connection's thread; read timeouts answer 408.
                let _ = stream.set_read_timeout(Some(timeout));
                let _ = stream.set_write_timeout(Some(timeout));
            }
            let inner = Arc::clone(&self.inner);
            let _ = std::thread::Builder::new()
                .name("clapton-conn".to_string())
                .spawn(move || {
                    let _ = inner.handle_connection(&mut stream);
                });
        }
        Ok(())
    }
}

impl ServerHandle {
    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops admissions and flips `/healthz` readiness to `false`.
    /// Idempotent; does not wait for in-flight jobs, and the accept loop
    /// keeps answering (status, health, metrics) until a [`drain`] ends —
    /// see [`ServerHandle::drain`].
    ///
    /// [`drain`]: ServerHandle::drain
    pub fn begin_shutdown(&self) {
        if self.inner.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.inner.queue.close();
    }

    /// Graceful drain: stop admissions, let in-flight jobs run for up to
    /// `drain_timeout`, then suspend the stragglers at their next round
    /// boundary (their checkpoints make the next server life resume them
    /// bit-identically), join the dispatchers, and finally stop the accept
    /// loop.
    pub fn drain(&self) -> DrainSummary {
        self.begin_shutdown();
        let deadline = Instant::now() + self.inner.config.drain_timeout;
        while self.inner.running.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        {
            let registry = self.inner.registry.lock().expect("job registry");
            for entry in registry.jobs.values() {
                if matches!(*entry.state.lock().expect("job state"), JobState::Running) {
                    entry.cancel.suspend();
                }
            }
        }
        let handles: Vec<JoinHandle<()>> = self
            .inner
            .dispatchers
            .lock()
            .expect("dispatcher handles")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
        let registry = self.inner.registry.lock().expect("job registry");
        let mut summary = DrainSummary {
            completed: 0,
            suspended: 0,
            requeued: 0,
        };
        for entry in registry.jobs.values() {
            match &*entry.state.lock().expect("job state") {
                JobState::Done(_) => summary.completed += 1,
                JobState::Suspended(_) => summary.suspended += 1,
                JobState::Queued => summary.requeued += 1,
                _ => {}
            }
        }
        drop(registry);
        self.inner.stopped.store(true, Ordering::SeqCst);
        // Self-connect so a blocking accept() observes the stop now rather
        // than at the next real client.
        let _ = TcpStream::connect(self.addr);
        summary
    }

    /// Current queue statistics (same data as `GET /v1/queue`).
    pub fn queue_body(&self) -> QueueBody {
        self.inner.queue_body()
    }
}

impl ServerInner {
    /// Re-admits every durable queue record from a previous server life.
    fn recover(self: &Arc<ServerInner>) -> Result<(), ClaptonError> {
        let queue_records = RunDirectory::create(&self.queue_dir)?;
        let mut records: Vec<QueueRecord> = Vec::new();
        for dirent in std::fs::read_dir(&self.queue_dir).map_err(ClaptonError::Io)? {
            let path = dirent.map_err(ClaptonError::Io)?.path();
            // Skips leftover `.tmp` writes and `.corrupt-<ts>` quarantines.
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            // A torn or garbled record is quarantined and skipped rather
            // than refusing to start the server: the job's artifacts (spec,
            // checkpoints, report) are intact, so resubmitting the same
            // spec re-admits or answers it — one queue entry is the blast
            // radius, never the server or the job's banked rounds.
            match queue_records.load::<QueueRecord>(name)? {
                Artifact::Valid(record) => records.push(record),
                Artifact::Missing | Artifact::Corrupt { .. } => continue,
            }
        }
        records.sort_by_key(|r| r.seq);
        for record in records {
            self.seq.fetch_max(record.seq, Ordering::SeqCst);
            let admitted = self.service.admit(record.spec.clone())?;
            // A peer's lease on this job's artifacts (another server, a
            // suite-runner shard worker, or a SIGKILL'd previous life whose
            // claim has not yet gone stale) must not stop the job from
            // re-registering under its original id — clients keep polling
            // it. Execution still waits its turn: the dispatcher's `Leased`
            // arm keeps the job queued until the lease is released or
            // expires, so this life never races the peer's artifact writes.
            if let Some(owner) = self.service.leased_by_peer(&admitted)? {
                count_recovery_leased_defer(&owner);
            }
            // A settled job (its artifacts gone, perhaps, but the store
            // survives lives) recovers straight to its terminal state — no
            // requeue, no pool time.
            let state = JobState::settled(self.service.inspect(&admitted)?);
            let requeue = state.is_none();
            let entry = JobEntry::new(
                record.id.clone(),
                record.tenant.clone(),
                admitted,
                state.unwrap_or(JobState::Queued),
            );
            let mut registry = self.registry.lock().expect("job registry");
            if requeue {
                if let Some(dir) = entry.admitted.artifact_dir() {
                    registry
                        .active_by_dir
                        .insert(dir.display().to_string(), record.id.clone());
                }
                self.queue.readmit(&record.tenant, record.id.clone());
            }
            registry.jobs.insert(record.id, entry);
        }
        Ok(())
    }

    fn entry(&self, id: &str) -> Option<Arc<JobEntry>> {
        self.registry
            .lock()
            .expect("job registry")
            .jobs
            .get(id)
            .cloned()
    }

    fn retire_active(&self, entry: &JobEntry) {
        if let Some(dir) = entry.admitted.artifact_dir() {
            self.registry
                .lock()
                .expect("job registry")
                .active_by_dir
                .remove(&dir.display().to_string());
        }
    }

    fn dispatcher_loop(self: &Arc<ServerInner>) {
        while let Some((tenant, id)) = self.queue.pop() {
            if let Some(entry) = self.entry(&id) {
                self.dispatch(&entry);
            }
            // Every pass releases its dispatch, whatever became of the job.
            self.queue.note_released(&tenant);
        }
    }

    /// One dispatch of a popped job: run it, then settle it or put it back
    /// in line.
    fn dispatch(&self, entry: &JobEntry) {
        if entry.cancel.is_cancelled() {
            // Cancelled between admission and dispatch.
            self.finish_cancelled(entry, 0);
            return;
        }
        *entry.state.lock().expect("job state") = JobState::Running;
        *entry.dispatched.lock().expect("dispatch seq") =
            Some(self.dispatch_counter.fetch_add(1, Ordering::SeqCst) + 1);
        self.running.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = std::sync::mpsc::channel();
        let forwarder = {
            let events = Arc::clone(&entry.events);
            std::thread::spawn(move || {
                for event in rx {
                    events.push(event);
                }
            })
        };
        let result = self
            .service
            .execute_admitted(&entry.admitted, Some(tx), entry.cancel.clone());
        let _ = forwarder.join();
        self.running.fetch_sub(1, Ordering::SeqCst);
        match result {
            Ok(report) => self.settle(entry, JobState::Done(Box::new(report)), "done"),
            Err(ClaptonError::Cancelled { rounds }) => {
                self.settle(entry, JobState::Cancelled(rounds), "cancelled")
            }
            Err(ClaptonError::Suspended { rounds })
                if self.shutting_down.load(Ordering::SeqCst) =>
            {
                // Drain: the checkpoint is on disk and the queue record
                // survives; the next server life resumes it.
                *entry.state.lock().expect("job state") = JobState::Suspended(rounds);
                entry.events.close();
                count_finished(&entry.tenant, "suspended");
            }
            // Budget suspension: the server owns the resubmit loop, so the
            // job goes straight back in line.
            Err(ClaptonError::Suspended { .. }) => self.requeue(entry),
            // A live peer beat this dispatcher to the job's lease (the
            // artifacts are untouched), or the service retries a failed
            // attempt from its last round checkpoint: back in line behind
            // other tenants' work. The brief sleep keeps a single-job queue
            // from spinning against a held lease or a fault that needs a
            // moment to clear.
            Err(ClaptonError::Leased { .. }) => self.requeue_after_pause(entry),
            Err(error) => match self.service.settle_failure(&entry.admitted, &error) {
                Ok(FailedAttempt::Retry) => self.requeue_after_pause(entry),
                // Recorded, or not even that: this life gives up either way.
                Ok(FailedAttempt::Recorded) | Err(_) => {
                    self.settle(entry, JobState::Failed(error.to_string()), "failed")
                }
            },
        }
    }

    fn requeue(&self, entry: &JobEntry) {
        *entry.state.lock().expect("job state") = JobState::Queued;
        self.queue.readmit(&entry.tenant, entry.id.clone());
    }

    fn requeue_after_pause(&self, entry: &JobEntry) {
        self.requeue(entry);
        std::thread::sleep(Duration::from_millis(50));
    }

    /// Records a terminal state: counts the job once, by outcome and as one
    /// of its tenant's `completed` jobs (before the state shows, so a client
    /// that sees the job settled sees it counted), closes its event log and
    /// frees its artifact directory.
    fn settle(&self, entry: &JobEntry, state: JobState, outcome: &str) {
        count_finished(&entry.tenant, outcome);
        self.queue.note_settled(&entry.tenant);
        *entry.state.lock().expect("job state") = state;
        entry.events.close();
        self.retire_active(entry);
    }

    /// Persists and records a cancellation that won the race against
    /// dispatch (the job never ran; `rounds` completed beforehand).
    fn finish_cancelled(&self, entry: &JobEntry, rounds: usize) {
        let _ = self.service.mark_cancelled(&entry.admitted, rounds);
        self.settle(entry, JobState::Cancelled(rounds), "cancelled");
    }

    fn queue_body(&self) -> QueueBody {
        let stats = self.queue.stats();
        let running = self.running.load(Ordering::SeqCst);
        let dispatchers = self.config.dispatchers;
        let mut jobs: Vec<JobQueueRow> = {
            let registry = self.registry.lock().expect("job registry");
            registry.jobs.values().cloned().collect::<Vec<_>>()
        }
        .into_iter()
        .map(|entry| JobQueueRow {
            id: entry.id.clone(),
            name: entry.name.clone(),
            state: entry.state_label().to_string(),
            lease: self.service.lease_view(&entry.admitted).unwrap_or_default(),
        })
        .collect();
        jobs.sort_by(|a, b| a.id.cmp(&b.id));
        QueueBody {
            depth: stats.depth,
            capacity: stats.capacity,
            accepting: stats.accepting,
            dispatchers,
            running,
            pool_workers: self.config.pool_workers,
            saturation: if dispatchers == 0 {
                0.0
            } else {
                running as f64 / dispatchers as f64
            },
            tenants: stats
                .tenants
                .into_iter()
                .map(|t| TenantBody {
                    tenant: t.tenant,
                    weight: t.weight,
                    queued: t.queued,
                    running: t.running,
                    completed: t.completed,
                })
                .collect(),
            jobs,
        }
    }

    fn handle_connection(self: &Arc<ServerInner>, stream: &mut TcpStream) -> io::Result<()> {
        let request = match http::read_request(stream) {
            Ok(ReadOutcome::Request(request)) => request,
            Ok(ReadOutcome::Closed) => return Ok(()),
            Ok(ReadOutcome::Malformed(e)) => {
                return self.respond_error(stream, 400, &[], &e.to_string());
            }
            // The socket read timeout fired mid-request: tell the client
            // (best-effort — it may be gone) and free the thread.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                count_request_timeout();
                return self.respond_error(stream, 408, &[], "request read timed out");
            }
            Err(e) => return Err(e),
        };
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("POST", ["v1", "jobs"]) => self.handle_submit(stream, &request),
            ("GET", ["v1", "jobs", id]) => self.handle_status(stream, id),
            ("DELETE", ["v1", "jobs", id]) => self.handle_cancel(stream, id),
            ("GET", ["v1", "jobs", id, "events"]) => self.handle_events(stream, id),
            ("GET", ["v1", "jobs", id, "trace"]) => self.handle_trace(stream, id),
            ("GET", ["metrics"]) => self.handle_metrics(stream),
            ("GET", ["v1", "cache"]) => self.handle_cache_stats(stream),
            ("DELETE", ["v1", "cache"]) => self.handle_cache_flush(stream),
            ("GET", ["v1", "queue"]) => {
                let body =
                    serde_json::to_string(&self.queue_body()).expect("queue body serializes");
                http::write_json_response(stream, 200, &[], &body)
            }
            // Liveness is answering at all; readiness flips false the
            // moment a drain begins (load balancers stop routing new
            // submissions while in-flight jobs finish).
            ("GET", ["healthz"]) => {
                let ready = !self.shutting_down.load(Ordering::SeqCst);
                let body = serde_json::to_string(&HealthBody { ok: true, ready })
                    .expect("health body serializes");
                http::write_json_response(stream, if ready { 200 } else { 503 }, &[], &body)
            }
            (
                _,
                ["v1", "jobs"]
                | ["v1", "jobs", _]
                | ["v1", "jobs", _, "events" | "trace"]
                | ["v1", "queue"]
                | ["v1", "cache"]
                | ["metrics"],
            ) => self.respond_error(stream, 405, &[], "method not allowed on this path"),
            _ => self.respond_error(stream, 404, &[], "no such endpoint"),
        }
    }

    fn respond_error(
        &self,
        stream: &mut TcpStream,
        status: u16,
        extra: &[(&str, String)],
        error: &str,
    ) -> io::Result<()> {
        let body = serde_json::to_string(&ErrorBody {
            error: error.to_string(),
        })
        .expect("error body serializes");
        http::write_json_response(stream, status, extra, &body)
    }

    fn respond_entry(
        &self,
        stream: &mut TcpStream,
        status: u16,
        entry: &JobEntry,
    ) -> io::Result<()> {
        let body = serde_json::to_string(&entry.status_body()).expect("status body serializes");
        http::write_json_response(stream, status, &[], &body)
    }

    /// `GET /metrics`: the Prometheus text exposition of the global
    /// telemetry registry, with queue/tenant gauges synced from the
    /// admission queue on every scrape (scrape-time sampling keeps the
    /// admission hot path free of gauge writes).
    fn handle_metrics(&self, stream: &mut TcpStream) -> io::Result<()> {
        let stats = self.queue.stats();
        let registry = clapton_telemetry::registry();
        registry
            .gauge(
                "clapton_queue_depth",
                "Jobs admitted but not yet dispatched, across tenants.",
            )
            .set(stats.depth as f64);
        registry
            .gauge(
                "clapton_server_running_jobs",
                "Jobs currently executing on dispatcher threads.",
            )
            .set(self.running.load(Ordering::SeqCst) as f64);
        for t in &stats.tenants {
            registry
                .gauge_with(
                    "clapton_tenant_queued",
                    "Jobs admitted but not yet dispatched, by tenant.",
                    &[("tenant", &t.tenant)],
                )
                .set(t.queued as f64);
            registry
                .gauge_with(
                    "clapton_tenant_vtime_lag",
                    "Weighted-fair-queueing lag: the queue's virtual clock \
                     minus the tenant's virtual finish time (0 for tenants \
                     keeping pace with their share).",
                    &[("tenant", &t.tenant)],
                )
                .set((stats.vclock - t.vtime).max(0.0));
        }
        // `stats()` refreshes the `clapton_cache_size_bytes` /
        // `clapton_cache_entries` gauges as a side effect, so the scrape
        // reflects the store as it is now.
        if let Some(cache) = self.service.cache() {
            let _ = cache.stats();
        }
        http::write_response(
            stream,
            200,
            "text/plain; version=0.0.4",
            &[],
            &registry.render(),
        )
    }

    /// `GET /v1/cache`: a point-in-time census of the persistent result
    /// store ([`clapton_service::CacheStoreStats`] as JSON).
    fn handle_cache_stats(&self, stream: &mut TcpStream) -> io::Result<()> {
        let Some(cache) = self.service.cache() else {
            return self.respond_error(stream, 404, &[], "no persistent cache attached");
        };
        let body = serde_json::to_string(&cache.stats()).expect("cache stats serialize");
        http::write_json_response(stream, 200, &[], &body)
    }

    /// `DELETE /v1/cache`: drops every cached entry and segment (the
    /// operator's invalidation hammer — e.g. after an engine change that
    /// should obsolete stored results), reporting how many entries went.
    fn handle_cache_flush(&self, stream: &mut TcpStream) -> io::Result<()> {
        let Some(cache) = self.service.cache() else {
            return self.respond_error(stream, 404, &[], "no persistent cache attached");
        };
        match cache.clear() {
            Ok(cleared) => {
                let body = serde_json::to_string(&CacheFlushBody { cleared })
                    .expect("flush body serializes");
                http::write_json_response(stream, 200, &[], &body)
            }
            Err(e) => self.respond_error(stream, 500, &[], &format!("cache flush failed: {e}")),
        }
    }

    /// `GET /v1/jobs/{id}/trace`: the span tree recorded while the job
    /// executed, reassembled from the `telemetry.jsonl` artifact. The
    /// endpoint reads the very file the service wrote, so the two surfaces
    /// can never disagree.
    fn handle_trace(&self, stream: &mut TcpStream, id: &str) -> io::Result<()> {
        let Some(entry) = self.entry(id) else {
            return self.respond_error(stream, 404, &[], "no such job");
        };
        let Some(dir) = entry.admitted.artifact_dir() else {
            return self.respond_error(stream, 404, &[], "job has no artifact directory");
        };
        let text = match std::fs::read_to_string(dir.join(TELEMETRY_ARTIFACT)) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return self.respond_error(stream, 404, &[], "no trace recorded for this job");
            }
            Err(e) => return self.respond_error(stream, 500, &[], &e.to_string()),
        };
        let records = match clapton_telemetry::from_jsonl(&text) {
            Ok(records) => records,
            Err(e) => {
                return self.respond_error(stream, 500, &[], &format!("corrupt trace log: {e}"));
            }
        };
        let body = TraceBody {
            id: entry.id.clone(),
            spans: clapton_telemetry::span_tree(&records),
        };
        let body = serde_json::to_string(&body).expect("trace body serializes");
        http::write_json_response(stream, 200, &[], &body)
    }

    fn handle_submit(
        self: &Arc<ServerInner>,
        stream: &mut TcpStream,
        request: &crate::http::Request,
    ) -> io::Result<()> {
        let tenant = request.header("x-tenant").unwrap_or("default").to_string();
        if tenant.is_empty() || tenant.contains(|c: char| c == '/' || c.is_whitespace()) {
            return self.respond_error(stream, 400, &[], "invalid X-Tenant header");
        }
        if self.shutting_down.load(Ordering::SeqCst) {
            count_rejected(&tenant, "draining");
            return self.respond_error(stream, 503, &[], "server is draining");
        }
        let Ok(text) = request.body_text() else {
            return self.respond_error(stream, 400, &[], "request body is not UTF-8");
        };
        let spec: JobSpec = match serde_json::from_str(text) {
            Ok(spec) => spec,
            Err(e) => {
                return self.respond_error(stream, 400, &[], &format!("malformed JobSpec: {e}"));
            }
        };
        let admitted = match self.service.admit(spec.clone()) {
            Ok(admitted) => admitted,
            Err(e @ ClaptonError::Conflict { .. }) => {
                count_rejected(&tenant, "conflict");
                return self.respond_error(stream, 409, &[], &e.to_string());
            }
            Err(e @ (ClaptonError::Spec(_) | ClaptonError::Parse { .. })) => {
                count_rejected(&tenant, "invalid_spec");
                return self.respond_error(stream, 400, &[], &e.to_string());
            }
            Err(e) => return self.respond_error(stream, 500, &[], &e.to_string()),
        };
        let settled = match self.service.inspect(&admitted) {
            Ok(state) => JobState::settled(state),
            Err(e) => return self.respond_error(stream, 500, &[], &e.to_string()),
        };
        if let Some(state) = settled {
            // Answered without running — from the job's artifacts or the
            // persistent store (in any process sharing this registry): no
            // admission tokens, no queue slot, no pool time. But only if no
            // live job owns the directory: the running job is the source of
            // truth while it's in flight.
            let key = dir_key(&admitted);
            let mut registry = self.registry.lock().expect("job registry");
            if !registry.active_by_dir.contains_key(&key) {
                let seq = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
                let id = format!("job-{seq:06}");
                let entry = JobEntry::new(id.clone(), tenant, admitted, state);
                registry.jobs.insert(id, Arc::clone(&entry));
                drop(registry);
                return self.respond_entry(stream, 200, &entry);
            }
        }
        let seq = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        let id = format!("job-{seq:06}");
        // The registry entry must exist before the id is published to the
        // dispatchers, and the joined-active check must be atomic with the
        // insertion — otherwise two racing submissions of the same spec
        // would double-run against one artifact directory.
        let entry = match self.try_insert_active(id.clone(), tenant.clone(), admitted) {
            Ok(entry) => entry,
            Err(existing) => {
                // Joining an active job (same spec resubmitted while queued
                // or running) consumes no admission tokens or queue slot.
                return self.respond_entry(stream, 202, &existing);
            }
        };
        let record = QueueRecord {
            id: id.clone(),
            seq,
            tenant: tenant.clone(),
            spec,
        };
        let record_name = format!("{id}.json");
        let admit = self.queue.admit(&tenant, id.clone(), || {
            failpoint::check("server.queue.persist")?;
            // Enveloped + atomic like every other artifact: a crash during
            // the persist leaves either no record or a verifiable one.
            RunDirectory::create(&self.queue_dir)?.write_json(&record_name, &record)
        });
        match admit {
            Ok(_) => {
                count_admitted(&tenant);
                self.respond_entry(stream, 202, &entry)
            }
            Err(shed) => {
                let mut registry = self.registry.lock().expect("job registry");
                registry.jobs.remove(&id);
                registry.active_by_dir.remove(&dir_key(&entry.admitted));
                drop(registry);
                match shed {
                    AdmitError::Shed(Shed::RateLimited { retry_after_secs }) => {
                        count_rejected(&tenant, "rate_limited");
                        self.respond_error(
                            stream,
                            429,
                            &[("Retry-After", retry_after_secs.to_string())],
                            "tenant rate limit exceeded",
                        )
                    }
                    AdmitError::Shed(Shed::QueueFull { depth }) => {
                        count_rejected(&tenant, "queue_full");
                        self.respond_error(
                            stream,
                            429,
                            &[("Retry-After", "1".to_string())],
                            &format!("admission queue full ({depth} jobs)"),
                        )
                    }
                    AdmitError::Shed(Shed::Closed) => {
                        count_rejected(&tenant, "draining");
                        self.respond_error(stream, 503, &[], "server is draining")
                    }
                    AdmitError::Io(e) => self.respond_error(
                        stream,
                        500,
                        &[],
                        &format!("failed to persist queue record: {e}"),
                    ),
                }
            }
        }
    }

    /// Inserts a queued entry and claims its artifact directory, or returns
    /// the live entry already owning that directory.
    fn try_insert_active(
        &self,
        id: String,
        tenant: String,
        admitted: AdmittedJob,
    ) -> Result<Arc<JobEntry>, Arc<JobEntry>> {
        let key = dir_key(&admitted);
        let mut registry = self.registry.lock().expect("job registry");
        if let Some(existing) = registry
            .active_by_dir
            .get(&key)
            .and_then(|id| registry.jobs.get(id))
        {
            return Err(Arc::clone(existing));
        }
        let entry = JobEntry::new(id.clone(), tenant, admitted, JobState::Queued);
        registry.active_by_dir.insert(key, id.clone());
        registry.jobs.insert(id, Arc::clone(&entry));
        Ok(entry)
    }

    fn handle_status(&self, stream: &mut TcpStream, id: &str) -> io::Result<()> {
        match self.entry(id) {
            Some(entry) => self.respond_entry(stream, 200, &entry),
            None => self.respond_error(stream, 404, &[], &format!("no job {id:?}")),
        }
    }

    fn handle_cancel(&self, stream: &mut TcpStream, id: &str) -> io::Result<()> {
        let Some(entry) = self.entry(id) else {
            return self.respond_error(stream, 404, &[], &format!("no job {id:?}"));
        };
        if entry.is_terminal() {
            return self.respond_entry(stream, 200, &entry);
        }
        // Mark first so a dispatcher that pops the id concurrently skips it.
        entry.cancel.cancel();
        if self.queue.remove(&entry.tenant, id) {
            // Won the race: the job never dispatched.
            self.finish_cancelled(&entry, 0);
            return self.respond_entry(stream, 200, &entry);
        }
        // Already dispatched (or mid-dispatch): the token stops it at the
        // next round boundary.
        self.respond_entry(stream, 202, &entry)
    }

    fn handle_events(&self, stream: &mut TcpStream, id: &str) -> io::Result<()> {
        let Some(entry) = self.entry(id) else {
            return self.respond_error(stream, 404, &[], &format!("no job {id:?}"));
        };
        let mut events = EventStream::begin(stream)?;
        let mut index = 0usize;
        while let Some(event) = entry.events.next(index) {
            index += 1;
            let json = serde_json::to_string(&event).expect("event serializes");
            if events.send(&json).is_err() {
                // Client hung up; nothing left to deliver.
                return Ok(());
            }
        }
        events.finish()
    }
}
