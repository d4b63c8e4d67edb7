//! [`ClaptonService`]: submit validated [`JobSpec`]s onto the shared
//! runtime substrate.

use crate::ground::GroundEnergies;
use crate::{JobSpec, MethodSpec, Report, ResolvedJob};
use clapton_cache::{CacheConfig, CacheStore};
use clapton_core::{device_energy, run_cafqa, run_clapton_resumable, run_ncafqa};
use clapton_error::{ClaptonError, SpecError};
use clapton_ga::{EngineState, MemoEntry};
use clapton_runtime::{
    artifact_slug, failpoint, Artifact, CancelToken, ClaimOutcome, EventKind, Interrupt,
    LeaseKeeper, RunDirectory, RunEvent, RunRegistry, WorkerPool,
};
use clapton_telemetry::metrics::{registry, Counter, Histogram};
use clapton_vqe::{run_vqe, VqeConfig};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::HashMap;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The spec a job was admitted with, inside its run directory. Public so
/// a suite run can tell which jobs its directory already holds.
pub const SPEC_ARTIFACT: &str = "spec.json";
/// The engine state after the latest round, without its memo: the memo
/// lives in the round segments ([`segment_name`]).
const CHECKPOINT_ARTIFACT: &str = "checkpoint.json";
/// The previous round's checkpoint, kept one generation behind
/// [`CHECKPOINT_ARTIFACT`]: if the current checkpoint is torn by a crash
/// mid-write, recovery falls back here and loses at most that one round.
/// On completion the final checkpoint rotates into this slot (instead of
/// being deleted), and the segments stay, so even a corrupted `report.json`
/// recovers by replaying from the final round state — bit-identically,
/// since rounds are deterministic.
const CHECKPOINT_PREV_ARTIFACT: &str = "checkpoint.prev.json";
const REPORT_ARTIFACT: &str = "report.json";
const STATE_ARTIFACT: &str = "state.json";

/// Span-log artifact written next to a job's checkpoints: one
/// [`clapton_telemetry::SpanRecord`] JSON object per line, covering the
/// job's whole execution trace. Public so artifact consumers (the server's
/// trace endpoint, post-hoc tooling) share the name.
pub const TELEMETRY_ARTIFACT: &str = "telemetry.jsonl";

/// A persisted terminal state beside a job's artifacts: a job that ended
/// without a report (`cancelled`, or `failed` as
/// [`ClaptonService::settle_failure`] records it) leaves this marker so
/// resubmissions and crash-recovery scans see the outcome instead of
/// silently re-running the job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TerminalState {
    /// `"cancelled"` or `"failed"`.
    pub state: String,
    /// GA rounds completed before the job ended.
    pub rounds: usize,
    /// Human-readable detail (empty for cancellations).
    pub detail: String,
}

/// Writes the [`TerminalState`] marker — the one writer of
/// `state.json`.
fn write_terminal_state(
    dir: &RunDirectory,
    state: &str,
    rounds: usize,
    detail: &str,
) -> io::Result<()> {
    dir.write_json(
        STATE_ARTIFACT,
        &TerminalState {
            state: state.to_string(),
            rounds,
            detail: detail.to_string(),
        },
    )
}

/// The artifact-directory name a job owns under the service's root.
fn job_slug(job: &ResolvedJob) -> String {
    artifact_slug(&format!("{}-seed{}", job.name, job.config.seed))
}

/// The persistent-cache namespace terminal reports are stored under:
/// FNV-1a 64 of a versioned tag, bumped whenever the report schema or the
/// spec-identity serialization changes incompatibly.
fn report_namespace() -> u64 {
    clapton_telemetry::fnv1a64(b"clapton-report-v1")
}

/// The report-tier cache key: the canonical JSON of [`JobSpec::identity`],
/// exactly the identity [`prepare_dir`]'s resubmission conflict check
/// compares. Everything that shapes the report (problem, backend, noise,
/// methods, engine, evaluator, seed, VQE refine) is in here; execution
/// policy is not.
fn report_key(job: &ResolvedJob) -> Vec<u8> {
    serde_json::to_string(&job.spec.identity())
        .expect("spec serializes")
        .into_bytes()
}

/// Failed attempts after which [`ClaptonService::settle_failure`] records a
/// job `failed` (no bound while a fault schedule is armed).
const JOB_ATTEMPTS: usize = 3;

/// The metrics every job run through [`ClaptonService::execute_admitted`]
/// feeds.
struct JobMetrics {
    started: Arc<Counter>,
    rounds: Arc<Counter>,
    round_latency: Arc<Histogram>,
    dispatch_lag: Arc<Histogram>,
}

fn job_metrics() -> &'static JobMetrics {
    static METRICS: OnceLock<JobMetrics> = OnceLock::new();
    METRICS.get_or_init(|| JobMetrics {
        started: registry().counter("clapton_jobs_started_total", "Jobs that began executing"),
        rounds: registry().counter(
            "clapton_job_rounds_total",
            "Progress rounds emitted by running jobs",
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
            "Time from a job's admission to the moment it starts executing",
            &[1e-5, 1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0],
        ),
    })
}

/// Where a running job reports to: the caller's event stream and the
/// cancellation it polls at round boundaries.
struct Progress<'a> {
    job: &'a str,
    events: Option<Sender<RunEvent>>,
    cancel: CancelToken,
    /// Monotonic stamp of the last `Started`/`Round` event, feeding the
    /// round-latency histogram.
    last_mark: Cell<u64>,
}

impl Progress<'_> {
    /// Streams a progress event (dropped silently when no listener is
    /// attached or the receiver hung up — progress must never block a job).
    /// `Started`/`Round` events also feed the job metrics.
    fn emit(&self, kind: EventKind) {
        let event = RunEvent::now(self.job, kind);
        let metrics = job_metrics();
        match event.kind {
            EventKind::Started => {
                self.last_mark.set(event.mono_ns);
                metrics.started.inc();
            }
            EventKind::Round(..) => {
                let previous = self.last_mark.replace(event.mono_ns);
                metrics.rounds.inc();
                metrics
                    .round_latency
                    .observe(event.mono_ns.saturating_sub(previous) as f64 / 1e9);
            }
            _ => {}
        }
        if let Some(events) = &self.events {
            let _ = events.send(event);
        }
    }
}

/// The service front door: `admit` a spec, then `execute_admitted` it.
///
/// A service owns (or shares) a persistent [`WorkerPool`]; jobs run on it
/// ([`ClaptonService::run_all`] makes each job one pool task), so
/// concurrent jobs interleave their population batches fairly instead of
/// queueing behind each other. With an artifact root attached
/// ([`ClaptonService::with_artifacts`]), each job gets its own
/// [`RunDirectory`] holding the submitted spec (`spec.json`), atomic
/// per-round checkpoints, and the final `report.json` — making every run
/// resumable and reproducible from its spec alone, and resubmissions of a
/// completed spec answer from the persisted report. Jobs on one service
/// share its ground-energy memo: a problem's exact `E0` is solved by its
/// first job and read back, bit-identical, by every later one.
///
/// # Example
///
/// ```
/// use clapton_service::{ClaptonService, EngineSpec, JobSpec, ProblemSpec, SuiteProblem};
///
/// let mut spec = JobSpec::new(ProblemSpec::Suite(SuiteProblem {
///     name: "ising(J=0.50)".into(),
///     qubits: 4,
/// }));
/// spec.engine = EngineSpec::Quick;
/// spec.seed = 7;
/// let report = ClaptonService::new().run(spec).unwrap();
/// assert!(report.clapton.is_some() && report.cafqa.is_some());
/// ```
#[derive(Debug)]
pub struct ClaptonService {
    pool: Arc<WorkerPool>,
    artifacts: Option<RunRegistry>,
    cache: Option<Arc<CacheStore>>,
    /// `E0` per problem, shared by every job this service runs.
    ground_energies: Arc<GroundEnergies>,
    /// Failed attempts per job directory (its slug) since the job last
    /// succeeded or was recorded failed on this service.
    failed_attempts: Mutex<HashMap<String, usize>>,
    worker_id: String,
    lease_ttl: Duration,
}

impl Default for ClaptonService {
    fn default() -> ClaptonService {
        ClaptonService::new()
    }
}

impl ClaptonService {
    /// A service with its own worker pool sized to the machine.
    pub fn new() -> ClaptonService {
        ClaptonService::with_pool(Arc::new(WorkerPool::new()))
    }

    /// A service sharing an existing pool (e.g. with a suite run or other
    /// services in the same process).
    pub fn with_pool(pool: Arc<WorkerPool>) -> ClaptonService {
        ClaptonService {
            pool,
            artifacts: None,
            cache: None,
            ground_energies: Arc::default(),
            failed_attempts: Mutex::default(),
            worker_id: clapton_runtime::default_worker_id().to_string(),
            lease_ttl: clapton_runtime::DEFAULT_LEASE_TTL,
        }
    }

    /// Overrides the worker identity this service claims job directories
    /// under (default: a per-process id). All services in one process should
    /// share an identity so their leases are re-entrant with each other.
    pub fn with_worker_id(mut self, worker_id: impl Into<String>) -> ClaptonService {
        self.worker_id = worker_id.into();
        self
    }

    /// Overrides the lease TTL (default 30 s): how stale a peer's heartbeat
    /// must be before this service takes its job over.
    pub fn with_lease_ttl(mut self, ttl: Duration) -> ClaptonService {
        self.lease_ttl = ttl;
        self
    }

    /// The worker identity this service claims job directories under.
    pub fn worker_id(&self) -> &str {
        &self.worker_id
    }

    /// Attaches a persistent artifact root: every job gets a run directory
    /// under it, keyed by job name and seed.
    ///
    /// # Errors
    ///
    /// Fails if the root cannot be created.
    pub fn with_artifacts(
        mut self,
        root: impl Into<PathBuf>,
    ) -> Result<ClaptonService, ClaptonError> {
        self.artifacts = Some(RunRegistry::open(root)?);
        Ok(self)
    }

    /// Attaches a shared persistent report store ([`CacheStore`]): every
    /// completed report is stored, so an identical spec — resubmitted, or
    /// submitted in a later process — answers without running the search.
    /// A job's search never consults it, so results and all reported
    /// statistics are bit-identical with or without the store.
    pub fn with_cache(mut self, cache: Arc<CacheStore>) -> ClaptonService {
        self.cache = Some(cache);
        self
    }

    /// [`ClaptonService::with_cache`] opening the store at the conventional
    /// location under `registry_root` (`<registry_root>/.cache`, which run
    /// listings skip) with default sizing.
    ///
    /// # Errors
    ///
    /// Fails if the store directory cannot be created or scanned.
    pub fn with_cache_under(
        self,
        registry_root: impl AsRef<std::path::Path>,
    ) -> Result<ClaptonService, ClaptonError> {
        let store = CacheStore::open_under_registry(registry_root, CacheConfig::default())?;
        Ok(self.with_cache(Arc::new(store)))
    }

    /// The attached persistent result store, if any.
    pub fn cache(&self) -> Option<&Arc<CacheStore>> {
        self.cache.as_ref()
    }

    /// The shared worker pool.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Validates and runs one job synchronously on the calling thread (the
    /// pool still executes the population batches): [`ClaptonService::admit`]
    /// then [`ClaptonService::execute_admitted`].
    ///
    /// # Errors
    ///
    /// [`ClaptonError::Spec`] on an invalid spec, [`ClaptonError::Io`] on
    /// artifact failures, [`ClaptonError::Suspended`] when a round budget
    /// halted the search before convergence.
    pub fn run(&self, spec: JobSpec) -> Result<Report, ClaptonError> {
        let admitted = self.admit(spec)?;
        self.execute_admitted(&admitted, None, CancelToken::new())
    }

    /// Validates `spec` and durably records it (when an artifact root is
    /// attached) *without running anything*, for front ends that queue
    /// admitted jobs and execute them later (the `clapton-server` admission
    /// queue acknowledges a submission only after this returns).
    ///
    /// # Errors
    ///
    /// [`ClaptonError::Spec`] on an invalid spec, [`ClaptonError::Conflict`]
    /// when the job's artifact directory is owned by a different spec.
    pub fn admit(&self, spec: JobSpec) -> Result<AdmittedJob, ClaptonError> {
        let job = self.resolve(spec)?;
        self.record(job)
    }

    /// Runs an admitted job to completion on the calling thread (population
    /// batches still fan out on the shared pool), streaming progress to
    /// `events` and honoring `cancel` at every round boundary. Every job
    /// runs through here: it emits the job's `Started` event, feeds the job
    /// metrics (dispatch lag counts from admission) and turns a panicking
    /// job body into [`ClaptonError::JobAborted`].
    ///
    /// # Errors
    ///
    /// Everything [`ClaptonService::run`] can return, plus
    /// [`ClaptonError::Cancelled`] when `cancel` fired and
    /// [`ClaptonError::JobAborted`] when the job body died.
    pub fn execute_admitted(
        &self,
        admitted: &AdmittedJob,
        events: Option<Sender<RunEvent>>,
        cancel: CancelToken,
    ) -> Result<Report, ClaptonError> {
        job_metrics()
            .dispatch_lag
            .observe(admitted.admitted_at.elapsed().as_secs_f64());
        let progress = Progress {
            job: &admitted.job.name,
            events,
            cancel,
            last_mark: Cell::new(0),
        };
        progress.emit(EventKind::Started);
        let result = panic::catch_unwind(AssertUnwindSafe(|| self.execute(admitted, &progress)))
            .unwrap_or_else(|payload| {
                Err(ClaptonError::JobAborted {
                    job: admitted.job.name.clone(),
                    detail: panic_text(payload.as_ref()),
                })
            });
        if result.is_ok() {
            let mut attempts = self.failed_attempts.lock().expect("failed attempts");
            attempts.remove(&job_slug(&admitted.job));
        }
        result
    }

    /// Whether an admitted job is already settled, and how: the one check
    /// every front end makes before running a job, and that the job body
    /// makes again. It reads, in order, the job's `report.json`, a recorded
    /// cancellation, the attached store's report tier (a hit is written to
    /// `report.json`, so later checks answer from the artifact), a recorded
    /// failure, and the round checkpoints. Without an artifact root only
    /// the store is consulted.
    ///
    /// # Errors
    ///
    /// [`ClaptonError::Io`] when the artifacts exist but cannot be read, or
    /// a stored report cannot be written to `report.json`.
    pub fn inspect(&self, admitted: &AdmittedJob) -> Result<JobArtifactState, ClaptonError> {
        let dir = admitted.dir.as_ref();
        // Corrupt artifacts are quarantined by `load` and read as absent, so
        // the check falls through to the next source instead of failing a
        // whole recovery sweep over one torn file. A recorded cancellation
        // is sticky; a recorded failure does not outrank a report from
        // either source (a job rerun after a recorded failure holds both).
        let mut failure = None;
        if let Some(dir) = dir {
            if let Artifact::Valid(report) = dir.load::<Report>(REPORT_ARTIFACT)? {
                return Ok(JobArtifactState::Done(Box::new(report)));
            }
            if let Artifact::Valid(state) = dir.load::<TerminalState>(STATE_ARTIFACT)? {
                if state.state == "cancelled" {
                    return Ok(JobArtifactState::Cancelled {
                        rounds: state.rounds,
                    });
                }
                failure = Some(state.detail);
            }
        }
        if let Some(cache) = &self.cache {
            let key = report_key(&admitted.job);
            if let Some(report) = cache.get_json::<Report>(report_namespace(), &key) {
                if let Some(dir) = dir {
                    // Atomic and value-identical to what any racing worker
                    // would write, so no lease is needed for this artifact.
                    dir.write_json(REPORT_ARTIFACT, &report)?;
                }
                return Ok(JobArtifactState::Done(Box::new(report)));
            }
        }
        if let Some(detail) = failure {
            return Ok(JobArtifactState::Failed { detail });
        }
        if dir.is_some_and(|d| d.exists(CHECKPOINT_ARTIFACT) || d.exists(CHECKPOINT_PREV_ARTIFACT))
        {
            return Ok(JobArtifactState::InFlight);
        }
        Ok(JobArtifactState::Fresh)
    }

    /// Settles a failed [`ClaptonService::execute_admitted`] attempt: the
    /// one retry policy of every front end. A panicking job body
    /// ([`ClaptonError::JobAborted`]) fails the same way every time, so it
    /// is recorded `failed` at once. Any other failure is presumed
    /// transient: the job runs again, resuming from its last round
    /// checkpoint, and is recorded on its third failure on this service
    /// since it last succeeded or was recorded. While a fault schedule is armed
    /// ([`failpoint::armed`]) such retries have no bound, since injected
    /// faults are finite. A recorded failure is `state.json`'s `failed`,
    /// which [`ClaptonService::inspect`] reads back as
    /// [`JobArtifactState::Failed`] (nothing is written without an artifact
    /// root).
    ///
    /// Cancellation, suspension and a peer's lease
    /// ([`ClaptonError::Cancelled`], [`ClaptonError::Suspended`],
    /// [`ClaptonError::Leased`]) are not failures; front ends handle them.
    ///
    /// # Errors
    ///
    /// [`ClaptonError::Io`] when the failure cannot be recorded.
    pub fn settle_failure(
        &self,
        admitted: &AdmittedJob,
        error: &ClaptonError,
    ) -> Result<FailedAttempt, ClaptonError> {
        let slug = job_slug(&admitted.job);
        let mut attempts = self.failed_attempts.lock().expect("failed attempts");
        let tried = attempts.entry(slug.clone()).or_insert(0);
        *tried += 1;
        let aborted = matches!(error, ClaptonError::JobAborted { .. });
        if !aborted && (*tried < JOB_ATTEMPTS || failpoint::armed()) {
            return Ok(FailedAttempt::Retry);
        }
        attempts.remove(&slug);
        drop(attempts);
        if let Some(dir) = &admitted.dir {
            write_terminal_state(dir, "failed", 0, &error.to_string())?;
        }
        Ok(FailedAttempt::Recorded)
    }

    /// Persists a terminal `cancelled` state recording `rounds` completed
    /// rounds, for a job cancelled before it reached
    /// [`ClaptonService::execute_admitted`] (a front end's cancellation
    /// that won the race against dispatch). A no-op without an artifact
    /// root.
    ///
    /// # Errors
    ///
    /// [`ClaptonError::Io`] when the marker cannot be written.
    pub fn mark_cancelled(
        &self,
        admitted: &AdmittedJob,
        rounds: usize,
    ) -> Result<(), ClaptonError> {
        if let Some(dir) = &admitted.dir {
            write_terminal_state(dir, "cancelled", rounds, "")?;
        }
        Ok(())
    }

    /// What the shared work queue knows about an admitted job: who (if
    /// anyone) holds its lease, how fresh their heartbeat is, and how many
    /// GA rounds are already banked — the operator-facing status surfaced
    /// by `clapton-client queue` and `suite-runner --status`.
    ///
    /// # Errors
    ///
    /// [`ClaptonError::Io`] when the claim or checkpoint cannot be read.
    pub fn lease_view(&self, admitted: &AdmittedJob) -> Result<JobLeaseView, ClaptonError> {
        let Some(dir) = &admitted.dir else {
            return Ok(JobLeaseView::default());
        };
        let lease = clapton_runtime::lease_state(dir.path(), self.lease_ttl)?;
        // The checkpoint alone: its memo lives in segments this never reads.
        let checkpoint = match dir.load::<EngineState>(CHECKPOINT_ARTIFACT)?.valid() {
            Some(state) => Some(state),
            None => dir.load::<EngineState>(CHECKPOINT_PREV_ARTIFACT)?.valid(),
        };
        let (rounds, cache_hits) = match checkpoint {
            Some(state) => (Some(state.rounds()), Some(state.cache_stats.hits)),
            None => match dir.load::<Report>(REPORT_ARTIFACT)?.valid() {
                Some(report) => (
                    report.clapton.as_ref().map(|c| c.rounds),
                    report.clapton.as_ref().map(|c| c.cache_hits),
                ),
                None => (None, None),
            },
        };
        Ok(JobLeaseView {
            owner: lease.as_ref().map(|s| s.owner.clone()),
            heartbeat_age_ms: lease.as_ref().map(|s| s.heartbeat_age.as_millis() as u64),
            stale: lease.as_ref().map(|s| s.stale),
            rounds,
            cache_hits,
        })
    }

    /// The live peer (a *different* worker with a fresh heartbeat) currently
    /// leasing the job's directory, if any — the check a crash-recovery scan
    /// makes before re-admitting persisted work: a job leased by a live peer
    /// is that peer's to finish.
    ///
    /// # Errors
    ///
    /// [`ClaptonError::Io`] when the claim cannot be read.
    pub fn leased_by_peer(&self, admitted: &AdmittedJob) -> Result<Option<String>, ClaptonError> {
        let Some(dir) = &admitted.dir else {
            return Ok(None);
        };
        Ok(clapton_runtime::lease_state(dir.path(), self.lease_ttl)?
            .filter(|state| !state.stale && state.owner != self.worker_id)
            .map(|state| state.owner))
    }

    /// Validates and runs a batch of jobs concurrently on the shared pool
    /// with fair interleaving, streaming progress to `events`: every spec
    /// is admitted first, then each job is one pool task running
    /// [`ClaptonService::execute_admitted`].
    ///
    /// Validation is all-or-nothing: if any spec is invalid, nothing runs.
    /// Per-job execution failures (I/O, budget suspension, a panicking job
    /// body) come back in the per-job `Result`s, in submission order.
    ///
    /// # Errors
    ///
    /// The first invalid spec, or an artifact-directory conflict.
    pub fn run_all(
        &self,
        specs: Vec<JobSpec>,
        events: Option<Sender<RunEvent>>,
    ) -> Result<Vec<Result<Report, ClaptonError>>, ClaptonError> {
        let jobs = specs
            .into_iter()
            .map(|spec| self.resolve(spec))
            .collect::<Result<Vec<ResolvedJob>, ClaptonError>>()?;
        // Two jobs in one batch sharing an artifact directory would race on
        // its checkpoint/report files (identical specs pass the resubmission
        // check), so duplicates are rejected up front.
        if self.artifacts.is_some() {
            let mut slugs: Vec<String> = jobs.iter().map(job_slug).collect();
            slugs.sort_unstable();
            if let Some(dup) = slugs.windows(2).find(|w| w[0] == w[1]) {
                return Err(SpecError::InvalidField {
                    field: "specs".to_string(),
                    reason: format!(
                        "two jobs in this batch map to the same artifact directory {:?}; \
                         give them distinct names or seeds",
                        dup[0]
                    ),
                }
                .into());
            }
        }
        let admitted = jobs
            .into_iter()
            .map(|job| self.record(job))
            .collect::<Result<Vec<AdmittedJob>, ClaptonError>>()?;
        Ok(self.execute_all(&admitted, events))
    }

    /// Runs admitted jobs as tasks of one pool scope, one
    /// [`ClaptonService::execute_admitted`] each, and returns their results
    /// in job order.
    fn execute_all(
        &self,
        admitted: &[AdmittedJob],
        events: Option<Sender<RunEvent>>,
    ) -> Vec<Result<Report, ClaptonError>> {
        let mut results: Vec<Option<Result<Report, ClaptonError>>> =
            admitted.iter().map(|_| None).collect();
        self.pool.scope(|s| {
            for (job, slot) in admitted.iter().zip(&mut results) {
                let events = events.clone();
                s.spawn(move || {
                    *slot = Some(self.execute_admitted(job, events, CancelToken::new()));
                });
            }
        });
        results
            .into_iter()
            .map(|result| result.expect("the scope ran every job"))
            .collect()
    }

    /// Validates `spec`. A round budget only makes sense when there is
    /// somewhere to persist the checkpoint: without an artifact root, a
    /// suspended search would be dropped and every resubmission would
    /// restart from round 0 — an infinite suspend loop, not a resume.
    fn resolve(&self, spec: JobSpec) -> Result<ResolvedJob, ClaptonError> {
        let job = spec.validate()?;
        if job.budget.is_some() && self.artifacts.is_none() {
            return Err(SpecError::InvalidField {
                field: "budget".to_string(),
                reason: "a round budget needs an artifact root to checkpoint into; attach one \
                         with ClaptonService::with_artifacts"
                    .to_string(),
            }
            .into());
        }
        Ok(job)
    }

    /// Admits a validated job: opens (or verifies) its run directory and
    /// stamps the admission time.
    fn record(&self, job: ResolvedJob) -> Result<AdmittedJob, ClaptonError> {
        let dir = self.prepare_dir(&job)?;
        Ok(AdmittedJob {
            job,
            dir,
            admitted_at: Instant::now(),
        })
    }

    /// Opens (or verifies) the job's run directory: the submitted spec is
    /// persisted on first contact; a resubmission must match it exactly.
    fn prepare_dir(&self, job: &ResolvedJob) -> Result<Option<RunDirectory>, ClaptonError> {
        let Some(registry) = &self.artifacts else {
            return Ok(None);
        };
        let slug = job_slug(job);
        let dir = registry.run(&slug)?;
        // The check compares identities, so a run suspended under
        // `--halt-after-rounds` may be finished under another budget.
        // A corrupt persisted spec is quarantined and rewritten from the
        // submission: the conflict check cannot be made against garbage,
        // and the round checkpoints (which carry the actual search state)
        // remain authoritative either way.
        match dir.load::<JobSpec>(SPEC_ARTIFACT)? {
            Artifact::Valid(existing) if existing.identity() != job.spec.identity() => {
                return Err(ClaptonError::Conflict {
                    run: dir.path().display().to_string(),
                });
            }
            Artifact::Valid(_) => {}
            Artifact::Missing | Artifact::Corrupt { .. } => {
                dir.write_json(SPEC_ARTIFACT, &job.spec)?;
            }
        }
        Ok(Some(dir))
    }
}

/// A job that passed validation and admission (its spec durably recorded
/// when the service has an artifact root) but has not necessarily run yet.
///
/// Produced by [`ClaptonService::admit`]; consumed by
/// [`ClaptonService::execute_admitted`] / [`ClaptonService::inspect`].
#[derive(Debug)]
pub struct AdmittedJob {
    job: ResolvedJob,
    dir: Option<RunDirectory>,
    /// When admission returned: the dispatch lag runs from here.
    admitted_at: Instant,
}

impl AdmittedJob {
    /// The resolved job.
    pub fn job(&self) -> &ResolvedJob {
        &self.job
    }

    /// The job's artifact directory, when the service persists artifacts.
    pub fn artifact_dir(&self) -> Option<&std::path::Path> {
        self.dir.as_ref().map(RunDirectory::path)
    }
}

/// Per-job lease status for operators (see [`ClaptonService::lease_view`]):
/// all fields `None` for an unleased job without banked rounds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JobLeaseView {
    /// Worker currently holding the job's lease.
    pub owner: Option<String>,
    /// Milliseconds since the holder's last heartbeat.
    pub heartbeat_age_ms: Option<u64>,
    /// Whether the holder's heartbeat is older than the lease TTL.
    pub stale: Option<bool>,
    /// GA rounds banked in the job's checkpoint (or final report).
    pub rounds: Option<usize>,
    /// Fitness requests the genome → loss memo answered so far (from the
    /// checkpoint while running, the final report once done).
    pub cache_hits: Option<u64>,
}

/// Whether a job is settled, as [`ClaptonService::inspect`] reads it from
/// the job's artifacts and the attached store.
#[derive(Debug)]
pub enum JobArtifactState {
    /// Nothing settles the job and no round is banked (or there is no
    /// artifact root): it has all its work ahead of it.
    Fresh,
    /// A round checkpoint exists but nothing settles the job: it was
    /// interrupted mid-run and will resume from the checkpoint.
    InFlight,
    /// The job completed: its `report.json`, or the report the store holds
    /// for its spec (then written to `report.json`).
    Done(Box<Report>),
    /// The job was cancelled after `rounds` rounds (terminal).
    Cancelled {
        /// GA rounds completed before cancellation.
        rounds: usize,
    },
    /// The service recorded the job failed (see
    /// [`ClaptonService::settle_failure`]) and no report settles it. A
    /// resubmission is answered with the failure; executing the job again
    /// reruns it.
    Failed {
        /// The recorded failure detail.
        detail: String,
    },
}

/// What [`ClaptonService::settle_failure`] made of a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailedAttempt {
    /// Run the job again: it resumes from its last round checkpoint.
    Retry,
    /// The job is recorded `failed`.
    Recorded,
}

/// Renders a captured panic payload as text for [`ClaptonError::JobAborted`].
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "job panicked (non-string payload)".to_string())
}

/// The memo segment of 0-based round `round`: the genome → loss entries
/// that round added, written once before the round's checkpoint and never
/// rewritten.
fn segment_name(round: usize) -> String {
    format!("memo-{round:05}.seg")
}

/// A memo segment's payload: the gene count and the entry count as `u32`
/// LE, then per entry the genome packed four genes per byte (gene `i` in
/// bits `2(i mod 4)..`) and the loss's `f64` bits as `u64` LE. The engine
/// hands each round's entries over sorted by key, so a round's segment
/// bytes are the same from every writer.
///
/// # Panics
///
/// Panics unless every key has the same length and every gene is `< 4` —
/// the Clapton objective's canonical genomes.
fn encode_segment(entries: &[MemoEntry]) -> Vec<u8> {
    let genes = entries.first().map_or(0, |(key, _)| key.len());
    let mut out = Vec::with_capacity(8 + entries.len() * (genes.div_ceil(4) + 8));
    for word in [genes, entries.len()] {
        let word = u32::try_from(word).expect("a round's memo delta fits u32 counts");
        out.extend_from_slice(&word.to_le_bytes());
    }
    for (key, loss) in entries {
        assert_eq!(key.len(), genes, "memo keys share one length");
        for four in key.chunks(4) {
            out.push(four.iter().enumerate().fold(0, |byte, (i, &gene)| {
                assert!(gene < 4, "memo genes are 2-bit");
                byte | (gene << (2 * i))
            }));
        }
        out.extend_from_slice(&loss.to_bits().to_le_bytes());
    }
    out
}

/// Inverse of [`encode_segment`].
fn decode_segment(payload: &[u8]) -> Result<Vec<MemoEntry>, String> {
    let word = |at: usize| -> Option<usize> {
        Some(u32::from_le_bytes(payload.get(at..at + 4)?.try_into().ok()?) as usize)
    };
    let (Some(genes), Some(count)) = (word(0), word(4)) else {
        return Err("segment header is truncated".to_string());
    };
    let stride = genes.div_ceil(4) + 8;
    if Some(payload.len() - 8) != count.checked_mul(stride) {
        return Err(format!(
            "segment holds {} body bytes, not {count} entries of {stride}",
            payload.len() - 8
        ));
    }
    Ok(payload[8..]
        .chunks_exact(stride)
        .map(|entry| {
            let key = (0..genes)
                .map(|i| (entry[i / 4] >> (2 * (i % 4))) & 3)
                .collect();
            let (_, bits) = entry.split_at(stride - 8);
            let loss = f64::from_bits(u64::from_le_bytes(bits.try_into().expect("8 bytes")));
            (key, loss)
        })
        .collect())
}

/// Persists a finished round: first its memo segment, read back and
/// verified, then the memo-less checkpoint that references it. A segment
/// that does not verify fails the write, so no checkpoint ever references a
/// torn segment (segments are never rewritten in place by later rounds).
fn write_round(dir: &RunDirectory, state: &EngineState, delta: &[MemoEntry]) -> io::Result<()> {
    let name = segment_name(state.rounds() - 1);
    let payload = encode_segment(delta);
    dir.write_sealed(&name, &payload)?;
    let read_back = dir.load_sealed(&name, |bytes| {
        if bytes == payload.as_slice() {
            Ok(())
        } else {
            Err("segment differs from the bytes written".to_string())
        }
    })?;
    if read_back != Artifact::Valid(()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{name} did not verify after writing: {read_back:?}"),
        ));
    }
    dir.write_json_rotating(CHECKPOINT_ARTIFACT, CHECKPOINT_PREV_ARTIFACT, state)
}

/// The memo of `state`: the entries of segments `0..next_round`, sorted by
/// key, or `None` when a segment is missing, corrupt (quarantined by the
/// read) or holds a different number of entries than its round's misses.
fn replay_memo(dir: &RunDirectory, state: &EngineState) -> io::Result<Option<Vec<MemoEntry>>> {
    let mut memo = Vec::new();
    for (round, stats) in state.round_eval_stats.iter().enumerate() {
        match dir.load_sealed(&segment_name(round), decode_segment)? {
            Artifact::Valid(entries) if entries.len() as u64 == stats.misses => {
                memo.extend(entries)
            }
            _ => return Ok(None),
        }
    }
    memo.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(Some(memo))
}

/// Loads the newest round checkpoint whose memo replays: the current
/// generation, else the previous one (a corrupt checkpoint is quarantined
/// by the failed load), else `None` and the job starts from round 0.
/// Corruption of the latest checkpoint or segment costs one round; an older
/// segment, the whole search. A checkpoint written by an earlier build
/// (memo inline, no segments) replays nothing and restarts too — rounds are
/// deterministic, so the report is byte-identical either way.
fn load_checkpoint(dir: &RunDirectory) -> io::Result<Option<EngineState>> {
    for name in [CHECKPOINT_ARTIFACT, CHECKPOINT_PREV_ARTIFACT] {
        let Some(mut state) = dir.load::<EngineState>(name)?.valid() else {
            continue;
        };
        if let Some(memo) = replay_memo(dir, &state)? {
            state.cache_entries = memo;
            return Ok(Some(state));
        }
    }
    Ok(None)
}

/// The job body behind [`ClaptonService::execute_admitted`].
impl ClaptonService {
    /// Claims the job's directory, runs [`ClaptonService::execute_inner`]
    /// inside the job's telemetry trace, and persists the span log.
    fn execute(
        &self,
        admitted: &AdmittedJob,
        progress: &Progress<'_>,
    ) -> Result<Report, ClaptonError> {
        let dir = admitted.dir.as_ref();
        // The job directory is the unit of ownership in the shared work
        // queue: claim it before reading or writing anything inside, so
        // concurrent services (other processes, other hosts) on one
        // registry can never interleave artifact writes. Single-process
        // behavior is unchanged — the claim is always uncontended there.
        let keeper = match dir {
            Some(dir) => {
                match clapton_runtime::acquire(dir.path(), &self.worker_id, self.lease_ttl)? {
                    ClaimOutcome::Acquired(held) => {
                        Some(LeaseKeeper::spawn(held, self.lease_ttl / 4))
                    }
                    ClaimOutcome::Held {
                        owner,
                        heartbeat_age,
                    } => {
                        return Err(ClaptonError::Leased {
                            run: dir.path().display().to_string(),
                            owner,
                            heartbeat_age_ms: heartbeat_age.as_millis() as u64,
                        })
                    }
                }
            }
            None => None,
        };
        let trace = clapton_telemetry::Trace::begin();
        let result = {
            let _trace_ctx = clapton_telemetry::push_context(trace.context());
            let _job_span = clapton_telemetry::span("job");
            self.execute_inner(admitted, progress, keeper.as_ref())
        };
        let records = trace.finish();
        if let Some(dir) = dir {
            // Persist the span log beside the job's other artifacts so the
            // trace survives the process (and the server's trace endpoint
            // reads the same tree). A resubmission answered from the
            // persisted report yields only the root span — keep the
            // original run's trace then. Telemetry persistence must never
            // fail a finished job.
            if !records.is_empty() && (records.len() > 1 || !dir.exists(TELEMETRY_ARTIFACT)) {
                let _ = dir.write_text(TELEMETRY_ARTIFACT, &clapton_telemetry::to_jsonl(&records));
            }
        }
        if let Some(keeper) = keeper {
            let _ = keeper.release();
        }
        result
    }

    /// The job itself: answer it when [`ClaptonService::inspect`] finds it
    /// settled, else run the requested methods, checkpointing every Clapton
    /// round, and write the report.
    fn execute_inner(
        &self,
        admitted: &AdmittedJob,
        progress: &Progress<'_>,
        keeper: Option<&LeaseKeeper>,
    ) -> Result<Report, ClaptonError> {
        // A corrupt report is quarantined and the job falls through to the
        // resume path below: completion rotated the final checkpoint into
        // the `prev` slot, so replaying from it reproduces the report
        // bit-identically. Cancellation is terminal and sticky: a
        // resubmission of a cancelled spec reports the cancellation instead
        // of silently restarting the search (remove the run directory to
        // truly start over). A recorded failure does not stop a rerun.
        match self.inspect(admitted)? {
            JobArtifactState::Done(report) => {
                progress.emit(EventKind::Finished(
                    "already complete (answered without running)".to_string(),
                ));
                return Ok(*report);
            }
            JobArtifactState::Cancelled { rounds } => {
                progress.emit(EventKind::Cancelled(rounds));
                return Err(ClaptonError::Cancelled { rounds });
            }
            JobArtifactState::Fresh
            | JobArtifactState::InFlight
            | JobArtifactState::Failed { .. } => {}
        }
        let AdmittedJob { job, dir, .. } = admitted;
        let dir = dir.as_ref();
        let pool = &self.pool;
        let h = &job.hamiltonian;
        let exec = &job.exec;
        let config = &job.config;
        let e0 = {
            let _span = clapton_telemetry::span("e0");
            self.ground_energies.ground_energy(h)
        };
        let cafqa = job.runs(&MethodSpec::Cafqa).then(|| {
            let _span = clapton_telemetry::span("cafqa");
            run_cafqa(h, exec, &config.engine, config.seed, pool)
        });
        let ncafqa = job.runs(&MethodSpec::Ncafqa).then(|| {
            let _span = clapton_telemetry::span("ncafqa");
            run_ncafqa(h, exec, &config.engine, config.evaluator, config.seed, pool)
        });
        let clapton = if job.runs(&MethodSpec::Clapton) {
            let resume = match dir {
                Some(dir) => load_checkpoint(dir)?,
                None => None,
            };
            // The budget counts rounds per submission (matching the suite
            // runner's `--halt-after-rounds` semantics): each resubmission gets
            // a fresh allowance and continues from the persisted checkpoint.
            let mut remaining = job.budget.map(|b| b as i64);
            let mut checkpoint_error: Option<io::Error> = None;
            let mut cancelled = false;
            let _clapton_span = clapton_telemetry::span("clapton");
            let mut round_started = clapton_telemetry::mono_ns();
            let (state, result) =
                run_clapton_resumable(h, exec, config, pool, resume, &mut |state, delta| {
                    clapton_telemetry::record_complete(
                        "round",
                        round_started,
                        clapton_telemetry::mono_ns(),
                    );
                    if let Some(dir) = dir {
                        // The round's memo segment, then its checkpoint, which
                        // rotates so the previous round's stays valid while
                        // this one is in flight: a torn write costs one round,
                        // never the run.
                        let written = {
                            let _span = clapton_telemetry::span("checkpoint");
                            write_round(dir, state, delta)
                        };
                        if let Err(e) = written {
                            checkpoint_error = Some(e);
                            return false;
                        }
                        progress.emit(EventKind::Checkpointed(state.rounds()));
                    }
                    round_started = clapton_telemetry::mono_ns();
                    if let Some(best) = &state.global_best {
                        progress.emit(EventKind::Round(state.rounds(), best.loss));
                    }
                    // The cooperative interruption point: the round's checkpoint
                    // is already durable, so stopping here either suspends
                    // resumably or cancels terminally — never mid-round.
                    match progress.cancel.interrupt() {
                        Interrupt::Cancel => {
                            cancelled = true;
                            if let Some(dir) = dir {
                                if let Err(e) =
                                    write_terminal_state(dir, "cancelled", state.rounds(), "")
                                {
                                    checkpoint_error = Some(e);
                                }
                            }
                            return false;
                        }
                        Interrupt::Suspend => return false,
                        Interrupt::None => {}
                    }
                    // A peer judged us dead and stole the lease: stop writing
                    // into a directory we no longer own. The round checkpoint
                    // just written is byte-identical to what the thief resumes
                    // from, so standing down loses nothing.
                    if keeper.is_some_and(LeaseKeeper::lost) {
                        return false;
                    }
                    match &mut remaining {
                        Some(r) => {
                            *r -= 1;
                            *r > 0
                        }
                        None => true,
                    }
                });
            if let Some(e) = checkpoint_error {
                return Err(e.into());
            }
            match result {
                Some(clapton) => Some(clapton),
                None if cancelled => {
                    progress.emit(EventKind::Cancelled(state.rounds()));
                    return Err(ClaptonError::Cancelled {
                        rounds: state.rounds(),
                    });
                }
                None => {
                    progress.emit(EventKind::Suspended(state.rounds()));
                    return Err(ClaptonError::Suspended {
                        rounds: state.rounds(),
                    });
                }
            }
        } else {
            None
        };
        let zeros = vec![0.0; exec.ansatz().num_parameters()];
        let (cafqa_initial_energy, ncafqa_initial_energy, clapton_initial_energy) = {
            let _span = clapton_telemetry::span("device_energy");
            (
                cafqa.as_ref().map(|c| device_energy(exec, h, &c.theta)),
                ncafqa.as_ref().map(|c| device_energy(exec, h, &c.theta)),
                clapton
                    .as_ref()
                    .map(|c| device_energy(exec, &c.transformation.transformed, &zeros)),
            )
        };
        let baseline = cafqa_initial_energy.or(ncafqa_initial_energy);
        let eta_initial = match (baseline, clapton_initial_energy) {
            // η divides by Clapton's gap to E0; a start already at E0 (to
            // rounding) leaves it undefined.
            (Some(base), Some(init)) if (e0 - init).abs() > 1e-9 * e0.abs().max(1.0) => {
                Some(clapton_core::relative_improvement(e0, base, init))
            }
            _ => None,
        };
        let (clapton_vqe, cafqa_vqe, ncafqa_vqe) = match job.vqe_iterations() {
            Some(iters) => {
                let _span = clapton_telemetry::span("vqe");
                let vqe_config = VqeConfig::new(iters);
                (
                    clapton
                        .as_ref()
                        .map(|c| run_vqe(&c.transformation.transformed, exec, &zeros, &vqe_config)),
                    cafqa
                        .as_ref()
                        .map(|c| run_vqe(h, exec, &c.theta, &vqe_config)),
                    ncafqa
                        .as_ref()
                        .map(|c| run_vqe(h, exec, &c.theta, &vqe_config)),
                )
            }
            None => (None, None, None),
        };
        let report = Report {
            name: job.name.clone(),
            e0,
            cafqa,
            ncafqa,
            clapton,
            cafqa_initial_energy,
            ncafqa_initial_energy,
            clapton_initial_energy,
            eta_initial,
            clapton_vqe,
            cafqa_vqe,
            ncafqa_vqe,
        };
        if let Some(dir) = dir {
            let _span = clapton_telemetry::span("report_write");
            dir.write_json(REPORT_ARTIFACT, &report)?;
            // The final checkpoint rotates into the `prev` slot instead of being
            // deleted, and the segments stay: if the report is ever torn or
            // garbled, recovery replays from the final round state and
            // reproduces it bit-identically.
            dir.rotate(CHECKPOINT_ARTIFACT, CHECKPOINT_PREV_ARTIFACT)?;
        }
        if let Some(cache) = &self.cache {
            // The job's one store write: its terminal report, made durable.
            let _span = clapton_telemetry::span("store_write");
            cache.put_json(report_namespace(), &report_key(job), &report);
            cache.flush().map_err(ClaptonError::from)?;
        }
        progress.emit(EventKind::Finished(match &report.clapton {
            Some(c) => format!("clapton loss {:.6} in {} rounds", c.loss, c.rounds),
            None => "complete".to_string(),
        }));
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapton_sim::ground_energy;

    #[test]
    fn memo_segments_round_trip_bit_exactly() {
        let entries: Vec<MemoEntry> = (0..37u8)
            .map(|i| {
                let key = (0..49).map(|g| (i / 3 + g) % 4).collect();
                (key, f64::from(i).sqrt() * -1.5e-7)
            })
            .chain([(vec![3; 49], f64::NAN), (vec![1; 49], -0.0)])
            .collect();
        let payload = encode_segment(&entries);
        assert_eq!(
            payload.len(),
            8 + entries.len() * (13 + 8),
            "2 bits per gene"
        );
        let decoded = decode_segment(&payload).unwrap();
        assert_eq!(decoded.len(), entries.len());
        for ((key, loss), (k, l)) in entries.iter().zip(&decoded) {
            assert_eq!((key, loss.to_bits()), (k, l.to_bits()));
        }
        assert_eq!(decode_segment(&encode_segment(&[])).unwrap(), Vec::new());
        assert!(decode_segment(&payload[..payload.len() - 1]).is_err());
        assert!(decode_segment(&payload[..5]).is_err());
    }

    /// A quick job on `ising(J=0.50)` at four qubits under uniform noise.
    fn ising4(seed: u64) -> JobSpec {
        let mut spec = JobSpec::new(crate::ProblemSpec::Suite(crate::SuiteProblem {
            name: "ising(J=0.50)".into(),
            qubits: 4,
        }));
        spec.noise = crate::NoiseSpec::Uniform(crate::UniformNoise {
            p1: 1e-3,
            p2: 1e-2,
            readout: 2e-2,
            t1: None,
        });
        spec.engine = crate::EngineSpec::Quick;
        spec.seed = seed;
        spec
    }

    fn inline_service() -> ClaptonService {
        ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(0)))
    }

    fn report_json(report: &Report) -> String {
        serde_json::to_string(report).expect("report serializes")
    }

    #[test]
    fn repeat_problems_take_e0_from_the_memo_through_every_call_site() {
        let svc = inline_service();
        let h = ising4(0).validate().unwrap().hamiltonian;
        let e0 = ground_energy(&h);
        let via_run = svc.run(ising4(7)).unwrap();
        assert_eq!(svc.ground_energies.solves(), 1);
        let via_batch = svc
            .run_all(vec![ising4(8)], None)
            .unwrap()
            .remove(0)
            .unwrap();
        let admitted = svc.admit(ising4(9)).unwrap();
        let via_admitted = svc
            .execute_admitted(&admitted, None, CancelToken::new())
            .unwrap();
        assert_eq!(
            (svc.ground_energies.solves(), svc.ground_energies.len()),
            (1, 1),
            "repeat jobs run no Lanczos"
        );
        for (seed, report) in [(7, via_run), (8, via_batch), (9, via_admitted)] {
            assert_eq!(report.e0.to_bits(), e0.to_bits(), "seed {seed}");
            let fresh = inline_service().run(ising4(seed)).unwrap();
            assert_eq!(report_json(&report), report_json(&fresh), "seed {seed}");
        }
    }

    #[test]
    fn a_terms_problem_one_coefficient_bit_apart_misses() {
        let terms = |c: f64| {
            let mut spec = ising4(3);
            spec.problem = crate::ProblemSpec::Terms(crate::TermsProblem {
                qubits: 3,
                terms: vec![(1.0, "ZZI".into()), (c, "XIX".into()), (0.3, "IYZ".into())],
            });
            spec
        };
        let nudged = f64::from_bits(0.5f64.to_bits() + 1);
        let svc = inline_service();
        let reports: Vec<Report> = [0.5, nudged, 0.5]
            .into_iter()
            .map(|c| svc.run(terms(c)).unwrap())
            .collect();
        assert_eq!(svc.ground_energies.solves(), 2, "the nudged problem missed");
        for (c, report) in [0.5, nudged].into_iter().zip(&reports) {
            let h = terms(c).validate().unwrap().hamiltonian;
            assert_eq!(report.e0.to_bits(), ground_energy(&h).to_bits());
        }
        assert_eq!(report_json(&reports[0]), report_json(&reports[2]));
    }

    #[test]
    fn concurrent_jobs_on_one_problem_get_the_same_e0_bits() {
        let svc = ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(2)));
        let reports = svc.run_all(vec![ising4(7), ising4(8)], None).unwrap();
        let e0 = ground_energy(&ising4(0).validate().unwrap().hamiltonian);
        for report in reports {
            assert_eq!(report.unwrap().e0.to_bits(), e0.to_bits());
        }
        assert_eq!(svc.ground_energies.len(), 1);
        assert!((1..=2).contains(&svc.ground_energies.solves()));
    }

    #[test]
    fn a_dying_job_aborts_alone_and_results_keep_submission_order() {
        let svc = ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(1)));
        let mut admitted: Vec<AdmittedJob> = [3, 4, 5]
            .into_iter()
            .map(|seed| svc.admit(ising4(seed)).unwrap())
            .collect();
        // Past validation, so only the job body's E0 solver sees the size.
        let n = clapton_sim::MAX_GROUND_ENERGY_QUBITS + 1;
        let word: clapton_pauli::PauliString = "Z".repeat(n).parse().unwrap();
        admitted[1].job.hamiltonian = clapton_pauli::PauliSum::from_terms(n, vec![(1.0, word)]);
        let results = svc.execute_all(&admitted, None);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok() && results[2].is_ok(), "{results:?}");
        match &results[1] {
            Err(ClaptonError::JobAborted { job, detail }) => {
                assert_eq!(job, "ising(J=0.50)");
                let limit = format!("{}-qubit limit", clapton_sim::MAX_GROUND_ENERGY_QUBITS);
                assert!(detail.contains(&limit), "{detail}");
            }
            other => panic!("expected the middle job to abort, got {other:?}"),
        }
        for (seed, result) in [(3, &results[0]), (5, &results[2])] {
            let fresh = inline_service().run(ising4(seed)).unwrap();
            assert_eq!(report_json(result.as_ref().unwrap()), report_json(&fresh));
        }
    }

    #[test]
    fn failures_are_retried_twice_then_recorded_and_aborts_at_once() {
        let _gate = failpoint::tests_exclusive();
        let root =
            std::env::temp_dir().join(format!("clapton-service-failures-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let svc = inline_service().with_artifacts(&root).unwrap();
        let [aborted, flaky, armed, recovers] =
            [1, 2, 3, 4].map(|seed| svc.admit(ising4(seed)).unwrap());
        let io = || ClaptonError::Io(io::Error::other("flaky disk"));
        let settle =
            |job: &AdmittedJob, error: ClaptonError| svc.settle_failure(job, &error).unwrap();
        let failed = |job: &AdmittedJob| match svc.inspect(job).unwrap() {
            JobArtifactState::Failed { detail } => Some(detail),
            _ => None,
        };
        // A panicking body fails the same way every time.
        let abort = ClaptonError::JobAborted {
            job: "ising(J=0.50)".to_string(),
            detail: "the job body panicked".to_string(),
        };
        let abort_text = abort.to_string();
        assert_eq!(settle(&aborted, abort), FailedAttempt::Recorded);
        assert_eq!(failed(&aborted), Some(abort_text));
        // Anything else is retried twice and recorded on the third failure.
        for _ in 0..2 {
            assert_eq!(settle(&flaky, io()), FailedAttempt::Retry);
            assert_eq!(failed(&flaky), None);
        }
        assert_eq!(settle(&flaky, io()), FailedAttempt::Recorded);
        assert_eq!(failed(&flaky), Some(io().to_string()));
        // An armed fault schedule lifts the bound.
        failpoint::install(vec![failpoint::FailRule::at(
            "service.tests.never_hit",
            failpoint::FailAction::Err,
            &[1],
        )]);
        let retried: Vec<FailedAttempt> = (0..10).map(|_| settle(&armed, io())).collect();
        failpoint::clear();
        assert_eq!(retried, vec![FailedAttempt::Retry; 10]);
        assert_eq!(failed(&armed), None);
        // A success resets the count.
        for _ in 0..2 {
            assert_eq!(settle(&recovers, io()), FailedAttempt::Retry);
        }
        svc.execute_admitted(&recovers, None, CancelToken::new())
            .unwrap();
        for _ in 0..2 {
            assert_eq!(settle(&recovers, io()), FailedAttempt::Retry);
        }
        assert_eq!(settle(&recovers, io()), FailedAttempt::Recorded);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn report_namespace_is_pinned() {
        // Literal value: reports stored by earlier builds must keep
        // answering.
        assert_eq!(report_namespace(), 17657249915177827693);
    }
}
