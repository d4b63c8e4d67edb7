//! [`ClaptonService`]: submit validated [`JobSpec`]s onto the shared
//! runtime substrate.

use crate::ground::GroundEnergies;
use crate::{JobSpec, MethodSpec, Report, ResolvedJob};
use clapton_cache::{CacheConfig, CacheStore};
use clapton_core::{device_energy, run_cafqa, run_clapton_resumable, run_ncafqa, LossStore};
use clapton_error::{ClaptonError, SpecError};
use clapton_ga::{EngineState, MemoEntry};
use clapton_runtime::{
    artifact_slug, Artifact, CancelToken, ClaimOutcome, EventKind, Interrupt, JobContext,
    JobScheduler, LeaseKeeper, RunDirectory, RunEvent, RunManifest, RunRegistry, ScheduledJob,
    WorkerPool,
};
use clapton_vqe::{run_vqe, VqeConfig};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
/// without a report (`cancelled`, or a server-recorded `failed`) leaves this
/// marker so resubmissions and crash-recovery scans see the outcome instead
/// of silently re-running the job.
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

/// The service front door: one `submit` for every caller.
///
/// A service owns (or shares) a persistent [`WorkerPool`]; every submitted
/// job runs through the [`JobScheduler`] on that pool, so concurrent jobs
/// interleave their population batches fairly instead of queueing behind
/// each other. With an artifact root attached
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
    worker_id: String,
    lease_ttl: Duration,
}

/// The lease parameters an execution path claims job directories with —
/// cloned out of the service so job closures can outlive `&self`.
#[derive(Debug, Clone)]
pub(crate) struct LeasePolicy {
    owner: String,
    ttl: Duration,
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

    fn lease_policy(&self) -> LeasePolicy {
        LeasePolicy {
            owner: self.worker_id.clone(),
            ttl: self.lease_ttl,
        }
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

    /// Attaches a shared persistent result store ([`CacheStore`]): memo
    /// misses in every job's loss evaluation consult it before computing,
    /// computed losses are written back, and completed reports are stored
    /// so an identical spec — resubmitted, or submitted in a later process
    /// — answers without running the search. Results and all reported
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
    /// pool still executes the population batches).
    ///
    /// # Errors
    ///
    /// [`ClaptonError::Spec`] on an invalid spec, [`ClaptonError::Io`] on
    /// artifact failures, [`ClaptonError::Suspended`] when a round budget
    /// halted the search before convergence.
    pub fn run(&self, spec: JobSpec) -> Result<Report, ClaptonError> {
        let mut results = self.run_all(vec![spec], None)?;
        results.pop().expect("one job submitted")
    }

    /// Validates and submits one job, returning a [`JobHandle`] streaming
    /// [`RunEvent`]s while the job runs in the background.
    ///
    /// Validation (and the artifact-conflict check) happens synchronously —
    /// a handle is only returned for a job that will actually execute.
    ///
    /// # Errors
    ///
    /// [`ClaptonError::Spec`] on an invalid spec, [`ClaptonError::Io`] when
    /// the artifact directory exists but belongs to a different spec.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, ClaptonError> {
        let admitted = self.admit(spec)?;
        let AdmittedJob { job, dir } = admitted;
        let name = job.name.clone();
        let name_for_abort = name.clone();
        let cancel = CancelToken::new();
        let job_cancel = cancel.clone();
        let pool = Arc::clone(&self.pool);
        let lease = self.lease_policy();
        let cache = self.cache.clone();
        let ground_energies = Arc::clone(&self.ground_energies);
        let (event_tx, event_rx) = mpsc::channel();
        let (result_tx, result_rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let scheduler = JobScheduler::new(pool);
            let jobs = vec![ScheduledJob::with_cancel(
                job.name.clone(),
                job_cancel,
                |ctx: &JobContext| {
                    execute(
                        &job,
                        ctx,
                        dir.as_ref(),
                        &lease,
                        cache.as_ref(),
                        &ground_energies,
                    )
                },
            )];
            let (mut results, panic) = scheduler.try_run_all(jobs, Some(event_tx));
            let result = results.pop().flatten().unwrap_or_else(|| {
                Err(ClaptonError::JobAborted {
                    job: name_for_abort,
                    detail: panic_text(panic),
                })
            });
            let _ = result_tx.send(result);
        });
        Ok(JobHandle {
            name,
            events: event_rx,
            result: result_rx,
            cancel,
            thread,
        })
    }

    /// Validates `spec` and durably records it (when an artifact root is
    /// attached) *without running anything* — the admission half of
    /// [`ClaptonService::submit`], split out for front ends that queue
    /// admitted jobs and execute them later (the `clapton-server` admission
    /// queue acknowledges a submission only after this returns).
    ///
    /// # Errors
    ///
    /// [`ClaptonError::Spec`] on an invalid spec, [`ClaptonError::Conflict`]
    /// when the job's artifact directory is owned by a different spec.
    pub fn admit(&self, spec: JobSpec) -> Result<AdmittedJob, ClaptonError> {
        let job = spec.validate()?;
        self.check_budget_checkpointable(&job)?;
        let dir = self.prepare_dir(&job)?;
        Ok(AdmittedJob { job, dir })
    }

    /// Runs an admitted job to completion on the calling thread (population
    /// batches still fan out on the shared pool), streaming progress to
    /// `events` and honoring `cancel` at every round boundary.
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
        let AdmittedJob { job, dir } = admitted;
        let lease = self.lease_policy();
        let scheduler = JobScheduler::new(Arc::clone(&self.pool));
        let jobs = vec![ScheduledJob::with_cancel(
            job.name.clone(),
            cancel,
            |ctx: &JobContext| {
                execute(
                    job,
                    ctx,
                    dir.as_ref(),
                    &lease,
                    self.cache.as_ref(),
                    &self.ground_energies,
                )
            },
        )];
        let (mut results, panic) = scheduler.try_run_all(jobs, events);
        match results.pop().flatten() {
            Some(result) => result,
            None => Err(ClaptonError::JobAborted {
                job: job.name.clone(),
                detail: panic_text(panic),
            }),
        }
    }

    /// What the artifact store knows about an admitted job — the queue
    /// introspection hook crash-recovering front ends scan on startup to
    /// decide which persisted jobs still need work. Without an artifact
    /// root every job is [`JobArtifactState::Fresh`].
    ///
    /// # Errors
    ///
    /// [`ClaptonError::Io`] when the artifacts exist but cannot be read.
    pub fn inspect(&self, admitted: &AdmittedJob) -> Result<JobArtifactState, ClaptonError> {
        let Some(dir) = &admitted.dir else {
            return Ok(JobArtifactState::Fresh);
        };
        // Corrupt artifacts are quarantined by `load` and treated as absent
        // here: the scan falls through to the next recovery source instead
        // of failing the whole startup sweep over one torn file.
        if let Artifact::Valid(state) = dir.load::<TerminalState>(STATE_ARTIFACT)? {
            return Ok(match state.state.as_str() {
                "cancelled" => JobArtifactState::Cancelled {
                    rounds: state.rounds,
                },
                _ => JobArtifactState::Failed {
                    detail: state.detail,
                },
            });
        }
        if let Artifact::Valid(report) = dir.load::<Report>(REPORT_ARTIFACT)? {
            return Ok(JobArtifactState::Done(Box::new(report)));
        }
        if dir.exists(CHECKPOINT_ARTIFACT) || dir.exists(CHECKPOINT_PREV_ARTIFACT) {
            return Ok(JobArtifactState::InFlight);
        }
        Ok(JobArtifactState::Fresh)
    }

    /// Persists a terminal `failed` state beside the job's artifacts, so a
    /// later [`ClaptonService::inspect`] (e.g. after a server restart) sees
    /// the failure instead of silently re-running the job. A no-op without
    /// an artifact root.
    ///
    /// # Errors
    ///
    /// [`ClaptonError::Io`] when the marker cannot be written.
    pub fn mark_failed(&self, admitted: &AdmittedJob, detail: &str) -> Result<(), ClaptonError> {
        if let Some(dir) = &admitted.dir {
            write_terminal_state(dir, "failed", 0, detail)?;
        }
        Ok(())
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

    /// Answers an admitted job from the persistent result store without
    /// executing anything: a report cached under the job's spec identity
    /// (by this process or any earlier one sharing the store) is
    /// materialized into the job's artifact directory — so `inspect` and
    /// resubmissions see a completed job — and returned. `None` on a cache
    /// miss or without an attached store.
    ///
    /// This is the warm-admission fast path front ends take before
    /// dispatching to the pool.
    ///
    /// # Errors
    ///
    /// [`ClaptonError::Io`] when the cached report cannot be persisted.
    pub fn answer_from_cache(
        &self,
        admitted: &AdmittedJob,
    ) -> Result<Option<Report>, ClaptonError> {
        let Some(cache) = &self.cache else {
            return Ok(None);
        };
        let Some(report) = cache.get_json::<Report>(report_namespace(), &report_key(&admitted.job))
        else {
            return Ok(None);
        };
        if let Some(dir) = &admitted.dir {
            // Atomic and value-identical to what any racing worker would
            // write, so no lease is needed for this single artifact.
            dir.write_json(REPORT_ARTIFACT, &report)?;
        }
        Ok(Some(report))
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
    /// with fair interleaving, streaming progress to `events`.
    ///
    /// Validation is all-or-nothing: if any spec is invalid, nothing runs.
    /// Per-job execution failures (I/O, budget suspension) come back in the
    /// per-job `Result`s, in submission order.
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
            .map(|spec| spec.validate().map_err(ClaptonError::from))
            .collect::<Result<Vec<ResolvedJob>, ClaptonError>>()?;
        for job in &jobs {
            self.check_budget_checkpointable(job)?;
        }
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
        let dirs = jobs
            .iter()
            .map(|job| self.prepare_dir(job))
            .collect::<Result<Vec<Option<RunDirectory>>, ClaptonError>>()?;
        let scheduler = JobScheduler::new(Arc::clone(&self.pool));
        let lease = self.lease_policy();
        let scheduled: Vec<ScheduledJob<'_, Result<Report, ClaptonError>>> = jobs
            .iter()
            .zip(&dirs)
            .map(|(job, dir)| {
                let lease = &lease;
                let cache = self.cache.as_ref();
                let ground_energies = &self.ground_energies;
                ScheduledJob::new(job.name.clone(), move |ctx: &JobContext| {
                    execute(job, ctx, dir.as_ref(), lease, cache, ground_energies)
                })
            })
            .collect();
        Ok(scheduler.run_all(scheduled, events))
    }

    /// A round budget only makes sense when there is somewhere to persist
    /// the checkpoint: without an artifact root, a suspended search would be
    /// dropped and every resubmission would restart from round 0 — an
    /// infinite suspend loop, not a resume.
    fn check_budget_checkpointable(&self, job: &ResolvedJob) -> Result<(), ClaptonError> {
        if job.budget.is_some() && self.artifacts.is_none() {
            return Err(SpecError::InvalidField {
                field: "budget".to_string(),
                reason: "a round budget needs an artifact root to checkpoint into; attach one \
                         with ClaptonService::with_artifacts"
                    .to_string(),
            }
            .into());
        }
        Ok(())
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
                dir.write_manifest(&RunManifest {
                    jobs: vec![job.name.clone()],
                    seed: job.config.seed,
                    profile: format!("service-v{}", job.spec.version),
                })?;
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

/// What a job's persisted artifacts say about it (see
/// [`ClaptonService::inspect`]).
#[derive(Debug)]
pub enum JobArtifactState {
    /// No artifacts yet (or no artifact root): the job has all its work
    /// ahead of it.
    Fresh,
    /// A round checkpoint exists but no terminal artifact: the job was
    /// interrupted mid-run and will resume from the checkpoint.
    InFlight,
    /// The job completed; the persisted report.
    Done(Box<Report>),
    /// The job was cancelled after `rounds` rounds (terminal).
    Cancelled {
        /// GA rounds completed before cancellation.
        rounds: usize,
    },
    /// A front end recorded a terminal failure (see
    /// [`ClaptonService::mark_failed`]).
    Failed {
        /// The recorded failure detail.
        detail: String,
    },
}

/// Renders a captured panic payload as text for [`ClaptonError::JobAborted`].
fn panic_text(payload: Option<Box<dyn std::any::Any + Send>>) -> String {
    let Some(payload) = payload else {
        return "job thread died without a panic payload".to_string();
    };
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "job thread panicked (non-string payload)".to_string())
}

/// A submitted background job: stream its events, then wait for the report.
#[derive(Debug)]
pub struct JobHandle {
    name: String,
    events: Receiver<RunEvent>,
    result: Receiver<Result<Report, ClaptonError>>,
    cancel: CancelToken,
    thread: JoinHandle<()>,
}

impl JobHandle {
    /// The job's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The live event stream (disconnects when the job finishes).
    pub fn events(&self) -> &Receiver<RunEvent> {
        &self.events
    }

    /// Requests cooperative cancellation: the job stops at its next round
    /// boundary, persists a terminal `cancelled` state (with an artifact
    /// root), and [`JobHandle::wait`] returns [`ClaptonError::Cancelled`].
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks until the job finishes and returns its report.
    ///
    /// # Errors
    ///
    /// Whatever the job failed with — including [`ClaptonError::Suspended`]
    /// when a round budget halted it, [`ClaptonError::Cancelled`] after
    /// [`JobHandle::cancel`], and [`ClaptonError::JobAborted`] when the job
    /// body died (panicked) before producing a result.
    pub fn wait(self) -> Result<Report, ClaptonError> {
        let died = |detail: String| ClaptonError::JobAborted {
            job: self.name.clone(),
            detail,
        };
        match self.thread.join() {
            Ok(()) => {}
            Err(panic) => return Err(died(panic_text(Some(panic)))),
        }
        match self.result.recv() {
            Ok(result) => result,
            Err(_) => Err(died(
                "job thread exited without sending a result".to_string(),
            )),
        }
    }
}

/// Runs one resolved job on the scheduler-provided context — the shared
/// execution body behind [`ClaptonService::run`], [`ClaptonService::submit`]
/// and the spec-driven suite runner.
///
/// Replicates the legacy `Pipeline::run` evaluation order exactly (every
/// search is deterministic given its seed, so a spec-driven run is
/// bit-identical to the builder path it replaced).
pub(crate) fn execute(
    job: &ResolvedJob,
    ctx: &JobContext,
    dir: Option<&RunDirectory>,
    lease: &LeasePolicy,
    cache: Option<&Arc<CacheStore>>,
    ground_energies: &GroundEnergies,
) -> Result<Report, ClaptonError> {
    // The job directory is the unit of ownership in the shared work queue:
    // claim it before reading or writing anything inside, so concurrent
    // services (other processes, other hosts) on one registry can never
    // interleave artifact writes. Single-process behavior is unchanged —
    // the claim is always uncontended there.
    let keeper = match dir {
        Some(dir) => match clapton_runtime::acquire(dir.path(), &lease.owner, lease.ttl)? {
            ClaimOutcome::Acquired(held) => Some(LeaseKeeper::spawn(held, lease.ttl / 4)),
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
        },
        None => None,
    };
    let trace = clapton_telemetry::Trace::begin();
    let result = {
        let _trace_ctx = clapton_telemetry::push_context(trace.context());
        let _job_span = clapton_telemetry::span("job");
        execute_inner(job, ctx, dir, keeper.as_ref(), cache, ground_energies)
    };
    let records = trace.finish();
    if let Some(dir) = dir {
        // Persist the span log beside the job's other artifacts so the
        // trace survives the process (and the server's trace endpoint reads
        // the same tree). A resubmission answered from the persisted report
        // yields only the root span — keep the original run's trace then.
        // Telemetry persistence must never fail a finished job.
        if !records.is_empty() && (records.len() > 1 || !dir.exists(TELEMETRY_ARTIFACT)) {
            let _ = dir.write_text(TELEMETRY_ARTIFACT, &clapton_telemetry::to_jsonl(&records));
        }
    }
    if let Some(keeper) = keeper {
        let _ = keeper.release();
    }
    result
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

/// The actual job body behind [`execute`], which wraps it in a telemetry
/// trace and persists the span log.
fn execute_inner(
    job: &ResolvedJob,
    ctx: &JobContext,
    dir: Option<&RunDirectory>,
    keeper: Option<&LeaseKeeper>,
    cache: Option<&Arc<CacheStore>>,
    ground_energies: &GroundEnergies,
) -> Result<Report, ClaptonError> {
    if let Some(dir) = dir {
        // A corrupt report is quarantined and the job falls through to the
        // resume path below: completion rotated the final checkpoint into
        // the `prev` slot, so replaying from it reproduces the report
        // bit-identically.
        if let Artifact::Valid(report) = dir.load::<Report>(REPORT_ARTIFACT)? {
            ctx.emit(EventKind::Finished(
                "already complete (answered from persisted report)".to_string(),
            ));
            return Ok(report);
        }
        // Cancellation is terminal and sticky: a resubmission of a cancelled
        // spec reports the cancellation instead of silently restarting the
        // search (remove the run directory to truly start over).
        if let Artifact::Valid(state) = dir.load::<TerminalState>(STATE_ARTIFACT)? {
            if state.state == "cancelled" {
                ctx.emit(EventKind::Cancelled(state.rounds));
                return Err(ClaptonError::Cancelled {
                    rounds: state.rounds,
                });
            }
        }
    }
    // The report tier of the persistent store: a spec already solved — by
    // this process or any earlier one sharing the store — answers without
    // running anything. Persisting the report into the job's directory
    // keeps artifacts consistent with a computed run.
    if let Some(cache) = cache {
        if let Some(report) = cache.get_json::<Report>(report_namespace(), &report_key(job)) {
            if let Some(dir) = dir {
                dir.write_json(REPORT_ARTIFACT, &report)?;
            }
            ctx.emit(EventKind::Finished(
                "already solved (answered from persistent cache)".to_string(),
            ));
            return Ok(report);
        }
    }
    let h = &job.hamiltonian;
    let exec = &job.exec;
    let config = &job.config;
    let e0 = {
        let _span = clapton_telemetry::span("e0");
        ground_energies.ground_energy(h)
    };
    let cafqa = job.runs(&MethodSpec::Cafqa).then(|| {
        let _span = clapton_telemetry::span("cafqa");
        run_cafqa(h, exec, &config.engine, config.seed, ctx.pool())
    });
    let ncafqa = job.runs(&MethodSpec::Ncafqa).then(|| {
        let _span = clapton_telemetry::span("ncafqa");
        run_ncafqa(
            h,
            exec,
            &config.engine,
            config.evaluator,
            config.seed,
            ctx.pool(),
        )
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
        // The loss tier of the persistent store: memo misses inside the GA
        // consult it before computing, and computed losses are written back
        // — so even a *partially* overlapping search (different seed or
        // engine effort over the same objective) answers from disk.
        let store = cache.map(|c| Arc::clone(c) as Arc<dyn LossStore>);
        let (state, result) = run_clapton_resumable(
            h,
            exec,
            config,
            ctx.pool(),
            store,
            resume,
            &mut |state, delta| {
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
                    ctx.emit(EventKind::Checkpointed(state.rounds()));
                }
                round_started = clapton_telemetry::mono_ns();
                if let Some(best) = &state.global_best {
                    ctx.emit(EventKind::Round(state.rounds(), best.loss));
                }
                // The cooperative interruption point: the round's checkpoint
                // is already durable, so stopping here either suspends
                // resumably or cancels terminally — never mid-round.
                match ctx.interrupt() {
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
            },
        );
        if let Some(e) = checkpoint_error {
            return Err(e.into());
        }
        match result {
            Some(clapton) => Some(clapton),
            None if cancelled => {
                ctx.emit(EventKind::Cancelled(state.rounds()));
                return Err(ClaptonError::Cancelled {
                    rounds: state.rounds(),
                });
            }
            None => {
                ctx.emit(EventKind::Suspended(state.rounds()));
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
    if let Some(cache) = cache {
        // Terminal reports enter the store, and everything buffered (this
        // report plus the job's computed losses) goes durable in one flush.
        cache.put_json(report_namespace(), &report_key(job), &report);
        cache.flush().map_err(ClaptonError::from)?;
    }
    ctx.emit(EventKind::Finished(match &report.clapton {
        Some(c) => format!("clapton loss {:.6} in {} rounds", c.loss, c.rounds),
        None => "complete".to_string(),
    }));
    Ok(report)
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
        let via_submit = svc.submit(ising4(8)).unwrap().wait().unwrap();
        let admitted = svc.admit(ising4(9)).unwrap();
        let via_admitted = svc
            .execute_admitted(&admitted, None, CancelToken::new())
            .unwrap();
        assert_eq!(
            (svc.ground_energies.solves(), svc.ground_energies.len()),
            (1, 1),
            "repeat jobs run no Lanczos"
        );
        for (seed, report) in [(7, via_run), (8, via_submit), (9, via_admitted)] {
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
    fn report_namespace_is_pinned() {
        // Literal value: reports stored by earlier builds must keep
        // answering.
        assert_eq!(report_namespace(), 17657249915177827693);
    }
}
