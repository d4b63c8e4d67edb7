//! Suite runs: one queue directory, executed in one process or sharded
//! across many.
//!
//! A *suite run* is a run directory holding a `queue.json` spec list
//! ([`write_queue`]) plus one artifact subdirectory per job, each written
//! by the [`ClaptonService`] job body. One process can execute the whole
//! queue with `ClaptonService::run_all`; or any number of worker processes
//! (the children of `suite-runner --workers N`, or external processes
//! attaching with `--join <dir>`, possibly on other hosts over a shared
//! filesystem) repeatedly sweep it with [`run_shard_worker`], claiming
//! unfinished jobs through the lease protocol (`claim.json`, see
//! `clapton_runtime::acquire`). A worker SIGKILLed mid-job leaves a
//! staling lease; a surviving worker takes the job over and resumes it from
//! its last round checkpoint bit-identically.
//!
//! When the queue drains, [`merge_shards`] folds the per-job artifacts into
//! one `suite_manifest.json` ordered by job id — byte-stable regardless of
//! whether one process or many ran the jobs, which worker ran what, or how
//! often workers died.

use clapton_error::ClaptonError;
use clapton_runtime::{
    publish_queue_depth, Artifact, CancelToken, RunDirectory, RunEvent, WorkerPool,
};
use clapton_service::{
    AdmittedJob, CacheStore, ClaptonService, JobArtifactState, JobSpec, Report, SPEC_ARTIFACT,
};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::path::Path;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Duration;

/// The spec list of a suite run, written through [`write_queue`] by
/// `suite-runner` before any job runs. A spec list of your own is recorded
/// with `suite-runner --specs FILE`: like every artifact, the queue carries
/// the envelope, so a `queue.json` written by hand reads as corrupt.
pub const QUEUE_ARTIFACT: &str = "queue.json";

/// The deterministic merged suite manifest (see [`merge_shards`]).
pub const MERGED_MANIFEST_ARTIFACT: &str = "suite_manifest.json";

/// Records `specs` as the run's `queue.json` spec list (atomic,
/// idempotent). A run directory holds one suite: an existing queue must
/// list the same specs, round budgets aside, so a run created with another
/// seed, register size, effort level or spec file is refused rather than
/// mixed. A corrupt queue is quarantined and rewritten; without an intact
/// queue the list must still name every job the directory holds (each job
/// directory's `spec.json`), so a run that lost its queue is not refilled
/// with another suite.
///
/// # Errors
///
/// [`ClaptonError::Conflict`] when the directory already queues, or holds
/// a job of, a different spec list, [`ClaptonError::Io`] when it cannot be
/// written.
pub fn write_queue(root: &Path, specs: &[JobSpec]) -> Result<(), ClaptonError> {
    let dir = RunDirectory::create(root)?;
    let identity = |specs: &[JobSpec]| specs.iter().map(JobSpec::identity).collect::<Vec<_>>();
    let identities = identity(specs);
    let conflict = || ClaptonError::Conflict {
        run: root.display().to_string(),
    };
    match dir.load::<Vec<JobSpec>>(QUEUE_ARTIFACT)? {
        Artifact::Valid(queued) => {
            if identity(&queued) != identities {
                return Err(conflict());
            }
        }
        Artifact::Missing | Artifact::Corrupt { .. } => {
            for entry in std::fs::read_dir(root)? {
                let path = entry?.path();
                if !path.is_dir() {
                    continue;
                }
                let job = RunDirectory::create(path)?;
                if let Artifact::Valid(spec) = job.load::<JobSpec>(SPEC_ARTIFACT)? {
                    if !identities.contains(&spec.identity()) {
                        return Err(conflict());
                    }
                }
            }
        }
    }
    dir.write_json(QUEUE_ARTIFACT, specs)?;
    Ok(())
}

/// Reads the suite run's `queue.json` spec list.
///
/// # Errors
///
/// [`ClaptonError::Parse`] when the file is missing,
/// [`ClaptonError::CorruptArtifact`] when it exists but fails integrity
/// verification, a hand-written file without the envelope included (the
/// bytes are quarantined; rewrite the queue with [`write_queue`] to
/// recover — per-job artifacts are untouched), and
/// [`ClaptonError::Io`] for real I/O failures.
pub fn read_queue(root: &Path) -> Result<Vec<JobSpec>, ClaptonError> {
    let dir = RunDirectory::create(root)?;
    match dir.load::<Vec<JobSpec>>(QUEUE_ARTIFACT)? {
        Artifact::Valid(specs) => Ok(specs),
        Artifact::Missing => Err(ClaptonError::Parse {
            what: format!("{}/{QUEUE_ARTIFACT}", root.display()),
            detail: "no queue.json — this directory is not a suite run (suite-runner \
                     records one; `--specs FILE` records a spec list of your own)"
                .to_string(),
        }),
        Artifact::Corrupt { quarantined_to, .. } => Err(ClaptonError::CorruptArtifact {
            artifact: format!("{}/{QUEUE_ARTIFACT}", root.display()),
            quarantined_to,
        }),
    }
}

/// How one shard worker behaves (see [`run_shard_worker`]).
#[derive(Debug, Clone)]
pub struct ShardWorkerConfig {
    /// Worker identity claims are made under (`None` → the per-process
    /// default).
    pub worker_id: Option<String>,
    /// Lease TTL: how stale a peer's heartbeat must be before this worker
    /// takes its job over.
    pub lease_ttl: Duration,
    /// How long to sleep between sweeps when every unfinished job is leased
    /// by a live peer.
    pub poll: Duration,
    /// Per-job round budget for this invocation (`--halt-after-rounds`);
    /// suspended jobs are not re-entered within the same invocation.
    pub halt_after_rounds: Option<u64>,
    /// Persistent content-addressed result store this worker answers repeat
    /// work from (and writes back to). `None` keeps the cold path — the
    /// default, so chaos and determinism suites pin cold-path behavior
    /// unless a caller opts in.
    pub cache: Option<Arc<CacheStore>>,
}

impl Default for ShardWorkerConfig {
    fn default() -> ShardWorkerConfig {
        ShardWorkerConfig {
            worker_id: None,
            lease_ttl: clapton_runtime::DEFAULT_LEASE_TTL,
            poll: Duration::from_millis(100),
            halt_after_rounds: None,
            cache: None,
        }
    }
}

/// What one job looked like when [`run_shard_worker`] returned.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardJobOutcome {
    /// Job id (artifact-directory name).
    pub job: String,
    /// Display name.
    pub name: String,
    /// Terminal state: `"done"`, `"cancelled"`, `"failed"`, or
    /// `"suspended"` (budget-halted this invocation).
    pub state: String,
}

/// Summary of one worker invocation over the queue.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// Per-job outcomes, ordered by job id.
    pub jobs: Vec<ShardJobOutcome>,
}

impl ShardOutcome {
    /// Jobs with a final report.
    pub fn completed(&self) -> usize {
        self.jobs.iter().filter(|j| j.state == "done").count()
    }

    /// Whether every job ended with a report.
    pub fn is_complete(&self) -> bool {
        self.completed() == self.jobs.len()
    }
}

/// Sweeps the shard queue at `root` until every job is terminal (or
/// budget-suspended), claiming unfinished jobs through the lease protocol
/// and executing them on `pool`.
///
/// Jobs `ClaptonService::inspect` finds settled (a store-answered one
/// included) are skipped without a claim, and so are jobs leased by a live
/// peer; jobs whose lease went stale are taken over and resumed from their
/// checkpoints. The worker exits when a full sweep finds nothing left to
/// do.
///
/// # Errors
///
/// The first invalid spec, an artifact conflict, or artifact I/O failure.
/// Per-job *execution* failures do not abort the sweep: the service retries
/// them on later sweeps or records them `failed`
/// (`ClaptonService::settle_failure`), and the outcome reports them.
pub fn run_shard_worker(
    root: &Path,
    pool: Arc<WorkerPool>,
    events: Option<Sender<RunEvent>>,
    config: &ShardWorkerConfig,
) -> Result<ShardOutcome, ClaptonError> {
    let mut specs = read_queue(root)?;
    if let Some(budget) = config.halt_after_rounds {
        for spec in &mut specs {
            spec.budget = Some(budget);
        }
    }
    let mut service = ClaptonService::with_pool(pool)
        .with_artifacts(root)?
        .with_lease_ttl(config.lease_ttl);
    if let Some(worker_id) = &config.worker_id {
        service = service.with_worker_id(worker_id.clone());
    }
    if let Some(cache) = &config.cache {
        service = service.with_cache(Arc::clone(cache));
    }
    let mut suspended_here: HashSet<String> = HashSet::new();
    loop {
        let mut pending = 0usize;
        let mut open = 0usize;
        let mut progressed = false;
        for spec in &specs {
            let admitted = service.admit(spec.clone())?;
            match service.inspect(&admitted)? {
                JobArtifactState::Done(_)
                | JobArtifactState::Cancelled { .. }
                | JobArtifactState::Failed { .. } => continue,
                JobArtifactState::Fresh | JobArtifactState::InFlight => {}
            }
            open += 1;
            let name = admitted.job().name.clone();
            if suspended_here.contains(&name) {
                continue;
            }
            pending += 1;
            if service.leased_by_peer(&admitted)?.is_some() {
                continue; // a live peer is on it
            }
            match service.execute_admitted(&admitted, events.clone(), CancelToken::new()) {
                Ok(_) => progressed = true,
                Err(ClaptonError::Suspended { .. }) => {
                    suspended_here.insert(name);
                    progressed = true;
                }
                Err(ClaptonError::Cancelled { .. }) => progressed = true,
                // Lost the claim race to a peer between the peer-lease check
                // and acquisition — their job now.
                Err(ClaptonError::Leased { .. }) => {}
                // Retried on the next sweep, from the job's last valid
                // checkpoint, until the service records it failed.
                Err(e) => {
                    service.settle_failure(&admitted, &e)?;
                    progressed = true;
                }
            }
        }
        publish_queue_depth(open);
        if pending == 0 {
            break;
        }
        if !progressed {
            std::thread::sleep(config.poll);
        }
    }
    let jobs = job_states(&service, &specs)?
        .into_iter()
        .map(|(job, admitted, state)| ShardJobOutcome {
            job,
            name: admitted.job().name.clone(),
            state: match state {
                JobArtifactState::Done(_) => "done",
                JobArtifactState::Cancelled { .. } => "cancelled",
                JobArtifactState::Failed { .. } => "failed",
                JobArtifactState::Fresh | JobArtifactState::InFlight => "suspended",
            }
            .to_string(),
        })
        .collect();
    Ok(ShardOutcome { jobs })
}

/// Admits every spec and reads its artifact state, ordered by job id (the
/// artifact-directory name) like everything queue-shaped.
fn job_states(
    service: &ClaptonService,
    specs: &[JobSpec],
) -> Result<Vec<(String, AdmittedJob, JobArtifactState)>, ClaptonError> {
    let mut jobs = Vec::with_capacity(specs.len());
    for spec in specs {
        let admitted = service.admit(spec.clone())?;
        let state = service.inspect(&admitted)?;
        let job = admitted
            .artifact_dir()
            .and_then(|p| p.file_name())
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| admitted.job().name.clone());
        jobs.push((job, admitted, state));
    }
    jobs.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(jobs)
}

/// One entry of the merged suite manifest: only deterministic fields — the
/// job id, its identity, its terminal state, and its report — never
/// wall-clock, worker identity, or completion order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MergedJob {
    /// Job id (artifact-directory name) — the manifest's sort key.
    pub job: String,
    /// Display name.
    pub name: String,
    /// The job's seed.
    pub seed: u64,
    /// `"done"`, `"cancelled"`, `"failed"`, or `"pending"`.
    pub state: String,
    /// The persisted report, for `"done"` jobs.
    pub report: Option<Report>,
}

/// The deterministic merged result of a suite run (`suite_manifest.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MergedManifest {
    /// Per-job entries, ordered by job id.
    pub jobs: Vec<MergedJob>,
}

impl MergedManifest {
    /// Jobs with a final report.
    pub fn completed(&self) -> usize {
        self.jobs.iter().filter(|j| j.state == "done").count()
    }

    /// Whether every job ended with a report.
    pub fn is_complete(&self) -> bool {
        self.completed() == self.jobs.len()
    }
}

/// Folds a suite run's per-job artifacts into one `suite_manifest.json`.
///
/// The manifest is ordered by job id and contains only deterministic
/// fields, so it is byte-stable: any worker count, any interleaving, any
/// number of mid-run kills — the same bytes, as long as the jobs reached
/// the same terminal states.
///
/// # Errors
///
/// The first invalid spec, or artifact I/O failure.
pub fn merge_shards(root: &Path, specs: &[JobSpec]) -> Result<MergedManifest, ClaptonError> {
    // Inspection only: a zero-worker pool never spins threads.
    let service =
        ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(0))).with_artifacts(root)?;
    let mut jobs = Vec::with_capacity(specs.len());
    for (job, admitted, state) in job_states(&service, specs)? {
        let (state, report) = match state {
            JobArtifactState::Done(report) => ("done", Some(*report)),
            JobArtifactState::Cancelled { .. } => ("cancelled", None),
            JobArtifactState::Failed { .. } => ("failed", None),
            JobArtifactState::Fresh | JobArtifactState::InFlight => ("pending", None),
        };
        jobs.push(MergedJob {
            job,
            name: admitted.job().name.clone(),
            seed: admitted.job().config.seed,
            state: state.to_string(),
            report,
        });
    }
    let manifest = MergedManifest { jobs };
    RunDirectory::create(root)?.write_json(MERGED_MANIFEST_ARTIFACT, &manifest)?;
    Ok(manifest)
}

/// One row of the operator-facing `--status` table: terminal/artifact state
/// plus live lease state.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStatusRow {
    /// Job id (artifact-directory name).
    pub job: String,
    /// Display name.
    pub name: String,
    /// `"done"`, `"cancelled"`, `"failed"`, `"in-flight"`, or `"fresh"`.
    pub state: String,
    /// Worker currently leasing the job, if any.
    pub owner: Option<String>,
    /// Milliseconds since the lease holder's last heartbeat.
    pub heartbeat_age_ms: Option<u64>,
    /// Whether that heartbeat is older than the lease TTL.
    pub stale: bool,
    /// GA rounds banked in the job's checkpoint (or final report).
    pub rounds: Option<usize>,
    /// Memo-answered fitness requests so far (checkpoint while running,
    /// final report once done).
    pub cache_hits: Option<u64>,
}

/// Snapshots per-job lease state for `suite-runner --status`, ordered by
/// job id.
///
/// # Errors
///
/// The first invalid spec, or artifact I/O failure.
pub fn shard_status(
    root: &Path,
    specs: &[JobSpec],
    lease_ttl: Duration,
) -> Result<Vec<ShardStatusRow>, ClaptonError> {
    let service = ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(0)))
        .with_artifacts(root)?
        .with_lease_ttl(lease_ttl);
    let mut rows = Vec::with_capacity(specs.len());
    for (job, admitted, state) in job_states(&service, specs)? {
        let state = match state {
            JobArtifactState::Done(_) => "done",
            JobArtifactState::Cancelled { .. } => "cancelled",
            JobArtifactState::Failed { .. } => "failed",
            JobArtifactState::InFlight => "in-flight",
            JobArtifactState::Fresh => "fresh",
        };
        let lease = service.lease_view(&admitted)?;
        rows.push(ShardStatusRow {
            job,
            name: admitted.job().name.clone(),
            state: state.to_string(),
            owner: lease.owner,
            heartbeat_age_ms: lease.heartbeat_age_ms,
            stale: lease.stale.unwrap_or(false),
            rounds: lease.rounds,
            cache_hits: lease.cache_hits,
        });
    }
    Ok(rows)
}
