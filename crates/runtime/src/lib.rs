//! The Clapton runtime: a persistent worker pool with checkpoint/resume.
//!
//! The GA engine's wall-clock is dominated by loss evaluation, and a
//! production deployment runs *many* searches at once (the paper's Figure 5
//! suite alone is 12 instances). This crate provides the shared execution
//! substrate those workloads run on:
//!
//! * [`WorkerPool`] — a persistent work-stealing thread pool. Scoped tasks
//!   may borrow from the caller's stack; scope owners drain their own queue
//!   while waiting, so nested fan-out (suite → job → GA round → population
//!   batch) shares one set of threads without deadlock or oversubscription.
//! * [`PooledEvaluator`] — population-batch evaluation on the shared pool:
//!   the GA engine's one batch executor, so every search (Clapton, CAFQA,
//!   nCAFQA) runs on the caller's pool.
//! * [`RunEvent`] / [`CancelToken`] — the progress a job streams while it
//!   runs, and the cooperative interruption it polls at round boundaries.
//! * [`RunDirectory`] / [`RunRegistry`] — atomic, enveloped artifact storage
//!   (JSON documents and raw sealed payloads such as the service's per-round
//!   memo segments) for checkpoint/resume: a run killed at any instant
//!   resumes from complete round snapshots, bit-identical to an
//!   uninterrupted run.
//! * [`acquire`] / [`Lease`] / [`LeaseKeeper`] — lease files over the
//!   registry turning it into a shared, crash-tolerant work queue: many
//!   worker processes (or hosts over a shared filesystem) claim per-job
//!   artifact directories exclusively, heartbeat while working, and take
//!   over stale leases from dead peers by resuming their checkpoints.
//!
//! The crate is deliberately independent of the GA/core layers: it moves
//! closures and serializable documents, so `clapton-ga` can expose
//! checkpointable engine state and `clapton-bench`'s `suite-runner` can
//! orchestrate whole benchmark suites on top.

mod cancel;
mod checkpoint;
mod evaluator;
pub mod failpoint;
mod pool;
mod scheduler;
mod workqueue;

pub use cancel::{CancelToken, Interrupt};
pub use checkpoint::{artifact_slug, Artifact, RunDirectory, RunManifest, RunRegistry};
pub use evaluator::PooledEvaluator;
pub use pool::{PoolScope, WorkerPool};
pub use scheduler::{EventKind, RunEvent};
pub use workqueue::{
    acquire, default_worker_id, lease_state, publish_queue_depth, ClaimOutcome, Lease, LeaseClaim,
    LeaseKeeper, LeaseState, CLAIM_ARTIFACT, DEFAULT_LEASE_TTL,
};
