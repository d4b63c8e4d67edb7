//! The declarative front door of the Clapton stack: [`JobSpec`] +
//! [`ClaptonService`].
//!
//! Following the declarative tradition of answer-set front ends (a
//! serializable problem statement, fully decoupled from the solver), this
//! crate makes one validated, serde-round-trippable request type the API
//! every caller states its job in:
//!
//! * [`JobSpec`] — problem (registry name or explicit terms), backend
//!   (registry name or logical), noise, methods, engine effort, evaluator,
//!   seed, and budget. Versioned; unknown JSON fields are ignored.
//! * [`JobSpec::validate`] — the single gate turning a spec into a
//!   [`ResolvedJob`], replacing scattered panics with typed
//!   [`SpecError`]s.
//! * [`ClaptonService`] — `admit(JobSpec)` then `execute_admitted` on the
//!   shared [`WorkerPool`](clapton_runtime::WorkerPool) (`run` and
//!   `run_all` are both), with streamed
//!   [`RunEvent`](clapton_runtime::RunEvent)s, per-job run directories (the
//!   spec persisted beside the artifacts, checkpoints every round), and a
//!   unified serializable [`Report`].
//!
//! A spec JSON as small as
//!
//! ```json
//! {"problem": {"Suite": {"name": "ising(J=0.50)", "qubits": 10}}, "seed": 7}
//! ```
//!
//! is a complete job; everything else defaults. The figure binaries,
//! `suite-runner` and `clapton-server` all submit this type.

mod ground;
mod report;
mod service;
mod spec;

pub use clapton_cache::{CacheConfig, CacheStore, CacheStoreStats, CACHE_DIR_NAME};
pub use clapton_error::{ClaptonError, SpecError};
pub use report::Report;
pub use service::{
    AdmittedJob, ClaptonService, FailedAttempt, JobArtifactState, JobLeaseView, TerminalState,
    SPEC_ARTIFACT, TELEMETRY_ARTIFACT,
};
pub use spec::{
    BackendSpec, EngineSpec, ExplicitNoise, JobSpec, MethodSpec, NamedBackend, NoiseSpec,
    ProblemSpec, ResolvedJob, SuiteProblem, TermsProblem, UniformNoise, VqeRefineSpec,
    SPEC_VERSION,
};
