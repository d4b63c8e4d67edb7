//! The typed error hierarchy of the Clapton stack: the one vocabulary every
//! layer reports failures in.
//!
//! * [`SpecError`] — a job *specification* is invalid (unknown registry
//!   name, qubit mismatch, out-of-range probability, …). Produced by
//!   `JobSpec::validate` and every registry lookup; always user-fixable by
//!   editing the spec.
//! * [`ClaptonError`] — anything that can go wrong *running* a job: an
//!   invalid spec (wrapping [`SpecError`]), malformed serialized input,
//!   ansatz placement failures, artifact I/O, or a job suspended on its
//!   round budget.
//!
//! Both implement [`std::error::Error`], so they compose with `?`, `Box<dyn
//! Error>`, and `anyhow`-style consumers without string plumbing.
//!
//! The crate sits at the bottom of the dependency graph (no dependencies),
//! so device, core, and service layers can all speak it.

use std::fmt;
use std::io;

/// Why a job specification was rejected before any work started.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec's `version` is newer than this build understands.
    UnsupportedVersion {
        /// The version the spec declared.
        version: u32,
        /// The newest version this build supports.
        supported: u32,
    },
    /// A problem name that no registry entry matches.
    UnknownProblem {
        /// The requested name.
        name: String,
        /// Every name the registry would have accepted.
        available: Vec<String>,
    },
    /// A backend name that no registry entry matches.
    UnknownBackend {
        /// The requested name.
        name: String,
        /// Every name the registry would have accepted.
        available: Vec<String>,
    },
    /// The problem does not fit on the requested backend.
    QubitMismatch {
        /// What was being placed (problem / calibration / noise vector).
        context: String,
        /// Qubits the problem needs.
        needed: usize,
        /// Qubits the target provides.
        provided: usize,
    },
    /// A rate that must be a probability lies outside `[0, 1]`.
    InvalidProbability {
        /// Which field carried the value (e.g. `"noise.p2"`).
        context: String,
        /// The offending value.
        value: f64,
    },
    /// A sampled evaluator with a zero shot budget (the estimate would be
    /// undefined).
    ZeroShots,
    /// Any other structurally invalid field.
    InvalidField {
        /// Dotted path of the field (e.g. `"methods"`).
        field: String,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnsupportedVersion { version, supported } => write!(
                f,
                "spec version {version} is newer than the supported version {supported}"
            ),
            SpecError::UnknownProblem { name, available } => write!(
                f,
                "unknown problem {name:?} (available: {})",
                available.join(", ")
            ),
            SpecError::UnknownBackend { name, available } => write!(
                f,
                "unknown backend {name:?} (available: {})",
                available.join(", ")
            ),
            SpecError::QubitMismatch {
                context,
                needed,
                provided,
            } => write!(
                f,
                "{context}: needs {needed} qubits but the target provides {provided}"
            ),
            SpecError::InvalidProbability { context, value } => {
                write!(f, "{context} = {value} is not a probability in [0, 1]")
            }
            SpecError::ZeroShots => write!(f, "sampled evaluator needs a non-zero shot budget"),
            SpecError::InvalidField { field, reason } => write!(f, "invalid {field}: {reason}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Anything that can go wrong submitting or running a Clapton job.
#[derive(Debug)]
pub enum ClaptonError {
    /// The job specification failed validation.
    Spec(SpecError),
    /// Serialized input (a spec file, a backend snapshot, a checkpoint) did
    /// not parse.
    Parse {
        /// What was being parsed.
        what: String,
        /// The underlying parse failure.
        detail: String,
    },
    /// The ansatz could not be placed on the device topology.
    Placement {
        /// The underlying layout/routing failure.
        detail: String,
    },
    /// Artifact or spec-file I/O failed.
    Io(io::Error),
    /// The job suspended on its round budget (or a drain request) before
    /// converging; resubmit the same spec (with the same artifact directory)
    /// to continue from the persisted checkpoint.
    Suspended {
        /// GA rounds completed so far.
        rounds: usize,
    },
    /// The job was cooperatively cancelled at a round boundary; the
    /// `cancelled` state is terminal and persisted beside the artifacts.
    Cancelled {
        /// GA rounds completed before the cancellation took effect.
        rounds: usize,
    },
    /// The job body panicked before producing a result.
    /// `ClaptonService::execute_admitted` catches the panic and returns
    /// this, so one dying job never takes down its caller or the other jobs
    /// of a `run_all` batch.
    JobAborted {
        /// Name of the job that died.
        job: String,
        /// Whatever is known about why (panic payload text when available).
        detail: String,
    },
    /// A submission names an artifact directory (job name + seed) already
    /// owned by a *different* spec — accepting it would mix checkpoints and
    /// reports of two distinct jobs.
    Conflict {
        /// The contested run directory.
        run: String,
    },
    /// An artifact file failed integrity verification (torn write, bit
    /// rot) and was quarantined — renamed to `<name>.corrupt-<ts>` so the
    /// slot can be rewritten. Recovery normally falls back to the previous
    /// round checkpoint; this error surfaces only when no fallback exists.
    CorruptArtifact {
        /// Name of the artifact that failed verification.
        artifact: String,
        /// File name the corrupt bytes were quarantined under.
        quarantined_to: String,
    },
    /// The job's artifact directory is leased by another live worker (a
    /// peer process sharing the run registry); retry after its lease is
    /// released or expires.
    Leased {
        /// The leased run directory.
        run: String,
        /// The worker currently holding the lease.
        owner: String,
        /// Milliseconds since the holder's last heartbeat.
        heartbeat_age_ms: u64,
    },
}

impl fmt::Display for ClaptonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClaptonError::Spec(e) => write!(f, "invalid job spec: {e}"),
            ClaptonError::Parse { what, detail } => write!(f, "malformed {what}: {detail}"),
            ClaptonError::Placement { detail } => write!(f, "ansatz placement failed: {detail}"),
            ClaptonError::Io(e) => write!(f, "artifact I/O failed: {e}"),
            ClaptonError::Suspended { rounds } => write!(
                f,
                "job suspended after {rounds} rounds (budget exhausted); \
                 resubmit to resume from the checkpoint"
            ),
            ClaptonError::Cancelled { rounds } => {
                write!(f, "job cancelled after {rounds} rounds")
            }
            ClaptonError::JobAborted { job, detail } => {
                write!(f, "job {job:?} aborted before producing a result: {detail}")
            }
            ClaptonError::Conflict { run } => write!(
                f,
                "run directory {run} was created from a different spec; refusing to mix \
                 artifacts (submit under a different name or seed)"
            ),
            ClaptonError::CorruptArtifact {
                artifact,
                quarantined_to,
            } => write!(
                f,
                "artifact {artifact} failed integrity verification and was \
                 quarantined as {quarantined_to}; no valid fallback was available"
            ),
            ClaptonError::Leased {
                run,
                owner,
                heartbeat_age_ms,
            } => write!(
                f,
                "run directory {run} is leased by live worker {owner:?} \
                 (last heartbeat {heartbeat_age_ms} ms ago); retry later"
            ),
        }
    }
}

impl std::error::Error for ClaptonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClaptonError::Spec(e) => Some(e),
            ClaptonError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpecError> for ClaptonError {
    fn from(e: SpecError) -> ClaptonError {
        ClaptonError::Spec(e)
    }
}

impl From<io::Error> for ClaptonError {
    fn from(e: io::Error) -> ClaptonError {
        ClaptonError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn displays_are_informative() {
        let e = SpecError::UnknownProblem {
            name: "isig(J=0.25)".to_string(),
            available: vec!["ising(J=0.25)".to_string(), "xxz(J=1.00)".to_string()],
        };
        let msg = e.to_string();
        assert!(msg.contains("isig"), "{msg}");
        assert!(msg.contains("ising(J=0.25)"), "{msg}");

        let e = SpecError::InvalidProbability {
            context: "noise.p2".to_string(),
            value: 1.5,
        };
        assert!(e.to_string().contains("noise.p2 = 1.5"));
    }

    #[test]
    fn clapton_error_wraps_and_sources() {
        let spec = SpecError::ZeroShots;
        let e: ClaptonError = spec.clone().into();
        assert!(matches!(&e, ClaptonError::Spec(s) if *s == spec));
        assert!(e.source().is_some());
        let io: ClaptonError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(io.source().is_some());
        assert!(io.to_string().contains("gone"));
    }

    #[test]
    fn errors_are_boxable() {
        fn takes_box(_: Box<dyn std::error::Error>) {}
        takes_box(Box::new(SpecError::ZeroShots));
        takes_box(Box::new(ClaptonError::Suspended { rounds: 3 }));
        takes_box(Box::new(ClaptonError::Cancelled { rounds: 3 }));
        takes_box(Box::new(ClaptonError::JobAborted {
            job: "ising(J=0.25)".to_string(),
            detail: "worker thread panicked".to_string(),
        }));
    }

    #[test]
    fn terminal_variants_name_the_job_state() {
        assert!(ClaptonError::Cancelled { rounds: 5 }
            .to_string()
            .contains("cancelled after 5 rounds"));
        let aborted = ClaptonError::JobAborted {
            job: "xxz(J=1.00)".to_string(),
            detail: "panic: index out of bounds".to_string(),
        };
        let msg = aborted.to_string();
        assert!(msg.contains("xxz(J=1.00)"), "{msg}");
        assert!(msg.contains("index out of bounds"), "{msg}");
        assert!(ClaptonError::Conflict {
            run: "/tmp/jobs/ising-seed7".to_string(),
        }
        .to_string()
        .contains("different spec"));
        let leased = ClaptonError::Leased {
            run: "/tmp/jobs/ising-seed7".to_string(),
            owner: "w1234-abcd".to_string(),
            heartbeat_age_ms: 250,
        };
        let msg = leased.to_string();
        assert!(msg.contains("w1234-abcd"), "{msg}");
        assert!(msg.contains("250 ms"), "{msg}");
        let corrupt = ClaptonError::CorruptArtifact {
            artifact: "queue.json".to_string(),
            quarantined_to: "queue.json.corrupt-1720000000000".to_string(),
        };
        let msg = corrupt.to_string();
        assert!(msg.contains("queue.json"), "{msg}");
        assert!(msg.contains("quarantined"), "{msg}");
    }
}
