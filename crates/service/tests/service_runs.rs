//! End-to-end service behavior: admitted jobs with streamed events,
//! per-job artifact directories (spec + checkpoints + report + trace),
//! budget suspension, and bit-identical resume.

use clapton_error::ClaptonError;
use clapton_runtime::{CancelToken, EventKind, RunEvent, WorkerPool};
use clapton_service::{
    ClaptonService, EngineSpec, FailedAttempt, JobArtifactState, JobSpec, MethodSpec, NoiseSpec,
    ProblemSpec, Report, SuiteProblem, TermsProblem, UniformNoise, TELEMETRY_ARTIFACT,
};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("clapton-service-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(ProblemSpec::Suite(SuiteProblem {
        name: "ising(J=0.50)".to_string(),
        qubits: 4,
    }));
    spec.engine = EngineSpec::Quick;
    spec.noise = NoiseSpec::Uniform(UniformNoise {
        p1: 1e-3,
        p2: 1e-2,
        readout: 2e-2,
        t1: None,
    });
    spec.seed = seed;
    spec
}

#[test]
fn execute_admitted_streams_events_and_returns_the_report() {
    let service = ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(2)));
    let admitted = service.admit(quick_spec(7)).unwrap();
    assert_eq!(admitted.job().name, "ising(J=0.50)");
    let (tx, rx) = mpsc::channel();
    let report = service
        .execute_admitted(&admitted, Some(tx), CancelToken::new())
        .unwrap();
    let events: Vec<RunEvent> = rx.try_iter().collect();
    assert_eq!(events.first().map(|e| &e.kind), Some(&EventKind::Started));
    assert!(
        matches!(events.last().map(|e| &e.kind), Some(EventKind::Finished(_))),
        "{events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Round(..))),
        "rounds streamed"
    );
    assert!(events
        .iter()
        .all(|e| e.job == "ising(J=0.50)" && e.unix_ns > 0));
    assert!(
        events.windows(2).all(|w| w[0].mono_ns <= w[1].mono_ns),
        "monotonic stamps order in-process events"
    );
    assert_eq!(report.name, "ising(J=0.50)");
    assert!(report.cafqa.is_some() && report.clapton.is_some());
    assert!(report.ncafqa.is_none(), "not requested");
    // Clapton's initial point beats CAFQA's under noise on this model.
    let clapton = report.clapton_initial_energy.unwrap();
    let cafqa = report.cafqa_initial_energy.unwrap();
    assert!(
        clapton <= cafqa + 1e-9,
        "clapton {clapton} vs cafqa {cafqa}"
    );
    assert!(report.eta_initial.unwrap() >= 0.9);
    assert_eq!(report.best_energy(), Some(clapton.min(cafqa)));
}

#[test]
fn clapton_start_at_the_ground_energy_leaves_eta_undefined_not_a_panic() {
    // Noiseless Σ Z_i: CAFQA and Clapton both start at E0 = -3 exactly, so
    // η = 0/0. E0 must not land above those energies, and the job must
    // report no η instead of dividing rounding errors (or panicking).
    let mut spec = JobSpec::new(ProblemSpec::Terms(TermsProblem {
        qubits: 3,
        terms: ["ZII", "IZI", "IIZ"]
            .iter()
            .map(|w| (1.0, w.to_string()))
            .collect(),
    }));
    spec.methods = vec![MethodSpec::Cafqa, MethodSpec::Clapton];
    spec.engine = EngineSpec::Quick;
    let service = ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(2)));
    let report = service.run(spec).unwrap();
    assert!(report.e0 <= -3.0 + 1e-14, "e0 = {}", report.e0);
    assert_eq!(report.clapton_initial_energy, Some(-3.0));
    assert_eq!(report.eta_initial, None);
}

#[test]
fn admit_rejects_invalid_specs_synchronously() {
    let service = ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(1)));
    let mut spec = quick_spec(1);
    spec.methods = vec![];
    match service.admit(spec) {
        Err(ClaptonError::Spec(_)) => {}
        other => panic!("expected spec rejection, got {other:?}"),
    }
}

#[test]
fn budget_without_artifacts_is_rejected_not_looped() {
    // Without an artifact root there is nowhere to persist the checkpoint a
    // suspension leaves behind — resubmissions would restart from round 0
    // forever, so the combination is refused up front.
    let service = ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(1)));
    let mut spec = quick_spec(1);
    spec.budget = Some(1);
    for result in [
        service.admit(spec.clone()).map(|_| ()),
        service.run(spec).map(|_| ()),
    ] {
        match result {
            Err(ClaptonError::Spec(e)) => {
                assert!(e.to_string().contains("artifact root"), "{e}")
            }
            other => panic!("expected budget rejection, got {other:?}"),
        }
    }
}

#[test]
fn run_all_rejects_batch_duplicates_that_share_an_artifact_directory() {
    let root = scratch("dup-batch");
    let service = ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(1)))
        .with_artifacts(&root)
        .unwrap();
    let spec = quick_spec(4);
    match service.run_all(vec![spec.clone(), spec], None) {
        Err(ClaptonError::Spec(e)) => {
            assert!(e.to_string().contains("same artifact directory"), "{e}")
        }
        other => panic!("expected duplicate rejection, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn artifacts_persist_spec_and_report_and_answer_resubmissions() {
    let root = scratch("artifacts");
    let pool = Arc::new(WorkerPool::with_workers(2));
    let service = ClaptonService::with_pool(Arc::clone(&pool))
        .with_artifacts(&root)
        .unwrap();
    let spec = quick_spec(11);
    let report = service.run(spec.clone()).unwrap();
    let dir = root.join("ising-J-0.50-seed11");
    assert!(dir.join("spec.json").is_file(), "spec persisted");
    assert!(
        !dir.join("manifest.json").exists(),
        "admission writes only spec.json"
    );
    assert!(dir.join("report.json").is_file(), "report persisted");
    assert!(
        !dir.join("checkpoint.json").exists(),
        "checkpoint cleaned up"
    );
    // The persisted spec is the submitted spec (read back through the
    // integrity envelope every artifact is wrapped in).
    let persisted: JobSpec = clapton_runtime::RunDirectory::create(&dir)
        .unwrap()
        .load("spec.json")
        .unwrap()
        .valid()
        .unwrap();
    assert_eq!(persisted, spec);
    // Resubmitting the same spec answers from the persisted report.
    let cached = service.run(spec.clone()).unwrap();
    assert_eq!(cached, report);
    // A different spec under the same name+seed is refused, not mixed in.
    let mut conflicting = spec;
    conflicting.noise = NoiseSpec::Noiseless;
    match service.run(conflicting) {
        Err(ClaptonError::Conflict { run }) => {
            assert!(run.contains("ising-J-0.50-seed11"), "{run}")
        }
        other => panic!("expected artifact conflict, got {other:?}"),
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_rerun_after_a_recorded_failure_inspects_as_done() {
    let root = scratch("failed-rerun");
    let service = ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(1)))
        .with_artifacts(&root)
        .unwrap();
    let admitted = service.admit(quick_spec(17)).unwrap();
    let aborted = ClaptonError::JobAborted {
        job: "ising(J=0.50)".to_string(),
        detail: "the job body panicked".to_string(),
    };
    assert_eq!(
        service.settle_failure(&admitted, &aborted).unwrap(),
        FailedAttempt::Recorded
    );
    assert!(matches!(
        service.inspect(&admitted).unwrap(),
        JobArtifactState::Failed { .. }
    ));
    // A recorded failure does not stop a rerun, and the report it writes
    // outranks the stale marker.
    let report = service
        .execute_admitted(&admitted, None, CancelToken::new())
        .unwrap();
    match service.inspect(&admitted).unwrap() {
        JobArtifactState::Done(done) => assert_eq!(*done, report),
        other => panic!("expected the rerun's report, got {other:?}"),
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_paper_effort_trace_keeps_its_job_root_and_every_round() {
    // At the paper's GA settings a round evaluates about a thousand
    // population batches on the pool; the trace records phases, not
    // batches, so it stays small and keeps its root and every round.
    let root = scratch("paper-trace");
    let service = ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(2)))
        .with_artifacts(&root)
        .unwrap();
    let mut spec = quick_spec(7);
    spec.engine = EngineSpec::Paper;
    spec.methods = vec![MethodSpec::Clapton];
    let report = service.run(spec).unwrap();
    let rounds = report.clapton.as_ref().expect("clapton ran").rounds;
    let jsonl =
        std::fs::read_to_string(root.join("ising-J-0.50-seed7").join(TELEMETRY_ARTIFACT)).unwrap();
    assert!(jsonl.len() < 16 * 1024, "{} trace bytes", jsonl.len());
    let records = clapton_telemetry::from_jsonl(&jsonl).unwrap();
    let forest = clapton_telemetry::span_tree(&records);
    assert_eq!(forest.len(), 1, "one root");
    assert_eq!(forest[0].name, "job");
    let count = |name: &str| records.iter().filter(|r| r.name == name).count();
    assert_eq!(count("job"), 1);
    assert_eq!(count("round"), rounds, "one round span per reported round");
    assert_eq!(count("checkpoint"), rounds, "one checkpoint per round");
    std::fs::remove_dir_all(&root).unwrap();
}

/// A spec whose Clapton search cannot converge early (`max_retry_rounds`
/// higher than `max_rounds`), so it reliably spans many round boundaries —
/// the window cooperative cancellation needs.
fn long_spec(seed: u64) -> JobSpec {
    let mut spec = quick_spec(seed);
    spec.engine = EngineSpec::Custom(clapton_ga::MultiGaConfig {
        instances: 2,
        top_k: 4,
        max_retry_rounds: 200,
        max_rounds: 120,
        pool_fraction: 0.5,
        parallel: false,
        ga: clapton_ga::GaConfig {
            population_size: 24,
            generations: 12,
            ..clapton_ga::GaConfig::default()
        },
    });
    spec.methods = vec![MethodSpec::Clapton];
    spec
}

#[test]
fn cancel_stops_at_a_round_boundary_and_is_sticky() {
    let root = scratch("cancel");
    let pool = Arc::new(WorkerPool::with_workers(2));
    let service = ClaptonService::with_pool(Arc::clone(&pool))
        .with_artifacts(&root)
        .unwrap();
    let spec = long_spec(13);
    let admitted = service.admit(spec.clone()).unwrap();
    let cancel = CancelToken::new();
    let (tx, rx) = mpsc::channel();
    let result = std::thread::scope(|s| {
        let job = s.spawn(|| service.execute_admitted(&admitted, Some(tx), cancel.clone()));
        // Wait for the first persisted checkpoint, then request cancellation.
        for event in &rx {
            if matches!(event.kind, EventKind::Checkpointed(_)) {
                break;
            }
        }
        cancel.cancel();
        job.join().unwrap()
    });
    let rounds = match result {
        Err(ClaptonError::Cancelled { rounds }) => rounds,
        other => panic!("expected cancellation, got {other:?}"),
    };
    assert!(rounds >= 1, "cancelled after a completed round");
    assert!(
        rounds < 120,
        "cancellation must interrupt the search, not wait for max_rounds"
    );
    let dir = root.join("ising-J-0.50-seed13");
    assert!(dir.join("state.json").is_file(), "terminal state persisted");
    assert!(
        dir.join("checkpoint.json").is_file(),
        "last round checkpoint retained"
    );
    // Sticky: resubmitting the cancelled spec reports the cancellation
    // instead of restarting the search.
    match service.run(spec) {
        Err(ClaptonError::Cancelled { rounds: again }) => assert_eq!(again, rounds),
        other => panic!("expected sticky cancellation, got {other:?}"),
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn budget_suspends_and_resubmission_resumes_bit_identically() {
    // Reference: the same job run to convergence with no artifacts.
    let pool = Arc::new(WorkerPool::with_workers(2));
    let reference = ClaptonService::with_pool(Arc::clone(&pool))
        .run(quick_spec(9))
        .unwrap();

    let root = scratch("budget");
    let service = ClaptonService::with_pool(pool)
        .with_artifacts(&root)
        .unwrap();
    let mut spec = quick_spec(9);
    spec.budget = Some(1);
    let mut resumed: Option<Report> = None;
    let mut suspensions = 0usize;
    for _ in 0..64 {
        match service.run(spec.clone()) {
            Ok(report) => {
                resumed = Some(report);
                break;
            }
            Err(ClaptonError::Suspended { rounds }) => {
                suspensions += 1;
                assert!(rounds >= suspensions, "rounds advance monotonically");
                assert!(
                    root.join("ising-J-0.50-seed9")
                        .join("checkpoint.json")
                        .is_file(),
                    "suspension leaves a checkpoint"
                );
            }
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    let resumed = resumed.expect("budgeted run converges within 64 submissions");
    assert!(
        suspensions > 0,
        "budget of 1 round must suspend at least once"
    );
    assert_eq!(
        resumed, reference,
        "one-round-at-a-time resume must be bit-identical to the uninterrupted run"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn run_all_interleaves_jobs_and_streams_events() {
    let service = ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(2)));
    let specs: Vec<JobSpec> = [3u64, 5].iter().map(|&s| quick_spec(s)).collect();
    let (tx, rx) = std::sync::mpsc::channel();
    let results = service.run_all(specs, Some(tx)).unwrap();
    assert_eq!(results.len(), 2);
    let reports: Vec<Report> = results.into_iter().map(|r| r.unwrap()).collect();
    // Different seeds, same problem: both finish, independently seeded.
    assert_eq!(reports[0].name, reports[1].name);
    let events: Vec<_> = rx.try_iter().collect();
    let started = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Started))
        .count();
    let finished = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Finished(_)))
        .count();
    assert_eq!(started, 2);
    assert_eq!(finished, 2);
    // Ncafqa rides the same front door.
    let mut spec = quick_spec(2);
    spec.methods = vec![MethodSpec::Ncafqa];
    let report = service.run(spec).unwrap();
    assert!(report.ncafqa.is_some());
    assert!(report.clapton.is_none());
    assert!(report.ncafqa_initial_energy.is_some());
    assert!(report.eta_initial.is_none(), "no Clapton to compare");
}
