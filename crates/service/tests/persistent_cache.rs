//! The persistent report store through the service: cold-vs-warm report
//! identity across fresh processes (modeled as fresh `CacheStore` handles),
//! warm admission, and a cold job storing its report and nothing else.

use clapton_runtime::WorkerPool;
use clapton_service::{
    CacheConfig, CacheStore, ClaptonError, ClaptonService, EngineSpec, JobArtifactState, JobSpec,
    NoiseSpec, ProblemSpec, SuiteProblem, UniformNoise,
};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clapton-cache-svc-{tag}-{}", std::process::id()));
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

fn service_with(root: &PathBuf, pool: &Arc<WorkerPool>) -> ClaptonService {
    let cache = CacheStore::open_under_registry(root, CacheConfig::default()).unwrap();
    ClaptonService::with_pool(Arc::clone(pool))
        .with_artifacts(root)
        .unwrap()
        .with_cache(Arc::new(cache))
}

#[test]
fn warm_report_is_byte_identical_across_a_fresh_process() {
    let root = scratch("warm-report");
    let pool = Arc::new(WorkerPool::with_workers(2));

    // Cold: compute, persist, and cache the report.
    let cold_service = service_with(&root, &pool);
    let cold = cold_service.run(quick_spec(3)).unwrap();
    let job_dir = root.join("ising-J-0.50-seed3");
    let cold_report_bytes = std::fs::read(job_dir.join("report.json")).unwrap();
    drop(cold_service);

    // Simulate a fresh process: delete the job's artifacts (so the
    // persisted-report fast path cannot answer) and open brand-new service
    // and store handles over the same registry root.
    std::fs::remove_dir_all(&job_dir).unwrap();
    let warm_service = service_with(&root, &pool);
    let warm = warm_service.run(quick_spec(3)).unwrap();

    // The report — values, statistics, and its persisted bytes — is
    // identical, and it came from the store, not a re-run.
    assert_eq!(warm, cold);
    let warm_report_bytes = std::fs::read(job_dir.join("report.json")).unwrap();
    assert_eq!(warm_report_bytes, cold_report_bytes);
    let stats = warm_service.cache().unwrap().stats();
    assert!(
        stats.hits > 0,
        "warm run answered from the store: {stats:?}"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_cold_job_stores_its_report_and_nothing_else() {
    // For jobs the store is a report store: the search never consults it,
    // so a cold job inserts exactly its report, whose bytes equal those of
    // a run without a store.
    let root = scratch("report-only");
    let bare_root = scratch("report-only-bare");
    let pool = Arc::new(WorkerPool::with_workers(2));
    let service = service_with(&root, &pool);
    service.run(quick_spec(5)).unwrap();
    let stats = service.cache().unwrap().stats();
    assert_eq!((stats.inserts, stats.entries), (1, 1), "{stats:?}");
    ClaptonService::with_pool(Arc::clone(&pool))
        .with_artifacts(&bare_root)
        .unwrap()
        .run(quick_spec(5))
        .unwrap();
    let report =
        |root: &PathBuf| std::fs::read(root.join("ising-J-0.50-seed5/report.json")).unwrap();
    assert_eq!(report(&root), report(&bare_root));
    std::fs::remove_dir_all(&root).unwrap();
    std::fs::remove_dir_all(&bare_root).unwrap();
}

#[test]
fn inspect_answers_from_the_store_and_materializes_the_report() {
    let root = scratch("admission");
    let pool = Arc::new(WorkerPool::with_workers(2));
    let service = service_with(&root, &pool);

    let admitted = service.admit(quick_spec(9)).unwrap();
    assert!(
        matches!(service.inspect(&admitted).unwrap(), JobArtifactState::Fresh),
        "nothing cached yet"
    );
    let cold = service.run(quick_spec(9)).unwrap();

    // A fresh handle over the same store answers the admission check even
    // after the artifacts are gone.
    let job_dir = root.join("ising-J-0.50-seed9");
    std::fs::remove_dir_all(&job_dir).unwrap();
    let warm_service = service_with(&root, &pool);
    let admitted = warm_service.admit(quick_spec(9)).unwrap();
    match warm_service.inspect(&admitted).unwrap() {
        JobArtifactState::Done(answered) => assert_eq!(*answered, cold),
        other => panic!("expected the stored report, got {other:?}"),
    }
    let report = job_dir.join("report.json");
    assert!(
        report.exists(),
        "warm admission persists the report artifact"
    );

    // A recorded failure does not outrank the stored report ...
    std::fs::remove_file(&report).unwrap();
    let aborted = ClaptonError::JobAborted {
        job: "ising(J=0.50)".to_string(),
        detail: "the job body panicked".to_string(),
    };
    warm_service.settle_failure(&admitted, &aborted).unwrap();
    assert!(matches!(
        warm_service.inspect(&admitted).unwrap(),
        JobArtifactState::Done(_)
    ));
    assert!(report.exists());
    // ... and a recorded cancellation does.
    std::fs::remove_file(&report).unwrap();
    warm_service.mark_cancelled(&admitted, 2).unwrap();
    assert!(matches!(
        warm_service.inspect(&admitted).unwrap(),
        JobArtifactState::Cancelled { rounds: 2 }
    ));
    assert!(
        !report.exists(),
        "a cancelled job is not answered from the store"
    );
    std::fs::remove_dir_all(&root).unwrap();
}
