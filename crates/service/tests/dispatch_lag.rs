//! `clapton_dispatch_lag_seconds` runs from admission: the time an admitted
//! job waits before `execute_admitted` picks it up (a server's queue wait)
//! lands in the histogram.
//!
//! The histogram is process-wide, so this file holds exactly one test and
//! nothing else in its binary runs a job.

use clapton_runtime::{CancelToken, WorkerPool};
use clapton_service::{ClaptonService, EngineSpec, JobSpec, MethodSpec, ProblemSpec, TermsProblem};
use clapton_telemetry::metrics::registry;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn dispatch_lag_counts_the_wait_after_admission() {
    let mut spec = JobSpec::new(ProblemSpec::Terms(TermsProblem {
        qubits: 2,
        terms: vec![(1.0, "ZZ".to_string()), (0.5, "XI".to_string())],
    }));
    spec.methods = vec![MethodSpec::Cafqa];
    spec.engine = EngineSpec::Quick;
    let lag = registry().histogram(
        "clapton_dispatch_lag_seconds",
        "Time from a job's admission to the moment it starts executing",
        &[1e-5, 1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0],
    );
    let service = ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(0)));
    let admitted = service.admit(spec).unwrap();
    let (count, sum) = (lag.count(), lag.sum());
    std::thread::sleep(Duration::from_millis(50));
    service
        .execute_admitted(&admitted, None, CancelToken::new())
        .unwrap();
    assert_eq!(lag.count(), count + 1, "one observation per job");
    let waited = lag.sum() - sum;
    assert!(waited >= 0.05, "observed {waited} s of a 50 ms wait");
}
