//! CAFQA and nCAFQA run on the service's worker pool, like Clapton: every
//! GA round of a baseline search spawns its instances as pool tasks.
//!
//! The pool's task counter is process-wide, so this file holds exactly one
//! test and nothing else in its binary touches a pool.

use clapton_ga::MultiGaConfig;
use clapton_runtime::WorkerPool;
use clapton_service::{
    ClaptonService, EngineSpec, JobSpec, MethodSpec, NoiseSpec, ProblemSpec, SuiteProblem,
    UniformNoise,
};
use clapton_telemetry::metrics::registry;
use std::sync::Arc;

#[test]
fn baseline_rounds_spawn_their_instances_on_the_service_pool() {
    let mut spec = JobSpec::new(ProblemSpec::Suite(SuiteProblem {
        name: "ising(J=0.50)".to_string(),
        qubits: 4,
    }));
    spec.noise = NoiseSpec::Uniform(UniformNoise {
        p1: 1e-3,
        p2: 1e-2,
        readout: 2e-2,
        t1: None,
    });
    spec.methods = vec![MethodSpec::Cafqa, MethodSpec::Ncafqa];
    spec.engine = EngineSpec::Quick;
    spec.seed = 3;
    let spawned = registry().counter(
        "clapton_pool_tasks_spawned_total",
        "Tasks spawned onto pool scopes",
    );
    let service = ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(1)));
    let before = spawned.get();
    let report = service.run(spec).unwrap();
    let tasks = spawned.get() - before;

    let rounds =
        report.cafqa.expect("CAFQA ran").rounds + report.ncafqa.expect("nCAFQA ran").rounds;
    let instances = MultiGaConfig::quick().instances;
    assert!(
        tasks >= (instances * rounds) as u64,
        "{tasks} pool tasks for {rounds} baseline rounds of {instances} instances"
    );
}
