//! The acceptance contract of the `JobSpec` front door: a spec compiled
//! from a `Pipeline`-built run, serialized to JSON, re-parsed, and submitted
//! through `ClaptonService` produces a **bit-identical** report to the
//! legacy `Pipeline::run` path — for all four methods (CAFQA, nCAFQA,
//! Clapton, VQE refinement) in quick mode.

use clapton::core::{run_ncafqa, EvaluatorKind, ExecutableAnsatz, WorkerPool};
use clapton::devices::FakeBackend;
use clapton::models::{ising, xxz};
use clapton::noise::NoiseModel;
use clapton::pipeline::Pipeline;
use clapton::service::{ClaptonService, JobSpec, MethodSpec};
use std::sync::Arc;

/// JSON round trip: the wire format must not change the spec.
fn reparse(spec: &JobSpec) -> JobSpec {
    let json = serde_json::to_string_pretty(spec).unwrap();
    serde_json::from_str(&json).unwrap()
}

#[test]
fn spec_from_pipeline_reproduces_the_report_bit_identically() {
    // CAFQA + Clapton + VQE refinement from both starts, uniform noise.
    let pipeline = Pipeline::new(ising(4, 0.5))
        .with_uniform_noise(1e-3, 1e-2, 2e-2)
        .quick(7)
        .with_vqe(10);
    let spec = reparse(&pipeline.to_spec());
    let legacy = pipeline.run();
    let report = ClaptonService::new().run(spec).unwrap();

    assert_eq!(report.e0, legacy.e0);
    assert_eq!(report.cafqa.as_ref(), Some(&legacy.cafqa));
    assert_eq!(report.clapton.as_ref(), Some(&legacy.clapton));
    assert_eq!(
        report.cafqa_initial_energy,
        Some(legacy.cafqa_initial_energy)
    );
    assert_eq!(
        report.clapton_initial_energy,
        Some(legacy.clapton_initial_energy)
    );
    assert_eq!(report.eta_initial, Some(legacy.eta_initial));
    assert_eq!(report.clapton_vqe, legacy.clapton_vqe);
    assert_eq!(report.cafqa_vqe, legacy.cafqa_vqe);
}

#[test]
fn spec_from_pipeline_on_backend_reproduces_the_report() {
    // The transpiled path: the spec compiles the registry backend by name.
    let pipeline = Pipeline::new(xxz(5, 0.5))
        .on_backend(FakeBackend::nairobi())
        .quick(5);
    let spec = reparse(&pipeline.to_spec());
    assert!(
        serde_json::to_string(&spec).unwrap().contains("nairobi"),
        "registry backends compile to their name"
    );
    let legacy = pipeline.run();
    let report = ClaptonService::new().run(spec).unwrap();
    assert_eq!(report.clapton.as_ref(), Some(&legacy.clapton));
    assert_eq!(report.cafqa.as_ref(), Some(&legacy.cafqa));
    assert_eq!(
        report.clapton_initial_energy,
        Some(legacy.clapton_initial_energy)
    );
}

#[test]
fn spec_from_pipeline_with_snapshot_backend_reproduces_the_report() {
    // A hardware variant has no registry name: the spec inlines the full
    // snapshot and still reproduces the run after a JSON round trip.
    let hw = FakeBackend::nairobi().hardware_variant(3);
    let pipeline = Pipeline::new(ising(4, 0.25)).on_backend(hw).quick(2);
    let spec = reparse(&pipeline.to_spec());
    let legacy = pipeline.run();
    let report = ClaptonService::new().run(spec).unwrap();
    assert_eq!(report.clapton.as_ref(), Some(&legacy.clapton));
    assert_eq!(
        report.cafqa_initial_energy,
        Some(legacy.cafqa_initial_energy)
    );
}

#[test]
fn ncafqa_through_the_front_door_matches_the_free_function() {
    // The fourth method has no Pipeline equivalent; its legacy path is the
    // free function. Same seed, same engine, same executable — bit-identical.
    let h = ising(4, 0.5);
    let model = NoiseModel::uniform(4, 1e-3, 1e-2, 2e-2);
    let exec = ExecutableAnsatz::untranspiled(4, &model);
    let engine = clapton::ga::MultiGaConfig::quick();
    let pool = Arc::new(WorkerPool::with_workers(0));
    let legacy = run_ncafqa(&h, &exec, &engine, EvaluatorKind::Exact, 7, &pool);

    let pipeline = Pipeline::new(h)
        .with_uniform_noise(1e-3, 1e-2, 2e-2)
        .quick(7);
    let mut spec = pipeline.to_spec();
    spec.methods = vec![MethodSpec::Ncafqa];
    let report = ClaptonService::new().run(reparse(&spec)).unwrap();
    assert_eq!(report.ncafqa.as_ref(), Some(&legacy));
    assert!(report.cafqa.is_none() && report.clapton.is_none());
}
