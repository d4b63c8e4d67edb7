//! The `JobSpec` front door end to end: each job below is a quick spec run
//! through `ClaptonService`, the one job body behind every entry point.
//! Specs that name a backend pass through a JSON round trip first, since
//! the wire format is part of the contract.

use clapton::core::{run_ncafqa, EvaluatorKind, ExecutableAnsatz, WorkerPool};
use clapton::devices::FakeBackend;
use clapton::ga::MultiGaConfig;
use clapton::models::{ising, xxz};
use clapton::noise::NoiseModel;
use clapton::service::{
    BackendSpec, ClaptonService, EngineSpec, JobSpec, MethodSpec, NamedBackend, NoiseSpec,
    ProblemSpec, Report, SuiteProblem, UniformNoise, VqeRefineSpec,
};
use std::sync::Arc;

/// A quick spec for the registry problem `name` on `qubits` qubits; every
/// other field at its default (noiseless, CAFQA + Clapton).
fn quick_spec(name: &str, qubits: usize, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(ProblemSpec::Suite(SuiteProblem {
        name: name.to_string(),
        qubits,
    }));
    spec.engine = EngineSpec::Quick;
    spec.seed = seed;
    spec
}

fn uniform(p1: f64, p2: f64, readout: f64) -> NoiseSpec {
    NoiseSpec::Uniform(UniformNoise {
        p1,
        p2,
        readout,
        t1: None,
    })
}

/// JSON round trip: the wire format must not change the spec.
fn reparse(spec: &JobSpec) -> JobSpec {
    let json = serde_json::to_string(spec).unwrap();
    let back: JobSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(&back, spec);
    back
}

fn run(spec: JobSpec) -> Report {
    ClaptonService::new().run(spec).unwrap()
}

#[test]
fn cafqa_and_clapton_under_uniform_noise_report_consistent_energies() {
    let mut spec = quick_spec("ising(J=0.50)", 4, 3);
    spec.noise = uniform(1e-3, 1e-2, 2e-2);
    let report = run(spec);
    let cafqa = report.cafqa_initial_energy.unwrap();
    let clapton = report.clapton_initial_energy.unwrap();
    // The device energies respect the exact ground bound.
    assert!(cafqa >= report.e0 - 1e-6);
    assert!(clapton >= report.e0 - 1e-6);
    // η is the ratio of the two gaps (Eq. 14).
    let eta = (report.e0 - cafqa) / (report.e0 - clapton);
    assert!((report.eta_initial.unwrap() - eta).abs() < 1e-12);
    assert!(report.clapton_vqe.is_none() && report.cafqa_vqe.is_none());
}

#[test]
fn named_backend_spec_transpiles_and_keeps_the_problem() {
    let mut spec = quick_spec("xxz(J=0.50)", 5, 5);
    spec.backend = BackendSpec::Named(NamedBackend {
        name: "nairobi".to_string(),
    });
    spec.noise = NoiseSpec::Backend;
    let report = run(reparse(&spec));
    assert!(report.clapton_initial_energy.unwrap().is_finite());
    // The transformation keeps every term of H.
    let transformed = &report.clapton.unwrap().transformation.transformed;
    assert_eq!(transformed.num_terms(), xxz(5, 0.5).num_terms());
}

#[test]
fn snapshot_backend_spec_reproduces_its_report_after_a_json_round_trip() {
    // A hardware variant has no registry name: the spec inlines the whole
    // snapshot, and the parsed copy must run to the same report bytes.
    let mut spec = quick_spec("ising(J=0.25)", 4, 2);
    spec.backend = BackendSpec::Snapshot(FakeBackend::nairobi().hardware_variant(3));
    spec.noise = NoiseSpec::Backend;
    let reparsed = reparse(&spec);
    let direct = serde_json::to_string(&run(spec)).unwrap();
    assert_eq!(serde_json::to_string(&run(reparsed)).unwrap(), direct);
}

#[test]
fn vqe_refinement_starts_each_trace_at_its_device_energy() {
    let mut spec = quick_spec("ising(J=0.25)", 3, 9);
    spec.noise = uniform(5e-4, 5e-3, 1e-2);
    spec.methods
        .push(MethodSpec::VqeRefine(VqeRefineSpec { iterations: 40 }));
    let report = run(spec);
    let clapton = report.clapton_vqe.expect("VQE requested");
    let cafqa = report.cafqa_vqe.expect("VQE requested");
    assert!((clapton.initial_energy - report.clapton_initial_energy.unwrap()).abs() < 1e-9);
    assert!((cafqa.initial_energy - report.cafqa_initial_energy.unwrap()).abs() < 1e-9);
    // VQE does not make things (much) worse.
    assert!(clapton.final_energy <= clapton.initial_energy + 0.2);
}

#[test]
fn noiseless_cafqa_device_energy_equals_its_search_energy() {
    let report = run(quick_spec("ising(J=1.00)", 3, 1));
    let cafqa = report.cafqa.as_ref().unwrap();
    assert!((report.cafqa_initial_energy.unwrap() - cafqa.energy_noiseless).abs() < 1e-9);
}

#[test]
fn ncafqa_through_the_front_door_matches_the_free_function() {
    // Same seed, same engine, same executable: bit-identical.
    let mut spec = quick_spec("ising(J=0.50)", 4, 7);
    spec.noise = uniform(1e-3, 1e-2, 2e-2);
    spec.methods = vec![MethodSpec::Ncafqa];
    let report = run(reparse(&spec));

    let model = NoiseModel::uniform(4, 1e-3, 1e-2, 2e-2);
    let exec = ExecutableAnsatz::untranspiled(4, &model);
    let pool = Arc::new(WorkerPool::with_workers(0));
    let h = ising(4, 0.5);
    let direct = run_ncafqa(
        &h,
        &exec,
        &MultiGaConfig::quick(),
        EvaluatorKind::Exact,
        7,
        &pool,
    );
    assert_eq!(report.ncafqa, Some(direct));
    assert!(report.cafqa.is_none() && report.clapton.is_none());
}
