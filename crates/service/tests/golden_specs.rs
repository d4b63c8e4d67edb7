//! Golden spec fixtures: committed JSON documents that must keep parsing,
//! validating, and round-tripping — the wire-format compatibility contract
//! of the `JobSpec` front door.

use clapton_core::EvaluatorKind;
use clapton_service::{
    BackendSpec, EngineSpec, JobSpec, MethodSpec, NamedBackend, NoiseSpec, ProblemSpec,
    SuiteProblem, TermsProblem, UniformNoise, VqeRefineSpec, SPEC_VERSION,
};

const MINIMAL: &str = include_str!("fixtures/minimal.json");
const FULL: &str = include_str!("fixtures/full.json");
const NAMED_BACKEND: &str = include_str!("fixtures/named_backend.json");
const FORWARD_COMPAT: &str = include_str!("fixtures/forward_compat.json");

fn fixtures() -> Vec<(&'static str, &'static str)> {
    vec![
        ("minimal", MINIMAL),
        ("full", FULL),
        ("named_backend", NAMED_BACKEND),
        ("forward_compat", FORWARD_COMPAT),
    ]
}

#[test]
fn minimal_fixture_parses_to_pure_defaults() {
    let spec: JobSpec = serde_json::from_str(MINIMAL).unwrap();
    let expected = JobSpec::new(ProblemSpec::Suite(SuiteProblem {
        name: "ising(J=0.25)".to_string(),
        qubits: 4,
    }));
    assert_eq!(spec, expected);
    assert_eq!(spec.version, SPEC_VERSION);
    assert_eq!(spec.display_name(), "ising(J=0.25)");
    assert_eq!(
        spec.methods,
        vec![MethodSpec::Cafqa, MethodSpec::Clapton],
        "default method pairing is CAFQA + Clapton"
    );
}

#[test]
fn full_fixture_parses_every_field_explicitly() {
    let spec: JobSpec = serde_json::from_str(FULL).unwrap();
    let mut expected = JobSpec::new(ProblemSpec::Terms(TermsProblem {
        qubits: 2,
        terms: vec![(1.0, "ZI".to_string()), (0.5, "XX".to_string())],
    }));
    expected.name = "full-example".to_string();
    expected.backend = BackendSpec::Logical;
    expected.noise = NoiseSpec::Uniform(UniformNoise {
        p1: 0.001,
        p2: 0.01,
        readout: 0.02,
        t1: Some(0.0001),
    });
    expected.methods = vec![
        MethodSpec::Cafqa,
        MethodSpec::Ncafqa,
        MethodSpec::Clapton,
        MethodSpec::VqeRefine(VqeRefineSpec { iterations: 25 }),
    ];
    expected.engine = EngineSpec::Quick;
    expected.evaluator = EvaluatorKind::Sampled {
        shots: 256,
        seed: 5,
    };
    expected.seed = 42;
    expected.budget = Some(6);
    assert_eq!(spec, expected);
    let resolved = spec.validate().unwrap();
    assert_eq!(resolved.hamiltonian.num_terms(), 2);
    assert_eq!(resolved.vqe_iterations(), Some(25));
}

#[test]
fn named_backend_fixture_resolves_the_device_registry() {
    let spec: JobSpec = serde_json::from_str(NAMED_BACKEND).unwrap();
    assert_eq!(
        spec.backend,
        BackendSpec::Named(NamedBackend {
            name: "nairobi".to_string()
        })
    );
    assert_eq!(spec.noise, NoiseSpec::Backend);
    let resolved = spec.validate().unwrap();
    assert_eq!(resolved.backend.as_ref().unwrap().name(), "nairobi");
    assert_eq!(resolved.hamiltonian.num_qubits(), 5);
    // The executable carries the backend-derived (restricted) noise model.
    assert!(resolved.exec.noise_model().has_pauli_noise());
}

#[test]
fn forward_compat_fixture_ignores_unknown_fields() {
    // A spec written by a newer (same-major) writer carries fields this
    // build has never heard of, at the top level and nested — they must be
    // ignored, not fatal.
    let spec: JobSpec = serde_json::from_str(FORWARD_COMPAT).unwrap();
    assert_eq!(spec.version, SPEC_VERSION);
    assert_eq!(spec.seed, 1);
    assert_eq!(
        spec.problem,
        ProblemSpec::Suite(SuiteProblem {
            name: "ising(J=1.00)".to_string(),
            qubits: 3,
        })
    );
    spec.validate().unwrap();
}

#[test]
fn every_fixture_validates_and_round_trips_bit_identically() {
    for (name, text) in fixtures() {
        let spec: JobSpec = serde_json::from_str(text)
            .unwrap_or_else(|e| panic!("fixture {name} does not parse: {e}"));
        spec.validate()
            .unwrap_or_else(|e| panic!("fixture {name} does not validate: {e}"));
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let reparsed: JobSpec = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("fixture {name} does not re-parse: {e}"));
        assert_eq!(reparsed, spec, "fixture {name} round-trip changed the spec");
        // Serialization is canonical: a second pass is byte-identical.
        assert_eq!(serde_json::to_string_pretty(&reparsed).unwrap(), json);
    }
}

#[test]
fn version_newer_than_supported_is_rejected() {
    let json = r#"{
        "version": 99,
        "problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 4}}
    }"#;
    let spec: JobSpec = serde_json::from_str(json).unwrap();
    let err = spec.validate().unwrap_err();
    assert!(
        err.to_string().contains("version 99"),
        "unexpected error: {err}"
    );
}
