//! The `validate()` rejection table: every malformed spec is refused with a
//! typed, self-explanatory `SpecError` — no panics, no stringly errors.

use clapton_service::{JobSpec, SpecError};

/// Parses a spec JSON (which must parse) and returns its validation error
/// (which must exist).
fn reject(json: &str) -> SpecError {
    let spec: JobSpec = serde_json::from_str(json).unwrap_or_else(|e| {
        panic!("spec should parse (rejection happens in validate): {e}\n{json}")
    });
    spec.validate().expect_err("spec should fail validation")
}

#[test]
fn rejection_table() {
    // (case, spec JSON, check on the typed error)
    type Check = Box<dyn Fn(&SpecError) -> bool>;
    let table: Vec<(&str, &str, Check)> = vec![
        (
            "bad problem name",
            r#"{"problem": {"Suite": {"name": "isig(J=0.25)", "qubits": 4}}}"#,
            Box::new(|e| {
                matches!(e, SpecError::UnknownProblem { name, available }
                    if name == "isig(J=0.25)" && !available.is_empty())
            }),
        ),
        (
            "chemistry benchmark at the wrong register size",
            r#"{"problem": {"Suite": {"name": "H2O(l=1.0)", "qubits": 7}}}"#,
            Box::new(|e| matches!(e, SpecError::UnknownProblem { .. })),
        ),
        (
            "zero-qubit register",
            r#"{"problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 0}}}"#,
            Box::new(
                |e| matches!(e, SpecError::InvalidField { field, .. } if field == "problem.qubits"),
            ),
        ),
        (
            "suite register past the exact ground-energy solver's limit",
            r#"{"problem": {"Suite": {"name": "ising(J=0.50)", "qubits": 25}}}"#,
            Box::new(
                |e| matches!(e, SpecError::InvalidField { field, .. } if field == "problem.qubits"),
            ),
        ),
        (
            "terms register past the exact ground-energy solver's limit",
            r#"{"problem": {"Terms": {"qubits": 25, "terms": [[1.0, "ZZZZZZZZZZZZZZZZZZZZZZZZZ"]]}}}"#,
            Box::new(
                |e| matches!(e, SpecError::InvalidField { field, .. } if field == "problem.qubits"),
            ),
        ),
        (
            "T1 relaxation past the density-matrix device model's limit",
            r#"{"problem": {"Suite": {"name": "ising(J=0.50)", "qubits": 13}},
                "noise": {"Uniform": {"p1": 0.001, "p2": 0.01, "readout": 0.02, "t1": 0.0001}},
                "methods": ["Cafqa"]}"#,
            Box::new(
                |e| matches!(e, SpecError::InvalidField { field, .. } if field == "problem.qubits"),
            ),
        ),
        (
            "VQE refinement past the density-matrix device model's limit",
            r#"{"problem": {"Suite": {"name": "ising(J=0.50)", "qubits": 13}},
                "noise": {"Uniform": {"p1": 0.001, "p2": 0.01, "readout": 0.02, "t1": null}},
                "methods": ["Cafqa", {"VqeRefine": {"iterations": 10}}]}"#,
            Box::new(
                |e| matches!(e, SpecError::InvalidField { field, .. } if field == "problem.qubits"),
            ),
        ),
        (
            "empty term list",
            r#"{"problem": {"Terms": {"qubits": 2, "terms": []}}}"#,
            Box::new(
                |e| matches!(e, SpecError::InvalidField { field, .. } if field == "problem.terms"),
            ),
        ),
        (
            "malformed Pauli word",
            r#"{"problem": {"Terms": {"qubits": 2, "terms": [[1.0, "ZQ"]]}}}"#,
            Box::new(
                |e| matches!(e, SpecError::InvalidField { field, .. } if field == "problem.terms"),
            ),
        ),
        (
            "term register mismatch",
            r#"{"problem": {"Terms": {"qubits": 2, "terms": [[1.0, "ZZZ"]]}}}"#,
            Box::new(|e| {
                matches!(
                    e,
                    SpecError::QubitMismatch {
                        needed: 2,
                        provided: 3,
                        ..
                    }
                )
            }),
        ),
        (
            "unknown backend",
            r#"{"problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 4}},
                "backend": {"Named": {"name": "almaden"}}}"#,
            Box::new(|e| {
                matches!(e, SpecError::UnknownBackend { name, available }
                    if name == "almaden" && available.len() == 4)
            }),
        ),
        (
            "backend/problem qubit mismatch",
            r#"{"problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 12}},
                "backend": {"Named": {"name": "nairobi"}}}"#,
            Box::new(|e| {
                matches!(
                    e,
                    SpecError::QubitMismatch {
                        needed: 12,
                        provided: 7,
                        ..
                    }
                )
            }),
        ),
        (
            "backend-derived noise without a backend",
            r#"{"problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 4}},
                "noise": "Backend"}"#,
            Box::new(|e| matches!(e, SpecError::InvalidField { field, .. } if field == "noise")),
        ),
        (
            "out-of-range uniform probability",
            r#"{"problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 4}},
                "noise": {"Uniform": {"p1": 0.001, "p2": 1.5, "readout": 0.02, "t1": null}}}"#,
            Box::new(|e| {
                matches!(e, SpecError::InvalidProbability { context, value }
                    if context == "noise.p2" && *value == 1.5)
            }),
        ),
        (
            "negative explicit readout",
            r#"{"problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 2}},
                "noise": {"Explicit": {"p1": [0.0, 0.0], "p2": 0.01,
                                       "readout": [0.02, -0.3], "t1": null}}}"#,
            Box::new(
                |e| matches!(e, SpecError::InvalidProbability { value, .. } if *value == -0.3),
            ),
        ),
        (
            "explicit noise register mismatch",
            r#"{"problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 3}},
                "noise": {"Explicit": {"p1": [0.0], "p2": 0.01,
                                       "readout": [0.0, 0.0, 0.0], "t1": null}}}"#,
            Box::new(|e| {
                matches!(
                    e,
                    SpecError::QubitMismatch {
                        needed: 3,
                        provided: 1,
                        ..
                    }
                )
            }),
        ),
        (
            "non-positive T1",
            r#"{"problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 4}},
                "noise": {"Uniform": {"p1": 0.0, "p2": 0.0, "readout": 0.0, "t1": 0.0}}}"#,
            Box::new(|e| matches!(e, SpecError::InvalidField { field, .. } if field == "noise.t1")),
        ),
        (
            "zero shots",
            r#"{"problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 4}},
                "evaluator": {"Sampled": {"shots": 0, "seed": 1}}}"#,
            Box::new(|e| matches!(e, SpecError::ZeroShots)),
        ),
        (
            "empty method set",
            r#"{"problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 4}},
                "methods": []}"#,
            Box::new(|e| matches!(e, SpecError::InvalidField { field, .. } if field == "methods")),
        ),
        (
            "duplicate method",
            r#"{"problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 4}},
                "methods": ["Clapton", "Clapton"]}"#,
            Box::new(|e| matches!(e, SpecError::InvalidField { field, .. } if field == "methods")),
        ),
        (
            "VQE refinement with nothing to refine",
            r#"{"problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 4}},
                "methods": [{"VqeRefine": {"iterations": 10}}]}"#,
            Box::new(|e| matches!(e, SpecError::InvalidField { field, .. } if field == "methods")),
        ),
        (
            "a second VqeRefine stage (different iterations, so not an exact duplicate)",
            r#"{"problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 4}},
                "methods": ["Clapton", {"VqeRefine": {"iterations": 10}},
                            {"VqeRefine": {"iterations": 500}}]}"#,
            Box::new(|e| matches!(e, SpecError::InvalidField { field, .. } if field == "methods")),
        ),
        (
            "zero VQE iterations",
            r#"{"problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 4}},
                "methods": ["Clapton", {"VqeRefine": {"iterations": 0}}]}"#,
            Box::new(
                |e| matches!(e, SpecError::InvalidField { field, .. } if field == "methods.VqeRefine.iterations"),
            ),
        ),
        (
            "zero-size engine",
            r#"{"problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 4}},
                "engine": {"Custom": {"instances": 0, "top_k": 1, "max_retry_rounds": 1,
                    "max_rounds": 1, "pool_fraction": 0.5, "parallel": false,
                    "ga": {"population_size": 10, "generations": 5, "tournament_size": 3,
                           "crossover_rate": 0.9, "mutation_rate": 0.1, "elite": 2}}}}"#,
            Box::new(
                |e| matches!(e, SpecError::InvalidField { field, .. } if field == "engine.instances"),
            ),
        ),
        (
            "one-member GA population (a GA needs two parents)",
            r#"{"problem": {"Suite": {"name": "ising(J=0.50)", "qubits": 4}},
                "engine": {"Custom": {"instances": 3, "top_k": 6, "max_retry_rounds": 1,
                    "max_rounds": 8, "pool_fraction": 0.5, "parallel": false,
                    "ga": {"population_size": 1, "generations": 20, "tournament_size": 3,
                           "crossover_rate": 0.9, "mutation_rate": 0.08, "elite": 2}}}}"#,
            Box::new(
                |e| matches!(e, SpecError::InvalidField { field, .. } if field == "engine.ga.population_size"),
            ),
        ),
        (
            "zero round budget",
            r#"{"problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 4}},
                "budget": 0}"#,
            Box::new(|e| matches!(e, SpecError::InvalidField { field, .. } if field == "budget")),
        ),
        (
            "unsupported version",
            r#"{"version": 2, "problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 4}}}"#,
            Box::new(|e| {
                matches!(
                    e,
                    SpecError::UnsupportedVersion {
                        version: 2,
                        supported: 1
                    }
                )
            }),
        ),
    ];
    for (case, json, check) in table {
        let err = reject(json);
        assert!(check(&err), "{case}: wrong error {err:?}");
        // Every rejection renders a non-empty human-readable message.
        assert!(!err.to_string().is_empty(), "{case}");
    }
}

#[test]
fn the_density_matrix_limit_binds_only_the_jobs_it_computes() {
    // Twelve qubits under T1 fit the density matrix; thirteen without T1
    // or VqeRefine never reach it (their device energies are exact).
    for (qubits, t1, methods) in [
        (
            12,
            "0.0001",
            r#"["Cafqa", {"VqeRefine": {"iterations": 10}}]"#,
        ),
        (13, "null", r#"["Cafqa", "Clapton"]"#),
    ] {
        let json = format!(
            r#"{{"problem": {{"Suite": {{"name": "ising(J=0.50)", "qubits": {qubits}}}}},
                "noise": {{"Uniform": {{"p1": 0.001, "p2": 0.01, "readout": 0.02, "t1": {t1}}}}},
                "methods": {methods}}}"#
        );
        let spec: JobSpec = serde_json::from_str(&json).unwrap();
        let job = spec
            .validate()
            .unwrap_or_else(|e| panic!("{qubits} qubits, t1 {t1}: {e}"));
        assert_eq!(job.exec.num_qubits(), qubits);
    }
}

#[test]
fn snapshot_backend_with_inconsistent_register_fails_at_parse() {
    // An inline snapshot whose coupling map and calibration disagree cannot
    // even construct a FakeBackend — the parse layer rejects it.
    let json = r#"{
        "problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 2}},
        "backend": {"Snapshot": {
            "name": "broken",
            "coupling": {"num_qubits": 3, "edges": [[0, 1], [1, 2]]},
            "calibration": {"t1": [1e-4], "p1": [1e-4], "p2": [], "readout": [0.01]}
        }}
    }"#;
    assert!(serde_json::from_str::<JobSpec>(json).is_err());
}

#[test]
fn dense_evaluator_fails_at_parse() {
    // `LN` runs only on the Clifford + Pauli-channel model; the dense device
    // model is not an evaluator kind.
    let json = r#"{
        "problem": {"Suite": {"name": "ising(J=0.25)", "qubits": 2}},
        "evaluator": "Dense"
    }"#;
    let err = serde_json::from_str::<JobSpec>(json).expect_err("Dense is not an evaluator");
    assert!(err.to_string().contains("unknown evaluator"), "{err}");
}
