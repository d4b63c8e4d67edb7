//! Crash-consistency under artifact corruption: a torn or garbled
//! `checkpoint.json`, `report.json`, or `spec.json` must be quarantined
//! (never parsed, never trusted) and the job must recover — losing at most
//! one GA round via the rotated `checkpoint.prev.json`, never the job —
//! with final artifacts byte-identical to an undisturbed run.

use clapton_runtime::WorkerPool;
use clapton_service::{
    ClaptonService, EngineSpec, JobSpec, NoiseSpec, ProblemSpec, Report, SuiteProblem, UniformNoise,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("clapton-corrupt-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
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

fn service(root: &Path) -> ClaptonService {
    ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(2)))
        .with_artifacts(root)
        .unwrap()
}

/// Overwrites the middle of a file with garbage, keeping its length — the
/// envelope checksum must catch it (the length check alone would not).
fn garble(path: &Path) {
    let mut bytes = fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    let end = (mid + 16).min(bytes.len());
    for byte in &mut bytes[mid..end] {
        *byte ^= 0x5a;
    }
    fs::write(path, bytes).unwrap();
}

/// The quarantine files (`<name>.corrupt-<unix-ms>`) present for `name`.
fn quarantined(dir: &Path, name: &str) -> Vec<PathBuf> {
    fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&format!("{name}.corrupt-")))
        })
        .collect()
}

fn corrupt_counter(artifact: &str) -> u64 {
    clapton_telemetry::registry()
        .counter_with(
            "clapton_artifacts_corrupt_total",
            "Artifacts that failed integrity verification and were quarantined.",
            &[("artifact", artifact)],
        )
        .get()
}

#[test]
fn garbled_report_is_quarantined_and_recomputed_byte_identically() {
    let reference_root = scratch("report-ref");
    let reference = service(&reference_root).run(quick_spec(23)).unwrap();
    let reference_bytes = fs::read(
        reference_root
            .join("ising-J-0.50-seed23")
            .join("report.json"),
    )
    .unwrap();

    let root = scratch("report-garbled");
    let svc = service(&root);
    let first = svc.run(quick_spec(23)).unwrap();
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&reference).unwrap()
    );
    let dir = root.join("ising-J-0.50-seed23");
    // Completion rotated the checkpoint instead of deleting it — the fuel
    // for recomputing a lost report.
    assert!(dir.join("checkpoint.prev.json").is_file());

    let before = corrupt_counter("report.json");
    garble(&dir.join("report.json"));
    let again = svc.run(quick_spec(23)).unwrap();
    assert_eq!(
        serde_json::to_string(&again).unwrap(),
        serde_json::to_string(&reference).unwrap(),
        "recovered report matches the undisturbed run"
    );
    assert_eq!(quarantined(&dir, "report.json").len(), 1);
    assert_eq!(
        fs::read(dir.join("report.json")).unwrap(),
        reference_bytes,
        "rewritten artifact is byte-identical to the reference"
    );
    assert_eq!(corrupt_counter("report.json"), before + 1);

    let _ = fs::remove_dir_all(&reference_root);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn garbled_checkpoint_falls_back_to_the_previous_round() {
    let reference_root = scratch("ckpt-ref");
    let reference = service(&reference_root).run(quick_spec(29)).unwrap();

    let root = scratch("ckpt-garbled");
    let svc = service(&root);
    let mut budgeted = quick_spec(29);
    budgeted.budget = Some(1);
    // Two one-round suspensions bank checkpoint.json (round N) and, rotated
    // beneath it, checkpoint.prev.json (round N-1).
    for _ in 0..2 {
        match svc.run(budgeted.clone()) {
            Err(clapton_error::ClaptonError::Suspended { .. }) => {}
            other => panic!("expected a one-round suspension, got {other:?}"),
        }
    }
    let dir = root.join("ising-J-0.50-seed29");
    assert!(dir.join("checkpoint.prev.json").is_file(), "rotation ran");

    garble(&dir.join("checkpoint.json"));
    let report = svc.run(quick_spec(29)).unwrap();
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&reference).unwrap(),
        "one lost round is replayed, not the whole job"
    );
    assert_eq!(quarantined(&dir, "checkpoint.json").len(), 1);

    let _ = fs::remove_dir_all(&reference_root);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn truncated_spec_is_quarantined_and_rewritten() {
    let root = scratch("spec-truncated");
    let svc = service(&root);
    let spec = quick_spec(31);
    let first: Report = svc.run(spec.clone()).unwrap();
    let dir = root.join("ising-J-0.50-seed31");

    // Truncation (a torn write that survived a crash) rather than garbling:
    // the envelope's length check catches it before the checksum runs.
    let bytes = fs::read(dir.join("spec.json")).unwrap();
    fs::write(dir.join("spec.json"), &bytes[..bytes.len() / 2]).unwrap();

    let again = svc.run(spec).unwrap();
    assert_eq!(
        serde_json::to_string(&again).unwrap(),
        serde_json::to_string(&first).unwrap()
    );
    assert_eq!(quarantined(&dir, "spec.json").len(), 1);
    let rewritten: JobSpec = clapton_runtime::RunDirectory::create(&dir)
        .unwrap()
        .load("spec.json")
        .unwrap()
        .valid()
        .unwrap();
    assert_eq!(
        rewritten,
        quick_spec(31),
        "spec re-persisted after quarantine"
    );

    let _ = fs::remove_dir_all(&root);
}
