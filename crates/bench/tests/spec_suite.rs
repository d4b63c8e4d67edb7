//! The suite path end to end: `SuiteConfig::specs()` round-trips through
//! JSON, a run records its queue, executes it through
//! `ClaptonService::run_all` (the single-process `suite-runner`) or a shard
//! worker, and merges one `suite_manifest.json` — byte-identical across
//! interruptions, replays and execution shapes.

use clapton_bench::{
    merge_shards, read_queue, run_shard_worker, write_queue, MergedManifest, Options,
    ShardWorkerConfig, SuiteConfig, MERGED_MANIFEST_ARTIFACT, QUEUE_ARTIFACT,
};
use clapton_error::ClaptonError;
use clapton_runtime::{EventKind, RunEvent, WorkerPool};
use clapton_service::{ClaptonService, JobSpec, Report};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clapton-spec-suite-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small slice of the quick `N = 4` suite keeps the test fast while still
/// exercising concurrent jobs.
fn test_specs(seed: u64) -> Vec<JobSpec> {
    let mut specs = SuiteConfig {
        options: Options { effort: 0, seed },
        qubits: 4,
    }
    .specs();
    specs.truncate(3);
    // Spec-file round trip: what the CLI writes with --emit-specs is what
    // --specs reads back.
    let json = serde_json::to_string_pretty(&specs).unwrap();
    let reparsed: Vec<JobSpec> = serde_json::from_str(&json).unwrap();
    assert_eq!(reparsed, specs);
    specs
}

/// One single-process `suite-runner` invocation: record the queue, run every
/// job concurrently with a per-job round `budget`, merge.
fn run_in_process(
    root: &Path,
    specs: &[JobSpec],
    budget: Option<u64>,
    events: Option<Sender<RunEvent>>,
) -> (Vec<Result<Report, ClaptonError>>, MergedManifest) {
    write_queue(root, specs).unwrap();
    let budgeted = specs
        .iter()
        .map(|spec| JobSpec {
            budget,
            ..spec.clone()
        })
        .collect();
    let results = ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(2)))
        .with_artifacts(root)
        .unwrap()
        .run_all(budgeted, events)
        .unwrap();
    (results, merge_shards(root, specs).unwrap())
}

fn manifest_bytes(root: &Path) -> Vec<u8> {
    fs::read(root.join(MERGED_MANIFEST_ARTIFACT)).expect("merged manifest written")
}

#[test]
fn interrupted_suite_resumes_byte_identically_and_seeds_reproduce() {
    let specs = test_specs(7);

    // Reference: one uninterrupted run.
    let reference_root = scratch("reference");
    let (results, reference) = run_in_process(&reference_root, &specs, None, None);
    for result in &results {
        let report = result.as_ref().expect("uninterrupted job completes");
        assert!(report.clapton.is_some(), "suite jobs run Clapton");
    }
    assert!(reference.is_complete());
    let reference_bytes = manifest_bytes(&reference_root);

    // Interrupted: a 2-round budget per job and invocation, re-run until
    // complete (the deterministic stand-in for `kill -9` + retry).
    let resumed_root = scratch("resumed");
    let mut invocations = 0usize;
    loop {
        invocations += 1;
        assert!(invocations <= 64, "suite did not converge");
        let (results, merged) = run_in_process(&resumed_root, &specs, Some(2), None);
        assert!(
            results
                .iter()
                .all(|r| matches!(r, Ok(_) | Err(ClaptonError::Suspended { .. }))),
            "only suspension is acceptable"
        );
        if merged.is_complete() {
            break;
        }
    }
    assert!(invocations > 1, "the 2-round budget must interrupt");
    assert_eq!(
        manifest_bytes(&resumed_root),
        reference_bytes,
        "interrupted + resumed manifest must be byte-identical"
    );

    // The same seed replays byte-identically...
    let replay_root = scratch("replay");
    run_in_process(&replay_root, &specs, None, None);
    assert_eq!(manifest_bytes(&replay_root), reference_bytes);

    // ...and a different seed steers the searches elsewhere.
    let other_root = scratch("other-seed");
    let (_, other) = run_in_process(&other_root, &test_specs(8), None, None);
    let round_bests = |manifest: &MergedManifest| -> Vec<Vec<f64>> {
        manifest
            .jobs
            .iter()
            .map(|job| {
                let report = job.report.as_ref().expect("job done");
                report
                    .clapton
                    .as_ref()
                    .expect("clapton ran")
                    .round_bests
                    .clone()
            })
            .collect()
    };
    assert_ne!(round_bests(&other), round_bests(&reference));

    // Re-running a complete run answers every job from its report: no GA
    // round executes and no byte changes.
    let (tx, rx) = mpsc::channel();
    let (results, _) = run_in_process(&reference_root, &specs, None, Some(tx));
    assert!(results.iter().all(Result::is_ok));
    let events: Vec<RunEvent> = rx.into_iter().collect();
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Round(..) | EventKind::Checkpointed(_))),
        "a complete run must not execute a GA round"
    );
    assert_eq!(manifest_bytes(&reference_root), reference_bytes);

    for root in [reference_root, resumed_root, replay_root, other_root] {
        fs::remove_dir_all(root).unwrap();
    }
}

#[test]
fn a_run_directory_refuses_a_different_spec_list() {
    let root = scratch("refuse");
    let specs = test_specs(3);
    write_queue(&root, &specs).unwrap();
    // Budgets are execution policy, not identity.
    let budgeted: Vec<JobSpec> = specs
        .iter()
        .map(|spec| JobSpec {
            budget: Some(1),
            ..spec.clone()
        })
        .collect();
    write_queue(&root, &budgeted).unwrap();
    // A different seed, or a different suite shape, is refused.
    for other in [test_specs(4), specs[..2].to_vec()] {
        assert!(matches!(
            write_queue(&root, &other),
            Err(ClaptonError::Conflict { .. })
        ));
    }
    fs::remove_dir_all(root).unwrap();
}

/// `queue.json` carries the envelope like every artifact, so a spec list
/// written there by hand is quarantined on its first read. The modes that
/// act on an existing run refuse it and name `--specs`; `--merge` and
/// `--status` never fold the default suite in its place, not even once the
/// queue is gone; `--specs` with the quarantined bytes records it again;
/// and once jobs are admitted, a lost queue admits no other suite.
#[test]
fn a_hand_written_queue_is_refused_until_specs_records_it() {
    let registry = scratch("hand-queue");
    let root = registry.join("hand");
    fs::create_dir_all(&root).unwrap();
    let specs = test_specs(5)[..2].to_vec();
    let bare = serde_json::to_string(&specs).unwrap();
    let suite_runner = |args: &[&str]| -> Output {
        Command::new(env!("CARGO_BIN_EXE_suite-runner"))
            .args(args)
            .env_remove(clapton_runtime::failpoint::FAILPOINTS_ENV)
            .output()
            .unwrap()
    };
    let refused = |output: Output| {
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains("--specs FILE"), "{stderr}");
    };
    let root_arg = root.to_str().unwrap();
    let registry_arg = registry.to_str().unwrap();

    fs::write(root.join(QUEUE_ARTIFACT), &bare).unwrap();
    assert!(matches!(
        read_queue(&root),
        Err(ClaptonError::CorruptArtifact { .. })
    ));
    for mode in [&[][..], &["--merge"], &["--status"]] {
        fs::write(root.join(QUEUE_ARTIFACT), &bare).unwrap();
        refused(suite_runner(&[&["--join", root_arg], mode].concat()));
        // The queue is quarantined now; asking again is refused too.
        refused(suite_runner(&[&["--join", root_arg], mode].concat()));
    }
    refused(suite_runner(&[
        "--registry",
        registry_arg,
        "--run",
        "hand",
        "--merge",
    ]));
    let mut quarantined: Vec<PathBuf> = fs::read_dir(&root)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    // No manifest and no job directory: nothing but the quarantined queues.
    assert!(!quarantined.is_empty());
    assert!(
        quarantined.iter().all(|path| path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("queue.json.corrupt-")),
        "{quarantined:?}"
    );

    let spec_file = quarantined.pop().unwrap();
    let recorded = suite_runner(&[
        "--specs",
        spec_file.to_str().unwrap(),
        "--registry",
        registry_arg,
        "--run",
        "hand",
        "--halt-after-rounds",
        "1",
        "--no-persistent-cache",
        "--quiet",
    ]);
    assert!(recorded.status.success(), "{recorded:?}");
    assert_eq!(read_queue(&root).unwrap(), specs);

    // Its jobs are admitted now, so losing the queue again lets only the
    // same list back in: the default suite is refused, not run beside them.
    fs::write(root.join(QUEUE_ARTIFACT), &bare).unwrap();
    let default_suite = suite_runner(&[
        "--registry",
        registry_arg,
        "--run",
        "hand",
        "--quick",
        "--qubits",
        "4",
        "--halt-after-rounds",
        "1",
        "--no-persistent-cache",
        "--quiet",
    ]);
    assert_eq!(default_suite.status.code(), Some(2), "{default_suite:?}");
    assert!(matches!(
        write_queue(&root, &test_specs(6)[..2]),
        Err(ClaptonError::Conflict { .. })
    ));
    write_queue(&root, &specs).unwrap();
    assert_eq!(read_queue(&root).unwrap(), specs);
    fs::remove_dir_all(registry).unwrap();
}

#[test]
fn in_process_and_single_worker_runs_merge_identical_manifests() {
    let specs = test_specs(7);
    let in_process = scratch("in-process");
    run_in_process(&in_process, &specs, None, None);

    let sharded = scratch("one-worker");
    write_queue(&sharded, &specs).unwrap();
    let outcome = run_shard_worker(
        &sharded,
        Arc::new(WorkerPool::with_workers(2)),
        None,
        &ShardWorkerConfig::default(),
    )
    .unwrap();
    assert!(outcome.is_complete());
    merge_shards(&sharded, &specs).unwrap();

    assert_eq!(manifest_bytes(&in_process), manifest_bytes(&sharded));
    fs::remove_dir_all(in_process).unwrap();
    fs::remove_dir_all(sharded).unwrap();
}

#[test]
fn full_suite_specs_cover_the_benchmark_suite_and_validate() {
    let config = SuiteConfig {
        options: Options { effort: 0, seed: 0 },
        qubits: 10,
    };
    let specs = config.specs();
    assert_eq!(specs.len(), 12, "the paper's full 12-instance suite");
    let mut seeds = Vec::new();
    for spec in &specs {
        spec.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.display_name()));
        seeds.push(spec.seed);
    }
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), 12, "per-job seeds are decorrelated");
}
