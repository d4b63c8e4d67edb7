//! Chaos determinism: a sharded suite driven to completion *under* seeded
//! fault schedules (torn writes, failed renames, lost claims, dropped
//! heartbeats) must merge to a `suite_manifest.json` byte-identical to the
//! fault-free reference — the paper's reproducibility contract, searched
//! seed by seed instead of sampled by hand-placed kills.

use clapton_bench::{
    merge_shards, run_chaos_suite, run_shard_worker, write_queue, Options, ShardWorkerConfig,
    SuiteConfig, MERGED_MANIFEST_ARTIFACT,
};
use clapton_runtime::{failpoint, WorkerPool};
use clapton_service::JobSpec;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clapton-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn test_specs() -> Vec<JobSpec> {
    let mut specs = SuiteConfig {
        options: Options { effort: 0, seed: 7 },
        qubits: 4,
    }
    .specs();
    specs.truncate(3);
    specs
}

#[test]
fn chaos_runs_merge_byte_identically_to_the_fault_free_reference() {
    let specs = test_specs();
    // The failpoint table is process-global; serialize against any other
    // test that arms it.
    let _gate = failpoint::tests_exclusive();

    let reference = scratch("ref");
    write_queue(&reference, &specs).unwrap();
    let outcome = run_shard_worker(
        &reference,
        Arc::new(WorkerPool::with_workers(2)),
        None,
        &ShardWorkerConfig {
            worker_id: Some("reference".to_string()),
            poll: Duration::from_millis(10),
            ..ShardWorkerConfig::default()
        },
    )
    .unwrap();
    assert!(outcome.is_complete());
    merge_shards(&reference, &specs).unwrap();
    let reference_bytes = fs::read(reference.join(MERGED_MANIFEST_ARTIFACT)).unwrap();

    for seed in [11u64, 42] {
        let root = scratch(&format!("seed{seed}"));
        let outcome = run_chaos_suite(&root, &specs, seed, 2)
            .unwrap_or_else(|e| panic!("chaos seed {seed}: {e}"));
        assert!(outcome.manifest.is_complete(), "seed {seed} drained");
        assert_eq!(
            fs::read(root.join(MERGED_MANIFEST_ARTIFACT)).unwrap(),
            reference_bytes,
            "seed {seed}: merged manifest diverged from the fault-free run \
             ({} sweeps)",
            outcome.sweeps
        );
        fs::remove_dir_all(&root).unwrap();
    }
    fs::remove_dir_all(&reference).unwrap();
}
