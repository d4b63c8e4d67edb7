//! Sharded-suite determinism: several in-process workers over one queue
//! directory must merge to the same `suite_manifest.json` bytes as a
//! single worker, and a stale lease left by a dead worker must be taken
//! over and resumed to the same bytes.

use clapton_bench::{
    merge_shards, run_shard_worker, shard_status, write_queue, ShardWorkerConfig,
    MERGED_MANIFEST_ARTIFACT,
};
use clapton_bench::{Options, SuiteConfig};
use clapton_runtime::{acquire, ClaimOutcome, WorkerPool};
use clapton_service::JobSpec;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("clapton-shard-suite-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small slice of the quick suite: enough jobs that two workers genuinely
/// interleave, small enough to keep the test fast.
fn test_specs() -> Vec<JobSpec> {
    let mut specs = SuiteConfig {
        options: Options { effort: 0, seed: 7 },
        qubits: 4,
    }
    .specs();
    specs.truncate(4);
    specs
}

fn worker_config(id: &str, ttl: Duration) -> ShardWorkerConfig {
    ShardWorkerConfig {
        worker_id: Some(id.to_string()),
        lease_ttl: ttl,
        poll: Duration::from_millis(20),
        ..ShardWorkerConfig::default()
    }
}

fn manifest_bytes(root: &Path) -> Vec<u8> {
    fs::read(root.join(MERGED_MANIFEST_ARTIFACT)).expect("merged manifest written")
}

#[test]
fn two_workers_merge_byte_identically_to_one() {
    let specs = test_specs();
    let ttl = Duration::from_secs(30);

    let reference = scratch("merge-ref");
    write_queue(&reference, &specs).unwrap();
    let pool = Arc::new(WorkerPool::with_workers(2));
    let outcome = run_shard_worker(
        &reference,
        Arc::clone(&pool),
        None,
        &worker_config("solo", ttl),
    )
    .unwrap();
    assert!(outcome.is_complete(), "single worker drains the queue");
    merge_shards(&reference, &specs).unwrap();

    let sharded = scratch("merge-2w");
    write_queue(&sharded, &specs).unwrap();
    let handles: Vec<_> = ["left", "right"]
        .into_iter()
        .map(|id| {
            let root = sharded.clone();
            let pool = Arc::new(WorkerPool::with_workers(2));
            std::thread::spawn(move || {
                run_shard_worker(&root, pool, None, &worker_config(id, ttl)).unwrap()
            })
        })
        .collect();
    for handle in handles {
        let outcome = handle.join().unwrap();
        // Each worker exits only once every job is terminal, whoever ran it.
        assert!(outcome.is_complete(), "queue drained when a worker exits");
    }
    let merged = merge_shards(&sharded, &specs).unwrap();
    assert!(merged.is_complete());

    assert_eq!(
        manifest_bytes(&reference),
        manifest_bytes(&sharded),
        "two-worker merge must be byte-identical to the single-worker run"
    );

    // After a clean drain no claims linger, and --status agrees.
    for row in shard_status(&sharded, &specs, ttl).unwrap() {
        assert_eq!(row.state, "done");
        assert_eq!(row.owner, None, "claims released after completion");
        assert!(row.rounds.is_some(), "rounds surfaced from the report");
    }

    fs::remove_dir_all(&reference).unwrap();
    fs::remove_dir_all(&sharded).unwrap();
}

#[test]
fn stale_takeover_resumes_byte_identically() {
    let specs = test_specs();
    let long_ttl = Duration::from_secs(30);
    let short_ttl = Duration::from_millis(80);

    let reference = scratch("steal-ref");
    write_queue(&reference, &specs).unwrap();
    let pool = Arc::new(WorkerPool::with_workers(2));
    run_shard_worker(
        &reference,
        Arc::clone(&pool),
        None,
        &worker_config("solo", long_ttl),
    )
    .unwrap();
    merge_shards(&reference, &specs).unwrap();

    // Interrupted run: one budget-limited sweep banks a checkpoint per job,
    // then a "dead" worker's unheartbeated claim is planted on the first
    // job's directory and left to go stale.
    let stolen = scratch("steal-resume");
    write_queue(&stolen, &specs).unwrap();
    let mut halted = worker_config("first-life", long_ttl);
    halted.halt_after_rounds = Some(1);
    let outcome = run_shard_worker(&stolen, Arc::clone(&pool), None, &halted).unwrap();
    assert!(!outcome.is_complete(), "budget halt leaves work behind");
    assert!(
        outcome.jobs.iter().any(|j| j.state == "suspended"),
        "checkpoints banked for the next life"
    );
    let first_job_dir = stolen.join(&outcome.jobs[0].job);
    let ClaimOutcome::Acquired(_abandoned) =
        acquire(&first_job_dir, "dead-worker", short_ttl).unwrap()
    else {
        panic!("plant the dead worker's claim");
    };
    std::thread::sleep(short_ttl * 3);
    let status = shard_status(&stolen, &specs, short_ttl).unwrap();
    assert_eq!(status[0].owner.as_deref(), Some("dead-worker"));
    assert!(status[0].stale, "unheartbeated claim ages past the TTL");

    // Second life with a short TTL: steals the stale claim, resumes every
    // job from its checkpoint, and the merge converges to the same bytes.
    let second = run_shard_worker(
        &stolen,
        Arc::clone(&pool),
        None,
        &worker_config("second-life", short_ttl),
    )
    .unwrap();
    assert!(second.is_complete(), "takeover finishes the queue");
    merge_shards(&stolen, &specs).unwrap();
    assert_eq!(
        manifest_bytes(&reference),
        manifest_bytes(&stolen),
        "a stolen, checkpoint-resumed run must merge to the reference bytes"
    );

    fs::remove_dir_all(&reference).unwrap();
    fs::remove_dir_all(&stolen).unwrap();
}
