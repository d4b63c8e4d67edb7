//! Sharded-suite benchmarks: wall-clock scaling of the lease-based work
//! queue with 1/2/4 workers over one small quick suite, and the latency of
//! taking over a dead worker's stale lease.
//!
//! The scaling rows time `run_shard_worker` fleets in-process (threads
//! with distinct worker identities, one compute worker each, so the job is
//! the unit of parallelism — the same shape as `suite-runner --workers N`
//! without fork overhead), ABBA-interleaved across worker counts so clock
//! drift cannot manufacture a speedup.

use clapton_bench::{
    merge_shards, run_shard_worker, write_queue, Options, ShardWorkerConfig, SuiteConfig,
};
use clapton_runtime::{acquire, ClaimOutcome, WorkerPool};
use clapton_service::JobSpec;
use criterion::{criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("clapton-bench-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Four quick jobs at 4 qubits: enough work that workers genuinely
/// interleave, small enough that the ABBA matrix stays fast.
fn bench_specs() -> Vec<JobSpec> {
    let mut specs = SuiteConfig {
        options: Options { effort: 0, seed: 7 },
        qubits: 4,
    }
    .specs();
    specs.truncate(4);
    specs
}

fn median_ns(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One cold shard run: fresh queue directory, `workers` shard threads with
/// distinct identities and one compute worker each, drained and merged.
fn run_fleet(specs: &[JobSpec], workers: usize, tag: &str) -> u128 {
    let root = scratch(tag);
    write_queue(&root, specs).unwrap();
    let t0 = Instant::now();
    let handles: Vec<_> = (0..workers)
        .map(|i| {
            let root = root.clone();
            std::thread::spawn(move || {
                let config = ShardWorkerConfig {
                    worker_id: Some(format!("bench-{i}")),
                    lease_ttl: Duration::from_secs(30),
                    poll: Duration::from_millis(5),
                    ..ShardWorkerConfig::default()
                };
                run_shard_worker(&root, Arc::new(WorkerPool::with_workers(1)), None, &config)
                    .unwrap()
            })
        })
        .collect();
    for handle in handles {
        assert!(handle.join().unwrap().is_complete());
    }
    let merged = merge_shards(&root, specs).unwrap();
    let elapsed = t0.elapsed().as_nanos();
    assert!(merged.is_complete());
    std::fs::remove_dir_all(&root).unwrap();
    elapsed
}

/// `suite_workers_scaling`: the same 4-job quick suite drained by 1, 2,
/// and 4 workers. ABBA interleaving: each round visits the worker counts
/// in alternating order, so slow drift lands evenly on every config.
///
/// On a multi-core host the rows show wall-clock scaling; on a single-core
/// host (CI containers) they instead pin the *coordination overhead* of
/// the lease protocol — extra workers can't speed anything up, so any gap
/// between w1 and w4 is pure claim/heartbeat/sweep traffic, and growth in
/// that gap is a regression.
fn emit_suite_workers_scaling(_c: &mut Criterion) {
    const COUNTS: [usize; 3] = [1, 2, 4];
    const ROUNDS: usize = 4;
    let specs = bench_specs();
    // Warm-up: populate every lazily-built table off the clock.
    run_fleet(&specs, 2, "warmup");
    let mut samples: [Vec<u128>; COUNTS.len()] = [Vec::new(), Vec::new(), Vec::new()];
    for round in 0..ROUNDS {
        let order: Vec<usize> = if round % 2 == 0 {
            (0..COUNTS.len()).collect()
        } else {
            (0..COUNTS.len()).rev().collect()
        };
        for idx in order {
            let tag = format!("w{}-r{round}", COUNTS[idx]);
            samples[idx].push(run_fleet(&specs, COUNTS[idx], &tag));
        }
    }
    for (idx, workers) in COUNTS.iter().enumerate() {
        let best = *samples[idx].iter().min().unwrap();
        let median = median_ns(&mut samples[idx]);
        println!(
            "suite_workers_scaling/quick4_w{workers}: median {:.1} ms, best {:.1} ms",
            median as f64 / 1e6,
            best as f64 / 1e6
        );
        criterion::append_record(
            "suite_workers_scaling",
            &format!("quick4_w{workers}"),
            median,
            best,
            ROUNDS,
        );
    }
}

/// `lease_takeover`: how long a job stays stuck after its owner dies with
/// a 200 ms TTL — from the moment the claim is abandoned to a polling
/// claimant (20 ms sweep, the suite-runner default shape) holding the
/// lease. The floor is TTL + one poll interval.
fn emit_lease_takeover_latency(_c: &mut Criterion) {
    let ttl = Duration::from_millis(200);
    let poll = Duration::from_millis(20);
    let mut samples: Vec<u128> = (0..8)
        .map(|i| {
            let dir = scratch(&format!("takeover-{i}"));
            let ClaimOutcome::Acquired(_abandoned) = acquire(&dir, "dead", ttl).unwrap() else {
                panic!("plant the dead claim");
            };
            let t0 = Instant::now();
            let elapsed = loop {
                match acquire(&dir, "heir", ttl).unwrap() {
                    ClaimOutcome::Acquired(lease) => {
                        let elapsed = t0.elapsed().as_nanos();
                        lease.release().unwrap();
                        break elapsed;
                    }
                    ClaimOutcome::Held { .. } => std::thread::sleep(poll),
                }
            };
            std::fs::remove_dir_all(&dir).unwrap();
            elapsed
        })
        .collect();
    let best = *samples.iter().min().unwrap();
    let count = samples.len();
    let median = median_ns(&mut samples);
    println!(
        "lease_takeover/ttl200ms_poll20ms: median {:.1} ms, best {:.1} ms",
        median as f64 / 1e6,
        best as f64 / 1e6
    );
    criterion::append_record("lease_takeover", "ttl200ms_poll20ms", median, best, count);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = emit_suite_workers_scaling, emit_lease_takeover_latency
}
criterion_main!(benches);
