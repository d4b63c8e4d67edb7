//! Sharded-suite benchmarks: wall-clock scaling of the lease-based work
//! queue with 1/2/4 workers over one small quick suite, the latency of
//! taking over a dead worker's stale lease, and what one round's checkpoint
//! costs a job as its rounds accumulate.
//!
//! The scaling rows time `run_shard_worker` fleets in-process (threads
//! with distinct worker identities, one compute worker each, so the job is
//! the unit of parallelism — the same shape as `suite-runner --workers N`
//! without fork overhead), ABBA-interleaved across worker counts so clock
//! drift cannot manufacture a speedup.

use clapton_bench::{
    merge_shards, run_shard_worker, write_queue, Options, ShardWorkerConfig, SuiteConfig,
};
use clapton_core::EvaluatorKind;
use clapton_ga::MultiGaConfig;
use clapton_runtime::{acquire, artifact_slug, ClaimOutcome, WorkerPool};
use clapton_service::{
    ClaptonError, ClaptonService, EngineSpec, JobSpec, MethodSpec, NoiseSpec, ProblemSpec,
    SuiteProblem, UniformNoise,
};
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

/// One ising10 job of the repo benchmark's shape: `ising(J=0.25)` at
/// N = 10 under uniform noise (3e-4, 8e-3, 2e-2), Clapton only, on the
/// quick engine with `max_retry_rounds = max_rounds` (all eight rounds).
fn checkpoint_cost_spec() -> JobSpec {
    let mut spec = JobSpec::new(ProblemSpec::Suite(SuiteProblem {
        name: "ising(J=0.25)".to_string(),
        qubits: 10,
    }));
    spec.noise = NoiseSpec::Uniform(UniformNoise {
        p1: 3e-4,
        p2: 8e-3,
        readout: 2e-2,
        t1: None,
    });
    spec.methods = vec![MethodSpec::Clapton];
    let mut engine = MultiGaConfig::quick();
    engine.max_retry_rounds = engine.max_rounds;
    spec.engine = EngineSpec::Custom(engine);
    spec.evaluator = EvaluatorKind::Exact;
    spec.seed = 11;
    spec
}

/// `checkpoint_cost`: the cost of round 1's and round 7's checkpoint in
/// one [`checkpoint_cost_spec`] job through `ClaptonService` with
/// artifacts. `median_ns`/`best_ns` come from the job's own `checkpoint`
/// spans over repeated fresh jobs; `bytes` is that round's memo segment
/// plus its `checkpoint.json`, measured by running the same job one round
/// per submission. Flat rows mean a checkpoint costs O(round delta), not
/// O(rounds so far).
fn emit_checkpoint_cost(_c: &mut Criterion) {
    const REPS: usize = 7;
    const ROUNDS: [usize; 2] = [1, 7];
    let spec = checkpoint_cost_spec();
    let job_dir = |root: &std::path::Path| {
        root.join(artifact_slug(&format!("ising(J=0.25)-seed{}", spec.seed)))
    };
    let service = |root: &std::path::Path| {
        ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(2)))
            .with_artifacts(root)
            .unwrap()
    };
    let mut samples: Vec<Vec<u128>> = vec![Vec::new(); ROUNDS.len()];
    for rep in 0..REPS {
        let root = scratch(&format!("checkpoint-cost-{rep}"));
        service(&root).run(spec.clone()).unwrap();
        let jsonl = std::fs::read_to_string(job_dir(&root).join("telemetry.jsonl")).unwrap();
        let mut spans: Vec<_> = clapton_telemetry::from_jsonl(&jsonl)
            .unwrap()
            .into_iter()
            .filter(|s| s.name == "checkpoint")
            .collect();
        spans.sort_by_key(|s| s.start_ns);
        for (slot, round) in samples.iter_mut().zip(ROUNDS) {
            slot.push(u128::from(spans[round - 1].duration_ns()));
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
    let root = scratch("checkpoint-cost-bytes");
    let svc = service(&root);
    let mut budgeted = spec.clone();
    budgeted.budget = Some(1);
    let mut bytes = Vec::new();
    for round in 1..=*ROUNDS.iter().max().unwrap() {
        assert!(matches!(
            svc.run(budgeted.clone()),
            Err(ClaptonError::Suspended { .. })
        ));
        let size = |name: &str| std::fs::metadata(job_dir(&root).join(name)).unwrap().len();
        bytes.push(size(&format!("memo-{:05}.seg", round - 1)) + size("checkpoint.json"));
    }
    std::fs::remove_dir_all(&root).unwrap();
    for (slot, round) in samples.iter_mut().zip(ROUNDS) {
        let best = *slot.iter().min().unwrap();
        let median = median_ns(slot);
        let bytes = bytes[round - 1];
        println!(
            "checkpoint_cost/ising10/round{round}: median {:.3} ms, best {:.3} ms, {bytes} bytes",
            median as f64 / 1e6,
            best as f64 / 1e6
        );
        criterion::append_line(&format!(
            "{{\"group\":\"checkpoint_cost\",\"id\":\"ising10/round{round}\",\"median_ns\":{median},\"best_ns\":{best},\"samples\":{REPS},\"bytes\":{bytes}}}"
        ));
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = emit_suite_workers_scaling, emit_lease_takeover_latency, emit_checkpoint_cost
}
criterion_main!(benches);
