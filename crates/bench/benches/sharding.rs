//! Sharded-suite benchmarks: wall-clock scaling of the lease-based work
//! queue with 1/2/4 workers over one small quick suite, the latency of
//! taking over a dead worker's stale lease, and what one round's checkpoint
//! costs a job as its rounds accumulate. Two job-phase groups ride along:
//! the `e0` span of a first and a repeat job on one service, and reading a
//! finished job's report back.
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
    ClaptonError, ClaptonService, EngineSpec, JobArtifactState, JobSpec, MethodSpec, NoiseSpec,
    ProblemSpec, Report, SuiteProblem, UniformNoise,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::path::{Path, PathBuf};
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

/// A quick Clapton-only job of the repo benchmark's shape on `problem`:
/// N = 10 under uniform noise (3e-4, 8e-3, 2e-2), on the quick engine with
/// `max_retry_rounds = max_rounds` (all eight rounds).
fn quick_job(problem: &str, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(ProblemSpec::Suite(SuiteProblem {
        name: problem.to_string(),
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
    spec.seed = seed;
    spec
}

/// A service with two compute workers and an artifact root at `root`.
fn artifact_service(root: &Path) -> ClaptonService {
    ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(2)))
        .with_artifacts(root)
        .unwrap()
}

/// The run directory `spec`'s job owns under `root`.
fn job_dir(root: &Path, spec: &JobSpec) -> PathBuf {
    root.join(artifact_slug(&format!(
        "{}-seed{}",
        spec.display_name(),
        spec.seed
    )))
}

/// The durations of a finished job's `name` spans, in start order, from
/// its own `telemetry.jsonl`.
fn span_ns(job_dir: &Path, name: &str) -> Vec<u128> {
    let jsonl = std::fs::read_to_string(job_dir.join("telemetry.jsonl")).unwrap();
    let mut spans: Vec<_> = clapton_telemetry::from_jsonl(&jsonl)
        .unwrap()
        .into_iter()
        .filter(|s| s.name == name)
        .collect();
    spans.sort_by_key(|s| s.start_ns);
    spans.iter().map(|s| u128::from(s.duration_ns())).collect()
}

/// `checkpoint_cost`: the cost of round 1's and round 7's checkpoint in
/// one quick `ising(J=0.25)` job ([`quick_job`]) through `ClaptonService`
/// with artifacts. `median_ns`/`best_ns` come from the job's own
/// `checkpoint` spans over repeated fresh jobs; `bytes` is that round's
/// memo segment plus its `checkpoint.json`, measured by running the same
/// job one round per submission. Flat rows mean a checkpoint costs
/// O(round delta), not O(rounds so far).
fn emit_checkpoint_cost(_c: &mut Criterion) {
    const REPS: usize = 7;
    const ROUNDS: [usize; 2] = [1, 7];
    let spec = quick_job("ising(J=0.25)", 11);
    let mut samples: Vec<Vec<u128>> = vec![Vec::new(); ROUNDS.len()];
    for rep in 0..REPS {
        let root = scratch(&format!("checkpoint-cost-{rep}"));
        artifact_service(&root).run(spec.clone()).unwrap();
        let spans = span_ns(&job_dir(&root, &spec), "checkpoint");
        for (slot, round) in samples.iter_mut().zip(ROUNDS) {
            slot.push(spans[round - 1]);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
    let root = scratch("checkpoint-cost-bytes");
    let svc = artifact_service(&root);
    let mut budgeted = spec.clone();
    budgeted.budget = Some(1);
    let mut bytes = Vec::new();
    for round in 1..=*ROUNDS.iter().max().unwrap() {
        assert!(matches!(
            svc.run(budgeted.clone()),
            Err(ClaptonError::Suspended { .. })
        ));
        let size = |name: &str| {
            std::fs::metadata(job_dir(&root, &spec).join(name))
                .unwrap()
                .len()
        };
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

/// `e0_memo`: the `e0` span of a first and of a repeat quick `H6(l=1.0)`
/// job ([`quick_job`]) on one `ClaptonService` with artifacts (ids
/// `H6/first`, `H6/repeat`), read from each job's own `telemetry.jsonl`
/// over fresh services. The first job solves Lanczos; the repeat, another
/// seed on the same problem, reads the service's ground-energy memo.
fn emit_e0_memo(_c: &mut Criterion) {
    const REPS: usize = 5;
    let mut samples = [Vec::new(), Vec::new()];
    for rep in 0..REPS {
        let root = scratch(&format!("e0-memo-{rep}"));
        let svc = artifact_service(&root);
        for (slot, seed) in samples.iter_mut().zip([21, 22]) {
            let spec = quick_job("H6(l=1.0)", seed);
            svc.run(spec.clone()).unwrap();
            slot.extend(span_ns(&job_dir(&root, &spec), "e0"));
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
    for (slot, id) in samples.iter_mut().zip(["H6/first", "H6/repeat"]) {
        assert_eq!(slot.len(), REPS, "one e0 span per job");
        let best = *slot.iter().min().unwrap();
        let median = median_ns(slot);
        println!(
            "e0_memo/{id}: median {:.3} ms, best {:.3} ms",
            median as f64 / 1e6,
            best as f64 / 1e6
        );
        criterion::append_record("e0_memo", id, median, best, REPS);
    }
}

/// `report_json`: reading back a finished quick `H6(l=1.0)` job's report
/// ([`quick_job`]). `H6/parse` and `H6/serialize` time `serde_json` on the
/// compact report (`bytes` = its length); `H6/inspect` times
/// `ClaptonService::inspect` of the finished job, which reads, verifies
/// and parses the enveloped pretty `report.json` (`bytes` = its size on
/// disk) — what a resubmission answered at admission pays.
fn emit_report_json(_c: &mut Criterion) {
    const REPS: usize = 21;
    let root = scratch("report-json");
    let svc = artifact_service(&root);
    let spec = quick_job("H6(l=1.0)", 21);
    let report = svc.run(spec.clone()).unwrap();
    let compact = serde_json::to_string(&report).unwrap();
    let reparsed: Report = serde_json::from_str(&compact).unwrap();
    assert_eq!(serde_json::to_string(&reparsed).unwrap(), compact);
    let on_disk = std::fs::metadata(job_dir(&root, &spec).join("report.json"))
        .unwrap()
        .len();
    let admitted = svc.admit(spec).unwrap();
    let time = |run: &mut dyn FnMut()| -> Vec<u128> {
        (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                run();
                t0.elapsed().as_nanos()
            })
            .collect()
    };
    let rows = [
        (
            "H6/parse",
            time(&mut || {
                black_box(serde_json::from_str::<Report>(black_box(&compact)).unwrap());
            }),
            compact.len() as u64,
        ),
        (
            "H6/serialize",
            time(&mut || {
                black_box(serde_json::to_string(black_box(&report)).unwrap());
            }),
            compact.len() as u64,
        ),
        (
            "H6/inspect",
            time(&mut || {
                let state = svc.inspect(&admitted).unwrap();
                assert!(matches!(state, JobArtifactState::Done(_)));
            }),
            on_disk,
        ),
    ];
    std::fs::remove_dir_all(&root).unwrap();
    for (id, mut samples, bytes) in rows {
        let best = *samples.iter().min().unwrap();
        let median = median_ns(&mut samples);
        println!(
            "report_json/{id}: median {:.3} ms, best {:.3} ms, {bytes} bytes",
            median as f64 / 1e6,
            best as f64 / 1e6
        );
        criterion::append_line(&format!(
            "{{\"group\":\"report_json\",\"id\":\"{id}\",\"median_ns\":{median},\"best_ns\":{best},\"samples\":{REPS},\"bytes\":{bytes}}}"
        ));
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = emit_suite_workers_scaling, emit_lease_takeover_latency, emit_checkpoint_cost,
        emit_e0_memo, emit_report_json
}
criterion_main!(benches);
