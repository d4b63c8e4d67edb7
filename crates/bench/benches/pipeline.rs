//! End-to-end pipeline benchmarks: one Clapton loss evaluation (transform +
//! `LN` + `L0`), one full quick optimization — the per-candidate and
//! per-run costs behind Figure 9 — and the dispatch overhead of the
//! `JobSpec`/`ClaptonService` front door.

use clapton_circuits::TransformationAnsatz;
use clapton_core::{
    run_clapton, transform_hamiltonian, ClaptonConfig, EvaluatorKind, ExecutableAnsatz,
    LossFunction, WorkerPool,
};
use clapton_models::{ising, molecular, Molecule};
use clapton_noise::NoiseModel;
use clapton_service::{
    ClaptonService, EngineSpec, JobSpec, MethodSpec, NoiseSpec, ProblemSpec, SuiteProblem,
    UniformNoise,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_loss_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("clapton_loss_eval");
    let cases = [
        ("ising10", ising(10, 0.25)),
        ("xxz10", clapton_models::xxz(10, 1.0)),
        ("H2O", molecular(Molecule::H2O, 1.0)),
        ("H6", molecular(Molecule::H6, 1.0)),
    ];
    for (name, h) in &cases {
        let n = h.num_qubits();
        let model = NoiseModel::uniform(n, 3e-4, 8e-3, 2e-2);
        let exec = ExecutableAnsatz::untranspiled(n, &model);
        let loss = LossFunction::new(&exec, EvaluatorKind::Exact);
        let t_ansatz = TransformationAnsatz::new(n);
        let gamma: Vec<u8> = (0..t_ansatz.num_genes()).map(|i| (i % 4) as u8).collect();
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, _| {
            b.iter(|| {
                let transformed = transform_hamiltonian(black_box(h), &t_ansatz.gates(&gamma));
                loss.total(&transformed)
            });
        });
    }
    group.finish();
}

fn bench_full_quick_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("clapton_quick_run");
    group.sample_size(10);
    // Inline, as this row has always measured: one search on one thread.
    let pool = Arc::new(WorkerPool::with_workers(0));
    for n in [6usize, 10] {
        let h = ising(n, 0.25);
        let model = NoiseModel::uniform(n, 3e-4, 8e-3, 2e-2);
        let exec = ExecutableAnsatz::untranspiled(n, &model);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| run_clapton(black_box(&h), &exec, &ClaptonConfig::quick(1), &pool));
        });
    }
    group.finish();
}

/// Pins the cost of the declarative front door: parsing a spec from JSON
/// plus `validate()` (the pure dispatch work every submission pays) against
/// the direct `run_clapton` call it routes to, on the service's own pool,
/// and the full `ClaptonService::run` of the same job. The headline
/// `dispatch_overhead_pct` row asserts the front door stays off the hot
/// path — parse + validate is microseconds against a run of hundreds of
/// milliseconds.
fn emit_service_dispatch_overhead(_c: &mut Criterion) {
    let n = 6;
    let (p1, p2, readout) = (3e-4, 8e-3, 2e-2);
    let h = ising(n, 0.25);
    let model = NoiseModel::uniform(n, p1, p2, readout);
    let exec = ExecutableAnsatz::untranspiled(n, &model);
    let mut spec = JobSpec::new(ProblemSpec::Suite(SuiteProblem {
        name: "ising(J=0.25)".to_string(),
        qubits: n,
    }));
    spec.noise = NoiseSpec::Uniform(UniformNoise {
        p1,
        p2,
        readout,
        t1: None,
    });
    spec.methods = vec![MethodSpec::Clapton];
    spec.engine = EngineSpec::Quick;
    spec.seed = 1;
    let spec_json = serde_json::to_string(&spec).expect("spec serializes");
    let service = ClaptonService::new();

    fn median_ns(samples: &mut [u128]) -> u128 {
        samples.sort_unstable();
        samples[samples.len() / 2]
    }
    fn time(f: &mut dyn FnMut()) -> u128 {
        let t0 = std::time::Instant::now();
        f();
        t0.elapsed().as_nanos()
    }

    // Pure dispatch: parse + validate, amortized over many reps per sample.
    const PARSE_REPS: u128 = 200;
    let mut parse_samples: Vec<u128> = (0..12)
        .map(|_| {
            time(&mut || {
                for _ in 0..PARSE_REPS {
                    let parsed: JobSpec =
                        serde_json::from_str(black_box(&spec_json)).expect("parses");
                    black_box(parsed.validate().expect("validates"));
                }
            }) / PARSE_REPS
        })
        .collect();

    // Direct engine call vs the same job through the service, interleaved
    // so clock drift cannot manufacture an overhead.
    let mut direct_samples = Vec::new();
    let mut service_samples = Vec::new();
    let pool = service.pool();
    black_box(run_clapton(&h, &exec, &ClaptonConfig::quick(1), pool));
    black_box(service.run(spec.clone()).expect("job converges"));
    for round in 0..4 {
        let run_direct = &mut || {
            black_box(run_clapton(
                black_box(&h),
                &exec,
                &ClaptonConfig::quick(1),
                pool,
            ));
        };
        let run_service = &mut || {
            let parsed: JobSpec = serde_json::from_str(&spec_json).expect("parses");
            black_box(service.run(parsed).expect("job converges"));
        };
        if round % 2 == 0 {
            direct_samples.push(time(run_direct));
            service_samples.push(time(run_service));
        } else {
            service_samples.push(time(run_service));
            direct_samples.push(time(run_direct));
        }
    }
    let parse_validate = median_ns(&mut parse_samples);
    let direct = median_ns(&mut direct_samples);
    let through_service = median_ns(&mut service_samples);
    let overhead_pct = 100.0 * parse_validate as f64 / direct.max(1) as f64;
    println!(
        "service_dispatch_overhead: parse+validate {parse_validate} ns, direct {direct} ns, \
         via service {through_service} ns ({overhead_pct:.4}% dispatch overhead)"
    );
    criterion::append_line(&format!(
        "{{\"group\":\"service_dispatch_overhead\",\"id\":\"ising6_quick\",\
         \"parse_validate_ns\":{parse_validate},\"direct_ns\":{direct},\
         \"service_ns\":{through_service},\"dispatch_overhead_pct\":{overhead_pct:.4}}}"
    ));
}

/// Pins the cost of putting the front door on a socket: the full loopback
/// `POST /v1/jobs` → `202` round trip (HTTP parse, admission control,
/// durable queue record, response) against the in-process
/// `admit()` + `inspect()` the server wraps. The server runs
/// admission-only (`dispatchers: 0`) so no job execution competes with the
/// submissions being timed.
fn emit_server_submit_overhead(_c: &mut Criterion) {
    use clapton_server::client::Client;
    use clapton_server::{AdmissionConfig, Server, ServerConfig};

    fn spec_for(seed: u64) -> JobSpec {
        let mut spec = JobSpec::new(ProblemSpec::Suite(SuiteProblem {
            name: "ising(J=0.25)".to_string(),
            qubits: 6,
        }));
        spec.noise = NoiseSpec::Uniform(UniformNoise {
            p1: 3e-4,
            p2: 8e-3,
            readout: 2e-2,
            t1: None,
        });
        spec.methods = vec![MethodSpec::Clapton];
        spec.engine = EngineSpec::Quick;
        spec.seed = seed;
        spec
    }
    fn median_ns(samples: &mut [u128]) -> u128 {
        samples.sort_unstable();
        samples[samples.len() / 2]
    }

    let root = std::env::temp_dir().join(format!("clapton-bench-server-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = ServerConfig {
        dispatchers: 0,
        pool_workers: 1,
        admission: AdmissionConfig {
            queue_depth: 4096,
            ..AdmissionConfig::default()
        },
        ..ServerConfig::new(&root)
    };
    let server = Server::bind(config).expect("bind benchmark server");
    let handle = server.handle();
    let addr = handle.local_addr().to_string();
    let serve = std::thread::spawn(move || server.serve().expect("serve"));
    let client = Client::new(addr);

    // Warm up the accept path, then time each submission individually
    // (distinct seeds: every submission admits a fresh job rather than
    // short-circuiting on an already-admitted artifact directory).
    for seed in 0..4u64 {
        let json = serde_json::to_string(&spec_for(seed)).expect("spec serializes");
        assert_eq!(client.submit(&json).expect("warmup submit").status, 202);
    }
    let mut submit_samples: Vec<u128> = (100..140u64)
        .map(|seed| {
            let json = serde_json::to_string(&spec_for(seed)).expect("spec serializes");
            let t0 = std::time::Instant::now();
            let response = client.submit(&json).expect("submit");
            let elapsed = t0.elapsed().as_nanos();
            assert_eq!(response.status, 202, "{}", response.body);
            elapsed
        })
        .collect();
    let submit = median_ns(&mut submit_samples);
    handle.drain();
    serve.join().expect("serve thread");

    // The in-process work the server wraps: validate + artifact-directory
    // prepare + artifact inspection, on a fresh service over the same root.
    let service = ClaptonService::new()
        .with_artifacts(root.join("artifacts"))
        .expect("artifact root");
    let mut admit_samples: Vec<u128> = (200..240u64)
        .map(|seed| {
            let spec = spec_for(seed);
            let t0 = std::time::Instant::now();
            let admitted = service.admit(black_box(spec)).expect("admit");
            black_box(service.inspect(&admitted).expect("inspect"));
            t0.elapsed().as_nanos()
        })
        .collect();
    let admit = median_ns(&mut admit_samples);
    let _ = std::fs::remove_dir_all(&root);

    let network_overhead_ns = submit.saturating_sub(admit);
    println!(
        "server_submit_overhead: loopback POST->202 {submit} ns, in-process \
         admit+inspect {admit} ns ({network_overhead_ns} ns HTTP+persist overhead)"
    );
    criterion::append_line(&format!(
        "{{\"group\":\"server_submit_overhead\",\"id\":\"ising6_quick_loopback\",\
         \"submit_ns\":{submit},\"admit_ns\":{admit},\
         \"network_overhead_ns\":{network_overhead_ns}}}"
    ));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_loss_evaluation, bench_full_quick_run, emit_service_dispatch_overhead,
        emit_server_submit_overhead
}
criterion_main!(benches);
