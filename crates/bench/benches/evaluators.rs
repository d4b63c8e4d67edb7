//! Ablation bench (DESIGN.md): exact Pauli back-propagation vs stim-style
//! frame sampling for the noisy loss `LN` — the design choice that makes
//! this reproduction's default loss deterministic — plus the
//! population-batch evaluation paths of the `LossEvaluator` API
//! (sequential vs pooled vs cached) and the per-genome cost of the Clapton
//! objective's materialized and fused exact paths (`loss_eval_breakdown`).
//!
//! The sampled rows exercise the bit-parallel frame sampler, whose 64-shot
//! error frames travel as the lanes of a `TermBatch` (`ln_sampled_*`), its
//! scalar one-frame-per-shot reference
//! (`ln_sampled_scalar_*`), and emit an explicit batched-vs-scalar speedup
//! record so regressions of the word-level path are visible directly in
//! `BENCH_results.json`.

use clapton_circuits::{HardwareEfficientAnsatz, TransformationAnsatz};
use clapton_core::{
    CachedEvaluator, EvaluatorKind, ExecutableAnsatz, LossEvaluator, PooledEvaluator,
    TransformLoss, WorkerPool,
};
use clapton_models::{ising, molecular, xxz, Molecule};
use clapton_noise::{ExactEvaluator, FrameSampler, NoiseModel, NoisyCircuit};
use clapton_pauli::{Pauli, PauliString, PauliSum};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

fn noisy_zero_circuit(n: usize) -> NoisyCircuit {
    let ansatz = HardwareEfficientAnsatz::new(n);
    let model = NoiseModel::uniform(n, 3e-4, 8e-3, 2e-2);
    NoisyCircuit::from_circuit(&ansatz.circuit_at_zero(), &model).expect("Clifford at zero")
}

/// XXZ chain plus transverse Z fields: `4n - 3` terms, so `n = 20` gives a
/// 77-term Hamiltonian — past the 64-lane word boundary of the batched
/// exact path (the `M ≥ 64` regime of molecule-scale problems).
fn xxz_field(n: usize) -> PauliSum {
    let mut h = xxz(n, 1.0);
    for q in 0..n {
        h.push(0.5, PauliString::single(n, q, Pauli::Z));
    }
    h
}

fn bench_exact_energy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ln_exact");
    for n in [10usize, 20, 40] {
        let h = ising(n, 0.25);
        let nc = noisy_zero_circuit(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let eval = ExactEvaluator::new(&nc);
            b.iter(|| eval.energy(black_box(&h)));
        });
    }
    group.finish();
}

fn bench_exact_batched(c: &mut Criterion) {
    // The bit-parallel batched exact path (64 terms per circuit walk) on
    // Hamiltonians past the 64-lane boundary.
    let mut group = c.benchmark_group("ln_exact_batched");
    for n in [20usize, 40] {
        let h = xxz_field(n);
        let nc = noisy_zero_circuit(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let eval = ExactEvaluator::new(&nc);
            b.iter(|| eval.energy(black_box(&h)));
        });
    }
    group.finish();
}

/// Measures the batched-vs-scalar *exact* back-propagation speedup directly
/// and appends it to the BENCH results file — same counterbalanced ABBA
/// interleaving as the sampled-path speedup, so row-order clock drift can't
/// manufacture (or hide) the headline ratio.
fn emit_exact_speedup(_c: &mut Criterion) {
    for n in [20usize, 40] {
        let h = xxz_field(n);
        let nc = noisy_zero_circuit(n);
        let eval = ExactEvaluator::new(&nc);
        // One timed sample = REPS full-Hamiltonian energies (single calls
        // are microseconds — too close to timer noise on a shared box).
        const REPS: usize = 24;
        let mut run_batched = || {
            for _ in 0..REPS {
                black_box(eval.energy(black_box(&h)));
            }
        };
        let mut run_scalar = || {
            for _ in 0..REPS {
                black_box(eval.energy_scalar(black_box(&h)));
            }
        };
        let (batched_samples, scalar_samples) =
            counterbalanced_samples(12, &mut run_batched, &mut run_scalar);
        let (batched, scalar) = (
            median(batched_samples) / REPS as u128,
            median(scalar_samples) / REPS as u128,
        );
        let speedup = scalar as f64 / batched.max(1) as f64;
        println!(
            "ln_exact_speedup/{n}: {speedup:.1}x (scalar {scalar} ns / batched {batched} ns, {} terms)",
            h.num_terms()
        );
        criterion::append_line(&format!(
            "{{\"group\":\"ln_exact_speedup\",\"id\":\"{n}\",\"batched_ns\":{batched},\"scalar_ns\":{scalar},\"speedup_x\":{speedup:.2}}}"
        ));
    }
}

fn bench_sampled_energy(c: &mut Criterion) {
    // The bit-parallel default path (64 shots per circuit pass).
    let mut group = c.benchmark_group("ln_sampled_256shots");
    group.sample_size(10);
    for n in [10usize, 20] {
        let h = ising(n, 0.25);
        let nc = noisy_zero_circuit(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let sampler = FrameSampler::new(&nc);
            let mut rng = StdRng::seed_from_u64(5);
            b.iter(|| sampler.energy(black_box(&h), 256, &mut rng));
        });
    }
    group.finish();
}

fn bench_sampled_energy_scalar(c: &mut Criterion) {
    // The one-frame-per-shot reference the batch kernel replaced.
    let mut group = c.benchmark_group("ln_sampled_scalar_256shots");
    group.sample_size(10);
    for n in [10usize, 20] {
        let h = ising(n, 0.25);
        let nc = noisy_zero_circuit(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let sampler = FrameSampler::new(&nc);
            let mut rng = StdRng::seed_from_u64(5);
            b.iter(|| {
                black_box(&h)
                    .iter()
                    .map(|(coeff, p)| coeff * sampler.expectation_scalar(p, 256, &mut rng))
                    .sum::<f64>()
            });
        });
    }
    group.finish();
}

fn median(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The shared counterbalanced interleaving behind every head-to-head
/// measurement: one warmup call each, then `rounds` rounds alternating
/// ABBA / BAAB, so slow clock drift across the bench run (very visible on
/// small containers) cancels instead of systematically penalizing either
/// contender, and neither systematically owns the sequence boundaries.
/// Returns the raw nanosecond samples `(a, b)`.
fn counterbalanced_samples(
    rounds: usize,
    run_a: &mut dyn FnMut(),
    run_b: &mut dyn FnMut(),
) -> (Vec<u128>, Vec<u128>) {
    let mut samples_a = Vec::with_capacity(2 * rounds);
    let mut samples_b = Vec::with_capacity(2 * rounds);
    run_a();
    run_b();
    fn time(f: &mut dyn FnMut()) -> u128 {
        let t0 = std::time::Instant::now();
        f();
        t0.elapsed().as_nanos()
    }
    for round in 0..rounds {
        if round % 2 == 0 {
            samples_a.push(time(run_a));
            samples_b.push(time(run_b));
            samples_b.push(time(run_b));
            samples_a.push(time(run_a));
        } else {
            samples_b.push(time(run_b));
            samples_a.push(time(run_a));
            samples_a.push(time(run_a));
            samples_b.push(time(run_b));
        }
    }
    (samples_a, samples_b)
}

/// Measures the batched-vs-scalar sampled-path speedup directly and appends
/// it to the BENCH results file, so a regression of the word-level kernel
/// shows up as a number, not as two rows someone has to divide. Samples are
/// interleaved via [`counterbalanced_samples`]: a ratio of two back-to-back
/// blocks would bake row-order clock drift into the headline metric.
fn emit_sampled_speedup(_c: &mut Criterion) {
    for n in [10usize, 20] {
        let h = ising(n, 0.25);
        let nc = noisy_zero_circuit(n);
        let sampler = FrameSampler::new(&nc);
        // One RNG stream shared by both contenders (cell-wrapped so each
        // closure can borrow it in turn).
        let rng = std::cell::RefCell::new(StdRng::seed_from_u64(5));
        let mut run_batched = || {
            black_box(sampler.energy(black_box(&h), 256, &mut *rng.borrow_mut()));
        };
        let mut run_scalar = || {
            let rng = &mut *rng.borrow_mut();
            let e: f64 = black_box(&h)
                .iter()
                .map(|(coeff, p)| coeff * sampler.expectation_scalar(p, 256, rng))
                .sum();
            black_box(e);
        };
        let (batched_samples, scalar_samples) =
            counterbalanced_samples(5, &mut run_batched, &mut run_scalar);
        let (batched, scalar) = (median(batched_samples), median(scalar_samples));
        let speedup = scalar as f64 / batched.max(1) as f64;
        println!(
            "ln_sampled_speedup/{n}: {speedup:.1}x (scalar {scalar} ns / batched {batched} ns)"
        );
        criterion::append_line(&format!(
            "{{\"group\":\"ln_sampled_speedup\",\"id\":\"{n}\",\"batched_ns\":{batched},\"scalar_ns\":{scalar},\"speedup_x\":{speedup:.2}}}"
        ));
    }
}

/// Measures the cost of leaving telemetry enabled on two hot paths, each
/// budgeted at under 2%: the exact evaluator kernel and the pooled
/// population batch. Enabled-vs-disabled runs are ABBA-interleaved via
/// [`counterbalanced_samples`] over 24 rounds; the disabled contender runs
/// under `set_enabled(false)`, the one off switch (one relaxed atomic load
/// per instrument site). A sample repeats its workload back to back for at
/// least 2 ms, so a sub-millisecond batch is not timed alone.
///
/// Each enabled sample is paired with the disabled one timed next to it,
/// and the row records the quartiles of the paired differences (percent of
/// the disabled time). The budget is `within` when the upper quartile is
/// below 2%, `over` when the lower one is above it, and `unresolved` when
/// the interquartile range contains it: the host's scatter then says more
/// than the row.
fn emit_telemetry_overhead(_c: &mut Criterion) {
    let n = 20;
    let h_exact = ising(n, 0.25);
    let nc = noisy_zero_circuit(n);
    let exact = ExactEvaluator::new(&nc);

    let np = 10;
    let h_pop = ising(np, 0.25);
    let model = NoiseModel::uniform(np, 3e-4, 8e-3, 2e-2);
    let exec = ExecutableAnsatz::untranspiled(np, &model);
    let ansatz = TransformationAnsatz::new(np);
    let loss = TransformLoss::new(&h_pop, &exec, &ansatz, EvaluatorKind::Exact);
    let mut rng = StdRng::seed_from_u64(17);
    let population: Vec<Vec<u8>> = (0..96)
        .map(|_| {
            (0..ansatz.num_genes())
                .map(|_| rng.gen_range(0..4u8))
                .collect()
        })
        .collect();
    let pool = Arc::new(WorkerPool::new());
    let pooled = PooledEvaluator::new(&loss, pool);

    type Workload<'a> = Box<dyn FnMut() + 'a>;
    let cases: Vec<(&str, Workload)> = vec![
        (
            "ln_exact",
            Box::new(move || {
                for _ in 0..20 {
                    black_box(exact.energy(black_box(&h_exact)));
                }
            }),
        ),
        (
            "population_batch_96",
            Box::new(move || {
                black_box(pooled.evaluate_population(black_box(&population)));
            }),
        ),
    ];
    const BUDGET_PCT: f64 = 2.0;
    for (id, mut run) in cases {
        // Back-to-back repetitions lasting at least 2 ms, from a warm call.
        run();
        let t0 = std::time::Instant::now();
        run();
        let reps = (2_000_000 / t0.elapsed().as_nanos().max(1)) as usize + 1;
        // Cell-wrapped so the enabled and disabled contenders can borrow
        // the same workload in turn (the interleaving never overlaps them).
        let run = std::cell::RefCell::new(run);
        let mut run_enabled = || {
            clapton_telemetry::set_enabled(true);
            for _ in 0..reps {
                (run.borrow_mut())();
            }
        };
        let mut run_disabled = || {
            clapton_telemetry::set_enabled(false);
            for _ in 0..reps {
                (run.borrow_mut())();
            }
        };
        let (enabled_samples, disabled_samples) =
            counterbalanced_samples(24, &mut run_enabled, &mut run_disabled);
        clapton_telemetry::set_enabled(true);
        // `counterbalanced_samples` pushes the two sides' k-th samples next
        // to each other in time.
        let mut differences: Vec<f64> = enabled_samples
            .iter()
            .zip(&disabled_samples)
            .map(|(&on, &off)| (on as f64 - off as f64) / off.max(1) as f64 * 100.0)
            .collect();
        differences.sort_by(f64::total_cmp);
        let quartile = |k: usize| differences[k * (differences.len() - 1) / 4];
        let (q1, overhead_pct, q3) = (quartile(1), quartile(2), quartile(3));
        let budget = if q3 < BUDGET_PCT {
            "within"
        } else if q1 > BUDGET_PCT {
            "over"
        } else {
            "unresolved"
        };
        let per_run = |samples: Vec<u128>| median(samples) / reps as u128;
        let (enabled, disabled) = (per_run(enabled_samples), per_run(disabled_samples));
        println!(
            "telemetry_overhead/{id}: {overhead_pct:+.2}% (IQR {q1:+.2}% to {q3:+.2}%, \
             {budget} the <2% budget; enabled {enabled} ns / disabled {disabled} ns, \
             {reps} runs per sample)"
        );
        criterion::append_line(&format!(
            "{{\"group\":\"telemetry_overhead\",\"id\":\"{id}\",\"enabled_ns\":{enabled},\"disabled_ns\":{disabled},\"overhead_pct\":{overhead_pct:.2},\"overhead_q1_pct\":{q1:.2},\"overhead_q3_pct\":{q3:.2},\"budget\":\"{budget}\"}}"
        ));
    }
}

/// Measures the cost of a *disarmed* failpoint on the exact evaluator
/// kernel (the issue budgets <1%): the instrumented contender pays one
/// `failpoint::check` — a single relaxed atomic load when no schedule is
/// installed — per energy call. ABBA-interleaved, like every head-to-head
/// row, so clock drift cannot manufacture an overhead.
fn emit_failpoint_overhead(_c: &mut Criterion) {
    use clapton_runtime::failpoint;
    let n = 20;
    let h = ising(n, 0.25);
    let nc = noisy_zero_circuit(n);
    let eval = ExactEvaluator::new(&nc);
    assert!(
        !failpoint::armed(),
        "benches must run with no fault schedule"
    );
    const REPS: usize = 20;
    let mut run_probed = || {
        for _ in 0..REPS {
            failpoint::check("bench.probe").expect("disarmed probe never fires");
            black_box(eval.energy(black_box(&h)));
        }
    };
    let mut run_plain = || {
        for _ in 0..REPS {
            black_box(eval.energy(black_box(&h)));
        }
    };
    let (probed_samples, plain_samples) =
        counterbalanced_samples(12, &mut run_probed, &mut run_plain);
    let (probed, plain) = (median(probed_samples), median(plain_samples));
    let overhead_pct = (probed as f64 - plain as f64) / plain.max(1) as f64 * 100.0;
    println!(
        "failpoint_overhead/ln_exact: {overhead_pct:+.2}% \
         (probed {probed} ns / plain {plain} ns, budget <1%)"
    );
    criterion::append_line(&format!(
        "{{\"group\":\"failpoint_overhead\",\"id\":\"ln_exact\",\"probed_ns\":{probed},\"plain_ns\":{plain},\"overhead_pct\":{overhead_pct:.2}}}"
    ));
}

/// The persistent report store head-to-head (docs/CACHING.md): a quick
/// Clapton job on the six-qubit Ising benchmark run *cold* (empty store —
/// the full GA search plus the report's store write) vs *warm* (a
/// pre-warmed store on a fresh artifact root — the report answered from
/// disk at admission). ABBA-interleaved like every head-to-head row; the
/// warm path is budgeted ≥ 10× faster than cold. Also emits what a cold job
/// pays for having a store attached (the cache-*off* path is the unchanged
/// code every other group measures) and the cross-run hit rate of running a
/// reduced suite twice against one store.
fn emit_report_cache(_c: &mut Criterion) {
    use clapton_bench::{Options, SuiteConfig};
    use clapton_service::{
        CacheConfig, CacheStore, ClaptonService, EngineSpec, JobSpec, MethodSpec, NoiseSpec,
        ProblemSpec, SuiteProblem, UniformNoise,
    };

    fn quick_spec() -> JobSpec {
        let mut spec = JobSpec::new(ProblemSpec::Suite(SuiteProblem {
            name: "ising(J=0.50)".to_string(),
            qubits: 6,
        }));
        spec.methods = vec![MethodSpec::Clapton];
        spec.engine = EngineSpec::Quick;
        spec.noise = NoiseSpec::Uniform(UniformNoise {
            p1: 3e-4,
            p2: 8e-3,
            readout: 2e-2,
            t1: None,
        });
        spec.seed = 11;
        spec
    }

    let scratch = std::env::temp_dir().join(format!("clapton-loss-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    // Every run gets its own artifact root so the warm contender can only be
    // answered by the store, never by a leftover report.json.
    let ticket = std::cell::Cell::new(0u64);
    let fresh_root = |tag: &str| {
        let t = ticket.get();
        ticket.set(t + 1);
        scratch.join(format!("{tag}-{t}"))
    };
    let pool = Arc::new(WorkerPool::new());

    // Pre-warm one shared store with the spec's report.
    let warm_store = Arc::new(
        CacheStore::open(scratch.join("warm-cache"), CacheConfig::default()).expect("store opens"),
    );
    ClaptonService::with_pool(Arc::clone(&pool))
        .with_artifacts(fresh_root("prewarm"))
        .expect("registry opens")
        .with_cache(Arc::clone(&warm_store))
        .run(quick_spec())
        .expect("pre-warm run");

    let mut run_cold = || {
        let root = fresh_root("cold");
        let service = ClaptonService::with_pool(Arc::clone(&pool))
            .with_artifacts(&root)
            .expect("registry opens")
            .with_cache_under(&root)
            .expect("store opens");
        black_box(service.run(quick_spec()).expect("cold run"));
    };
    let mut run_warm = || {
        let root = fresh_root("warm");
        let service = ClaptonService::with_pool(Arc::clone(&pool))
            .with_artifacts(&root)
            .expect("registry opens")
            .with_cache(Arc::clone(&warm_store));
        black_box(service.run(quick_spec()).expect("warm run"));
    };
    let (cold_samples, warm_samples) = counterbalanced_samples(4, &mut run_cold, &mut run_warm);
    for (id, samples) in [
        ("clapton_quick_cold", &cold_samples),
        ("clapton_quick_warm", &warm_samples),
    ] {
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let (median, best) = (sorted[sorted.len() / 2], sorted[0]);
        println!(
            "report_cache/{id}: median {:.2} ms (best {:.2} ms, {} interleaved samples)",
            median as f64 / 1e6,
            best as f64 / 1e6,
            sorted.len()
        );
        criterion::append_record("report_cache", id, median, best, sorted.len());
    }
    let (cold, warm) = (median(cold_samples), median(warm_samples));
    let speedup = cold as f64 / warm.max(1) as f64;
    println!(
        "report_cache/cold_vs_warm_speedup: {speedup:.1}x \
         (cold {cold} ns / warm {warm} ns, budget ≥10x)"
    );
    criterion::append_line(&format!(
        "{{\"group\":\"report_cache\",\"id\":\"cold_vs_warm_speedup\",\"cold_ns\":{cold},\"warm_ns\":{warm},\"speedup_x\":{speedup:.2}}}"
    ));

    // Cold write-back overhead: what a *first* run pays for having a store
    // attached — opening it, two report lookups and the report's put and
    // flush (the cache-off path is the unchanged code the other groups in
    // this file already measure).
    let mut run_cache_on = || {
        let root = fresh_root("on");
        let service = ClaptonService::with_pool(Arc::clone(&pool))
            .with_artifacts(&root)
            .expect("registry opens")
            .with_cache_under(&root)
            .expect("store opens");
        black_box(service.run(quick_spec()).expect("cache-on run"));
    };
    let mut run_cache_off = || {
        let root = fresh_root("off");
        let service = ClaptonService::with_pool(Arc::clone(&pool))
            .with_artifacts(&root)
            .expect("registry opens");
        black_box(service.run(quick_spec()).expect("cache-off run"));
    };
    let (on_samples, off_samples) =
        counterbalanced_samples(3, &mut run_cache_on, &mut run_cache_off);
    let (on, off) = (median(on_samples), median(off_samples));
    let overhead_pct = (on as f64 - off as f64) / off.max(1) as f64 * 100.0;
    println!(
        "report_cache/cold_write_back_overhead: {overhead_pct:+.2}% \
         (store attached {on} ns / detached {off} ns)"
    );
    criterion::append_line(&format!(
        "{{\"group\":\"report_cache\",\"id\":\"cold_write_back_overhead\",\"cache_on_ns\":{on},\"cache_off_ns\":{off},\"overhead_pct\":{overhead_pct:.2}}}"
    ));

    // Cross-run hit rate: a reduced quick suite run twice against one store
    // (fresh artifact roots both times). Every second-pass job should be
    // answered at admission — a pure read workload.
    let suite = SuiteConfig {
        options: Options { effort: 0, seed: 9 },
        qubits: 4,
    };
    let specs: Vec<JobSpec> = suite.specs().into_iter().take(3).collect();
    let cache_dir = scratch.join("suite-cache");
    let first_store =
        Arc::new(CacheStore::open(&cache_dir, CacheConfig::default()).expect("store opens"));
    ClaptonService::with_pool(Arc::clone(&pool))
        .with_artifacts(fresh_root("suite"))
        .expect("artifact root")
        .with_cache(first_store)
        .run_all(specs.clone(), None)
        .expect("first suite pass");
    let second_store =
        Arc::new(CacheStore::open(&cache_dir, CacheConfig::default()).expect("store opens"));
    ClaptonService::with_pool(Arc::clone(&pool))
        .with_artifacts(fresh_root("suite"))
        .expect("artifact root")
        .with_cache(Arc::clone(&second_store))
        .run_all(specs, None)
        .expect("second suite pass");
    let stats = second_store.stats();
    let hit_rate = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
    println!(
        "report_cache/cross_run_hit_rate: {hit_rate:.2} \
         ({} hits / {} misses on the second pass)",
        stats.hits, stats.misses
    );
    criterion::append_line(&format!(
        "{{\"group\":\"report_cache\",\"id\":\"cross_run_hit_rate\",\"hits\":{},\"misses\":{},\"hit_rate\":{hit_rate:.2}}}",
        stats.hits, stats.misses
    ));
    let _ = std::fs::remove_dir_all(&scratch);
}

fn bench_dense_hamiltonian(c: &mut Criterion) {
    // Chemistry-scale term counts: the ten-qubit XXZ (27 terms) vs a
    // hundreds-of-terms surrogate workload via repeated evaluation.
    let mut group = c.benchmark_group("ln_exact_xxz10");
    let h = xxz(10, 1.0);
    let nc = noisy_zero_circuit(10);
    group.bench_function("xxz10", |b| {
        let eval = ExactEvaluator::new(&nc);
        b.iter(|| eval.energy(black_box(&h)));
    });
    group.finish();
}

/// Population-batch evaluation of the real Clapton objective: the speedup
/// the `LossEvaluator` redesign exists to deliver.
///
/// * `sequential` — genome-at-a-time `evaluate` calls: what a closure-based
///   GA pays, rebuilding the noisy circuit for every genome.
/// * `parallel_pooled` — chunks dispatched onto the persistent shared
///   `WorkerPool`; each chunk runs the batch fast path (backend prepared
///   once per chunk), and on multicore machines chunks execute in parallel
///   with no per-batch spawn cost.
/// * `cached*` — a 50%-duplicate population (the mix-and-restart regime)
///   replayed through the genome → loss memo, inline or on the pool.
fn bench_population_batch(c: &mut Criterion) {
    let n = 10;
    let h = ising(n, 0.25);
    let model = NoiseModel::uniform(n, 3e-4, 8e-3, 2e-2);
    let exec = ExecutableAnsatz::untranspiled(n, &model);
    let ansatz = TransformationAnsatz::new(n);
    let loss = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
    let mut rng = StdRng::seed_from_u64(17);
    let population: Vec<Vec<u8>> = (0..96)
        .map(|_| {
            (0..ansatz.num_genes())
                .map(|_| rng.gen_range(0..4u8))
                .collect()
        })
        .collect();
    // Mix-round regime: half the population are re-submitted known genomes.
    let mut mixed = population.clone();
    for i in 0..mixed.len() / 2 {
        mixed[2 * i + 1] = population[i].clone();
    }

    let mut group = c.benchmark_group("population_batch_96");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            black_box(&population)
                .iter()
                .map(|g| loss.evaluate(g))
                .collect::<Vec<f64>>()
        });
    });
    let pool = Arc::new(WorkerPool::new());
    group.bench_function("parallel_pooled", |b| {
        let pooled = PooledEvaluator::new(&loss, Arc::clone(&pool));
        b.iter(|| pooled.evaluate_population(black_box(&population)));
    });
    group.bench_function("cached_mix_round", |b| {
        b.iter(|| {
            // Fresh cache per iteration: first submission pays, the mixed
            // half and the replay hit the memo.
            let cached = CachedEvaluator::new(&loss);
            let first = cached.evaluate_population(black_box(&mixed));
            let replay = cached.evaluate_population(black_box(&mixed));
            black_box((first, replay))
        });
    });
    group.bench_function("parallel_cached_mix_round", |b| {
        b.iter(|| {
            let cached = CachedEvaluator::new(PooledEvaluator::new(&loss, Arc::clone(&pool)));
            let first = cached.evaluate_population(black_box(&mixed));
            let replay = cached.evaluate_population(black_box(&mixed));
            black_box((first, replay))
        });
    });
    // The sampled (bit-parallel frame) backend through the same pooled
    // batch path: realistic shot budget, term prep cached per batch.
    let sampled_loss = TransformLoss::new(
        &h,
        &exec,
        &ansatz,
        EvaluatorKind::Sampled {
            shots: 256,
            seed: 5,
        },
    );
    group.bench_function("sampled_pooled_256shots", |b| {
        let pooled = PooledEvaluator::new(&sampled_loss, Arc::clone(&pool));
        b.iter(|| pooled.evaluate_population(black_box(&population)));
    });
    group.finish();
}

/// The two exact paths of the Clapton objective per genome, on 96 random
/// genomes, ABBA-interleaved. `materialized` reads `Ĥ` back into a
/// `PauliSum` and scores it (`transformed_into` + `loss_n_prepared` +
/// `loss_0`: the path the sampled kind and the winning genome take);
/// `fused` is `evaluate_population`, which anticonjugates `H`'s preloaded
/// planes and scores them in place. Rows give ns per genome; the
/// `fused_vs_materialized` row gives their ratio.
fn emit_loss_eval_breakdown(_c: &mut Criterion) {
    let cases = [
        ("ising10", ising(10, 0.25)),
        ("H2O", molecular(Molecule::H2O, 1.0)),
        ("H6", molecular(Molecule::H6, 1.0)),
    ];
    for (name, h) in &cases {
        let n = h.num_qubits();
        let model = NoiseModel::uniform(n, 3e-4, 8e-3, 2e-2);
        let exec = ExecutableAnsatz::untranspiled(n, &model);
        let ansatz = TransformationAnsatz::new(n);
        let loss = TransformLoss::new(h, &exec, &ansatz, EvaluatorKind::Exact);
        let mut rng = StdRng::seed_from_u64(17);
        let genomes: Vec<Vec<u8>> = (0..96)
            .map(|_| {
                (0..ansatz.num_genes())
                    .map(|_| rng.gen_range(0..4u8))
                    .collect()
            })
            .collect();
        let function = loss.loss();
        let prepared = function.prepared_zero().expect("always prepared");
        let mut transformed = PauliSum::new(n);
        let mut run_materialized = || {
            for gamma in &genomes {
                loss.transformed_into(black_box(gamma), &mut transformed);
                black_box(
                    function.loss_n_prepared(prepared, &transformed)
                        + function.loss_0(&transformed),
                );
            }
        };
        let mut run_fused = || {
            black_box(loss.evaluate_population(black_box(&genomes)));
        };
        let (materialized_samples, fused_samples) =
            counterbalanced_samples(12, &mut run_materialized, &mut run_fused);
        let per_genome = |samples: Vec<u128>| {
            let mut sorted: Vec<u128> = samples.iter().map(|ns| ns / 96).collect();
            sorted.sort_unstable();
            (sorted[sorted.len() / 2], sorted[0], sorted.len())
        };
        let (materialized, materialized_best, samples) = per_genome(materialized_samples);
        let (fused, fused_best, _) = per_genome(fused_samples);
        criterion::append_record(
            "loss_eval_breakdown",
            &format!("{name}/materialized"),
            materialized,
            materialized_best,
            samples,
        );
        criterion::append_record(
            "loss_eval_breakdown",
            &format!("{name}/fused"),
            fused,
            fused_best,
            samples,
        );
        let share_pct = 100.0 * fused as f64 / materialized.max(1) as f64;
        println!(
            "loss_eval_breakdown/{name}: fused {fused} ns / materialized {materialized} ns \
             per genome ({share_pct:.1}%, M = {})",
            h.num_terms()
        );
        criterion::append_line(&format!(
            "{{\"group\":\"loss_eval_breakdown\",\"id\":\"{name}/fused_vs_materialized\",\"materialized_ns\":{materialized},\"fused_ns\":{fused},\"fused_share_pct\":{share_pct:.1}}}"
        ));
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_exact_energy, bench_exact_batched, emit_exact_speedup,
        bench_sampled_energy, bench_sampled_energy_scalar,
        emit_sampled_speedup, bench_dense_hamiltonian, bench_population_batch,
        emit_loss_eval_breakdown, emit_telemetry_overhead, emit_failpoint_overhead,
        emit_report_cache
}
criterion_main!(benches);
