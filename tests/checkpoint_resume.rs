//! Property tests of checkpoint/resume (alongside `evaluator_api.rs`): a
//! run interrupted after any round `k` and resumed from a serialized
//! [`EngineState`] is bit-identical to an uninterrupted run — on toy
//! fitnesses, on the real Clapton objective, and through the pooled
//! execution path. Plus the serde round-trip contract for the result types.

use clapton::circuits::TransformationAnsatz;
use clapton::core::{
    run_clapton, run_clapton_resumable, ClaptonConfig, ClaptonResult, EngineState, EvaluatorKind,
    ExecutableAnsatz, WorkerPool,
};
use clapton::ga::{FnEvaluator, GaConfig, MultiGa, MultiGaConfig, MultiGaResult};
use clapton::models::ising;
use clapton::noise::NoiseModel;
use proptest::prelude::*;
use std::sync::Arc;

/// A 0-worker pool: every search runs inline on the test thread.
fn inline() -> Arc<WorkerPool> {
    Arc::new(WorkerPool::with_workers(0))
}

/// A small engine configuration whose runs finish in a few rounds.
fn tiny_config() -> MultiGaConfig {
    MultiGaConfig {
        instances: 2,
        top_k: 4,
        max_retry_rounds: 1,
        max_rounds: 6,
        pool_fraction: 0.5,
        parallel: false,
        ga: GaConfig {
            population_size: 16,
            generations: 8,
            ..GaConfig::default()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Interrupting a multi-GA run after round `k`, serializing the engine
    /// state to JSON, and resuming from the parsed snapshot reproduces the
    /// uninterrupted run bit-for-bit — for any seed and interrupt point.
    #[test]
    fn multiga_resume_is_bit_identical(seed in 0u64..1_000, k in 1usize..5) {
        let engine = MultiGa::new(12, 4, tiny_config());
        let fitness = FnEvaluator::new(|g: &[u8]| {
            g.iter().enumerate().map(|(i, &x)| (x as f64 - (i % 3) as f64).abs()).sum()
        });
        let pool = inline();
        let reference = engine.run_pooled(seed, &fitness, &pool);
        let mut state = engine.start(seed);
        let mut finished = false;
        for _ in 0..k.min(reference.rounds.saturating_sub(1)) {
            finished = engine.step_pooled(&mut state, &fitness, &pool);
        }
        prop_assert!(!finished, "interrupt point must be mid-run");
        let json = serde_json::to_string(&state).expect("engine state serializes");
        let mut resumed: EngineState = serde_json::from_str(&json).expect("engine state parses");
        prop_assert_eq!(&resumed, &state, "state survives the JSON round trip");
        while !engine.step_pooled(&mut resumed, &fitness, &pool) {}
        prop_assert_eq!(engine.result(&resumed), reference);
    }

    /// A run resumed on a pool with workers converges to the result of an
    /// inline run, for any worker count.
    #[test]
    fn pooled_resume_matches_serial(seed in 0u64..1_000, workers in 1usize..4) {
        let engine = MultiGa::new(10, 4, tiny_config());
        let fitness = FnEvaluator::new(|g: &[u8]| g.iter().map(|&x| x as f64).sum());
        let reference = engine.run_pooled(seed, &fitness, &inline());
        let pool = Arc::new(WorkerPool::with_workers(workers));
        let mut state = engine.start(seed);
        engine.step_pooled(&mut state, &fitness, &pool);
        let json = serde_json::to_string(&state).expect("serializes");
        let mut resumed: EngineState = serde_json::from_str(&json).expect("parses");
        while !resumed.finished {
            engine.step_pooled(&mut resumed, &fitness, &pool);
        }
        prop_assert_eq!(engine.result(&resumed), reference);
    }
}

#[test]
fn clapton_resume_on_real_objective_is_bit_identical() {
    let h = ising(3, 0.5);
    let model = NoiseModel::uniform(3, 1e-3, 1e-2, 2e-2);
    let exec = ExecutableAnsatz::untranspiled(3, &model);
    let config = ClaptonConfig::quick(21);
    let pool = inline();
    let reference = run_clapton(&h, &exec, &config, &pool);
    // Interrupt at every possible round boundary via the observer, resume
    // from a JSON round trip each time.
    let mut k = 1;
    loop {
        let mut seen = 0;
        let (state, result) =
            run_clapton_resumable(&h, &exec, &config, &pool, None, &mut |_, _| {
                seen += 1;
                seen < k
            });
        if let Some(result) = result {
            assert_eq!(result, reference, "uninterrupted tail at k={k}");
            break;
        }
        let json = serde_json::to_string(&state).expect("serializes");
        let restored: EngineState = serde_json::from_str(&json).expect("parses");
        let (_, resumed) =
            run_clapton_resumable(&h, &exec, &config, &pool, Some(restored), &mut |_, _| true);
        assert_eq!(
            resumed.expect("resumed run converges"),
            reference,
            "interrupted at round {k}"
        );
        k += 1;
    }
    assert!(k > 1, "at least one interrupt point exercised");
}

#[test]
fn multiga_result_round_trips_through_json() {
    let engine = MultiGa::new(12, 4, tiny_config());
    let fitness = FnEvaluator::new(|g: &[u8]| g.iter().map(|&x| x as f64).sum());
    let result = engine.run_pooled(5, &fitness, &inline());
    let json = serde_json::to_string(&result).expect("MultiGaResult serializes");
    let parsed: MultiGaResult = serde_json::from_str(&json).expect("MultiGaResult parses");
    assert_eq!(parsed, result);
    // Derived diagnostics survive too.
    assert_eq!(parsed.fitness_requests(), result.fitness_requests());
    assert_eq!(parsed.cache_hit_rate(), result.cache_hit_rate());
}

#[test]
fn clapton_result_round_trips_through_json() {
    let h = ising(3, 1.0);
    let model = NoiseModel::uniform(3, 1e-3, 1e-2, 2e-2);
    let exec = ExecutableAnsatz::untranspiled(3, &model);
    let result = run_clapton(&h, &exec, &ClaptonConfig::quick(2), &inline());
    let json = serde_json::to_string_pretty(&result).expect("ClaptonResult serializes");
    let parsed: ClaptonResult = serde_json::from_str(&json).expect("ClaptonResult parses");
    assert_eq!(parsed, result);
    // The transformation genome refers to the same ansatz after the trip.
    assert_eq!(parsed.ansatz, TransformationAnsatz::new(3));
    assert_eq!(parsed.transformation.gamma.len(), parsed.ansatz.num_genes());
    // Double round trip is stable byte-for-byte.
    assert_eq!(serde_json::to_string_pretty(&parsed).unwrap(), json);
}

#[test]
fn sampled_backend_checkpoints_identically() {
    // The stim-style sampled loss re-seeds per candidate; resume must not
    // disturb its streams either.
    let h = ising(2, 0.5);
    let model = NoiseModel::uniform(2, 5e-3, 2e-2, 2e-2);
    let exec = ExecutableAnsatz::untranspiled(2, &model);
    let mut config = ClaptonConfig::quick(13);
    config.evaluator = EvaluatorKind::Sampled { shots: 32, seed: 3 };
    let pool = inline();
    let reference = run_clapton(&h, &exec, &config, &pool);
    let (state, early) = run_clapton_resumable(&h, &exec, &config, &pool, None, &mut |_, _| false);
    assert!(early.is_none());
    let json = serde_json::to_string(&state).expect("serializes");
    let restored: EngineState = serde_json::from_str(&json).expect("parses");
    let (_, resumed) =
        run_clapton_resumable(&h, &exec, &config, &pool, Some(restored), &mut |_, _| true);
    assert_eq!(resumed.expect("converges"), reference);
}
