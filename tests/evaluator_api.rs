//! Property tests of the batched `LossEvaluator` API: the pooled and cached
//! evaluation paths must be bit-identical to sequential evaluation, and the
//! engine must stay deterministic for every pool size.

use clapton::circuits::TransformationAnsatz;
use clapton::core::{
    CachedEvaluator, EvaluatorKind, ExecutableAnsatz, LossEvaluator, PooledEvaluator,
    TransformLoss, WorkerPool,
};
use clapton::ga::{FnEvaluator, MultiGa, MultiGaConfig};
use clapton::models::ising;
use clapton::noise::NoiseModel;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_population(genes: usize, max_size: usize) -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(0u8..4, genes), 1..max_size)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pooled population evaluation of the real Clapton objective is
    /// bit-identical to genome-at-a-time sequential evaluation.
    #[test]
    fn parallel_batch_is_bit_identical(
        population in arb_population(TransformationAnsatz::new(3).num_genes(), 20),
        workers in 0usize..5,
    ) {
        let h = ising(3, 0.5);
        let model = NoiseModel::uniform(3, 1e-3, 1e-2, 2e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let ansatz = TransformationAnsatz::new(3);
        let loss = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
        let sequential: Vec<f64> = population.iter().map(|g| loss.evaluate(g)).collect();
        let pooled = PooledEvaluator::new(&loss, Arc::new(WorkerPool::with_workers(workers)));
        prop_assert_eq!(pooled.evaluate_population(&population), sequential);
    }

    /// Cached evaluation returns exactly the sequential losses, no matter
    /// how duplicated the population is, and never recomputes a genome.
    #[test]
    fn cached_batch_is_bit_identical(
        population in arb_population(TransformationAnsatz::new(3).num_genes(), 16),
        dup_rounds in 1usize..4,
    ) {
        let h = ising(3, 1.0);
        let model = NoiseModel::uniform(3, 2e-3, 1.5e-2, 3e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let ansatz = TransformationAnsatz::new(3);
        let loss = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
        let sequential: Vec<f64> = population.iter().map(|g| loss.evaluate(g)).collect();
        let cached = CachedEvaluator::new(&loss);
        for _ in 0..dup_rounds {
            prop_assert_eq!(cached.evaluate_population(&population), sequential.clone());
        }
        // The cache computed at most one loss per distinct genome.
        let mut unique = population.clone();
        unique.sort();
        unique.dedup();
        prop_assert_eq!(cached.stats().misses, unique.len() as u64);
    }

    /// The sampled (stim-style) backend is equally deterministic under the
    /// batched API: pooled + cached results replay exactly.
    #[test]
    fn sampled_backend_batches_deterministically(
        population in arb_population(TransformationAnsatz::new(2).num_genes(), 8),
    ) {
        let h = ising(2, 0.5);
        let model = NoiseModel::uniform(2, 5e-3, 2e-2, 2e-2);
        let exec = ExecutableAnsatz::untranspiled(2, &model);
        let ansatz = TransformationAnsatz::new(2);
        let loss = TransformLoss::new(
            &h,
            &exec,
            &ansatz,
            EvaluatorKind::Sampled { shots: 64, seed: 9 },
        );
        let sequential: Vec<f64> = population.iter().map(|g| loss.evaluate(g)).collect();
        let pool = Arc::new(WorkerPool::with_workers(2));
        let stacked = CachedEvaluator::new(PooledEvaluator::new(&loss, pool));
        prop_assert_eq!(stacked.evaluate_population(&population), sequential);
    }
}

#[test]
fn multiga_parallel_is_deterministic_and_matches_serial() {
    let fitness = FnEvaluator::new(|g: &[u8]| {
        g.iter()
            .enumerate()
            .map(|(i, &x)| (x as f64 - (i % 3) as f64).abs())
            .sum()
    });
    let mut cfg = MultiGaConfig::quick();
    cfg.parallel = true;
    let engine = MultiGa::new(14, 4, cfg);
    let pool = Arc::new(WorkerPool::with_workers(3));
    let a = engine.run_pooled(77, &fitness, &pool);
    let b = engine.run_pooled(77, &fitness, &pool);
    assert_eq!(a, b, "parallel runs with one seed must agree");
    // The ignored `parallel` flag and an inline pool change nothing.
    cfg.parallel = false;
    let inline = Arc::new(WorkerPool::with_workers(0));
    let serial = MultiGa::new(14, 4, cfg).run_pooled(77, &fitness, &inline);
    assert_eq!(a, serial, "parallel must match serial bit-for-bit");
}

#[test]
fn clapton_run_reports_cache_traffic() {
    let h = ising(3, 0.5);
    let model = NoiseModel::uniform(3, 1e-3, 1e-2, 2e-2);
    let exec = ExecutableAnsatz::untranspiled(3, &model);
    let pool = Arc::new(WorkerPool::with_workers(0));
    let result =
        clapton::core::run_clapton(&h, &exec, &clapton::core::ClaptonConfig::quick(4), &pool);
    assert!(result.unique_evaluations > 0);
    assert!(
        result.cache_hits > 0,
        "mix-and-restart rounds must re-submit known genomes"
    );
}
