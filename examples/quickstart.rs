//! Quickstart (object tour): run Clapton on a small transverse-field Ising
//! problem and a uniform noise model, and inspect what the transformation
//! buys — hand-wiring each object along the way.
//!
//! For the recommended entry point — the same run submitted as one
//! serializable `JobSpec` through `ClaptonService` — see
//! `examples/service_submit.rs`.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use clapton::circuits::TransformationAnsatz;
use clapton::core::{
    run_clapton, CachedEvaluator, ClaptonConfig, EvaluatorKind, ExecutableAnsatz, LossEvaluator,
    LossFunction, PooledEvaluator, TransformLoss, WorkerPool,
};
use clapton::models::ising;
use clapton::noise::NoiseModel;
use clapton::sim::ground_energy;
use std::sync::Arc;

fn main() {
    // One worker pool for every search and batch in this process.
    let pool = Arc::new(WorkerPool::new());

    // 1. A VQE problem: the 6-qubit transverse-field Ising chain.
    let n = 6;
    let h = ising(n, 0.5);
    println!(
        "problem: 6-qubit Ising (J = 0.5), {} Pauli terms",
        h.num_terms()
    );
    println!("exact ground energy E0 = {:.6}", ground_energy(&h));

    // 2. A device noise model: depolarizing gate errors + readout flips.
    let mut model = NoiseModel::uniform(n, 1e-3, 1e-2, 2.5e-2);
    model.set_t1_uniform(100e-6);
    let exec = ExecutableAnsatz::untranspiled(n, &model);

    // 3. Without Clapton: the VQE initial point θ = 0 evaluates H on |0…0⟩.
    let loss = LossFunction::new(&exec, EvaluatorKind::Exact);
    println!("\nuntransformed initial point:");
    println!("  L0 (noiseless)      = {:+.6}", loss.loss_0(&h));
    println!("  LN (Clifford noise) = {:+.6}", loss.loss_n(&h));

    // 4. The search objective is a first-class object: `TransformLoss`
    //    implements the batched `LossEvaluator` trait, so populations can be
    //    scored in one call — and wrapped for pooled or memoized evaluation
    //    without touching the loss itself.
    let ansatz = TransformationAnsatz::new(n);
    let objective = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
    let identity = vec![0u8; ansatz.num_genes()];
    let batch = objective.evaluate_population(&[identity.clone(), identity]);
    println!("\nbatched objective at the identity genome: {batch:?}");
    let stacked = CachedEvaluator::new(PooledEvaluator::new(&objective, Arc::clone(&pool)));
    stacked.evaluate(&vec![0u8; ansatz.num_genes()]);
    stacked.evaluate(&vec![0u8; ansatz.num_genes()]);
    println!(
        "cache after two identical evaluations: {} hit / {} miss",
        stacked.stats().hits,
        stacked.stats().misses
    );

    // 5. Run Clapton: search Clifford transformations Ĥ = C†(γ)HC(γ) that
    //    make |0…0⟩ a good, noise-robust starting state. The engine stacks
    //    exactly the wrappers above over this objective internally.
    let result = run_clapton(&h, &exec, &ClaptonConfig::quick(42), &pool);
    println!(
        "\nClapton transformation found in {} engine rounds:",
        result.rounds
    );
    println!("  L0 (noiseless)      = {:+.6}", result.loss_0);
    println!("  LN (Clifford noise) = {:+.6}", result.loss_n);
    println!("  total loss          = {:+.6}", result.loss);
    println!(
        "  loss evaluations    = {} unique (+{} cache hits, {:.0}% hit rate)",
        result.unique_evaluations,
        result.cache_hits,
        100.0 * result.cache_hits as f64
            / (result.cache_hits + result.unique_evaluations).max(1) as f64
    );

    // 6. The transformation preserves the problem: same ground energy.
    let e0_transformed = ground_energy(&result.transformation.transformed);
    println!(
        "\nspectrum preserved: E0(Ĥ) = {:.6} (Δ = {:.2e})",
        e0_transformed,
        (e0_transformed - ground_energy(&h)).abs()
    );
    println!(
        "the post-Clapton VQE starts at θ = 0 with energy {:+.4} instead of {:+.4}",
        result.loss_0,
        loss.loss_0(&h)
    );
}
