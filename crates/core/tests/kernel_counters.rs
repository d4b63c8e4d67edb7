//! The exact kernel's process-wide counters: every term, per genome or per
//! energy, whichever path scores it, and the walks it made. An energy walks
//! once per 64-term chunk; a fused genome walks once per 64 terms that are
//! Z-type after its transform, the only ones it back-propagates. This
//! binary holds one test, so nothing else moves the counters while it
//! reads them.

use clapton_circuits::TransformationAnsatz;
use clapton_core::{transform_hamiltonian, EvaluatorKind, ExecutableAnsatz, TransformLoss};
use clapton_eval::LossEvaluator;
use clapton_models::{molecular, Molecule};
use clapton_noise::{ExactEvaluator, NoiseModel, NoisyCircuit};
use clapton_pauli::TermBatch;
use clapton_telemetry::metrics::registry;

/// `(walks, terms)` counted so far.
fn counted() -> (u64, u64) {
    let read = |name: &str| registry().counter(name, "").get();
    (
        read("clapton_exact_walks_total"),
        read("clapton_exact_terms_total"),
    )
}

/// `(walks, terms)` counted while `work` ran.
fn counted_by(work: impl FnOnce()) -> (u64, u64) {
    let before = counted();
    work();
    let after = counted();
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn every_exact_path_counts_one_walk_per_chunk_and_every_term() {
    // 367 terms: five full 64-term chunks and one of 47.
    let h = molecular(Molecule::H2O, 1.0);
    let (walks, terms) = (6, 367);
    let model = NoiseModel::uniform(10, 3e-4, 8e-3, 2e-2);
    let exec = ExecutableAnsatz::untranspiled(10, &model);
    let ansatz = TransformationAnsatz::new(10);
    let loss = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
    let genomes: Vec<Vec<u8>> = (0..5)
        .map(|k| {
            (0..ansatz.num_genes())
                .map(|g| ((g * 7 + k) % 4) as u8)
                .collect()
        })
        .collect();
    // Oracle: a genome's walks are its mapped `Ĥ`'s Z-type terms over 64.
    let fused_walks: Vec<u64> = genomes
        .iter()
        .map(|g| {
            let transformed = exec.map_hamiltonian(&transform_hamiltonian(&h, &ansatz.gates(g)));
            let z_type = transformed.iter().filter(|(_, p)| p.is_z_type()).count();
            z_type.div_ceil(TermBatch::LANES) as u64
        })
        .collect();
    assert!(fused_walks.iter().all(|&w| w >= 1), "{fused_walks:?}");
    // Warm the objective's lazily prepared evaluator outside the counts.
    loss.evaluate(&genomes[0]);

    let population = counted_by(|| {
        loss.evaluate_population(&genomes);
    });
    assert_eq!(
        population,
        (fused_walks.iter().sum(), 5 * terms),
        "fused population batch"
    );
    let single = counted_by(|| {
        loss.evaluate(&genomes[1]);
    });
    assert_eq!(single, (fused_walks[1], terms), "one fused genome");

    let noisy = NoisyCircuit::from_circuit(&exec.circuit_at_zero(), exec.noise_model())
        .expect("the ansatz at θ = 0 is Clifford");
    let exact = ExactEvaluator::new(&noisy);
    assert_eq!(
        counted_by(|| {
            exact.energy(&h);
        }),
        (walks, terms),
        "energy"
    );
    assert_eq!(
        counted_by(|| {
            exact.noiseless_energy(&h);
        }),
        (walks, terms),
        "noiseless energy"
    );
    assert_eq!(
        counted_by(|| {
            exact.energy_scalar(&h);
        }),
        (terms, terms),
        "the scalar reference walks once per term"
    );
}
