//! Property-based invariants of the core machinery on randomized inputs.

use clapton::circuits::TransformationAnsatz;
use clapton::core::{transform_hamiltonian, EvaluatorKind, ExecutableAnsatz, LossFunction};
use clapton::noise::NoiseModel;
use clapton::pauli::{Pauli, PauliString, PauliSum};
use clapton::sim::ground_energy;
use clapton::stabilizer::anticonjugate_through;
use proptest::prelude::*;

fn arb_pauli() -> impl Strategy<Value = Pauli> {
    prop_oneof![
        Just(Pauli::I),
        Just(Pauli::X),
        Just(Pauli::Y),
        Just(Pauli::Z),
    ]
}

fn arb_hamiltonian(n: usize, max_terms: usize) -> impl Strategy<Value = PauliSum> {
    proptest::collection::vec(
        (-2.0..2.0f64, proptest::collection::vec(arb_pauli(), n)),
        1..max_terms,
    )
    .prop_map(move |terms| {
        PauliSum::from_terms(
            n,
            terms
                .into_iter()
                .map(|(c, ps)| (c, PauliString::from_sparse(n, ps.into_iter().enumerate()))),
        )
    })
}

fn arb_genome(len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..4, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unitary equivalence: every transformation preserves the spectrum.
    #[test]
    fn transformation_preserves_ground_energy(
        h in arb_hamiltonian(4, 8),
        genome in arb_genome(TransformationAnsatz::new(4).num_genes()),
    ) {
        let ansatz = TransformationAnsatz::new(4);
        let transformed = transform_hamiltonian(&h, &ansatz.gates(&genome));
        let e0 = ground_energy(&h);
        let e0_hat = ground_energy(&transformed);
        prop_assert!((e0 - e0_hat).abs() < 1e-7, "{e0} vs {e0_hat}");
    }

    /// Transformations are involutive through the inverse circuit: the
    /// gate list reversed with each gate inverted transforms `Ĥ` back to
    /// `H`.
    #[test]
    fn transformation_round_trips(
        h in arb_hamiltonian(4, 8),
        genome in arb_genome(TransformationAnsatz::new(4).num_genes()),
    ) {
        let ansatz = TransformationAnsatz::new(4);
        let gates = ansatz.gates(&genome);
        let forward = transform_hamiltonian(&h, &gates);
        let inverse: Vec<_> = gates.iter().rev().map(|g| g.inverse()).collect();
        let mut back = transform_hamiltonian(&forward, &inverse);
        let mut original = h.clone();
        back.simplify();
        original.simplify();
        prop_assert_eq!(back, original);
    }

    /// LN is bounded by the 1-norm and coincides with L0 when noiseless.
    #[test]
    fn loss_bounds(
        h in arb_hamiltonian(4, 8),
        p1 in 0.0..5e-3f64,
        p2 in 0.0..2e-2f64,
        ro in 0.0..5e-2f64,
    ) {
        let model = NoiseModel::uniform(4, p1, p2, ro);
        let exec = ExecutableAnsatz::untranspiled(4, &model);
        let loss = LossFunction::new(&exec, EvaluatorKind::Exact);
        let ln = loss.loss_n(&h);
        prop_assert!(ln.abs() <= h.one_norm() + 1e-9);
        let noiseless_exec = ExecutableAnsatz::untranspiled(4, &NoiseModel::noiseless(4));
        let noiseless_loss = LossFunction::new(&noiseless_exec, EvaluatorKind::Exact);
        prop_assert!((noiseless_loss.loss_n(&h) - noiseless_loss.loss_0(&h)).abs() < 1e-9);
    }

    /// Damping never increases the magnitude of a term's expectation.
    #[test]
    fn noise_is_contractive(
        h in arb_hamiltonian(3, 6),
        p1 in 0.0..5e-3f64,
        ro in 0.0..5e-2f64,
    ) {
        let noisy_model = NoiseModel::uniform(3, p1, 10.0 * p1, ro);
        let clean_model = NoiseModel::noiseless(3);
        let noisy_exec = ExecutableAnsatz::untranspiled(3, &noisy_model);
        let clean_exec = ExecutableAnsatz::untranspiled(3, &clean_model);
        let noisy_loss = LossFunction::new(&noisy_exec, EvaluatorKind::Exact);
        let clean_loss = LossFunction::new(&clean_exec, EvaluatorKind::Exact);
        for (c, p) in h.iter() {
            let single = PauliSum::from_terms(3, vec![(c, p.clone())]);
            prop_assert!(
                noisy_loss.loss_n(&single).abs() <= clean_loss.loss_n(&single).abs() + 1e-12
            );
        }
    }

    /// Commutation structure survives transformation: if two Hamiltonian
    /// terms commute, their images commute.
    #[test]
    fn transformation_preserves_commutation(
        genome in arb_genome(TransformationAnsatz::new(4).num_genes()),
        a in proptest::collection::vec(arb_pauli(), 4),
        b in proptest::collection::vec(arb_pauli(), 4),
    ) {
        let gates = TransformationAnsatz::new(4).gates(&genome);
        let pa = PauliString::from_sparse(4, a.into_iter().enumerate());
        let pb = PauliString::from_sparse(4, b.into_iter().enumerate());
        let (mut ia, mut ib) = (pa.clone(), pb.clone());
        anticonjugate_through(&gates, &mut ia);
        anticonjugate_through(&gates, &mut ib);
        prop_assert_eq!(pa.commutes_with(&pb), ia.commutes_with(&ib));
    }
}
