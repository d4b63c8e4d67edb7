//! Differential tests for the bit-parallel batched exact back-propagation:
//! batch-vs-scalar **bit-identity** on random noisy Clifford circuits,
//! Hamiltonians larger than one 64-term word, >64-qubit registers, and the
//! noiseless path.

use clapton_circuits::{Circuit, Gate};
use clapton_noise::{ExactEvaluator, NoiseModel, NoisyCircuit};
use clapton_pauli::{Pauli, PauliString, PauliSum};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn noisy(c: &Circuit, m: &NoiseModel) -> NoisyCircuit {
    NoisyCircuit::from_circuit(c, m).expect("Clifford circuit")
}

/// A random Clifford-grid circuit (the generator mirrors the sampled-path
/// suite in `batch_sampler.rs`).
fn random_circuit(n: usize, len: usize, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..len {
        match rng.gen_range(0..5) {
            0 => c.push(Gate::H(rng.gen_range(0..n))),
            1 => c.push(Gate::S(rng.gen_range(0..n))),
            2 => c.push(Gate::X(rng.gen_range(0..n))),
            3 => c.push(Gate::Ry(rng.gen_range(0..n), std::f64::consts::FRAC_PI_2)),
            _ => {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                c.push(Gate::Cx(a, b));
            }
        }
    }
    c
}

/// A random Hamiltonian of `m` terms with random coefficients; identity
/// terms are allowed (they short-circuit to expectation 1 on both paths).
fn random_hamiltonian(n: usize, m: usize, rng: &mut StdRng) -> PauliSum {
    PauliSum::from_terms(
        n,
        (0..m).map(|_| (rng.gen_range(-2.0..2.0), PauliString::random(n, rng))),
    )
}

/// A random noise model with independently random depolarizing and readout
/// rates (including occasional zero rates, which drop the channel entirely).
fn random_model(n: usize, rng: &mut StdRng) -> NoiseModel {
    let p1 = [0.0, 1e-4, 3e-3, 2e-2][rng.gen_range(0..4)];
    let p2 = [0.0, 1e-3, 8e-3, 5e-2][rng.gen_range(0..4)];
    let ro = [0.0, 1e-3, 1e-2, 8e-2][rng.gen_range(0..4)];
    NoiseModel::uniform(n, p1, p2, ro)
}

#[test]
fn batched_energy_is_bit_identical_on_random_noisy_circuits() {
    let mut rng = StdRng::seed_from_u64(2024);
    for round in 0..40 {
        let n = rng.gen_range(2..9);
        let c = random_circuit(n, rng.gen_range(5..40), &mut rng);
        let nc = noisy(&c, &random_model(n, &mut rng));
        let eval = ExactEvaluator::new(&nc);
        let m = rng.gen_range(1..90);
        let h = random_hamiltonian(n, m, &mut rng);
        let scalar = eval.energy_scalar(&h);
        let batched = eval.energy(&h);
        assert_eq!(
            batched.to_bits(),
            scalar.to_bits(),
            "round {round}: batched {batched} vs scalar {scalar} (n {n}, m {m})"
        );
        assert_eq!(eval.energy(&h).to_bits(), scalar.to_bits(), "dispatch");
    }
}

#[test]
fn noiseless_batched_energy_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(4096);
    for _ in 0..20 {
        let n = rng.gen_range(2..8);
        let c = random_circuit(n, 25, &mut rng);
        // Noise present in the model, but the noiseless path ignores it.
        let nc = noisy(&c, &random_model(n, &mut rng));
        let eval = ExactEvaluator::new(&nc);
        let h = random_hamiltonian(n, rng.gen_range(1..80), &mut rng);
        let scalar = eval.noiseless_energy_scalar(&h);
        assert_eq!(eval.noiseless_energy(&h).to_bits(), scalar.to_bits());
    }
}

/// M > 64: the second `TermBatch` word is only partially filled, and the
/// accumulation across the word boundary must stay in term order.
#[test]
fn partial_last_word_accumulates_in_term_order() {
    let mut rng = StdRng::seed_from_u64(70);
    let n = 6;
    let c = random_circuit(n, 30, &mut rng);
    let nc = noisy(&c, &NoiseModel::uniform(n, 2e-3, 1e-2, 2e-2));
    let eval = ExactEvaluator::new(&nc);
    for m in [63, 64, 65, 70, 128, 129] {
        let h = random_hamiltonian(n, m, &mut rng);
        assert_eq!(
            eval.energy(&h).to_bits(),
            eval.energy_scalar(&h).to_bits(),
            "m = {m}"
        );
    }
}

/// Registers beyond one `PauliString` storage word: per-qubit planes index
/// qubits directly, and lane packing/unpacking must handle supports that
/// straddle the 64-qubit word boundary.
#[test]
fn batched_exact_handles_more_than_64_qubits() {
    let n = 70;
    let mut c = Circuit::new(n);
    c.push(Gate::H(0));
    for q in 0..n - 1 {
        c.push(Gate::Cx(q, q + 1));
    }
    let nc = noisy(&c, &NoiseModel::uniform(n, 1e-3, 5e-3, 1e-2));
    let eval = ExactEvaluator::new(&nc);
    // Terms supported across the word boundary, plus random ones.
    let mut rng = StdRng::seed_from_u64(7);
    let mut h = PauliSum::new(n);
    let mut boundary = PauliString::identity(n);
    boundary.set(0, Pauli::Z);
    boundary.set(63, Pauli::Z);
    boundary.set(64, Pauli::Z);
    boundary.set(n - 1, Pauli::Z);
    h.push(1.5, boundary);
    for _ in 0..66 {
        h.push(rng.gen_range(-1.0..1.0), PauliString::random(n, &mut rng));
    }
    assert_eq!(eval.energy(&h).to_bits(), eval.energy_scalar(&h).to_bits());
    assert_eq!(
        eval.noiseless_energy(&h).to_bits(),
        eval.noiseless_energy_scalar(&h).to_bits()
    );
}

/// Identity terms and basis-prep-heavy (X/Y-rich) terms share one batch:
/// the per-lane init (prep conjugation + readout factors) must agree with
/// the scalar walk lane by lane, not just in aggregate.
#[test]
fn per_term_expectations_match_through_the_batch() {
    let mut rng = StdRng::seed_from_u64(55);
    let n = 5;
    let c = random_circuit(n, 20, &mut rng);
    let nc = noisy(&c, &NoiseModel::uniform(n, 3e-3, 1.2e-2, 2.5e-2));
    let eval = ExactEvaluator::new(&nc);
    let mut terms: Vec<(f64, PauliString)> = vec![(0.5, PauliString::identity(n))];
    for _ in 0..70 {
        terms.push((1.0, PauliString::random(n, &mut rng)));
    }
    // Scoring each term alone through the batched path isolates its lane.
    for (c0, p) in &terms {
        let single = PauliSum::from_terms(n, vec![(*c0, p.clone())]);
        assert_eq!(
            eval.energy(&single).to_bits(),
            eval.energy_scalar(&single).to_bits(),
            "term {p}"
        );
    }
    let h = PauliSum::from_terms(n, terms);
    assert_eq!(eval.energy(&h).to_bits(), eval.energy_scalar(&h).to_bits());
}
