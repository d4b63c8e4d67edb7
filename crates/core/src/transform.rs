//! The Clapton Hamiltonian transformation `Ĥ = C†(γ) H C(γ)` (§3.2).
//!
//! Every term is anticonjugated through the transformation circuit on the
//! same word-level engine the noise kernels use: 64 terms per
//! [`clapton_pauli::TermBatch`] pass through
//! [`CliffordGate::conjugate_terms`], with
//! `clapton_stabilizer::anticonjugate_through` as the one-string reference
//! the batched path is tested against.

use clapton_circuits::{Circuit, TransformationAnsatz};
use clapton_pauli::{PauliSum, TermBatch};
use clapton_stabilizer::CliffordGate;
use serde::{Deserialize, Serialize};

/// Anticonjugates every term of `h` through the Clifford circuit `C`
/// (gates in application order): `Ĥ = C† H C`, with sign flips absorbed into
/// the coefficients (Eq. 6).
///
/// Because Clifford conjugation maps Pauli strings to signed Pauli strings,
/// the transformed problem has exactly the same term count and structure —
/// and the same spectrum, since the transformation is unitary.
///
/// # Example
///
/// ```
/// use clapton_core::transform_hamiltonian;
/// use clapton_pauli::PauliSum;
/// use clapton_stabilizer::CliffordGate;
///
/// // Conjugating Z by H gives X: (H)† Z (H) = X.
/// let h = PauliSum::from_terms(1, vec![(2.0, "Z".parse().unwrap())]);
/// let t = transform_hamiltonian(&h, &[CliffordGate::H(0)]);
/// assert_eq!(t.coefficient_of(&"X".parse().unwrap()), Some(2.0));
/// ```
pub fn transform_hamiltonian(h: &PauliSum, gates: &[CliffordGate]) -> PauliSum {
    let mut out = PauliSum::new(h.num_qubits());
    transform_hamiltonian_into(h, gates, &mut out);
    out
}

/// [`transform_hamiltonian`] writing into `out`, reusing its term storage.
///
/// The GA scores thousands of genomes against one Hamiltonian, and every
/// score starts with this transform. The terms travel 64 at a time as the
/// lanes of one reusable [`TermBatch`], anticonjugated through the inverted
/// gates in reverse by word-level [`CliffordGate::conjugate_terms`] (about
/// one word operation per gate per 64 terms), and each lane is read back
/// into `out` in term order with its sign absorbed into the coefficient.
/// `out` always ends with exactly `M` terms on the same register (the
/// structure is closed, Eq. 6), so after the first call the transform
/// allocates only the batch.
pub fn transform_hamiltonian_into(h: &PauliSum, gates: &[CliffordGate], out: &mut PauliSum) {
    let terms = h.terms();
    let mut batch = TermBatch::new(h.num_qubits());
    let mut next = 0;
    h.map_terms_into(
        |_, image| {
            let lane = next % TermBatch::LANES;
            if lane == 0 {
                batch.clear();
                for (l, term) in terms[next..].iter().take(TermBatch::LANES).enumerate() {
                    batch.set_lane(l, &term.pauli, false);
                }
                for g in gates.iter().rev() {
                    g.inverse().conjugate_terms(&mut batch);
                }
            }
            next += 1;
            if batch.lane_into(lane, image) {
                -1.0
            } else {
                1.0
            }
        },
        out,
    );
}

/// A found Clapton transformation: the genome, the Clifford circuit
/// `Ĉ = C(γ̂)` and the transformed problem `Ĥ`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transformation {
    /// The genome `γ̂` over the transformation ansatz.
    pub gamma: Vec<u8>,
    /// The number of logical qubits.
    pub num_qubits: usize,
    /// The transformed Hamiltonian `Ĥ = Ĉ† H Ĉ`.
    pub transformed: PauliSum,
}

impl Transformation {
    /// Builds the transformation for a genome over `ansatz`.
    pub fn from_genome(
        h: &PauliSum,
        ansatz: &TransformationAnsatz,
        gamma: Vec<u8>,
    ) -> Transformation {
        let gates = ansatz.gates(&gamma);
        Transformation {
            num_qubits: h.num_qubits(),
            transformed: transform_hamiltonian(h, &gates),
            gamma,
        }
    }

    /// The identity transformation (`Ĥ = H`).
    pub fn identity(h: &PauliSum) -> Transformation {
        Transformation {
            gamma: Vec::new(),
            num_qubits: h.num_qubits(),
            transformed: h.clone(),
        }
    }

    /// The Clifford gates of `Ĉ` for a given ansatz (the genome is stored;
    /// the circuit is rebuilt on demand).
    pub fn gates(&self, ansatz: &TransformationAnsatz) -> Vec<CliffordGate> {
        if self.gamma.is_empty() {
            Vec::new()
        } else {
            ansatz.gates(&self.gamma)
        }
    }

    /// The recovery circuit `Ĉ` as a parametric [`Circuit`]: a state
    /// `|ψ̂⟩` found for `Ĥ` corresponds to `|ψ⟩ = Ĉ|ψ̂⟩` for the original
    /// problem (§3.2).
    pub fn recovery_circuit(&self, ansatz: &TransformationAnsatz) -> Circuit {
        if self.gamma.is_empty() {
            Circuit::new(self.num_qubits)
        } else {
            ansatz.circuit(&self.gamma)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapton_pauli::PauliString;
    use clapton_sim::{ground_energy, StateVector};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn identity_transformation_is_noop() {
        let h = PauliSum::from_terms(2, vec![(1.0, ps("XX")), (0.5, ps("ZI"))]);
        let t = transform_hamiltonian(&h, &[]);
        assert_eq!(t, h);
    }

    #[test]
    fn cx_transform_matches_eq_3() {
        // Anticonjugation by CX(0→1): X0 ← CX† X0 CX... the anticonjugated
        // image of X0X1 is X0 (inverse direction of Eq. 3).
        let h = PauliSum::from_terms(2, vec![(1.0, ps("XX"))]);
        let t = transform_hamiltonian(&h, &[CliffordGate::Cx(0, 1)]);
        assert_eq!(t.coefficient_of(&ps("XI")), Some(1.0));
    }

    #[test]
    fn transformation_preserves_spectrum() {
        // Ground energies before and after random transformations agree
        // (unitary equivalence) — the core invariant of Clapton.
        let mut rng = StdRng::seed_from_u64(7);
        let n = 4;
        let h = PauliSum::from_terms(
            n,
            (0..8).map(|_| (rng.gen_range(-1.0..1.0), PauliString::random(n, &mut rng))),
        );
        let e0 = ground_energy(&h);
        let ansatz = TransformationAnsatz::new(n);
        for _ in 0..5 {
            let gamma: Vec<u8> = (0..ansatz.num_genes())
                .map(|_| rng.gen_range(0..4))
                .collect();
            let t = Transformation::from_genome(&h, &ansatz, gamma);
            assert_eq!(t.transformed.num_terms(), h.num_terms());
            let e0_t = ground_energy(&t.transformed);
            assert!((e0 - e0_t).abs() < 1e-8, "spectrum changed: {e0} vs {e0_t}");
        }
    }

    #[test]
    fn recovery_circuit_translates_states() {
        // ⟨ψ̂|Ĥ|ψ̂⟩ = ⟨Ĉψ̂|H|Ĉψ̂⟩ for random states ψ̂ (end of §3.2).
        let mut rng = StdRng::seed_from_u64(21);
        let n = 3;
        let h = PauliSum::from_terms(
            n,
            (0..6).map(|_| (rng.gen_range(-1.0..1.0), PauliString::random(n, &mut rng))),
        );
        let ansatz = TransformationAnsatz::new(n);
        let gamma: Vec<u8> = (0..ansatz.num_genes())
            .map(|_| rng.gen_range(0..4))
            .collect();
        let t = Transformation::from_genome(&h, &ansatz, gamma);
        // Random state from a random circuit.
        let mut prep = Circuit::new(n);
        for q in 0..n {
            prep.push(clapton_circuits::Gate::Ry(
                q,
                rng.gen_range(0.0..std::f64::consts::TAU),
            ));
        }
        prep.push(clapton_circuits::Gate::Cx(0, 1));
        prep.push(clapton_circuits::Gate::Cx(1, 2));
        let psi_hat = StateVector::from_circuit(&prep);
        let e_hat = psi_hat.energy(&t.transformed);
        // |ψ⟩ = Ĉ|ψ̂⟩.
        let mut full = prep.clone();
        full.append(&t.recovery_circuit(&ansatz));
        let psi = StateVector::from_circuit(&full);
        let e = psi.energy(&h);
        assert!((e - e_hat).abs() < 1e-9, "{e} vs {e_hat}");
    }

    #[test]
    fn transformation_composes_with_sign_absorption() {
        // S† X S = ... anticonjugation by S of X: S† X S = -Y... verify the
        // coefficient sign is carried into the sum.
        let h = PauliSum::from_terms(1, vec![(3.0, ps("X"))]);
        let t = transform_hamiltonian(&h, &[CliffordGate::S(0)]);
        // S† X S: conjugation by S†, i.e. apply Sdg-rule: X → -Y.
        assert_eq!(t.coefficient_of(&ps("Y")), Some(-3.0));
    }

    #[test]
    fn batched_transform_matches_scalar_anticonjugation() {
        // Every output term — coefficient bits and string — must equal the
        // one-string reference applied to its input term, for all 13 gate
        // variants, registers across the 64-qubit word boundary and term
        // counts around the 64-lane batch boundary.
        use clapton_stabilizer::anticonjugate_through;
        let mut rng = StdRng::seed_from_u64(57);
        for n in [1usize, 5, 70] {
            for m in [1usize, 63, 64, 65, 200] {
                let h = PauliSum::from_terms(
                    n,
                    (0..m).map(|_| (rng.gen_range(-1.0..1.0), PauliString::random(n, &mut rng))),
                );
                let gates: Vec<CliffordGate> = (0..40)
                    .map(|_| {
                        let a = rng.gen_range(0..n);
                        let b = (a + rng.gen_range(1..n.max(2))) % n;
                        match rng.gen_range(0..if n > 1 { 13 } else { 10 }) {
                            0 => CliffordGate::H(a),
                            1 => CliffordGate::S(a),
                            2 => CliffordGate::Sdg(a),
                            3 => CliffordGate::X(a),
                            4 => CliffordGate::Y(a),
                            5 => CliffordGate::Z(a),
                            6 => CliffordGate::SqrtX(a),
                            7 => CliffordGate::SqrtXdg(a),
                            8 => CliffordGate::SqrtY(a),
                            9 => CliffordGate::SqrtYdg(a),
                            10 => CliffordGate::Cx(a, b),
                            11 => CliffordGate::Cz(a, b),
                            _ => CliffordGate::Swap(a, b),
                        }
                    })
                    .collect();
                let t = transform_hamiltonian(&h, &gates);
                assert_eq!(t.num_terms(), m);
                for ((c, p), (tc, tp)) in h.iter().zip(t.iter()) {
                    let mut image = p.clone();
                    let sign = anticonjugate_through(&gates, &mut image);
                    assert_eq!(tp, &image, "n {n} M {m}");
                    assert_eq!(tc.to_bits(), (sign * c).to_bits(), "n {n} M {m}");
                }
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let h = PauliSum::from_terms(2, vec![(1.0, ps("ZZ"))]);
        let ansatz = TransformationAnsatz::new(2);
        let t = Transformation::from_genome(&h, &ansatz, vec![0; ansatz.num_genes()]);
        let json = serde_json::to_string(&t).unwrap();
        let back: Transformation = serde_json::from_str(&json).unwrap();
        assert_eq!(back.gamma, t.gamma);
        assert_eq!(back.transformed, t.transformed);
    }
}
