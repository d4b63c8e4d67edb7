//! The paper's two ansätze: the VQE circuit `A(θ)` and Clapton's Clifford
//! transformation circuit `C(γ)`.

use crate::{Circuit, Gate};
use clapton_stabilizer::CliffordGate;
use serde::{Deserialize, Serialize};
use std::f64::consts::FRAC_PI_2;

/// The four Clifford-compatible rotation angles `{0, π/2, π, 3π/2}` (§4).
pub const CLIFFORD_ANGLES: [f64; 4] = [0.0, FRAC_PI_2, 2.0 * FRAC_PI_2, 3.0 * FRAC_PI_2];

/// The circular hardware-efficient VQE ansatz `A(θ)` of §4.
///
/// Layer structure: `Ry` on every qubit, `Rz` on every qubit, a circular CX
/// entangler `(0→1, 1→2, …, N-1→0)`, then another `Ry` and `Rz` layer —
/// `d = 4N` rotation parameters total. At `θ = 0` only the CX skeleton
/// remains and `A(0)|0⟩ = |0⟩` (§4.2.1).
///
/// # Example
///
/// ```
/// use clapton_circuits::HardwareEfficientAnsatz;
///
/// let ansatz = HardwareEfficientAnsatz::new(4);
/// assert_eq!(ansatz.num_parameters(), 16);
/// let at_zero = ansatz.circuit(&vec![0.0; 16]);
/// // Only the 4 ring CX gates act non-trivially.
/// assert_eq!(at_zero.count_two_qubit(), 4);
/// assert!(at_zero.is_clifford());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardwareEfficientAnsatz {
    n: usize,
}

impl HardwareEfficientAnsatz {
    /// Creates the ansatz on `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> HardwareEfficientAnsatz {
        assert!(n > 0, "ansatz needs at least one qubit");
        HardwareEfficientAnsatz { n }
    }

    /// The register size `N`.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The number of rotation parameters `d = 4N`.
    pub fn num_parameters(&self) -> usize {
        4 * self.n
    }

    /// The entangling ring: pairs `(i, i+1 mod N)`. For `N = 2` the wrapped
    /// pair would duplicate `(0, 1)` and is dropped; `N = 1` has no pairs.
    pub fn entangling_pairs(&self) -> Vec<(usize, usize)> {
        match self.n {
            1 => vec![],
            2 => vec![(0, 1)],
            n => (0..n).map(|i| (i, (i + 1) % n)).collect(),
        }
    }

    /// Builds the circuit for parameter vector `θ`.
    ///
    /// # Panics
    ///
    /// Panics if `theta.len() != num_parameters()`.
    pub fn circuit(&self, theta: &[f64]) -> Circuit {
        assert_eq!(theta.len(), self.num_parameters(), "parameter count");
        let n = self.n;
        let mut c = Circuit::new(n);
        for (q, &t) in theta[..n].iter().enumerate() {
            c.push(Gate::Ry(q, t));
        }
        for (q, &t) in theta[n..2 * n].iter().enumerate() {
            c.push(Gate::Rz(q, t));
        }
        for (a, b) in self.entangling_pairs() {
            c.push(Gate::Cx(a, b));
        }
        for (q, &t) in theta[2 * n..3 * n].iter().enumerate() {
            c.push(Gate::Ry(q, t));
        }
        for (q, &t) in theta[3 * n..4 * n].iter().enumerate() {
            c.push(Gate::Rz(q, t));
        }
        c
    }

    /// The circuit at the Clapton initial point `θ = 0` (the CX skeleton with
    /// identity rotations still present as physical gate slots — they carry
    /// gate noise in the noisy model).
    pub fn circuit_at_zero(&self) -> Circuit {
        self.circuit(&vec![0.0; self.num_parameters()])
    }

    /// Converts CAFQA-style quarter-turn indices (each in `0..4`) to angles.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= 4` or the length is wrong.
    pub fn angles_from_indices(&self, indices: &[u8]) -> Vec<f64> {
        assert_eq!(indices.len(), self.num_parameters(), "index count");
        indices
            .iter()
            .map(|&k| {
                assert!(k < 4, "quarter-turn index {k} out of range");
                CLIFFORD_ANGLES[k as usize]
            })
            .collect()
    }
}

/// Clapton's Clifford transformation ansatz `C(γ)` (§4, Eq. 8).
///
/// It mirrors the VQE ansatz but replaces each ring CX with a four-valued
/// two-qubit slot, and restricts rotations to quarter turns. The genome is
///
/// ```text
/// [ Ry layer (N) | Rz layer (N) | two-qubit slots (#pairs) | Ry layer (N) | Rz layer (N) ]
/// ```
///
/// with every gene in `0..4`; for `N ≥ 3` that is the paper's `5N`-dimensional
/// search space Γ. Two-qubit slot values: `0 ↦ I`, `1 ↦ CX(k→l)`,
/// `2 ↦ CX(l→k)`, `3 ↦ SWAP`.
///
/// # Example
///
/// ```
/// use clapton_circuits::TransformationAnsatz;
///
/// let ansatz = TransformationAnsatz::new(4);
/// assert_eq!(ansatz.num_genes(), 20); // 5N
/// let gates = ansatz.gates(&vec![0u8; 20]);
/// assert!(gates.is_empty()); // all-zero genome is the identity
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransformationAnsatz {
    n: usize,
    pairs: Vec<(usize, usize)>,
}

impl TransformationAnsatz {
    /// Creates the transformation ansatz on `n` qubits with the circular
    /// pair layout of [`HardwareEfficientAnsatz`].
    pub fn new(n: usize) -> TransformationAnsatz {
        let pairs = HardwareEfficientAnsatz::new(n).entangling_pairs();
        TransformationAnsatz { n, pairs }
    }

    /// Creates the ansatz with explicit two-qubit slot pairs (used when the
    /// transformation should match a transpiled/physical connectivity).
    ///
    /// # Panics
    ///
    /// Panics if a pair index is out of range or a pair is degenerate.
    pub fn with_pairs(n: usize, pairs: Vec<(usize, usize)>) -> TransformationAnsatz {
        for &(a, b) in &pairs {
            assert!(a < n && b < n && a != b, "invalid pair ({a},{b})");
        }
        TransformationAnsatz { n, pairs }
    }

    /// The register size `N`.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The two-qubit slot pairs.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// Genome length: `4N` rotation genes + one gene per pair
    /// (= `5N` for `N ≥ 3`).
    pub fn num_genes(&self) -> usize {
        4 * self.n + self.pairs.len()
    }

    /// Builds the Clifford gate sequence for a genome.
    ///
    /// # Panics
    ///
    /// Panics if the genome length is wrong or any gene is `>= 4`.
    pub fn gates(&self, genes: &[u8]) -> Vec<CliffordGate> {
        assert_eq!(genes.len(), self.num_genes(), "genome length");
        let n = self.n;
        let mut out = Vec::new();
        let rot = |out: &mut Vec<CliffordGate>, q: usize, k: u8, is_ry: bool| {
            assert!(k < 4, "gene {k} out of range");
            let g = if is_ry {
                CliffordGate::ry_quarter(q, k)
            } else {
                CliffordGate::rz_quarter(q, k)
            };
            out.extend(g);
        };
        for (q, &k) in genes[..n].iter().enumerate() {
            rot(&mut out, q, k, true);
        }
        for (q, &k) in genes[n..2 * n].iter().enumerate() {
            rot(&mut out, q, k, false);
        }
        for (j, &(a, b)) in self.pairs.iter().enumerate() {
            match genes[2 * n + j] {
                0 => {}
                1 => out.push(CliffordGate::Cx(a, b)),
                2 => out.push(CliffordGate::Cx(b, a)),
                3 => out.push(CliffordGate::Swap(a, b)),
                g => panic!("two-qubit gene {g} out of range"),
            }
        }
        let base = 2 * n + self.pairs.len();
        for q in 0..n {
            rot(&mut out, q, genes[base + q], true);
        }
        for q in 0..n {
            rot(&mut out, q, genes[base + n + q], false);
        }
        out
    }

    /// Builds the same ansatz as a [`Circuit`] (for simulators that consume
    /// the parametric IR).
    pub fn circuit(&self, genes: &[u8]) -> Circuit {
        let mut c = Circuit::new(self.n);
        for g in self.gates(genes) {
            let gate = match g {
                CliffordGate::SqrtY(q) => Gate::Ry(q, CLIFFORD_ANGLES[1]),
                CliffordGate::Y(q) => Gate::Ry(q, CLIFFORD_ANGLES[2]),
                CliffordGate::SqrtYdg(q) => Gate::Ry(q, CLIFFORD_ANGLES[3]),
                CliffordGate::S(q) => Gate::Rz(q, CLIFFORD_ANGLES[1]),
                CliffordGate::Z(q) => Gate::Rz(q, CLIFFORD_ANGLES[2]),
                CliffordGate::Sdg(q) => Gate::Rz(q, CLIFFORD_ANGLES[3]),
                CliffordGate::Cx(c_, t) => Gate::Cx(c_, t),
                CliffordGate::Swap(a, b) => Gate::Swap(a, b),
                other => unreachable!("ansatz produced unexpected gate {other}"),
            };
            c.push(gate);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapton_stabilizer::StabilizerState;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn parameter_count_is_4n() {
        for n in 1..8 {
            assert_eq!(HardwareEfficientAnsatz::new(n).num_parameters(), 4 * n);
        }
    }

    #[test]
    fn entangling_ring_shapes() {
        assert_eq!(HardwareEfficientAnsatz::new(1).entangling_pairs(), vec![]);
        assert_eq!(
            HardwareEfficientAnsatz::new(2).entangling_pairs(),
            vec![(0, 1)]
        );
        assert_eq!(
            HardwareEfficientAnsatz::new(4).entangling_pairs(),
            vec![(0, 1), (1, 2), (2, 3), (3, 0)]
        );
    }

    #[test]
    fn zero_point_keeps_all_zeros_state() {
        // A(0)|0⟩ = |0⟩ (§4.2.1): every Z expectation stays +1.
        for n in [2, 3, 5] {
            let ansatz = HardwareEfficientAnsatz::new(n);
            let gates = ansatz.circuit_at_zero().to_clifford().unwrap();
            let mut st = StabilizerState::new(n);
            st.apply_all(&gates);
            for q in 0..n {
                let z = clapton_pauli::PauliString::single(n, q, clapton_pauli::Pauli::Z);
                assert_eq!(st.expectation(&z), 1.0, "qubit {q} left |0⟩");
            }
        }
    }

    #[test]
    fn clifford_indices_give_clifford_circuit() {
        let mut rng = StdRng::seed_from_u64(3);
        let ansatz = HardwareEfficientAnsatz::new(4);
        for _ in 0..10 {
            let idx: Vec<u8> = (0..ansatz.num_parameters())
                .map(|_| rng.gen_range(0..4))
                .collect();
            let c = ansatz.circuit(&ansatz.angles_from_indices(&idx));
            assert!(c.is_clifford());
        }
        // Generic angles are not Clifford.
        let mut theta = vec![0.0; 16];
        theta[3] = 0.123;
        assert!(!ansatz.circuit(&theta).is_clifford());
    }

    #[test]
    fn transformation_genome_length_is_5n_for_rings() {
        for n in 3..8 {
            assert_eq!(TransformationAnsatz::new(n).num_genes(), 5 * n);
        }
        // N = 2 has a single pair.
        assert_eq!(TransformationAnsatz::new(2).num_genes(), 9);
    }

    #[test]
    fn two_qubit_slots_decode_eq_8() {
        let ansatz = TransformationAnsatz::new(3);
        let mut genes = vec![0u8; ansatz.num_genes()];
        // slots are genes[6..9] for pairs (0,1),(1,2),(2,0)
        genes[6] = 1;
        genes[7] = 2;
        genes[8] = 3;
        let gates = ansatz.gates(&genes);
        assert_eq!(
            gates,
            vec![
                CliffordGate::Cx(0, 1),
                CliffordGate::Cx(2, 1),
                CliffordGate::Swap(2, 0),
            ]
        );
    }

    #[test]
    fn rotation_genes_decode_quarter_turns() {
        let ansatz = TransformationAnsatz::new(2);
        let mut genes = vec![0u8; ansatz.num_genes()];
        genes[0] = 1; // Ry(π/2) on qubit 0 → SqrtY
        genes[3] = 2; // Rz(π) on qubit 1 → Z
        let gates = ansatz.gates(&genes);
        assert_eq!(gates, vec![CliffordGate::SqrtY(0), CliffordGate::Z(1)]);
    }

    #[test]
    fn circuit_and_gates_agree() {
        let mut rng = StdRng::seed_from_u64(17);
        let ansatz = TransformationAnsatz::new(4);
        for _ in 0..10 {
            let genes: Vec<u8> = (0..ansatz.num_genes())
                .map(|_| rng.gen_range(0..4))
                .collect();
            let via_circuit = ansatz.circuit(&genes).to_clifford().unwrap();
            assert_eq!(via_circuit, ansatz.gates(&genes));
        }
    }

    #[test]
    fn with_pairs_respects_custom_layout() {
        let ansatz = TransformationAnsatz::with_pairs(4, vec![(0, 2), (1, 3)]);
        assert_eq!(ansatz.num_genes(), 18);
        assert_eq!(ansatz.pairs(), &[(0, 2), (1, 3)]);
    }

    #[test]
    #[should_panic(expected = "invalid pair")]
    fn with_pairs_rejects_degenerate() {
        TransformationAnsatz::with_pairs(3, vec![(1, 1)]);
    }
}
