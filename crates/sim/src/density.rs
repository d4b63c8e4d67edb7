//! Dense density-matrix simulation with non-Clifford noise channels.

use crate::statevector::{i_power, masks, one_qubit_unitary};
use crate::Complex64;
use clapton_circuits::Gate;
use clapton_pauli::{PauliString, PauliSum};

/// The largest register a [`DensityMatrix`] holds: `4^n` complex entries
/// (256 MiB at 12 qubits).
pub const MAX_DENSITY_QUBITS: usize = 12;

/// A dense `2^N × 2^N` density matrix.
///
/// Supports unitary gates, single-/two-qubit depolarizing channels and
/// amplitude damping (thermal relaxation) — the "full complex noise model"
/// of the paper's device evaluations (§5.2.2), which is deliberately *not*
/// Clifford-simulable.
///
/// # Example
///
/// ```
/// use clapton_circuits::Gate;
/// use clapton_sim::DensityMatrix;
///
/// let mut rho = DensityMatrix::new(1);
/// rho.apply_gate(Gate::X(0));
/// // 30% amplitude damping partially restores |0⟩: ⟨Z⟩ = 2γ - 1.
/// rho.amplitude_damp(0, 0.3);
/// let z = "Z".parse().unwrap();
/// assert!((rho.expectation(&z) - (2.0 * 0.3 - 1.0)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    n: usize,
    dim: usize,
    data: Vec<Complex64>,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_DENSITY_QUBITS`].
    pub fn new(n: usize) -> DensityMatrix {
        assert!(
            n <= MAX_DENSITY_QUBITS,
            "density matrix of {n} qubits is too large"
        );
        let dim = 1usize << n;
        let mut data = vec![Complex64::ZERO; dim * dim];
        data[0] = Complex64::ONE;
        DensityMatrix { n, dim, data }
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> Complex64 {
        self.data[r * self.dim + c]
    }

    #[inline]
    fn set(&mut self, r: usize, c: usize, v: Complex64) {
        self.data[r * self.dim + c] = v;
    }

    /// The trace (1 for a valid state).
    pub fn trace(&self) -> f64 {
        (0..self.dim).map(|r| self.at(r, r).re).sum()
    }

    /// The purity `tr(ρ²)` (1 for pure states, `1/2^N` for fully mixed).
    pub fn purity(&self) -> f64 {
        // tr(ρ²) = Σ_{r,c} ρ(r,c)·ρ(c,r) = Σ |ρ(r,c)|² for Hermitian ρ.
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Applies a unitary gate: `ρ ← U ρ U†`.
    pub fn apply_gate(&mut self, gate: Gate) {
        match gate {
            Gate::Cx(c, t) => {
                let (bc, bt) = (1usize << c, 1usize << t);
                self.sandwich_permutation(|i| if i & bc != 0 { i ^ bt } else { i });
            }
            Gate::Swap(a, b) => {
                let (ba, bb) = (1usize << a, 1usize << b);
                self.sandwich_permutation(|i| {
                    let (ia, ib) = ((i & ba != 0) as usize, (i & bb != 0) as usize);
                    if ia != ib {
                        i ^ ba ^ bb
                    } else {
                        i
                    }
                });
            }
            one_qubit => {
                let (q, u) = one_qubit_unitary(one_qubit);
                self.apply_1q(q, u);
            }
        }
    }

    /// `ρ ← P ρ P†` for a permutation `P` that is an involution
    /// (`f(f(i)) = i`), e.g. CX or SWAP.
    fn sandwich_permutation<F: Fn(usize) -> usize>(&mut self, f: F) {
        for r in 0..self.dim {
            for c in 0..self.dim {
                let (fr, fc) = (f(r), f(c));
                // Visit each 2-element orbit once.
                if (fr, fc) > (r, c) {
                    let tmp = self.at(r, c);
                    let other = self.at(fr, fc);
                    self.set(r, c, other);
                    self.set(fr, fc, tmp);
                }
            }
        }
    }

    /// `ρ ← (U⊗I) ρ (U†⊗I)` for a single-qubit unitary on `q`.
    fn apply_1q(&mut self, q: usize, u: [[Complex64; 2]; 2]) {
        let bit = 1usize << q;
        // Left multiplication: rows.
        for r in 0..self.dim {
            if r & bit == 0 {
                for c in 0..self.dim {
                    let (a0, a1) = (self.at(r, c), self.at(r | bit, c));
                    self.set(r, c, u[0][0] * a0 + u[0][1] * a1);
                    self.set(r | bit, c, u[1][0] * a0 + u[1][1] * a1);
                }
            }
        }
        // Right multiplication by U†: columns.
        for c in 0..self.dim {
            if c & bit == 0 {
                for r in 0..self.dim {
                    let (a0, a1) = (self.at(r, c), self.at(r, c | bit));
                    self.set(r, c, a0 * u[0][0].conj() + a1 * u[0][1].conj());
                    self.set(r, c | bit, a0 * u[1][0].conj() + a1 * u[1][1].conj());
                }
            }
        }
    }

    /// Single-qubit depolarizing channel of strength `p`
    /// (`X/Y/Z` each with probability `p/3` — the stim convention, §4.2.2).
    pub fn depolarize_1q(&mut self, q: usize, p: f64) {
        if p == 0.0 {
            return;
        }
        let bit = 1usize << q;
        let pop_keep = 1.0 - 2.0 * p / 3.0;
        let pop_mix = 2.0 * p / 3.0;
        let coh = 1.0 - 4.0 * p / 3.0;
        for r in 0..self.dim {
            if r & bit != 0 {
                continue;
            }
            for c in 0..self.dim {
                if c & bit != 0 {
                    continue;
                }
                let (r1, c1) = (r | bit, c | bit);
                let d00 = self.at(r, c);
                let d11 = self.at(r1, c1);
                self.set(r, c, d00.scale(pop_keep) + d11.scale(pop_mix));
                self.set(r1, c1, d11.scale(pop_keep) + d00.scale(pop_mix));
                self.set(r, c1, self.at(r, c1).scale(coh));
                self.set(r1, c, self.at(r1, c).scale(coh));
            }
        }
    }

    /// Two-qubit depolarizing channel of strength `p` (each of the 15
    /// non-identity two-qubit Paulis with probability `p/15`).
    ///
    /// Implemented via the identity
    /// `D(ρ) = λρ + (1-λ)·(tr_ab(ρ) ⊗ I/4)` with `λ = 1 - 16p/15`.
    pub fn depolarize_2q(&mut self, a: usize, b: usize, p: f64) {
        if p == 0.0 {
            return;
        }
        assert!(a != b, "two-qubit channel needs distinct qubits");
        let (ba, bb) = (1usize << a, 1usize << b);
        let mask = !(ba | bb);
        let lambda = 1.0 - 16.0 * p / 15.0;
        let sub = [0, ba, bb, ba | bb];
        for r in 0..self.dim {
            if r & (ba | bb) != 0 {
                continue;
            }
            for c in 0..self.dim {
                if c & (ba | bb) != 0 {
                    continue;
                }
                debug_assert_eq!(r & mask, r);
                debug_assert_eq!(c & mask, c);
                // Partial trace over the (a, b) subsystem for this block.
                let mut tr_sub = Complex64::ZERO;
                for &k in &sub {
                    tr_sub += self.at(r | k, c | k);
                }
                let mix = tr_sub.scale((1.0 - lambda) / 4.0);
                for &kr in &sub {
                    for &kc in &sub {
                        let old = self.at(r | kr, c | kc);
                        let new = if kr == kc {
                            old.scale(lambda) + mix
                        } else {
                            old.scale(lambda)
                        };
                        self.set(r | kr, c | kc, new);
                    }
                }
            }
        }
    }

    /// Amplitude damping (thermal relaxation toward `|0⟩`) with decay
    /// probability `γ = 1 - e^{-t/T1}` on qubit `q` (§2.2.1).
    pub fn amplitude_damp(&mut self, q: usize, gamma: f64) {
        if gamma == 0.0 {
            return;
        }
        assert!(
            (0.0..=1.0).contains(&gamma),
            "γ = {gamma} not a probability"
        );
        let bit = 1usize << q;
        let s = (1.0 - gamma).sqrt();
        for r in 0..self.dim {
            if r & bit != 0 {
                continue;
            }
            for c in 0..self.dim {
                if c & bit != 0 {
                    continue;
                }
                let (r1, c1) = (r | bit, c | bit);
                let d11 = self.at(r1, c1);
                // K0 ρ K0† + K1 ρ K1†.
                self.set(r, c, self.at(r, c) + d11.scale(gamma));
                self.set(r1, c1, d11.scale(1.0 - gamma));
                self.set(r, c1, self.at(r, c1).scale(s));
                self.set(r1, c, self.at(r1, c).scale(s));
            }
        }
    }

    /// The expectation value `tr(ρP)` of a Hermitian Pauli string.
    ///
    /// # Panics
    ///
    /// Panics if the string acts on a different number of qubits.
    pub fn expectation(&self, p: &PauliString) -> f64 {
        assert_eq!(p.num_qubits(), self.n, "qubit count mismatch");
        let (x_mask, z_mask, y_count) = masks(p);
        let phase0 = i_power(y_count);
        let mut acc = Complex64::ZERO;
        // tr(ρP) = Σ_r ρ(r, r⊕x)·φ(r),  φ(r) = i^{#Y}(-1)^{z·r}.
        for r in 0..self.dim {
            let sign = if ((r as u64) & z_mask).count_ones() & 1 == 1 {
                -1.0
            } else {
                1.0
            };
            acc += self.at(r, r ^ (x_mask as usize)) * phase0.scale(sign);
        }
        debug_assert!(acc.im.abs() < 1e-9, "Hermitian expectation must be real");
        acc.re
    }

    /// The energy `tr(ρH)`.
    pub fn energy(&self, h: &PauliSum) -> f64 {
        h.iter().map(|(c, p)| c * self.expectation(p)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateVector;
    use clapton_circuits::Circuit;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    fn random_circuit(n: usize, len: usize, rng: &mut StdRng) -> Circuit {
        let mut c = Circuit::new(n);
        for _ in 0..len {
            match rng.gen_range(0..5) {
                0 => c.push(Gate::Ry(
                    rng.gen_range(0..n),
                    rng.gen_range(0.0..std::f64::consts::TAU),
                )),
                1 => c.push(Gate::Rz(
                    rng.gen_range(0..n),
                    rng.gen_range(0.0..std::f64::consts::TAU),
                )),
                2 => c.push(Gate::H(rng.gen_range(0..n))),
                3 => c.push(Gate::S(rng.gen_range(0..n))),
                _ => {
                    if n >= 2 {
                        let a = rng.gen_range(0..n);
                        let mut b = rng.gen_range(0..n);
                        while b == a {
                            b = rng.gen_range(0..n);
                        }
                        c.push(Gate::Cx(a, b));
                    }
                }
            }
        }
        c
    }

    #[test]
    fn pure_state_invariants() {
        let rho = DensityMatrix::new(3);
        assert!((rho.trace() - 1.0).abs() < 1e-15);
        assert!((rho.purity() - 1.0).abs() < 1e-15);
        assert_eq!(rho.expectation(&ps("ZZZ")), 1.0);
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..10 {
            let n = rng.gen_range(1..4);
            let c = random_circuit(n, 15, &mut rng);
            let sv = StateVector::from_circuit(&c);
            let mut rho = DensityMatrix::new(n);
            for &g in c.gates() {
                rho.apply_gate(g);
            }
            assert!((rho.trace() - 1.0).abs() < 1e-10);
            assert!((rho.purity() - 1.0).abs() < 1e-10);
            for _ in 0..8 {
                let p = PauliString::random(n, &mut rng);
                assert!(
                    (rho.expectation(&p) - sv.expectation(&p)).abs() < 1e-9,
                    "term {p}"
                );
            }
        }
    }

    #[test]
    fn depolarize_1q_damps_coherences_and_populations() {
        let p = 0.3;
        let mut rho = DensityMatrix::new(1);
        rho.apply_gate(Gate::H(0));
        rho.depolarize_1q(0, p);
        // ⟨X⟩ is a coherence: damped by 1-4p/3.
        assert!((rho.expectation(&ps("X")) - (1.0 - 4.0 * p / 3.0)).abs() < 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        // Fully depolarizing at p = 3/4 gives the maximally mixed state.
        let mut rho = DensityMatrix::new(1);
        rho.depolarize_1q(0, 0.75);
        assert!(rho.expectation(&ps("Z")).abs() < 1e-12);
        assert!((rho.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn depolarize_2q_damping_factor() {
        let p = 0.2;
        let mut rho = DensityMatrix::new(2);
        rho.apply_gate(Gate::H(0));
        rho.apply_gate(Gate::Cx(0, 1));
        rho.depolarize_2q(0, 1, p);
        let f = 1.0 - 16.0 * p / 15.0;
        for t in ["XX", "ZZ", "YY"] {
            let clean: f64 = if t == "YY" { -1.0 } else { 1.0 };
            assert!(
                (rho.expectation(&ps(t)) - clean * f).abs() < 1e-12,
                "term {t}"
            );
        }
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn depolarize_2q_only_touches_pair() {
        let p = 0.4;
        let mut rho = DensityMatrix::new(3);
        rho.apply_gate(Gate::X(2));
        rho.depolarize_2q(0, 1, p);
        assert_eq!(rho.expectation(&ps("IIZ")), -1.0);
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let gamma: f64 = 0.25;
        let mut rho = DensityMatrix::new(1);
        rho.apply_gate(Gate::X(0));
        rho.amplitude_damp(0, gamma);
        assert!((rho.expectation(&ps("Z")) - (2.0 * gamma - 1.0)).abs() < 1e-12);
        // Coherences decay by √(1-γ).
        let mut rho = DensityMatrix::new(1);
        rho.apply_gate(Gate::H(0));
        rho.amplitude_damp(0, gamma);
        assert!((rho.expectation(&ps("X")) - (1.0 - gamma).sqrt()).abs() < 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amplitude_damping_composes_exponentially() {
        // Two dampings of γ each = one damping of 1-(1-γ)².
        let gamma = 0.2;
        let mut a = DensityMatrix::new(1);
        a.apply_gate(Gate::X(0));
        a.amplitude_damp(0, gamma);
        a.amplitude_damp(0, gamma);
        let mut b = DensityMatrix::new(1);
        b.apply_gate(Gate::X(0));
        b.amplitude_damp(0, 1.0 - (1.0 - gamma) * (1.0 - gamma));
        assert!((a.expectation(&ps("Z")) - b.expectation(&ps("Z"))).abs() < 1e-12);
    }

    #[test]
    fn channels_preserve_trace_on_random_states() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = random_circuit(3, 20, &mut rng);
        let mut rho = DensityMatrix::new(3);
        for &g in c.gates() {
            rho.apply_gate(g);
        }
        rho.depolarize_1q(1, 0.1);
        rho.depolarize_2q(0, 2, 0.05);
        rho.amplitude_damp(2, 0.15);
        assert!((rho.trace() - 1.0).abs() < 1e-10);
        assert!(rho.purity() <= 1.0 + 1e-10);
    }
}
