//! Dense statevector simulation.

use crate::Complex64;
use clapton_circuits::{Circuit, Gate};
use clapton_pauli::{PauliString, PauliSum};

/// A dense `2^N`-amplitude quantum state.
///
/// # Example
///
/// ```
/// use clapton_circuits::{Circuit, Gate};
/// use clapton_sim::StateVector;
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::H(0));
/// c.push(Gate::Cx(0, 1));
/// let sv = StateVector::from_circuit(&c);
/// let zz = "ZZ".parse().unwrap();
/// assert!((sv.expectation(&zz) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n: usize,
    amps: Vec<Complex64>,
}

impl StateVector {
    /// The all-zeros state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 26` (amplitude vector would exceed 1 GiB).
    pub fn new(n: usize) -> StateVector {
        assert!(n <= 26, "statevector of {n} qubits is too large");
        let mut amps = vec![Complex64::ZERO; 1 << n];
        amps[0] = Complex64::ONE;
        StateVector { n, amps }
    }

    /// Runs a circuit on `|0…0⟩`.
    pub fn from_circuit(circuit: &Circuit) -> StateVector {
        let mut sv = StateVector::new(circuit.num_qubits());
        sv.apply_circuit(circuit);
        sv
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The raw amplitudes (index bit `k` = qubit `k`).
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Applies a single gate.
    pub fn apply_gate(&mut self, gate: Gate) {
        match gate {
            Gate::Cx(c, t) => {
                let (bc, bt) = (1usize << c, 1usize << t);
                for i in 0..self.amps.len() {
                    if i & bc != 0 && i & bt == 0 {
                        self.amps.swap(i, i | bt);
                    }
                }
            }
            Gate::Swap(a, b) => {
                let (ba, bb) = (1usize << a, 1usize << b);
                for i in 0..self.amps.len() {
                    if i & ba != 0 && i & bb == 0 {
                        self.amps.swap(i, (i & !ba) | bb);
                    }
                }
            }
            one_qubit => {
                let (q, u) = one_qubit_unitary(one_qubit);
                self.apply_1q(q, u);
            }
        }
    }

    /// Applies every gate of a circuit in order.
    ///
    /// # Panics
    ///
    /// Panics if the register sizes differ.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert_eq!(circuit.num_qubits(), self.n, "register size mismatch");
        for &g in circuit.gates() {
            self.apply_gate(g);
        }
    }

    fn apply_1q(&mut self, q: usize, u: [[Complex64; 2]; 2]) {
        let bit = 1usize << q;
        for i in 0..self.amps.len() {
            if i & bit == 0 {
                let (a0, a1) = (self.amps[i], self.amps[i | bit]);
                self.amps[i] = u[0][0] * a0 + u[0][1] * a1;
                self.amps[i | bit] = u[1][0] * a0 + u[1][1] * a1;
            }
        }
    }

    /// The expectation value `⟨ψ|P|ψ⟩` of a Hermitian Pauli string.
    ///
    /// # Panics
    ///
    /// Panics if the string acts on a different number of qubits.
    pub fn expectation(&self, p: &PauliString) -> f64 {
        assert_eq!(p.num_qubits(), self.n, "qubit count mismatch");
        let (x_mask, z_mask, y_count) = masks(p);
        let phase0 = i_power(y_count);
        let mut acc = Complex64::ZERO;
        for s in 0..self.amps.len() {
            let sz = (s as u64) & z_mask;
            let sign = if sz.count_ones() & 1 == 1 { -1.0 } else { 1.0 };
            // P|s⟩ = i^{#Y}(-1)^{z·s}|s ⊕ x⟩ ⇒ ⟨ψ|P|ψ⟩ = Σ conj(ψ[s⊕x])·φ(s)·ψ[s]
            let target = s ^ (x_mask as usize);
            acc += self.amps[target].conj() * self.amps[s] * phase0.scale(sign);
        }
        debug_assert!(acc.im.abs() < 1e-9, "Hermitian expectation must be real");
        acc.re
    }

    /// The energy `⟨ψ|H|ψ⟩` of a Pauli-sum Hamiltonian.
    pub fn energy(&self, h: &PauliSum) -> f64 {
        h.iter().map(|(c, p)| c * self.expectation(p)).sum()
    }

    /// Applies `H` to the state: `|ψ⟩ ← H|ψ⟩` (not unitary; used by the
    /// Lanczos eigensolver).
    pub fn apply_pauli_sum(&self, h: &PauliSum, out: &mut [Complex64]) {
        assert_eq!(out.len(), self.amps.len(), "output buffer size");
        out.fill(Complex64::ZERO);
        apply_pauli_sum_to(h, &self.amps, out);
    }

    /// The state norm (should be 1 for unitary evolution).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }
}

/// The qubit and 2×2 unitary of a one-qubit gate, shared by both dense
/// simulators' `apply_1q`.
///
/// # Panics
///
/// Panics on CX or SWAP, which each simulator applies as a permutation.
pub(crate) fn one_qubit_unitary(gate: Gate) -> (usize, [[Complex64; 2]; 2]) {
    match gate {
        Gate::Ry(q, a) => {
            let (c, s) = ((a / 2.0).cos(), (a / 2.0).sin());
            (
                q,
                [
                    [Complex64::real(c), Complex64::real(-s)],
                    [Complex64::real(s), Complex64::real(c)],
                ],
            )
        }
        Gate::Rz(q, a) => (
            q,
            [
                [Complex64::cis(-a / 2.0), Complex64::ZERO],
                [Complex64::ZERO, Complex64::cis(a / 2.0)],
            ],
        ),
        Gate::H(q) => {
            let h = Complex64::real(std::f64::consts::FRAC_1_SQRT_2);
            (q, [[h, h], [h, -h]])
        }
        Gate::S(q) => (
            q,
            [
                [Complex64::ONE, Complex64::ZERO],
                [Complex64::ZERO, Complex64::I],
            ],
        ),
        Gate::Sdg(q) => (
            q,
            [
                [Complex64::ONE, Complex64::ZERO],
                [Complex64::ZERO, -Complex64::I],
            ],
        ),
        Gate::X(q) => (
            q,
            [
                [Complex64::ZERO, Complex64::ONE],
                [Complex64::ONE, Complex64::ZERO],
            ],
        ),
        Gate::Cx(..) | Gate::Swap(..) => panic!("{gate:?} is not a one-qubit gate"),
    }
}

/// Extracts `(x_mask, z_mask, #Y)` of a Pauli string for index arithmetic
/// (restricted to ≤ 64 qubits — dense simulation never exceeds that).
pub(crate) fn masks(p: &PauliString) -> (u64, u64, u32) {
    let x = p.x_words()[0];
    let z = p.z_words()[0];
    (x, z, (x & z).count_ones())
}

/// `i^k` as a complex number.
pub(crate) fn i_power(k: u32) -> Complex64 {
    match k & 3 {
        0 => Complex64::ONE,
        1 => Complex64::I,
        2 => -Complex64::ONE,
        _ => -Complex64::I,
    }
}

/// `out += H · v` for a Pauli-sum operator.
pub(crate) fn apply_pauli_sum_to(h: &PauliSum, v: &[Complex64], out: &mut [Complex64]) {
    for (c, p) in h.iter() {
        let (x_mask, z_mask, y_count) = masks(p);
        let phase0 = i_power(y_count).scale(c);
        for (s, &amp) in v.iter().enumerate() {
            let sign = if ((s as u64) & z_mask).count_ones() & 1 == 1 {
                -1.0
            } else {
                1.0
            };
            out[s ^ (x_mask as usize)] += amp * phase0.scale(sign);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapton_stabilizer::StabilizerState;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::{FRAC_PI_2, PI};

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn fresh_state_is_zero() {
        let sv = StateVector::new(2);
        assert_eq!(sv.expectation(&ps("ZI")), 1.0);
        assert_eq!(sv.expectation(&ps("XI")), 0.0);
        assert!((sv.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn x_flips() {
        let mut sv = StateVector::new(1);
        sv.apply_gate(Gate::X(0));
        assert!((sv.expectation(&ps("Z")) + 1.0).abs() < 1e-15);
    }

    #[test]
    fn ry_interpolates() {
        let mut sv = StateVector::new(1);
        sv.apply_gate(Gate::Ry(0, 0.7));
        // ⟨Z⟩ = cos θ, ⟨X⟩ = sin θ for Ry(θ)|0⟩.
        assert!((sv.expectation(&ps("Z")) - 0.7f64.cos()).abs() < 1e-12);
        assert!((sv.expectation(&ps("X")) - 0.7f64.sin()).abs() < 1e-12);
    }

    #[test]
    fn rz_rotates_equator() {
        let mut sv = StateVector::new(1);
        sv.apply_gate(Gate::H(0));
        sv.apply_gate(Gate::Rz(0, FRAC_PI_2));
        // |+⟩ rotated by π/2 about Z: ⟨X⟩ → 0, ⟨Y⟩ → 1.
        assert!(sv.expectation(&ps("X")).abs() < 1e-12);
        assert!((sv.expectation(&ps("Y")) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_state_matches_stabilizer() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cx(0, 1));
        let sv = StateVector::from_circuit(&c);
        for t in ["XX", "ZZ", "YY", "XY", "ZI", "IZ", "XI"] {
            let mut st = StabilizerState::new(2);
            st.apply_all(&c.to_clifford().unwrap());
            assert!(
                (sv.expectation(&ps(t)) - st.expectation(&ps(t))).abs() < 1e-12,
                "term {t}"
            );
        }
    }

    #[test]
    fn random_clifford_circuits_match_stabilizer() {
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..15 {
            let n = rng.gen_range(2..5);
            let mut c = Circuit::new(n);
            for _ in 0..20 {
                match rng.gen_range(0..6) {
                    0 => c.push(Gate::H(rng.gen_range(0..n))),
                    1 => c.push(Gate::S(rng.gen_range(0..n))),
                    2 => c.push(Gate::Ry(rng.gen_range(0..n), FRAC_PI_2)),
                    3 => c.push(Gate::Rz(rng.gen_range(0..n), PI)),
                    _ => {
                        let a = rng.gen_range(0..n);
                        let mut b = rng.gen_range(0..n);
                        while b == a {
                            b = rng.gen_range(0..n);
                        }
                        if rng.gen() {
                            c.push(Gate::Cx(a, b));
                        } else {
                            c.push(Gate::Swap(a, b));
                        }
                    }
                }
            }
            let sv = StateVector::from_circuit(&c);
            let mut st = StabilizerState::new(n);
            st.apply_all(&c.to_clifford().unwrap());
            for _ in 0..8 {
                let p = PauliString::random(n, &mut rng);
                assert!(
                    (sv.expectation(&p) - st.expectation(&p)).abs() < 1e-10,
                    "term {p} on {c}"
                );
            }
        }
    }

    #[test]
    fn swap_gate_exchanges() {
        let mut sv = StateVector::new(2);
        sv.apply_gate(Gate::X(0));
        sv.apply_gate(Gate::Swap(0, 1));
        assert_eq!(sv.expectation(&ps("ZI")), 1.0);
        assert_eq!(sv.expectation(&ps("IZ")), -1.0);
    }

    #[test]
    fn energy_of_ising_plus_state() {
        // H = X0X1: on |++⟩ the energy is 1.
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::H(1));
        let sv = StateVector::from_circuit(&c);
        let h = PauliSum::from_terms(2, vec![(1.0, ps("XX"))]);
        assert!((sv.energy(&h) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn apply_pauli_sum_matches_expectation() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 3;
        let mut c = Circuit::new(n);
        c.push(Gate::Ry(0, 0.4));
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Ry(2, 1.1));
        let sv = StateVector::from_circuit(&c);
        let h = PauliSum::from_terms(
            n,
            (0..5).map(|_| (rng.gen_range(-1.0..1.0), PauliString::random(n, &mut rng))),
        );
        let mut hv = vec![Complex64::ZERO; 1 << n];
        sv.apply_pauli_sum(&h, &mut hv);
        // ⟨ψ|H|ψ⟩ via the matvec.
        let mut acc = Complex64::ZERO;
        for (a, b) in sv.amplitudes().iter().zip(&hv) {
            acc += a.conj() * *b;
        }
        assert!((acc.re - sv.energy(&h)).abs() < 1e-10);
        assert!(acc.im.abs() < 1e-10);
    }
}
