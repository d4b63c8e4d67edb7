//! Clifford gates and their exact Heisenberg conjugation rules.

use clapton_pauli::{Pauli, PauliString, TermBatch};
use std::fmt;

/// A single- or two-qubit Clifford gate.
///
/// `SqrtY`/`SqrtYdg` are `Ry(π/2)`/`Ry(3π/2)` and `S`/`Sdg` are
/// `Rz(π/2)`/`Rz(3π/2)` up to global phase, so together with the Pauli gates
/// they cover every Clifford angle of the paper's parameterized rotations
/// (§4: `θ ∈ {0, π/2, π, 3π/2}`).
///
/// # Example
///
/// ```
/// use clapton_pauli::PauliString;
/// use clapton_stabilizer::CliffordGate;
///
/// // H maps X → Z without a sign flip.
/// let mut p: PauliString = "X".parse().unwrap();
/// let flipped = CliffordGate::H(0).conjugate(&mut p);
/// assert!(!flipped);
/// assert_eq!(p, "Z".parse().unwrap());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CliffordGate {
    /// Hadamard.
    H(usize),
    /// Phase gate `S = Rz(π/2)` (up to global phase).
    S(usize),
    /// Inverse phase gate `S† = Rz(3π/2)`.
    Sdg(usize),
    /// Pauli X (`Rx(π)` / `Ry(π)·Rz(π)` up to phase).
    X(usize),
    /// Pauli Y (`Ry(π)` up to phase).
    Y(usize),
    /// Pauli Z (`Rz(π)` up to phase).
    Z(usize),
    /// `√X = Rx(π/2)` (up to global phase).
    SqrtX(usize),
    /// `√X† = Rx(3π/2)`.
    SqrtXdg(usize),
    /// `√Y = Ry(π/2)` (up to global phase).
    SqrtY(usize),
    /// `√Y† = Ry(3π/2)`.
    SqrtYdg(usize),
    /// Controlled-NOT with control `.0` and target `.1`.
    Cx(usize, usize),
    /// Controlled-Z (symmetric).
    Cz(usize, usize),
    /// SWAP of two qubits.
    Swap(usize, usize),
}

impl CliffordGate {
    /// The qubits the gate acts on (one or two entries).
    pub fn qubits(&self) -> Vec<usize> {
        use CliffordGate::*;
        match *self {
            H(q) | S(q) | Sdg(q) | X(q) | Y(q) | Z(q) | SqrtX(q) | SqrtXdg(q) | SqrtY(q)
            | SqrtYdg(q) => vec![q],
            Cx(a, b) | Cz(a, b) | Swap(a, b) => vec![a, b],
        }
    }

    /// Whether this is a two-qubit gate.
    pub fn is_two_qubit(&self) -> bool {
        matches!(
            self,
            CliffordGate::Cx(..) | CliffordGate::Cz(..) | CliffordGate::Swap(..)
        )
    }

    /// The inverse gate.
    #[must_use]
    pub fn inverse(&self) -> CliffordGate {
        use CliffordGate::*;
        match *self {
            S(q) => Sdg(q),
            Sdg(q) => S(q),
            SqrtX(q) => SqrtXdg(q),
            SqrtXdg(q) => SqrtX(q),
            SqrtY(q) => SqrtYdg(q),
            SqrtYdg(q) => SqrtY(q),
            g => g,
        }
    }

    /// The Clifford gate implementing `Ry(k·π/2)` for `k ∈ 0..4`
    /// (up to global phase). Returns `None` for `k = 0` (identity).
    ///
    /// # Panics
    ///
    /// Panics if `k >= 4`.
    pub fn ry_quarter(qubit: usize, k: u8) -> Option<CliffordGate> {
        match k {
            0 => None,
            1 => Some(CliffordGate::SqrtY(qubit)),
            2 => Some(CliffordGate::Y(qubit)),
            3 => Some(CliffordGate::SqrtYdg(qubit)),
            _ => panic!("quarter-turn index {k} out of range"),
        }
    }

    /// The Clifford gate implementing `Rz(k·π/2)` for `k ∈ 0..4`
    /// (up to global phase). Returns `None` for `k = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= 4`.
    pub fn rz_quarter(qubit: usize, k: u8) -> Option<CliffordGate> {
        match k {
            0 => None,
            1 => Some(CliffordGate::S(qubit)),
            2 => Some(CliffordGate::Z(qubit)),
            3 => Some(CliffordGate::Sdg(qubit)),
            _ => panic!("quarter-turn index {k} out of range"),
        }
    }

    /// Conjugates `p ← g p g†` in place; returns `true` if the sign flipped.
    ///
    /// # Panics
    ///
    /// Panics if a gate qubit is out of range for `p`.
    pub fn conjugate(&self, p: &mut PauliString) -> bool {
        use CliffordGate::*;
        match *self {
            H(q) => {
                let (x, z) = p.get(q).xz();
                p.set(q, Pauli::from_xz(z, x));
                x && z // Y → -Y
            }
            S(q) => {
                // X → Y, Y → -X, Z → Z.
                let (x, z) = p.get(q).xz();
                p.set(q, Pauli::from_xz(x, z ^ x));
                x && z
            }
            Sdg(q) => {
                // X → -Y, Y → X.
                let (x, z) = p.get(q).xz();
                p.set(q, Pauli::from_xz(x, z ^ x));
                x && !z
            }
            X(q) => {
                let (_, z) = p.get(q).xz();
                z
            }
            Y(q) => {
                let (x, z) = p.get(q).xz();
                x ^ z
            }
            Z(q) => {
                let (x, _) = p.get(q).xz();
                x
            }
            SqrtX(q) => {
                // X → X, Z → -Y, Y → Z.
                let (x, z) = p.get(q).xz();
                p.set(q, Pauli::from_xz(x ^ z, z));
                !x && z
            }
            SqrtXdg(q) => {
                // X → X, Z → Y, Y → -Z.
                let (x, z) = p.get(q).xz();
                p.set(q, Pauli::from_xz(x ^ z, z));
                x && z
            }
            SqrtY(q) => {
                // X → -Z, Z → X, Y → Y.
                let (x, z) = p.get(q).xz();
                p.set(q, Pauli::from_xz(z, x));
                x && !z
            }
            SqrtYdg(q) => {
                // X → Z, Z → -X, Y → Y.
                let (x, z) = p.get(q).xz();
                p.set(q, Pauli::from_xz(z, x));
                !x && z
            }
            Cx(c, t) => {
                // X_c → X_c X_t, Z_t → Z_c Z_t (Eq. 3); Aaronson-Gottesman
                // sign rule: flip iff x_c z_t (x_t ⊕ z_c ⊕ 1).
                let (xc, zc) = p.get(c).xz();
                let (xt, zt) = p.get(t).xz();
                let flip = xc && zt && (xt == zc);
                p.set(t, Pauli::from_xz(xt ^ xc, zt));
                p.set(c, Pauli::from_xz(xc, zc ^ zt));
                flip
            }
            Cz(c, t) => {
                // CZ = (I⊗H) CX (I⊗H): compose the verified rules.
                let mut flip = CliffordGate::H(t).conjugate(p);
                flip ^= CliffordGate::Cx(c, t).conjugate(p);
                flip ^= CliffordGate::H(t).conjugate(p);
                flip
            }
            Swap(a, b) => {
                let pa = p.get(a);
                p.set(a, p.get(b));
                p.set(b, pa);
                false
            }
        }
    }

    /// Conjugates all 64 signed Pauli strings of a [`TermBatch`] at once:
    /// `P_ℓ → g P_ℓ g†` for every lane `ℓ`, with the gate's symplectic
    /// action applied to the transposed x/z planes and the
    /// Aaronson–Gottesman sign rules evaluated as word-level boolean
    /// formulas XORed into the batch's sign plane.
    ///
    /// Lane `ℓ` ends up exactly where scalar [`CliffordGate::conjugate`]
    /// would put that lane's string, *including* the sign flip
    /// (differentially tested lane-by-lane for every gate variant). The x/z
    /// planes never depend on the sign plane, so a caller that only needs
    /// the strings — the frame sampler's error frames — ignores the signs.
    ///
    /// # Panics
    ///
    /// Panics if a gate qubit is out of range for the batch.
    pub fn conjugate_terms(&self, terms: &mut TermBatch) {
        use CliffordGate::*;
        match *self {
            // H: X ↔ Z, Y → -Y — flip iff x ∧ z.
            H(q) => {
                terms.xor_sign(terms.x(q) & terms.z(q));
                terms.swap_xz(q);
            }
            // S: X → Y, Y → -X — flip iff x ∧ z; (x, z) → (x, z ⊕ x).
            S(q) => {
                terms.xor_sign(terms.x(q) & terms.z(q));
                let x = terms.x(q);
                terms.xor_z(q, x);
            }
            // S†: X → -Y, Y → X — flip iff x ∧ ¬z.
            Sdg(q) => {
                terms.xor_sign(terms.x(q) & !terms.z(q));
                let x = terms.x(q);
                terms.xor_z(q, x);
            }
            // Pauli gates: flip anticommuting lanes, planes untouched.
            X(q) => terms.xor_sign(terms.z(q)),
            Y(q) => terms.xor_sign(terms.x(q) ^ terms.z(q)),
            Z(q) => terms.xor_sign(terms.x(q)),
            // √X: Z → -Y, Y → Z — flip iff ¬x ∧ z; (x, z) → (x ⊕ z, z).
            SqrtX(q) => {
                terms.xor_sign(!terms.x(q) & terms.z(q));
                let z = terms.z(q);
                terms.xor_x(q, z);
            }
            // √X†: Z → Y, Y → -Z — flip iff x ∧ z.
            SqrtXdg(q) => {
                terms.xor_sign(terms.x(q) & terms.z(q));
                let z = terms.z(q);
                terms.xor_x(q, z);
            }
            // √Y: X → -Z, Z → X — flip iff x ∧ ¬z; planes swap.
            SqrtY(q) => {
                terms.xor_sign(terms.x(q) & !terms.z(q));
                terms.swap_xz(q);
            }
            // √Y†: X → Z, Z → -X — flip iff ¬x ∧ z.
            SqrtYdg(q) => {
                terms.xor_sign(!terms.x(q) & terms.z(q));
                terms.swap_xz(q);
            }
            // CX: x_t ⊕= x_c, z_c ⊕= z_t (Eq. 3); sign rule: flip iff
            // x_c ∧ z_t ∧ ¬(x_t ⊕ z_c).
            Cx(c, t) => {
                let (xc, zc) = (terms.x(c), terms.z(c));
                let (xt, zt) = (terms.x(t), terms.z(t));
                terms.xor_sign(xc & zt & !(xt ^ zc));
                terms.xor_x(t, xc);
                terms.xor_z(c, zt);
            }
            // CZ: z_a ⊕= x_b, z_b ⊕= x_a; sign rule (the H·CX·H
            // composition's three flips collapse to): flip iff
            // x_a ∧ x_b ∧ (z_a ⊕ z_b) — e.g. X⊗Y → -(Y⊗X).
            Cz(a, b) => {
                let (xa, za) = (terms.x(a), terms.z(a));
                let (xb, zb) = (terms.x(b), terms.z(b));
                terms.xor_sign(xa & xb & (za ^ zb));
                terms.xor_z(a, xb);
                terms.xor_z(b, xa);
            }
            Swap(a, b) => terms.swap_qubits(a, b),
        }
    }
}

impl fmt::Display for CliffordGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use CliffordGate::*;
        match *self {
            H(q) => write!(f, "H q{q}"),
            S(q) => write!(f, "S q{q}"),
            Sdg(q) => write!(f, "S† q{q}"),
            X(q) => write!(f, "X q{q}"),
            Y(q) => write!(f, "Y q{q}"),
            Z(q) => write!(f, "Z q{q}"),
            SqrtX(q) => write!(f, "√X q{q}"),
            SqrtXdg(q) => write!(f, "√X† q{q}"),
            SqrtY(q) => write!(f, "√Y q{q}"),
            SqrtYdg(q) => write!(f, "√Y† q{q}"),
            Cx(c, t) => write!(f, "CX q{c}→q{t}"),
            Cz(a, b) => write!(f, "CZ q{a},q{b}"),
            Swap(a, b) => write!(f, "SWAP q{a}↔q{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    /// Applies `g` to `p`, returning `(sign, image)`.
    fn conj(g: CliffordGate, p: &str) -> (f64, PauliString) {
        let mut q = ps(p);
        let flip = g.conjugate(&mut q);
        (if flip { -1.0 } else { 1.0 }, q)
    }

    #[test]
    fn hadamard_swaps_x_and_z() {
        assert_eq!(conj(CliffordGate::H(0), "X"), (1.0, ps("Z")));
        assert_eq!(conj(CliffordGate::H(0), "Z"), (1.0, ps("X")));
        assert_eq!(conj(CliffordGate::H(0), "Y"), (-1.0, ps("Y")));
        assert_eq!(conj(CliffordGate::H(0), "I"), (1.0, ps("I")));
    }

    #[test]
    fn phase_gate_rotates_about_z() {
        assert_eq!(conj(CliffordGate::S(0), "X"), (1.0, ps("Y")));
        assert_eq!(conj(CliffordGate::S(0), "Y"), (-1.0, ps("X")));
        assert_eq!(conj(CliffordGate::S(0), "Z"), (1.0, ps("Z")));
        assert_eq!(conj(CliffordGate::Sdg(0), "X"), (-1.0, ps("Y")));
        assert_eq!(conj(CliffordGate::Sdg(0), "Y"), (1.0, ps("X")));
    }

    #[test]
    fn sqrt_y_rotates_x_to_minus_z() {
        assert_eq!(conj(CliffordGate::SqrtY(0), "X"), (-1.0, ps("Z")));
        assert_eq!(conj(CliffordGate::SqrtY(0), "Z"), (1.0, ps("X")));
        assert_eq!(conj(CliffordGate::SqrtY(0), "Y"), (1.0, ps("Y")));
        assert_eq!(conj(CliffordGate::SqrtYdg(0), "X"), (1.0, ps("Z")));
        assert_eq!(conj(CliffordGate::SqrtYdg(0), "Z"), (-1.0, ps("X")));
    }

    #[test]
    fn sqrt_x_rotates_z_to_minus_y() {
        assert_eq!(conj(CliffordGate::SqrtX(0), "Z"), (-1.0, ps("Y")));
        assert_eq!(conj(CliffordGate::SqrtX(0), "Y"), (1.0, ps("Z")));
        assert_eq!(conj(CliffordGate::SqrtX(0), "X"), (1.0, ps("X")));
        assert_eq!(conj(CliffordGate::SqrtXdg(0), "Z"), (1.0, ps("Y")));
        assert_eq!(conj(CliffordGate::SqrtXdg(0), "Y"), (-1.0, ps("Z")));
    }

    #[test]
    fn pauli_gates_flip_anticommuting_operators() {
        assert_eq!(conj(CliffordGate::X(0), "Z"), (-1.0, ps("Z")));
        assert_eq!(conj(CliffordGate::X(0), "Y"), (-1.0, ps("Y")));
        assert_eq!(conj(CliffordGate::X(0), "X"), (1.0, ps("X")));
        assert_eq!(conj(CliffordGate::Z(0), "X"), (-1.0, ps("X")));
        assert_eq!(conj(CliffordGate::Y(0), "X"), (-1.0, ps("X")));
        assert_eq!(conj(CliffordGate::Y(0), "Z"), (-1.0, ps("Z")));
        assert_eq!(conj(CliffordGate::Y(0), "Y"), (1.0, ps("Y")));
    }

    #[test]
    fn cx_propagation_matches_paper_eq_3() {
        // X_c → X_c X_t, X_t → X_t, Z_c → Z_c, Z_t → Z_c Z_t.
        assert_eq!(conj(CliffordGate::Cx(0, 1), "XI"), (1.0, ps("XX")));
        assert_eq!(conj(CliffordGate::Cx(0, 1), "IX"), (1.0, ps("IX")));
        assert_eq!(conj(CliffordGate::Cx(0, 1), "ZI"), (1.0, ps("ZI")));
        assert_eq!(conj(CliffordGate::Cx(0, 1), "IZ"), (1.0, ps("ZZ")));
        // Composite cases with signs.
        assert_eq!(conj(CliffordGate::Cx(0, 1), "YY"), (-1.0, ps("XZ")));
        assert_eq!(conj(CliffordGate::Cx(0, 1), "YI"), (1.0, ps("YX")));
        assert_eq!(conj(CliffordGate::Cx(0, 1), "IY"), (1.0, ps("ZY")));
        assert_eq!(conj(CliffordGate::Cx(0, 1), "XX"), (1.0, ps("XI")));
        assert_eq!(conj(CliffordGate::Cx(0, 1), "ZZ"), (1.0, ps("IZ")));
    }

    #[test]
    fn cx_direction_matters() {
        assert_eq!(conj(CliffordGate::Cx(1, 0), "IX"), (1.0, ps("XX")));
        assert_eq!(conj(CliffordGate::Cx(1, 0), "XI"), (1.0, ps("XI")));
    }

    #[test]
    fn cz_propagation() {
        assert_eq!(conj(CliffordGate::Cz(0, 1), "XI"), (1.0, ps("XZ")));
        assert_eq!(conj(CliffordGate::Cz(0, 1), "IX"), (1.0, ps("ZX")));
        assert_eq!(conj(CliffordGate::Cz(0, 1), "ZI"), (1.0, ps("ZI")));
        assert_eq!(conj(CliffordGate::Cz(0, 1), "IZ"), (1.0, ps("IZ")));
    }

    #[test]
    fn swap_exchanges_qubits() {
        assert_eq!(conj(CliffordGate::Swap(0, 1), "XZ"), (1.0, ps("ZX")));
        assert_eq!(conj(CliffordGate::Swap(0, 1), "YI"), (1.0, ps("IY")));
    }

    #[test]
    fn every_gate_inverse_undoes_conjugation() {
        let gates1 = [
            CliffordGate::H(0),
            CliffordGate::S(0),
            CliffordGate::Sdg(0),
            CliffordGate::X(0),
            CliffordGate::Y(0),
            CliffordGate::Z(0),
            CliffordGate::SqrtX(0),
            CliffordGate::SqrtXdg(0),
            CliffordGate::SqrtY(0),
            CliffordGate::SqrtYdg(0),
        ];
        for g in gates1 {
            for p in ["X", "Y", "Z"] {
                let mut q = ps(p);
                let mut flip = g.conjugate(&mut q);
                flip ^= g.inverse().conjugate(&mut q);
                assert!(!flip, "{g}: sign not restored for {p}");
                assert_eq!(q, ps(p), "{g}: operator not restored for {p}");
            }
        }
        let gates2 = [
            CliffordGate::Cx(0, 1),
            CliffordGate::Cx(1, 0),
            CliffordGate::Cz(0, 1),
            CliffordGate::Swap(0, 1),
        ];
        for g in gates2 {
            for a in ["I", "X", "Y", "Z"] {
                for b in ["I", "X", "Y", "Z"] {
                    let s = format!("{a}{b}");
                    let mut q = ps(&s);
                    let mut flip = g.conjugate(&mut q);
                    flip ^= g.inverse().conjugate(&mut q);
                    assert!(!flip, "{g}: sign not restored for {s}");
                    assert_eq!(q, ps(&s), "{g}: operator not restored for {s}");
                }
            }
        }
    }

    #[test]
    fn conjugation_preserves_commutation() {
        // Clifford conjugation is an automorphism of the Pauli group, so it
        // must preserve all commutation relations.
        let gates = [
            CliffordGate::H(0),
            CliffordGate::S(1),
            CliffordGate::SqrtX(0),
            CliffordGate::SqrtY(1),
            CliffordGate::Cx(0, 1),
            CliffordGate::Cz(0, 1),
            CliffordGate::Swap(0, 1),
        ];
        let strings = ["XI", "IX", "ZI", "IZ", "YY", "XZ", "ZX", "YX"];
        for g in gates {
            for a in strings {
                for b in strings {
                    let (pa, pb) = (ps(a), ps(b));
                    let before = pa.commutes_with(&pb);
                    let (mut qa, mut qb) = (pa.clone(), pb.clone());
                    g.conjugate(&mut qa);
                    g.conjugate(&mut qb);
                    assert_eq!(before, qa.commutes_with(&qb), "{g} on {a},{b}");
                }
            }
        }
    }

    #[test]
    fn quarter_turn_constructors() {
        assert_eq!(CliffordGate::ry_quarter(3, 0), None);
        assert_eq!(CliffordGate::ry_quarter(3, 1), Some(CliffordGate::SqrtY(3)));
        assert_eq!(CliffordGate::ry_quarter(3, 2), Some(CliffordGate::Y(3)));
        assert_eq!(
            CliffordGate::ry_quarter(3, 3),
            Some(CliffordGate::SqrtYdg(3))
        );
        assert_eq!(CliffordGate::rz_quarter(1, 1), Some(CliffordGate::S(1)));
        assert_eq!(CliffordGate::rz_quarter(1, 3), Some(CliffordGate::Sdg(1)));
    }

    #[test]
    fn signed_batched_conjugation_matches_scalar_per_lane() {
        // Every lane of conjugate_terms must land exactly where scalar
        // conjugation sends that lane's observable — image AND sign — for
        // every gate variant, including lanes that start negative.
        use clapton_pauli::TermBatch;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let gates = [
            CliffordGate::H(0),
            CliffordGate::S(0),
            CliffordGate::Sdg(1),
            CliffordGate::X(0),
            CliffordGate::Y(1),
            CliffordGate::Z(0),
            CliffordGate::SqrtX(1),
            CliffordGate::SqrtXdg(0),
            CliffordGate::SqrtY(1),
            CliffordGate::SqrtYdg(0),
            CliffordGate::Cx(0, 1),
            CliffordGate::Cx(1, 0),
            CliffordGate::Cz(0, 1),
            CliffordGate::Cz(1, 0),
            CliffordGate::Swap(0, 1),
        ];
        let mut rng = StdRng::seed_from_u64(47);
        for g in gates {
            let mut batch = TermBatch::new(3);
            for q in 0..3 {
                batch.xor_x(q, rng.gen());
                batch.xor_z(q, rng.gen());
            }
            batch.xor_sign(rng.gen());
            let before: Vec<(bool, PauliString)> =
                (0..TermBatch::LANES).map(|l| batch.lane(l)).collect();
            g.conjugate_terms(&mut batch);
            for (lane, (neg, obs)) in before.into_iter().enumerate() {
                let mut scalar = obs;
                let flipped = g.conjugate(&mut scalar);
                assert_eq!(batch.lane(lane), (neg ^ flipped, scalar), "{g} lane {lane}");
            }
        }
    }

    #[test]
    fn qubits_and_arity() {
        assert_eq!(CliffordGate::Cx(2, 5).qubits(), vec![2, 5]);
        assert_eq!(CliffordGate::H(3).qubits(), vec![3]);
        assert!(CliffordGate::Swap(0, 1).is_two_qubit());
        assert!(!CliffordGate::SqrtY(0).is_two_qubit());
    }
}
