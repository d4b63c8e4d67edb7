//! Weighted sums of Pauli strings — the Hamiltonian representation.

use crate::PauliString;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One Hamiltonian term `c · P`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Term {
    /// The real energy coefficient `c_i`.
    pub coefficient: f64,
    /// The Pauli string `P_i`.
    pub pauli: PauliString,
}

/// A Hermitian operator expressed as a real-weighted sum of Pauli strings,
/// `H = Σ_i c_i P_i` (paper §3.2).
///
/// This is the problem representation every part of Clapton consumes: the
/// Clifford transformation maps each `P_i` to a signed `P'_i` and absorbs the
/// sign into the coefficient, so the structure is closed under the
/// transformation (Eq. 6).
///
/// # Example
///
/// ```
/// use clapton_pauli::PauliSum;
///
/// # fn main() -> Result<(), clapton_pauli::PauliParseError> {
/// let mut h = PauliSum::new(3);
/// h.push(0.5, "XXI".parse()?);
/// h.push(0.5, "XXI".parse()?); // duplicates combine on simplify
/// h.push(1.0, "ZII".parse()?);
/// h.simplify();
/// assert_eq!(h.num_terms(), 2);
/// assert_eq!(h.coefficient_of(&"XXI".parse()?), Some(1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PauliSum {
    num_qubits: usize,
    terms: Vec<Term>,
}

impl PauliSum {
    /// Creates an empty sum (the zero operator) on `n` qubits.
    pub fn new(n: usize) -> PauliSum {
        PauliSum {
            num_qubits: n,
            terms: Vec::new(),
        }
    }

    /// Builds a sum from `(coefficient, pauli)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any string acts on a different number of qubits than `n`.
    pub fn from_terms<I>(n: usize, terms: I) -> PauliSum
    where
        I: IntoIterator<Item = (f64, PauliString)>,
    {
        let mut sum = PauliSum::new(n);
        for (c, p) in terms {
            sum.push(c, p);
        }
        sum
    }

    /// Appends a term (no combining; see [`PauliSum::simplify`]).
    ///
    /// # Panics
    ///
    /// Panics if `pauli.num_qubits() != self.num_qubits()`.
    pub fn push(&mut self, coefficient: f64, pauli: PauliString) {
        assert_eq!(
            pauli.num_qubits(),
            self.num_qubits,
            "term qubit count mismatch"
        );
        self.terms.push(Term { coefficient, pauli });
    }

    /// The number of qubits the operator acts on.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The number of stored terms `M`.
    #[inline]
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The stored terms.
    #[inline]
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Whether `other` is this sum stored identically: the same register
    /// and the same terms in the same order, coefficients compared bit for
    /// bit. Stricter than `==`, which equates `0.0` with `-0.0` and never
    /// a NaN with itself.
    pub fn bit_identical(&self, other: &PauliSum) -> bool {
        self.num_qubits == other.num_qubits
            && self.terms.len() == other.terms.len()
            && self.terms.iter().zip(&other.terms).all(|(a, b)| {
                a.coefficient.to_bits() == b.coefficient.to_bits() && a.pauli == b.pauli
            })
    }

    /// Iterates over `(coefficient, pauli)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &PauliString)> + '_ {
        self.terms.iter().map(|t| (t.coefficient, &t.pauli))
    }

    /// The coefficient of the identity component (zero if absent).
    ///
    /// This equals `tr(H)/2^N`, i.e. the energy `E_ρ` of the fully mixed state
    /// used for the normalization of Figure 5 in the paper.
    pub fn identity_coefficient(&self) -> f64 {
        self.terms
            .iter()
            .filter(|t| t.pauli.is_identity())
            .map(|t| t.coefficient)
            .sum()
    }

    /// The coefficient attached to `pauli` after combining duplicates, or
    /// `None` if the string does not appear.
    pub fn coefficient_of(&self, pauli: &PauliString) -> Option<f64> {
        let mut acc = None;
        for t in &self.terms {
            if &t.pauli == pauli {
                *acc.get_or_insert(0.0) += t.coefficient;
            }
        }
        acc
    }

    /// Combines duplicate strings, drops terms with |c| below `1e-12`, and
    /// sorts terms canonically. Deterministic.
    pub fn simplify(&mut self) {
        let mut map: BTreeMap<PauliString, f64> = BTreeMap::new();
        for t in self.terms.drain(..) {
            *map.entry(t.pauli).or_insert(0.0) += t.coefficient;
        }
        self.terms = map
            .into_iter()
            .filter(|(_, c)| c.abs() > 1e-12)
            .map(|(pauli, coefficient)| Term { coefficient, pauli })
            .collect();
    }

    /// Expectation value `⟨0…0|H|0…0⟩`: the sum of Z-type coefficients.
    ///
    /// This is Clapton's noiseless loss term `L0(γ) = ⟨0|H(γ)|0⟩` (Eq. 10).
    pub fn expectation_all_zeros(&self) -> f64 {
        self.terms
            .iter()
            .map(|t| t.coefficient * t.pauli.expectation_all_zeros())
            .sum()
    }

    /// Expectation value on a computational basis state given as
    /// little-endian bit words (see
    /// [`PauliString::expectation_basis_state`]).
    pub fn expectation_basis_state(&self, bits: &[u64]) -> f64 {
        self.terms
            .iter()
            .map(|t| t.coefficient * t.pauli.expectation_basis_state(bits))
            .sum()
    }

    /// The 1-norm `Σ|c_i|`, an upper bound on the spectral range spread.
    pub fn one_norm(&self) -> f64 {
        self.terms.iter().map(|t| t.coefficient.abs()).sum()
    }

    /// Transforms each term's Pauli string through `f`, which returns the
    /// image string and a sign; signs are absorbed into coefficients (Eq. 6).
    pub fn map_terms<F>(&self, mut f: F) -> PauliSum
    where
        F: FnMut(&PauliString) -> (f64, PauliString),
    {
        let terms = self
            .terms
            .iter()
            .map(|t| {
                let (sign, p) = f(&t.pauli);
                Term {
                    coefficient: sign * t.coefficient,
                    pauli: p,
                }
            })
            .collect();
        PauliSum {
            num_qubits: self.num_qubits,
            terms,
        }
    }

    /// [`PauliSum::map_terms`] writing into `out`, reusing its term storage:
    /// `f` receives each source string and a pre-sized scratch destination
    /// to fill, and returns the sign to absorb into the coefficient. After
    /// the first call with a given shape, re-mapping performs no heap
    /// allocation — the hot path of the per-genome Hamiltonian transform.
    pub fn map_terms_into<F>(&self, mut f: F, out: &mut PauliSum)
    where
        F: FnMut(&PauliString, &mut PauliString) -> f64,
    {
        out.num_qubits = self.num_qubits;
        out.terms.truncate(self.terms.len());
        while out.terms.len() < self.terms.len() {
            out.terms.push(Term {
                coefficient: 0.0,
                pauli: PauliString::identity(self.num_qubits),
            });
        }
        for (src, dst) in self.terms.iter().zip(out.terms.iter_mut()) {
            if dst.pauli.num_qubits() != self.num_qubits {
                dst.pauli = PauliString::identity(self.num_qubits);
            }
            let sign = f(&src.pauli, &mut dst.pauli);
            dst.coefficient = sign * src.coefficient;
        }
    }

    /// Scales every coefficient by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for t in &mut self.terms {
            t.coefficient *= factor;
        }
    }

    /// Maximum term weight (locality) of the operator.
    pub fn max_weight(&self) -> usize {
        self.terms
            .iter()
            .map(|t| t.pauli.weight())
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for PauliSum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{:+.6}·{}", t.coefficient, t.pauli)?;
        }
        Ok(())
    }
}

impl Extend<(f64, PauliString)> for PauliSum {
    fn extend<I: IntoIterator<Item = (f64, PauliString)>>(&mut self, iter: I) {
        for (c, p) in iter {
            self.push(c, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pauli;

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn simplify_combines_and_drops() {
        let mut h = PauliSum::from_terms(
            2,
            vec![
                (1.0, ps("XX")),
                (2.0, ps("XX")),
                (0.5, ps("ZI")),
                (-0.5, ps("ZI")),
            ],
        );
        h.simplify();
        assert_eq!(h.num_terms(), 1);
        assert_eq!(h.coefficient_of(&ps("XX")), Some(3.0));
        assert_eq!(h.coefficient_of(&ps("ZI")), None);
    }

    #[test]
    fn bit_identity_is_stricter_than_equality() {
        let h = |c: f64, first: &str| {
            PauliSum::from_terms(2, vec![(c, ps(first)), (0.5, ps("ZI")), (0.5, ps("IZ"))])
        };
        assert!(h(1.0, "XX").bit_identical(&h(1.0, "XX")));
        assert!(h(f64::NAN, "XX").bit_identical(&h(f64::NAN, "XX")));
        assert_eq!(h(0.0, "XX"), h(-0.0, "XX"));
        assert!(!h(0.0, "XX").bit_identical(&h(-0.0, "XX")));
        assert!(!h(1.0, "XX").bit_identical(&h(1.0, "YY")));
        let mut reordered = PauliSum::from_terms(2, vec![(1.0, ps("XX")), (0.5, ps("IZ"))]);
        reordered.push(0.5, ps("ZI"));
        assert!(!h(1.0, "XX").bit_identical(&reordered));
        assert!(!PauliSum::new(2).bit_identical(&PauliSum::new(3)));
    }

    #[test]
    fn simplify_is_deterministic() {
        let build = |order: &[(f64, &str)]| {
            let mut h = PauliSum::new(2);
            for &(c, s) in order {
                h.push(c, ps(s));
            }
            h.simplify();
            h
        };
        let a = build(&[(1.0, "XX"), (2.0, "ZZ"), (3.0, "XY")]);
        let b = build(&[(3.0, "XY"), (1.0, "XX"), (2.0, "ZZ")]);
        assert_eq!(a, b);
    }

    #[test]
    fn identity_coefficient_is_mixed_state_energy() {
        let h = PauliSum::from_terms(2, vec![(-4.0, ps("II")), (1.0, ps("ZZ")), (2.0, ps("XI"))]);
        // tr(H)/4 = -4 since non-identity Paulis are traceless.
        assert_eq!(h.identity_coefficient(), -4.0);
    }

    #[test]
    fn all_zeros_expectation_sums_z_terms() {
        let h = PauliSum::from_terms(
            3,
            vec![
                (1.0, ps("ZII")),
                (2.0, ps("IZZ")),
                (7.0, ps("XII")),
                (-0.5, ps("III")),
            ],
        );
        assert_eq!(h.expectation_all_zeros(), 1.0 + 2.0 - 0.5);
    }

    #[test]
    fn basis_state_expectation() {
        let h = PauliSum::from_terms(2, vec![(1.0, ps("ZI")), (1.0, ps("IZ")), (1.0, ps("ZZ"))]);
        // |01⟩ (qubit 1 excited): Z0=+1, Z1=-1, Z0Z1=-1.
        assert_eq!(h.expectation_basis_state(&[0b10]), -1.0);
        assert_eq!(h.expectation_basis_state(&[0b00]), 3.0);
    }

    #[test]
    fn basis_state_expectation_beyond_64_qubits() {
        let n = 100;
        let single = |q: usize| PauliString::single(n, q, crate::Pauli::Z);
        let h = PauliSum::from_terms(n, vec![(1.0, single(2)), (1.0, single(90))]);
        let mut bits = [0u64; 2];
        bits[90 / 64] |= 1 << (90 % 64);
        // Qubit 90 excited: its Z term reads -1, qubit 2's reads +1.
        assert_eq!(h.expectation_basis_state(&bits), 0.0);
        assert_eq!(h.expectation_basis_state(&[]), 2.0);
    }

    #[test]
    fn map_terms_absorbs_signs() {
        let h = PauliSum::from_terms(1, vec![(2.0, ps("X")), (3.0, ps("Z"))]);
        // A fake "transformation" flipping X→-Z and Z→X.
        let t = h.map_terms(|p| {
            if p.get(0) == Pauli::X {
                (-1.0, ps("Z"))
            } else {
                (1.0, ps("X"))
            }
        });
        assert_eq!(t.coefficient_of(&ps("Z")), Some(-2.0));
        assert_eq!(t.coefficient_of(&ps("X")), Some(3.0));
    }

    #[test]
    fn map_terms_into_matches_map_terms_and_reuses_storage() {
        let h = PauliSum::from_terms(2, vec![(2.0, ps("XY")), (3.0, ps("ZI")), (-1.0, ps("II"))]);
        let flip = |p: &PauliString| -> (f64, PauliString) {
            if p.get(0) == Pauli::X {
                (-1.0, ps("ZZ"))
            } else {
                (1.0, p.clone())
            }
        };
        let expected = h.map_terms(flip);
        // Start from a differently-shaped buffer: wrong register, wrong
        // term count — map_terms_into must rebuild it.
        let mut out = PauliSum::from_terms(3, vec![(9.0, ps("XXX"))]);
        h.map_terms_into(
            |src, dst| {
                let (sign, image) = flip(src);
                dst.clear();
                for q in image.support() {
                    dst.set(q, image.get(q));
                }
                sign
            },
            &mut out,
        );
        assert_eq!(out, expected);
        // A second pass over a now-matching buffer agrees too.
        h.map_terms_into(
            |src, dst| {
                let (sign, image) = flip(src);
                dst.clear();
                for q in image.support() {
                    dst.set(q, image.get(q));
                }
                sign
            },
            &mut out,
        );
        assert_eq!(out, expected);
    }

    #[test]
    fn one_norm_and_weight() {
        let h = PauliSum::from_terms(3, vec![(1.5, ps("XYZ")), (-2.0, ps("ZII"))]);
        assert_eq!(h.one_norm(), 3.5);
        assert_eq!(h.max_weight(), 3);
    }

    #[test]
    fn display_formats_terms() {
        let h = PauliSum::from_terms(2, vec![(0.25, ps("XX"))]);
        assert_eq!(h.to_string(), "+0.250000·XX");
        assert_eq!(PauliSum::new(2).to_string(), "0");
    }

    #[test]
    #[should_panic(expected = "qubit count mismatch")]
    fn push_rejects_wrong_size() {
        let mut h = PauliSum::new(2);
        h.push(1.0, ps("XXX"));
    }

    #[test]
    fn serde_round_trip() {
        let h = PauliSum::from_terms(2, vec![(0.5, ps("XY")), (1.25, ps("ZI"))]);
        let json = serde_json::to_string(&h).unwrap();
        let back: PauliSum = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }
}
