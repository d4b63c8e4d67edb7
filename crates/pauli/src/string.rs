//! Multi-qubit Pauli strings with bit-packed storage.

use crate::{words_for, Pauli, Phase, WORD_BITS};
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::str::FromStr;

/// An `N`-qubit Hermitian Pauli operator `P = P_1 ⊗ P_2 ⊗ … ⊗ P_N`.
///
/// Storage is symplectic: two bit vectors hold the `x` and `z` bits of every
/// qubit, so products, commutation checks and Clifford conjugations are a few
/// word-level operations per 64 qubits. The string itself is always the
/// *Hermitian* operator; phases produced by operations are returned as
/// [`Phase`] values.
///
/// Qubit `0` is the **leftmost** character in the text representation, i.e.
/// `"XIZ"` is `X` on qubit 0 and `Z` on qubit 2, matching the paper's
/// `P_1 P_2 … P_N` notation (Eq. 1).
///
/// # Example
///
/// ```
/// use clapton_pauli::{Pauli, PauliString, Phase};
///
/// # fn main() -> Result<(), clapton_pauli::PauliParseError> {
/// let p: PauliString = "XYI".parse()?;
/// let q: PauliString = "YXI".parse()?;
/// let (phase, prod) = p.mul(&q);
/// // (X⊗Y)(Y⊗X) = (XY)⊗(YX) = (iZ)⊗(-iZ) = Z⊗Z
/// assert_eq!(phase, Phase::ONE);
/// assert_eq!(prod, "ZZI".parse()?);
/// assert_eq!(p.weight(), 2);
/// assert_eq!(p.get(1), Pauli::Y);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PauliString {
    n: usize,
    x: Vec<u64>,
    z: Vec<u64>,
}

/// Error returned when parsing a [`PauliString`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PauliParseError {
    offending: char,
}

impl fmt::Display for PauliParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid Pauli character {:?} (expected one of I, X, Y, Z or _)",
            self.offending
        )
    }
}

impl std::error::Error for PauliParseError {}

impl PauliString {
    /// Creates the identity operator on `n` qubits.
    pub fn identity(n: usize) -> PauliString {
        let w = words_for(n);
        PauliString {
            n,
            x: vec![0; w],
            z: vec![0; w],
        }
    }

    /// Creates a single-qubit Pauli embedded into an `n`-qubit string.
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= n`.
    pub fn single(n: usize, qubit: usize, p: Pauli) -> PauliString {
        let mut s = PauliString::identity(n);
        s.set(qubit, p);
        s
    }

    /// Builds a Pauli string from an iterator of `(qubit, Pauli)` pairs;
    /// unspecified qubits are identity.
    ///
    /// # Panics
    ///
    /// Panics if any qubit index is out of range.
    pub fn from_sparse<I>(n: usize, ops: I) -> PauliString
    where
        I: IntoIterator<Item = (usize, Pauli)>,
    {
        let mut s = PauliString::identity(n);
        for (q, p) in ops {
            s.set(q, p);
        }
        s
    }

    /// The number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The Pauli acting on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= num_qubits()`.
    #[inline]
    pub fn get(&self, qubit: usize) -> Pauli {
        assert!(qubit < self.n, "qubit {qubit} out of range (n={})", self.n);
        let (w, b) = (qubit / WORD_BITS, qubit % WORD_BITS);
        Pauli::from_xz((self.x[w] >> b) & 1 == 1, (self.z[w] >> b) & 1 == 1)
    }

    /// Sets the Pauli acting on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= num_qubits()`.
    #[inline]
    pub fn set(&mut self, qubit: usize, p: Pauli) {
        assert!(qubit < self.n, "qubit {qubit} out of range (n={})", self.n);
        let (w, b) = (qubit / WORD_BITS, qubit % WORD_BITS);
        let (xb, zb) = p.xz();
        self.x[w] = (self.x[w] & !(1 << b)) | ((xb as u64) << b);
        self.z[w] = (self.z[w] & !(1 << b)) | ((zb as u64) << b);
    }

    /// Raw `x` bit words (little-endian qubit order within each word).
    #[inline]
    pub fn x_words(&self) -> &[u64] {
        &self.x
    }

    /// Raw `z` bit words.
    #[inline]
    pub fn z_words(&self) -> &[u64] {
        &self.z
    }

    /// Mutable `x` and `z` bit words, for word-level writers inside the
    /// crate. Bits above qubit `n - 1` must stay zero.
    #[inline]
    pub(crate) fn words_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        (&mut self.x, &mut self.z)
    }

    /// Resets every qubit to the identity, keeping the register size (and
    /// the storage allocation — the in-place counterpart of
    /// [`PauliString::identity`] for scratch buffers).
    pub fn clear(&mut self) {
        self.x.fill(0);
        self.z.fill(0);
    }

    /// Whether this is the identity string.
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.x.iter().all(|&w| w == 0) && self.z.iter().all(|&w| w == 0)
    }

    /// Whether the operator acts non-trivially on `qubit`.
    #[inline]
    pub fn acts_on(&self, qubit: usize) -> bool {
        self.get(qubit) != Pauli::I
    }

    /// Number of qubits on which the operator is non-identity.
    pub fn weight(&self) -> usize {
        self.x
            .iter()
            .zip(&self.z)
            .map(|(&x, &z)| (x | z).count_ones() as usize)
            .sum()
    }

    /// Whether every non-identity factor is `Z` (diagonal in the computational
    /// basis). The identity string is Z-type.
    pub fn is_z_type(&self) -> bool {
        self.x.iter().all(|&w| w == 0)
    }

    /// Iterates over the qubits in the support (non-identity positions), in
    /// ascending order, straight off the borrowed `x | z` words.
    pub fn support(&self) -> impl Iterator<Item = usize> + '_ {
        self.x
            .iter()
            .zip(&self.z)
            .enumerate()
            .flat_map(|(w, (&x, &z))| {
                let mut bits = x | z;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        w * WORD_BITS + b
                    })
                })
            })
            .take_while(|&q| q < self.n)
    }

    /// Whether two Pauli strings commute (symplectic inner product is even).
    ///
    /// # Panics
    ///
    /// Panics if the operands act on different numbers of qubits.
    pub fn commutes_with(&self, rhs: &PauliString) -> bool {
        assert_eq!(self.n, rhs.n, "qubit count mismatch");
        let mut acc = 0u32;
        for i in 0..self.x.len() {
            acc ^= (self.x[i] & rhs.z[i]).count_ones() & 1;
            acc ^= (self.z[i] & rhs.x[i]).count_ones() & 1;
        }
        acc & 1 == 0
    }

    /// Multiplies two Pauli strings, returning the exact phase:
    /// `self · rhs = phase · result`.
    ///
    /// # Panics
    ///
    /// Panics if the operands act on different numbers of qubits.
    pub fn mul(&self, rhs: &PauliString) -> (Phase, PauliString) {
        let mut out = self.clone();
        let phase = out.mul_assign_right(rhs);
        (phase, out)
    }

    /// In-place right multiplication: `self ← self · rhs`, returning the phase.
    ///
    /// # Panics
    ///
    /// Panics if the operands act on different numbers of qubits.
    pub fn mul_assign_right(&mut self, rhs: &PauliString) -> Phase {
        assert_eq!(self.n, rhs.n, "qubit count mismatch");
        // Per-qubit phase exponents of σ_a σ_b accumulated at word level:
        // +1 (i) for (Y,Z), (X,Y), (Z,X); -1 (-i) for (Y,X), (X,Z), (Z,Y).
        let mut exp: u32 = 0;
        for i in 0..self.x.len() {
            let (x1, z1) = (self.x[i], self.z[i]);
            let (x2, z2) = (rhs.x[i], rhs.z[i]);
            let plus = (x1 & z1 & z2 & !x2) | (x1 & !z1 & x2 & z2) | (!x1 & z1 & x2 & !z2);
            let minus = (x1 & z1 & x2 & !z2) | (x1 & !z1 & !x2 & z2) | (!x1 & z1 & x2 & z2);
            exp = exp
                .wrapping_add(plus.count_ones())
                .wrapping_sub(minus.count_ones());
            self.x[i] = x1 ^ x2;
            self.z[i] = z1 ^ z2;
        }
        Phase::from_exponent((exp & 3) as u8)
    }

    /// Expectation value `⟨0…0|P|0…0⟩`: `1.0` for Z-type strings (every factor
    /// `I` or `Z` fixes `|0⟩`), otherwise `0.0`.
    pub fn expectation_all_zeros(&self) -> f64 {
        if self.is_z_type() {
            1.0
        } else {
            0.0
        }
    }

    /// Expectation value `⟨b|P|b⟩` for the computational basis state whose
    /// qubit `k` is `(bits[k / 64] >> (k % 64)) & 1` (little-endian words,
    /// matching [`PauliString::z_words`]). Returns `0.0` unless `P` is
    /// Z-type, and otherwise `±1` depending on the parity of flipped qubits
    /// in the support.
    ///
    /// Missing trailing words of `bits` are treated as `0`, so a
    /// single-`u64` slice works for any register of at most 64 qubits;
    /// extra words are ignored.
    pub fn expectation_basis_state(&self, bits: &[u64]) -> f64 {
        if !self.is_z_type() {
            return 0.0;
        }
        let parity = self
            .z
            .iter()
            .zip(bits)
            .fold(0u32, |acc, (&z, &b)| acc ^ ((z & b).count_ones() & 1));
        if parity == 0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Returns the tensor product `self ⊗ rhs` on `self.n + rhs.n` qubits.
    pub fn tensor(&self, rhs: &PauliString) -> PauliString {
        let mut out = PauliString::identity(self.n + rhs.n);
        for q in 0..self.n {
            out.set(q, self.get(q));
        }
        for q in 0..rhs.n {
            out.set(self.n + q, rhs.get(q));
        }
        out
    }

    /// Iterates over `(qubit, Pauli)` for every qubit (including identities).
    pub fn iter(&self) -> impl Iterator<Item = Pauli> + '_ {
        (0..self.n).map(move |q| self.get(q))
    }

    /// Samples a uniformly random Pauli string (each qubit uniform over
    /// `{I, X, Y, Z}`).
    pub fn random<R: rand::Rng + ?Sized>(n: usize, rng: &mut R) -> PauliString {
        let w = words_for(n);
        let mut s = PauliString {
            n,
            x: (0..w).map(|_| rng.gen()).collect(),
            z: (0..w).map(|_| rng.gen()).collect(),
        };
        s.mask_top();
        s
    }

    /// Samples a random *non-identity* Pauli string.
    pub fn random_non_identity<R: rand::Rng + ?Sized>(n: usize, rng: &mut R) -> PauliString {
        assert!(n > 0, "need at least one qubit");
        loop {
            let s = PauliString::random(n, rng);
            if !s.is_identity() {
                return s;
            }
        }
    }

    /// Zeroes the unused bits above qubit `n-1` in the top storage word.
    fn mask_top(&mut self) {
        let rem = self.n % WORD_BITS;
        if rem != 0 {
            let mask = (1u64 << rem) - 1;
            if let Some(last) = self.x.last_mut() {
                *last &= mask;
            }
            if let Some(last) = self.z.last_mut() {
                *last &= mask;
            }
        }
    }

    /// A canonical ordering key (used for sorting/deduplicating Hamiltonian
    /// terms deterministically).
    pub fn order_key(&self) -> (usize, &[u64], &[u64]) {
        (self.n, &self.z, &self.x)
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in self.iter() {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl FromStr for PauliString {
    type Err = PauliParseError;

    fn from_str(s: &str) -> Result<PauliString, PauliParseError> {
        let chars: Vec<char> = s.chars().collect();
        let mut out = PauliString::identity(chars.len());
        for (q, &c) in chars.iter().enumerate() {
            let p = Pauli::from_char(c).ok_or(PauliParseError { offending: c })?;
            out.set(q, p);
        }
        Ok(out)
    }
}

impl PartialOrd for PauliString {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PauliString {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order_key().cmp(&other.order_key())
    }
}

impl Serialize for PauliString {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

impl<'de> Deserialize<'de> for PauliString {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(D::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn identity_and_single() {
        let id = PauliString::identity(5);
        assert!(id.is_identity());
        assert_eq!(id.weight(), 0);
        let x2 = PauliString::single(5, 2, Pauli::X);
        assert_eq!(x2.to_string(), "IIXII");
        assert_eq!(x2.weight(), 1);
        assert!(x2.acts_on(2));
        assert!(!x2.acts_on(1));
    }

    #[test]
    fn parse_display_round_trip() {
        for s in ["XYZI", "IIII", "ZZZZZZZZZZ", "X", "Y_Z"] {
            let p = ps(s);
            let canonical = s.replace('_', "I");
            assert_eq!(p.to_string(), canonical);
        }
        assert!("XQ".parse::<PauliString>().is_err());
    }

    #[test]
    fn product_phases_match_single_qubit_table() {
        for a in Pauli::ALL {
            for b in Pauli::ALL {
                let pa = PauliString::single(1, 0, a);
                let pb = PauliString::single(1, 0, b);
                let (phase, prod) = pa.mul(&pb);
                let (ephase, eprod) = a.mul(b);
                assert_eq!(phase, ephase, "{a} * {b}");
                assert_eq!(prod.get(0), eprod);
            }
        }
    }

    #[test]
    fn multi_qubit_product_example() {
        // (X⊗Y⊗Z)(Y⊗Y⊗I) = (XY)⊗(YY)⊗Z = iZ ⊗ I ⊗ Z
        let (phase, prod) = ps("XYZ").mul(&ps("YYI"));
        assert_eq!(phase, Phase::I);
        assert_eq!(prod, ps("ZIZ"));
    }

    #[test]
    fn commutation_examples() {
        assert!(ps("XX").commutes_with(&ps("ZZ")));
        assert!(!ps("XI").commutes_with(&ps("ZI")));
        assert!(ps("XY").commutes_with(&ps("YX")));
        assert!(ps("IIII").commutes_with(&ps("XYZX")));
    }

    #[test]
    fn support_iterates_non_identity_qubits() {
        let p = ps("IXIYZ");
        assert_eq!(p.support().collect::<Vec<_>>(), vec![1, 3, 4]);
        assert_eq!(PauliString::identity(3).support().count(), 0);
    }

    #[test]
    fn support_works_across_word_boundaries() {
        let mut p = PauliString::identity(130);
        p.set(0, Pauli::X);
        p.set(63, Pauli::Y);
        p.set(64, Pauli::Z);
        p.set(129, Pauli::X);
        assert_eq!(p.support().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        assert_eq!(p.weight(), 4);
    }

    #[test]
    fn z_type_and_expectations() {
        assert!(ps("ZIZ").is_z_type());
        assert!(!ps("ZXZ").is_z_type());
        assert_eq!(ps("ZIZ").expectation_all_zeros(), 1.0);
        assert_eq!(ps("XII").expectation_all_zeros(), 0.0);
        // ⟨10|Z0 Z1|10⟩ with bit 0 set: one flipped qubit in support → -1.
        assert_eq!(ps("ZZ").expectation_basis_state(&[0b01]), -1.0);
        assert_eq!(ps("ZZ").expectation_basis_state(&[0b11]), 1.0);
        assert_eq!(ps("ZI").expectation_basis_state(&[0b10]), 1.0);
        assert_eq!(ps("XZ").expectation_basis_state(&[0b00]), 0.0);
        // An empty slice is the all-zeros state.
        assert_eq!(ps("ZZ").expectation_basis_state(&[]), 1.0);
    }

    #[test]
    fn basis_state_expectation_beyond_64_qubits() {
        // Regression: the parity must read every bit word, not just the
        // first — a flipped qubit ≥ 64 in the support must show up.
        let mut p = PauliString::identity(130);
        p.set(3, Pauli::Z);
        p.set(70, Pauli::Z);
        p.set(129, Pauli::Z);
        let mut bits = [0u64; 3];
        bits[70 / 64] |= 1 << (70 % 64);
        assert_eq!(p.expectation_basis_state(&bits), -1.0);
        // Flip a second support qubit in another word: parity is even again.
        bits[129 / 64] |= 1 << (129 % 64);
        assert_eq!(p.expectation_basis_state(&bits), 1.0);
        // Flips outside the support never matter, in any word.
        bits[1] |= 1 << (100 % 64);
        assert_eq!(p.expectation_basis_state(&bits), 1.0);
        // X anywhere still zeroes the diagonal element.
        p.set(65, Pauli::X);
        assert_eq!(p.expectation_basis_state(&bits), 0.0);
    }

    #[test]
    fn clear_resets_to_identity_in_place() {
        let mut p = ps("XYZI");
        p.clear();
        assert!(p.is_identity());
        assert_eq!(p.num_qubits(), 4);
        // Works across word boundaries too.
        let mut wide = PauliString::identity(130);
        wide.set(129, Pauli::Y);
        wide.clear();
        assert!(wide.is_identity());
    }

    #[test]
    fn tensor_concatenates() {
        let t = ps("XY").tensor(&ps("Z"));
        assert_eq!(t, ps("XYZ"));
    }

    #[test]
    fn random_respects_qubit_count() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1, 3, 64, 65, 100] {
            let p = PauliString::random(n, &mut rng);
            assert_eq!(p.num_qubits(), n);
            // No stray bits above n.
            assert!(p.support().all(|q| q < n));
        }
    }

    #[test]
    fn serde_round_trip() {
        let p = ps("XIZY");
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(json, "\"XIZY\"");
        let back: PauliString = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    /// Two uniformly random Pauli strings of the same (random) length.
    fn same_length_pair() -> impl Strategy<Value = (PauliString, PauliString)> {
        (1usize..80).prop_flat_map(|n| {
            let one = proptest::collection::vec(0u8..4, n).prop_map(|v| {
                PauliString::from_sparse(
                    v.len(),
                    v.iter()
                        .enumerate()
                        .map(|(q, &k)| (q, [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z][k as usize])),
                )
            });
            (one.clone(), one)
        })
    }

    proptest! {
        #[test]
        fn prop_product_self_inverse(s in "[IXYZ]{1,80}") {
            let p = ps(&s);
            let (phase, prod) = p.mul(&p);
            prop_assert_eq!(phase, Phase::ONE);
            prop_assert!(prod.is_identity());
        }

        #[test]
        fn prop_commutation_matches_phase_difference((pa, pb) in same_length_pair()) {
            let (ph_ab, prod_ab) = pa.mul(&pb);
            let (ph_ba, prod_ba) = pb.mul(&pa);
            prop_assert_eq!(prod_ab, prod_ba);
            // PQ = ±QP: commuting iff phases equal.
            prop_assert_eq!(pa.commutes_with(&pb), ph_ab == ph_ba);
        }

        #[test]
        fn prop_product_weight_bounded((pa, pb) in same_length_pair()) {
            let (_, prod) = pa.mul(&pb);
            prop_assert!(prod.weight() <= pa.weight() + pb.weight());
        }

        #[test]
        fn prop_associativity(
            a in "[IXYZ]{6}", b in "[IXYZ]{6}", c in "[IXYZ]{6}"
        ) {
            let (pa, pb, pc) = (ps(&a), ps(&b), ps(&c));
            let (p1, ab) = pa.mul(&pb);
            let (p2, ab_c) = ab.mul(&pc);
            let (q1, bc) = pb.mul(&pc);
            let (q2, a_bc) = pa.mul(&bc);
            prop_assert_eq!(p1 * p2, q1 * q2);
            prop_assert_eq!(ab_c, a_bc);
        }

        #[test]
        fn prop_parse_display_round_trip(s in "[IXYZ]{1,100}") {
            let p = ps(&s);
            prop_assert_eq!(p.to_string(), s);
        }
    }
}
