//! Bit-parallel batches of signed Pauli strings (64 per word).
//!
//! Propagating one Pauli string through a Clifford circuit is a scalar loop
//! of per-qubit `get`/`set` calls; stim's key insight is that 64 strings can
//! share one pass when their bits are stored **transposed**: [`TermBatch`]
//! keeps, for every qubit, one `u64` x-word and one `u64` z-word whose bit
//! `ℓ` belongs to lane `ℓ`, **plus one `u64` sign bit-plane** whose bit `ℓ`
//! records whether lane `ℓ` has accumulated a `-1` so far. Clifford
//! conjugation of all 64 lanes is then a handful of word operations per
//! gate, with the Aaronson–Gottesman sign rules evaluated as word-level
//! boolean formulas on the same planes (see
//! `CliffordGate::conjugate_terms` in `clapton-stabilizer`).
//!
//! Every batched Pauli propagation in the stack runs on this one type:
//!
//! * the Hamiltonian transform `Ĥ = C† H C` anticonjugates 64 terms per
//!   pass through the transformation circuit,
//! * the exact noisy-loss kernel back-propagates 64 measured observables
//!   per reverse circuit walk, reading each lane's sign into its energy,
//! * the frame sampler pushes 64 shots' error frames forward per pass and
//!   ignores the sign plane (error frames are only observed through their
//!   commutation with the measured observable,
//!   [`TermBatch::anticommutation_mask`]).

use crate::{PauliString, WORD_BITS};

/// A batch of [`TermBatch::LANES`] signed Pauli observables stored
/// term-major: for each qubit `q`, bit `ℓ` of `x(q)`/`z(q)` is the
/// symplectic `(x, z)` bit of lane `ℓ`'s observable on that qubit, and bit
/// `ℓ` of [`TermBatch::sign_mask`] is set iff lane `ℓ` currently carries an
/// overall factor `-1`.
///
/// # Example
///
/// ```
/// use clapton_pauli::{Pauli, PauliString, TermBatch};
///
/// let mut batch = TermBatch::new(3);
/// batch.set_lane(0, &"XIZ".parse().unwrap(), false);
/// batch.set_lane(5, &"IYI".parse().unwrap(), true);
/// assert_eq!(batch.lane(0), (false, "XIZ".parse().unwrap()));
/// assert_eq!(batch.lane(5), (true, "IYI".parse().unwrap()));
/// assert_eq!(batch.lane(1), (false, PauliString::identity(3)));
/// // Lanes 0 and 5 touch qubits {0, 2} and {1}: per-qubit support masks.
/// assert_eq!(batch.support_mask(0), 0b000001);
/// assert_eq!(batch.support_mask(1), 0b100000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermBatch {
    n: usize,
    x: Vec<u64>,
    z: Vec<u64>,
    sign: u64,
}

impl TermBatch {
    /// Terms per batch: one per bit of the per-qubit storage words.
    pub const LANES: usize = 64;

    /// A batch of positive identity observables on `n` qubits.
    pub fn new(n: usize) -> TermBatch {
        TermBatch {
            n,
            x: vec![0; n],
            z: vec![0; n],
            sign: 0,
        }
    }

    /// The register size.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Resets every lane to the positive identity.
    pub fn clear(&mut self) {
        self.x.fill(0);
        self.z.fill(0);
        self.sign = 0;
    }

    /// The x bit-plane of `qubit` (bit `ℓ` = lane `ℓ`).
    #[inline]
    pub fn x(&self, qubit: usize) -> u64 {
        self.x[qubit]
    }

    /// The z bit-plane of `qubit`.
    #[inline]
    pub fn z(&self, qubit: usize) -> u64 {
        self.z[qubit]
    }

    /// XORs `mask` into the x plane of `qubit`.
    #[inline]
    pub fn xor_x(&mut self, qubit: usize, mask: u64) {
        self.x[qubit] ^= mask;
    }

    /// XORs `mask` into the z plane of `qubit`.
    #[inline]
    pub fn xor_z(&mut self, qubit: usize, mask: u64) {
        self.z[qubit] ^= mask;
    }

    /// Swaps the x and z planes of `qubit` (the H / √Y / √Y† symplectic
    /// action).
    #[inline]
    pub fn swap_xz(&mut self, qubit: usize) {
        std::mem::swap(&mut self.x[qubit], &mut self.z[qubit]);
    }

    /// Swaps two qubits across all lanes (the SWAP gate).
    #[inline]
    pub fn swap_qubits(&mut self, a: usize, b: usize) {
        self.x.swap(a, b);
        self.z.swap(a, b);
    }

    /// The sign bit-plane: bit `ℓ` set iff lane `ℓ` carries a factor `-1`.
    #[inline]
    pub fn sign_mask(&self) -> u64 {
        self.sign
    }

    /// Flips the sign of every lane whose `mask` bit is set (how gate sign
    /// rules are applied word-parallel).
    #[inline]
    pub fn xor_sign(&mut self, mask: u64) {
        self.sign ^= mask;
    }

    /// Per-lane support of `qubit`: bit `ℓ` set iff lane `ℓ`'s observable
    /// acts non-trivially there. One OR — this is what makes depolarizing
    /// damping decisions word-parallel.
    #[inline]
    pub fn support_mask(&self, qubit: usize) -> u64 {
        self.x[qubit] | self.z[qubit]
    }

    /// Lanes whose observable has any x bit left anywhere on the register —
    /// i.e. is *not* Z-type, so its `⟨0…0| · |0…0⟩` expectation vanishes.
    pub fn any_x_mask(&self) -> u64 {
        self.x.iter().fold(0, |acc, &w| acc | w)
    }

    /// Per-lane anticommutation with `obs`: bit `ℓ` of the result is `1`
    /// iff lane `ℓ` anticommutes with `obs` (signs play no part). Cost is
    /// one or two XORs per support qubit of `obs` — how the frame sampler
    /// reads 64 shots' measurement flips at once.
    ///
    /// # Panics
    ///
    /// Panics if `obs` acts on a different number of qubits.
    pub fn anticommutation_mask(&self, obs: &PauliString) -> u64 {
        assert_eq!(self.n, obs.num_qubits(), "qubit count mismatch");
        let mut acc = 0u64;
        for q in obs.support() {
            let (ox, oz) = obs.get(q).xz();
            if oz {
                acc ^= self.x[q];
            }
            if ox {
                acc ^= self.z[q];
            }
        }
        acc
    }

    /// Loads `p` (with sign `-1` iff `negative`) into `lane`, reading the
    /// string's x/z words directly.
    ///
    /// The lane must currently be the positive identity (e.g. right after
    /// [`TermBatch::new`] or [`TermBatch::clear`]); cost is `O(weight)`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= TermBatch::LANES`, if `p` acts on a different
    /// number of qubits, or (debug builds) if the lane is not empty.
    pub fn set_lane(&mut self, lane: usize, p: &PauliString, negative: bool) {
        assert!(lane < TermBatch::LANES, "lane {lane} out of range");
        assert_eq!(self.n, p.num_qubits(), "qubit count mismatch");
        debug_assert_eq!(
            self.lane(lane),
            (false, PauliString::identity(self.n)),
            "lane {lane} must be cleared before set_lane"
        );
        let bit = 1u64 << lane;
        let words = p.x_words().iter().zip(p.z_words());
        for (w, (&xw, &zw)) in words.enumerate() {
            let base = w * WORD_BITS;
            for (planes, mut bits) in [(&mut self.x, xw), (&mut self.z, zw)] {
                while bits != 0 {
                    planes[base + bits.trailing_zeros() as usize] |= bit;
                    bits &= bits - 1;
                }
            }
        }
        if negative {
            self.sign |= bit;
        }
    }

    /// Writes lane `lane`'s string into `out` word by word (any prior
    /// contents are overwritten) and returns whether the lane is negative.
    /// The caller owns `out`, so reading a whole batch back allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= TermBatch::LANES` or if `out` acts on a different
    /// number of qubits.
    pub fn lane_into(&self, lane: usize, out: &mut PauliString) -> bool {
        assert!(lane < TermBatch::LANES, "lane {lane} out of range");
        assert_eq!(self.n, out.num_qubits(), "qubit count mismatch");
        let (out_x, out_z) = out.words_mut();
        let gather = |planes: &[u64]| {
            planes.iter().enumerate().fold(0u64, |word, (b, &plane)| {
                word | (((plane >> lane) & 1) << b)
            })
        };
        let chunks = self.x.chunks(WORD_BITS).zip(self.z.chunks(WORD_BITS));
        for ((x, z), (ox, oz)) in chunks.zip(out_x.iter_mut().zip(out_z.iter_mut())) {
            *ox = gather(x);
            *oz = gather(z);
        }
        (self.sign >> lane) & 1 == 1
    }

    /// Extracts lane `lane` as `(negative, observable)` (diagnostics/tests;
    /// allocates — see [`TermBatch::lane_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= TermBatch::LANES`.
    pub fn lane(&self, lane: usize) -> (bool, PauliString) {
        let mut p = PauliString::identity(self.n);
        let negative = self.lane_into(lane, &mut p);
        (negative, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn new_batch_is_all_positive_identity() {
        let batch = TermBatch::new(4);
        for lane in 0..TermBatch::LANES {
            assert_eq!(batch.lane(lane), (false, PauliString::identity(4)));
        }
        assert_eq!(batch.sign_mask(), 0);
        assert_eq!(batch.any_x_mask(), 0);
    }

    #[test]
    fn set_lane_round_trips() {
        let mut rng = StdRng::seed_from_u64(13);
        for n in [1usize, 5, 70] {
            let mut batch = TermBatch::new(n);
            let terms: Vec<(bool, PauliString)> = (0..TermBatch::LANES)
                .map(|_| (rng.gen(), PauliString::random(n, &mut rng)))
                .collect();
            for (lane, (neg, p)) in terms.iter().enumerate() {
                batch.set_lane(lane, p, *neg);
            }
            for (lane, (neg, p)) in terms.iter().enumerate() {
                assert_eq!(batch.lane(lane), (*neg, p.clone()), "lane {lane} n {n}");
            }
            batch.clear();
            assert_eq!(batch.lane(17), (false, PauliString::identity(n)));
            assert_eq!(batch.sign_mask(), 0);
        }
    }

    #[test]
    fn support_and_x_masks_match_per_lane_queries() {
        let mut rng = StdRng::seed_from_u64(29);
        let n = 6;
        let mut batch = TermBatch::new(n);
        let terms: Vec<PauliString> = (0..TermBatch::LANES)
            .map(|_| PauliString::random(n, &mut rng))
            .collect();
        for (lane, p) in terms.iter().enumerate() {
            batch.set_lane(lane, p, false);
        }
        for q in 0..n {
            let mask = batch.support_mask(q);
            for (lane, p) in terms.iter().enumerate() {
                assert_eq!((mask >> lane) & 1 == 1, p.acts_on(q), "q {q} lane {lane}");
            }
        }
        let any_x = batch.any_x_mask();
        for (lane, p) in terms.iter().enumerate() {
            assert_eq!((any_x >> lane) & 1 == 1, !p.is_z_type(), "lane {lane}");
        }
    }

    #[test]
    fn anticommutation_mask_matches_per_lane_check() {
        let mut rng = StdRng::seed_from_u64(31);
        for n in [1usize, 3, 70] {
            let mut batch = TermBatch::new(n);
            for q in 0..n {
                batch.xor_x(q, rng.gen());
                batch.xor_z(q, rng.gen());
            }
            for _ in 0..5 {
                let obs = PauliString::random(n, &mut rng);
                let mask = batch.anticommutation_mask(&obs);
                for lane in [0usize, 1, 17, 63] {
                    let expected = !batch.lane(lane).1.commutes_with(&obs);
                    assert_eq!((mask >> lane) & 1 == 1, expected, "lane {lane} n {n}");
                }
            }
        }
    }

    #[test]
    fn plane_operations_match_frame_batch_semantics() {
        let mut batch = TermBatch::new(2);
        batch.xor_x(0, 0b1);
        batch.swap_qubits(0, 1);
        assert_eq!(batch.lane(0).1, "IX".parse().unwrap());
        batch.swap_xz(1);
        assert_eq!(batch.lane(0).1, "IZ".parse().unwrap());
        batch.xor_sign(0b1);
        assert_eq!(batch.lane(0), (true, "IZ".parse().unwrap()));
        batch.xor_sign(0b1);
        assert!(!batch.lane(0).0);
    }

    #[test]
    #[should_panic(expected = "qubit count mismatch")]
    fn set_lane_rejects_wrong_register() {
        let mut batch = TermBatch::new(3);
        batch.set_lane(0, &"XX".parse().unwrap(), false);
    }
}
