//! Bit-packed Pauli algebra for the Clapton reproduction.
//!
//! This crate is the foundation of the whole stack: it provides
//!
//! * [`Pauli`] — the single-qubit Pauli operators `I, X, Y, Z` with an exact
//!   multiplication table (including the `i^k` phases),
//! * [`Phase`] — the group `{1, i, -1, -i}` of phases that arise when
//!   multiplying Pauli operators,
//! * [`PauliString`] — an `N`-qubit Pauli operator stored as two bit vectors
//!   (`x` and `z` masks), with phase-exact products, commutation checks and
//!   support queries,
//! * [`PauliSum`] — a real-weighted sum of Pauli strings, the representation of
//!   every VQE Hamiltonian in the paper (`H = Σ_i c_i P_i`, §3.2),
//! * [`TermBatch`] — 64 Pauli strings stored transposed (one `u64` x/z word
//!   pair per qubit, bit `ℓ` = lane `ℓ`) plus a sign bit-plane: the one
//!   bit-parallel substrate of every Pauli propagation in the stack — the
//!   Hamiltonian transform, the exact back-propagation kernel and the
//!   frame sampler's 64-shot error frames,
//! * [`BernoulliWords`], [`uniform_pauli_planes`] and
//!   [`uniform_pauli_pair_planes`] — the frame sampler's random 64-shot
//!   error masks.
//!
//! The representation follows the symplectic convention used by stim and
//! Qiskit: a qubit with `(x, z)` bits `(0,0), (1,0), (1,1), (0,1)` carries
//! `I, X, Y, Z` respectively, and the string always denotes the *Hermitian*
//! tensor product of those single-qubit operators. Phases only appear as the
//! result of operations (products, Clifford conjugations) and are tracked
//! explicitly through [`Phase`].
//!
//! # Example
//!
//! ```
//! use clapton_pauli::{PauliString, PauliSum};
//!
//! # fn main() -> Result<(), clapton_pauli::PauliParseError> {
//! let xx: PauliString = "XX".parse()?;
//! let zz: PauliString = "ZZ".parse()?;
//! assert!(xx.commutes_with(&zz));
//!
//! // The 2-qubit transverse-field Ising Hamiltonian J X0X1 + Z0 + Z1.
//! let h = PauliSum::from_terms(2, vec![
//!     (0.5, "XX".parse()?),
//!     (1.0, "ZI".parse()?),
//!     (1.0, "IZ".parse()?),
//! ]);
//! assert_eq!(h.num_terms(), 3);
//! // ⟨00|H|00⟩ = 2 (the XX term has zero diagonal on |00⟩).
//! assert_eq!(h.expectation_all_zeros(), 2.0);
//! # Ok(())
//! # }
//! ```

mod masks;
mod phase;
mod single;
mod string;
mod sum;
mod term_batch;

pub use masks::{uniform_pauli_pair_planes, uniform_pauli_planes, BernoulliWords};
pub use phase::Phase;
pub use single::Pauli;
pub use string::{PauliParseError, PauliString};
pub use sum::{PauliSum, Term};
pub use term_batch::TermBatch;

/// Number of bits per storage word in [`PauliString`].
pub(crate) const WORD_BITS: usize = 64;

/// Number of `u64` words needed to store `n` bits.
pub(crate) fn words_for(n: usize) -> usize {
    n.div_ceil(WORD_BITS)
}
