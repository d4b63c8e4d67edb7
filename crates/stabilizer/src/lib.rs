//! Stabilizer-formalism engine: the stim substitute of the Clapton stack.
//!
//! The paper relies on stim for two things (§4.1):
//!
//! 1. computing the (anti)conjugation of Pauli strings under Clifford
//!    operations — the mechanism behind the Hamiltonian transformation
//!    `Ĥ = Ĉ† H Ĉ` (Eq. 5–6), and
//! 2. simulating Clifford circuits with stochastic Pauli noise to evaluate the
//!    noisy loss `LN`.
//!
//! This crate provides both foundations from scratch:
//!
//! * [`CliffordGate`] — the single- and two-qubit Clifford gates used by the
//!   VQE and transformation ansätze, with exact Heisenberg conjugation rules
//!   (`P → g P g†`, sign included) for one string
//!   ([`CliffordGate::conjugate`]) and, as word-level formulas, for 64
//!   strings at once ([`CliffordGate::conjugate_terms`] on a
//!   [`clapton_pauli::TermBatch`]) — the one batched engine behind the
//!   Hamiltonian transform, the exact noisy-loss kernel and the frame
//!   sampler,
//! * [`StabilizerState`] — an Aaronson–Gottesman tableau simulator with
//!   deterministic/random `Z`-measurements and exact Pauli expectation values.

mod gate;
mod state;

pub use gate::CliffordGate;
pub use state::StabilizerState;

use clapton_pauli::PauliString;

/// Anticonjugates `p` through a gate sequence: returns the sign `s` such that
/// `C† p C = s · result` for `C = g_k ⋯ g_1` applied in iteration order.
///
/// This is the transformation direction Clapton uses for Hamiltonians
/// (§3.2): the gates are traversed in reverse with each gate inverted. It is
/// the one-string scalar reference of the batched transform
/// (`clapton_core::transform_hamiltonian`).
///
/// # Example
///
/// ```
/// use clapton_pauli::PauliString;
/// use clapton_stabilizer::{anticonjugate_through, CliffordGate};
///
/// // CX† (X⊗X) CX = X⊗I: Eq. 3 read backwards.
/// let mut p: PauliString = "XX".parse().unwrap();
/// let sign = anticonjugate_through(&[CliffordGate::Cx(0, 1)], &mut p);
/// assert_eq!(sign, 1.0);
/// assert_eq!(p, "XI".parse().unwrap());
/// ```
pub fn anticonjugate_through(gates: &[CliffordGate], p: &mut PauliString) -> f64 {
    let mut sign = 1.0;
    for g in gates.iter().rev() {
        if g.inverse().conjugate(p) {
            sign = -sign;
        }
    }
    sign
}
