//! Dense quantum simulation: the Qiskit Aer substitute of the Clapton stack.
//!
//! The paper evaluates its initializations under "realistic noise models
//! (not Clifford-only simulable)" (§5.2.2). This crate provides that
//! evaluation environment from scratch:
//!
//! * [`Complex64`] — minimal complex arithmetic (kept local; no external
//!   numerics dependency),
//! * [`StateVector`] — a dense statevector simulator for noiseless circuit
//!   evaluation and unitary-equivalence checks,
//! * [`DensityMatrix`] — a density-matrix simulator supporting depolarizing
//!   channels, **amplitude damping** (thermal relaxation — the non-Clifford
//!   channel the Clifford evaluators deliberately exclude) and analytic
//!   readout-error treatment,
//! * [`DeviceEvaluator`] — runs a circuit under a full
//!   [`NoiseModel`](clapton_noise::NoiseModel) (gate depolarizing + T1
//!   decay per scheduled moment + readout) and
//!   returns Hamiltonian energies: the "device (model) evaluation" of
//!   Figures 2 and 5,
//! * [`ground_energy`] — Lanczos exact minimum eigenvalue (the paper's `E0`
//!   obtained "by diagonalizing the Hamiltonian", §5.2.1).
//!
//! Qubit convention: qubit `k` is bit `k` of the basis-state index
//! (little-endian), matching the first bit word of
//! `PauliString::expectation_basis_state` (the dense simulators are bounded
//! far below 64 qubits; the Pauli layer itself takes multi-word bit slices).

mod complex;
mod density;
mod eigen;
mod evaluate;
mod statevector;

pub use complex::Complex64;
pub use density::DensityMatrix;
pub use eigen::{dominant_eigenvalue, ground_energy};
pub use evaluate::DeviceEvaluator;
pub use statevector::StateVector;
