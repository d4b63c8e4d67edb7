//! Clifford-simulable device noise for the Clapton reproduction.
//!
//! The paper models three error sources (§2.2, §4.2):
//!
//! * **gate errors** as depolarizing channels after every gate (1q strength
//!   `p`: one of `X/Y/Z` with chance `p/3`; 2q strength `p`: one of the 15
//!   non-identity two-qubit Paulis with chance `p/15` — the stim convention),
//! * **measurement errors** as classical bit flips with per-qubit probability
//!   `p_k` just before readout,
//! * **thermal relaxation** (T1 decay) — *not* Clifford-simulable; it is
//!   carried in the [`NoiseModel`] for the dense density-matrix simulator
//!   (`clapton-sim`) and deliberately absent from the Clifford evaluators,
//!   exactly as in the paper (§4.2.1: Clapton counters relaxation by
//!   transforming toward `|0⟩`, not by modeling it in `LN`).
//!
//! Two evaluators compute the noisy expectation `⟨0|Ã†(0) P Ã(0)|0⟩` of
//! Eq. 9:
//!
//! * [`ExactEvaluator`] — closed form. For stochastic Pauli channels acting
//!   on a Clifford circuit the Heisenberg-picture observable just picks up a
//!   scalar damping factor per channel (`1-4p/3`, `1-16p/15`, `1-2p_k`), so
//!   the noisy expectation is exact with **zero sampling error**. Full
//!   Hamiltonian energies back-propagate bit-parallel: 64 terms share one
//!   reverse circuit walk through a signed [`clapton_pauli::TermBatch`]
//!   (transposed planes + sign plane), bit-identical to the retained
//!   term-at-a-time scalar reference.
//! * [`FrameSampler`] — faithful stim-style Pauli-frame Monte Carlo (what the
//!   paper actually ran); its mean converges to the exact value, which the
//!   tests pin down. Frames propagate 64 shots at a time as the lanes of a
//!   [`clapton_pauli::TermBatch`] (sign plane ignored), conjugated by the
//!   same word-level gate rules as the exact path; per-term preparation is
//!   hoisted into [`TermPrep`] and shared across calls via [`TermCache`].

mod circuit;
mod evaluator;
mod model;

pub use circuit::{NoisyCircuit, NoisyOp, NotCliffordError};
pub use evaluator::{ExactEvaluator, FrameSampler, TermCache, TermPrep};
pub use model::{GateDurations, NoiseModel};
