//! The Clapton engine — the paper's primary contribution.
//!
//! Pipeline (§3–§4):
//!
//! 1. [`ExecutableAnsatz`] transpiles the circular VQE ansatz `A(θ)` onto a
//!    device (layout + SWAP routing, §5.2.2) and restricts the device noise
//!    model to the qubits actually used, so the loss consumes the *physical*
//!    circuit `A'`.
//! 2. [`transform_hamiltonian`] applies `Ĥ = C†(γ) H C(γ)` by anticonjugating
//!    every Pauli term through the transformation ansatz (Eq. 6).
//! 3. [`LossFunction`] evaluates `L(γ) = LN(γ) + L0(γ)` (Eq. 9–10) on the
//!    Clifford + Pauli-channel noise model: [`EvaluatorKind::prepare`] lowers
//!    a circuit once into a [`PreparedEnergy`] that scores Hamiltonians by
//!    exact Clifford back-propagation or the stim-style frame sampler.
//! 4. [`TransformLoss`] packages the objective as a batched
//!    [`LossEvaluator`] (for the exact kind it fuses steps 2 and 3 on `H`'s
//!    preloaded term planes, so `Ĥ` is never materialized per genome),
//!    which [`run_clapton`] hands to the multi-GA engine of Figure 4 —
//!    memoized, with instances and population batches on the caller's
//!    [`WorkerPool`] — returning the [`Transformation`] plus diagnostics.
//!
//! Baselines: [`run_cafqa`] (noiseless Clifford search over `θ`, prior art
//! \[38\]) and [`run_ncafqa`] (the paper's noise-aware CAFQA, §5.2), both
//! through [`CafqaLoss`] on the same engine and pool.
//! Metrics: [`relative_improvement`] (η, Eq. 14), [`geometric_mean`],
//! [`normalized_energy`]; [`device_energy`] scores a point on the full
//! device model, the one device energy of the stack (exact back-propagation
//! without T1 on a Clifford circuit, the density matrix otherwise).

mod baselines;
mod clapton;
mod evaluator;
mod exec;
mod loss;
mod metrics;
mod transform;

pub use baselines::{run_cafqa, run_ncafqa, CafqaResult};
pub use clapton::{
    loss_namespace, run_clapton, run_clapton_resumable, ClaptonConfig, ClaptonResult,
};
pub use clapton_eval::{CacheStats, CachedEvaluator, FnEvaluator, LossEvaluator, LossStore};
pub use clapton_ga::EngineState;
pub use clapton_runtime::{PooledEvaluator, WorkerPool};
pub use evaluator::{CafqaLoss, TransformLoss};
pub use exec::ExecutableAnsatz;
pub use loss::{device_energy, EvaluatorKind, LossFunction, PreparedEnergy};
pub use metrics::{geometric_mean, normalized_energy, relative_improvement};
pub use transform::{transform_hamiltonian, transform_hamiltonian_into, Transformation};
