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
//! 3. [`LossFunction`] evaluates `L(γ) = LN(γ) + L0(γ)` (Eq. 9–10) through a
//!    pluggable [`EnergyBackend`]: exact Clifford back-propagation
//!    ([`ExactBackend`]), the stim-style frame sampler ([`SampledBackend`]),
//!    or dense density-matrix simulation ([`DenseBackend`]).
//! 4. [`TransformLoss`] packages the objective as a batched
//!    [`LossEvaluator`] which [`run_clapton`]
//!    hands to the multi-GA engine of Figure 4 — memoized, with instances
//!    and population batches on the caller's [`WorkerPool`] — returning
//!    the [`Transformation`] plus diagnostics.
//!
//! Baselines: [`run_cafqa`] (noiseless Clifford search over `θ`, prior art
//! \[38\]) and [`run_ncafqa`] (the paper's noise-aware CAFQA, §5.2), both
//! through [`CafqaLoss`] on the same engine and pool.
//! Metrics: [`relative_improvement`] (η, Eq. 14), [`geometric_mean`],
//! [`normalized_energy`].

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
pub use loss::{
    DenseBackend, EnergyBackend, EvaluatorKind, ExactBackend, LossFunction, PreparedEnergy,
    SampledBackend,
};
pub use metrics::{geometric_mean, normalized_energy, relative_improvement};
pub use transform::{transform_hamiltonian, transform_hamiltonian_into, Transformation};
