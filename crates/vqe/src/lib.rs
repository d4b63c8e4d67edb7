//! VQE execution: classical optimizers driving the noisy quantum objective.
//!
//! The paper runs full VQE from each initialization with the SPSA optimizer
//! (§5.2, \[45\]) on Qiskit's noisy simulators. Here:
//!
//! * [`Spsa`] — simultaneous perturbation stochastic approximation with the
//!   standard Spall gain schedules,
//! * [`NelderMead`] — a gradient-free simplex alternative (§2.3 mentions it
//!   as the other common choice),
//! * [`run_vqe`] / [`VqeTrace`] — the end-to-end loop: the objective is the
//!   device-model energy of `A'(θ)` (density-matrix simulation with the full
//!   noise model) w.r.t. the (possibly Clapton-transformed) Hamiltonian,
//!   recording the convergence traces of Figure 6.

mod measurement;
mod nelder_mead;
mod runner;
mod spsa;
mod zne;

pub use measurement::{group_qubitwise_commuting, qubitwise_commute, SampledEnergy};
pub use nelder_mead::{NelderMead, NelderMeadConfig};
pub use runner::{run_vqe, run_vqe_with_backend, VqeConfig, VqeTrace};
pub use spsa::{Spsa, SpsaConfig, SpsaResult};
pub use zne::{richardson_extrapolate, zero_noise_extrapolate, ZneConfig, ZneEstimate};
