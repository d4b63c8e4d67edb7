//! VQE execution: the classical optimizer driving the noisy quantum
//! objective.
//!
//! The paper runs full VQE from each initialization with the SPSA optimizer
//! (§5.2, \[45\]) on Qiskit's noisy simulators. Here:
//!
//! * [`Spsa`] — simultaneous perturbation stochastic approximation with the
//!   standard Spall gain schedules,
//! * [`run_vqe`] / [`VqeTrace`] — the end-to-end loop: the objective is the
//!   device-model energy of `A'(θ)` under the full noise model
//!   (`device_energy`) w.r.t. the (possibly Clapton-transformed) Hamiltonian,
//!   recording the convergence traces of Figure 6.

mod runner;
mod spsa;

pub use runner::{run_vqe, VqeConfig, VqeTrace};
pub use spsa::{Spsa, SpsaConfig, SpsaResult};
