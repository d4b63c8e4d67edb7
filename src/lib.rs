//! Umbrella crate for the Clapton reproduction (ASPLOS 2024,
//! arXiv:2406.15721): Clifford-assisted problem transformation for error
//! mitigation in variational quantum algorithms.
//!
//! The individual subsystems live in their own crates and are re-exported
//! here: [`pauli`], [`stabilizer`], [`circuits`], [`noise`], [`sim`],
//! [`ga`], [`models`], [`devices`], [`core`], [`vqe`], [`runtime`],
//! [`error`], and [`service`] — the declarative `JobSpec`/`ClaptonService`
//! front door every run goes through.
//!
//! # Example
//!
//! ```
//! use clapton::service::{
//!     ClaptonService, EngineSpec, JobSpec, NoiseSpec, ProblemSpec, SuiteProblem, UniformNoise,
//! };
//!
//! let mut spec = JobSpec::new(ProblemSpec::Suite(SuiteProblem {
//!     name: "ising(J=0.50)".into(),
//!     qubits: 4,
//! }));
//! spec.noise = NoiseSpec::Uniform(UniformNoise {
//!     p1: 1e-3,
//!     p2: 1e-2,
//!     readout: 2e-2,
//!     t1: None,
//! });
//! spec.engine = EngineSpec::Quick;
//! spec.seed = 42;
//! let report = ClaptonService::new().run(spec).unwrap();
//! // Clapton's transformed problem keeps the spectrum of the original...
//! let transformed = &report.clapton.as_ref().unwrap().transformation.transformed;
//! assert!((clapton::sim::ground_energy(transformed) - report.e0).abs() < 1e-7);
//! // ...and starts the VQE at a device energy no worse than CAFQA's.
//! let (cafqa, found) = (report.cafqa_initial_energy, report.clapton_initial_energy);
//! assert!(found.unwrap() <= cafqa.unwrap() + 1e-9);
//! ```

pub use clapton_circuits as circuits;
pub use clapton_core as core;
pub use clapton_devices as devices;
pub use clapton_error as error;
pub use clapton_ga as ga;
pub use clapton_models as models;
pub use clapton_noise as noise;
pub use clapton_pauli as pauli;
pub use clapton_runtime as runtime;
pub use clapton_service as service;
pub use clapton_sim as sim;
pub use clapton_stabilizer as stabilizer;
pub use clapton_vqe as vqe;
