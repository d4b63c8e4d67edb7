//! Integer-genome genetic algorithms: the PyGAD substitute.
//!
//! Clapton solves the discrete optimization `γ̂ = argmin L(γ)` over genomes
//! with four-valued genes using genetic algorithms (§4.1). The engine here
//! mirrors Figure 4 of the paper:
//!
//! 1. spawn `s` independent GA instances from random populations,
//! 2. each runs `m` generations of tournament selection, crossover and
//!    mutation,
//! 3. pool the top `k` solutions of every instance, mix them into fresh
//!    starting populations (topped up with new random guesses),
//! 4. repeat rounds until the global best loss stops improving, allowing two
//!    retry rounds before terminating.
//!
//! Paper hyper-parameters: `s = 10`, `m = 100`, `k = 20`, `|S| = 100`
//! ([`MultiGaConfig::paper`]).
//!
//! Fitness is consumed exclusively through the [`LossEvaluator`] trait
//! (re-exported from `clapton-eval`): instances request losses in population
//! batches, and [`MultiGa`] stacks a shared genome → loss cache on a
//! [`PooledEvaluator`] batch path over the caller's [`WorkerPool`]. Wrap a
//! plain closure with [`FnEvaluator`] when a full evaluator object is
//! overkill.

mod engine;
mod instance;

pub use clapton_eval::{CacheStats, CachedEvaluator, FnEvaluator, LossEvaluator, MemoEntry};
pub use clapton_runtime::{PooledEvaluator, WorkerPool};
pub use engine::{EngineState, MultiGa, MultiGaConfig, MultiGaResult};
pub use instance::{GaConfig, GaInstance, Individual, Population};
