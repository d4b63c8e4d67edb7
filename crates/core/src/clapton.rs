//! The end-to-end Clapton optimization (§4.1, Figure 4).

use crate::loss::hash_terms;
use crate::{EvaluatorKind, ExecutableAnsatz, TransformLoss, Transformation};
use clapton_circuits::TransformationAnsatz;
use clapton_ga::{EngineState, MemoEntry, MultiGa, MultiGaConfig};
use clapton_noise::NoisyCircuit;
use clapton_pauli::PauliSum;
use clapton_runtime::WorkerPool;
use clapton_telemetry::Fnv1a;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of a Clapton run.
#[derive(Debug, Clone)]
pub struct ClaptonConfig {
    /// The multi-GA engine settings (paper: `s=10, m=100, k=20, |S|=100`).
    pub engine: MultiGaConfig,
    /// How `LN` is computed.
    pub evaluator: EvaluatorKind,
    /// Base seed for the search.
    pub seed: u64,
    /// Ablation switch: when `false`, the four-valued two-qubit slots of
    /// Eq. 8 are frozen to identity, leaving a rotations-only transformation
    /// ansatz. The paper argues the slots add the expressiveness needed to
    /// move Pauli components across qubits (§4); this knob quantifies that.
    pub two_qubit_slots: bool,
}

impl ClaptonConfig {
    /// The paper's configuration with the exact evaluator.
    pub fn paper() -> ClaptonConfig {
        ClaptonConfig {
            engine: MultiGaConfig::paper(),
            evaluator: EvaluatorKind::Exact,
            seed: 0,
            two_qubit_slots: true,
        }
    }

    /// A reduced configuration for tests and quick experiments.
    pub fn quick(seed: u64) -> ClaptonConfig {
        ClaptonConfig {
            engine: MultiGaConfig::quick(),
            evaluator: EvaluatorKind::Exact,
            seed,
            two_qubit_slots: true,
        }
    }
}

impl Default for ClaptonConfig {
    fn default() -> ClaptonConfig {
        ClaptonConfig::paper()
    }
}

/// The outcome of a Clapton run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClaptonResult {
    /// The best transformation found.
    pub transformation: Transformation,
    /// The transformation ansatz the genome refers to.
    pub ansatz: TransformationAnsatz,
    /// The best loss `L = LN + L0`.
    pub loss: f64,
    /// `LN` of the winning transformation.
    pub loss_n: f64,
    /// `L0` of the winning transformation.
    pub loss_0: f64,
    /// Global best loss per engine round (non-increasing).
    pub round_bests: Vec<f64>,
    /// Number of engine rounds until convergence.
    pub rounds: usize,
    /// Distinct transformations (canonical genomes) whose loss was
    /// actually computed.
    pub unique_evaluations: u64,
    /// Fitness requests answered by the engine's genome → loss cache.
    pub cache_hits: u64,
}

/// Runs the Clapton search: finds `γ̂ = argmin [LN(γ) + L0(γ)]` over the
/// transformation ansatz and returns `Ĥ = C†(γ̂) H C(γ̂)` (Eq. 5/11).
///
/// The transformation ansatz lives on the *logical* register (the
/// transformation is a change of problem representation); the loss evaluates
/// the transformed Hamiltonian on the *transpiled* ansatz under the device
/// noise model.
///
/// GA instances and population batches run on `pool`; results are
/// bit-identical for every pool size (a 0-worker pool runs inline).
///
/// # Example
///
/// ```
/// use clapton_core::{run_clapton, ClaptonConfig, ExecutableAnsatz, WorkerPool};
/// use clapton_noise::NoiseModel;
/// use clapton_pauli::PauliSum;
/// use std::sync::Arc;
///
/// // A problem whose ground state is |11⟩: Clapton should find a
/// // transformation making |00⟩ optimal.
/// let h = PauliSum::from_terms(2, vec![
///     (1.0, "ZI".parse().unwrap()),
///     (1.0, "IZ".parse().unwrap()),
/// ]);
/// let model = NoiseModel::uniform(2, 1e-3, 1e-2, 2e-2);
/// let exec = ExecutableAnsatz::untranspiled(2, &model);
/// let pool = Arc::new(WorkerPool::new());
/// let result = run_clapton(&h, &exec, &ClaptonConfig::quick(1), &pool);
/// assert!((result.loss_0 - (-2.0)).abs() < 1e-12);
/// ```
pub fn run_clapton(
    h: &PauliSum,
    exec: &ExecutableAnsatz,
    config: &ClaptonConfig,
    pool: &Arc<WorkerPool>,
) -> ClaptonResult {
    run_clapton_resumable(h, exec, config, pool, None, &mut |_, _| true)
        .1
        .expect("uninterrupted run converges")
}

/// [`run_clapton`] with round-level checkpoint hooks and resume — the
/// Clapton search inside the service's job body. Its losses come from the
/// in-process memo and the objective alone; no persistent store is consulted.
///
/// * `pool` — GA instances and population batches execute on this shared
///   persistent [`WorkerPool`] (results are bit-identical for every size).
/// * `resume` — an [`EngineState`] snapshot from a previous, interrupted
///   run, its memo in `cache_entries`. The search continues from the
///   captured round, bit-identical to a run that was never interrupted.
/// * `on_round` — called after every completed round with the engine state
///   and the genome → loss entries that round added, sorted by key (the
///   [`MultiGa::run_rounds`] contract: the state's `cache_entries` is empty
///   meanwhile, so the memo lives outside it). Persist both to implement
///   checkpointing: a resume state is the last state with `cache_entries`
///   set to the union of the deltas of its rounds. Returning `false`
///   suspends the search: the function returns the current state and
///   `None`.
///
/// Returns the final engine state (always serializable; a suspended search's
/// state holds its full memo, a converged one's holds none) plus the
/// [`ClaptonResult`] when the search ran to convergence.
///
/// # Panics
///
/// Panics on a register mismatch, or when `resume` does not belong to this
/// exact search: the state's seed, instance count, and problem fingerprint
/// (a hash of the Hamiltonian, the evaluator kind, the ablation switch,
/// and the engine settings, stamped into [`EngineState::tag`] at start) must
/// all match — a memo cache built against a different objective would
/// silently corrupt the search.
pub fn run_clapton_resumable(
    h: &PauliSum,
    exec: &ExecutableAnsatz,
    config: &ClaptonConfig,
    pool: &Arc<WorkerPool>,
    resume: Option<EngineState>,
    on_round: &mut dyn FnMut(&EngineState, &[MemoEntry]) -> bool,
) -> (EngineState, Option<ClaptonResult>) {
    let n = exec.num_logical();
    assert_eq!(h.num_qubits(), n, "Hamiltonian/ansatz register mismatch");
    let t_ansatz = TransformationAnsatz::new(n);
    let mut objective = TransformLoss::new(h, exec, &t_ansatz, config.evaluator);
    if !config.two_qubit_slots {
        // Ablation: freeze the two-qubit slot genes to identity.
        objective = objective.freeze_two_qubit_slots();
    }
    let engine = MultiGa::new(t_ansatz.num_genes(), 4, config.engine);
    let tag = problem_fingerprint(h, config);
    let mut state = match resume {
        Some(state) => {
            assert_eq!(state.seed, config.seed, "resume seed mismatch");
            assert_eq!(
                state.seeds_per_instance.len(),
                config.engine.instances,
                "resume instance-count mismatch"
            );
            assert_eq!(
                state.tag, tag,
                "resume problem-fingerprint mismatch: the checkpoint belongs to a different \
                 Hamiltonian, evaluator kind, or engine configuration"
            );
            state
        }
        None => {
            let mut state = engine.start(config.seed);
            state.tag = tag;
            state
        }
    };
    if !engine.run_rounds(&mut state, &objective, pool, on_round) {
        return (state, None);
    }
    let result = engine.result(&state);
    let transformation =
        Transformation::from_genome(h, &t_ansatz, objective.masked(&result.best.genes));
    let loss_n = objective.loss().loss_n(&transformation.transformed);
    let loss_0 = objective.loss().loss_0(&transformation.transformed);
    let clapton = ClaptonResult {
        transformation,
        ansatz: t_ansatz,
        loss: result.best.loss,
        loss_n,
        loss_0,
        round_bests: result.round_bests,
        rounds: result.rounds,
        unique_evaluations: result.unique_evaluations,
        cache_hits: result.cache_hits,
    };
    (state, Some(clapton))
}

/// The persistent-store namespace for loss entries of this objective: an
/// FNV-1a fingerprint of everything a genome's loss depends on — the
/// Hamiltonian's terms, the noisy transpiled ansatz
/// ([`NoisyCircuit::fingerprint`]), the evaluator kind and the ablation
/// switch, but not the engine settings or seed.
///
/// No job keys a store with it; it is kept only for the benchmark's traced
/// job body (`clapbench/src/compose.rs`), which still attaches a loss store.
pub fn loss_namespace(h: &PauliSum, exec: &ExecutableAnsatz, config: &ClaptonConfig) -> u64 {
    let noisy = NoisyCircuit::from_circuit(&exec.circuit_at_zero(), exec.noise_model())
        .expect("the transpiled ansatz at θ=0 is Clifford");
    let mut hash = hash_problem(h);
    hash.write_u64(noisy.fingerprint());
    hash_objective_settings(&mut hash, config);
    hash.finish()
}

/// A deterministic FNV-1a fingerprint of everything that shapes the search
/// besides the seed: the Hamiltonian's terms, the evaluator kind, the
/// ablation switch, and the engine hyper-parameters. Stamped into
/// [`EngineState::tag`] so checkpoints refuse to resume a different search.
fn problem_fingerprint(h: &PauliSum, config: &ClaptonConfig) -> u64 {
    let mut hash = hash_problem(h);
    hash_objective_settings(&mut hash, config);
    let engine = &config.engine;
    for word in [
        engine.instances as u64,
        engine.top_k as u64,
        engine.max_retry_rounds as u64,
        engine.max_rounds as u64,
        engine.pool_fraction.to_bits(),
        engine.ga.population_size as u64,
        engine.ga.generations as u64,
        engine.ga.tournament_size as u64,
        engine.ga.crossover_rate.to_bits(),
        engine.ga.mutation_rate.to_bits(),
        engine.ga.elite as u64,
    ] {
        hash.write_u64(word);
    }
    hash.finish()
}

/// The Hamiltonian prefix both fingerprints share: register size, then
/// every term.
fn hash_problem(h: &PauliSum) -> Fnv1a {
    let mut hash = Fnv1a::new();
    hash.write_u64(h.num_qubits() as u64);
    hash_terms(&mut hash, h);
    hash
}

/// The objective settings both fingerprints share: the evaluator kind
/// and the ablation switch.
fn hash_objective_settings(hash: &mut Fnv1a, config: &ClaptonConfig) {
    match config.evaluator {
        EvaluatorKind::Exact => hash.write_u64(1),
        EvaluatorKind::Sampled { shots, seed } => {
            hash.write_u64(2).write_u64(shots as u64).write_u64(seed)
        }
    };
    hash.write_u64(u64::from(config.two_qubit_slots));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LossFunction;
    use clapton_models::{ising, xxz};
    use clapton_noise::NoiseModel;
    use clapton_sim::ground_energy;

    /// A 0-worker pool: every search runs inline on the test thread.
    fn inline() -> Arc<WorkerPool> {
        Arc::new(WorkerPool::with_workers(0))
    }

    #[test]
    fn fingerprints_are_pinned() {
        // Literal values: persistent loss stores and checkpoint tags written
        // by earlier builds must keep matching.
        let h = ising(4, 0.5);
        let model = NoiseModel::uniform(4, 1e-3, 1e-2, 2e-2);
        let exec = ExecutableAnsatz::untranspiled(4, &model);
        let mut config = ClaptonConfig::quick(7);
        assert_eq!(loss_namespace(&h, &exec, &config), 2635942514741787798);
        assert_eq!(problem_fingerprint(&h, &config), 15643032294655219296);
        config.evaluator = EvaluatorKind::Sampled { shots: 64, seed: 3 };
        config.two_qubit_slots = false;
        assert_eq!(loss_namespace(&h, &exec, &config), 8107244060515132249);
        assert_eq!(problem_fingerprint(&h, &config), 13802064013204535589);
    }

    #[test]
    fn clapton_reaches_exact_clifford_optimum_on_small_ising() {
        // For the 3-qubit Ising model at J=0.25 the stabilizer optimum is
        // close to the true ground state; Clapton's L0 should reach the best
        // computational-Clifford value.
        let h = ising(3, 0.25);
        let model = NoiseModel::uniform(3, 1e-3, 1e-2, 2e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let result = run_clapton(&h, &exec, &ClaptonConfig::quick(3), &inline());
        // The transformed problem's |0⟩ energy must at least beat the
        // original |0…0⟩ energy (= +3) massively.
        assert!(result.loss_0 <= -3.0, "loss_0 = {}", result.loss_0);
        // And it can never beat the true ground energy.
        assert!(result.loss_0 >= ground_energy(&h) - 1e-9);
        // Spectrum is preserved.
        assert!(
            (ground_energy(&result.transformation.transformed) - ground_energy(&h)).abs() < 1e-8
        );
    }

    #[test]
    fn clapton_beats_untransformed_initial_point_under_noise() {
        let h = xxz(4, 0.5);
        let model = NoiseModel::uniform(4, 2e-3, 1.5e-2, 3e-2);
        let exec = ExecutableAnsatz::untranspiled(4, &model);
        let loss = LossFunction::new(&exec, EvaluatorKind::Exact);
        let untransformed = loss.total(&h);
        let result = run_clapton(&h, &exec, &ClaptonConfig::quick(11), &inline());
        assert!(
            result.loss < untransformed,
            "clapton {} vs untransformed {untransformed}",
            result.loss
        );
        // Reported loss decomposition is consistent.
        assert!((result.loss_n + result.loss_0 - result.loss).abs() < 1e-9);
    }

    #[test]
    fn slot_ablation_freezes_two_qubit_genes() {
        let h = xxz(3, 1.0);
        let model = NoiseModel::uniform(3, 2e-3, 1.5e-2, 2e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let mut config = ClaptonConfig::quick(8);
        config.two_qubit_slots = false;
        let result = run_clapton(&h, &exec, &config, &inline());
        // Slot genes (positions 2N..2N+pairs) must be identity.
        let slots = &result.transformation.gamma[6..9];
        assert_eq!(slots, &[0, 0, 0]);
        // The full ansatz can only do at least as well (same seed budget may
        // vary, so compare against the ablated loss with a margin).
        let full = run_clapton(&h, &exec, &ClaptonConfig::quick(8), &inline());
        assert!(full.loss <= result.loss + 1e-9);
    }

    #[test]
    fn resumable_run_suspends_resumes_and_pools_bit_identically() {
        let h = ising(3, 0.5);
        let model = NoiseModel::uniform(3, 1e-3, 1e-2, 2e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let config = ClaptonConfig::quick(9);
        let inline = inline();
        let reference = run_clapton(&h, &exec, &config, &inline);

        // A pool with workers produces the identical result.
        let pool = Arc::new(WorkerPool::with_workers(2));
        let (_, pooled) = run_clapton_resumable(&h, &exec, &config, &pool, None, &mut |_, _| true);
        assert_eq!(pooled.expect("converged"), reference);

        // Suspend after the first round, round-trip the state through JSON,
        // resume: bit-identical to the uninterrupted run.
        let (suspended, early) =
            run_clapton_resumable(&h, &exec, &config, &inline, None, &mut |_, _| false);
        assert!(early.is_none(), "observer suspended the run");
        assert!(!suspended.finished);
        assert_eq!(suspended.rounds(), 1);
        let json = serde_json::to_string(&suspended).expect("state serializes");
        let restored: EngineState = serde_json::from_str(&json).expect("state parses");
        let (final_state, resumed) =
            run_clapton_resumable(&h, &exec, &config, &inline, Some(restored), &mut |_, _| {
                true
            });
        assert!(final_state.finished);
        assert_eq!(resumed.expect("converged"), reference);
    }

    #[test]
    #[should_panic(expected = "problem-fingerprint mismatch")]
    fn resume_rejects_checkpoint_from_different_problem() {
        // Same register, same seed, same engine shape — only the Hamiltonian
        // differs. The stamped fingerprint must catch it.
        let model = NoiseModel::uniform(3, 1e-3, 1e-2, 2e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let config = ClaptonConfig::quick(5);
        let pool = inline();
        let (state, _) =
            run_clapton_resumable(&ising(3, 0.25), &exec, &config, &pool, None, &mut |_, _| {
                false
            });
        run_clapton_resumable(
            &xxz(3, 0.25),
            &exec,
            &config,
            &pool,
            Some(state),
            &mut |_, _| true,
        );
    }

    #[test]
    fn round_bests_monotone_and_deterministic() {
        let h = ising(3, 1.0);
        let model = NoiseModel::uniform(3, 1e-3, 1e-2, 1e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let a = run_clapton(&h, &exec, &ClaptonConfig::quick(42), &inline());
        let b = run_clapton(&h, &exec, &ClaptonConfig::quick(42), &inline());
        assert_eq!(a.transformation.gamma, b.transformation.gamma);
        assert_eq!(a.loss, b.loss);
        for w in a.round_bests.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }
}
