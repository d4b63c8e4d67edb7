//! The multi-instance mix-and-restart engine of Figure 4, as a resumable
//! state machine.

use crate::{GaConfig, GaInstance, Individual};
use clapton_eval::{CacheStats, CachedEvaluator, LossEvaluator, LossStore, MemoEntry};
use clapton_runtime::{PooledEvaluator, WorkerPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Hyper-parameters of the full Clapton optimization engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiGaConfig {
    /// Number of parallel GA instances (`s`).
    pub instances: usize,
    /// Top solutions taken from each instance when mixing (`k`).
    pub top_k: usize,
    /// Rounds without improvement tolerated before terminating
    /// ("two retry rounds", §4.1).
    pub max_retry_rounds: usize,
    /// Hard cap on rounds (safety bound; the paper loops to convergence).
    pub max_rounds: usize,
    /// Fraction of each new population drawn from the mixed pool (the rest
    /// are fresh random guesses).
    pub pool_fraction: f64,
    /// Ignored: every search runs its instances and population batches on
    /// the caller's [`WorkerPool`], and a 0-worker pool runs them inline.
    /// The field stays because it is serialized into custom engine specs, so
    /// dropping it would change their hashes, report-cache keys and stored
    /// spec files.
    pub parallel: bool,
    /// Per-instance GA settings.
    pub ga: GaConfig,
}

impl MultiGaConfig {
    /// The paper's hyper-parameters: `s = 10`, `m = 100`, `k = 20`,
    /// `|S| = 100` (§4.1).
    pub fn paper() -> MultiGaConfig {
        MultiGaConfig {
            instances: 10,
            top_k: 20,
            max_retry_rounds: 2,
            max_rounds: 64,
            pool_fraction: 0.5,
            parallel: true,
            ga: GaConfig::default(),
        }
    }

    /// A reduced setting for tests and quick experiments.
    pub fn quick() -> MultiGaConfig {
        MultiGaConfig {
            instances: 3,
            top_k: 6,
            max_retry_rounds: 1,
            max_rounds: 8,
            pool_fraction: 0.5,
            parallel: false,
            ga: GaConfig {
                population_size: 30,
                generations: 20,
                ..GaConfig::default()
            },
        }
    }
}

impl Default for MultiGaConfig {
    fn default() -> MultiGaConfig {
        MultiGaConfig::paper()
    }
}

/// The outcome of a multi-GA optimization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiGaResult {
    /// The best individual found.
    pub best: Individual,
    /// Global best loss after each round (non-increasing).
    pub round_bests: Vec<f64>,
    /// Total number of rounds executed.
    pub rounds: usize,
    /// Evaluation-cache traffic per round: how many fitness requests were
    /// answered from the genome → loss memo vs. actually computed. Duplicate
    /// genomes recur heavily across mix-and-restart rounds, so later rounds
    /// typically show high hit rates.
    pub round_eval_stats: Vec<CacheStats>,
    /// Distinct genomes (canonical keys) whose loss was actually computed.
    pub unique_evaluations: u64,
    /// Total fitness requests answered from the cache.
    pub cache_hits: u64,
}

impl MultiGaResult {
    /// Total fitness requests across the run (hits + real evaluations).
    pub fn fitness_requests(&self) -> u64 {
        self.unique_evaluations + self.cache_hits
    }

    /// Overall cache hit fraction in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.fitness_requests();
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The complete engine state between two rounds — the checkpoint unit.
///
/// Produced by [`MultiGa::start`], advanced by [`MultiGa::run_rounds`] (or
/// one round at a time by [`MultiGa::step_pooled`]), and serializable as
/// JSON. A state taken after round `k` and deserialized later continues
/// **bit-identically** to a run that was never interrupted: the mixing RNG
/// state, the per-instance restart seeds, and the genome → loss memo (with
/// its statistics) are all part of it, and per-instance GA streams are
/// derived deterministically from `(seed, round, instance)`.
///
/// The memo need not live inside the serialized state. The state
/// [`MultiGa::run_rounds`] shows its `on_round` observer has an empty
/// `cache_entries`; the memo is the concatenation of the per-round deltas
/// handed out with it. A checkpointing caller persists each delta once and,
/// on resume, puts their union back into `cache_entries` — the service's
/// `checkpoint.json` plus its `memo-NNNNN.seg` segments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineState {
    /// The base seed the run was started with.
    pub seed: u64,
    /// Caller-defined problem fingerprint. The engine initializes it to `0`
    /// and never reads it; layers that serialize checkpoints (e.g.
    /// `run_clapton_resumable`) stamp a hash of their objective here and
    /// refuse to resume a state whose fingerprint does not match — a memo
    /// cache built against a different loss would silently corrupt the
    /// search.
    pub tag: u64,
    /// The next round to execute (= rounds completed so far).
    pub next_round: usize,
    /// Restart seeds assigned to each instance by the last mix step.
    pub seeds_per_instance: Vec<Option<Vec<Vec<u8>>>>,
    /// Best individual found so far.
    pub global_best: Option<Individual>,
    /// Global best loss after each completed round.
    pub round_bests: Vec<f64>,
    /// Cache traffic per completed round.
    pub round_eval_stats: Vec<CacheStats>,
    /// Rounds without improvement so far.
    pub retries: usize,
    /// Raw state of the mixing RNG.
    pub mix_rng: [u64; 4],
    /// The genome → loss memo, sorted by key (deterministic snapshots).
    /// Empty while a [`MultiGa::run_rounds`] observer runs and once the run
    /// has converged.
    pub cache_entries: Vec<(Vec<u8>, f64)>,
    /// Cache statistics matching `cache_entries`.
    pub cache_stats: CacheStats,
    /// Whether the run has converged (no further steps allowed).
    pub finished: bool,
}

impl EngineState {
    /// Number of completed rounds.
    pub fn rounds(&self) -> usize {
        self.next_round
    }
}

/// The multi-instance engine (Figure 4): spawn, evolve, mix, repeat until the
/// global loss stops decreasing.
///
/// Fitness flows through the [`LossEvaluator`] trait: the engine stacks a
/// shared genome → loss cache on top of a [`PooledEvaluator`] batch path, so
/// every instance's generation is evaluated as one deduplicated batch. Both
/// wrappers are bit-transparent — results are identical to calling
/// `evaluate` genome-at-a-time on a single thread.
///
/// Each round's instances are tasks on the caller's [`WorkerPool`], and their
/// population batches fan out on the same pool, so concurrent searches share
/// one set of threads. Results are bit-identical for every pool size; a
/// 0-worker pool runs everything inline on the calling thread.
///
/// The engine is a resumable state machine with one round loop,
/// [`MultiGa::run_rounds`], over an [`EngineState`]. It keeps the memo live
/// across rounds and hands each round's state and memo delta to an
/// observer, which may persist them and may stop the run.
/// [`MultiGa::run_pooled`] runs the loop to convergence;
/// [`MultiGa::step_pooled`] runs one round of it.
///
/// # Example
///
/// ```
/// use clapton_eval::FnEvaluator;
/// use clapton_ga::{MultiGa, MultiGaConfig};
/// use clapton_runtime::WorkerPool;
/// use std::sync::Arc;
///
/// let fitness = FnEvaluator::new(|g: &[u8]| g.iter().map(|&x| x as f64).sum::<f64>());
/// let pool = Arc::new(WorkerPool::with_workers(0));
/// let result = MultiGa::new(10, 4, MultiGaConfig::quick()).run_pooled(42, &fitness, &pool);
/// assert_eq!(result.best.loss, 0.0);
/// // Mix-and-restart rounds re-submit known genomes: the cache absorbs them.
/// assert!(result.cache_hits > 0);
/// ```
#[derive(Debug, Clone)]
pub struct MultiGa {
    num_genes: usize,
    cardinality: u8,
    config: MultiGaConfig,
    store: Option<(Arc<dyn LossStore>, u64)>,
}

impl MultiGa {
    /// Creates an engine for genomes of `num_genes` genes in
    /// `0..cardinality`.
    pub fn new(num_genes: usize, cardinality: u8, config: MultiGaConfig) -> MultiGa {
        MultiGa {
            num_genes,
            cardinality,
            config,
            store: None,
        }
    }

    /// Attaches a persistent loss store consulted on memo misses under
    /// namespace `ns` ([`CachedEvaluator::with_store`]; disk hits count as
    /// cache misses). Kept only for `clapbench/src/compose.rs`.
    pub fn with_loss_store(mut self, store: Arc<dyn LossStore>, ns: u64) -> MultiGa {
        self.store = Some((store, ns));
        self
    }

    /// Runs the engine to convergence on `pool`, minimizing `evaluator`'s
    /// loss: [`MultiGa::run_rounds`] from [`MultiGa::start`] with an
    /// observer that never stops it.
    pub fn run_pooled<E: LossEvaluator + ?Sized>(
        &self,
        seed: u64,
        evaluator: &E,
        pool: &Arc<WorkerPool>,
    ) -> MultiGaResult {
        let mut state = self.start(seed);
        self.run_rounds(&mut state, evaluator, pool, &mut |_, _| true);
        self.result(&state)
    }

    /// Runs rounds on `pool` until the run converges or `on_round` returns
    /// `false`, and returns whether the run has converged.
    ///
    /// The genome → loss memo is built once from `state.cache_entries` and
    /// kept live across rounds. After every round `state.cache_stats` is
    /// updated and `on_round` receives the state plus the memo entries that
    /// round added, sorted by key: exactly `round_eval_stats[r].misses` of
    /// them. While `on_round` runs, `state.cache_entries` is empty, so the
    /// state it sees plus the deltas of rounds `0..=r` is the whole
    /// checkpoint. A run that stops before converging returns with its full
    /// sorted memo back in `state.cache_entries`, the point it resumes from;
    /// a converged run returns with none, since a finished state never
    /// steps again. A state that is already finished runs no round.
    pub fn run_rounds<E: LossEvaluator + ?Sized>(
        &self,
        state: &mut EngineState,
        evaluator: &E,
        pool: &Arc<WorkerPool>,
        on_round: &mut dyn FnMut(&EngineState, &[MemoEntry]) -> bool,
    ) -> bool {
        let cached = CachedEvaluator::from_snapshot(
            PooledEvaluator::new(evaluator, Arc::clone(pool)),
            std::mem::take(&mut state.cache_entries),
            state.cache_stats,
        );
        let cached = match &self.store {
            Some((store, ns)) => cached.with_store(Arc::clone(store), *ns),
            None => cached,
        };
        while !state.finished {
            self.step_core(state, &cached, pool);
            state.cache_stats = cached.stats();
            if !on_round(state, &cached.take_fresh()) {
                break;
            }
        }
        if !state.finished {
            state.cache_entries = cached.export();
        }
        state.finished
    }

    /// The initial [`EngineState`] for a run seeded with `seed`.
    pub fn start(&self, seed: u64) -> EngineState {
        EngineState {
            seed,
            tag: 0,
            next_round: 0,
            seeds_per_instance: vec![None; self.config.instances],
            global_best: None,
            round_bests: Vec::new(),
            round_eval_stats: Vec::new(),
            retries: 0,
            mix_rng: StdRng::seed_from_u64(seed ^ 0x5EED_A11C).state(),
            cache_entries: Vec::new(),
            cache_stats: CacheStats::default(),
            finished: false,
        }
    }

    /// Executes one round (evolve all instances, pool the elites, mix) on
    /// `pool` and returns whether the run has converged: one round of
    /// [`MultiGa::run_rounds`], so a state it leaves unfinished carries its
    /// full memo and can be checkpointed between any two steps, and a
    /// converged one carries none.
    ///
    /// # Panics
    ///
    /// Panics if `state.finished` is already set.
    pub fn step_pooled<E: LossEvaluator + ?Sized>(
        &self,
        state: &mut EngineState,
        evaluator: &E,
        pool: &Arc<WorkerPool>,
    ) -> bool {
        assert!(!state.finished, "stepping a finished engine run");
        self.run_rounds(state, evaluator, pool, &mut |_, _| false)
    }

    /// The final result of a converged run (or the best-so-far snapshot of a
    /// suspended one).
    ///
    /// # Panics
    ///
    /// Panics if no round has completed yet.
    pub fn result(&self, state: &EngineState) -> MultiGaResult {
        MultiGaResult {
            best: state
                .global_best
                .clone()
                .expect("at least one round completed"),
            round_bests: state.round_bests.clone(),
            rounds: state.next_round,
            round_eval_stats: state.round_eval_stats.clone(),
            unique_evaluations: state.cache_stats.misses,
            cache_hits: state.cache_stats.hits,
        }
    }

    /// One round (evolve, pool elites, mix) against a live cache. The
    /// caller owns the cache ↔ snapshot synchronization.
    fn step_core<E: LossEvaluator>(
        &self,
        state: &mut EngineState,
        cached: &CachedEvaluator<E>,
        pool: &WorkerPool,
    ) {
        let cfg = &self.config;
        let stats_before = cached.stats();
        let round = state.next_round;
        let finals = self.run_round(
            state.seed,
            round,
            &mut state.seeds_per_instance,
            cached,
            pool,
        );
        let stats_after = cached.stats();
        state.round_eval_stats.push(CacheStats {
            hits: stats_after.hits - stats_before.hits,
            misses: stats_after.misses - stats_before.misses,
        });
        // Pool the top-k of every instance.
        let mut pool: Vec<Individual> = Vec::new();
        for pop in &finals {
            pool.extend(pop.top(cfg.top_k).iter().cloned());
        }
        pool.sort_by(|a, b| a.loss.total_cmp(&b.loss));
        let round_best = pool.first().expect("pool non-empty").clone();
        let improved = match &state.global_best {
            Some(b) => round_best.loss < b.loss - 1e-12,
            None => true,
        };
        if improved {
            state.global_best = Some(round_best);
            state.retries = 0;
        } else {
            state.retries += 1;
        }
        state
            .round_bests
            .push(state.global_best.as_ref().expect("set above").loss);
        state.next_round += 1;
        let finished = state.retries > cfg.max_retry_rounds || state.next_round >= cfg.max_rounds;
        if !finished {
            // Mix: every instance restarts from a random sample of the pool
            // plus fresh random guesses (Figure 4's shuffle step).
            let mut mix_rng = StdRng::from_state(state.mix_rng);
            let pool_share = ((cfg.ga.population_size as f64) * cfg.pool_fraction).round() as usize;
            for inst_seeds in state.seeds_per_instance.iter_mut() {
                let mut picks: Vec<Vec<u8>> = (0..pool_share.min(pool.len()))
                    .map(|_| pool[mix_rng.gen_range(0..pool.len())].genes.clone())
                    .collect();
                // Always propagate the global best so rounds never regress.
                if let Some(b) = &state.global_best {
                    picks.push(b.genes.clone());
                }
                *inst_seeds = Some(picks);
            }
            state.mix_rng = mix_rng.state();
        }
        state.finished = finished;
    }

    /// Runs all instances of one round as tasks on `pool`.
    fn run_round<E: LossEvaluator + ?Sized>(
        &self,
        seed: u64,
        round: usize,
        seeds_per_instance: &mut [Option<Vec<Vec<u8>>>],
        evaluator: &E,
        pool: &WorkerPool,
    ) -> Vec<crate::Population> {
        let cfg = &self.config;
        let run_one = |i: usize, seeds: Option<Vec<Vec<u8>>>| {
            let inst_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((round as u64) << 32)
                .wrapping_add(i as u64);
            let mut ga = GaInstance::new(self.num_genes, self.cardinality, cfg.ga, inst_seed);
            ga.run(evaluator, seeds)
        };
        let mut out: Vec<Option<crate::Population>> =
            seeds_per_instance.iter().map(|_| None).collect();
        pool.scope(|s| {
            for (i, (slot, inst_seeds)) in out
                .iter_mut()
                .zip(seeds_per_instance.iter_mut())
                .enumerate()
            {
                let seeds = inst_seeds.take();
                let run_one = &run_one;
                s.spawn(move || *slot = Some(run_one(i, seeds)));
            }
        });
        out.into_iter()
            .map(|p| p.expect("instance task completed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapton_eval::FnEvaluator;

    fn sum_fitness() -> impl LossEvaluator {
        FnEvaluator::new(|g: &[u8]| g.iter().map(|&x| x as f64).sum())
    }

    /// A 0-worker pool: every round runs inline on the test thread.
    fn inline() -> Arc<WorkerPool> {
        Arc::new(WorkerPool::with_workers(0))
    }

    #[test]
    fn converges_on_simple_problem() {
        let result =
            MultiGa::new(15, 4, MultiGaConfig::quick()).run_pooled(7, &sum_fitness(), &inline());
        assert_eq!(result.best.loss, 0.0);
        assert!(result.rounds >= 2, "needs at least the retry rounds");
    }

    #[test]
    fn round_bests_are_monotone() {
        let result =
            MultiGa::new(30, 4, MultiGaConfig::quick()).run_pooled(11, &sum_fitness(), &inline());
        for w in result.round_bests.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let engine = MultiGa::new(12, 4, MultiGaConfig::quick());
        let pool = Arc::new(WorkerPool::with_workers(2));
        let a = engine.run_pooled(99, &sum_fitness(), &pool);
        let b = engine.run_pooled(99, &sum_fitness(), &pool);
        assert_eq!(a.best, b.best);
        assert_eq!(a.round_bests, b.round_bests);
    }

    #[test]
    fn parallel_matches_serial() {
        // `parallel` is ignored: flipping it leaves the run unchanged.
        let pool = Arc::new(WorkerPool::with_workers(2));
        let mut cfg = MultiGaConfig::quick();
        let serial = MultiGa::new(12, 4, cfg).run_pooled(5, &sum_fitness(), &pool);
        cfg.parallel = true;
        let parallel = MultiGa::new(12, 4, cfg).run_pooled(5, &sum_fitness(), &pool);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn pooled_matches_serial_bit_for_bit() {
        let cfg = MultiGaConfig::quick();
        let engine = MultiGa::new(12, 4, cfg);
        let serial = engine.run_pooled(5, &sum_fitness(), &inline());
        for workers in [1, 2, 4] {
            let pool = Arc::new(WorkerPool::with_workers(workers));
            let pooled = engine.run_pooled(5, &sum_fitness(), &pool);
            assert_eq!(serial, pooled, "workers {workers}");
        }
    }

    #[test]
    fn respects_max_rounds() {
        let mut cfg = MultiGaConfig::quick();
        cfg.max_rounds = 1;
        let result = MultiGa::new(10, 4, cfg).run_pooled(3, &sum_fitness(), &inline());
        assert_eq!(result.rounds, 1);
    }

    #[test]
    fn cache_diagnostics_are_consistent() {
        let result =
            MultiGa::new(12, 4, MultiGaConfig::quick()).run_pooled(21, &sum_fitness(), &inline());
        assert_eq!(result.round_eval_stats.len(), result.rounds);
        let hits: u64 = result.round_eval_stats.iter().map(|s| s.hits).sum();
        let misses: u64 = result.round_eval_stats.iter().map(|s| s.misses).sum();
        assert_eq!(hits, result.cache_hits);
        assert_eq!(misses, result.unique_evaluations);
        // The engine must have evaluated at least one full first-round
        // population per instance, and mixing must have produced re-submits.
        let cfg = MultiGaConfig::quick();
        assert!(result.unique_evaluations >= (cfg.ga.population_size * cfg.instances) as u64);
        assert!(result.cache_hits > 0, "mix rounds re-submit known genomes");
        assert!(result.cache_hit_rate() > 0.0 && result.cache_hit_rate() < 1.0);
    }

    #[test]
    fn harder_multimodal_problem() {
        // Deceptive fitness: genome must spell an alternating pattern.
        let fitness = FnEvaluator::new(|g: &[u8]| {
            g.iter()
                .enumerate()
                .map(|(i, &x)| if x == ((i % 2) as u8 + 1) { 0.0 } else { 1.0 })
                .sum::<f64>()
        });
        let mut cfg = MultiGaConfig::quick();
        cfg.ga.generations = 40;
        cfg.max_rounds = 12;
        let result = MultiGa::new(20, 4, cfg).run_pooled(13, &fitness, &inline());
        assert_eq!(result.best.loss, 0.0, "engine should solve 20-gene pattern");
    }

    #[test]
    fn stepping_matches_monolithic_run() {
        let engine = MultiGa::new(14, 4, MultiGaConfig::quick());
        let fitness = sum_fitness();
        let pool = inline();
        let reference = engine.run_pooled(31, &fitness, &pool);
        let mut state = engine.start(31);
        let mut steps = 0;
        while !engine.step_pooled(&mut state, &fitness, &pool) {
            steps += 1;
            assert_eq!(state.rounds(), steps);
        }
        assert_eq!(engine.result(&state), reference);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let engine = MultiGa::new(14, 4, MultiGaConfig::quick());
        let fitness = sum_fitness();
        let pool = inline();
        let reference = engine.run_pooled(77, &fitness, &pool);
        // What a checkpointing observer of the round loop sees: a memo-less
        // state and that round's memo delta.
        let mut observed: Vec<(EngineState, Vec<MemoEntry>)> = Vec::new();
        let mut full = engine.start(77);
        let finished = engine.run_rounds(&mut full, &fitness, &pool, &mut |state, delta| {
            assert!(
                state.cache_entries.is_empty(),
                "memo stays out of the state"
            );
            observed.push((state.clone(), delta.to_vec()));
            true
        });
        assert!(finished);
        assert_eq!(engine.result(&full), reference);
        assert_eq!(observed.len(), reference.rounds);
        for (state, delta) in &observed {
            let misses: u64 = state.round_eval_stats.iter().map(|s| s.misses).sum();
            assert_eq!(state.cache_stats.misses, misses, "stats current");
            let round = state.rounds() - 1;
            assert_eq!(delta.len() as u64, state.round_eval_stats[round].misses);
            assert!(delta.windows(2).all(|w| w[0].0 < w[1].0), "sorted by key");
        }
        assert!(
            full.cache_entries.is_empty(),
            "a converged run keeps no memo"
        );

        // Interrupt after every possible round k and resume from a JSON
        // round-trip of (a) the stepped state, memo inline, and (b) the
        // observed state with its memo rebuilt from the deltas.
        for k in 1..reference.rounds {
            let mut state = engine.start(77);
            for _ in 0..k {
                assert!(
                    !engine.step_pooled(&mut state, &fitness, &pool),
                    "k within run"
                );
            }
            let json = serde_json::to_string(&state).expect("state serializes");
            let mut resumed: EngineState = serde_json::from_str(&json).expect("state parses");
            assert_eq!(resumed, state);
            while !engine.step_pooled(&mut resumed, &fitness, &pool) {}
            assert_eq!(engine.result(&resumed), reference, "interrupted at {k}");

            let json = serde_json::to_string(&observed[k - 1].0).expect("state serializes");
            let mut rebuilt: EngineState = serde_json::from_str(&json).expect("state parses");
            rebuilt.cache_entries = observed[..k].iter().flat_map(|(_, d)| d.clone()).collect();
            rebuilt.cache_entries.sort_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(rebuilt, state, "deltas rebuild the stepped state");
            assert!(engine.run_rounds(&mut rebuilt, &fitness, &pool, &mut |_, _| true));
            assert_eq!(engine.result(&rebuilt), reference, "rebuilt at {k}");
        }
    }

    #[test]
    fn finished_state_rejects_further_steps() {
        let engine = MultiGa::new(8, 4, MultiGaConfig::quick());
        let fitness = sum_fitness();
        let pool = inline();
        let mut state = engine.start(3);
        while !engine.step_pooled(&mut state, &fitness, &pool) {}
        assert!(state.finished);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.step_pooled(&mut state, &fitness, &pool)
        }));
        assert!(result.is_err());
    }
}
