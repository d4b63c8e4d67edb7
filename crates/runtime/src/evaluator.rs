//! Pool-backed population evaluation.

use crate::WorkerPool;
use clapton_eval::LossEvaluator;
use std::sync::Arc;

/// Minimum genomes per chunk task.
///
/// Each chunk is one `evaluate_population` call into the wrapped evaluator,
/// so any per-batch setup the wrapped evaluator has not hoisted to
/// construction time is paid per chunk, and every chunk pays fixed
/// spawn/steal bookkeeping. Smaller chunks lose more to that than they gain
/// in stealing granularity for realistic populations.
const MIN_CHUNK: usize = 8;

/// Population-parallel batch evaluation on a shared persistent
/// [`WorkerPool`] — the one batch executor of the GA engine.
///
/// Batches become chunk tasks on workers that already exist and are shared
/// with every other batch, GA round, and service job in the process.
/// Chunks are sized so idle workers can steal meaningful work while each
/// chunk is still wide enough to amortize the wrapped evaluator's per-batch
/// setup (e.g. `TransformLoss`'s fused-path scratch: its prepared `θ = 0`
/// circuit and `H`'s planes are built once per objective, and each chunk
/// then transforms and scores copies of the planes, 64 terms per circuit
/// walk).
///
/// Results are written into per-chunk output slots, so the batch is
/// bit-identical to sequential evaluation no matter which worker executes
/// which chunk — losses are pure functions of the genome.
///
/// A batch opens no span: a job's trace records its phases (rounds,
/// checkpoints), not its population batches.
#[derive(Debug, Clone)]
pub struct PooledEvaluator<E> {
    inner: E,
    pool: Arc<WorkerPool>,
    /// Effective parallelism: pool workers plus the calling thread (which
    /// drains its own scope), capped at the machine's cores. Threads beyond
    /// the hardware are pure scheduling overhead, so on a saturated (or
    /// single-core) machine batches run inline and keep the wrapped
    /// evaluator's whole-batch fast path. Resolved once at construction —
    /// `available_parallelism` re-reads cgroup state on every call (~10 µs
    /// in a container), which is real money on a per-round hot path.
    effective: usize,
}

impl<E: LossEvaluator> PooledEvaluator<E> {
    /// Wraps `inner`, dispatching batches onto `pool`.
    pub fn new(inner: E, pool: Arc<WorkerPool>) -> PooledEvaluator<E> {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let effective = (pool.workers() + 1).min(cores);
        PooledEvaluator {
            inner,
            pool,
            effective,
        }
    }

    /// The wrapped evaluator.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: LossEvaluator> LossEvaluator for PooledEvaluator<E> {
    fn evaluate(&self, genome: &[u8]) -> f64 {
        self.inner.evaluate(genome)
    }

    fn evaluate_population(&self, genomes: &[Vec<u8>]) -> Vec<f64> {
        if genomes.is_empty() {
            return Vec::new();
        }
        if self.effective == 1 {
            return self.inner.evaluate_population(genomes);
        }
        // A few chunks per thread lets stealing balance uneven losses, but
        // every chunk re-enters the wrapped evaluator's batch entry point
        // and pays the spawn/steal bookkeeping — two per thread was the
        // measured sweet spot on population_batch_96 against one chunk per
        // thread.
        let chunks = genomes
            .len()
            .div_ceil(MIN_CHUNK)
            .clamp(1, self.effective * 2);
        if chunks == 1 {
            return self.inner.evaluate_population(genomes);
        }
        let chunk_len = genomes.len().div_ceil(chunks);
        let mut out = vec![0.0f64; genomes.len()];
        let inner = &self.inner;
        self.pool.scope(|s| {
            for (chunk, slots) in genomes.chunks(chunk_len).zip(out.chunks_mut(chunk_len)) {
                s.spawn(move || slots.copy_from_slice(&inner.evaluate_population(chunk)));
            }
        });
        out
    }

    fn canonical_key(&self, genome: &[u8]) -> Vec<u8> {
        self.inner.canonical_key(genome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapton_eval::FnEvaluator;

    fn toy() -> impl LossEvaluator {
        FnEvaluator::new(|g: &[u8]| {
            g.iter()
                .enumerate()
                .map(|(i, &x)| (x as f64) * ((i + 1) as f64).sqrt())
                .sum()
        })
    }

    fn population(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| (0..9).map(|j| ((i * 5 + j) % 4) as u8).collect())
            .collect()
    }

    #[test]
    fn pooled_batch_is_bit_identical_to_sequential() {
        let base = toy();
        let pop = population(97);
        let sequential: Vec<f64> = pop.iter().map(|g| base.evaluate(g)).collect();
        for workers in [0, 1, 4] {
            let pool = Arc::new(WorkerPool::with_workers(workers));
            let pooled = PooledEvaluator::new(toy(), pool);
            assert_eq!(
                pooled.evaluate_population(&pop),
                sequential,
                "workers {workers}"
            );
        }
    }

    #[test]
    fn handles_empty_and_tiny_batches() {
        let pool = Arc::new(WorkerPool::with_workers(2));
        let pooled = PooledEvaluator::new(toy(), pool);
        assert_eq!(pooled.evaluate_population(&[]), Vec::<f64>::new());
        let one = population(1);
        assert_eq!(
            pooled.evaluate_population(&one),
            vec![pooled.evaluate(&one[0])]
        );
    }

    #[test]
    fn one_pool_serves_many_evaluators() {
        let pool = Arc::new(WorkerPool::with_workers(2));
        let a = PooledEvaluator::new(toy(), Arc::clone(&pool));
        let b = PooledEvaluator::new(toy(), pool);
        let pop = population(40);
        let expected: Vec<f64> = pop.iter().map(|g| a.inner().evaluate(g)).collect();
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(a.evaluate_population(&pop), expected));
            s.spawn(|| assert_eq!(b.evaluate_population(&pop), expected));
        });
    }
}
