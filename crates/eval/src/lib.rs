//! The batched loss-evaluation API.
//!
//! Clapton's runtime is dominated by loss evaluation: every GA individual
//! triggers a full Hamiltonian conjugation plus a noisy-expectation sweep.
//! This crate defines the execution model for that hot path:
//!
//! * [`LossEvaluator`] — the pluggable evaluation interface. Implementors
//!   provide genome-at-a-time [`LossEvaluator::evaluate`]; the provided
//!   [`LossEvaluator::evaluate_population`] gives callers a population-batch
//!   entry point that implementations (or wrappers) can accelerate.
//! * [`CachedEvaluator`] — a genome → loss memo table with hit/miss
//!   statistics. Duplicate genomes recur heavily across the engine's
//!   mix-and-restart rounds, so this turns a large fraction of evaluations
//!   into hash lookups.
//! * [`FnEvaluator`] — adapts a plain closure for tests and toy problems.
//!
//! Population-parallel execution lives one layer up, in
//! `clapton_runtime::PooledEvaluator`, which fans a batch out over the
//! shared worker pool. The combinators nest:
//! `CachedEvaluator<PooledEvaluator<&E>>` is the engine's stack (cache
//! lookup first, misses evaluated as one pooled batch).

use clapton_telemetry::metrics::{registry, Counter};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Process-wide genome-cache counters (every `CachedEvaluator` instance
/// aggregates into the same series).
struct CacheMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    inserts: Arc<Counter>,
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CacheMetrics {
        hits: registry().counter(
            "clapton_eval_cache_hits_total",
            "Genome-cache lookups answered from the memo table",
        ),
        misses: registry().counter(
            "clapton_eval_cache_misses_total",
            "Genome-cache lookups that required a fresh loss evaluation",
        ),
        inserts: registry().counter(
            "clapton_eval_cache_inserts_total",
            "Distinct genomes inserted into the memo table",
        ),
    })
}

/// A loss function over integer genomes, evaluated one genome or one
/// population at a time.
///
/// `Sync` is a supertrait: evaluators are shared across GA instance threads
/// and population-batch workers. Implementations must be pure — the loss of
/// a genome may be computed once, on any thread, and reused.
pub trait LossEvaluator: Sync {
    /// The loss of one genome (lower is better).
    fn evaluate(&self, genome: &[u8]) -> f64;

    /// The losses of a whole population, in order.
    ///
    /// The default implementation evaluates sequentially; wrappers such as
    /// [`CachedEvaluator`] override the execution strategy while preserving
    /// results bit-for-bit.
    fn evaluate_population(&self, genomes: &[Vec<u8>]) -> Vec<f64> {
        genomes.iter().map(|g| self.evaluate(g)).collect()
    }

    /// A canonical cache key for a genome: two genomes with the same key are
    /// guaranteed to have the same loss.
    ///
    /// The default is the genome itself. Evaluators that ignore some genes
    /// (e.g. frozen/masked ranges) override this so memo tables deduplicate
    /// across equivalent genomes instead of recomputing each variant.
    fn canonical_key(&self, genome: &[u8]) -> Vec<u8> {
        genome.to_vec()
    }
}

/// A persistent genome → loss tier behind the in-memory memo: disk caches,
/// shared stores, anything that can answer a canonical key with a
/// previously computed loss.
///
/// Lookups are namespaced: `ns` fingerprints everything that shapes the
/// loss besides the genome (Hamiltonian, noise model, evaluator kind),
/// so one store safely serves many problems. Implementations must be
/// **pure and lossless**: a `load` hit must return the exact bits a prior
/// `save` stored — the caller counts a disk hit as a fresh evaluation, so
/// any drift would silently corrupt deterministic resume.
///
/// `save` is fire-and-forget: persistence failures must be swallowed (the
/// loss is already known; losing the write costs a future recompute, never
/// correctness).
pub trait LossStore: Send + Sync + std::fmt::Debug {
    /// The stored loss for `key` in namespace `ns`, if any.
    fn load(&self, ns: u64, key: &[u8]) -> Option<f64>;

    /// Records `loss` for `key` in namespace `ns` (best-effort).
    fn save(&self, ns: u64, key: &[u8], loss: f64);
}

impl<E: LossEvaluator + ?Sized> LossEvaluator for &E {
    fn evaluate(&self, genome: &[u8]) -> f64 {
        (**self).evaluate(genome)
    }

    fn evaluate_population(&self, genomes: &[Vec<u8>]) -> Vec<f64> {
        (**self).evaluate_population(genomes)
    }

    fn canonical_key(&self, genome: &[u8]) -> Vec<u8> {
        (**self).canonical_key(genome)
    }
}

/// Adapts a closure to [`LossEvaluator`].
///
/// # Example
///
/// ```
/// use clapton_eval::{FnEvaluator, LossEvaluator};
///
/// let ones = FnEvaluator::new(|g: &[u8]| g.iter().filter(|&&x| x != 0).count() as f64);
/// assert_eq!(ones.evaluate(&[1, 0, 2]), 2.0);
/// assert_eq!(ones.evaluate_population(&[vec![0, 0], vec![3, 3]]), vec![0.0, 2.0]);
/// ```
#[derive(Debug, Clone)]
pub struct FnEvaluator<F: Fn(&[u8]) -> f64 + Sync> {
    f: F,
}

impl<F: Fn(&[u8]) -> f64 + Sync> FnEvaluator<F> {
    /// Wraps a closure.
    pub fn new(f: F) -> FnEvaluator<F> {
        FnEvaluator { f }
    }
}

impl<F: Fn(&[u8]) -> f64 + Sync> LossEvaluator for FnEvaluator<F> {
    fn evaluate(&self, genome: &[u8]) -> f64 {
        (self.f)(genome)
    }
}

/// One genome → loss memo entry: a canonical key and its loss.
pub type MemoEntry = (Vec<u8>, f64);

/// Cache statistics of a [`CachedEvaluator`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Evaluations answered from the memo table (including in-batch
    /// duplicates and concurrent racing duplicates).
    pub hits: u64,
    /// Evaluations that inserted a new memo entry — i.e. distinct canonical
    /// keys actually computed.
    pub misses: u64,
}

impl CacheStats {
    /// Total evaluations requested.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction in `[0, 1]` (`0` when nothing was requested).
    pub fn hit_rate(&self) -> f64 {
        if self.requests() == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests() as f64
        }
    }
}

/// A genome → loss memo table in front of another evaluator.
///
/// Batch evaluation answers hits from the table, deduplicates the remaining
/// genomes, and forwards one batch of unique misses to the wrapped
/// evaluator — so a population with heavy duplication (the norm across
/// mix-and-restart rounds) costs only its unique genomes.
///
/// Entries are keyed by [`LossEvaluator::canonical_key`], so evaluators that
/// ignore some genes (frozen ranges) deduplicate across equivalent genomes.
///
/// Thread-safe: the table is shared behind a mutex, statistics are atomic.
/// Because losses are pure, a cache hit is always bit-identical to
/// re-evaluation, regardless of which thread populated the entry. A miss is
/// counted only when the computed loss inserts a **new** table entry, so
/// `stats().misses` equals the number of distinct keys memoized — stable and
/// deterministic even when concurrent threads race to evaluate the same
/// genome (the racing duplicates count as hits).
///
/// Every new entry is also recorded, under the same lock, as *fresh* until
/// [`CachedEvaluator::take_fresh`] hands it out — the per-round memo delta
/// checkpoints persist instead of the whole table.
#[derive(Debug)]
pub struct CachedEvaluator<E> {
    inner: E,
    table: Mutex<Memo>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Optional persistent tier behind the memo, with the namespace this
    /// evaluator's lookups live in: memo miss → disk lookup → compute.
    /// A disk hit is recorded exactly like a fresh computation (it inserts
    /// a new memo entry and counts as a miss), so [`CacheStats`] — and
    /// everything serialized from it — is bit-identical whether a loss came
    /// from disk or from the evaluator.
    store: Option<(Arc<dyn LossStore>, u64)>,
}

/// The memo table plus the entries inserted since the last
/// [`CachedEvaluator::take_fresh`].
#[derive(Debug, Default)]
struct Memo {
    losses: HashMap<Vec<u8>, f64>,
    fresh: Vec<MemoEntry>,
}

impl<E: LossEvaluator> CachedEvaluator<E> {
    /// Wraps `inner` with an empty table.
    pub fn new(inner: E) -> CachedEvaluator<E> {
        CachedEvaluator {
            inner,
            table: Mutex::new(Memo::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            store: None,
        }
    }

    /// Attaches a persistent tier behind the memo: lookups that miss the
    /// in-memory table consult `store` (under namespace `ns`) before the
    /// wrapped evaluator runs, and freshly computed losses are written back.
    pub fn with_store(mut self, store: Arc<dyn LossStore>, ns: u64) -> CachedEvaluator<E> {
        self.store = Some((store, ns));
        self
    }

    /// Rebuilds a cache from a [`CachedEvaluator::export`] snapshot,
    /// restoring memoized losses and statistics bit-identically — the
    /// checkpoint/resume path of the GA engine. Snapshot entries are not
    /// fresh.
    pub fn from_snapshot(
        inner: E,
        entries: Vec<(Vec<u8>, f64)>,
        stats: CacheStats,
    ) -> CachedEvaluator<E> {
        CachedEvaluator {
            inner,
            table: Mutex::new(Memo {
                losses: entries.into_iter().collect(),
                fresh: Vec::new(),
            }),
            hits: AtomicU64::new(stats.hits),
            misses: AtomicU64::new(stats.misses),
            store: None,
        }
    }

    /// The wrapped evaluator.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct genomes memoized.
    pub fn entries(&self) -> usize {
        self.table.lock().expect("cache lock").losses.len()
    }

    /// The memo table as `(canonical key, loss)` pairs, sorted by key so the
    /// snapshot is deterministic (hash-map iteration order is not).
    pub fn export(&self) -> Vec<(Vec<u8>, f64)> {
        let table = self.table.lock().expect("cache lock");
        let mut entries: Vec<(Vec<u8>, f64)> =
            table.losses.iter().map(|(k, &v)| (k.clone(), v)).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// The entries inserted since the last call (or since construction),
    /// sorted by key: exactly one per miss counted in between, so disk hits
    /// are included and racing duplicates are not.
    pub fn take_fresh(&self) -> Vec<MemoEntry> {
        let mut fresh = std::mem::take(&mut self.table.lock().expect("cache lock").fresh);
        fresh.sort_by(|a, b| a.0.cmp(&b.0));
        fresh
    }
}

impl<E: LossEvaluator> CachedEvaluator<E> {
    /// Records `loss` for `key`, crediting a miss only for a fresh entry
    /// (concurrent duplicates reconcile to hits — see the type docs).
    fn record(&self, table: &mut Memo, key: Vec<u8>, loss: f64) {
        if let Entry::Vacant(slot) = table.losses.entry(key) {
            table.fresh.push((slot.key().clone(), loss));
            slot.insert(loss);
            self.misses.fetch_add(1, Ordering::Relaxed);
            let metrics = cache_metrics();
            metrics.misses.inc();
            metrics.inserts.inc();
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            cache_metrics().hits.inc();
        }
    }
}

impl<E: LossEvaluator> LossEvaluator for CachedEvaluator<E> {
    /// A batch of one: the batch path is the one memo path.
    fn evaluate(&self, genome: &[u8]) -> f64 {
        self.evaluate_population(&[genome.to_vec()])[0]
    }

    fn evaluate_population(&self, genomes: &[Vec<u8>]) -> Vec<f64> {
        let mut out = vec![0.0f64; genomes.len()];
        // One representative genome per distinct pending key; duplicates
        // within the batch are evaluated once.
        let mut pending: Vec<(Vec<u8>, Vec<u8>)> = Vec::new(); // (key, genome)
        let mut pending_slots: HashMap<Vec<u8>, Vec<usize>> = HashMap::new();
        {
            let table = self.table.lock().expect("cache lock");
            for (i, genome) in genomes.iter().enumerate() {
                let key = self.inner.canonical_key(genome);
                if let Some(&loss) = table.losses.get(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    cache_metrics().hits.inc();
                    out[i] = loss;
                } else {
                    let slots = pending_slots.entry(key.clone()).or_default();
                    if slots.is_empty() {
                        pending.push((key, genome.clone()));
                    } else {
                        // In-batch duplicate of a pending key.
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        cache_metrics().hits.inc();
                    }
                    slots.push(i);
                }
            }
        }
        if pending.is_empty() {
            return out;
        }
        // Second tier: the persistent store. Disk hits are recorded like
        // computed losses (fresh memo inserts), so [`CacheStats`] and every
        // downstream round-stats artifact stay bit-identical cold vs warm.
        let mut disk_hits: Vec<(Vec<u8>, f64)> = Vec::new();
        if let Some((store, ns)) = &self.store {
            pending.retain(|(key, _)| match store.load(*ns, key) {
                Some(loss) => {
                    disk_hits.push((key.clone(), loss));
                    false
                }
                None => true,
            });
        }
        let representatives: Vec<Vec<u8>> = pending.iter().map(|(_, g)| g.clone()).collect();
        let losses = if representatives.is_empty() {
            Vec::new()
        } else {
            self.inner.evaluate_population(&representatives)
        };
        if let Some((store, ns)) = &self.store {
            for ((key, _), loss) in pending.iter().zip(&losses) {
                store.save(*ns, key, *loss);
            }
        }
        let mut table = self.table.lock().expect("cache lock");
        for (key, loss) in disk_hits {
            for &slot in &pending_slots[&key] {
                out[slot] = loss;
            }
            self.record(&mut table, key, loss);
        }
        for ((key, _), loss) in pending.into_iter().zip(&losses) {
            for &slot in &pending_slots[&key] {
                out[slot] = *loss;
            }
            self.record(&mut table, key, *loss);
        }
        out
    }

    fn canonical_key(&self, genome: &[u8]) -> Vec<u8> {
        self.inner.canonical_key(genome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A deterministic toy loss that counts its own invocations.
    struct CountingLoss {
        calls: AtomicUsize,
    }

    impl CountingLoss {
        fn new() -> CountingLoss {
            CountingLoss {
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl LossEvaluator for CountingLoss {
        fn evaluate(&self, genome: &[u8]) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            genome
                .iter()
                .enumerate()
                .map(|(i, &g)| (g as f64) * (i as f64 + 1.0).sqrt())
                .sum()
        }
    }

    fn population(n: usize, genes: usize) -> Vec<Vec<u8>> {
        assert!(
            n <= 256,
            "first gene tags the member to keep genomes distinct"
        );
        (0..n)
            .map(|i| {
                (0..genes)
                    .map(|j| {
                        if j == 0 {
                            i as u8
                        } else {
                            ((i * 7 + j * 3) % 4) as u8
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn default_population_matches_sequential() {
        let eval = CountingLoss::new();
        let pop = population(17, 9);
        let batched = eval.evaluate_population(&pop);
        let sequential: Vec<f64> = pop.iter().map(|g| eval.evaluate(g)).collect();
        assert_eq!(batched, sequential);
    }

    #[test]
    fn cache_deduplicates_within_and_across_batches() {
        let cached = CachedEvaluator::new(CountingLoss::new());
        let mut pop = population(10, 6);
        pop.extend(pop.clone()); // every genome duplicated in-batch
        let first = cached.evaluate_population(&pop);
        assert_eq!(cached.inner().calls.load(Ordering::Relaxed), 10);
        assert_eq!(cached.stats().misses, 10);
        assert_eq!(cached.stats().hits, 10);
        // Second batch: all hits.
        let second = cached.evaluate_population(&pop);
        assert_eq!(first, second);
        assert_eq!(cached.inner().calls.load(Ordering::Relaxed), 10);
        assert_eq!(cached.stats().hits, 30);
        assert_eq!(cached.entries(), 10);
    }

    #[test]
    fn cache_is_transparent() {
        let pop = population(23, 7);
        let plain = CountingLoss::new().evaluate_population(&pop);
        let cached = CachedEvaluator::new(CountingLoss::new());
        assert_eq!(cached.evaluate_population(&pop), plain);
        // Single-genome path too.
        assert_eq!(cached.evaluate(&pop[0]), plain[0]);
    }

    #[test]
    fn fn_evaluator_adapts_closures() {
        let sum = FnEvaluator::new(|g: &[u8]| g.iter().map(|&x| x as f64).sum());
        assert_eq!(sum.evaluate(&[1, 2, 3]), 6.0);
        let stats_free: &dyn LossEvaluator = &sum;
        assert_eq!(stats_free.evaluate_population(&[vec![4]]), vec![4.0]);
    }

    #[test]
    fn snapshot_restores_losses_and_stats() {
        let cached = CachedEvaluator::new(CountingLoss::new());
        let pop = population(9, 5);
        let losses = cached.evaluate_population(&pop);
        let (entries, stats) = (cached.export(), cached.stats());
        assert_eq!(entries.len(), 9);
        // Exported entries are key-sorted → deterministic snapshots.
        for w in entries.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        let restored = CachedEvaluator::from_snapshot(CountingLoss::new(), entries, stats);
        assert_eq!(restored.stats(), stats);
        assert_eq!(restored.evaluate_population(&pop), losses);
        // Everything was answered from the restored table.
        assert_eq!(restored.inner().calls.load(Ordering::Relaxed), 0);
    }

    /// A store that answers one fixed key.
    #[derive(Debug)]
    struct OneKeyStore {
        key: Vec<u8>,
        loss: f64,
    }

    impl LossStore for OneKeyStore {
        fn load(&self, _ns: u64, key: &[u8]) -> Option<f64> {
            (key == self.key.as_slice()).then_some(self.loss)
        }

        fn save(&self, _ns: u64, _key: &[u8], _loss: f64) {}
    }

    #[test]
    fn fresh_entries_are_each_new_insert_exactly_once() {
        let pop = population(6, 4);
        let snapshot = CachedEvaluator::new(CountingLoss::new());
        snapshot.evaluate_population(&pop[..2]);
        // Snapshot entries are not fresh; a disk hit is, once.
        let disk = Arc::new(OneKeyStore {
            key: pop[2].clone(),
            loss: -1.0,
        });
        let cached = CachedEvaluator::from_snapshot(
            CountingLoss::new(),
            snapshot.export(),
            snapshot.stats(),
        )
        .with_store(disk, 0);
        assert!(cached.take_fresh().is_empty());
        let mut batch = pop.clone();
        batch.extend(pop.clone()); // in-batch duplicates
        cached.evaluate_population(&batch);
        cached.evaluate(&pop[5]); // a hit
        let fresh = cached.take_fresh();
        let mut expected: Vec<(Vec<u8>, f64)> = pop[2..]
            .iter()
            .map(|g| {
                let loss = if *g == pop[2] {
                    -1.0
                } else {
                    CountingLoss::new().evaluate(g)
                };
                (g.clone(), loss)
            })
            .collect();
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(fresh, expected);
        assert_eq!(
            fresh.len() as u64,
            cached.stats().misses - snapshot.stats().misses
        );
        // Asking again hands out nothing new.
        assert!(cached.take_fresh().is_empty());

        // Racing duplicates: threads evaluating the same genomes at once
        // record each key once.
        let racing = CachedEvaluator::new(CountingLoss::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for g in &pop {
                        racing.evaluate(g);
                    }
                });
            }
        });
        let fresh = racing.take_fresh();
        assert_eq!(fresh.len(), pop.len());
        assert_eq!(fresh, racing.export());
    }

    #[test]
    fn cache_stats_round_trip_json() {
        let stats = CacheStats {
            hits: 12,
            misses: 5,
        };
        let json = serde_json::to_string(&stats).unwrap();
        assert_eq!(serde_json::from_str::<CacheStats>(&json).unwrap(), stats);
    }

    #[test]
    fn hit_rate_reports_fraction() {
        let cached = CachedEvaluator::new(CountingLoss::new());
        let g = vec![1u8, 2, 3];
        cached.evaluate(&g);
        cached.evaluate(&g);
        cached.evaluate(&g);
        let stats = cached.stats();
        assert_eq!(stats.requests(), 3);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
