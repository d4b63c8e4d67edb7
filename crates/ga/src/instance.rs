//! A single genetic-algorithm instance on integer genomes.

use clapton_eval::LossEvaluator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of one GA instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Population size `|S|`.
    pub population_size: usize,
    /// Generations per round (`m` in the paper).
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament_size: usize,
    /// Probability of crossing two parents (otherwise the fitter parent is
    /// cloned).
    pub crossover_rate: f64,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Number of elite individuals copied unchanged each generation.
    pub elite: usize,
}

impl Default for GaConfig {
    /// The paper's setting: `|S| = 100`, `m = 100`, with standard
    /// tournament/crossover/mutation rates.
    fn default() -> GaConfig {
        GaConfig {
            population_size: 100,
            generations: 100,
            tournament_size: 3,
            crossover_rate: 0.9,
            mutation_rate: 0.08,
            elite: 2,
        }
    }
}

/// One evaluated genome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Individual {
    /// The loss value (lower is better).
    pub loss: f64,
    /// The genome.
    pub genes: Vec<u8>,
}

/// An evaluated population, kept sorted by ascending loss.
#[derive(Debug, Clone, Default)]
pub struct Population {
    members: Vec<Individual>,
}

impl Population {
    /// Builds a population from evaluated individuals (sorts them).
    pub fn from_members(mut members: Vec<Individual>) -> Population {
        members.sort_by(|a, b| a.loss.total_cmp(&b.loss));
        Population { members }
    }

    /// Builds a population by batch-evaluating genomes.
    pub fn evaluate<E: LossEvaluator + ?Sized>(genomes: Vec<Vec<u8>>, evaluator: &E) -> Population {
        let losses = evaluator.evaluate_population(&genomes);
        Population::from_members(
            genomes
                .into_iter()
                .zip(losses)
                .map(|(genes, loss)| Individual { loss, genes })
                .collect(),
        )
    }

    /// The members in ascending-loss order.
    pub fn members(&self) -> &[Individual] {
        &self.members
    }

    /// The best individual.
    ///
    /// # Panics
    ///
    /// Panics if the population is empty.
    pub fn best(&self) -> &Individual {
        self.members.first().expect("population is empty")
    }

    /// The `k` best individuals (fewer if the population is smaller).
    pub fn top(&self, k: usize) -> &[Individual] {
        &self.members[..k.min(self.members.len())]
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// A single GA instance (one of the `GA_i` boxes of Figure 4).
///
/// Fitness is requested through the [`LossEvaluator`] trait in population
/// batches: each generation first breeds the full offspring set, then issues
/// one `evaluate_population` call — so a pooled or cached evaluator sees
/// the widest possible batch. Because selection only consults the *previous*
/// generation, batching is bit-identical to genome-at-a-time evaluation.
///
/// # Example
///
/// ```
/// use clapton_eval::FnEvaluator;
/// use clapton_ga::{GaConfig, GaInstance};
///
/// // Minimize the number of non-zero genes.
/// let fitness = FnEvaluator::new(|g: &[u8]| g.iter().filter(|&&x| x != 0).count() as f64);
/// let config = GaConfig { generations: 60, ..GaConfig::default() };
/// let mut ga = GaInstance::new(12, 4, config, 7);
/// let pop = ga.run(&fitness, None);
/// assert_eq!(pop.best().loss, 0.0);
/// ```
#[derive(Debug)]
pub struct GaInstance {
    num_genes: usize,
    cardinality: u8,
    config: GaConfig,
    rng: StdRng,
}

impl GaInstance {
    /// Creates an instance for genomes of `num_genes` genes, each in
    /// `0..cardinality`.
    ///
    /// # Panics
    ///
    /// Panics if `num_genes == 0`, `cardinality == 0` or the population is
    /// smaller than 2.
    pub fn new(num_genes: usize, cardinality: u8, config: GaConfig, seed: u64) -> GaInstance {
        assert!(num_genes > 0, "need at least one gene");
        assert!(cardinality > 0, "need at least one gene value");
        assert!(config.population_size >= 2, "population too small");
        GaInstance {
            num_genes,
            cardinality,
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Samples a random genome.
    pub fn random_genome(&mut self) -> Vec<u8> {
        let card = self.cardinality;
        (0..self.num_genes)
            .map(|_| self.rng.gen_range(0..card))
            .collect()
    }

    /// Runs `generations` of evolution, optionally seeded with starting
    /// genomes (topped up with random ones), returning the final population.
    pub fn run<E: LossEvaluator + ?Sized>(
        &mut self,
        evaluator: &E,
        seeds: Option<Vec<Vec<u8>>>,
    ) -> Population {
        let mut genomes: Vec<Vec<u8>> = seeds.unwrap_or_default();
        genomes.retain(|g| g.len() == self.num_genes);
        genomes.truncate(self.config.population_size);
        while genomes.len() < self.config.population_size {
            let g = self.random_genome();
            genomes.push(g);
        }
        let mut pop = Population::evaluate(genomes, evaluator);
        for _ in 0..self.config.generations {
            pop = self.step(pop, evaluator);
        }
        pop
    }

    /// One generation: elitism + tournament selection + crossover + mutation,
    /// with the offspring evaluated as a single population batch.
    fn step<E: LossEvaluator + ?Sized>(&mut self, pop: Population, evaluator: &E) -> Population {
        let size = self.config.population_size;
        let mut next: Vec<Individual> = pop.top(self.config.elite).to_vec();
        let mut offspring: Vec<Vec<u8>> = Vec::with_capacity(size - next.len());
        while next.len() + offspring.len() < size {
            let a = self.tournament(&pop);
            let b = self.tournament(&pop);
            let mut child = if self.rng.gen::<f64>() < self.config.crossover_rate {
                self.crossover(&pop.members()[a].genes, &pop.members()[b].genes)
            } else {
                // Clone the fitter parent (lower index = lower loss).
                pop.members()[a.min(b)].genes.clone()
            };
            self.mutate(&mut child);
            offspring.push(child);
        }
        let losses = evaluator.evaluate_population(&offspring);
        next.extend(
            offspring
                .into_iter()
                .zip(losses)
                .map(|(genes, loss)| Individual { loss, genes }),
        );
        Population::from_members(next)
    }

    /// Tournament selection: index of the best of `tournament_size` random
    /// members (population is sorted, so the smallest index wins).
    fn tournament(&mut self, pop: &Population) -> usize {
        let n = pop.len();
        (0..self.config.tournament_size.max(1))
            .map(|_| self.rng.gen_range(0..n))
            .min()
            .expect("tournament size >= 1")
    }

    /// Single-point crossover.
    fn crossover(&mut self, a: &[u8], b: &[u8]) -> Vec<u8> {
        let point = self.rng.gen_range(0..self.num_genes);
        a[..point]
            .iter()
            .chain(b[point..].iter())
            .copied()
            .collect()
    }

    /// Per-gene mutation to a uniformly random value.
    fn mutate(&mut self, genes: &mut [u8]) {
        for g in genes.iter_mut() {
            if self.rng.gen::<f64>() < self.config.mutation_rate {
                *g = self.rng.gen_range(0..self.cardinality);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapton_eval::FnEvaluator;

    fn ones_count() -> impl LossEvaluator {
        FnEvaluator::new(|g: &[u8]| g.iter().filter(|&&x| x != 0).count() as f64)
    }

    #[test]
    fn solves_all_zeros() {
        let mut ga = GaInstance::new(16, 4, GaConfig::default(), 1);
        let pop = ga.run(&ones_count(), None);
        assert_eq!(pop.best().loss, 0.0);
        assert!(pop.best().genes.iter().all(|&g| g == 0));
    }

    #[test]
    fn solves_target_matching() {
        let target: Vec<u8> = (0..20).map(|i| (i % 4) as u8).collect();
        let t = target.clone();
        let fitness = FnEvaluator::new(move |g: &[u8]| {
            g.iter().zip(&t).filter(|(a, b)| a != b).count() as f64
        });
        let mut ga = GaInstance::new(20, 4, GaConfig::default(), 2);
        let pop = ga.run(&fitness, None);
        assert_eq!(pop.best().loss, 0.0);
        assert_eq!(pop.best().genes, target);
    }

    #[test]
    fn populations_stay_sorted() {
        let mut ga = GaInstance::new(
            8,
            4,
            GaConfig {
                generations: 5,
                ..GaConfig::default()
            },
            3,
        );
        let pop = ga.run(&ones_count(), None);
        for w in pop.members().windows(2) {
            assert!(w[0].loss <= w[1].loss);
        }
        assert_eq!(pop.len(), 100);
    }

    #[test]
    fn elitism_never_regresses() {
        // Track the best loss across generations manually.
        let mut ga = GaInstance::new(
            24,
            4,
            GaConfig {
                generations: 1,
                ..GaConfig::default()
            },
            4,
        );
        let fitness = ones_count();
        let mut pop = ga.run(&fitness, None);
        let mut best = pop.best().loss;
        for _ in 0..30 {
            let seeds: Vec<Vec<u8>> = pop.members().iter().map(|m| m.genes.clone()).collect();
            pop = ga.run(&fitness, Some(seeds));
            assert!(pop.best().loss <= best + 1e-12, "best-so-far regressed");
            best = pop.best().loss;
        }
    }

    #[test]
    fn seeded_runs_are_deterministic() {
        let run = |seed| {
            let mut ga = GaInstance::new(
                10,
                4,
                GaConfig {
                    generations: 20,
                    ..GaConfig::default()
                },
                seed,
            );
            ga.run(&ones_count(), None).best().clone()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn seeds_are_respected() {
        // Seeding the optimum keeps it (elitism).
        let optimum = vec![0u8; 10];
        let mut ga = GaInstance::new(
            10,
            4,
            GaConfig {
                generations: 3,
                ..GaConfig::default()
            },
            9,
        );
        let pop = ga.run(&ones_count(), Some(vec![optimum.clone()]));
        assert_eq!(pop.best().genes, optimum);
    }

    #[test]
    fn population_batch_equals_individual_evaluation() {
        // `Population::evaluate` must agree with genome-at-a-time calls.
        let fitness = ones_count();
        let genomes: Vec<Vec<u8>> = (0..12).map(|i| vec![(i % 4) as u8; 6]).collect();
        let pop = Population::evaluate(genomes.clone(), &fitness);
        for member in pop.members() {
            assert_eq!(member.loss, fitness.evaluate(&member.genes));
        }
        assert_eq!(pop.len(), genomes.len());
    }

    #[test]
    fn top_k_clamps() {
        let pop = Population::from_members(vec![
            Individual {
                loss: 1.0,
                genes: vec![1],
            },
            Individual {
                loss: 0.0,
                genes: vec![0],
            },
        ]);
        assert_eq!(pop.top(5).len(), 2);
        assert_eq!(pop.top(1)[0].loss, 0.0);
    }

    #[test]
    #[should_panic(expected = "population too small")]
    fn rejects_tiny_population() {
        GaInstance::new(
            4,
            4,
            GaConfig {
                population_size: 1,
                ..GaConfig::default()
            },
            0,
        );
    }
}
