//! First-class loss evaluators: the objects the GA engine batches over.
//!
//! [`TransformLoss`] is Clapton's objective `L(γ) = LN(γ) + L0(γ)` packaged
//! as a [`LossEvaluator`]: it owns the problem Hamiltonian, the
//! transformation ansatz, the gene mask, and the loss (with its
//! [`EvaluatorKind`]). [`CafqaLoss`] is the θ-space analogue for the
//! CAFQA / nCAFQA baselines.
//!
//! Both are pure and `Sync`, so the engine's pooled batch path and
//! genome → loss cache apply transparently.

use crate::transform::anticonjugate_batch;
use crate::{
    transform_hamiltonian, transform_hamiltonian_into, EvaluatorKind, ExecutableAnsatz,
    LossFunction, PreparedEnergy,
};
use clapton_circuits::TransformationAnsatz;
use clapton_eval::LossEvaluator;
use clapton_noise::ExactEvaluator;
use clapton_pauli::{PauliSum, TermBatch};
use clapton_stabilizer::CliffordGate;
use std::ops::Range;

/// The Clapton search objective over transformation genomes γ.
///
/// Each evaluation conjugates the Hamiltonian through the transformation
/// ansatz at the (masked) genome and scores `LN + L0` on the executable
/// ansatz — exactly the loss of Eq. 5/9/10.
///
/// For the exact kind, `H`'s terms are loaded into [`TermBatch`] planes
/// once, when the objective is built. Each genome then copies the planes,
/// anticonjugates the copies through the transformation circuit, reads `L0`
/// off them, moves them onto the executable's register and hands them to
/// [`ExactEvaluator::add_batch_energy`] — `Ĥ` is never materialized as a
/// [`PauliSum`] during the search, and the losses are bit-identical to
/// scoring [`TransformLoss::transformed`] with [`LossFunction::total`]. The
/// sampled kind materializes `Ĥ` per genome: its seed hash and term cache
/// read `Ĥ`'s strings.
///
/// # Example
///
/// ```
/// use clapton_core::{EvaluatorKind, ExecutableAnsatz, TransformLoss};
/// use clapton_circuits::TransformationAnsatz;
/// use clapton_eval::LossEvaluator;
/// use clapton_noise::NoiseModel;
/// use clapton_pauli::PauliSum;
///
/// let h = PauliSum::from_terms(2, vec![(1.0, "ZI".parse().unwrap())]);
/// let model = NoiseModel::uniform(2, 1e-3, 1e-2, 2e-2);
/// let exec = ExecutableAnsatz::untranspiled(2, &model);
/// let ansatz = TransformationAnsatz::new(2);
/// let loss = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
/// // The identity genome scores the untransformed problem.
/// let identity = vec![0u8; ansatz.num_genes()];
/// let single = loss.evaluate(&identity);
/// let batch = loss.evaluate_population(&[identity.clone(), identity]);
/// assert_eq!(batch, vec![single, single]);
/// assert_eq!(single, loss.loss().total(&h));
/// ```
#[derive(Debug, Clone)]
pub struct TransformLoss<'a> {
    h: &'a PauliSum,
    /// `h`'s terms, 64 per batch, all lanes positive (the coefficients stay
    /// in `h`): the exact kind's per-genome starting point.
    planes: Vec<TermBatch>,
    ansatz: &'a TransformationAnsatz,
    loss: LossFunction<'a>,
    /// Genes frozen to identity (the two-qubit-slot ablation of §4).
    frozen: Option<Range<usize>>,
}

impl<'a> TransformLoss<'a> {
    /// Builds the objective for `h` on `exec`, searching over `ansatz`.
    ///
    /// # Panics
    ///
    /// Panics if the Hamiltonian, executable ansatz, and transformation
    /// ansatz disagree on the register size.
    pub fn new(
        h: &'a PauliSum,
        exec: &'a ExecutableAnsatz,
        ansatz: &'a TransformationAnsatz,
        evaluator: EvaluatorKind,
    ) -> TransformLoss<'a> {
        assert_eq!(
            h.num_qubits(),
            exec.num_logical(),
            "Hamiltonian/ansatz register mismatch"
        );
        assert_eq!(
            ansatz.num_qubits(),
            exec.num_logical(),
            "transformation/executable register mismatch"
        );
        let planes = h
            .terms()
            .chunks(TermBatch::LANES)
            .map(|chunk| {
                let mut batch = TermBatch::new(h.num_qubits());
                for (lane, term) in chunk.iter().enumerate() {
                    batch.set_lane(lane, &term.pauli, false);
                }
                batch
            })
            .collect();
        TransformLoss {
            h,
            planes,
            ansatz,
            loss: LossFunction::new(exec, evaluator),
            frozen: None,
        }
    }

    /// Freezes the four-valued two-qubit slot genes of Eq. 8 to identity,
    /// leaving a rotations-only transformation ansatz (ablation knob).
    #[must_use]
    pub fn freeze_two_qubit_slots(mut self) -> TransformLoss<'a> {
        let rotations = 2 * self.ansatz.num_qubits();
        self.frozen = Some(rotations..rotations + self.ansatz.pairs().len());
        self
    }

    /// The genome after applying the ablation mask.
    pub fn masked(&self, gamma: &[u8]) -> Vec<u8> {
        let mut g = gamma.to_vec();
        if let Some(range) = &self.frozen {
            for i in range.clone() {
                g[i] = 0;
            }
        }
        g
    }

    /// The transformation circuit `C(γ)` at the masked genome.
    fn gates(&self, gamma: &[u8]) -> Vec<CliffordGate> {
        self.ansatz.gates(&self.masked(gamma))
    }

    /// The transformed Hamiltonian `Ĥ = C†(γ) H C(γ)` at a genome.
    pub fn transformed(&self, gamma: &[u8]) -> PauliSum {
        transform_hamiltonian(self.h, &self.gates(gamma))
    }

    /// [`TransformLoss::transformed`] into a caller-owned scratch sum, so a
    /// loop over genomes allocates no term strings. The loss paths do not
    /// use it for the exact kind, which scores planes without
    /// materializing `Ĥ`; the sampled kind's batch path does.
    pub fn transformed_into(&self, gamma: &[u8], out: &mut PauliSum) {
        transform_hamiltonian_into(self.h, &self.gates(gamma), out);
    }

    /// The loss `L = LN + L0` of `Ĥ = C† H C` for an explicit Clifford
    /// circuit `C` (gates in application order, any [`CliffordGate`]):
    /// what [`LossEvaluator::evaluate`] computes for the circuit of a
    /// genome.
    pub fn evaluate_gates(&self, gates: &[CliffordGate]) -> f64 {
        match self.loss.zero().exact() {
            Some(exact) => {
                self.count_fused(1);
                self.fused_loss(&exact, gates, &mut FusedScratch::new(self))
            }
            None => self.loss.total(&transform_hamiltonian(self.h, gates)),
        }
    }

    /// The underlying loss function (for `LN`/`L0` decompositions).
    pub fn loss(&self) -> &LossFunction<'a> {
        &self.loss
    }

    /// The exact kind's loss of one transformation circuit, on planes.
    ///
    /// Per chunk of 64 terms: copy `H`'s planes, anticonjugate them through
    /// `gates`, and absorb each lane's sign into its coefficient as
    /// [`PauliSum::map_terms_into`] does. `L0` sums the Z-type lanes' signed
    /// coefficients in term order from the start value of `f64`'s `Sum`
    /// (`-0.0`), as [`PauliSum::expectation_all_zeros`] does. The planes
    /// then move onto the executable's register (when the layout permutes
    /// qubits) and straight into the `LN` kernel, which adds into one
    /// running total across chunks. Every floating-point operation is the
    /// one the materialized path performs, in the same order.
    fn fused_loss(
        &self,
        exact: &ExactEvaluator<'_>,
        gates: &[CliffordGate],
        scratch: &mut FusedScratch,
    ) -> f64 {
        let exec = self.loss.exec();
        let permuted = !exec.mapping_is_identity();
        let mut coefficients = [0.0; TermBatch::LANES];
        let mut loss_n = 0.0;
        let mut loss_0 = -0.0;
        for (planes, terms) in self
            .planes
            .iter()
            .zip(self.h.terms().chunks(TermBatch::LANES))
        {
            let batch = &mut scratch.logical;
            batch.clone_from(planes);
            anticonjugate_batch(gates, batch);
            let (traceless, signs) = (batch.any_x_mask(), batch.sign_mask());
            for (lane, term) in terms.iter().enumerate() {
                let sign = if (signs >> lane) & 1 == 1 { -1.0 } else { 1.0 };
                let c = sign * term.coefficient;
                coefficients[lane] = c;
                loss_0 += c * if (traceless >> lane) & 1 == 1 {
                    0.0
                } else {
                    1.0
                };
            }
            // The signs now live in the coefficients.
            batch.xor_sign(signs);
            let batch = if permuted {
                exec.map_batch(batch, &mut scratch.compact);
                &mut scratch.compact
            } else {
                batch
            };
            exact.add_batch_energy(batch, &coefficients[..terms.len()], &mut loss_n);
        }
        loss_n + loss_0
    }

    /// Reports `genomes` fused scorings to the exact kernel's counters in
    /// one update: one walk per 64-term chunk of `H` per genome.
    fn count_fused(&self, genomes: usize) {
        ExactEvaluator::count_walks(
            (self.planes.len() * genomes) as u64,
            (self.h.num_terms() * genomes) as u64,
        );
    }
}

/// The fused path's per-call buffers, reused across a population batch:
/// the chunk being transformed, and its image on the executable's compact
/// register when the layout permutes qubits.
struct FusedScratch {
    logical: TermBatch,
    compact: TermBatch,
}

impl FusedScratch {
    fn new(loss: &TransformLoss<'_>) -> FusedScratch {
        FusedScratch {
            logical: TermBatch::new(loss.h.num_qubits()),
            compact: TermBatch::new(loss.loss.exec().num_qubits()),
        }
    }
}

impl LossEvaluator for TransformLoss<'_> {
    fn evaluate(&self, gamma: &[u8]) -> f64 {
        self.evaluate_gates(&self.gates(gamma))
    }

    /// The population-batch fast path: every genome shares the loss
    /// object's one prepared `θ = 0` evaluator. The exact kind runs the
    /// fused plane loop with one scratch for the whole batch; the sampled
    /// kind reuses one transformed-Hamiltonian buffer. Bit-identical to
    /// genome-at-a-time [`LossEvaluator::evaluate`].
    fn evaluate_population(&self, genomes: &[Vec<u8>]) -> Vec<f64> {
        let prepared = self.loss.zero();
        if let Some(exact) = prepared.exact() {
            self.count_fused(genomes.len());
            let mut scratch = FusedScratch::new(self);
            return genomes
                .iter()
                .map(|gamma| self.fused_loss(&exact, &self.gates(gamma), &mut scratch))
                .collect();
        }
        let mut transformed = PauliSum::new(self.h.num_qubits());
        genomes
            .iter()
            .map(|gamma| {
                self.transformed_into(gamma, &mut transformed);
                self.loss.loss_n_prepared(prepared, &transformed) + self.loss.loss_0(&transformed)
            })
            .collect()
    }

    /// Frozen slot genes do not affect the loss, so the masked genome is the
    /// cache identity — genomes differing only in frozen genes share one
    /// memo entry.
    fn canonical_key(&self, gamma: &[u8]) -> Vec<u8> {
        self.masked(gamma)
    }
}

/// The CAFQA / nCAFQA search objective over quarter-turn indices of θ.
///
/// CAFQA minimizes the noiseless Clifford energy; noise-aware CAFQA adds the
/// `LN` term of the configured [`EvaluatorKind`] (§5.2). Each point lowers
/// its circuit once for both terms.
#[derive(Debug, Clone)]
pub struct CafqaLoss<'a> {
    /// `H` on the executable's compact register (θ-independent).
    mapped: PauliSum,
    exec: &'a ExecutableAnsatz,
    loss: LossFunction<'a>,
    noise_aware: bool,
}

impl<'a> CafqaLoss<'a> {
    /// The plain CAFQA objective: noiseless energy only.
    ///
    /// # Panics
    ///
    /// Panics on a register mismatch between `h` and `exec`.
    pub fn cafqa(h: &'a PauliSum, exec: &'a ExecutableAnsatz) -> CafqaLoss<'a> {
        CafqaLoss::build(h, exec, EvaluatorKind::Exact, false)
    }

    /// The noise-aware nCAFQA objective: `LN(θ) + L0(θ)`.
    ///
    /// # Panics
    ///
    /// Panics on a register mismatch between `h` and `exec`.
    pub fn ncafqa(
        h: &'a PauliSum,
        exec: &'a ExecutableAnsatz,
        evaluator: EvaluatorKind,
    ) -> CafqaLoss<'a> {
        CafqaLoss::build(h, exec, evaluator, true)
    }

    fn build(
        h: &'a PauliSum,
        exec: &'a ExecutableAnsatz,
        evaluator: EvaluatorKind,
        noise_aware: bool,
    ) -> CafqaLoss<'a> {
        assert_eq!(h.num_qubits(), exec.num_logical(), "register mismatch");
        CafqaLoss {
            mapped: exec.map_hamiltonian(h),
            exec,
            loss: LossFunction::new(exec, evaluator),
            noise_aware,
        }
    }

    /// The underlying loss function.
    pub fn loss(&self) -> &LossFunction<'a> {
        &self.loss
    }

    /// The ansatz circuit at quarter-turn indices, prepared.
    fn prepare(&self, indices: &[u8]) -> PreparedEnergy {
        let theta = self.exec.ansatz().angles_from_indices(indices);
        self.loss.prepare(&self.exec.circuit(&theta))
    }

    /// The noiseless energy of the ansatz at quarter-turn indices.
    pub fn noiseless_energy(&self, indices: &[u8]) -> f64 {
        self.prepare(indices).noiseless_energy(&self.mapped)
    }
}

impl LossEvaluator for CafqaLoss<'_> {
    fn evaluate(&self, indices: &[u8]) -> f64 {
        let prepared = self.prepare(indices);
        let noiseless = prepared.noiseless_energy(&self.mapped);
        if self.noise_aware {
            prepared.energy(&self.mapped) + noiseless
        } else {
            noiseless
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PooledEvaluator, WorkerPool};
    use clapton_eval::CachedEvaluator;
    use clapton_models::ising;
    use clapton_noise::NoiseModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn random_genomes(n: usize, genes: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..genes).map(|_| rng.gen_range(0..4u8)).collect())
            .collect()
    }

    #[test]
    fn batch_evaluation_is_bit_identical_to_sequential() {
        let h = ising(3, 0.5);
        let model = NoiseModel::uniform(3, 1e-3, 1e-2, 2e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let ansatz = TransformationAnsatz::new(3);
        let loss = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
        let genomes = random_genomes(24, ansatz.num_genes(), 3);
        let sequential: Vec<f64> = genomes.iter().map(|g| loss.evaluate(g)).collect();
        assert_eq!(loss.evaluate_population(&genomes), sequential);
        // Pooled and cached wrappers preserve the values exactly.
        let pooled = PooledEvaluator::new(&loss, Arc::new(WorkerPool::with_workers(3)));
        assert_eq!(pooled.evaluate_population(&genomes), sequential);
        let cached = CachedEvaluator::new(&loss);
        assert_eq!(cached.evaluate_population(&genomes), sequential);
        assert_eq!(cached.evaluate_population(&genomes), sequential);
        assert_eq!(cached.stats().misses, genomes.len() as u64);
    }

    #[test]
    fn sampled_population_batch_is_bit_identical_through_every_path() {
        // The sampled batch path (one prepared circuit and term cache per
        // loss object) and the pool-backed wrapper must replay losses
        // scored on a cold cache exactly: per-candidate seeding is content
        // hashed and term-prep cache hits consume no randomness.
        let h = ising(3, 0.5);
        let model = NoiseModel::uniform(3, 1e-3, 1e-2, 2e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let ansatz = TransformationAnsatz::new(3);
        let kind = EvaluatorKind::Sampled {
            shots: 96,
            seed: 11,
        };
        let loss = TransformLoss::new(&h, &exec, &ansatz, kind);
        let genomes = random_genomes(16, ansatz.num_genes(), 5);
        // Each genome on a fresh loss object, so on a cold term cache.
        let sequential: Vec<f64> = genomes
            .iter()
            .map(|g| TransformLoss::new(&h, &exec, &ansatz, kind).evaluate(g))
            .collect();
        assert_eq!(loss.evaluate_population(&genomes), sequential);
        // A second batch shares the loss object's one prepared evaluator —
        // its term cache is warm now — and still replays exactly.
        assert_eq!(loss.evaluate_population(&genomes), sequential);
        let pool = Arc::new(WorkerPool::with_workers(2));
        let pooled = PooledEvaluator::new(&loss, pool);
        assert_eq!(pooled.evaluate_population(&genomes), sequential);
    }

    #[test]
    fn transform_and_loss_bits_are_pinned() {
        // Literal values pin Ĥ and every loss bit for a fixed workload, so
        // a change to the transform or either kernel that moves one ulp
        // fails here instead of in a byte-identity smoke.
        use crate::loss::hash_terms;
        use clapton_pauli::PauliString;
        use clapton_telemetry::Fnv1a;
        let exec = ExecutableAnsatz::untranspiled(10, &NoiseModel::uniform(10, 3e-4, 8e-3, 2e-2));
        let ansatz = TransformationAnsatz::new(10);
        let mut r = StdRng::seed_from_u64(29);
        let random200 = PauliSum::from_terms(
            10,
            (0..200).map(|_| (r.gen_range(-1.0..1.0), PauliString::random(10, &mut r))),
        );
        let cases = [
            (
                ising(10, 0.25),
                [
                    2118874139779274196u64,
                    6171616619059228055,
                    6519778712691030469,
                ],
            ),
            (
                random200,
                [
                    13022607837748263950,
                    12161962213042174405,
                    11386228176384697609,
                ],
            ),
        ];
        for (h, [transform_pin, exact_pin, sampled_pin]) in cases {
            let genomes = random_genomes(8, ansatz.num_genes(), 17);
            let mut transform = Fnv1a::new();
            for g in &genomes {
                hash_terms(&mut transform, &transform_hamiltonian(&h, &ansatz.gates(g)));
            }
            assert_eq!(
                transform.finish(),
                transform_pin,
                "transform, M = {}",
                h.num_terms()
            );
            let kinds = [
                (EvaluatorKind::Exact, exact_pin),
                (EvaluatorKind::Sampled { shots: 64, seed: 5 }, sampled_pin),
            ];
            for (kind, pin) in kinds {
                let loss = TransformLoss::new(&h, &exec, &ansatz, kind);
                let mut bits = Fnv1a::new();
                for l in loss.evaluate_population(&genomes) {
                    bits.write_u64(l.to_bits());
                }
                assert_eq!(bits.finish(), pin, "{kind:?} loss, M = {}", h.num_terms());
            }
        }
    }

    #[test]
    fn transformed_into_matches_transformed() {
        let h = ising(4, 0.5);
        let model = NoiseModel::uniform(4, 1e-3, 1e-2, 1e-2);
        let exec = ExecutableAnsatz::untranspiled(4, &model);
        let ansatz = TransformationAnsatz::new(4);
        let loss = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
        let mut scratch = clapton_pauli::PauliSum::new(4);
        for gamma in random_genomes(12, ansatz.num_genes(), 21) {
            loss.transformed_into(&gamma, &mut scratch);
            assert_eq!(scratch, loss.transformed(&gamma));
        }
    }

    #[test]
    fn identity_genome_scores_untransformed_problem() {
        let h = ising(3, 1.0);
        let model = NoiseModel::uniform(3, 1e-3, 1e-2, 1e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let ansatz = TransformationAnsatz::new(3);
        let loss = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
        let identity = vec![0u8; ansatz.num_genes()];
        let expected = loss.loss().total(&h);
        assert!((loss.evaluate(&identity) - expected).abs() < 1e-12);
    }

    #[test]
    fn frozen_slots_ignore_slot_genes() {
        let h = ising(3, 0.5);
        let model = NoiseModel::uniform(3, 1e-3, 1e-2, 1e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let ansatz = TransformationAnsatz::new(3);
        let loss =
            TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact).freeze_two_qubit_slots();
        let mut gamma = vec![0u8; ansatz.num_genes()];
        let base = loss.evaluate(&gamma);
        // Twiddling a frozen slot gene must not change the loss.
        gamma[2 * 3] = 3;
        assert_eq!(loss.evaluate(&gamma), base);
        assert_eq!(loss.masked(&gamma)[2 * 3], 0);
    }

    #[test]
    fn frozen_slots_share_cache_entries() {
        // Genomes differing only in frozen genes must hit one memo entry.
        let h = ising(3, 0.5);
        let model = NoiseModel::uniform(3, 1e-3, 1e-2, 1e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let ansatz = TransformationAnsatz::new(3);
        let loss =
            TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact).freeze_two_qubit_slots();
        let cached = CachedEvaluator::new(&loss);
        let mut a = vec![1u8; ansatz.num_genes()];
        let mut b = a.clone();
        a[2 * 3] = 0;
        b[2 * 3] = 3; // frozen slot gene differs
        assert_eq!(cached.evaluate(&a), cached.evaluate(&b));
        assert_eq!(cached.stats().misses, 1, "one canonical entry");
        assert_eq!(cached.stats().hits, 1);
    }

    #[test]
    fn cafqa_loss_is_noiseless_energy() {
        let h = ising(3, 0.5);
        let exec = ExecutableAnsatz::untranspiled(3, &NoiseModel::noiseless(3));
        let loss = CafqaLoss::cafqa(&h, &exec);
        let genomes = random_genomes(8, exec.ansatz().num_parameters(), 9);
        for g in &genomes {
            assert_eq!(loss.evaluate(g), loss.noiseless_energy(g));
        }
    }

    #[test]
    fn ncafqa_adds_noisy_term() {
        let h = ising(3, 0.5);
        let model = NoiseModel::uniform(3, 5e-3, 2e-2, 3e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let plain = CafqaLoss::cafqa(&h, &exec);
        let aware = CafqaLoss::ncafqa(&h, &exec, EvaluatorKind::Exact);
        let g = vec![1u8; exec.ansatz().num_parameters()];
        // LN is finite and distinct from zero under real noise, so the two
        // objectives must differ by exactly that term.
        let ln = aware
            .loss()
            .loss_n_for_circuit(&exec.circuit(&exec.ansatz().angles_from_indices(&g)), &h);
        assert!((aware.evaluate(&g) - (plain.evaluate(&g) + ln)).abs() < 1e-12);
    }
}
