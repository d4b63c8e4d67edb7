//! The Clapton loss `L(γ) = LN(γ) + L0(γ)` (§4.1) and its noisy-energy
//! evaluator.

use crate::ExecutableAnsatz;
use clapton_circuits::Circuit;
use clapton_noise::{ExactEvaluator, FrameSampler, NoiseModel, NoisyCircuit, TermCache};
use clapton_pauli::PauliSum;
use clapton_sim::DeviceEvaluator;
use clapton_telemetry::Fnv1a;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// How the noisy loss term `LN` is evaluated on Clapton's classically
/// simulable noise model: Clifford circuits with Pauli channels (§4.1).
/// Reported energies use the full device model instead ([`device_energy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvaluatorKind {
    /// Closed-form Clifford-noise expectation via Heisenberg
    /// back-propagation — deterministic, zero sampling error (DESIGN.md
    /// substitution 4).
    Exact,
    /// stim-style Pauli-frame Monte Carlo with a fixed shot budget — the
    /// paper's original estimator. The RNG is re-seeded per Hamiltonian from
    /// `seed` and a content hash of circuit + Hamiltonian, so the loss stays
    /// deterministic (and thread-safe) inside the GA.
    Sampled {
        /// Shots per Pauli term.
        shots: usize,
        /// Base RNG seed.
        seed: u64,
    },
}

impl EvaluatorKind {
    /// Lowers `circuit` under `model` once, for energies of any number of
    /// Hamiltonians against it.
    ///
    /// # Panics
    ///
    /// Panics if `circuit` is not Clifford.
    pub fn prepare(self, circuit: &Circuit, model: &NoiseModel) -> PreparedEnergy {
        PreparedEnergy {
            noisy: NoisyCircuit::from_circuit(circuit, model)
                .expect("LN evaluators require a Clifford circuit"),
            kind: self,
            terms: TermCache::new(),
            circuit_hash: circuit_hash(circuit),
        }
    }
}

/// The `LN` evaluator specialized to one fixed Clifford circuit, built by
/// [`EvaluatorKind::prepare`].
///
/// This is the batch fast path of the Clapton hot loop: the GA scores
/// thousands of transformed Hamiltonians against the *same* `θ = 0`
/// circuit, so the circuit is lowered to a [`NoisyCircuit`] once. Exact
/// energies run the bit-parallel batched back-propagation (64 Hamiltonian
/// terms per circuit walk). Sampled energies keep the circuit half of the
/// per-Hamiltonian seed hash and a [`TermCache`], so each distinct Pauli
/// term's preparation is derived once across a whole population batch;
/// cache hits consume no randomness, so sampled losses replay exactly
/// whether the cache is cold or warm.
#[derive(Debug)]
pub struct PreparedEnergy {
    noisy: NoisyCircuit,
    kind: EvaluatorKind,
    terms: TermCache,
    circuit_hash: Fnv1a,
}

impl PreparedEnergy {
    /// The noisy energy `Σ_i c_i ⟨P_i⟩_noisy` of `h` (already on the
    /// circuit's register).
    pub fn energy(&self, h: &PauliSum) -> f64 {
        match self.kind {
            EvaluatorKind::Exact => ExactEvaluator::new(&self.noisy).energy(h),
            EvaluatorKind::Sampled { shots, seed } => {
                let mut rng = StdRng::seed_from_u64(seed ^ hamiltonian_hash(self.circuit_hash, h));
                FrameSampler::new(&self.noisy).energy_cached(h, shots, &mut rng, &self.terms)
            }
        }
    }

    /// The noiseless energy of `h` on the same circuit (all damping dropped).
    pub fn noiseless_energy(&self, h: &PauliSum) -> f64 {
        ExactEvaluator::new(&self.noisy).noiseless_energy(h)
    }

    /// The exact evaluator of the prepared circuit, for the `Exact` kind —
    /// the kernel the fused transform-and-score loop of
    /// [`crate::TransformLoss`] feeds with planes. `None` for the sampled
    /// kind, whose seed hash and term cache read `Ĥ`'s strings.
    pub(crate) fn exact(&self) -> Option<ExactEvaluator<'_>> {
        match self.kind {
            EvaluatorKind::Exact => Some(ExactEvaluator::new(&self.noisy)),
            EvaluatorKind::Sampled { .. } => None,
        }
    }
}

// Hand-written serde impls (the vendored derive has no struct-variant
// support): `"Exact"` as a unit string, `Sampled` externally
// tagged with a named map — `{"Sampled": {"shots": 256, "seed": 5}}`.
impl serde::Serialize for EvaluatorKind {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::Value;
        let value = match *self {
            EvaluatorKind::Exact => Value::Str("Exact".to_string()),
            EvaluatorKind::Sampled { shots, seed } => Value::Map(vec![(
                "Sampled".to_string(),
                Value::Map(vec![
                    ("shots".to_string(), serde::to_value(&shots)),
                    ("seed".to_string(), serde::to_value(&seed)),
                ]),
            )]),
        };
        serializer.serialize_value(value)
    }
}

impl<'de> serde::Deserialize<'de> for EvaluatorKind {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        use serde::Value;
        match deserializer.take_value()? {
            Value::Str(s) => match s.as_str() {
                "Exact" => Ok(EvaluatorKind::Exact),
                other => Err(D::Error::custom(format!(
                    "unknown evaluator {other:?} (expected Exact or Sampled)"
                ))),
            },
            Value::Map(mut m) if m.len() == 1 && m[0].0 == "Sampled" => {
                let (_, content) = m.remove(0);
                match content {
                    Value::Map(mut fields) => Ok(EvaluatorKind::Sampled {
                        shots: serde::take_field(&mut fields, "shots").map_err(D::Error::custom)?,
                        seed: serde::take_field(&mut fields, "seed").map_err(D::Error::custom)?,
                    }),
                    other => Err(D::Error::custom(format!(
                        "Sampled evaluator expects {{shots, seed}}, found {other:?}"
                    ))),
                }
            }
            other => Err(D::Error::custom(format!(
                "expected evaluator kind, found {other:?}"
            ))),
        }
    }
}

/// Evaluates Clapton/nCAFQA losses against an executable ansatz.
///
/// `LN` runs the noisy circuit built from a given `A'(θ)` (Eq. 9); `L0` is
/// the noiseless energy of the all-zeros state (Eq. 10).
///
/// # Example
///
/// ```
/// use clapton_core::{EvaluatorKind, ExecutableAnsatz, LossFunction};
/// use clapton_noise::NoiseModel;
/// use clapton_pauli::PauliSum;
///
/// let model = NoiseModel::uniform(2, 1e-3, 1e-2, 2e-2);
/// let exec = ExecutableAnsatz::untranspiled(2, &model);
/// let loss = LossFunction::new(&exec, EvaluatorKind::Exact);
/// let h = PauliSum::from_terms(2, vec![(1.0, "ZZ".parse().unwrap())]);
/// let total = loss.total(&h);
/// // L0 = 1 exactly, LN slightly damped by gate and readout noise.
/// assert!(total < 2.0 && total > 1.8);
/// ```
#[derive(Debug, Clone)]
pub struct LossFunction<'a> {
    exec: &'a ExecutableAnsatz,
    kind: EvaluatorKind,
    /// The `θ = 0` circuit prepared lazily and shared for the lifetime of
    /// this loss object — every population batch, pooled chunk, and GA
    /// round reuses one preparation (and, for the sampled kind, one
    /// term-prep cache). Clones of an already-prepared loss share it
    /// (`OnceLock::clone` copies the initialized value); results are
    /// bit-identical either way.
    prepared_zero: OnceLock<Arc<PreparedEnergy>>,
}

impl<'a> LossFunction<'a> {
    /// Creates the loss for the ansatz's `θ = 0` circuit, scoring `LN` with
    /// `kind`.
    pub fn new(exec: &'a ExecutableAnsatz, kind: EvaluatorKind) -> LossFunction<'a> {
        LossFunction {
            exec,
            kind,
            prepared_zero: OnceLock::new(),
        }
    }

    /// The executable ansatz this loss evaluates against.
    pub fn exec(&self) -> &ExecutableAnsatz {
        self.exec
    }

    /// `LN(γ)`: noisy energy of a (transformed) logical Hamiltonian at the
    /// initial point `θ = 0` on the transpiled circuit (Eq. 9).
    pub fn loss_n(&self, h_logical: &PauliSum) -> f64 {
        self.loss_n_prepared(self.zero(), h_logical)
    }

    /// The evaluator prepared for the fixed `θ = 0` circuit (the
    /// population-batch fast path), built at most once per loss object and
    /// reused across batches, pooled chunks, and GA rounds.
    ///
    /// Always `Some`; the `Option` is kept so callers that match on it
    /// still compile.
    pub fn prepared_zero(&self) -> Option<&PreparedEnergy> {
        Some(self.zero())
    }

    /// [`LossFunction::prepared_zero`] without the `Option`.
    ///
    /// # Panics
    ///
    /// Panics, for the exact kind, if the `θ = 0` circuit maps a Z-type
    /// string off the Z type: [`crate::TransformLoss`] scores only the lanes
    /// that are Z-type before this circuit, and that is exact only when the
    /// others stay traceless through it ([`ExactEvaluator::keeps_z_type`]).
    pub(crate) fn zero(&self) -> &PreparedEnergy {
        self.prepared_zero.get_or_init(|| {
            let prepared = self.prepare(&self.exec.circuit_at_zero());
            if let Some(exact) = prepared.exact() {
                assert!(
                    exact.keeps_z_type(),
                    "the θ = 0 circuit must map Z-type strings onto Z-type strings"
                );
            }
            Arc::new(prepared)
        })
    }

    /// Prepares an executable circuit `A'(θ)` under the executable's noise
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if `circuit` is not Clifford.
    pub(crate) fn prepare(&self, circuit: &Circuit) -> PreparedEnergy {
        self.kind.prepare(circuit, self.exec.noise_model())
    }

    /// `LN` of a logical Hamiltonian on a prepared circuit.
    ///
    /// Skips the logical → compact Hamiltonian copy when the executable's
    /// mapping is the identity (the untranspiled case) — the mapped sum would
    /// be term-for-term equal, so the energy is bit-identical either way.
    pub fn loss_n_prepared(&self, prepared: &PreparedEnergy, h_logical: &PauliSum) -> f64 {
        if self.exec.mapping_is_identity() {
            prepared.energy(h_logical)
        } else {
            prepared.energy(&self.exec.map_hamiltonian(h_logical))
        }
    }

    /// `LN` for an arbitrary Clifford executable circuit `A'(θ)` (the
    /// Clifford-model energy at a CAFQA-family point).
    pub fn loss_n_for_circuit(&self, circuit: &Circuit, h_logical: &PauliSum) -> f64 {
        self.loss_n_prepared(&self.prepare(circuit), h_logical)
    }

    /// `L0(γ) = ⟨0|H(γ)|0⟩` (Eq. 10): the noiseless anchor that prevents
    /// deceptively error-resilient but bad solutions.
    pub fn loss_0(&self, h_logical: &PauliSum) -> f64 {
        h_logical.expectation_all_zeros()
    }

    /// The full Clapton loss `L = LN + L0` (§4.1).
    pub fn total(&self, h_logical: &PauliSum) -> f64 {
        self.loss_n(h_logical) + self.loss_0(h_logical)
    }
}

/// The device-model energy of `A'(θ)` with respect to a logical Hamiltonian
/// under the executable's full noise model (the × evaluation of Figures 2
/// and 5–8), through [`DeviceEvaluator::run`]: exact back-propagation when
/// the model has no T1 and `A'(θ)` is Clifford, the density matrix
/// otherwise. Every reported initial energy is computed here.
pub fn device_energy(exec: &ExecutableAnsatz, h: &PauliSum, theta: &[f64]) -> f64 {
    DeviceEvaluator::run(&exec.circuit(theta), exec.noise_model()).energy(&exec.map_hamiltonian(h))
}

/// The circuit half of the sampler's per-Hamiltonian seed hash (hoistable:
/// the GA evaluates every candidate against one fixed circuit).
fn circuit_hash(circuit: &Circuit) -> Fnv1a {
    let mut hash = Fnv1a::new();
    hash.write_u64(circuit.len() as u64);
    for g in circuit.gates() {
        for q in g.qubits() {
            hash.write_u64(q as u64 + 1);
        }
    }
    hash
}

/// Folds a Hamiltonian into a running [`circuit_hash`], completing the
/// sampler's seed hash of circuit + Hamiltonian coefficients.
fn hamiltonian_hash(mut hash: Fnv1a, h: &PauliSum) -> u64 {
    hash_terms(&mut hash, h);
    hash.finish()
}

/// Folds every term of `h` — its coefficient bits, then every x and every z
/// word — into `hash`.
pub(crate) fn hash_terms(hash: &mut Fnv1a, h: &PauliSum) {
    for (c, p) in h.iter() {
        hash.write_u64(c.to_bits());
        for &w in p.x_words().iter().chain(p.z_words()) {
            hash.write_u64(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapton_noise::NoiseModel;
    use clapton_pauli::PauliString;

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn sampler_seed_hash_is_pinned_and_reads_every_word() {
        // Literal value: sampled losses written by earlier builds (memo
        // checkpoints, persistent stores) must keep replaying exactly.
        let model = NoiseModel::uniform(3, 1e-3, 1e-2, 2e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let h = PauliSum::from_terms(3, vec![(2.0, ps("ZZI")), (5.0, ps("XII"))]);
        assert_eq!(
            hamiltonian_hash(circuit_hash(&exec.circuit_at_zero()), &h),
            15856928381146388308
        );
        // Terms that differ only beyond qubit 63 must seed differently.
        let wide = |q| {
            PauliSum::from_terms(
                70,
                vec![(1.0, PauliString::single(70, q, clapton_pauli::Pauli::Z))],
            )
        };
        assert_ne!(
            hamiltonian_hash(Fnv1a::new(), &wide(65)),
            hamiltonian_hash(Fnv1a::new(), &wide(66))
        );
    }

    #[test]
    fn l0_is_all_zeros_energy() {
        let model = NoiseModel::noiseless(3);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let loss = LossFunction::new(&exec, EvaluatorKind::Exact);
        let h = PauliSum::from_terms(3, vec![(2.0, ps("ZZI")), (5.0, ps("XII"))]);
        assert_eq!(loss.loss_0(&h), 2.0);
    }

    #[test]
    fn noiseless_model_makes_ln_equal_l0() {
        // With no noise, LN at θ=0 equals ⟨0|H|0⟩ because A(0)|0⟩ = |0⟩.
        let model = NoiseModel::noiseless(4);
        let exec = ExecutableAnsatz::untranspiled(4, &model);
        let loss = LossFunction::new(&exec, EvaluatorKind::Exact);
        let h = PauliSum::from_terms(4, vec![(1.5, ps("ZIIZ")), (0.7, ps("XXII"))]);
        assert!((loss.loss_n(&h) - loss.loss_0(&h)).abs() < 1e-12);
    }

    #[test]
    fn noise_damps_ln_towards_zero() {
        let model = NoiseModel::uniform(3, 5e-3, 3e-2, 3e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let loss = LossFunction::new(&exec, EvaluatorKind::Exact);
        let h = PauliSum::from_terms(3, vec![(1.0, ps("ZZZ"))]);
        let ln = loss.loss_n(&h);
        assert!(ln < 1.0 && ln > 0.5, "LN = {ln}");
        assert_eq!(loss.loss_0(&h), 1.0);
        assert!((loss.total(&h) - (ln + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn sampled_loss_is_deterministic_and_near_exact() {
        let model = NoiseModel::uniform(3, 5e-3, 2e-2, 2e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let exact = LossFunction::new(&exec, EvaluatorKind::Exact);
        let sampled = LossFunction::new(
            &exec,
            EvaluatorKind::Sampled {
                shots: 20_000,
                seed: 5,
            },
        );
        let h = PauliSum::from_terms(3, vec![(1.0, ps("ZZI")), (-0.5, ps("IZZ"))]);
        let a = sampled.loss_n(&h);
        let b = sampled.loss_n(&h);
        assert_eq!(a, b, "sampled loss must be deterministic");
        assert!((a - exact.loss_n(&h)).abs() < 0.03);
    }

    #[test]
    fn device_energy_agrees_with_exact_ln_on_pauli_noise() {
        // For pure Pauli noise (no T1 relaxation) the density-matrix device
        // model and the exact back-propagation compute the same channel, so
        // whole-Hamiltonian energies must agree to numerical precision — on
        // a routed executable, so the logical → compact mapping is exercised.
        use clapton_circuits::CouplingMap;
        use rand::{Rng, SeedableRng};
        let n = 5;
        let model = NoiseModel::uniform(n, 2e-3, 1.5e-2, 2.5e-2);
        let exec = ExecutableAnsatz::on_device(n, &CouplingMap::line(n), &model).unwrap();
        assert!(
            !exec.mapping_is_identity(),
            "routing must permute the register"
        );
        let loss = LossFunction::new(&exec, EvaluatorKind::Exact);
        let mut rng = StdRng::seed_from_u64(3);
        let random100 = PauliSum::from_terms(
            n,
            (0..100).map(|_| (rng.gen_range(-1.0..1.0), PauliString::random(n, &mut rng))),
        );
        let quarter_turns: Vec<u8> = (0..exec.ansatz().num_parameters())
            .map(|_| rng.gen_range(0..4u8))
            .collect();
        let thetas = [
            vec![0.0; exec.ansatz().num_parameters()],
            exec.ansatz().angles_from_indices(&quarter_turns),
        ];
        for h in [clapton_models::ising(n, 0.5), random100] {
            for theta in &thetas {
                let circuit = exec.circuit(theta);
                let dense = DeviceEvaluator::dense(&circuit, exec.noise_model())
                    .energy(&exec.map_hamiltonian(&h));
                let exact = loss.loss_n_for_circuit(&circuit, &h);
                let device = device_energy(&exec, &h, theta);
                for e in [exact, device] {
                    assert!((e - dense).abs() < 1e-9, "{e} vs dense {dense}");
                }
            }
        }
    }

    #[test]
    fn ln_accounts_for_routing_noise() {
        use clapton_circuits::CouplingMap;
        // The same 5-qubit problem on a line (needs routing SWAPs for the
        // ring closure) must show a strictly noisier LN than on a ring
        // (SWAP-free), for identical per-gate error rates.
        let h = PauliSum::from_terms(5, vec![(1.0, ps("ZZZZZ"))]);
        let line_model = NoiseModel::uniform(5, 1e-3, 1e-2, 0.0);
        let exec_line = ExecutableAnsatz::on_device(5, &CouplingMap::line(5), &line_model).unwrap();
        let exec_ring = ExecutableAnsatz::on_device(5, &CouplingMap::ring(5), &line_model).unwrap();
        let loss_line = LossFunction::new(&exec_line, EvaluatorKind::Exact);
        let loss_ring = LossFunction::new(&exec_ring, EvaluatorKind::Exact);
        let (ln_line, ln_ring) = (loss_line.loss_n(&h), loss_ring.loss_n(&h));
        assert!(
            ln_line < ln_ring,
            "routing SWAPs must cost fidelity: line {ln_line} vs ring {ln_ring}"
        );
    }
}
