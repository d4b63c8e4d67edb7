//! The Clapton loss `L(γ) = LN(γ) + L0(γ)` (§4.1) and its pluggable
//! noisy-energy backends.

use crate::ExecutableAnsatz;
use clapton_circuits::Circuit;
use clapton_noise::{ExactEvaluator, FrameSampler, NoiseModel, NoisyCircuit, TermCache};
use clapton_pauli::PauliSum;
use clapton_sim::DeviceEvaluator;
use clapton_telemetry::Fnv1a;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A noisy-energy backend specialized to one fixed circuit.
///
/// Produced by [`EnergyBackend::prepare`]: the circuit-dependent setup
/// (noise attachment, Clifford conversion, dense simulation of the state)
/// is paid once, after which [`PreparedEnergy::energy`] scores arbitrary
/// Hamiltonians against the same circuit. Results are bit-identical to the
/// unprepared [`EnergyBackend::energy`] — preparation hoists construction,
/// never changes arithmetic.
///
/// This is the batch fast path of the Clapton hot loop: the GA evaluates
/// thousands of transformed Hamiltonians against the *same* `θ = 0` circuit,
/// so rebuilding the noisy circuit per genome is pure overhead.
pub trait PreparedEnergy: fmt::Debug + Send + Sync {
    /// The noisy energy of `h` (already on the circuit's register) for the
    /// prepared circuit.
    fn energy(&self, h: &PauliSum) -> f64;
}

/// A noisy-energy backend: computes `⟨H⟩` of a Clifford circuit under a
/// noise model.
///
/// Backends are trait objects so exact stabilizer back-propagation,
/// stim-style frame sampling, and dense density-matrix simulation plug into
/// [`LossFunction`] (and everything above it — `TransformLoss`, the GA
/// engine, the pipeline) uniformly. Implementations must be pure: the energy
/// may be computed on any thread and memoized.
pub trait EnergyBackend: fmt::Debug + Send + Sync {
    /// The noisy energy `Σ_i c_i ⟨P_i⟩_noisy` of `h` for `circuit` under
    /// `model`.
    ///
    /// # Panics
    ///
    /// Panics if `circuit` is not Clifford (all backends here exploit
    /// stabilizer structure; the dense backend accepts any circuit but is
    /// only ever handed Clifford ones by the losses).
    fn energy(&self, circuit: &Circuit, model: &NoiseModel, h: &PauliSum) -> f64;

    /// Specializes the backend to a fixed circuit for repeated energy
    /// evaluations of different Hamiltonians.
    ///
    /// `None` (the default) means the backend has no circuit-invariant work
    /// worth hoisting; callers fall back to [`EnergyBackend::energy`]. When
    /// `Some`, the prepared evaluator must return bit-identical energies.
    fn prepare(&self, circuit: &Circuit, model: &NoiseModel) -> Option<Box<dyn PreparedEnergy>> {
        let _ = (circuit, model);
        None
    }

    /// The noiseless energy of the same circuit (all damping dropped).
    fn noiseless_energy(&self, circuit: &Circuit, model: &NoiseModel, h: &PauliSum) -> f64 {
        let noisy = NoisyCircuit::from_circuit(circuit, model)
            .expect("energy backends require Clifford circuits");
        ExactEvaluator::new(&noisy).noiseless_energy(h)
    }

    /// A short human-readable backend name (diagnostics).
    fn name(&self) -> &'static str;
}

/// Closed-form Clifford-noise expectation via Heisenberg back-propagation —
/// deterministic, zero sampling error (DESIGN.md substitution 4).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactBackend;

impl EnergyBackend for ExactBackend {
    fn energy(&self, circuit: &Circuit, model: &NoiseModel, h: &PauliSum) -> f64 {
        let noisy = NoisyCircuit::from_circuit(circuit, model)
            .expect("exact backend requires a Clifford circuit");
        ExactEvaluator::new(&noisy).energy(h)
    }

    fn prepare(&self, circuit: &Circuit, model: &NoiseModel) -> Option<Box<dyn PreparedEnergy>> {
        let noisy = NoisyCircuit::from_circuit(circuit, model)
            .expect("exact backend requires a Clifford circuit");
        Some(Box::new(PreparedExact { noisy }))
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

/// [`ExactBackend`] with the noisy circuit attached once.
///
/// Energies route through the bit-parallel batched back-propagation
/// (`ExactEvaluator::energy`: 64 Hamiltonian terms per circuit walk); the
/// prepared circuit also memoizes the reversed-and-inverted op list the
/// walks share, so every genome of every batch reuses one back-propagation
/// program.
#[derive(Debug)]
struct PreparedExact {
    noisy: NoisyCircuit,
}

impl PreparedEnergy for PreparedExact {
    fn energy(&self, h: &PauliSum) -> f64 {
        ExactEvaluator::new(&self.noisy).energy(h)
    }
}

/// stim-style Pauli-frame Monte Carlo with a fixed shot budget — the paper's
/// original estimator. The RNG is re-seeded per evaluation from `seed` and
/// the candidate's content hash, so the loss stays deterministic (and
/// thread-safe) inside the GA.
#[derive(Debug, Clone, Copy)]
pub struct SampledBackend {
    /// Shots per Pauli term.
    pub shots: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl EnergyBackend for SampledBackend {
    fn energy(&self, circuit: &Circuit, model: &NoiseModel, h: &PauliSum) -> f64 {
        let noisy = NoisyCircuit::from_circuit(circuit, model)
            .expect("frame sampler requires a Clifford circuit");
        let mut rng = StdRng::seed_from_u64(self.seed ^ content_hash(circuit, h));
        FrameSampler::new(&noisy).energy(h, self.shots, &mut rng)
    }

    fn prepare(&self, circuit: &Circuit, model: &NoiseModel) -> Option<Box<dyn PreparedEnergy>> {
        let noisy = NoisyCircuit::from_circuit(circuit, model)
            .expect("frame sampler requires a Clifford circuit");
        Some(Box::new(PreparedSampled {
            noisy,
            terms: TermCache::new(),
            circuit_hash: circuit_hash(circuit),
            shots: self.shots,
            seed: self.seed,
        }))
    }

    fn name(&self) -> &'static str {
        "sampled"
    }
}

/// [`SampledBackend`] with the noisy circuit and the circuit half of the
/// per-candidate seed hash computed once, plus a [`TermCache`] so each
/// distinct Pauli term's preparation (noiseless back-propagation +
/// basis-prep ops) is derived once across the whole population batch.
/// Cache hits consume no randomness and the final per-Hamiltonian seed is
/// identical to the unprepared path, so sampled losses replay exactly.
#[derive(Debug)]
struct PreparedSampled {
    noisy: NoisyCircuit,
    terms: TermCache,
    circuit_hash: Fnv1a,
    shots: usize,
    seed: u64,
}

impl PreparedEnergy for PreparedSampled {
    fn energy(&self, h: &PauliSum) -> f64 {
        let mut rng = StdRng::seed_from_u64(self.seed ^ hamiltonian_hash(self.circuit_hash, h));
        FrameSampler::new(&self.noisy).energy_cached(h, self.shots, &mut rng, &self.terms)
    }
}

/// Full density-matrix simulation ([`DeviceEvaluator`]) — the Qiskit-style
/// device environment. Exponential in register width; intended for small
/// problems and cross-validation of the scalable backends.
#[derive(Debug, Clone, Copy, Default)]
pub struct DenseBackend;

impl EnergyBackend for DenseBackend {
    fn energy(&self, circuit: &Circuit, model: &NoiseModel, h: &PauliSum) -> f64 {
        DeviceEvaluator::run(circuit, model).energy(h)
    }

    fn prepare(&self, circuit: &Circuit, model: &NoiseModel) -> Option<Box<dyn PreparedEnergy>> {
        // The density-matrix evolution depends only on the circuit; measuring
        // a Hamiltonian against the evolved state is the cheap part.
        Some(Box::new(DeviceEvaluator::run(circuit, model)))
    }

    fn name(&self) -> &'static str {
        "dense"
    }
}

impl PreparedEnergy for DeviceEvaluator {
    fn energy(&self, h: &PauliSum) -> f64 {
        DeviceEvaluator::energy(self, h)
    }
}

/// How the noisy loss term `LN` is evaluated — a serializable configuration
/// tag resolving to an [`EnergyBackend`] trait object via
/// [`EvaluatorKind::backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvaluatorKind {
    /// Closed-form Clifford-noise expectation ([`ExactBackend`]).
    Exact,
    /// stim-style Pauli-frame Monte Carlo ([`SampledBackend`]).
    Sampled {
        /// Shots per Pauli term.
        shots: usize,
        /// Base RNG seed.
        seed: u64,
    },
    /// Dense density-matrix simulation ([`DenseBackend`]).
    Dense,
}

impl EvaluatorKind {
    /// Resolves the configuration tag to a backend object.
    pub fn backend(&self) -> Arc<dyn EnergyBackend> {
        match *self {
            EvaluatorKind::Exact => Arc::new(ExactBackend),
            EvaluatorKind::Sampled { shots, seed } => Arc::new(SampledBackend { shots, seed }),
            EvaluatorKind::Dense => Arc::new(DenseBackend),
        }
    }
}

// Hand-written serde impls (the vendored derive has no struct-variant
// support): `"Exact"` / `"Dense"` as unit strings, `Sampled` externally
// tagged with a named map — `{"Sampled": {"shots": 256, "seed": 5}}`.
impl serde::Serialize for EvaluatorKind {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::Value;
        let value = match *self {
            EvaluatorKind::Exact => Value::Str("Exact".to_string()),
            EvaluatorKind::Dense => Value::Str("Dense".to_string()),
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
                "Dense" => Ok(EvaluatorKind::Dense),
                other => Err(D::Error::custom(format!(
                    "unknown evaluator {other:?} (expected Exact, Dense, or Sampled)"
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
    zero_circuit: Circuit,
    backend: Arc<dyn EnergyBackend>,
    /// The backend specialized to the fixed `θ = 0` circuit, built lazily
    /// and shared for the lifetime of this loss object — every population
    /// batch, pooled chunk, and GA round reuses one preparation (and, for
    /// the sampled backend, one term-prep cache). Clones of an
    /// already-prepared loss share the same preparation (`OnceLock::clone`
    /// copies the initialized value); results are bit-identical either way.
    prepared_zero: OnceLock<Option<Arc<dyn PreparedEnergy>>>,
}

impl<'a> LossFunction<'a> {
    /// Creates the loss for the ansatz's `θ = 0` circuit with a built-in
    /// backend kind.
    pub fn new(exec: &'a ExecutableAnsatz, kind: EvaluatorKind) -> LossFunction<'a> {
        LossFunction::with_backend(exec, kind.backend())
    }

    /// Creates the loss with a custom [`EnergyBackend`] implementation.
    pub fn with_backend(
        exec: &'a ExecutableAnsatz,
        backend: Arc<dyn EnergyBackend>,
    ) -> LossFunction<'a> {
        LossFunction {
            exec,
            zero_circuit: exec.circuit_at_zero(),
            backend,
            prepared_zero: OnceLock::new(),
        }
    }

    /// The executable ansatz this loss evaluates against.
    pub fn exec(&self) -> &ExecutableAnsatz {
        self.exec
    }

    /// The backend computing `LN`.
    pub fn backend(&self) -> &dyn EnergyBackend {
        self.backend.as_ref()
    }

    /// `LN(γ)`: noisy energy of a (transformed) logical Hamiltonian at the
    /// initial point `θ = 0` on the transpiled circuit (Eq. 9).
    pub fn loss_n(&self, h_logical: &PauliSum) -> f64 {
        self.loss_n_for_circuit(&self.zero_circuit, h_logical)
    }

    /// The backend specialized to the fixed `θ = 0` circuit for repeated
    /// `LN` evaluations (the population-batch fast path), prepared at most
    /// once per loss object and reused across batches, pooled chunks, and
    /// GA rounds.
    ///
    /// `None` when the backend has nothing to hoist; results through the
    /// prepared path are bit-identical to [`LossFunction::loss_n`].
    pub fn prepared_zero(&self) -> Option<&dyn PreparedEnergy> {
        self.prepared_zero
            .get_or_init(|| {
                self.backend
                    .prepare(&self.zero_circuit, self.exec.noise_model())
                    .map(Arc::from)
            })
            .as_deref()
    }

    /// `LN` through a prepared backend (see [`LossFunction::prepared_zero`]).
    ///
    /// Skips the logical → compact Hamiltonian copy when the executable's
    /// mapping is the identity (the untranspiled case) — the mapped sum would
    /// be term-for-term equal, so the energy is bit-identical either way.
    pub fn loss_n_prepared(&self, prepared: &dyn PreparedEnergy, h_logical: &PauliSum) -> f64 {
        if self.exec.mapping_is_identity() {
            prepared.energy(h_logical)
        } else {
            prepared.energy(&self.exec.map_hamiltonian(h_logical))
        }
    }

    /// `LN` for an arbitrary executable circuit `A'(θ)` (used by nCAFQA,
    /// which searches over θ rather than transforming H).
    pub fn loss_n_for_circuit(&self, circuit: &Circuit, h_logical: &PauliSum) -> f64 {
        let mapped = self.exec.map_hamiltonian(h_logical);
        self.backend
            .energy(circuit, self.exec.noise_model(), &mapped)
    }

    /// `L0(γ) = ⟨0|H(γ)|0⟩` (Eq. 10): the noiseless anchor that prevents
    /// deceptively error-resilient but bad solutions.
    pub fn loss_0(&self, h_logical: &PauliSum) -> f64 {
        h_logical.expectation_all_zeros()
    }

    /// Noiseless energy of an arbitrary Clifford circuit `A'(θ)` w.r.t. the
    /// (mapped) Hamiltonian — CAFQA's objective and nCAFQA's `L0` analogue.
    pub fn noiseless_for_circuit(&self, circuit: &Circuit, h_logical: &PauliSum) -> f64 {
        let mapped = self.exec.map_hamiltonian(h_logical);
        self.backend
            .noiseless_energy(circuit, self.exec.noise_model(), &mapped)
    }

    /// The full Clapton loss `L = LN + L0` (§4.1).
    pub fn total(&self, h_logical: &PauliSum) -> f64 {
        self.loss_n(h_logical) + self.loss_0(h_logical)
    }
}

/// The device-model energy of `A'(θ)` with respect to a logical Hamiltonian:
/// the full density-matrix simulation under the executable's noise model
/// (the × evaluation of Figures 2 and 5–8). Every reported initial energy
/// is computed here.
pub fn device_energy(exec: &ExecutableAnsatz, h: &PauliSum, theta: &[f64]) -> f64 {
    DeviceEvaluator::run(&exec.circuit(theta), exec.noise_model()).energy(&exec.map_hamiltonian(h))
}

/// A cheap deterministic content hash of circuit + Hamiltonian coefficients
/// for per-candidate sampler seeding.
fn content_hash(circuit: &Circuit, h: &PauliSum) -> u64 {
    hamiltonian_hash(circuit_hash(circuit), h)
}

/// The circuit half of [`content_hash`] (hoistable: the GA evaluates every
/// candidate against one fixed circuit).
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

/// Folds a Hamiltonian into a running [`circuit_hash`], completing
/// [`content_hash`].
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
            content_hash(&exec.circuit_at_zero(), &h),
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
    fn dense_backend_agrees_with_exact_on_pauli_noise() {
        // For pure Pauli noise (no T1 relaxation), the density-matrix
        // simulation and the exact back-propagation compute the same
        // channel, so LN must agree to numerical precision.
        let model = NoiseModel::uniform(3, 2e-3, 1.5e-2, 2.5e-2);
        let exec = ExecutableAnsatz::untranspiled(3, &model);
        let exact = LossFunction::new(&exec, EvaluatorKind::Exact);
        let dense = LossFunction::new(&exec, EvaluatorKind::Dense);
        let h = PauliSum::from_terms(
            3,
            vec![(1.0, ps("ZZI")), (-0.5, ps("IZZ")), (0.25, ps("XIX"))],
        );
        assert!(
            (exact.loss_n(&h) - dense.loss_n(&h)).abs() < 1e-9,
            "exact {} vs dense {}",
            exact.loss_n(&h),
            dense.loss_n(&h)
        );
    }

    #[test]
    fn backend_objects_report_names() {
        assert_eq!(EvaluatorKind::Exact.backend().name(), "exact");
        assert_eq!(
            EvaluatorKind::Sampled { shots: 8, seed: 0 }
                .backend()
                .name(),
            "sampled"
        );
        assert_eq!(EvaluatorKind::Dense.backend().name(), "dense");
    }

    #[test]
    fn custom_backend_plugs_in() {
        /// A backend that scales the exact energy — checks the trait-object
        /// path end to end.
        #[derive(Debug)]
        struct Halved;

        impl EnergyBackend for Halved {
            fn energy(&self, circuit: &Circuit, model: &NoiseModel, h: &PauliSum) -> f64 {
                0.5 * ExactBackend.energy(circuit, model, h)
            }

            fn name(&self) -> &'static str {
                "halved"
            }
        }

        let model = NoiseModel::noiseless(2);
        let exec = ExecutableAnsatz::untranspiled(2, &model);
        let loss = LossFunction::with_backend(&exec, Arc::new(Halved));
        let h = PauliSum::from_terms(2, vec![(1.0, ps("ZZ"))]);
        assert!((loss.loss_n(&h) - 0.5).abs() < 1e-12);
        // L0 is backend-independent.
        assert_eq!(loss.loss_0(&h), 1.0);
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
