//! The declarative job description: one serializable, versioned request
//! type every entry point compiles down to.
//!
//! A [`JobSpec`] names *what* to run — a problem (by registry name or as
//! explicit Pauli terms), a backend (by registry name or the plain logical
//! register), a noise environment, the method set, the engine effort, a
//! seed, and an optional round budget. It deliberately contains no closures,
//! no trait objects, and no live handles: a spec round-trips through JSON
//! unchanged, so a job can come from a builder, a CLI flag, a checkpoint
//! directory, or (eventually) a network request and mean exactly the same
//! run.
//!
//! [`JobSpec::validate`] is the single gate between the serialized world
//! and the execution engine: it resolves every registry name, checks every
//! invariant that used to be a scattered panic or stringly error, and
//! returns a [`ResolvedJob`] that the service layer can execute without
//! further failure modes besides I/O.
//!
//! Unknown JSON fields are ignored on parse (forward compatibility: a newer
//! writer may add fields), while a `version` newer than [`SPEC_VERSION`]
//! is rejected (the semantics of existing fields may have changed).

use clapton_core::{ClaptonConfig, EvaluatorKind, ExecutableAnsatz};
use clapton_devices::FakeBackend;
use clapton_error::SpecError;
use clapton_ga::MultiGaConfig;
use clapton_models::benchmark_by_name;
use clapton_noise::NoiseModel;
use clapton_pauli::{PauliString, PauliSum};
use clapton_sim::{MAX_DENSITY_QUBITS, MAX_GROUND_ENERGY_QUBITS};
use serde::{Deserialize, Serialize};

/// The newest spec version this build understands.
pub const SPEC_VERSION: u32 = 1;

/// A problem drawn from the benchmark registry
/// ([`clapton_models::benchmark_by_name`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteProblem {
    /// Registry name, e.g. `"ising(J=0.25)"` or `"H2O(l=1.0)"`.
    pub name: String,
    /// Register size the physics benchmarks are instantiated at (chemistry
    /// benchmarks are fixed at 10 qubits and only resolve there).
    pub qubits: usize,
}

/// An explicit problem: Pauli terms spelled out in the spec itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TermsProblem {
    /// Register size.
    pub qubits: usize,
    /// `(coefficient, Pauli word)` pairs, e.g. `(0.5, "ZZII")`.
    pub terms: Vec<(f64, String)>,
}

/// What Hamiltonian the job optimizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProblemSpec {
    /// A named benchmark from the suite registry.
    Suite(SuiteProblem),
    /// Explicit Pauli terms.
    Terms(TermsProblem),
}

/// A device from the backend registry ([`FakeBackend::by_name`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedBackend {
    /// Registry name (`"nairobi"`, `"toronto"`, `"mumbai"`, `"hanoi"`),
    /// optionally with a `-hw:<seed>` suffix for the perturbed
    /// hardware variant.
    pub name: String,
}

/// Where the ansatz executes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BackendSpec {
    /// No device: the logical register, untranspiled (noise comes entirely
    /// from the [`NoiseSpec`]).
    Logical,
    /// A registry device: the ansatz is transpiled onto its topology.
    Named(NamedBackend),
    /// A full inline backend snapshot (topology + calibration) — the spec
    /// stays self-contained for archived or perturbed devices that have no
    /// registry name.
    Snapshot(FakeBackend),
}

/// A spatially uniform noise environment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UniformNoise {
    /// Single-qubit depolarizing rate.
    pub p1: f64,
    /// Two-qubit depolarizing rate.
    pub p2: f64,
    /// Readout misassignment rate.
    pub readout: f64,
    /// Uniform T1 relaxation time in seconds (`null` = no relaxation).
    pub t1: Option<f64>,
}

/// Fully explicit per-qubit rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplicitNoise {
    /// Per-qubit single-qubit rates (length = register size).
    pub p1: Vec<f64>,
    /// Two-qubit rate applied to every pair.
    pub p2: f64,
    /// Per-qubit readout rates (length = register size).
    pub readout: Vec<f64>,
    /// Uniform T1 relaxation time in seconds (`null` = no relaxation).
    pub t1: Option<f64>,
}

/// The noise environment the loss optimizes against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NoiseSpec {
    /// Derive the model from the named backend's calibration snapshot
    /// (requires [`BackendSpec::Named`]).
    Backend,
    /// No noise at all.
    Noiseless,
    /// Uniform rates on every qubit/pair.
    Uniform(UniformNoise),
    /// Explicit per-qubit rates.
    Explicit(ExplicitNoise),
}

/// A follow-up VQE refinement stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VqeRefineSpec {
    /// SPSA iterations.
    pub iterations: usize,
}

/// One initialization / refinement method of the paper's evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MethodSpec {
    /// CAFQA: noiseless Clifford search over ansatz angles (prior art).
    Cafqa,
    /// Noise-aware CAFQA (§5.2).
    Ncafqa,
    /// Clapton: the Hamiltonian transformation search (§4).
    Clapton,
    /// VQE (SPSA) from every search method's initial point.
    VqeRefine(VqeRefineSpec),
}

/// The multi-GA engine effort.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EngineSpec {
    /// Reduced settings for tests and demos ([`MultiGaConfig::quick`]).
    Quick,
    /// The paper's hyper-parameters ([`MultiGaConfig::paper`]).
    Paper,
    /// Explicit engine hyper-parameters.
    Custom(MultiGaConfig),
}

impl EngineSpec {
    /// The engine configuration this effort level resolves to.
    pub fn resolve(&self) -> MultiGaConfig {
        match self {
            EngineSpec::Quick => MultiGaConfig::quick(),
            EngineSpec::Paper => MultiGaConfig::paper(),
            EngineSpec::Custom(config) => *config,
        }
    }
}

/// A fully serializable, versioned Clapton job description — the one
/// request type behind every entry point.
///
/// # Example
///
/// ```
/// use clapton_service::{JobSpec, ProblemSpec, SuiteProblem};
///
/// let json = r#"{
///     "problem": {"Suite": {"name": "ising(J=0.50)", "qubits": 4}},
///     "engine": "Quick",
///     "seed": 7
/// }"#;
/// let spec: JobSpec = serde_json::from_str(json).unwrap();
/// assert_eq!(spec.version, clapton_service::SPEC_VERSION);
/// assert_eq!(
///     spec.problem,
///     ProblemSpec::Suite(SuiteProblem { name: "ising(J=0.50)".into(), qubits: 4 })
/// );
/// let resolved = spec.validate().unwrap();
/// assert_eq!(resolved.hamiltonian.num_qubits(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Spec format version (defaults to [`SPEC_VERSION`]; versions newer
    /// than this build rejects).
    pub version: u32,
    /// Display name; empty = derived from the problem.
    pub name: String,
    /// What to optimize.
    pub problem: ProblemSpec,
    /// Where to execute (default: the plain logical register).
    pub backend: BackendSpec,
    /// The noise environment (default: noiseless).
    pub noise: NoiseSpec,
    /// Which methods to run (default: CAFQA + Clapton, the paper's
    /// baseline-versus-Clapton pairing).
    pub methods: Vec<MethodSpec>,
    /// Engine effort (default: the paper's settings).
    pub engine: EngineSpec,
    /// How the noisy loss `LN` is evaluated (default: exact).
    pub evaluator: EvaluatorKind,
    /// Base seed of every search the job runs.
    pub seed: u64,
    /// Ablation switch for the two-qubit transformation slots (default on).
    pub two_qubit_slots: bool,
    /// Optional Clapton round budget: after this many GA rounds the search
    /// suspends at a checkpoint instead of converging (resubmit to resume).
    pub budget: Option<u64>,
}

impl JobSpec {
    /// A spec for `problem` with every other field at its default.
    pub fn new(problem: ProblemSpec) -> JobSpec {
        JobSpec {
            version: SPEC_VERSION,
            name: String::new(),
            problem,
            backend: BackendSpec::Logical,
            noise: NoiseSpec::Noiseless,
            methods: vec![MethodSpec::Cafqa, MethodSpec::Clapton],
            engine: EngineSpec::Paper,
            evaluator: EvaluatorKind::Exact,
            seed: 0,
            two_qubit_slots: true,
            budget: None,
        }
    }

    /// The job's identity: this spec with the round budget cleared. The
    /// budget is execution *policy*, not identity — a job suspended under
    /// one budget may be finished by a resubmission with another (or none),
    /// and both name the same job, report and cache entry.
    pub fn identity(&self) -> JobSpec {
        JobSpec {
            budget: None,
            ..self.clone()
        }
    }

    /// The job's display name: the explicit `name` when set, otherwise a
    /// name derived from the problem.
    pub fn display_name(&self) -> String {
        if !self.name.is_empty() {
            return self.name.clone();
        }
        match &self.problem {
            ProblemSpec::Suite(p) => p.name.clone(),
            ProblemSpec::Terms(p) => format!("terms-{}q-{}t", p.qubits, p.terms.len()),
        }
    }

    /// Validates the spec and resolves every registry name, returning the
    /// executable form.
    ///
    /// # Errors
    ///
    /// A [`SpecError`] naming exactly what is wrong: unknown problem or
    /// backend names (with the available registry listed), qubit mismatches,
    /// registers over [`MAX_GROUND_ENERGY_QUBITS`] (or over
    /// [`MAX_DENSITY_QUBITS`] when the density matrix computes the job's
    /// device energies), probabilities outside
    /// `[0, 1]`, zero shot budgets, empty or inconsistent method sets, and
    /// unsupported spec versions.
    pub fn validate(&self) -> Result<ResolvedJob, SpecError> {
        if self.version > SPEC_VERSION {
            return Err(SpecError::UnsupportedVersion {
                version: self.version,
                supported: SPEC_VERSION,
            });
        }
        let hamiltonian = self.resolve_problem()?;
        let n = hamiltonian.num_qubits();
        let backend = match &self.backend {
            BackendSpec::Logical => None,
            BackendSpec::Named(named) => Some(FakeBackend::by_name(&named.name)?),
            BackendSpec::Snapshot(backend) => Some(backend.clone()),
        };
        if let Some(b) = &backend {
            if b.num_qubits() < n {
                return Err(SpecError::QubitMismatch {
                    context: format!("problem on backend {:?}", b.name()),
                    needed: n,
                    provided: b.num_qubits(),
                });
            }
        }
        let register = backend.as_ref().map_or(n, FakeBackend::num_qubits);
        let noise = self.resolve_noise(backend.as_ref(), register)?;
        let exec = match &backend {
            Some(b) => ExecutableAnsatz::on_device(n, b.coupling_map(), &noise).map_err(|e| {
                SpecError::InvalidField {
                    field: "backend".to_string(),
                    reason: e.to_string(),
                }
            })?,
            None => ExecutableAnsatz::untranspiled(n, &noise),
        };
        self.validate_methods()?;
        self.validate_evaluator()?;
        self.validate_engine()?;
        if self.budget == Some(0) {
            return Err(SpecError::InvalidField {
                field: "budget".to_string(),
                reason: "a zero round budget can never make progress".to_string(),
            });
        }
        let job = ResolvedJob {
            name: self.display_name(),
            hamiltonian,
            backend,
            exec,
            config: ClaptonConfig {
                engine: self.engine.resolve(),
                evaluator: self.evaluator,
                seed: self.seed,
                two_qubit_slots: self.two_qubit_slots,
            },
            methods: self.methods.clone(),
            budget: self.budget,
            spec: self.clone(),
        };
        // The density matrix computes every device energy under relaxation
        // and every VQE step (SPSA's θ is non-Clifford).
        let dense = job.exec.noise_model().has_relaxation() || job.vqe_iterations().is_some();
        if dense && job.exec.num_qubits() > MAX_DENSITY_QUBITS {
            return Err(SpecError::InvalidField {
                field: "problem.qubits".to_string(),
                reason: format!(
                    "{} qubits exceed the {MAX_DENSITY_QUBITS}-qubit limit of the density-matrix \
                     device model, which runs every energy under T1 relaxation and every \
                     VqeRefine step",
                    job.exec.num_qubits()
                ),
            });
        }
        Ok(job)
    }

    fn resolve_problem(&self) -> Result<PauliSum, SpecError> {
        match &self.problem {
            ProblemSpec::Suite(p) => {
                check_register(p.qubits)?;
                Ok(benchmark_by_name(&p.name, p.qubits)?.hamiltonian)
            }
            ProblemSpec::Terms(p) => {
                check_register(p.qubits)?;
                if p.terms.is_empty() {
                    return Err(SpecError::InvalidField {
                        field: "problem.terms".to_string(),
                        reason: "a problem needs at least one Pauli term".to_string(),
                    });
                }
                let mut h = PauliSum::new(p.qubits);
                for (coeff, word) in &p.terms {
                    let pauli: PauliString = word.parse().map_err(|e| SpecError::InvalidField {
                        field: "problem.terms".to_string(),
                        reason: format!("{word:?}: {e}"),
                    })?;
                    if pauli.num_qubits() != p.qubits {
                        return Err(SpecError::QubitMismatch {
                            context: format!("term {word:?}"),
                            needed: p.qubits,
                            provided: pauli.num_qubits(),
                        });
                    }
                    h.push(*coeff, pauli);
                }
                Ok(h)
            }
        }
    }

    fn resolve_noise(
        &self,
        backend: Option<&FakeBackend>,
        register: usize,
    ) -> Result<NoiseModel, SpecError> {
        let check = |context: &str, p: f64| -> Result<f64, SpecError> {
            if (0.0..=1.0).contains(&p) {
                Ok(p)
            } else {
                Err(SpecError::InvalidProbability {
                    context: context.to_string(),
                    value: p,
                })
            }
        };
        let check_t1 = |t1: Option<f64>| -> Result<Option<f64>, SpecError> {
            match t1 {
                Some(t) if t.is_nan() || t <= 0.0 => Err(SpecError::InvalidField {
                    field: "noise.t1".to_string(),
                    reason: format!("{t} is not a positive relaxation time"),
                }),
                other => Ok(other),
            }
        };
        match &self.noise {
            NoiseSpec::Backend => match backend {
                Some(b) => Ok(b.noise_model()),
                None => Err(SpecError::InvalidField {
                    field: "noise".to_string(),
                    reason: "Backend-derived noise needs a Named backend".to_string(),
                }),
            },
            NoiseSpec::Noiseless => Ok(NoiseModel::noiseless(register)),
            NoiseSpec::Uniform(u) => {
                let mut model = NoiseModel::uniform(
                    register,
                    check("noise.p1", u.p1)?,
                    check("noise.p2", u.p2)?,
                    check("noise.readout", u.readout)?,
                );
                if let Some(t1) = check_t1(u.t1)? {
                    model.set_t1_uniform(t1);
                }
                Ok(model)
            }
            NoiseSpec::Explicit(e) => {
                for (field, values) in [("p1", &e.p1), ("readout", &e.readout)] {
                    if values.len() != register {
                        return Err(SpecError::QubitMismatch {
                            context: format!("noise.{field}"),
                            needed: register,
                            provided: values.len(),
                        });
                    }
                }
                let mut model = NoiseModel::noiseless(register);
                for (q, &p) in e.p1.iter().enumerate() {
                    model.set_p1(q, check(&format!("noise.p1[{q}]"), p)?);
                }
                for (q, &p) in e.readout.iter().enumerate() {
                    model.set_readout(q, check(&format!("noise.readout[{q}]"), p)?);
                }
                model.set_p2_default(check("noise.p2", e.p2)?);
                if let Some(t1) = check_t1(e.t1)? {
                    model.set_t1_uniform(t1);
                }
                Ok(model)
            }
        }
    }

    fn validate_methods(&self) -> Result<(), SpecError> {
        if self.methods.is_empty() {
            return Err(SpecError::InvalidField {
                field: "methods".to_string(),
                reason: "a job must run at least one method".to_string(),
            });
        }
        let mut search_methods = 0usize;
        let mut vqe_stages = 0usize;
        for (i, method) in self.methods.iter().enumerate() {
            if self.methods[..i].contains(method) {
                return Err(SpecError::InvalidField {
                    field: "methods".to_string(),
                    reason: format!("duplicate method {method:?}"),
                });
            }
            match method {
                MethodSpec::Cafqa | MethodSpec::Ncafqa | MethodSpec::Clapton => search_methods += 1,
                MethodSpec::VqeRefine(v) => {
                    // Only the first VqeRefine would ever run, so a second
                    // one (even with different iterations) is a mistake,
                    // not a request.
                    vqe_stages += 1;
                    if vqe_stages > 1 {
                        return Err(SpecError::InvalidField {
                            field: "methods".to_string(),
                            reason: "at most one VqeRefine stage per job".to_string(),
                        });
                    }
                    if v.iterations == 0 {
                        return Err(SpecError::InvalidField {
                            field: "methods.VqeRefine.iterations".to_string(),
                            reason: "zero iterations refine nothing".to_string(),
                        });
                    }
                }
            }
        }
        if search_methods == 0 {
            return Err(SpecError::InvalidField {
                field: "methods".to_string(),
                reason: "VqeRefine needs a search method (Cafqa, Ncafqa, or Clapton) to start from"
                    .to_string(),
            });
        }
        Ok(())
    }

    fn validate_evaluator(&self) -> Result<(), SpecError> {
        if let EvaluatorKind::Sampled { shots: 0, .. } = self.evaluator {
            return Err(SpecError::ZeroShots);
        }
        Ok(())
    }

    fn validate_engine(&self) -> Result<(), SpecError> {
        let engine = self.engine.resolve();
        // The least value of each size; a GA breeds from two parents.
        for (field, value, least) in [
            ("engine.instances", engine.instances, 1),
            ("engine.top_k", engine.top_k, 1),
            ("engine.max_rounds", engine.max_rounds, 1),
            ("engine.ga.population_size", engine.ga.population_size, 2),
            ("engine.ga.generations", engine.ga.generations, 1),
        ] {
            if value < least {
                return Err(SpecError::InvalidField {
                    field: field.to_string(),
                    reason: format!("must be at least {least}"),
                });
            }
        }
        Ok(())
    }
}

/// A problem register the job body can solve: at least one qubit, and no
/// more than the exact `E0` solver takes.
fn check_register(qubits: usize) -> Result<(), SpecError> {
    let reason = if qubits == 0 {
        "register must have at least one qubit".to_string()
    } else if qubits > MAX_GROUND_ENERGY_QUBITS {
        format!(
            "{qubits} qubits exceed the {MAX_GROUND_ENERGY_QUBITS}-qubit limit of the exact \
             ground-energy solver"
        )
    } else {
        return Ok(());
    };
    Err(SpecError::InvalidField {
        field: "problem.qubits".to_string(),
        reason,
    })
}

// Hand-written serde impls: the vendored derive cannot express per-field
// defaults, and a spec file should not have to spell out every knob. Every
// field except `problem` is optional on the wire; unknown fields are
// ignored (forward compatibility), and the field order below is the
// canonical serialized order.
impl Serialize for JobSpec {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::Value;
        serializer.serialize_value(Value::Map(vec![
            ("version".to_string(), serde::to_value(&self.version)),
            ("name".to_string(), serde::to_value(&self.name)),
            ("problem".to_string(), serde::to_value(&self.problem)),
            ("backend".to_string(), serde::to_value(&self.backend)),
            ("noise".to_string(), serde::to_value(&self.noise)),
            ("methods".to_string(), serde::to_value(&self.methods)),
            ("engine".to_string(), serde::to_value(&self.engine)),
            ("evaluator".to_string(), serde::to_value(&self.evaluator)),
            ("seed".to_string(), serde::to_value(&self.seed)),
            (
                "two_qubit_slots".to_string(),
                serde::to_value(&self.two_qubit_slots),
            ),
            ("budget".to_string(), serde::to_value(&self.budget)),
        ]))
    }
}

impl<'de> Deserialize<'de> for JobSpec {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        use serde::Value;
        let mut map = match deserializer.take_value()? {
            Value::Map(m) => m,
            other => {
                return Err(D::Error::custom(format!(
                    "expected map for JobSpec, found {other:?}"
                )))
            }
        };
        // A missing optional field gets its default; `null` also means
        // "default" for non-Option fields so hand-edited specs can blank a
        // knob without deleting the line.
        fn opt<T: serde::de::DeserializeOwned, E: serde::de::Error>(
            map: &mut Vec<(String, Value)>,
            name: &str,
            default: T,
        ) -> Result<T, E> {
            match map.iter().position(|(k, _)| k == name) {
                Some(at) => {
                    let (_, v) = map.remove(at);
                    if v == Value::Null {
                        return Ok(default);
                    }
                    serde::from_value(v).map_err(|e| E::custom(format!("field `{name}`: {e}")))
                }
                None => Ok(default),
            }
        }
        let problem = serde::take_field(&mut map, "problem").map_err(D::Error::custom)?;
        let defaults = JobSpec::new(ProblemSpec::Terms(TermsProblem {
            qubits: 1,
            terms: Vec::new(),
        }));
        Ok(JobSpec {
            version: opt(&mut map, "version", SPEC_VERSION)?,
            name: opt(&mut map, "name", String::new())?,
            problem,
            backend: opt(&mut map, "backend", defaults.backend)?,
            noise: opt(&mut map, "noise", defaults.noise)?,
            methods: opt(&mut map, "methods", defaults.methods)?,
            engine: opt(&mut map, "engine", defaults.engine)?,
            evaluator: opt(&mut map, "evaluator", defaults.evaluator)?,
            seed: opt(&mut map, "seed", defaults.seed)?,
            two_qubit_slots: opt(&mut map, "two_qubit_slots", defaults.two_qubit_slots)?,
            budget: opt(&mut map, "budget", None)?,
        })
    }
}

/// The validated, executable form of a [`JobSpec`]: every registry name
/// resolved, every invariant checked. Produced only by
/// [`JobSpec::validate`].
#[derive(Debug, Clone)]
pub struct ResolvedJob {
    /// Display name.
    pub name: String,
    /// The problem Hamiltonian.
    pub hamiltonian: PauliSum,
    /// The resolved backend, when one was named.
    pub backend: Option<FakeBackend>,
    /// The transpiled (or untranspiled) executable ansatz carrying the
    /// resolved noise model.
    pub exec: ExecutableAnsatz,
    /// The Clapton engine configuration (engine + evaluator + seed +
    /// ablation switch).
    pub config: ClaptonConfig,
    /// Methods to run, in spec order.
    pub methods: Vec<MethodSpec>,
    /// Clapton round budget (None = run to convergence).
    pub budget: Option<u64>,
    /// The spec this job resolved from (persisted next to run artifacts so
    /// any run is reproducible from its spec alone).
    pub spec: JobSpec,
}

impl ResolvedJob {
    /// Whether `method` is part of this job.
    pub fn runs(&self, method: &MethodSpec) -> bool {
        self.methods.contains(method)
    }

    /// The VQE refinement iterations, when requested.
    pub fn vqe_iterations(&self) -> Option<usize> {
        self.methods.iter().find_map(|m| match m {
            MethodSpec::VqeRefine(v) => Some(v.iterations),
            _ => None,
        })
    }
}
