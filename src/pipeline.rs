//! The end-to-end application-to-device pipeline — the "framework" face of
//! the reproduction (§1: "Clapton is built as an end-to-end
//! application-to-device framework").
//!
//! [`Pipeline`] is now a thin *builder over [`JobSpec`]*: it collects the
//! same knobs as before (Hamiltonian → backend/noise → engine → optional
//! VQE), compiles them into the one serializable request type via
//! [`Pipeline::to_spec`], and executes through [`ClaptonService`]. The
//! builder surface and the [`Report`] shape are unchanged, and results are
//! bit-identical to the pre-service pipeline; what changed is that every
//! pipeline run is now *also* expressible as a JSON document — write
//! `to_spec()` to disk and any other entry point (the suite-runner CLI, a
//! future daemon) reproduces it exactly.

use clapton_core::{CafqaResult, ClaptonConfig, ClaptonResult};
use clapton_devices::FakeBackend;
use clapton_ga::MultiGaConfig;
use clapton_noise::NoiseModel;
use clapton_pauli::PauliSum;
use clapton_runtime::WorkerPool;
use clapton_service::{
    BackendSpec, ClaptonService, EngineSpec, JobSpec, MethodSpec, NamedBackend, NoiseSpec,
    ProblemSpec, TermsProblem, UniformNoise, VqeRefineSpec,
};
use clapton_vqe::VqeTrace;
use std::sync::Arc;

/// Builder for an end-to-end Clapton run.
///
/// # Example
///
/// ```
/// use clapton::pipeline::Pipeline;
/// use clapton::models::ising;
///
/// let report = Pipeline::new(ising(4, 0.5))
///     .with_uniform_noise(1e-3, 1e-2, 2e-2)
///     .quick(7)
///     .run();
/// // Clapton's initial point is at least as good as CAFQA's on this model.
/// assert!(report.clapton_initial_energy <= report.cafqa_initial_energy + 1e-9);
/// assert!(report.eta_initial >= 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    hamiltonian: PauliSum,
    backend: Option<FakeBackend>,
    model: Option<NoiseModel>,
    /// Single source of truth for both the Clapton run and the baseline
    /// searches — the engine settings live inside [`ClaptonConfig`].
    clapton: ClaptonConfig,
    vqe_iterations: Option<usize>,
    /// Shared runtime pool the service executes on (None = a pool private
    /// to this run).
    pool: Option<Arc<WorkerPool>>,
}

/// Everything an end-to-end run produces.
#[derive(Debug, Clone)]
pub struct Report {
    /// Exact ground energy `E0` of the problem.
    pub e0: f64,
    /// CAFQA baseline search result.
    pub cafqa: CafqaResult,
    /// Clapton search result (transformation included).
    pub clapton: ClaptonResult,
    /// Device-model energy of the CAFQA initial point.
    pub cafqa_initial_energy: f64,
    /// Device-model energy of the Clapton initial point (θ = 0 on `Ĥ`).
    pub clapton_initial_energy: f64,
    /// η of Clapton over CAFQA at the initial point (Eq. 14).
    pub eta_initial: f64,
    /// VQE trace from the Clapton start (when VQE was requested).
    pub clapton_vqe: Option<VqeTrace>,
    /// VQE trace from the CAFQA start (when VQE was requested).
    pub cafqa_vqe: Option<VqeTrace>,
}

impl Pipeline {
    /// Starts a pipeline for a problem Hamiltonian.
    pub fn new(hamiltonian: PauliSum) -> Pipeline {
        Pipeline {
            hamiltonian,
            backend: None,
            model: None,
            clapton: ClaptonConfig::paper(),
            vqe_iterations: None,
            pool: None,
        }
    }

    /// Runs the job's searches (CAFQA and Clapton alike) on a shared
    /// persistent [`WorkerPool`] — the runtime substrate suite runs and
    /// concurrent pipelines share. Results are bit-identical to the
    /// private-pool path.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Pipeline {
        self.pool = Some(pool);
        self
    }

    /// Targets a fake backend (topology + calibration snapshot).
    #[must_use]
    pub fn on_backend(mut self, backend: FakeBackend) -> Pipeline {
        self.backend = Some(backend);
        self.model = None;
        self
    }

    /// Targets a plain uniform noise model without transpilation.
    #[must_use]
    pub fn with_uniform_noise(mut self, p1: f64, p2: f64, readout: f64) -> Pipeline {
        self.model = Some(NoiseModel::uniform(
            self.hamiltonian.num_qubits(),
            p1,
            p2,
            readout,
        ));
        self.backend = None;
        self
    }

    /// Uses reduced search settings seeded by `seed` (for tests/demos).
    #[must_use]
    pub fn quick(mut self, seed: u64) -> Pipeline {
        self.clapton = ClaptonConfig::quick(seed);
        self
    }

    /// Overrides the multi-GA engine settings used by Clapton and the
    /// baseline searches alike.
    #[must_use]
    pub fn with_engine(mut self, engine: MultiGaConfig) -> Pipeline {
        self.clapton.engine = engine;
        self
    }

    /// Overrides the full Clapton configuration (engine, evaluator kind,
    /// seed, ablation switches).
    #[must_use]
    pub fn with_clapton_config(mut self, config: ClaptonConfig) -> Pipeline {
        self.clapton = config;
        self
    }

    /// Enables a follow-up VQE of `iterations` SPSA steps from both starts.
    #[must_use]
    pub fn with_vqe(mut self, iterations: usize) -> Pipeline {
        self.vqe_iterations = Some(iterations);
        self
    }

    /// Compiles the builder state into the serializable [`JobSpec`] the run
    /// executes — the declarative form of this exact pipeline. Writing it to
    /// JSON and submitting it through any entry point reproduces the run
    /// bit-identically.
    pub fn to_spec(&self) -> JobSpec {
        let n = self.hamiltonian.num_qubits();
        let problem = ProblemSpec::Terms(TermsProblem {
            qubits: n,
            terms: self
                .hamiltonian
                .iter()
                .map(|(c, p)| (c, p.to_string()))
                .collect(),
        });
        let (backend, noise) = match (&self.backend, &self.model) {
            (Some(b), _) => {
                // Registry devices compile to their name; anything else
                // (hardware variants, archived snapshots) inlines the full
                // snapshot so the spec stays self-contained.
                let spec = match FakeBackend::by_name(b.name()) {
                    Ok(registered) if &registered == b => BackendSpec::Named(NamedBackend {
                        name: b.name().to_string(),
                    }),
                    _ => BackendSpec::Snapshot(b.clone()),
                };
                (spec, NoiseSpec::Backend)
            }
            (None, Some(model)) => (
                BackendSpec::Logical,
                NoiseSpec::Uniform(UniformNoise {
                    p1: model.p1(0),
                    p2: model.p2(0, 1),
                    readout: model.readout(0),
                    t1: None,
                }),
            ),
            (None, None) => (BackendSpec::Logical, NoiseSpec::Noiseless),
        };
        let mut methods = vec![MethodSpec::Cafqa, MethodSpec::Clapton];
        if let Some(iterations) = self.vqe_iterations {
            methods.push(MethodSpec::VqeRefine(VqeRefineSpec { iterations }));
        }
        let engine = EngineSpec::from_config(self.clapton.engine);
        let mut spec = JobSpec::new(problem);
        spec.backend = backend;
        spec.noise = noise;
        spec.methods = methods;
        spec.engine = engine;
        spec.evaluator = self.clapton.evaluator;
        spec.seed = self.clapton.seed;
        spec.two_qubit_slots = self.clapton.two_qubit_slots;
        spec
    }

    /// Executes the pipeline through [`ClaptonService`].
    ///
    /// # Panics
    ///
    /// Panics if the compiled spec fails validation (the problem does not
    /// fit the chosen backend) — the builder's historical contract.
    pub fn run(self) -> Report {
        let service = match &self.pool {
            Some(pool) => ClaptonService::with_pool(Arc::clone(pool)),
            None => ClaptonService::new(),
        };
        let spec = self.to_spec();
        let report = service
            .run(spec)
            .unwrap_or_else(|e| panic!("pipeline job failed: {e}"));
        Report {
            e0: report.e0,
            cafqa: report.cafqa.expect("pipeline always runs CAFQA"),
            clapton: report.clapton.expect("pipeline always runs Clapton"),
            cafqa_initial_energy: report
                .cafqa_initial_energy
                .expect("pipeline always scores CAFQA"),
            clapton_initial_energy: report
                .clapton_initial_energy
                .expect("pipeline always scores Clapton"),
            eta_initial: report.eta_initial.expect("both methods present"),
            clapton_vqe: report.clapton_vqe,
            cafqa_vqe: report.cafqa_vqe,
        }
    }
}
