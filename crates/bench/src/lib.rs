//! Experiment harness shared by the per-figure binaries.
//!
//! Each binary regenerates one figure of the paper's evaluation:
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `fig2` | Figure 2 — key result on one benchmark |
//! | `fig5` | Figure 5 — initial/final energies and η across backends × benchmarks |
//! | `fig6` | Figure 6 — VQE convergence traces (XXZ J=0.25 / J=1.00) |
//! | `fig7` | Figure 7 — η vs gate-error sweep |
//! | `fig8` | Figure 8 — η vs measurement-error sweep |
//! | `fig9` | Figure 9 — Clapton/CAFQA optimization-time scaling with N |
//!
//! All binaries accept `--quick` (reduced hyper-parameters; the default is a
//! middle ground) and `--full` (paper-scale settings), plus `--seed <u64>`.

pub mod chaos;
pub mod shard;

pub use chaos::{chaos_schedule, run_chaos_suite, schedule_spec, ChaosOutcome};
pub use shard::{
    merge_shards, read_queue, run_shard_worker, shard_status, write_queue, MergedJob,
    MergedManifest, ShardJobOutcome, ShardOutcome, ShardStatusRow, ShardWorkerConfig,
    MERGED_MANIFEST_ARTIFACT, QUEUE_ARTIFACT,
};

use clapton_core::{
    relative_improvement, run_cafqa, run_clapton, run_ncafqa, CafqaResult, ClaptonConfig,
    ClaptonResult, EvaluatorKind, ExecutableAnsatz, LossFunction,
};
use clapton_devices::FakeBackend;
use clapton_ga::{GaConfig, MultiGaConfig};
use clapton_models::benchmark_suite;
use clapton_noise::NoiseModel;
use clapton_pauli::PauliSum;
use clapton_runtime::WorkerPool;
use clapton_service::{
    EngineSpec, JobSpec, MethodSpec, NoiseSpec, ProblemSpec, SuiteProblem, UniformNoise,
};
use clapton_sim::{ground_energy, DeviceEvaluator};
use std::sync::Arc;

/// Command-line options shared by all figure binaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Effort scale: 0 = quick, 1 = default, 2 = full (paper scale).
    pub effort: u8,
    /// Base seed.
    pub seed: u64,
}

impl Options {
    /// Parses `--quick`, `--full` and `--seed <u64>` from `std::env::args`.
    pub fn from_args() -> Options {
        let mut options = Options { effort: 1, seed: 0 };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => options.effort = 0,
                "--full" => options.effort = 2,
                "--seed" => {
                    i += 1;
                    options.seed = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--seed needs a u64 argument"));
                }
                other => panic!("unknown argument {other} (try --quick / --full / --seed N)"),
            }
            i += 1;
        }
        options
    }

    /// The GA engine settings for this effort level.
    pub fn engine(&self) -> MultiGaConfig {
        match self.effort {
            0 => MultiGaConfig::quick(),
            1 => MultiGaConfig {
                instances: 4,
                top_k: 10,
                max_retry_rounds: 1,
                max_rounds: 12,
                pool_fraction: 0.5,
                parallel: true,
                ga: GaConfig {
                    population_size: 50,
                    generations: 40,
                    ..GaConfig::default()
                },
            },
            _ => MultiGaConfig::paper(),
        }
    }

    /// The number of VQE iterations for this effort level.
    pub fn vqe_iterations(&self) -> usize {
        match self.effort {
            0 => 30,
            1 => 120,
            _ => 300,
        }
    }
}

/// The uniform device model the suite scores against (the same rates as the
/// `population_batch` bench, so suite wall-clock tracks the bench rows).
const SUITE_NOISE: (f64, f64, f64) = (3e-4, 8e-3, 2e-2);

/// The paper's benchmark suite (12 instances at `N = 10`, Figure 5): its
/// [`SuiteConfig::specs`] list is what `suite-runner` queues by default
/// (see [`shard`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteConfig {
    /// Effort scale and base seed (the CLI's `--quick`/`--full`/`--seed`).
    pub options: Options,
    /// Physics-suite register size; `10` includes the chemistry benchmarks
    /// for the paper's full 12-instance suite.
    pub qubits: usize,
}

impl SuiteConfig {
    /// Human-readable effort name, used in the default run name.
    pub fn profile(&self) -> &'static str {
        match self.options.effort {
            0 => "quick",
            1 => "default",
            _ => "full",
        }
    }

    /// One [`JobSpec`] per benchmark: the suite noise model, Clapton only,
    /// the effort level's engine, and a per-job seed derived from the base
    /// seed. `suite-runner --emit-specs` writes this list; `--specs` runs
    /// it (or any hand-edited variant).
    pub fn specs(&self) -> Vec<JobSpec> {
        let (p1, p2, readout) = SUITE_NOISE;
        benchmark_suite(self.qubits)
            .iter()
            .enumerate()
            .map(|(index, bench)| {
                let mut spec = JobSpec::new(ProblemSpec::Suite(SuiteProblem {
                    name: bench.name.clone(),
                    qubits: self.qubits,
                }));
                spec.noise = NoiseSpec::Uniform(UniformNoise {
                    p1,
                    p2,
                    readout,
                    t1: None,
                });
                spec.methods = vec![MethodSpec::Clapton];
                spec.engine = EngineSpec::from_config(self.options.engine());
                spec.seed = job_seed(self.options.seed, index);
                spec
            })
            .collect()
    }
}

/// The per-job seed: the base seed mixed with the (stable) job index, so
/// jobs are decorrelated but the whole suite reproduces from one `--seed`.
fn job_seed(base: u64, index: usize) -> u64 {
    base ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The three energies the paper reports for one solution (Figures 2 and 5):
/// noiseless (⋄), Clifford noise model (◦), full device model (×).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyTriple {
    /// Noiseless evaluation (lower bound; `L0`-like).
    pub noiseless: f64,
    /// Clifford (Pauli-channel) noise-model evaluation (`LN`).
    pub clifford_model: f64,
    /// Full density-matrix device-model evaluation.
    pub device: f64,
}

/// One initialization method's outcome on a benchmark.
#[derive(Debug, Clone)]
pub struct MethodOutcome {
    /// "CAFQA", "nCAFQA" or "Clapton".
    pub method: &'static str,
    /// Energies of the initial point.
    pub initial: EnergyTriple,
    /// The starting parameters for the follow-up VQE.
    pub theta0: Vec<f64>,
    /// The Hamiltonian the VQE optimizes (transformed for Clapton).
    pub vqe_hamiltonian: PauliSum,
}

/// A prepared benchmark instance on a backend.
pub struct Instance {
    /// Benchmark name.
    pub name: String,
    /// The original problem Hamiltonian.
    pub hamiltonian: PauliSum,
    /// Exact ground energy `E0`.
    pub e0: f64,
    /// Fully-mixed-state energy `E_ρ = tr(H)/2^N`.
    pub e_mixed: f64,
    /// The transpiled executable ansatz.
    pub exec: ExecutableAnsatz,
}

impl Instance {
    /// Prepares a benchmark on a backend: transpiles the ansatz and computes
    /// the exact references.
    ///
    /// # Panics
    ///
    /// Panics if the backend cannot host the benchmark.
    pub fn prepare(name: &str, hamiltonian: &PauliSum, backend: &FakeBackend) -> Instance {
        let n = hamiltonian.num_qubits();
        let exec = ExecutableAnsatz::on_device(n, backend.coupling_map(), &backend.noise_model())
            .unwrap_or_else(|e| panic!("cannot place {name} on {}: {e}", backend.name()));
        Instance {
            name: name.to_string(),
            hamiltonian: hamiltonian.clone(),
            e0: ground_energy(hamiltonian),
            e_mixed: hamiltonian.identity_coefficient(),
            exec,
        }
    }

    /// Evaluates the device-model energy of `A'(θ)` w.r.t. a logical
    /// Hamiltonian, optionally under a different ("hardware") noise model.
    pub fn device_energy(&self, h: &PauliSum, theta: &[f64], model: Option<&NoiseModel>) -> f64 {
        let circuit = self.exec.circuit(theta);
        let mapped = self.exec.map_hamiltonian(h);
        DeviceEvaluator::run(&circuit, model.unwrap_or_else(|| self.exec.noise_model()))
            .energy(&mapped)
    }

    /// Runs all three initialization methods on `pool` and evaluates their
    /// initial points in the three noise environments.
    pub fn run_methods(&self, options: &Options, pool: &Arc<WorkerPool>) -> Vec<MethodOutcome> {
        let loss = LossFunction::new(&self.exec, EvaluatorKind::Exact);
        let zeros = vec![0.0; self.exec.ansatz().num_parameters()];
        // CAFQA.
        let cafqa = run_cafqa(
            &self.hamiltonian,
            &self.exec,
            &options.engine(),
            options.seed,
            pool,
        );
        let cafqa_outcome = self.theta_outcome("CAFQA", &loss, &cafqa);
        // nCAFQA.
        let ncafqa = run_ncafqa(
            &self.hamiltonian,
            &self.exec,
            &options.engine(),
            EvaluatorKind::Exact,
            options.seed + 1,
            pool,
        );
        let ncafqa_outcome = self.theta_outcome("nCAFQA", &loss, &ncafqa);
        // Clapton.
        let clapton = self.run_clapton_only(options, pool);
        let clapton_outcome = MethodOutcome {
            method: "Clapton",
            initial: EnergyTriple {
                noiseless: clapton.loss_0,
                clifford_model: clapton.loss_n,
                device: self.device_energy(&clapton.transformation.transformed, &zeros, None),
            },
            theta0: zeros,
            vqe_hamiltonian: clapton.transformation.transformed.clone(),
        };
        vec![cafqa_outcome, ncafqa_outcome, clapton_outcome]
    }

    /// Builds the outcome record for a θ-space method (CAFQA/nCAFQA).
    fn theta_outcome(
        &self,
        method: &'static str,
        loss: &LossFunction<'_>,
        result: &CafqaResult,
    ) -> MethodOutcome {
        let circuit = self.exec.circuit(&result.theta);
        MethodOutcome {
            method,
            initial: EnergyTriple {
                noiseless: result.energy_noiseless,
                clifford_model: loss.loss_n_for_circuit(&circuit, &self.hamiltonian),
                device: self.device_energy(&self.hamiltonian, &result.theta, None),
            },
            theta0: result.theta.clone(),
            vqe_hamiltonian: self.hamiltonian.clone(),
        }
    }

    /// Runs Clapton only on `pool`: the sweep figures' search and
    /// [`Instance::run_methods`]'s Clapton leg.
    pub fn run_clapton_only(&self, options: &Options, pool: &Arc<WorkerPool>) -> ClaptonResult {
        run_clapton(
            &self.hamiltonian,
            &self.exec,
            &ClaptonConfig {
                engine: options.engine(),
                evaluator: EvaluatorKind::Exact,
                seed: options.seed + 2,
                two_qubit_slots: true,
            },
            pool,
        )
    }
}

/// Shared sweep driver for Figures 7 and 8: for every `(benchmark, T1,
/// sweep point)` builds the 27-qubit uniform noise model via `model_for`,
/// transpiles the ten-qubit ansatz onto the `toronto` topology (§5.2.3),
/// runs nCAFQA and Clapton on `pool`, and prints η(initial) under the full
/// device model.
pub fn run_sweep<F>(
    options: &Options,
    pool: &Arc<WorkerPool>,
    benchmarks: &[(&str, &PauliSum)],
    t1s: &[f64],
    sweep: &[f64],
    model_for: F,
) where
    F: Fn(f64, f64) -> NoiseModel,
{
    let backend = FakeBackend::toronto();
    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>12} {:>8}",
        "benchmark", "p", "T1[us]", "E_nCAFQA(x)", "E_Clapton(x)", "eta"
    );
    for &(name, h) in benchmarks {
        for &t1 in t1s {
            for &p in sweep {
                let model = model_for(p, t1);
                let exec =
                    ExecutableAnsatz::on_device(h.num_qubits(), backend.coupling_map(), &model)
                        .expect("toronto hosts ten qubits");
                let instance = Instance {
                    name: name.to_string(),
                    hamiltonian: h.clone(),
                    e0: ground_energy(h),
                    e_mixed: h.identity_coefficient(),
                    exec,
                };
                let zeros = vec![0.0; instance.exec.ansatz().num_parameters()];
                let ncafqa = run_ncafqa(
                    h,
                    &instance.exec,
                    &options.engine(),
                    EvaluatorKind::Exact,
                    options.seed + 1,
                    pool,
                );
                let clapton = instance.run_clapton_only(options, pool);
                let e_ncafqa = instance.device_energy(h, &ncafqa.theta, None);
                let e_clapton =
                    instance.device_energy(&clapton.transformation.transformed, &zeros, None);
                let eta = relative_improvement(instance.e0, e_ncafqa, e_clapton);
                println!(
                    "{:<14} {:>10.2e} {:>10.0} {:>12.5} {:>12.5} {:>8.3}",
                    name,
                    p,
                    t1 * 1e6,
                    e_ncafqa,
                    e_clapton,
                    eta
                );
            }
        }
    }
}

/// Least-squares fit of `y ≈ c2·x² + c1·x + c0`; returns `(c2, c1, c0)`.
///
/// # Panics
///
/// Panics with fewer than three points.
pub fn quadratic_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert!(xs.len() >= 3 && xs.len() == ys.len(), "need ≥3 points");
    // Normal equations for the 3-parameter polynomial.
    let n = xs.len() as f64;
    let (mut sx, mut sx2, mut sx3, mut sx4) = (0.0, 0.0, 0.0, 0.0);
    let (mut sy, mut sxy, mut sx2y) = (0.0, 0.0, 0.0);
    for (&x, &y) in xs.iter().zip(ys) {
        let x2 = x * x;
        sx += x;
        sx2 += x2;
        sx3 += x2 * x;
        sx4 += x2 * x2;
        sy += y;
        sxy += x * y;
        sx2y += x2 * y;
    }
    // Solve the 3x3 system [ [sx4 sx3 sx2], [sx3 sx2 sx], [sx2 sx n] ] c = b.
    let m = [[sx4, sx3, sx2], [sx3, sx2, sx], [sx2, sx, n]];
    let b = [sx2y, sxy, sy];
    let det = |m: &[[f64; 3]; 3]| -> f64 {
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    };
    let d = det(&m);
    assert!(d.abs() > 1e-12, "singular fit system");
    let replace = |col: usize| {
        let mut mm = m;
        for r in 0..3 {
            mm[r][col] = b[r];
        }
        det(&mm) / d
    };
    (replace(0), replace(1), replace(2))
}

/// Least-squares fit of `y ≈ c1·x + c0`; returns `(c1, c0)`.
///
/// # Panics
///
/// Panics with fewer than two points.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2 && xs.len() == ys.len(), "need ≥2 points");
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let sx2: f64 = xs.iter().map(|x| x * x).sum();
    let c1 = (n * sxy - sx * sy) / (n * sx2 - sx * sx);
    (c1, (sy - c1 * sx) / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapton_models::ising;

    #[test]
    fn quadratic_fit_recovers_coefficients() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 0.5 * x * x + 2.0 * x - 3.0).collect();
        let (c2, c1, c0) = quadratic_fit(&xs, &ys);
        assert!((c2 - 0.5).abs() < 1e-9);
        assert!((c1 - 2.0).abs() < 1e-9);
        assert!((c0 + 3.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_recovers_coefficients() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [3.0, 5.0, 7.0, 9.0];
        let (c1, c0) = linear_fit(&xs, &ys);
        assert!((c1 - 2.0).abs() < 1e-12);
        assert!((c0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn instance_preparation_and_methods_smoke() {
        let backend = FakeBackend::nairobi();
        let options = Options { effort: 0, seed: 1 };
        let h = ising(4, 0.25);
        let inst = Instance::prepare("ising4", &h, &backend);
        assert!(inst.e0 < inst.e_mixed);
        let outcomes = inst.run_methods(&options, &Arc::new(WorkerPool::with_workers(0)));
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            // Noiseless value lower-bounds the noisy evaluations... not in
            // general, but all must be finite and above E0 - ε.
            assert!(o.initial.device.is_finite());
            assert!(o.initial.noiseless >= inst.e0 - 1e-6, "{}", o.method);
        }
        // Clapton's device energy should beat CAFQA's on this noisy backend.
        let cafqa = &outcomes[0];
        let clapton = &outcomes[2];
        assert!(
            clapton.initial.device <= cafqa.initial.device + 1e-9,
            "clapton {} vs cafqa {}",
            clapton.initial.device,
            cafqa.initial.device
        );
    }
}
