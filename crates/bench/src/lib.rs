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
//! | `ablation` | two-qubit transformation slots and exact vs sampled `LN` |
//! | `suite` | the benchmark suite and CAFQA's Clifford accuracy (§2.5) |
//!
//! `fig2`, `fig5`–`fig8` and `ablation` build [`JobSpec`]s with
//! [`Options::spec`] and run them through [`ClaptonService`] with
//! [`reports`]: the one job body the server and `suite-runner` run too.
//! `fig9` times the searches and `suite` runs CAFQA directly.
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

use clapton_ga::{GaConfig, MultiGaConfig};
use clapton_models::benchmark_names;
use clapton_service::{
    BackendSpec, ClaptonService, EngineSpec, JobSpec, MethodSpec, NamedBackend, NoiseSpec,
    ProblemSpec, Report, SuiteProblem, UniformNoise,
};

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

    /// The GA engine effort for this effort level: the named quick and
    /// paper levels, and explicit settings in between.
    pub fn engine_spec(&self) -> EngineSpec {
        match self.effort {
            0 => EngineSpec::Quick,
            1 => EngineSpec::Custom(MultiGaConfig {
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
            }),
            _ => EngineSpec::Paper,
        }
    }

    /// The GA engine settings for this effort level.
    pub fn engine(&self) -> MultiGaConfig {
        self.engine_spec().resolve()
    }

    /// A spec for the registry problem `name` on `qubits` qubits, with this
    /// effort level's engine and the base seed; every other field at its
    /// default.
    pub fn spec(&self, name: &str, qubits: usize) -> JobSpec {
        let mut spec = JobSpec::new(ProblemSpec::Suite(SuiteProblem {
            name: name.to_string(),
            qubits,
        }));
        spec.engine = self.engine_spec();
        spec.seed = self.seed;
        spec
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
        benchmark_names(self.qubits)
            .iter()
            .enumerate()
            .map(|(index, name)| {
                let mut spec = self.options.spec(name, self.qubits);
                spec.noise = NoiseSpec::Uniform(UniformNoise {
                    p1,
                    p2,
                    readout,
                    t1: None,
                });
                spec.methods = vec![MethodSpec::Clapton];
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

/// Runs `specs` as one [`ClaptonService::run_all`] batch and returns their
/// reports in submission order.
///
/// # Panics
///
/// Panics with the error of a spec that does not validate or a job that
/// fails.
pub fn reports(service: &ClaptonService, specs: Vec<JobSpec>) -> Vec<Report> {
    service
        .run_all(specs, None)
        .unwrap_or_else(|e| panic!("figure spec rejected: {e}"))
        .into_iter()
        .map(|report| report.unwrap_or_else(|e| panic!("figure job failed: {e}")))
        .collect()
}

/// Shared sweep driver for Figures 7 and 8 (Ising, H2O, LiH and H6 by
/// effort level). For every `(benchmark, T1, sweep point p)` it builds one
/// spec on the `toronto` topology (§5.2.3)
/// with uniform noise `rates(p) = (p1, p2, readout)` plus the T1, running
/// nCAFQA and Clapton. All of them run in one batch; each prints η(initial)
/// under the full device model.
pub fn run_sweep(
    options: &Options,
    service: &ClaptonService,
    sweep: &[f64],
    rates: impl Fn(f64) -> (f64, f64, f64),
) {
    let t1s: &[f64] = match options.effort {
        0 => &[150e-6],
        1 => &[50e-6, 250e-6],
        _ => &[50e-6, 150e-6, 250e-6],
    };
    let benchmarks: &[&str] = match options.effort {
        0 => &["ising(J=1.00)"],
        1 => &["ising(J=1.00)", "H2O(l=1.0)", "LiH(l=4.5)"],
        _ => &["ising(J=1.00)", "H2O(l=1.0)", "LiH(l=4.5)", "H6(l=1.0)"],
    };
    let mut points = Vec::new();
    let mut specs = Vec::new();
    for &name in benchmarks {
        for &t1 in t1s {
            for &p in sweep {
                let (p1, p2, readout) = rates(p);
                let mut spec = options.spec(name, 10);
                spec.backend = BackendSpec::Named(NamedBackend {
                    name: "toronto".to_string(),
                });
                spec.noise = NoiseSpec::Uniform(UniformNoise {
                    p1,
                    p2,
                    readout,
                    t1: Some(t1),
                });
                spec.methods = vec![MethodSpec::Ncafqa, MethodSpec::Clapton];
                points.push((name, t1, p));
                specs.push(spec);
            }
        }
    }
    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>12} {:>8}",
        "benchmark", "p", "T1[us]", "E_nCAFQA(x)", "E_Clapton(x)", "eta"
    );
    for ((name, t1, p), report) in points.into_iter().zip(reports(service, specs)) {
        println!(
            "{:<14} {:>10.2e} {:>10.0} {:>12.5} {:>12.5} {:>8.3}",
            name,
            p,
            t1 * 1e6,
            report.ncafqa_initial_energy.expect("nCAFQA ran"),
            report.clapton_initial_energy.expect("Clapton ran"),
            report.eta_initial.expect("nCAFQA is the baseline")
        );
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
    use clapton_runtime::WorkerPool;
    use std::sync::Arc;

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
    fn figure_job_smoke() {
        let mut spec = Options { effort: 0, seed: 1 }.spec("ising(J=0.25)", 4);
        spec.backend = BackendSpec::Named(NamedBackend {
            name: "nairobi".to_string(),
        });
        spec.noise = NoiseSpec::Backend;
        spec.methods = vec![MethodSpec::Cafqa, MethodSpec::Ncafqa, MethodSpec::Clapton];
        let service = ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(0)));
        let report = &reports(&service, vec![spec])[0];
        let (cafqa, ncafqa, clapton) = (
            report.cafqa.as_ref().expect("CAFQA ran"),
            report.ncafqa.as_ref().expect("nCAFQA ran"),
            report.clapton.as_ref().expect("Clapton ran"),
        );
        let device = [
            report.cafqa_initial_energy,
            report.ncafqa_initial_energy,
            report.clapton_initial_energy,
        ]
        .map(|e| e.expect("every method has a device energy"));
        assert!(device.iter().all(|e| e.is_finite()), "{device:?}");
        // Noiseless values respect the variational bound.
        for (method, noiseless) in [
            ("CAFQA", cafqa.energy_noiseless),
            ("nCAFQA", ncafqa.energy_noiseless),
            ("Clapton", clapton.loss_0),
        ] {
            assert!(noiseless >= report.e0 - 1e-6, "{method}: {noiseless}");
        }
        // Clapton's device energy beats CAFQA's on this noisy backend.
        assert!(
            device[2] <= device[0] + 1e-9,
            "clapton {} vs cafqa {}",
            device[2],
            device[0]
        );
    }
}
