//! Figure 9 — classical compute scaling of the Clapton optimization with
//! qubit count N, against the CAFQA baseline.
//!
//! For the Ising model (J = 0.25) on N = 11…40 qubits (reduced ranges below
//! paper scale unless `--full`), runs Clapton and CAFQA from several random
//! initial configurations, measuring total time to convergence `t` and time
//! per engine round `τ`. Prints both series and the paper's fits:
//! `τ_Clapton(N) ≈ c2·N² + c1·N + c0` (quadratic) and `τ_CAFQA(N)` (linear).
//!
//! Transpilation is skipped, as in §6.3 ("For the purpose of this study
//! transpilation is not required").

use clapton_bench::{linear_fit, quadratic_fit, Options};
use clapton_core::{run_cafqa, run_clapton, ClaptonConfig, EvaluatorKind, ExecutableAnsatz};
use clapton_models::ising;
use clapton_noise::NoiseModel;
use clapton_runtime::WorkerPool;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let options = Options::from_args();
    let pool = Arc::new(WorkerPool::new());
    let (ns, guesses): (Vec<usize>, usize) = match options.effort {
        0 => ((11..=19).step_by(4).collect(), 2),
        1 => ((11..=29).step_by(3).collect(), 3),
        _ => ((11..=40).collect(), 5),
    };
    println!(
        "{:>4} {:>12} {:>12} {:>8} {:>12} {:>12} {:>8} {:>8}",
        "N", "t_clap[s]", "tau_clap[s]", "rounds", "t_cafqa[s]", "tau_cafqa[s]", "rounds", "cache"
    );
    let mut xs = Vec::new();
    let mut tau_clapton = Vec::new();
    let mut tau_cafqa = Vec::new();
    for &n in &ns {
        let h = ising(n, 0.25);
        // Representative uniform noise (Clifford channels only matter here).
        let model = NoiseModel::uniform(n, 3e-4, 8e-3, 2e-2);
        let exec = ExecutableAnsatz::untranspiled(n, &model);
        let mut t_clap = 0.0;
        let mut rounds_clap = 0usize;
        let mut t_caf = 0.0;
        let mut rounds_caf = 0usize;
        let mut unique_evals = 0u64;
        let mut cache_hits = 0u64;
        for g in 0..guesses {
            let seed = options.seed + g as u64;
            let start = Instant::now();
            let result = run_clapton(
                &h,
                &exec,
                &ClaptonConfig {
                    engine: options.engine(),
                    evaluator: EvaluatorKind::Exact,
                    seed,
                    two_qubit_slots: true,
                },
                &pool,
            );
            t_clap += start.elapsed().as_secs_f64();
            rounds_clap += result.rounds;
            unique_evals += result.unique_evaluations;
            cache_hits += result.cache_hits;
            let start = Instant::now();
            let result = run_cafqa(&h, &exec, &options.engine(), seed, &pool);
            t_caf += start.elapsed().as_secs_f64();
            rounds_caf += result.rounds;
        }
        let tau_c = t_clap / rounds_clap as f64;
        let tau_f = t_caf / rounds_caf as f64;
        let hit_rate = cache_hits as f64 / (cache_hits + unique_evals).max(1) as f64;
        println!(
            "{n:>4} {t_clap:>12.3} {tau_c:>12.4} {:>8.1} {t_caf:>12.3} {tau_f:>12.4} {:>8.1} {:>7.1}%",
            rounds_clap as f64 / guesses as f64,
            rounds_caf as f64 / guesses as f64,
            100.0 * hit_rate,
        );
        xs.push(n as f64);
        tau_clapton.push(tau_c);
        tau_cafqa.push(tau_f);
    }
    let (c2, c1, c0) = quadratic_fit(&xs, &tau_clapton);
    let (l1, l0) = linear_fit(&xs, &tau_cafqa);
    println!("\n# Clapton fit: tau(N)[s] = {c2:.4}*N^2 + {c1:.4}*N + {c0:.4}");
    println!("# CAFQA   fit: tau(N)[s] = {l1:.4}*N + {l0:.4}");
    // Shape check mirrored from the paper: Clapton pays a super-linear
    // premium over CAFQA's noiseless-only evaluation.
    let ratio_small = tau_clapton.first().unwrap() / tau_cafqa.first().unwrap();
    let ratio_large = tau_clapton.last().unwrap() / tau_cafqa.last().unwrap();
    println!(
        "# Clapton/CAFQA round-time ratio: {ratio_small:.2}x at N={} -> {ratio_large:.2}x at N={}",
        ns.first().unwrap(),
        ns.last().unwrap()
    );
}
