//! Benchmark-suite statistics: reproduces the paper's background claim that
//! Clifford (stabilizer) initial states reach 90-99% of the ground-state
//! energy (§2.5, citing CAFQA \[38\]), and prints the structural properties of
//! every benchmark instance.

use clapton_bench::Options;
use clapton_core::{run_cafqa, ExecutableAnsatz};
use clapton_models::benchmark_suite;
use clapton_noise::NoiseModel;
use clapton_runtime::WorkerPool;
use clapton_sim::ground_energy;
use std::sync::Arc;

fn main() {
    let options = Options::from_args();
    let pool = Arc::new(WorkerPool::new());
    println!(
        "{:<14} {:>6} {:>6} {:>12} {:>12} {:>12} {:>10}",
        "benchmark", "N", "terms", "E_mixed", "E0", "E_CAFQA", "accuracy"
    );
    for bench in benchmark_suite(10) {
        let h = &bench.hamiltonian;
        let n = h.num_qubits();
        let e0 = ground_energy(h);
        let e_mixed = h.identity_coefficient();
        let exec = ExecutableAnsatz::untranspiled(n, &NoiseModel::noiseless(n));
        let cafqa = run_cafqa(h, &exec, &options.engine(), options.seed, &pool);
        // Accuracy per CAFQA's definition: fraction of the mixed-to-ground
        // gap closed by the best Clifford state.
        let accuracy = (e_mixed - cafqa.energy_noiseless) / (e_mixed - e0);
        println!(
            "{:<14} {:>6} {:>6} {:>12.5} {:>12.5} {:>12.5} {:>9.1}%",
            bench.name,
            n,
            h.num_terms(),
            e_mixed,
            e0,
            cafqa.energy_noiseless,
            100.0 * accuracy
        );
    }
}
