//! Device tour: the same physics problem initialized with Clapton on every
//! fake backend, showing how the transformation adapts to each machine's
//! calibration — and what happens when the real hardware deviates from the
//! calibration snapshot (the `hanoi` experiment of §6.1).
//!
//! ```sh
//! cargo run --release --example device_noise_tour
//! ```

use clapton::core::{
    device_energy, relative_improvement, run_cafqa, run_clapton, ClaptonConfig, ExecutableAnsatz,
    WorkerPool,
};
use clapton::devices::FakeBackend;
use clapton::ga::MultiGaConfig;
use clapton::models::ising;
use clapton::sim::ground_energy;
use std::sync::Arc;

fn main() {
    let pool = Arc::new(WorkerPool::new());
    println!(
        "{:<10} {:>8} {:>12} {:>12} {:>8} {:>14}",
        "backend", "N", "E_CAFQA(x)", "E_Clapton(x)", "eta", "E_Clapton(hw*)"
    );
    for backend in FakeBackend::all() {
        // nairobi is a 7-qubit device; the rest host 10 qubits.
        let n = if backend.num_qubits() < 10 { 7 } else { 10 };
        let h = ising(n, 0.5);
        let e0 = ground_energy(&h);
        let exec = ExecutableAnsatz::on_device(n, backend.coupling_map(), &backend.noise_model())
            .expect("backend hosts the chain");
        let zeros = vec![0.0; exec.ansatz().num_parameters()];
        let cafqa = run_cafqa(&h, &exec, &MultiGaConfig::quick(), 0, &pool);
        let e_cafqa = device_energy(&exec, &h, &cafqa.theta);
        let clapton = run_clapton(&h, &exec, &ClaptonConfig::quick(1), &pool);
        let e_clapton = device_energy(&exec, &clapton.transformation.transformed, &zeros);
        // Evaluate the same transformation on the perturbed hardware variant
        // (the calibration/device discrepancy).
        let hw = backend.hardware_variant(99);
        let exec_hw = ExecutableAnsatz::on_device(n, hw.coupling_map(), &hw.noise_model())
            .expect("hardware variant hosts the chain");
        let e_clapton_hw = device_energy(&exec_hw, &clapton.transformation.transformed, &zeros);
        println!(
            "{:<10} {:>8} {:>12.5} {:>12.5} {:>8.2} {:>14.5}",
            backend.name(),
            n,
            e_cafqa,
            e_clapton,
            relative_improvement(e0, e_cafqa, e_clapton),
            e_clapton_hw
        );
    }
    println!("\nhw* = nominal-calibration transformation evaluated under perturbed hardware noise");
}
