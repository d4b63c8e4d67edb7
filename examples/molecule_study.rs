//! Chemistry study: compare CAFQA, nCAFQA and Clapton initializations for a
//! molecular Hamiltonian (the H2O surrogate) at equilibrium and stretched
//! bond lengths, on the `toronto` fake backend.
//!
//! ```sh
//! cargo run --release --example molecule_study
//! ```

use clapton::core::{
    device_energy, relative_improvement, run_cafqa, run_clapton, run_ncafqa, ClaptonConfig,
    EvaluatorKind, ExecutableAnsatz, WorkerPool,
};
use clapton::devices::FakeBackend;
use clapton::ga::MultiGaConfig;
use clapton::models::{molecular, Molecule};
use clapton::sim::ground_energy;
use std::sync::Arc;

fn main() {
    let pool = Arc::new(WorkerPool::new());
    let backend = FakeBackend::toronto();
    println!(
        "backend: {} ({} qubits, mean 2q error {:.1e}, mean readout {:.1e})",
        backend.name(),
        backend.num_qubits(),
        backend.calibration().mean_p2(),
        backend.calibration().mean_readout()
    );
    for bond_length in Molecule::H2O.bond_lengths() {
        let h = molecular(Molecule::H2O, bond_length);
        let e0 = ground_energy(&h);
        println!(
            "\n=== H2O at l = {bond_length} Å ({} terms, E0 = {:.5}) ===",
            h.num_terms(),
            e0
        );
        let exec = ExecutableAnsatz::on_device(
            h.num_qubits(),
            backend.coupling_map(),
            &backend.noise_model(),
        )
        .expect("toronto hosts ten qubits");
        let engine = MultiGaConfig::quick();
        let zeros = vec![0.0; exec.ansatz().num_parameters()];

        let cafqa = run_cafqa(&h, &exec, &engine, 0, &pool);
        let e_cafqa = device_energy(&exec, &h, &cafqa.theta);
        println!(
            "CAFQA   : noiseless {:+.5}, device {:+.5}",
            cafqa.energy_noiseless, e_cafqa
        );

        let ncafqa = run_ncafqa(&h, &exec, &engine, EvaluatorKind::Exact, 1, &pool);
        let e_ncafqa = device_energy(&exec, &h, &ncafqa.theta);
        println!(
            "nCAFQA  : noiseless {:+.5}, device {:+.5}",
            ncafqa.energy_noiseless, e_ncafqa
        );

        let clapton = run_clapton(&h, &exec, &ClaptonConfig::quick(2), &pool);
        let e_clapton = device_energy(&exec, &clapton.transformation.transformed, &zeros);
        println!(
            "Clapton : noiseless {:+.5}, device {:+.5}",
            clapton.loss_0, e_clapton
        );

        println!(
            "eta vs CAFQA = {:.2}x, eta vs nCAFQA = {:.2}x",
            relative_improvement(e0, e_cafqa, e_clapton),
            relative_improvement(e0, e_ncafqa, e_clapton)
        );
    }
}
