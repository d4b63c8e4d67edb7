//! End-to-end VQE: Clapton initialization, SPSA optimization under the full
//! device model, and recovery of the solution in the original problem frame.
//!
//! ```sh
//! cargo run --release --example end_to_end_vqe
//! ```

use clapton::circuits::Circuit;
use clapton::core::{run_clapton, ClaptonConfig, ExecutableAnsatz, WorkerPool};
use clapton::models::xxz;
use clapton::noise::NoiseModel;
use clapton::sim::{ground_energy, StateVector};
use clapton::vqe::{run_vqe, VqeConfig};
use std::sync::Arc;

fn main() {
    let pool = Arc::new(WorkerPool::new());
    // The 6-qubit XXZ chain at J = 0.5.
    let n = 6;
    let h = xxz(n, 0.5);
    let e0 = ground_energy(&h);
    println!("problem: {n}-qubit XXZ (J = 0.5), E0 = {e0:.5}");

    let mut model = NoiseModel::uniform(n, 8e-4, 8e-3, 2e-2);
    model.set_t1_uniform(120e-6);
    let exec = ExecutableAnsatz::untranspiled(n, &model);

    // Clapton transforms the problem so θ = 0 is a good start.
    let clapton = run_clapton(&h, &exec, &ClaptonConfig::quick(7), &pool);
    let h_hat = clapton.transformation.transformed.clone();
    println!(
        "Clapton: L0 = {:+.5}, LN = {:+.5} ({} rounds)",
        clapton.loss_0, clapton.loss_n, clapton.rounds
    );

    // VQE on the transformed problem from θ = 0.
    let trace = run_vqe(
        &h_hat,
        &exec,
        &vec![0.0; exec.ansatz().num_parameters()],
        &VqeConfig::new(120),
    );
    println!(
        "VQE: device energy {:+.5} -> {:+.5} over {} SPSA iterations",
        trace.initial_energy,
        trace.final_energy,
        trace.spsa_history.len()
    );

    // Recover the solution for the ORIGINAL Hamiltonian: |ψ⟩ = Ĉ|ψ̂⟩.
    let mut recovered = Circuit::new(n);
    recovered.append(&exec.ansatz().circuit(&trace.final_theta));
    recovered.append(&clapton.transformation.recovery_circuit(&clapton.ansatz));
    let psi = StateVector::from_circuit(&recovered);
    let e_recovered = psi.energy(&h);
    let psi_hat = StateVector::from_circuit(&exec.ansatz().circuit(&trace.final_theta));
    let e_hat = psi_hat.energy(&h_hat);
    println!(
        "recovery: ⟨ψ̂|Ĥ|ψ̂⟩ = {e_hat:+.5} equals ⟨Ĉψ̂|H|Ĉψ̂⟩ = {e_recovered:+.5} (Δ = {:.1e})",
        (e_hat - e_recovered).abs()
    );
    println!(
        "noiseless solution quality: {:.1}% of the gap to E0 closed",
        100.0 * (h.identity_coefficient() - e_recovered) / (h.identity_coefficient() - e0)
    );
}
