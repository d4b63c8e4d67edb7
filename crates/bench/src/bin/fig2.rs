//! Figure 2 — the key result on one magnified benchmark.
//!
//! For the ten-qubit XXZ model (J = 1.00) on the `toronto` backend, prints
//! the initial-point energy of CAFQA, nCAFQA and Clapton in the three noise
//! environments (noiseless ⋄ / Clifford noise model ◦ / device model ×),
//! plus the Clifford-model vs device-model discrepancy. The paper's claims:
//! Clapton reaches the lowest device energy, and its Clifford noise model is
//! the most accurate (smallest ◦/× gap).

use clapton_bench::{reports, Options};
use clapton_core::{normalized_energy, relative_improvement, EvaluatorKind, LossFunction};
use clapton_service::{BackendSpec, ClaptonService, MethodSpec, NamedBackend, NoiseSpec};

fn main() {
    let options = Options::from_args();
    let n = 10;
    let mut spec = options.spec("xxz(J=1.00)", n);
    spec.backend = BackendSpec::Named(NamedBackend {
        name: "toronto".to_string(),
    });
    spec.noise = NoiseSpec::Backend;
    spec.methods = vec![MethodSpec::Cafqa, MethodSpec::Ncafqa, MethodSpec::Clapton];
    let job = spec.validate().expect("the figure spec validates");
    let report = &reports(&ClaptonService::new(), vec![spec])[0];
    let e_mixed = job.hamiltonian.identity_coefficient();
    println!("# Figure 2: XXZ (J=1.00, N={n}) on toronto");
    println!("# E0 = {:.6}, E_mixed = {:.6}", report.e0, e_mixed);
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>12} {:>12}",
        "method", "noiseless", "cliff-model", "device", "norm(device)", "model-gap"
    );
    // The Clifford noise model at a CAFQA-family θ; Clapton reports its own.
    let loss = LossFunction::new(&job.exec, EvaluatorKind::Exact);
    let clifford_model =
        |theta: &[f64]| loss.loss_n_for_circuit(&job.exec.circuit(theta), &job.hamiltonian);
    let cafqa = report.cafqa.as_ref().expect("CAFQA ran");
    let ncafqa = report.ncafqa.as_ref().expect("nCAFQA ran");
    let clapton = report.clapton.as_ref().expect("Clapton ran");
    let energy = |e: Option<f64>| e.expect("every method has a device energy");
    let rows = [
        (
            "CAFQA",
            cafqa.energy_noiseless,
            clifford_model(&cafqa.theta),
            energy(report.cafqa_initial_energy),
        ),
        (
            "nCAFQA",
            ncafqa.energy_noiseless,
            clifford_model(&ncafqa.theta),
            energy(report.ncafqa_initial_energy),
        ),
        (
            "Clapton",
            clapton.loss_0,
            clapton.loss_n,
            energy(report.clapton_initial_energy),
        ),
    ];
    for (method, noiseless, model, device) in rows {
        let norm = normalized_energy(device, report.e0, e_mixed);
        let gap = (model - device).abs();
        println!(
            "{method:<10} {noiseless:>14.6} {model:>14.6} {device:>14.6} {norm:>12.4} {gap:>12.4}"
        );
    }
    let eta_ncafqa = relative_improvement(
        report.e0,
        energy(report.ncafqa_initial_energy),
        energy(report.clapton_initial_energy),
    );
    println!("\n# relative improvement eta (initial point, device evaluation)");
    println!(
        "eta vs CAFQA  = {:.3}",
        report.eta_initial.expect("CAFQA is the baseline")
    );
    println!("eta vs nCAFQA = {eta_ncafqa:.3}");
}
