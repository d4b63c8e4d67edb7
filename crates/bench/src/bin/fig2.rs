//! Figure 2 — the key result on one magnified benchmark.
//!
//! For the ten-qubit XXZ model (J = 1.00) on the `toronto` backend, prints
//! the initial-point energy of CAFQA, nCAFQA and Clapton in the three noise
//! environments (noiseless ⋄ / Clifford noise model ◦ / device model ×),
//! plus the Clifford-model vs device-model discrepancy. The paper's claims:
//! Clapton reaches the lowest device energy, and its Clifford noise model is
//! the most accurate (smallest ◦/× gap).

use clapton_bench::{Instance, Options};
use clapton_core::normalized_energy;
use clapton_devices::FakeBackend;
use clapton_models::xxz;
use clapton_runtime::WorkerPool;
use std::sync::Arc;

fn main() {
    let options = Options::from_args();
    let pool = Arc::new(WorkerPool::new());
    let n = 10;
    let backend = FakeBackend::toronto();
    let h = xxz(n, 1.0);
    println!("# Figure 2: XXZ (J=1.00, N={n}) on {}", backend.name());
    let instance = Instance::prepare("xxz(J=1.00)", &h, &backend);
    println!(
        "# E0 = {:.6}, E_mixed = {:.6}",
        instance.e0, instance.e_mixed
    );
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>12} {:>12}",
        "method", "noiseless", "cliff-model", "device", "norm(device)", "model-gap"
    );
    let outcomes = instance.run_methods(&options, &pool);
    for o in &outcomes {
        let norm = normalized_energy(o.initial.device, instance.e0, instance.e_mixed);
        let gap = (o.initial.clifford_model - o.initial.device).abs();
        println!(
            "{:<10} {:>14.6} {:>14.6} {:>14.6} {:>12.4} {:>12.4}",
            o.method, o.initial.noiseless, o.initial.clifford_model, o.initial.device, norm, gap
        );
    }
    let device = |m: &str| {
        outcomes
            .iter()
            .find(|o| o.method == m)
            .expect("method present")
            .initial
            .device
    };
    let eta_cafqa =
        clapton_core::relative_improvement(instance.e0, device("CAFQA"), device("Clapton"));
    let eta_ncafqa =
        clapton_core::relative_improvement(instance.e0, device("nCAFQA"), device("Clapton"));
    println!("\n# relative improvement eta (initial point, device evaluation)");
    println!("eta vs CAFQA  = {eta_cafqa:.3}");
    println!("eta vs nCAFQA = {eta_ncafqa:.3}");
}
