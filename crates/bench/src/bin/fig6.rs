//! Figure 6 — VQE convergence of the ten-qubit XXZ model (J = 0.25 and
//! J = 1.00) on the `toronto` and `hanoi` noise models.
//!
//! Prints per-method convergence series (device-model energies along the
//! SPSA run) and, for `hanoi`, the "hardware star" evaluations of the
//! initial and final points under the perturbed hardware variant.

use clapton_bench::{Instance, Options};
use clapton_core::ExecutableAnsatz;
use clapton_devices::FakeBackend;
use clapton_models::xxz;
use clapton_runtime::WorkerPool;
use clapton_vqe::{run_vqe, VqeConfig};
use std::sync::Arc;

fn main() {
    let options = Options::from_args();
    let pool = Arc::new(WorkerPool::new());
    let backends = match options.effort {
        0 => vec![FakeBackend::toronto()],
        _ => vec![FakeBackend::toronto(), FakeBackend::hanoi()],
    };
    let n = 10;
    for backend in &backends {
        for j in [0.25, 1.0] {
            let name = format!("xxz(J={j:.2})");
            let h = xxz(n, j);
            let instance = Instance::prepare(&name, &h, backend);
            println!(
                "\n## {} on {} (E0 = {:.5})",
                name,
                backend.name(),
                instance.e0
            );
            let outcomes = instance.run_methods(&options, &pool);
            let vqe_config = VqeConfig::new(options.vqe_iterations());
            let hardware =
                (backend.name() == "hanoi").then(|| backend.hardware_variant(options.seed));
            for o in &outcomes {
                let trace = run_vqe(&o.vqe_hamiltonian, &instance.exec, &o.theta0, &vqe_config);
                let series: Vec<String> = trace
                    .trace
                    .iter()
                    .map(|(k, e)| format!("({k},{e:.4})"))
                    .collect();
                println!(
                    "{:<8} init(x)={:.5} final(x)={:.5} | series: {}",
                    o.method,
                    trace.initial_energy,
                    trace.final_energy,
                    series.join(" ")
                );
                if let Some(hw) = &hardware {
                    let exec_hw =
                        ExecutableAnsatz::on_device(n, hw.coupling_map(), &hw.noise_model())
                            .expect("hardware variant hosts the chain");
                    let hw_model = exec_hw.noise_model().clone();
                    let e_init_hw =
                        instance.device_energy(&o.vqe_hamiltonian, &o.theta0, Some(&hw_model));
                    let e_final_hw = instance.device_energy(
                        &o.vqe_hamiltonian,
                        &trace.final_theta,
                        Some(&hw_model),
                    );
                    println!(
                        "{:<8} hardware stars: init*={e_init_hw:.5} final*={e_final_hw:.5}",
                        o.method
                    );
                }
            }
        }
    }
}
