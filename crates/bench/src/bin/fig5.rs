//! Figure 5 — the main evaluation: initial and final (post-VQE) energies and
//! relative improvements η across backends × benchmarks.
//!
//! For every backend and benchmark, runs CAFQA, nCAFQA and Clapton, then a
//! follow-up VQE from each initialization, and reports:
//!
//! * normalized energies of initial and final points under device evaluation,
//! * η(initial) and η(final) of Clapton over both baselines,
//! * geometric means per backend (the figure's inset `η̄`).
//!
//! On `hanoi` the final points are additionally evaluated on the perturbed
//! "hardware" variant (the paper's real-device experiments).

use clapton_bench::{Instance, Options};
use clapton_core::{geometric_mean, normalized_energy, relative_improvement};
use clapton_devices::FakeBackend;
use clapton_models::{benchmark_suite, physics_suite};
use clapton_runtime::WorkerPool;
use clapton_vqe::{run_vqe, VqeConfig};
use std::sync::Arc;

fn main() {
    let options = Options::from_args();
    let pool = Arc::new(WorkerPool::new());
    let backends: Vec<FakeBackend> = match options.effort {
        0 => vec![FakeBackend::nairobi()],
        1 => vec![FakeBackend::nairobi(), FakeBackend::toronto()],
        _ => FakeBackend::all(),
    };
    for backend in &backends {
        run_backend(backend, &options, &pool);
    }
}

fn run_backend(backend: &FakeBackend, options: &Options, pool: &Arc<WorkerPool>) {
    // nairobi hosts only the 7-qubit physics models (§5.2.2).
    let benchmarks = if backend.name() == "nairobi" {
        physics_suite(7)
    } else if options.effort >= 2 {
        benchmark_suite(10)
    } else {
        // Default: a representative subset (2 physics + 2 chemistry).
        benchmark_suite(10)
            .into_iter()
            .filter(|b| {
                ["ising(J=0.50)", "xxz(J=1.00)", "H2O(l=1.0)", "LiH(l=4.5)"]
                    .contains(&b.name.as_str())
            })
            .collect()
    };
    let hardware = (backend.name() == "hanoi").then(|| backend.hardware_variant(options.seed));
    println!("\n## backend: {}", backend.name());
    println!(
        "{:<14} {:<8} {:>10} {:>10} {:>11} {:>11} {:>9} {:>9} {:>9} {:>9}",
        "benchmark",
        "method",
        "E_init(x)",
        "E_final(x)",
        "norm(init)",
        "norm(final)",
        "eta_i/C",
        "eta_f/C",
        "eta_i/nC",
        "eta_f/nC"
    );
    let mut etas_init_cafqa = Vec::new();
    let mut etas_final_cafqa = Vec::new();
    let mut etas_init_ncafqa = Vec::new();
    let mut etas_final_ncafqa = Vec::new();
    for bench in &benchmarks {
        let instance = Instance::prepare(&bench.name, &bench.hamiltonian, backend);
        // On hanoi, final points are evaluated on the perturbed "hardware"
        // model restricted to the same compact register.
        let hw_model = hardware.as_ref().map(|hw| restricted_model(&instance, hw));
        let outcomes = instance.run_methods(options, pool);
        let vqe_config = VqeConfig::new(options.vqe_iterations());
        let mut initial = Vec::new();
        let mut fin = Vec::new();
        let mut rows = Vec::new();
        for o in &outcomes {
            let trace = run_vqe(&o.vqe_hamiltonian, &instance.exec, &o.theta0, &vqe_config);
            let e_init = o.initial.device;
            let e_final =
                instance.device_energy(&o.vqe_hamiltonian, &trace.final_theta, hw_model.as_ref());
            initial.push(e_init);
            fin.push(e_final);
            rows.push((o.method, e_init, e_final));
        }
        for (method, e_init, e_final) in &rows {
            let (ei_c, ef_c, ei_n, ef_n) = if *method == "Clapton" {
                (
                    relative_improvement(instance.e0, initial[0], initial[2]),
                    relative_improvement(instance.e0, fin[0], fin[2]),
                    relative_improvement(instance.e0, initial[1], initial[2]),
                    relative_improvement(instance.e0, fin[1], fin[2]),
                )
            } else {
                (f64::NAN, f64::NAN, f64::NAN, f64::NAN)
            };
            println!(
                "{:<14} {:<8} {:>10.4} {:>10.4} {:>11.4} {:>11.4} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                instance.name,
                method,
                e_init,
                e_final,
                normalized_energy(*e_init, instance.e0, instance.e_mixed),
                normalized_energy(*e_final, instance.e0, instance.e_mixed),
                ei_c,
                ef_c,
                ei_n,
                ef_n
            );
            if *method == "Clapton" {
                etas_init_cafqa.push(ei_c);
                etas_final_cafqa.push(ef_c);
                etas_init_ncafqa.push(ei_n);
                etas_final_ncafqa.push(ef_n);
            }
        }
    }
    println!(
        "# {}: geo-mean eta vs CAFQA: init {:.2}x, final {:.2}x | vs nCAFQA: init {:.2}x, final {:.2}x",
        backend.name(),
        geometric_mean(&etas_init_cafqa),
        geometric_mean(&etas_final_cafqa),
        geometric_mean(&etas_init_ncafqa),
        geometric_mean(&etas_final_ncafqa),
    );
}

/// Restricts a (27-qubit) hardware-variant model onto the instance's compact
/// register by rebuilding the executable ansatz against it.
fn restricted_model(instance: &Instance, hw: &FakeBackend) -> clapton_noise::NoiseModel {
    let exec = clapton_core::ExecutableAnsatz::on_device(
        instance.hamiltonian.num_qubits(),
        hw.coupling_map(),
        &hw.noise_model(),
    )
    .expect("hardware variant hosts the same chain");
    exec.noise_model().clone()
}
