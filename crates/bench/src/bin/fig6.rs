//! Figure 6 — VQE convergence of the ten-qubit XXZ model (J = 0.25 and
//! J = 1.00) on the `toronto` and `hanoi` noise models.
//!
//! Prints per-method convergence series (device-model energies along the
//! SPSA run) and, for `hanoi`, the "hardware star" evaluations of the
//! initial and final points under the perturbed hardware variant.

use clapton_bench::{reports, Options};
use clapton_core::device_energy;
use clapton_service::{
    BackendSpec, ClaptonService, MethodSpec, NamedBackend, NoiseSpec, VqeRefineSpec,
};

fn main() {
    let options = Options::from_args();
    let service = ClaptonService::new();
    let backends: &[&str] = match options.effort {
        0 => &["toronto"],
        _ => &["toronto", "hanoi"],
    };
    let names = ["xxz(J=0.25)", "xxz(J=1.00)"];
    let spec_on = |name: &str, backend: &str| {
        let mut spec = options.spec(name, 10);
        spec.backend = BackendSpec::Named(NamedBackend {
            name: backend.to_string(),
        });
        spec.noise = NoiseSpec::Backend;
        spec.methods = vec![
            MethodSpec::Cafqa,
            MethodSpec::Ncafqa,
            MethodSpec::Clapton,
            MethodSpec::VqeRefine(VqeRefineSpec {
                iterations: options.vqe_iterations(),
            }),
        ];
        spec
    };
    for &backend in backends {
        let specs = names.iter().map(|name| spec_on(name, backend)).collect();
        for (name, report) in names.iter().zip(reports(&service, specs)) {
            println!("\n## {name} on {backend} (E0 = {:.5})", report.e0);
            // The hanoi "hardware stars": the same points scored on the
            // perturbed hardware variant of the register.
            let hardware = (backend == "hanoi").then(|| {
                let spec = spec_on(name, &format!("hanoi-hw:{}", options.seed));
                spec.validate()
                    .expect("the hardware variant hosts the chain")
            });
            let cafqa = report.cafqa.as_ref().expect("CAFQA ran");
            let ncafqa = report.ncafqa.as_ref().expect("nCAFQA ran");
            let clapton = report.clapton.as_ref().expect("Clapton ran");
            let zeros = vec![0.0; cafqa.theta.len()];
            let starts = [
                ("CAFQA", &report.cafqa_vqe, None, &cafqa.theta),
                ("nCAFQA", &report.ncafqa_vqe, None, &ncafqa.theta),
                (
                    "Clapton",
                    &report.clapton_vqe,
                    Some(&clapton.transformation.transformed),
                    &zeros,
                ),
            ];
            for (method, trace, transformed, theta0) in starts {
                let trace = trace.as_ref().expect("VqeRefine ran");
                let series: Vec<String> = trace
                    .trace
                    .iter()
                    .map(|(k, e)| format!("({k},{e:.4})"))
                    .collect();
                println!(
                    "{:<8} init(x)={:.5} final(x)={:.5} | series: {}",
                    method,
                    trace.initial_energy,
                    trace.final_energy,
                    series.join(" ")
                );
                if let Some(hw) = &hardware {
                    let h = transformed.unwrap_or(&hw.hamiltonian);
                    let e_init_hw = device_energy(&hw.exec, h, theta0);
                    let e_final_hw = device_energy(&hw.exec, h, &trace.final_theta);
                    println!(
                        "{method:<8} hardware stars: init*={e_init_hw:.5} final*={e_final_hw:.5}"
                    );
                }
            }
        }
    }
}
