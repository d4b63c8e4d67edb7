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

use clapton_bench::{reports, Options};
use clapton_core::{device_energy, geometric_mean, normalized_energy, relative_improvement};
use clapton_devices::FakeBackend;
use clapton_models::{benchmark_suite, physics_suite};
use clapton_service::{
    BackendSpec, ClaptonService, MethodSpec, NamedBackend, NoiseSpec, VqeRefineSpec,
};

fn main() {
    let options = Options::from_args();
    let service = ClaptonService::new();
    let backends: Vec<FakeBackend> = match options.effort {
        0 => vec![FakeBackend::nairobi()],
        1 => vec![FakeBackend::nairobi(), FakeBackend::toronto()],
        _ => FakeBackend::all(),
    };
    for backend in &backends {
        run_backend(backend.name(), &options, &service);
    }
}

fn run_backend(backend: &str, options: &Options, service: &ClaptonService) {
    // nairobi hosts only the 7-qubit physics models (§5.2.2).
    let (qubits, benchmarks) = if backend == "nairobi" {
        (7, physics_suite(7))
    } else if options.effort >= 2 {
        (10, benchmark_suite(10))
    } else {
        // Default: a representative subset (2 physics + 2 chemistry).
        let subset = ["ising(J=0.50)", "xxz(J=1.00)", "H2O(l=1.0)", "LiH(l=4.5)"];
        let mut suite = benchmark_suite(10);
        suite.retain(|b| subset.contains(&b.name.as_str()));
        (10, suite)
    };
    let spec_on = |name: &str, backend: &str| {
        let mut spec = options.spec(name, qubits);
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
    let specs = benchmarks.iter().map(|b| spec_on(&b.name, backend));
    let reports = reports(service, specs.collect());
    println!("\n## backend: {backend}");
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
    // η(init) and η(final) vs CAFQA, then vs nCAFQA, per benchmark.
    let mut etas: [Vec<f64>; 4] = Default::default();
    for (bench, report) in benchmarks.iter().zip(&reports) {
        // On hanoi, final points are scored on the perturbed "hardware"
        // variant of the same register.
        let hardware = (backend == "hanoi").then(|| {
            let spec = spec_on(&bench.name, &format!("hanoi-hw:{}", options.seed));
            spec.validate()
                .expect("the hardware variant hosts the chain")
                .exec
        });
        let clapton = report.clapton.as_ref().expect("Clapton ran");
        let rows = [
            (
                "CAFQA",
                report.cafqa_initial_energy,
                &report.cafqa_vqe,
                &bench.hamiltonian,
            ),
            (
                "nCAFQA",
                report.ncafqa_initial_energy,
                &report.ncafqa_vqe,
                &bench.hamiltonian,
            ),
            (
                "Clapton",
                report.clapton_initial_energy,
                &report.clapton_vqe,
                &clapton.transformation.transformed,
            ),
        ]
        .map(|(method, e_init, vqe, h)| {
            let vqe = vqe.as_ref().expect("VqeRefine ran");
            let e_final = match &hardware {
                Some(exec) => device_energy(exec, h, &vqe.final_theta),
                None => vqe.final_energy,
            };
            (method, e_init.expect("initial energy"), e_final)
        });
        let [(_, init_c, final_c), (_, init_n, final_n), (_, init, fin)] = rows;
        let eta = [
            relative_improvement(report.e0, init_c, init),
            relative_improvement(report.e0, final_c, fin),
            relative_improvement(report.e0, init_n, init),
            relative_improvement(report.e0, final_n, fin),
        ];
        let e_mixed = bench.hamiltonian.identity_coefficient();
        for (method, e_init, e_final) in rows {
            let shown = if method == "Clapton" {
                eta
            } else {
                [f64::NAN; 4]
            };
            println!(
                "{:<14} {:<8} {:>10.4} {:>10.4} {:>11.4} {:>11.4} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                bench.name,
                method,
                e_init,
                e_final,
                normalized_energy(e_init, report.e0, e_mixed),
                normalized_energy(e_final, report.e0, e_mixed),
                shown[0],
                shown[1],
                shown[2],
                shown[3]
            );
        }
        for (series, value) in etas.iter_mut().zip(eta) {
            series.push(value);
        }
    }
    println!(
        "# {backend}: geo-mean eta vs CAFQA: init {:.2}x, final {:.2}x | vs nCAFQA: init {:.2}x, final {:.2}x",
        geometric_mean(&etas[0]),
        geometric_mean(&etas[1]),
        geometric_mean(&etas[2]),
        geometric_mean(&etas[3]),
    );
}
