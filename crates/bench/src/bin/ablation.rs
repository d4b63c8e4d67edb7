//! Ablation study for the design choices DESIGN.md calls out:
//!
//! 1. **Two-qubit transformation slots** (Eq. 8): full ansatz vs
//!    rotations-only (`two_qubit_slots = false`),
//! 2. **Exact vs sampled `LN`**: the closed-form Clifford-noise evaluator vs
//!    the paper's stim-style shot sampler (256 shots/term) as the GA loss.
//!
//! Reports the winning loss and the device-model energy of each variant.

use clapton_bench::{reports, Options};
use clapton_core::EvaluatorKind;
use clapton_service::{BackendSpec, ClaptonService, MethodSpec, NamedBackend, NoiseSpec};

fn main() {
    let options = Options::from_args();
    let benchmarks = ["ising(J=0.50)", "xxz(J=1.00)"];
    let variants = [
        "full (exact LN)",
        "no two-qubit slots",
        "sampled LN (256 shots)",
    ];
    let specs = benchmarks.iter().flat_map(|name| {
        let mut full = options.spec(name, 10);
        full.backend = BackendSpec::Named(NamedBackend {
            name: "toronto".to_string(),
        });
        full.noise = NoiseSpec::Backend;
        full.methods = vec![MethodSpec::Clapton];
        let mut no_slots = full.clone();
        no_slots.two_qubit_slots = false;
        let mut sampled = full.clone();
        sampled.evaluator = EvaluatorKind::Sampled {
            shots: 256,
            seed: options.seed,
        };
        [full, no_slots, sampled]
    });
    let reports = reports(&ClaptonService::new(), specs.collect());
    println!(
        "{:<14} {:<22} {:>12} {:>12} {:>12}",
        "benchmark", "variant", "loss", "L0", "E_device(x)"
    );
    for (name, runs) in benchmarks.iter().zip(reports.chunks(variants.len())) {
        for (label, report) in variants.iter().zip(runs) {
            let clapton = report.clapton.as_ref().expect("Clapton ran");
            println!(
                "{:<14} {:<22} {:>12.5} {:>12.5} {:>12.5}",
                name,
                label,
                clapton.loss,
                clapton.loss_0,
                report.clapton_initial_energy.expect("Clapton ran")
            );
        }
        println!(
            "{:<14} {:<22} {:>12} {:>12} {:>12.5}",
            name, "(reference E0)", "", "", runs[0].e0
        );
    }
}
