//! Ablation study for the design choices DESIGN.md calls out:
//!
//! 1. **Two-qubit transformation slots** (Eq. 8): full ansatz vs
//!    rotations-only (`two_qubit_slots = false`),
//! 2. **Exact vs sampled `LN`**: the closed-form Clifford-noise evaluator vs
//!    the paper's stim-style shot sampler (256 shots/term) as the GA loss.
//!
//! Reports the winning loss and the device-model energy of each variant.

use clapton_bench::{Instance, Options};
use clapton_core::{run_clapton, ClaptonConfig, EvaluatorKind};
use clapton_devices::FakeBackend;
use clapton_models::{ising, xxz};
use clapton_runtime::WorkerPool;
use std::sync::Arc;

fn main() {
    let options = Options::from_args();
    let pool = Arc::new(WorkerPool::new());
    let backend = FakeBackend::toronto();
    let benchmarks = vec![
        ("ising(J=0.50)", ising(10, 0.5)),
        ("xxz(J=1.00)", xxz(10, 1.0)),
    ];
    println!(
        "{:<14} {:<22} {:>12} {:>12} {:>12}",
        "benchmark", "variant", "loss", "L0", "E_device(x)"
    );
    for (name, h) in &benchmarks {
        let instance = Instance::prepare(name, h, &backend);
        let zeros = vec![0.0; instance.exec.ansatz().num_parameters()];
        let variants: Vec<(&str, ClaptonConfig)> = vec![
            (
                "full (exact LN)",
                ClaptonConfig {
                    engine: options.engine(),
                    evaluator: EvaluatorKind::Exact,
                    seed: options.seed,
                    two_qubit_slots: true,
                },
            ),
            (
                "no two-qubit slots",
                ClaptonConfig {
                    engine: options.engine(),
                    evaluator: EvaluatorKind::Exact,
                    seed: options.seed,
                    two_qubit_slots: false,
                },
            ),
            (
                "sampled LN (256 shots)",
                ClaptonConfig {
                    engine: options.engine(),
                    evaluator: EvaluatorKind::Sampled {
                        shots: 256,
                        seed: options.seed,
                    },
                    seed: options.seed,
                    two_qubit_slots: true,
                },
            ),
        ];
        for (label, config) in variants {
            let result = run_clapton(h, &instance.exec, &config, &pool);
            let device = instance.device_energy(&result.transformation.transformed, &zeros, None);
            println!(
                "{:<14} {:<22} {:>12.5} {:>12.5} {:>12.5}",
                instance.name, label, result.loss, result.loss_0, device
            );
        }
        println!(
            "{:<14} {:<22} {:>12} {:>12} {:>12.5}",
            instance.name, "(reference E0)", "", "", instance.e0
        );
    }
}
