//! Figure 7 — relative improvement η (Clapton vs nCAFQA, initial point)
//! when sweeping the single-qubit gate error `p` (two-qubit error `10p`)
//! for several thermal-relaxation times T1.
//!
//! Benchmarks: Ising (J=1.00), H2O (l=1.0), H6 (l=1.0), LiH (l=4.5), all on
//! the `toronto` topology with spatially uniform noise (§5.2.3). Pass
//! `--no-two-qubit-slots` conceptually via the ablation bench; this binary
//! reproduces the paper's sweep as-is.

use clapton_bench::{run_sweep, Options};
use clapton_models::{ising, molecular, Molecule};
use clapton_noise::NoiseModel;
use clapton_pauli::PauliSum;
use clapton_runtime::WorkerPool;
use std::sync::Arc;

fn main() {
    let options = Options::from_args();
    let pool = Arc::new(WorkerPool::new());
    let gate_errors: Vec<f64> = match options.effort {
        0 => vec![5e-4, 5e-3],
        1 => vec![5e-4, 2e-3, 5e-3],
        _ => vec![5e-4, 1.25e-3, 2e-3, 2.75e-3, 3.5e-3, 4.25e-3, 5e-3],
    };
    let t1s: Vec<f64> = match options.effort {
        0 => vec![150e-6],
        1 => vec![50e-6, 250e-6],
        _ => vec![50e-6, 150e-6, 250e-6],
    };
    let benchmarks: Vec<(String, PauliSum)> = {
        let mut v = vec![("ising(J=1.00)".to_string(), ising(10, 1.0))];
        if options.effort >= 1 {
            v.push(("H2O(l=1.0)".to_string(), molecular(Molecule::H2O, 1.0)));
            v.push(("LiH(l=4.5)".to_string(), molecular(Molecule::LiH, 4.5)));
        }
        if options.effort >= 2 {
            v.push(("H6(l=1.0)".to_string(), molecular(Molecule::H6, 1.0)));
        }
        v
    };
    let benchmarks: Vec<(&str, &PauliSum)> =
        benchmarks.iter().map(|(n, h)| (n.as_str(), h)).collect();
    run_sweep(&options, &pool, &benchmarks, &t1s, &gate_errors, |p, t1| {
        // Gate-error sweep: readout off, 2q error = 10p (§5.2.3).
        let mut model = NoiseModel::uniform(27, p, (10.0 * p).min(1.0), 0.0);
        model.set_t1_uniform(t1);
        model
    });
}
