//! Figure 8 — relative improvement η (Clapton vs nCAFQA, initial point)
//! when sweeping the measurement (readout misassignment) error `p` for
//! several thermal-relaxation times T1.
//!
//! Benchmarks and topology as in Figure 7; gate errors are off so the
//! readout channel is isolated (§5.2.3).

use clapton_bench::{run_sweep, Options};
use clapton_models::{ising, molecular, Molecule};
use clapton_noise::NoiseModel;
use clapton_pauli::PauliSum;
use clapton_runtime::WorkerPool;
use std::sync::Arc;

fn main() {
    let options = Options::from_args();
    let pool = Arc::new(WorkerPool::new());
    let readout_errors: Vec<f64> = match options.effort {
        0 => vec![5e-3, 9.5e-2],
        1 => vec![5e-3, 3.5e-2, 9.5e-2],
        _ => vec![5e-3, 2e-2, 3.5e-2, 5e-2, 6.5e-2, 8e-2, 9.5e-2],
    };
    let t1s: Vec<f64> = match options.effort {
        0 => vec![150e-6],
        1 => vec![50e-6, 250e-6],
        _ => vec![50e-6, 150e-6, 250e-6],
    };
    let owned: Vec<(String, PauliSum)> = {
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
    let benchmarks: Vec<(&str, &PauliSum)> = owned.iter().map(|(n, h)| (n.as_str(), h)).collect();
    run_sweep(
        &options,
        &pool,
        &benchmarks,
        &t1s,
        &readout_errors,
        |p, t1| {
            // Measurement-error sweep: gates noiseless (§5.2.3).
            let mut model = NoiseModel::uniform(27, 0.0, 0.0, p);
            model.set_t1_uniform(t1);
            model
        },
    );
}
