//! Figure 7 — relative improvement η (Clapton vs nCAFQA, initial point)
//! when sweeping the single-qubit gate error `p` (two-qubit error `10p`)
//! for several thermal-relaxation times T1.
//!
//! Benchmarks: Ising (J=1.00), H2O (l=1.0), H6 (l=1.0), LiH (l=4.5), all on
//! the `toronto` topology with spatially uniform noise (§5.2.3). Pass
//! `--no-two-qubit-slots` conceptually via the ablation bench; this binary
//! reproduces the paper's sweep as-is.

use clapton_bench::{run_sweep, Options};
use clapton_service::ClaptonService;

fn main() {
    let options = Options::from_args();
    let gate_errors: Vec<f64> = match options.effort {
        0 => vec![5e-4, 5e-3],
        1 => vec![5e-4, 2e-3, 5e-3],
        _ => vec![5e-4, 1.25e-3, 2e-3, 2.75e-3, 3.5e-3, 4.25e-3, 5e-3],
    };
    // Gate-error sweep: readout off, 2q error = 10p (§5.2.3).
    run_sweep(&options, &ClaptonService::new(), &gate_errors, |p| {
        (p, (10.0 * p).min(1.0), 0.0)
    });
}
