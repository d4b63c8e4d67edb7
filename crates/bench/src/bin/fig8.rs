//! Figure 8 — relative improvement η (Clapton vs nCAFQA, initial point)
//! when sweeping the measurement (readout misassignment) error `p` for
//! several thermal-relaxation times T1.
//!
//! Benchmarks and topology as in Figure 7; gate errors are off so the
//! readout channel is isolated (§5.2.3).

use clapton_bench::{run_sweep, Options};
use clapton_service::ClaptonService;

fn main() {
    let options = Options::from_args();
    let readout_errors: Vec<f64> = match options.effort {
        0 => vec![5e-3, 9.5e-2],
        1 => vec![5e-3, 3.5e-2, 9.5e-2],
        _ => vec![5e-3, 2e-2, 3.5e-2, 5e-2, 6.5e-2, 8e-2, 9.5e-2],
    };
    // Measurement-error sweep: gates noiseless (§5.2.3).
    run_sweep(&options, &ClaptonService::new(), &readout_errors, |p| {
        (0.0, 0.0, p)
    });
}
