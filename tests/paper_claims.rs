//! The paper's qualitative claims, checked on a seed-pinned quick run of the
//! 7-qubit physics suite on the `nairobi` backend through the service front
//! door, plus a committed reference (`tests/fixtures/paper_claims.json`) for
//! the energies behind them. The specs come from the figure binaries' spec
//! helper, so the reference also pins the `nairobi` initial energies that
//! `fig5 --quick --seed 1` prints.
//!
//! Per instance:
//! * the transformed problem's `|0…0⟩` energy `L0` respects the variational
//!   bound, `L0 ≥ E0`;
//! * the transformation preserves the spectrum: `Ĥ` has ground energy `E0`;
//! * Clapton's initial point is no worse on the device model than CAFQA's or
//!   nCAFQA's (Figure 5).
//!
//! Across the suite, the geometric-mean η (Eq. 14) exceeds 1 against both
//! baselines. The reference energies hold the numbers themselves to a
//! 1e-9 relative band, so a change that keeps the inequalities but moves the
//! searches shows up here.

use clapton::core::{geometric_mean, relative_improvement};
use clapton::models::benchmark_names;
use clapton::service::{
    BackendSpec, ClaptonService, JobSpec, MethodSpec, NamedBackend, NoiseSpec, Report,
};
use clapton::sim::ground_energy;
use clapton_bench::Options;
use serde::{Deserialize, Serialize};

const BACKEND: &str = "nairobi";
const QUBITS: usize = 7;
const SEED: u64 = 1;
const FIXTURE: &str = include_str!("fixtures/paper_claims.json");

/// The committed reference: one row per suite instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Fixture {
    backend: String,
    qubits: usize,
    seed: u64,
    instances: Vec<Row>,
}

/// The energies a report is held to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Row {
    name: String,
    e0: f64,
    cafqa_initial_energy: f64,
    ncafqa_initial_energy: f64,
    clapton_initial_energy: f64,
}

impl Row {
    fn from_report(report: &Report) -> Row {
        Row {
            name: report.name.clone(),
            e0: report.e0,
            cafqa_initial_energy: report.cafqa_initial_energy.expect("CAFQA ran"),
            ncafqa_initial_energy: report.ncafqa_initial_energy.expect("nCAFQA ran"),
            clapton_initial_energy: report.clapton_initial_energy.expect("Clapton ran"),
        }
    }

    fn values(&self) -> [(&'static str, f64); 4] {
        [
            ("e0", self.e0),
            ("cafqa_initial_energy", self.cafqa_initial_energy),
            ("ncafqa_initial_energy", self.ncafqa_initial_energy),
            ("clapton_initial_energy", self.clapton_initial_energy),
        ]
    }
}

/// The specs `fig5 --quick --seed 1` runs on `nairobi`, without its VQE
/// stage: the fixture pins the initial energies that figure prints.
fn suite_specs() -> Vec<JobSpec> {
    let options = Options {
        effort: 0,
        seed: SEED,
    };
    benchmark_names(QUBITS)
        .iter()
        .map(|name| {
            let mut spec = options.spec(name, QUBITS);
            spec.backend = BackendSpec::Named(NamedBackend {
                name: BACKEND.to_string(),
            });
            spec.noise = NoiseSpec::Backend;
            spec.methods = vec![MethodSpec::Cafqa, MethodSpec::Ncafqa, MethodSpec::Clapton];
            spec
        })
        .collect()
}

fn within(actual: f64, expected: f64) -> bool {
    (actual - expected).abs() <= 1e-9 * expected.abs().max(1.0)
}

#[test]
fn quick_physics_suite_reproduces_the_paper_claims() {
    let reports: Vec<Report> = ClaptonService::new()
        .run_all(suite_specs(), None)
        .expect("suite specs validate")
        .into_iter()
        .map(|r| r.expect("job converges"))
        .collect();
    assert_eq!(reports.len(), 6, "the 7-qubit physics suite");

    let mut eta_cafqa = Vec::new();
    let mut eta_ncafqa = Vec::new();
    for report in &reports {
        let name = &report.name;
        let clapton = report.clapton.as_ref().expect("Clapton ran");
        assert!(
            clapton.loss_0 >= report.e0 - 1e-9,
            "{name}: L0 {} below E0 {}",
            clapton.loss_0,
            report.e0
        );
        let e0_hat = ground_energy(&clapton.transformation.transformed);
        assert!(
            (e0_hat - report.e0).abs() < 1e-7,
            "{name}: transformed ground energy {e0_hat} vs E0 {}",
            report.e0
        );
        let row = Row::from_report(report);
        assert!(
            row.clapton_initial_energy <= row.cafqa_initial_energy,
            "{name}: Clapton {} above CAFQA {}",
            row.clapton_initial_energy,
            row.cafqa_initial_energy
        );
        assert!(
            row.clapton_initial_energy <= row.ncafqa_initial_energy,
            "{name}: Clapton {} above nCAFQA {}",
            row.clapton_initial_energy,
            row.ncafqa_initial_energy
        );
        eta_cafqa.push(relative_improvement(
            row.e0,
            row.cafqa_initial_energy,
            row.clapton_initial_energy,
        ));
        eta_ncafqa.push(relative_improvement(
            row.e0,
            row.ncafqa_initial_energy,
            row.clapton_initial_energy,
        ));
    }
    let (vs_cafqa, vs_ncafqa) = (geometric_mean(&eta_cafqa), geometric_mean(&eta_ncafqa));
    assert!(vs_cafqa > 1.0, "geometric-mean η vs CAFQA {vs_cafqa}");
    assert!(vs_ncafqa > 1.0, "geometric-mean η vs nCAFQA {vs_ncafqa}");

    let observed = Fixture {
        backend: BACKEND.to_string(),
        qubits: QUBITS,
        seed: SEED,
        instances: reports.iter().map(Row::from_report).collect(),
    };
    let observed_json = serde_json::to_string_pretty(&observed).expect("fixture serializes");
    let expected: Fixture = serde_json::from_str(FIXTURE).expect("fixture parses");
    assert_eq!(
        (&expected.backend, expected.qubits, expected.seed),
        (&observed.backend, observed.qubits, observed.seed),
        "the fixture describes another run"
    );
    assert_eq!(
        expected.instances.len(),
        observed.instances.len(),
        "instance count; observed:\n{observed_json}"
    );
    for (want, got) in expected.instances.iter().zip(&observed.instances) {
        assert_eq!(want.name, got.name, "instance order");
        for ((field, w), (_, g)) in want.values().into_iter().zip(got.values()) {
            assert!(
                within(g, w),
                "{}: {field} {g} vs reference {w}; observed:\n{observed_json}",
                want.name
            );
        }
    }
}
