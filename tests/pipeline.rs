//! End-to-end pipeline tests: the full application → transformation → device
//! flow on real benchmark instances and fake backends.

use clapton::core::{
    device_energy, run_cafqa, run_clapton, run_ncafqa, ClaptonConfig, EvaluatorKind,
    ExecutableAnsatz, LossFunction, WorkerPool,
};
use clapton::devices::FakeBackend;
use clapton::ga::MultiGaConfig;
use clapton::models::{benchmark_suite, ising, physics_suite, xxz};
use clapton::sim::ground_energy;
use clapton::vqe::{run_vqe, VqeConfig};
use std::sync::Arc;

/// A 0-worker pool: every search runs inline on the test thread.
fn inline() -> Arc<WorkerPool> {
    Arc::new(WorkerPool::with_workers(0))
}

#[test]
fn clapton_improves_over_cafqa_on_nairobi_physics_suite() {
    // The headline claim at reduced scale: across the 7-qubit physics
    // suite on nairobi, Clapton's initial device energy beats CAFQA's on
    // average (geometric-mean η > 1).
    let backend = FakeBackend::nairobi();
    let mut etas = Vec::new();
    for bench in physics_suite(7) {
        let h = &bench.hamiltonian;
        let exec =
            ExecutableAnsatz::on_device(7, backend.coupling_map(), &backend.noise_model()).unwrap();
        let e0 = ground_energy(h);
        let cafqa = run_cafqa(h, &exec, &MultiGaConfig::quick(), 0, &inline());
        let e_cafqa = device_energy(&exec, h, &cafqa.theta);
        let clapton = run_clapton(h, &exec, &ClaptonConfig::quick(1), &inline());
        let zeros = vec![0.0; exec.ansatz().num_parameters()];
        let e_clapton = device_energy(&exec, &clapton.transformation.transformed, &zeros);
        etas.push(clapton::core::relative_improvement(e0, e_cafqa, e_clapton));
    }
    let geo = clapton::core::geometric_mean(&etas);
    assert!(geo > 1.0, "geometric-mean eta {geo} (etas {etas:?})");
}

#[test]
fn transformed_problems_keep_their_spectrum_across_the_suite() {
    for bench in benchmark_suite(10).into_iter().take(4) {
        let h = &bench.hamiltonian;
        let model = clapton::noise::NoiseModel::uniform(10, 1e-3, 1e-2, 2e-2);
        let exec = ExecutableAnsatz::untranspiled(10, &model);
        let result = run_clapton(h, &exec, &ClaptonConfig::quick(3), &inline());
        let e0 = ground_energy(h);
        let e0_hat = ground_energy(&result.transformation.transformed);
        assert!(
            (e0 - e0_hat).abs() < 1e-7,
            "{}: E0 {e0} vs transformed {e0_hat}",
            bench.name
        );
        assert_eq!(
            result.transformation.transformed.num_terms(),
            h.num_terms(),
            "{}: term structure preserved",
            bench.name
        );
    }
}

#[test]
fn ncafqa_beats_cafqa_under_noise_on_average() {
    // The paper's intermediate claim: modeling noise helps even without the
    // transformation (nCAFQA ≥ CAFQA at the initial point, most of the time).
    let n = 5;
    let mut model = clapton::noise::NoiseModel::uniform(n, 3e-3, 2.5e-2, 4e-2);
    model.set_t1_uniform(60e-6);
    let exec = ExecutableAnsatz::untranspiled(n, &model);
    let mut wins = 0;
    let mut total = 0;
    for (i, bench) in physics_suite(n).into_iter().enumerate() {
        let h = &bench.hamiltonian;
        let cafqa = run_cafqa(h, &exec, &MultiGaConfig::quick(), i as u64, &inline());
        let ncafqa = run_ncafqa(
            h,
            &exec,
            &MultiGaConfig::quick(),
            EvaluatorKind::Exact,
            i as u64,
            &inline(),
        );
        let e_c = device_energy(&exec, h, &cafqa.theta);
        let e_n = device_energy(&exec, h, &ncafqa.theta);
        total += 1;
        if e_n <= e_c + 1e-9 {
            wins += 1;
        }
    }
    assert!(
        wins * 2 >= total,
        "nCAFQA won only {wins}/{total} benchmarks"
    );
}

#[test]
fn full_vqe_pipeline_converges_from_clapton_start() {
    let n = 4;
    let h = xxz(n, 0.5);
    let mut model = clapton::noise::NoiseModel::uniform(n, 5e-4, 5e-3, 1e-2);
    model.set_t1_uniform(150e-6);
    let exec = ExecutableAnsatz::untranspiled(n, &model);
    let clapton = run_clapton(&h, &exec, &ClaptonConfig::quick(9), &inline());
    let zeros = vec![0.0; exec.ansatz().num_parameters()];
    let trace = run_vqe(
        &clapton.transformation.transformed,
        &exec,
        &zeros,
        &VqeConfig::new(80),
    );
    // VQE must not regress from the Clapton start...
    assert!(trace.final_energy <= trace.initial_energy + 0.1);
    // ...and must respect the variational bound up to noise bias.
    let e0 = ground_energy(&h);
    assert!(trace.final_energy >= e0 - 1.0);
}

#[test]
fn loss_total_decomposes_and_orders_methods_consistently() {
    let n = 4;
    let h = ising(n, 1.0);
    let model = clapton::noise::NoiseModel::uniform(n, 2e-3, 1.5e-2, 3e-2);
    let exec = ExecutableAnsatz::untranspiled(n, &model);
    let loss = LossFunction::new(&exec, EvaluatorKind::Exact);
    let clapton = run_clapton(&h, &exec, &ClaptonConfig::quick(17), &inline());
    // Reported pieces must reproduce independent recomputation.
    let recomputed_ln = loss.loss_n(&clapton.transformation.transformed);
    let recomputed_l0 = loss.loss_0(&clapton.transformation.transformed);
    assert!((recomputed_ln - clapton.loss_n).abs() < 1e-9);
    assert!((recomputed_l0 - clapton.loss_0).abs() < 1e-9);
    assert!((clapton.loss - (recomputed_ln + recomputed_l0)).abs() < 1e-9);
}

#[test]
fn transpiled_and_untranspiled_agree_when_topology_is_a_ring() {
    // On a native ring there is nothing to route: device execution on the
    // ring coupling equals the logical circuit semantics.
    let n = 5;
    let h = xxz(n, 1.0);
    let coupling = clapton::circuits::CouplingMap::ring(n);
    let model = clapton::noise::NoiseModel::uniform(n, 1e-3, 1e-2, 2e-2);
    let exec_device = ExecutableAnsatz::on_device(n, &coupling, &model).unwrap();
    let exec_plain = ExecutableAnsatz::untranspiled(n, &model);
    // Same candidate transformation on both: losses agree (up to the chain
    // relabeling, which maps the problem consistently).
    let loss_device = LossFunction::new(&exec_device, EvaluatorKind::Exact);
    let loss_plain = LossFunction::new(&exec_plain, EvaluatorKind::Exact);
    let ring_has_no_swaps = exec_device
        .circuit_at_zero()
        .gates()
        .iter()
        .all(|g| !matches!(g, clapton::circuits::Gate::Swap(..)));
    assert!(ring_has_no_swaps, "ring hosts the circular ansatz natively");
    assert!(
        (loss_device.loss_n(&h) - loss_plain.loss_n(&h)).abs() < 1e-9,
        "ring transpilation must not change LN"
    );
}
