//! Microbenchmarks of the dense simulation substrate (the device-evaluation
//! cost that dominates VQE runs in Figures 5 and 6) and of the sim layer of
//! a suite job: E0 and the device energy of the θ = 0 circuit.

use clapton_bench::{Options, SuiteConfig};
use clapton_circuits::HardwareEfficientAnsatz;
use clapton_models::ising;
use clapton_noise::NoiseModel;
use clapton_sim::{ground_energy, DeviceEvaluator, StateVector};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_statevector(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_ansatz");
    for n in [6usize, 8, 10] {
        let ansatz = HardwareEfficientAnsatz::new(n);
        let theta: Vec<f64> = (0..ansatz.num_parameters())
            .map(|i| 0.1 * i as f64)
            .collect();
        let circuit = ansatz.circuit(&theta);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| StateVector::from_circuit(black_box(&circuit)));
        });
    }
    group.finish();
}

fn bench_device_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("device_evaluation");
    group.sample_size(10);
    for n in [6usize, 8, 10] {
        let ansatz = HardwareEfficientAnsatz::new(n);
        let theta: Vec<f64> = (0..ansatz.num_parameters())
            .map(|i| 0.2 * i as f64)
            .collect();
        let circuit = ansatz.circuit(&theta);
        let mut model = NoiseModel::uniform(n, 3e-4, 8e-3, 2e-2);
        model.set_t1_uniform(100e-6);
        let h = ising(n, 0.5);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| DeviceEvaluator::run(black_box(&circuit), &model).energy(&h));
        });
    }
    group.finish();
}

fn bench_ground_energy(c: &mut Criterion) {
    let mut group = c.benchmark_group("lanczos_ground_energy");
    group.sample_size(10);
    for n in [8usize, 10, 12] {
        let h = ising(n, 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| ground_energy(black_box(&h)));
        });
    }
    group.finish();
}

/// The per-job sim costs of the quick suite's `ising(J=0.25)` and
/// `H6(l=1.0)` jobs (Pauli noise, no T1) on their θ = 0 circuits: the device
/// energy on the engine `DeviceEvaluator::run` picks (exact) and on the
/// density matrix, and the Lanczos E0.
fn bench_sim_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_layer");
    group.sample_size(10);
    let specs = SuiteConfig {
        options: Options { effort: 0, seed: 7 },
        qubits: 10,
    }
    .specs();
    for (name, label) in [("ising(J=0.25)", "ising10"), ("H6(l=1.0)", "H6")] {
        let spec = specs.iter().find(|s| s.display_name() == name);
        let job = spec.expect("suite problem").validate().expect("suite spec");
        let circuit = job.exec.circuit_at_zero();
        let model = job.exec.noise_model();
        let h = job.exec.map_hamiltonian(&job.hamiltonian);
        group.bench_with_input(
            BenchmarkId::new("device_energy_exact", label),
            &circuit,
            |b, circuit| b.iter(|| DeviceEvaluator::run(black_box(circuit), model).energy(&h)),
        );
        group.bench_with_input(
            BenchmarkId::new("device_energy_dense", label),
            &circuit,
            |b, circuit| b.iter(|| DeviceEvaluator::dense(black_box(circuit), model).energy(&h)),
        );
        group.bench_with_input(
            BenchmarkId::new("ground_energy", label),
            &job.hamiltonian,
            |b, h| b.iter(|| ground_energy(black_box(h))),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_statevector, bench_device_evaluation, bench_ground_energy, bench_sim_layer
}
criterion_main!(benches);
