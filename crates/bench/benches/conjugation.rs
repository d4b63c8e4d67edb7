//! Microbenchmarks of the Clifford machinery underlying Figure 9's scaling:
//! the batched Hamiltonian transformation and stabilizer evolution, as a
//! function of qubit count.

use clapton_circuits::TransformationAnsatz;
use clapton_core::transform_hamiltonian;
use clapton_models::ising;
use clapton_stabilizer::StabilizerState;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn genome_for(ansatz: &TransformationAnsatz, seed: u64) -> Vec<u8> {
    (0..ansatz.num_genes())
        .map(|i| ((seed.wrapping_mul(0x9E3779B97F4A7C15) >> (i % 60)) & 3) as u8)
        .collect()
}

fn bench_hamiltonian_transform(c: &mut Criterion) {
    let mut group = c.benchmark_group("hamiltonian_transform");
    for n in [10usize, 20, 40] {
        let h = ising(n, 0.25);
        let ansatz = TransformationAnsatz::new(n);
        let gates = ansatz.gates(&genome_for(&ansatz, 13));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| transform_hamiltonian(black_box(&h), black_box(&gates)));
        });
    }
    group.finish();
}

fn bench_stabilizer_evolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("stabilizer_evolution");
    for n in [10usize, 20, 40] {
        let ansatz = TransformationAnsatz::new(n);
        let gates = ansatz.gates(&genome_for(&ansatz, 23));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut st = StabilizerState::new(n);
                st.apply_all(black_box(&gates));
                st
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_hamiltonian_transform, bench_stabilizer_evolution
}
criterion_main!(benches);
