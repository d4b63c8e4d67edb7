//! Differential tests for the fused transform-and-score path of the exact
//! Clapton objective. `TransformLoss` scores `H`'s preloaded `TermBatch`
//! planes without materializing `Ĥ`; every loss must equal, bit for bit,
//! the materialized reference: `transform_hamiltonian`, then
//! `ExactEvaluator::energy` on the executable's mapped `Ĥ`, plus
//! `expectation_all_zeros`.

use clapton_circuits::{CouplingMap, TransformationAnsatz};
use clapton_core::{transform_hamiltonian, EvaluatorKind, ExecutableAnsatz, TransformLoss};
use clapton_eval::LossEvaluator;
use clapton_models::{molecular, Molecule};
use clapton_noise::{ExactEvaluator, NoiseModel, NoisyCircuit};
use clapton_pauli::{Pauli, PauliString, PauliSum};
use clapton_stabilizer::CliffordGate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The materialized loss `LN + L0` of `Ĥ = C† H C` on `exec`'s `θ = 0`
/// circuit.
fn reference(h: &PauliSum, exec: &ExecutableAnsatz, gates: &[CliffordGate]) -> f64 {
    let transformed = transform_hamiltonian(h, gates);
    let noisy = NoisyCircuit::from_circuit(&exec.circuit_at_zero(), exec.noise_model())
        .expect("the ansatz at θ = 0 is Clifford");
    let loss_n = ExactEvaluator::new(&noisy).energy(&exec.map_hamiltonian(&transformed));
    loss_n + transformed.expectation_all_zeros()
}

/// Per-qubit random gate and readout errors, some of them zero (a zero
/// gate error drops the basis-prep slot), so every lane's factor is a
/// product of distinct rates whose order matters for rounding.
fn random_model(n: usize, rng: &mut StdRng) -> NoiseModel {
    let mut model = NoiseModel::uniform(n, 1e-3, 1e-2, 2e-2);
    for q in 0..n {
        model.set_p1(q, [0.0, 3e-4, 2e-3, 1.1e-2][rng.gen_range(0..4)]);
        model.set_readout(q, rng.gen_range(0.0..0.05));
    }
    model
}

/// The untranspiled executable and one routed onto a line, whose ring
/// closure needs SWAPs, so logical qubits end on other compact indices.
fn executables(n: usize, rng: &mut StdRng) -> Vec<ExecutableAnsatz> {
    let model = random_model(n, rng);
    let routed = ExecutableAnsatz::on_device(n, &CouplingMap::line(n), &model).unwrap();
    assert!(
        !routed.mapping_is_identity(),
        "routing must permute n = {n}"
    );
    vec![ExecutableAnsatz::untranspiled(n, &model), routed]
}

fn random_hamiltonian(n: usize, m: usize, rng: &mut StdRng) -> PauliSum {
    PauliSum::from_terms(
        n,
        (0..m).map(|_| (rng.gen_range(-1.0..1.0), PauliString::random(n, rng))),
    )
}

/// `count` random gates cycling through all 13 variants.
fn random_gates(n: usize, count: usize, rng: &mut StdRng) -> Vec<CliffordGate> {
    (0..count)
        .map(|i| {
            let a = rng.gen_range(0..n);
            let b = (a + rng.gen_range(1..n)) % n;
            match i % 13 {
                0 => CliffordGate::H(a),
                1 => CliffordGate::S(a),
                2 => CliffordGate::Sdg(a),
                3 => CliffordGate::X(a),
                4 => CliffordGate::Y(a),
                5 => CliffordGate::Z(a),
                6 => CliffordGate::SqrtX(a),
                7 => CliffordGate::SqrtXdg(a),
                8 => CliffordGate::SqrtY(a),
                9 => CliffordGate::SqrtYdg(a),
                10 => CliffordGate::Cx(a, b),
                11 => CliffordGate::Cz(a, b),
                _ => CliffordGate::Swap(a, b),
            }
        })
        .collect()
}

/// A random non-identity Z-type string.
fn random_z_type(n: usize, rng: &mut StdRng) -> PauliString {
    let mut p = PauliString::single(n, rng.gen_range(0..n), Pauli::Z);
    for q in 0..n {
        if rng.gen_bool(0.5) {
            p.set(q, Pauli::Z);
        }
    }
    p
}

/// A random string with an X or a Y somewhere.
fn random_x_carrying(n: usize, rng: &mut StdRng) -> PauliString {
    let mut p = PauliString::random(n, rng);
    if p.is_z_type() {
        p.set(rng.gen_range(0..n), Pauli::X);
    }
    p
}

/// The Hamiltonian whose image under `gates` is `image`, term for term:
/// `image` conjugated through the inverse circuit.
fn preimage(image: &PauliSum, gates: &[CliffordGate]) -> PauliSum {
    let inverse: Vec<CliffordGate> = gates.iter().rev().map(|g| g.inverse()).collect();
    let h = transform_hamiltonian(image, &inverse);
    assert_eq!(transform_hamiltonian(&h, gates), *image, "preimage");
    h
}

/// Asserts that the fused loss of `h` under `gates` equals the
/// materialized reference bit for bit, and returns it.
fn assert_fused_matches(h: &PauliSum, exec: &ExecutableAnsatz, gates: &[CliffordGate]) -> f64 {
    let ansatz = TransformationAnsatz::new(h.num_qubits());
    let fused = TransformLoss::new(h, exec, &ansatz, EvaluatorKind::Exact).evaluate_gates(gates);
    let expected = reference(h, exec, gates);
    assert_eq!(
        fused.to_bits(),
        expected.to_bits(),
        "n {} M {} identity layout {}: {fused} vs {expected}",
        h.num_qubits(),
        h.num_terms(),
        exec.mapping_is_identity()
    );
    fused
}

fn random_genomes(count: usize, ansatz: &TransformationAnsatz, rng: &mut StdRng) -> Vec<Vec<u8>> {
    (0..count)
        .map(|_| {
            (0..ansatz.num_genes())
                .map(|_| rng.gen_range(0..4u8))
                .collect()
        })
        .collect()
}

#[test]
fn every_gate_variant_matches_the_reference_across_sizes_and_layouts() {
    // M around the 64-lane chunk boundary, registers on both sides of the
    // 64-qubit word boundary, identity and permuting layouts.
    let mut rng = StdRng::seed_from_u64(21);
    for n in [5usize, 70] {
        let ansatz = TransformationAnsatz::new(n);
        for exec in executables(n, &mut rng) {
            for m in [1usize, 63, 64, 65, 200] {
                let h = random_hamiltonian(n, m, &mut rng);
                let loss = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
                for _ in 0..3 {
                    let gates = random_gates(n, 52, &mut rng);
                    let fused = loss.evaluate_gates(&gates);
                    let expected = reference(&h, &exec, &gates);
                    assert_eq!(
                        fused.to_bits(),
                        expected.to_bits(),
                        "n {n} M {m} identity layout {}: {fused} vs {expected}",
                        exec.mapping_is_identity()
                    );
                }
            }
        }
    }
}

#[test]
fn h6_genomes_match_the_reference_one_at_a_time_and_in_batches() {
    let mut rng = StdRng::seed_from_u64(6);
    let h = molecular(Molecule::H6, 1.0);
    let n = h.num_qubits();
    let ansatz = TransformationAnsatz::new(n);
    for exec in executables(n, &mut rng) {
        let loss = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
        let mut genomes = random_genomes(12, &ansatz, &mut rng);
        genomes.push(vec![0; ansatz.num_genes()]);
        let expected: Vec<u64> = genomes
            .iter()
            .map(|g| reference(&h, &exec, &ansatz.gates(g)).to_bits())
            .collect();
        let single: Vec<u64> = genomes.iter().map(|g| loss.evaluate(g).to_bits()).collect();
        let batch: Vec<u64> = loss
            .evaluate_population(&genomes)
            .iter()
            .map(|l| l.to_bits())
            .collect();
        assert_eq!(single, expected, "evaluate");
        assert_eq!(batch, expected, "evaluate_population");
    }
}

#[test]
fn frozen_two_qubit_slots_score_the_masked_genome() {
    let mut rng = StdRng::seed_from_u64(8);
    let n = 5;
    let h = random_hamiltonian(n, 90, &mut rng);
    let ansatz = TransformationAnsatz::new(n);
    for exec in executables(n, &mut rng) {
        let loss =
            TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact).freeze_two_qubit_slots();
        let genomes = random_genomes(16, &ansatz, &mut rng);
        let losses = loss.evaluate_population(&genomes);
        for (g, l) in genomes.iter().zip(losses) {
            let masked = loss.masked(g);
            assert_ne!(&masked, g, "some slot gene must be frozen");
            let expected = reference(&h, &exec, &ansatz.gates(&masked));
            assert_eq!(l.to_bits(), expected.to_bits());
        }
    }
}

#[test]
fn identity_terms_read_one_in_any_lane() {
    // Identity terms in the first and last lane of a chunk and past the
    // chunk boundary, with the rest random.
    let mut rng = StdRng::seed_from_u64(12);
    let n = 5;
    let h = PauliSum::from_terms(
        n,
        (0..130).map(|i| match i {
            0 | 63 | 64 | 129 => (-0.75, PauliString::identity(n)),
            _ => (rng.gen_range(-1.0..1.0), PauliString::random(n, &mut rng)),
        }),
    );
    let ansatz = TransformationAnsatz::new(n);
    for exec in executables(n, &mut rng) {
        let loss = TransformLoss::new(&h, &exec, &ansatz, EvaluatorKind::Exact);
        for _ in 0..4 {
            let gates = random_gates(n, 40, &mut rng);
            assert_eq!(
                loss.evaluate_gates(&gates).to_bits(),
                reference(&h, &exec, &gates).to_bits()
            );
        }
    }
}

#[test]
fn dense_batches_flush_mid_chunk_across_chunks_and_at_the_end() {
    // Images of 300 terms with 129 to 192 Z-type ones interleaved with
    // X-carrying ones: the dense batch of Z-type lanes fills in the middle
    // of a chunk, spans chunk boundaries, and ends either partial or (at
    // exactly 128 and 192) full.
    let mut rng = StdRng::seed_from_u64(41);
    for n in [5usize, 70] {
        for exec in executables(n, &mut rng) {
            for z_type in [128usize, 129, 150, 192] {
                let gates = random_gates(n, 52, &mut rng);
                let mut image = PauliSum::new(n);
                let mut left = z_type;
                for i in 0..300 {
                    let c = rng.gen_range(-1.0..1.0);
                    if rng.gen_range(0..300 - i) < left {
                        left -= 1;
                        image.push(c, random_z_type(n, &mut rng));
                    } else {
                        image.push(c, random_x_carrying(n, &mut rng));
                    }
                }
                let h = preimage(&image, &gates);
                assert_eq!(image.iter().filter(|(_, p)| p.is_z_type()).count(), z_type);
                assert_fused_matches(&h, &exec, &gates);
            }
        }
    }
}

#[test]
fn a_circuit_leaving_every_lane_x_carrying_scores_plus_zero() {
    // Every term has a Z or a Y somewhere, so after an H on every qubit
    // each carries an X or a Y: no lane scores, no walk is made, and the
    // loss is +0.0 exactly, as the materialized sum of zeros is.
    let mut rng = StdRng::seed_from_u64(43);
    for n in [5usize, 70] {
        for exec in executables(n, &mut rng) {
            let mut h = PauliSum::new(n);
            for _ in 0..200 {
                let mut p = PauliString::random(n, &mut rng);
                if !(0..n).any(|q| matches!(p.get(q), Pauli::Z | Pauli::Y)) {
                    p.set(rng.gen_range(0..n), Pauli::Z);
                }
                h.push(rng.gen_range(-1.0..1.0), p);
            }
            let gates: Vec<CliffordGate> = (0..n).map(CliffordGate::H).collect();
            let loss = assert_fused_matches(&h, &exec, &gates);
            assert_eq!(loss.to_bits(), 0.0f64.to_bits(), "n {n}");
        }
    }
}

#[test]
fn identity_lanes_at_chunk_and_dense_batch_edges() {
    // Identity terms in the first and last lane of every 64-term chunk and
    // of every dense batch of Z-type lanes, under the empty circuit (the
    // image is H itself) and under random circuits.
    let mut rng = StdRng::seed_from_u64(47);
    for n in [5usize, 70] {
        for exec in executables(n, &mut rng) {
            for gates in [Vec::new(), random_gates(n, 52, &mut rng)] {
                let mut image = PauliSum::new(n);
                let mut dense = 0;
                for i in 0..320 {
                    let c = rng.gen_range(-1.0..1.0);
                    if matches!(i % 64, 0 | 63) || matches!(dense % 64, 0 | 63) {
                        image.push(c, PauliString::identity(n));
                        dense += 1;
                    } else if rng.gen_bool(0.5) {
                        image.push(c, random_z_type(n, &mut rng));
                        dense += 1;
                    } else {
                        image.push(c, random_x_carrying(n, &mut rng));
                    }
                }
                assert!(dense > 128, "{dense} Z-type terms");
                assert_fused_matches(&preimage(&image, &gates), &exec, &gates);
            }
        }
    }
}

#[test]
fn noiseless_plane_kernel_matches_the_scalar_reference() {
    // CAFQA-style quarter-turn circuits on both layouts. A leading identity
    // term keeps the total away from zero, where the scalar sum's `-0.0`
    // start could differ from the kernel's `+0.0` in the sign bit alone.
    let mut rng = StdRng::seed_from_u64(33);
    for n in [5usize, 70] {
        for exec in executables(n, &mut rng) {
            for m in [1usize, 64, 65, 200] {
                let mut h = PauliSum::new(n);
                h.push(0.5, PauliString::identity(n));
                h.extend(
                    random_hamiltonian(n, m, &mut rng)
                        .iter()
                        .map(|(c, p)| (c, p.clone())),
                );
                let indices: Vec<u8> = (0..exec.ansatz().num_parameters())
                    .map(|_| rng.gen_range(0..4u8))
                    .collect();
                let circuit = exec.circuit(&exec.ansatz().angles_from_indices(&indices));
                let noisy = NoisyCircuit::from_circuit(&circuit, exec.noise_model()).unwrap();
                let eval = ExactEvaluator::new(&noisy);
                let h = exec.map_hamiltonian(&h);
                assert_eq!(
                    eval.noiseless_energy(&h).to_bits(),
                    eval.noiseless_energy_scalar(&h).to_bits(),
                    "n {n} M {m}"
                );
                assert_eq!(
                    eval.energy(&h).to_bits(),
                    eval.energy_scalar(&h).to_bits(),
                    "n {n} M {m}"
                );
            }
        }
    }
}
