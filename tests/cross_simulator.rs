//! Cross-simulator consistency: the same circuits and noise must produce the
//! same numbers across all four evaluation engines —
//!
//! 1. Aaronson–Gottesman stabilizer tableau,
//! 2. dense statevector,
//! 3. exact Clifford-noise back-propagation,
//! 4. dense density matrix (+ Pauli-frame sampler statistically).
//!
//! These agreements are what let Clapton optimize against the cheap model
//! and be evaluated against the expensive one.

use clapton::circuits::{Circuit, Gate, HardwareEfficientAnsatz};
use clapton::core::device_energy;
use clapton::noise::{ExactEvaluator, FrameSampler, NoiseModel, NoisyCircuit};
use clapton::pauli::{PauliString, PauliSum};
use clapton::sim::{DeviceEvaluator, StateVector};
use clapton::stabilizer::StabilizerState;
use clapton_bench::{Options, SuiteConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_clifford_circuit(n: usize, len: usize, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..len {
        match rng.gen_range(0..7) {
            0 => c.push(Gate::H(rng.gen_range(0..n))),
            1 => c.push(Gate::S(rng.gen_range(0..n))),
            2 => c.push(Gate::Sdg(rng.gen_range(0..n))),
            3 => c.push(Gate::Ry(
                rng.gen_range(0..n),
                f64::from(rng.gen_range(0..4u8)) * std::f64::consts::FRAC_PI_2,
            )),
            4 => c.push(Gate::Rz(
                rng.gen_range(0..n),
                f64::from(rng.gen_range(0..4u8)) * std::f64::consts::FRAC_PI_2,
            )),
            _ => {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                if rng.gen_bool(0.8) {
                    c.push(Gate::Cx(a, b));
                } else {
                    c.push(Gate::Swap(a, b));
                }
            }
        }
    }
    c
}

#[test]
fn four_engines_agree_on_noiseless_clifford_circuits() {
    let mut rng = StdRng::seed_from_u64(1001);
    for _ in 0..15 {
        let n = rng.gen_range(2..6);
        let circuit = random_clifford_circuit(n, 30, &mut rng);
        let sv = StateVector::from_circuit(&circuit);
        let mut stab = StabilizerState::new(n);
        stab.apply_all(&circuit.to_clifford().unwrap());
        let model = NoiseModel::noiseless(n);
        let noisy = NoisyCircuit::from_circuit(&circuit, &model).unwrap();
        let exact = ExactEvaluator::new(&noisy);
        let device = DeviceEvaluator::dense(&circuit, &model);
        for _ in 0..12 {
            let p = PauliString::random(n, &mut rng);
            let reference = sv.expectation(&p);
            assert!(
                (stab.expectation(&p) - reference).abs() < 1e-10,
                "stabilizer vs statevector on {p}"
            );
            assert!(
                (exact.noiseless_expectation(&p) - reference).abs() < 1e-10,
                "backprop vs statevector on {p}"
            );
            // Noiseless: no readout or basis-prep factors.
            assert!(
                (device.expectation(&p) - reference).abs() < 1e-9,
                "density vs statevector on {p}"
            );
        }
    }
}

#[test]
fn exact_evaluator_matches_density_matrix_under_pauli_noise() {
    let mut rng = StdRng::seed_from_u64(2002);
    for _ in 0..10 {
        let n = rng.gen_range(2..5);
        let circuit = random_clifford_circuit(n, 20, &mut rng);
        let model = NoiseModel::uniform(
            n,
            rng.gen_range(1e-4..5e-3),
            rng.gen_range(1e-3..2e-2),
            rng.gen_range(1e-3..5e-2),
        );
        let noisy = NoisyCircuit::from_circuit(&circuit, &model).unwrap();
        let exact = ExactEvaluator::new(&noisy);
        let device = DeviceEvaluator::dense(&circuit, &model);
        for _ in 0..10 {
            let p = PauliString::random(n, &mut rng);
            let a = exact.expectation(&p);
            let b = device.expectation(&p);
            assert!((a - b).abs() < 1e-9, "term {p}: exact {a} vs density {b}");
        }
    }
}

#[test]
fn device_energy_matches_density_matrix_on_ten_qubit_suite_jobs() {
    // Whole-Hamiltonian device energies on the quick suite's own 10-qubit
    // executables and noise (no T1): the exact engine `device_energy`
    // dispatches to against the density matrix, at θ = 0 and at one
    // quarter-turn θ.
    let specs = SuiteConfig {
        options: Options { effort: 0, seed: 7 },
        qubits: 10,
    }
    .specs();
    let mut rng = StdRng::seed_from_u64(4004);
    for name in ["ising(J=0.25)", "H6(l=1.0)"] {
        let spec = specs.iter().find(|s| s.display_name() == name).unwrap();
        let job = spec.validate().unwrap();
        let exec = &job.exec;
        assert!(!exec.noise_model().has_relaxation());
        let quarter_turns: Vec<u8> = (0..exec.ansatz().num_parameters())
            .map(|_| rng.gen_range(0..4u8))
            .collect();
        for theta in [
            vec![0.0; exec.ansatz().num_parameters()],
            exec.ansatz().angles_from_indices(&quarter_turns),
        ] {
            let dense = DeviceEvaluator::dense(&exec.circuit(&theta), exec.noise_model())
                .energy(&exec.map_hamiltonian(&job.hamiltonian));
            let exact = device_energy(exec, &job.hamiltonian, &theta);
            assert!(
                (exact - dense).abs() < 1e-9,
                "{name}: exact {exact} vs dense {dense}"
            );
        }
    }
}

#[test]
fn frame_sampler_mean_matches_exact_on_the_ansatz() {
    let mut rng = StdRng::seed_from_u64(3003);
    let n = 4;
    let ansatz = HardwareEfficientAnsatz::new(n);
    let circuit = ansatz.circuit_at_zero();
    let model = NoiseModel::uniform(n, 5e-3, 3e-2, 3e-2);
    let noisy = NoisyCircuit::from_circuit(&circuit, &model).unwrap();
    let exact = ExactEvaluator::new(&noisy);
    let sampler = FrameSampler::new(&noisy);
    let h = PauliSum::from_terms(
        n,
        vec![
            (1.0, "ZZII".parse().unwrap()),
            (0.5, "IZZI".parse().unwrap()),
            (-0.7, "ZIIZ".parse().unwrap()),
        ],
    );
    let sampled = sampler.energy(&h, 30_000, &mut rng);
    let reference = exact.energy(&h);
    assert!(
        (sampled - reference).abs() < 0.05,
        "sampled {sampled} vs exact {reference}"
    );
}

#[test]
fn relaxation_breaks_clifford_model_in_the_expected_direction() {
    // With T1 decay, the density evaluation of an excited-state-heavy
    // circuit must be *worse* (higher energy for a Hamiltonian whose ground
    // state is |1…1⟩) than the Clifford model predicts — the gap that
    // motivates Clapton's transformation toward |0…0⟩ (§4.2.1).
    let n = 3;
    let mut circuit = Circuit::new(n);
    for q in 0..n {
        circuit.push(Gate::Ry(q, std::f64::consts::PI)); // |111⟩
    }
    // H = Σ Z_i has energy -3 on |111⟩.
    let h = PauliSum::from_terms(
        n,
        (0..n).map(|q| (1.0, PauliString::single(n, q, clapton::pauli::Pauli::Z))),
    );
    let mut model = NoiseModel::uniform(n, 1e-3, 0.0, 1e-2);
    model.set_t1_uniform(30e-6);
    let noisy = NoisyCircuit::from_circuit(&circuit, &model).unwrap();
    let clifford_prediction = ExactEvaluator::new(&noisy).energy(&h);
    let device = DeviceEvaluator::run(&circuit, &model).energy(&h);
    assert!(
        device > clifford_prediction + 0.01,
        "relaxation must push energy up: device {device} vs clifford {clifford_prediction}"
    );
    // Whereas the all-zeros circuit shows no such gap (|0⟩ does not decay).
    let zeros = Circuit::new(n);
    let noisy0 = NoisyCircuit::from_circuit(&zeros, &model).unwrap();
    let clifford0 = ExactEvaluator::new(&noisy0).energy(&h);
    let device0 = DeviceEvaluator::run(&zeros, &model).energy(&h);
    assert!(
        (device0 - clifford0).abs() < 1e-9,
        "|0…0⟩ is immune to relaxation: {device0} vs {clifford0}"
    );
}
