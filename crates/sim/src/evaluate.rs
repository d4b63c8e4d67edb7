//! Full-noise-model device evaluation: the paper's "device (model)
//! evaluation" (×) of Figures 2 and 5.

use crate::DensityMatrix;
use clapton_circuits::{Circuit, Gate};
use clapton_noise::{ExactEvaluator, NoiseModel, NoisyCircuit};
use clapton_pauli::{Pauli, PauliString, PauliSum};

/// Runs circuits under the *full* noise model — depolarizing gate errors,
/// thermal relaxation on every qubit per scheduled moment, and readout
/// error — and evaluates Hamiltonian energies on the resulting mixed state.
///
/// [`DeviceEvaluator::run`] picks its engine from its inputs alone:
///
/// * **exact** — when the model has no relaxation
///   (`!NoiseModel::has_relaxation()`) and the circuit lowers to a
///   [`NoisyCircuit`] (every rotation on the Clifford grid), the device model
///   is a Clifford circuit under Pauli channels: the paper's own simulable
///   noise model (§4.1, Eq. 9). Energies then come from
///   [`ExactEvaluator`]'s closed-form Heisenberg back-propagation, with no
///   register-size limit;
/// * **dense** — otherwise ([`DeviceEvaluator::dense`]): the density-matrix
///   simulation (Qiskit Aer in the paper). Amplitude damping makes T1
///   models inaccessible to stabilizer simulation, which is precisely the
///   model/modeled-noise gap Clapton's hypothesis addresses.
///
/// The two engines compute the same channel wherever both apply (the
/// density matrix is the exact path's test oracle). Their shared semantics:
/// * every gate slot carries its depolarizing channel (identity rotations
///   included),
/// * measurement of a term includes basis-prep gate noise (depolarizing
///   commutes with single-qubit unitaries, so the prep noise contributes an
///   exact `(1-4p/3)` factor per prep gate) and the `(1-2p_k)` readout
///   factor per measured qubit,
/// * relaxation: all qubits decay for each moment's duration (ASAP schedule)
///   and for the readout duration at the end.
///
/// # Example
///
/// ```
/// use clapton_circuits::{Circuit, Gate};
/// use clapton_noise::NoiseModel;
/// use clapton_sim::DeviceEvaluator;
/// use clapton_pauli::PauliSum;
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::X(0));
/// let mut model = NoiseModel::uniform(2, 1e-3, 1e-2, 2e-2);
/// model.set_t1_uniform(100e-6);
/// let eval = DeviceEvaluator::run(&c, &model);
/// let h = PauliSum::from_terms(2, vec![(1.0, "ZI".parse().unwrap())]);
/// let e = eval.energy(&h);
/// assert!(e > -1.0 && e < -0.9); // close to -1, degraded by noise
/// ```
#[derive(Debug, Clone)]
pub struct DeviceEvaluator {
    engine: Engine,
}

#[derive(Debug, Clone)]
enum Engine {
    Exact(NoisyCircuit),
    Dense {
        rho: DensityMatrix,
        model: NoiseModel,
    },
}

impl DeviceEvaluator {
    /// Executes `circuit` under `model` from `|0…0⟩` on the exact engine
    /// when the model has no relaxation and the circuit is Clifford, and on
    /// the density matrix ([`DeviceEvaluator::dense`]) otherwise.
    ///
    /// # Panics
    ///
    /// Panics if circuit and model disagree on the register size, or if the
    /// dense engine is needed and the register exceeds the density-matrix
    /// limit ([`MAX_DENSITY_QUBITS`](crate::MAX_DENSITY_QUBITS)).
    pub fn run(circuit: &Circuit, model: &NoiseModel) -> DeviceEvaluator {
        if !model.has_relaxation() {
            if let Ok(noisy) = NoisyCircuit::from_circuit(circuit, model) {
                return DeviceEvaluator {
                    engine: Engine::Exact(noisy),
                };
            }
        }
        DeviceEvaluator::dense(circuit, model)
    }

    /// Executes `circuit` under `model` from `|0…0⟩` on the density matrix,
    /// whatever the model and circuit: the T1 and non-Clifford engine, and
    /// the oracle the exact engine is tested against.
    ///
    /// # Panics
    ///
    /// Panics if circuit and model disagree on the register size, or the
    /// register exceeds the density-matrix limit
    /// ([`MAX_DENSITY_QUBITS`](crate::MAX_DENSITY_QUBITS)).
    pub fn dense(circuit: &Circuit, model: &NoiseModel) -> DeviceEvaluator {
        assert_eq!(
            circuit.num_qubits(),
            model.num_qubits(),
            "model/circuit size mismatch"
        );
        let n = circuit.num_qubits();
        let mut rho = DensityMatrix::new(n);
        let durations = model.durations();
        let gates = circuit.gates();
        for moment in circuit.moments() {
            let mut moment_duration = 0.0f64;
            for &gi in &moment {
                let g = gates[gi];
                rho.apply_gate(g);
                match g {
                    Gate::Cx(a, b) => {
                        rho.depolarize_2q(a, b, model.p2(a, b));
                        moment_duration = moment_duration.max(durations.two);
                    }
                    Gate::Swap(a, b) => {
                        rho.depolarize_2q(a, b, model.swap_error(a, b));
                        // A SWAP is three CX pulses long.
                        moment_duration = moment_duration.max(3.0 * durations.two);
                    }
                    g1 => {
                        let q = g1.qubits()[0];
                        rho.depolarize_1q(q, model.p1(q));
                        moment_duration = moment_duration.max(durations.single);
                    }
                }
            }
            Self::relax_all(&mut rho, model, moment_duration);
        }
        // Relaxation while the readout pulse runs.
        Self::relax_all(&mut rho, model, durations.readout);
        DeviceEvaluator {
            engine: Engine::Dense {
                rho,
                model: model.clone(),
            },
        }
    }

    fn relax_all(rho: &mut DensityMatrix, model: &NoiseModel, duration: f64) {
        if duration <= 0.0 {
            return;
        }
        for q in 0..model.num_qubits() {
            let t1 = model.t1(q);
            if t1.is_finite() {
                let gamma = 1.0 - (-duration / t1).exp();
                rho.amplitude_damp(q, gamma);
            }
        }
    }

    /// The measured expectation of one Pauli term, including basis-prep gate
    /// noise and readout error.
    pub fn expectation(&self, term: &PauliString) -> f64 {
        let (rho, model) = match &self.engine {
            Engine::Exact(noisy) => return ExactEvaluator::new(noisy).expectation(term),
            Engine::Dense { rho, model } => (rho, model),
        };
        let mut factor = 1.0;
        for q in term.support() {
            factor *= 1.0 - 2.0 * model.readout(q);
            // Basis prep: 1 gate for X, 2 for Y, each a (1-4p/3) damping.
            let prep_gates = match term.get(q) {
                Pauli::X => 1,
                Pauli::Y => 2,
                _ => 0,
            };
            for _ in 0..prep_gates {
                factor *= 1.0 - 4.0 * model.p1(q) / 3.0;
            }
        }
        factor * rho.expectation(term)
    }

    /// The measured energy of a Hamiltonian (the exact engine evaluates all
    /// terms in one bit-parallel pass, [`ExactEvaluator::energy`]).
    pub fn energy(&self, h: &PauliSum) -> f64 {
        match &self.engine {
            Engine::Exact(noisy) => ExactEvaluator::new(noisy).energy(h),
            Engine::Dense { .. } => h.iter().map(|(c, p)| c * self.expectation(p)).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapton_circuits::HardwareEfficientAnsatz;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn noiseless_run_is_exact() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cx(0, 1));
        let model = NoiseModel::noiseless(2);
        for eval in [
            DeviceEvaluator::run(&c, &model),
            DeviceEvaluator::dense(&c, &model),
        ] {
            assert!((eval.expectation(&ps("ZZ")) - 1.0).abs() < 1e-12);
            assert!((eval.expectation(&ps("XX")) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn run_takes_the_exact_engine_only_without_t1_on_clifford_circuits() {
        let n = 4;
        let mut rng = StdRng::seed_from_u64(18);
        let h = PauliSum::from_terms(
            n,
            (0..40).map(|_| (rng.gen_range(-1.0..1.0), PauliString::random(n, &mut rng))),
        );
        let ansatz = HardwareEfficientAnsatz::new(n);
        let quarter_turns: Vec<u8> = (0..ansatz.num_parameters())
            .map(|_| rng.gen_range(0..4u8))
            .collect();
        let clifford = ansatz.circuit(&ansatz.angles_from_indices(&quarter_turns));
        let mut rotated = clifford.clone();
        rotated.push(Gate::Ry(1, 0.3));
        let pauli = NoiseModel::uniform(n, 2e-3, 1e-2, 2e-2);
        let mut t1 = pauli.clone();
        t1.set_t1_uniform(80e-6);
        let bits = |eval: DeviceEvaluator| eval.energy(&h).to_bits();
        assert_eq!(
            bits(DeviceEvaluator::run(&clifford, &t1)),
            bits(DeviceEvaluator::dense(&clifford, &t1))
        );
        assert_eq!(
            bits(DeviceEvaluator::run(&rotated, &pauli)),
            bits(DeviceEvaluator::dense(&rotated, &pauli))
        );
        let noisy = NoisyCircuit::from_circuit(&clifford, &pauli).unwrap();
        assert_eq!(
            bits(DeviceEvaluator::run(&clifford, &pauli)),
            ExactEvaluator::new(&noisy).energy(&h).to_bits()
        );
        // The exact engine has no density-matrix register limit.
        let wide = 20;
        let circuit = HardwareEfficientAnsatz::new(wide).circuit_at_zero();
        let model = NoiseModel::uniform(wide, 2e-3, 1e-2, 2e-2);
        let h = PauliSum::from_terms(
            wide,
            (0..30).map(|_| {
                (
                    rng.gen_range(-1.0..1.0),
                    PauliString::random(wide, &mut rng),
                )
            }),
        );
        let noisy = NoisyCircuit::from_circuit(&circuit, &model).unwrap();
        assert_eq!(
            DeviceEvaluator::run(&circuit, &model).energy(&h).to_bits(),
            ExactEvaluator::new(&noisy).energy(&h).to_bits()
        );
    }

    #[test]
    fn matches_clifford_exact_evaluator_for_pauli_noise() {
        // With Pauli channels only (no T1), the density-matrix device
        // evaluation must agree with the closed-form Clifford evaluator on
        // every term — the cross-simulator consistency pillar.
        let mut rng = StdRng::seed_from_u64(2025);
        for _ in 0..8 {
            let n = rng.gen_range(2..5);
            let mut c = Circuit::new(n);
            for _ in 0..12 {
                match rng.gen_range(0..4) {
                    0 => c.push(Gate::H(rng.gen_range(0..n))),
                    1 => c.push(Gate::S(rng.gen_range(0..n))),
                    2 => c.push(Gate::Ry(rng.gen_range(0..n), std::f64::consts::FRAC_PI_2)),
                    _ => {
                        let a = rng.gen_range(0..n);
                        let mut b = rng.gen_range(0..n);
                        while b == a {
                            b = rng.gen_range(0..n);
                        }
                        c.push(Gate::Cx(a, b));
                    }
                }
            }
            let model = NoiseModel::uniform(n, 2e-3, 8e-3, 1.5e-2);
            let device = DeviceEvaluator::dense(&c, &model);
            let noisy = NoisyCircuit::from_circuit(&c, &model).unwrap();
            let clifford = ExactEvaluator::new(&noisy);
            for _ in 0..10 {
                let p = PauliString::random(n, &mut rng);
                let a = device.expectation(&p);
                let b = clifford.expectation(&p);
                assert!(
                    (a - b).abs() < 1e-9,
                    "term {p}: density {a} vs clifford {b} on {c}"
                );
            }
        }
    }

    #[test]
    fn relaxation_pulls_excited_state_down() {
        let mut c = Circuit::new(1);
        c.push(Gate::X(0));
        let mut model = NoiseModel::noiseless(1);
        model.set_t1_uniform(50e-6);
        let eval = DeviceEvaluator::run(&c, &model);
        // One 1q moment (35 ns) + readout (860 ns) of decay.
        let t = 35e-9 + 860e-9;
        let gamma = 1.0 - (-t / 50e-6f64).exp();
        let expected = -(1.0 - gamma) + gamma;
        assert!(
            (eval.expectation(&ps("Z")) - expected).abs() < 1e-12,
            "got {}, expected {expected}",
            eval.expectation(&ps("Z"))
        );
    }

    #[test]
    fn relaxation_affects_idle_qubits() {
        // Qubit 1 idles while qubit 0 runs a long two-qubit-free circuit;
        // put qubit 1 in |1⟩ first: it must decay during the other gates.
        let mut c = Circuit::new(2);
        c.push(Gate::X(1));
        for _ in 0..50 {
            c.push(Gate::H(0));
        }
        let mut model = NoiseModel::noiseless(2);
        model.set_t1(1, 20e-6);
        let eval = DeviceEvaluator::run(&c, &model);
        // X(1) shares moment 0 with the first H; 50 moments total + readout.
        let idle_time = 50.0 * 35e-9 + 860e-9;
        let gamma = 1.0 - (-idle_time / 20e-6f64).exp();
        let expected = 2.0 * gamma - 1.0;
        assert!(
            (eval.expectation(&ps("IZ")) - expected).abs() < 1e-10,
            "got {}, expected {expected}",
            eval.expectation(&ps("IZ"))
        );
    }

    #[test]
    fn ground_state_is_robust_to_relaxation() {
        // The Clapton hypothesis in miniature: |0…0⟩ does not decay.
        let c = Circuit::new(2);
        let mut model = NoiseModel::noiseless(2);
        model.set_t1_uniform(10e-6);
        let eval = DeviceEvaluator::run(&c, &model);
        assert!((eval.expectation(&ps("ZZ")) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn readout_and_prep_factors_scale_energy() {
        let c = Circuit::new(1);
        let model = NoiseModel::uniform(1, 1e-2, 0.0, 5e-2);
        for eval in [
            DeviceEvaluator::run(&c, &model),
            DeviceEvaluator::dense(&c, &model),
        ] {
            // ⟨Z⟩: readout only.
            assert!((eval.expectation(&ps("Z")) - (1.0 - 0.1)).abs() < 1e-12);
            // ⟨X⟩ on |0⟩ is 0 regardless.
            assert_eq!(eval.expectation(&ps("X")), 0.0);
        }
    }
}
