//! Noisy Clifford circuits: gates interleaved with stochastic Pauli channels.

use crate::NoiseModel;
use clapton_circuits::{Circuit, Gate};
use clapton_pauli::{Pauli, PauliString};
use clapton_stabilizer::CliffordGate;
use clapton_telemetry::Fnv1a;
use std::fmt;
use std::sync::OnceLock;

/// Error returned when a circuit contains non-Clifford rotations and can
/// therefore not be turned into a [`NoisyCircuit`].
#[derive(Debug, Clone, PartialEq)]
pub struct NotCliffordError {
    gate: Gate,
}

impl fmt::Display for NotCliffordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gate {} is not on the Clifford grid", self.gate)
    }
}

impl std::error::Error for NotCliffordError {}

/// One instruction of a noisy Clifford circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoisyOp {
    /// A noiseless Clifford gate.
    Clifford(CliffordGate),
    /// Single-qubit depolarizing channel of strength `p` on a qubit
    /// (`X`, `Y` or `Z` each with probability `p/3`).
    Depol1(usize, f64),
    /// Two-qubit depolarizing channel of strength `p` on a pair (each of the
    /// 15 non-identity two-qubit Paulis with probability `p/15`).
    Depol2(usize, usize, f64),
}

/// A Clifford circuit with stochastic Pauli noise attached after every gate
/// slot, plus per-qubit readout flip probabilities — the `Ã(0)` (or `Ã(θ)`)
/// of Eq. 9.
///
/// Identity rotation slots (e.g. `Ry(0)` in `A(0)`) contribute **no unitary**
/// but still carry their depolarizing channel: the paper's noisy ansatz keeps
/// all physical gate slots.
///
/// # Example
///
/// ```
/// use clapton_circuits::{Circuit, Gate};
/// use clapton_noise::{NoiseModel, NoisyCircuit};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::Ry(0, 0.0)); // identity slot, still noisy
/// c.push(Gate::Cx(0, 1));
/// let model = NoiseModel::uniform(2, 1e-3, 1e-2, 2e-2);
/// let noisy = NoisyCircuit::from_circuit(&c, &model)?;
/// assert_eq!(noisy.ops().len(), 3); // Depol1 + CX + Depol2
/// assert_eq!(noisy.readout(1), 2e-2);
/// # Ok::<(), clapton_noise::NotCliffordError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NoisyCircuit {
    num_qubits: usize,
    ops: Vec<NoisyOp>,
    readout: Vec<f64>,
    p1: Vec<f64>,
    /// Lazily-memoized content fingerprint (see [`NoisyCircuit::fingerprint`]).
    fingerprint: OnceLock<u64>,
    /// Lazily-memoized back-propagation op list (see
    /// [`NoisyCircuit::reversed_inverted_ops`]).
    reversed: OnceLock<Vec<NoisyOp>>,
}

/// Equality is over circuit contents only — the memoized fingerprint cell is
/// an implementation detail and must not distinguish otherwise-equal
/// circuits.
impl PartialEq for NoisyCircuit {
    fn eq(&self, other: &NoisyCircuit) -> bool {
        self.num_qubits == other.num_qubits
            && self.ops == other.ops
            && self.readout == other.readout
            && self.p1 == other.p1
    }
}

impl NoisyCircuit {
    /// Attaches the noise model to a Clifford circuit.
    ///
    /// Every gate lowers to its Clifford form followed by the matching
    /// depolarizing channel (SWAPs use the model's 3×CX-equivalent error).
    ///
    /// # Errors
    ///
    /// Returns [`NotCliffordError`] if any rotation is off the Clifford grid.
    pub fn from_circuit(
        circuit: &Circuit,
        model: &NoiseModel,
    ) -> Result<NoisyCircuit, NotCliffordError> {
        assert_eq!(
            circuit.num_qubits(),
            model.num_qubits(),
            "model/circuit size mismatch"
        );
        let mut ops = Vec::with_capacity(circuit.len() * 2);
        for gate in circuit.gates() {
            let cliffords = gate.to_clifford().ok_or(NotCliffordError { gate: *gate })?;
            ops.extend(cliffords.into_iter().map(NoisyOp::Clifford));
            match *gate {
                Gate::Cx(a, b) => {
                    let p = model.p2(a, b);
                    if p > 0.0 {
                        ops.push(NoisyOp::Depol2(a, b, p));
                    }
                }
                Gate::Swap(a, b) => {
                    let p = model.swap_error(a, b);
                    if p > 0.0 {
                        ops.push(NoisyOp::Depol2(a, b, p));
                    }
                }
                g => {
                    let q = g.qubits()[0];
                    let p = model.p1(q);
                    if p > 0.0 {
                        ops.push(NoisyOp::Depol1(q, p));
                    }
                }
            }
        }
        Ok(NoisyCircuit {
            num_qubits: circuit.num_qubits(),
            ops,
            readout: (0..circuit.num_qubits())
                .map(|q| model.readout(q))
                .collect(),
            p1: (0..circuit.num_qubits()).map(|q| model.p1(q)).collect(),
            fingerprint: OnceLock::new(),
            reversed: OnceLock::new(),
        })
    }

    /// The instruction stream reversed with every Clifford gate replaced by
    /// its inverse — the walk order of Heisenberg back-propagation
    /// (`O ← g† O g` for each gate, last gate first; stochastic channels
    /// keep their place and parameters).
    ///
    /// Built once and memoized: the exact evaluator re-walks this list once
    /// per term (scalar path) or once per 64-term batch, for every genome
    /// of every GA round, so paying `CliffordGate::inverse` per gate per
    /// term would be pure waste.
    pub fn reversed_inverted_ops(&self) -> &[NoisyOp] {
        self.reversed.get_or_init(|| {
            self.ops
                .iter()
                .rev()
                .map(|op| match *op {
                    NoisyOp::Clifford(g) => NoisyOp::Clifford(g.inverse()),
                    other => other,
                })
                .collect()
        })
    }

    /// A cheap deterministic content fingerprint, computed once and
    /// memoized — used to pin term-preparation caches to the circuit they
    /// were derived from (see [`crate::TermCache`]). Distinct gate kinds on
    /// the same qubits hash differently.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut hash = Fnv1a::new();
            hash.write_u64(self.num_qubits as u64);
            for op in &self.ops {
                match *op {
                    NoisyOp::Clifford(g) => {
                        hash.write_u64(1).write_u64(gate_code(g));
                        for q in g.qubits() {
                            hash.write_u64(q as u64 + 1);
                        }
                    }
                    NoisyOp::Depol1(q, p) => {
                        hash.write_u64(2)
                            .write_u64(q as u64 + 1)
                            .write_u64(p.to_bits());
                    }
                    NoisyOp::Depol2(a, b, p) => {
                        hash.write_u64(3)
                            .write_u64(a as u64 + 1)
                            .write_u64(b as u64 + 1)
                            .write_u64(p.to_bits());
                    }
                }
            }
            for q in 0..self.num_qubits {
                hash.write_u64(self.readout[q].to_bits())
                    .write_u64(self.p1[q].to_bits());
            }
            hash.finish()
        })
    }

    /// The register size.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The instruction stream.
    pub fn ops(&self) -> &[NoisyOp] {
        &self.ops
    }

    /// The readout flip probability of `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn readout(&self, q: usize) -> f64 {
        self.readout[q]
    }

    /// Single-qubit gate error on `q` (used for measurement-basis-prep gate
    /// noise).
    pub fn gate_p1(&self, q: usize) -> f64 {
        self.p1[q]
    }

    /// The measurement-basis preparation ops for a Pauli term: for every
    /// support qubit, the gates rotating its basis to `Z` (`H` for `X`;
    /// `S†, H` for `Y`), each followed by its depolarizing slot (§4.2.3).
    pub fn basis_prep_ops(&self, term: &PauliString) -> Vec<NoisyOp> {
        let mut ops = Vec::new();
        for q in term.support() {
            let gates: &[CliffordGate] = match term.get(q) {
                Pauli::X => &[CliffordGate::H(q)],
                Pauli::Y => &[CliffordGate::Sdg(q), CliffordGate::H(q)],
                _ => &[],
            };
            for &g in gates {
                ops.push(NoisyOp::Clifford(g));
                if self.p1[q] > 0.0 {
                    ops.push(NoisyOp::Depol1(q, self.p1[q]));
                }
            }
        }
        ops
    }
}

/// A distinct code per [`CliffordGate`] variant for fingerprinting (qubit
/// indices alone cannot tell `H(0)` from `S(0)`).
fn gate_code(g: CliffordGate) -> u64 {
    use CliffordGate::*;
    match g {
        H(_) => 1,
        S(_) => 2,
        Sdg(_) => 3,
        X(_) => 4,
        Y(_) => 5,
        Z(_) => 6,
        SqrtX(_) => 7,
        SqrtXdg(_) => 8,
        SqrtY(_) => 9,
        SqrtYdg(_) => 10,
        Cx(..) => 11,
        Cz(..) => 12,
        Swap(..) => 13,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_gate_kinds_and_memoizes() {
        let model = NoiseModel::noiseless(2);
        let build = |g: Gate| {
            let mut c = Circuit::new(2);
            c.push(g);
            NoisyCircuit::from_circuit(&c, &model).unwrap()
        };
        // Same qubits, different gates ⇒ different fingerprints.
        let h = build(Gate::H(0));
        let s = build(Gate::S(0));
        assert_ne!(h.fingerprint(), s.fingerprint());
        assert_ne!(
            build(Gate::Cx(0, 1)).fingerprint(),
            build(Gate::Swap(0, 1)).fingerprint()
        );
        // Equal circuits agree, and memoization is stable.
        assert_eq!(h.fingerprint(), build(Gate::H(0)).fingerprint());
        assert_eq!(h.fingerprint(), h.fingerprint());
        // Equality ignores whether the fingerprint has been computed.
        assert_eq!(h, build(Gate::H(0)));
        // Literal value: term caches and loss-store namespaces built by
        // earlier builds must keep matching.
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cx(0, 1));
        let model = NoiseModel::uniform(2, 1e-3, 1e-2, 2e-2);
        assert_eq!(
            NoisyCircuit::from_circuit(&c, &model)
                .unwrap()
                .fingerprint(),
            8052092271163807589
        );
    }

    #[test]
    fn reversed_inverted_ops_reverse_and_invert() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::S(1));
        c.push(Gate::Cx(0, 1));
        let model = NoiseModel::uniform(2, 1e-3, 1e-2, 0.0);
        let nc = NoisyCircuit::from_circuit(&c, &model).unwrap();
        assert_eq!(
            nc.reversed_inverted_ops(),
            &[
                NoisyOp::Depol2(0, 1, 1e-2),
                NoisyOp::Clifford(CliffordGate::Cx(0, 1)),
                NoisyOp::Depol1(1, 1e-3),
                NoisyOp::Clifford(CliffordGate::Sdg(1)),
                NoisyOp::Depol1(0, 1e-3),
                NoisyOp::Clifford(CliffordGate::H(0)),
            ]
        );
        // Memoized: the second call hands back the same slice.
        assert_eq!(
            nc.reversed_inverted_ops().as_ptr(),
            nc.reversed_inverted_ops().as_ptr()
        );
    }

    #[test]
    fn noise_attaches_after_each_gate() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cx(0, 1));
        let model = NoiseModel::uniform(2, 1e-3, 1e-2, 0.0);
        let nc = NoisyCircuit::from_circuit(&c, &model).unwrap();
        assert_eq!(
            nc.ops(),
            &[
                NoisyOp::Clifford(CliffordGate::H(0)),
                NoisyOp::Depol1(0, 1e-3),
                NoisyOp::Clifford(CliffordGate::Cx(0, 1)),
                NoisyOp::Depol2(0, 1, 1e-2),
            ]
        );
    }

    #[test]
    fn identity_slots_keep_noise() {
        let mut c = Circuit::new(1);
        c.push(Gate::Ry(0, 0.0));
        let model = NoiseModel::uniform(1, 1e-3, 0.0, 0.0);
        let nc = NoisyCircuit::from_circuit(&c, &model).unwrap();
        assert_eq!(nc.ops(), &[NoisyOp::Depol1(0, 1e-3)]);
    }

    #[test]
    fn noiseless_model_attaches_nothing() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cx(0, 1));
        let nc = NoisyCircuit::from_circuit(&c, &NoiseModel::noiseless(2)).unwrap();
        assert_eq!(nc.ops().len(), 2);
    }

    #[test]
    fn swap_uses_triple_error() {
        let mut c = Circuit::new(2);
        c.push(Gate::Swap(0, 1));
        let model = NoiseModel::uniform(2, 0.0, 0.01, 0.0);
        let nc = NoisyCircuit::from_circuit(&c, &model).unwrap();
        match nc.ops()[1] {
            NoisyOp::Depol2(0, 1, p) => assert!((p - 0.03).abs() < 1e-15),
            ref other => panic!("expected Depol2, got {other:?}"),
        }
    }

    #[test]
    fn non_clifford_is_rejected() {
        let mut c = Circuit::new(1);
        c.push(Gate::Ry(0, 0.3));
        let err = NoisyCircuit::from_circuit(&c, &NoiseModel::noiseless(1)).unwrap_err();
        assert!(err.to_string().contains("not on the Clifford grid"));
    }

    #[test]
    fn basis_prep_for_xyz() {
        let c = Circuit::new(3);
        let model = NoiseModel::uniform(3, 1e-3, 0.0, 0.0);
        let nc = NoisyCircuit::from_circuit(&c, &model).unwrap();
        let term: PauliString = "XYZ".parse().unwrap();
        let prep = nc.basis_prep_ops(&term);
        // X on q0: H + noise; Y on q1: Sdg + noise, H + noise; Z on q2: none.
        assert_eq!(
            prep,
            vec![
                NoisyOp::Clifford(CliffordGate::H(0)),
                NoisyOp::Depol1(0, 1e-3),
                NoisyOp::Clifford(CliffordGate::Sdg(1)),
                NoisyOp::Depol1(1, 1e-3),
                NoisyOp::Clifford(CliffordGate::H(1)),
                NoisyOp::Depol1(1, 1e-3),
            ]
        );
    }
}
