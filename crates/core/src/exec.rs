//! Device-aware executable ansätze: transpile once, rebuild for any θ.

use clapton_circuits::{
    chain_layout, route_with_layout, Circuit, CouplingMap, HardwareEfficientAnsatz,
};
use clapton_error::ClaptonError;
use clapton_noise::NoiseModel;
use clapton_pauli::{PauliString, PauliSum};
use std::collections::BTreeMap;

/// The VQE ansatz `A(θ)` prepared for execution on a concrete device:
/// logical chain layout, SWAP routing, and compaction onto the physical
/// qubits actually used, with the device noise model restricted accordingly.
///
/// Transpilation happens **before** Clapton (§5.2.2: "this so-called
/// transpilation step happens first to produce the transpiled ansatz A′,
/// which is then fed to the Clapton scheme"). Routing decisions depend only
/// on the gate structure, so the layout computed at `θ = 0` is reused to
/// rebuild `A'(θ)` for any parameter vector.
///
/// # Example
///
/// ```
/// use clapton_circuits::CouplingMap;
/// use clapton_core::ExecutableAnsatz;
/// use clapton_noise::NoiseModel;
///
/// let coupling = CouplingMap::line(6);
/// let model = NoiseModel::uniform(6, 1e-3, 1e-2, 2e-2);
/// let exec = ExecutableAnsatz::on_device(4, &coupling, &model).unwrap();
/// assert_eq!(exec.num_qubits(), 4); // compacted to the used line
/// let at_zero = exec.circuit_at_zero();
/// assert!(at_zero.is_clifford());
/// ```
#[derive(Debug, Clone)]
pub struct ExecutableAnsatz {
    ansatz: HardwareEfficientAnsatz,
    /// Compact coupling map routing happens on (None = no routing).
    coupling: Option<CouplingMap>,
    /// Initial layout logical → physical (device indices, for reporting).
    layout: Vec<usize>,
    /// Initial layout logical → compact (what routing uses).
    compact_layout: Vec<usize>,
    /// Logical qubit → compact index at circuit end (measurement mapping).
    final_compact: Vec<usize>,
    /// Noise model on the compact register.
    noise: NoiseModel,
    num_compact: usize,
}

impl ExecutableAnsatz {
    /// Transpiles an `n`-qubit circular ansatz onto a device.
    ///
    /// # Errors
    ///
    /// [`ClaptonError::Placement`] if the device cannot host an `n`-qubit
    /// chain.
    pub fn on_device(
        n: usize,
        coupling: &CouplingMap,
        device_model: &NoiseModel,
    ) -> Result<ExecutableAnsatz, ClaptonError> {
        assert_eq!(
            coupling.num_qubits(),
            device_model.num_qubits(),
            "coupling/model size mismatch"
        );
        let ansatz = HardwareEfficientAnsatz::new(n);
        let layout =
            chain_layout(coupling, n).map_err(|detail| ClaptonError::Placement { detail })?;
        // Routing is confined to the induced subgraph of the chain qubits:
        // SWAPping the ring closure through off-chain spectator qubits would
        // silently grow the active register (and drag in uncalibrated
        // qubits), so the executable uses exactly the N chain qubits.
        let compact_of_phys: BTreeMap<usize, usize> =
            layout.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        if compact_of_phys.len() != n {
            return Err(ClaptonError::Placement {
                detail: "chain layout assigned duplicate physical qubits".to_string(),
            });
        }
        let sub_edges: Vec<(usize, usize)> = coupling
            .edges()
            .iter()
            .filter_map(
                |&(a, b)| match (compact_of_phys.get(&a), compact_of_phys.get(&b)) {
                    (Some(&ca), Some(&cb)) => Some((ca, cb)),
                    _ => None,
                },
            )
            .collect();
        let sub_coupling = CouplingMap::new(n, sub_edges);
        let compact_layout: Vec<usize> = layout.iter().map(|p| compact_of_phys[p]).collect();
        let routed = route_with_layout(&ansatz.circuit_at_zero(), &sub_coupling, &compact_layout);
        let num_compact = n;
        // Restrict the noise model to the chain qubits.
        let mut noise = NoiseModel::noiseless(num_compact);
        let mut p2_sum = 0.0;
        let mut p2_count = 0usize;
        for (&pa, &ca) in &compact_of_phys {
            noise.set_p1(ca, device_model.p1(pa));
            noise.set_readout(ca, device_model.readout(pa));
            noise.set_t1(ca, device_model.t1(pa));
            for (&pb, &cb) in &compact_of_phys {
                if pa < pb && coupling.are_adjacent(pa, pb) {
                    let p = device_model.p2(pa, pb);
                    noise.set_p2(ca, cb, p);
                    p2_sum += p;
                    p2_count += 1;
                }
            }
        }
        if p2_count > 0 {
            noise.set_p2_default(p2_sum / p2_count as f64);
        }
        noise.set_durations(device_model.durations());
        let final_compact = routed.final_layout.clone();
        Ok(ExecutableAnsatz {
            ansatz,
            coupling: Some(sub_coupling),
            layout,
            compact_layout,
            final_compact,
            noise,
            num_compact,
        })
    }

    /// An untranspiled ansatz: logical = physical (used for the scaling study
    /// of §6.3 where "transpilation is not required").
    ///
    /// # Panics
    ///
    /// Panics if the model register differs from `n`.
    pub fn untranspiled(n: usize, model: &NoiseModel) -> ExecutableAnsatz {
        assert_eq!(model.num_qubits(), n, "model size mismatch");
        ExecutableAnsatz {
            ansatz: HardwareEfficientAnsatz::new(n),
            coupling: None,
            layout: (0..n).collect(),
            compact_layout: (0..n).collect(),
            final_compact: (0..n).collect(),
            noise: model.clone(),
            num_compact: n,
        }
    }

    /// The logical ansatz.
    pub fn ansatz(&self) -> &HardwareEfficientAnsatz {
        &self.ansatz
    }

    /// Number of logical qubits `N`.
    pub fn num_logical(&self) -> usize {
        self.ansatz.num_qubits()
    }

    /// Size of the compact physical register the circuits act on.
    pub fn num_qubits(&self) -> usize {
        self.num_compact
    }

    /// The restricted device noise model.
    pub fn noise_model(&self) -> &NoiseModel {
        &self.noise
    }

    /// The physical chain layout chosen for the logical register.
    pub fn layout(&self) -> &[usize] {
        &self.layout
    }

    /// Builds the executable circuit `A'(θ)` on the compact register.
    ///
    /// # Panics
    ///
    /// Panics if `theta.len() != 4N`.
    pub fn circuit(&self, theta: &[f64]) -> Circuit {
        let logical = self.ansatz.circuit(theta);
        match &self.coupling {
            Some(coupling) => route_with_layout(&logical, coupling, &self.compact_layout).circuit,
            None => logical,
        }
    }

    /// The executable circuit at the Clapton initial point `θ = 0`.
    pub fn circuit_at_zero(&self) -> Circuit {
        self.circuit(&vec![0.0; self.ansatz.num_parameters()])
    }

    /// Whether logical terms map onto the compact register unchanged
    /// (`map_term` is a copy): true for untranspiled ansätze and for routed
    /// circuits whose final layout happens to be the identity. Lets hot
    /// paths skip the per-term re-indexing copy.
    pub fn mapping_is_identity(&self) -> bool {
        self.num_compact == self.num_logical()
            && self.final_compact.iter().enumerate().all(|(i, &c)| i == c)
    }

    /// Maps a logical Pauli term onto the compact register according to
    /// where each logical qubit sits at measurement time.
    ///
    /// # Panics
    ///
    /// Panics if the term is not on the logical register.
    pub fn map_term(&self, p: &PauliString) -> PauliString {
        assert_eq!(p.num_qubits(), self.num_logical(), "term register");
        let mut out = PauliString::identity(self.num_compact);
        for q in p.support() {
            out.set(self.final_compact[q], p.get(q));
        }
        out
    }

    /// Maps a logical Hamiltonian onto the compact register.
    pub fn map_hamiltonian(&self, h: &PauliSum) -> PauliSum {
        let mut out = PauliSum::new(self.num_compact);
        for (c, p) in h.iter() {
            out.push(c, self.map_term(p));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapton_pauli::Pauli;
    use clapton_sim::StateVector;

    #[test]
    fn untranspiled_is_identity_mapping() {
        let model = NoiseModel::uniform(4, 1e-3, 1e-2, 0.0);
        let exec = ExecutableAnsatz::untranspiled(4, &model);
        assert_eq!(exec.num_qubits(), 4);
        let p = PauliString::single(4, 2, Pauli::Z);
        assert_eq!(exec.map_term(&p), p);
        assert_eq!(exec.circuit_at_zero().num_qubits(), 4);
    }

    #[test]
    fn on_device_compacts_to_used_qubits() {
        let coupling = CouplingMap::line(12);
        let model = NoiseModel::uniform(12, 1e-3, 1e-2, 2e-2);
        let exec = ExecutableAnsatz::on_device(5, &coupling, &model).unwrap();
        // The 5-qubit chain on a line uses exactly 5 physical qubits.
        assert_eq!(exec.num_qubits(), 5);
        assert_eq!(exec.noise_model().num_qubits(), 5);
    }

    #[test]
    fn circuit_structure_is_theta_independent() {
        let coupling = CouplingMap::line(8);
        let model = NoiseModel::uniform(8, 1e-3, 1e-2, 2e-2);
        let exec = ExecutableAnsatz::on_device(4, &coupling, &model).unwrap();
        let zero = exec.circuit_at_zero();
        let theta: Vec<f64> = (0..16).map(|i| 0.1 * i as f64).collect();
        let other = exec.circuit(&theta);
        assert_eq!(zero.len(), other.len());
        // Same gate skeleton: two-qubit gates at identical positions.
        for (a, b) in zero.gates().iter().zip(other.gates()) {
            assert_eq!(a.is_two_qubit(), b.is_two_qubit());
            assert_eq!(a.qubits(), b.qubits());
        }
    }

    #[test]
    fn measurement_mapping_tracks_routing_swaps() {
        // On a line, the circular ansatz's wrap-around CX forces SWAPs; the
        // final measurement mapping must follow the displaced qubits. Verify
        // physically: energy of the transpiled circuit w.r.t. the mapped
        // Hamiltonian equals the logical energy.
        let n = 5;
        let coupling = CouplingMap::line(8);
        let model = NoiseModel::noiseless(8);
        let exec = ExecutableAnsatz::on_device(n, &coupling, &model).unwrap();
        let theta: Vec<f64> = (0..4 * n).map(|i| (i as f64) * 0.37).collect();
        let logical_state = StateVector::from_circuit(&exec.ansatz().circuit(&theta));
        let compact_state = StateVector::from_circuit(&exec.circuit(&theta));
        let mut h = PauliSum::new(n);
        h.push(
            0.7,
            PauliString::from_sparse(n, [(0, Pauli::X), (4, Pauli::X)]),
        );
        h.push(
            -1.2,
            PauliString::from_sparse(n, [(1, Pauli::Z), (2, Pauli::Z)]),
        );
        h.push(0.3, PauliString::single(n, 3, Pauli::Y));
        let mapped = exec.map_hamiltonian(&h);
        assert!(
            (logical_state.energy(&h) - compact_state.energy(&mapped)).abs() < 1e-9,
            "transpiled energy must match logical energy"
        );
    }

    #[test]
    fn noise_model_restriction_pulls_device_values() {
        let coupling = CouplingMap::line(6);
        let mut model = NoiseModel::uniform(6, 1e-4, 5e-3, 1e-2);
        model.set_p1(2, 9e-4);
        model.set_t1(3, 33e-6);
        let exec = ExecutableAnsatz::on_device(6, &coupling, &model).unwrap();
        // Layout on a 6-line with 6 qubits is the whole line (some order).
        let pos2 = exec.layout().iter().position(|&p| p == 2);
        let pos3 = exec.layout().iter().position(|&p| p == 3);
        assert!(pos2.is_some() && pos3.is_some());
        // The compact model must contain the per-qubit overrides somewhere.
        let p1s: Vec<f64> = (0..6).map(|q| exec.noise_model().p1(q)).collect();
        assert!(p1s.iter().any(|&p| (p - 9e-4).abs() < 1e-15));
        let t1s: Vec<f64> = (0..6).map(|q| exec.noise_model().t1(q)).collect();
        assert!(t1s.iter().any(|&t| (t - 33e-6).abs() < 1e-15));
    }

    #[test]
    fn rejects_too_small_device() {
        let coupling = CouplingMap::line(3);
        let model = NoiseModel::noiseless(3);
        assert!(ExecutableAnsatz::on_device(5, &coupling, &model).is_err());
    }
}
