//! Device noise models: per-qubit/per-edge error rates and timing data.

use std::collections::BTreeMap;

/// Gate and readout durations in seconds, used for thermal-relaxation
/// modeling in the dense simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateDurations {
    /// Single-qubit gate duration.
    pub single: f64,
    /// Two-qubit gate duration.
    pub two: f64,
    /// Measurement duration.
    pub readout: f64,
}

impl Default for GateDurations {
    /// Representative IBM Falcon values: 35 ns / 450 ns / 860 ns.
    fn default() -> GateDurations {
        GateDurations {
            single: 35e-9,
            two: 450e-9,
            readout: 860e-9,
        }
    }
}

/// A per-qubit / per-edge noise model (the calibration view Clapton consumes,
/// §5.2.2: "Clapton extracts the required parameters for gate and measurement
/// errors from the noise models or machine calibration data").
///
/// # Example
///
/// ```
/// use clapton_noise::NoiseModel;
///
/// let mut model = NoiseModel::uniform(3, 1e-3, 1e-2, 2e-2);
/// model.set_t1_uniform(100e-6);
/// assert_eq!(model.p1(1), 1e-3);
/// assert_eq!(model.p2(0, 1), 1e-2);
/// assert_eq!(model.readout(2), 2e-2);
/// // SWAPs decompose into 3 CX on hardware: 3x the two-qubit error.
/// assert!((model.swap_error(0, 1) - 3e-2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    n: usize,
    p1: Vec<f64>,
    p2: BTreeMap<(usize, usize), f64>,
    p2_default: f64,
    readout: Vec<f64>,
    t1: Vec<f64>,
    durations: GateDurations,
    swap_factor: f64,
}

impl NoiseModel {
    /// A noiseless model on `n` qubits.
    pub fn noiseless(n: usize) -> NoiseModel {
        NoiseModel::uniform(n, 0.0, 0.0, 0.0)
    }

    /// A spatially uniform model: single-qubit depolarizing `p1`, two-qubit
    /// depolarizing `p2`, readout misassignment `readout`. T1 defaults to
    /// infinity (no relaxation).
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn uniform(n: usize, p1: f64, p2: f64, readout: f64) -> NoiseModel {
        for (name, p) in [("p1", p1), ("p2", p2), ("readout", readout)] {
            assert!((0.0..=1.0).contains(&p), "{name} = {p} not a probability");
        }
        NoiseModel {
            n,
            p1: vec![p1; n],
            p2: BTreeMap::new(),
            p2_default: p2,
            readout: vec![readout; n],
            t1: vec![f64::INFINITY; n],
            durations: GateDurations::default(),
            swap_factor: 3.0,
        }
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Single-qubit depolarizing strength on `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn p1(&self, q: usize) -> f64 {
        self.p1[q]
    }

    /// Two-qubit depolarizing strength on the (unordered) pair `(a, b)`;
    /// falls back to the model default for pairs without calibration.
    pub fn p2(&self, a: usize, b: usize) -> f64 {
        let key = (a.min(b), a.max(b));
        self.p2.get(&key).copied().unwrap_or(self.p2_default)
    }

    /// Effective SWAP error: `swap_factor × p2` capped at 1 (a SWAP costs
    /// three CX gates on CX-native hardware).
    pub fn swap_error(&self, a: usize, b: usize) -> f64 {
        (self.swap_factor * self.p2(a, b)).min(1.0)
    }

    /// Readout misassignment probability of `q`.
    pub fn readout(&self, q: usize) -> f64 {
        self.readout[q]
    }

    /// T1 relaxation time of `q` in seconds (`INFINITY` = no decay).
    pub fn t1(&self, q: usize) -> f64 {
        self.t1[q]
    }

    /// Gate/readout durations.
    pub fn durations(&self) -> GateDurations {
        self.durations
    }

    /// Rejects rates outside `[0, 1]` at the model boundary: a depolarizing
    /// or readout rate beyond a probability silently corrupts the closed-form
    /// damping math downstream (the `1 - 4p/3`-style factors go negative or
    /// explode), so every setter funnels through this check.
    fn checked_probability(name: &str, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "{name} = {p} not a probability");
        p
    }

    /// Sets a per-qubit single-qubit error rate.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` (or `q` is out of range).
    pub fn set_p1(&mut self, q: usize, p: f64) {
        self.p1[q] = NoiseModel::checked_probability("p1", p);
    }

    /// Sets a per-edge two-qubit error rate.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn set_p2(&mut self, a: usize, b: usize, p: f64) {
        self.p2.insert(
            (a.min(b), a.max(b)),
            NoiseModel::checked_probability("p2", p),
        );
    }

    /// Sets the fallback two-qubit error rate for uncalibrated pairs.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn set_p2_default(&mut self, p: f64) {
        self.p2_default = NoiseModel::checked_probability("p2_default", p);
    }

    /// Sets a per-qubit readout error.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` (or `q` is out of range).
    pub fn set_readout(&mut self, q: usize, p: f64) {
        self.readout[q] = NoiseModel::checked_probability("readout", p);
    }

    /// Sets a per-qubit T1 time (seconds).
    pub fn set_t1(&mut self, q: usize, t1: f64) {
        self.t1[q] = t1;
    }

    /// Sets the same T1 on all qubits.
    pub fn set_t1_uniform(&mut self, t1: f64) {
        self.t1.iter_mut().for_each(|t| *t = t1);
    }

    /// Overrides the gate durations.
    pub fn set_durations(&mut self, durations: GateDurations) {
        self.durations = durations;
    }

    /// Whether any Pauli-channel noise is present (T1 not included).
    pub fn has_pauli_noise(&self) -> bool {
        self.p1.iter().any(|&p| p > 0.0)
            || self.p2_default > 0.0
            || self.p2.values().any(|&p| p > 0.0)
            || self.readout.iter().any(|&p| p > 0.0)
    }

    /// Whether thermal relaxation is active on any qubit.
    pub fn has_relaxation(&self) -> bool {
        self.t1.iter().any(|&t| t.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_model_round_trips() {
        let m = NoiseModel::uniform(4, 1e-3, 1e-2, 3e-2);
        for q in 0..4 {
            assert_eq!(m.p1(q), 1e-3);
            assert_eq!(m.readout(q), 3e-2);
            assert!(m.t1(q).is_infinite());
        }
        assert_eq!(m.p2(2, 3), 1e-2);
        assert!(m.has_pauli_noise());
        assert!(!m.has_relaxation());
    }

    #[test]
    fn per_edge_overrides() {
        let mut m = NoiseModel::uniform(3, 0.0, 1e-2, 0.0);
        m.set_p2(2, 1, 5e-2);
        assert_eq!(m.p2(1, 2), 5e-2);
        assert_eq!(m.p2(2, 1), 5e-2); // unordered
        assert_eq!(m.p2(0, 1), 1e-2); // fallback
    }

    #[test]
    fn swap_error_is_three_cx() {
        let m = NoiseModel::uniform(2, 0.0, 0.4, 0.0);
        assert_eq!(m.swap_error(0, 1), 1.0); // capped
        let m2 = NoiseModel::uniform(2, 0.0, 0.01, 0.0);
        assert!((m2.swap_error(0, 1) - 0.03).abs() < 1e-15);
    }

    #[test]
    fn relaxation_detection() {
        let mut m = NoiseModel::noiseless(2);
        assert!(!m.has_pauli_noise());
        m.set_t1(0, 80e-6);
        assert!(m.has_relaxation());
        assert!(!m.has_pauli_noise());
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn rejects_invalid_probability() {
        NoiseModel::uniform(2, 1.5, 0.0, 0.0);
    }

    // Regression: out-of-range rates used to pass straight through the
    // setters into the damping math (e.g. p1 = 1.5 makes the depolarizing
    // factor 1 - 2p go below -1, flipping expectation signs silently).
    #[test]
    #[should_panic(expected = "p1 = 1.5 not a probability")]
    fn setter_rejects_out_of_range_p1() {
        NoiseModel::noiseless(2).set_p1(0, 1.5);
    }

    #[test]
    #[should_panic(expected = "p2 = -0.1 not a probability")]
    fn setter_rejects_negative_p2() {
        NoiseModel::noiseless(2).set_p2(0, 1, -0.1);
    }

    #[test]
    #[should_panic(expected = "readout = NaN not a probability")]
    fn setter_rejects_nan_readout() {
        NoiseModel::noiseless(2).set_readout(1, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "p2_default = 2 not a probability")]
    fn setter_rejects_out_of_range_p2_default() {
        NoiseModel::noiseless(2).set_p2_default(2.0);
    }

    #[test]
    fn setters_accept_boundary_probabilities() {
        let mut m = NoiseModel::noiseless(2);
        m.set_p1(0, 0.0);
        m.set_p1(1, 1.0);
        m.set_p2(0, 1, 1.0);
        m.set_readout(0, 1.0);
        m.set_p2_default(0.0);
        assert_eq!(m.p1(1), 1.0);
        assert_eq!(m.p2(0, 1), 1.0);
    }
}
