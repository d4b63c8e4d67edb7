//! Noisy expectation values of Pauli terms: exact back-propagation and
//! Pauli-frame Monte Carlo.

use crate::{NoisyCircuit, NoisyOp};
use clapton_pauli::{
    uniform_pauli_pair_planes, uniform_pauli_planes, BernoulliWords, Pauli, PauliString, PauliSum,
    TermBatch,
};
use clapton_telemetry::metrics::{registry, Counter};
use rand::Rng;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// Process-wide kernel throughput counters for the exact and sampled
/// energy paths.
struct KernelMetrics {
    exact_walks: Arc<Counter>,
    exact_terms: Arc<Counter>,
    sampled_frames: Arc<Counter>,
    sampled_terms: Arc<Counter>,
}

fn kernel_metrics() -> &'static KernelMetrics {
    static METRICS: OnceLock<KernelMetrics> = OnceLock::new();
    METRICS.get_or_init(|| KernelMetrics {
        exact_walks: registry().counter(
            "clapton_exact_walks_total",
            "Reverse circuit walks by the exact evaluator (batched: one per 64 terms)",
        ),
        exact_terms: registry().counter(
            "clapton_exact_terms_total",
            "Hamiltonian terms evaluated by the exact evaluator",
        ),
        sampled_frames: registry().counter(
            "clapton_sampled_frames_total",
            "Pauli frames (shots) drawn by the frame sampler",
        ),
        sampled_terms: registry().counter(
            "clapton_sampled_terms_total",
            "Hamiltonian terms estimated by the frame sampler",
        ),
    })
}

/// Exact noisy expectation values via Heisenberg back-propagation.
///
/// For a Clifford circuit interleaved with stochastic Pauli channels, pulling
/// the measured observable backwards through the circuit turns every channel
/// into a scalar damping factor:
///
/// * single-qubit depolarizing of strength `p` on a supported qubit:
///   `1 - 4p/3`,
/// * two-qubit depolarizing of strength `p` touching the support:
///   `1 - 16p/15`,
/// * readout flip `p_k` on a measured qubit: `1 - 2p_k`,
///
/// so `⟨P⟩_noisy = (Π factors) · ⟨0|C†PC|0⟩` — exact, deterministic, one pass
/// per term. This is a strict improvement over the paper's shot sampling
/// (stim) for the same noise semantics; see [`FrameSampler`] for the faithful
/// sampled variant whose mean converges to these values.
///
/// Whole-Hamiltonian energies are **bit-parallel**: [`ExactEvaluator::energy`]
/// back-propagates 64 terms per circuit walk through a signed
/// [`TermBatch`] (transposed planes + sign plane) at every Hamiltonian
/// size. [`ExactEvaluator::energy_scalar`] keeps the term-at-a-time
/// reference, and the two are bit-identical.
///
/// # Example
///
/// ```
/// use clapton_circuits::{Circuit, Gate};
/// use clapton_noise::{ExactEvaluator, NoiseModel, NoisyCircuit};
///
/// // X gate with depolarizing p, then measure Z with readout error r:
/// // ⟨Z⟩ = -(1 - 4p/3)(1 - 2r).
/// let mut c = Circuit::new(1);
/// c.push(Gate::X(0));
/// let mut model = NoiseModel::uniform(1, 3e-3, 0.0, 1e-2);
/// let noisy = NoisyCircuit::from_circuit(&c, &model)?;
/// let eval = ExactEvaluator::new(&noisy);
/// let z = "Z".parse().unwrap();
/// let expected = -(1.0 - 4.0 * 3e-3 / 3.0) * (1.0 - 2.0 * 1e-2);
/// assert!((eval.expectation(&z) - expected).abs() < 1e-12);
/// # Ok::<(), clapton_noise::NotCliffordError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExactEvaluator<'a> {
    circuit: &'a NoisyCircuit,
}

impl<'a> ExactEvaluator<'a> {
    /// Wraps a noisy circuit.
    pub fn new(circuit: &'a NoisyCircuit) -> ExactEvaluator<'a> {
        ExactEvaluator { circuit }
    }

    /// The exact noisy expectation of one Pauli term, including measurement
    /// basis-prep gate noise and readout error.
    pub fn expectation(&self, term: &PauliString) -> f64 {
        if term.is_identity() {
            return 1.0;
        }
        self.back_propagate(term, true)
    }

    /// The noiseless expectation `⟨0|C†PC|0⟩` of the same circuit (all
    /// damping factors dropped) — the CAFQA-style value.
    pub fn noiseless_expectation(&self, term: &PauliString) -> f64 {
        if term.is_identity() {
            return 1.0;
        }
        self.back_propagate(term, false)
    }

    /// Noisy energy of a full Hamiltonian: `Σ_i c_i ⟨P_i⟩_noisy` (the `LN`
    /// building block, Eq. 9), back-propagated bit-parallel in `⌈M/64⌉`
    /// reverse circuit walks instead of `M`: each chunk of 64 terms is
    /// loaded into a [`TermBatch`] and scored by
    /// [`ExactEvaluator::add_batch_energy`]'s plane kernel. Bit-identical
    /// to [`ExactEvaluator::energy_scalar`].
    pub fn energy(&self, hamiltonian: &PauliSum) -> f64 {
        self.energy_batch_pass(hamiltonian, true)
    }

    /// Noiseless energy of a full Hamiltonian (all damping dropped), on the
    /// same batch pass as [`ExactEvaluator::energy`]. Bit-identical to
    /// [`ExactEvaluator::noiseless_energy_scalar`].
    pub fn noiseless_energy(&self, hamiltonian: &PauliSum) -> f64 {
        self.energy_batch_pass(hamiltonian, false)
    }

    /// The term-at-a-time reference implementation of
    /// [`ExactEvaluator::energy`]: one full reverse circuit walk per term.
    /// Kept as the differential-test oracle and the baseline of the
    /// `ln_exact_speedup` BENCH comparison.
    pub fn energy_scalar(&self, hamiltonian: &PauliSum) -> f64 {
        let terms = hamiltonian.num_terms() as u64;
        ExactEvaluator::count_walks(terms, terms);
        hamiltonian
            .iter()
            .map(|(c, p)| c * self.expectation(p))
            .sum()
    }

    /// The term-at-a-time reference implementation of
    /// [`ExactEvaluator::noiseless_energy`].
    pub fn noiseless_energy_scalar(&self, hamiltonian: &PauliSum) -> f64 {
        hamiltonian
            .iter()
            .map(|(c, p)| c * self.noiseless_expectation(p))
            .sum()
    }

    /// Adds the noisy energy `Σ_ℓ coefficients[ℓ] · ⟨P_ℓ⟩_noisy` of the
    /// signed observables in lanes `0..coefficients.len()` of `batch` to
    /// `total`, one lane at a time in lane order — the one `LN` kernel
    /// behind [`ExactEvaluator::energy`] and the fused transform-and-score
    /// loop of the Clapton objective, which hands it planes it has already
    /// anticonjugated instead of a materialized Hamiltonian. The batch must
    /// be on the circuit's register; it is left back-propagated. Lanes past
    /// `coefficients.len()` are ignored. Adding into the caller's running
    /// total (not returning a per-chunk partial sum) keeps a Hamiltonian's
    /// energy bit-identical however its terms are chunked. It counts
    /// nothing: the caller reports its walks through
    /// [`ExactEvaluator::count_walks`].
    ///
    /// # Panics
    ///
    /// Panics if `coefficients` holds more than [`TermBatch::LANES`] values
    /// or the batch is on a different register.
    pub fn add_batch_energy(&self, batch: &mut TermBatch, coefficients: &[f64], total: &mut f64) {
        self.batch_pass(batch, coefficients, true, total);
    }

    /// Whether the circuit's Clifford part maps every Z-type string (no X
    /// or Y anywhere) onto a Z-type string. The Z-type strings are the
    /// products of the single-qubit `Z`s, so back-propagating those `n`
    /// strings, 64 per walk, decides it for all of them. The ansatz at
    /// `θ = 0` (CX and SWAP with identity rotation slots) passes; a circuit
    /// with an `H` fails. When it passes, an observable that carries an X
    /// or Y stays so through the walk and reads 0 whatever its damping, so
    /// a caller scoring many observables may leave such lanes out of
    /// [`ExactEvaluator::add_batch_energy`].
    pub fn keeps_z_type(&self) -> bool {
        let n = self.circuit.num_qubits();
        let ops = self.circuit.reversed_inverted_ops();
        let mut batch = TermBatch::new(n);
        (0..n).step_by(TermBatch::LANES).all(|first| {
            batch.clear();
            for q in first..n.min(first + TermBatch::LANES) {
                batch.xor_z(q, 1 << (q - first));
            }
            for op in ops {
                if let NoisyOp::Clifford(g) = op {
                    g.conjugate_terms(&mut batch);
                }
            }
            batch.any_x_mask() == 0
        })
    }

    /// Adds `walks` reverse circuit walks over `terms` Hamiltonian terms to
    /// the process-wide `clapton_exact_walks_total` and
    /// `clapton_exact_terms_total` counters. The energy methods count their
    /// own work; a caller driving [`ExactEvaluator::add_batch_energy`]
    /// counts here once per call, not once per 64-term batch, so pool
    /// workers scoring a population do not contend on the two atomics.
    pub fn count_walks(walks: u64, terms: u64) {
        let metrics = kernel_metrics();
        metrics.exact_walks.add(walks);
        metrics.exact_terms.add(terms);
    }

    /// [`ExactEvaluator::energy`] and
    /// [`ExactEvaluator::noiseless_energy`]: each chunk of ≤64 terms is
    /// loaded into one reused [`TermBatch`] and scored by the plane kernel.
    fn energy_batch_pass(&self, hamiltonian: &PauliSum, with_noise: bool) -> f64 {
        let mut total = 0.0;
        let mut batch = TermBatch::new(self.circuit.num_qubits());
        let mut coefficients = [0.0; TermBatch::LANES];
        for chunk in hamiltonian.terms().chunks(TermBatch::LANES) {
            batch.clear();
            for (lane, term) in chunk.iter().enumerate() {
                batch.set_lane(lane, &term.pauli, false);
                coefficients[lane] = term.coefficient;
            }
            self.batch_pass(
                &mut batch,
                &coefficients[..chunk.len()],
                with_noise,
                &mut total,
            );
        }
        let terms = hamiltonian.num_terms();
        ExactEvaluator::count_walks(terms.div_ceil(TermBatch::LANES) as u64, terms as u64);
        total
    }

    /// The plane kernel: conjugates all lanes of one chunk through the
    /// circuit at once.
    ///
    /// 1. **Damping sites** — the scalar walk starts each term at the Z
    ///    string on its support (collecting readout factors `1-2p_k`) and
    ///    then back-propagates the term's private `basis_prep_ops`; by
    ///    construction that prep segment exactly rebuilds the original term
    ///    with sign `+1` (`H` maps `Z → X`, `H·S` maps `Z → Y`, both
    ///    sign-free), while its interleaved depolarizing slots always damp
    ///    (the observable never leaves the slot's qubit). So the lane keeps
    ///    the term itself, and its first damping sites are read off the
    ///    planes in the scalar walk's exact multiply order: readout over
    ///    ascending qubits, then prep slots over descending qubits, one per
    ///    `X` and two per `Y` (none when the gate error vanishes:
    ///    `basis_prep_ops` omits the slot).
    /// 2. **One shared reverse walk** — the memoized
    ///    [`NoisyCircuit::reversed_inverted_ops`] list is traversed once:
    ///    Clifford gates act on all 64 lanes by word-level signed
    ///    conjugation (`CliffordGate::conjugate_terms`), and every
    ///    depolarizing channel records its site — the 64-lane support mask
    ///    (`x|z` plane words) it damps — in op order.
    /// 3. **Readout** — lanes with any surviving x-plane bit are traceless
    ///    on `|0…0⟩` and contribute `0` whatever their factor, so only the
    ///    other lanes multiply up their sites' factors (see [`damp_lanes`]),
    ///    in site order — the same sequence as the scalar walk, so every
    ///    factor rounds bit-identically — and contribute `±factor` by their
    ///    sign bit. An identity lane has no support, so it is never damped
    ///    and reads `1`. Contributions accumulate in lane order, so a whole
    ///    Hamiltonian's total is bit-identical to the scalar sum.
    fn batch_pass(
        &self,
        batch: &mut TermBatch,
        coefficients: &[f64],
        with_noise: bool,
        total: &mut f64,
    ) {
        let n = self.circuit.num_qubits();
        assert!(coefficients.len() <= TermBatch::LANES, "more than 64 lanes");
        assert_eq!(batch.num_qubits(), n, "batch/circuit register mismatch");
        let ops = self.circuit.reversed_inverted_ops();
        let mut sites: Vec<(u64, f64)> = Vec::new();
        if with_noise {
            sites.reserve(3 * n + ops.len());
            for q in 0..n {
                sites.push((batch.support_mask(q), 1.0 - 2.0 * self.circuit.readout(q)));
            }
            for q in (0..n).rev() {
                let p = self.circuit.gate_p1(q);
                if p > 0.0 {
                    let damp = 1.0 - 4.0 * p / 3.0;
                    sites.push((batch.x(q), damp));
                    sites.push((batch.x(q) & batch.z(q), damp)); // Y: second slot
                }
            }
        }
        for op in ops {
            match *op {
                NoisyOp::Clifford(g) => g.conjugate_terms(batch),
                NoisyOp::Depol1(q, p) => {
                    if with_noise {
                        sites.push((batch.support_mask(q), 1.0 - 4.0 * p / 3.0));
                    }
                }
                NoisyOp::Depol2(a, b, p) => {
                    if with_noise {
                        let supported = batch.support_mask(a) | batch.support_mask(b);
                        sites.push((supported, 1.0 - 16.0 * p / 15.0));
                    }
                }
            }
        }
        let traceless = batch.any_x_mask();
        let signs = batch.sign_mask();
        let mut factors = [1.0f64; TermBatch::LANES];
        for &(supported, damp) in &sites {
            damp_lanes(&mut factors, supported & !traceless, damp);
        }
        for (lane, &coefficient) in coefficients.iter().enumerate() {
            let bit = 1u64 << lane;
            let value = if traceless & bit != 0 {
                0.0
            } else if signs & bit != 0 {
                -factors[lane]
            } else {
                factors[lane]
            };
            *total += coefficient * value;
        }
    }

    fn back_propagate(&self, term: &PauliString, with_noise: bool) -> f64 {
        let n = self.circuit.num_qubits();
        let mut factor = 1.0;
        // Measured observable: the Z string on the support (basis prep maps
        // the term there).
        let mut obs = PauliString::identity(n);
        for q in term.support() {
            obs.set(q, Pauli::Z);
            if with_noise {
                factor *= 1.0 - 2.0 * self.circuit.readout(q);
            }
        }
        let mut sign = 1.0;
        let prep = self.circuit.basis_prep_ops(term);
        // The prep ops are reversed-and-inverted inline (per-term, tiny);
        // the circuit's list is built once and memoized.
        let prep_rev = prep.iter().rev().map(|op| match *op {
            NoisyOp::Clifford(g) => NoisyOp::Clifford(g.inverse()),
            other => other,
        });
        for op in prep_rev.chain(self.circuit.reversed_inverted_ops().iter().copied()) {
            match op {
                NoisyOp::Clifford(g) => {
                    // O ← g† O g (g already inverted).
                    if g.conjugate(&mut obs) {
                        sign = -sign;
                    }
                }
                NoisyOp::Depol1(q, p) => {
                    if with_noise && obs.acts_on(q) {
                        factor *= 1.0 - 4.0 * p / 3.0;
                    }
                }
                NoisyOp::Depol2(a, b, p) => {
                    if with_noise && (obs.acts_on(a) || obs.acts_on(b)) {
                        factor *= 1.0 - 16.0 * p / 15.0;
                    }
                }
            }
        }
        if !obs.is_z_type() {
            return 0.0;
        }
        sign * factor
    }
}

/// Pauli-frame Monte Carlo sampler — the faithful stim-style estimator the
/// paper used for `LN`, running 64 shots per pass.
///
/// Per shot, Pauli errors are sampled at each channel and propagated forward
/// as a frame; the measured outcome of the (stabilizer) observable is its
/// deterministic noiseless value (`±1`, or a fair coin when the noiseless
/// expectation vanishes) times the frame's commutation sign and the sampled
/// readout flips.
///
/// The propagation is **bit-parallel**: frames travel through the circuit as
/// the lanes of a [`TermBatch`] (64 shots transposed into one `u64` x/z word
/// pair per qubit; the sign plane is ignored, since error frames are only
/// observed through their commutation with the measured observable), so
/// Clifford conjugation (`CliffordGate::conjugate_terms`, the engine the
/// exact path and the Hamiltonian transform use), depolarizing-error
/// injection ([`BernoulliWords`] buffered geometric masks plus word-level
/// rejection for the uniform Pauli kick), commutation-sign extraction and
/// readout flips are all word-level boolean algebra instead of per-shot
/// `get`/`mul`/`set` calls. Shot counts are rounded up to whole 64-shot
/// words internally, but the estimate averages over exactly `shots`
/// outcomes (the trailing word is masked), and results are deterministic
/// for a fixed RNG seed. [`FrameSampler::expectation_scalar`] keeps the
/// one-frame-per-shot reference implementation; the two paths sample the
/// same noise distribution (not the same RNG stream).
///
/// # Example
///
/// ```
/// use clapton_circuits::{Circuit, Gate};
/// use clapton_noise::{ExactEvaluator, FrameSampler, NoiseModel, NoisyCircuit};
/// use rand::SeedableRng;
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::H(0));
/// c.push(Gate::Cx(0, 1));
/// let model = NoiseModel::uniform(2, 2e-3, 1e-2, 1e-2);
/// let noisy = NoisyCircuit::from_circuit(&c, &model)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let zz = "ZZ".parse().unwrap();
/// let sampled = FrameSampler::new(&noisy).expectation(&zz, 20_000, &mut rng);
/// let exact = ExactEvaluator::new(&noisy).expectation(&zz);
/// assert!((sampled - exact).abs() < 0.03);
/// # Ok::<(), clapton_noise::NotCliffordError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FrameSampler<'a> {
    circuit: &'a NoisyCircuit,
}

impl<'a> FrameSampler<'a> {
    /// Wraps a noisy circuit.
    pub fn new(circuit: &'a NoisyCircuit) -> FrameSampler<'a> {
        FrameSampler { circuit }
    }

    /// Precomputes everything about one term that is shot-independent: the
    /// noiseless back-propagated expectation, the measurement-basis prep
    /// ops, and the post-prep `Z` observable. One [`TermPrep`] serves any
    /// number of shots, [`FrameSampler::expectation_prepared`] calls, and —
    /// through a [`TermCache`] — population batches.
    pub fn prepare(&self, term: &PauliString) -> TermPrep {
        let n = self.circuit.num_qubits();
        let support: Vec<usize> = term.support().collect();
        let mut z_obs = PauliString::identity(n);
        for &q in &support {
            z_obs.set(q, Pauli::Z);
        }
        let prep_ops = self.circuit.basis_prep_ops(term);
        // Sampler templates (one per stochastic op, in op order, then one
        // per readout site): building one costs a transcendental
        // (`ln_1p().recip()`), so it is done here — once per term, cached
        // by TermCache — and cloned per expectation call (only the gap
        // state is per-call).
        let channels = self
            .circuit
            .ops()
            .iter()
            .chain(prep_ops.iter())
            .filter_map(|op| match *op {
                NoisyOp::Depol1(_, p) | NoisyOp::Depol2(_, _, p) => Some(BernoulliWords::new(p)),
                NoisyOp::Clifford(_) => None,
            })
            .collect();
        let readout = support
            .iter()
            .map(|&q| BernoulliWords::new(self.circuit.readout(q)))
            .collect();
        TermPrep {
            noiseless: ExactEvaluator::new(self.circuit).noiseless_expectation(term),
            prep_ops,
            z_obs,
            support,
            channels,
            readout,
            identity: term.is_identity(),
            circuit: self.circuit.fingerprint(),
        }
    }

    /// Estimates the noisy expectation of one term from `shots` samples
    /// (bit-parallel, 64 shots per circuit pass).
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`.
    pub fn expectation<R: Rng + ?Sized>(
        &self,
        term: &PauliString,
        shots: usize,
        rng: &mut R,
    ) -> f64 {
        self.expectation_prepared(&self.prepare(term), shots, rng)
    }

    /// [`FrameSampler::expectation`] with the term preparation hoisted out
    /// (see [`FrameSampler::prepare`]).
    ///
    /// Propagates `⌈shots/64⌉` frame words through the circuit; the mean is
    /// taken over exactly `shots` outcomes (the final partial word is
    /// masked). Every stochastic channel owns a [`BernoulliWords`] sampler
    /// whose geometric gap state carries across words, so the error
    /// placements form one exact Bernoulli process over the shot sequence.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`, or if `prep` was built against a different
    /// circuit (validated via the memoized content fingerprint, so
    /// cross-circuit misuse fails loudly instead of sampling wrong
    /// physics).
    pub fn expectation_prepared<R: Rng + ?Sized>(
        &self,
        prep: &TermPrep,
        shots: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(shots > 0, "need at least one shot");
        assert_eq!(
            prep.circuit,
            self.circuit.fingerprint(),
            "TermPrep was built against a different circuit"
        );
        if prep.identity {
            return 1.0;
        }
        // Fresh gap state per call; the transcendental setup lives in the
        // templates built once by `prepare`.
        let mut channels = prep.channels.clone();
        let mut readout = prep.readout.clone();
        let mut batch = TermBatch::new(self.circuit.num_qubits());
        let mut acc: i64 = 0;
        let mut remaining = shots;
        while remaining > 0 {
            batch.clear();
            let mut channel = channels.iter_mut();
            for op in self.circuit.ops().iter().chain(prep.prep_ops.iter()) {
                match *op {
                    NoisyOp::Clifford(g) => g.conjugate_terms(&mut batch),
                    NoisyOp::Depol1(q, _) => {
                        let mask = channel
                            .next()
                            .expect("channel list in op order")
                            .next_mask(rng);
                        if mask != 0 {
                            let (x, z) = uniform_pauli_planes(mask, rng);
                            batch.xor_x(q, x);
                            batch.xor_z(q, z);
                        }
                    }
                    NoisyOp::Depol2(a, b, _) => {
                        let mask = channel
                            .next()
                            .expect("channel list in op order")
                            .next_mask(rng);
                        if mask != 0 {
                            let (xa, za, xb, zb) = uniform_pauli_pair_planes(mask, rng);
                            batch.xor_x(a, xa);
                            batch.xor_z(a, za);
                            batch.xor_x(b, xb);
                            batch.xor_z(b, zb);
                        }
                    }
                }
            }
            // Bit s set ⇔ shot s reads the negated base value: frame
            // anticommutation, sampled readout flips, the deterministic
            // base sign, and (if the expectation vanishes) a fair coin all
            // compose by XOR.
            let mut neg = batch.anticommutation_mask(&prep.z_obs);
            for sampler in readout.iter_mut() {
                neg ^= sampler.next_mask(rng);
            }
            if prep.noiseless < -0.5 {
                neg = !neg;
            } else if prep.noiseless.abs() <= 0.5 {
                neg ^= rng.gen::<u64>();
            }
            let lanes = remaining.min(TermBatch::LANES);
            let live = if lanes == TermBatch::LANES {
                !0u64
            } else {
                (1u64 << lanes) - 1
            };
            acc += lanes as i64 - 2 * i64::from((neg & live).count_ones());
            remaining -= lanes;
        }
        acc as f64 / shots as f64
    }

    /// The one-frame-per-shot reference implementation of
    /// [`FrameSampler::expectation`]: same noise semantics, scalar
    /// propagation. Kept for differential testing and as the baseline of
    /// the batched-vs-scalar BENCH comparison.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`.
    pub fn expectation_scalar<R: Rng + ?Sized>(
        &self,
        term: &PauliString,
        shots: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(shots > 0, "need at least one shot");
        // Same shot-independent derivation as the batched path — the
        // differential coverage is in the propagation, not the prep.
        let prep = self.prepare(term);
        if prep.identity {
            return 1.0;
        }
        let n = self.circuit.num_qubits();
        let noiseless = prep.noiseless;
        let mut acc: i64 = 0;
        for _ in 0..shots {
            let mut frame = PauliString::identity(n);
            for op in self.circuit.ops().iter().chain(prep.prep_ops.iter()) {
                match *op {
                    NoisyOp::Clifford(g) => {
                        g.conjugate(&mut frame);
                    }
                    NoisyOp::Depol1(q, p) => {
                        if rng.gen::<f64>() < p {
                            let e = [Pauli::X, Pauli::Y, Pauli::Z][rng.gen_range(0..3)];
                            mul_pauli_into(&mut frame, q, e);
                        }
                    }
                    NoisyOp::Depol2(a, b, p) => {
                        if rng.gen::<f64>() < p {
                            let k = rng.gen_range(1..16u8);
                            let (ka, kb) = (k & 3, k >> 2);
                            if ka != 0 {
                                mul_pauli_into(&mut frame, a, index_pauli(ka));
                            }
                            if kb != 0 {
                                mul_pauli_into(&mut frame, b, index_pauli(kb));
                            }
                        }
                    }
                }
            }
            // Stabilizer measurement outcome: deterministic noiseless value,
            // or a fair coin when the expectation vanishes.
            let base: i64 = if noiseless > 0.5 {
                1
            } else if noiseless < -0.5 {
                -1
            } else if rng.gen::<bool>() {
                1
            } else {
                -1
            };
            let mut outcome = if frame.commutes_with(&prep.z_obs) {
                base
            } else {
                -base
            };
            for &q in &prep.support {
                if rng.gen::<f64>() < self.circuit.readout(q) {
                    outcome = -outcome;
                }
            }
            acc += outcome;
        }
        acc as f64 / shots as f64
    }

    /// Estimates the noisy energy of a Hamiltonian with `shots` per term.
    pub fn energy<R: Rng + ?Sized>(
        &self,
        hamiltonian: &PauliSum,
        shots: usize,
        rng: &mut R,
    ) -> f64 {
        self.energy_cached(hamiltonian, shots, rng, &TermCache::new())
    }

    /// [`FrameSampler::energy`] with per-term preparation served from (and
    /// recorded into) `cache`, so the noiseless back-propagation and
    /// basis-prep derivation are paid once per distinct term across calls —
    /// e.g. across a whole GA population batch scored against one prepared
    /// circuit.
    ///
    /// Cache lookups consume no randomness, so energies are bit-identical
    /// whether the cache is cold, warm, or shared between threads.
    pub fn energy_cached<R: Rng + ?Sized>(
        &self,
        hamiltonian: &PauliSum,
        shots: usize,
        rng: &mut R,
        cache: &TermCache,
    ) -> f64 {
        cache.bind(self);
        let terms = hamiltonian.num_terms() as u64;
        let metrics = kernel_metrics();
        metrics.sampled_terms.add(terms);
        metrics.sampled_frames.add(terms * shots as u64);
        hamiltonian
            .iter()
            .map(|(c, p)| {
                c * self.expectation_prepared(&cache.prepared_unchecked(self, p), shots, rng)
            })
            .sum()
    }
}

/// Shot-independent preparation of one Pauli term against one
/// [`NoisyCircuit`]: built by [`FrameSampler::prepare`], consumed by
/// [`FrameSampler::expectation_prepared`].
#[derive(Debug, Clone)]
pub struct TermPrep {
    /// Exact noiseless expectation `⟨0|C†PC|0⟩` (the deterministic
    /// stabilizer measurement base: `±1`, or `0` for a fair coin).
    noiseless: f64,
    /// Measurement-basis rotation ops (with their noise slots).
    prep_ops: Vec<NoisyOp>,
    /// The measured observable after basis prep: `Z` on the support.
    z_obs: PauliString,
    /// Support qubits (readout-error sites).
    support: Vec<usize>,
    /// Mask-sampler templates, one per stochastic op of circuit + prep in
    /// op order (`ln(1-p)` precomputed; gap state reset per clone).
    channels: Vec<BernoulliWords>,
    /// Mask-sampler templates for the readout flips, one per support site.
    readout: Vec<BernoulliWords>,
    /// Identity terms short-circuit to expectation `1`.
    identity: bool,
    /// Fingerprint of the circuit this preparation belongs to.
    circuit: u64,
}

impl TermPrep {
    /// The exact noiseless expectation of the prepared term.
    pub fn noiseless(&self) -> f64 {
        self.noiseless
    }
}

/// A concurrent memo of [`TermPrep`]s keyed by Pauli term.
///
/// One cache serves one fixed [`NoisyCircuit`] (preparations embed
/// circuit-dependent data); callers that score many Hamiltonians against
/// the same prepared circuit — the GA's population batch path — attach one
/// cache to the circuit and stop re-deriving per-term preparation on every
/// energy call. The cache pins itself to the first circuit it sees (a
/// content fingerprint) and panics if later used with a different one, so
/// cross-circuit sharing fails loudly instead of returning wrong physics.
#[derive(Debug, Default)]
pub struct TermCache {
    map: RwLock<HashMap<PauliString, Arc<TermPrep>>>,
    /// Fingerprint of the circuit the cached preparations belong to.
    circuit: OnceLock<u64>,
}

impl TermCache {
    /// An empty cache.
    pub fn new() -> TermCache {
        TermCache::default()
    }

    /// Number of distinct terms prepared so far.
    pub fn len(&self) -> usize {
        self.map.read().expect("term cache poisoned").len()
    }

    /// Whether no term has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memoized entries are capped: caches can now live as long as a whole
    /// GA run (one per prepared loss object), and every distinct
    /// transformed term inserts an entry, so an unbounded map would grow
    /// with the number of distinct genomes visited. Past the cap, terms
    /// outside the cache are prepared on the fly (correct, just not
    /// memoized); the hot early terms stay resident.
    const MAX_TERMS: usize = 1 << 14;

    /// The preparation of `term` under `sampler`'s circuit, computed at
    /// most once per distinct cached term.
    ///
    /// # Panics
    ///
    /// Panics if the cache already holds preparations for a different
    /// circuit.
    pub fn prepared(&self, sampler: &FrameSampler<'_>, term: &PauliString) -> Arc<TermPrep> {
        self.bind(sampler);
        self.prepared_unchecked(sampler, term)
    }

    /// Pins the cache to `sampler`'s circuit (first use) or asserts that it
    /// is already pinned to it. The fingerprint is memoized inside
    /// [`NoisyCircuit`], so after the circuit's first hash this is one
    /// atomic load and a `u64` compare per call.
    fn bind(&self, sampler: &FrameSampler<'_>) {
        let fingerprint = sampler.circuit.fingerprint();
        let bound = *self.circuit.get_or_init(|| fingerprint);
        assert_eq!(
            bound, fingerprint,
            "TermCache is pinned to a different circuit (one cache per NoisyCircuit)"
        );
    }

    /// [`TermCache::prepared`] without the circuit-fingerprint check; the
    /// caller must have validated via [`TermCache::bind`].
    fn prepared_unchecked(&self, sampler: &FrameSampler<'_>, term: &PauliString) -> Arc<TermPrep> {
        if let Some(prep) = self.map.read().expect("term cache poisoned").get(term) {
            return Arc::clone(prep);
        }
        let prep = Arc::new(sampler.prepare(term));
        let mut map = self.map.write().expect("term cache poisoned");
        if map.len() >= TermCache::MAX_TERMS && !map.contains_key(term) {
            return prep;
        }
        Arc::clone(map.entry(term.clone()).or_insert(prep))
    }
}

/// Multiplies `damp` into every factor whose `supported` bit is set.
///
/// Masks with fewer than 32 lanes take a set-bit loop. Denser masks read
/// two lanes' multipliers (`damp` or `1.0` each) from a four-entry table
/// indexed by two mask bits — about a third of the instructions of a
/// per-lane select, which SSE2 can only build with emulated 64-bit
/// compares. For finite factors `f × 1.0` is bit-exact `f` (IEEE 754), so
/// both shapes multiply each supported lane by exactly the same sequence
/// the scalar walk would, preserving batch-vs-scalar bit-identity.
#[inline]
fn damp_lanes(factors: &mut [f64; TermBatch::LANES], supported: u64, damp: f64) {
    if supported.count_ones() < 32 {
        let mut mask = supported;
        while mask != 0 {
            factors[mask.trailing_zeros() as usize] *= damp;
            mask &= mask - 1;
        }
    } else {
        let table = [[1.0, 1.0], [damp, 1.0], [1.0, damp], [damp, damp]];
        for (pair, lanes) in factors.chunks_exact_mut(2).enumerate() {
            let [a, b] = table[((supported >> (2 * pair)) & 3) as usize];
            lanes[0] *= a;
            lanes[1] *= b;
        }
    }
}

/// Multiplies the single-qubit Pauli `e` into position `q` of `frame`
/// (phases irrelevant for error frames).
fn mul_pauli_into(frame: &mut PauliString, q: usize, e: Pauli) {
    let (_, prod) = frame.get(q).mul(e);
    frame.set(q, prod);
}

/// Decodes a 2-bit index into a Pauli (`1 → X`, `2 → Y`, `3 → Z`).
fn index_pauli(k: u8) -> Pauli {
    match k {
        1 => Pauli::X,
        2 => Pauli::Y,
        3 => Pauli::Z,
        _ => unreachable!("index 0 is identity"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoiseModel;
    use clapton_circuits::{Circuit, Gate};
    use clapton_stabilizer::StabilizerState;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    fn noisy(c: &Circuit, m: &NoiseModel) -> NoisyCircuit {
        NoisyCircuit::from_circuit(c, m).unwrap()
    }

    #[test]
    fn noiseless_identity_circuit() {
        let c = Circuit::new(2);
        let nc = noisy(&c, &NoiseModel::noiseless(2));
        let eval = ExactEvaluator::new(&nc);
        assert_eq!(eval.expectation(&ps("ZI")), 1.0);
        assert_eq!(eval.expectation(&ps("XI")), 0.0);
        assert_eq!(eval.expectation(&ps("II")), 1.0);
    }

    #[test]
    fn depolarizing_damps_z_after_x_gate() {
        let p = 3e-3;
        let r = 1e-2;
        let mut c = Circuit::new(1);
        c.push(Gate::X(0));
        let model = NoiseModel::uniform(1, p, 0.0, r);
        let nc = noisy(&c, &model);
        let eval = ExactEvaluator::new(&nc);
        let expected = -(1.0 - 4.0 * p / 3.0) * (1.0 - 2.0 * r);
        assert!((eval.expectation(&ps("Z")) - expected).abs() < 1e-14);
        // Noiseless variant ignores the damping.
        assert_eq!(eval.noiseless_expectation(&ps("Z")), -1.0);
    }

    #[test]
    fn two_qubit_depolarizing_factor() {
        let p2 = 1e-2;
        let mut c = Circuit::new(2);
        c.push(Gate::Cx(0, 1));
        let model = NoiseModel::uniform(2, 0.0, p2, 0.0);
        let nc = noisy(&c, &model);
        let eval = ExactEvaluator::new(&nc);
        // ⟨Z0⟩ through one CX with 2q depolarizing: factor 1 - 16p/15.
        let expected = 1.0 - 16.0 * p2 / 15.0;
        assert!((eval.expectation(&ps("ZI")) - expected).abs() < 1e-14);
        assert!((eval.expectation(&ps("ZZ")) - expected).abs() < 1e-14);
    }

    #[test]
    fn x_basis_measurement_includes_prep_noise() {
        // |+⟩ = H|0⟩ measured in X basis: prep H carries gate noise, and the
        // circuit's H also carries noise → ⟨X⟩ = (1-4p/3)² (no readout err).
        let p = 2e-3;
        let mut c = Circuit::new(1);
        c.push(Gate::H(0));
        let model = NoiseModel::uniform(1, p, 0.0, 0.0);
        let nc = noisy(&c, &model);
        let eval = ExactEvaluator::new(&nc);
        let expected = (1.0 - 4.0 * p / 3.0) * (1.0 - 4.0 * p / 3.0);
        assert!((eval.expectation(&ps("X")) - expected).abs() < 1e-14);
    }

    #[test]
    fn y_basis_prep_has_two_noisy_gates() {
        // ⟨Y⟩ on √X|0⟩ = -1; prep is S†,H → two extra noise slots plus the
        // circuit's own gate slot: factor (1-4p/3)³.
        let p = 1e-3;
        let mut c = Circuit::new(1);
        c.push(Gate::Ry(0, 0.0)); // identity slot, still noisy
        let model = NoiseModel::uniform(1, p, 0.0, 0.0);
        let nc = noisy(&c, &model);
        let eval = ExactEvaluator::new(&nc);
        let f = 1.0 - 4.0 * p / 3.0;
        // Term Y on |0⟩ is traceless → 0 regardless of damping.
        assert_eq!(eval.expectation(&ps("Y")), 0.0);
        // Term Z: no basis prep, one identity-slot noise. Z supported.
        assert!((eval.expectation(&ps("Z")) - f).abs() < 1e-14);
    }

    #[test]
    fn unsupported_qubits_are_not_damped() {
        // Noise on qubit 1 must not damp an observable supported on qubit 0.
        let mut c = Circuit::new(2);
        c.push(Gate::H(1));
        let model = NoiseModel::uniform(2, 5e-2, 0.0, 0.0);
        let nc = noisy(&c, &model);
        let eval = ExactEvaluator::new(&nc);
        assert_eq!(eval.expectation(&ps("ZI")), 1.0);
    }

    #[test]
    fn noiseless_backprop_matches_stabilizer_state() {
        let mut rng = StdRng::seed_from_u64(71);
        use rand::Rng;
        for _ in 0..20 {
            let n = rng.gen_range(2..6);
            let mut c = Circuit::new(n);
            for _ in 0..15 {
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
            let nc = noisy(&c, &NoiseModel::noiseless(n));
            let eval = ExactEvaluator::new(&nc);
            let mut st = StabilizerState::new(n);
            st.apply_all(&c.to_clifford().unwrap());
            for _ in 0..10 {
                let p = PauliString::random(n, &mut rng);
                assert_eq!(
                    eval.noiseless_expectation(&p),
                    st.expectation(&p),
                    "circuit {c} term {p}"
                );
            }
        }
    }

    #[test]
    fn keeps_z_type_holds_for_the_zero_point_skeleton_and_fails_with_an_h() {
        use clapton_circuits::HardwareEfficientAnsatz;
        // 70 qubits: the single-qubit Z strings take two walks.
        for n in [3usize, 70] {
            let model = NoiseModel::uniform(n, 1e-3, 1e-2, 2e-2);
            let mut c = HardwareEfficientAnsatz::new(n).circuit_at_zero();
            c.push(Gate::Swap(0, n - 1));
            c.push(Gate::Rz(1, std::f64::consts::PI));
            assert!(
                ExactEvaluator::new(&noisy(&c, &model)).keeps_z_type(),
                "n {n}"
            );
            // One H on the last qubit, between identity rotations and CXs.
            let mut with_h = Circuit::new(n);
            for gate in c.gates() {
                with_h.push(*gate);
                if *gate == Gate::Cx(0, 1) {
                    with_h.push(Gate::H(n - 1));
                }
            }
            assert!(
                !ExactEvaluator::new(&noisy(&with_h, &model)).keeps_z_type(),
                "n {n}"
            );
        }
    }

    #[test]
    fn energy_sums_terms() {
        let mut c = Circuit::new(2);
        c.push(Gate::X(0));
        let nc = noisy(&c, &NoiseModel::noiseless(2));
        let eval = ExactEvaluator::new(&nc);
        let h = PauliSum::from_terms(2, vec![(1.0, ps("ZI")), (2.0, ps("IZ")), (0.5, ps("II"))]);
        assert_eq!(eval.energy(&h), -1.0 + 2.0 + 0.5);
    }

    #[test]
    fn sampler_converges_to_exact_single_qubit() {
        let p = 5e-2;
        let r = 3e-2;
        let mut c = Circuit::new(1);
        c.push(Gate::X(0));
        let model = NoiseModel::uniform(1, p, 0.0, r);
        let nc = noisy(&c, &model);
        let exact = ExactEvaluator::new(&nc).expectation(&ps("Z"));
        let mut rng = StdRng::seed_from_u64(99);
        let sampled = FrameSampler::new(&nc).expectation(&ps("Z"), 40_000, &mut rng);
        assert!(
            (sampled - exact).abs() < 0.02,
            "sampled {sampled} vs exact {exact}"
        );
    }

    #[test]
    fn sampler_converges_to_exact_entangled() {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Cx(1, 2));
        let model = NoiseModel::uniform(3, 1e-2, 4e-2, 2e-2);
        let nc = noisy(&c, &model);
        let mut rng = StdRng::seed_from_u64(123);
        for term in ["ZZI", "IZZ", "XXX", "ZIZ"] {
            let exact = ExactEvaluator::new(&nc).expectation(&ps(term));
            let sampled = FrameSampler::new(&nc).expectation(&ps(term), 40_000, &mut rng);
            assert!(
                (sampled - exact).abs() < 0.03,
                "term {term}: sampled {sampled} vs exact {exact}"
            );
        }
    }

    #[test]
    fn two_qubit_channel_damps_single_qubit_observables_on_either_leg() {
        // A 2q depolarizing channel damps any observable overlapping the
        // pair, including observables supported on only one of the qubits.
        let p2 = 2e-2;
        let mut c = Circuit::new(3);
        c.push(Gate::Cx(1, 2));
        let model = NoiseModel::uniform(3, 0.0, p2, 0.0);
        let nc = noisy(&c, &model);
        let eval = ExactEvaluator::new(&nc);
        let f = 1.0 - 16.0 * p2 / 15.0;
        assert!((eval.expectation(&ps("IZI")) - f).abs() < 1e-14);
        assert!((eval.expectation(&ps("IIZ")) - f).abs() < 1e-14);
        // Qubit 0 is untouched by the channel.
        assert_eq!(eval.expectation(&ps("ZII")), 1.0);
    }

    #[test]
    fn damping_factors_compose_multiplicatively() {
        // Two sequential X gates on the same qubit: two 1q channels, each
        // damping ⟨Z⟩ by (1-4p/3); the X flips cancel.
        let p = 1e-2;
        let mut c = Circuit::new(1);
        c.push(Gate::X(0));
        c.push(Gate::X(0));
        let model = NoiseModel::uniform(1, p, 0.0, 0.0);
        let nc = noisy(&c, &model);
        let f = 1.0 - 4.0 * p / 3.0;
        let eval = ExactEvaluator::new(&nc);
        assert!((eval.expectation(&ps("Z")) - f * f).abs() < 1e-14);
    }

    #[test]
    fn identity_term_is_never_damped() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx(0, 1));
        let model = NoiseModel::uniform(2, 0.5, 0.5, 0.5);
        let nc = noisy(&c, &model);
        assert_eq!(ExactEvaluator::new(&nc).expectation(&ps("II")), 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            FrameSampler::new(&nc).expectation(&ps("II"), 10, &mut rng),
            1.0
        );
    }

    #[test]
    fn full_strength_readout_error_inverts_sign() {
        // readout p = 1 flips every bit deterministically: ⟨Z⟩ on |0⟩ = -1.
        let c = Circuit::new(1);
        let model = NoiseModel::uniform(1, 0.0, 0.0, 1.0);
        let nc = noisy(&c, &model);
        assert_eq!(ExactEvaluator::new(&nc).expectation(&ps("Z")), -1.0);
    }

    #[test]
    fn sampler_zero_expectation_stays_near_zero() {
        let c = Circuit::new(1);
        let nc = noisy(&c, &NoiseModel::uniform(1, 1e-2, 0.0, 1e-2));
        let mut rng = StdRng::seed_from_u64(7);
        let sampled = FrameSampler::new(&nc).expectation(&ps("X"), 40_000, &mut rng);
        assert!(sampled.abs() < 0.02, "sampled {sampled}");
    }
}
