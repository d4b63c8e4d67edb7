//! Exact extremal eigenvalues of Pauli-sum Hamiltonians via Lanczos.
//!
//! The paper computes the true ground-state energy `E0` "by diagonalizing the
//! Hamiltonian" (§5.2.1) to define the improvement metric η (Eq. 14). A dense
//! diagonalization is wasteful: Lanczos with full reorthogonalization on a
//! matrix-free Pauli matvec converges to machine precision for every
//! benchmark in the suite, in a few dozen steps.

use crate::statevector::{i_power, masks};
use crate::Complex64;
use clapton_pauli::PauliSum;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The largest register [`ground_energy`] accepts: its Lanczos vectors are
/// dense, `2^n` complex amplitudes each (256 MiB apiece at 24 qubits).
pub const MAX_GROUND_ENERGY_QUBITS: usize = 24;

/// Lanczos step cap (the Krylov dimension never exceeds this).
const MAX_STEPS: usize = 140;

/// Steps between two convergence checks of the lowest Ritz value.
const CHECK_EVERY: usize = 5;

/// The minimum eigenvalue (ground-state energy `E0`) of a Pauli-sum
/// Hamiltonian.
///
/// Deterministic: one Lanczos run from a fixed random start vector, with
/// full reorthogonalization. Every 5 steps it checks the lowest Ritz value
/// and stops once that moved by at most `1e-13·max(|E|, 1)` since the
/// previous check (at most 140 steps; an invariant Krylov subspace ends it
/// earlier). `H` is applied through its terms grouped by X mask, one
/// precomputed diagonal per group.
///
/// # Panics
///
/// Panics if the Hamiltonian has more than [`MAX_GROUND_ENERGY_QUBITS`]
/// qubits (dense vectors too large) or zero qubits.
///
/// # Example
///
/// ```
/// use clapton_pauli::PauliSum;
/// use clapton_sim::ground_energy;
///
/// // H = J X0X1 + Z0 + Z1 has E0 = -√(4 + J²).
/// let j = 0.5;
/// let h = PauliSum::from_terms(2, vec![
///     (j, "XX".parse().unwrap()),
///     (1.0, "ZI".parse().unwrap()),
///     (1.0, "IZ".parse().unwrap()),
/// ]);
/// assert!((ground_energy(&h) + (4.0 + j * j).sqrt()).abs() < 1e-9);
/// ```
pub fn ground_energy(h: &PauliSum) -> f64 {
    let n = h.num_qubits();
    assert!(n > 0, "need at least one qubit");
    assert!(
        n <= MAX_GROUND_ENERGY_QUBITS,
        "Hamiltonian on {n} qubits exceeds the {MAX_GROUND_ENERGY_QUBITS}-qubit limit of dense \
         vectors"
    );
    let op = GroupedPauliSum::new(h);
    let dim = 1usize << n;
    let m = dim.min(MAX_STEPS);
    let mut rng = StdRng::seed_from_u64(0xC1AF_0001);
    let mut basis: Vec<Vec<Complex64>> = Vec::with_capacity(m);
    let mut v: Vec<Complex64> = (0..dim)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    normalize(&mut v);
    let mut alphas: Vec<f64> = Vec::with_capacity(m);
    let mut betas: Vec<f64> = Vec::with_capacity(m);
    let mut w = vec![Complex64::ZERO; dim];
    let mut last_ritz: Option<f64> = None;
    for j in 0..m {
        basis.push(v.clone());
        w.fill(Complex64::ZERO);
        op.apply_to(&v, &mut w);
        if j > 0 {
            let beta = betas[j - 1];
            for (wi, bi) in w.iter_mut().zip(&basis[j - 1]) {
                *wi -= bi.scale(beta);
            }
        }
        let alpha = dot(&basis[j], &w).re;
        alphas.push(alpha);
        for (wi, bi) in w.iter_mut().zip(&basis[j]) {
            *wi -= bi.scale(alpha);
        }
        // Full reorthogonalization for numerical robustness.
        for b in &basis {
            let overlap = dot(b, &w);
            for (wi, bi) in w.iter_mut().zip(b) {
                *wi -= *bi * overlap;
            }
        }
        let beta = norm(&w);
        if beta < 1e-12 || j + 1 == m {
            break;
        }
        if (j + 1) % CHECK_EVERY == 0 {
            let ritz = tridiagonal_min_eigenvalue(&alphas, &betas);
            if last_ritz.is_some_and(|last| (ritz - last).abs() <= 1e-13 * ritz.abs().max(1.0)) {
                return ritz;
            }
            last_ritz = Some(ritz);
        }
        betas.push(beta);
        v.clone_from(&w);
        let inv = 1.0 / beta;
        for x in &mut v {
            *x = x.scale(inv);
        }
    }
    tridiagonal_min_eigenvalue(&alphas, &betas)
}

/// A Pauli sum as its terms grouped by X mask: every term of a group maps
/// `|r⟩` to a multiple of `|r ⊕ x⟩`, so the group acts as one complex
/// diagonal `d_x[r] = Σ c·i^{#Y}·(-1)^{popcount(r & z)}` followed by the
/// bit flip, and `H·v` costs one pass per distinct X mask instead of one
/// per term.
struct GroupedPauliSum {
    /// `(x mask, diagonal)` per group, in order of first appearance.
    groups: Vec<(usize, Vec<Complex64>)>,
}

impl GroupedPauliSum {
    fn new(h: &PauliSum) -> GroupedPauliSum {
        let dim = 1usize << h.num_qubits();
        let mut groups: Vec<(usize, Vec<Complex64>)> = Vec::new();
        let mut index: HashMap<usize, usize> = HashMap::new();
        for (c, p) in h.iter() {
            let (x_mask, z_mask, y_count) = masks(p);
            let x = x_mask as usize;
            let g = *index.entry(x).or_insert_with(|| {
                groups.push((x, vec![Complex64::ZERO; dim]));
                groups.len() - 1
            });
            let phase0 = i_power(y_count).scale(c);
            for (r, d) in groups[g].1.iter_mut().enumerate() {
                if ((r as u64) & z_mask).count_ones() & 1 == 1 {
                    *d -= phase0;
                } else {
                    *d += phase0;
                }
            }
        }
        GroupedPauliSum { groups }
    }

    /// `out += H · v`.
    fn apply_to(&self, v: &[Complex64], out: &mut [Complex64]) {
        for (x, diagonal) in &self.groups {
            for (r, (d, &amp)) in diagonal.iter().zip(v).enumerate() {
                out[r ^ x] += *d * amp;
            }
        }
    }
}

fn dot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    let mut acc = Complex64::ZERO;
    for (x, y) in a.iter().zip(b) {
        acc += x.conj() * *y;
    }
    acc
}

fn norm(v: &[Complex64]) -> f64 {
    v.iter().map(|x| x.norm_sqr()).sum::<f64>().sqrt()
}

fn normalize(v: &mut [Complex64]) {
    let n = norm(v);
    assert!(n > 0.0, "cannot normalize zero vector");
    let inv = 1.0 / n;
    for x in v.iter_mut() {
        *x = x.scale(inv);
    }
}

/// Smallest eigenvalue of a symmetric tridiagonal matrix (diagonal
/// `alphas`, off-diagonal `betas[..alphas.len() - 1]`) via Sturm-sequence
/// bisection down to two adjacent floats.
fn tridiagonal_min_eigenvalue(alphas: &[f64], betas: &[f64]) -> f64 {
    assert!(!alphas.is_empty(), "empty tridiagonal matrix");
    // Gershgorin bounds.
    let k = alphas.len();
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (i, &alpha) in alphas.iter().enumerate() {
        let r = betas.get(i.wrapping_sub(1)).copied().unwrap_or(0.0).abs()
            + betas.get(i).copied().unwrap_or(0.0).abs();
        lo = lo.min(alpha - r);
        hi = hi.max(alpha + r);
    }
    // Count of eigenvalues < x via the Sturm sequence.
    let count_below = |x: f64| -> usize {
        let mut count = 0;
        let mut d = 1.0f64;
        for i in 0..k {
            let b2 = if i == 0 {
                0.0
            } else {
                betas[i - 1] * betas[i - 1]
            };
            d = alphas[i] - x - b2 / d;
            if d == 0.0 {
                d = 1e-300;
            }
            if d < 0.0 {
                count += 1;
            }
        }
        count
    };
    // Invariant: no eigenvalue below `lo`, at least one below `hi`. The loop
    // ends once no float lies strictly between them (or on a NaN bound).
    let (mut lo, mut hi) = (lo - 1e-9, hi + 1e-9);
    loop {
        let mid = 0.5 * (lo + hi);
        if !(lo < mid && mid < hi) {
            break;
        }
        if count_below(mid) >= 1 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::apply_pauli_sum_to;
    use clapton_pauli::{Pauli, PauliString};

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn single_qubit_z() {
        let h = PauliSum::from_terms(1, vec![(1.0, ps("Z"))]);
        assert!((ground_energy(&h) + 1.0).abs() < 1e-10);
    }

    #[test]
    fn single_qubit_x_plus_z() {
        // H = X + Z has eigenvalues ±√2.
        let h = PauliSum::from_terms(1, vec![(1.0, ps("X")), (1.0, ps("Z"))]);
        assert!((ground_energy(&h) + 2.0f64.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn two_qubit_ising_closed_form() {
        // H = J XX + Z1 + Z2: E0 = -√(4 + J²).
        for j in [0.25, 0.5, 1.0, 2.0] {
            let h = PauliSum::from_terms(2, vec![(j, ps("XX")), (1.0, ps("ZI")), (1.0, ps("IZ"))]);
            assert!(
                (ground_energy(&h) + (4.0 + j * j).sqrt()).abs() < 1e-9,
                "J = {j}"
            );
        }
    }

    #[test]
    fn two_qubit_xxz_closed_form() {
        // H = J(XX + YY) + ZZ: spectrum {1, 1, -1+2J, -1-2J}.
        for j in [0.25, 0.5, 1.0] {
            let h = PauliSum::from_terms(2, vec![(j, ps("XX")), (j, ps("YY")), (1.0, ps("ZZ"))]);
            assert!(
                (ground_energy(&h) - (-1.0 - 2.0 * j)).abs() < 1e-9,
                "J = {j}"
            );
        }
    }

    #[test]
    fn degenerate_z_chain_lands_on_the_ground_energy() {
        // Σ Z_i has E0 = -n exactly; a bisection stopped at a relative
        // bracket lands up to ~1e-12 above it, above energies a noiseless
        // device reaches.
        for n in 1..=6 {
            let h = PauliSum::from_terms(
                n,
                (0..n).map(|q| (1.0, PauliString::single(n, q, Pauli::Z))),
            );
            let e0 = ground_energy(&h);
            assert!(e0 <= -(n as f64) + 1e-14, "n = {n}: {e0}");
            assert!(e0 >= -(n as f64) - 1e-14, "n = {n}: {e0}");
        }
    }

    #[test]
    fn grouped_matvec_matches_term_by_term() {
        let mut rng = StdRng::seed_from_u64(77);
        for n in [1usize, 3, 6, 9] {
            let dim = 1usize << n;
            // Few distinct X masks under many terms, so groups repeat; z
            // bits on x bits make Y factors.
            let x_masks: Vec<u64> = (0..4).map(|_| rng.gen_range(0..dim as u64)).collect();
            let terms: Vec<(f64, PauliString)> = (0..40)
                .map(|_| {
                    let x = x_masks[rng.gen_range(0..x_masks.len())];
                    let z = rng.gen_range(0..dim as u64);
                    let mut p = PauliString::identity(n);
                    for q in 0..n {
                        match ((x >> q) & 1, (z >> q) & 1) {
                            (1, 0) => p.set(q, Pauli::X),
                            (1, 1) => p.set(q, Pauli::Y),
                            (0, 1) => p.set(q, Pauli::Z),
                            _ => {}
                        }
                    }
                    (rng.gen_range(-1.0..1.0), p)
                })
                .collect();
            assert!(terms.iter().any(|(_, p)| masks(p).2 % 2 == 1), "odd #Y");
            let h = PauliSum::from_terms(n, terms);
            for _ in 0..3 {
                let v: Vec<Complex64> = (0..dim)
                    .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                    .collect();
                let mut grouped = vec![Complex64::ZERO; dim];
                let mut reference = vec![Complex64::ZERO; dim];
                GroupedPauliSum::new(&h).apply_to(&v, &mut grouped);
                apply_pauli_sum_to(&h, &v, &mut reference);
                for (a, b) in grouped.iter().zip(&reference) {
                    assert!((*a - *b).abs() < 1e-12, "n = {n}: {a} vs {b}");
                }
            }
        }
    }

    /// A fixed-work Lanczos reference: two start vectors, 140 steps each,
    /// term-by-term matvec, no convergence stop.
    fn fixed_step_reference(h: &PauliSum) -> f64 {
        let dim = 1usize << h.num_qubits();
        let m = dim.min(MAX_STEPS);
        let mut best = f64::INFINITY;
        for seed in [0xC1AF_0001u64, 0xC1AF_0002] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut basis: Vec<Vec<Complex64>> = Vec::with_capacity(m);
            let mut v: Vec<Complex64> = (0..dim)
                .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            normalize(&mut v);
            let mut alphas: Vec<f64> = Vec::with_capacity(m);
            let mut betas: Vec<f64> = Vec::with_capacity(m);
            let mut w = vec![Complex64::ZERO; dim];
            for j in 0..m {
                basis.push(v.clone());
                w.fill(Complex64::ZERO);
                apply_pauli_sum_to(h, &v, &mut w);
                if j > 0 {
                    let beta = betas[j - 1];
                    for (wi, bi) in w.iter_mut().zip(&basis[j - 1]) {
                        *wi -= bi.scale(beta);
                    }
                }
                let alpha = dot(&basis[j], &w).re;
                alphas.push(alpha);
                for (wi, bi) in w.iter_mut().zip(&basis[j]) {
                    *wi -= bi.scale(alpha);
                }
                for b in &basis {
                    let overlap = dot(b, &w);
                    for (wi, bi) in w.iter_mut().zip(b) {
                        *wi -= *bi * overlap;
                    }
                }
                let beta = norm(&w);
                if beta < 1e-12 || j + 1 == m {
                    break;
                }
                betas.push(beta);
                v.clone_from(&w);
                let inv = 1.0 / beta;
                for x in &mut v {
                    *x = x.scale(inv);
                }
            }
            best = best.min(tridiagonal_min_eigenvalue(&alphas, &betas));
        }
        best
    }

    #[test]
    fn converged_lanczos_matches_fixed_step_reference_on_the_suite() {
        for bench in clapton_models::benchmark_suite(10) {
            let h = &bench.hamiltonian;
            let (e0, reference) = (ground_energy(h), fixed_step_reference(h));
            assert!(
                (e0 - reference).abs() <= 1e-11 * reference.abs().max(1.0),
                "{}: {e0} vs {reference}",
                bench.name
            );
        }
    }

    #[test]
    fn identity_offset_shifts_spectrum() {
        let h = PauliSum::from_terms(2, vec![(1.0, ps("ZZ")), (-3.0, ps("II"))]);
        assert!((ground_energy(&h) + 4.0).abs() < 1e-9);
    }

    #[test]
    fn matches_power_iteration_on_random_hamiltonian() {
        let mut rng = StdRng::seed_from_u64(404);
        let n = 4;
        let h = PauliSum::from_terms(
            n,
            (0..12).map(|_| (rng.gen_range(-1.0..1.0), PauliString::random(n, &mut rng))),
        );
        let e0 = ground_energy(&h);
        // Independent check: power iteration on σI - H.
        let sigma = h.one_norm() + 1.0;
        let dim = 1usize << n;
        let mut v: Vec<Complex64> = (0..dim)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        normalize(&mut v);
        let mut w = vec![Complex64::ZERO; dim];
        let mut lambda = 0.0;
        for _ in 0..3000 {
            w.fill(Complex64::ZERO);
            apply_pauli_sum_to(&h, &v, &mut w);
            // w = σ v - H v
            for (wi, vi) in w.iter_mut().zip(&v) {
                *wi = vi.scale(sigma) - *wi;
            }
            lambda = norm(&w);
            v.clone_from(&w);
            let inv = 1.0 / lambda;
            for x in &mut v {
                *x = x.scale(inv);
            }
        }
        let e0_power = sigma - lambda;
        assert!(
            (e0 - e0_power).abs() < 1e-6,
            "lanczos {e0} vs power {e0_power}"
        );
    }

    #[test]
    fn larger_chain_is_consistent_with_variational_bound() {
        // E0 must lower-bound any computational-basis energy.
        let n = 6;
        let mut terms = vec![];
        for i in 0..n - 1 {
            let mut s = vec!['I'; n];
            s[i] = 'X';
            s[i + 1] = 'X';
            terms.push((0.5, s.iter().collect::<String>().parse().unwrap()));
        }
        for i in 0..n {
            let mut s = vec!['I'; n];
            s[i] = 'Z';
            terms.push((1.0, s.iter().collect::<String>().parse().unwrap()));
        }
        let h = PauliSum::from_terms(n, terms);
        let e0 = ground_energy(&h);
        for bits in 0..(1u64 << n) {
            assert!(e0 <= h.expectation_basis_state(&[bits]) + 1e-9);
        }
        // And it must be within the 1-norm ball.
        assert!(e0 >= -h.one_norm() - 1e-9);
    }
}
