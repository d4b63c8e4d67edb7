//! Exact extremal eigenvalues of Pauli-sum Hamiltonians via Lanczos.
//!
//! The paper computes the true ground-state energy `E0` "by diagonalizing the
//! Hamiltonian" (§5.2.1) to define the improvement metric η (Eq. 14). A dense
//! diagonalization is wasteful: Lanczos with full reorthogonalization on the
//! matrix-free Pauli matvec converges to machine precision for every
//! benchmark in the suite.

use crate::statevector::apply_pauli_sum_to;
use crate::Complex64;
use clapton_pauli::PauliSum;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The minimum eigenvalue (ground-state energy `E0`) of a Pauli-sum
/// Hamiltonian.
///
/// Deterministic: restarts from two fixed seeds and returns the smaller
/// result.
///
/// # Panics
///
/// Panics if the Hamiltonian has more than 24 qubits (dense vectors too
/// large) or zero qubits.
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
        n <= 24,
        "Hamiltonian on {n} qubits too large for dense vectors"
    );
    let mut best = f64::INFINITY;
    for seed in [0xC1AF_0001u64, 0xC1AF_0002u64] {
        let v = lanczos_min(h, seed);
        best = best.min(v);
    }
    best
}

/// Lanczos iteration returning the smallest eigenvalue of `H`.
fn lanczos_min(h: &PauliSum, seed: u64) -> f64 {
    let dim = 1usize << h.num_qubits();
    let m = dim.min(140);
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
        betas.push(beta);
        v.clone_from(&w);
        let inv = 1.0 / beta;
        for x in &mut v {
            *x = x.scale(inv);
        }
    }
    tridiagonal_min_eigenvalue(&alphas, &betas)
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

/// Smallest eigenvalue of a symmetric tridiagonal matrix via Sturm-sequence
/// bisection.
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
    let (mut lo, mut hi) = (lo - 1e-9, hi + 1e-9);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if count_below(mid) >= 1 {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo < 1e-12 * (1.0 + hi.abs()) {
            break;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapton_pauli::PauliString;

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
    fn identity_offset_shifts_spectrum() {
        let h = PauliSum::from_terms(2, vec![(1.0, ps("ZZ")), (-3.0, ps("II"))]);
        assert!((ground_energy(&h) + 4.0).abs() < 1e-9);
    }

    #[test]
    fn matches_power_iteration_on_random_hamiltonian() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
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
