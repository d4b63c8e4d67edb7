//! The service's ground-energy memo: `E0` (the paper's exact reference for
//! η, Eq. 14) depends only on the problem Hamiltonian, so a service solves
//! each problem's Lanczos once instead of once per job.

use clapton_pauli::PauliSum;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// How many problems one memo keeps; a miss past this evicts the least
/// recently used. An `H6`-sized entry (919 terms) is about 120 KB.
const CAPACITY: usize = 64;

/// `E0` per resolved Hamiltonian, shared by every job of one
/// [`ClaptonService`](crate::ClaptonService).
///
/// A hit needs the same Hamiltonian exactly — register size, term order,
/// Pauli words and coefficient bits — never a fingerprint alone, because a
/// service runs arbitrary `Terms` problems. Lanczos is deterministic, so a
/// hit returns the bits a fresh solve would. Nothing stays locked while
/// Lanczos runs: two jobs that miss on one problem at once both solve it,
/// get the same bits, and leave one entry.
#[derive(Default)]
pub(crate) struct GroundEnergies {
    /// Least recently used first.
    entries: Mutex<Vec<(PauliSum, f64)>>,
    /// Lanczos runs so far: one per miss.
    solves: AtomicUsize,
}

impl GroundEnergies {
    /// `E0` of `h`: the memoized value, or `clapton_sim::ground_energy(h)`
    /// on a miss.
    pub(crate) fn ground_energy(&self, h: &PauliSum) -> f64 {
        {
            let mut entries = self.entries();
            if let Some(i) = entries.iter().position(|(k, _)| k.bit_identical(h)) {
                let entry = entries.remove(i);
                let e0 = entry.1;
                entries.push(entry);
                return e0;
            }
        }
        self.solves.fetch_add(1, Ordering::Relaxed);
        let e0 = clapton_sim::ground_energy(h);
        let mut entries = self.entries();
        if !entries.iter().any(|(k, _)| k.bit_identical(h)) {
            if entries.len() == CAPACITY {
                entries.remove(0);
            }
            entries.push((h.clone(), e0));
        }
        e0
    }

    fn entries(&self) -> MutexGuard<'_, Vec<(PauliSum, f64)>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Problems held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries().len()
    }

    /// Lanczos runs so far.
    #[cfg(test)]
    pub(crate) fn solves(&self) -> usize {
        self.solves.load(Ordering::Relaxed)
    }
}

/// A memo holds up to [`CAPACITY`] Hamiltonians; print the counts only.
impl fmt::Debug for GroundEnergies {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroundEnergies")
            .field("entries", &self.entries().len())
            .field("solves", &self.solves.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapton_pauli::{Pauli, PauliString};

    /// `Σ Z_q + j·X_0` on `n` qubits.
    fn field(n: usize, j: f64) -> PauliSum {
        let mut h = PauliSum::new(n);
        for q in 0..n {
            h.push(1.0, PauliString::single(n, q, Pauli::Z));
        }
        h.push(j, PauliString::single(n, 0, Pauli::X));
        h
    }

    #[test]
    fn a_hit_returns_the_solved_bits_without_solving() {
        let memo = GroundEnergies::default();
        let h = field(3, 0.5);
        let e0 = memo.ground_energy(&h);
        assert_eq!(e0.to_bits(), clapton_sim::ground_energy(&h).to_bits());
        assert_eq!(memo.ground_energy(&h.clone()).to_bits(), e0.to_bits());
        assert_eq!((memo.len(), memo.solves()), (1, 1));
    }

    #[test]
    fn any_difference_in_the_problem_misses() {
        let memo = GroundEnergies::default();
        let h = field(3, 0.5);
        memo.ground_energy(&h);
        let one_bit = PauliSum::from_terms(
            3,
            h.terms().iter().enumerate().map(|(i, t)| {
                let bits = t.coefficient.to_bits() ^ u64::from(i == 1);
                (f64::from_bits(bits), t.pauli.clone())
            }),
        );
        let reordered = PauliSum::from_terms(
            3,
            h.terms()
                .iter()
                .rev()
                .map(|t| (t.coefficient, t.pauli.clone())),
        );
        let mut extra_term = h.clone();
        extra_term.push(0.0, PauliString::identity(3));
        let variants = [
            one_bit,
            reordered,
            extra_term,
            field(4, 0.5),
            field(3, 0.0),
            field(3, -0.0),
        ];
        for (k, variant) in variants.iter().enumerate() {
            memo.ground_energy(variant);
            assert_eq!(memo.solves(), k + 2, "variant {k} must miss");
        }
        memo.ground_energy(&h);
        assert_eq!(memo.solves(), variants.len() + 1, "the original still hits");
    }

    #[test]
    fn the_bound_holds_past_capacity_and_evicts_the_least_recent() {
        let memo = GroundEnergies::default();
        let problems: Vec<PauliSum> = (0..CAPACITY + 8)
            .map(|k| field(2, k as f64 / 8.0))
            .collect();
        for (k, h) in problems.iter().enumerate() {
            memo.ground_energy(h);
            if k == CAPACITY / 2 {
                // Touch the first problem so it outlives its peers.
                memo.ground_energy(&problems[0]);
            }
        }
        assert_eq!((memo.len(), memo.solves()), (CAPACITY, CAPACITY + 8));
        memo.ground_energy(&problems[0]);
        memo.ground_energy(&problems[CAPACITY + 7]);
        assert_eq!(memo.solves(), CAPACITY + 8, "recently used problems hit");
        let e0 = memo.ground_energy(&problems[1]);
        assert_eq!(memo.solves(), CAPACITY + 9, "the least recent was evicted");
        assert_eq!(
            e0.to_bits(),
            clapton_sim::ground_energy(&problems[1]).to_bits()
        );
        assert_eq!(memo.len(), CAPACITY);
    }

    #[test]
    fn concurrent_misses_agree_and_keep_one_entry() {
        let memo = GroundEnergies::default();
        let h = field(8, 0.75);
        let bits: Vec<u64> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| memo.ground_energy(&h).to_bits()))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let fresh = clapton_sim::ground_energy(&h).to_bits();
        assert!(bits.iter().all(|&b| b == fresh));
        assert_eq!(memo.len(), 1);
        assert!((1..=4).contains(&memo.solves()));
    }
}
