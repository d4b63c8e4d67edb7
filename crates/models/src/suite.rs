//! The benchmark suite of the paper's evaluation (Figure 5).

use crate::molecular::MOLECULAR_QUBITS;
use crate::{ising, molecular, xxz, Molecule};
use clapton_error::SpecError;
use clapton_pauli::PauliSum;

/// One named VQE benchmark problem.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Display name, e.g. `"ising(J=0.25)"` or `"H2O(l=1.0)"`.
    pub name: String,
    /// The problem Hamiltonian.
    pub hamiltonian: PauliSum,
}

impl Benchmark {
    fn new(name: impl Into<String>, hamiltonian: PauliSum) -> Benchmark {
        Benchmark {
            name: name.into(),
            hamiltonian,
        }
    }
}

/// One registry row: a problem family at one parameter value.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Ising(f64),
    Xxz(f64),
    Chemistry(Molecule, f64),
}

impl Entry {
    /// The display name specs address the problem by.
    fn name(self) -> String {
        match self {
            Entry::Ising(j) => format!("ising(J={j:.2})"),
            Entry::Xxz(j) => format!("xxz(J={j:.2})"),
            Entry::Chemistry(mol, l) => format!("{}(l={l:.1})", mol.name()),
        }
    }

    /// Whether the problem exists at register size `n`: an XXZ chain needs
    /// two qubits, and the chemistry problems are fixed at ten.
    fn exists_at(self, n: usize) -> bool {
        match self {
            Entry::Ising(_) => true,
            Entry::Xxz(_) => n >= 2,
            Entry::Chemistry(..) => n == MOLECULAR_QUBITS,
        }
    }

    /// Builds the problem at register size `n` (ignored by chemistry).
    fn build(self, n: usize) -> Benchmark {
        let hamiltonian = match self {
            Entry::Ising(j) => ising(n, j),
            Entry::Xxz(j) => xxz(n, j),
            Entry::Chemistry(mol, l) => molecular(mol, l),
        };
        Benchmark::new(self.name(), hamiltonian)
    }
}

/// The suite's rows in registry order: Ising, then XXZ chains for
/// `J ∈ {0.25, 0.50, 1.00}` (§5.1.1), then H2O, H6 and LiH at the paper's
/// two bond lengths each (§5.1.2). Listing or resolving a name builds no
/// Hamiltonian but the one asked for.
fn registry() -> impl Iterator<Item = Entry> {
    const COUPLINGS: [f64; 3] = [0.25, 0.5, 1.0];
    let chemistry = [Molecule::H2O, Molecule::H6, Molecule::LiH]
        .into_iter()
        .flat_map(|mol| mol.bond_lengths().map(|l| Entry::Chemistry(mol, l)));
    COUPLINGS
        .map(Entry::Ising)
        .into_iter()
        .chain(COUPLINGS.map(Entry::Xxz))
        .chain(chemistry)
}

/// Builds, in registry order, every row that `keep`s and exists at `n`.
fn build_rows(n: usize, keep: impl Fn(Entry) -> bool) -> Vec<Benchmark> {
    registry()
        .filter(|&e| keep(e) && e.exists_at(n))
        .map(|e| e.build(n))
        .collect()
}

/// The physics benchmarks on `n` qubits: Ising and XXZ chains for
/// `J ∈ {0.25, 0.50, 1.00}` (§5.1.1). The paper uses `N = 7` on `nairobi`
/// and `N = 10` elsewhere.
pub fn physics_suite(n: usize) -> Vec<Benchmark> {
    build_rows(n, |e| !matches!(e, Entry::Chemistry(..)))
}

/// The chemistry benchmarks (always 10 qubits): H2O, H6, LiH at the paper's
/// two bond lengths each (§5.1.2).
pub fn chemistry_suite() -> Vec<Benchmark> {
    build_rows(MOLECULAR_QUBITS, |e| matches!(e, Entry::Chemistry(..)))
}

/// The full 12-benchmark suite on `n` physics qubits; chemistry benchmarks
/// are included only when `n == 10` (they are fixed at ten qubits).
pub fn benchmark_suite(n: usize) -> Vec<Benchmark> {
    build_rows(n, |_| true)
}

/// Every problem name [`benchmark_by_name`] resolves at register size `n` —
/// the registry table job specs address the suite through.
pub fn benchmark_names(n: usize) -> Vec<String> {
    registry()
        .filter(|e| e.exists_at(n))
        .map(Entry::name)
        .collect()
}

/// Resolves a suite problem by its display name (e.g. `"ising(J=0.25)"` or
/// `"LiH(l=4.5)"`) at register size `n`, building only that problem.
///
/// # Errors
///
/// [`SpecError::UnknownProblem`] listing every name available at `n` — so a
/// typo in a job spec reports the full registry instead of a bare miss.
pub fn benchmark_by_name(name: &str, n: usize) -> Result<Benchmark, SpecError> {
    registry()
        .find(|e| e.exists_at(n) && e.name() == name)
        .map(|e| e.build(n))
        .ok_or_else(|| SpecError::UnknownProblem {
            name: name.to_string(),
            available: benchmark_names(n),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physics_suite_has_six_instances() {
        let suite = physics_suite(7);
        assert_eq!(suite.len(), 6);
        assert!(suite.iter().all(|b| b.hamiltonian.num_qubits() == 7));
        let names: Vec<&str> = suite.iter().map(|b| b.name.as_str()).collect();
        assert!(names.contains(&"ising(J=0.25)"));
        assert!(names.contains(&"xxz(J=1.00)"));
    }

    #[test]
    fn chemistry_suite_is_ten_qubits() {
        let suite = chemistry_suite();
        assert_eq!(suite.len(), 6);
        assert!(suite.iter().all(|b| b.hamiltonian.num_qubits() == 10));
        assert!(suite.iter().any(|b| b.name == "LiH(l=4.5)"));
    }

    #[test]
    fn full_suite_composition() {
        assert_eq!(benchmark_suite(10).len(), 12);
        assert_eq!(benchmark_suite(7).len(), 6);
    }

    #[test]
    fn registry_resolves_every_listed_name() {
        for n in [4, 7, 10] {
            let suite = benchmark_suite(n);
            let names = benchmark_names(n);
            assert_eq!(names.len(), if n == 10 { 12 } else { 6 });
            for (name, entry) in names.iter().zip(&suite) {
                assert_eq!(&entry.name, name);
                let b = benchmark_by_name(name, n).unwrap();
                assert_eq!(&b.name, name);
                assert!(
                    b.hamiltonian.bit_identical(&entry.hamiltonian),
                    "{name} at {n}"
                );
                let physics = name.starts_with("ising(") || name.starts_with("xxz(");
                assert_eq!(b.hamiltonian.num_qubits(), if physics { n } else { 10 });
            }
            // Each name builds what its family constructor builds.
            let direct = [
                ("ising(J=0.50)", ising(n, 0.5)),
                ("xxz(J=1.00)", xxz(n, 1.0)),
            ];
            for (name, h) in direct {
                assert!(benchmark_by_name(name, n)
                    .unwrap()
                    .hamiltonian
                    .bit_identical(&h));
            }
            match benchmark_by_name("isig(J=0.25)", n).unwrap_err() {
                SpecError::UnknownProblem { name, available } => {
                    assert_eq!(name, "isig(J=0.25)");
                    assert_eq!(available, names, "the error lists every name");
                }
                other => panic!("wrong error {other:?}"),
            }
        }
        let h6 = benchmark_by_name("H6(l=3.0)", 10).unwrap().hamiltonian;
        assert!(h6.bit_identical(&molecular(Molecule::H6, 3.0)));
        // Chemistry names only resolve at n == 10.
        assert!(benchmark_by_name("H2O(l=1.0)", 7).is_err());
    }

    #[test]
    fn registry_names_are_pinned() {
        // Specs address problems by these strings.
        assert_eq!(
            benchmark_names(10),
            [
                "ising(J=0.25)",
                "ising(J=0.50)",
                "ising(J=1.00)",
                "xxz(J=0.25)",
                "xxz(J=0.50)",
                "xxz(J=1.00)",
                "H2O(l=1.0)",
                "H2O(l=3.0)",
                "H6(l=1.0)",
                "H6(l=3.0)",
                "LiH(l=1.5)",
                "LiH(l=4.5)",
            ]
        );
    }

    #[test]
    fn a_one_qubit_register_holds_only_ising_chains() {
        assert_eq!(
            benchmark_names(1),
            ["ising(J=0.25)", "ising(J=0.50)", "ising(J=1.00)"]
        );
        assert_eq!(
            benchmark_by_name("ising(J=1.00)", 1)
                .unwrap()
                .hamiltonian
                .num_terms(),
            1
        );
        assert!(benchmark_by_name("xxz(J=1.00)", 1).is_err());
    }

    #[test]
    fn names_are_unique() {
        let suite = benchmark_suite(10);
        let mut names: Vec<&String> = suite.iter().map(|b| &b.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 12);
    }
}
