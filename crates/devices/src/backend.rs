//! The four backends of the paper's evaluation.

use crate::Calibration;
use clapton_circuits::CouplingMap;
use clapton_error::SpecError;
use clapton_noise::NoiseModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fake quantum backend: name, coupling topology and a calibration
/// snapshot.
///
/// # Example
///
/// ```
/// use clapton_devices::FakeBackend;
///
/// let toronto = FakeBackend::toronto();
/// assert_eq!(toronto.num_qubits(), 27);
/// // A ten-qubit chain embeds without SWAPs on the heavy-hex lattice.
/// assert!(toronto.coupling_map().find_line(10).is_some());
/// let model = toronto.noise_model();
/// assert!(model.has_relaxation());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FakeBackend {
    name: String,
    coupling: CouplingMap,
    calibration: Calibration,
}

/// Per-device calibration "personality": the ranges the seeded snapshot is
/// drawn from.
struct Personality {
    t1_range: (f64, f64),
    p1_range: (f64, f64),
    p2_base: (f64, f64),
    readout_range: (f64, f64),
    /// Probability of an outlier edge with 3× the two-qubit error.
    outlier_edge: f64,
}

impl FakeBackend {
    /// The 7-qubit `nairobi` device (IBM Falcon r5.11H layout).
    pub fn nairobi() -> FakeBackend {
        FakeBackend::synthesize(
            "nairobi",
            CouplingMap::new(7, vec![(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)]),
            Personality {
                t1_range: (80e-6, 160e-6),
                p1_range: (2e-4, 5e-4),
                p2_base: (8e-3, 1.6e-2),
                readout_range: (1.5e-2, 4.5e-2),
                outlier_edge: 0.15,
            },
        )
    }

    /// The 27-qubit `toronto` device. The paper observes the largest Clapton
    /// gains here; its snapshot carries the worst readout errors of the trio.
    pub fn toronto() -> FakeBackend {
        FakeBackend::synthesize(
            "toronto",
            heavy_hex_27(),
            Personality {
                t1_range: (60e-6, 130e-6),
                p1_range: (3e-4, 7e-4),
                p2_base: (9e-3, 2.2e-2),
                readout_range: (3e-2, 9e-2),
                outlier_edge: 0.2,
            },
        )
    }

    /// The 27-qubit `mumbai` device (mid-range snapshot).
    pub fn mumbai() -> FakeBackend {
        FakeBackend::synthesize(
            "mumbai",
            heavy_hex_27(),
            Personality {
                t1_range: (80e-6, 160e-6),
                p1_range: (2.5e-4, 6e-4),
                p2_base: (7e-3, 1.6e-2),
                readout_range: (1.5e-2, 5e-2),
                outlier_edge: 0.12,
            },
        )
    }

    /// The 27-qubit `hanoi` device (the paper's real-hardware target; the
    /// best gates of the trio).
    pub fn hanoi() -> FakeBackend {
        FakeBackend::synthesize(
            "hanoi",
            heavy_hex_27(),
            Personality {
                t1_range: (100e-6, 190e-6),
                p1_range: (1.5e-4, 4e-4),
                p2_base: (5e-3, 1.2e-2),
                readout_range: (8e-3, 3e-2),
                outlier_edge: 0.1,
            },
        )
    }

    /// All four backends of the evaluation.
    pub fn all() -> Vec<FakeBackend> {
        vec![
            FakeBackend::nairobi(),
            FakeBackend::toronto(),
            FakeBackend::mumbai(),
            FakeBackend::hanoi(),
        ]
    }

    /// Every name [`FakeBackend::by_name`] resolves — the backend registry
    /// job specs address devices through.
    pub fn registry_names() -> &'static [&'static str] {
        &["nairobi", "toronto", "mumbai", "hanoi"]
    }

    /// Resolves a registry name to its backend. Accepts a `-hw:<seed>`
    /// suffix selecting the perturbed [`FakeBackend::hardware_variant`]
    /// (e.g. `"hanoi-hw:42"` — the §6.1.1 calibration/device discrepancy).
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownProblem`]-style: an [`SpecError::UnknownBackend`]
    /// listing the available names.
    pub fn by_name(name: &str) -> Result<FakeBackend, SpecError> {
        let unknown = || SpecError::UnknownBackend {
            name: name.to_string(),
            available: FakeBackend::registry_names()
                .iter()
                .map(|n| n.to_string())
                .collect(),
        };
        let (base, hw_seed) = match name.split_once("-hw:") {
            Some((base, seed)) => (base, Some(seed.parse::<u64>().map_err(|_| unknown())?)),
            None => (name, None),
        };
        let backend = match base {
            "nairobi" => FakeBackend::nairobi(),
            "toronto" => FakeBackend::toronto(),
            "mumbai" => FakeBackend::mumbai(),
            "hanoi" => FakeBackend::hanoi(),
            _ => return Err(unknown()),
        };
        Ok(match hw_seed {
            Some(seed) => backend.hardware_variant(seed),
            None => backend,
        })
    }

    fn synthesize(name: &str, coupling: CouplingMap, p: Personality) -> FakeBackend {
        let n = coupling.num_qubits();
        let seed: u64 = name
            .bytes()
            .fold(0u64, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u64));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD511_CE00);
        let calibration = Calibration {
            t1: (0..n)
                .map(|_| rng.gen_range(p.t1_range.0..p.t1_range.1))
                .collect(),
            p1: (0..n)
                .map(|_| rng.gen_range(p.p1_range.0..p.p1_range.1))
                .collect(),
            p2: coupling
                .edges()
                .iter()
                .map(|&e| {
                    let base = rng.gen_range(p.p2_base.0..p.p2_base.1);
                    let factor = if rng.gen_bool(p.outlier_edge) {
                        3.0
                    } else {
                        1.0
                    };
                    (e, (base * factor).min(0.2))
                })
                .collect(),
            readout: (0..n)
                .map(|_| rng.gen_range(p.readout_range.0..p.readout_range.1))
                .collect(),
        };
        FakeBackend {
            name: name.to_string(),
            coupling,
            calibration,
        }
    }

    /// The device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.coupling.num_qubits()
    }

    /// The coupling topology.
    pub fn coupling_map(&self) -> &CouplingMap {
        &self.coupling
    }

    /// The calibration snapshot.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// The noise model extracted from the calibration (what Clapton
    /// optimizes against).
    pub fn noise_model(&self) -> NoiseModel {
        self.calibration.to_noise_model()
    }

    /// A "real hardware" variant: the same device with every calibration
    /// value perturbed by a seeded lognormal-like factor, modeling the
    /// model/device discrepancy of §6.1.1. Clapton optimizes against the
    /// nominal snapshot and is *evaluated* against this one.
    pub fn hardware_variant(&self, seed: u64) -> FakeBackend {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x4A2D);
        let mut perturb = |x: f64, spread: f64| {
            // exp(N(0, spread)) via a coarse normal from averaged uniforms.
            let u: f64 = (0..6).map(|_| rng.gen_range(-1.0..1.0)).sum::<f64>() / 6.0;
            x * (u * spread * 2.2).exp()
        };
        let c = &self.calibration;
        let calibration = Calibration {
            t1: c.t1.iter().map(|&t| perturb(t, 0.2)).collect(),
            p1: c.p1.iter().map(|&p| perturb(p, 0.3).min(0.5)).collect(),
            p2: c
                .p2
                .iter()
                .map(|&(e, p)| (e, perturb(p, 0.3).min(0.5)))
                .collect(),
            readout: c
                .readout
                .iter()
                .map(|&p| perturb(p, 0.3).min(0.5))
                .collect(),
        };
        FakeBackend {
            name: format!("{}-hw", self.name),
            coupling: self.coupling.clone(),
            calibration,
        }
    }
}

/// Wire form of a [`FakeBackend`].
#[derive(serde::Serialize, serde::Deserialize)]
struct BackendRecord {
    name: String,
    coupling: CouplingMap,
    calibration: Calibration,
}

// Serde for the backend itself, in the `BackendRecord` wire shape that
// inline spec snapshots use. Hand-written because deserialization must
// re-check the coupling/calibration size invariant the private fields
// guarantee.
impl serde::Serialize for FakeBackend {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        BackendRecord {
            name: self.name.clone(),
            coupling: self.coupling.clone(),
            calibration: self.calibration.clone(),
        }
        .serialize(serializer)
    }
}

impl<'de> serde::Deserialize<'de> for FakeBackend {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        let record = BackendRecord::deserialize(deserializer)?;
        if record.coupling.num_qubits() != record.calibration.num_qubits() {
            return Err(D::Error::custom(format!(
                "backend snapshot {:?}: coupling has {} qubits but calibration has {}",
                record.name,
                record.coupling.num_qubits(),
                record.calibration.num_qubits()
            )));
        }
        Ok(FakeBackend {
            name: record.name,
            coupling: record.coupling,
            calibration: record.calibration,
        })
    }
}

/// The 27-qubit heavy-hex coupling map used by IBM Falcon devices
/// (`toronto`, `mumbai`, `hanoi`).
fn heavy_hex_27() -> CouplingMap {
    CouplingMap::new(
        27,
        vec![
            (0, 1),
            (1, 2),
            (1, 4),
            (2, 3),
            (3, 5),
            (4, 7),
            (5, 8),
            (6, 7),
            (7, 10),
            (8, 9),
            (8, 11),
            (10, 12),
            (11, 14),
            (12, 13),
            (12, 15),
            (13, 14),
            (14, 16),
            (15, 18),
            (16, 19),
            (17, 18),
            (18, 21),
            (19, 20),
            (19, 22),
            (21, 23),
            (22, 25),
            (23, 24),
            (24, 25),
            (25, 26),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_have_expected_sizes() {
        assert_eq!(FakeBackend::nairobi().num_qubits(), 7);
        for b in [
            FakeBackend::toronto(),
            FakeBackend::mumbai(),
            FakeBackend::hanoi(),
        ] {
            assert_eq!(b.num_qubits(), 27);
        }
    }

    #[test]
    fn construction_is_deterministic() {
        assert_eq!(FakeBackend::toronto(), FakeBackend::toronto());
        assert_ne!(
            FakeBackend::toronto().calibration(),
            FakeBackend::mumbai().calibration()
        );
    }

    #[test]
    fn heavy_hex_admits_long_lines() {
        let b = FakeBackend::hanoi();
        for len in [7, 10, 15] {
            let line = b.coupling_map().find_line(len).expect("line embedding");
            assert_eq!(line.len(), len);
        }
    }

    #[test]
    fn nairobi_hosts_seven_qubit_chains_via_best_effort_layout() {
        // nairobi's graph has four leaves, so no Hamiltonian path exists —
        // the chain layout must still place all 7 logical qubits.
        let b = FakeBackend::nairobi();
        assert!(b.coupling_map().find_line(7).is_none());
        let layout = clapton_circuits::chain_layout(b.coupling_map(), 7).unwrap();
        assert_eq!(layout.len(), 7);
        let mut sorted = layout.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 7, "layout must be a permutation");
    }

    #[test]
    fn calibration_values_in_personality_ranges() {
        let b = FakeBackend::toronto();
        let c = b.calibration();
        assert!(c.t1.iter().all(|&t| (60e-6..130e-6).contains(&t)));
        assert!(c.readout.iter().all(|&r| (3e-2..9e-2).contains(&r)));
        assert!(c.p2.iter().all(|&(_, p)| p <= 0.2));
        // Toronto's readout is worse than hanoi's (device personality).
        assert!(c.mean_readout() > FakeBackend::hanoi().calibration().mean_readout());
    }

    #[test]
    fn noise_model_has_all_channels() {
        let m = FakeBackend::mumbai().noise_model();
        assert!(m.has_pauli_noise());
        assert!(m.has_relaxation());
        assert!(m.p2(0, 1) > 0.0);
    }

    #[test]
    fn hardware_variant_perturbs_but_preserves_topology() {
        let b = FakeBackend::hanoi();
        let hw = b.hardware_variant(42);
        assert_eq!(hw.coupling_map(), b.coupling_map());
        assert_eq!(hw.name(), "hanoi-hw");
        assert_ne!(hw.calibration(), b.calibration());
        // Same seed → same variant.
        assert_eq!(b.hardware_variant(42), b.hardware_variant(42));
        assert_ne!(b.hardware_variant(1), b.hardware_variant(2));
        // Perturbation is moderate: rates stay within ~3x.
        for (&orig, &pert) in b
            .calibration()
            .readout
            .iter()
            .zip(&hw.calibration().readout)
        {
            let ratio = pert / orig;
            assert!((0.3..3.0).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn full_backend_json_round_trip() {
        for b in [
            FakeBackend::toronto(),
            FakeBackend::nairobi().hardware_variant(3),
        ] {
            let json = serde_json::to_string(&b).unwrap();
            assert_eq!(serde_json::from_str::<FakeBackend>(&json).unwrap(), b);
        }
        assert!(serde_json::from_str::<FakeBackend>("{not json").is_err());
    }

    #[test]
    fn registry_resolves_names_and_hardware_variants() {
        for &name in FakeBackend::registry_names() {
            let b = FakeBackend::by_name(name).unwrap();
            assert_eq!(b.name(), name);
        }
        let hw = FakeBackend::by_name("hanoi-hw:42").unwrap();
        assert_eq!(hw, FakeBackend::hanoi().hardware_variant(42));
        let err = FakeBackend::by_name("almaden").unwrap_err();
        match err {
            SpecError::UnknownBackend { name, available } => {
                assert_eq!(name, "almaden");
                assert_eq!(available.len(), 4);
            }
            other => panic!("wrong error {other:?}"),
        }
        assert!(FakeBackend::by_name("hanoi-hw:notanumber").is_err());
    }

    #[test]
    fn snapshot_serde_round_trip_through_parts() {
        let b = FakeBackend::nairobi();
        let json = serde_json::to_string(b.calibration()).unwrap();
        let cal: Calibration = serde_json::from_str(&json).unwrap();
        let record = BackendRecord {
            name: "nairobi".to_string(),
            coupling: b.coupling_map().clone(),
            calibration: cal,
        };
        let rebuilt: FakeBackend =
            serde_json::from_str(&serde_json::to_string(&record).unwrap()).unwrap();
        assert_eq!(rebuilt.calibration(), b.calibration());
        assert_eq!(rebuilt, b);
        // Parts that disagree on the register size are not a backend.
        let mismatched = BackendRecord {
            name: "nairobi".to_string(),
            coupling: b.coupling_map().clone(),
            calibration: FakeBackend::toronto().calibration().clone(),
        };
        let json = serde_json::to_string(&mismatched).unwrap();
        assert!(serde_json::from_str::<FakeBackend>(&json).is_err());
    }
}
