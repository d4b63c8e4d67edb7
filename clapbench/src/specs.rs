//! Workload inputs: every job spec derives deterministically from the
//! workload seed given on the command line, so a run is reproducible from
//! its seed alone and a claim can be re-checked on a seed never used before.

use clapton_core::EvaluatorKind;
use clapton_ga::MultiGaConfig;
use clapton_service::{
    EngineSpec, JobSpec, MethodSpec, NoiseSpec, ProblemSpec, SuiteProblem, UniformNoise,
};

/// The uniform device model of the quick suite — the spec shape
/// `suite-runner --emit-specs` produces: `(p1, p2, readout)`.
pub const SUITE_NOISE: (f64, f64, f64) = (3e-4, 8e-3, 2e-2);

/// Register size of the paper's 12-instance suite (Figure 5).
pub const QUBITS: usize = 10;

/// The 12 instances of the quick suite, in registry order.
pub const SUITE: [&str; 12] = [
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
];

/// SplitMix64 finalizer: a bijective mix, so distinct inputs give distinct
/// seeds.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of job `index` in the stream `stream` of a run seeded with
/// `workload_seed`. Streams keep the workloads' job seeds apart.
pub fn job_seed(workload_seed: u64, stream: &str, index: u64) -> u64 {
    splitmix64(splitmix64(workload_seed ^ fnv1a(stream.as_bytes())).wrapping_add(index))
}

/// The quick engine with its convergence stop turned off, so every job
/// runs all of its `max_rounds` rounds.
///
/// Under `EngineSpec::Quick` a search stops after two rounds without
/// improvement, so a job's cost (2 to 8 rounds, and checkpoint bytes that
/// grow with the square of the rounds) depends on its seed. With the few
/// jobs a run can afford, that input variance would swamp the bounds the
/// benchmark holds changes to; a fixed round count keeps the work per job
/// the same for every seed.
pub fn fixed_round_engine() -> EngineSpec {
    let mut config = MultiGaConfig::quick();
    config.max_retry_rounds = config.max_rounds;
    EngineSpec::Custom(config)
}

/// A quick Clapton job on `problem` at the suite's register size and noise.
pub fn quick_spec(problem: &str, seed: u64) -> JobSpec {
    let (p1, p2, readout) = SUITE_NOISE;
    let mut spec = JobSpec::new(ProblemSpec::Suite(SuiteProblem {
        name: problem.to_string(),
        qubits: QUBITS,
    }));
    spec.noise = NoiseSpec::Uniform(UniformNoise {
        p1,
        p2,
        readout,
        t1: None,
    });
    spec.methods = vec![MethodSpec::Clapton];
    spec.engine = fixed_round_engine();
    spec.evaluator = EvaluatorKind::Exact;
    spec.seed = seed;
    spec
}

/// Job `index` of a closed loop over one problem.
pub fn loop_spec(problem: &str, workload_seed: u64, index: u64) -> JobSpec {
    quick_spec(problem, job_seed(workload_seed, problem, index))
}

/// The 12 quick-suite specs of a run.
pub fn suite_specs(workload_seed: u64) -> Vec<JobSpec> {
    SUITE
        .iter()
        .zip(0..)
        .map(|(name, i)| quick_spec(name, job_seed(workload_seed, "suite12", i)))
        .collect()
}

/// FNV-1a 64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A fingerprint of a spec list — FNV-1a over the specs' canonical JSON,
/// one per line — recorded with every run so a later run can prove it
/// replayed the same inputs.
pub fn spec_list_hash(specs: &[JobSpec]) -> u64 {
    let mut text = String::new();
    for spec in specs {
        text.push_str(&serde_json::to_string(spec).expect("spec serializes"));
        text.push('\n');
    }
    fnv1a(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_seeds_are_pinned() {
        // Changing the derivation silently changes every workload's inputs
        // and invalidates comparisons with earlier runs.
        let seeds = [
            job_seed(7, "ising(J=0.25)", 0),
            job_seed(7, "H6(l=1.0)", 3),
            job_seed(7, "suite12", 11),
        ];
        assert_eq!(
            seeds,
            [
                11143983277835770097,
                8664563613382230542,
                554245605114014577
            ]
        );
    }

    #[test]
    fn spec_lists_are_pinned() {
        let ising: Vec<JobSpec> = (0..4).map(|i| loop_spec("ising(J=0.25)", 7, i)).collect();
        let hashes = [spec_list_hash(&ising), spec_list_hash(&suite_specs(7))];
        assert_eq!(hashes, [17605140142922011428, 3657688216865700086]);
    }

    #[test]
    fn seeds_differ_across_jobs_streams_and_runs() {
        let mut seen = std::collections::HashSet::new();
        for workload_seed in 0..4 {
            for stream in ["ising(J=0.25)", "H6(l=1.0)", "suite12"] {
                for index in 0..32 {
                    assert!(seen.insert(job_seed(workload_seed, stream, index)));
                }
            }
        }
    }

    #[test]
    fn derived_specs_validate_with_the_suite_shape() {
        for spec in suite_specs(1) {
            let job = spec.validate().expect("suite spec validates");
            assert_eq!(job.hamiltonian.num_qubits(), QUBITS);
            assert_eq!(spec.methods, vec![MethodSpec::Clapton]);
        }
        assert_eq!(suite_specs(9), suite_specs(9), "same seed, same specs");
        assert_ne!(suite_specs(9), suite_specs(10));
    }
}
