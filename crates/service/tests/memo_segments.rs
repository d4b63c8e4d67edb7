//! The on-disk checkpoint format: after every round a job writes that
//! round's memo segment (`memo-NNNNN.seg`) and then a small
//! `checkpoint.json` without the memo. Resume replays the segments; a torn,
//! corrupt or missing segment, or a checkpoint from an earlier build with
//! its memo inline, costs rounds but never changes the report's bytes.
//!
//! Every test here writes artifacts and holds `failpoint::tests_exclusive()`:
//! failpoint hit counters are process-global, so an ungated writer in this
//! binary would use up the torn-segment test's scheduled hit.

use clapton_error::ClaptonError;
use clapton_ga::{EngineState, MultiGaConfig};
use clapton_runtime::{failpoint, CancelToken, EventKind, RunDirectory, WorkerPool};
use clapton_service::{
    ClaptonService, EngineSpec, JobSpec, NoiseSpec, ProblemSpec, SuiteProblem, UniformNoise,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "clapton-memo-seg-test-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn quick_spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(ProblemSpec::Suite(SuiteProblem {
        name: "ising(J=0.50)".to_string(),
        qubits: 4,
    }));
    spec.engine = EngineSpec::Quick;
    spec.noise = NoiseSpec::Uniform(UniformNoise {
        p1: 1e-3,
        p2: 1e-2,
        readout: 2e-2,
        t1: None,
    });
    spec.seed = seed;
    spec
}

/// [`quick_spec`] with the retry limit lifted: it runs all eight rounds.
fn eight_round_spec(seed: u64) -> JobSpec {
    let mut engine = MultiGaConfig::quick();
    engine.max_retry_rounds = engine.max_rounds;
    let mut spec = quick_spec(seed);
    spec.engine = EngineSpec::Custom(engine);
    spec
}

fn service(root: &Path) -> ClaptonService {
    ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(2)))
        .with_artifacts(root)
        .unwrap()
}

fn job_dir(root: &Path, seed: u64) -> PathBuf {
    root.join(format!("ising-J-0.50-seed{seed}"))
}

/// The report bytes of an uninterrupted run of `spec`.
fn reference_report(spec: &JobSpec) -> Vec<u8> {
    let seed = spec.seed;
    let root = scratch(&format!("ref-{seed}"));
    service(&root).run(spec.clone()).unwrap();
    let bytes = fs::read(job_dir(&root, seed).join("report.json")).unwrap();
    let _ = fs::remove_dir_all(&root);
    bytes
}

/// Runs `spec` to its end and returns the result plus the rounds it
/// checkpointed, in order.
fn run_collecting_rounds(
    svc: &ClaptonService,
    spec: JobSpec,
) -> (Result<clapton_service::Report, ClaptonError>, Vec<usize>) {
    let admitted = svc.admit(spec).unwrap();
    let (tx, rx) = mpsc::channel();
    let result = svc.execute_admitted(&admitted, Some(tx), CancelToken::new());
    let rounds = rx
        .try_iter()
        .filter_map(|event| match event.kind {
            EventKind::Checkpointed(round) => Some(round),
            _ => None,
        })
        .collect();
    (result, rounds)
}

/// Suspends the job after one more round.
fn bank_one_round(svc: &ClaptonService, spec: &JobSpec) {
    let mut spec = spec.clone();
    spec.budget = Some(1);
    match svc.run(spec) {
        Err(ClaptonError::Suspended { .. }) => {}
        other => panic!("expected a one-round suspension, got {other:?}"),
    }
}

fn checkpoint_round(dir: &Path) -> usize {
    RunDirectory::create(dir)
        .unwrap()
        .load::<EngineState>("checkpoint.json")
        .unwrap()
        .valid()
        .expect("checkpoint present")
        .rounds()
}

fn names_starting_with(dir: &Path, prefix: &str) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(prefix))
        .collect();
    names.sort();
    names
}

#[test]
fn checkpoints_stay_small_while_segments_carry_the_memo() {
    let _gate = failpoint::tests_exclusive();
    let root = scratch("small");
    let svc = service(&root);
    let spec = eight_round_spec(41);
    let dir = job_dir(&root, 41);
    let mut sizes = Vec::new();
    for _ in 0..3 {
        bank_one_round(&svc, &spec);
        sizes.push(fs::metadata(dir.join("checkpoint.json")).unwrap().len());
    }
    assert_eq!(checkpoint_round(&dir), 3);
    assert!(
        sizes[2] as f64 <= 1.1 * sizes[0] as f64,
        "checkpoint.json grew from {} to {} bytes over two rounds",
        sizes[0],
        sizes[2]
    );
    let state: EngineState = RunDirectory::create(&dir)
        .unwrap()
        .load("checkpoint.json")
        .unwrap()
        .valid()
        .unwrap();
    assert!(state.cache_entries.is_empty(), "the memo is not inline");
    assert_eq!(
        names_starting_with(&dir, "memo-"),
        ["memo-00000.seg", "memo-00001.seg", "memo-00002.seg"]
    );
    // Resuming replays the segments; the report matches an uninterrupted run.
    svc.run(spec.clone()).unwrap();
    assert_eq!(
        fs::read(dir.join("report.json")).unwrap(),
        reference_report(&spec)
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn torn_segment_fails_the_job_before_its_checkpoint() {
    let _gate = failpoint::tests_exclusive();
    let root = scratch("torn");
    let svc = service(&root);
    let dir = job_dir(&root, 43);
    bank_one_round(&svc, &quick_spec(43));
    // The resubmission's first sealed write is round 2's segment.
    failpoint::configure("registry.write.flush=torn@1").unwrap();
    let (torn, rounds) = run_collecting_rounds(&svc, quick_spec(43));
    failpoint::clear();
    assert!(
        matches!(torn, Err(ClaptonError::Io(_))),
        "a segment that does not verify fails the job: {torn:?}"
    );
    assert!(rounds.is_empty(), "no round checkpointed: {rounds:?}");
    assert_eq!(checkpoint_round(&dir), 1, "round 2's checkpoint skipped");
    assert!(!dir.join("memo-00001.seg").exists());
    assert_eq!(
        names_starting_with(&dir, "memo-00001.seg.corrupt-").len(),
        1
    );

    let (report, rounds) = run_collecting_rounds(&svc, quick_spec(43));
    report.unwrap();
    assert_eq!(rounds.first(), Some(&2), "resumed from round 1");
    assert_eq!(
        fs::read(dir.join("report.json")).unwrap(),
        reference_report(&quick_spec(43))
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn corrupt_older_segment_restarts_from_round_zero() {
    let _gate = failpoint::tests_exclusive();
    let root = scratch("older");
    let svc = service(&root);
    let dir = job_dir(&root, 47);
    bank_one_round(&svc, &quick_spec(47));
    bank_one_round(&svc, &quick_spec(47));
    assert_eq!(checkpoint_round(&dir), 2);
    // Both checkpoints need round 1's segment.
    let segment = dir.join("memo-00000.seg");
    let mut bytes = fs::read(&segment).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    fs::write(&segment, bytes).unwrap();

    let (report, rounds) = run_collecting_rounds(&svc, quick_spec(47));
    report.unwrap();
    assert_eq!(rounds.first(), Some(&1), "restarted from round 0");
    assert_eq!(
        names_starting_with(&dir, "memo-00000.seg.corrupt-").len(),
        1
    );
    assert_eq!(
        fs::read(dir.join("report.json")).unwrap(),
        reference_report(&quick_spec(47))
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn checkpoint_with_inline_memo_restarts_from_round_zero() {
    let _gate = failpoint::tests_exclusive();
    let root = scratch("inline");
    let spec = quick_spec(53);
    let job = spec.validate().unwrap();
    // The state earlier builds checkpointed: two stepped rounds with the
    // memo inline, written by the rotating writer, and no segments.
    let pool = Arc::new(WorkerPool::with_workers(0));
    let mut rounds_left = 2;
    let (state, _) = clapton_core::run_clapton_resumable(
        &job.hamiltonian,
        &job.exec,
        &job.config,
        &pool,
        None,
        &mut |_, _| {
            rounds_left -= 1;
            rounds_left > 0
        },
    );
    assert_eq!(state.rounds(), 2);
    assert!(!state.cache_entries.is_empty());
    let svc = service(&root);
    svc.admit(spec.clone()).unwrap();
    let dir = job_dir(&root, 53);
    let run_dir = RunDirectory::create(&dir).unwrap();
    run_dir
        .write_json_rotating("checkpoint.json", "checkpoint.prev.json", &state)
        .unwrap();

    let (report, rounds) = run_collecting_rounds(&svc, spec);
    report.unwrap();
    assert_eq!(rounds.first(), Some(&1), "restarted from round 0");
    assert_eq!(
        fs::read(dir.join("report.json")).unwrap(),
        reference_report(&quick_spec(53))
    );
    let _ = fs::remove_dir_all(&root);
}
