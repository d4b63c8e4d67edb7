//! Seeded chaos schedules over the persistence failpoints.
//!
//! One integer seed expands into a reproducible fault schedule — torn
//! artifact writes, failed renames, lost claim races, dropped heartbeats,
//! optionally process aborts — via `StdRng`, so a chaos run that trips a bug
//! is replayed exactly by rerunning the same seed. [`run_chaos_suite`]
//! drives a sharded suite to completion *under* such a schedule and returns
//! the merged manifest; the chaos tests (and the CI `chaos-smoke` step)
//! assert it is byte-identical to the fault-free reference, turning the
//! determinism contract ("reproduces identically after any interruption")
//! into a property that is searched seed by seed, not sampled by hand-placed
//! kills.

use crate::shard::{
    merge_shards, run_shard_worker, write_queue, MergedManifest, ShardWorkerConfig,
};
use clapton_error::ClaptonError;
use clapton_runtime::failpoint::{self, FailAction, FailRule};
use clapton_runtime::WorkerPool;
use clapton_service::JobSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Expands `seed` into a deterministic fault schedule over the persistence
/// failpoints. Every rule fires on *finite* hit indices, so any run
/// eventually outlives its schedule — injected faults delay completion,
/// they cannot prevent it.
///
/// With `allow_abort` the schedule may include one process abort (for
/// chaos runs whose workers are child processes, like `suite-runner
/// --chaos-seed`); in-process chaos must pass `false`.
pub fn chaos_schedule(seed: u64, allow_abort: bool) -> Vec<FailRule> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a0_5c4a_0c4a_05c4);
    let mut rules = Vec::new();
    let hits = |rng: &mut StdRng, max_hit: u64, max_count: usize| -> Vec<u64> {
        let count = rng.gen_range(1..=max_count);
        let mut at: Vec<u64> = (0..count).map(|_| rng.gen_range(1..=max_hit)).collect();
        at.sort_unstable();
        at.dedup();
        at
    };
    // Torn or failed artifact writes: checkpoints, reports, specs.
    if rng.gen_bool(0.9) {
        let action = if rng.gen_bool(0.6) {
            FailAction::Torn(None)
        } else {
            FailAction::Err
        };
        rules.push(FailRule::at(
            "registry.write.flush",
            action,
            &hits(&mut rng, 60, 4),
        ));
    }
    // Renames that never happen (crash between tmp write and commit).
    if rng.gen_bool(0.5) {
        rules.push(FailRule::at(
            "registry.write.rename",
            FailAction::Err,
            &hits(&mut rng, 60, 3),
        ));
    }
    // Lost claim races.
    if rng.gen_bool(0.5) {
        rules.push(FailRule::at(
            "workqueue.claim.hardlink",
            FailAction::Err,
            &hits(&mut rng, 16, 2),
        ));
    }
    // Dropped heartbeats: the owner stands down mid-job and the job is
    // resumed from its checkpoint (by a peer, or by the next sweep).
    if rng.gen_bool(0.5) {
        rules.push(FailRule::at(
            "workqueue.heartbeat",
            FailAction::Err,
            &hits(&mut rng, 24, 2),
        ));
    }
    // Failed queue-record persists (server submissions).
    if rng.gen_bool(0.3) {
        rules.push(FailRule::at(
            "server.queue.persist",
            FailAction::Err,
            &hits(&mut rng, 4, 1),
        ));
    }
    if allow_abort && rng.gen_bool(0.5) {
        rules.push(FailRule::at(
            "registry.write.flush",
            FailAction::Abort,
            &[rng.gen_range(20..=80)],
        ));
    }
    if rules.is_empty() {
        // A seed that sampled nothing still injects *something* — an empty
        // schedule would silently degrade the chaos run to a plain run.
        rules.push(FailRule::at(
            "registry.write.flush",
            FailAction::Torn(None),
            &hits(&mut rng, 40, 2),
        ));
    }
    rules
}

/// Renders a schedule as a `CLAPTON_FAILPOINTS` spec string (the form the
/// `suite-runner` parent passes to its worker children).
pub fn schedule_spec(rules: &[FailRule]) -> String {
    rules
        .iter()
        .map(FailRule::to_spec)
        .collect::<Vec<_>>()
        .join(";")
}

/// Outcome of one in-process chaos run.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The merged manifest the run converged to.
    pub manifest: MergedManifest,
    /// Worker sweeps it took to drain the queue under fault injection (1 =
    /// the schedule never interrupted a sweep).
    pub sweeps: usize,
}

/// Runs the given suite as a shard run at `root` *under* the fault schedule
/// for `seed`, sweeping until every job completes, then disarms the
/// failpoints and merges. The returned manifest must be byte-identical to a
/// fault-free run's — that is the property the chaos tests assert.
///
/// In-process: the schedule is installed via [`failpoint::install`] (no
/// aborts — this process is the test), so callers must hold
/// [`failpoint::tests_exclusive`] when running under `cargo test`.
///
/// # Errors
///
/// Spec/IO errors from queue setup or the final merge, or a run that failed
/// to converge within the sweep budget (faults are finite, so this means a
/// real recovery bug).
pub fn run_chaos_suite(
    root: &Path,
    specs: &[JobSpec],
    seed: u64,
    pool_workers: usize,
) -> Result<ChaosOutcome, ClaptonError> {
    write_queue(root, specs)?;
    failpoint::install(chaos_schedule(seed, false));
    // The armed schedule lifts the service's retry bound: injected faults
    // are finite, so retrying always converges.
    let config = ShardWorkerConfig {
        worker_id: Some(format!("chaos-{seed}")),
        poll: Duration::from_millis(10),
        ..ShardWorkerConfig::default()
    };
    let mut sweeps = 0;
    const SWEEP_BUDGET: usize = 64;
    let complete = loop {
        sweeps += 1;
        let pool = Arc::new(WorkerPool::with_workers(pool_workers));
        // A sweep may itself die of an injected fault (e.g. during admit);
        // the next sweep resumes from whatever checkpoints survived.
        match run_shard_worker(root, pool, None, &config) {
            Ok(outcome) if outcome.is_complete() => break true,
            Ok(_) | Err(_) => {}
        }
        if sweeps >= SWEEP_BUDGET {
            break false;
        }
    };
    failpoint::clear();
    if !complete {
        return Err(ClaptonError::JobAborted {
            job: format!("chaos suite (seed {seed})"),
            detail: format!("queue did not drain within {SWEEP_BUDGET} sweeps"),
        });
    }
    let manifest = merge_shards(root, specs)?;
    Ok(ChaosOutcome { manifest, sweeps })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seed_deterministic_and_finite() {
        let a = chaos_schedule(42, true);
        let b = chaos_schedule(42, true);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(!a.is_empty());
        let c = chaos_schedule(43, true);
        assert_ne!(
            schedule_spec(&a),
            schedule_spec(&c),
            "different seeds diverge"
        );
        // Every emitted spec parses back through the env grammar.
        for seed in 0..32 {
            let rules = chaos_schedule(seed, seed % 2 == 0);
            let spec = schedule_spec(&rules);
            let _gate = failpoint::tests_exclusive();
            failpoint::configure(&spec).unwrap_or_else(|e| panic!("seed {seed}: {e} ({spec})"));
            failpoint::clear();
            // Finite: no rule may fire on every hit.
            assert!(
                !spec.contains("@*"),
                "seed {seed} emitted an unbounded rule"
            );
        }
    }
}
