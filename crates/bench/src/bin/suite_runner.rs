//! `suite-runner` — the checkpointed benchmark-suite runner.
//!
//! Executes the paper's benchmark suite (12 instances at `N = 10`), or any
//! `JobSpec` list, through the `ClaptonService` job body, checkpointing
//! every GA round atomically into a run directory. Kill it at any instant
//! (or bound it with `--halt-after-rounds`) and re-run the same command
//! line: finished jobs are answered from their reports, interrupted jobs
//! resume from their last round snapshot, and the merged
//! `suite_manifest.json` is byte-identical to an uninterrupted run.
//!
//! ```text
//! suite-runner [--quick|--full] [--seed N] [--qubits N]
//!              [--registry DIR] [--run NAME] [--halt-after-rounds N]
//!              [--pool-workers N] [--quiet] [--list]
//!              [--specs FILE] [--emit-specs FILE]
//!              [--workers N] [--join DIR] [--status] [--merge]
//!              [--lease-ttl SECS] [--worker-id ID] [--chaos-seed N]
//!              [--cache-dir DIR] [--no-persistent-cache]
//! ```
//!
//! Every run takes the same three steps:
//!
//! 1. **Queue.** The spec list — the built-in suite (`--quick`/`--full`,
//!    `--seed`, `--qubits`) or a JSON array of `JobSpec`s (`--specs FILE`,
//!    as written by `--emit-specs`) — is recorded as the run directory's
//!    `queue.json`. A run directory holds one suite: re-running it with a
//!    different spec list (round budgets aside) exits with status 2.
//!    Without `--run`, the built-in suite runs in
//!    `<profile>-n<qubits>-seed<seed>` and a spec file in
//!    `<file stem>-<FNV-1a 64 of its specs>`, so each list gets its own
//!    directory and the same command line resumes it.
//! 2. **Execute.** By default one process runs every job concurrently on
//!    one pool of `--pool-workers` threads (`ClaptonService::run_all`).
//!    With `--workers N`, `N` child *processes* sweep the queue instead,
//!    claiming jobs through `claim.json` leases; any external process — on
//!    this host or another sharing the filesystem — can attach with
//!    `--join DIR`. Workers SIGKILLed mid-job are survived: their leases go
//!    stale after `--lease-ttl` seconds and a peer resumes the job from its
//!    checkpoint. `--chaos-seed N` arms each worker child with a seeded
//!    fault schedule (torn writes, failed renames, lost claims, dropped
//!    heartbeats, even a process abort) via `CLAPTON_FAILPOINTS`.
//!    Either way each job writes `spec.json`, round checkpoints and
//!    `report.json` into its own subdirectory, and `--halt-after-rounds N`
//!    gives each job an `N`-round budget for this invocation.
//! 3. **Merge.** The per-job reports fold into `suite_manifest.json`,
//!    ordered by job id and byte-identical however the jobs were executed.
//!    `--merge` re-folds it without running anything.
//!
//! Jobs are claimed under a per-process worker id (`--worker-id` overrides
//! it), so the leases of a SIGKILLed run stay live for `--lease-ttl`
//! seconds (default 30): a single-process re-run inside that window reports
//! those jobs as leased (exit status 2) and resumes them once the leases
//! are stale, while `--workers` children wait and take them over.
//!
//! `--status` prints who holds what per job; `--list` summarizes every run
//! in the registry. Both admit each queued spec to read its state, so they
//! create any job directory (and its `spec.json`) not yet written.
//! `--join`, `--status` and `--merge` read the spec list from `queue.json`
//! alone and exit with status 2 when it is missing or corrupt: `queue.json`
//! carries the artifact envelope, so a spec list of your own is recorded
//! with `--specs FILE`, never written by hand.
//!
//! Runs answer repeat work from the persistent report store at
//! `--cache-dir` (default: `.cache` inside the run directory): every
//! completed job stores its report there, and an already-solved spec is
//! answered from it without reaching the pool or changing a byte of any
//! artifact. `--no-persistent-cache` pins the cold path. Each executing
//! process prints a `clapton_cache_hits_total=…` line on exit; see
//! `docs/CACHING.md`.
//!
//! See `docs/DISTRIBUTED.md` for the queue layout and lease protocol.

use clapton_bench::{
    chaos_schedule, merge_shards, read_queue, run_shard_worker, schedule_spec, shard_status,
    write_queue, MergedManifest, Options, ShardOutcome, ShardWorkerConfig, SuiteConfig,
    MERGED_MANIFEST_ARTIFACT,
};
use clapton_error::ClaptonError;
use clapton_runtime::{artifact_slug, EventKind, RunEvent, RunRegistry, WorkerPool};
use clapton_service::{CacheConfig, CacheStore, ClaptonService, JobSpec, CACHE_DIR_NAME};
use clapton_telemetry::fnv1a64;
use std::path::Path;
use std::process::ExitCode;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    options: Options,
    qubits: usize,
    /// Shard worker *processes* (`None` → single-process run).
    workers: Option<usize>,
    /// Worker-pool threads per process.
    pool_workers: usize,
    registry: String,
    run_name: Option<String>,
    halt_after_rounds: Option<u64>,
    quiet: bool,
    list: bool,
    specs: Option<String>,
    emit_specs: Option<String>,
    join: Option<String>,
    status: bool,
    merge: bool,
    lease_ttl: Duration,
    worker_id: Option<String>,
    /// Arm each shard worker child with the fault schedule for this seed.
    chaos_seed: Option<u64>,
    /// Persistent-store location override (`None` → `.cache` inside the run
    /// directory).
    cache_dir: Option<String>,
    /// Run every job cold: no persistent store is opened or written.
    no_cache: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        options: Options { effort: 1, seed: 0 },
        qubits: 10,
        workers: None,
        pool_workers: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        registry: "suite-runs".to_string(),
        run_name: None,
        halt_after_rounds: None,
        quiet: false,
        list: false,
        specs: None,
        emit_specs: None,
        join: None,
        status: false,
        merge: false,
        lease_ttl: clapton_runtime::DEFAULT_LEASE_TTL,
        worker_id: None,
        chaos_seed: None,
        cache_dir: None,
        no_cache: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs an argument"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => args.options.effort = 0,
            "--full" => args.options.effort = 2,
            "--seed" => {
                args.options.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--qubits" => {
                args.qubits = value(&mut i, "--qubits")?
                    .parse()
                    .map_err(|e| format!("--qubits: {e}"))?;
            }
            "--workers" => {
                args.workers = Some(
                    value(&mut i, "--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                );
            }
            "--pool-workers" => {
                args.pool_workers = value(&mut i, "--pool-workers")?
                    .parse()
                    .map_err(|e| format!("--pool-workers: {e}"))?;
            }
            "--registry" => args.registry = value(&mut i, "--registry")?,
            "--run" => args.run_name = Some(value(&mut i, "--run")?),
            "--halt-after-rounds" => {
                args.halt_after_rounds = Some(
                    value(&mut i, "--halt-after-rounds")?
                        .parse()
                        .map_err(|e| format!("--halt-after-rounds: {e}"))?,
                );
            }
            "--quiet" => args.quiet = true,
            "--list" => args.list = true,
            "--specs" => args.specs = Some(value(&mut i, "--specs")?),
            "--emit-specs" => args.emit_specs = Some(value(&mut i, "--emit-specs")?),
            "--join" => args.join = Some(value(&mut i, "--join")?),
            "--status" => args.status = true,
            "--merge" => args.merge = true,
            "--lease-ttl" => {
                let secs: f64 = value(&mut i, "--lease-ttl")?
                    .parse()
                    .map_err(|e| format!("--lease-ttl: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--lease-ttl must be positive".to_string());
                }
                args.lease_ttl = Duration::from_secs_f64(secs);
            }
            "--worker-id" => args.worker_id = Some(value(&mut i, "--worker-id")?),
            "--chaos-seed" => {
                args.chaos_seed = Some(
                    value(&mut i, "--chaos-seed")?
                        .parse()
                        .map_err(|e| format!("--chaos-seed: {e}"))?,
                );
            }
            "--cache-dir" => args.cache_dir = Some(value(&mut i, "--cache-dir")?),
            "--no-persistent-cache" => args.no_cache = true,
            other => {
                return Err(format!(
                    "unknown argument {other} (see the module docs for usage)"
                ))
            }
        }
        i += 1;
    }
    if args.workers == Some(0) {
        return Err("--workers needs at least 1 worker process".to_string());
    }
    if args.chaos_seed.is_some() && args.workers.is_none() {
        return Err(
            "--chaos-seed needs --workers (faults are injected into worker children, \
                    never this process)"
                .to_string(),
        );
    }
    if args.no_cache && args.cache_dir.is_some() {
        return Err("--no-persistent-cache and --cache-dir are mutually exclusive".to_string());
    }
    Ok(args)
}

/// Opens the run's persistent result store (unless `--no-persistent-cache`):
/// `--cache-dir` when given, else `.cache` inside the run directory.
fn open_cache(dir: &Path, args: &Args) -> Result<Option<Arc<CacheStore>>, String> {
    if args.no_cache {
        return Ok(None);
    }
    let path = args
        .cache_dir
        .as_ref()
        .map_or_else(|| dir.join(CACHE_DIR_NAME), std::path::PathBuf::from);
    CacheStore::open(&path, CacheConfig::default())
        .map(|store| Some(Arc::new(store)))
        .map_err(|e| format!("cannot open persistent cache at {}: {e}", path.display()))
}

/// The end-of-invocation store summary workers print (CI's warm-cache
/// smoke gates its `entries=`, hit and miss counts).
fn print_cache_summary(cache: Option<&Arc<CacheStore>>) {
    let Some(cache) = cache else { return };
    let stats = cache.stats();
    println!(
        "suite-runner: persistent cache at {}: clapton_cache_hits_total={} \
         clapton_cache_misses_total={} clapton_cache_inserts_total={} \
         entries={} bytes={}",
        cache.path().display(),
        stats.hits,
        stats.misses,
        stats.inserts,
        stats.entries,
        stats.bytes
    );
}

/// Reports a fatal error; exit status 2.
fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("suite-runner: {message}");
    ExitCode::from(2)
}

/// `--list`: every suite run in the registry (a run directory with a
/// `queue.json`) and how many of its jobs are in each state. Counting
/// admits each queued spec, so job directories missing their `spec.json`
/// are prepared; a run that cannot be counted is reported and skipped.
fn list_runs(registry: &RunRegistry, lease_ttl: Duration) -> Result<(), ClaptonError> {
    const STATES: [&str; 5] = ["done", "in-flight", "fresh", "failed", "cancelled"];
    let header = STATES.map(|state| format!("{state:>10}"));
    println!("{:<28} {:>6}{}", "run", "jobs", header.join(""));
    for name in registry.run_names()? {
        let dir = registry.path().join(&name);
        let specs = match read_queue(&dir) {
            Ok(specs) => specs,
            Err(ClaptonError::Io(e)) => return Err(e.into()),
            Err(_) => continue, // not a suite run, or its queue is corrupt
        };
        match shard_status(&dir, &specs, lease_ttl) {
            Ok(rows) => {
                let counts = STATES.map(|state| {
                    format!("{:>10}", rows.iter().filter(|r| r.state == state).count())
                });
                println!("{name:<28} {:>6}{}", rows.len(), counts.join(""));
            }
            Err(e) => println!("{name:<28} cannot be listed: {e}"),
        }
    }
    Ok(())
}

/// The spec list this invocation asks for: `--specs FILE`, else the
/// built-in suite.
fn requested_specs(args: &Args, config: &SuiteConfig) -> Result<Vec<JobSpec>, String> {
    let Some(path) = &args.specs else {
        return Ok(config.specs());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} is not a JSON array of job specs: {e}"))
}

/// The run directory name when `--run` is absent. The built-in suite is
/// named by effort, register size and seed; a `--specs FILE` list by the
/// file stem plus the FNV-1a 64 of its specs with budgets cleared, so
/// different lists get different directories and the same list resumes.
fn default_run_name(args: &Args, config: &SuiteConfig, specs: &[JobSpec]) -> String {
    let Some(path) = &args.specs else {
        return format!(
            "{}-n{}-seed{}",
            config.profile(),
            args.qubits,
            args.options.seed
        );
    };
    let identities: Vec<JobSpec> = specs.iter().map(JobSpec::identity).collect();
    let json = serde_json::to_string(&identities).expect("specs serialize");
    let stem = Path::new(path).file_stem().unwrap_or_default();
    let stem = artifact_slug(&stem.to_string_lossy());
    format!("{stem}-{:016x}", fnv1a64(json.as_bytes()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => return fail(message),
    };
    // Arms this process when a chaos parent handed us a schedule (worker
    // children of `--chaos-seed` see it via CLAPTON_FAILPOINTS).
    if let Err(e) = clapton_runtime::failpoint::configure_from_env() {
        return fail(format!("bad CLAPTON_FAILPOINTS: {e}"));
    }
    let config = SuiteConfig {
        options: args.options,
        qubits: args.qubits,
    };
    // Worker mode: attach to an existing queue and sweep it. The queue
    // directory is given directly — no registry resolution — so any
    // process on any host sharing the filesystem can join.
    if let Some(join) = &args.join {
        let dir = Path::new(join);
        return if args.status {
            status_mode(dir, &args)
        } else if args.merge {
            merge_mode(dir)
        } else {
            join_mode(dir, &args)
        };
    }
    let registry = match RunRegistry::open(&args.registry) {
        Ok(registry) => registry,
        Err(e) => return fail(format!("cannot open registry {}: {e}", args.registry)),
    };
    if args.list {
        return match list_runs(&registry, args.lease_ttl) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(e),
        };
    }
    if let Some(path) = &args.emit_specs {
        let specs = config.specs();
        let json = serde_json::to_string_pretty(&specs).expect("specs serialize");
        if let Err(e) = std::fs::write(path, json) {
            return fail(format!("cannot write {path}: {e}"));
        }
        println!(
            "suite-runner: wrote {} job specs to {path} (run them with --specs {path})",
            specs.len()
        );
        return ExitCode::SUCCESS;
    }
    let requested = requested_specs(&args, &config);
    let run_name = match (&args.run_name, &requested) {
        (Some(name), _) => name.clone(),
        (None, Ok(specs)) => default_run_name(&args, &config, specs),
        (None, Err(message)) => return fail(message),
    };
    let dir = match registry.run(&run_name) {
        Ok(dir) => dir,
        Err(e) => return fail(format!("cannot open run {run_name}: {e}")),
    };
    let dir = dir.path();
    if args.status {
        return status_mode(dir, &args);
    }
    if args.merge {
        return merge_mode(dir);
    }
    // Step 1: record the spec list as the run's queue (refusing a run
    // directory that already holds a different suite).
    let specs = match requested {
        Ok(specs) => specs,
        Err(message) => return fail(message),
    };
    if let Err(e) = write_queue(dir, &specs) {
        return fail(e);
    }
    // Steps 2 and 3: execute, then merge.
    let started = Instant::now();
    let merged = match args.workers {
        Some(workers) => shard_parent_mode(dir, workers, &specs, &args),
        None => in_process_mode(dir, &specs, &args),
    };
    let merged = match merged {
        Ok(merged) => merged,
        Err(code) => return code,
    };
    let pending = merged.jobs.len() - merged.completed();
    println!(
        "suite-runner: {} of {} jobs complete in {:.2?}{} — merged manifest at {}",
        merged.completed(),
        merged.jobs.len(),
        started.elapsed(),
        if pending > 0 && args.halt_after_rounds.is_some() {
            format!(" ({pending} suspended; re-run the same command to resume)")
        } else {
            String::new()
        },
        dir.join(MERGED_MANIFEST_ARTIFACT).display()
    );
    if merged.is_complete() || args.halt_after_rounds.is_some() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The single-process run: every queued job executes concurrently on one
/// pool through `ClaptonService::run_all`, so the jobs' population batches
/// interleave instead of running back to back; then the results merge.
fn in_process_mode(dir: &Path, specs: &[JobSpec], args: &Args) -> Result<MergedManifest, ExitCode> {
    let cache = open_cache(dir, args).map_err(fail)?;
    println!(
        "suite-runner: running {} jobs on {} pool workers → {}",
        specs.len(),
        args.pool_workers,
        dir.display()
    );
    let pool = Arc::new(WorkerPool::with_workers(args.pool_workers));
    let mut service = ClaptonService::with_pool(pool)
        .with_artifacts(dir)
        .map_err(fail)?
        .with_lease_ttl(args.lease_ttl);
    if let Some(worker_id) = &args.worker_id {
        service = service.with_worker_id(worker_id.clone());
    }
    if let Some(cache) = &cache {
        service = service.with_cache(Arc::clone(cache));
    }
    let budgeted = specs
        .iter()
        .map(|spec| JobSpec {
            budget: args.halt_after_rounds.or(spec.budget),
            ..spec.clone()
        })
        .collect();
    let (tx, printer) = spawn_printer(args.quiet);
    let results = service.run_all(budgeted, Some(tx));
    printer.join().expect("printer thread");
    let mut failed = false;
    for (spec, result) in specs.iter().zip(results.map_err(fail)?) {
        match result {
            Ok(_) | Err(ClaptonError::Suspended { .. }) => {}
            Err(e) => {
                failed = true;
                eprintln!("[{}] failed: {e}", spec.display_name());
            }
        }
    }
    print_cache_summary(cache.as_ref());
    let merged = merge_shards(dir, specs).map_err(|e| fail(format!("merge failed: {e}")))?;
    if failed {
        return Err(ExitCode::from(2));
    }
    Ok(merged)
}

/// The `--workers N` parent: fork N `--join` children over the queue,
/// survive child deaths, and merge when the queue drains.
fn shard_parent_mode(
    dir: &Path,
    workers: usize,
    specs: &[JobSpec],
    args: &Args,
) -> Result<MergedManifest, ExitCode> {
    let exe = std::env::current_exe()
        .map_err(|e| fail(format!("cannot locate own binary to fork workers: {e}")))?;
    println!(
        "suite-runner: sharding {} jobs across {workers} worker processes \
         (lease TTL {:.1?}) → {}",
        specs.len(),
        args.lease_ttl,
        dir.display()
    );
    let mut children = Vec::with_capacity(workers);
    for index in 0..workers {
        let mut command = std::process::Command::new(&exe);
        command
            .arg("--join")
            .arg(dir)
            .arg("--lease-ttl")
            .arg(format!("{}", args.lease_ttl.as_secs_f64()))
            .arg("--pool-workers")
            .arg(args.pool_workers.to_string());
        if let Some(budget) = args.halt_after_rounds {
            command.arg("--halt-after-rounds").arg(budget.to_string());
        }
        if args.quiet {
            command.arg("--quiet");
        }
        if args.no_cache {
            command.arg("--no-persistent-cache");
        }
        if let Some(cache_dir) = &args.cache_dir {
            command.arg("--cache-dir").arg(cache_dir);
        }
        if let Some(seed) = args.chaos_seed {
            // Each child gets its own schedule (seed + index), aborts
            // allowed: a dead child's lease goes stale and a peer (or the
            // parent's inline sweep) resumes from the checkpoint. This
            // process stays unarmed — the merge must not be perturbed.
            let rules = chaos_schedule(seed.wrapping_add(index as u64), true);
            command.env(
                clapton_runtime::failpoint::FAILPOINTS_ENV,
                schedule_spec(&rules),
            );
        }
        let child = command
            .spawn()
            .map_err(|e| fail(format!("cannot spawn worker {index}: {e}")))?;
        children.push((index, child));
    }
    let mut died = 0usize;
    for (index, mut child) in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                died += 1;
                eprintln!("suite-runner: worker {index} exited with {status} (queue survives it)");
            }
            Err(e) => {
                died += 1;
                eprintln!("suite-runner: waiting for worker {index}: {e}");
            }
        }
    }
    println!("suite-runner: {died} worker deaths survived");
    let merge = || merge_shards(dir, specs).map_err(|e| fail(format!("merge failed: {e}")));
    let merged = merge()?;
    if merged.is_complete() || args.halt_after_rounds.is_some() {
        return Ok(merged);
    }
    // Dead workers are tolerated by design — the queue outlives any of
    // them — but if *every* worker died the sweep may be incomplete, so
    // finish it inline before merging.
    eprintln!(
        "suite-runner: {} of {} jobs unfinished after all workers exited; \
         finishing the sweep inline",
        merged.jobs.len() - merged.completed(),
        merged.jobs.len()
    );
    let cache = open_cache(dir, args).map_err(fail)?;
    sweep(dir, args, cache).map_err(|e| fail(format!("inline sweep failed: {e}")))?;
    merge()
}

/// Sweeps the queue at `dir` in this process with [`run_shard_worker`]
/// until nothing is left to do.
fn sweep(
    dir: &Path,
    args: &Args,
    cache: Option<Arc<CacheStore>>,
) -> Result<ShardOutcome, ClaptonError> {
    let shard_config = ShardWorkerConfig {
        worker_id: args.worker_id.clone(),
        lease_ttl: args.lease_ttl,
        halt_after_rounds: args.halt_after_rounds,
        cache,
        ..ShardWorkerConfig::default()
    };
    let pool = Arc::new(WorkerPool::with_workers(args.pool_workers));
    let (tx, printer) = spawn_printer(args.quiet);
    let outcome = run_shard_worker(dir, pool, Some(tx), &shard_config);
    printer.join().expect("printer thread");
    outcome
}

/// The spec list recorded in the run's `queue.json`. `--join`, `--status`
/// and `--merge` act on that list only: a run whose queue is missing or
/// corrupt (a hand-written one included) is refused rather than guessed,
/// and the message names the command that records the list.
fn queued_specs(dir: &Path) -> Result<Vec<JobSpec>, String> {
    read_queue(dir).map_err(|e| match e {
        ClaptonError::Io(_) => e.to_string(),
        _ => format!(
            "{e}\nrecord the run's spec list with `suite-runner --specs FILE --registry {} --run {}`",
            dir.parent().unwrap_or(Path::new(".")).display(),
            dir.file_name().unwrap_or_default().to_string_lossy()
        ),
    })
}

/// The `--join DIR` worker: sweep an existing queue until nothing is left
/// to do.
fn join_mode(dir: &Path, args: &Args) -> ExitCode {
    if let Err(message) = queued_specs(dir) {
        return fail(message);
    }
    let cache = match open_cache(dir, args) {
        Ok(cache) => cache,
        Err(message) => return fail(message),
    };
    let started = Instant::now();
    match sweep(dir, args, cache.clone()) {
        Ok(outcome) => {
            println!(
                "suite-runner: worker drained the queue in {:.2?} — {} of {} jobs done",
                started.elapsed(),
                outcome.completed(),
                outcome.jobs.len()
            );
            print_cache_summary(cache.as_ref());
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("worker failed: {e}")),
    }
}

/// The `--status` mode: who holds what, per job of the run's `queue.json`.
fn status_mode(dir: &Path, args: &Args) -> ExitCode {
    let specs = match queued_specs(dir) {
        Ok(specs) => specs,
        Err(message) => return fail(message),
    };
    let rows = match shard_status(dir, &specs, args.lease_ttl) {
        Ok(rows) => rows,
        Err(e) => return fail(e),
    };
    println!(
        "{:<34} {:<10} {:<20} {:>12} {:>8} {:>12}",
        "job", "state", "lease owner", "heartbeat", "rounds", "cache hits"
    );
    for row in rows {
        let owner = match (&row.owner, row.stale) {
            (Some(owner), true) => format!("{owner} (stale)"),
            (Some(owner), false) => owner.clone(),
            (None, _) => "-".to_string(),
        };
        let heartbeat = row
            .heartbeat_age_ms
            .map_or_else(|| "-".to_string(), |ms| format!("{ms} ms ago"));
        let rounds = row
            .rounds
            .map_or_else(|| "-".to_string(), |r| r.to_string());
        let cache_hits = row
            .cache_hits
            .map_or_else(|| "-".to_string(), |h| h.to_string());
        println!(
            "{:<34} {:<10} {:<20} {:>12} {:>8} {:>12}",
            row.job, row.state, owner, heartbeat, rounds, cache_hits
        );
    }
    ExitCode::SUCCESS
}

/// The `--merge` mode: re-fold `suite_manifest.json` from the run's
/// `queue.json` without running anything.
fn merge_mode(dir: &Path) -> ExitCode {
    let specs = match queued_specs(dir) {
        Ok(specs) => specs,
        Err(message) => return fail(message),
    };
    match merge_shards(dir, &specs) {
        Ok(merged) => {
            println!(
                "suite-runner: merged {} jobs ({} done) → {}",
                merged.jobs.len(),
                merged.completed(),
                dir.join(MERGED_MANIFEST_ARTIFACT).display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("merge failed: {e}")),
    }
}

/// Streams [`RunEvent`]s to stdout on a dedicated thread; the returned
/// sender feeds it, and joining the handle after the run drains it.
fn spawn_printer(quiet: bool) -> (mpsc::Sender<RunEvent>, std::thread::JoinHandle<()>) {
    let (tx, rx) = mpsc::channel::<RunEvent>();
    let printer = std::thread::spawn(move || {
        for event in rx {
            if quiet {
                continue;
            }
            match event.kind {
                EventKind::Started => println!("[{}] started", event.job),
                EventKind::Round(round, best) => {
                    println!("[{}] round {round}: best {best:.6}", event.job)
                }
                EventKind::Checkpointed(_) => {}
                EventKind::Finished(outcome) => println!("[{}] {outcome}", event.job),
                EventKind::Suspended(rounds) => {
                    println!("[{}] suspended after {rounds} rounds", event.job)
                }
                EventKind::Cancelled(rounds) => {
                    println!("[{}] cancelled after {rounds} rounds", event.job)
                }
            }
        }
    });
    (tx, printer)
}
