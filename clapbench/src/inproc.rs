//! `ising10_quick` and `h6_quick`: a closed loop with one outstanding job
//! through an in-process `ClaptonService` with an artifact root and no
//! persistent store.

use crate::checks::{check_report, init_gap, peak_rss_bytes, report_bytes, settle, wchar_bytes};
use crate::compose::{run_job, TraceLedger};
use crate::specs::{loop_spec, spec_list_hash};
use crate::stats::{mean, median, percentile};
use crate::{Outcome, RunArgs, WORKERS};
use clapton_runtime::{RunRegistry, WorkerPool};
use clapton_service::{ClaptonService, JobArtifactState, JobSpec, Report};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 50;
/// Resubmissions of completed specs per run: enough that at least ten lie
/// beyond the p90.
const WARM_SAMPLES: usize = 120;
/// Service restarts on the populated root per run.
const RESTART_REPS: usize = 5;

/// A service with its own pool and an artifact root at `root`.
fn service(root: &Path) -> Result<ClaptonService, String> {
    ClaptonService::with_pool(Arc::new(WorkerPool::with_workers(WORKERS)))
        .with_artifacts(root)
        .map_err(|e| e.to_string())
}

/// Submits `spec` and checks the report it returns.
fn run_checked(svc: &ClaptonService, spec: &JobSpec) -> Result<Report, String> {
    let report = svc.run(spec.clone()).map_err(|e| e.to_string())?;
    check_report(&report)?;
    Ok(report)
}

/// Resubmits a completed spec the way `clapton-server` answers it at
/// admission: `ClaptonService::admit`, then `inspect` finds the persisted
/// report, and nothing runs.
fn answer_at_admission(svc: &ClaptonService, spec: &JobSpec) -> Result<Report, String> {
    let admitted = svc.admit(spec.clone()).map_err(|e| e.to_string())?;
    match svc.inspect(&admitted).map_err(|e| e.to_string())? {
        JobArtifactState::Done(report) => {
            check_report(&report)?;
            Ok(*report)
        }
        other => Err(format!(
            "{}: resubmission found {other:?}",
            spec.display_name()
        )),
    }
}

/// Runs the workload on `problem`.
pub fn run(problem: &str, args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    if args.trace {
        return run_traced(problem, args, out);
    }
    // Set-up: a fresh service on a fresh root plus resolving the run's
    // problem (`JobSpec::validate`). Admission's durable spec write is left
    // out: its fsync made the median jump between runs.
    settle(&args.scratch)?;
    let first = loop_spec(problem, args.seed, 0);
    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let svc = service(&args.scratch.join(format!("setup-{rep}")))?;
        out.attempt(first.validate().map_err(|e| e.to_string()));
        setups.push(start.elapsed().as_secs_f64());
        drop(svc);
    }

    let root = args.scratch.join("artifacts");
    let mut svc = service(&root)?;
    settle(&args.scratch)?;
    let wchar_before = wchar_bytes("self")?;
    let start = Instant::now();
    let mut specs = Vec::new();
    let mut cold: Vec<(JobSpec, String)> = Vec::new();
    let mut job_s = Vec::new();
    let mut gaps = Vec::new();
    while specs.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let spec = loop_spec(problem, args.seed, specs.len() as u64);
        specs.push(spec.clone());
        let began = Instant::now();
        let result = run_checked(&svc, &spec);
        let took = began.elapsed().as_secs_f64();
        if let Some(report) = out.attempt(result) {
            job_s.push(took);
            gaps.push(init_gap(&report));
            cold.push((spec, report_bytes(&report)));
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let written = wchar_bytes("self")? - wchar_before;
    println!(
        "# workload seed {} · {} specs · spec list fnv1a {:016x}",
        args.seed,
        specs.len(),
        spec_list_hash(&specs)
    );
    if cold.is_empty() {
        return Err("no job completed".to_string());
    }

    settle(&args.scratch)?;
    let mut warm_ms = Vec::new();
    for k in 0..WARM_SAMPLES {
        let (spec, bytes) = &cold[k % cold.len()];
        let began = Instant::now();
        let result = answer_at_admission(&svc, spec);
        let took = began.elapsed().as_secs_f64() * 1e3;
        if let Some(report) = out.attempt(result) {
            warm_ms.push(took);
            if report_bytes(&report) != *bytes {
                out.fail(format!("{}: warm report differs from cold", report.name));
            }
        }
    }

    settle(&args.scratch)?;
    let mut restarts = Vec::new();
    for rep in 0..RESTART_REPS {
        drop(svc);
        let (spec, bytes) = &cold[rep % cold.len()];
        let began = Instant::now();
        svc = service(&root)?;
        let result = answer_at_admission(&svc, spec);
        restarts.push(began.elapsed().as_secs_f64());
        if let Some(report) = out.attempt(result) {
            if report_bytes(&report) != *bytes {
                out.fail(format!("{}: report after restart differs", report.name));
            }
        }
    }
    drop(svc);

    let computed = job_s.len() as f64;
    out.metric("setup_s", median(&setups).unwrap_or(0.0));
    out.metric("job_s_p50", median(&job_s).unwrap_or(0.0));
    out.metric("jobs_per_s", computed / elapsed);
    warm_metrics(&warm_ms, out);
    out.note("restart_s", median(&restarts).unwrap_or(0.0), "s");
    out.note("peak_rss_mb", peak_rss_bytes("self")? as f64 / 1e6, "MB");
    out.metric("write_mb_per_job", written as f64 / computed / 1e6);
    out.metric("init_gap", mean(&gaps).unwrap_or(0.0));
    Ok(())
}

/// The traced run: every job runs once through `ClaptonService::run` and
/// once through the composed, span-recording body; the two reports must be
/// byte-identical, and their wall-clocks give the tracing overhead.
fn run_traced(problem: &str, args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let svc_root = args.scratch.join("service");
    let svc = service(&svc_root)?;
    let registry = RunRegistry::open(args.scratch.join("composed")).map_err(|e| e.to_string())?;
    let pool = Arc::new(WorkerPool::with_workers(WORKERS));
    let mut ledger = TraceLedger::default();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut specs = Vec::new();
    let start = Instant::now();
    while specs.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let spec = loop_spec(problem, args.seed, specs.len() as u64);
        specs.push(spec.clone());
        let began = Instant::now();
        let Some(reference) = out.attempt(run_checked(&svc, &spec)) else {
            continue;
        };
        let untraced = began.elapsed().as_secs_f64();
        let began = Instant::now();
        let job = specs.len() as u64;
        let composed = run_job(
            &spec,
            &registry,
            &pool,
            None,
            &ledger.stages,
            &mut ledger.tracer,
            job,
        );
        let traced = began.elapsed().as_secs_f64();
        let Some((report, counts)) = out.attempt(composed) else {
            continue;
        };
        if report_bytes(&report) != report_bytes(&reference) {
            out.fail(format!(
                "{}: composed report differs from the service's",
                report.name
            ));
            continue;
        }
        untraced_s += untraced;
        traced_s += traced;
        ledger.jobs.push(counts);
    }
    println!(
        "# workload seed {} · {} specs · spec list fnv1a {:016x}",
        args.seed,
        specs.len(),
        spec_list_hash(&specs)
    );
    ledger.layer_metrics(out);
    out.metric("cache.open_s", 0.0);
    out.metric("telemetry.trace_kb", mean_trace_kb(&svc_root)?);
    for name in [
        "server.submit_ms",
        "server.poll_ms",
        "server.ready_s",
        "server.rejected",
    ] {
        out.metric(name, 0.0);
    }
    out.metric(
        "trace_overhead_pct",
        100.0 * (traced_s / untraced_s.max(1e-9) - 1.0),
    );
    ledger.write(&trace_path(args))
}

/// `warm_ms_p50` and `warm_ms_p90` as unbounded notes (see the README's
/// "Steadiness"); too few samples for a p90 is a failure.
pub fn warm_metrics(warm_ms: &[f64], out: &mut Outcome) {
    if let Some(p50) = percentile(warm_ms, 50.0) {
        out.note("warm_ms_p50", p50, "ms");
    }
    match percentile(warm_ms, 90.0) {
        Some(p90) => out.note("warm_ms_p90", p90, "ms"),
        None => out.fail(format!(
            "{} warm samples are too few for a p90",
            warm_ms.len()
        )),
    }
}

/// Mean size of the `telemetry.jsonl` span logs under an artifact root.
pub fn mean_trace_kb(root: &Path) -> Result<f64, String> {
    let mut sizes = Vec::new();
    let entries = std::fs::read_dir(root).map_err(|e| format!("{}: {e}", root.display()))?;
    for entry in entries.flatten() {
        let path = entry.path().join(clapton_service::TELEMETRY_ARTIFACT);
        if let Ok(meta) = std::fs::metadata(&path) {
            sizes.push(meta.len() as f64 / 1e3);
        }
    }
    Ok(mean(&sizes).unwrap_or(0.0))
}

/// Where a traced run leaves its span log: under `.clapbench/traces`, which
/// outlives the run's scratch directory.
pub fn trace_path(args: &RunArgs) -> std::path::PathBuf {
    Path::new(".clapbench")
        .join("traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}
