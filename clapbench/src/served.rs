//! `suite12_server`: the 12-instance quick suite over loopback HTTP against
//! a `clapton-server` child with its persistent store under `--root`.
//!
//! Two closed-loop client connections submit the suite cold; the server is
//! drained with SIGTERM and restarted on the same root; then the clients
//! resubmit the specs until the run's time is up, and the server answers
//! each at admission.

use crate::checks::{check_report, init_gap, peak_rss_bytes, report_bytes, settle, wchar_bytes};
use crate::compose::{now_ns, run_job, TimedStore, TraceLedger};
use crate::inproc::{mean_trace_kb, trace_path, warm_metrics};
use crate::specs::{job_seed, quick_spec, spec_list_hash, suite_specs};
use crate::stats::{mean, median, Interval};
use crate::{Outcome, RunArgs, WORKERS};
use clapton_runtime::{RunRegistry, WorkerPool};
use clapton_server::client::Client;
use clapton_service::{CacheConfig, CacheStore, ClaptonService, JobSpec, Report, CACHE_DIR_NAME};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Server spawns timed for `setup_s`; the last one serves the cold phase.
const SETUP_REPS: usize = 5;
/// Restarts on the populated root timed for `restart_s`; the last one
/// serves the warm phase.
const RESTART_REPS: usize = 1;
/// Warm resubmissions per run at least (a p90 needs ten samples beyond
/// it) and at most (each one adds a registry entry to the server).
const WARM_MIN: usize = 120;
const WARM_CAP: usize = 2000;
/// The warm phase lasts this share of `--seconds`: the cold phase is fixed
/// work, and warm answers come fast enough that a short phase gives
/// hundreds of samples.
const WARM_SHARE: f64 = 0.2;
/// How long a server may take to become ready, or to drain.
const PROCESS_DEADLINE: Duration = Duration::from_secs(60);

/// Builds the server binary from the checkout's sources (a no-op when it is
/// fresh) and returns its path.
pub fn build_server() -> Result<PathBuf, String> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("benchmark directory has no parent")?
        .to_path_buf();
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(repo.join("Cargo.toml"))
        .args(["-p", "clapton-server", "--bin", "clapton-server"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building clapton-server failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo.join("target"));
    Ok(target.join("release").join("clapton-server"))
}

/// A running `clapton-server` child. Dropping it kills and reaps the
/// process; [`Server::drain`] stops it the graceful way.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Starts a server on `root` and polls `/healthz` until it is ready,
    /// returning it with the seconds that took.
    fn spawn(bin: &Path, root: &Path) -> Result<(Server, f64), String> {
        std::fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
        let port_file = root.join("port");
        let _ = std::fs::remove_file(&port_file);
        let start = Instant::now();
        let child = Command::new(bin)
            .arg("--root")
            .arg(root)
            .arg("--port-file")
            .arg(&port_file)
            .args(["--dispatchers", "2", "--pool-workers", &WORKERS.to_string()])
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        loop {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("clapton-server exited before ready: {status}"));
            }
            if server.addr.is_empty() {
                if let Ok(port) = std::fs::read_to_string(&port_file) {
                    if let Ok(port) = port.trim().parse::<u16>() {
                        server.addr = format!("127.0.0.1:{port}");
                    }
                }
            }
            if !server.addr.is_empty() && server.client().health().is_ok_and(|h| h.ready) {
                return Ok((server, start.elapsed().as_secs_f64()));
            }
            if start.elapsed() > PROCESS_DEADLINE {
                return Err("clapton-server did not become ready".to_string());
            }
            // Ready takes a few milliseconds; a coarse poll would quantize it.
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn client(&self) -> Client {
        Client::new(self.addr.clone())
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// SIGTERM, then wait for the drain; a non-zero exit is an error.
    fn drain(mut self) -> Result<(), String> {
        sigterm(self.child.id())?;
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("clapton-server drain exited {status}")),
                Ok(None) if start.elapsed() > PROCESS_DEADLINE => {
                    return Err("clapton-server did not drain".to_string())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for clapton-server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Sends SIGTERM to `pid`: the server's graceful-drain signal (the standard
/// library can only SIGKILL a child).
fn sigterm(pid: u32) -> Result<(), String> {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    // SAFETY: kill(2) reads no memory of ours; `pid` is a child this process
    // has not reaped yet, so the id cannot have been reused.
    if unsafe { kill(pid, SIGTERM) } == 0 {
        Ok(())
    } else {
        Err(format!(
            "kill -TERM {pid}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Client-side HTTP spans of a traced run: `(name, interval, job index)`.
type HttpSpans = Mutex<Vec<(&'static str, Interval, u64)>>;

/// Times one request into `spans` when tracing.
fn http<T>(spans: Option<&HttpSpans>, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
    let start = now_ns();
    let value = f();
    if let Some(spans) = spans {
        spans
            .lock()
            .expect("span log")
            .push((name, (start, now_ns()), job));
    }
    value
}

/// A cold job's report and submit → report seconds.
type ColdResult = Result<(Report, f64), String>;

/// One cold job: submit, wait for the event stream to close, fetch the
/// report. Returns the report and the submit → report seconds.
fn cold_job(client: &Client, spec: &JobSpec, index: u64, spans: Option<&HttpSpans>) -> ColdResult {
    let json = serde_json::to_string(spec).expect("spec serializes");
    let start = Instant::now();
    let io = |e: std::io::Error| e.to_string();
    let response = http(spans, "server.submit", index, || client.submit(&json)).map_err(io)?;
    if !matches!(response.status, 200 | 202) {
        return Err(format!(
            "submit refused: {} {}",
            response.status, response.body
        ));
    }
    let job = response.job().map_err(io)?;
    let job = if job.state == "done" {
        job
    } else {
        http(spans, "server.events", index, || client.events(&job.id)).map_err(io)?;
        let status = http(spans, "server.status", index, || client.status(&job.id)).map_err(io)?;
        status.job().map_err(io)?
    };
    let took = start.elapsed().as_secs_f64();
    match job.report {
        Some(report) if job.state == "done" => {
            check_report(&report)?;
            Ok((report, took))
        }
        _ => Err(format!(
            "job {} ended {}: {:?}",
            job.id, job.state, job.detail
        )),
    }
}

/// One warm resubmission: must be answered at admission (200) with the cold
/// report, byte for byte. Returns the milliseconds it took.
fn warm_request(client: &Client, json: &str, cold: &str) -> Result<f64, String> {
    let start = Instant::now();
    let response = client.submit(json).map_err(|e| e.to_string())?;
    let took = start.elapsed().as_secs_f64() * 1e3;
    if response.status != 200 {
        return Err(format!("warm submit refused: {}", response.status));
    }
    let job = response.job().map_err(|e| e.to_string())?;
    match job.report {
        Some(report) if report_bytes(&report) == cold => Ok(took),
        Some(_) => Err(format!("{}: warm report differs from cold", job.name)),
        None => Err(format!("{}: warm answer without a report", job.name)),
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let bin = &args.server_bin;
    let root = args.scratch.join("server");
    let spans: Option<HttpSpans> = args.trace.then(HttpSpans::default);
    let spans = spans.as_ref();

    settle(&args.scratch)?;
    let mut ready = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let fresh = if rep + 1 == SETUP_REPS {
            root.clone()
        } else {
            args.scratch.join(format!("setup-{rep}"))
        };
        let (spawned, took) = Server::spawn(bin, &fresh)?;
        ready.push(took);
        if rep + 1 == SETUP_REPS {
            server = Some(spawned);
        } else {
            out.attempt(spawned.drain());
        }
    }
    let server = server.expect("last set-up serves");

    let specs = suite_specs(args.seed);
    println!(
        "# workload seed {} · {} specs · spec list fnv1a {:016x}",
        args.seed,
        specs.len(),
        spec_list_hash(&specs)
    );
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, ColdResult)>> = Mutex::default();
    let cold_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let client = server.client();
            let (next, results, specs) = (&next, &results, &specs);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(spec) = specs.get(i) else {
                    return;
                };
                let result = cold_job(&client, spec, i as u64, spans);
                results.lock().expect("results").push((i, result));
            });
        }
    });
    let cold_wall = cold_start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_bytes(&server.pid())?;
    let written = wchar_bytes(&server.pid())?;
    out.attempt(server.drain());

    let mut results = results.into_inner().expect("results");
    results.sort_by_key(|(i, _)| *i);
    let mut cold: Vec<(String, String)> = Vec::new();
    let (mut job_s, mut gaps) = (Vec::new(), Vec::new());
    for (i, result) in results {
        if let Some((report, took)) = out.attempt(result) {
            job_s.push(took);
            gaps.push(init_gap(&report));
            let json = serde_json::to_string(&specs[i]).expect("spec serializes");
            cold.push((json, report_bytes(&report)));
        }
    }
    if cold.len() != specs.len() {
        return Err(format!(
            "{} of {} cold jobs completed",
            cold.len(),
            specs.len()
        ));
    }

    settle(&args.scratch)?;
    let mut restarts = Vec::new();
    let mut server = None;
    for rep in 0..RESTART_REPS {
        let (spawned, took) = Server::spawn(bin, &root)?;
        restarts.push(took);
        if rep + 1 == RESTART_REPS {
            server = Some(spawned);
        } else {
            out.attempt(spawned.drain());
        }
    }
    let server = server.expect("last restart serves");

    settle(&args.scratch)?;
    // Warm phase. In a traced run every other request is timed into a span,
    // so the two halves give the client-side tracing overhead.
    let next = AtomicUsize::new(0);
    let warm: Mutex<Vec<(usize, Result<f64, String>)>> = Mutex::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds * WARM_SHARE);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let client = server.client();
            let (next, warm, cold) = (&next, &warm, &cold);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= WARM_CAP || (i >= WARM_MIN && Instant::now() >= deadline) {
                    return;
                }
                let (json, bytes) = &cold[i % cold.len()];
                let traced = spans.filter(|_| i % 2 == 0);
                let index = (i % cold.len()) as u64;
                let result = http(traced, "server.warm", index, || {
                    warm_request(&client, json, bytes)
                });
                warm.lock().expect("warm samples").push((i, result));
            });
        }
    });
    out.attempt(server.drain());
    let mut warm_ms = Vec::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    for (i, result) in warm.into_inner().expect("warm samples") {
        if let Some(ms) = out.attempt(result) {
            warm_ms.push(ms);
            if i % 2 == 0 {
                traced_ms.push(ms);
            } else {
                untraced_ms.push(ms);
            }
        }
    }

    if args.trace {
        let spans = spans.expect("traced run").lock().expect("span log").clone();
        traced_layers(args, &root, &specs, &cold, spans, out)?;
        out.metric("server.ready_s", median(&ready).unwrap_or(0.0));
        let overhead = mean(&traced_ms).unwrap_or(0.0) / mean(&untraced_ms).unwrap_or(1.0);
        out.metric("trace_overhead_pct", 100.0 * (overhead - 1.0));
        return Ok(());
    }
    out.metric("setup_s", median(&ready).unwrap_or(0.0));
    out.metric("job_s_p50", median(&job_s).unwrap_or(0.0));
    out.metric("jobs_per_s", job_s.len() as f64 / cold_wall);
    warm_metrics(&warm_ms, out);
    out.note("restart_s", median(&restarts).unwrap_or(0.0), "s");
    out.note("peak_rss_mb", peak_rss as f64 / 1e6, "MB");
    out.metric(
        "write_mb_per_job",
        written as f64 / job_s.len() as f64 / 1e6,
    );
    out.metric("init_gap", mean(&gaps).unwrap_or(0.0));
    Ok(())
}

/// Per-layer metrics of a traced run: the client-side HTTP spans, the time
/// to open the populated store, and composed replays of the suite through
/// a timing store on it — the 12 cold specs (answered by the store's loss
/// tier) plus one fresh seed (partly computed and written back). Every
/// replayed report must match the served or the service's one byte for
/// byte.
fn traced_layers(
    args: &RunArgs,
    root: &Path,
    specs: &[JobSpec],
    cold: &[(String, String)],
    spans: Vec<(&'static str, Interval, u64)>,
    out: &mut Outcome,
) -> Result<(), String> {
    let artifacts = root.join("artifacts");
    let (store, open_s) = {
        let start = Instant::now();
        let store = CacheStore::open(artifacts.join(CACHE_DIR_NAME), CacheConfig::default())
            .map_err(|e| e.to_string())?;
        (store, start.elapsed().as_secs_f64())
    };
    let store = Arc::new(TimedStore::new(Arc::new(store)));
    let registry = RunRegistry::open(args.scratch.join("composed")).map_err(|e| e.to_string())?;
    let pool = Arc::new(WorkerPool::with_workers(WORKERS));
    let mut ledger = TraceLedger {
        store: Some(Arc::clone(&store)),
        ..TraceLedger::default()
    };
    let fresh = quick_spec(SUITE_FRESH, job_seed(args.seed, "suite12-fresh", 0));
    let fresh_reference = ClaptonService::with_pool(Arc::clone(&pool))
        .run(fresh.clone())
        .map_err(|e| e.to_string())
        .map(|r| report_bytes(&r));
    let mut replays: Vec<(&JobSpec, Result<String, String>)> = specs
        .iter()
        .zip(cold)
        .map(|(spec, (_, bytes))| (spec, Ok(bytes.clone())))
        .collect();
    replays.push((&fresh, fresh_reference));
    for (job, (spec, reference)) in replays.into_iter().enumerate() {
        let composed = run_job(
            spec,
            &registry,
            &pool,
            Some(&store),
            &ledger.stages,
            &mut ledger.tracer,
            job as u64,
        );
        let Some((report, counts)) = out.attempt(composed) else {
            continue;
        };
        match reference {
            Ok(bytes) if bytes == report_bytes(&report) => ledger.jobs.push(counts),
            Ok(_) => out.fail(format!("{}: composed replay differs", report.name)),
            Err(e) => out.fail(e),
        }
    }
    ledger.layer_metrics(out);
    out.metric("cache.open_s", open_s);
    out.metric("telemetry.trace_kb", mean_trace_kb(&artifacts)?);
    let of = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, (s, e), _)| (e - s) as f64 / 1e6)
            .collect()
    };
    out.metric(
        "server.submit_ms",
        median(&of("server.submit")).unwrap_or(0.0),
    );
    out.metric(
        "server.poll_ms",
        median(&of("server.status")).unwrap_or(0.0),
    );
    let rejected = out
        .failures
        .iter()
        .filter(|f| f.contains("refused"))
        .count();
    out.metric("server.rejected", rejected as f64);
    for (name, interval, job) in spans {
        ledger.tracer.record(name, interval, None, 1000 + job);
    }
    ledger.write(&trace_path(args))
}

/// The problem of the traced run's fresh-seed replay: the cheapest suite
/// instance.
const SUITE_FRESH: &str = "ising(J=0.25)";
