//! The traced job body: `ClaptonService`'s job, rebuilt from public calls
//! in the service's own order, with a span around every call into a layer.
//!
//! Spans are recorded here, outside the program, so the program under test
//! is the same binary code the untraced runs measure. The composed report
//! must be byte-identical to `ClaptonService::run` on the same spec; the
//! workloads check that on every job.

use crate::stats::{covered, Interval};
use clapton_circuits::TransformationAnsatz;
use clapton_core::{
    loss_namespace, ClaptonResult, LossEvaluator, LossStore, TransformLoss, Transformation,
};
use clapton_ga::MultiGa;
use clapton_pauli::PauliSum;
use clapton_runtime::{
    artifact_slug, Artifact, ClaimOutcome, LeaseKeeper, RunDirectory, RunManifest, RunRegistry,
    WorkerPool,
};
use clapton_service::{CacheStore, JobSpec, Report, TerminalState, TELEMETRY_ARTIFACT};
use clapton_sim::{ground_energy, DeviceEvaluator};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: one clock for every
/// span on every thread.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer-qualified name, `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in [`now_ns`] time.
    pub start: u64,
    /// End, in [`now_ns`] time.
    pub end: u64,
    /// Index of the parent span in the run's span list.
    pub parent: Option<usize>,
    /// The job every span of one request shares.
    pub job: u64,
}

/// The run's in-memory span log, written out when the run ends.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Every span, in the order they closed (children before parents).
    pub spans: Vec<SpanRecord>,
}

impl Tracer {
    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        (start, end): Interval,
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        self.spans.push(SpanRecord {
            name,
            start,
            end,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}\n",
                s.name, s.start, s.end, s.job
            ));
        }
        out
    }
}

/// Runs `f` and returns its value with the interval it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Interval) {
    let start = now_ns();
    let value = f();
    (value, (start, now_ns()))
}

/// Per-genome stage clocks of the loss kernel, summed over all threads.
#[derive(Debug, Default)]
pub struct StageClocks {
    /// Genomes scored through the batch path.
    pub genomes: AtomicU64,
    /// `TransformLoss::transformed_into`.
    pub transform_ns: AtomicU64,
    /// `LossFunction::loss_n_prepared` on `prepared_zero` (the noisy
    /// back-propagation kernel).
    pub kernel_ns: AtomicU64,
    /// `LossFunction::loss_0`.
    pub loss0_ns: AtomicU64,
}

/// [`TransformLoss`] with its batch path re-run from the same public calls,
/// clocked per stage. Bit-identical: the same arithmetic in the same order.
struct TracedLoss<'a, 'h> {
    inner: &'a TransformLoss<'h>,
    calls: Mutex<Vec<Interval>>,
    stages: &'a StageClocks,
}

impl TracedLoss<'_, '_> {
    fn note_call(&self, interval: Interval) {
        self.calls.lock().expect("call log").push(interval);
    }
}

impl LossEvaluator for TracedLoss<'_, '_> {
    fn evaluate(&self, genome: &[u8]) -> f64 {
        let (loss, interval) = timed(|| self.inner.evaluate(genome));
        self.note_call(interval);
        loss
    }

    fn evaluate_population(&self, genomes: &[Vec<u8>]) -> Vec<f64> {
        let start = now_ns();
        let loss = self.inner.loss();
        let losses = match loss.prepared_zero() {
            Some(prepared) => {
                let mut transformed = PauliSum::new(loss.exec().num_logical());
                let (mut transform, mut kernel, mut loss0) = (0u64, 0u64, 0u64);
                let losses = genomes
                    .iter()
                    .map(|gamma| {
                        let a = Instant::now();
                        self.inner.transformed_into(gamma, &mut transformed);
                        let b = Instant::now();
                        let loss_n = loss.loss_n_prepared(prepared, &transformed);
                        let c = Instant::now();
                        let loss_0 = loss.loss_0(&transformed);
                        let d = Instant::now();
                        transform += (b - a).as_nanos() as u64;
                        kernel += (c - b).as_nanos() as u64;
                        loss0 += (d - c).as_nanos() as u64;
                        loss_n + loss_0
                    })
                    .collect();
                let s = self.stages;
                s.genomes.fetch_add(genomes.len() as u64, Ordering::Relaxed);
                s.transform_ns.fetch_add(transform, Ordering::Relaxed);
                s.kernel_ns.fetch_add(kernel, Ordering::Relaxed);
                s.loss0_ns.fetch_add(loss0, Ordering::Relaxed);
                losses
            }
            None => genomes.iter().map(|g| self.inner.evaluate(g)).collect(),
        };
        self.note_call((start, now_ns()));
        losses
    }

    fn canonical_key(&self, genome: &[u8]) -> Vec<u8> {
        self.inner.canonical_key(genome)
    }
}

/// A timing [`LossStore`] around the persistent [`CacheStore`].
#[derive(Debug)]
pub struct TimedStore {
    inner: Arc<CacheStore>,
    calls: Mutex<Vec<Interval>>,
    /// `load` calls.
    pub loads: AtomicU64,
    /// `load` calls that found an entry.
    pub hits: AtomicU64,
    /// Summed `load` time.
    pub load_ns: AtomicU64,
    /// `save` calls.
    pub saves: AtomicU64,
    /// Summed `save` time.
    pub save_ns: AtomicU64,
}

impl TimedStore {
    /// Wraps an open store.
    pub fn new(inner: Arc<CacheStore>) -> TimedStore {
        TimedStore {
            inner,
            calls: Mutex::default(),
            loads: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            load_ns: AtomicU64::new(0),
            saves: AtomicU64::new(0),
            save_ns: AtomicU64::new(0),
        }
    }

    fn note(&self, (start, end): Interval, calls: &AtomicU64, ns: &AtomicU64) {
        calls.fetch_add(1, Ordering::Relaxed);
        ns.fetch_add(end - start, Ordering::Relaxed);
        self.calls
            .lock()
            .expect("store call log")
            .push((start, end));
    }
}

impl LossStore for TimedStore {
    fn load(&self, ns: u64, key: &[u8]) -> Option<f64> {
        let (found, interval) = timed(|| LossStore::load(&*self.inner, ns, key));
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        self.note(interval, &self.loads, &self.load_ns);
        found
    }

    fn save(&self, ns: u64, key: &[u8], loss: f64) {
        let ((), interval) = timed(|| LossStore::save(&*self.inner, ns, key, loss));
        self.note(interval, &self.saves, &self.save_ns);
    }
}

/// What one composed job measured besides its spans.
#[derive(Debug, Default, Clone)]
pub struct JobCounts {
    /// GA rounds.
    pub rounds: u64,
    /// Fitness requests the memo answered (from
    /// `EngineState::round_eval_stats`).
    pub memo_hits: u64,
    /// Genomes whose loss was computed (memo misses).
    pub memo_misses: u64,
    /// Summed `step_pooled` wall time.
    pub step_ns: u64,
    /// Summed loss-call time over all threads.
    pub loss_call_ns: u64,
    /// Bytes of each round's checkpoint file.
    pub checkpoint_bytes: Vec<u64>,
}

/// One `MultiGa::step_pooled` call and the calls it made into the loss and
/// the store, on every worker.
struct Step {
    wall: Interval,
    loss_calls: Vec<Interval>,
    store_calls: Vec<Interval>,
}

/// The artifact names `ClaptonService` uses inside a job directory.
const SPEC_ARTIFACT: &str = "spec.json";
const CHECKPOINT_ARTIFACT: &str = "checkpoint.json";
const CHECKPOINT_PREV_ARTIFACT: &str = "checkpoint.prev.json";
const REPORT_ARTIFACT: &str = "report.json";
const STATE_ARTIFACT: &str = "state.json";

/// Runs `spec` as `ClaptonService` would with an artifact root at
/// `registry` (and, when given, the loss tier of a persistent store behind
/// the memo), recording spans into `tracer` under job id `job`.
///
/// The report tier of the store is not consulted: a composed job always
/// searches, so the loss tier is what it measures.
///
/// # Errors
///
/// Invalid specs, artifact I/O failures, and a lease held by another
/// worker, as text.
pub fn run_job(
    spec: &JobSpec,
    registry: &RunRegistry,
    pool: &Arc<WorkerPool>,
    store: Option<&Arc<TimedStore>>,
    stages: &StageClocks,
    tracer: &mut Tracer,
    job: u64,
) -> Result<(Report, JobCounts), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let job_start = now_ns();
    let mut children: Vec<(&'static str, Interval)> = Vec::new();
    let mut steps: Vec<Step> = Vec::new();
    let mut counts = JobCounts::default();

    let (resolved, t) = timed(|| spec.validate());
    children.push(("service.validate", t));
    let resolved = resolved.map_err(|e| err(&e))?;
    let (dir, t) = timed(|| prepare_dir(registry, &resolved));
    children.push(("runtime.prepare", t));
    let dir = dir?;
    let owner = clapton_runtime::default_worker_id();
    let ttl = clapton_runtime::DEFAULT_LEASE_TTL;
    let (keeper, t) = timed(|| match clapton_runtime::acquire(dir.path(), owner, ttl) {
        Ok(ClaimOutcome::Acquired(held)) => Ok(LeaseKeeper::spawn(held, ttl / 4)),
        Ok(ClaimOutcome::Held { owner, .. }) => Err(format!("lease held by {owner}")),
        Err(e) => Err(err(&e)),
    });
    children.push(("runtime.lease", t));
    let keeper = keeper?;

    let trace = clapton_telemetry::Trace::begin();
    let result = {
        let _trace_ctx = clapton_telemetry::push_context(trace.context());
        let _job_span = clapton_telemetry::span("job");
        compose_inner(
            &resolved,
            &dir,
            pool,
            store,
            stages,
            &mut children,
            &mut steps,
            &mut counts,
        )
    };
    let (_, t) = timed(|| {
        let records = trace.finish();
        if !records.is_empty() && (records.len() > 1 || !dir.exists(TELEMETRY_ARTIFACT)) {
            let _ = dir.write_text(TELEMETRY_ARTIFACT, &clapton_telemetry::to_jsonl(&records));
        }
    });
    children.push(("telemetry.write", t));
    let (_, t) = timed(|| keeper.release());
    children.push(("runtime.lease", t));
    let job_end = now_ns();

    let root = tracer.record("job", (job_start, job_end), None, job);
    for (name, interval) in children {
        tracer.record(name, interval, Some(root), job);
    }
    for step in steps {
        let id = tracer.record("ga.step", step.wall, Some(root), job);
        for call in step.loss_calls {
            tracer.record("eval.loss_call", call, Some(id), job);
        }
        for call in step.store_calls {
            tracer.record("cache.store_call", call, Some(id), job);
        }
    }
    result.map(|report| (report, counts))
}

/// `ClaptonService`'s `prepare_dir` for a fresh registry: persist the spec
/// and the run manifest, and look for terminal artifacts.
fn prepare_dir(
    registry: &RunRegistry,
    job: &clapton_service::ResolvedJob,
) -> Result<RunDirectory, String> {
    let err = |e: std::io::Error| e.to_string();
    let slug = artifact_slug(&format!("{}-seed{}", job.name, job.config.seed));
    let dir = registry.run(&slug).map_err(err)?;
    match dir.load::<JobSpec>(SPEC_ARTIFACT).map_err(err)? {
        Artifact::Valid(_) => return Err(format!("{slug} already has a spec")),
        Artifact::Missing | Artifact::Corrupt { .. } => {
            dir.write_json(SPEC_ARTIFACT, &job.spec).map_err(err)?;
            dir.write_manifest(&RunManifest {
                jobs: vec![job.name.clone()],
                seed: job.config.seed,
                profile: format!("service-v{}", job.spec.version),
            })
            .map_err(err)?;
        }
    }
    if !matches!(
        dir.load::<Report>(REPORT_ARTIFACT).map_err(err)?,
        Artifact::Missing
    ) || !matches!(
        dir.load::<TerminalState>(STATE_ARTIFACT).map_err(err)?,
        Artifact::Missing
    ) {
        return Err(format!("{slug} is not a fresh job directory"));
    }
    Ok(dir)
}

/// The search, device energy and report write of `execute_inner`.
#[allow(clippy::too_many_arguments)]
fn compose_inner(
    job: &clapton_service::ResolvedJob,
    dir: &RunDirectory,
    pool: &Arc<WorkerPool>,
    store: Option<&Arc<TimedStore>>,
    stages: &StageClocks,
    children: &mut Vec<(&'static str, Interval)>,
    steps: &mut Vec<Step>,
    counts: &mut JobCounts,
) -> Result<Report, String> {
    let err = |e: std::io::Error| e.to_string();
    let h = &job.hamiltonian;
    let exec = &job.exec;
    let config = &job.config;
    let (e0, t) = timed(|| ground_energy(h));
    children.push(("sim.ground_energy", t));

    let ((t_ansatz, engine, mut state), t) = timed(|| {
        let t_ansatz = TransformationAnsatz::new(exec.num_logical());
        let mut engine = MultiGa::new(t_ansatz.num_genes(), 4, config.engine);
        if let Some(store) = store {
            engine = engine.with_loss_store(
                Arc::clone(store) as Arc<dyn LossStore>,
                loss_namespace(h, exec, config),
            );
        }
        let state = engine.start(config.seed);
        (t_ansatz, engine, state)
    });
    children.push(("ga.start", t));
    let mut objective = TransformLoss::new(h, exec, &t_ansatz, config.evaluator);
    if !config.two_qubit_slots {
        objective = objective.freeze_two_qubit_slots();
    }
    let traced = TracedLoss {
        inner: &objective,
        calls: Mutex::default(),
        stages,
    };
    let mut round_started = clapton_telemetry::mono_ns();
    while !state.finished {
        let ((), step) = timed(|| {
            engine.step_pooled(&mut state, &traced, pool);
        });
        let loss_calls = std::mem::take(&mut *traced.calls.lock().expect("call log"));
        counts.loss_call_ns += loss_calls.iter().map(|&(s, e)| e - s).sum::<u64>();
        counts.step_ns += step.1 - step.0;
        let store_calls = store.map_or_else(Vec::new, |store| {
            std::mem::take(&mut *store.calls.lock().expect("store call log"))
        });
        steps.push(Step {
            wall: step,
            loss_calls,
            store_calls,
        });
        let round_ended = clapton_telemetry::mono_ns();
        clapton_telemetry::record_complete("round", round_started, round_ended);
        round_started = round_ended;
        let (written, t) = timed(|| {
            dir.write_json_rotating(CHECKPOINT_ARTIFACT, CHECKPOINT_PREV_ARTIFACT, &state)
        });
        children.push(("runtime.checkpoint", t));
        written.map_err(err)?;
        let bytes = std::fs::metadata(dir.path().join(CHECKPOINT_ARTIFACT)).map_err(err)?;
        counts.checkpoint_bytes.push(bytes.len());
    }
    counts.rounds = state.rounds() as u64;
    for s in &state.round_eval_stats {
        counts.memo_hits += s.hits;
        counts.memo_misses += s.misses;
    }

    let (clapton, t) = timed(|| {
        let result = engine.result(&state);
        let transformation =
            Transformation::from_genome(h, &t_ansatz, objective.masked(&result.best.genes));
        let loss_n = objective.loss().loss_n(&transformation.transformed);
        let loss_0 = objective.loss().loss_0(&transformation.transformed);
        ClaptonResult {
            transformation,
            ansatz: t_ansatz.clone(),
            loss: result.best.loss,
            loss_n,
            loss_0,
            round_bests: result.round_bests,
            rounds: result.rounds,
            unique_evaluations: result.unique_evaluations,
            cache_hits: result.cache_hits,
        }
    });
    children.push(("core.finalize", t));

    let (clapton_initial_energy, t) = timed(|| {
        let zeros = vec![0.0; exec.ansatz().num_parameters()];
        DeviceEvaluator::run(&exec.circuit(&zeros), exec.noise_model())
            .energy(&exec.map_hamiltonian(&clapton.transformation.transformed))
    });
    children.push(("sim.device_energy", t));
    let report = Report {
        name: job.name.clone(),
        e0,
        cafqa: None,
        ncafqa: None,
        clapton: Some(clapton),
        cafqa_initial_energy: None,
        ncafqa_initial_energy: None,
        clapton_initial_energy: Some(clapton_initial_energy),
        eta_initial: None,
        clapton_vqe: None,
        cafqa_vqe: None,
        ncafqa_vqe: None,
    };
    let (written, t) = timed(|| {
        dir.write_json(REPORT_ARTIFACT, &report)?;
        dir.rotate(CHECKPOINT_ARTIFACT, CHECKPOINT_PREV_ARTIFACT)
    });
    children.push(("runtime.report_write", t));
    written.map_err(err)?;
    if let Some(store) = store {
        let (flushed, t) = timed(|| store.inner.flush());
        children.push(("cache.flush", t));
        flushed.map_err(err)?;
    }
    Ok(report)
}

/// Wall-clock attribution of a set of jobs to layers, from their spans.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Layer → nanoseconds of job wall-clock attributed to it.
    pub layers: BTreeMap<&'static str, f64>,
    /// Job wall-clock not covered by any layer span.
    pub unattributed_ns: f64,
    /// Summed job wall-clock.
    pub job_ns: f64,
    /// Summed `ga.step` self time (step wall minus the union of the loss
    /// and store calls inside it).
    pub step_self_ns: f64,
}

/// The layer a span name belongs to: its prefix before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

impl Breakdown {
    /// Attributes the spans of `tracer` to layers.
    ///
    /// A job's wall-clock splits into its direct children (which run one
    /// after another) plus its own self time, which is unattributed. The
    /// union of the loss and store calls inside a `ga.step` runs on several
    /// workers at once; it is split between the kernel stages and the store
    /// by their summed busy time, and the rest of the step is GA self time.
    pub fn from_spans(tracer: &Tracer, stages: &StageClocks, store: Option<&TimedStore>) -> Self {
        let mut out = Breakdown::default();
        let spans = &tracer.spans;
        let mut kids: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids.entry(p).or_default().push(i);
            }
        }
        let interval = |i: usize| (spans[i].start, spans[i].end);
        let mut calls_union = 0f64;
        for (i, s) in spans.iter().enumerate() {
            let children: Vec<Interval> = kids
                .get(&i)
                .map(|k| k.iter().map(|&c| interval(c)).collect())
                .unwrap_or_default();
            match (s.name, s.parent) {
                ("job", None) => {
                    out.job_ns += (s.end - s.start) as f64;
                    out.unattributed_ns += crate::stats::self_time(interval(i), &children) as f64;
                }
                ("ga.step", Some(_)) => {
                    let union = covered(interval(i), &children) as f64;
                    calls_union += union;
                    let own = (s.end - s.start) as f64 - union;
                    out.step_self_ns += own;
                    *out.layers.entry("ga").or_default() += own;
                }
                (_, Some(p)) if spans[p].name == "job" => {
                    *out.layers.entry(layer_of(s.name)).or_default() += (s.end - s.start) as f64;
                }
                _ => {}
            }
        }
        // Busy time inside the loss and store calls, by owner.
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        let mut busy: Vec<(&'static str, f64)> = vec![
            ("core", load(&stages.transform_ns) + load(&stages.loss0_ns)),
            ("noise", load(&stages.kernel_ns)),
        ];
        let loss_calls: f64 = spans
            .iter()
            .filter(|s| s.name == "eval.loss_call")
            .map(|s| (s.end - s.start) as f64)
            .sum();
        let stage_sum = busy.iter().map(|b| b.1).sum::<f64>();
        busy.push(("eval", (loss_calls - stage_sum).max(0.0)));
        if let Some(store) = store {
            busy.push(("cache", load(&store.load_ns) + load(&store.save_ns)));
        }
        let total: f64 = busy.iter().map(|b| b.1).sum();
        if total > 0.0 {
            for (layer, ns) in busy {
                *out.layers.entry(layer).or_default() += calls_union * ns / total;
            }
        }
        out
    }
}

/// Everything a traced run collects, turned into per-layer metrics at the
/// end.
#[derive(Debug, Default)]
pub struct TraceLedger {
    /// The run's spans.
    pub tracer: Tracer,
    /// Kernel stage clocks, over every composed job.
    pub stages: StageClocks,
    /// Per-job counts, one per composed job.
    pub jobs: Vec<JobCounts>,
    /// The timing store, when composed jobs had a persistent store.
    pub store: Option<Arc<TimedStore>>,
}

impl TraceLedger {
    /// Summed duration and count of the spans called `name`.
    fn spans(&self, name: &str) -> (f64, f64) {
        self.tracer
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0.0), |(t, n), s| {
                (t + (s.end - s.start) as f64, n + 1.0)
            })
    }

    /// Per-layer metrics of the composed jobs: every metric in the
    /// `service`, `sim`, `core`, `noise`, `ga`, `eval`, `runtime` and
    /// `cache` (load/save/flush/hit) layers, plus `unattributed_pct` and the
    /// layers' shares of the job wall-clock.
    pub fn layer_metrics(&self, out: &mut crate::Outcome) {
        let jobs = self.jobs.len().max(1) as f64;
        let per =
            |(total, n): (f64, f64), scale: f64| if n > 0.0 { total / n / scale } else { 0.0 };
        let per_job = |(total, _): (f64, f64), scale: f64| total / jobs / scale;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        let genomes = load(&self.stages.genomes).max(1.0);
        out.metric(
            "service.validate_ms",
            per_job(self.spans("service.validate"), 1e6),
        );
        out.metric(
            "sim.device_energy_ms",
            per_job(self.spans("sim.device_energy"), 1e6),
        );
        out.metric(
            "sim.ground_energy_ms",
            per_job(self.spans("sim.ground_energy"), 1e6),
        );
        out.metric(
            "core.transform_us",
            load(&self.stages.transform_ns) / genomes / 1e3,
        );
        out.metric("core.loss0_us", load(&self.stages.loss0_ns) / genomes / 1e3);
        out.metric(
            "noise.kernel_us",
            load(&self.stages.kernel_ns) / genomes / 1e3,
        );
        let sum = |f: fn(&JobCounts) -> u64| self.jobs.iter().map(f).sum::<u64>() as f64;
        out.metric("ga.rounds", sum(|j| j.rounds) / jobs);
        let store = self.store.as_deref();
        let breakdown = Breakdown::from_spans(&self.tracer, &self.stages, store);
        out.metric("ga.step_self_ms", breakdown.step_self_ns / jobs / 1e6);
        let (hits, misses) = (sum(|j| j.memo_hits), sum(|j| j.memo_misses));
        out.metric("eval.memo_hit_ratio", hits / (hits + misses).max(1.0));
        out.metric("eval.genomes_computed", misses / jobs);
        out.metric(
            "runtime.checkpoint_ms",
            per(self.spans("runtime.checkpoint"), 1e6),
        );
        let bytes: Vec<f64> = self
            .jobs
            .iter()
            .flat_map(|j| j.checkpoint_bytes.iter().map(|&b| b as f64))
            .collect();
        out.metric(
            "runtime.checkpoint_mb",
            crate::stats::mean(&bytes).unwrap_or(0.0) / 1e6,
        );
        out.metric(
            "runtime.report_write_ms",
            per_job(self.spans("runtime.report_write"), 1e6),
        );
        out.metric(
            "runtime.pool_busy_frac",
            sum(|j| j.loss_call_ns) / (crate::WORKERS as f64 * sum(|j| j.step_ns).max(1.0)),
        );
        let (load_us, save_us, hit_ratio) = match store {
            Some(s) => (
                load(&s.load_ns) / load(&s.loads).max(1.0) / 1e3,
                load(&s.save_ns) / load(&s.saves).max(1.0) / 1e3,
                load(&s.hits) / load(&s.loads).max(1.0),
            ),
            None => (0.0, 0.0, 0.0),
        };
        out.metric("cache.load_us", load_us);
        out.metric("cache.save_us", save_us);
        out.metric("cache.flush_ms", per(self.spans("cache.flush"), 1e6));
        out.metric("cache.hit_ratio", hit_ratio);
        let job_ns = breakdown.job_ns.max(1.0);
        out.metric(
            "unattributed_pct",
            100.0 * breakdown.unattributed_ns / job_ns,
        );
        for (layer, name) in [
            ("service", "service.share_pct"),
            ("sim", "sim.share_pct"),
            ("ga", "ga.share_pct"),
            ("core", "core.share_pct"),
            ("noise", "noise.share_pct"),
            ("eval", "eval.share_pct"),
            ("runtime", "runtime.share_pct"),
            ("cache", "cache.share_pct"),
            ("telemetry", "telemetry.share_pct"),
        ] {
            let ns = breakdown.layers.get(layer).copied().unwrap_or(0.0);
            out.metric(name, 100.0 * ns / job_ns);
        }
    }

    /// Writes the span log to `path` (one JSON object per line).
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(path, self.tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))
    }
}
