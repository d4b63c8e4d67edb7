//! `clapbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path clapbench/Cargo.toml -- \
//!     --workload <ising10_quick|h6_quick|suite12_server> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Runs one workload through the public front doors (`ClaptonService`,
//! `clapton-server`), checks every report, and prints one JSON object as the
//! last line of standard output: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics of a traced run with `--trace 1`. Exits non-zero
//! when any job fails or any output check does not hold. See
//! `clapbench/README.md` for the metrics and the workloads.

mod checks;
mod compose;
mod inproc;
mod served;
mod specs;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("job_s_p50", "s"),
    ("jobs_per_s", "1/s"),
    ("write_mb_per_job", "MB"),
    ("init_gap", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer
/// a workload does not pass through reads 0 there.
const PER_LAYER: [(&str, &str); 35] = [
    ("service.validate_ms", "ms"),
    ("sim.device_energy_ms", "ms"),
    ("sim.ground_energy_ms", "ms"),
    ("core.transform_us", "us"),
    ("core.loss0_us", "us"),
    ("noise.kernel_us", "us"),
    ("ga.rounds", "count"),
    ("ga.step_self_ms", "ms"),
    ("eval.memo_hit_ratio", "ratio"),
    ("eval.genomes_computed", "count"),
    ("runtime.checkpoint_ms", "ms"),
    ("runtime.checkpoint_mb", "MB"),
    ("runtime.report_write_ms", "ms"),
    ("runtime.pool_busy_frac", "ratio"),
    ("cache.load_us", "us"),
    ("cache.save_us", "us"),
    ("cache.flush_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.open_s", "s"),
    ("telemetry.trace_kb", "KB"),
    ("server.submit_ms", "ms"),
    ("server.poll_ms", "ms"),
    ("server.ready_s", "s"),
    ("server.rejected", "count"),
    ("unattributed_pct", "%"),
    ("trace_overhead_pct", "%"),
    ("service.share_pct", "%"),
    ("sim.share_pct", "%"),
    ("ga.share_pct", "%"),
    ("core.share_pct", "%"),
    ("noise.share_pct", "%"),
    ("eval.share_pct", "%"),
    ("runtime.share_pct", "%"),
    ("cache.share_pct", "%"),
    ("telemetry.share_pct", "%"),
];

/// Worker threads of the shared pool, in process and in the server — the
/// server's default.
pub const WORKERS: usize = 2;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every job spec derives from it.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// This run's private scratch directory inside the checkout.
    pub scratch: PathBuf,
    /// The `clapton-server` binary, built from the checkout.
    pub server_bin: PathBuf,
}

/// What a run attempted, what failed, and what it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs and requests attempted.
    pub attempted: u64,
    /// Failures: failed or refused jobs/requests and failed output checks.
    pub failures: Vec<String>,
    /// `(name, value)` in metric order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Measurements printed for reading but not declared in
    /// `BENCHMARK.json`: `(name, value, unit)`.
    pub notes: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Records a measured metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a measurement that is printed but carries no bound.
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push((name, value, unit));
    }

    /// Counts one attempt and, on error, one failure.
    pub fn attempt<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Records a failure that is not an attempt of its own.
    pub fn fail(&mut self, why: String) {
        eprintln!("clapbench: FAILED: {why}");
        self.failures.push(why);
    }
}

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    // Built on every run, whatever the workload, so the first run of a
    // fresh checkout builds everything and later runs find it fresh.
    let server_bin = served::build_server()?;
    let scratch = Path::new(".clapbench")
        .join("tmp")
        .join(format!("{workload}-{seed}-{}", std::process::id()));
    Ok(RunArgs {
        workload,
        seed,
        seconds: seconds.unwrap_or(25.0),
        trace: trace.unwrap_or(false),
        scratch,
        server_bin,
    })
}

fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "ising10_quick" => inproc::run("ising(J=0.25)", args, &mut out)?,
        "h6_quick" => inproc::run("H6(l=1.0)", args, &mut out)?,
        "suite12_server" => served::run(args, &mut out)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(out)
}

/// Renders the result object, checking it carries exactly the metrics the
/// benchmark declares for this kind of run.
fn render(out: &Outcome, trace: bool) -> Result<String, String> {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let value = out
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some((extra, _)) = out
        .metrics
        .iter()
        .find(|(n, _)| !declared.iter().any(|(d, _)| d == n))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failures.len(),
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("clapbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("clapbench: cannot create {}: {e}", args.scratch.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&args.scratch);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("clapbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, value) in &out.metrics {
        let unit = declared.iter().find(|(n, _)| n == name).map_or("", |d| d.1);
        println!("# {name} = {value} {unit}");
    }
    for (name, value, unit) in &out.notes {
        println!("# {name} = {value} {unit} (not bounded)");
    }
    println!(
        "# failed_frac = {} ({} of {} attempted)",
        out.failures.len() as f64 / out.attempted.max(1) as f64,
        out.failures.len(),
        out.attempted
    );
    match render(&out, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("clapbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `{"name": ..., "unit": ...}` pairs of one list in
    /// `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let start = text.find(&format!("\"{list}\"")).expect("list present");
        let body = &text[start
            ..text[start..]
                .find(']')
                .map(|e| start + e)
                .expect("list ends")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let (name, rest) = entry.split_once('"').expect("name");
                let unit = rest
                    .split_once("\"unit\": \"")
                    .and_then(|(_, u)| u.split_once('"'))
                    .expect("unit")
                    .0;
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn render_rejects_missing_and_undeclared_metrics() {
        let mut out = Outcome::default();
        for (name, _) in END_TO_END {
            out.metric(name, 1.5);
        }
        let line = render(&out, false).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        out.metric("service.validate_ms", 1.0);
        assert!(render(&out, false).is_err(), "undeclared metric");
        assert!(
            render(&Outcome::default(), true).is_err(),
            "missing metrics"
        );
    }
}
