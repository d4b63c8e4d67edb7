//! Loopback tests for the observability surface: `GET /metrics` must be a
//! parseable Prometheus exposition covering admission, queue, pool, cache,
//! and kernel series, and `GET /v1/jobs/{id}/trace` must agree span-for-span
//! with the `telemetry.jsonl` artifact the service wrote for the job, whose
//! tree holds the job's phases (rounds, their checkpoint writes, the report
//! and store writes) and nothing else.

use clapton_server::client::Client;
use clapton_server::{Server, ServerConfig, ServerHandle};
use clapton_service::{
    EngineSpec, JobSpec, NoiseSpec, ProblemSpec, SuiteProblem, UniformNoise, TELEMETRY_ARTIFACT,
};
use std::path::PathBuf;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("clapton-server-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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

fn start(config: ServerConfig) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("bind server");
    let handle = server.handle();
    let serve = std::thread::spawn(move || server.serve().expect("serve"));
    (handle, serve)
}

fn stop(handle: ServerHandle, serve: std::thread::JoinHandle<()>) {
    handle.drain();
    serve.join().expect("serve thread");
}

/// The one scrape the whole surface hangs off: run a job to completion,
/// then assert the exposition parses and carries every layer's series.
#[test]
fn metrics_scrape_covers_every_layer_and_trace_matches_the_artifact() {
    let root = scratch("telemetry");
    let (handle, serve) = start(ServerConfig::new(&root));
    let addr = handle.local_addr().to_string();
    let client = Client::new(&addr).with_tenant("observer");

    let spec = quick_spec(7);
    let response = client
        .submit(&serde_json::to_string(&spec).unwrap())
        .expect("submit");
    assert_eq!(response.status, 202, "{}", response.body);
    let id = response.job().unwrap().id;
    let job = client.wait(&id, Duration::from_secs(120)).expect("wait");
    assert_eq!(job.state, "done");

    // --- /metrics: parseable and covering every instrumented layer. ---
    let text = client.metrics().expect("scrape /metrics");
    let samples = clapton_telemetry::parse_text(&text).expect("exposition parses");
    let find = |name: &str| -> Vec<&clapton_telemetry::Sample> {
        samples.iter().filter(|s| s.name == name).collect()
    };
    // Admission layer: exactly one fresh admission for this tenant.
    let admitted = find("clapton_jobs_admitted_total");
    let ours = admitted
        .iter()
        .find(|s| s.label("tenant") == Some("observer"))
        .expect("admitted series for tenant");
    assert_eq!(ours.value, 1.0);
    let finished = find("clapton_jobs_finished_total");
    assert!(finished
        .iter()
        .any(|s| s.label("tenant") == Some("observer") && s.label("outcome") == Some("done")));
    // Queue layer: gauges synced at scrape time; nothing left queued.
    assert_eq!(find("clapton_queue_depth")[0].value, 0.0);
    assert!(samples
        .iter()
        .any(|s| s.name == "clapton_tenant_vtime_lag" && s.label("tenant") == Some("observer")));
    // Pool layer: workers exist and the job spawned tasks through them.
    assert!(!find("clapton_pool_workers_busy").is_empty());
    assert!(find("clapton_pool_tasks_spawned_total")[0].value > 0.0);
    // Scheduler layer: the job started and ran rounds.
    assert!(find("clapton_jobs_started_total")[0].value >= 1.0);
    assert!(find("clapton_job_rounds_total")[0].value > 0.0);
    // Cache layer: the cached evaluator inserted entries.
    assert!(find("clapton_eval_cache_inserts_total")[0].value > 0.0);
    // Kernel layer: Hamiltonian terms were evaluated.
    assert!(find("clapton_exact_terms_total")[0].value > 0.0);
    // Histogram invariant spot check: round latency count equals the
    // +Inf bucket and matches the rounds that were timed.
    let count = find("clapton_round_latency_seconds_count")[0].value;
    let inf_bucket = samples
        .iter()
        .find(|s| s.name == "clapton_round_latency_seconds_bucket" && s.label("le") == Some("+Inf"))
        .expect("+Inf bucket");
    assert_eq!(count, inf_bucket.value);

    // --- Trace endpoint vs the on-disk artifact: same span tree. ---
    let trace = client.trace(&id).expect("trace endpoint");
    assert_eq!(trace.id, id);
    assert_eq!(trace.spans.len(), 1, "one root job span");
    let job_root = &trace.spans[0];
    assert_eq!(job_root.name, "job");
    let clapton = job_root
        .children
        .iter()
        .find(|c| c.name == "clapton")
        .expect("clapton method span under the job root");
    let named = |name: &str| -> Vec<&clapton_telemetry::SpanNode> {
        clapton.children.iter().filter(|c| c.name == name).collect()
    };
    let (rounds, checkpoints) = (named("round"), named("checkpoint"));
    assert!(!rounds.is_empty(), "round spans under the clapton span");
    assert_eq!(
        checkpoints.len(),
        rounds.len(),
        "one checkpoint span per round under the clapton span"
    );
    for round in &rounds {
        for checkpoint in &checkpoints {
            assert!(
                round.end_ns <= checkpoint.start_ns || checkpoint.end_ns <= round.start_ns,
                "a round overlaps a checkpoint write"
            );
        }
    }
    // A served job has a store attached, so its report write to the store
    // is a phase too.
    for phase in ["e0", "device_energy", "report_write", "store_write"] {
        assert!(
            job_root.children.iter().any(|c| c.name == phase),
            "{phase} span under the job root"
        );
    }
    // Phases only: the pooled population batches open no spans.
    const PHASES: [&str; 11] = [
        "job",
        "e0",
        "cafqa",
        "ncafqa",
        "clapton",
        "round",
        "checkpoint",
        "device_energy",
        "vqe",
        "report_write",
        "store_write",
    ];
    let mut stack: Vec<&clapton_telemetry::SpanNode> = trace.spans.iter().collect();
    while let Some(node) = stack.pop() {
        assert!(
            PHASES.contains(&node.name.as_str()),
            "{:?} is not a job phase",
            node.name
        );
        stack.extend(&node.children);
    }

    let artifact_dir = std::fs::read_dir(root.join("artifacts"))
        .expect("artifacts dir")
        .map(|e| e.expect("dirent").path())
        .find(|p| {
            // Skip registry-internal state such as the `.cache` store.
            p.is_dir()
                && !p
                    .file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with('.'))
        })
        .expect("one artifact dir");
    let jsonl =
        std::fs::read_to_string(artifact_dir.join(TELEMETRY_ARTIFACT)).expect("telemetry.jsonl");
    let records = clapton_telemetry::from_jsonl(&jsonl).expect("jsonl parses");
    assert_eq!(
        clapton_telemetry::span_tree(&records),
        trace.spans,
        "trace endpoint and telemetry.jsonl disagree"
    );

    // Unknown job and wrong method come back as clean protocol errors.
    assert!(client.trace("job-999999").is_err());
    let method_not_allowed = client
        .request("POST", &format!("/v1/jobs/{id}/trace"), None)
        .expect("request");
    assert_eq!(method_not_allowed.status, 405);
    let metrics_post = client.request("POST", "/metrics", None).expect("request");
    assert_eq!(metrics_post.status, 405);

    stop(handle, serve);
    let _ = std::fs::remove_dir_all(&root);
}
