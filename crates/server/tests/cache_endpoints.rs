//! The persistent result store over the wire: `GET`/`DELETE /v1/cache`,
//! warm admission answering a solved spec across a server restart without
//! touching the pool, and the cache metrics on `/metrics`.

use clapton_server::client::Client;
use clapton_server::{Server, ServerConfig, ServerHandle};
use clapton_service::{EngineSpec, JobSpec, NoiseSpec, ProblemSpec, SuiteProblem, UniformNoise};
use std::path::PathBuf;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clapton-cache-srv-{tag}-{}", std::process::id()));
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

fn spec_json(spec: &JobSpec) -> String {
    serde_json::to_string(spec).expect("spec serializes")
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

#[test]
fn warm_admission_answers_across_restart_and_flush_forgets() {
    let root = scratch("warm");

    // Life 1: solve the spec cold; its report, and nothing else, enters the
    // store.
    let (handle, serve) = start(ServerConfig::new(&root));
    let client = Client::new(handle.local_addr().to_string());
    let submitted = client.submit(&spec_json(&quick_spec(21))).expect("submit");
    assert_eq!(submitted.status, 202, "{}", submitted.body);
    let id = submitted.job().unwrap().id;
    let done = client.wait(&id, Duration::from_secs(120)).expect("done");
    let cold_report = done.report.expect("report");
    let stats = client.cache_stats().expect("cache stats");
    assert_eq!(stats.entries, 1, "solved spec entered the store: {stats:?}");
    stop(handle, serve);

    // Delete the job's artifacts: only the store remembers the answer now.
    let job_dir = root.join("artifacts").join("ising-J-0.50-seed21");
    std::fs::remove_dir_all(&job_dir).expect("remove job artifacts");

    // Life 2: the same spec answers 200 immediately — warm admission, no
    // queue slot, no dispatcher time.
    let (handle, serve) = start(ServerConfig::new(&root));
    let client = Client::new(handle.local_addr().to_string());
    let warm = client.submit(&spec_json(&quick_spec(21))).expect("submit");
    assert_eq!(
        warm.status, 200,
        "warm spec answers at admission: {}",
        warm.body
    );
    let warm_body = warm.job().unwrap();
    assert_eq!(warm_body.state, "done");
    assert_eq!(warm_body.report.expect("warm report"), cold_report);
    let stats = client.cache_stats().expect("cache stats");
    assert!(stats.hits > 0, "warm admission hit the store: {stats:?}");

    // The cache counters are on the exposition surface.
    let metrics = client.metrics().expect("metrics");
    assert!(
        metrics.contains("clapton_cache_hits_total"),
        "cache counters exported"
    );

    // Flush: the store forgets, and a resubmission (artifacts gone too)
    // queues for real work again.
    let cleared = client.cache_flush().expect("flush");
    assert_eq!(cleared, 1, "flush reported the one dropped report");
    assert_eq!(client.cache_stats().expect("stats").entries, 0);
    std::fs::remove_dir_all(&job_dir).expect("remove rematerialized artifacts");
    let cold_again = client.submit(&spec_json(&quick_spec(21))).expect("submit");
    assert_eq!(cold_again.status, 202, "{}", cold_again.body);
    let id = cold_again.job().unwrap().id;
    let redone = client.wait(&id, Duration::from_secs(120)).expect("done");
    assert_eq!(
        redone.report.expect("recomputed report"),
        cold_report,
        "recomputation is bit-identical"
    );

    // Method checks: cache path rejects what it should.
    let bad = client.request("POST", "/v1/cache", None).expect("request");
    assert_eq!(bad.status, 405);

    stop(handle, serve);
    let _ = std::fs::remove_dir_all(&root);
}
