//! In-process loopback tests: real sockets, real dispatchers, one process.
//!
//! Covers the admission-control contract (fair-share dispatch order,
//! bounded-queue and rate-limit shedding with `Retry-After`), mid-run
//! cooperative cancellation, idempotent resubmission, and the served
//! report's byte-identity with an in-process `ClaptonService::run`.

use clapton_server::client::Client;
use clapton_server::{AdmissionConfig, Server, ServerConfig, ServerHandle};
use clapton_service::{
    ClaptonService, EngineSpec, JobSpec, MethodSpec, NoiseSpec, ProblemSpec, SuiteProblem,
    UniformNoise,
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

/// A spec that reliably spans many GA round boundaries (cannot converge
/// before `max_rounds`), giving cancellation and crash tests their window.
fn long_spec(seed: u64) -> JobSpec {
    let mut spec = quick_spec(seed);
    spec.engine = EngineSpec::Custom(clapton_ga::MultiGaConfig {
        instances: 2,
        top_k: 4,
        max_retry_rounds: 200,
        max_rounds: 120,
        pool_fraction: 0.5,
        parallel: false,
        ga: clapton_ga::GaConfig {
            population_size: 24,
            generations: 12,
            ..clapton_ga::GaConfig::default()
        },
    });
    spec.methods = vec![MethodSpec::Clapton];
    spec
}

fn spec_json(spec: &JobSpec) -> String {
    serde_json::to_string(spec).expect("spec serializes")
}

/// Starts a server on a loopback port and returns (handle, serve-thread).
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
fn fair_share_interleaves_two_tenants_bursts() {
    let root = scratch("fair-share");
    let mut config = ServerConfig::new(&root);
    config.dispatchers = 1;
    let (handle, serve) = start(config);
    let addr = handle.local_addr().to_string();
    let alice = Client::new(&addr).with_tenant("alice");
    let bob = Client::new(&addr).with_tenant("bob");

    // A plug job occupies the single dispatcher so the whole two-tenant
    // burst is queued before fair-share ordering gets to act on it.
    let plug = alice
        .submit(&spec_json(&long_spec(99)))
        .expect("submit plug");
    assert_eq!(plug.status, 202);
    let plug_id = plug.job().unwrap().id;

    // alice dumps her burst first, bob second — FIFO would run all of
    // alice's jobs before bob's.
    let mut ids: Vec<(String, String)> = Vec::new();
    for seed in 0..3 {
        let r = alice.submit(&spec_json(&quick_spec(seed))).expect("submit");
        assert_eq!(r.status, 202, "{}", r.body);
        ids.push(("alice".to_string(), r.job().unwrap().id));
    }
    for seed in 10..13 {
        let r = bob.submit(&spec_json(&quick_spec(seed))).expect("submit");
        assert_eq!(r.status, 202, "{}", r.body);
        ids.push(("bob".to_string(), r.job().unwrap().id));
    }
    // Unplug: cancel the long job; the dispatcher then drains the burst.
    alice.cancel(&plug_id).expect("cancel plug");
    for (_, id) in &ids {
        alice.wait(id, Duration::from_secs(120)).expect("job done");
    }
    // Dispatch order alternates tenants: alice, bob, alice, bob, …
    let mut order: Vec<(u64, String)> = ids
        .iter()
        .map(|(tenant, id)| {
            let job = alice.status(id).unwrap().job().unwrap();
            (job.dispatch_seq.expect("dispatched"), tenant.clone())
        })
        .collect();
    order.sort();
    let tenants: Vec<&str> = order.iter().map(|(_, t)| t.as_str()).collect();
    // The plug already advanced alice's virtual time, so bob leads; from
    // there equal weights alternate strictly. Plain FIFO would have run
    // alice's entire burst first.
    assert_eq!(
        tenants,
        vec!["bob", "alice", "bob", "alice", "bob", "alice"],
        "equal-weight tenants alternate in dispatch order: {order:?}"
    );

    // The queue endpoint accounts for both tenants.
    let queue = alice.queue().expect("queue stats");
    assert_eq!(queue.depth, 0);
    assert!(queue.accepting);
    let by_name: Vec<(&str, u64)> = queue
        .tenants
        .iter()
        .map(|t| (t.tenant.as_str(), t.completed))
        .collect();
    assert_eq!(
        by_name,
        vec![("alice", 4), ("bob", 3)],
        "{:?}",
        queue.tenants
    );
    stop(handle, serve);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_budgeted_job_completes_once_however_many_dispatches_it_takes() {
    let root = scratch("budgeted");
    let (handle, serve) = start(ServerConfig::new(&root));
    let client = Client::new(handle.local_addr().to_string()).with_tenant("budgeted");
    let mut spec = quick_spec(31);
    spec.budget = Some(1);
    let id = client.submit(&spec_json(&spec)).unwrap().job().unwrap().id;
    let job = client.wait(&id, Duration::from_secs(120)).unwrap();
    assert_eq!(job.state, "done");
    let rounds = job
        .report
        .expect("done jobs carry the report")
        .clapton
        .unwrap()
        .rounds;
    assert!(rounds > 1, "one round per dispatch, so {rounds} dispatches");
    // The dispatcher releases the job's last dispatch just after settling
    // it; the count of completed jobs is already final.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let tenant = loop {
        let queue = client.queue().expect("queue stats");
        let tenant = queue
            .tenants
            .into_iter()
            .find(|t| t.tenant == "budgeted")
            .unwrap();
        assert_eq!(tenant.completed, 1, "counted once, not once per dispatch");
        if tenant.running == 0 || std::time::Instant::now() > deadline {
            break tenant;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!((tenant.queued, tenant.running), (0, 0));
    stop(handle, serve);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn full_queue_and_rate_limits_shed_with_retry_after() {
    let root = scratch("shed");
    let mut config = ServerConfig::new(&root);
    config.dispatchers = 0; // admission-only: nothing ever leaves the queue
    config.admission = AdmissionConfig {
        queue_depth: 2,
        ..AdmissionConfig::default()
    };
    let (handle, serve) = start(config);
    let client = Client::new(handle.local_addr().to_string()).with_tenant("t");
    for seed in 0..2 {
        let r = client.submit(&spec_json(&quick_spec(seed))).unwrap();
        assert_eq!(r.status, 202, "{}", r.body);
    }
    let full = client.submit(&spec_json(&quick_spec(2))).unwrap();
    assert_eq!(full.status, 429);
    assert!(
        full.header("retry-after").is_some(),
        "429 carries Retry-After: {:?}",
        full.headers
    );
    assert!(full.error().unwrap().contains("queue full"));
    // The two accepted jobs are still visible and queued.
    let queue = client.queue().unwrap();
    assert_eq!((queue.depth, queue.capacity), (2, 2));
    stop(handle, serve);

    // A separate server with a dry token bucket sheds by tenant.
    let root2 = scratch("rate");
    let mut config = ServerConfig::new(&root2);
    config.dispatchers = 0;
    config.admission = AdmissionConfig {
        rate: 0.01,
        burst: 1.0,
        ..AdmissionConfig::default()
    };
    let (handle, serve) = start(config);
    let addr = handle.local_addr().to_string();
    let greedy = Client::new(&addr).with_tenant("greedy");
    let polite = Client::new(&addr).with_tenant("polite");
    assert_eq!(
        greedy.submit(&spec_json(&quick_spec(0))).unwrap().status,
        202
    );
    let limited = greedy.submit(&spec_json(&quick_spec(1))).unwrap();
    assert_eq!(limited.status, 429);
    let retry_after: u64 = limited
        .header("retry-after")
        .expect("Retry-After present")
        .parse()
        .expect("Retry-After is seconds");
    assert!(retry_after >= 1, "bucket refills at 0.01/s");
    // The bucket is per tenant: another tenant is unaffected.
    assert_eq!(
        polite.submit(&spec_json(&quick_spec(2))).unwrap().status,
        202
    );
    stop(handle, serve);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&root2);
}

#[test]
fn cancel_mid_run_persists_and_stops_checkpointing() {
    let root = scratch("cancel");
    let mut config = ServerConfig::new(&root);
    config.dispatchers = 1;
    let (handle, serve) = start(config);
    let client = Client::new(handle.local_addr().to_string()).with_tenant("t");
    let spec = long_spec(13);
    let submitted = client.submit(&spec_json(&spec)).unwrap();
    assert_eq!(submitted.status, 202);
    let id = submitted.job().unwrap().id;

    // Wait for the first durable round checkpoint, then cancel.
    let checkpoint = root
        .join("artifacts")
        .join("ising-J-0.50-seed13")
        .join("checkpoint.json");
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !checkpoint.is_file() {
        assert!(
            std::time::Instant::now() < deadline,
            "job never checkpointed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let cancelled = client.cancel(&id).unwrap();
    assert!(
        cancelled.status == 200 || cancelled.status == 202,
        "{} {}",
        cancelled.status,
        cancelled.body
    );
    let job = client.wait(&id, Duration::from_secs(60)).unwrap();
    assert_eq!(job.state, "cancelled");
    let rounds = job.rounds.expect("cancelled jobs report rounds");
    assert!(rounds < 120, "cancellation interrupted the search");

    // Terminal state is persisted, and no further checkpoints appear.
    let state_file = root
        .join("artifacts")
        .join("ising-J-0.50-seed13")
        .join("state.json");
    assert!(state_file.is_file(), "terminal state persisted");
    let frozen = std::fs::read(&checkpoint).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        std::fs::read(&checkpoint).unwrap(),
        frozen,
        "no checkpoints written after cancellation"
    );

    // The event stream ends with the cancellation event.
    let events = client.events(&id).unwrap();
    assert!(events.last().unwrap().contains("Cancelled"), "{events:?}");
    // Sticky: resubmitting the cancelled spec reports the cancellation.
    let again = client.submit(&spec_json(&spec)).unwrap();
    assert_eq!(again.status, 200, "{}", again.body);
    let body = again.job().unwrap();
    assert_eq!(body.state, "cancelled");
    assert_eq!(body.rounds, Some(rounds));
    stop(handle, serve);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn served_reports_are_byte_identical_to_in_process_runs() {
    let root = scratch("identity");
    let (handle, serve) = start(ServerConfig::new(&root));
    let client = Client::new(handle.local_addr().to_string()).with_tenant("t");
    let spec = quick_spec(21);
    let id = client.submit(&spec_json(&spec)).unwrap().job().unwrap().id;
    let job = client.wait(&id, Duration::from_secs(120)).unwrap();
    assert_eq!(job.state, "done");
    let served = job.report.expect("done jobs carry the report");

    let reference = ClaptonService::new().run(spec.clone()).expect("reference");
    assert_eq!(
        serde_json::to_string(&served).unwrap(),
        serde_json::to_string(&reference).unwrap(),
        "served report must be byte-identical to the in-process run"
    );

    // Conflicting spec under the same name+seed: 409, artifacts untouched.
    let mut conflicting = spec.clone();
    conflicting.noise = NoiseSpec::Noiseless;
    let conflict = client.submit(&spec_json(&conflicting)).unwrap();
    assert_eq!(conflict.status, 409, "{}", conflict.body);

    // Resubmission of the identical spec: answered from artifacts, no
    // second run, same report.
    let cached = client.submit(&spec_json(&spec)).unwrap();
    assert_eq!(cached.status, 200, "{}", cached.body);
    let cached_job = cached.job().unwrap();
    assert_eq!(cached_job.state, "done");
    assert_eq!(
        serde_json::to_string(&cached_job.report.unwrap()).unwrap(),
        serde_json::to_string(&reference).unwrap()
    );

    // Garbage submissions are a 400, not a hang or a 500.
    let garbage = client
        .request("POST", "/v1/jobs", Some("{not json"))
        .unwrap();
    assert_eq!(garbage.status, 400);
    let missing = client.status("job-999999").unwrap();
    assert_eq!(missing.status, 404);
    stop(handle, serve);
    let _ = std::fs::remove_dir_all(&root);
}
