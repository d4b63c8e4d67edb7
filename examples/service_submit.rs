//! Spec-driven quickstart: submit a Clapton job through the declarative
//! front door instead of hand-wiring backends, noise models, and engine
//! configs (compare `examples/quickstart.rs`, which tours the underlying
//! objects this spec compiles to).
//!
//! ```sh
//! cargo run --release --example service_submit
//! cargo run --release --example service_submit -- path/to/spec.json
//! ```

use clapton::runtime::{CancelToken, EventKind};
use clapton::service::{ClaptonService, JobSpec};

/// The whole job as data: what used to take a page of setup code is one
/// JSON document any entry point (builder, CLI, file, future daemon)
/// understands. Every omitted field keeps its default.
const SPEC: &str = r#"{
    "name": "quickstart",
    "problem": {"Suite": {"name": "ising(J=0.50)", "qubits": 6}},
    "noise": {"Uniform": {"p1": 0.001, "p2": 0.01, "readout": 0.025, "t1": 0.0001}},
    "methods": ["Cafqa", "Clapton"],
    "engine": "Quick",
    "seed": 42
}"#;

fn main() {
    // 1. A job arrives as JSON — from this string, a file argument, or any
    //    other transport.
    let text = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read spec file {path}: {e}")),
        None => SPEC.to_string(),
    };
    let spec: JobSpec = serde_json::from_str(&text).expect("spec parses");
    println!("submitting job {:?}:\n{text}", spec.display_name());

    // 2. Validation is explicit and typed: a bad registry name, a qubit
    //    mismatch, or an out-of-range rate comes back as a `SpecError`
    //    telling you exactly what to fix — no panics mid-run.
    if let Err(e) = spec.validate() {
        eprintln!("invalid spec: {e}");
        std::process::exit(2);
    }

    // 3. Admit the job, run it on a thread of its own (its searches fan out
    //    on the service's shared worker pool) and stream progress while it
    //    runs. The channel closes when the job ends.
    let service = ClaptonService::new();
    let admitted = service.admit(spec).expect("validated above");
    let (tx, rx) = std::sync::mpsc::channel();
    let report = std::thread::scope(|s| {
        let job = s.spawn(|| service.execute_admitted(&admitted, Some(tx), CancelToken::new()));
        for event in rx {
            match event.kind {
                EventKind::Started => println!("[{}] started", event.job),
                EventKind::Round(round, best) => {
                    println!("[{}] round {round}: best loss {best:.6}", event.job)
                }
                EventKind::Finished(outcome) => println!("[{}] {outcome}", event.job),
                _ => {}
            }
        }
        job.join().expect("job thread")
    });

    // 4. One unified report across every requested method.
    let report = report.expect("job converges");
    println!("\nexact ground energy E0 = {:.6}", report.e0);
    if let (Some(cafqa), Some(clapton)) =
        (&report.cafqa_initial_energy, &report.clapton_initial_energy)
    {
        println!("CAFQA initial device energy   = {cafqa:+.6}");
        println!("Clapton initial device energy = {clapton:+.6}");
        println!(
            "eta(initial)                  = {:.3}",
            report.eta_initial.unwrap()
        );
    }
    if let Some(clapton) = &report.clapton {
        println!(
            "Clapton: loss {:+.6} in {} rounds ({} unique evaluations, {} cache hits)",
            clapton.loss, clapton.rounds, clapton.unique_evaluations, clapton.cache_hits
        );
    }

    // 5. Warm resubmission: attach an artifact registry plus the persistent
    //    content-addressed store, solve the spec once, then throw the
    //    artifacts away. A fresh service on the same root still answers the
    //    identical spec from disk — byte-for-byte the cold report — without
    //    the search ever reaching the pool.
    let root = std::env::temp_dir().join(format!("clapton-service-submit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cold_service = ClaptonService::new()
        .with_artifacts(&root)
        .expect("registry opens")
        .with_cache_under(&root)
        .expect("store opens");
    let spec: JobSpec = serde_json::from_str(&text).expect("spec parses");
    let cold = cold_service.run(spec).expect("cold run converges");
    drop(cold_service); // like a process exit: the store flushes to disk
    let job_dir = std::fs::read_dir(&root)
        .expect("registry exists")
        .map(|e| e.expect("dirent").path())
        .find(|p| {
            // The store lives in the dot-prefixed `.cache`; keep only the
            // job's artifact directory.
            p.is_dir()
                && !p
                    .file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with('.'))
        })
        .expect("the cold run left one job directory");
    std::fs::remove_dir_all(&job_dir).expect("forget the artifacts");

    let warm_service = ClaptonService::new()
        .with_artifacts(&root)
        .expect("registry opens")
        .with_cache_under(&root)
        .expect("store opens");
    let spec: JobSpec = serde_json::from_str(&text).expect("spec parses");
    let warm = warm_service.run(spec).expect("warm run answers");
    let cold_bytes = serde_json::to_string(&cold).expect("report serializes");
    let warm_bytes = serde_json::to_string(&warm).expect("report serializes");
    assert_eq!(
        cold_bytes, warm_bytes,
        "the disk-served report must be byte-identical to the cold one"
    );
    let stats = warm_service.cache().expect("store attached").stats();
    println!(
        "\nwarm resubmission answered from the persistent store \
         ({} hits, {} entries) — report byte-identical to the cold run",
        stats.hits, stats.entries
    );
    let _ = std::fs::remove_dir_all(&root);
}
