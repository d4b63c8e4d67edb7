//! Property test: span trees stay well-formed under nested pool fan-out.
//!
//! A traced "job" fans out tasks on the worker pool, and each task opens a
//! nested scope of its own. `WorkerPool::scope` carries the spawner's span
//! context into every task, so a span opened in a task joins the job's
//! trace whether the scope owner runs the task or a worker steals it.
//! Whatever the interleaving of owners and stealing workers, the collected
//! trace must be a single tree with correct parent linkage and temporal
//! containment.

use clapton_runtime::WorkerPool;
use clapton_telemetry::{push_context, span, span_tree, SpanRecord, Trace};
use proptest::prelude::*;

/// Asserts parent linkage, id uniqueness, and temporal containment, and
/// returns the records grouped as a tree.
fn assert_well_formed(records: &[SpanRecord], trace_id: u64) {
    let mut ids = std::collections::HashSet::new();
    for rec in records {
        assert!(rec.span != 0, "span ids are never 0");
        assert!(ids.insert(rec.span), "span id {} duplicated", rec.span);
        assert_eq!(rec.trace, trace_id, "every record belongs to the trace");
        assert!(rec.start_ns <= rec.end_ns, "spans close after they open");
    }
    let by_id: std::collections::HashMap<u64, &SpanRecord> =
        records.iter().map(|r| (r.span, r)).collect();
    for rec in records {
        if rec.parent == 0 {
            continue;
        }
        let parent = by_id
            .get(&rec.parent)
            .unwrap_or_else(|| panic!("{}'s parent {} missing", rec.name, rec.parent));
        assert!(
            parent.start_ns <= rec.start_ns && rec.end_ns <= parent.end_ns,
            "child {:?} [{}, {}] escapes parent {:?} [{}, {}]",
            rec.name,
            rec.start_ns,
            rec.end_ns,
            parent.name,
            parent.start_ns,
            parent.end_ns
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn span_trees_are_well_formed_under_nested_fanout(
        workers in 0usize..4,
        jobs in 1usize..5,
        chunks in 1usize..6,
    ) {
        let pool = WorkerPool::with_workers(workers);
        let trace = Trace::begin();
        {
            let _ctx = push_context(trace.context());
            let _job = span("job");
            pool.scope(|s| {
                for _ in 0..jobs {
                    let pool = &pool;
                    s.spawn(move || {
                        let _batch = span("batch");
                        pool.scope(|inner| {
                            for _ in 0..chunks {
                                inner.spawn(|| {
                                    let _chunk = span("chunk");
                                    std::hint::black_box(7u64.pow(3));
                                });
                            }
                        });
                    });
                }
            });
        }
        let records = trace.finish();
        prop_assert_eq!(records.len(), 1 + jobs * (1 + chunks));
        assert_well_formed(&records, trace.id());

        // Structure: one root ("job") -> `jobs` batches -> `chunks` chunks.
        let forest = span_tree(&records);
        prop_assert_eq!(forest.len(), 1, "a single root");
        let root = &forest[0];
        prop_assert_eq!(root.name.as_str(), "job");
        prop_assert_eq!(root.children.len(), jobs);
        for batch in &root.children {
            prop_assert_eq!(batch.name.as_str(), "batch");
            prop_assert_eq!(batch.children.len(), chunks);
            for chunk in &batch.children {
                prop_assert_eq!(chunk.name.as_str(), "chunk");
                prop_assert!(chunk.children.is_empty());
            }
        }
    }
}
