//! Zero-dependency observability core for the Clapton stack: tracing spans
//! with cross-thread parent linkage, and a metrics registry of counters,
//! gauges, and fixed-bucket histograms rendered in the Prometheus text
//! exposition format.
//!
//! A span is kept only inside a registered [`Trace`]: the service opens one
//! per job, and its records become the job's `telemetry.jsonl`.
//!
//! One off switch exists: [`set_enabled`]`(false)` turns every span
//! constructor and metric update into a single relaxed atomic load. Clock
//! helpers ([`mono_ns`], [`wall_ns`]) ignore it because protocol timestamps
//! (e.g. SSE event frames) must stay meaningful regardless.
//!
//! The crate also hosts [`Fnv1a`], the content hash every layer above
//! shares, because it is the one crate all of them depend on.

mod hash;
pub mod metrics;
pub mod span;

pub use hash::{fnv1a64, Fnv1a};
pub use metrics::{parse_text, registry, Counter, Gauge, Histogram, Registry, Sample};
pub use span::{
    current_context, from_jsonl, mono_ns, push_context, record_complete, span, span_tree, to_jsonl,
    wall_ns, ContextGuard, Span, SpanContext, SpanNode, SpanRecord, Trace,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns telemetry collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry collection is currently active.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that rely on the process-wide enabled flag.
    fn exclusive() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn nested_spans_link_to_their_parents() {
        let _gate = exclusive();
        let trace = Trace::begin();
        {
            let _ctx = push_context(trace.context());
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let records = trace.finish();
        assert_eq!(records.len(), 2);
        let outer = records.iter().find(|r| r.name == "outer").unwrap();
        let inner = records.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.span);
        assert_eq!(outer.trace, trace.id());
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn context_guard_restores_previous_context() {
        let _gate = exclusive();
        let before = current_context();
        let trace = Trace::begin();
        {
            let _ctx = push_context(trace.context());
            assert_eq!(current_context().trace, trace.id());
        }
        assert_eq!(current_context(), before);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _gate = exclusive();
        let trace = Trace::begin();
        set_enabled(false);
        {
            let _ctx = push_context(trace.context());
            let _span = span("invisible");
        }
        set_enabled(true);
        assert!(trace.finish().is_empty());
    }

    #[test]
    fn spans_outside_a_registered_trace_are_dropped() {
        let _gate = exclusive();
        let trace = Trace::begin();
        let finished = Trace::begin();
        let stale = finished.context();
        assert!(finished.finish().is_empty());
        {
            let _untraced = span("untraced");
            let _ctx = push_context(stale);
            let _late = span("late");
            record_complete("late_round", mono_ns(), mono_ns());
        }
        assert!(trace.finish().is_empty());
        assert!(finished.finish().is_empty());
    }

    #[test]
    fn record_complete_attaches_to_ambient_parent() {
        let _gate = exclusive();
        let trace = Trace::begin();
        {
            let _ctx = push_context(trace.context());
            let _outer = span("outer");
            let start = mono_ns();
            record_complete("round", start, mono_ns());
        }
        let records = trace.finish();
        let outer = records.iter().find(|r| r.name == "outer").unwrap();
        let round = records.iter().find(|r| r.name == "round").unwrap();
        assert_eq!(round.parent, outer.span);
    }

    #[test]
    fn span_records_round_trip_through_jsonl() {
        let _gate = exclusive();
        let trace = Trace::begin();
        {
            let _ctx = push_context(trace.context());
            let _a = span("a");
            let _b = span("b");
        }
        let records = trace.finish();
        let parsed = from_jsonl(&to_jsonl(&records)).expect("jsonl parses");
        assert_eq!(parsed, records);
        assert_eq!(span_tree(&parsed), span_tree(&records));
    }
}
