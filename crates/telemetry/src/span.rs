//! Tracing spans: RAII guards with monotonic start/stop timestamps and
//! parent linkage through a thread-local context. Nothing crosses threads
//! implicitly: a thread joins a trace only by installing its context
//! ([`push_context`]), and pool tasks open no spans.
//!
//! Finished spans have one sink: the bounded buffer of the registered
//! [`Trace`] whose id they carry, drained by [`Trace::finish`]. A span
//! opened outside every registered trace records nothing.

use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Spans a single trace will retain before dropping further records.
const TRACE_CAP: usize = 16 * 1024;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// One finished span.
#[derive(Serialize, Deserialize, Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Id of the registered [`Trace`] this span belongs to.
    pub trace: u64,
    /// Process-unique span id (never 0).
    pub span: u64,
    /// Parent span id (0: root of its trace).
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Process-local id of the thread the span ran on.
    pub thread: u64,
    /// Wall-clock start, nanoseconds since the Unix epoch.
    pub start_unix_ns: u64,
    /// Monotonic start, nanoseconds since process telemetry epoch.
    pub start_ns: u64,
    /// Monotonic end, nanoseconds since process telemetry epoch.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process telemetry epoch. Unaffected by
/// the enabled flag so protocol timestamps stay meaningful.
pub fn mono_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Wall-clock nanoseconds since the Unix epoch (0 when the clock is before
/// the epoch).
pub fn wall_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: Cell<u64> = const { Cell::new(0) };
    }
    ID.with(|id| {
        if id.get() == 0 {
            id.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

/// The ambient (trace, parent-span) pair new spans attach to.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct SpanContext {
    /// Trace id (0: none).
    pub trace: u64,
    /// Parent span id for the next child (0: root).
    pub parent: u64,
}

thread_local! {
    static CURRENT: Cell<SpanContext> = const { Cell::new(SpanContext { trace: 0, parent: 0 }) };
}

/// This thread's ambient span context (capture it before handing work to
/// another thread, then [`push_context`] it there).
pub fn current_context() -> SpanContext {
    CURRENT.with(Cell::get)
}

/// Installs `ctx` as this thread's ambient context until the guard drops.
pub fn push_context(ctx: SpanContext) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace(ctx));
    ContextGuard {
        prev,
        _not_send: PhantomData,
    }
}

/// Restores the previous ambient context on drop. Not `Send`: must drop on
/// the thread that created it.
#[must_use = "dropping the guard immediately restores the previous context"]
pub struct ContextGuard {
    prev: SpanContext,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// An in-flight span; records itself on drop. Inert (no allocation, no
/// clock reads) while telemetry is disabled.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span {
    active: Option<ActiveSpan>,
    _not_send: PhantomData<*const ()>,
}

struct ActiveSpan {
    name: &'static str,
    restore: SpanContext,
    trace: u64,
    span: u64,
    parent: u64,
    start_unix_ns: u64,
    start_ns: u64,
}

/// Opens a span as a child of the ambient context and makes it the new
/// ambient parent until the guard drops.
pub fn span(name: &'static str) -> Span {
    if !crate::enabled() {
        return Span {
            active: None,
            _not_send: PhantomData,
        };
    }
    let before = CURRENT.with(Cell::get);
    let id = next_span_id();
    CURRENT.with(|c| {
        c.set(SpanContext {
            trace: before.trace,
            parent: id,
        })
    });
    Span {
        active: Some(ActiveSpan {
            name,
            restore: before,
            trace: before.trace,
            span: id,
            parent: before.parent,
            start_unix_ns: wall_ns(),
            start_ns: mono_ns(),
        }),
        _not_send: PhantomData,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let end_ns = mono_ns();
        CURRENT.with(|c| c.set(active.restore));
        record(SpanRecord {
            trace: active.trace,
            span: active.span,
            parent: active.parent,
            name: active.name.to_string(),
            thread: thread_id(),
            start_unix_ns: active.start_unix_ns,
            start_ns: active.start_ns,
            end_ns,
        });
    }
}

/// Records an already-finished interval (e.g. a GA round stitched
/// from callback timestamps) as a child of the ambient context. `start_ns`
/// and `end_ns` are [`mono_ns`] readings.
pub fn record_complete(name: &str, start_ns: u64, end_ns: u64) {
    if !crate::enabled() {
        return;
    }
    let ctx = CURRENT.with(Cell::get);
    let now_mono = mono_ns();
    let start_unix_ns = wall_ns().saturating_sub(now_mono.saturating_sub(start_ns));
    record(SpanRecord {
        trace: ctx.trace,
        span: next_span_id(),
        parent: ctx.parent,
        name: name.to_string(),
        thread: thread_id(),
        start_unix_ns,
        start_ns,
        end_ns,
    });
}

/// One registered trace's finished records.
type TraceBuf = Arc<Mutex<Vec<SpanRecord>>>;

fn traces() -> &'static Mutex<HashMap<u64, TraceBuf>> {
    static TRACES: OnceLock<Mutex<HashMap<u64, TraceBuf>>> = OnceLock::new();
    TRACES.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Appends `rec` to its trace's buffer, up to `TRACE_CAP` records. A
/// record whose trace is not registered (none, or one already finished) is
/// dropped.
fn record(rec: SpanRecord) {
    let buf = lock(traces()).get(&rec.trace).cloned();
    if let Some(buf) = buf {
        let mut records = lock(&buf);
        if records.len() < TRACE_CAP {
            records.push(rec);
        }
    }
}

/// A registered span collection. Spans created under this trace's context
/// (on any thread) collect into a bounded buffer until [`Trace::finish`].
#[derive(Debug)]
pub struct Trace {
    id: u64,
}

impl Trace {
    /// Registers a new trace with a fresh process-unique id.
    pub fn begin() -> Trace {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        lock(traces()).insert(id, TraceBuf::default());
        Trace { id }
    }

    /// The trace id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The context to install (via [`push_context`]) on threads that should
    /// collect into this trace.
    pub fn context(&self) -> SpanContext {
        SpanContext {
            trace: self.id,
            parent: 0,
        }
    }

    /// Deregisters the trace and returns its records sorted by start time.
    /// Spans still open when this is called are not included.
    pub fn finish(&self) -> Vec<SpanRecord> {
        let buf = lock(traces()).remove(&self.id);
        let mut records = match buf {
            Some(buf) => std::mem::take(&mut *lock(&buf)),
            None => Vec::new(),
        };
        records.sort_by_key(|r| (r.start_ns, r.span));
        records
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        lock(traces()).remove(&self.id);
    }
}

/// One node of a reassembled span tree; children sorted by start time.
#[derive(Serialize, Deserialize, Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Span id.
    pub span: u64,
    /// Parent span id (0 for roots).
    pub parent: u64,
    /// Thread the span ran on.
    pub thread: u64,
    /// Wall-clock start (ns since Unix epoch).
    pub start_unix_ns: u64,
    /// Monotonic start (ns).
    pub start_ns: u64,
    /// Monotonic end (ns).
    pub end_ns: u64,
    /// Child spans, sorted by `start_ns`.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Node duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Reassembles flat records into a forest. A record whose parent id is
/// absent from `records` becomes a root, so partial traces still render.
pub fn span_tree(records: &[SpanRecord]) -> Vec<SpanNode> {
    let known: HashMap<u64, usize> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.span, i))
        .collect();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut roots = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        if rec.parent != 0 && known.contains_key(&rec.parent) {
            children.entry(rec.parent).or_default().push(i);
        } else {
            roots.push(i);
        }
    }
    fn build(idx: usize, records: &[SpanRecord], children: &HashMap<u64, Vec<usize>>) -> SpanNode {
        let rec = &records[idx];
        let mut kids: Vec<SpanNode> = children
            .get(&rec.span)
            .map(|ids| {
                ids.iter()
                    .map(|&child| build(child, records, children))
                    .collect()
            })
            .unwrap_or_default();
        kids.sort_by_key(|n| (n.start_ns, n.span));
        SpanNode {
            name: rec.name.clone(),
            span: rec.span,
            parent: rec.parent,
            thread: rec.thread,
            start_unix_ns: rec.start_unix_ns,
            start_ns: rec.start_ns,
            end_ns: rec.end_ns,
            children: kids,
        }
    }
    let mut forest: Vec<SpanNode> = roots
        .into_iter()
        .map(|idx| build(idx, records, &children))
        .collect();
    forest.sort_by_key(|n| (n.start_ns, n.span));
    forest
}

/// Serializes records as one JSON object per line (the `telemetry.jsonl`
/// artifact format).
pub fn to_jsonl(records: &[SpanRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&serde_json::to_string(rec).expect("span record serializes"));
        out.push('\n');
    }
    out
}

/// Parses a `telemetry.jsonl` document back into records.
///
/// # Errors
///
/// A description of the first malformed line.
pub fn from_jsonl(text: &str) -> Result<Vec<SpanRecord>, String> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .enumerate()
        .map(|(i, line)| serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}
