//! Multi-tenant admission control: bounded depth, per-tenant token-bucket
//! rate limiting, and weighted fair-share dequeue ordering.
//!
//! The worker pool is the scarce resource — dispatch is ~15µs against
//! ~tens of milliseconds per job — so saturation policy lives entirely at
//! this queue: a submission is either *admitted* (and durably recorded by
//! the caller before the client sees a 202) or *shed* with an explicit
//! retry signal, never silently delayed into an unbounded backlog.
//!
//! Ordering is start-time weighted fair queueing: each tenant holds a FIFO
//! of its admitted jobs and a virtual time that advances by `1/weight` per
//! dispatched job; dequeue always picks the backlogged tenant with the
//! smallest virtual time (ties broken by tenant name, so the order is
//! deterministic). Two equal-weight tenants that each dump 2N jobs see
//! their completions interleave instead of the second tenant starving
//! behind the first's burst; a weight-2 tenant receives two dispatches for
//! every one of a weight-1 tenant while both are backlogged.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Admission-control settings (see [`crate::ServerConfig`] for the wire-in).
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Maximum jobs queued (not yet dispatched) across all tenants.
    pub queue_depth: usize,
    /// Token-bucket refill rate per tenant, submissions/second
    /// (`0` disables rate limiting).
    pub rate: f64,
    /// Token-bucket capacity per tenant (burst size).
    pub burst: f64,
    /// Explicit per-tenant fair-share weights; unlisted tenants get 1.0.
    pub weights: Vec<(String, f64)>,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            queue_depth: 256,
            rate: 0.0,
            burst: 64.0,
            weights: Vec::new(),
        }
    }
}

/// Why a submission was shed instead of admitted.
#[derive(Debug, Clone, PartialEq)]
pub enum Shed {
    /// The tenant's token bucket is empty; retry after the given seconds.
    RateLimited {
        /// Whole seconds until the bucket refills one token.
        retry_after_secs: u64,
    },
    /// The bounded queue is at capacity.
    QueueFull {
        /// Current queue depth (== capacity).
        depth: usize,
    },
    /// The queue is closed (server draining); nothing is admitted anymore.
    Closed,
}

/// A classic token bucket over a monotonic clock.
#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn try_take(&mut self, now: Instant, rate: f64, burst: f64) -> Result<(), u64> {
        if rate <= 0.0 {
            return Ok(());
        }
        self.tokens = (self.tokens + now.duration_since(self.last).as_secs_f64() * rate).min(burst);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            Err(((1.0 - self.tokens) / rate).ceil().max(1.0) as u64)
        }
    }
}

/// Live per-tenant usage, as reported by [`AdmissionQueue::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantUsage {
    /// Tenant name (`X-Tenant` header value).
    pub tenant: String,
    /// Fair-share weight.
    pub weight: f64,
    /// Jobs admitted but not yet dispatched.
    pub queued: usize,
    /// Jobs dispatched and currently executing.
    pub running: usize,
    /// Jobs that reached a terminal state (done, cancelled or failed), each
    /// counted once however many dispatches it took.
    pub completed: u64,
    /// The tenant's weighted-fair-queueing virtual time; its distance above
    /// [`QueueStats::vclock`] is the tenant's scheduling lag.
    pub vtime: f64,
}

/// A point-in-time snapshot of the whole queue.
#[derive(Debug, Clone)]
pub struct QueueStats {
    /// Jobs admitted but not yet dispatched, across tenants.
    pub depth: usize,
    /// The bound on `depth`.
    pub capacity: usize,
    /// Whether new submissions are currently admitted.
    pub accepting: bool,
    /// Virtual time of the most recent dispatch (the WFQ clock).
    pub vclock: f64,
    /// Per-tenant usage, sorted by tenant name.
    pub tenants: Vec<TenantUsage>,
}

#[derive(Debug)]
struct TenantState {
    queue: VecDeque<String>,
    vtime: f64,
    weight: f64,
    bucket: TokenBucket,
    running: usize,
    completed: u64,
}

impl TenantState {
    /// A tenant first seen at virtual time `clock`, with a full bucket.
    fn new(clock: f64, weight: f64, burst: f64) -> TenantState {
        TenantState {
            queue: VecDeque::new(),
            vtime: clock,
            weight,
            bucket: TokenBucket {
                tokens: burst,
                last: Instant::now(),
            },
            running: 0,
            completed: 0,
        }
    }
}

#[derive(Debug)]
struct QueueInner {
    tenants: HashMap<String, TenantState>,
    depth: usize,
    /// Virtual time of the most recent dispatch — newly backlogged tenants
    /// start here instead of claiming credit for their idle past.
    clock: f64,
    closed: bool,
}

/// The bounded, fair, rate-limited admission queue in front of the worker
/// dispatchers. Thread-safe; dispatchers block on [`AdmissionQueue::pop`].
#[derive(Debug)]
pub struct AdmissionQueue {
    config: AdmissionConfig,
    inner: Mutex<QueueInner>,
    ready: Condvar,
}

impl AdmissionQueue {
    /// An empty queue with the given policy.
    pub fn new(config: AdmissionConfig) -> AdmissionQueue {
        AdmissionQueue {
            config,
            inner: Mutex::new(QueueInner {
                tenants: HashMap::new(),
                depth: 0,
                clock: 0.0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn weight_for(&self, tenant: &str) -> f64 {
        self.config
            .weights
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|(_, w)| *w)
            .unwrap_or(1.0)
            .max(1e-6)
    }

    /// Admits `job` for `tenant`, calling `persist` (the durable record
    /// write) under the admission lock so the capacity bound stays exact;
    /// the job is enqueued only if `persist` succeeds.
    ///
    /// # Errors
    ///
    /// [`Shed`] (wrapped in `Ok(Err(..))` semantics collapsed to a flat
    /// `Err`) when admission is refused — the bucket is dry, the queue is
    /// full or closed — or the `persist` error passed through verbatim.
    pub fn admit(
        &self,
        tenant: &str,
        job: String,
        persist: impl FnOnce() -> std::io::Result<()>,
    ) -> Result<usize, AdmitError> {
        let weight = self.weight_for(tenant);
        let mut inner = self.inner.lock().expect("admission queue");
        if inner.closed {
            return Err(AdmitError::Shed(Shed::Closed));
        }
        if inner.depth >= self.config.queue_depth {
            return Err(AdmitError::Shed(Shed::QueueFull { depth: inner.depth }));
        }
        let clock = inner.clock;
        let state = inner
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState::new(clock, weight, self.config.burst));
        if let Err(retry_after_secs) =
            state
                .bucket
                .try_take(Instant::now(), self.config.rate, self.config.burst)
        {
            return Err(AdmitError::Shed(Shed::RateLimited { retry_after_secs }));
        }
        persist().map_err(AdmitError::Io)?;
        if state.queue.is_empty() {
            // A tenant re-entering the backlog starts at the current virtual
            // clock: idling must not bank credit to later burst past others.
            state.vtime = state.vtime.max(clock);
        }
        state.queue.push_back(job);
        inner.depth += 1;
        drop(inner);
        self.ready.notify_one();
        Ok(self.depth())
    }

    /// Re-enqueues a job during crash recovery: bypasses the rate limiter
    /// and the capacity bound (the job was already admitted and durably
    /// recorded in a previous server life).
    pub fn readmit(&self, tenant: &str, job: String) {
        let weight = self.weight_for(tenant);
        let mut inner = self.inner.lock().expect("admission queue");
        let clock = inner.clock;
        let state = inner
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState::new(clock, weight, self.config.burst));
        state.queue.push_back(job);
        inner.depth += 1;
        drop(inner);
        self.ready.notify_one();
    }

    /// Blocks until a job is available (returned with its tenant) or the
    /// queue is closed and empty (`None` — the dispatcher should exit).
    pub fn pop(&self) -> Option<(String, String)> {
        let mut inner = self.inner.lock().expect("admission queue");
        loop {
            if let Some((tenant, vtime, weight)) = inner
                .tenants
                .iter()
                .filter(|(_, s)| !s.queue.is_empty())
                .map(|(name, s)| (name.clone(), s.vtime, s.weight))
                .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)))
            {
                inner.clock = vtime;
                let state = inner.tenants.get_mut(&tenant).expect("tenant exists");
                let job = state.queue.pop_front().expect("tenant backlogged");
                state.vtime = vtime + 1.0 / weight;
                state.running += 1;
                inner.depth -= 1;
                return Some((tenant, job));
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("admission queue");
        }
    }

    /// Removes a specific queued job (a cancellation before dispatch).
    /// Returns whether it was found.
    pub fn remove(&self, tenant: &str, job: &str) -> bool {
        let mut inner = self.inner.lock().expect("admission queue");
        let Some(state) = inner.tenants.get_mut(tenant) else {
            return false;
        };
        let before = state.queue.len();
        state.queue.retain(|j| j != job);
        let removed = before - state.queue.len();
        inner.depth -= removed;
        removed > 0
    }

    /// Records that a dispatch of `tenant`'s job ended, whatever came of it:
    /// the job is no longer running.
    pub fn note_released(&self, tenant: &str) {
        let mut inner = self.inner.lock().expect("admission queue");
        if let Some(state) = inner.tenants.get_mut(tenant) {
            state.running = state.running.saturating_sub(1);
        }
    }

    /// Records that a job of `tenant` reached a terminal state (done,
    /// cancelled or failed). Call it once per job.
    pub fn note_settled(&self, tenant: &str) {
        let mut inner = self.inner.lock().expect("admission queue");
        if let Some(state) = inner.tenants.get_mut(tenant) {
            state.completed += 1;
        }
    }

    /// Closes the queue: nothing is admitted anymore, and dispatchers stop
    /// at their next pop instead of draining the backlog, which stays
    /// durably recorded for the restarted server to resume.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("admission queue");
        inner.closed = true;
        // Draining dispatchers must not pick up more queued work: the
        // backlog is persisted and belongs to the next server life.
        for state in inner.tenants.values_mut() {
            state.queue.clear();
        }
        inner.depth = 0;
        drop(inner);
        self.ready.notify_all();
    }

    /// Jobs admitted but not yet dispatched.
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("admission queue").depth
    }

    /// A point-in-time snapshot for the introspection endpoint.
    pub fn stats(&self) -> QueueStats {
        let inner = self.inner.lock().expect("admission queue");
        let mut tenants: Vec<TenantUsage> = inner
            .tenants
            .iter()
            .map(|(name, s)| TenantUsage {
                tenant: name.clone(),
                weight: s.weight,
                queued: s.queue.len(),
                running: s.running,
                completed: s.completed,
                vtime: s.vtime,
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        QueueStats {
            depth: inner.depth,
            capacity: self.config.queue_depth,
            accepting: !inner.closed,
            vclock: inner.clock,
            tenants,
        }
    }
}

/// Why [`AdmissionQueue::admit`] failed.
#[derive(Debug)]
pub enum AdmitError {
    /// Admission policy refused the job.
    Shed(Shed),
    /// The durable record write failed; the job was *not* admitted.
    Io(std::io::Error),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_persist() -> std::io::Result<()> {
        Ok(())
    }

    #[test]
    fn equal_weights_interleave_dequeues() {
        let queue = AdmissionQueue::new(AdmissionConfig::default());
        for i in 0..4 {
            queue.admit("alice", format!("a{i}"), no_persist).unwrap();
        }
        for i in 0..4 {
            queue.admit("bob", format!("b{i}"), no_persist).unwrap();
        }
        let order: Vec<String> = (0..8).map(|_| queue.pop().unwrap().1).collect();
        assert_eq!(
            order,
            vec!["a0", "b0", "a1", "b1", "a2", "b2", "a3", "b3"],
            "equal-weight tenants alternate instead of FIFO-starving"
        );
    }

    #[test]
    fn weights_bias_the_share() {
        let queue = AdmissionQueue::new(AdmissionConfig {
            weights: vec![("heavy".to_string(), 2.0)],
            ..AdmissionConfig::default()
        });
        for i in 0..6 {
            queue.admit("heavy", format!("h{i}"), no_persist).unwrap();
            queue.admit("light", format!("l{i}"), no_persist).unwrap();
        }
        let first_six: Vec<String> = (0..6).map(|_| queue.pop().unwrap().0).collect();
        let heavy = first_six.iter().filter(|t| *t == "heavy").count();
        assert_eq!(heavy, 4, "weight 2 gets ~2/3 of dispatches: {first_six:?}");
    }

    #[test]
    fn depth_bound_sheds_with_current_depth() {
        let queue = AdmissionQueue::new(AdmissionConfig {
            queue_depth: 2,
            ..AdmissionConfig::default()
        });
        queue.admit("t", "j1".to_string(), no_persist).unwrap();
        queue.admit("t", "j2".to_string(), no_persist).unwrap();
        match queue.admit("t", "j3".to_string(), no_persist) {
            Err(AdmitError::Shed(Shed::QueueFull { depth: 2 })) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // Dispatching frees a slot.
        queue.pop().unwrap();
        queue.admit("t", "j3".to_string(), no_persist).unwrap();
    }

    #[test]
    fn token_bucket_sheds_and_names_a_retry_horizon() {
        let queue = AdmissionQueue::new(AdmissionConfig {
            rate: 0.5,
            burst: 2.0,
            ..AdmissionConfig::default()
        });
        queue.admit("t", "j1".to_string(), no_persist).unwrap();
        queue.admit("t", "j2".to_string(), no_persist).unwrap();
        match queue.admit("t", "j3".to_string(), no_persist) {
            Err(AdmitError::Shed(Shed::RateLimited { retry_after_secs })) => {
                assert!(
                    (1..=2).contains(&retry_after_secs),
                    "0.5 tokens/s needs ~2s for a fresh token, got {retry_after_secs}"
                );
            }
            other => panic!("expected RateLimited, got {other:?}"),
        }
    }

    #[test]
    fn failed_persist_admits_nothing() {
        let queue = AdmissionQueue::new(AdmissionConfig::default());
        let result = queue.admit("t", "j1".to_string(), || {
            Err(std::io::Error::other("disk full"))
        });
        assert!(matches!(result, Err(AdmitError::Io(_))));
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn idle_tenants_do_not_bank_credit() {
        let queue = AdmissionQueue::new(AdmissionConfig::default());
        // alice burns through 4 dispatches while bob idles.
        for i in 0..4 {
            queue.admit("alice", format!("a{i}"), no_persist).unwrap();
        }
        for _ in 0..4 {
            queue.pop().unwrap();
        }
        // bob arriving now must not get 4 consecutive dispatches of credit.
        for i in 0..3 {
            queue.admit("alice", format!("x{i}"), no_persist).unwrap();
            queue.admit("bob", format!("b{i}"), no_persist).unwrap();
        }
        let tenants: Vec<String> = (0..6).map(|_| queue.pop().unwrap().0).collect();
        let lead: Vec<&String> = tenants.iter().take(2).collect();
        assert!(
            lead.contains(&&"alice".to_string()) && lead.contains(&&"bob".to_string()),
            "arrivals interleave immediately: {tenants:?}"
        );
    }

    #[test]
    fn close_wakes_poppers_and_preserves_nothing_in_memory() {
        let queue = std::sync::Arc::new(AdmissionQueue::new(AdmissionConfig::default()));
        queue.admit("t", "j1".to_string(), no_persist).unwrap();
        let popper = {
            let queue = std::sync::Arc::clone(&queue);
            std::thread::spawn(move || {
                let first = queue.pop();
                let second = queue.pop();
                (first, second)
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        queue.close();
        let (first, second) = popper.join().unwrap();
        assert_eq!(first, Some(("t".to_string(), "j1".to_string())));
        assert_eq!(second, None, "closed + empty queue releases the popper");
        assert!(matches!(
            queue.admit("t", "j2".to_string(), no_persist),
            Err(AdmitError::Shed(Shed::Closed))
        ));
    }
}
