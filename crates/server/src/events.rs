//! Per-job event retention for the streaming endpoint.
//!
//! The service streams [`RunEvent`]s over an `mpsc` channel, which can be
//! consumed exactly once — useless for an HTTP endpoint where clients attach
//! late, detach, and re-attach. [`EventLog`] is the adapter: a forwarder
//! thread appends every event as it arrives, and any number of readers
//! replay the log from the start and then block for more, releasing when
//! the log closes (job reached a terminal state).

use clapton_runtime::RunEvent;
use std::sync::{Condvar, Mutex};

#[derive(Debug, Default)]
struct LogInner {
    events: Vec<RunEvent>,
    closed: bool,
}

/// An append-only, multi-reader log of one job's [`RunEvent`]s.
#[derive(Debug, Default)]
pub struct EventLog {
    inner: Mutex<LogInner>,
    grew: Condvar,
}

impl EventLog {
    /// An empty, open log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Appends one event and wakes blocked readers.
    pub fn push(&self, event: RunEvent) {
        let mut inner = self.inner.lock().expect("event log");
        inner.events.push(event);
        drop(inner);
        self.grew.notify_all();
    }

    /// Marks the log complete; blocked readers drain and release.
    pub fn close(&self) {
        self.inner.lock().expect("event log").closed = true;
        self.grew.notify_all();
    }

    /// Returns event number `index` (0-based), blocking while the log is
    /// still open but hasn't grown that far; `None` once the log is closed
    /// and fully replayed.
    pub fn next(&self, index: usize) -> Option<RunEvent> {
        let mut inner = self.inner.lock().expect("event log");
        loop {
            if index < inner.events.len() {
                return Some(inner.events[index].clone());
            }
            if inner.closed {
                return None;
            }
            inner = self.grew.wait(inner).expect("event log");
        }
    }

    /// Number of events retained so far.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("event log").events.len()
    }

    /// Whether the log holds no events yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapton_runtime::EventKind;
    use std::sync::Arc;

    fn event(round: usize) -> RunEvent {
        // Fixed timestamps so two calls with the same round compare equal.
        RunEvent {
            job: "j".to_string(),
            kind: EventKind::Round(round, 0.0),
            unix_ns: 1_700_000_000_000_000_000,
            mono_ns: round as u64,
        }
    }

    #[test]
    fn replays_from_the_start_and_releases_on_close() {
        let log = Arc::new(EventLog::new());
        log.push(event(0));
        log.push(event(1));
        // A late reader sees the full history.
        assert_eq!(log.next(0), Some(event(0)));
        assert_eq!(log.next(1), Some(event(1)));
        // A blocked reader wakes when the log grows, then when it closes.
        let reader = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let third = log.next(2);
                let fourth = log.next(3);
                (third, fourth)
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        log.push(event(2));
        std::thread::sleep(std::time::Duration::from_millis(30));
        log.close();
        let (third, fourth) = reader.join().unwrap();
        assert_eq!(third, Some(event(2)));
        assert_eq!(fourth, None);
    }
}
