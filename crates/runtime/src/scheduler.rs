//! Progress events of a running job, streamed over a channel while it
//! runs.

use serde::{Deserialize, Serialize};

/// What happened inside a job (streamed over a channel while it runs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// The job started executing.
    Started,
    /// One unit of job progress: `(round, best loss so far)`.
    Round(usize, f64),
    /// A checkpoint for the given round was persisted.
    Checkpointed(usize),
    /// The job finished; the payload is a short human-readable outcome.
    Finished(String),
    /// The job halted early (budget exhausted / interrupt requested) after
    /// the given number of completed rounds.
    Suspended(usize),
    /// The job was cooperatively cancelled after the given number of
    /// completed rounds; this is terminal (a suspend is not).
    Cancelled(usize),
}

/// A progress event of one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunEvent {
    /// Name of the job that emitted the event.
    pub job: String,
    /// What happened.
    pub kind: EventKind,
    /// Wall-clock emit time, nanoseconds since the Unix epoch — orders
    /// events across processes (subject to clock skew).
    pub unix_ns: u64,
    /// Monotonic emit time, nanoseconds since this process's telemetry
    /// epoch — orders events within one process exactly.
    pub mono_ns: u64,
}

impl RunEvent {
    /// An event for `job` stamped with the current wall and monotonic
    /// clocks.
    pub fn now(job: impl Into<String>, kind: EventKind) -> RunEvent {
        RunEvent {
            job: job.into(),
            kind,
            unix_ns: clapton_telemetry::wall_ns(),
            mono_ns: clapton_telemetry::mono_ns(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_json() {
        let event = RunEvent::now("ising(J=0.25)", EventKind::Round(3, -12.625));
        assert!(event.unix_ns > 0, "wall clock stamped");
        let json = serde_json::to_string(&event).unwrap();
        assert_eq!(serde_json::from_str::<RunEvent>(&json).unwrap(), event);
    }
}
